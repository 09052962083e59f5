"""Newick trees in both directions: text to coalescence times, and heights
to text.

Reading: real genealogies arrive as rooted ultrametric Newick trees. This
module parses them (quoted labels and bracket comments included), validates
that they are binary and ultrametric within a relative tolerance, extracts
the internal-node heights as order-statistic coalescence times, and measures
the topology-true internal branch length used by the lengths-based
estimator. The parser reads a node at a time: one regular-expression match
takes a node's leading filler (whitespace and comments), its label, its
length and the filler after it, and a loop over '(', ',', ')' and ';' builds
the tree. In a multi-tree text, a tree that fails to parse becomes an error
item of the batch, and parsing resumes after the first ';' at or after the
error. Extraction walks a tree once: one preorder for the tip depths, whose
reverse is the postorder that checks binarity, counts tips and computes the
heights.

Writing: a row of branch-ordered heights with its tree height T defines the
coalescent-point-process tree. build_cpp_tree builds it as a TreeNode graph
and serialize_newick prints any tree canonically; cpp_newick_rows prints
the same canonical text for every row of a height matrix without building
a tree. Both builders follow one merge rule, _cpp_merges.

Parsing and traversal are iterative throughout, so deeply nested comb trees
cannot overflow the interpreter stack; every malformed input surfaces as a
structured ParseError.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .coalescent import CoalescenceTimes, check_finite_rows
from .errors import (
    MissingBranchLength,
    NotBinary,
    NotUltrametric,
    ParseError,
    RelativeAxisError,
    SampleTooSmall,
)

DEFAULT_ULTRAMETRIC_TOL = 1e-6

_LABEL_TERMINATORS = set("():,;[")


@dataclass
class TreeNode:
    label: str | None = None
    length: float | None = None
    children: list["TreeNode"] = field(default_factory=list)

    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class SampleTree:
    """Rooted tree with branch lengths.

    root_stem is the edge above the root node; stem_from_input records
    whether it was explicitly present in parsed text. Synthetic stems added
    by the point-process builder are excluded from internal-length sums, so
    the tree-based length agrees exactly with the branch-order formula.
    """

    root: TreeNode
    root_stem: float | None = None
    stem_from_input: bool = False

    def tips(self) -> list[TreeNode]:
        out: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf():
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out

    @property
    def n_tips(self) -> int:
        return len(self.tips())

    @property
    def tip_labels(self) -> list[str | None]:
        return [t.label for t in self.tips()]


def _postorder(root: TreeNode) -> list[TreeNode]:
    """Nodes ordered children-before-parent, without recursion."""
    order: list[TreeNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    order.reverse()
    return order


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# A node is its leading filler, a quoted or bare label, filler, and an
# optional ':' length token followed by filler; a '[' that a filler stops at
# opens a comment that never closes. The patterns compile on first use (re
# caches them), so commands that read no Newick do not hold them.
_FILLER = r"(?:\s+|\[[^\]]*\])*"  # whitespace and closed [...] comments
_WORD = r"[^():,;\[\s]"  # a character of a bare label or a length token
_NODE = (
    _FILLER
    # 1: quoted label; the lookahead keeps a closing quote from being the
    # first half of an escaped ''
    + r"(?:'((?:[^']|'')*)'(?!')"
    + r"|(?!')(" + _WORD + r"+))?"  # 2: bare label
    + _FILLER
    + r"(?::" + _FILLER + "(" + _WORD + "*)" + _FILLER + ")?"  # 3: length token
    + r"(?=(.?))"  # 4: the next character, '' at the end of the text
)


def _skip_filler(text: str, pos: int) -> int:
    end = re.compile(_FILLER).match(text, pos).end()
    if text.startswith("[", end):
        raise ParseError(end, "']' closing comment")
    return end


def _parse_one(text: str, pos: int) -> tuple[TreeNode, int, bool]:
    """Parse one subtree from pos; returns it, the offset after its trailing
    filler, and whether an edge below its root has no length.

    One _NODE match reads each node; an explicit stack of open groups
    replaces recursion. The checks run in the order a left-to-right reading
    meets them, so the error reported is the first one in the text.
    """
    match_node = re.compile(_NODE, re.S).match
    stack: list[TreeNode] = []
    missing_length = False
    closed = None  # the group a ')' just closed: the next node read is its label and length
    while True:
        if closed is None and text.startswith("(", pos):
            pos += 1
            stack.append(TreeNode())
            continue
        m = match_node(text, pos)
        quoted, label, token, nxt = m.groups()
        pos = m.end()
        if quoted is not None:
            label = quoted.replace("''", "'")
        length = None
        # an empty token before a '[' means the comment after ':' never closes
        if token is not None and (token or nxt != "["):
            try:
                length = float(token)
            except ValueError:
                raise ParseError(m.start(3), "branch length after ':'") from None
            if not math.isfinite(length):
                raise ParseError(m.start(3), "finite branch length")
        if nxt == "[":
            raise ParseError(pos, "']' closing comment")
        if label is None and token is None and nxt == "'":
            raise ParseError(pos, "closing quote for label")

        if closed is None:
            if label is None and length is None:
                if nxt == "(":  # a '(' after filler
                    continue
                # bare empty node is only tolerable inside a group
                if not stack or nxt not in (",", ")"):
                    raise ParseError(pos, "leaf label or '('")
            current = TreeNode(label=label, length=length)
        else:
            current, closed = closed, None
            current.label, current.length = label, length
        if not stack:
            return current, pos, missing_length
        stack[-1].children.append(current)
        if length is None:
            missing_length = True
        if nxt == ",":
            pos += 1
        elif nxt == ")":
            pos += 1
            closed = stack.pop()
        else:
            raise ParseError(pos, "',' or ')'")


def _require_lengths(root: TreeNode):
    """Raise for the first edge below the root without a length, visiting
    each node's children left to right, the rightmost child's subtree first."""
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            if child.length is None:
                where = child.label or "internal node"
                raise MissingBranchLength(f"edge above {where!r} has no branch length")
            stack.append(child)


def _finish_tree(root: TreeNode, missing_length: bool) -> SampleTree:
    if missing_length:
        _require_lengths(root)
    stem = root.length
    root.length = None
    return SampleTree(root=root, root_stem=stem, stem_from_input=stem is not None)


def parse_newick(text: str) -> SampleTree:
    """Parse a single Newick tree.

    Standard grammar: nested parentheses, optional (possibly quoted) labels,
    ':'-prefixed branch lengths, bracket comments, terminating ';'. Every
    edge except the root stem must carry a length, since the trees are bound
    for estimation. Multifurcations parse fine; they are rejected later,
    where the rejection can cite the offending node.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError(0, "nonempty Newick text")
    root, pos, missing_length = _parse_one(text, 0)
    if not text.startswith(";", pos):
        raise ParseError(pos, "';' terminating the tree")
    pos = _skip_filler(text, pos + 1)
    if pos < len(text):
        raise ParseError(pos, "end of input after ';'")
    return _finish_tree(root, missing_length)


def parse_newick_trees(text: str) -> list[SampleTree | ParseError | MissingBranchLength]:
    """Parse a ';'-separated multi-tree string, one entry per tree.

    An entry is the tree, or the error that stopped it; after an error the
    next tree starts after the first ';' at or after the error's offset.
    Text that holds no tree at all raises.
    """
    out: list[SampleTree | ParseError | MissingBranchLength] = []
    pos = 0
    while True:
        try:
            pos = _skip_filler(text, pos)
            if pos == len(text):
                break
            root, pos, missing_length = _parse_one(text, pos)
            if not text.startswith(";", pos):
                raise ParseError(pos, "';' terminating the tree")
            pos += 1
            out.append(_finish_tree(root, missing_length))
        except ParseError as exc:
            out.append(exc)
            semi = text.find(";", exc.offset)
            pos = len(text) if semi < 0 else semi + 1
        except MissingBranchLength as exc:  # raised after the tree's ';'
            out.append(exc)
    if not out:
        raise ParseError(0, "at least one tree")
    return out


# ---------------------------------------------------------------------------
# Validation and extraction
# ---------------------------------------------------------------------------


def extract_coalescence_times(
    tree: SampleTree, tol: float = DEFAULT_ULTRAMETRIC_TOL
) -> CoalescenceTimes:
    """Internal-node heights of a binary ultrametric tree, largest first.

    Heights are measured from the tips; under rounding jitter within the
    tolerance each node's height is the mean of its tip distances, which is
    unbiased for symmetric rounding noise. Branch order is not recoverable
    from a plain tree, so the result carries only order statistics.
    """
    # preorder, each tip's depth below the root summed from the root down
    order: list[TreeNode] = []
    tip_depths: list[float] = []
    stack = [(tree.root, 0.0)]
    while stack:
        node, depth = stack.pop()
        order.append(node)
        if node.children:
            for child in node.children:
                stack.append((child, depth + (child.length or 0.0)))
        else:
            tip_depths.append(depth)
    n = len(tip_depths)
    if n < 2:
        raise SampleTooSmall("need at least 2 tips to have a coalescence")

    # postorder: each finished subtree leaves (tips, summed distance from its
    # root down to its tips, length of the edge above it) on `below`
    below: list[tuple[int, float, float]] = []
    heights = []
    for node in reversed(order):
        children = node.children
        if not children:
            below.append((1, 0.0, node.length or 0.0))
            continue
        if len(children) != 2:
            raise NotBinary(f"node {node.label or '(unnamed)'} has {len(children)} children")
        count_r, total_r, length_r = below.pop()
        count_l, total_l, length_l = below.pop()
        count = count_l + count_r
        total = (total_l + count_l * length_l) + (total_r + count_r * length_r)
        below.append((count, total, node.length or 0.0))
        heights.append(total / count)

    depths = np.array(tip_depths)
    height = float(depths.max())
    if height > 0:
        worst = float(np.max(np.abs(depths - height))) / height
        if worst > tol:
            raise NotUltrametric(worst, tol)

    heights.sort(reverse=True)
    t = height + (tree.root_stem or 0.0)
    return CoalescenceTimes(n, tuple(heights), t=t, branch_order=False)


def tree_internal_branch_length(tree: SampleTree) -> float:
    """Sum of branch lengths of edges ancestral to two or more tips.

    A root stem counts only when it was explicitly present in the parsed
    input; the stem above the most recent common ancestor is otherwise not
    part of the sample genealogy.
    """
    total = 0.0
    counts: list[int] = []  # tips below each finished subtree, the newest last
    for node in _postorder(tree.root):
        k = len(node.children)
        if not k:
            counts.append(1)
            continue
        below = counts[-k:]
        del counts[-k:]
        for child, count in zip(node.children, below):
            if count >= 2:
                total += child.length or 0.0
        counts.append(sum(below))
    if counts[0] < 3:
        raise SampleTooSmall("internal branch length needs at least 3 tips")
    if tree.stem_from_input and tree.root_stem is not None:
        total += tree.root_stem
    return total


# ---------------------------------------------------------------------------
# Coalescent-point-process tree construction
# ---------------------------------------------------------------------------


def _check_tree_heights(matrix: np.ndarray, t: float | None) -> None:
    """What every point-process tree needs of its heights, for all rows at once."""
    if t is None:
        raise RelativeAxisError("building a tree needs absolute-axis times with T")
    check_finite_rows(matrix)
    if np.any(matrix <= 0):
        raise ValueError("coalescence times must be positive to build a tree")
    if np.any(matrix >= t):
        raise ValueError("coalescence times must lie below the tree height T")


def _cpp_merges(heights):
    """The point-process tree's merge rule, as the steps that build it.

    Tip 1 hangs on the spine, a line taller than any branch. Tip i hangs on
    a new line of height heights[i - 2], once every newer line strictly
    lower than that has joined the line below it; at the end the remaining
    lines join from the newest down. Yields (i, h) when tip i hangs on a
    line of height h, and (0, h) when the two newest subtrees join in a node
    at height h, the height of the newer one's line. The joined subtree
    hangs on the older line.
    """
    lines = [math.inf]
    yield 1, math.inf
    for i, h in enumerate(heights, start=2):
        while lines[-1] < h:
            yield 0, lines.pop()
        lines.append(h)
        yield i, h
    while len(lines) > 1:
        yield 0, lines.pop()


def build_cpp_tree(times: CoalescenceTimes) -> SampleTree:
    """Build the point-process tree: a height-T spine, then one branch per time.

    Branch i (height H_i) joins leftward at its top into the nearest earlier
    branch that is taller, which makes the tree the max-Cartesian tree of
    the height sequence with tips in the gaps. Tips are labelled t1..tn in
    branch order; internal node depths from the tips are exactly the H_i and
    the synthetic stem of length T - max(H) preserves the total height T.
    """
    heights = times.as_array()
    _check_tree_heights(heights[None, :], times.t)
    stack: list[tuple[float, TreeNode]] = []  # (node height, subtree) per line
    for tip, h in _cpp_merges(heights.tolist()):
        if tip:
            stack.append((0.0, TreeNode(label=f"t{tip}")))
            continue
        right_h, right = stack.pop()
        left_h, left = stack.pop()
        left.length, right.length = h - left_h, h - right_h
        stack.append((h, TreeNode(children=[left, right])))
    root_h, root = stack[0]
    return SampleTree(root=root, root_stem=float(times.t) - root_h)


def cpp_newick_rows(matrix: np.ndarray, t: float | None) -> list[str]:
    """serialize_newick(build_cpp_tree(...)) of each row of a (k, n-1) height
    matrix with tree height t, byte for byte, without building the trees.

    One stack pass per row over the merge steps; each entry is (node height,
    smallest tip label, text), and a join writes its children in the order
    of their smallest tip labels, as serialize_newick does. The checks of
    build_cpp_tree run once on the whole matrix.
    """
    _check_tree_heights(matrix, t)
    t = float(t)
    labels = [f"t{i}" for i in range(matrix.shape[1] + 2)]
    out = []
    for row in matrix.tolist():
        stack: list[tuple[float, str, str]] = []
        for tip, h in _cpp_merges(row):
            if tip:
                stack.append((0.0, labels[tip], labels[tip]))
                continue
            right_h, right_min, right = stack.pop()
            left_h, left_min, left = stack.pop()
            left = f"{left}:{_format_length(h - left_h)}"
            right = f"{right}:{_format_length(h - right_h)}"
            if left_min < right_min:
                stack.append((h, left_min, f"({left},{right})"))
            else:
                stack.append((h, right_min, f"({right},{left})"))
        root_h, _, text = stack[0]
        out.append(f"{text}:{_format_length(t - root_h)};")
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _quote_label(label: str) -> str:
    if label and not any(c in _LABEL_TERMINATORS or c.isspace() or c == "'" for c in label):
        return label
    return "'" + label.replace("'", "''") + "'"


def _format_length(x: float) -> str:
    return format(x, ".12g")


def serialize_newick(tree: SampleTree) -> str:
    """Canonical Newick text: children ordered by smallest tip label,
    lengths printed with 12 significant digits, ';'-terminated."""
    min_label: dict[int, str] = {}
    for node in _postorder(tree.root):
        if node.is_leaf():
            min_label[id(node)] = node.label or ""
        else:
            min_label[id(node)] = min(min_label[id(c)] for c in node.children)

    rendered: dict[int, str] = {}
    for node in _postorder(tree.root):
        if node.is_leaf():
            text = _quote_label(node.label or "")
        else:
            ordered = sorted(node.children, key=lambda c: min_label[id(c)])
            inner = ",".join(rendered[id(c)] for c in ordered)
            text = f"({inner})" + (_quote_label(node.label) if node.label else "")
        if node is not tree.root and node.length is not None:
            text += ":" + _format_length(node.length)
        rendered[id(node)] = text

    text = rendered[id(tree.root)]
    if tree.root_stem is not None:
        text += ":" + _format_length(tree.root_stem)
    return text + ";"
