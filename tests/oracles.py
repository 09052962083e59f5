"""Test oracles: the densities and CDFs that the samplers' quantile functions
invert, two single-factor samplers, the Monte Carlo c_inv, and Newick trees
as node graphs.

No command needs these; the tests check the closed-form CDFs against
quadrature of the densities and the samplers' draws against the CDFs. The
module also re-exports bdgrowth.coalescent, so a test can read samplers and
oracles from one namespace.

The tree graph (TreeNode, SampleTree) is what bdgrowth.treeio reads without
building: a character-at-a-time parser makes it, build_cpp_tree builds the
point-process tree of a height row as one, and serialize_newick prints it.
extract_coalescence_times and tree_internal_branch_length take a graph and
answer with bdgrowth.treeio's reading of its exact text, so a graph test
checks the package's reader.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from bdgrowth import treeio
from bdgrowth.calibration import SnSample
from bdgrowth.coalescent import *  # noqa: F403
from bdgrowth.coalescent import (
    _B_ZERO_REL,
    BirthDeathParams,
    h_exact_quantile,
    u_given_q_quantile,
)
from bdgrowth.errors import MissingBranchLength, ParseError
from bdgrowth.rng import as_generator, open_uniform


def y_density(y, n: int, delta: float):
    y = np.asarray(y, dtype=float)
    return n * delta * y ** (n - 1) / (y + delta - y * delta) ** (n + 1)


def y_cdf(y, n: int, delta: float):
    y = np.asarray(y, dtype=float)
    return (y / (y + delta * (1.0 - y))) ** n


def h_exact_density(t, y: float, params: BirthDeathParams):
    t = np.asarray(t, dtype=float)
    r = params.r
    a = y * params.lam
    b = r - a
    e_t = np.exp(-r * t)
    e_cap = math.exp(-r * params.t)
    norm = (a + b * e_cap) / (a * -math.expm1(-r * params.t))
    return norm * a * r * r * e_t / (a + b * e_t) ** 2


def h_exact_cdf(t, y: float, params: BirthDeathParams):
    """CDF of a branch height given Y = y, on (0, T).

    General form C*(a*r/b)*(1/(a + b*exp(-r*t)) - 1/r) with
    C = (a + b*exp(-rT)) / (a*(1 - exp(-rT))); reduces to a truncated
    exponential when b = r - y*lam vanishes.
    """
    t = np.asarray(t, dtype=float)
    r = params.r
    a = y * params.lam
    b = r - a
    if abs(b) < _B_ZERO_REL * r:
        return np.expm1(-r * t) / np.expm1(-r * params.t)
    e_t = np.exp(-r * t)
    e_cap = math.exp(-r * params.t)
    c = (a + b * e_cap) / (a * -math.expm1(-r * params.t))
    return c * (a * r / b) * (1.0 / (a + b * e_t) - 1.0 / r)


def q_density(q, n: int):
    q = np.asarray(q, dtype=float)
    return n * q ** (n - 1) / (1.0 + q) ** (n + 1)


def q_cdf(q, n: int):
    q = np.asarray(q, dtype=float)
    return (q / (1.0 + q)) ** n


def u_given_q_density(u, q: float):
    u = np.asarray(u, dtype=float)
    out = (1.0 + q) / q * np.exp(u) / (1.0 + np.exp(u)) ** 2
    return np.where(u > -np.log(q), out, 0.0)


def u_given_q_cdf(u, q: float):
    u = np.asarray(u, dtype=float)
    return np.clip(1.0 - (1.0 + q) / (q * (1.0 + np.exp(u))), 0.0, None)


def sample_h_exact(y, params: BirthDeathParams, rng, size=None):
    gen = as_generator(rng)
    return h_exact_quantile(open_uniform(gen, size), y, params)


def sample_u_given_q(q, rng, size=None):
    gen = as_generator(rng)
    return u_given_q_quantile(open_uniform(gen, size), q)


def c_inv_monte_carlo(sample: SnSample) -> float:
    """Sample mean of 1/S_n; cross-validates the sampler against the closed form."""
    v = sample.values
    if v.size == 0:
        raise ValueError("empty sample")
    return float(np.mean(1.0 / v))


# ---------------------------------------------------------------------------
# Newick trees as node graphs
# ---------------------------------------------------------------------------

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
    whether it was explicitly present in parsed text. The stem that
    build_cpp_tree adds is not, so it stays out of the tree's exact text.
    """

    root: TreeNode
    root_stem: float | None = None
    stem_from_input: bool = False

    @property
    def n_tips(self) -> int:
        return sum(node.is_leaf() for node in _postorder(self.root))


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


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def skip_filler(self):
        """Skip whitespace and bracketed comments."""
        while True:
            c = self.peek()
            if c is not None and c.isspace():
                self.pos += 1
            elif c == "[":
                end = self.text.find("]", self.pos + 1)
                if end < 0:
                    raise ParseError(self.pos, "']' closing comment")
                self.pos = end + 1
            else:
                return


def _parse_label(cur: _Cursor) -> str | None:
    cur.skip_filler()
    c = cur.peek()
    if c == "'":
        start = cur.pos
        cur.pos += 1
        chunks = []
        while True:
            c = cur.peek()
            if c is None:
                raise ParseError(start, "closing quote for label")
            cur.pos += 1
            if c == "'":
                if cur.peek() == "'":  # doubled quote escapes a quote
                    chunks.append("'")
                    cur.pos += 1
                else:
                    return "".join(chunks)
            else:
                chunks.append(c)
    chunks = []
    while True:
        c = cur.peek()
        if c is None or c in _LABEL_TERMINATORS or c.isspace():
            break
        chunks.append(c)
        cur.pos += 1
    return "".join(chunks) or None


def _parse_length(cur: _Cursor) -> float | None:
    cur.skip_filler()
    if cur.peek() != ":":
        return None
    cur.pos += 1
    cur.skip_filler()
    start = cur.pos
    while True:
        c = cur.peek()
        if c is None or c in _LABEL_TERMINATORS or c.isspace():
            break
        cur.pos += 1
    token = cur.text[start:cur.pos]
    try:
        value = float(token)
    except ValueError:
        raise ParseError(start, "branch length after ':'") from None
    if not np.isfinite(value):
        raise ParseError(start, "finite branch length")
    return value


def _parse_one(cur: _Cursor) -> TreeNode:
    """Parse one subtree with an explicit stack of open groups."""
    stack: list[TreeNode] = []
    while True:
        cur.skip_filler()
        if cur.peek() == "(":
            cur.pos += 1
            stack.append(TreeNode())
            continue
        label = _parse_label(cur)
        length = _parse_length(cur)
        if label is None and length is None:
            # bare empty node is only tolerable inside a group
            if not stack or cur.peek() not in (",", ")"):
                raise ParseError(cur.pos, "leaf label or '('")
        current = TreeNode(label=label, length=length)
        while True:
            if not stack:
                return current
            stack[-1].children.append(current)
            cur.skip_filler()
            c = cur.peek()
            if c == ",":
                cur.pos += 1
                break
            if c == ")":
                cur.pos += 1
                node = stack.pop()
                node.label = _parse_label(cur)
                node.length = _parse_length(cur)
                current = node
                continue
            raise ParseError(cur.pos, "',' or ')'")


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


def _finish_tree(root: TreeNode) -> SampleTree:
    _require_lengths(root)
    stem = root.length
    root.length = None
    return SampleTree(root=root, root_stem=stem, stem_from_input=stem is not None)


def parse_newick(text: str) -> SampleTree:
    """Parse a single Newick tree into a graph; an error in it raises."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError(0, "nonempty Newick text")
    cur = _Cursor(text)
    root = _parse_one(cur)
    cur.skip_filler()
    if cur.peek() != ";":
        raise ParseError(cur.pos, "';' terminating the tree")
    cur.pos += 1
    cur.skip_filler()
    if cur.peek() is not None:
        raise ParseError(cur.pos, "end of input after ';'")
    return _finish_tree(root)


def parse_newick_trees(text: str) -> list[SampleTree]:
    """Parse a ';'-separated multi-tree string into graphs; the first error
    in it raises."""
    trees = []
    cur = _Cursor(text)
    while True:
        cur.skip_filler()
        if cur.peek() is None:
            break
        root = _parse_one(cur)
        cur.skip_filler()
        if cur.peek() != ";":
            raise ParseError(cur.pos, "';' terminating the tree")
        cur.pos += 1
        trees.append(_finish_tree(root))
    if not trees:
        raise ParseError(0, "at least one tree")
    return trees


def build_cpp_tree(heights, t: float | None) -> SampleTree:
    """The point-process tree of a row of branch-ordered heights as a graph,
    by the merge rule cpp_newick_rows writes; its stem t - max(H) is not
    from input."""
    heights = np.asarray(heights, dtype=float)
    treeio._check_tree_heights(heights[None, :], t)
    stack: list[tuple[float, TreeNode]] = []  # (node height, subtree) per line
    for tip, h in treeio._cpp_merges(heights.tolist()):
        if tip:
            stack.append((0.0, TreeNode(label=f"t{tip}")))
            continue
        right_h, right = stack.pop()
        left_h, left = stack.pop()
        left.length, right.length = h - left_h, h - right_h
        stack.append((h, TreeNode(children=[left, right])))
    root_h, root = stack[0]
    return SampleTree(root=root, root_stem=float(t) - root_h)


def _quote_label(label: str) -> str:
    if label and not any(c in _LABEL_TERMINATORS or c.isspace() or c == "'" for c in label):
        return label
    return "'" + label.replace("'", "''") + "'"


def serialize_newick(tree: SampleTree, exact: bool = False) -> str:
    """Canonical Newick text: children ordered by smallest tip label,
    lengths printed with 12 significant digits, the stem, ';'.

    exact=True prints the tree as it is instead: children in their order,
    lengths that read back to the same floats, and the stem only when the
    tree was read with one.
    """
    min_label: dict[int, str] = {}
    rendered: dict[int, str] = {}
    for node in _postorder(tree.root):
        if node.is_leaf():
            min_label[id(node)] = node.label or ""
            text = _quote_label(node.label or "")
        else:
            min_label[id(node)] = min(min_label[id(c)] for c in node.children)
            ordered = node.children if exact else sorted(
                node.children, key=lambda c: min_label[id(c)])
            inner = ",".join(rendered[id(c)] for c in ordered)
            text = f"({inner})" + (_quote_label(node.label) if node.label else "")
        length = tree.root_stem if node is tree.root else node.length
        if node is tree.root and exact and not tree.stem_from_input:
            length = None
        if length is not None:
            text += ":" + (repr(length) if exact else treeio._format_length(length))
        rendered[id(node)] = text
    return rendered[id(tree.root)] + ";"


def record_of(tree: SampleTree) -> treeio.TreeRecord:
    """bdgrowth.treeio's record of a graph, read from its exact text."""
    (item,) = treeio.parse_newick_trees(serialize_newick(tree, exact=True))
    if isinstance(item, Exception):
        raise item
    return item


def extract_coalescence_times(tree: SampleTree, tol: float = treeio.DEFAULT_ULTRAMETRIC_TOL):
    return treeio.extract_coalescence_times(record_of(tree), tol)


def tree_internal_branch_length(tree: SampleTree) -> float:
    return treeio.tree_internal_branch_length(record_of(tree))
