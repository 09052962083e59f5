"""Newick trees in both directions: text to the numbers estimation needs,
and height rows to text.

Reading: real genealogies arrive as rooted ultrametric Newick trees.
parse_newick_trees reads the text in pieces of about 32 kB, each ending at
a ';', and yields one TreeRecord per tree: the join heights, the tip count,
the topology-true internal branch length, the spread of tip distances below
the root and the first node that is not binary; a root stem is read and
checked but not kept. Two readers make the same records, bit for bit. The
bulk reader takes a piece of well-formed binary trees of two tips or more
with a finite length on every edge below a root: one regular-expression
pass lists each node's '(' run, length and separator, and one loop over
them does the rest with a stack of open groups. Every other piece (a parse
error, a multifurcation, a missing or non-finite length, a ';' inside a
quoted label or comment where the piece ends, a one-tip tree) and the text
after the last ';' go node at a time: one pass (quoted labels and bracket
comments included) in which one match takes a node's leading filler,
label, length and the filler after it, and the same stack does the rest.
Each finished subtree leaves only its tip count, its summed tip distance
and its nearest and farthest tip distance, and both readers join two
subtrees with the same code.
extract_coalescence_times and tree_internal_branch_length read the record,
validate it (at least two tips, binary, ultrametric within a relative
tolerance) and return the descending heights (a plain tree carries no
branch order) and the internal length used by the lengths-based
estimator. In a multi-tree text, a tree that fails to parse becomes an
error item of the batch, and the next tree starts after the first ';' that
follows a node when the bad tree is read again with the reader's own node
pattern, stepping over the character after each node; a comment, or a quote
at a label's start, that never closes takes the rest of the text.

Writing: a row of branch-ordered heights with its tree height T defines the
coalescent-point-process tree; cpp_newick_rows prints its canonical text for
every row of a height matrix without building a tree.

Reading and writing are iterative, so deeply nested comb trees cannot
overflow the interpreter stack; every malformed input surfaces as a
structured ParseError.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np

from .coalescent import check_finite_rows
from .errors import (
    MissingBranchLength,
    NotBinary,
    NotUltrametric,
    ParseError,
    RelativeAxisError,
    SampleTooSmall,
)

DEFAULT_ULTRAMETRIC_TOL = 1e-6


class TreeRecord(NamedTuple):
    """What estimation needs of one parsed tree.

    heights holds the height of every binary join, in postorder: the mean
    distance from the join down to its tips. lo and hi are the nearest and
    farthest tip distances below the root, each summed from its tip upward.
    internal sums, in postorder and left to right under each node, the edges
    above subtrees of two or more tips. not_binary is the refusal text of the
    first node in postorder that does not have two children, or None.
    """

    heights: list[float]
    tips: int
    internal: float
    lo: float
    hi: float
    not_binary: str | None


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


# Both readers' node patterns are built from these fragments, so they read
# filler, labels and length tokens alike. Filler is whitespace and closed
# [...] comments; a '[' that filler stops at opens a comment that never
# closes. An optional part is written (?:...|), not (?:...)?: re then saves
# no repeat state, and the benchmark's batch tokenizes in 21 ms, not 30. The
# patterns compile on first use (re caches them), so commands that read no
# Newick do not hold them.
_COMMENT = r"\[[^\]]*\]\s*"
_FILLER = r"\s*(?:" + _COMMENT + "(?:" + _COMMENT + ")*|)"
_QUOTED = r"[^']*(?:''[^']*)*"  # a quoted label between its quotes, a quote doubled
_WORD = r"[^():,;\[\s]"  # a character of a bare label or a length token
_BARE = r"[^():,;\[\s']" + _WORD + "*"  # a bare label, which no quote starts
# A node: filler, a quoted (1) or bare (2) label, filler, and an optional
# ':' length token (3) with filler around it; then the next character (4),
# '' at the end of the text. The lookahead keeps a closing quote from being
# the first half of an escaped ''.
_NODE = (_FILLER + "(?:'(" + _QUOTED + ")'(?!')|(" + _BARE + "))?" + _FILLER
         + "(?::" + _FILLER + "(" + _WORD + "*)" + _FILLER + r")?(?=(.?))")
# The bulk reader's node: filler, its '(' run (1), a label, which it skips,
# filler, ':' (2) and a length token (3) with filler after them, and its
# separator (4), or in its place any other character, a stray, which leaves
# (4) empty; so a node with filler between '(' and its label or right after
# its ':' has a stray. The filler before the last part takes all
# whitespace, the last part any other character, and a piece ends at a ';',
# so a match never backtracks: each run of filler, '(' or label is read once.
_BULK_NODE = (_FILLER + r"(\(*)(?:" + _BARE + "|'" + _QUOTED + "'|)" + _FILLER
              + "(?:(:)(" + _WORD + "*)" + _FILLER + r"|)(?:([,);])|\S)")
_RUN = r"[(),]*"  # holds empty nodes only, which a resume scan steps over at once
_PIECE = 1 << 15  # characters tokenized at once, up to the next ';'


def _join(left, right, heights: list[float], internal: float):
    """Join two subtrees, as they wait on `below`, in a binary group: append
    its height to heights; return its (tips, total, lo, hi) and internal plus
    each child's edge, left then right, where that child has two tips or more."""
    tips_l, total_l, length_l, lo_l, hi_l = left
    tips_r, total_r, length_r, lo_r, hi_r = right
    tips = tips_l + tips_r
    total = total_l + total_r
    heights.append(total / tips)
    if tips_l > 1:
        internal += length_l
    if tips_r > 1:
        internal += length_r
    return (tips, total, lo_l if lo_l < lo_r else lo_r, hi_l if hi_l > hi_r else hi_r), internal


def _read_tree(text: str, pos: int, match_node) -> tuple[TreeRecord, str | None, int]:
    """Read one tree from pos in one pass; returns its record, what the
    missing-length refusal names (None when every edge below the root has a
    length), and the offset after the tree's trailing filler.

    Each finished subtree waits on `below` as (tips, summed distance from
    the top of the edge above it down to its tips, that edge's length,
    nearest and farthest tip distance from the top of that edge) until its
    group closes. The checks run in the order a left-to-right reading meets
    them, so the parse error reported is the first one in the text.
    """
    starts: list[int] = []  # where each open group's children begin on `below`
    below: list[tuple[int, float, float, float, float]] = []
    heights: list[float] = []
    internal = 0.0
    not_binary = None
    # The missing-length refusal names the leftmost child without a length
    # of the last group to close that has one: of the first such group in
    # reverse postorder, the order the refusal has always searched in.
    unnamed: dict[int, str] = {}  # open group's depth -> its first child without length
    missing = None
    closed = None  # (tips, total, lo, hi) of the group a ')' just closed, with `degree` children
    while True:
        if closed is None and text.startswith("(", pos):
            pos += 1
            starts.append(len(below))
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
                if not starts or nxt not in (",", ")"):
                    raise ParseError(pos, "leaf label or '('")
            tips, total, lo, hi = 1, 0.0, 0.0, 0.0
        else:
            tips, total, lo, hi = closed
            closed = None
            if degree != 2 and not_binary is None:
                not_binary = f"node {label or '(unnamed)'} has {degree} children"
        if not starts:
            return TreeRecord(heights, tips, internal, lo, hi, not_binary), missing, pos
        if length is None:
            unnamed.setdefault(len(starts), label or "internal node")
            length = 0.0
        below.append((tips, total + tips * length, length, lo + length, hi + length))
        if nxt == ",":
            pos += 1
            continue
        if nxt != ")":
            raise ParseError(pos, "',' or ')'")
        pos += 1
        if unnamed:
            missing = unnamed.pop(len(starts), missing)
        start = starts.pop()
        children = below[start:]
        del below[start:]
        degree = len(children)
        if degree == 2:
            closed, internal = _join(*children, heights, internal)
        else:  # refused as not binary, but its tips and lengths still count
            for child in children:
                if child[0] > 1:
                    internal += child[2]
            closed = (sum(child[0] for child in children), 0.0,
                      min(child[3] for child in children), max(child[4] for child in children))


def _read_trees(text: str, pos: int, stop: int, match_node, out: list) -> int:
    """Read trees node at a time from pos into out until past stop; returns
    where the next tree starts. After a tree that fails to parse, that is
    past the first ';' after a node, reading the tree again node by node and
    stepping over the character after each; or the end of the text, at a
    comment, or a quote where a label starts, that never closes."""
    while pos < stop:
        start = pos
        if re.compile(_FILLER).match(text, pos).end() == len(text):
            return len(text)
        try:
            record, missing, pos = _read_tree(text, pos, match_node)
            if not text.startswith(";", pos):
                raise ParseError(pos, "';' terminating the tree")
            out.append(record if missing is None else
                       MissingBranchLength(f"edge above {missing!r} has no branch length"))
            pos += 1
        except ParseError as exc:
            out.append(exc)
            m = match_node(text, start)
            while m.group(4) not in (";", "", "[") and m.group(1, 2, 3, 4) != (None, None, None, "'"):
                m = match_node(text, re.compile(_RUN).match(text, m.end() + 1).end())
            pos = m.end() + 1 if m.group(4) == ";" else len(text)
    return pos


def _bulk_records(nodes: list[tuple[str, ...]]) -> list[TreeRecord] | None:
    """The records of a piece's trees from the tokens of its nodes, in one
    pass with _read_tree's stack and its _join; or None when the piece needs
    _read_tree: a stray character, a '(' right after a ')', a node that is
    not binary, a missing, unreadable or non-finite length (the root's may
    be missing), or a ';' inside a group or after a one-tip tree.

    Each record is bit-identical to the one _read_tree makes, since both
    lift a subtree over its edge and join two subtrees with the same code.
    """
    out: list[TreeRecord] = []
    starts: list[int] = []
    below: list[tuple[int, float, float, float, float]] = []
    heights: list[float] = []
    internal = 0.0
    closed = None  # (tips, total, lo, hi) of the group a ')' just closed
    try:
        for run, colon, token, sep in nodes:
            if run:
                if closed:  # a '(' right after a ')'
                    return None
                for _ in run:
                    starts.append(len(below))
            tips, total, lo, hi = closed or (1, 0.0, 0.0, 0.0)  # a group's node, or a leaf
            closed = None
            if sep == ";":
                # a one-tip tree goes to _read_tree, which tells a label from none
                if starts or tips == 1 or colon and not math.isfinite(float(token)):
                    return None
                out.append(TreeRecord(heights, tips, internal, lo, hi, None))
                heights, internal = [], 0.0
                continue
            length = float(token)
            if not starts or length - length:  # x - x is 0.0 for finite x only
                return None
            below.append((tips, total + tips * length, length, lo + length, hi + length))
            if sep == ")":
                if len(below) - starts.pop() != 2:
                    return None
                closed, internal = _join(below.pop(-2), below.pop(), heights, internal)
            elif sep != ",":  # a stray
                return None
    except ValueError:  # a missing or unreadable length
        return None
    return None if starts or closed else out


def parse_newick_trees(text: str) -> list[TreeRecord | ParseError | MissingBranchLength]:
    """Read a ';'-separated multi-tree string, one entry per tree.

    Standard grammar: nested parentheses, optional (possibly quoted) labels,
    ':'-prefixed branch lengths, bracket comments, ';' after each tree. An
    entry is the tree's record, or the error that refused it: a ParseError,
    or a MissingBranchLength when an edge other than the root stem has no
    length, since the trees are bound for estimation. After a ParseError the
    bad tree is read again node by node, stepping over the character after
    each node, and the next tree starts after the first ';' that follows a
    node; a comment, or a quote at a label's start, that never closes takes
    the rest of the text. So b'c is a bare label here too. Multifurcations
    read fine; they are refused by extraction, which can cite the offending
    node. Text that holds no tree at all raises.

    The text is read in pieces of about _PIECE characters, each ending at a
    ';'. _bulk_records reads a piece of well-formed binary trees in one
    stack pass over its nodes' tokens; any other piece goes to _read_tree,
    node at a time, from the piece's start until past its end, and the next
    piece starts where _read_tree stopped. The text after the last ';' goes
    node at a time too. Both readers give the same entries, bit for bit.
    """
    match_node = re.compile(_NODE, re.S).match
    find_nodes = re.compile(_BULK_NODE).findall
    out: list[TreeRecord | ParseError | MissingBranchLength] = []
    pos = 0
    while pos < len(text):
        stop = text.find(";", pos + _PIECE) + 1 or len(text)
        end = text.rfind(";", pos, stop) + 1  # the bulk reader stops at a ';'
        # a '[' after the piece's last ']' opens a comment the piece never
        # closes, which the pattern would scan once for every '[' after it
        bulk = end and text.rfind("[", pos, end) <= text.rfind("]", pos, end)
        records = _bulk_records(find_nodes(text, pos, end)) if bulk else None
        if records is None:
            pos = _read_trees(text, pos, stop, match_node, out)
        else:
            out += records
            pos = end
    if not out:
        raise ParseError(0, "at least one tree")
    return out


# ---------------------------------------------------------------------------
# Validation and extraction
# ---------------------------------------------------------------------------


def extract_coalescence_times(
    tree: TreeRecord, tol: float = DEFAULT_ULTRAMETRIC_TOL
) -> np.ndarray:
    """Internal-node heights of a binary ultrametric tree with n tips: a
    descending float array of n - 1 heights.

    Refuses, in this order, fewer than two tips, a node that is not binary,
    and tip distances below the root whose spread exceeds tol relative to
    the one farthest from 0, so a tree's mirror image (every length negated)
    is refused alike. Heights are measured from the tips; under rounding jitter
    within the tolerance each node's height is the mean of its tip
    distances, which is unbiased for symmetric rounding noise. Branch order
    is not recoverable from a plain tree, so the result holds only order
    statistics. Lengths whose sums overflow give inf heights, which callers
    refuse.
    """
    if tree.tips < 2:
        raise SampleTooSmall("need at least 2 tips to have a coalescence")
    if tree.not_binary is not None:
        raise NotBinary(tree.not_binary)
    far = tree.hi if tree.hi > 0 else -tree.lo  # the farthest tip distance from 0
    if far > 0:
        worst = (tree.hi - tree.lo) / far  # nan when far is inf, which passes
        if worst > tol:
            raise NotUltrametric(worst, tol)
    return np.array(sorted(tree.heights, reverse=True))


def tree_internal_branch_length(tree: TreeRecord) -> float:
    """Sum of branch lengths of edges ancestral to two or more tips, by the
    tree's own topology.

    A root stem, explicit or not, lies above the sample's most recent common
    ancestor and is no part of its genealogy, so it does not count: the
    point-process tree of a height row gives the row's branch-order length.
    """
    if tree.tips < 3:
        raise SampleTooSmall("internal branch length needs at least 3 tips")
    return tree.internal


# ---------------------------------------------------------------------------
# Writing coalescent-point-process trees
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


def cpp_newick_rows(matrix: np.ndarray, t: float | None) -> list[str]:
    """Canonical Newick text of the point-process tree of each row of a
    (k, n-1) height matrix with tree height t, without building the trees.

    Row i's tree is a height-t spine, then one branch per height: branch j
    (height H_j) joins leftward at its top into the nearest earlier branch
    that is taller, which makes the tree the max-Cartesian tree of the
    heights with tips t1..tn in the gaps. Its internal nodes lie exactly at
    the H_j, and the stem of length t - max(H) keeps the total height t.
    The text orders children by smallest tip label (as strings), prints
    lengths with 12 significant digits and ends with the stem and ';'.

    One stack pass per row over the merge steps; each entry is (node height,
    smallest tip label, text). The height checks run once on the whole
    matrix.
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
            left = f"{left}:{h - left_h:.12g}"
            right = f"{right}:{h - right_h:.12g}"
            if left_min < right_min:
                stack.append((h, left_min, f"({left},{right})"))
            else:
                stack.append((h, right_min, f"({right},{left})"))
        root_h, _, text = stack[0]
        out.append(f"{text}:{t - root_h:.12g};")
    return out
