"""Test oracles: the densities and CDFs that the samplers' quantile functions
invert, the exact regime's Y latent and single-factor samplers, the Monte
Carlo c_inv and logistic moment identities, and Newick trees as node graphs.

No command needs these; the tests check the closed-form CDFs against
quadrature of the densities and the samplers' draws against the CDFs. The
exact regime is written here in its Y form: latent Y with CDF
(y / (y + delta*(1 - y)))^n and heights given Y = y. The sampler draws the
latent Q = Y/((1 - Y)*delta) instead, which is why delta_t, y_quantile and
sample_y live only here. forward_heights runs the birth-death process itself,
forward in time, so the exact sampler is also checked against the process
and not only against its law as transcribed. The module also re-exports
bdgrowth.coalescent, so a test can read samplers and oracles from one
namespace.

The tree graph (TreeNode, SampleTree) is what bdgrowth.treeio reads without
building: a character-at-a-time parser makes it, build_cpp_tree builds the
point-process tree of a height row as one, and serialize_newick prints it.
The parser reads a batch as the package's reader does: one entry per tree,
and after a parse error the same resume rule, written from its own label
rule. extract_coalescence_times takes a graph and answers with
bdgrowth.treeio's reading of its exact text, so a graph test checks the
package's reader; tree_internal_branch_length sums the graph's own edges.

solve_location_120 and solve_scale_120 are the MLE fallback's two
bisections as they were before they stopped at their fixed point: every one
of their 120 steps runs, so a fit through them gives the bits the stop must
keep.

CountedThread stands in for threading.Thread where a test counts the
threads a command starts, and with_chunks_changed and with_rows_set for
the sampler where a test puts rows no sampler draws into a simulated matrix.
"""

import math
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from bdgrowth import treeio
from bdgrowth.calibration import _SN_BLOCK
from bdgrowth.coalescent import *  # noqa: F403
from bdgrowth.coalescent import (
    ExactFiniteT,
    chunk_rows,
    h_exact_quantile,
    logistic_quantile,
    u_given_q_quantile,
)
from bdgrowth.errors import InsufficientReplicates, MissingBranchLength, ParseError
from bdgrowth.rng import open_uniform

# Switch to the limiting (truncated-exponential) branch-height CDF when
# |r - y*lam| / r drops below this; the singularity there is removable.
_B_ZERO_REL = 1e-9


def delta_t(params: ExactFiniteT) -> float:
    """Probability weight r*exp(-rT) / (lam*(1 - exp(-rT)) + r*exp(-rT)) of
    the Y latent, in log space; it underflows to 0 beyond r*T of about 745."""
    r = params.r
    rt = r * params.t
    # 1 - exp(-rt) via expm1 keeps the T -> 0 limit accurate.
    denom = params.lam * (-math.expm1(-rt)) + r * math.exp(-rt)
    return min(math.exp(math.log(r) - rt - math.log(denom)), 1.0)


def y_quantile(u, n: int, delta: float):
    """Inverse of the CDF (y / (y + delta*(1 - y)))^n of Y:
    u^(1/n)*delta / (1 - u^(1/n)*(1 - delta))."""
    w = np.log(u) / n
    t = np.exp(w)
    # denominator written as (1 - t) + t*delta; expm1 keeps 1 - t accurate
    return t * delta / (-np.expm1(w) + t * delta)


def sample_y(n: int, delta: float, rng, size):
    gen = rng.generator()
    return y_quantile(open_uniform(gen, size), n, delta)


def y_density(y, n: int, delta: float):
    y = np.asarray(y, dtype=float)
    return n * delta * y ** (n - 1) / (y + delta - y * delta) ** (n + 1)


def y_cdf(y, n: int, delta: float):
    y = np.asarray(y, dtype=float)
    return (y / (y + delta * (1.0 - y))) ** n


def h_exact_density(t, y: float, params: ExactFiniteT):
    t = np.asarray(t, dtype=float)
    r = params.r
    a = y * params.lam
    b = r - a
    e_t = np.exp(-r * t)
    e_cap = math.exp(-r * params.t)
    norm = (a + b * e_cap) / (a * -math.expm1(-r * params.t))
    return norm * a * r * r * e_t / (a + b * e_t) ** 2


def h_exact_cdf(t, y: float, params: ExactFiniteT):
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


def q_of_y(y, params: ExactFiniteT):
    """The sampler's latent q = y/((1 - y)*delta) that Y = y stands for."""
    return y / ((1.0 - y) * delta_t(params))


def sample_h_exact(y, params: ExactFiniteT, rng, size):
    """Branch heights given Y = y, through the sampler's quantile."""
    gen = rng.generator()
    return h_exact_quantile(open_uniform(gen, size), q_of_y(y, params), params)


def sample_u_given_q(q, rng, size):
    gen = rng.generator()
    return u_given_q_quantile(open_uniform(gen, size), q)


def _uniforms(gen: np.random.Generator):
    """gen's uniforms on [0, 1) one at a time, drawn a block at a time."""
    while True:
        yield from gen.random(1024).tolist()


def forward_heights(lam: float, mu: float, t: float, n: int, gen: np.random.Generator):
    """The sorted n - 1 node depths of the genealogy of n individuals sampled
    uniformly at time t from a birth-death process run forward in time.

    One individual starts at time 0. Each living one gives birth at rate lam
    and dies at rate mu (Gillespie) until t; a run with fewer than n alive
    at t is dropped and another one started. Each birth is a node at its
    time: the daughter's parent is her mother. A birth is a node of the
    sample's genealogy when both the daughter's clade and her mother's line
    after it (the mother herself, or a later daughter's clade) hold sampled
    individuals; the parent chains of the sampled ones mark the clades that
    do. A depth is t minus the node's time.
    """
    draws, rate = _uniforms(gen), lam + mu
    while True:
        mother, born, alive, now = [-1], [0.0], [0], 0.0
        while alive:
            now -= math.log1p(-next(draws)) / (rate * len(alive))
            if now >= t:
                break
            k = int(next(draws) * len(alive))
            if next(draws) * rate < lam:
                mother.append(alive[k])
                born.append(now)
                alive.append(len(born) - 1)
            else:
                alive[k] = alive[-1]
                alive.pop()
        if len(alive) >= n:
            break
    sampled = set(gen.choice(alive, size=n, replace=False).tolist())
    marked = set()
    for i in sampled:
        while i >= 0 and i not in marked:
            marked.add(i)
            i = mother[i]
    daughters = {}  # birth times of each marked mother's marked daughters
    for c in marked - {0}:
        daughters.setdefault(mother[c], []).append(born[c])
    depths = []
    for m, times in daughters.items():
        times.sort()  # without the mother, the latest daughter carries her line on
        depths += [t - s for s in (times if m in sampled else times[:-1])]
    return np.sort(depths)


def c_inv_monte_carlo(values: np.ndarray) -> float:
    """Sample mean of 1/S_n; cross-validates the sampler against the closed form."""
    if values.size == 0:
        raise ValueError("empty sample")
    return float(np.mean(1.0 / values))


class MomentChecks(NamedTuple):
    """Monte Carlo values of the four logistic positive-part moments.

    For i.i.d. standard logistic U's the exact values are 1, pi^2/3,
    2 - pi^2/6 and 2; these feed the asymptotic-variance constant
    4 - pi^2/3 of the raw estimator.
    """

    e_plus: float          # E[(U1 - U2)^+]
    e_plus_sq: float       # E[((U1 - U2)^+)^2]
    e_chain: float         # E[(U1 - U2)^+ (U2 - U3)^+]
    e_shared_top: float    # E[(U1 - U2)^+ (U1 - U3)^+]
    replicates: int


def moment_identities_check(replicates: int, rng) -> MomentChecks:
    if replicates < 1_000_000:
        raise InsufficientReplicates("moment identities need at least 10^6 replicates")
    sums = np.zeros(4)
    done = 0
    block = 0
    while done < replicates:
        count = min(_SN_BLOCK, replicates - done)
        gen = rng.child(block).generator()
        u = logistic_quantile(open_uniform(gen, (count, 3)))
        d12 = np.maximum(u[:, 0] - u[:, 1], 0.0)
        d23 = np.maximum(u[:, 1] - u[:, 2], 0.0)
        d13 = np.maximum(u[:, 0] - u[:, 2], 0.0)
        sums += [d12.sum(), (d12 * d12).sum(), (d12 * d23).sum(), (d12 * d13).sum()]
        done += count
        block += 1
    m = sums / replicates
    return MomentChecks(m[0], m[1], m[2], m[3], replicates)


# ---------------------------------------------------------------------------
# The MLE fallback's bisections, all 120 steps
# ---------------------------------------------------------------------------


def solve_location_120(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The a of each row where sum tanh((h - a)/(2b)) = 0, bisected on
    [min h, max h] for 120 steps."""
    lo, hi = h.min(axis=1), h.max(axis=1)
    two_b = (2.0 * b)[:, None]
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        up = np.tanh((h - mid[:, None]) / two_b).sum(axis=1) >= 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def solve_scale_120(h: np.ndarray, a: np.ndarray, b_start: np.ndarray) -> np.ndarray:
    """The b of each row where sum z*tanh(z/2) = m, z = (h - a)/b: bracketed
    from b_start by quartering and quadrupling, then bisected geometrically
    for 120 steps."""
    d = h - a[:, None]

    def phi(b):
        z = d / b[:, None]
        return (z * np.tanh(0.5 * z)).sum(axis=1) - h.shape[1]

    def bracket(b, outside, factor):
        pending = np.ones(b.size, dtype=bool)
        for _ in range(200):
            pending &= ~outside(phi(b))
            if not pending.any():
                break
            b = np.where(pending, b * factor, b)
        return b

    lo = bracket(b_start, lambda v: v > 0.0, 0.25)
    hi = bracket(b_start, lambda v: v < 0.0, 4.0)
    for _ in range(120):
        mid = np.sqrt(lo * hi)
        up = phi(mid) >= 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return np.sqrt(lo * hi)


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


def _length_token(cur: _Cursor) -> tuple[int, str] | None:
    """The offset and text of a ':' length token after filler, or None where
    no ':' follows the filler."""
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
    return start, cur.text[start:cur.pos]


def _parse_length(cur: _Cursor) -> float | None:
    found = _length_token(cur)
    if found is None:
        return None
    start, token = found
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


def _skip_tree(cur: _Cursor, start: int):
    """Move cur to where the next tree starts after the one from start failed
    to parse: past the first ';' after a node, reading the tree again node
    by node (a label, then a ':' and its token, each after filler, then
    filler) and stepping over the character after each; or to the end of the
    text, at a comment, or a quote where a label starts, that never closes."""
    cur.pos = start
    try:
        while True:
            _parse_label(cur)
            if _length_token(cur) is not None:
                cur.skip_filler()
            c = cur.peek()
            if c is None:
                return
            cur.pos += 1
            if c == ";":
                return
    except ParseError:  # raised only where a comment or a quoted label never closes
        cur.pos = len(cur.text)


def parse_newick_trees(text: str) -> list[SampleTree | ParseError | MissingBranchLength]:
    """Parse a ';'-separated multi-tree string, one entry per tree: its graph,
    or the error that refused it. After a ParseError the next tree starts
    where _skip_tree puts it."""
    entries = []
    cur = _Cursor(text)
    while True:
        start = cur.pos
        try:
            cur.skip_filler()
            if cur.peek() is None:
                break
            root = _parse_one(cur)
            cur.skip_filler()
            if cur.peek() != ";":
                raise ParseError(cur.pos, "';' terminating the tree")
            cur.pos += 1
            entries.append(_finish_tree(root))
        except MissingBranchLength as exc:
            entries.append(exc)
        except ParseError as exc:
            entries.append(exc)
            _skip_tree(cur, start)
    if not entries:
        raise ParseError(0, "at least one tree")
    return entries


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
            text += ":" + (repr(length) if exact else format(length, ".12g"))
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
    """Sum of the lengths of the graph's edges above two or more tips, in
    postorder and left to right under each node, the order the reader sums
    them in; the root stem is no edge of the graph."""
    tips, total = {}, 0.0
    for node in _postorder(tree.root):
        tips[id(node)] = sum(tips[id(child)] for child in node.children) or 1
        for child in node.children:
            if tips[id(child)] >= 2:
                total += child.length or 0.0
    return total


class CountedThread(threading.Thread):
    """A real thread that counts its constructions and refuses any beyond
    `limit`, before a thread of the batch has started."""

    made = 0
    limit = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        if self.made > self.limit:
            raise AssertionError(f"constructed {self.made} threads, more than {self.limit}")
        super().__init__(*args, **kwargs)


def with_chunks_changed(height_draws, changes):
    """A stand-in for coalescent.height_draws that passes chunk k, once
    computed, through changes[k](chunk) for each k in changes; the draws are
    the same."""

    def changed(draw, change):
        chunk = draw()
        change(chunk)
        return chunk

    def patched(n, regime, rng, count, threads=1):
        for k, draw in enumerate(height_draws(n, regime, rng, count, threads)):
            yield partial(changed, draw, changes[k]) if k in changes else draw

    return patched


def with_rows_set(height_draws, rows):
    """A stand-in for coalescent.height_draws that sets row i of the whole
    (count, n - 1) matrix to rows[i] for each i in rows, in whichever chunk
    it falls, so a planted row is the same row at any chunk length."""

    def set_rows(chunk, start):
        for i, values in rows.items():
            if start <= i < start + len(chunk):
                chunk[i - start] = values

    def patched(n, regime, rng, count, threads=1):
        step = chunk_rows(n, threads)
        changes = {k: partial(set_rows, start=k * step) for k in range(-(-count // step))}
        return with_chunks_changed(height_draws, changes)(n, regime, rng, count, threads)

    return patched
