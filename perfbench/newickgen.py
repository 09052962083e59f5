"""Seeded Newick batches with known coalescence heights, and a small reader.

The generator draws each tree's branch heights from the fixed-n
coalescent-point-process law (latent Q, then shifted logistics; growth rate
r, height T) with Python's own `random.Random`, and builds the max-Cartesian
point-process tree from them. The bytes therefore depend on the seed alone,
not on numpy or on the program under test, so the parent commit and a change
read the same file. Like real files, the trees carry quoted labels (with
spaces and doubled quotes), internal-node labels and `[&...]` comments, and
their child order is shuffled.

The reader is independent of bdgrowth's parser. The output checks use it on
the program's serialized trees, and the tests use it to confirm that the
generator's files hold the heights it reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

_TERMINATORS = set("():,;[")
# growth rate and height of every generated tree
R = 1.0
T = 40.0


@dataclass
class TrueTree:
    """What the generator knows about one tree it wrote."""

    n: int
    heights: list[float]       # branch-ordered coalescence heights
    internal_length: float     # sum of edges ancestral to two or more tips


@dataclass
class _Node:
    height: float
    children: list["_Node"] = field(default_factory=list)
    tip: int = 0               # 1-based tip index, 0 for internal nodes


def _cpp_heights(rng: random.Random, n: int, r: float, t: float) -> list[float]:
    # Q has CDF (q/(1+q))^n; given Q = q, U has CDF 1 - (1+q)/(q(1+e^u)) on
    # (-log q, inf); a height is T - (log q + U)/r. Draws landing on a
    # support endpoint are redrawn, so every height lies inside (0, T).
    while True:
        v = rng.random() ** (1.0 / n)
        if 0.0 < v < 1.0:
            break
    q = v / (1.0 - v)
    heights: list[float] = []
    while len(heights) < n - 1:
        w = rng.random()
        u = math.log1p(q * w) - math.log(q) - math.log1p(-w)
        h = t - (math.log(q) + u) / r
        if 0.0 < h < t:
            heights.append(h)
    return heights


def _cpp_tree(heights: list[float]) -> _Node:
    """Max-Cartesian tree of the heights with tips t1..tn in the gaps."""
    stack: list[tuple[float, _Node]] = [(math.inf, _Node(0.0, tip=1))]

    def merge_top():
        top_h, top = stack.pop()
        prev_h, prev = stack.pop()
        stack.append((prev_h, _Node(top_h, [prev, top])))

    for i, h in enumerate(heights, start=2):
        while stack[-1][0] < h:
            merge_top()
        stack.append((h, _Node(0.0, tip=i)))
    while len(stack) > 1:
        merge_top()
    return stack[0][1]


def _tip_label(rng: random.Random, index: int) -> str:
    roll = rng.random()
    if roll < 0.05:
        return f"'O''Neil {index}'"
    if roll < 0.2:
        return f"'sample {index}'"
    return f"s{index}"


def _comment(rng: random.Random, key: str) -> str:
    return f"[&{key}={rng.random():.3f}]"


def _render(node: _Node, rng: random.Random) -> tuple[str, float]:
    """Newick text of a subtree (without its own edge) and its internal length."""
    if node.tip:
        return _tip_label(rng, node.tip), 0.0
    parts, internal = [], 0.0
    children = list(node.children)
    if rng.random() < 0.5:
        children.reverse()
    for child in children:
        text, inner = _render(child, rng)
        length = node.height - child.height
        text += ":" + format(length, ".12g")
        if rng.random() < 0.2:
            text += _comment(rng, "rate")
        parts.append(text)
        internal += inner + (length if child.children else 0.0)
    text = "(" + ",".join(parts) + ")"
    if rng.random() < 0.1:
        text += _comment(rng, "support")
    if rng.random() < 0.1:
        text += f"n{rng.randrange(1000)}"
    return text, internal


def make_batch(seed: int, count: int, sizes: tuple[int, ...]) -> tuple[str, list[TrueTree]]:
    """`count` trees, one per line; tree i has sizes[i % len(sizes)] tips.

    Tip counts cycle through `sizes` whatever the seed, so every seed asks
    the program for the same amount of work.
    """
    rng = random.Random(seed)
    lines = [f"[bdgrowth benchmark batch seed={seed} trees={count}]"]
    truths = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        heights = _cpp_heights(rng, n, R, T)
        text, internal = _render(_cpp_tree(heights), rng)
        lines.append(text + ";")
        truths.append(TrueTree(n, heights, internal))
    return "\n".join(lines) + "\n", truths


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


@dataclass
class ReadNode:
    label: str | None = None
    length: float | None = None
    children: list["ReadNode"] = field(default_factory=list)


def _skip_filler(text: str, i: int) -> int:
    while i < len(text):
        if text[i].isspace():
            i += 1
        elif text[i] == "[":
            i = text.index("]", i) + 1
        else:
            break
    return i


def _scan_token(text: str, i: int) -> int:
    while i < len(text) and text[i] not in _TERMINATORS and not text[i].isspace():
        i += 1
    return i


def read_trees(text: str) -> list[ReadNode]:
    """Roots of the ';'-terminated trees in `text`; the root keeps its stem length."""
    trees: list[ReadNode] = []
    stack: list[ReadNode] = []
    node: ReadNode | None = None
    i = _skip_filler(text, 0)
    while i < len(text):
        c = text[i]
        if c == "(":
            stack.append(ReadNode())
            node = None
            i += 1
        elif c in ",)":
            stack[-1].children.append(node if node is not None else ReadNode())
            node = stack.pop() if c == ")" else None
            i += 1
        elif c == ":":
            end = _scan_token(text, _skip_filler(text, i + 1))
            node = node if node is not None else ReadNode()
            node.length = float(text[_skip_filler(text, i + 1):end])
            i = end
        elif c == ";":
            if stack or node is None:
                raise ValueError(f"unbalanced tree before offset {i}")
            trees.append(node)
            node = None
            i += 1
        elif c == "'":
            chunks = []
            i += 1
            while not (text[i] == "'" and text[i + 1:i + 2] != "'"):
                chunks.append(text[i])
                i += 2 if text[i] == "'" else 1
            i += 1
            node = node if node is not None else ReadNode()
            node.label = "".join(chunks)
        else:
            end = _scan_token(text, i)
            if end == i:
                raise ValueError(f"unexpected {c!r} at offset {i}")
            node = node if node is not None else ReadNode()
            node.label = text[i:end]
            i = end
        i = _skip_filler(text, i)
    if stack or node is not None:
        raise ValueError("text ends inside a tree")
    return trees


def node_heights(root: ReadNode) -> tuple[list[float], list[str | None]]:
    """Internal-node heights above the tips (each measured down its first
    child) and the tip labels, for a tree whose edges all carry lengths."""
    heights: dict[int, float] = {}
    internal: list[float] = []
    tips: list[str | None] = []
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    for node in reversed(order):
        if node.children:
            first = node.children[0]
            heights[id(node)] = heights[id(first)] + first.length
            internal.append(heights[id(node)])
        else:
            heights[id(node)] = 0.0
            tips.append(node.label)
    return internal, tips
