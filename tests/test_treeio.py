"""Tree I/O: parser behavior on good and hostile input, ultrametric
validation, height extraction, internal-length agreement with the
branch-order formula, canonical serialization round trips, and the matrix
writer against building and serializing one tree per row."""

import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdgrowth import coalescent as co
from bdgrowth import treeio
from bdgrowth.confidence import make_regime
from bdgrowth.errors import (
    BdGrowthError,
    MissingBranchLength,
    NotBinary,
    NotUltrametric,
    ParseError,
    RelativeAxisError,
    SampleTooSmall,
)
from bdgrowth.estimators import internal_branch_length
from bdgrowth.rng import RngStream
from bdgrowth.treeio import SampleTree, TreeNode

BASIC = "((A:1,B:1):1,C:2);"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic_tree():
    tree = treeio.parse_newick(BASIC)
    assert tree.tip_labels == ["A", "B", "C"]
    assert tree.root_stem is None
    assert not tree.stem_from_input


def test_parse_quoted_labels_and_comments():
    tree = treeio.parse_newick("('my leaf':1,[note]'it''s':1)root:0.5;")
    assert tree.tip_labels == ["my leaf", "it's"]
    assert tree.root.label == "root"
    assert tree.root_stem == 0.5
    assert tree.stem_from_input


def test_parse_errors_carry_offset_and_expectation():
    with pytest.raises(ParseError) as info:
        treeio.parse_newick("(A:1,B:1")
    assert info.value.offset == 8
    assert "';'" in info.value.expected or "','" in info.value.expected

    with pytest.raises(ParseError):
        treeio.parse_newick("((A:1,B:1):1,C:2)")  # missing ';'
    with pytest.raises(ParseError):
        treeio.parse_newick("(A:1,B:x);")  # bad number
    with pytest.raises(ParseError):
        treeio.parse_newick("(A:1,B:1); trailing")
    with pytest.raises(ParseError):
        treeio.parse_newick("[unclosed (A:1,B:1);")
    with pytest.raises(ParseError):
        treeio.parse_newick("   ")


def test_missing_length_is_an_error():
    with pytest.raises(MissingBranchLength):
        treeio.parse_newick("(A,B:1);")
    with pytest.raises(MissingBranchLength):
        treeio.parse_newick("((A:1,B:1),C:2);")


def test_multifurcation_parses_but_fails_extraction():
    tree = treeio.parse_newick("(A:1,B:1,C:1);")
    assert tree.n_tips == 3
    with pytest.raises(NotBinary):
        treeio.extract_coalescence_times(tree)


def test_multi_tree_file():
    trees = treeio.parse_newick_trees("(A:1,B:1);\n(C:2,D:2);")
    assert [t.n_tips for t in trees] == [2, 2]


def test_a_bad_tree_is_an_item_of_the_batch_and_the_next_tree_still_parses():
    text = "(A:1,B:1);\n(C:1,D:1;\n(E:2,F:2);\n(G,H:1);\n(I:1,J:x)\n(K:3,L:3);\n(N:2,O:2);\n(M:1,"
    items = treeio.parse_newick_trees(text)
    assert [type(item).__name__ for item in items] == [
        "SampleTree", "ParseError", "SampleTree", "MissingBranchLength", "ParseError",
        "SampleTree", "ParseError"]
    assert (items[1].offset, items[1].expected) == (19, "',' or ')'")
    assert items[3].args == ("edge above 'G' has no branch length",)
    # the next tree starts after the first ';' at or after the error, so an
    # error in a tree without its own ';' takes the tree after it along
    assert items[4].offset == text.index("x")
    assert [items[i].tip_labels for i in (0, 2, 5)] == [["A", "B"], ["E", "F"], ["N", "O"]]
    assert (items[6].offset, items[6].expected) == (len(text), "leaf label or '('")
    with pytest.raises(ParseError, match="at least one tree"):
        treeio.parse_newick_trees(" [no tree here]\n")


@settings(max_examples=300, deadline=None)
@example(";")
@example("(((((")
@example("()" * 40 + ";")
@example("(" * 4000 + "A:1" + ")" * 4000 + ";")
@given(st.text(alphabet="(),:;'[]019.eAB \t-", max_size=80))
def test_parser_is_total(text):
    # any outcome is fine except an unstructured crash
    try:
        treeio.parse_newick(text)
    except BdGrowthError:
        pass


# ---------------------------------------------------------------------------
# the character-at-a-time cursor parser, kept as the reference
# ---------------------------------------------------------------------------

_LABEL_TERMINATORS = set("():,;[")


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


def reference_parse_newick(text: str) -> SampleTree:
    """Parse a single Newick tree.

    Standard grammar: nested parentheses, optional (possibly quoted) labels,
    ':'-prefixed branch lengths, bracket comments, terminating ';'. Every
    edge except the root stem must carry a length, since the trees are bound
    for estimation. Multifurcations parse fine; they are rejected later,
    where the rejection can cite the offending node.
    """
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


def reference_parse_newick_trees(text: str) -> list[SampleTree]:
    """Parse a ';'-separated multi-tree string."""
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


def tree_shape(tree):
    """Label, length and child count of every node in preorder, with the stem."""
    nodes, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        nodes.append((node.label, node.length, len(node.children)))
        stack.extend(reversed(node.children))
    return nodes, tree.root_stem, tree.stem_from_input


def error_shape(exc):
    if isinstance(exc, ParseError):
        return type(exc).__name__, exc.offset, exc.expected
    return type(exc).__name__, str(exc)


def shape(item):
    return tree_shape(item) if isinstance(item, SampleTree) else error_shape(item)


def outcome(parse, text):
    """What parse makes of text: a tree's shape, a list of shapes, or the
    shape of the error it raised."""
    try:
        result = parse(text)
    except (ParseError, MissingBranchLength) as exc:
        return error_shape(exc)
    return [shape(item) for item in result] if isinstance(result, list) else shape(result)


def assert_parsers_agree(text):
    assert outcome(treeio.parse_newick, text) == outcome(reference_parse_newick, text)
    # the batch parser keeps every tree the reference reads, and where the
    # reference stops at an error, that error is the batch's first error item
    want = outcome(reference_parse_newick_trees, text)
    got = outcome(treeio.parse_newick_trees, text)
    if isinstance(want, list) or not isinstance(got, list):
        assert got == want
    else:  # an error's shape starts with its type name
        assert next(item for item in got if isinstance(item[0], str)) == want


FUZZ_ALPHABET = "(),:;'[]019.eAB \t-" + "\n\xa0\u2003\x1c"


def test_parser_matches_the_cursor_parser_on_fuzzed_text():
    rng = random.Random(205)
    for _ in range(100_000):
        assert_parsers_agree("".join(rng.choices(FUZZ_ALPHABET, k=rng.randrange(81))))


@pytest.mark.parametrize("text", [
    "('ab''",
    "'ab''",
    ":]9[",
    "[unclosed (A:1,B:1);",
    "(A:1,B:x);",
    "(A:1,B:1",
    "(A:1,B:inf);",
    "(A:1,B:1):[c;",
    "(A:1,B:1)'';",
    "(,(A:1,B:1):1):1;",
    "(A,B:1);",
    "(A,B:1;",
    "(A:1,B:1); trailing",
    "(A:1,B:1);\n(C:1,D:1;\n(E:2,F:2);",
    "(A:1,B:1);\n(C,D:1);\n(E:2,F:2);",
    " [only a comment] ",
    "(" * 4000 + "A:1" + ")" * 4000 + ";",
    "(" * 4000 + "A:1" + "):1" * 4000 + ";",
])
def test_parser_matches_the_cursor_parser_on_named_cases(text):
    assert_parsers_agree(text)


def decorated_newick(rng, text):
    """A writer tree with quoted and bare tip labels, [&...] comments after
    lengths, and labels on some internal nodes."""
    text = re.sub(r"t(\d+)", lambda m: rng.choice(
        [m.group(0), f"'sample {m.group(1)}'", f"'O''Neil {m.group(1)}'"]), text)
    text = re.sub(r"(:[0-9.e-]+)", lambda m: m.group(1) + rng.choice(
        ["", "", f"[&rate={rng.random():.3f}]"]), text)
    return re.sub(r"\)", lambda m: rng.choice([")", ")", f")n{rng.randrange(1000)}"]), text)


def test_parser_matches_the_cursor_parser_on_decorated_writer_trees():
    rng = random.Random(206)
    m = co.sample_coalescence_times_block(
        12, make_regime("exact", 1.0, 40.0), RngStream(206), 300)
    texts = [decorated_newick(rng, text) for text in treeio.cpp_newick_rows(m, 40.0)]
    assert any("''" in text for text in texts) and any("[&" in text for text in texts)
    for text in texts:
        assert_parsers_agree(text)
    batch = "[a batch]\n" + "\n".join(texts) + "\n"
    assert_parsers_agree(batch)
    assert len(treeio.parse_newick_trees(batch)) == len(texts)


# ---------------------------------------------------------------------------
# extraction and validation
# ---------------------------------------------------------------------------


def test_extract_worked_example():
    times = treeio.extract_coalescence_times(treeio.parse_newick(BASIC))
    assert times.times == (2.0, 1.0)
    assert times.n == 3
    assert not times.branch_order
    assert times.t == 2.0


def test_extract_cherry():
    times = treeio.extract_coalescence_times(treeio.parse_newick("(A:3,B:3);"))
    assert times.times == (3.0,)


def test_non_ultrametric_rejected_with_deviation():
    tree = treeio.parse_newick("((A:1,B:2):1,C:2);")
    with pytest.raises(NotUltrametric) as info:
        treeio.extract_coalescence_times(tree)
    assert info.value.worst_deviation > 0.3


def test_tolerance_permits_rounding_jitter():
    tree = treeio.parse_newick("((A:1.000001,B:1):1,C:2.0000005);")
    times = treeio.extract_coalescence_times(tree, tol=1e-5)
    # cherry height is averaged across its two tips
    assert times.times[1] == pytest.approx(1.0000005, rel=1e-9)


def test_extract_invariant_to_child_rotation():
    rotated = treeio.parse_newick("(C:2,(B:1,A:1):1);")
    base = treeio.extract_coalescence_times(treeio.parse_newick(BASIC))
    other = treeio.extract_coalescence_times(rotated)
    assert base.times == other.times


def test_extract_single_tip_rejected():
    with pytest.raises(SampleTooSmall):
        treeio.extract_coalescence_times(treeio.parse_newick("A:1;"))


def test_extraction_errors_keep_their_precedence():
    # one tip under a unary node: too small comes before not binary
    with pytest.raises(SampleTooSmall):
        treeio.extract_coalescence_times(treeio.parse_newick("((A:1):1);"))
    # neither binary nor ultrametric: not binary, at the first such node in postorder
    with pytest.raises(NotBinary, match="node x has 3 children"):
        treeio.extract_coalescence_times(
            treeio.parse_newick("((A:1,B:1,C:3)x:1,(D:1)y:1);"))


def reference_heights_and_height(tree):
    """Heights (largest first) and tree height of the original extraction:
    one postorder per quantity, summing in the same order."""
    counts, totals, heights = {}, {}, []
    for node in treeio._postorder(tree.root):
        if node.is_leaf():
            counts[id(node)], totals[id(node)] = 1, 0.0
            continue
        count, total = 0, 0.0
        for child in node.children:
            count += counts[id(child)]
            total += totals[id(child)] + counts[id(child)] * (child.length or 0.0)
        counts[id(node)], totals[id(node)] = count, total
        heights.append(total / count)
    depths = {id(tree.root): 0.0}
    for node in reversed(treeio._postorder(tree.root)):
        for child in node.children:
            depths[id(child)] = depths[id(node)] + (child.length or 0.0)
    return sorted(heights, reverse=True), max(depths[id(tip)] for tip in tree.tips())


def reference_internal_length(tree):
    counts = {}
    for node in treeio._postorder(tree.root):
        counts[id(node)] = sum(counts[id(c)] for c in node.children) or 1
    total = 0.0
    for node in treeio._postorder(tree.root):
        for child in node.children:
            if counts[id(child)] >= 2:
                total += child.length or 0.0
    if tree.stem_from_input:
        total += tree.root_stem
    return total


def test_single_pass_extraction_and_length_are_bit_identical_to_the_reference():
    rng = np.random.default_rng(203)
    m = co.sample_coalescence_times_block(
        12, make_regime("exact", 1.0, 40.0), RngStream(203), 300)
    for text in treeio.cpp_newick_rows(m, 40.0):
        # printed lengths are rounded, so sums depend on their order
        tree = treeio.parse_newick(text)
        for node in treeio._postorder(tree.root):
            rng.shuffle(node.children)
        heights, height = reference_heights_and_height(tree)
        times = treeio.extract_coalescence_times(tree)
        assert times.times == tuple(heights)
        assert times.t == height + tree.root_stem
        assert treeio.tree_internal_branch_length(tree) == reference_internal_length(tree)


# ---------------------------------------------------------------------------
# internal branch length
# ---------------------------------------------------------------------------


def test_tree_internal_length_worked_example():
    assert treeio.tree_internal_branch_length(treeio.parse_newick(BASIC)) == 1.0


def test_tree_internal_length_includes_explicit_stem_only():
    with_stem = treeio.parse_newick("((A:1,B:1):1,C:2):0.5;")
    assert treeio.tree_internal_branch_length(with_stem) == 1.5


def test_tree_internal_length_needs_three_tips():
    with pytest.raises(SampleTooSmall):
        treeio.tree_internal_branch_length(treeio.parse_newick("(A:2,B:2);"))


def dyadic_heights(rng, n):
    # values on a 2^-8 grid keep every sum and difference exact in float64
    return rng.integers(1, 2**12, size=n - 1) / 2.0**8


def test_cpp_tree_length_equals_branch_order_formula_exactly():
    rng = np.random.default_rng(200)
    for _ in range(2000):
        n = int(rng.integers(3, 9))
        h = dyadic_heights(rng, n)
        t = float(h.max() + rng.integers(1, 50))
        times = co.CoalescenceTimes(n, tuple(h), t=t)
        tree = treeio.build_cpp_tree(times)
        assert treeio.tree_internal_branch_length(tree) == internal_branch_length(times)


# ---------------------------------------------------------------------------
# point-process construction
# ---------------------------------------------------------------------------


def test_build_cherry_with_stem():
    times = co.CoalescenceTimes(2, (3.0,), t=5.0)
    tree = treeio.build_cpp_tree(times)
    assert tree.n_tips == 2
    assert tree.root_stem == 2.0
    assert not tree.stem_from_input
    extracted = treeio.extract_coalescence_times(tree)
    assert extracted.times == (3.0,)
    assert extracted.t == 5.0


def test_build_three_tip_example_topology():
    # heights (2, 1) with T = 3: tips 2 and 3 join at depth 1, that clade
    # joins tip 1 at depth 2
    tree = treeio.build_cpp_tree(co.CoalescenceTimes(3, (2.0, 1.0), t=3.0))
    assert treeio.serialize_newick(tree) == "(t1:2,(t2:1,t3:1):1):1;"


def test_build_rejects_relative_or_invalid_heights():
    with pytest.raises(RelativeAxisError):
        treeio.build_cpp_tree(co.CoalescenceTimes(3, (-1.0, -2.0), relative=True))
    with pytest.raises(ValueError):
        treeio.build_cpp_tree(co.CoalescenceTimes(3, (5.0, 1.0), t=3.0))
    with pytest.raises(ValueError):
        treeio.build_cpp_tree(co.CoalescenceTimes(3, (-1.0, 1.0), t=3.0))


def test_build_extract_round_trip_multiset():
    rng = np.random.default_rng(201)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        h = dyadic_heights(rng, n)
        times = co.CoalescenceTimes(n, tuple(h), t=float(h.max()) + 1.0)
        extracted = treeio.extract_coalescence_times(treeio.build_cpp_tree(times))
        assert sorted(extracted.times) == sorted(times.times)


def test_deep_comb_tree_does_not_overflow():
    n = 3000
    h = np.arange(n - 1, 0, -1, dtype=float)  # strictly decreasing: left comb
    times = co.CoalescenceTimes(n, tuple(h), t=float(n))
    tree = treeio.build_cpp_tree(times)
    extracted = treeio.extract_coalescence_times(tree)
    assert extracted.n == n


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_canonical_child_order():
    tree = treeio.parse_newick("((C:1,B:1):1,A:2);")
    assert treeio.serialize_newick(tree) == "(A:2,(B:1,C:1):1);"


def test_serialize_parse_round_trip_is_identity():
    for text in (BASIC, "(A:2,(B:1,C:1):1);", "(A:2,(B:1,C:1):1):0.25;"):
        once = treeio.serialize_newick(treeio.parse_newick(text))
        twice = treeio.serialize_newick(treeio.parse_newick(once))
        assert once == twice


def test_serialize_deterministic_and_quotes_when_needed():
    tree = treeio.parse_newick("('a b':1,c:1);")
    text = treeio.serialize_newick(tree)
    assert text == treeio.serialize_newick(tree)
    assert "'a b'" in text


def test_simulated_tree_survives_text_round_trip():
    times = co.CoalescenceTimes(3, (2.0, 1.0), t=3.0)
    text = treeio.serialize_newick(treeio.build_cpp_tree(times))
    recovered = treeio.extract_coalescence_times(treeio.parse_newick(text))
    assert sorted(recovered.times) == [1.0, 2.0]
    assert recovered.t == 3.0


# ---------------------------------------------------------------------------
# the matrix writer
# ---------------------------------------------------------------------------


def one_tree_per_row(matrix, t):
    n = matrix.shape[1] + 1
    return [treeio.serialize_newick(treeio.build_cpp_tree(co.CoalescenceTimes(n, tuple(row), t=t)))
            for row in matrix.tolist()]


def tree_rows(regime, n, count, seed, t=40.0):
    """Sampled rows of a regime that a tree can hold: every height in (0, T)."""
    m = co.sample_coalescence_times_block(n, make_regime(regime, 1.0, t), RngStream(seed), count)
    return m[((m > 0) & (m < t)).all(axis=1)]


@pytest.mark.parametrize("regime, n", [
    ("exact", 2), ("exact", 3), ("exact", 9), ("exact", 20), ("exact", 57),
    ("fixed-n", 9), ("fixed-n", 20), ("large-n", 9),
])
def test_writer_matches_building_and_serializing_each_row(regime, n):
    m = tree_rows(regime, n, 300, n)
    assert len(m) >= 20
    assert treeio.cpp_newick_rows(m, 40.0) == one_tree_per_row(m, 40.0)


def test_writer_matches_on_tied_dyadic_heights():
    rng = np.random.default_rng(204)
    for n in (3, 5, 12):
        m = rng.integers(1, 8, size=(300, n - 1)) / 4.0
        assert treeio.cpp_newick_rows(m, 2.5) == one_tree_per_row(m, 2.5)


def test_writer_matches_on_deep_combs():
    n = 3000
    left = np.arange(n - 1, 0, -1, dtype=float)[None, :]
    for m in (left, left[:, ::-1]):
        assert treeio.cpp_newick_rows(m, float(n)) == one_tree_per_row(m, float(n))


@pytest.mark.parametrize("row, t", [
    ((2.0, 1.0), None),
    ((2.0, 0.0), 3.0),
    ((-1.0, 1.0), 3.0),
    ((3.0, 1.0), 3.0),
    ((np.inf, 1.0), 3.0),
    ((1.0, np.nan), 3.0),
])
def test_writer_refuses_what_build_cpp_tree_refuses(row, t):
    with pytest.raises((BdGrowthError, ValueError)) as built:
        treeio.build_cpp_tree(co.CoalescenceTimes(3, row, t=t, relative=t is None))
    with pytest.raises(type(built.value)):
        treeio.cpp_newick_rows(np.array([row, (2.0, 1.0)]), t)


def test_writer_counts_the_rows_with_non_finite_heights():
    m = np.ones((5, 3))
    m[1, 0], m[3, 2] = np.inf, np.nan
    with pytest.raises(FloatingPointError, match="2 of 5 rows"):
        treeio.cpp_newick_rows(m, 3.0)


def test_writer_output_parses_back_to_its_heights():
    n, t = 20, 40.0
    m = tree_rows("exact", n, 100, 205)
    tol = 1e-11 * t * n
    for row, text in zip(m, treeio.cpp_newick_rows(m, t)):
        back = treeio.extract_coalescence_times(treeio.parse_newick(text))
        assert np.max(np.abs(np.array(back.times) - np.sort(row)[::-1])) <= tol
        assert abs(back.t - t) <= tol
