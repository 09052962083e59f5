"""Tree I/O: the reader on good and hostile input, checked against the
reference graph parser of tests/oracles.py, and its bulk reader checked bit
for bit against its node-at-a-time reader; ultrametric validation,
height extraction, internal-length agreement with the branch-order
formula, and the matrix writer against building and serializing one graph
tree per row."""

import math
import random
import re
import time
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdgrowth import coalescent as co
from bdgrowth import treeio
from bdgrowth.coalescent import make_regime
from bdgrowth.errors import (
    BdGrowthError,
    MissingBranchLength,
    NotBinary,
    NotUltrametric,
    ParseError,
    RelativeAxisError,
    SampleTooSmall,
)
from bdgrowth.estimators import estimate_lengths, internal_branch_length_rows, lengths_rows
from bdgrowth.rng import RngStream

BASIC = "((A:1,B:1):1,C:2);"


def read(text):
    """The one item parse_newick_trees makes of a text holding one tree."""
    (item,) = treeio.parse_newick_trees(text)
    return item


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def test_parse_basic_tree():
    tree = read(BASIC)
    assert isinstance(tree, treeio.TreeRecord)
    assert (tree.tips, tree.not_binary) == (3, None)
    assert tree.heights == [1.0, 2.0]  # joins in postorder
    assert (tree.lo, tree.hi, tree.internal) == (2.0, 2.0, 1.0)


def test_parse_quoted_labels_and_comments():
    tree = read("('my leaf':1,[note]'it''s':1)root:0.5;")
    assert (tree.tips, tree.heights) == (2, [1.0])
    # labels reach only the refusals that name them, unescaped
    missing = read("('my leaf',[note]'it''s':1)root:0.5;")
    assert missing.args == ("edge above 'my leaf' has no branch length",)
    with pytest.raises(NotBinary, match="node it's x has 3 children"):
        treeio.extract_coalescence_times(read("((A:1,B:1,C:1)'it''s x'[&c]:1,D:2);"))


def test_parse_errors_carry_offset_and_expectation():
    error = read("(A:1,B:1")
    assert isinstance(error, ParseError)
    assert error.offset == 8
    assert "';'" in error.expected or "','" in error.expected

    assert isinstance(read("((A:1,B:1):1,C:2)"), ParseError)  # missing ';'
    assert isinstance(read("(A:1,B:x);"), ParseError)  # bad number
    assert isinstance(read("[unclosed (A:1,B:1);"), ParseError)
    tree, trailing = treeio.parse_newick_trees("(A:1,B:1); trailing")
    assert isinstance(tree, treeio.TreeRecord) and isinstance(trailing, ParseError)
    with pytest.raises(ParseError):
        treeio.parse_newick_trees("   ")


def test_missing_length_is_an_error():
    assert isinstance(read("(A,B:1);"), MissingBranchLength)
    assert read("((A:1,B:1),C:2);").args == (
        "edge above 'internal node' has no branch length",)
    # the refusal names the first edge of a search that checks each node's
    # children left to right and enters the rightmost subtree first
    assert read("((A,B:1):1,(C:1,D):1);").args == ("edge above 'D' has no branch length",)


def test_multifurcation_parses_but_fails_extraction():
    tree = read("(A:1,B:1,C:1);")
    assert tree.tips == 3
    with pytest.raises(NotBinary):
        treeio.extract_coalescence_times(tree)


def test_multi_tree_file():
    trees = treeio.parse_newick_trees("(A:1,B:1);\n(C:2,D:2);")
    assert [t.tips for t in trees] == [2, 2]


def test_a_bad_tree_is_an_item_of_the_batch_and_the_next_tree_still_parses():
    text = "(A:1,B:1);\n(C:1,D:1;\n(E:2,F:2);\n(G,H:1);\n(I:1,J:x)\n(K:3,L:3);\n(N:2,O:3);\n(M:1,"
    items = treeio.parse_newick_trees(text)
    assert [type(item).__name__ for item in items] == [
        "TreeRecord", "ParseError", "TreeRecord", "MissingBranchLength", "ParseError",
        "TreeRecord", "ParseError"]
    assert (items[1].offset, items[1].expected) == (19, "',' or ')'")
    assert items[3].args == ("edge above 'G' has no branch length",)
    # the next tree starts after the first ';' after a node of the bad tree,
    # so an error in a tree without its own ';' takes the tree after it along
    assert items[4].offset == text.index("x")
    assert [items[i].heights for i in (0, 2, 5)] == [[1.0], [2.0], [2.5]]
    assert (items[6].offset, items[6].expected) == (len(text), "leaf label or '('")
    # a ';' inside a comment or a quoted label does not end the bad tree
    for text in ("(I:1,J:x)[;];(K:3,L:3);", "(I:1,J:x)'a;''b';(K:3,L:3);"):
        items = treeio.parse_newick_trees(text)
        assert [type(item).__name__ for item in items] == ["ParseError", "TreeRecord"]
        assert items[1].heights == [3.0]
    with pytest.raises(ParseError, match="at least one tree"):
        treeio.parse_newick_trees(" [no tree here]\n")


@pytest.mark.parametrize("text, kinds", [
    ("(A:x,b'c:1);(D:1,E:1);", ["ParseError", "TreeRecord"]),
    ("(A:x,bc:1);(D:1,E:1);", ["ParseError", "TreeRecord"]),
    ("(A:1,b'c:1);(D:1,E:1);", ["TreeRecord", "TreeRecord"]),
    # a quote that no label starts: in a length token, and after a node
    ("(A:'x,B:1);(C:1,D:1);", ["ParseError", "TreeRecord"]),
    ("(A:1 'x,B:1);(C:1,D:1);", ["ParseError", "TreeRecord"]),
    # a quote where a label starts, or a comment, that never closes takes the rest
    ("(A:x,'b:1);(C:1,D:1);", ["ParseError"]),
    ("(A:x,B:1[;);(C:1,D:1);", ["ParseError"]),
], ids=["quote-in-label-after-error", "no-quote", "quote-in-label", "quote-in-length",
        "quote-after-node", "open-quote", "open-comment"])
def test_reading_resumes_where_the_reader_reads_labels(text, kinds):
    items = treeio.parse_newick_trees(text)
    assert [type(item).__name__ for item in items] == kinds
    assert_parsers_agree(text)


@settings(max_examples=300, deadline=None)
@example(";")
@example("(((((")
@example("()" * 40 + ";")
@example("(" * 4000 + "A:1" + ")" * 4000 + ";")
@given(st.text(alphabet="(),:;'[]019.eAB \t-", max_size=80))
def test_parser_is_total(text):
    # any outcome is fine except an unstructured crash
    try:
        for item in treeio.parse_newick_trees(text):
            if isinstance(item, treeio.TreeRecord):
                treeio.extract_coalescence_times(item)
    except BdGrowthError:
        pass


# ---------------------------------------------------------------------------
# the reader against the reference graphs of the cursor parser
# ---------------------------------------------------------------------------


def reference_heights(tree):
    """Heights, largest first, of the original extraction: one postorder,
    summing in the same order."""
    counts, totals, heights = {}, {}, []
    for node in oracles._postorder(tree.root):
        if node.is_leaf():
            counts[id(node)], totals[id(node)] = 1, 0.0
            continue
        count, total = 0, 0.0
        for child in node.children:
            count += counts[id(child)]
            total += totals[id(child)] + counts[id(child)] * (child.length or 0.0)
        counts[id(node)], totals[id(node)] = count, total
        heights.append(total / count)
    return sorted(heights, reverse=True)


def reference_extract(tree, tol):
    """The original extraction's refusals, in its order, on a graph; its tip
    depths are summed from the root down."""
    depths, stack = [], [(tree.root, 0.0)]
    while stack:
        node, depth = stack.pop()
        stack.extend((child, depth + (child.length or 0.0)) for child in node.children)
        if not node.children:
            depths.append(depth)
    if len(depths) < 2:
        raise SampleTooSmall("need at least 2 tips to have a coalescence")
    for node in oracles._postorder(tree.root):
        if node.children and len(node.children) != 2:
            raise NotBinary(f"node {node.label or '(unnamed)'} has {len(node.children)} children")
    depths = np.array(depths)
    height = float(depths.max())
    if height > 0:
        with np.errstate(invalid="ignore"):
            worst = float(np.max(np.abs(depths - height))) / height
        if worst > tol:
            raise NotUltrametric(worst, tol)
    return reference_heights(tree)


def reference_length(tree):
    if tree.n_tips < 3:
        raise SampleTooSmall("internal branch length needs at least 3 tips")
    return oracles.tree_internal_branch_length(tree)


def bits(call):
    """call()'s floats as exact bits, or its refusal. A tip-depth deviation
    is summed in another order by each side, so it is compared to 1e-12."""
    try:
        value = call()
    except NotUltrametric as exc:
        return "NotUltrametric", pytest.approx(exc.worst_deviation, rel=1e-12)
    except BdGrowthError as exc:
        return type(exc).__name__, str(exc)
    return [x.hex() for x in value] if isinstance(value, list) else value.hex()


def shape(item, tol=treeio.DEFAULT_ULTRAMETRIC_TOL):
    """Tip count and the outcomes of extraction and internal length of a
    record or a reference graph; or an error's type, offset and text."""
    if isinstance(item, treeio.TreeRecord):
        return (item.tips,
                bits(lambda: treeio.extract_coalescence_times(item, tol).tolist()),
                bits(lambda: treeio.tree_internal_branch_length(item)))
    if isinstance(item, oracles.SampleTree):
        return (item.n_tips, bits(lambda: reference_extract(item, tol)),
                bits(lambda: reference_length(item)))
    if isinstance(item, ParseError):
        return type(item).__name__, item.offset, item.expected
    return type(item).__name__, str(item)


def outcome(parse, text):
    """What parse makes of text: a list of shapes, or the shape of the error
    it raised."""
    try:
        result = parse(text)
    except (ParseError, MissingBranchLength) as exc:
        return shape(exc)
    return [shape(item) for item in result]


def assert_parsers_agree(text):
    # every entry, the error items and where reading resumes after them too
    assert outcome(treeio.parse_newick_trees, text) == outcome(oracles.parse_newick_trees, text)


FUZZ_ALPHABET = "(),:;'[]019.eAB \t-" + "\n\xa0\u2003\x1c"


def test_parser_matches_the_cursor_parser_on_fuzzed_text():
    rng = random.Random(205)
    for _ in range(100_000):
        assert_parsers_agree("".join(rng.choices(FUZZ_ALPHABET, k=rng.randrange(81))))


def test_reading_resumes_as_the_cursor_parser_does_on_fuzzed_batches():
    # a writer tree with a few random edits, then good trees: every entry
    # agrees, so both readers resume at the same place after each error
    rng = random.Random(212)
    texts = [decorated_newick(rng, text) for text in treeio.cpp_newick_rows(
        co.sample_coalescence_times_block(5, make_regime("exact", 1.0, 40.0), RngStream(212), 50),
        40.0)]
    edits = list("(),:;'[] x") + ["'a", "b'c", ":x", ":'1", "[c]", "''"]
    resumed = 0
    for _ in range(3000):
        bad = rng.choice(texts)
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(bad) + 1)
            bad = bad[:i] + rng.choice(edits) + bad[i + rng.randrange(2):]
        text = "\n".join([bad] + rng.sample(texts, 2))
        assert_parsers_agree(text)
        items = treeio.parse_newick_trees(text)
        resumed += isinstance(items[0], ParseError) and isinstance(items[-1], treeio.TreeRecord)
    assert resumed > 1000


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


@pytest.mark.parametrize("text", [
    "((A,B:1):1,(C:1,D):1);",
    "((A:1):1);",
    "((A:1,B:1,C:1)x:1,D:9);",
    "((A:1,B:1,C:3)x:1,(D:1)y:1);",
    "(((A:0.1,B:0.1):0.7,C:0.8):1.3,D:2.1000022);",
    "(((A:0.1,B:0.1):0.7,C:0.8):1.3,D:2.1000019);",
    "((A:1.5e308,B:1.5e308):1.5e308,C:1.7e308);",
    "((A:-1e308,B:-1e308):-1e308,C:1);",
    "((A:-0.0,B:-0.0):1,C:1):-0.0;",
])
def test_reader_matches_the_reference_on_refusals_and_extremes(text):
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


def test_single_pass_extraction_and_length_are_bit_identical_to_the_reference():
    rng = np.random.default_rng(203)
    m = co.sample_coalescence_times_block(
        12, make_regime("exact", 1.0, 40.0), RngStream(203), 300)
    for text in treeio.cpp_newick_rows(m, 40.0):
        # printed lengths are rounded, so sums depend on their order
        tree = oracles.parse_newick(text)
        for node in oracles._postorder(tree.root):
            rng.shuffle(node.children)
        shuffled = oracles.serialize_newick(tree, exact=True)
        record = read(shuffled)
        assert treeio.extract_coalescence_times(record).tolist() == reference_heights(tree)
        assert treeio.tree_internal_branch_length(record) == oracles.tree_internal_branch_length(tree)
        assert_parsers_agree(shuffled)


# ---------------------------------------------------------------------------
# the bulk reader against the node-at-a-time reader and the reference
# ---------------------------------------------------------------------------


def node_at_a_time(text):
    """The entries _read_tree alone makes of a text."""
    out = []
    treeio._read_trees(text, 0, len(text), re.compile(treeio._NODE, re.S).match, out)
    return out


def entry_bits(item):
    """A record's fields, every float as its exact bits; or an error's type,
    text and offset."""
    if isinstance(item, treeio.TreeRecord):
        return ([h.hex() for h in item.heights], item.tips, item.internal.hex(),
                item.lo.hex(), item.hi.hex(), item.not_binary)
    return type(item).__name__, str(item), getattr(item, "offset", None)


def reference_bits(tree):
    """entry_bits of a reference graph's record, each sum in the reader's
    order: join heights in postorder, tip distances from each tip up."""
    below, heights = {}, []
    for node in oracles._postorder(tree.root):
        if node.is_leaf():
            below[id(node)] = 1, 0.0, 0.0, 0.0
            continue
        (tips_l, total_l, lo_l, hi_l), (tips_r, total_r, lo_r, hi_r) = (
            (tips, total + tips * child.length, lo + child.length, hi + child.length)
            for child in node.children for tips, total, lo, hi in [below[id(child)]])
        heights.append((total_l + total_r) / (tips_l + tips_r))
        below[id(node)] = (tips_l + tips_r, total_l + total_r, lo_l if lo_l < lo_r else lo_r,
                           hi_l if hi_l > hi_r else hi_r)
    tips, _, lo, hi = below[id(tree.root)]
    return ([h.hex() for h in heights], tips, oracles.tree_internal_branch_length(tree).hex(),
            lo.hex(), hi.hex(), None)


@pytest.fixture
def bulk_pieces(monkeypatch):
    """For each piece handed to the bulk reader, in text order, whether it
    read it (False: the piece went node at a time)."""
    taken, bulk = [], treeio._bulk_records

    def spy(nodes):
        records = bulk(nodes)
        taken.append(records is not None)
        return records

    monkeypatch.setattr(treeio, "_bulk_records", spy)
    return taken


def shuffled_writer_trees(seed, count, n=12):
    """Decorated writer trees with their children in random order and their
    lengths printed to the last bit, so that sums depend on their order."""
    gen, rng = np.random.default_rng(seed), random.Random(seed)
    m = co.sample_coalescence_times_block(
        n, make_regime("exact", 1.0, 40.0), RngStream(seed), count)
    texts = []
    for text in treeio.cpp_newick_rows(m, 40.0):
        tree = oracles.parse_newick(text)
        for node in oracles._postorder(tree.root):
            gen.shuffle(node.children)
        texts.append(decorated_newick(rng, oracles.serialize_newick(tree, exact=True)))
    return texts


def test_bulk_records_are_bit_identical_to_node_at_a_time_and_the_reference(bulk_pieces):
    batch = "[a batch]\n" + "\n".join(shuffled_writer_trees(207, 300)) + "\n"
    got = [entry_bits(item) for item in treeio.parse_newick_trees(batch)]
    assert bulk_pieces.count(True) >= 3
    assert got == [entry_bits(item) for item in node_at_a_time(batch)]
    assert got == [reference_bits(tree) for tree in oracles.parse_newick_trees(batch)]


def test_a_piece_with_a_refused_tree_goes_node_at_a_time_and_the_next_in_bulk(bulk_pieces):
    texts = shuffled_writer_trees(208, 200)
    refused = ["(A:1,B:1;", "(A:1,B:1,C:1):1;", "(A,B:1);", "((A:1,B:1):1,C:2):inf;"]
    batch = "\n".join(texts[:100] + refused + texts[100:]) + "\n"
    items = treeio.parse_newick_trees(batch)
    handed = bulk_pieces.index(False)
    assert True in bulk_pieces[:handed] and True in bulk_pieces[handed + 1:]
    assert [entry_bits(item) for item in items] == [entry_bits(item)
                                                    for item in node_at_a_time(batch)]
    assert [type(item).__name__ for item in items[100:104]] == [
        "ParseError", "TreeRecord", "MissingBranchLength", "ParseError"]
    assert items[101].not_binary == "node (unnamed) has 3 children"
    assert items[103].expected == "finite branch length"
    good = [entry_bits(item) for i, item in enumerate(items) if not 100 <= i < 104]
    assert good == [reference_bits(tree) for tree in oracles.parse_newick_trees("\n".join(texts))]


@pytest.mark.parametrize("odd", ["('{}x;y':1,B:1):1;", "(A:1[{}x;y],B:1):1;"],
                         ids=["quoted-label", "comment"])
def test_a_semicolon_in_a_label_or_a_comment_where_a_piece_ends(bulk_pieces, odd):
    texts = shuffled_writer_trees(209, 100)
    head = "\n".join(texts[:40]) + "\n"
    odd = odd.format("x" * (treeio._PIECE - len(head) - odd.index("{") - 1))
    batch = head + odd + "\n" + "\n".join(texts[40:]) + "\n"
    assert batch.index(";", treeio._PIECE) == treeio._PIECE == len(head) + odd.index(";")
    items = treeio.parse_newick_trees(batch)
    # the first piece goes node at a time and the second in bulk: the bulk
    # reader finds the cut label's quote a stray, and a cut comment does not
    # reach it
    handed = [False] if "'" in odd else []
    assert bulk_pieces[:len(handed) + 1] == handed + [True]
    assert [entry_bits(item) for item in items] == [entry_bits(item)
                                                    for item in node_at_a_time(batch)]
    assert [entry_bits(item) for item in items] == [
        reference_bits(tree) for tree in oracles.parse_newick_trees(batch)]
    assert len(items) == 101


def test_bulk_sums_that_overflow_match_and_warn_nothing(bulk_pieces):
    trees = ["((A:1.5e308,B:1.5e308):1.5e308,C:1.7e308);", "((A:-1e308,B:-1e308):-1e308,C:1);",
             "((A:1e308,B:1e308):1e308,(C:-1e308,D:-1e308):-1e308);",
             "((A:-0.0,B:-0.0):1,C:1):-0.0;", "((A:5e-324,B:0):1e308,C:1e308):1e308;"]
    batch = "\n".join(trees * 200) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        items = treeio.parse_newick_trees(batch)
    assert len(bulk_pieces) == 2 and all(bulk_pieces)
    got = [entry_bits(item) for item in items]
    assert got == [entry_bits(item) for item in node_at_a_time(batch)]
    assert got == [reference_bits(tree) for tree in oracles.parse_newick_trees(batch)]
    heights = [h for item in items[:5] for h in item.heights]
    assert math.inf in heights and -math.inf in heights and any(h != h for h in heights)


def test_deep_combs_go_node_at_a_time(bulk_pieces):
    n = 3000
    h = np.arange(n - 1, 0, -1, dtype=float)
    for row in (h, h[::-1]):
        (text,) = treeio.cpp_newick_rows(row[None, :], float(n))
        assert [entry_bits(item) for item in treeio.parse_newick_trees(text)] == [
            entry_bits(item) for item in node_at_a_time(text)]
    assert bulk_pieces == [False, False]


def test_bulk_and_node_at_a_time_agree_on_edited_batches_in_small_pieces(monkeypatch,
                                                                         bulk_pieces):
    # pieces of a few trees, each one the bulk reader may take, so that
    # hand-overs happen at every kind of edit
    monkeypatch.setattr(treeio, "_PIECE", 64)
    monkeypatch.setattr(treeio, "_LEVEL_NODES", 1)
    rng = random.Random(210)
    texts = shuffled_writer_trees(210, 40, n=5)
    edits = ["(", ")", ",", ":", ";", "'", "[", "]", " ", ":inf", ":1e308", ":-0.0", "'a;b'",
             "[;]", "(x:1,y:1,z:1)", "(x:1)"]
    for _ in range(400):
        batch = "\n".join(rng.sample(texts, 6))
        for _ in range(rng.randrange(3)):
            i = rng.randrange(len(batch) + 1)
            batch = batch[:i] + rng.choice(edits) + batch[i + rng.randrange(2):]
        got = [entry_bits(item) for item in treeio.parse_newick_trees(batch)]
        assert got == [entry_bits(item) for item in node_at_a_time(batch)], batch
    assert bulk_pieces.count(True) > 400 and bulk_pieces.count(False) > 200


LONG_RUNS = pytest.mark.parametrize(
    "tail", [" " * 60_000 + "';", "\n" * 60_000, "[c]" * 20_000 + "[;", "[" * 30_000 + ";",
             "(" * 60_000 + " A;", "A" * 60_000 + " B;", ",()" * 20_000 + ";"],
    ids=["filler-then-stray", "trailing-filler", "comments-then-open-comment", "open-comments",
         "parentheses-then-stray", "label-then-stray", "empty-nodes"])


def assert_read_once(batch):
    # a pattern that backtracks over a run, or a match retried at every
    # character of it, takes seconds here
    start = time.perf_counter()
    items = treeio.parse_newick_trees(batch)
    elapsed = time.perf_counter() - start
    assert [entry_bits(item) for item in items] == [entry_bits(item)
                                                    for item in node_at_a_time(batch)]
    assert elapsed < 1.0


@LONG_RUNS
def test_long_runs_are_read_once(tail):
    assert_read_once("\n".join(shuffled_writer_trees(211, 100)) + "\n" + tail)


@LONG_RUNS
def test_long_runs_are_read_once_behind_a_parse_error(tail):
    # the resume scan reads the run, node by node
    assert_read_once("\n".join(shuffled_writer_trees(211, 100)) + "\n(A:x," + tail)


def parsed_ops(parsed):
    """The opcode names of a parsed pattern, nested ones included."""
    stack = [parsed]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "data"):  # a subpattern: (opcode, argument) pairs
            for op, arg in item.data:
                yield str(op)
                stack.append(arg)


def test_reading_patterns_compile_on_python_3_10():
    # possessive quantifiers and atomic groups compile only from Python 3.11
    parser = getattr(re, "_parser", None)  # Python 3.11 and later
    for pattern in (treeio._NODE, treeio._BULK_NODE, treeio._RUN):
        re.compile(pattern)
        if parser is not None:
            ops = set(parsed_ops(parser.parse(pattern)))
            assert not {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"} & ops


# ---------------------------------------------------------------------------
# extraction and validation
# ---------------------------------------------------------------------------


def test_extract_worked_example():
    times = treeio.extract_coalescence_times(read(BASIC))
    assert times.tolist() == [2.0, 1.0]


def test_extract_cherry():
    times = treeio.extract_coalescence_times(read("(A:3,B:3);"))
    assert times.tolist() == [3.0]


def test_non_ultrametric_rejected_with_deviation():
    tree = read("((A:1,B:2):1,C:2);")
    with pytest.raises(NotUltrametric) as info:
        treeio.extract_coalescence_times(tree)
    assert info.value.worst_deviation > 0.3


def test_tolerance_permits_rounding_jitter():
    tree = read("((A:1.000001,B:1):1,C:2.0000005);")
    times = treeio.extract_coalescence_times(tree, tol=1e-5)
    # cherry height is averaged across its two tips
    assert times[1] == pytest.approx(1.0000005, rel=1e-9)


def test_extract_invariant_to_child_rotation():
    base = treeio.extract_coalescence_times(read(BASIC))
    other = treeio.extract_coalescence_times(read("(C:2,(B:1,A:1):1);"))
    assert base.tolist() == other.tolist()


def test_extract_single_tip_rejected():
    with pytest.raises(SampleTooSmall):
        treeio.extract_coalescence_times(read("A:1;"))


def test_extraction_errors_keep_their_precedence():
    # one tip under a unary node: too small comes before not binary
    with pytest.raises(SampleTooSmall):
        treeio.extract_coalescence_times(read("((A:1):1);"))
    # neither binary nor ultrametric: not binary, at the first such node in postorder
    with pytest.raises(NotBinary, match="node x has 3 children"):
        treeio.extract_coalescence_times(read("((A:1,B:1,C:3)x:1,(D:1)y:1);"))


# ---------------------------------------------------------------------------
# internal branch length
# ---------------------------------------------------------------------------


def test_tree_internal_length_worked_example():
    assert treeio.tree_internal_branch_length(read(BASIC)) == 1.0


def test_tree_internal_length_ignores_the_root_stem():
    for text in ("((A:1,B:1):1,C:2):0.5;", "((A:1,B:1):1,C:2);"):
        assert treeio.tree_internal_branch_length(read(text)) == 1.0


def test_tree_internal_length_needs_three_tips():
    with pytest.raises(SampleTooSmall):
        treeio.tree_internal_branch_length(read("(A:2,B:2);"))


def dyadic_heights(rng, n):
    # values on a 2^-8 grid keep every sum and difference exact in float64
    return rng.integers(1, 2**12, size=n - 1) / 2.0**8


def test_cpp_tree_length_equals_branch_order_formula_exactly():
    rng = np.random.default_rng(200)
    for _ in range(2000):
        n = int(rng.integers(3, 9))
        h = dyadic_heights(rng, n)
        t = float(h.max() + rng.integers(1, 50))
        formula = internal_branch_length_rows(h[None, :])[0]
        # the written tree's stem t - max(H) is explicit, and does not count:
        # the tree gives the same Lengths as the times CSV of its row
        (text,) = treeio.cpp_newick_rows(h[None, :], t)
        assert treeio.tree_internal_branch_length(read(text)) == formula
        assert estimate_lengths(n, read(text)) == lengths_rows(h[None, :])[0]
        assert oracles.tree_internal_branch_length(oracles.build_cpp_tree(h, t)) == formula


# ---------------------------------------------------------------------------
# point-process trees, written and read back
# ---------------------------------------------------------------------------


def test_build_cherry_with_stem():
    (text,) = treeio.cpp_newick_rows(np.array([[3.0]]), 5.0)
    assert text == "(t1:3,t2:3):2;"
    assert read(text).tips == 2
    assert oracles.parse_newick(text).root_stem == 2.0
    assert treeio.extract_coalescence_times(read(text)).tolist() == [3.0]


def test_build_three_tip_example_topology():
    # heights (2, 1) with T = 3: tips 2 and 3 join at depth 1, that clade
    # joins tip 1 at depth 2
    assert treeio.cpp_newick_rows(np.array([[2.0, 1.0]]), 3.0) == ["(t1:2,(t2:1,t3:1):1):1;"]
    tree = oracles.build_cpp_tree([2.0, 1.0], 3.0)
    assert oracles.serialize_newick(tree) == "(t1:2,(t2:1,t3:1):1):1;"


def test_build_rejects_relative_or_invalid_heights():
    with pytest.raises(RelativeAxisError):
        treeio.cpp_newick_rows(np.array([[-1.0, -2.0]]), None)
    with pytest.raises(ValueError):
        treeio.cpp_newick_rows(np.array([[5.0, 1.0]]), 3.0)
    with pytest.raises(ValueError):
        treeio.cpp_newick_rows(np.array([[-1.0, 1.0]]), 3.0)


def test_build_extract_round_trip_multiset():
    rng = np.random.default_rng(201)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        h = dyadic_heights(rng, n)
        (text,) = treeio.cpp_newick_rows(h[None, :], h.max() + 1.0)
        assert sorted(treeio.extract_coalescence_times(read(text))) == sorted(h)


def test_deep_comb_tree_does_not_overflow():
    n = 3000
    h = np.arange(n - 1, 0, -1, dtype=float)  # strictly decreasing: left comb
    for row in (h, h[::-1]):
        (text,) = treeio.cpp_newick_rows(row[None, :], float(n))
        assert treeio.extract_coalescence_times(read(text)).tolist() == sorted(h, reverse=True)


# ---------------------------------------------------------------------------
# the graph writer the matrix writer is checked against
# ---------------------------------------------------------------------------


def test_serialize_canonical_child_order():
    tree = oracles.parse_newick("((C:1,B:1):1,A:2);")
    assert oracles.serialize_newick(tree) == "(A:2,(B:1,C:1):1);"
    assert oracles.serialize_newick(tree, exact=True) == "((C:1.0,B:1.0):1.0,A:2.0);"


def test_serialize_parse_round_trip_is_identity():
    for text in (BASIC, "(A:2,(B:1,C:1):1);", "(A:2,(B:1,C:1):1):0.25;"):
        once = oracles.serialize_newick(oracles.parse_newick(text))
        twice = oracles.serialize_newick(oracles.parse_newick(once))
        assert once == twice
        exact = oracles.serialize_newick(oracles.parse_newick(text), exact=True)
        assert oracles.serialize_newick(oracles.parse_newick(exact), exact=True) == exact


def test_serialize_deterministic_and_quotes_when_needed():
    tree = oracles.parse_newick("('a b':1,c:1);")
    text = oracles.serialize_newick(tree)
    assert text == oracles.serialize_newick(tree)
    assert "'a b'" in text


def test_simulated_tree_survives_text_round_trip():
    (text,) = treeio.cpp_newick_rows(np.array([[2.0, 1.0]]), 3.0)
    recovered = treeio.extract_coalescence_times(read(text))
    assert sorted(recovered) == [1.0, 2.0]
    assert recovered[0] + oracles.parse_newick(text).root_stem == 3.0


# ---------------------------------------------------------------------------
# the matrix writer
# ---------------------------------------------------------------------------


def one_tree_per_row(matrix, t):
    return [oracles.serialize_newick(oracles.build_cpp_tree(row, t)) for row in matrix]


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
        oracles.build_cpp_tree(row, t)
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
        back = treeio.extract_coalescence_times(read(text))
        assert np.max(np.abs(back - np.sort(row)[::-1])) <= tol
        assert abs(back[0] + oracles.parse_newick(text).root_stem - t) <= tol
