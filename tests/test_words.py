from itertools import product

import pytest
from hypothesis import given

from conftest import interval_sets, nodes_by_index, rotations_by_node, scan_by_descent, tree_words
from treepairs import (
    Interval,
    MalformedWordError,
    NoParentError,
    NotInternalError,
    anchor_embedding,
    enumerate_trees,
    grow,
    interval_of,
    intervals,
    is_internal,
    left_child,
    one_interval_of,
    one_intervals,
    parent,
    parse_word,
    right_child,
    rotate,
    subtree_end,
    word_scan,
)


class TestParse:
    def test_smallest_internal_tree(self):
        assert parse_word("100").size == 1

    def test_size_three(self):
        assert parse_word("1100100").size == 3

    def test_single_leaf(self):
        assert parse_word("0").size == 0

    @pytest.mark.parametrize("bad", ["1010", "", "110", "01100", "1a0", "10100 ", "111000"])
    def test_malformed(self, bad):
        with pytest.raises(MalformedWordError):
            parse_word(bad)


def test_parse_accepts_exactly_the_enumerated_words():
    # every {0,1} string up to length 13 against the census of sizes 0..6
    trees = {w for n in range(7) for w in enumerate_trees(n)}
    accepted = set()
    for length in range(14):
        for symbols in product("01", repeat=length):
            word = "".join(symbols)
            try:
                accepted.add(parse_word(word))
            except MalformedWordError:
                pass
    assert accepted == trees


@given(tree_words(min_size=0, max_size=30))
def test_scan_matches_a_recursive_descent_parse(word):
    assert word_scan(word) == scan_by_descent(word)


@given(tree_words(min_size=0, max_size=25))
def test_interval_queries_match_the_tuple_tree_oracle(word):
    spans, created = interval_sets(word)
    by_node = rotations_by_node(word)
    assert intervals(word, include_root=False) == spans
    assert one_intervals(word) == created
    assert {i: one_interval_of(word, i) for i in by_node} == {
        i: made for i, (_, made) in by_node.items()
    }


@given(tree_words(min_size=0, max_size=25))
def test_node_queries_match_the_tuple_tree_oracle(word):
    for i, (span, up, left, right, end) in enumerate(nodes_by_index(word)):
        assert interval_of(word, i) == span
        assert subtree_end(word, i) == end
        assert is_internal(word, i) == (left is not None)
        if up is None:
            with pytest.raises(NoParentError):
                parent(word, i)
        else:
            assert parent(word, i) == up
        if left is None:
            for child in (left_child, right_child):
                with pytest.raises(NotInternalError):
                    child(word, i)
        else:
            assert (left_child(word, i), right_child(word, i)) == (left, right)


class TestNavigation:
    def test_left_child_is_next_index(self):
        assert left_child("1100100", 0) == 1

    def test_right_child_skips_left_subtree(self):
        assert right_child("1100100", 0) == 4

    def test_root_has_no_parent(self):
        with pytest.raises(NoParentError):
            parent("1100100", 0)

    def test_children_of_leaf(self):
        with pytest.raises(NotInternalError):
            left_child("1100100", 2)

    def test_parent_inverts_children(self):
        word = "1101001100100"
        for i in range(len(word)):
            if word[i] == "1":
                assert parent(word, left_child(word, i)) == i
                assert parent(word, right_child(word, i)) == i


OUT_OF_RANGE = [
    (interval_of, -1, MalformedWordError),
    (interval_of, 7, MalformedWordError),
    (parent, -1, MalformedWordError),
    (parent, 7, MalformedWordError),
    (is_internal, -1, MalformedWordError),
    (is_internal, 7, MalformedWordError),
    (subtree_end, -1, MalformedWordError),
    (anchor_embedding, 99, MalformedWordError),
    (anchor_embedding, -1, MalformedWordError),
    (grow, 7, MalformedWordError),
    (left_child, -3, NotInternalError),
    (right_child, 9, NotInternalError),
    (one_interval_of, -3, NotInternalError),
    (rotate, 7, NotInternalError),
]


@pytest.mark.parametrize(
    "query, index, error", OUT_OF_RANGE, ids=[f"{q.__name__}@{i}" for q, i, _ in OUT_OF_RANGE]
)
def test_index_outside_the_word_is_rejected(query, index, error):
    # "1100100" has nodes 0..6; a negative index must not wrap around
    with pytest.raises(error, match=f"node @{index} in"):
        query("1100100", index)


class TestIntervals:
    def test_leaf_spans_its_label(self):
        assert interval_of("1100100", 2) == (0, 0)

    def test_internal_node(self):
        assert interval_of("1100100", 1) == (0, 1)

    def test_root_spans_everything(self):
        assert interval_of("1100100", 0) == (0, 3)

    def test_all_intervals(self):
        assert intervals("100") == {(0, 1)}
        assert intervals("1010100") == {(0, 3), (1, 3), (2, 3)}

    def test_without_root(self):
        assert intervals("11000", include_root=False) == {(0, 1)}

    def test_one_interval_right_child(self):
        assert one_interval_of("1010100", 2) == (0, 1)

    def test_one_interval_left_child(self):
        assert one_interval_of("11000", 1) == (1, 2)

    def test_one_interval_of_root(self):
        with pytest.raises(NoParentError):
            one_interval_of("100", 0)

    def test_one_intervals(self):
        assert one_intervals("100") == frozenset()
        assert one_intervals("11000") == {(1, 2)}
        assert one_intervals("1100100") == {(1, 3), (0, 2)}


@given(tree_words(max_size=20))
def test_counts_and_distinctness(word):
    n = word.size
    assert len(intervals(word)) == n
    assert len(intervals(word, include_root=False)) == n - 1
    assert len(one_intervals(word)) == n - 1


@given(tree_words(max_size=20))
def test_leaf_labels_count_preceding_zeros(word):
    zeros = 0
    for i, symbol in enumerate(word):
        if symbol == "0":
            assert interval_of(word, i) == (zeros, zeros)
            zeros += 1


@given(tree_words(max_size=20))
def test_upper_bound_adds_subtree_size(word):
    scan = word_scan(word)
    for i in range(len(word)):
        size = (scan.subtree_end[i] - i) // 2
        assert scan.upper[i] - scan.lower[i] == size


@given(tree_words(max_size=20))
def test_scan_matches_pointwise_queries(word):
    scan = word_scan(word)
    for i in range(len(word)):
        assert interval_of(word, i) == (scan.lower[i], scan.upper[i])
        assert subtree_end(word, i) == scan.subtree_end[i]
        if i:
            assert parent(word, i) == scan.parent[i]


@given(tree_words(max_size=15))
def test_interval_bounds_nest_under_parents(word):
    scan = word_scan(word)
    for i in range(1, len(word)):
        up = scan.parent[i]
        assert scan.lower[up] <= scan.lower[i] <= scan.upper[i] <= scan.upper[up]


def test_interval_is_a_named_pair():
    box = Interval(2, 5)
    assert box.lower == 2 and box.upper == 5
    assert box == (2, 5)
