import gc
import sys

import pytest

from conftest import difficult_by_recomputation
from treepairs import (
    SizeGuardExceededError,
    anchor_growth,
    catalan,
    enumerate_difficult_pairs,
    enumerate_trees,
    is_difficult,
    parse_word,
    primitive_pairs,
)


class TestTreeCensus:
    def test_catalan_values(self):
        assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_smallest_censuses(self):
        assert enumerate_trees(0) == ["0"]
        assert enumerate_trees(1) == ["100"]
        assert enumerate_trees(2) == ["10100", "11000"]

    def test_size_four_count(self):
        assert len(enumerate_trees(4)) == 14

    @pytest.mark.parametrize("n", range(0, 11))
    def test_counts_validity_order_uniqueness(self, n):
        trees = enumerate_trees(n)
        assert len(trees) == catalan(n)
        assert trees == sorted(trees)
        assert len(set(trees)) == len(trees)
        for word in trees:
            assert type(word) is str
            assert parse_word(word).size == n

    def test_dropped_result_leaves_nothing_for_the_collector(self):
        # reference counting alone frees the words: no cycle holds them
        gc.collect()
        gc.disable()
        try:
            assert len(enumerate_trees(9)) == catalan(9)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_guard(self):
        with pytest.raises(SizeGuardExceededError):
            enumerate_trees(15)
        assert len(enumerate_trees(15, max_size=15)) == catalan(15)

    def test_census_depth_does_not_grow_with_size(self):
        # raising max_size costs time and memory only: with 20 frames to
        # spare the census lists all 208,012 words, so its stack depth
        # does not grow with n
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 20)
        try:
            trees = enumerate_trees(12)
        finally:
            sys.setrecursionlimit(limit)
        assert len(trees) == catalan(12)


class TestDifficultCensus:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nothing_below_size_four(self, n):
        assert enumerate_difficult_pairs(n) == []

    def test_size_four(self):
        pairs = enumerate_difficult_pairs(4)
        assert len(pairs) == 8
        assert len({tuple(sorted(p)) for p in pairs}) == 4

    def test_all_members_difficult_and_ordered(self):
        pairs = enumerate_difficult_pairs(5)
        assert pairs == sorted(pairs)
        assert all(type(s) is str and type(t) is str for s, t in pairs)
        assert all(difficult_by_recomputation(*p) for p in pairs)

    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_census_is_complete(self, n):
        trees = enumerate_trees(n)
        expected = [
            (s, t) for s in trees for t in trees if difficult_by_recomputation(s, t)
        ]
        assert [tuple(p) for p in enumerate_difficult_pairs(n)] == expected

    def test_swap_symmetry(self):
        pairs = set(map(tuple, enumerate_difficult_pairs(5)))
        assert {(t, s) for s, t in pairs} == pairs

    def test_guard(self):
        with pytest.raises(SizeGuardExceededError):
            enumerate_difficult_pairs(9)

    def test_count_past_the_guard(self):
        assert len(enumerate_difficult_pairs(9, max_size=9)) == 209_638


class TestPrimitives:
    def test_fixture_matches_enumeration(self):
        canonical = sorted(
            {tuple(sorted(p)) for p in enumerate_difficult_pairs(4)}
        )
        assert [tuple(p) for p in primitive_pairs()] == canonical

    def test_fixture_shape(self):
        pairs = primitive_pairs()
        assert len(pairs) == 4
        for s, t in pairs:
            assert s.size == 4 and t.size == 4
            assert s < t
            assert is_difficult((s, t))


class TestGrowthClosure:
    @pytest.mark.parametrize("n", [4, 5])
    def test_anchor_growth_stays_in_next_census(self, n):
        grown_census = set(map(tuple, enumerate_difficult_pairs(n + 1)))
        for s, t in enumerate_difficult_pairs(n):
            assert (anchor_growth(s), anchor_growth(t)) in grown_census
