import random
from collections import Counter

import pytest
from hypothesis import given

import treepairs
from conftest import anchor_by_spine, growth_by_substitution, tree_words
from treepairs import (
    MalformedWordError,
    NotInternalError,
    anchor_embedding,
    anchor_growth,
    anchor_index,
    grow,
    growth_neighbors,
    interval_of,
    intervals,
    left_child,
    one_interval_of,
    one_intervals,
    parent,
    remy_sample,
    right_child,
    spine_split,
    word_scan,
)


@pytest.mark.parametrize(
    "query",
    [
        lambda word: grow(word, 7),
        lambda word: grow(word, 7, "right"),
        lambda word: grow(word, len(word) - 1),
        lambda word: anchor_embedding(word, 7),
        lambda word: anchor_embedding(word, len(word) - 1),
    ],
    ids=["grow-left", "grow-right", "grow-at-leaf", "embed-node", "embed-leaf"],
)
def test_raw_words_are_scanned_once(query, monkeypatch):
    # the scan that checks the word and index also gives the subtree end
    # and the anchor, and a grown word is valid by construction
    word = str(remy_sample(1000, random.Random(3)))
    scans = []
    for module in (treepairs.words, treepairs.growth):
        monkeypatch.setattr(module, "word_scan", lambda w: scans.append(w) or word_scan(w))
    query(word)
    assert len(scans) == 1


class TestGrow:
    def test_grow_left_at_root(self):
        assert grow("100", 0, "left") == "11000"

    def test_grow_right_at_root(self):
        assert grow("100", 0, "right") == "10100"

    def test_leaf_growth_sides_coincide(self):
        assert grow("100", 1, "left") == grow("100", 1, "right") == "11000"

    def test_bad_side(self):
        with pytest.raises(ValueError):
            grow("100", 0, "up")

    def test_negative_index_is_rejected(self):
        with pytest.raises(MalformedWordError, match="@-1"):
            grow("100", -1)

    def test_neighbors_of_single_leaf(self):
        assert growth_neighbors("0") == growth_by_substitution("0") == {"100"}

    def test_neighbors_of_smallest_tree(self):
        assert growth_neighbors("100") == {"11000", "10100"}

    @given(tree_words(max_size=30))
    def test_neighbor_bound(self, word):
        found = growth_neighbors(word)
        assert found == growth_by_substitution(word)
        assert len(found) == 2 * word.size
        for neighbor in found:
            assert neighbor.size == word.size + 1

    @given(tree_words(max_size=15))
    def test_growing_any_site_lands_in_neighbors(self, word):
        found = growth_neighbors(word)
        for i in range(len(word)):
            assert grow(word, i, "left") in found
            assert grow(word, i, "right") in found


class TestRemy:
    def test_size_one_is_deterministic(self):
        assert remy_sample(1, random.Random(123)) == "100"

    def test_result_is_valid_and_sized(self):
        rng = random.Random(0)
        for n in (0, 1, 5, 40):
            assert remy_sample(n, rng).size == n

    def test_same_seed_same_tree(self):
        a = [remy_sample(17, random.Random(99)) for _ in range(3)]
        assert a[0] == a[1] == a[2]

    def test_roughly_uniform_at_size_two(self):
        rng = random.Random(1)
        tally = Counter(remy_sample(2, rng) for _ in range(20000))
        assert set(tally) == {"11000", "10100"}
        assert abs(tally["11000"] / 20000 - 0.5) < 0.02

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_uniform_over_all_trees(self, n):
        from treepairs import catalan, enumerate_trees

        draws = 60000
        rng = random.Random(n)
        tally = Counter(remy_sample(n, rng) for _ in range(draws))
        assert set(tally) == set(enumerate_trees(n))
        target = 1 / catalan(n)
        for count in tally.values():
            assert abs(count / draws - target) < 0.005


class TestAnchor:
    def test_anchor_examples(self):
        assert spine_split("11000") == ("", "11000")
        assert spine_split("10100") == ("10", "100")
        assert spine_split("1100100") == ("1100", "100")

    def test_anchor_of_single_leaf(self):
        with pytest.raises(NotInternalError):
            anchor_index("0")
        with pytest.raises(NotInternalError):
            anchor_embedding("0", 0)

    def test_anchor_growth_examples(self):
        assert anchor_growth("100") == "11000"
        assert anchor_growth("10100") == "1011000"
        assert anchor_growth("11000") == "1110000"

    def test_embedding_examples(self):
        assert anchor_embedding("10100", 0) == 0
        assert anchor_embedding("10100", 2) == 3
        assert anchor_embedding("10100", 4) == 5

    @given(tree_words(max_size=30))
    def test_anchor_queries_match_the_tuple_tree_oracle(self, word):
        anchor, suffix, grown, embedding = anchor_by_spine(word)
        assert anchor_index(word) == anchor
        assert spine_split(word) == (word[: len(word) - len(suffix)], suffix)
        assert anchor_growth(word) == grown
        assert [anchor_embedding(word, i) for i in range(len(word))] == embedding

    @given(tree_words(max_size=30))
    def test_anchor_right_child_is_last_leaf(self, word):
        cut = anchor_index(word)
        assert right_child(word, cut) == len(word) - 1

    @given(tree_words(max_size=30))
    def test_split_concatenation_identity(self, word):
        prefix, suffix = spine_split(word)
        assert prefix + suffix == word
        assert anchor_growth(word) == prefix + "1" + suffix + "0"

    @given(tree_words(max_size=30))
    def test_anchor_growth_is_the_left_grow_step(self, word):
        assert anchor_growth(word) == grow(word, anchor_index(word), "left")

    @given(tree_words(max_size=30))
    def test_embedding_preserves_symbols(self, word):
        grown = anchor_growth(word)
        for i in range(len(word)):
            assert word[i] == grown[anchor_embedding(word, i)]


class TestAnchorSubstitutionRules:
    """Anchor growth rewrites the interval sets by exact substitution rules."""

    @given(tree_words(max_size=25))
    def test_intervals_carry_over(self, word):
        n = word.size
        cut = anchor_index(word)
        grown = anchor_growth(word)
        for i in range(len(word)):
            if i == cut:
                continue
            lo, hi = interval_of(word, i)
            if word[i] == "0" and lo == n:
                # the old last leaf keeps its point interval (n, n)
                assert interval_of(grown, anchor_embedding(word, i)) == (n, n)
            else:
                image = interval_of(grown, anchor_embedding(word, i))
                assert image == (lo, hi + (hi == n))

    @given(tree_words(max_size=25))
    def test_children_and_parents_commute_with_embedding(self, word):
        cut = anchor_index(word)
        grown = anchor_growth(word)
        anchor_parent = parent(word, cut) if cut else None
        for i in range(len(word)):
            if word[i] == "1":
                assert anchor_embedding(word, left_child(word, i)) == left_child(
                    grown, anchor_embedding(word, i)
                )
                if i != anchor_parent:
                    assert anchor_embedding(word, right_child(word, i)) == right_child(
                        grown, anchor_embedding(word, i)
                    )
            if i and i != cut:
                assert anchor_embedding(word, parent(word, i)) == parent(
                    grown, anchor_embedding(word, i)
                )

    @given(tree_words(max_size=25))
    def test_interval_set_substitution(self, word):
        n = word.size
        grown = anchor_growth(word)
        expected = {(lo, hi + (hi == n)) for lo, hi in intervals(word)}
        expected.add(tuple(interval_of(word, anchor_index(word))))
        assert {tuple(box) for box in intervals(grown)} == expected

    @given(tree_words(max_size=25))
    def test_created_interval_set_substitution(self, word):
        n = word.size
        cut = anchor_index(word)
        grown = anchor_growth(word)
        kept = {tuple(box) for box in one_intervals(word)}
        extras = {(n, n + 1)}
        if cut != 0:
            kept.discard(tuple(one_interval_of(word, cut)))
            # the inserted node sits at the anchor's old index in the grown word
            extras.add(tuple(one_interval_of(grown, cut)))
        left = left_child(word, cut)
        if word[left] == "1":
            unchanged = tuple(one_interval_of(word, left))
            kept.discard(unchanged)
            extras.add(unchanged)
        expected = {(lo, hi + (hi == n)) for lo, hi in kept} | extras
        assert {tuple(box) for box in one_intervals(grown)} == expected

    @given(tree_words(max_size=25))
    def test_substituted_set_sizes(self, word):
        grown = anchor_growth(word)
        assert len(intervals(grown)) == word.size + 1
        assert len(one_intervals(grown)) == word.size
