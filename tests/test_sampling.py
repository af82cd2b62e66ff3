import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    difficult_by_recomputation,
    growth_by_substitution,
    interval_sets,
    tree_pairs,
    tree_words,
)
from treepairs import (
    PAIR_GUARD,
    NotDifficultError,
    SizeTooSmallError,
    TreeWord,
    anchor_growth,
    catalan,
    coverage_report,
    enumerate_difficult_pairs,
    enumerate_trees,
    growth_neighbors,
    is_difficult,
    pair_choices,
    primitive_pairs,
    sample_difficult_pair,
    sample_with_choice_counts,
)
from treepairs.growth import _difficult_pairs, _GrownPairs, _packed_row
from treepairs.sampling import _STARTS, MIN_SIZE, _difficult_grown_pairs, _grown_row


def _mask_to_set(mask, stride):
    found = set()
    position = 0
    while mask:
        if mask & 1:
            found.add((position // stride, position % stride))
        mask >>= 1
        position += 1
    return found


@given(tree_words(max_size=25))
def test_masks_agree_with_interval_sets(word):
    # a rotation creates an interval the word lacks, so either & ~has is the created set
    _, has, either = _packed_row(word)
    stride = len(word)
    assert (_mask_to_set(has, stride), _mask_to_set(either & ~has, stride)) == interval_sets(word)


def _packed_choices(s, t):
    # rows built from scratch, each in its grown word's own frame
    rows = ([_packed_row(g) for g in sorted(growth_neighbors(w))] for w in (s, t))
    return _difficult_pairs(*rows)


def _near_miss_pairs(s, t):
    # the near-miss step's free masks, listed
    return list(_GrownPairs(s, t))


@pytest.mark.parametrize("n", range(4, 8))
def test_near_miss_step_equals_packed_rows_on_every_difficult_pair(n):
    for s, t in enumerate_difficult_pairs(n):
        assert _near_miss_pairs(s, t) == _packed_choices(s, t)


@pytest.mark.parametrize("seed", [3000, 17])
def test_near_miss_step_equals_packed_rows_along_seeded_chains(seed):
    # every step of the sampler's own walk to n = 100, small parents included
    rng = random.Random(seed)
    s, t = _STARTS[rng.randrange(len(_STARTS))]
    for _ in range(100 - MIN_SIZE):
        found = _near_miss_pairs(s, t)
        assert found == _packed_choices(s, t)
        s, t = found[rng.randrange(len(found))]
    assert (s, t) == sample_difficult_pair(100, random.Random(seed))


@given(tree_pairs(min_size=1, max_size=25))
@example((TreeWord("100"), TreeWord("100")))  # k = 1: U = V, and the old root spans are cherries
@example((TreeWord("10100"), TreeWord("11000")))  # leaf growth next to a cherry, on either side
@example((TreeWord("1011000"), TreeWord("1100100")))
def test_near_miss_step_equals_packed_rows_on_any_pair(pair):
    # exact for every pair of one size, difficult or not
    assert _near_miss_pairs(*pair) == _packed_choices(*pair)


@pytest.mark.parametrize("k", range(1, 5))
def test_near_miss_step_equals_packed_rows_on_every_pair_of_small_sizes(k):
    # the frame's tightest margin: at k = 1 the stride 3 holds grown labels up to 2
    words = enumerate_trees(k)
    for s in words:
        for t in words:
            assert _near_miss_pairs(s, t) == _packed_choices(s, t), (s, t)


@pytest.mark.parametrize("k", [8, 12, 20, 40])
def test_selecting_an_index_builds_the_pair_listed_there(k):
    # count and select: the r-th pair built alone is the r-th of the list
    s, t = sample_difficult_pair(k, random.Random(k))
    listed = _packed_choices(s, t)
    found = _GrownPairs(s, t)
    total = len(listed)
    assert len(found) == total
    spread = set(range(0, total, max(1, total // 16))) | {1, total // 2, total - 2, total - 1}
    for r in sorted(spread):
        assert found[r] == listed[r], r
    assert list(found) == listed


@given(tree_pairs(min_size=1, max_size=25))
@example((TreeWord("100"), TreeWord("100")))
def test_listing_and_selecting_agree_on_any_pair(pair):
    # the iterator's bit loop against the prefix sum and bit stripping, difficult or not
    found = _GrownPairs(*pair)
    assert list(found) == [found[r] for r in range(len(found))]


def test_choice_counts_are_the_lengths_of_the_choice_lists():
    pair, counts = sample_with_choice_counts(30, random.Random(11))
    # the walk's parents are the shorter samples of the same seed
    parents = [sample_difficult_pair(n, random.Random(11)) for n in range(MIN_SIZE, 30)]
    assert counts == [len(pair_choices(parent)) for parent in parents]
    assert pair == sample_difficult_pair(30, random.Random(11))


def test_sampler_support_misses_pairs_not_grown_from_smaller_ones():
    # Forward reachability from the start table against the census.  A pair
    # not grown from any difficult pair one size smaller (a primitive pair)
    # is never drawn, nor is anything grown only from such pairs.
    reached = set(_STARTS)
    census = set(map(tuple, enumerate_difficult_pairs(4)))
    # size: (reached, census, primitive)
    expected = {5: (42, 42, 0), 6: (304, 304, 0), 7: (2484, 2616, 132), 8: (21622, 23150, 44)}
    for n, counts in expected.items():
        grown = {g for pair in census for g in _difficult_grown_pairs(*pair)}
        reached = {g for pair in reached for g in _difficult_grown_pairs(*pair)}
        census = set(map(tuple, enumerate_difficult_pairs(n)))
        assert reached <= grown <= census
        assert (len(reached), len(census), len(census - grown)) == counts


def _exact_distribution(n):
    """The sampler's exact law at size ``n``: the start table's uniform mass,
    passed on at each step in equal shares to a pair's grown difficult
    pairs."""
    masses = defaultdict(Fraction)
    for pair in _STARTS:
        masses[pair] += Fraction(1, len(_STARTS))
    for _ in range(n - MIN_SIZE):
        grown = defaultdict(Fraction)
        for pair, mass in masses.items():
            choices = _difficult_grown_pairs(*pair)
            for choice in choices:
                grown[choice] += mass / len(choices)
        masses = grown
    return masses


@pytest.mark.parametrize(
    "n, tvd, max_min",
    [(5, Fraction(19, 126), Fraction(16, 7)), (6, Fraction(283693, 1493856), Fraction(3123, 364))],
)
def test_exact_distribution_against_uniform(n, tvd, max_min):
    # the sampler reaches every difficult pair at n = 5, 6, but not uniformly
    masses = _exact_distribution(n)
    census = enumerate_difficult_pairs(n)
    assert sum(masses.values()) == 1
    assert set(masses) == set(map(tuple, census))
    uniform = Fraction(1, len(census))
    assert sum(abs(p - uniform) for p in masses.values()) / 2 == tvd
    assert max(masses.values()) / min(masses.values()) == max_min


@pytest.mark.parametrize(
    "n, tvd, max_min",
    [
        (
            7,
            Fraction(1601821439297496533, 5828292427417574400),
            Fraction(2071475667, 41257216),
        ),
        (
            8,
            Fraction(
                411327385408760109168264179191538639,
                1207550134050175840172935525622784000,
            ),
            Fraction(32944563005268087000209, 83184584513095296000),
        ),
    ],
)
def test_exact_distribution_over_the_whole_census(n, tvd, max_min):
    # from n = 7 on some difficult pairs are never drawn: they weigh 0 here
    masses = _exact_distribution(n)
    census = set(map(tuple, enumerate_difficult_pairs(n)))
    assert sum(masses.values()) == 1
    assert set(masses) < census
    uniform = Fraction(1, len(census))
    assert sum(abs(masses.get(pair, 0) - uniform) for pair in census) / 2 == tvd
    assert max(masses.values()) / min(masses.values()) == max_min


def test_coverage_tallies_fit_the_exact_distribution():
    draws = 20_000
    masses = _exact_distribution(5)
    report = coverage_report(5, draws, random.Random(0))
    assert set(report.frequencies) == set(masses)
    for pair, p in masses.items():
        z = (report.frequencies[pair] - draws * p) / math.sqrt(draws * p * (1 - p))
        assert abs(z) < 4, (pair, z)


@pytest.mark.parametrize("n, primitive", [(4, 8), (5, 0), (6, 0)])
def test_primitive_count_by_the_set_oracle(n, primitive):
    def difficult(words):
        return {(s, t) for s in words for t in words if difficult_by_recomputation(s, t)}

    smaller = difficult(enumerate_trees(n - 1))
    grown = {
        (u, v)
        for s, t in smaller
        for u in growth_neighbors(s)
        for v in growth_neighbors(t)
        if difficult_by_recomputation(u, v)
    }
    assert len(difficult(enumerate_trees(n)) - grown) == primitive


class TestStartTable:
    def test_both_orientations_of_every_primitive(self):
        expected = set()
        for s, t in primitive_pairs():
            expected.add((s, t))
            expected.add((t, s))
        assert set(_STARTS) == expected
        assert list(_STARTS) == sorted(_STARTS)


class TestPairChoices:
    def test_rejects_reducible_input(self):
        with pytest.raises(NotDifficultError):
            pair_choices(("11000", "10100"))

    @pytest.mark.parametrize("pair", primitive_pairs())
    def test_contains_the_anchor_growth_pair(self, pair):
        found = pair_choices(pair)
        assert (anchor_growth(pair.s), anchor_growth(pair.t)) in found

    @pytest.mark.parametrize("pair", primitive_pairs())
    def test_members_are_difficult_grown_and_ordered(self, pair):
        found = pair_choices(pair)
        n = len(pair.s) // 2
        assert found == sorted(found)
        assert len(found) == len(set(found))
        assert len(found) <= (2 * n) ** 2
        for u, v in found:
            assert len(u) == len(pair.s) + 2
            assert difficult_by_recomputation(u, v)


@given(st.integers(4, PAIR_GUARD + 2), st.integers(0, 2**32 - 1))
def test_choices_match_brute_force(n, seed):
    # both sides of the PAIR_GUARD switch, against oracles sharing no treepairs code
    pair = sample_difficult_pair(n, random.Random(seed))
    brute = {
        (u, v)
        for u in growth_by_substitution(pair.s)
        for v in growth_by_substitution(pair.t)
        if difficult_by_recomputation(u, v)
    }
    assert {tuple(c) for c in pair_choices(pair)} == brute


class TestGrownRowMemo:
    def test_holds_only_the_grown_words_of_small_steps(self):
        _grown_row.cache_clear()
        sample_difficult_pair(40, random.Random(1))
        # the walk's first steps are the shorter samples of the same seed
        parents = [sample_difficult_pair(n, random.Random(1)) for n in range(MIN_SIZE, PAIR_GUARD)]
        grown = {g for pair in parents for w in pair for g in growth_neighbors(w)}
        assert all(len(g) // 2 <= PAIR_GUARD for g in grown)
        assert _grown_row.cache_info().currsize == len(grown) <= 2033
        assert 2033 == sum(catalan(n) for n in range(MIN_SIZE + 1, PAIR_GUARD + 1))
        misses = _grown_row.cache_info().misses
        for g in grown:
            _grown_row(str(g))
        assert _grown_row.cache_info().misses == misses  # the keys are exactly those words

    def test_cold_and_warm_memo_give_the_same_pair(self):
        _grown_row.cache_clear()
        cold = sample_difficult_pair(12, random.Random(5))
        assert _grown_row.cache_info().currsize
        assert sample_difficult_pair(12, random.Random(5)) == cold


class TestSampler:
    def test_too_small(self):
        with pytest.raises(SizeTooSmallError):
            sample_difficult_pair(3, random.Random(0))

    def test_size_four_returns_a_primitive(self):
        starts = set(_STARTS)
        for seed in range(20):
            pair = sample_difficult_pair(4, random.Random(seed))
            assert tuple(pair) in starts

    def test_output_is_difficult(self):
        pair = sample_difficult_pair(10, random.Random(1))
        assert len(pair.s) == 21
        assert is_difficult(pair)

    def test_deterministic_per_seed(self):
        a = sample_difficult_pair(15, random.Random(42))
        b = sample_difficult_pair(15, random.Random(42))
        assert a == b

    def test_seeds_vary_output(self):
        drawn = {sample_difficult_pair(12, random.Random(seed)) for seed in range(10)}
        assert len(drawn) > 1

    def test_choice_counts_cover_every_step(self):
        pair, counts = sample_with_choice_counts(12, random.Random(7))
        assert len(counts) == 8
        assert all(count >= 1 for count in counts)
        assert is_difficult(pair)
