"""Acceptance suite: one test per release criterion, with pinned tolerances.

Each test prints a single PASS line (visible with ``pytest -s``) carrying the
measured quantities; pytest -v already gives one line per criterion either
way.  Every randomized check uses fixed seeds, so the suite is reproducible.
"""

import random
import time
from collections import Counter

from conftest import bfs_distance, difficult_by_recomputation
from treepairs import (
    anchor_growth,
    anchor_index,
    catalan,
    enumerate_difficult_pairs,
    enumerate_trees,
    exact_distance,
    growth_neighbors,
    intervals,
    one_interval_of,
    one_intervals,
    pair_choices,
    reduce_pair,
    remy_sample,
    rotation_neighbors,
    sample_difficult_pair,
    sample_with_choice_counts,
    word_scan,
)
from treepairs.cli import main


def announce(number, detail):
    print(f"CRITERION {number}: PASS ({detail})")


def test_c01_primitive_census():
    started = time.perf_counter()
    for n in (1, 2, 3):
        assert enumerate_difficult_pairs(n) == []
    pairs = enumerate_difficult_pairs(4)
    unordered = {tuple(sorted(p)) for p in pairs}
    assert len(unordered) == 4, "expected exactly 4 unordered primitive pairs"
    assert len(pairs) == 8  # ordered census carries both orientations
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(1, f"4 unordered / 8 ordered primitives, none below size 4, {elapsed:.2f}s")


def test_c02_sampler_totality():
    started = time.perf_counter()
    failures = 0
    for n in range(4, 13):
        for seed in range(100):
            s, t = sample_difficult_pair(n, random.Random(seed))
            if len(s) != 2 * n + 1 or not difficult_by_recomputation(s, t):
                failures += 1
    elapsed = time.perf_counter() - started
    assert failures == 0
    assert elapsed < 120.0
    announce(2, f"900 samples all difficult under recomputation, {elapsed:.1f}s")


def test_c03_growth_closure():
    checked = 0
    for n in (4, 5, 6):
        for s, t in enumerate_difficult_pairs(n):
            grown = (anchor_growth(s), anchor_growth(t))
            assert difficult_by_recomputation(*grown)
            assert grown in [tuple(c) for c in pair_choices((s, t))]
            checked += 1
    announce(3, f"anchor growth of all {checked} census pairs is difficult and offered")


def test_c04_growth_substitution_rules():
    started = time.perf_counter()
    rng = random.Random(20260809)
    for n in range(2, 31):
        for _ in range(1000):
            word = remy_sample(n, rng)
            cut = anchor_index(word)
            prefix, suffix = word[:cut], word[cut:]
            grown = anchor_growth(word)
            # word substitution rule
            assert grown == prefix + "1" + suffix + "0"
            scan = word_scan(word)
            grown_scan = word_scan(grown)
            shift = lambda i: i + 1 if i >= cut else i
            anchor_parent = scan.parent[cut]
            for i in range(len(word)):
                image = shift(i)
                # intervals carry over, +1 on upper bounds that were n;
                # the old last leaf keeps its point interval (n, n)
                if i != cut:
                    lo, hi = scan.lower[i], scan.upper[i]
                    if word[i] == "0" and lo == n:
                        expected = (n, n)
                    else:
                        expected = (lo, hi + (hi == n))
                    assert (grown_scan.lower[image], grown_scan.upper[image]) == expected
                # left children, right children, parents commute with the embedding
                if word[i] == "1":
                    assert shift(i + 1) == image + 1
                    end = scan.subtree_end[i + 1]
                    if i != anchor_parent:
                        assert shift(end) == grown_scan.subtree_end[image + 1]
                if i and i != cut:
                    assert shift(scan.parent[i]) == grown_scan.parent[image]
            # interval-set substitution
            expected_has = {(lo, hi + (hi == n)) for lo, hi in intervals(word)}
            expected_has.add((scan.lower[cut], scan.upper[cut]))
            assert {tuple(b) for b in intervals(grown)} == expected_has
            # created-interval substitution with the anchor-at-root boundary
            kept = {tuple(b) for b in one_intervals(word)}
            extras = {(n, n + 1)}
            if cut != 0:
                kept.discard(tuple(one_interval_of(word, cut)))
                extras.add(tuple(one_interval_of(grown, cut)))
            if word[cut + 1] == "1":
                unchanged = tuple(one_interval_of(word, cut + 1))
                kept.discard(unchanged)
                extras.add(unchanged)
            expected_makes = {(lo, hi + (hi == n)) for lo, hi in kept} | extras
            assert {tuple(b) for b in one_intervals(grown)} == expected_makes
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(4, f"29000 trees, all substitution rules exact, {elapsed:.1f}s")


def test_c05_counting_identities():
    rng = random.Random(55)
    for n in range(1, 31):
        for _ in range(1000):
            word = remy_sample(n, rng)
            assert len(rotation_neighbors(word)) == n - 1
            assert len(growth_neighbors(word)) == 2 * n
    announce(5, "30000 trees: n-1 rotations, 2n growth neighbors")


def test_c06_reduction_correctness():
    started = time.perf_counter()
    rng = random.Random(606)
    for n in range(2, 10):
        for _ in range(500):
            pair = (remy_sample(n, rng), remy_sample(n, rng))
            outcome = reduce_pair(pair)
            recombined = outcome.forced_moves + sum(
                bfs_distance(*c) for c in outcome.components
            )
            expected = bfs_distance(*pair)
            assert recombined == expected
            assert exact_distance(pair) == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    announce(6, f"4000 pairs: distance == forced + sum(components), {elapsed:.1f}s")


def test_c07_remy_uniformity():
    started = time.perf_counter()
    draws = 10**6
    rng = random.Random(7)
    tally = Counter(remy_sample(4, rng) for _ in range(draws))
    assert set(tally) == set(enumerate_trees(4))
    target = 1 / catalan(4)
    worst = max(abs(count / draws - target) for count in tally.values())
    assert worst < 0.01
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    announce(7, f"10^6 draws, worst |freq - 1/14| = {worst:.5f}, {elapsed:.1f}s")


def test_c08_distance_spot_checks():
    assert exact_distance(("1100100", "1100100")) == 0
    assert exact_distance(("11000", "10100")) == 1
    for n in range(2, 9):
        left_comb = "1" * n + "0" * (n + 1)
        right_comb = "10" * n + "0"
        assert exact_distance((left_comb, right_comb)) == n - 1
    announce(8, "identity 0, adjacent 1, combs at n-1 for n in [2,8]")


def test_c09_sampling_coverage():
    rng = random.Random(909)
    draws = 50_000
    tally = Counter(sample_difficult_pair(5, rng) for _ in range(draws))
    universe = set(map(tuple, enumerate_difficult_pairs(5)))
    assert {tuple(p) for p in tally} == universe
    counts = sorted(tally.values())
    q1 = counts[max(1, -(-len(counts) // 4)) - 1]
    q3 = counts[max(1, -(-3 * len(counts) // 4)) - 1]
    announce(
        9,
        f"{len(tally)}/{len(universe)} pairs hit; dispersion reported: "
        f"q3/q1 = {q3 / q1:.2f}, max/min = {counts[-1] / counts[0]:.2f}",
    )


def test_c10_performance_contract():
    sample_difficult_pair(20, random.Random(0))  # warm up interpreter caches
    started = time.perf_counter()
    sample_difficult_pair(50, random.Random(1))
    t50 = time.perf_counter() - started
    started = time.perf_counter()
    sample_difficult_pair(100, random.Random(1))
    t100 = time.perf_counter() - started
    assert t100 < 10.0
    assert t100 <= 24 * t50 + 0.5  # quartic contract, with a noise floor
    pair, choice_counts = sample_with_choice_counts(100, random.Random(3))
    assert len(pair.s) == 201
    for step, count in enumerate(choice_counts):
        size_before = 4 + step
        assert count <= (2 * size_before) ** 2
    announce(10, f"t50 = {t50:.2f}s, t100 = {t100:.2f}s, ratio = {t100 / t50:.1f}")


def test_c11_cli_determinism(capsys):
    outputs = []
    for _ in range(2):
        assert main(["sample", "--size", "30", "--count", "10", "--seed", "7"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 10
    announce(11, "two identical invocations, byte-identical output")
