import json
import random

from treepairs import (
    coverage_report,
    enumerate_difficult_pairs,
    is_difficult,
    reduce_pair,
    reduction_profile,
    remy_sample,
)


class TestCoverage:
    def test_empty_tally(self):
        report = coverage_report(4, 0, random.Random(0))
        assert report.distinct_seen == 0
        assert report.samples == 0
        assert report.q3_q1_ratio is None and report.max_min_ratio is None
        assert report.universe == 8
        assert report.coverage_fraction == 0.0

    def test_small_run_shape(self):
        report = coverage_report(4, 400, random.Random(3))
        assert sum(report.frequencies.values()) == 400
        assert report.distinct_seen == len(report.frequencies) == 8
        assert report.coverage_fraction == 1.0
        assert report.max_min_ratio >= report.q3_q1_ratio >= 1.0
        for pair in report.frequencies:
            assert is_difficult(pair)

    def test_reproducible(self):
        a = coverage_report(6, 200, random.Random(11))
        b = coverage_report(6, 200, random.Random(11))
        assert a.frequencies == b.frequencies

    def test_keys_hold_one_plain_str_per_distinct_word(self):
        report = coverage_report(6, 300, random.Random(2))
        words = [word for pair in report.frequencies for word in pair]
        assert all(type(word) is str for word in words)
        assert len({id(word) for word in words}) == len(set(words)) < len(words)

    def test_reports_of_one_size_share_word_objects(self):
        first = coverage_report(5, 50, random.Random(1))
        second = coverage_report(5, 50, random.Random(2))
        seen = {word: word for pair in first.frequencies for word in pair}
        common = [word for pair in second.frequencies for word in pair if word in seen]
        assert common
        assert all(word is seen[word] for word in common)
        # and pair objects
        pairs = {pair: pair for pair in first.frequencies}
        common = [pair for pair in second.frequencies if pair in pairs]
        assert common
        assert all(pair is pairs[pair] for pair in common)

    def test_universe_unknown_beyond_guard(self):
        report = coverage_report(9, 5, random.Random(0))
        assert report.universe is None
        assert report.coverage_fraction is None

    def test_serializations(self):
        report = coverage_report(4, 50, random.Random(1))
        doc = json.loads(report.to_json())
        assert doc["n"] == 4 and doc["samples"] == 50
        assert sum(doc["frequencies"].values()) == 50
        text = report.to_text(include_frequencies=True)
        assert "universe = 8" in text
        assert text.count("freq[") == report.distinct_seen


class TestReductionProfile:
    def test_small_sizes_leave_nothing_or_primitives(self):
        rng = random.Random(5)
        for _ in range(300):
            pair = (remy_sample(4, rng), remy_sample(4, rng))
            outcome = reduce_pair(pair)
            sizes = {len(c.s) // 2 for c in outcome.components}
            assert sizes <= {4}

    def test_profile_aggregates(self):
        profile = reduction_profile(8, 150, random.Random(2))
        assert profile.samples == 150
        assert 0.0 <= profile.mean_largest_fraction <= 1.0
        assert 0.0 <= profile.resolved_fraction <= 1.0
        assert profile.mean_forced_moves >= 0.0

    def test_random_pairs_shrink_noticeably(self):
        # random instances lose well over a tenth of their size on average
        profile = reduction_profile(20, 400, random.Random(7))
        assert profile.mean_largest_fraction <= 0.9
        print(f"reduction profile at n=20: {profile.to_text()!r}")

    def test_reproducible(self):
        a = reduction_profile(6, 100, random.Random(9))
        b = reduction_profile(6, 100, random.Random(9))
        assert a == b

    def test_serialization(self):
        profile = reduction_profile(5, 20, random.Random(4))
        doc = json.loads(profile.to_json())
        assert doc["n"] == 5 and doc["samples"] == 20
        assert "resolved_fraction" in profile.to_text()


def test_universe_matches_census_at_size_five():
    report = coverage_report(5, 300, random.Random(8))
    assert report.universe == len(enumerate_difficult_pairs(5)) == 42
