"""The four benchmark workloads: inputs from a seed, one operation, checks.

Each workload builds a fixed list of inputs from the benchmark seed during
set-up; the timed loop walks that list in whole passes, so a run times
every input equally often.  Outputs are checked against ``reference`` after
the loop.
"""

from __future__ import annotations

import random

import reference
import treepairs


class SampleN100:
    """The paper's sampler at n = 100: interval masks and the pair filter."""

    name = "sample-n100"
    call = "sampling.sample_difficult_pair"
    size = 100

    def inputs(self, seed):
        return [seed * 1000 + i for i in range(8)]

    def run(self, op_seed):
        return treepairs.sample_difficult_pair(self.size, random.Random(op_seed))

    def check(self, index, op_seed, pair):
        sizes_ok = all(reference.size_of(w) == self.size for w in pair)
        return sizes_ok and reference.is_difficult(*pair)


class CoverageN8:
    """Many n = 8 samples plus the n = 8 census and the tally in stats."""

    name = "coverage-n8"
    call = "stats.coverage_report"
    size = 8
    draws = 500

    def __init__(self):
        self._difficult = {}
        self._universe = None

    def inputs(self, seed):
        return [seed * 1000 + i for i in range(16)]

    def run(self, op_seed):
        return treepairs.coverage_report(self.size, self.draws, random.Random(op_seed))

    def check(self, index, op_seed, report):
        if self._universe is None:
            self._universe = reference.difficult_pair_count(self.size)
        for pair in report.frequencies:
            if pair not in self._difficult:
                self._difficult[pair] = (
                    reference.size_of(pair[0]) == self.size and reference.is_difficult(*pair)
                )
            if not self._difficult[pair]:
                return False
        return (
            report.n == self.size
            and report.samples == self.draws
            and sum(report.frequencies.values()) == self.draws
            and report.distinct_seen == len(report.frequencies)
            and report.universe == self._universe
        )


class DistanceN11:
    """Exact distance on difficult n = 11 pairs, solved in a fixed order.

    All 58,786 trees of size 11 fit the library's neighbor cache, so a run
    goes from cold searches to warm ones.  The reference search re-solves
    the first ``bfs_checked`` inputs.
    """

    name = "distance-n11"
    call = "rotations.exact_distance"
    size = 11
    bfs_checked = 2

    def __init__(self):
        self._bfs = {}
        self._difficult = {}

    def inputs(self, seed):
        return [
            tuple(treepairs.sample_difficult_pair(self.size, random.Random(seed * 1000 + i)))
            for i in range(64)
        ]

    def run(self, pair):
        return treepairs.exact_distance(pair)

    def check(self, index, pair, distance):
        n = self.size
        if pair not in self._difficult:
            self._difficult[pair] = reference.is_difficult(*pair)
        # Each move swaps one interval, so all n - 1 non-root intervals of t
        # must be created, and with no one-off move the first creates none:
        # d >= n.  Sleator-Tarjan-Thurston give d <= 2n - 6 for n >= 11.
        if not (self._difficult[pair] and n <= distance <= 2 * n - 6):
            return False
        if index < self.bfs_checked:
            if pair not in self._bfs:
                self._bfs[pair] = reference.rotation_distance(*pair)[0]
            return self._bfs[pair] == distance
        return True


class ReduceN1000:
    """Reduction rules on pairs of independent uniform trees of size 1000.

    The reference reduction re-solves the first ``reduce_checked`` inputs and
    must give the same forced moves and components.
    """

    name = "reduce-n1000"
    call = "rotations.reduce_pair"
    size = 1000
    reduce_checked = 1

    def __init__(self):
        self._reduced = {}

    def inputs(self, seed):
        rng = random.Random(seed)
        return [
            (treepairs.remy_sample(self.size, rng), treepairs.remy_sample(self.size, rng))
            for _ in range(6)
        ]

    def run(self, pair):
        return treepairs.reduce_pair(pair)

    def check(self, index, pair, result):
        total = 0
        for s, t in result.components:
            size = reference.size_of(s)
            if size is None or size != reference.size_of(t) or not reference.is_difficult(s, t):
                return False
            total += size
        if total > self.size:
            return False
        if index < self.reduce_checked:
            if pair not in self._reduced:
                self._reduced[pair] = reference.reduce(*pair)
            components = [(str(s), str(t)) for s, t in result.components]
            return (result.forced_moves, components) == self._reduced[pair]
        return True


WORKLOADS = {w.name: w for w in (SampleN100, CoverageN8, DistanceN11, ReduceN1000)}
