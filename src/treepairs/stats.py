"""Empirical coverage of the sampler and reduction profiles of random pairs."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache

from .census import PAIR_GUARD, enumerate_difficult_pairs
from .growth import remy_sample
from .rotations import TreePair, reduce_pair
from .sampling import MIN_SIZE, sample_difficult_pair
from .words import _require_count, _require_rng

__all__ = ["CoverageReport", "ReductionProfile", "coverage_report", "reduction_profile"]


@lru_cache(maxsize=PAIR_GUARD + 1)
def _universe(n):
    # bench/probes.py times the census by wrapping this module's name
    # enumerate_difficult_pairs and divides by that time, so keep this call:
    # a count that skips it fails the traced bench run with ZeroDivisionError
    return len(enumerate_difficult_pairs(n))  # fixed per size: count it once per process


@lru_cache(maxsize=PAIR_GUARD + 1)
def _shared(n):
    return {}  # each word and pair drawn at size n, mapped to the one object every report keys by


def _nearest_rank(sorted_values, q):
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class CoverageReport:
    """Tally of repeated difficult-pair draws at one size.

    ``universe`` is the exhaustive ordered-pair count when the size is small
    enough to enumerate, else None.  The dispersion ratios are computed over
    the frequency counts of the pairs actually seen (nearest-rank
    quartiles); they are observables, not targets.
    """

    n: int
    samples: int
    distinct_seen: int
    universe: int | None
    q3_q1_ratio: float | None
    max_min_ratio: float | None
    frequencies: dict = field(repr=False)

    @property
    def coverage_fraction(self) -> float | None:
        if self.universe is None:
            return None
        return self.distinct_seen / self.universe

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "distinct_seen": self.distinct_seen,
            "universe": self.universe,
            "coverage_fraction": self.coverage_fraction,
            "q3_q1_ratio": self.q3_q1_ratio,
            "max_min_ratio": self.max_min_ratio,
            "frequencies": {f"{s} {t}": c for (s, t), c in sorted(self.frequencies.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_text(self, include_frequencies: bool = False) -> str:
        lines = [
            f"n = {self.n}",
            f"samples = {self.samples}",
            f"distinct_seen = {self.distinct_seen}",
            f"universe = {self.universe if self.universe is not None else 'unknown'}",
        ]
        if self.coverage_fraction is not None:
            lines.append(f"coverage_fraction = {self.coverage_fraction:.6f}")
        if self.q3_q1_ratio is not None:
            lines.append(f"q3_q1_ratio = {self.q3_q1_ratio:.4f}")
            lines.append(f"max_min_ratio = {self.max_min_ratio:.4f}")
        if include_frequencies:
            for (s, t), count in sorted(self.frequencies.items()):
                lines.append(f"freq[{s} {t}] = {count}")
        return "\n".join(lines)


def coverage_report(n: int, samples: int, rng) -> CoverageReport:
    """Draw ``samples`` difficult pairs of size ``n`` and tally them.

    The tally keys are pairs of plain ``str`` words with one object per
    distinct word and per distinct pair: a ``TreeWord`` takes about twice
    the memory of a ``str``, and callers may keep many reports.  Up to
    ``PAIR_GUARD``, where a size has few enough pairs to keep them all, the
    reports of one size share those objects too, so a report adds only its
    counts.
    """
    _require_count(n, "size", MIN_SIZE)
    _require_count(samples, "samples")
    _require_rng(rng)
    frequencies = Counter()
    shared = _shared(n) if n <= PAIR_GUARD else {}
    for _ in range(samples):
        s, t = (shared.setdefault(w, w) for w in map(str, sample_difficult_pair(n, rng)))
        pair = TreePair(s, t)
        frequencies[shared.setdefault(pair, pair)] += 1
    counts = sorted(frequencies.values())
    if counts:
        q3_q1 = _nearest_rank(counts, 0.75) / _nearest_rank(counts, 0.25)
        max_min = counts[-1] / counts[0]
    else:
        q3_q1 = max_min = None
    universe = _universe(n) if n <= PAIR_GUARD else None
    return CoverageReport(
        n=n,
        samples=samples,
        distinct_seen=len(frequencies),
        universe=universe,
        q3_q1_ratio=q3_q1,
        max_min_ratio=max_min,
        frequencies=dict(frequencies),
    )


@dataclass
class ReductionProfile:
    """How far the reduction rules shrink random same-size pairs."""

    n: int
    samples: int
    mean_largest_fraction: float
    mean_forced_moves: float
    resolved_fraction: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_text(self) -> str:
        return "\n".join(
            [
                f"n = {self.n}",
                f"samples = {self.samples}",
                f"mean_largest_fraction = {self.mean_largest_fraction:.6f}",
                f"mean_forced_moves = {self.mean_forced_moves:.6f}",
                f"resolved_fraction = {self.resolved_fraction:.6f}",
            ]
        )


def reduction_profile(n: int, samples: int, rng) -> ReductionProfile:
    """Reduce ``samples`` uniformly random pairs of size ``n`` and aggregate.

    The largest-component fraction of a fully resolved pair counts as 0, so
    the mean reflects how much of a random instance survives reduction.
    """
    _require_count(n, "size")
    _require_count(samples, "samples")
    _require_rng(rng)
    total_fraction = 0.0
    total_forced = 0
    resolved = 0
    for _ in range(samples):
        pair = (remy_sample(n, rng), remy_sample(n, rng))
        outcome = reduce_pair(pair)
        total_forced += outcome.forced_moves
        if outcome.components:
            largest = max(len(p.s) // 2 for p in outcome.components)
            total_fraction += largest / n
        else:
            resolved += 1
    draws = max(samples, 1)
    return ReductionProfile(
        n=n,
        samples=samples,
        mean_largest_fraction=total_fraction / draws,
        mean_forced_moves=total_forced / draws,
        resolved_fraction=resolved / draws,
    )
