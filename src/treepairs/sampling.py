"""Difficult pair sampling: grow a seed pair while filtering for difficulty.

A sample of size n starts from a uniformly chosen ordered primitive pair
(size 4) and repeats until size n: count the pairs (U, V) of growth
neighbors of the current pair that are themselves difficult, draw an index
r uniformly below that count, and grow the r-th of them in lexicographic
order.  The count is never zero because growing both trees left at their
anchors always yields another difficult pair, so the loop cannot strand.

A step has (2k)^2 candidate pairs (a size-k tree has 2k growth
neighbors), of which a few percent are difficult.  Parents below the
census guard ``PAIR_GUARD`` filter all of them on the packed rows of
``growth``: two ANDs of the grown words' interval masks and a word compare
decide each pair (``growth._difficult_pairs``), and the step lists the few
that pass.  Each grown word's row is built from scratch, as the census
builds it, and memoized per word, which holds at most the 2,033 words of
sizes 5-8.  Larger parents take ``growth._near_miss_masks``, which visits
no candidate pair: it reads each grown word's conflicts off the near
misses between the two parents' intervals and leaves per U a mask of its
free V.  ``_GrownPairs`` counts their bits and builds only the drawn pair:
a prefix sum of the counts finds its U, the U's set bits its V.  Listed,
both give the same list, and tests hold them against each other at every
size.  A single pair (``is_difficult``) goes through the reduction step
instead.  The independent oracle, which parses raw words into tuple trees
and rotates them, lives in the tests.

Sampling is deterministic per (n, seed): drive it with ``random.Random(seed)``
(Mersenne Twister, bit-stable across platforms).  The distribution is not
uniform, and it does not reach every difficult pair: from n = 7 on, some
difficult pairs are not grown from any difficult pair one size smaller, so
no draw reaches them or the pairs grown only from them (2,484 of 2,616 at
n = 7 and 21,622 of 23,150 at n = 8 are reachable).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

from .census import PAIR_GUARD, primitive_pairs
from .errors import NotDifficultError
from .growth import _difficult_pairs, _grow_sites, _grown, _near_miss_masks, _packed_row, _pairs
from .rotations import TreePair, is_difficult
from .words import TreeWord, _require_count, _require_rng, word_scan

__all__ = [
    "DEFAULT_SEED",
    "MIN_SIZE",
    "pair_choices",
    "sample_difficult_pair",
    "sample_with_choice_counts",
]

DEFAULT_SEED = 0
MIN_SIZE = 4

# Both orientations of every primitive pair: difficulty is symmetric, and
# seeding with ordered pairs is what lets the sampler reach swapped outputs.
_STARTS = tuple(
    sorted(
        [(str(p.s), str(p.t)) for p in primitive_pairs()]
        + [(str(p.t), str(p.s)) for p in primitive_pairs()]
    )
)


# The rows of the grown words of parents below PAIR_GUARD, built once per
# process.  The keys are words of sizes 5 to PAIR_GUARD only.
_grown_row = lru_cache(maxsize=None)(_packed_row)


class _GrownPairs:
    """The difficult pairs grown from (s, t) by the near-miss step, in
    lexicographic order, without listing them: ``len`` counts the free
    masks' bits and ``[r]`` builds only the r-th pair, the U row found by
    a prefix sum of the counts and the V by the row's set bits."""

    def __init__(self, s, t):
        self.s, self.t = s, t
        self.us, self.vs, self.free = _near_miss_masks(s, t)
        self.ends = list(accumulate(map(int.bit_count, self.free)))

    def __len__(self):
        return self.ends[-1]

    def __getitem__(self, r):
        row = bisect_right(self.ends, r)
        mask = self.free[row]
        for _ in range(r - (self.ends[row - 1] if row else 0)):
            mask &= mask - 1
        return _grown(self.s, *self.us[row]), _grown(self.t, *self.vs[(mask & -mask).bit_length() - 1])

    def __iter__(self):
        us = [_grown(self.s, *site) for site in self.us]
        return iter(_pairs(us, [_grown(self.t, *site) for site in self.vs], self.free))


def _difficult_grown_pairs(s, t):
    """All difficult (U, V) over growth neighbors of s and t, in lexicographic
    order, listed below PAIR_GUARD and a ``_GrownPairs`` from there on;
    never empty for a difficult (s, t)."""
    if len(s) // 2 < PAIR_GUARD:
        u_rows, v_rows = (
            [_grown_row(_grown(w, *site)) for site in _grow_sites(w, word_scan(w).subtree_end)]
            for w in (s, t)
        )
        found = _difficult_pairs(u_rows, v_rows)
    else:
        found = _GrownPairs(s, t)
    if not found:
        raise RuntimeError("difficult pair has no difficult grown pair; growth closure is broken")
    return found


def pair_choices(pair) -> list:
    """Every difficult pair of growth neighbors of a difficult ``pair``.

    The result is lexicographically ordered and never empty (the anchor
    growth of both sides is always a member); an empty result would mean the
    growth-closure guarantee broke, which is raised as a hard error rather
    than handled.
    """
    if not is_difficult(pair):
        raise NotDifficultError(f"({pair[0]}, {pair[1]}) is not a difficult pair")
    found = _difficult_grown_pairs(str(pair[0]), str(pair[1]))
    return [TreePair(TreeWord._trusted(u), TreeWord._trusted(v)) for u, v in found]


def _sample(n, rng):
    _require_count(n, "size", MIN_SIZE)
    _require_rng(rng)
    s, t = _STARTS[rng.randrange(len(_STARTS))]
    counts = []
    for _ in range(n - MIN_SIZE):
        found = _difficult_grown_pairs(s, t)
        counts.append(len(found))
        s, t = found[rng.randrange(len(found))]
    return TreePair(TreeWord._trusted(s), TreeWord._trusted(t)), counts


def sample_difficult_pair(n: int, rng: random.Random) -> TreePair:
    """Draw one difficult pair of size ``n`` (>= 4) using ``rng``.

    Deterministic given the generator state; pass ``random.Random(seed)``
    for reproducible corpora.
    """
    return _sample(n, rng)[0]


def sample_with_choice_counts(n: int, rng: random.Random) -> tuple:
    """Like ``sample_difficult_pair`` but also return, per step, the number
    of difficult grown pairs the draw chose among (``len(pair_choices)``
    of that step's parent)."""
    return _sample(n, rng)
