"""Exhaustive oracles: all trees of a size, all difficult pairs, primitives.

These enumerations exist to cross-check the fast paths at desk scale, so
both carry deliberate size guards (override ``max_size`` to push further;
the pair census runs the packed-row filter of ``growth`` on all
Catalan(n)^2 pairs).
"""

from __future__ import annotations

import math
import sys

from .errors import SizeGuardExceededError
from .rotations import TreePair
from .growth import _difficult_pairs, _packed_row
from .words import TreeWord, _require_count

__all__ = [
    "catalan",
    "enumerate_trees",
    "enumerate_difficult_pairs",
    "primitive_pairs",
    "TREE_GUARD",
    "PAIR_GUARD",
]

TREE_GUARD = 14
PAIR_GUARD = 8

# The four unordered difficult pairs of size 4 (one canonical s < t
# representative each), reproduced by enumerate_difficult_pairs(4) and
# pinned by the census tests.  No smaller difficult pairs exist.
_PRIMITIVE_PAIRS = (
    ("101011000", "111010000"),
    ("101100100", "111001000"),
    ("101101000", "111000100"),
    ("110010100", "110110000"),
)


def catalan(n: int) -> int:
    """Number of extended ordered binary trees with ``n`` internal nodes."""
    _require_count(n, "size")
    return math.comb(2 * n, n) // (n + 1)


def enumerate_trees(n: int, max_size: int = TREE_GUARD) -> list:
    """All valid words of size ``n`` in lexicographic order, as plain ``str``.

    Listed by successor, so the output needs no sort; the count is always
    Catalan(n).  The first word is ``"10" * n + "0"``.  Each next word
    turns the '0' of the last "01" into a '1' and completes the word as
    small as it goes: a '0' per open subtree, then "10" up to n '1's, then
    the last leaf.  The word with no "01" is the last.
    """
    _require_count(n, "size")
    if n > _require_count(max_size, "max_size"):
        raise SizeGuardExceededError(f"size {n} exceeds the census guard {max_size}")
    # no list holds more than sys.maxsize items, and Catalan(36) is past that
    # on every build, so a huge n never reaches math.comb
    if catalan(min(n, 36)) > sys.maxsize:
        raise SizeGuardExceededError(f"size {n} has more trees than a list can hold")
    word = "10" * n + "0"
    words = [word]
    while (cut := word.rfind("01")) >= 0:
        ones = word.count("1", 0, cut) + 1
        word = word[:cut] + "1" + "0" * (2 * ones - cut - 1) + "10" * (n - ones) + "0"
        words.append(word)
    return words


def enumerate_difficult_pairs(n: int, max_size: int = PAIR_GUARD) -> list:
    """All ordered difficult pairs of size ``n`` as ``TreePair``s of ``str``, lexicographically."""
    _require_count(n, "size")
    if n > _require_count(max_size, "max_size"):
        raise SizeGuardExceededError(f"size {n} exceeds the census guard {max_size}")
    rows = [_packed_row(w) for w in enumerate_trees(n, max_size=max(n, TREE_GUARD))]
    return [TreePair(s, t) for s, t in _difficult_pairs(rows, rows)]


def primitive_pairs() -> list:
    """The fixed table of size-4 difficult pairs, one per unordered pair.

    These are the smallest difficult pairs and the seeds every grown sample
    starts from.  Representatives are ordered s < t lexicographically.
    """
    return [TreePair(TreeWord(s), TreeWord(t)) for s, t in _PRIMITIVE_PAIRS]
