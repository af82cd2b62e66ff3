"""Rotation moves, the exact-distance oracle, and pair reduction rules.

A rotation promotes an internal non-root node into its parent's position and
is the edit move defining the distance between two same-size trees.  In
interval terms a rotation swaps exactly one interval of the tree for the
rotated node's created interval, which is what the commonality and one-off
tests below exploit:

* a *common interval* (excluding the root span) appears in both trees and
  splits the distance problem into two independent smaller ones;
* a *one-off move* is a rotation in one tree whose created interval already
  exists in the other, and some shortest path starts with it;
* a *difficult pair* admits neither, so no first move is known to be safe.

``is_difficult`` runs on the packed interval masks and pair filter of
``words``, the one production difficulty path, which the census and the
sampler share; the set-based recomputation it is checked against lives in
the tests.  ``exact_distance`` is a bidirectional breadth-first search over
the implicit rotation graph and is deliberately independent of the
reduction machinery so each can check the other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    MalformedWordError,
    NoParentError,
    NotCommonError,
    NotInternalError,
    SizeGuardExceededError,
)
from .words import Interval, TreeWord, intervals, parse_word, word_scan
from .words import _created, _difficult_pairs, _interval_masks

__all__ = [
    "TreePair",
    "OneOffMove",
    "ReductionResult",
    "parse_pair",
    "rotate",
    "rotation_neighbors",
    "exact_distance",
    "common_intervals",
    "one_off_moves",
    "is_difficult",
    "split_at_common",
    "reduce_pair",
]

DISTANCE_GUARD = 12


class TreePair(NamedTuple):
    """An ordered pair of same-size tree words."""

    s: str
    t: str


class OneOffMove(NamedTuple):
    """A rotation in one side whose created interval is an interval of the other."""

    side: str  # "S" or "T"
    node: int
    created: Interval


@dataclass
class ReductionResult:
    """Outcome of reducing a pair: forced one-off flips plus difficult leftovers."""

    forced_moves: int
    components: list


def parse_pair(text: str) -> TreePair:
    """Parse a "word word" line into a validated same-size pair."""
    parts = text.split()
    if len(parts) != 2:
        raise MalformedWordError(f"expected two words separated by whitespace: {text!r}")
    s, t = parse_word(parts[0]), parse_word(parts[1])
    if len(s) != len(t):
        raise MalformedWordError(f"pair members differ in size: {parts[0]} {parts[1]}")
    return TreePair(s, t)


def _rotated(word: str, scan, index: int) -> str:
    """Word with the internal, non-root node ``index`` promoted over its parent.

    Only the promoted node's '1' moves: a left child's reappears between its
    two subtrees, ((a b) c) -> (a (b c)); a right child's reappears in front
    of its sibling, (a (b c)) -> ((a b) c).
    """
    up = scan.parent[index]
    if index == up + 1:
        cut = scan.subtree_end[index + 1]
        return word[:index] + word[index + 1 : cut] + "1" + word[cut:]
    return word[: up + 1] + "1" + word[up + 1 : index] + word[index + 1 :]


def rotate(word: str, index: int) -> TreeWord:
    """Word of the tree where the node at ``index`` is promoted over its parent."""
    if not 0 <= index < len(word):
        raise NotInternalError(f"no node @{index} in {word!r}")
    if word[index] != "1":
        raise NotInternalError(f"cannot rotate at leaf @{index} of {word!r}")
    if index == 0:
        raise NoParentError("the root cannot be rotated")
    return TreeWord(_rotated(word, word_scan(word), index))


@lru_cache(maxsize=65536)
def _neighbor_words(word: str) -> tuple:
    """Sorted words one rotation away; cached because searches revisit them."""
    scan = word_scan(word)
    return tuple(sorted(_rotated(word, scan, i) for i in range(1, len(word)) if word[i] == "1"))


def rotation_neighbors(word: str) -> set:
    """All trees one rotation away; exactly n - 1 of them for a size-n tree."""
    return {TreeWord(w) for w in _neighbor_words(str(word))}


def exact_distance(pair, max_size: int = DISTANCE_GUARD) -> int:
    """Length of a shortest rotation sequence between the two trees of ``pair``.

    Runs a level-synchronous bidirectional breadth-first search over the
    implicit rotation graph, always expanding the smaller frontier.  The
    search is exhaustive, so the guard caps the pair size to keep memory at
    desk scale; raise it explicitly for bigger one-off queries.
    """
    s, t = pair
    if len(s) != len(t):
        raise MalformedWordError("distance needs two trees of the same size")
    if len(s) // 2 > max_size:
        raise SizeGuardExceededError(
            f"size {len(s) // 2} exceeds the search guard {max_size}"
        )
    if s == t:
        return 0
    s, t = str(s), str(t)
    dist_a = {s: 0}
    dist_b = {t: 0}
    frontier_a = [s]
    frontier_b = [t]
    while frontier_a and frontier_b:
        if len(frontier_a) > len(frontier_b):
            frontier_a, frontier_b = frontier_b, frontier_a
            dist_a, dist_b = dist_b, dist_a
        best = None
        grown = []
        for word in frontier_a:
            through = dist_a[word] + 1
            for neighbor in _neighbor_words(word):
                if neighbor in dist_a:
                    continue
                other = dist_b.get(neighbor)
                if other is not None:
                    total = through + other
                    if best is None or total < best:
                        best = total
                    continue
                dist_a[neighbor] = through
                grown.append(neighbor)
        if best is not None:
            # the full level was expanded, so no shorter meeting exists
            return best
        frontier_a = grown
    raise MalformedWordError("trees are not connected by rotations; malformed input?")


def common_intervals(pair) -> frozenset:
    """Intervals (root span excluded) present in both trees of the pair."""
    s, t = pair
    return intervals(s, include_root=False) & intervals(t, include_root=False)


def one_off_moves(pair) -> list:
    """All rotations in either side whose created interval the other side has.

    Moves come out in a canonical order: S side before T side, nodes by
    word index.
    """
    s, t = pair
    moves = []
    for side, mine, theirs in (("S", s, t), ("T", t, s)):
        targets = intervals(theirs, include_root=False)
        scan = word_scan(mine)
        for i in range(1, len(mine)):
            if mine[i] == "1":
                created = _created(scan, i)
                if created in targets:
                    moves.append(OneOffMove(side, i, created))
    return moves


def _checked_pair(pair) -> tuple:
    """The two words of ``pair``: raw strings are validated (``TreeWord``
    values skip the check), and trees of different sizes raise
    ``MalformedWordError``."""
    s, t = (w if isinstance(w, TreeWord) else parse_word(w) for w in pair)
    if len(s) != len(t):
        raise MalformedWordError(f"pair members differ in size: {s} {t}")
    return s, t


def is_difficult(pair) -> bool:
    """True when the pair has no common intervals and no one-off moves.

    Raw strings are validated (``TreeWord`` values skip the check) and trees
    of different sizes raise ``MalformedWordError``.  Identical trees are
    never difficult: there is nothing left to solve.
    """
    s, t = _checked_pair(pair)
    stride = len(s) // 2 + 1
    left, right = ([(w, *_interval_masks(w, stride))] for w in (s, t))
    return bool(_difficult_pairs(left, right))


def split_at_common(pair, common) -> tuple:
    """Split a pair at a common interval into the spanned pair and the rest.

    Returns ``(inner, outer)`` where ``inner`` is the pair of subtrees
    spanning ``common`` (their words are already self-contained trees, so
    leaf labels restart at 0) and ``outer`` is the pair with that subtree
    collapsed to a single leaf.  The two sizes always sum to the original.
    """
    lo, hi = common

    def cut(word):
        scan = word_scan(word)
        for i in range(1, len(word)):
            if word[i] == "1" and scan.lower[i] == lo and scan.upper[i] == hi:
                end = scan.subtree_end[i]
                return word[i:end], word[:i] + "0" + word[end:]
        raise NotCommonError(f"({lo},{hi}) is not a non-root interval of {word!r}")

    inner_s, outer_s = cut(pair[0])
    inner_t, outer_t = cut(pair[1])
    return (
        TreePair(TreeWord(inner_s), TreeWord(inner_t)),
        TreePair(TreeWord(outer_s), TreeWord(outer_t)),
    )


def reduce_pair(pair) -> ReductionResult:
    """Apply every known-safe reduction until only difficult pieces remain.

    Identical pieces are dropped, common intervals split a piece in two, and
    when neither applies but a one-off move exists the first move in
    canonical order is played (counting toward ``forced_moves``) which
    creates a common interval for the next round.  Splits are preferred over
    flips and the lexicographically smallest common interval is used first,
    so the outcome is deterministic.  The exact distance of the input equals
    ``forced_moves`` plus the sum of exact distances of the components.
    The input is checked once on entry, as ``is_difficult`` checks it.
    """
    s, t = _checked_pair(pair)
    forced = 0
    components = []
    queue = deque([(str(s), str(t))])
    while queue:
        s, t = queue.popleft()
        if s == t:
            continue
        commons = common_intervals((s, t))
        if commons:
            inner, outer = split_at_common((s, t), min(commons))
            queue.append(inner)
            queue.append(outer)
            continue
        moves = one_off_moves((s, t))
        if moves:
            side, node, _ = moves[0]
            if side == "S":
                s = rotate(s, node)
            else:
                t = rotate(t, node)
            forced += 1
            queue.append((s, t))
            continue
        components.append(TreePair(TreeWord(s), TreeWord(t)))
    components.sort()
    return ReductionResult(forced, components)
