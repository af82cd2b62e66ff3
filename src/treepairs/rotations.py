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

``reduce_pair`` and the ``check`` command share one reduction step, which
alone holds the rule order: identical, smallest common interval, first
one-off move in canonical order, difficult.  It scans each word once into a
map from non-root interval to node; ``common_intervals``, ``one_off_moves``
and ``split_at_common`` wrap that same view and cut.  ``is_difficult`` runs
on the packed masks and pair filter of ``words``, the one production
difficulty path; its set-based oracle lives in the tests.  ``exact_distance``
is a bidirectional breadth-first search, independent of the reduction
machinery so each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import MalformedWordError, NoParentError, NotCommonError, SizeGuardExceededError
from .words import Interval, TreeWord, word_scan
from .words import _checked, _created, _difficult_pairs, _interval_masks, _require_internal

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
    return TreePair(*_checked_pair(parts))


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
    _require_internal(word, index)
    if index == 0:
        raise NoParentError("the root cannot be rotated")
    return TreeWord._trusted(_rotated(word, word_scan(word), index))


@lru_cache(maxsize=65536)
def _neighbor_words(word: str) -> tuple:
    """Sorted words one rotation away; cached because searches revisit them."""
    scan = word_scan(word)
    return tuple(sorted(_rotated(word, scan, i) for i in range(1, len(word)) if word[i] == "1"))


def rotation_neighbors(word: str) -> set:
    """All trees one rotation away; exactly n - 1 of them for a size-n tree."""
    return {TreeWord._trusted(w) for w in _neighbor_words(str(_checked(word)))}


def exact_distance(pair, max_size: int = DISTANCE_GUARD) -> int:
    """Length of a shortest rotation sequence between the two trees of ``pair``.

    Runs a level-synchronous bidirectional breadth-first search over the
    implicit rotation graph, always expanding the smaller frontier.  The
    search is exhaustive, so the guard caps the pair size to keep memory at
    desk scale; raise it explicitly for bigger one-off queries.
    """
    s, t = _checked_pair(pair)
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


def _checked_pair(pair) -> tuple:
    """The two words of ``pair``: raw strings are validated (``TreeWord``
    values skip the check), and trees of different sizes raise
    ``MalformedWordError``, as does anything but exactly two words."""
    try:
        s, t = pair
    except (TypeError, ValueError):
        raise MalformedWordError(f"a pair is exactly two words, not {pair!r}") from None
    s, t = _checked(s), _checked(t)
    if len(s) != len(t):
        raise MalformedWordError(f"pair members differ in size: {s} {t}")
    return s, t


def _view(word: str) -> tuple:
    """(word, scan, nodes): one scan of the word and the map from each
    non-root interval to its node, in word order."""
    scan = word_scan(word)
    lower, upper = scan.lower, scan.upper
    return word, scan, {(lower[i], upper[i]): i for i in range(1, len(word)) if word[i] == "1"}


def _moves(views):
    """One-off moves of the (S, T) views in canonical order: S side before
    T side, nodes by word index."""
    for side, (_, scan, nodes), (_, _, targets) in zip("ST", views, views[::-1]):
        for i in nodes.values():
            created = _created(scan, i)
            if created in targets:
                yield OneOffMove(side, i, created)


def _split(views, common) -> tuple:
    """The (inner, outer) pairs of plain words left by cutting both words
    of the (S, T) views at the interval ``common``."""
    cuts = []
    for word, scan, nodes in views:
        if common not in nodes:
            raise NotCommonError("({},{}) is not a non-root interval of {!r}".format(*common, word))
        i = nodes[common]
        end = scan.subtree_end[i]
        cuts.append((word[i:end], word[:i] + "0" + word[end:]))
    return tuple(zip(*cuts))


def _reduction(s: str, t: str) -> tuple:
    """The first reduction of the pair in rule order, as ``(witness, pieces)``:
    ``(None, [])`` when identical, the smallest common ``Interval`` and the
    split's inner and outer pairs, the first ``OneOffMove`` and the pair after
    it, or ``(None, [(s, t)])`` when difficult.  Pieces are plain words."""
    if s == t:
        return None, []
    views = _view(s), _view(t)
    commons = views[0][2].keys() & views[1][2].keys()
    if commons:
        common = min(commons)
        return Interval(*common), list(_split(views, common))
    move = next(_moves(views), None)
    if move is None:
        return None, [(s, t)]
    word, scan, _ = views[move.side == "T"]
    rotated = _rotated(word, scan, move.node)
    return move, [(rotated, t) if move.side == "S" else (s, rotated)]


def common_intervals(pair) -> frozenset:
    """Intervals (root span excluded) present in both trees of the pair."""
    (_, _, s_nodes), (_, _, t_nodes) = map(_view, _checked_pair(pair))
    return frozenset(Interval(*common) for common in s_nodes.keys() & t_nodes.keys())


def one_off_moves(pair) -> list:
    """All rotations in either side whose created interval the other side has.

    Moves come out in a canonical order: S side before T side, nodes by
    word index.
    """
    return list(_moves([_view(w) for w in _checked_pair(pair)]))


def is_difficult(pair) -> bool:
    """True when the pair has no common intervals and no one-off moves.

    Raw strings are validated (``TreeWord`` values skip the check) and trees
    of different sizes raise ``MalformedWordError``.  Identical trees are
    never difficult: there is nothing left to solve.
    """
    s, t = _checked_pair(pair)
    stride = len(s) // 2 + 1
    left, right = ([(w, *_interval_masks(word_scan(w), stride))] for w in (s, t))
    return bool(_difficult_pairs(left, right))


def split_at_common(pair, common) -> tuple:
    """Split a pair at a common interval into the spanned pair and the rest.

    Returns ``(inner, outer)`` where ``inner`` is the pair of subtrees
    spanning ``common`` (their words are already self-contained trees, so
    leaf labels restart at 0) and ``outer`` is the pair with that subtree
    collapsed to a single leaf.  The two sizes always sum to the original.
    """
    lo, hi = common
    views = [_view(w) for w in _checked_pair(pair)]
    return tuple(TreePair(*map(TreeWord._trusted, p)) for p in _split(views, Interval(lo, hi)))


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
    forced = 0
    components = []
    pending = [tuple(map(str, _checked_pair(pair)))]
    while pending:
        witness, pieces = _reduction(*pending.pop())
        if witness is None:
            components += pieces
        else:
            forced += isinstance(witness, OneOffMove)
            pending.extend(pieces)
    components.sort()
    return ReductionResult(forced, [TreePair(*map(TreeWord._trusted, p)) for p in components])
