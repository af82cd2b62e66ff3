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

``reduce_pair``, ``is_difficult`` and the ``check`` command share one
reduction step, which alone holds the rule order: identical, smallest
common interval, first one-off move in canonical order, difficult.  It
scans each word once into a map from non-root interval to node; the scan
doubles as the input check, and ``common_intervals``, ``one_off_moves`` and
``split_at_common`` wrap that same view and cut.  A split at one common
interval keeps the others and makes none, so the step cuts at all of them
in one pass; a move played on a pair with none leaves exactly one, its
created interval, which the step cuts at once, since the rotated node sits
at the move's target.  A pair is difficult when that step finds it neither
identical nor cut; the packed masks of ``growth`` decide difficulty only in
batches, for the sampler and the census.  The set-based oracle for both
lives in the tests.  Every rotation is rebuilt by ``_rotated`` and, but in
``exact_distance``, read off ``_rotation_rows``.  ``exact_distance`` is an
A* search that prunes with the same two lemmas the reduction rules rest on
and reads each popped word's moves in one pass of its own (``_toward``),
with no scan; the tests check that pass against ``_rotation_rows`` and the
search against a plain BFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import MalformedWordError, NoParentError, NotCommonError, SizeGuardExceededError
from .words import Interval, TreeWord, word_scan
from .words import _require_count, _require_internal, _rotation_rows

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
STATE_BUDGET = 500_000  # words one exact_distance search may store, about 200 MB


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
    parts = text.split() if isinstance(text, str) else ()
    if len(parts) != 2:
        raise MalformedWordError(f"expected two words separated by whitespace: {text!r}")
    return TreePair(*(TreeWord._trusted(word) for word, _, _ in _pair_views(parts)))


def _rotated(word: str, node: int, target: int) -> str:
    """``word`` with the '1' of ``node`` moved to index ``target``: the
    rotation that a ``_rotation_rows`` row describes."""
    if node < target:
        return word[:node] + word[node + 1 : target + 1] + "1" + word[target + 1 :]
    return word[:target] + "1" + word[target:node] + word[node + 1 :]


def rotate(word: str, index: int) -> TreeWord:
    """Word of the tree where the node at ``index`` is promoted over its parent."""
    scan = _require_internal(word, index)
    if index == 0:
        raise NoParentError("the root cannot be rotated")
    target = next(j for i, j, _, _ in _rotation_rows(scan) if i == index)
    return TreeWord._trusted(_rotated(word, index, target))


def rotation_neighbors(word: str) -> set:
    """All trees one rotation away; exactly n - 1 of them for a size-n tree."""
    rows = _rotation_rows(word_scan(word))
    return {TreeWord._trusted(_rotated(word, i, j)) for i, j, _, _ in rows}


def exact_distance(pair, max_size: int = DISTANCE_GUARD) -> int:
    """Length of a shortest rotation sequence between the two trees of ``pair``.

    Runs a best-first (A*) search from S.  A word's bound is the number of
    T's non-root intervals it lacks: a rotation swaps exactly one interval,
    so each move lowers the bound by at most one.  Two lemmas of Sleator,
    Tarjan and Thurston (1988) prune every state's moves: a node whose
    interval T has is never rotated, since the distance is additive over a
    common interval, and a move creating an interval of T is played alone,
    since it starts some shortest path.  A state with no such move wastes its
    first move, so it goes back on the heap one step later, its moves held in
    its entry, and its moved words are built only when it comes off again.
    A word's first push is final: no allowed move raises the bound (a forced
    move gains an interval of T, any other swaps two that T lacks), so a word
    is pushed at the level, moves + bound, of the pop that pushes it; levels
    come off the heap in order, so its first push has its fewest moves, and
    the search pushes each word once.  A popped word's moves come from
    ``_toward``, not a scan.  All search state belongs to the call.
    The guard caps the pair size, ``STATE_BUDGET`` the states one search
    stores; beyond either the search raises ``SizeGuardExceededError``.
    Raise the guard explicitly for bigger one-off queries.
    """
    (s, s_scan, _), (t, t_scan, _) = _pair_views(pair)
    n = len(s) // 2
    if n > _require_count(max_size, "max_size"):
        raise SizeGuardExceededError(f"size {n} exceeds the search guard {max_size}")
    if s == t:
        return 0
    goal = {key for _, _, key, _ in _rotation_rows(t_scan)}
    bound = len(goal - {key for _, _, key, _ in _rotation_rows(s_scan)})
    seen = {s}  # every word pushed, each once, at its fewest moves
    heap = [(bound, bound, s, ())]  # (moves + bound, bound, word, parked moves)
    while heap:
        if len(seen) > STATE_BUDGET:
            raise SizeGuardExceededError(
                f"the search stored {len(seen)} states, over its budget of {STATE_BUDGET}"
            )
        f, h, word, parked = heappop(heap)
        if parked:  # put back one step on, so its moved words' bound is h - 1
            for i, j in parked:
                child = _rotated(word, i, j)
                if child not in seen:
                    seen.add(child)
                    heappush(heap, (f, h - 1, child, ()))
            continue
        forced, moves = _toward(word, goal)
        if forced:
            child = _rotated(word, *forced)
            if child == t:
                return f - h + 1
            if child not in seen:
                seen.add(child)
                heappush(heap, (f, h - 1, child, ()))
        else:  # never empty: a word with every non-root interval of T is T
            heappush(heap, (f + 1, h + 1, word, tuple(moves)))
    raise RuntimeError("the search ran out of states before reaching T; a pruning rule is broken")


def _toward(word: str, goal) -> tuple:
    """(forced, moves) of a valid ``word`` toward T's interval keys ``goal``,
    each move a ``_rotation_rows`` (node, target): ``forced`` is the first in
    word order that keeps no interval of T and creates one, else None, and
    ``moves`` all that do neither.  The search's own right-to-left pass tests
    both children of a node as it pops them and builds no ``WordScan``; an
    entry is (index, lower, upper, left child's upper, right child)."""
    stride = len(word)
    forced, moves = None, []
    label = stride // 2 + 1
    stack = []
    for i in range(stride - 1, -1, -1):
        if word[i] == "0":
            label -= 1
            stack.append((i, label, label, 0, 0))
            continue
        _, _, left_high, left_mid, left_right = stack.pop()
        right, right_low, high, right_mid, _ = stack.pop()
        if left_high > label and label * stride + left_high not in goal:
            made = (left_mid + 1) * stride + high
            if made not in goal:
                moves.append((i + 1, left_right - 1))
            else:  # every node tested before lies past i + 1
                forced = i + 1, left_right - 1
        if high > right_low and right_low * stride + high not in goal:
            made = label * stride + right_mid
            if made not in goal:
                moves.append((right, i + 1))
            elif forced is None or right < forced[0]:
                forced = right, i + 1
        stack.append((i, label, high, left_high, right))
    return forced, moves


def _pair_views(pair) -> tuple:
    """The (S, T) views of ``pair``.  Scanning a word validates it, so raw
    strings and ``TreeWord`` values are scanned exactly once; trees of
    different sizes raise ``MalformedWordError``, as does anything but a
    tuple or list of exactly two words, since a string or a set would give
    its items in an order that names no S and T."""
    if not isinstance(pair, (tuple, list)) or len(pair) != 2:
        raise MalformedWordError(f"a pair is a tuple or list of two words, not {pair!r}")
    s, t = pair
    views = _view(s), _view(t)
    if len(s) != len(t):
        raise MalformedWordError(f"pair members differ in size: {s} {t}")
    return views


def _view(word: str) -> tuple:
    """(word, scan, nodes): the plain word, one scan of it and the map from
    each non-root interval to its node, in word order."""
    scan = word_scan(word)
    lower, upper = scan.lower, scan.upper
    nodes = {(lower[i], upper[i]): i for i in range(1, len(word)) if word[i] == "1"}
    return str(word), scan, nodes


def _moves(views):
    """(move, target) for the one-off moves of the (S, T) views in canonical
    order, S side before T side, nodes by word index; ``target`` is where
    ``_rotated`` moves the node's '1'."""
    for side, (word, scan, _), (_, _, targets) in zip("ST", views, views[::-1]):
        for i, j, _, made in _rotation_rows(scan):
            created = divmod(made, len(word))
            if created in targets:
                yield OneOffMove(side, i, Interval(*created)), j


def _cut(word: str, spans) -> list:
    """The pieces of ``word`` cut at the (start, end) slices ``spans``, given
    in word order, each nested in or disjoint from the others: the outside
    piece, then one per span, each with the spans right inside it as leaves."""
    cuts = [[0, len(word)]]  # per piece: its start, each child's start and end, its end
    stack = cuts[:]  # the pieces around the next span; they nest up to n deep
    for start, end in spans:
        while stack[-1][-1] <= start:
            stack.pop()
        stack[-1][-1:-1] = start, end
        cuts.append([start, end])
        stack.append(cuts[-1])
    return ["0".join(word[a:b] for a, b in zip(cut[::2], cut[1::2])) for cut in cuts]


def _split(sides, commons):
    """Yield the (S, T) pieces of both words cut at every interval of
    ``commons``, the outside pair first; ``sides`` holds (word, nodes) for S
    and T.  The node of [lo, hi] heads 2 * (hi - lo) + 1 symbols, so no word
    is scanned."""
    order = sorted(commons, key=lambda c: (c[0], -c[1]))  # word order in every tree
    cuts = [_cut(w, [(m[c], m[c] + 2 * (c[1] - c[0]) + 1) for c in order]) for w, m in sides]
    yield from zip(*cuts)


def _reduction(views) -> tuple:
    """The first reduction of the pair of (S, T) views in rule order, as
    ``(witness, pieces)``: ``(None, [])`` when identical, the smallest common
    ``Interval`` and the cut at every common interval, the first
    ``OneOffMove`` and the cut at the interval it creates, or
    ``(None, [(s, t)])`` when difficult.  Pieces are plain words, cut only
    when read; ``bool(pieces)`` is read only when the witness is None, and
    the pieces are then a list."""
    (s, _, s_nodes), (t, _, t_nodes) = views
    if s == t:
        return None, []
    sides = [(s, s_nodes), (t, t_nodes)]
    commons = s_nodes.keys() & t_nodes.keys()
    if commons:
        return Interval(*min(commons)), _split(sides, commons)
    move, target = next(_moves(views), (None, None))
    if move is None:
        return None, [(s, t)]
    flip = move.side == "T"
    sides[flip] = _rotated(sides[flip][0], move.node, target), {move.created: target}
    return move, _split(sides, [move.created])


def common_intervals(pair) -> frozenset:
    """Intervals (root span excluded) present in both trees of the pair."""
    (_, _, s_nodes), (_, _, t_nodes) = _pair_views(pair)
    return frozenset(Interval(*common) for common in s_nodes.keys() & t_nodes.keys())


def one_off_moves(pair) -> list:
    """All rotations in either side whose created interval the other side has.

    Moves come out in a canonical order: S side before T side, nodes by
    word index.
    """
    return [move for move, _ in _moves(_pair_views(pair))]


def is_difficult(pair) -> bool:
    """True when the pair has no common intervals and no one-off moves.

    Decided by the reduction step, which scans each word once and so
    validates it; trees of different sizes raise ``MalformedWordError``.
    Identical trees are never difficult: there is nothing left to solve.
    """
    witness, pieces = _reduction(_pair_views(pair))
    return witness is None and bool(pieces)


def split_at_common(pair, common) -> tuple:
    """Split a pair at a common interval into the spanned pair and the rest.

    Returns ``(inner, outer)`` where ``inner`` is the pair of subtrees
    spanning ``common`` (their words are already self-contained trees, so
    leaf labels restart at 0) and ``outer`` is the pair with that subtree
    collapsed to a single leaf.  The two sizes always sum to the original.
    """
    views = _pair_views(pair)
    ints = isinstance(common, tuple | list) and list(map(type, common)) == [int, int]
    if not (ints and all(tuple(common) in nodes for _, _, nodes in views)):
        raise NotCommonError(f"{common!r} is not a non-root interval of both trees")
    outer, inner = _split([(word, nodes) for word, _, nodes in views], [tuple(common)])
    return TreePair(*map(TreeWord._trusted, inner)), TreePair(*map(TreeWord._trusted, outer))


def reduce_pair(pair) -> ReductionResult:
    """Apply every known-safe reduction until only difficult pieces remain.

    Identical pieces are dropped, a piece is cut at all its common intervals
    at once, and a piece with none but a one-off move plays the first move
    in canonical order (counting toward ``forced_moves``) and is cut at the
    interval it creates.  The exact distance of the input equals
    ``forced_moves`` plus the sum of exact distances of the components.
    The input is checked by the first round's scans, and each later piece
    is scanned once unless it is already identical.
    """
    forced, components, pending = 0, [], []
    witness, pieces = _reduction(_pair_views(pair))
    while True:
        if witness is None:
            components += pieces
        else:
            forced += isinstance(witness, OneOffMove)
            pending.extend((s, t) for s, t in pieces if s != t)
        if not pending:
            break
        witness, pieces = _reduction(tuple(map(_view, pending.pop())))
    components.sort()
    return ReductionResult(forced, [TreePair(*map(TreeWord._trusted, p)) for p in components])
