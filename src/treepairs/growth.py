"""Tree growth: single grow steps, uniform random trees, and the anchor map.

A grow step replaces any node v by a fresh internal node whose other child
is a new leaf; v becomes the left or right child.  Iterating grow steps with
uniform choices over the 2k + 1 nodes and the two sides is the classic way
to draw a size-n tree uniformly at random among the Catalan(n) possibilities
(``remy_sample``).  Of a size-k tree's 3k + 1 grow sites only 2k grow
distinct trees, so ``_grow_sites`` keeps one site per grown word, in the
lexicographic order of the words, which it finds without building them;
``growth_neighbors``, the sampler and ``_grow_classes`` all read that list.

The *anchor* of a tree is the internal node whose right child is the
highest-labelled leaf, i.e. the lowest node on the right spine.  Growing
left at the anchor (``anchor_growth``) is the distinguished growth step that
preserves pair difficulty, and ``anchor_embedding`` is the index map that
carries nodes of a word into its anchor growth: everything before the anchor
keeps its index, everything from the anchor on shifts right by one past the
inserted '1'.

The two halves of the sampler's step, which finds the difficult pairs of
grown words of a pair, live here too.  Every interval is keyed as
``words._rotation_rows`` keys it, lower * len(word) + upper of the parent
or scanned word, so no caller picks a stride.  The packed rows (word, has,
makes): ``_packed_row`` builds a word's masks in one walk, and
``_difficult_pairs`` filters pairs of rows into a list; the census and the
sampler's small steps, which memoize the rows of the few small grown
words, build rows this way.  The near-miss
step, ``_near_miss_masks``, builds no row and lists no pair: it gives per
grown U of one parent the mask of the grown V of the other that U makes a
difficult pair with, and grow sites in place of words, so the sampler
counts the pairs and builds only the one it draws.  ``_grow_classes``
places every interval of a parent in all of its grown words at once, as
runs of grow sites, and ``_grow_images`` turns that into masks of grown
words per interval.  ``_grow_classes`` is the one place that says where a
grow step moves an interval.

Randomness is always taken from a caller-owned ``random.Random`` instance
(Mersenne Twister), so identical seeds reproduce identical trees on every
platform.  Share nothing else: one generator per thread.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import or_

from .errors import MalformedWordError, NotInternalError, TreePairError
from .words import TreeWord, word_scan
from .words import _require_count, _require_node, _rotation_rows

__all__ = [
    "grow",
    "growth_neighbors",
    "remy_sample",
    "anchor_index",
    "spine_split",
    "anchor_growth",
    "anchor_embedding",
]


def _grown(word: str, index: int, end: int, right: bool) -> str:
    """Grow at the node ``index`` whose subtree ends at ``end``: the node
    becomes the left child of a new node with a fresh leaf on the right, or
    with ``right`` the right child with the fresh leaf on the left."""
    if right:
        return word[:index] + "10" + word[index:]
    return word[:index] + "1" + word[index:end] + "0" + word[end:]


def _grow_sites(word: str, ends) -> list:
    """One grow site (index, subtree end, right) per distinct word grown
    from ``word``, in the lexicographic order of those words, found
    without building them.  Each is its word's first site in word order,
    growing left before right; a leaf grows only left.

    A grown word is ``word`` with a '1' put in at some x and a '0' at some
    y >= x (``_grown``).  Moving the '1' right through a run of 1s, or the
    '0' through a run of 0s, grows the same word, and so does moving "10"
    (x = y) through a run of "10"s.  Moved as far right as that goes, x is
    where the grown word first differs from ``word``: growing left at a
    node puts the '1' at the node's first leaf and the '0' at its subtree
    end; growing a leaf, or right at a node, puts "10" at the node, and
    the run of "10"s from there ends at a leaf (the '1' at x) or at "11"
    (the '0' at x + 1).  A word with a '0' where ``word`` has a '1' is
    smaller than every word that differs from ``word`` only later, and one
    with a '1' bigger.  So the smaller words come first by x, then the
    bigger ones by x descending and, at one x, by the moved y ascending,
    and one such key names one word.
    """
    size = len(word)
    span = size + 1
    next_one = [size] * span  # the first '1' at or after y, else size
    run_end = [0] * size  # where the run of "10"s from x ends
    leaf = size  # the first '0' at or after i
    sites = {}  # filled right to left: the first site of a word wins
    for i in range(size - 1, -1, -1):
        if word[i] == "0":
            leaf = run_end[i] = i
            next_one[i] = y = next_one[i + 1]
            sites[(size - i) * span + y] = (i, ends[i], False)
        else:
            next_one[i] = i
            x = run_end[i] = run_end[i + 2] if word[i + 1] == "0" else i
            end = ends[i]
            sites[(size - x) * span + next_one[x + 1] if word[x] == "0" else x - size] = (i, end, True)
            sites[(size - leaf) * span + next_one[end]] = (i, end, False)
    return [sites[key] for key in sorted(sites)]


def _packed_row(word: str) -> tuple:
    """The (word, has, makes) row of ``word``, in one walk over
    ``_rotation_rows``: bit masks of its non-root intervals and of its
    created intervals, each at its ``_rotation_rows`` key.  Rows of words
    of one size compare."""
    has = makes = 0
    for _, _, key, made in _rotation_rows(word_scan(word)):
        has |= 1 << key
        makes |= 1 << made
    return word, has, makes


def _difficult_pairs(left, right):
    """Every difficult (u, v) over two lists of (word, has, makes) rows, in
    row order: no common interval, no interval of one side creatable in the
    other, and u != v."""
    found = []
    for u_word, u_has, u_makes in left:
        u_blocked = u_has | u_makes
        for v_word, v_has, v_makes in right:
            if u_blocked & v_has or v_makes & u_has or u_word == v_word:
                continue
            found.append((u_word, v_word))
    return found


def _pairs(us, vs, free) -> list:
    """The pairs (us[r], vs[c]) for every bit c of free[r], row by row and
    each row's bits ascending: in lexicographic order when us and vs are."""
    found = []
    for u, mask in zip(us, free):
        while mask:
            low = mask & -mask
            found.append((u, vs[low.bit_length() - 1]))
            mask ^= low
    return found


def _grow_classes(word: str) -> tuple:
    """The grow sites of ``word`` in row order and where each grow step
    takes the word's intervals, for ``_near_miss_masks``.

    Growing at a node with interval [a, b] takes every non-root interval
    [l, h] and every created interval of the word to itself (*stay*), to
    [l, h + 1] (*step*) or to [l + 1, h + 1] (*move*).  Growing right: stay
    if h < a, step if l < a <= h or (l = a and h > b), else move.  Growing
    left: move if l > b, step if l <= b < h or (h = b and l < a), else stay.
    So over the right sites sorted by (a, -b), which is word order, an
    interval's moves come first, its steps next and its stays last, and so
    they do over the left sites sorted by (b, -a): two cuts in each order
    place the interval in every grown word.  The one exception is a node's
    created interval, which is gone at the node's own sites.

    Returns (scan, sites, rights, lefts, added, place), keys being
    lower * len(word) + upper as ``_rotation_rows`` keys them:
    - ``sites``: the ``_grow_sites`` of ``word``, row r growing at
      ``sites[r]``;
    - ``rights``, ``lefts``: the rows of the right and left sites in those
      orders;
    - ``added``: (row, key, created) for each interval the step itself
      adds, keyed in the same frame, which holds the grown word's labels
      up to k + 1: the new node's interval (at the root, the old root's
      span), its created interval and the grown node's new created
      interval;
    - ``place(key, node)``: (right moves end, right steps end, left moves
      end, left steps end, right own, left own) for a non-root interval
      (node -1) or the interval the node creates, where own is the
      position of the node's site in that order, -1 for none.
    """
    parent, ends, lower, upper = scan = word_scan(word)
    size = len(word)
    k = size // 2
    sites = _grow_sites(word, ends)
    right_row, left_row = [-1] * size, [-1] * size
    added = []
    for row, (i, _, right) in enumerate(sites):
        a, b = lower[i], upper[i]
        internal = word[i] == "1"
        if right:
            right_row[i] = row
        else:
            left_row[i] = row
        if i:
            p = parent[i]
            added.append((row, a * size + b + 1, False))
            if i == p + 1:
                added.append((row, (a + 1 if right else b + 1) * size + upper[p] + 1, True))
            else:
                added.append((row, lower[p] * size + (a if right else b), True))
        elif internal:
            added.append((row, size + k + 1 if right else k, False))
        if internal:
            if right:
                added.append((row, a * size + upper[i + 1] + 1, True))
            else:
                added.append((row, lower[ends[i + 1]] * size + b + 1, True))
    rights, right_keys, right_at = [], [], [-1] * size
    for i, row in enumerate(right_row):
        if row >= 0:
            right_at[i] = len(rights)
            rights.append(row)
            right_keys.append(lower[i] * size - upper[i])
    post = [upper[i] * size - lower[i] for i in range(size)]
    lefts, left_keys, left_at = [], [], [-1] * size
    for i in sorted(range(size), key=post.__getitem__):
        row = left_row[i]
        if row >= 0:
            left_at[i] = len(lefts)
            lefts.append(row)
            left_keys.append(post[i])

    def place(key, node):
        low, high = divmod(key, size)
        return (
            bisect_right(right_keys, low * size - high),
            bisect_right(right_keys, high * size),
            bisect_right(left_keys, (low - 1) * size),
            bisect_left(left_keys, high * size - low),
            right_at[node] if node >= 0 else -1,
            left_at[node] if node >= 0 else -1,
        )

    return scan, sites, rights, lefts, added, place


def _grow_images(word: str) -> tuple:
    """(sites, has, makes): the grow sites of ``word`` in row order, as in
    ``_grow_classes``, and maps from interval key to the mask of the rows
    whose word has that non-root interval (``has``) or creates it
    (``makes``)."""
    scan, sites, rights, lefts, added, place = _grow_classes(word)
    has, makes = {}, {}
    for row, key, created in added:
        table = makes if created else has
        table[key] = table.get(key, 0) | 1 << row
    right_firsts = list(accumulate((1 << row for row in rights), or_, initial=0))
    left_firsts = list(accumulate((1 << row for row in lefts), or_, initial=0))
    every = right_firsts[-1] | left_firsts[-1]
    lift = len(word) + 1
    for i, _, has_key, made_key in _rotation_rows(scan):
        for key, node, table in ((has_key, -1, has), (made_key, i, makes)):
            rm, rs, lm, ls, ro, lo = place(key, node)
            moves = right_firsts[rm] | left_firsts[lm]
            moves_and_steps = right_firsts[rs] | left_firsts[ls]
            keep = ~((1 << rights[ro] if ro >= 0 else 0) | (1 << lefts[lo] if lo >= 0 else 0))
            rows = (every ^ moves_and_steps) & keep
            if rows:
                table[key] = table.get(key, 0) | rows
            rows = (moves_and_steps ^ moves) & keep
            if rows:
                table[key + 1] = table.get(key + 1, 0) | rows
            rows = moves & keep
            if rows:
                table[key + lift] = table.get(key + lift, 0) | rows
    return sites, has, makes


def _near_miss_masks(s: str, t: str) -> tuple:
    """(us, vs, free): the grow sites of two words of one size k >= 1 in
    the lexicographic order of their grown words (``_grow_sites``), and
    per U the mask of the V rows it makes a difficult pair with, found
    without building a row or a grown word.  Bit c of free[r] is set just
    when ``_difficult_pairs`` over the ``_packed_row`` rows lists
    (U_r, V_c), so ``_pairs`` lists the same pairs in the same order.
    Both parents' keys share one frame, lower * len(s) + upper, which
    holds the labels up to k + 1 of every grown word.

    A grown U of s and a grown V of t conflict when some interval is in
    both, or one has an interval the other creates; U = V shares every
    interval, so no word compare is needed.
    Every such interval is an image of an interval or created interval of
    the parent, placed by ``_grow_classes``, or one the step adds, so each
    image of s looks up the V rows it conflicts with in t's maps
    (``_grow_images``).  When (s, t) is difficult, an interval I of s and J
    of t meet only as near misses: J - I is (0, 1), (0, -1), (1, 1),
    (-1, -1), (1, 0) or (-1, 0), I and J in different classes, so few
    lookups hit, and only an interval whose images hit is placed.

    The U rows of one class of an interval of s are a run in each site
    order.  A run at the start or the end of an order is marked once at its
    cut, and a sweep over each order at the end spreads the marks; only
    runs inside an order, and the pieces a node's own sites leave, are
    walked row by row.  Each U row's conflict mask then leaves its free V
    rows.
    """
    lift = len(s) + 1
    scan, us, rights, lefts, added, place = _grow_classes(s)
    vs, has, makes = _grow_images(t)
    blocked = [0] * len(us)
    for row, key, created in added:
        blocked[row] |= has.get(key, 0) if created else has.get(key, 0) | makes.get(key, 0)
    right_heads, right_tails = [0] * (len(rights) + 1), [0] * (len(rights) + 1)
    left_heads, left_tails = [0] * (len(lefts) + 1), [0] * (len(lefts) + 1)

    def cover(order, heads, tails, start, stop, own, cols):
        # heads[j] covers the first j sites of the order, tails[j] site j on
        if start <= own < stop:
            cover(order, heads, tails, start, own, -1, cols)
            start = own + 1
        if start >= stop:
            return
        if not start:
            heads[stop] |= cols
        elif stop == len(order):
            tails[start] |= cols
        else:
            for at in range(start, stop):
                blocked[order[at]] |= cols

    for i, _, has_key, made_key in _rotation_rows(scan):
        for key, node in ((has_key, -1), (made_key, i)):
            if node < 0:
                stay = has.get(key, 0) | makes.get(key, 0)
                step = has.get(key + 1, 0) | makes.get(key + 1, 0)
                move = has.get(key + lift, 0) | makes.get(key + lift, 0)
            else:
                stay, step, move = has.get(key, 0), has.get(key + 1, 0), has.get(key + lift, 0)
            if not (stay or step or move):
                continue
            rm, rs, lm, ls, ro, lo = place(key, node)
            for cols, right_run, left_run in (
                (stay, (rs, len(rights)), (ls, len(lefts))),
                (step, (rm, rs), (lm, ls)),
                (move, (0, rm), (0, lm)),
            ):
                if cols:
                    cover(rights, right_heads, right_tails, *right_run, ro, cols)
                    cover(lefts, left_heads, left_tails, *left_run, lo, cols)
    for order, heads, tails in ((rights, right_heads, right_tails), (lefts, left_heads, left_tails)):
        run = 0
        for at in range(len(order) - 1, -1, -1):
            run |= heads[at + 1]
            blocked[order[at]] |= run
        run = 0
        for at, row in enumerate(order):
            run |= tails[at]
            blocked[row] |= run
    every = (1 << len(vs)) - 1
    return us, vs, [every & ~conflicts for conflicts in blocked]


def grow(word: str, index: int, side: str = "left") -> TreeWord:
    """Grow at the node ``index``: a new node takes its place, the node becomes
    the ``side`` child, and a fresh leaf fills the other slot."""
    if side not in ("left", "right"):
        raise MalformedWordError(f"side must be 'left' or 'right', not {side!r}")
    end = _require_node(word, index).subtree_end[index]
    return TreeWord._trusted(_grown(word, index, end, side == "right"))


def growth_neighbors(word: str) -> set:
    """Distinct trees reachable by one grow step: 2n of them from size
    n >= 1, and "100" from "0".

    Of the 3n + 1 grow sites (a leaf's two sides give one tree) n + 1
    repeat another's tree; the neighbors are grown at ``_grow_sites``, so
    sampling layers treat each distinct neighbor once.
    """
    ends = word_scan(word).subtree_end
    return {TreeWord._trusted(_grown(word, *site)) for site in _grow_sites(word, ends)}


def remy_sample(n: int, rng) -> TreeWord:
    """Uniform random tree of size ``n`` grown one node at a time.

    Each step picks one of the current 2k + 1 nodes and a side uniformly at
    random from ``rng``, which makes every size-n tree equally likely.
    """
    _require_count(n, "size")
    if not isinstance(rng, random.Random):
        raise TreePairError(f"rng must be a random.Random, not {rng!r}")
    word = "0"
    for k in range(n):
        site = rng.randrange(2 * k + 1)
        word = _grown(word, site, _subtree_end(word, site), rng.randrange(2))
    return TreeWord._trusted(word)


def _subtree_end(word: str, index: int) -> int:
    """``subtree_end`` for a word valid by construction, walking only the
    subtree: a full scan at every grow step would make ``remy_sample``
    quadratic."""
    depth = 0
    for j in range(index, len(word)):
        depth += 1 if word[j] == "1" else -1
        if depth < 0:
            return j + 1


def anchor_index(word: str) -> int:
    """Index of the internal node whose right child is the last leaf."""
    anchor = word_scan(word).parent[-1]
    if anchor < 0:
        raise NotInternalError("the single-leaf tree has no internal nodes")
    return anchor


def spine_split(word: str) -> tuple:
    """Split the word as prefix + anchor subtree; the prefix may be empty."""
    cut = anchor_index(word)
    return word[:cut], word[cut:]


def anchor_growth(word: str) -> TreeWord:
    """Grow left at the anchor: prefix + '1' + anchor subtree + '0'."""
    return TreeWord._trusted(_grown(word, anchor_index(word), len(word), False))


def anchor_embedding(word: str, index: int) -> int:
    """Index of the node ``index`` inside ``anchor_growth(word)``.

    Nodes before the anchor keep their index; the anchor and everything
    after it shift one place right, past the inserted '1'.  The symbol at
    the image always equals the symbol at the source.
    """
    cut = _require_node(word, index).parent[-1]
    if cut < 0:
        raise NotInternalError("the single-leaf tree has no internal nodes")
    return index + 1 if index >= cut else index
