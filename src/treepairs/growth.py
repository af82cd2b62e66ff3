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
``words._rotation_rows`` keys it, lower * len(word) + upper of the word it
is read from.  Each filter reads per word what it has (``has``, its
non-root intervals) and what it has or creates (``either``), and two words
conflict when the ``either`` of one meets the ``has`` of the other.
``_packed_row`` builds a word's (word, has, either) row in one walk, and
``_difficult_pairs`` filters pairs of rows into a list; the census and the
sampler's small steps, which memoize the rows of the few small grown
words, build rows this way.  The near-miss step, ``_near_miss_masks``,
builds no row and lists no pair: it gives per grown U of one parent the
mask of the grown V of the other that U makes a difficult pair with, and
grow sites in place of words, so the sampler counts the pairs and builds
only the one it draws.  ``_grow_classes`` places an interval of a parent
in all of its grown words at once, as heads and tails of the site orders
and whole subtrees of grow sites.  The step first lists every key the
first parent will look up, and ``_grow_images`` places only the intervals
of the second parent with an image on that list, into ``has`` and
``either`` maps of grown words per key.  ``_grow_classes`` is the one
place that says where a grow step moves an interval.

Randomness is always taken from a caller-owned ``random.Random`` instance
(Mersenne Twister), so identical seeds reproduce identical trees on every
platform.  Share nothing else: one generator per thread.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_

from .errors import MalformedWordError, NotInternalError
from .words import TreeWord, word_scan
from .words import _require_count, _require_node, _require_rng, _rotation_rows

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
    """The (word, has, either) row of ``word``, in one walk over
    ``_rotation_rows``: bit masks of the intervals it has (non-root) and
    of those it has or creates, each at its ``_rotation_rows`` key.  Rows
    of words of one size compare."""
    has = created = 0
    for _, _, key, made in _rotation_rows(word_scan(word)):
        has |= 1 << key
        created |= 1 << made
    return word, has, has | created


def _difficult_pairs(left, right):
    """Every difficult (u, v) over two lists of (word, has, either) rows,
    in row order: neither side has or creates an interval the other has,
    and u != v."""
    found = []
    for u_word, u_has, u_either in left:
        for v_word, v_has, v_either in right:
            if u_either & v_has or v_either & u_has or u_word == v_word:
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
    So over the right sites in word order, sorted by (a, -b), an interval's
    moves come first, its steps next and its stays last, and so they do
    over the left sites in post order, sorted by (b, -a).  Every site sits
    at a node, so the classes fall at node positions.  For the interval of
    node j the steps are the sites in the subtrees of j's two children,
    the moves those before them in each order and the stays those after.
    The interval a node creates spans the subtrees of a child of its
    parent and of a child of its own, and it is gone at the node's own
    sites.  Its steps are the sites in those two subtrees, and the
    subtree of the node's other child joins its moves or its stays.  So
    each class is a head of each order, a tail of each order or neither,
    plus at most two whole subtrees, and nothing is walked site by site.

    Returns (scan, sites, rights, lefts, post, added, place), keys being
    lower * len(word) + upper as ``_rotation_rows`` keys them:
    - ``sites``: the ``_grow_sites`` of ``word``, row r growing at
      ``sites[r]``;
    - ``rights``, ``lefts``: the row of the right and left site at each
      position of word order and post order, -1 for none;
    - ``post``: the post-order position of each node, which follows its
      subtree's;
    - ``added``: three lists of keys by row, -1 for none, of the intervals
      the step itself adds, keyed in the same frame, which holds the grown
      word's labels up to k + 1: the new node's interval (at the root, the
      old root's span), its created interval and the grown node's new
      created interval;
    - ``place(node, created)``: (right moves end, left moves end, right
      stays start, left stays start, move roots, step roots, stay roots)
      for the node's interval or, with ``created``, the interval it
      creates; a class holds the sites in the subtrees of its roots, the
      moves a head of each order and the stays a tail.
    """
    parent, ends, lower, upper = scan = word_scan(word)
    size = len(word)
    k = size // 2
    depth = [0] * size
    for x in range(1, size):
        depth[x] = depth[parent[x]] + 1
    post = [end - 1 - d for end, d in zip(ends, depth)]
    rights, lefts = [-1] * size, [-1] * size
    sites = _grow_sites(word, ends)
    spans, news, grown = added = [], [], []
    for row, (i, _, right) in enumerate(sites):
        a, b = lower[i], upper[i]
        if right:
            rights[i] = row
        else:
            lefts[post[i]] = row
        if i:
            p = parent[i]
            spans.append(a * size + b + 1)
            if i == p + 1:
                news.append((a + 1 if right else b + 1) * size + upper[p] + 1)
            else:
                news.append(lower[p] * size + (a if right else b))
        else:
            spans.append(-1 if not k else size + k + 1 if right else k)
            news.append(-1)
        if b == a:
            grown.append(-1)
        elif right:
            grown.append(a * size + upper[i + 1] + 1)
        else:
            grown.append(lower[ends[i + 1]] * size + b + 1)

    def place(node, created):
        right = ends[node + 1]  # the node's right child
        if not created:
            return node + 1, node - depth[node], ends[node], post[node], (), (node + 1, right), ()
        up = parent[node]
        if node == up + 1:  # spans its right subtree and its parent's
            return node, node - depth[node], ends[up], post[up], (node + 1,), (right, ends[node]), ()
        # spans its parent's left subtree and its own
        return up + 1, up - depth[up], ends[node], post[node] + 1, (), (up + 1, node + 1), (right,)

    return scan, sites, rights, lefts, post, added, place


def _grow_images(word: str, wanted) -> tuple:
    """(sites, has, either): the grow sites of ``word`` in row order, as in
    ``_grow_classes``, and maps from interval key to the mask of the rows
    whose word has that non-root interval (``has``) or has or creates it
    (``either``).  The maps hold only the keys in ``wanted``, and an
    interval is placed only when one of its images is wanted."""
    scan, sites, rights, lefts, post, added, place = _grow_classes(word)
    ends = scan.subtree_end
    has, either = {}, {}  # either takes the created intervals, then all of has
    for keys, table in zip(added, (has, either, either)):
        for row, key in enumerate(keys):
            if key in wanted:
                table[key] = table.get(key, 0) | 1 << row
    right_firsts, left_firsts = (
        list(accumulate((1 << row if row >= 0 else 0 for row in order), or_, initial=0))
        for order in (rights, lefts)
    )
    lift = len(word) + 1

    def write(key, node, created, table):
        rm, lm, rs, ls, move_roots, step_roots, stay_roots = place(node, created)
        stays = (right_firsts[-1] ^ right_firsts[rs]) | (left_firsts[-1] ^ left_firsts[ls])
        moves = right_firsts[rm] | left_firsts[lm]
        for image, found, roots in (
            (key, stays, stay_roots),
            (key + 1, 0, step_roots),
            (key + lift, moves, move_roots),
        ):
            if image in wanted:
                for x in roots:  # x's subtree: [x, ends[x]) in word order, ending at post[x]
                    at = post[x] + 1
                    found |= right_firsts[ends[x]] ^ right_firsts[x]
                    found |= left_firsts[at] ^ left_firsts[at + x - ends[x]]
                if found:
                    table[image] = table.get(image, 0) | found

    for i, _, key, made in _rotation_rows(scan):
        if key in wanted or key + 1 in wanted or key + lift in wanted:
            write(key, i, False, has)
        if made in wanted or made + 1 in wanted or made + lift in wanted:
            write(made, i, True, either)
    for key, rows in has.items():
        either[key] = either.get(key, 0) | rows
    return sites, has, either


def _spread(heads, tails) -> list:
    """Per position p of an order, the OR of heads[j] for j > p and of
    tails[j] for j <= p: heads[j] marks the positions before j, tails[j]
    those from j on."""
    later = list(accumulate(reversed(heads), or_))[-2::-1]
    return [cols | more for cols, more in zip(later, accumulate(tails, or_))]


def _near_miss_masks(s: str, t: str) -> tuple:
    """(us, vs, free): the grow sites of two words of one size k >= 1 in
    the lexicographic order of their grown words (``_grow_sites``), and
    per U the mask of the V rows it makes a difficult pair with, found
    without building a row or a grown word.  Bit c of free[r] is set just
    when ``_difficult_pairs`` over the ``_packed_row`` rows lists
    (U_r, V_c), so ``_pairs`` lists the same pairs in the same order.
    Both parents' keys share one frame, lower * len(s) + upper, which
    holds the labels up to k + 1 of every grown word.

    A grown U of s and a grown V of t conflict when one has or creates an
    interval the other has, so U's intervals are looked up in t's
    ``either`` map and U's created intervals in its ``has`` map; U = V
    shares every interval, so no word compare is needed.
    Every such interval is an image of an interval or created interval of
    the parent, placed by ``_grow_classes``, or one the step adds.  So s
    first lists the keys it will look up: each image of its intervals and
    created intervals and each key its steps add.  t's maps
    (``_grow_images``) hold those keys only, and s looks each up there.
    When (s, t) is difficult, an interval I of s and J of t meet only as
    near misses: J - I is (0, 1), (0, -1), (1, 1), (-1, -1), (1, 0) or
    (-1, 0), I and J in different classes, so few lookups hit.  On both
    sides only an interval whose images hit is placed.

    A hit ORs the V rows it conflicts with into the U rows of one class:
    a mark at the cut of a head or a tail of each order, and one at the
    root of each whole subtree.  At the end one sweep over each order
    spreads the head and tail marks, and one walk down the tree the
    subtree marks, so no run is walked row by row.  Each U row's conflict
    mask then leaves its free V rows.
    """
    lift = len(s) + 1
    scan, us, rights, lefts, post, added, place = _grow_classes(s)
    rotations = list(_rotation_rows(scan))
    wanted = set().union(*added)
    wanted.discard(-1)
    for _, _, key, made in rotations:
        wanted.update((key, key + 1, key + lift, made, made + 1, made + lift))
    vs, has, either = _grow_images(t, wanted)
    blocked = [0] * (len(us) + 1)  # the last slot takes the marks of positions without a site
    # an added span meets a V that has or creates it; a created interval, one that has it
    for keys, table in zip(added, (either, has, has)):
        for row, key in enumerate(keys):
            if key in table:
                blocked[row] |= table[key]
    size = len(s)
    right_heads, right_tails, left_heads, left_tails = ([0] * (size + 1) for _ in range(4))
    under = [0] * (size + 1)  # under[x] covers x's subtree; the last slot is the root's parent

    def mark(node, created, stay, step, move):
        rm, lm, rs, ls, move_roots, step_roots, stay_roots = place(node, created)
        if move:
            right_heads[rm] |= move
            left_heads[lm] |= move
        if stay:
            right_tails[rs] |= stay
            left_tails[ls] |= stay
        for cols, roots in ((move, move_roots), (step, step_roots), (stay, stay_roots)):
            if cols:
                for x in roots:
                    under[x] |= cols

    for i, _, key, made in rotations:
        if key in either or key + 1 in either or key + lift in either:
            mark(i, False, either.get(key, 0), either.get(key + 1, 0), either.get(key + lift, 0))
        if made in has or made + 1 in has or made + lift in has:
            mark(i, True, has.get(made, 0), has.get(made + 1, 0), has.get(made + lift, 0))
    right_cols, left_cols = _spread(right_heads, right_tails), _spread(left_heads, left_tails)
    for x, (up, right_row, at) in enumerate(zip(scan.parent, rights, post)):
        cols = under[x] = under[x] | under[up]
        blocked[right_row] |= cols | right_cols[x]
        blocked[lefts[at]] |= cols | left_cols[at]
    blocked.pop()
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
    _require_rng(rng)
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
