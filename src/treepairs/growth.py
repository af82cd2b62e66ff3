"""Tree growth: single grow steps, uniform random trees, and the anchor map.

A grow step replaces any node v by a fresh internal node whose other child
is a new leaf; v becomes the left or right child.  Iterating grow steps with
uniform choices over the 2k + 1 nodes and the two sides is the classic way
to draw a size-n tree uniformly at random among the Catalan(n) possibilities
(``remy_sample``).  Of a size-k tree's 3k + 1 grow sites only 2k grow
distinct trees, so ``_grow_sites`` keys the sites by the word they grow and
keeps the first of each; ``growth_neighbors`` and ``_grown_rows`` both read
that map.

The *anchor* of a tree is the internal node whose right child is the
highest-labelled leaf, i.e. the lowest node on the right spine.  Growing
left at the anchor (``anchor_growth``) is the distinguished growth step that
preserves pair difficulty, and ``anchor_embedding`` is the index map that
carries nodes of a word into its anchor growth: everything before the anchor
keeps its index, everything from the anchor on shifts right by one past the
inserted '1'.

The packed difficulty rows live here too, since only grow steps derive
them: ``_interval_masks`` builds a word's fields in one walk, ``_filter_row``
packs them into a row, ``_grown_rows`` derives the rows of grown words from
their parent's fields, and ``_difficult_pairs`` filters pairs of rows.

Randomness is always taken from a caller-owned ``random.Random`` instance
(Mersenne Twister), so identical seeds reproduce identical trees on every
platform.  Share nothing else: one generator per thread.
"""

from __future__ import annotations

from .errors import MalformedWordError, NotInternalError
from .words import TreeWord, WordScan, word_scan
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


def _grow_sites(word: str, ends) -> dict:
    """Every distinct word grown from ``word``, mapped to its first grow site
    (index, subtree end, right) in word order, growing left before right.  A
    leaf grows only left: its two sides give one word."""
    sites = {}
    for i, end in enumerate(ends):
        for right in (False, True) if word[i] == "1" else (False,):
            sites.setdefault(_grown(word, i, end, right), (i, end, right))
    return sites


def _interval_masks(scan: WordScan, stride: int) -> tuple:
    """The fields (has, makes, ch, cm, made_at) of a scanned word, in one
    walk over ``_rotation_rows``.

    ``has`` and ``makes`` are bit masks of the non-root intervals and the
    created intervals keyed lower * stride + upper, where ``stride`` exceeds
    every leaf label; rows are compared only at equal stride.  ``ch`` and
    ``cm`` hold bit x when the cherry [x, x + 1] is a non-root or a created
    interval.  ``made_at`` maps each rotatable node to its created bit and
    its created cherry bit, or 0 if it creates no cherry.
    """
    nbytes = (stride * stride + 7) >> 3
    has, makes = bytearray(nbytes), bytearray(nbytes)
    lift = stride + 1  # [x, x + 1] is keyed x * lift + 1, and no other key is 1 mod lift
    ch = cm = 0
    made_at = {}
    for i, _, key, made in _rotation_rows(scan, stride):
        has[key >> 3] |= 1 << (key & 7)
        makes[made >> 3] |= 1 << (made & 7)
        if key % lift == 1:
            ch |= 1 << key // lift
        cherry = 1 << made // lift if made % lift == 1 else 0
        cm |= cherry
        made_at[i] = 1 << made, cherry
    return int.from_bytes(has, "little"), int.from_bytes(makes, "little"), ch, cm, made_at


def _filter_row(word: str, stride: int, has: int, makes: int, ch: int, cm: int) -> tuple:
    """The row (word, has, makes, query, key) that ``_difficult_pairs`` reads,
    with cherry fields query = ch | cm | ch << stride and key = ch | cm <<
    stride: ``u_query & v_key`` is nonzero when U and V share a cherry or
    one has a cherry the other creates; two created cherries alone do not
    conflict."""
    return word, has, makes, ch | cm | ch << stride, ch | cm << stride


def _difficult_pairs(left, right):
    """Every difficult (u, v) over two lists of ``_filter_row`` rows, in row
    order: no common interval, no interval of one side creatable in the
    other, and u != v.

    The cherry fields hold a subset of the masks' bits, and nearly every
    rejected pair already conflicts on a cherry (over 99.8% of the rejects
    in an n = 100 sample), so one AND of the ~2k-bit cherry fields goes
    first.  Only the pairs that pass it pay the two ANDs of the ~k^2-bit
    masks and the word compare."""
    found = []
    for u_word, u_has, u_makes, u_query, _ in left:
        u_blocked = u_has | u_makes
        for v_word, v_has, v_makes, _, v_key in right:
            if u_query & v_key or u_blocked & v_has or v_makes & u_has or u_word == v_word:
                continue
            found.append((u_word, v_word))
    return found


def _grown_rows(words) -> list:
    """For each of ``words``, the ``_filter_row`` rows of its growth
    neighbors in lexicographic order, equal to those built from
    ``_interval_masks(word_scan(grown), stride)`` for a stride of the
    largest size + 2, which exceeds every label of a grown word.

    Each given word is scanned once and its fields are built in one walk;
    its grown words are never scanned.  Growing at a node v with
    interval [a, b] relabels the other nodes' intervals and created intervals
    region by region of the packed table (rows are lower bounds, columns
    upper bounds): bits in ``stay`` keep their key, bits in ``step`` move one
    column right, and every other bit moves one row and one column.  Then
    only the new node's interval and the created intervals of v and the new
    node change.  A created interval crosses exactly one tree interval, so no
    two nodes share a created bit and clearing v's old one is safe.

    The cherry ints ``ch`` and ``cm`` sit on the table's diagonal, which no
    big-int op slices out, so a few small-int ops relabel them: bits in
    ``keep`` stay, bits from ``cut`` up move one place, and the rest widen
    off the diagonal.  Growing right, x <= a - 2 stays and x >= a moves;
    growing left, x <= b - 1 stays, except a - 1 at a leaf v, and x > b
    moves.  The fixed bits are those of the masks that are cherries.
    """
    stride = max(len(w) for w in words) // 2 + 2
    lift = stride + 1
    full = (1 << stride) - 1
    repeat = [0]  # repeat[c]: column 0 of every row < c
    for r in range(stride):
        repeat.append(repeat[-1] | 1 << r * stride)
    beyond = [repeat[c] * (full ^ ((1 << c) - 1)) for c in range(stride)]  # rows < c, columns >= c
    inside = [((1 << c * stride) - 1) ^ beyond[c] for c in range(stride)]  # rows < c, columns < c
    found = []
    for word in words:
        parent, ends, lower, upper = scan = word_scan(word)
        has, makes, ch, cm, made_at = _interval_masks(scan, stride)
        k = len(word) // 2
        rows = []
        for grown, (i, end, right) in _grow_sites(word, ends).items():
            a, b = lower[i], upper[i]
            internal = word[i] == "1"
            if right:  # fresh leaf a: labels >= a shift; in row a only spans past b keep lower a
                step = beyond[a] | full >> b + 1 << a * stride + b + 1
                stay = inside[a]
                cut, keep = a, (1 << a) - 1 >> 1
            else:  # fresh leaf b + 1: labels > b shift, and so do v's ancestors ending at b
                column = repeat[a] << b
                step = beyond[b + 1] | column
                stay = inside[b + 1] ^ column
                cut, keep = b + 1, (1 << b) - 1 if internal else (1 << a) - 1 >> 1
            made_bit, cherry_bit = made_at.get(i, (0, 0))
            made, cherries = makes ^ made_bit, cm ^ cherry_bit
            kept, moved = has & stay, has & step
            new_has = kept | moved << 1 | (has ^ kept ^ moved) << lift
            kept, moved = made & stay, made & step
            new_makes = kept | moved << 1 | (made ^ kept ^ moved) << lift
            new_ch = ch & keep | ch >> cut << cut + 1
            new_cm = cherries & keep | cherries >> cut << cut + 1
            if i:  # the new node [a, b + 1] takes v's place below v's parent p
                p = parent[i]
                new_has |= 1 << a * stride + b + 1
                new_ch |= (not internal) << a
                if i == p + 1:
                    low, high = (a + 1 if right else b + 1), upper[p] + 1
                else:
                    low, high = lower[p], (a if right else b)
                new_makes |= 1 << low * stride + high
                new_cm |= (high == low + 1) << low
            elif internal:  # the old root is now a child, and its span counts
                new_has |= 1 << (stride + k + 1 if right else k)
                new_ch |= (k == 1) << (1 if right else 0)
            if internal:
                if right:
                    low, high = a, upper[i + 1] + 1
                else:
                    low, high = lower[ends[i + 1]], b + 1
                new_makes |= 1 << low * stride + high
                new_cm |= (high == low + 1) << low
            rows.append(_filter_row(grown, stride, new_has, new_makes, new_ch, new_cm))
        found.append(sorted(rows))
    return found


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
    repeat another's tree; the neighbors are the keys of ``_grow_sites``,
    so sampling layers treat each distinct neighbor once.
    """
    return {TreeWord._trusted(grown) for grown in _grow_sites(word, word_scan(word).subtree_end)}


def remy_sample(n: int, rng) -> TreeWord:
    """Uniform random tree of size ``n`` grown one node at a time.

    Each step picks one of the current 2k + 1 nodes and a side uniformly at
    random from ``rng``, which makes every size-n tree equally likely.
    """
    _require_count(n, "size")
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
