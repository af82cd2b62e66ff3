"""Tree growth: single grow steps, uniform random trees, and the anchor map.

A grow step replaces any node v by a fresh internal node whose other child
is a new leaf; v becomes the left or right child.  Iterating grow steps with
uniform choices over the 2k + 1 nodes and the two sides is the classic way
to draw a size-n tree uniformly at random among the Catalan(n) possibilities
(``remy_sample``).

The *anchor* of a tree is the internal node whose right child is the
highest-labelled leaf, i.e. the lowest node on the right spine.  Growing
left at the anchor (``anchor_growth``) is the distinguished growth step that
preserves pair difficulty, and ``anchor_embedding`` is the index map that
carries nodes of a word into its anchor growth: everything before the anchor
keeps its index, everything from the anchor on shifts right by one past the
inserted '1'.

Randomness is always taken from a caller-owned ``random.Random`` instance
(Mersenne Twister), so identical seeds reproduce identical trees on every
platform.  Share nothing else: one generator per thread.
"""

from __future__ import annotations

from .errors import NotInternalError
from .words import TreeWord, subtree_end, word_scan

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


def _grown_words(word: str) -> set:
    """Distinct words one grow step away; both sides of a leaf give one word."""
    ends = word_scan(word).subtree_end
    seen = set()
    for i in range(len(word)):
        seen.add(_grown(word, i, ends[i], False))
        if word[i] == "1":
            seen.add(_grown(word, i, ends[i], True))
    return seen


def grow(word: str, index: int, side: str = "left") -> TreeWord:
    """Grow at the node ``index``: a new node takes its place, the node becomes
    the ``side`` child, and a fresh leaf fills the other slot."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    return TreeWord(_grown(word, index, subtree_end(word, index), side == "right"))


def growth_neighbors(word: str) -> set:
    """Distinct trees reachable by one grow step; at most 3n + 1 of them.

    Growing a leaf to the left and to the right gives the same tree, which
    is why the bound is 3n + 1 rather than 2(2n + 1) and why the result is a
    set: sampling layers treat each distinct neighbor once.
    """
    return {TreeWord._trusted(w) for w in _grown_words(word)}


def remy_sample(n: int, rng) -> TreeWord:
    """Uniform random tree of size ``n`` grown one node at a time.

    Each step picks one of the current 2k + 1 nodes and a side uniformly at
    random from ``rng``, which makes every size-n tree equally likely.
    """
    if n < 0:
        raise ValueError("tree size cannot be negative")
    word = "0"
    for k in range(n):
        site = rng.randrange(2 * k + 1)
        word = _grown(word, site, subtree_end(word, site), rng.randrange(2))
    return TreeWord._trusted(word)


def anchor_index(word: str) -> int:
    """Index of the internal node whose right child is the last leaf."""
    if word == "0":
        raise NotInternalError("the single-leaf tree has no internal nodes")
    i = 0
    while True:
        right = subtree_end(word, i + 1)
        if word[right] == "0":
            return i
        i = right


def spine_split(word: str) -> tuple:
    """Split the word as prefix + anchor subtree; the prefix may be empty."""
    cut = anchor_index(word)
    return word[:cut], word[cut:]


def anchor_growth(word: str) -> TreeWord:
    """Grow left at the anchor: prefix + '1' + anchor subtree + '0'."""
    return TreeWord(_grown(word, anchor_index(word), len(word), False))


def anchor_embedding(word: str, index: int) -> int:
    """Index of the node ``index`` inside ``anchor_growth(word)``.

    Nodes before the anchor keep their index; the anchor and everything
    after it shift one place right, past the inserted '1'.  The symbol at
    the image always equals the symbol at the source.
    """
    cut = anchor_index(word)
    return index + 1 if index >= cut else index
