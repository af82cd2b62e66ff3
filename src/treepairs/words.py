"""Extended ordered binary trees encoded as pre-order 1/0 words.

A tree of size n (n internal nodes, n + 1 leaves) is written as the string
produced by a pre-order walk emitting '1' at every internal node and '0' at
every leaf, so a valid word has length 2n + 1 and the single-leaf tree is
"0".  Leaves are labelled 0..n in left-to-right order, and the interval of a
node is the pair of labels of the lowest and highest leaves below it.  Nodes
are identified by their 0-based index in the word; indices are never
meaningful across two different words.

Everything here is an immutable value and every function is pure, so the
whole module is safe for unrestricted concurrent use.  Queries run off one
right-to-left pass over the word (``word_scan``) that yields parents, subtree
extents and interval bounds for every node, each '1' reading its children
off the extents by the pre-order rule; it alone decides what a word is.
One kernel (``_rotation_rows``) reads every rotation off a scan: where the
rotated node's '1' moves, the interval it loses and the one it creates,
each keyed lower * len(word) + upper, the one interval-key frame of the
package.  The reduction step in ``rotations`` and the packed difficulty
rows and grow images in ``growth`` are read off it; the distance search
reads the same rows in one pass of its own, which builds no scan.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import MalformedWordError, NoParentError, NotInternalError, SizeTooSmallError
from .errors import TreePairError

__all__ = [
    "Interval",
    "TreeWord",
    "WordScan",
    "parse_word",
    "word_scan",
    "is_internal",
    "left_child",
    "right_child",
    "parent",
    "subtree_end",
    "interval_of",
    "intervals",
    "one_interval_of",
    "one_intervals",
]


class Interval(NamedTuple):
    """Pair (lowest, highest) of leaf labels spanned by a node."""

    lower: int
    upper: int


class TreeWord(str):
    """A pre-order tree word validated by ``word_scan``; behaves as a plain string."""

    __slots__ = ()  # no per-word __dict__: neighbor sets and samples hold many words

    def __new__(cls, text: str) -> "TreeWord":
        word_scan(text)
        return super().__new__(cls, text)

    @classmethod
    def _trusted(cls, text: str) -> "TreeWord":
        # For words that are valid by construction; skips the O(n) check.
        return str.__new__(cls, text)

    @property
    def size(self) -> int:
        """Number of internal nodes."""
        return len(self) // 2

    def __repr__(self) -> str:
        return f"TreeWord({str.__repr__(self)})"


def parse_word(text: str) -> TreeWord:
    """Validate ``text`` as a tree word, raising ``MalformedWordError`` if bad."""
    return TreeWord(text)


class WordScan(NamedTuple):
    """Per-node tables for one word, built in a single linear pass.

    ``parent[i]`` is -1 at the root, ``subtree_end[i]`` is the exclusive end
    of node i's subtree slice, and ``lower[i]``/``upper[i]`` are its interval
    bounds (equal for leaves).
    """

    parent: tuple
    subtree_end: tuple
    lower: tuple
    upper: tuple


def word_scan(word: str) -> WordScan:
    """Compute parents, subtree extents and interval bounds for every node in
    one right-to-left pass, raising ``MalformedWordError`` unless ``word``
    is a tree word.  The '1' at i has its left child at i + 1 and its right
    child where that subtree ends, and both are scanned before it."""
    if not isinstance(word, str):
        raise MalformedWordError(f"a tree word is a str, not {type(word).__name__}")
    ones = word.count("1")
    zeros = word.count("0")
    if ones + zeros != len(word):
        raise MalformedWordError(f"word may only contain '1' and '0': {word!r}")
    if zeros != ones + 1:
        raise MalformedWordError(
            f"need one more '0' than '1', got {ones} x '1' and {zeros} x '0'"
        )
    length = len(word)
    parents = [-1] * length
    ends = [0] * length + [length]  # a '1' whose right child starts here has none
    lowers = [0] * length
    uppers = [0] * length
    label = zeros
    for i in range(length - 1, -1, -1):
        if word[i] == "0":
            label -= 1
            lowers[i] = uppers[i] = label
            ends[i] = i + 1
        elif (right := ends[i + 1]) == length:
            raise MalformedWordError(f"subtree closes before the word ends: {word!r}")
        else:
            parents[i + 1] = parents[right] = i
            lowers[i] = label
            uppers[i] = uppers[right]
            ends[i] = ends[right]
    return WordScan(tuple(parents), tuple(ends[:length]), tuple(lowers), tuple(uppers))


def _is_int(value) -> bool:
    """True for an int that is not a bool: True is neither a count nor a node."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_node(word: str, index: int) -> WordScan:
    """The scan of ``word``, which validates it, once ``index`` names a node."""
    if not (isinstance(word, str) and _is_int(index) and 0 <= index < len(word)):
        raise MalformedWordError(f"no node @{index!r} in {word!r}")
    return word_scan(word)


def _require_internal(word: str, index: int) -> WordScan:
    """The scan of ``word``, which validates it, once ``index`` names an
    internal node."""
    if not isinstance(word, str):
        raise MalformedWordError(f"no node @{index!r} in {word!r}")
    if not (_is_int(index) and 0 <= index < len(word) and word[index] == "1"):
        raise NotInternalError(f"no internal node @{index!r} in {word!r}")
    return word_scan(word)


def _require_count(value: int, name: str, least: int = 0) -> int:
    """``value`` once it is an int of at least ``least``: the check on every
    size, count and size guard argument."""
    if not _is_int(value):
        raise SizeTooSmallError(f"{name} must be an int, not {value!r}")
    if value < least:
        raise SizeTooSmallError(f"{name} must be >= {least}, not {value}")
    return value


def _require_rng(rng) -> None:
    """The check on every ``rng`` argument, made before anything is drawn."""
    if not isinstance(rng, random.Random):
        raise TreePairError(f"rng must be a random.Random, not {rng!r}")


def subtree_end(word: str, index: int) -> int:
    """Exclusive end of the word slice holding the subtree rooted at ``index``."""
    return _require_node(word, index).subtree_end[index]


def is_internal(word: str, index: int) -> bool:
    """True when the node at ``index`` is internal."""
    _require_node(word, index)
    return word[index] == "1"


def left_child(word: str, index: int) -> int:
    """Index of the left child; pre-order places it right after its parent."""
    _require_internal(word, index)
    return index + 1


def right_child(word: str, index: int) -> int:
    """Index of the right child, found by skipping the left subtree."""
    return _require_internal(word, index).subtree_end[index + 1]


def parent(word: str, index: int) -> int:
    """Index of the parent node; the root (index 0) has none."""
    scan = _require_node(word, index)
    if index == 0:
        raise NoParentError("the root has no parent")
    return scan.parent[index]


def interval_of(word: str, index: int) -> Interval:
    """Interval of the node at ``index``; a leaf spans the single label pair."""
    scan = _require_node(word, index)
    return Interval(scan.lower[index], scan.upper[index])


def intervals(word: str, include_root: bool = True) -> frozenset:
    """Intervals of all internal nodes.

    The root's span covers every leaf and is present in every tree of the
    same size, so pair comparisons exclude it via ``include_root=False``.
    """
    scan = word_scan(word)
    start = 0 if include_root else 1
    return frozenset(
        Interval(scan.lower[i], scan.upper[i])
        for i in range(start, len(word))
        if word[i] == "1"
    )


def _rotation_rows(scan: WordScan):
    """Yield one row (node, target, key, made) per internal, non-root node
    of a scanned word, in word order: the one kernel for rotations.

    Rotating the node moves its '1' to index ``target`` (``_rotated`` in
    ``rotations`` rebuilds the word) and swaps its interval, keyed ``key``,
    for the created interval keyed ``made``.  Every key in the package is
    lower * len(word) + upper for the scanned word: the length 2k + 1 of a
    size-k word exceeds its labels 0..k and, for k >= 1, the labels up to
    k + 1 of every word grown from it, so keys of one size never collide.
    A left child's '1' reappears between its two subtrees and creates the
    span from its right child to its parent; a right child's reappears in
    front of its sibling and creates the span from its parent to its left
    child.
    """
    parents, ends, lower, upper = scan
    stride = len(parents)
    for i in range(1, stride):
        low, high = lower[i], upper[i]
        if high > low:  # spans two or more leaves: internal
            up = parents[i]
            if i == up + 1:
                cut = ends[i + 1]
                yield i, cut - 1, low * stride + high, lower[cut] * stride + upper[up]
            else:
                yield i, up + 1, low * stride + high, lower[up] * stride + upper[i + 1]


def one_interval_of(word: str, index: int) -> Interval:
    """Interval created by rotating at the (internal, non-root) node ``index``."""
    scan = _require_internal(word, index)
    if index == 0:
        raise NoParentError("the root cannot be rotated")
    made = next(made for i, _, _, made in _rotation_rows(scan) if i == index)
    return Interval(*divmod(made, len(word)))


def one_intervals(word: str) -> frozenset:
    """Intervals creatable by a single rotation; one per non-root internal node."""
    rows = _rotation_rows(word_scan(word))
    return frozenset(Interval(*divmod(made, len(word))) for _, _, _, made in rows)
