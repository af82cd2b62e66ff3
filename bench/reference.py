"""Reference code the benchmark checks treepairs outputs against.

Nothing here imports ``treepairs``.  A tree is a nested tuple: a leaf is
``()`` and an internal node is ``(left, right)``.  Difficulty is computed
from interval sets built on the tuples, the distance by a breadth-first
search that rotates the tuples themselves, the reduction by applying its
rules to the tuples, and Catalan numbers with ``math.comb``; none of it
shares code with the library's word-index rules.
"""

from __future__ import annotations

import math
from collections import deque

LEAF = ()


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def parse(word):
    """The tree of a pre-order 1/0 word; ValueError if the word is not one."""
    stack = []  # children collected so far for each open internal node
    root = None
    for symbol in word:
        if root is not None:
            raise ValueError(f"symbols after the tree closes: {word!r}")
        if symbol == "1":
            stack.append([])
            continue
        if symbol != "0":
            raise ValueError(f"bad symbol {symbol!r} in {word!r}")
        node = LEAF
        while True:
            if not stack:
                root = node
                break
            stack[-1].append(node)
            if len(stack[-1]) < 2:
                break
            left, right = stack.pop()
            node = (left, right)
    if root is None:
        raise ValueError(f"word ends before the tree closes: {word!r}")
    return root


def size_of(text):
    """Size of a valid word, else None."""
    try:
        parse(text)
    except ValueError:
        return None
    return len(text) // 2


def profile(tree):
    """(intervals, created intervals) of a tree, as two sets of (low, high)
    leaf-label pairs; the root's span, shared by every tree, is left out.

    Promoting the left child of ``((a, b), c)`` gives ``(a, (b, c))``, whose
    new node ``(b, c)`` spans from b's first leaf to c's last; promoting the
    right child of ``(a, (b, c))`` gives ``((a, b), c)``, whose new node spans
    from a's first leaf to b's last.
    """
    has = set()
    makes = set()
    done = []  # (low, high, high of left child or None for a leaf), innermost last
    label = 0
    todo = [(tree, False)]
    while todo:
        node, children_done = todo.pop()
        if not node:
            done.append((label, label, None))
            label += 1
        elif not children_done:
            todo.append((node, True))
            todo.append((node[1], False))
            todo.append((node[0], False))
        else:
            right = done.pop()
            left = done.pop()
            low, high = left[0], right[1]
            if left[2] is not None:
                makes.add((left[2] + 1, high))
            if right[2] is not None:
                makes.add((low, right[2]))
            has.add((low, high))
            done.append((low, high, left[1]))
    has.discard((0, label - 1))
    return has, makes


def is_difficult(s_word, t_word):
    """True when two valid same-size words share no interval and neither side
    has a rotation creating an interval of the other."""
    if s_word == t_word or len(s_word) != len(t_word):
        return False
    s_has, s_makes = profile(parse(s_word))
    t_has, t_makes = profile(parse(t_word))
    return s_has.isdisjoint(t_has) and s_makes.isdisjoint(t_has) and t_makes.isdisjoint(s_has)


def all_trees(n):
    """Every tree of size n, built up from smaller sizes."""
    by_size = [[LEAF]]
    for k in range(1, n + 1):
        by_size.append(
            [
                (left, right)
                for i in range(k)
                for left in by_size[i]
                for right in by_size[k - 1 - i]
            ]
        )
    return by_size[n]


def difficult_pair_count(n):
    """Number of ordered difficult pairs of size n, by exhaustive check."""
    trees = all_trees(n)
    if len(trees) != catalan(n):
        raise AssertionError(f"built {len(trees)} trees of size {n}, not Catalan({n})")
    bits = {}
    rows = []
    for tree in trees:
        has, makes = profile(tree)
        rows.append(
            (
                sum(1 << bits.setdefault(i, len(bits)) for i in has),
                sum(1 << bits.setdefault(i, len(bits)) for i in makes),
            )
        )
    count = 0
    for s_has, s_makes in rows:
        blocked = s_has | s_makes
        for t_has, t_makes in rows:
            if not (blocked & t_has or t_makes & s_has):
                count += 1
    return count


def rotations(tree):
    """Every tree one rotation away from ``tree``."""
    if not tree:
        return
    left, right = tree
    if left:  # promote the left child: ((a, b), c) -> (a, (b, c))
        yield (left[0], (left[1], right))
    if right:  # promote the right child: (a, (b, c)) -> ((a, b), c)
        yield ((left, right[0]), right[1])
    for sub in rotations(left):
        yield (sub, right)
    for sub in rotations(right):
        yield (left, sub)


def rotation_distance(s_word, t_word):
    """(distance, states visited) from a bidirectional breadth-first search.

    Each round expands every tree of the smaller frontier; the first round
    that meets the other side has seen every meeting point at that depth, so
    the shortest total it found is the distance.
    """
    s, t = parse(s_word), parse(t_word)
    if s == t:
        return 0, 1
    dist_a, dist_b = {s: 0}, {t: 0}
    front_a, front_b = [s], [t]
    while front_a and front_b:
        if len(front_a) > len(front_b):
            front_a, front_b = front_b, front_a
            dist_a, dist_b = dist_b, dist_a
        best = None
        grown = []
        for tree in front_a:
            through = dist_a[tree] + 1
            for nearby in rotations(tree):
                if nearby in dist_a:
                    continue
                other = dist_b.get(nearby)
                if other is not None:
                    if best is None or through + other < best:
                        best = through + other
                    continue
                dist_a[nearby] = through
                grown.append(nearby)
        if best is not None:
            return best, len(dist_a) + len(dist_b)
        front_a = grown
    raise ValueError("trees of different sizes are not connected by rotations")


def word(tree):
    """The pre-order 1/0 word of a tree."""
    out = []
    todo = [tree]
    while todo:
        node = todo.pop()
        if node:
            out.append("1")
            todo.append(node[1])
            todo.append(node[0])
        else:
            out.append("0")
    return "".join(out)



def _walk(tree):
    """The internal nodes in pre-order, as [parent, side, low, mid, high, node].

    ``parent`` indexes the parent's entry (-1 for the root, which comes
    first) and ``side`` is 0 for a left child, 1 for a right one.  The node
    spans leaves ``low..high``, and its right child starts at leaf ``mid``.
    """
    entries = []
    label = 0
    todo = [(tree, -1, 0)]
    while todo:
        node, parent, side = todo.pop()
        if node is None:  # the parent's left child (side 0) or whole subtree (1) is done
            entries[parent][3 + side] = label - side
        elif not node:
            label += 1
        else:
            index = len(entries)
            entries.append([parent, side, label, None, None, node])
            todo += [(None, index, 1), (node[1], index, 1), (None, index, 0), (node[0], index, 0)]
    return entries


def _replace(tree, walk, index, new):
    """``tree`` with the subtree of entry ``index`` replaced by ``new``."""
    while index:
        parent, side = walk[index][:2]
        node = walk[parent][5]
        new = (new, node[1]) if side == 0 else (node[0], new)
        index = parent
    return new


def _first_one_off(walk, targets):
    """The first non-root entry whose rotation creates a span in ``targets``."""
    for index in range(1, len(walk)):
        parent, side, _, mid, _, _ = walk[index]
        up = walk[parent]
        created = (mid, up[4]) if side == 0 else (up[2], mid - 1)
        if created in targets:
            return index
    return None


def _rotate(tree, walk, index):
    """``tree`` with the node of entry ``index`` promoted over its parent."""
    parent, side = walk[index][:2]
    node, up = walk[index][5], walk[parent][5]
    if side == 0:  # ((a, b), c) -> (a, (b, c))
        new = (node[0], (node[1], up[1]))
    else:  # (a, (b, c)) -> ((a, b), c)
        new = ((up[0], node[0]), node[1])
    return _replace(tree, walk, parent, new)


def reduce(s_word, t_word):
    """(forced moves, sorted components) under the reduction rules, on tuples.

    The rules are the library's: drop identical pieces; split a piece at its
    smallest common span (leaf labels of the inner piece restart at 0, and
    the outer piece keeps a leaf in its place); otherwise play the first
    rotation, s before t and each in pre-order, that creates a span of the
    other tree; a piece with none of these is a difficult component.
    Components are returned as sorted pairs of words.
    """
    forced = 0
    components = []
    queue = deque([(parse(s_word), parse(t_word))])
    while queue:
        s, t = queue.popleft()
        s_word, t_word = word(s), word(t)
        if s_word == t_word:
            continue
        s_walk, t_walk = _walk(s), _walk(t)
        s_spans = {(e[2], e[4]): i for i, e in enumerate(s_walk) if i}
        t_spans = {(e[2], e[4]): i for i, e in enumerate(t_walk) if i}
        common = s_spans.keys() & t_spans.keys()
        if common:
            span = min(common)
            i, j = s_spans[span], t_spans[span]
            queue.append((s_walk[i][5], t_walk[j][5]))
            queue.append((_replace(s, s_walk, i, LEAF), _replace(t, t_walk, j, LEAF)))
            continue
        move = _first_one_off(s_walk, t_spans)
        if move is not None:
            queue.append((_rotate(s, s_walk, move), t))
        else:
            move = _first_one_off(t_walk, s_spans)
            if move is None:
                components.append((s_word, t_word))
                continue
            queue.append((s, _rotate(t, t_walk, move)))
        forced += 1
    return forced, sorted(components)
