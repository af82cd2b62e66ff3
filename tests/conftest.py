import random
from functools import lru_cache

from hypothesis import settings, strategies as st

from treepairs import common_intervals, one_off_moves, remy_sample, rotate, split_at_common

settings.register_profile("pkg", deadline=None)
settings.load_profile("pkg")


def tuple_tree(word):
    """Nested tuples of a tree word: None for a leaf, (left, right) for a
    node.  Parsed here, apart from the package's word scan."""
    stack = []
    for symbol in reversed(word):
        stack.append(None if symbol == "0" else (stack.pop(), stack.pop()))
    (tree,) = stack
    return tree


def _word(tree):
    """The word of a tuple tree, written here apart from the package."""
    return "0" if tree is None else "1" + _word(tree[0]) + _word(tree[1])


def _grown_trees(tree):
    """Every tuple tree with one subtree X of ``tree`` replaced by (X, None)
    or by (None, X)."""
    yield tree, None
    yield None, tree
    if tree is not None:
        left, right = tree
        for grown in _grown_trees(left):
            yield grown, right
        for grown in _grown_trees(right):
            yield left, grown


def growth_by_substitution(word):
    """The set of words one grow step from ``word``, found by substituting
    into a tuple tree: the oracle for ``growth_neighbors``, sharing no
    ``treepairs`` code with it."""
    return {_word(grown) for grown in _grown_trees(tuple_tree(str(word)))}


def scan_by_descent(word):
    """(parent, subtree_end, lower, upper) tables of a tree word from a
    forward recursive-descent parse, apart from the package's right-to-left
    scan: a node's lower bound is the next unused leaf label, and its upper
    bound is the last label its subtree used."""
    parents, ends, lowers, uppers = ([0] * len(word) for _ in range(4))
    high = -1  # the last leaf label used

    def node(i, up):
        nonlocal high
        parents[i], lowers[i] = up, high + 1
        if word[i] == "0":
            high += 1
            end = i + 1
        else:
            end = node(node(i + 1, i), i)
        ends[i], uppers[i] = end, high
        return end

    assert node(0, -1) == len(word)
    return tuple(parents), tuple(ends), tuple(lowers), tuple(uppers)


def nodes_by_index(word):
    """[(interval, parent, left, right, end)] per word index of ``word``,
    read off a pre-order walk of its tuple tree, apart from the package's
    scan: ``parent`` is None at the root, ``left`` and ``right`` are None at
    a leaf, and ``end`` is the exclusive end of the node's subtree slice."""
    nodes = []

    def walk(sub, up, low):
        # fills the rows of ``sub``, whose first leaf is ``low``; returns its
        # highest leaf label
        at = len(nodes)
        nodes.append(None)
        if sub is None:
            nodes[at] = (low, low), up, None, None, at + 1
            return low
        mid = walk(sub[0], at, low)
        right = len(nodes)
        high = walk(sub[1], at, mid + 1)
        nodes[at] = (low, high), up, at + 1, right, len(nodes)
        return high

    walk(tuple_tree(str(word)), None, 0)
    return nodes


def anchor_by_spine(word):
    """(anchor, suffix, grown, embedding) of a tree word of size >= 1: the
    word index of the lowest node on the right spine of its tuple tree,
    that node's subtree word, the word grown left there, and each node's
    index in the grown word.  Every node is tagged with its word index, so
    the embedding is read off a pre-order walk of the grown tagged tree."""

    def tag(sub, at):
        # (tagged, end): (index,) for a leaf, (index, left, right) for a node
        if sub is None:
            return (at,), at + 1
        left, mid = tag(sub[0], at + 1)
        right, end = tag(sub[1], mid)
        return (at, left, right), end

    def grow(sub):
        # (anchor, grown): the new node and leaf are tagged None
        if len(sub[2]) == 1:
            return sub, (None, sub, (None,))
        anchor, right = grow(sub[2])
        return anchor, (sub[0], sub[1], right)

    def walk(sub):
        yield sub
        for child in sub[1:]:
            yield from walk(child)

    def text(sub):
        return "".join("1" if len(node) == 3 else "0" for node in walk(sub))

    anchor, grown = grow(tag(tuple_tree(str(word)), 0)[0])
    tags = [node[0] for node in walk(grown)]
    return anchor[0], text(anchor), text(grown), [tags.index(i) for i in range(len(word))]


def _spans(tree, low=0):
    """(spans, high): the (lowest, highest) leaf labels of every node of a
    tuple tree whose first leaf is ``low``, and its highest label."""
    if tree is None:
        return set(), low
    left, mid = _spans(tree[0], low)
    right, high = _spans(tree[1], mid + 1)
    return left | right | {(low, high)}, high


def _rotations(tree):
    """Every tuple tree one rotation away: a left child promoted,
    ((a b) c) -> (a (b c)), or a right child, (a (b c)) -> ((a b) c)."""
    if tree is None:
        return
    left, right = tree
    if left is not None:
        yield left[0], (left[1], right)
    if right is not None:
        yield (left, right[0]), right[1]
    for rotated in _rotations(left):
        yield rotated, right
    for rotated in _rotations(right):
        yield left, rotated


def rotations_by_node(word):
    """{index: (rotated, created)} for every internal non-root node of
    ``word``: the tuple tree with the node at that word index promoted over
    its parent, and the one span the rotated tree has that the tree lacks.
    Indices are counted on the tuple tree, apart from the package's scan."""
    tree = tuple_tree(str(word))
    spans = _spans(tree)[0]
    rotated = {}

    def walk(sub, at, put):
        # put(x) is the whole tree with x in place of ``sub``, which starts
        # at word index ``at``; returns where ``sub`` ends
        if sub is None:
            return at + 1
        left, right = sub
        mid = walk(left, at + 1, lambda x: put((x, right)))
        if left is not None:
            rotated[at + 1] = put((left[0], (left[1], right)))
        if right is not None:
            rotated[mid] = put(((left, right[0]), right[1]))
        return walk(right, mid, lambda x: put((left, x)))

    walk(tree, 0, lambda x: x)
    found = {}
    for i, new in rotated.items():
        (created,) = _spans(new)[0] - spans
        found[i] = new, created
    return found


@lru_cache(maxsize=None)
def _neighbor_trees(tree):
    return tuple(_rotations(tree))


def bfs_distance(s, t):
    """Rotation distance of two same-size tree words by a plain
    bidirectional breadth-first search over tuple trees, always growing the
    smaller frontier: the oracle for ``exact_distance`` and the reduction
    rules, sharing no bound, pruning rule or ``treepairs`` code with them."""
    a, b = tuple_tree(str(s)), tuple_tree(str(t))
    if a == b:
        return 0
    dist_a, dist_b = {a: 0}, {b: 0}
    frontier_a, frontier_b = [a], [b]
    while True:
        if len(frontier_a) > len(frontier_b):
            frontier_a, frontier_b = frontier_b, frontier_a
            dist_a, dist_b = dist_b, dist_a
        best = None
        grown = []
        for tree in frontier_a:
            through = dist_a[tree] + 1
            for neighbor in _neighbor_trees(tree):
                if neighbor in dist_a:
                    continue
                if neighbor in dist_b:
                    total = through + dist_b[neighbor]
                    best = total if best is None else min(best, total)
                    continue
                dist_a[neighbor] = through
                grown.append(neighbor)
        if best is not None:
            # the full level was grown, so no shorter meeting exists
            return best
        frontier_a = grown


@lru_cache(maxsize=4096)
def interval_sets(word):
    """(intervals, created): the non-root intervals of ``word`` and the
    intervals its rotations create, as sets of (lower, upper) tuples.  Each
    created interval is the one span a rotated tuple tree has that the tree
    lacks; no ``treepairs`` interval code runs here."""
    spans, high = _spans(tuple_tree(word))
    created = frozenset(made for _, made in rotations_by_node(word).values())
    return frozenset(spans - {(0, high)}), created


def difficult_by_recomputation(s, t):
    """Difficulty recomputed from interval and created-interval sets of
    tuple trees parsed from the raw words: the oracle for ``is_difficult``
    and for the packed masks that the census and the sampler share."""
    if s == t:
        return False
    s_has, s_makes = interval_sets(str(s))
    t_has, t_makes = interval_sets(str(t))
    return s_has.isdisjoint(t_has) and s_makes.isdisjoint(t_has) and t_makes.isdisjoint(s_has)


def replay_reduce(pair):
    """(rounds, forced, components) of ``reduce_pair`` replayed one rule per
    round through the public rules: split at the smallest common interval,
    else play the first one-off move, else keep a difficult component.  A
    round takes one non-identical piece off the stack."""
    rounds, forced, components, pending = 0, 0, [], [tuple(pair)]
    while pending:
        s, t = pending.pop()
        if s == t:
            continue
        rounds += 1
        commons = common_intervals((s, t))
        if commons:
            pending.extend(split_at_common((s, t), min(commons)))
            continue
        moves = one_off_moves((s, t))
        if not moves:
            components.append((s, t))
            continue
        side, node, _ = moves[0]
        forced += 1
        pending.append((rotate(s, node), t) if side == "S" else (s, rotate(t, node)))
    return rounds, forced, sorted(components)


@st.composite
def tree_words(draw, min_size=1, max_size=12):
    """Uniform random tree words, shrinking toward small sizes and seeds."""
    n = draw(st.integers(min_size, max_size))
    seed = draw(st.integers(0, 2**32 - 1))
    return remy_sample(n, random.Random(seed))


@st.composite
def tree_pairs(draw, min_size=2, max_size=9):
    """Pairs of independent uniform trees of one size."""
    n = draw(st.integers(min_size, max_size))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    return remy_sample(n, rng), remy_sample(n, rng)
