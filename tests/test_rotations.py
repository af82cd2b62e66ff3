import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import treepairs
from conftest import (
    bfs_distance,
    difficult_by_recomputation,
    interval_sets,
    replay_reduce,
    rotations_by_node,
    tree_pairs,
    tree_words,
    tuple_tree,
)
from treepairs import (
    MalformedWordError,
    NoParentError,
    NotCommonError,
    NotInternalError,
    SizeGuardExceededError,
    TreePair,
    anchor_embedding,
    anchor_index,
    common_intervals,
    enumerate_trees,
    exact_distance,
    grow,
    growth_neighbors,
    interval_of,
    intervals,
    is_difficult,
    is_internal,
    left_child,
    one_interval_of,
    one_intervals,
    one_off_moves,
    parent,
    parse_pair,
    parse_word,
    reduce_pair,
    remy_sample,
    right_child,
    rotate,
    rotation_neighbors,
    sample_difficult_pair,
    spine_split,
    split_at_common,
    subtree_end,
    word_scan,
)
from treepairs.cli import _verdict
from treepairs.rotations import _rotated, _state, _toward, _turned
from treepairs.words import _rotation_rows

DIFFICULT_NINE = ("1110110011100100000", "1010110010110110000")

# every public entry point that takes a pair and nothing else
PAIR_ENTRY_POINTS = (
    is_difficult,
    common_intervals,
    one_off_moves,
    exact_distance,
    lambda pair: split_at_common(pair, (0, 1)),
)


@pytest.mark.parametrize(
    "entry, junk",
    [
        (growth_neighbors, "abc"),
        (rotation_neighbors, "abc"),
        (rotation_neighbors, "10"),
        (intervals, "abc"),
        (intervals, "10"),
        (one_intervals, "0110"),
        (word_scan, "abc"),
        (lambda w: parent(w, 1), "1x0"),
        (lambda w: interval_of(w, 1), "1x0"),
        (lambda w: one_interval_of(w, 1), "11x0000"),
        (parse_word, 5),
        (intervals, None),
        (lambda w: rotate(w, 1), None),
        (lambda w: grow(w, 0), None),
        (lambda w: grow(w, 0), "1x0"),
        (lambda w: grow(w, 0), "1000"),
        (spine_split, "1x0"),
        (spine_split, "10100x"),
        (anchor_index, "1x0"),
        (lambda w: subtree_end(w, 0), "1x0"),
        (lambda w: left_child(w, 0), "1x0"),
        (lambda w: right_child(w, 0), "1x0"),
        (lambda w: is_internal(w, 0), "abc"),
        (lambda w: anchor_embedding(w, 1), "1x0"),
    ],
)
def test_word_entry_points_reject_junk(entry, junk):
    with pytest.raises(MalformedWordError):
        entry(junk)


@pytest.mark.parametrize(
    "query, expected",
    [
        (is_difficult, 2),
        (common_intervals, 2),
        (one_off_moves, 2),
        (lambda pair: rotation_neighbors(pair[0]), 1),
        # the search reads its popped words in a pass of its own, with no scan
        (lambda _: exact_distance(DIFFICULT_NINE), 2),
    ],
)
def test_raw_words_are_scanned_once(query, expected, monkeypatch):
    # scanning a word validates it, so a raw word needs no separate check
    rng = random.Random(3)
    pair = (str(remy_sample(1000, rng)), str(remy_sample(1000, rng)))
    scans = []
    for module in (treepairs.words, treepairs.rotations):
        monkeypatch.setattr(module, "word_scan", lambda w: scans.append(w) or word_scan(w))
    query(pair)
    assert len(scans) == expected


class TestRotate:
    def test_right_child_promotion(self):
        assert rotate("1010100", 2) == "1100100"

    def test_left_child_promotion(self):
        assert rotate("11000", 1) == "10100"

    def test_root_is_fixed(self):
        with pytest.raises(NoParentError):
            rotate("100", 0)

    def test_negative_index_naming_the_root_is_rejected(self):
        with pytest.raises(NotInternalError, match="@-7"):
            rotate("1101000", -7)

    def test_negative_index_naming_an_internal_node_is_rejected(self):
        with pytest.raises(NotInternalError, match="@-6"):
            rotate("1101000", -6)

    def test_neighbor_sets(self):
        assert rotation_neighbors("100") == set()
        assert rotation_neighbors("11000") == {"10100"}
        assert rotation_neighbors("1100100") == {"1010100", "1110000"}

    @given(tree_words(min_size=0, max_size=25))
    def test_rotations_match_the_tuple_tree_oracle(self, word):
        by_node = rotations_by_node(word)
        assert {tuple_tree(w) for w in rotation_neighbors(word)} == {
            tree for tree, _ in by_node.values()
        }
        for i, (tree, _) in by_node.items():
            assert tuple_tree(rotate(word, i)) == tree

    @given(tree_words(min_size=2, max_size=15))
    def test_neighbor_count_is_size_minus_one(self, word):
        assert len(rotation_neighbors(word)) == word.size - 1

    @given(tree_words(min_size=2, max_size=12), st.randoms(use_true_random=False))
    def test_rotation_is_invertible(self, word, rng):
        internal = [i for i in range(1, len(word)) if word[i] == "1"]
        node = rng.choice(internal)
        rotated = rotate(word, node)
        assert word in rotation_neighbors(rotated)

    @given(tree_words(min_size=2, max_size=12), st.randoms(use_true_random=False))
    def test_rotation_swaps_exactly_one_interval(self, word, rng):
        internal = [i for i in range(1, len(word)) if word[i] == "1"]
        node = rng.choice(internal)
        expected = (
            intervals(word) - {interval_of(word, node)} | {one_interval_of(word, node)}
        )
        assert intervals(rotate(word, node)) == expected


class TestDistance:
    def test_identity(self):
        assert exact_distance(("1100100", "1100100")) == 0

    def test_adjacent(self):
        assert exact_distance(("11000", "10100")) == 1

    def test_size_four_combs(self):
        assert exact_distance(("111100000", "101010100")) == 3

    def test_guard(self):
        big = "1" * 13 + "0" * 14
        with pytest.raises(SizeGuardExceededError):
            exact_distance((big, big[:13] + big[13:]))
        assert exact_distance((big, big), max_size=13) == 0

    def test_size_mismatch(self):
        with pytest.raises(MalformedWordError):
            exact_distance(("100", "11000"))

    @pytest.mark.parametrize("n", range(6))
    def test_matches_the_bfs_oracle_on_every_small_pair(self, n):
        trees = enumerate_trees(n)
        mismatches = [
            (s, t) for s in trees for t in trees if exact_distance((s, t)) != bfs_distance(s, t)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("n", [8, 9])
    def test_matches_the_bfs_oracle_on_difficult_pairs(self, n):
        for seed in range(6):
            s, t = sample_difficult_pair(n, random.Random(seed))
            assert exact_distance((s, t)) == bfs_distance(s, t) >= n

    @pytest.mark.parametrize(
        "pair, distance, least",
        [
            (("101101110010100010100", "111110100001101100000"), 14, 1093),
            (("11101011100000101100100", "11010110110110100100000"), 15, 1419),
            # sample_difficult_pair(13, random.Random(10))
            (("110011001101110110011000000", "111011100110100000111010000"), 19, 21955),
        ],
    )
    def test_least_state_budget_is_pinned(self, pair, distance, least, monkeypatch):
        # the fewest stored states under which the search still returns pins
        # the order in which it pops and pushes, not only its answer
        monkeypatch.setattr(treepairs.rotations, "STATE_BUDGET", least)
        assert exact_distance(pair, max_size=13) == distance
        monkeypatch.setattr(treepairs.rotations, "STATE_BUDGET", least - 1)
        with pytest.raises(SizeGuardExceededError):
            exact_distance(pair, max_size=13)

    @pytest.mark.parametrize("goal_from", ["random tree", "rotated word"])
    @given(tree_words(min_size=1, max_size=40), st.randoms(use_true_random=False))
    def test_search_pass_matches_the_rotation_rows(self, goal_from, word, rng):
        # a rotation of the word itself shares all but one interval with it,
        # so its goal gives forced moves; a random tree gives free ones
        internal = [i for i in range(1, len(word)) if word[i] == "1"]
        if goal_from == "random tree":
            t = remy_sample(word.size, rng)
        else:
            t = rotate(word, rng.choice(internal)) if internal else word
        goal = {key for _, _, key, _ in _rotation_rows(word_scan(t))}
        scan = word_scan(word)
        rows = [(scan.upper[i + 1], key, made) for i, _, key, made in _rotation_rows(scan)]
        # the '1' at word index i is in-order node upper[i + 1]; rows keep word order
        forced = next((j for j, key, made in rows if key not in goal and made in goal), None)
        free = sorted(j for j, key, made in rows if key not in goal and made not in goal)
        found, moves = _toward(bytes(_state(str(word), scan)), goal)
        assert (found, sorted(moves)) == (forced, free)

    @given(tree_pairs(min_size=1, max_size=12))
    def test_states_sort_as_their_words(self, pair):
        s, t = (str(word) for word in pair)
        a, b = (bytes(_state(word, word_scan(word))) for word in (s, t))
        assert (a > b) - (a < b) == (s > t) - (s < t)

    @given(tree_words(min_size=1, max_size=40))
    def test_state_rotation_matches_the_rotated_word(self, word):
        scan = word_scan(word)
        state = _state(str(word), scan)
        for i, target, _, _ in _rotation_rows(scan):
            rotated = _rotated(str(word), i, target)
            expected = _state(rotated, word_scan(rotated))
            for thaw in (bytearray, list):
                assert list(_turned(thaw(state), scan.upper[i + 1])) == expected

    def test_labels_past_a_byte(self):
        # a byte holds no label of 256 or more, so these states are tuples
        left, right = "1" * 300 + "0" * 301, "10" * 300 + "0"
        assert exact_distance((left, right), max_size=300) == 299
        assert exact_distance((right, left), max_size=300) == 299
        word = remy_sample(300, random.Random(0))
        last = word.rfind("1")  # a non-root node whose in-order id is past 255
        assert word_scan(word).upper[last + 1] > 255
        assert exact_distance((word, rotate(word, last)), max_size=300) == 1

    def test_state_budget(self, monkeypatch):
        pair = sample_difficult_pair(10, random.Random(1))
        assert exact_distance(pair) >= 10
        monkeypatch.setattr(treepairs.rotations, "STATE_BUDGET", 50)
        with pytest.raises(SizeGuardExceededError, match=r"stored (\d+) states") as caught:
            exact_distance(pair)
        assert int(caught.value.args[0].split()[3]) > 50

    @given(tree_pairs(max_size=7))
    def test_symmetry(self, pair):
        s, t = pair
        assert exact_distance((s, t)) == exact_distance((t, s))

    @given(st.integers(2, 7), st.integers(0, 2**32 - 1))
    def test_triangle_inequality(self, n, seed):
        rng = random.Random(seed)
        a, b, c = (remy_sample(n, rng) for _ in range(3))
        assert exact_distance((a, c)) <= exact_distance((a, b)) + exact_distance((b, c))


class TestPairPredicates:
    def test_identity_shares_all_intervals(self):
        assert common_intervals(("1100100", "1100100")) == {(0, 1), (2, 3)}

    def test_disjoint_interval_sets(self):
        assert common_intervals(("11000", "10100")) == frozenset()

    def test_single_common(self):
        assert common_intervals(("1100100", "1110000")) == {(0, 1)}

    def test_one_off_moves_both_sides(self):
        moves = one_off_moves(("11000", "10100"))
        assert [(m.side, m.node, tuple(m.created)) for m in moves] == [
            ("S", 1, (1, 2)),
            ("T", 2, (0, 1)),
        ]

    def test_no_moves_without_non_root_nodes(self):
        assert one_off_moves(("100", "100")) == []

    def test_identity_not_difficult(self):
        assert not is_difficult(("1100100", "1100100"))
        assert not is_difficult(("100", "100"))

    def test_one_off_pair_not_difficult(self):
        assert not is_difficult(("11000", "10100"))

    @given(tree_pairs(min_size=1, max_size=20))
    def test_common_intervals_and_one_off_moves_match_the_tuple_tree_oracle(self, pair):
        s, t = pair
        s_has, t_has = interval_sets(s)[0], interval_sets(t)[0]
        assert common_intervals(pair) == s_has & t_has
        expected = [
            (side, i, made)
            for side, word, other in (("S", s, t_has), ("T", t, s_has))
            for i, (_, made) in sorted(rotations_by_node(word).items())
            if made in other
        ]
        assert [tuple(move) for move in one_off_moves(pair)] == expected

    @given(tree_pairs(max_size=9))
    def test_difficulty_is_symmetric(self, pair):
        s, t = pair
        assert is_difficult((s, t)) == is_difficult((t, s))

    @given(st.integers(4, 8), st.integers(0, 2**32 - 1))
    def test_difficulty_matches_recomputation(self, n, seed):
        # grown neighbors of a difficult pair mix difficult and reducible pairs
        s, t = sample_difficult_pair(n, random.Random(seed))
        verdicts = set()
        for u in growth_neighbors(s):
            for v in growth_neighbors(t):
                verdict = difficult_by_recomputation(u, v)
                assert is_difficult((str(u), v)) == verdict
                verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("other", ["remy", "rotated"])
    def test_memory_stays_linear_at_n_10000(self, other):
        # a k^2-bit mask per word would take about 12.5 MB at this size; the
        # rotated word shares about 10,000 intervals that a full cut splits at
        s = str(remy_sample(10_000, random.Random(6)))
        t = str(remy_sample(10_000, random.Random(5)) if other == "remy" else rotate(s, 1))
        tracemalloc.start()
        try:
            verdict = is_difficult((s, t))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not verdict
        assert peak < 20_000_000

    def test_rejects_invalid_symbols(self):
        for check in PAIR_ENTRY_POINTS:
            with pytest.raises(MalformedWordError):
                check(("1x0", "10x"))

    def test_rejects_size_mismatch(self):
        for check in PAIR_ENTRY_POINTS:
            for pair in (("1" * 20 + "0" * 21, "100"), ("100", "10100")):
                with pytest.raises(MalformedWordError):
                    check(pair)

    def test_rejects_junk_text(self):
        with pytest.raises(MalformedWordError):
            is_difficult(("abc", "abc d"))


class TestSplitAndReduce:
    def test_split_extracts_and_collapses(self):
        inner, outer = split_at_common(("1100100", "1110000"), (0, 1))
        assert inner == ("100", "100")
        assert outer == ("10100", "11000")

    def test_split_identity(self):
        inner, outer = split_at_common(("1100100", "1100100"), (2, 3))
        assert inner.s == inner.t and outer.s == outer.t

    def test_split_rejects_one_sided_interval(self):
        with pytest.raises(NotCommonError):
            split_at_common(("11000", "10100"), (0, 1))

    def test_reduce_identity(self):
        outcome = reduce_pair(("1100100", "1100100"))
        assert outcome.forced_moves == 0 and outcome.components == []

    def test_reduce_with_one_forced_move(self):
        outcome = reduce_pair(("1100100", "1110000"))
        assert outcome.forced_moves == 1 and outcome.components == []

    def test_reduce_rejects_size_mismatch(self):
        with pytest.raises(MalformedWordError):
            reduce_pair(("100", "10100"))

    def test_reduce_rejects_malformed_words(self):
        junk = (
            ("110", "101"), None, ("100",), ("100", "100", "100"), "00", {"1110000", "1010100"}
        )
        for check in (reduce_pair, *PAIR_ENTRY_POINTS):
            for pair in junk:
                with pytest.raises(MalformedWordError):
                    check(pair)

    def test_split_rejects_an_interval_that_is_not_a_pair_of_ints(self):
        for common in (5, None, (0.0, 1.0), (0, 1, 2)):
            with pytest.raises(NotCommonError):
                split_at_common(("1100100", "1110000"), common)

    def test_reduce_scans_each_word_once_per_unforced_round(self, monkeypatch):
        # a forced move's pair is cut at its created interval without a
        # scan, and a piece is cut at all its common intervals in one round
        rng = random.Random(200)
        pair = (remy_sample(200, rng), remy_sample(200, rng))
        rounds, forced, components = replay_reduce(pair)
        scans = []
        for module in (treepairs.words, treepairs.rotations):
            monkeypatch.setattr(module, "word_scan", lambda w: scans.append(w) or word_scan(w))
        outcome = reduce_pair(pair)
        assert outcome.forced_moves == forced > 0
        assert outcome.components == components
        assert rounds > 50 and len(scans) <= 2 * (rounds - forced)

    @pytest.mark.parametrize("witness", ["common", "one-off"])
    def test_verdicts_cut_nothing_and_reduce_still_cuts(self, witness, monkeypatch):
        # is_difficult and the check verdict read only the witness, so no piece is cut
        rng = random.Random(200)
        pair = (str(remy_sample(200, rng)), str(remy_sample(200, rng)))
        if witness == "one-off":
            pair = ("1110000", "1010100")
        cuts = []
        cut = treepairs.rotations._cut
        monkeypatch.setattr(treepairs.rotations, "_cut", lambda *args: cuts.append(args) or cut(*args))
        assert not is_difficult(pair)
        assert _verdict(pair).startswith(f"not difficult: {witness}")
        assert cuts == []
        reduce_pair(pair)
        assert cuts

    def test_difficult_pairs_are_fixed_points(self):
        pair = TreePair("101011000", "111010000")
        assert is_difficult(pair)
        outcome = reduce_pair(pair)
        assert outcome.forced_moves == 0 and outcome.components == [pair]

    @given(tree_pairs(min_size=2, max_size=8))
    def test_reduce_components_are_difficult(self, pair):
        outcome = reduce_pair(pair)
        for component in outcome.components:
            assert is_difficult(component)
            assert len(component.s) // 2 >= 4

    @given(tree_pairs(min_size=2, max_size=8))
    def test_reduce_preserves_distance(self, pair):
        outcome = reduce_pair(pair)
        total = outcome.forced_moves + sum(bfs_distance(*c) for c in outcome.components)
        assert bfs_distance(*pair) == total

    @given(tree_pairs(min_size=2, max_size=8), st.randoms(use_true_random=False))
    def test_split_sizes_sum(self, pair, rng):
        commons = common_intervals(pair)
        if not commons:
            return
        inner, outer = split_at_common(pair, rng.choice(sorted(commons)))
        assert len(inner.s) + len(outer.s) == len(pair[0]) + 1


class TestReduceMatchesTheOneRuleReplay:
    """``reduce_pair`` cuts at every common interval at once and cuts a
    forced move's pair where the move lands; the replay takes one public
    rule per round, so both must give the same moves and components."""

    @staticmethod
    def check(pair):
        _, forced, components = replay_reduce(pair)
        outcome = reduce_pair(pair)
        assert (outcome.forced_moves, outcome.components) == (forced, components)

    @given(tree_pairs(min_size=1, max_size=8))
    def test_small_pairs(self, pair):
        self.check(pair)

    @pytest.mark.parametrize("n", [20, 50, 120, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uniform_pairs(self, n, seed):
        rng = random.Random(seed)
        self.check((remy_sample(n, rng), remy_sample(n, rng)))

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_difficult_pairs_and_one_move_off(self, n):
        s, t = sample_difficult_pair(n, random.Random(n))
        self.check((s, t))
        for node in range(1, len(s)):
            if s[node] == "1":
                self.check((rotate(s, node), t))

    def test_deeply_nested_common_intervals(self):
        # a left comb and its rotation at the root's left child share 998
        # nested intervals, which the cut holds on its explicit stack
        comb = "1" * 1000 + "0" * 1001
        pair = (comb, rotate(comb, 1))
        assert len(common_intervals(pair)) == 998
        self.check(pair)


def test_parse_pair():
    pair = parse_pair("11000 10100")
    assert pair == ("11000", "10100")
    with pytest.raises(MalformedWordError):
        parse_pair("11000")
    with pytest.raises(MalformedWordError):
        parse_pair("11000 100")
