"""Every public function answers or raises a ``TreePairError`` on junk input."""

import importlib
import inspect
import pkgutil
import random

import pytest
from hypothesis import given, strategies as st

import treepairs
from conftest import tree_words
from treepairs import (
    MalformedWordError,
    NotInternalError,
    SizeGuardExceededError,
    SizeTooSmallError,
    TreePairError,
    coverage_report,
    enumerate_difficult_pairs,
    enumerate_trees,
    exact_distance,
    grow,
    interval_of,
    reduction_profile,
    remy_sample,
    rotate,
    sample_difficult_pair,
    subtree_end,
)

# Ints stay small because they also land on sizes, counts and guards, where
# a large one is a legal but long call.
JUNK = st.one_of(
    st.none(),
    st.integers(-3, 8),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    tree_words(min_size=0, max_size=6).map(str),
)
PAIRS = st.one_of(JUNK, st.tuples(JUNK, JUNK), st.tuples(JUNK, JUNK, JUNK))

# The package surface, pinned so that adding or losing a public name is a
# deliberate edit here.
PUBLIC_NAMES = [
    "CoverageReport", "DEFAULT_SEED", "Interval", "MIN_SIZE", "MalformedWordError",
    "NoParentError", "NotCommonError", "NotDifficultError", "NotInternalError",
    "OneOffMove", "PAIR_GUARD", "ReductionProfile", "ReductionResult",
    "SizeGuardExceededError", "SizeTooSmallError", "TREE_GUARD", "TreePair",
    "TreePairError", "TreeWord", "WordScan", "anchor_embedding", "anchor_growth",
    "anchor_index", "catalan", "common_intervals", "coverage_report",
    "enumerate_difficult_pairs", "enumerate_trees", "exact_distance", "grow",
    "growth_neighbors", "interval_of", "intervals", "is_difficult", "is_internal",
    "left_child", "one_interval_of", "one_intervals", "one_off_moves", "pair_choices",
    "parent", "parse_pair", "parse_word", "primitive_pairs", "reduce_pair",
    "reduction_profile", "remy_sample", "right_child", "rotate", "rotation_neighbors",
    "sample_difficult_pair", "sample_with_choice_counts", "spine_split",
    "split_at_common", "subtree_end", "word_scan",
]

FUNCTIONS = sorted(
    name for name in treepairs.__all__ if inspect.isfunction(getattr(treepairs, name))
)


def test_public_surface_is_pinned():
    assert sorted(treepairs.__all__) == PUBLIC_NAMES
    assert len(set(treepairs.__all__)) == len(treepairs.__all__)
    for name in treepairs.__all__:
        assert hasattr(treepairs, name), name
    for info in pkgutil.iter_modules(treepairs.__path__):
        if info.name == "__main__":
            continue  # running it is the command line, not a library import
        module = importlib.import_module(f"treepairs.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = vars(module)[name]
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name


@pytest.mark.parametrize("name", FUNCTIONS)
@given(data=st.data())
def test_public_functions_answer_or_raise_tree_pair_errors(name, data):
    function = getattr(treepairs, name)
    args = []
    for param in inspect.signature(function).parameters.values():
        if param.name == "rng":
            args.append(random.Random(data.draw(st.integers(0, 9), label="seed")))
        elif param.default is param.empty or data.draw(st.booleans(), label=f"pass {param.name}"):
            args.append(data.draw(PAIRS if param.name == "pair" else JUNK, label=param.name))
        else:
            break  # later optional arguments are positional too
    try:
        function(*args)
    except TreePairError:
        pass


RNG = object()  # stands for a fresh random.Random(0)
BAD_CALLS = [
    (rotate, ("11000", "1"), NotInternalError),
    (rotate, ("11000", None), NotInternalError),
    (rotate, ("11000", 1.0), NotInternalError),
    (grow, ("100", "0"), MalformedWordError),
    (grow, ("100", 0, None), MalformedWordError),
    (grow, ("100", True), MalformedWordError),
    (interval_of, ("100", "0"), MalformedWordError),
    (subtree_end, ("100", "0"), MalformedWordError),
    (exact_distance, (("11000", "10100"), "x"), SizeTooSmallError),
    (sample_difficult_pair, ("7", RNG), SizeTooSmallError),
    (sample_difficult_pair, (5.5, RNG), SizeTooSmallError),
    (remy_sample, ("3", RNG), SizeTooSmallError),
    (remy_sample, (-1, RNG), SizeTooSmallError),
    (enumerate_trees, ("3",), SizeTooSmallError),
    (enumerate_trees, (-1,), SizeTooSmallError),
    (enumerate_trees, (3, None), SizeTooSmallError),
    (enumerate_difficult_pairs, ("3",), SizeTooSmallError),
    (enumerate_trees, (2**64, 2**64), SizeGuardExceededError),
    (enumerate_difficult_pairs, (2**64, 2**64), SizeGuardExceededError),
    (reduction_profile, (-1, 2, RNG), SizeTooSmallError),
    (reduction_profile, (5, -3, RNG), SizeTooSmallError),
    (coverage_report, (5, -3, RNG), SizeTooSmallError),
    (coverage_report, (5, "3", RNG), SizeTooSmallError),
    (coverage_report, (5, True, RNG), SizeTooSmallError),
    (sample_difficult_pair, (6, 3), TreePairError),
    (remy_sample, (5, None), TreePairError),
    (coverage_report, (6, 3, None), TreePairError),
    (reduction_profile, (5, 2, None), TreePairError),
    (coverage_report, (5, 0, None), TreePairError),
    (reduction_profile, (5, 0, None), TreePairError),
]


def _call_id(function, args):
    shown = ("rng" if arg is RNG else repr(arg) for arg in args)
    return f"{function.__name__}({', '.join(shown)})"


@pytest.mark.parametrize(
    "function, args, error",
    [pytest.param(*call, id=_call_id(*call[:2])) for call in BAD_CALLS],
)
def test_bad_indices_and_sizes_raise_tree_pair_errors(function, args, error):
    # the error an out-of-range index or too small a size gives; callers
    # that catch ValueError still catch the size errors
    with pytest.raises(error):
        function(*(random.Random(0) if arg is RNG else arg for arg in args))
