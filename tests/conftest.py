import random

from hypothesis import settings, strategies as st

from treepairs import intervals, one_intervals, remy_sample

settings.register_profile("pkg", deadline=None)
settings.load_profile("pkg")


def difficult_by_recomputation(s, t):
    """Difficulty recomputed from interval and created-interval sets of the
    raw words: the oracle for the packed masks that ``is_difficult``, the
    census and the sampler share."""
    if s == t:
        return False
    s_has = intervals(s, include_root=False)
    t_has = intervals(t, include_root=False)
    return (
        s_has.isdisjoint(t_has)
        and one_intervals(s).isdisjoint(t_has)
        and one_intervals(t).isdisjoint(s_has)
    )


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
