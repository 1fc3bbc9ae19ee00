import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, settings, strategies as st

from schedgames.core import IdenticalInstance, Schedule, UnrelatedInstance

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def rationals(max_value=8, max_denominator=12):
    return st.fractions(
        min_value=Fraction(1, max_denominator),
        max_value=Fraction(max_value),
        max_denominator=max_denominator,
    )


def identical_instances(min_m=1, max_m=3, min_n=0, max_n=6, sizes=None):
    sizes = rationals() if sizes is None else sizes
    return st.builds(
        lambda m, p: IdenticalInstance(m=m, p=tuple(p)),
        st.integers(min_m, max_m),
        st.lists(sizes, min_size=min_n, max_size=max_n),
    )


@st.composite
def instance_with_schedule(draw, min_m=1, max_m=3, min_n=0, max_n=6, sizes=None):
    instance = draw(identical_instances(min_m, max_m, min_n, max_n, sizes))
    assignment = draw(
        st.lists(
            st.integers(1, instance.m),
            min_size=instance.n,
            max_size=instance.n,
        )
    )
    return instance, Schedule(tuple(assignment))


@st.composite
def twin_heavy_pairs(draw, unrelated, min_m=1, max_m=3, min_n=1, max_n=6, max_entry=5):
    """(instance, schedule) whose jobs repeat a few base sizes (identical
    machines) or matrix columns (unrelated machines, small integer
    entries), and whose repeats mostly start on a shared machine, so that
    twin jobs are common."""
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, max(1, n - 1)))
    if unrelated:
        column = st.tuples(*[st.integers(1, max_entry)] * m)
    else:
        column = rationals(max_value=max_entry, max_denominator=3)
    bases = draw(st.lists(column, min_size=k, max_size=k))
    homes = draw(st.lists(st.integers(1, m), min_size=k, max_size=k))
    picks = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    assignment = tuple(
        homes[c] if draw(st.booleans()) else draw(st.integers(1, m)) for c in picks
    )
    if unrelated:
        instance = UnrelatedInstance(
            m=m, p=tuple(tuple(bases[c][i] for c in picks) for i in range(m))
        )
    else:
        instance = IdenticalInstance(m=m, p=tuple(bases[c] for c in picks))
    return instance, Schedule(assignment)
