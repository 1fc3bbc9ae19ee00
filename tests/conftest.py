import random
import sys
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, settings, strategies as st

from schedgames import core
from schedgames.core import IdenticalInstance, Schedule, UnrelatedInstance
from schedgames.schedulers import lpt

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# a slower, deeper run of the oracle cross-checks: --hypothesis-profile=deep
settings.register_profile("deep", parent=settings.get_profile("suite"), max_examples=400)
# the oracle subset of tests/mutation_gate.py: the same draws on every run,
# no example database, and no shrinking, since only whether a test fails
# counts there
settings.register_profile(
    "mutants",
    parent=settings.get_profile("suite"),
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.generate],
)
settings.load_profile("suite")


@pytest.fixture
def scalings(monkeypatch) -> list:
    """One entry for every instance integer form computed in the test."""
    scaled = []
    scale = core._scaled_form

    def counted(instance):
        scaled.append(instance)
        return scale(instance)

    monkeypatch.setattr(core, "_scaled_form", counted)
    return scaled


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
def unrelated_with_schedule(draw, min_m=1, max_m=3, min_n=0, max_n=6):
    """(instance, schedule) on unrelated machines with rational entries."""
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(min_n, max_n))
    rows = draw(st.lists(st.lists(rationals(), min_size=n, max_size=n), min_size=m, max_size=m))
    assignment = draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
    return UnrelatedInstance(m=m, p=tuple(map(tuple, rows))), Schedule(tuple(assignment))


@st.composite
def twin_heavy_pairs(draw, unrelated, min_m=1, max_m=3, min_n=1, max_n=6, max_entry=5):
    """(instance, schedule) whose jobs repeat a few base sizes (identical
    machines) or matrix columns (unrelated machines, small integer
    entries), and whose repeats mostly start on a shared machine, so that
    twin jobs are common.

    On two or more machines a draw may mirror machine a on machine b: the
    first r jobs start on a, the next r repeat their sizes or columns on
    b, the rest start elsewhere (none are left on two machines), and the
    jobs are then shuffled; on unrelated machines row b copies row a.  So
    a and b are interchangeable: their rows, start loads and residents'
    sizes agree.  A near mirror merges two of b's copies into one job, so
    that only the residents differ."""
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, max(1, n - 1)))
    mirror = m > 1 and n > 1 and draw(st.booleans())
    if mirror:
        a, b, *others = draw(st.permutations(range(1, m + 1)))
    if unrelated:
        column = st.tuples(*[st.integers(1, max_entry)] * m)
    else:
        column = rationals(max_value=max_entry, max_denominator=3)
    bases = draw(st.lists(column, min_size=k, max_size=k))
    if mirror and unrelated:
        bases = [c[: b - 1] + (c[a - 1],) + c[b:] for c in bases]
    homes = draw(st.lists(st.integers(1, m), min_size=k, max_size=k))
    picks = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    if mirror:
        r = draw(st.integers(1, n // 2))
        rest = picks[2 * r :] if others else []
        copies = picks[:r]
        if r > 1 and draw(st.booleans()):
            # a near mirror: two copies merge into one job of their summed
            # size, so the start loads agree and the residents do not
            x, y = bases[copies[0]], bases[copies[1]]
            bases.append(tuple(map(add, x, y)) if unrelated else x + y)
            copies = [len(bases) - 1, *copies[2:]]
        picks = picks[:r] + copies + rest
        assignment = [a] * r + [b] * len(copies) + [draw(st.sampled_from(others)) for _ in rest]
        shuffled = draw(st.permutations(range(len(picks))))
        picks = [picks[j] for j in shuffled]
        assignment = tuple(assignment[j] for j in shuffled)
    else:
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


def _best_response_equilibrium(instance, assignment):
    """Drive `assignment` to an equilibrium: the lowest-index job with an
    improving move takes its cheapest machine (lowest index on ties)."""
    assignment = list(assignment)
    loads = [Fraction(0)] * instance.m
    for j, i in enumerate(assignment, start=1):
        loads[i - 1] += instance.processing_time(j, i)
    moved = True
    while moved:
        moved = False
        for j in range(1, instance.n + 1):
            here = assignment[j - 1]
            best = min(
                range(1, instance.m + 1),
                key=lambda i: (loads[i - 1] + instance.processing_time(j, i), i),
            )
            if best != here and loads[best - 1] + instance.processing_time(j, best) < loads[here - 1]:
                loads[here - 1] -= instance.processing_time(j, here)
                loads[best - 1] += instance.processing_time(j, best)
                assignment[j - 1] = best
                moved = True
                break
    return Schedule(tuple(assignment))


@st.composite
def equilibrium_pairs(draw, unrelated):
    """(instance, schedule) on 3 machines and 4 to 8 jobs where the
    schedule is an equilibrium: LPT or best response from a random start
    on identical machines, best response on unrelated ones (an
    equilibrium of 3 identical machines and fewer jobs admits no coalition
    move).  The job count and the sizes (identical: integers up to 20, or
    rationals with denominators up to 3; unrelated: integers up to 9) come
    from a drawn seed, since equilibria that admit a coalition move are
    rare among small or shrunk examples.  Twin-heavy instances repeat a
    few base sizes or matrix columns."""
    m = 3
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(4, 8)
    kind = draw(st.sampled_from(["plain", "plain", "twins", "rational"]))
    if unrelated:
        def column():
            return tuple(rng.randint(1, 9) for _ in range(m))
    elif kind == "rational":
        def column():
            return Fraction(rng.randint(1, 60), rng.randint(1, 3))
    else:
        def column():
            return rng.randint(1, 20)
    if kind == "twins":
        bases = [column() for _ in range(rng.randint(2, n // 2))]
        columns = [rng.choice(bases) for _ in range(n)]
    else:
        columns = [column() for _ in range(n)]
    if unrelated:
        instance = UnrelatedInstance(m=m, p=tuple(tuple(c[i] for c in columns) for i in range(m)))
    else:
        instance = IdenticalInstance(m=m, p=tuple(columns))
        if draw(st.integers(0, 2)) == 0:
            return instance, lpt(instance)
    start = [rng.randint(1, m) for _ in range(n)]
    return instance, _best_response_equilibrium(instance, start)
