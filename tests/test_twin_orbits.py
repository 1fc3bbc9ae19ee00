"""Twin-job symmetry reduction of the deviation scan, cross-checked
against the brute-force oracles on instances built to contain twins:
jobs with the same start machine and the same size (identical machines)
or matrix column (unrelated machines)."""

import pytest
from hypothesis import given, strategies as st

from conftest import twin_heavy_pairs
from oracles import (
    brute_coalition_deviation,
    brute_deviations,
    brute_measure_witnesses,
)
from schedgames.core import (
    BudgetExceededError,
    IdenticalInstance,
    Schedule,
    UnrelatedInstance,
    load_profile,
)
from schedgames.equilibria import (
    ScanContext,
    can_coalition_deviate,
    enumerate_profitable_deviations,
    is_strong,
    scan_deviations,
)
from schedgames.measures import ir_min, measure_report
from schedgames.witnesses import reduce_partition_identical

PAIRS = st.one_of(twin_heavy_pairs(unrelated=False), twin_heavy_pairs(unrelated=True))


# --- twin classes and orbits -----------------------------------------------


def test_twins_share_start_machine_and_size():
    instance = IdenticalInstance(m=3, p=(2, 3, 2, 2, 3))
    ctx = ScanContext(instance, Schedule((1, 1, 1, 2, 2)))
    # job 4 has size 2 but starts on machine 2; jobs 4 and 5 differ in size
    assert ctx.twins == ((0, 2),)
    assert ctx.prev_twin == [-1, -1, 0, -1, -1]


def test_unrelated_twins_need_equal_columns():
    instance = UnrelatedInstance(m=2, p=((1, 1, 1), (2, 2, 3)))
    ctx = ScanContext(instance, Schedule((1, 1, 1)))
    assert ctx.twins == ((0, 1),)


def test_orbit_lists_every_relabelling_once():
    ctx = ScanContext(IdenticalInstance(m=3, p=(1, 1, 1, 2)), Schedule((1, 1, 1, 1)))
    rep = (0, 1, 1, 2)
    members = ctx.orbit(rep)
    assert sorted(members) == [(0, 1, 1, 2), (1, 0, 1, 2), (1, 1, 0, 2)]
    assert ctx.orbit_size(rep) == 3
    assert ctx.orbit_size((0, 1, 2, 0)) == 6 == len(set(ctx.orbit((0, 1, 2, 0))))
    assert ctx.orbit((0, 0, 0, 1)) == [(0, 0, 0, 1)]


def test_scan_visits_sorted_representatives_only():
    instance = IdenticalInstance(m=3, p=(1, 1, 1, 1))
    leaves = []
    scan_deviations(
        instance,
        Schedule((1, 1, 1, 1)),
        budget=10**6,
        on_leaf=lambda ctx, assign, loads: leaves.append(tuple(assign)),
    )
    assert leaves == sorted(leaves)
    assert all(list(leaf) == sorted(leaf) for leaf in leaves)
    ctx = ScanContext(instance, Schedule((1, 1, 1, 1)))
    assert sum(ctx.orbit_size(leaf) for leaf in leaves) == len(
        brute_deviations(instance, Schedule((1, 1, 1, 1)))
    )


def test_budget_fraction_stays_a_share_under_twin_bound():
    instance = IdenticalInstance(m=3, p=(1,) * 12)
    fractions = []
    for budget in (5, 50, 200):
        with pytest.raises(BudgetExceededError) as info:
            scan_deviations(
                instance, Schedule((1,) * 12), budget=budget, on_leaf=lambda *args: None
            )
        fractions.append(info.value.explored_fraction)
    assert 0 <= fractions[0] <= fractions[1] <= fractions[2] < 1


@pytest.mark.parametrize("k", [11, 13, 21])
def test_partition_family_decides_within_small_budget(k):
    # all k size-3 inputs are twins on machine 1; scanning every labelled
    # joint action needs 18,376,752 nodes at k = 11 and over 5e7 at k = 13
    art = reduce_partition_identical([3] * k + [5])
    assert art.expected_se
    assert is_strong(art.instance, art.start_schedule, node_budget=25_000).holds


# --- oracle cross-checks ---------------------------------------------------


@given(PAIRS)
def test_enumeration_matches_oracle_in_order(pair):
    instance, schedule = pair
    sweep = enumerate_profitable_deviations(instance, schedule)
    assert sweep.complete
    # the oracle enumerates itertools.product, i.e. lexicographically
    assert [d.after.assignment for d in sweep] == brute_deviations(instance, schedule)
    assert all(d.coalition == d.migrants for d in sweep)


@given(PAIRS, st.integers(1, 6))
def test_enumeration_limit_is_oracle_prefix(pair, limit):
    instance, schedule = pair
    expected = brute_deviations(instance, schedule)
    sweep = enumerate_profitable_deviations(instance, schedule, limit=limit)
    assert [d.after.assignment for d in sweep] == expected[:limit]
    assert sweep.complete == (len(expected) < limit)


@given(PAIRS)
def test_measure_report_matches_oracle(pair):
    instance, schedule = pair
    emitted = []
    report = measure_report(instance, schedule, on_deviation=emitted.append)
    expected = brute_deviations(instance, schedule)
    assert report.exhaustive
    assert report.deviation_count == len(expected)
    assert [d.after.assignment for d in emitted] == expected
    witnesses = brute_measure_witnesses(instance, schedule)
    got = [
        (report.ir_min, report.ir_min_witness),
        (report.ir_max, report.ir_max_witness),
        (report.dr_max, report.dr_max_witness),
    ]
    for (value, witness), (want, joint) in zip(got, witnesses):
        assert value == want
        assert (None if witness is None else witness.after.assignment) == joint
    if report.ir_max_witness is not None:
        # its coalition is every job whose cost strictly drops
        after = report.ir_max_witness.after
        old = load_profile(instance, schedule).loads
        new = load_profile(instance, after).loads
        gain = {
            j
            for j in range(1, instance.n + 1)
            if new[after.machine_of(j) - 1] < old[schedule.machine_of(j) - 1]
        }
        assert report.ir_max_witness.coalition == gain
    value = ir_min(instance, schedule)
    assert value.value == witnesses[0][0]
    assert (None if value.witness is None else value.witness.after.assignment) == witnesses[0][1]


@given(PAIRS)
def test_is_strong_witness_is_oracle_minimum(pair):
    instance, schedule = pair
    expected = brute_deviations(instance, schedule)
    result = is_strong(instance, schedule)
    assert result.holds == (not expected)
    if expected:
        assert result.witness.after.assignment == min(expected)


@given(PAIRS, st.data())
def test_coalition_deviation_matches_oracle(pair, data):
    instance, schedule = pair
    coalition = data.draw(st.sets(st.integers(1, instance.n), min_size=1))
    deviation = can_coalition_deviate(instance, schedule, coalition)
    expected = brute_coalition_deviation(instance, schedule, coalition)
    assert (None if deviation is None else deviation.after.assignment) == expected
