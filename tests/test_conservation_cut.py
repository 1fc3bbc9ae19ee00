"""The load-conservation cut of the deviation scan, cross-checked against
the brute-force oracles on equilibrium starts, where it fires most: LPT
and best-response equilibria on three identical or unrelated machines.
Node counts are deterministic, so the smallest budget that finishes a
search is pinned exactly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import equilibrium_pairs
from oracles import (
    brute_coalition_deviation,
    brute_coalition_deviations,
    brute_deviations,
    brute_measure_witnesses,
)
from schedgames.core import BudgetExceededError, IdenticalInstance, Schedule, UnrelatedInstance
from schedgames.equilibria import (
    ScanContext,
    enumerate_profitable_deviations,
    is_nash,
    is_strong,
    scan_deviations,
)
from schedgames.experiments import random_instance, random_ne
from schedgames.measures import ir_min, measure_report
from schedgames.schedulers import lpt
from schedgames.witnesses import reduce_partition_identical

EQUILIBRIA = st.one_of(equilibrium_pairs(unrelated=False), equilibrium_pairs(unrelated=True))


@given(EQUILIBRIA)
@settings(max_examples=30)
def test_cut_keeps_every_profitable_leaf_of_an_equilibrium(pair):
    instance, schedule = pair
    assert is_nash(instance, schedule).holds
    expected = brute_deviations(instance, schedule)
    sweep = enumerate_profitable_deviations(instance, schedule)
    assert sweep.complete
    assert [d.after.assignment for d in sweep] == expected
    strong = is_strong(instance, schedule)
    assert strong.holds == (not expected)
    if expected:
        assert strong.witness.after.assignment == expected[0]
    report = measure_report(instance, schedule)
    assert report.exhaustive and report.deviation_count == len(expected)
    got = [
        (report.ir_min, report.ir_min_witness),
        (report.ir_max, report.ir_max_witness),
        (report.dr_max, report.dr_max_witness),
    ]
    witnesses = brute_measure_witnesses(instance, schedule, expected)
    for (value, witness), (want, joint) in zip(got, witnesses):
        assert value == want
        assert (None if witness is None else witness.after.assignment) == joint
    # the ratio floor and the cut prune together
    value = ir_min(instance, schedule)
    assert value.value == witnesses[0][0]
    assert (None if value.witness is None else value.witness.after.assignment) == witnesses[0][1]


@given(EQUILIBRIA, st.data())
@settings(max_examples=30)
def test_cut_keeps_every_coalition_deviation_of_an_equilibrium(pair, data):
    instance, schedule = pair
    coalition = data.draw(st.sets(st.integers(1, instance.n), min_size=1))
    result = is_strong(instance, schedule, coalition=coalition)
    expected = brute_coalition_deviation(instance, schedule, coalition)
    assert result.holds == (expected is None)
    assert (None if result.holds else result.witness.after.assignment) == expected


@pytest.mark.parametrize(
    "seed, n, nodes, deviations",
    [
        (0, 14, 42, 0),
        (34, 14, 2_454, 23),
        (35, 15, 9_340, 509),
        (0, 16, 94, 0),
        (57, 16, 3_808, 31),
    ],
)
def test_lpt_measure_report_node_count_is_pinned(seed, n, nodes, deviations):
    # LPT schedules are equilibria, where most branches cannot conserve
    # load: an index-order scan without the cut visits 300,126 / 484,119 /
    # 480,089 / 2,340,157 / 750,625 nodes here
    instance = random_instance(seed, 3, n, 20)
    schedule = lpt(instance)
    report = measure_report(instance, schedule, node_budget=nodes)
    assert report.exhaustive and report.nodes == nodes
    assert report.deviation_count == deviations
    short = measure_report(instance, schedule, node_budget=nodes - 1)
    assert not short.exhaustive and short.nodes == nodes


# Scans where each tightening of the cut pays on its own, as (instance,
# schedule, coalition, nodes).  The room of an uncapped machine is its start
# load less the work that left it, and a machine's mover ceiling counts only
# the later jobs that can gain by moving there.  Bounding every uncapped
# machine by its start load and by the largest later start cost, the scan
# visited 2,756 / 963 / 406 / 204 nodes; with departures alone it visits
# 1,284 / 876 / 367 / 150, with ceilings alone 1,740 / 963 / 406 / 204.
PARTITION_M4 = reduce_partition_identical((3, 4, 7), m=4)
TIGHTENED = {
    # m = 4: the size-2B job on machine 4 can gain nowhere, so it raises no
    # machine's ceiling
    "partition-m4": (PARTITION_M4.instance, PARTITION_M4.start_schedule, None, 572),
    # an equilibrium whose machine 3 holds four jobs that can leave it
    "departures": (
        IdenticalInstance(m=3, p=(6, 2, 1, 1, 10, 7, 3, 4, 7)),
        Schedule((3, 3, 2, 3, 1, 1, 3, 2, 2)),
        None,
        810,
    ),
    # members 1, 2, 4, 5, 7, 8 and 9 must all improve, so those that stay
    # cap their machines
    "coalition": (
        IdenticalInstance(m=3, p=(10, 1, 12, 2, 5, 8, 6, 1, 9)),
        Schedule((1, 2, 3, 2, 2, 1, 1, 2, 2)),
        {1, 2, 4, 5, 7, 8, 9},
        367,
    ),
    "unrelated": (
        UnrelatedInstance(
            m=3, p=((6, 7, 9, 5, 5, 10, 12), (5, 5, 5, 4, 5, 6, 3), (1, 2, 2, 8, 6, 7, 8))
        ),
        Schedule((3, 3, 3, 2, 3, 1, 2)),
        None,
        141,
    ),
}


@pytest.mark.parametrize("case", TIGHTENED)
def test_tightened_cut_keeps_every_leaf(case):
    instance, schedule, coalition, nodes = TIGHTENED[case]
    ctx = ScanContext(instance, schedule, coalition)
    found = []

    def leaf(ctx, assign, loads, caps):
        found.extend(tuple(i + 1 for i in member) for member in ctx.orbit(assign))

    assert scan_deviations(ctx, budget=10**6, on_leaf=leaf) == nodes
    if coalition is None:
        expected = brute_deviations(instance, schedule)
    else:
        expected = list(brute_coalition_deviations(instance, schedule, coalition))
    assert expected and sorted(found) == expected


def test_cut_branches_count_as_resolved():
    instance = random_instance(0, 3, 16, 20)
    fractions = []
    for budget in (100, 300, 909):
        with pytest.raises(BudgetExceededError) as info:
            scan_deviations(
                ScanContext(instance, lpt(instance)), budget=budget, on_leaf=lambda *args: None
            )
        fractions.append(info.value.explored_fraction)
    assert 0 < fractions[0] <= fractions[1] <= fractions[2] < 1
    # 909 of the 910 nodes resolve nearly all 3^16 joint actions
    assert fractions[2] > Fraction(19, 20)


# equilibria on 3 machines and 8 jobs (sizes up to 20) that admit coalition
# moves, where a cut that dropped a profitable leaf would show
SEEDED = [("random-ne", s) for s in (3, 4, 9, 10, 12, 20, 26, 28)] + [
    ("lpt", s) for s in (1, 3, 20, 25, 31, 35)
]


@pytest.mark.parametrize("scheduler, seed", SEEDED)
def test_cut_keeps_every_leaf_of_seeded_equilibria(scheduler, seed):
    instance = random_instance(seed, 3, 8, 20)
    schedule = random_ne(instance, seed) if scheduler == "random-ne" else lpt(instance)
    expected = brute_deviations(instance, schedule)
    assert expected
    report = measure_report(instance, schedule)
    assert report.deviation_count == len(expected)
    witnesses = brute_measure_witnesses(instance, schedule, expected)
    got = [report.ir_min_witness, report.ir_max_witness, report.dr_max_witness]
    assert [w.after.assignment for w in got] == [joint for _, joint in witnesses]
    assert ir_min(instance, schedule).value == witnesses[0][0]
    assert is_strong(instance, schedule).witness.after.assignment == expected[0]
