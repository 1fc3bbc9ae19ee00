"""The load-conservation cut of the deviation scan, cross-checked against
the brute-force oracles on equilibrium starts, where it fires most: LPT
and best-response equilibria on three identical or unrelated machines.
Node counts are deterministic, so the smallest budget that finishes a
search is pinned exactly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import equilibrium_pairs
from oracles import brute_coalition_deviation, brute_deviations, brute_measure_witnesses
from schedgames.core import BudgetExceededError
from schedgames.equilibria import (
    ScanContext,
    can_coalition_deviate,
    enumerate_profitable_deviations,
    is_nash,
    is_strong,
    scan_deviations,
)
from schedgames.experiments import random_instance, random_ne
from schedgames.measures import ir_min, measure_report
from schedgames.schedulers import lpt

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
    deviation = can_coalition_deviate(instance, schedule, coalition)
    expected = brute_coalition_deviation(instance, schedule, coalition)
    assert (None if deviation is None else deviation.after.assignment) == expected


@pytest.mark.parametrize(
    "seed, n, nodes, deviations",
    [
        (0, 14, 42, 0),
        (34, 14, 29_349, 23),
        (35, 15, 56_284, 509),
        (0, 16, 7_424, 0),
        (57, 16, 46_468, 31),
    ],
)
def test_lpt_measure_report_node_count_is_pinned(seed, n, nodes, deviations):
    # LPT schedules are equilibria, where most branches cannot conserve
    # load: the scan without the cut visits 300,126 / 484,119 / 480,089 /
    # 2,340,157 / 750,625 nodes here
    instance = random_instance(seed, 3, n, 20)
    schedule = lpt(instance)
    report = measure_report(instance, schedule, node_budget=nodes)
    assert report.exhaustive and report.nodes == nodes
    assert report.deviation_count == deviations
    short = measure_report(instance, schedule, node_budget=nodes - 1)
    assert not short.exhaustive and short.nodes == nodes


def test_cut_branches_count_as_resolved():
    instance = random_instance(0, 3, 16, 20)
    fractions = []
    for budget in (1_000, 3_000, 7_000):
        with pytest.raises(BudgetExceededError) as info:
            scan_deviations(
                ScanContext(instance, lpt(instance)), budget=budget, on_leaf=lambda *args: None
            )
        fractions.append(info.value.explored_fraction)
    assert 0 < fractions[0] <= fractions[1] <= fractions[2] < 1
    # 7,000 of the 7,424 nodes resolve nearly all 3^16 joint actions
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
