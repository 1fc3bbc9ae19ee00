"""Twin-job symmetry reduction of the deviation scan, cross-checked
against the brute-force oracles on instances built to contain twins:
jobs with the same start machine and the same size (identical machines)
or matrix column (unrelated machines)."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from conftest import _best_response_equilibrium, twin_heavy_pairs
from oracles import (
    brute_coalition_deviation,
    brute_deviations,
    brute_first_unresolved,
    brute_measure_witnesses,
    brute_structure,
    dp_measures,
)
from schedgames.core import (
    BudgetExceededError,
    IdenticalInstance,
    Schedule,
    UnrelatedInstance,
    load_profile,
)
from schedgames import equilibria
from schedgames.equilibria import (
    ScanContext,
    _StopScan,
    enumerate_profitable_deviations,
    is_strong,
    profitable_deviation,
    scan_deviations,
)
from schedgames.experiments import random_instance, random_ne
from schedgames.measures import ir_min, measure_report, structural_report
from schedgames.schedulers import lpt
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
    ctx = ScanContext(instance, Schedule((1, 1, 1, 1)))
    scan_deviations(
        ctx, budget=10**6, on_leaf=lambda ctx, assign, loads, caps: leaves.append(tuple(assign))
    )
    assert leaves == sorted(leaves)
    assert all(list(leaf) == sorted(leaf) for leaf in leaves)
    assert sum(ctx.orbit_size(leaf) for leaf in leaves) == len(
        brute_deviations(instance, Schedule((1, 1, 1, 1)))
    )


def test_budget_fraction_stays_a_share_under_twin_bound():
    instance = IdenticalInstance(m=3, p=(1,) * 12)
    fractions = []
    for budget in (5, 50, 200):
        with pytest.raises(BudgetExceededError) as info:
            scan_deviations(
                ScanContext(instance, Schedule((1,) * 12)),
                budget=budget,
                on_leaf=lambda *args: None,
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


@pytest.mark.parametrize("k, nodes", [(11, 606), (13, 800), (21, 1_856)])
def test_partition_family_node_count_is_pinned(k, nodes):
    # the smallest budget that decides: a strong schedule costs only the
    # scan by size, where one by index takes 3,299, 4,583 and 12,099 nodes;
    # machines 2 and 3 carry the same gadget pair, so the scan skips a job's
    # branch to machine 3 while both hold just their residents (618, 814
    # and 1,878 nodes without that rule)
    art = reduce_partition_identical([3] * k + [5])
    assert is_strong(art.instance, art.start_schedule, node_budget=nodes).holds
    with pytest.raises(BudgetExceededError):
        is_strong(art.instance, art.start_schedule, node_budget=nodes - 1)


def test_partition_split_node_count_is_pinned():
    # not strong: the scan by size stops at its first leaf after 124 nodes,
    # and the scan by index then finds the lexicographically smallest
    # witness in 3,842 more, on the budget the first scan left; it skips
    # the branches that mirror machine 2 on machine 3 (5,035 without that)
    art = reduce_partition_identical((3, 4, 7, 5, 8, 7))
    # `on_leaf` ends a scan by raising `_StopScan`, and the scan returns
    # the nodes up to that leaf, which `is_strong` charges to its budget
    ctx = ScanContext(art.instance, art.start_schedule)

    def stop(ctx, assign, loads, caps):
        raise _StopScan

    assert scan_deviations(ctx, budget=10**6, on_leaf=stop, by_size=True, first=True) == 124
    assert scan_deviations(ctx, budget=10**6, on_leaf=stop, first=True) == 3_842
    result = is_strong(art.instance, art.start_schedule, node_budget=3_966)
    assert result.witness.after.assignment == (2, 3, 2, 3, 3, 2, 1, 1, 2, 3)
    # a stop in the scan by index counts both scans against the caller's
    # budget, reports its own share in index order, and carries the
    # deviation the scan by size found, certified but not the smallest
    found = (3, 2, 3, 2, 2, 3, 1, 1, 2, 3)
    for budget, nodes, fraction in [
        (3_965, 3_966, Fraction(37_022, 59_049)),
        (200, 201, Fraction(103, 6_561)),
        (124, 125, 0),  # the scan by index stops on its first node
    ]:
        with pytest.raises(BudgetExceededError) as info:
            is_strong(art.instance, art.start_schedule, node_budget=budget)
        stop = info.value
        assert (stop.nodes, stop.budget, stop.explored_fraction) == (nodes, budget, fraction)
        assert stop.best.after.assignment == found
        assert stop.best == profitable_deviation(art.instance, art.start_schedule, stop.best.after)
    # a stop in the scan by size reports that scan's share, in size order,
    # and carries no deviation
    for budget, fraction in [(123, Fraction(33_278, 59_049)), (50, Fraction(1, 3))]:
        with pytest.raises(BudgetExceededError) as info:
            is_strong(art.instance, art.start_schedule, node_budget=budget)
        stop = info.value
        assert (stop.nodes, stop.budget, stop.explored_fraction) == (budget + 1, budget, fraction)
        assert stop.best is None


# --- oracle cross-checks ---------------------------------------------------


@given(PAIRS)
def test_enumeration_matches_oracle_in_order(pair):
    instance, schedule = pair
    sweep = enumerate_profitable_deviations(instance, schedule)
    assert sweep.complete
    # the oracle enumerates itertools.product, i.e. lexicographically
    assert [d.after.assignment for d in sweep] == brute_deviations(instance, schedule)
    assert all(d.coalition == d.migrants for d in sweep)


# sizes against index order: the stop has met a deviation past the cutoff
@example((IdenticalInstance(m=2, p=(1, 2, 3)), Schedule((1, 1, 1))), 8)
@given(PAIRS, st.integers(1, 300))
def test_enumeration_budget_stop_is_oracle_prefix(pair, budget):
    # complete iff the budget covers the whole scan; a stop keeps exactly
    # the oracle's deviations below the first joint action, in index
    # order, that the scan left unresolved: the cutoff, read here by full
    # enumeration off the explored_fraction of the same scan.  The order
    # is read off the scan the enumeration runs (by size, which
    # test_enumeration_finishing_budget_is_pinned fixes), so that this
    # checks the cutoff against whichever order that scan ran in.
    instance, schedule = pair
    expected = brute_deviations(instance, schedule)
    orders = []
    kernel = equilibria.scan_deviations

    def spy(ctx, **kwargs):
        orders.append(kwargs.get("by_size", False))
        return kernel(ctx, **kwargs)

    with mock.patch.object(equilibria, "scan_deviations", spy):
        sweep = enumerate_profitable_deviations(instance, schedule, node_budget=budget)
    [by_size] = orders
    got = [d.after.assignment for d in sweep]
    ctx = ScanContext(instance, schedule)
    nodes = scan_deviations(ctx, budget=10**8, on_leaf=lambda *leaf: None, by_size=by_size)
    assert sweep.complete == (nodes <= budget)
    if sweep.complete:
        assert got == expected
        return
    with pytest.raises(BudgetExceededError) as info:
        scan_deviations(ctx, budget=budget, on_leaf=lambda *leaf: None, by_size=by_size)
    order = range(instance.n)
    if by_size:
        # by non-increasing size on the start machine, ties by index
        own = [instance.processing_time(j, i) for j, i in enumerate(schedule.assignment, 1)]
        order = sorted(order, key=lambda j: (-own[j], j))
    cutoff = brute_first_unresolved(instance.m, instance.n, order, info.value.explored_fraction)
    assert got == [joint for joint in expected if joint < cutoff]


# two starts that are not equilibria, with the smallest budget on which the
# enumeration, scanning by size, is complete; by index it takes 13,929 and
# 2,133 nodes
FINISHING = [
    pytest.param(
        IdenticalInstance(m=3, p=(10, 12, 19, 10, 11, 12, 4, 11, 13)),
        Schedule((3, 1, 1, 1, 3, 3, 1, 3, 3)),
        11_085,
        id="identical-m3n9-twins",
    ),
    pytest.param(
        UnrelatedInstance(
            m=3,
            p=((4, 7, 2, 9, 5, 3, 8, 6), (6, 3, 8, 2, 7, 5, 4, 9), (5, 5, 6, 4, 3, 8, 7, 2)),
        ),
        Schedule((1, 1, 1, 1, 2, 2, 3, 3)),
        1_167,
        id="unrelated-m3n8",
    ),
]


@pytest.mark.parametrize("instance, schedule, budget", FINISHING)
def test_enumeration_finishing_budget_is_pinned(instance, schedule, budget):
    assert enumerate_profitable_deviations(instance, schedule, node_budget=budget).complete
    stopped = enumerate_profitable_deviations(instance, schedule, node_budget=budget - 1)
    assert not stopped.complete


@given(PAIRS)
def test_measure_report_matches_oracle(pair):
    instance, schedule = pair
    report = measure_report(instance, schedule)
    expected = brute_deviations(instance, schedule)
    assert report.exhaustive
    assert report.deviation_count == len(expected)
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


# machines 1 and 2 start with equal loads but different residents, so they
# are not interchangeable: the smallest witness sends job 1 to machine 2
# and job 5 away, which has no mirror on machine 1
@example((IdenticalInstance(m=3, p=(6, 4, 2, 5, 3)), Schedule((3, 3, 2, 1, 2))))
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
    result = is_strong(instance, schedule, coalition=coalition)
    expected = brute_coalition_deviation(instance, schedule, coalition)
    assert result.holds == (expected is None)
    assert (None if result.holds else result.witness.after.assignment) == expected


def _reduction(values):
    art = reduce_partition_identical(values)
    return art.instance, art.start_schedule


def _strong_reduction(k):
    """3, 6, ..., 3(k - 1) and one value that is no multiple of 3 and
    makes the total even: no half-sum split, so the schedule is strong."""
    values = [3 * v for v in range(1, k)]
    return _reduction(values + [5 if sum(values) % 2 else 4])


def _random_equilibrium(seed):
    instance = random_instance(seed, 3, 10 + seed % 3, 20)
    return instance, random_ne(instance, seed)


def _random_unrelated(seed, equilibrium):
    """Three unrelated machines, 10 to 12 jobs of sizes 1..20, and a
    random start, driven to an equilibrium or not."""
    rng = random.Random(seed)
    n = 10 + seed % 3
    p = tuple(tuple(rng.randint(1, 20) for _ in range(n)) for _ in range(3))
    instance = UnrelatedInstance(m=3, p=p)
    start = [rng.randint(1, 3) for _ in range(n)]
    if equilibrium:
        return instance, _best_response_equilibrium(instance, start)
    return instance, Schedule(tuple(start))


@pytest.mark.parametrize(
    "pair",
    [
        *(pytest.param(_strong_reduction(k), id=f"strong-k{k}") for k in (10, 11)),
        pytest.param(_reduction((3, 4, 7, 5, 8, 7)), id="split"),
        *(pytest.param(_random_equilibrium(seed), id=f"random-ne-{seed}") for seed in range(5)),
        *(
            pytest.param(_random_unrelated(seed, kind == "ne"), id=f"unrelated-{kind}-{seed}")
            for kind in ("ne", "start")
            for seed in range(3)
        ),
    ],
)
def test_deviation_count_matches_dp_oracle(pair):
    # 10 to 15 jobs, past the reach of the brute-force oracles: the count
    # and all three measures
    instance, schedule = pair
    count, *values = dp_measures(instance, schedule)
    assert is_strong(instance, schedule).holds == (count == 0)
    report = measure_report(instance, schedule)
    assert report.exhaustive and report.deviation_count == count
    assert [report.ir_min, report.ir_max, report.dr_max] == values
    assert ir_min(instance, schedule).value == values[0]


@st.composite
def dp_scale_pairs(draw):
    """(instance, schedule) on 2 or 3 machines with 10 to 14 jobs, past
    the reach of the brute-force oracles: identical or unrelated machines
    with integer sizes up to 20, and a start that is a best-response
    equilibrium or, with one job moved off it, mostly not one.  Starts
    near an equilibrium keep the DP oracle's states few, so that the deep
    profile's 400 examples take under a minute."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(10, 14))
    size = st.integers(1, 20)
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(size, min_size=n, max_size=n), min_size=m, max_size=m))
        instance = UnrelatedInstance(m=m, p=tuple(map(tuple, rows)))
    else:
        instance = IdenticalInstance(m=m, p=tuple(draw(st.lists(size, min_size=n, max_size=n))))
    start = draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
    schedule = _best_response_equilibrium(instance, start)
    if draw(st.booleans()):
        assignment = list(schedule.assignment)
        j = draw(st.integers(0, n - 1))
        assignment[j] = draw(st.sampled_from([i for i in range(1, m + 1) if i != assignment[j]]))
        schedule = Schedule(tuple(assignment))
    return instance, schedule


@given(dp_scale_pairs())
def test_measures_match_dp_oracle_at_scale(pair):
    # the count, all three measures, ir_min's own scan and the
    # enumeration's length, each against the DP oracle
    instance, schedule = pair
    count, *values = dp_measures(instance, schedule)
    report = measure_report(instance, schedule)
    assert report.exhaustive and report.deviation_count == count
    assert [report.ir_min, report.ir_max, report.dr_max] == values
    best = ir_min(instance, schedule)
    assert best.exhaustive and best.value == values[0]
    deviations = enumerate_profitable_deviations(instance, schedule)
    assert deviations.complete and len(deviations) == count


def _twin_equilibria(count):
    """Three-machine equilibria of 9 to 12 jobs drawn from a few base
    sizes: LPT schedules and best-response ones from a random start, in
    turn.  About one in eight admits a deviation with twins among its
    movers."""
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(9, 12)
        bases = [rng.randint(1, 30) for _ in range(rng.randint(4, 6))]
        instance = IdenticalInstance(m=3, p=tuple(rng.choice(bases) for _ in range(n)))
        if seed % 2:
            yield instance, lpt(instance)
        else:
            start = [rng.randint(1, 3) for _ in range(n)]
            yield instance, _best_response_equilibrium(instance, start)


def test_structure_is_constant_on_twin_orbits():
    # the sweep checks the structural lemmas on orbit representatives only
    relabelled = 0
    for instance, schedule in _twin_equilibria(120):
        ctx = ScanContext(instance, schedule)
        reps = []
        scan_deviations(
            ctx, budget=10**6, on_leaf=lambda ctx, assign, loads, caps: reps.append(tuple(assign))
        )
        for rep in reps:
            plain, unit = (
                structural_report(instance, schedule, ctx.deviation(rep).after, lpt_origin=origin)
                for origin in (False, True)
            )
            for member in ctx.orbit(rep):
                after = ctx.deviation(member).after
                assert structural_report(instance, schedule, after) == plain
                assert structural_report(instance, schedule, after, lpt_origin=True) == unit
                ref = brute_structure(instance, schedule, after)
                assert unit.center == ref["center"] and unit.flower == ref["flower"]
                assert unit.receivers_also_lose == ref["receivers_send"]
                assert unit.outer_loads_increase == ref["outer_up"]
                assert unit.center_becomes_least_loaded == ref["center_down"]
                assert unit.unit_job == ref["unit_job"]
                assert unit.incoming_per_unit == ref["incoming"]
                assert unit.staying_per_unit == ref["staying"]
                relabelled += member != rep
    assert relabelled > 100
