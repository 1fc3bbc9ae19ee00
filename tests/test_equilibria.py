import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import instance_with_schedule, twin_heavy_pairs, unrelated_with_schedule
from oracles import brute_deviations, brute_improving_moves, brute_non_improver, brute_ratio_maps
from schedgames.core import (
    BudgetExceededError,
    IdenticalInstance,
    Schedule,
    UnrelatedInstance,
    ValidationError,
    load_profile,
)
from schedgames.equilibria import (
    Deviation,
    ScanContext,
    _StopScan,
    enumerate_profitable_deviations,
    is_nash,
    is_strong,
    profitable_deviation,
    scan_deviations,
)
from schedgames.experiments import random_instance, random_ne
from schedgames.measures import deviation_stats, ir_min, measure_report
from schedgames.witnesses import reduce_partition_identical, reduce_partition_unrelated

FIG1 = IdenticalInstance(m=3, p=(5, 5, 3, 2, 3, 2))
FIG1_NE = Schedule((1, 1, 2, 2, 3, 3))
FIG1_MOVE = Schedule((2, 3, 2, 1, 3, 1))


# --- is_nash ------------------------------------------------------------


def _moved(instance, schedule, job, machine):
    """The certified one-job deviation of `job` moving alone to `machine`."""
    after = list(schedule.assignment)
    after[job - 1] = machine
    return profitable_deviation(instance, schedule, Schedule(tuple(after)))


def test_benchmark_schedule_is_equilibrium():
    assert is_nash(FIG1, FIG1_NE).holds


def test_single_job_is_equilibrium_anywhere():
    assert is_nash(IdenticalInstance(m=3, p=(4,)), Schedule((2,))).holds


def test_overloaded_machine_is_not_equilibrium():
    schedule = Schedule((1, 1, 1, 2, 3, 3))
    result = is_nash(FIG1, schedule)
    assert not result.holds
    # lowest-index improving job first, then lowest machine: job 1 to machine 2
    assert result.witness == _moved(FIG1, schedule, 1, 2)
    assert result.witness.migrants == result.witness.coalition == frozenset({1})
    # the size-3 job's move to machine 2 is improving as well (0-based: job
    # 2 to machine 1)
    assert (2, 1) in [(j, i) for j, i, _ in ScanContext(FIG1, schedule).improving_moves()]


def test_is_nash_on_unrelated_instance():
    instance = UnrelatedInstance(m=2, p=((1, Fraction(1, 10)), (Fraction(1, 10), 1)))
    assert is_nash(instance, Schedule((1, 2))).holds
    result = is_nash(instance, Schedule((1, 1)))
    assert not result.holds
    # job 1 runs in 1/10 on machine 2
    assert result.witness == _moved(instance, Schedule((1, 1)), 1, 2)


# --- is_strong --------------------------------------------------------------


def test_benchmark_deviation_is_found_lex_first():
    deviation = is_strong(FIG1, FIG1_NE).witness
    assert deviation.after.assignment == FIG1_MOVE.assignment
    assert deviation.migrants == frozenset({1, 2, 4, 6})
    assert deviation.coalition == deviation.migrants


def test_equal_jobs_spread_out_is_strong():
    instance = IdenticalInstance(m=3, p=(2, 2, 2))
    assert is_strong(instance, Schedule((1, 2, 3))).witness is None


def test_benchmark_schedule_is_not_strong():
    result = is_strong(FIG1, FIG1_NE)
    assert not result.holds
    assert result.witness.after.assignment == FIG1_MOVE.assignment


def test_lpt_on_balanced_instance_agrees_with_enumeration_oracle():
    instance = IdenticalInstance(m=3, p=(5, 5, 3, 3, 2, 2))
    schedule = Schedule((1, 2, 3, 3, 1, 2))  # the greedy size-ordered result
    assert load_profile(instance, schedule).loads == (7, 7, 6)
    assert is_strong(instance, schedule).holds == (not brute_deviations(instance, schedule))


def test_reduction_start_schedule_without_split_is_strong():
    # inputs 3,3,3,5 have no half-sum split
    instance = IdenticalInstance(m=3, p=(3, 3, 3, 5, 5, 5, 6, 6))
    schedule = Schedule((1, 1, 1, 1, 2, 3, 2, 3))
    assert is_nash(instance, schedule).holds
    assert is_strong(instance, schedule).holds


@given(st.data())
@settings(max_examples=40)
def test_two_machine_equilibria_are_strong(data):
    seed = data.draw(st.integers(0, 2**32))
    n = data.draw(st.integers(1, 7))
    instance = random_instance(seed, 2, n, 9)
    schedule = random_ne(instance, seed ^ 0xABCDEF)
    assert is_nash(instance, schedule).holds
    assert is_strong(instance, schedule).holds


@given(instance_with_schedule(min_m=2, max_m=2, min_n=1, max_n=6))
def test_two_machine_stability_notions_coincide(pair):
    instance, schedule = pair
    assert is_nash(instance, schedule).holds == is_strong(instance, schedule).holds


# --- is_strong with a coalition --------------------------------------------


def test_benchmark_coalition_of_movers_can_deviate():
    result = is_strong(FIG1, FIG1_NE, coalition={1, 2, 4, 6})
    assert not result.holds
    deviation = result.witness
    assert deviation.after.assignment == FIG1_MOVE.assignment
    assert deviation.coalition == frozenset({1, 2, 4, 6})


def test_singleton_coalition_cannot_deviate_from_equilibrium():
    for j in range(1, 7):
        assert is_strong(FIG1, FIG1_NE, coalition={j}).holds


def test_mid_size_jobs_cannot_deviate_alone():
    assert is_strong(FIG1, FIG1_NE, coalition={3, 5}).holds


def test_empty_coalition_cannot_deviate():
    assert is_strong(FIG1, FIG1_NE, coalition=set()).holds


def test_coalition_with_staying_member_must_still_improve():
    # machine 1 holds (4, 1); the unit job improves by moving off, and
    # the size-4 job improves by the same move without migrating
    instance = IdenticalInstance(m=2, p=(4, 1))
    schedule = Schedule((1, 1))
    result = is_strong(instance, schedule, coalition={1, 2})
    assert not result.holds
    deviation = result.witness
    assert deviation.migrants == frozenset({2})
    assert deviation.coalition == frozenset({1, 2})


def test_coalition_rejects_bad_member():
    with pytest.raises(ValidationError):
        is_strong(FIG1, FIG1_NE, coalition={0})


def test_coalition_rejects_a_repeated_member():
    # a repeated job is malformed input, not the same coalition named once
    with pytest.raises(ValidationError, match="job 1 twice"):
        is_strong(FIG1, FIG1_NE, coalition=[1, 1, 2, 2, 4, 4, 6, 6])
    with pytest.raises(ValidationError, match="job 1 twice"):
        profitable_deviation(FIG1, FIG1_NE, FIG1_MOVE, coalition=[1, 1, 2, 4, 6])


# --- enumerate_profitable_deviations --------------------------------------


def test_enumeration_is_empty_on_strong_schedule():
    instance = IdenticalInstance(m=3, p=(2, 2, 2))
    sweep = enumerate_profitable_deviations(instance, Schedule((1, 2, 3)))
    assert len(sweep) == 0 and sweep.complete


def test_enumeration_contains_benchmark_deviation():
    sweep = enumerate_profitable_deviations(FIG1, FIG1_NE)
    assert sweep.complete
    assert FIG1_MOVE.assignment in [d.after.assignment for d in sweep]


@given(instance_with_schedule(min_m=2, max_m=3, min_n=1, max_n=6))
def test_enumeration_matches_unpruned_oracle(pair):
    instance, schedule = pair
    sweep = enumerate_profitable_deviations(instance, schedule)
    assert sweep.complete
    got = sorted(d.after.assignment for d in sweep)
    assert got == sorted(brute_deviations(instance, schedule))
    # lexicographic emission order
    assert [d.after.assignment for d in sweep] == sorted(d.after.assignment for d in sweep)


@given(instance_with_schedule(min_m=2, max_m=3, min_n=1, max_n=6))
def test_find_none_iff_enumeration_empty(pair):
    instance, schedule = pair
    found = is_strong(instance, schedule).witness
    sweep = enumerate_profitable_deviations(instance, schedule)
    assert (found is None) == (len(sweep) == 0)


@given(st.data())
@settings(max_examples=40)
def test_equilibrium_originated_deviations_have_structure(data):
    """On equilibria: whoever receives a migrant also loses one, and every
    coalition has at least four movers."""
    seed = data.draw(st.integers(0, 2**32))
    m = data.draw(st.integers(2, 3))
    n = data.draw(st.integers(1, 7))
    instance = random_instance(seed, m, n, 9)
    schedule = random_ne(instance, seed ^ 0x5EED)
    for deviation in enumerate_profitable_deviations(instance, schedule):
        assert len(deviation.migrants) >= 4
        sources = {deviation.before.machine_of(j) for j in deviation.migrants}
        targets = {deviation.after.machine_of(j) for j in deviation.migrants}
        assert targets <= sources


def test_strong_implies_equilibrium_by_definition():
    # a deviation search that finds nothing in particular rules out
    # single-job moves, so any improving move refutes strength
    schedule = Schedule((1, 1, 1, 2, 3, 3))
    assert not is_nash(FIG1, schedule).holds
    assert not is_strong(FIG1, schedule).holds


# --- budgets ---------------------------------------------------------------


def test_budget_exhaustion_is_loud_and_reports_fraction():
    with pytest.raises(BudgetExceededError) as info:
        is_strong(FIG1, FIG1_NE, node_budget=4)
    err = info.value
    assert err.nodes > err.budget == 4
    assert 0 <= err.explored_fraction < 1


def test_budget_is_honored_within_factor_two():
    from schedgames.equilibria import scan_deviations

    # distinct sizes: no twin jobs, so the full scan needs far more than 1000 nodes
    instance = IdenticalInstance(m=3, p=tuple(range(1, 10)))
    schedule = Schedule((1,) * 9)
    for budget in (10, 100, 1000):
        with pytest.raises(BudgetExceededError) as info:
            scan_deviations(
                ScanContext(instance, schedule), budget=budget, on_leaf=lambda *args: None
            )
        assert budget < info.value.nodes <= 2 * budget


def _scan_order(ctx, by_size):
    """The jobs free to act in `ctx`, 0-based, in the order a scan with
    `by_size` places them: by index, or by non-increasing size on the
    start machine, ties by index."""
    if not by_size:
        return list(ctx.free)
    return sorted(ctx.free, key=lambda j: (-ctx.sizes[ctx.orig[j]][j], j))


def _brute_representatives(ctx, by_size):
    """(rank, joint action) of every profitable joint action of the jobs
    free to act in `ctx` whose targets do not decrease within any class
    of `ctx.twins`, by rank: the joint action read as a base-m number over
    the jobs in the scan order of `by_size`, 0-based.  Plain enumeration
    on `Fraction` loads."""
    instance, m = ctx.instance, ctx.m
    orig = [i - 1 for i in ctx.schedule.assignment]
    old = load_profile(instance, ctx.schedule).loads
    found = []
    for targets in itertools.product(range(m), repeat=len(ctx.free)):
        joint = list(orig)
        for j, i in zip(_scan_order(ctx, by_size), targets):
            joint[j] = i
        if joint == orig or any(
            joint[a] > joint[b] for c in ctx.twins for a, b in zip(c, c[1:])
        ):
            continue
        new = [Fraction(0)] * m
        for j, i in enumerate(joint):
            new[i] += instance.processing_time(j + 1, i + 1)
        acting = ctx.free if ctx.coalition is not None else [
            j for j in ctx.free if joint[j] != orig[j]
        ]
        if all(new[joint[j]] < old[orig[j]] for j in acting):
            rank = 0
            for i in targets:
                rank = rank * m + i
            found.append((rank, tuple(joint)))
    return found


@pytest.mark.parametrize("unrelated", [False, True], ids=["identical", "unrelated"])
@given(data=st.data())
def test_budget_stop_has_seen_exactly_the_representatives_it_resolved(unrelated, data):
    # a stop's explored_fraction is the share of joint actions, ranked in
    # visiting order, below the node where the budget ran out: the leaves
    # met before it are exactly the profitable representatives in that share
    instance, schedule = data.draw(twin_heavy_pairs(unrelated, min_m=2, max_n=6))
    coalition = data.draw(st.none() | st.sets(st.integers(1, instance.n)))
    ctx = ScanContext(instance, schedule, coalition)
    by_size = data.draw(st.booleans())
    expected = _brute_representatives(ctx, by_size)
    seen = []

    def leaf(ctx, assign, loads, caps):
        seen.append(tuple(assign))

    finished = scan_deviations(ctx, budget=10**6, on_leaf=leaf, by_size=by_size)
    assert seen == [joint for _, joint in expected]
    budgets = st.just([])
    if finished > 1:
        budgets = st.lists(st.integers(1, finished - 1), min_size=1, max_size=4)
    for budget in data.draw(budgets):
        seen.clear()
        with pytest.raises(BudgetExceededError) as info:
            scan_deviations(ctx, budget=budget, on_leaf=leaf, by_size=by_size)
        assert info.value.nodes == budget + 1
        resolved = info.value.explored_fraction * ctx.m ** len(ctx.free)
        assert resolved.denominator == 1
        assert seen == [joint for rank, joint in expected if rank < resolved]


def _stop(ctx, budget, by_size, on_leaf=lambda *args: None, first=False):
    """The stop of a scan of `ctx` on `budget`, or None if it finishes."""
    try:
        scan_deviations(ctx, budget=budget, on_leaf=on_leaf, by_size=by_size, first=first)
    except BudgetExceededError as stop:
        return stop
    return None


def _nodes_to_first_leaf(ctx, by_size, first=False):
    """The nodes a scan of `ctx` visits up to its first profitable leaf,
    the leaf included, by bisection on the budget; None without one."""
    seen = []

    def leaf(ctx, assign, loads, caps):
        seen.append(True)

    def reached(budget):
        seen.clear()
        _stop(ctx, budget, by_size, leaf, first)
        return bool(seen)

    low, high = 0, scan_deviations(ctx, budget=10**6, on_leaf=leaf, by_size=by_size, first=first)
    if not seen:
        return None
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if reached(middle) else (middle, high)
    return high


@pytest.mark.parametrize("unrelated", [False, True], ids=["identical", "unrelated"])
@given(data=st.data())
def test_a_stop_at_the_first_leaf_returns_the_nodes_up_to_it(unrelated, data):
    # `on_leaf` ends a scan by raising `_StopScan`, and the scan returns
    # the nodes it visited up to that leaf: the smallest budget that
    # reaches it; without a leaf, the scan's full count.  So too in a scan
    # that skips machines mirroring interchangeable ones (`first`)
    instance, schedule = data.draw(twin_heavy_pairs(unrelated, min_m=2, max_n=6))
    coalition = data.draw(st.none() | st.sets(st.integers(1, instance.n)))
    ctx = ScanContext(instance, schedule, coalition)
    by_size, first_only = data.draw(st.booleans()), data.draw(st.booleans())
    kwargs = dict(budget=10**6, by_size=by_size, first=first_only)

    def stop(ctx, assign, loads, caps):
        raise _StopScan

    first = _nodes_to_first_leaf(ctx, by_size, first_only)
    if first is None:
        first = scan_deviations(ctx, on_leaf=lambda *args: None, **kwargs)
    assert scan_deviations(ctx, on_leaf=stop, **kwargs) == first


@pytest.mark.parametrize("unrelated", [False, True], ids=["identical", "unrelated"])
@given(data=st.data())
def test_verdict_costs_scan_by_size_and_witness_adds_scan_by_index(unrelated, data):
    # a verdict costs the scan by size, to its end or to its first leaf; a
    # witness adds the scan by index to its first leaf, and the two share
    # one budget: a stop counts both, names the caller's budget and reports
    # the share resolved by the scan it stopped; a stop in the scan by
    # index carries the certified deviation the scan by size found.  Both
    # scans stop at their first leaf, so both skip mirrored machines
    instance, schedule = data.draw(twin_heavy_pairs(unrelated, min_m=2, max_n=6))
    coalition = data.draw(st.none() | st.sets(st.integers(1, instance.n)))
    ctx = ScanContext(instance, schedule, coalition)

    def first_deviation(budget):
        return is_strong(instance, schedule, node_budget=budget, coalition=coalition).witness

    first = _nodes_to_first_leaf(ctx, by_size=True, first=True)
    if first is None:
        cost = scan_deviations(
            ctx, budget=10**6, on_leaf=lambda *args: None, by_size=True, first=True
        )
    else:
        cost = first + _nodes_to_first_leaf(ctx, by_size=False, first=True)
    expected = first_deviation(10**6)
    assert (expected is None) == (first is None)
    assert first_deviation(max(cost, 1)) == expected
    budgets = []
    if cost > 1:
        budgets = [cost - 1, *data.draw(st.lists(st.integers(1, cost - 1), max_size=3))]
    for budget in budgets:
        with pytest.raises(BudgetExceededError) as info:
            first_deviation(budget)
        best = info.value.best
        if first is None or budget < first:
            scan = _stop(ctx, budget, by_size=True, first=True)
            assert best is None
        else:
            scan = _stop(ctx, budget - first, by_size=False, first=True)
            assert best == profitable_deviation(instance, schedule, best.after, coalition)
        assert (info.value.nodes, info.value.budget) == (budget + 1, budget)
        assert info.value.explored_fraction == scan.explored_fraction


def _reduction(values, unrelated=False):
    if unrelated:
        art = reduce_partition_unrelated(values, Fraction(1, len(values)))
    else:
        art = reduce_partition_identical(values)
    return art.instance, art.start_schedule


@pytest.mark.parametrize(
    "pair, coalition, holds",
    [
        pytest.param((FIG1, FIG1_NE), None, False, id="figure-1"),
        pytest.param((FIG1, FIG1_NE), {1, 2, 4, 6}, False, id="figure-1-movers"),
        pytest.param((FIG1, FIG1_NE), {1}, True, id="figure-1-singleton"),
        pytest.param(_reduction((3, 4, 7, 5, 8, 7)), None, False, id="split"),
        pytest.param(_reduction((3, 4, 7, 5, 8, 7)), range(1, 9), False, id="split-movers"),
        pytest.param(_reduction((3, 4, 7, 5, 8, 7)), range(1, 7), True, id="split-inputs"),
        pytest.param(_reduction((3, 3, 3, 5)), None, True, id="no-split"),
        pytest.param(_reduction((3, 3, 4, 4), unrelated=True), None, False, id="unrelated-split"),
        pytest.param(
            _reduction((3, 3, 4, 4), unrelated=True), {1, 3, 5}, False,
            id="unrelated-split-coalition",
        ),
        pytest.param(_reduction((3, 3, 3, 5), unrelated=True), None, True, id="unrelated-no-split"),
        pytest.param(
            _reduction((3, 3, 3, 5), unrelated=True), {1, 2, 5}, True,
            id="unrelated-no-split-coalition",
        ),
    ],
)
def test_each_first_deviation_call_builds_one_scan_context(monkeypatch, pair, coalition, holds):
    # each `is_strong` call, with or without a coalition, validates and
    # builds one context, which its scans by size and by index both read
    instance, schedule = pair
    built = []
    init = ScanContext.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ScanContext, "__init__", counted)
    result = is_strong(instance, schedule, coalition=coalition)
    assert result.holds == holds
    assert (result.witness is None) == holds
    assert len(built) == 1


def test_enumeration_flags_truncation_on_budget():
    sweep = enumerate_profitable_deviations(
        IdenticalInstance(m=3, p=(1,) * 9), Schedule((1,) * 9), node_budget=50
    )
    assert not sweep.complete


def test_search_options_validation():
    with pytest.raises(ValidationError):
        is_strong(FIG1, FIG1_NE, node_budget=0)


def test_scan_decides_up_to_its_job_limit():
    # one frame per job free to act: 500 decide, 501 are rejected up front
    for n in (500, 501):
        instance = IdenticalInstance(m=2, p=(1,) * n)
        schedule = Schedule((1,) * (n - n // 2) + (2,) * (n // 2))
        if n == 500:
            assert is_strong(instance, schedule, node_budget=10**5).holds
        else:
            with pytest.raises(ValidationError, match="at most 500 jobs"):
                is_strong(instance, schedule, node_budget=10**5)
    # a coalition scan counts its members only
    instance = IdenticalInstance(m=2, p=(1,) * 1200)
    schedule = Schedule((1,) * 600 + (2,) * 600)
    assert is_strong(instance, schedule, coalition=[1, 601]).holds


# --- deviation construction -------------------------------------------------


def test_profitable_deviation_validates():
    deviation = profitable_deviation(FIG1, FIG1_NE, FIG1_MOVE)
    assert deviation.migrants == frozenset({1, 2, 4, 6})


def test_profitable_deviation_rejects_identity():
    with pytest.raises(ValidationError):
        profitable_deviation(FIG1, FIG1_NE, FIG1_NE)


def test_profitable_deviation_names_non_improver():
    bad = Schedule((1, 1, 3, 2, 2, 3))  # the two size-3 jobs swap, improving nobody
    with pytest.raises(ValidationError, match="job 3"):
        profitable_deviation(FIG1, FIG1_NE, bad)


def test_profitable_deviation_rejects_mover_outside_coalition():
    with pytest.raises(ValidationError, match="not in the coalition"):
        profitable_deviation(FIG1, FIG1_NE, FIG1_MOVE, coalition={1, 2, 4})


@pytest.mark.parametrize(
    "coalition",
    [{1, 2, 4, 6, 0}, {1, 2, 4, 6, 7}, {1, 2, 4, 6, "3"}],
    ids=["zero", "past-last-job", "string"],
)
def test_profitable_deviation_rejects_bad_member(coalition):
    with pytest.raises(ValidationError, match="is not a job index in 1..6"):
        profitable_deviation(FIG1, FIG1_NE, FIG1_MOVE, coalition=coalition)


# rational sizes make the scale of the scan's integers exceed 1, so every
# load, cost and ratio read from them must divide it out
@given(
    pair=st.one_of(
        instance_with_schedule(min_n=1, max_n=5),
        unrelated_with_schedule(min_n=1, max_n=5),
        twin_heavy_pairs(unrelated=False, max_n=5),
        twin_heavy_pairs(unrelated=True, max_n=5),
    ),
    data=st.data(),
)
def test_scaled_loads_match_fraction_oracle(pair, data):
    instance, schedule = pair
    moves = brute_improving_moves(instance, schedule)
    ctx = ScanContext(instance, schedule)
    got = [(j + 1, i + 1, Fraction(cost, ctx.scale)) for j, i, cost in ctx.improving_moves()]
    assert got == moves
    nash = is_nash(instance, schedule)
    assert nash.holds == (not moves)
    assert nash.witness == (_moved(instance, schedule, *moves[0][:2]) if moves else None)
    for joint in brute_deviations(instance, schedule):
        stats = deviation_stats(instance, schedule, Schedule(joint))
        mover, bystander, damage = brute_ratio_maps(instance, schedule, joint)
        assert stats.mover_improvement == mover
        assert stats.bystander_improvement == bystander
        assert stats.damage == damage
    m, n = instance.m, instance.n
    after = Schedule(tuple(data.draw(st.lists(st.integers(1, m), min_size=n, max_size=n))))
    migrants = {j for j in range(1, n + 1) if after.machine_of(j) != schedule.machine_of(j)}
    members = migrants | data.draw(st.sets(st.integers(1, n)))
    culprit = brute_non_improver(instance, schedule, after, members)
    if migrants and culprit is not None:
        message = "job {} does not strictly improve ({} -> {})".format(*culprit)
        with pytest.raises(ValidationError, match=re.escape(message)):
            profitable_deviation(instance, schedule, after, coalition=members)


def test_improving_bystanders_on_benchmark_move():
    # machine 1 empties from 10 to 4, but both its jobs migrated; the
    # size-3 jobs stay on heavier machines, so nobody qualifies
    move = [i - 1 for i in FIG1_MOVE.assignment]
    assert ScanContext(FIG1, FIG1_NE).bystanders(move) == frozenset()


# --- maximize objectives (answered by the measures) --------------------------


def test_objective_maximize_min_improvement_on_benchmark():
    deviation = ir_min(FIG1, FIG1_NE).witness
    assert deviation.after.assignment == FIG1_MOVE.assignment


def test_objective_maximize_damage_on_benchmark():
    deviation = measure_report(FIG1, FIG1_NE).dr_max_witness
    loads = load_profile(FIG1, deviation.after).loads
    assert max(loads) == 8  # the size-3 jobs end up damaged 5 -> 8


def test_objective_plus_improvers_mode_attaches_bystanders():
    instance = IdenticalInstance(m=2, p=(4, 1))
    deviation = measure_report(instance, Schedule((1, 1))).ir_max_witness
    assert deviation.migrants == frozenset({2})
    assert deviation.coalition == frozenset({1, 2})


@given(
    st.one_of(
        instance_with_schedule(min_n=1),
        unrelated_with_schedule(min_n=1),
        twin_heavy_pairs(unrelated=False),
        twin_heavy_pairs(unrelated=True),
    )
)
def test_context_deviations_match_public_constructors(pair):
    # ScanContext builds its Deviation and Schedule past the dataclass
    # constructors; they must be indistinguishable from publicly built ones
    instance, schedule = pair
    ctx = ScanContext(instance, schedule)
    moves = []

    def leaf(ctx, assign, loads, caps):
        # the scan's own live list, then each orbit member as a tuple
        moves.append((list(assign), ctx.deviation(assign)))
        moves.extend((member, ctx.deviation(member)) for member in ctx.orbit(assign))

    scan_deviations(ctx, budget=10**6, on_leaf=leaf)
    for joint, got in moves:
        after = Schedule(tuple(i + 1 for i in joint))
        migrants = frozenset(
            j for j in range(1, instance.n + 1) if after.machine_of(j) != schedule.machine_of(j)
        )
        public = Deviation(before=schedule, after=after, migrants=migrants, coalition=migrants)
        for built in (public, profitable_deviation(instance, schedule, after)):
            assert got == built and hash(got) == hash(built) and repr(got) == repr(built)
        assert type(got) is Deviation and type(got.after) is Schedule
        assert got.after == after and hash(got.after) == hash(after)
        assert repr(got.after) == repr(after)
        assert ctx.migrants_of(joint) == migrants
        wider = migrants | ctx.bystanders(joint)
        assert ctx.deviation(joint, wider) == profitable_deviation(instance, schedule, after, wider)
