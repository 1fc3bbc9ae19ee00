from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import instance_with_schedule
from oracles import brute_deviations
from schedgames.core import (
    BudgetExceededError,
    IdenticalInstance,
    Schedule,
    UnrelatedInstance,
    ValidationError,
    load_profile,
)
from schedgames.equilibria import (
    ScanContext,
    can_coalition_deviate,
    enumerate_profitable_deviations,
    improving_moves,
    is_nash,
    is_strong,
    profitable_deviation,
)
from schedgames.experiments import random_instance, random_ne
from schedgames.measures import ir_min, measure_report

FIG1 = IdenticalInstance(m=3, p=(5, 5, 3, 2, 3, 2))
FIG1_NE = Schedule((1, 1, 2, 2, 3, 3))
FIG1_MOVE = Schedule((2, 3, 2, 1, 3, 1))


# --- is_nash ------------------------------------------------------------


def test_benchmark_schedule_is_equilibrium():
    assert is_nash(FIG1, FIG1_NE).holds


def test_single_job_is_equilibrium_anywhere():
    assert is_nash(IdenticalInstance(m=3, p=(4,)), Schedule((2,))).holds


def test_overloaded_machine_is_not_equilibrium():
    schedule = Schedule((1, 1, 1, 2, 3, 3))
    result = is_nash(FIG1, schedule)
    assert not result.holds
    # lowest-index improving job first, then lowest machine: job 1 to machine 2
    assert result.witness == (1, 2)
    # the size-3 job's move to machine 2 is improving as well
    assert (3, 2) in [(j, i) for j, i, _ in improving_moves(FIG1, schedule)]


def test_is_nash_on_unrelated_instance():
    instance = UnrelatedInstance(m=2, p=((1, Fraction(1, 10)), (Fraction(1, 10), 1)))
    assert is_nash(instance, Schedule((1, 2))).holds
    result = is_nash(instance, Schedule((1, 1)))
    assert not result.holds
    assert result.witness == (1, 2)  # job 1 runs in 1/10 on machine 2


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


# --- can_coalition_deviate ------------------------------------------------


def test_benchmark_coalition_of_movers_can_deviate():
    deviation = can_coalition_deviate(FIG1, FIG1_NE, {1, 2, 4, 6})
    assert deviation is not None
    assert deviation.after.assignment == FIG1_MOVE.assignment
    assert deviation.coalition == frozenset({1, 2, 4, 6})


def test_singleton_coalition_cannot_deviate_from_equilibrium():
    for j in range(1, 7):
        assert can_coalition_deviate(FIG1, FIG1_NE, {j}) is None


def test_mid_size_jobs_cannot_deviate_alone():
    assert can_coalition_deviate(FIG1, FIG1_NE, {3, 5}) is None


def test_empty_coalition_cannot_deviate():
    assert can_coalition_deviate(FIG1, FIG1_NE, set()) is None


def test_coalition_with_staying_member_must_still_improve():
    # machine 1 holds (4, 1); the unit job improves by moving off, and
    # the size-4 job improves by the same move without migrating
    instance = IdenticalInstance(m=2, p=(4, 1))
    schedule = Schedule((1, 1))
    deviation = can_coalition_deviate(instance, schedule, {1, 2})
    assert deviation is not None
    assert deviation.migrants == frozenset({2})
    assert deviation.coalition == frozenset({1, 2})


def test_coalition_rejects_bad_member():
    with pytest.raises(ValidationError):
        can_coalition_deviate(FIG1, FIG1_NE, {0})


# --- enumerate_profitable_deviations --------------------------------------


def test_enumeration_is_empty_on_strong_schedule():
    instance = IdenticalInstance(m=3, p=(2, 2, 2))
    sweep = enumerate_profitable_deviations(instance, Schedule((1, 2, 3)))
    assert len(sweep) == 0 and sweep.complete


def test_enumeration_contains_benchmark_deviation():
    sweep = enumerate_profitable_deviations(FIG1, FIG1_NE)
    assert sweep.complete
    assert FIG1_MOVE.assignment in [d.after.assignment for d in sweep]


def test_enumeration_respects_limit():
    sweep = enumerate_profitable_deviations(FIG1, FIG1_NE, limit=1)
    assert len(sweep) == 1 and not sweep.complete
    with pytest.raises(ValidationError):
        enumerate_profitable_deviations(FIG1, FIG1_NE, limit=0)


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
                instance, schedule, budget=budget, on_leaf=lambda *args: None
            )
        assert budget < info.value.nodes <= 2 * budget


def test_enumeration_flags_truncation_on_budget():
    sweep = enumerate_profitable_deviations(
        IdenticalInstance(m=3, p=(1,) * 9), Schedule((1,) * 9), node_budget=50
    )
    assert not sweep.complete


def test_search_options_validation():
    with pytest.raises(ValidationError):
        is_strong(FIG1, FIG1_NE, node_budget=0)


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
