from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import identical_instances, instance_with_schedule, rationals, twin_heavy_pairs
from oracles import brute_measures, brute_structure
from schedgames.core import IdenticalInstance, Schedule, ValidationError, load_profile
from schedgames.equilibria import enumerate_profitable_deviations
from schedgames.experiments import random_ne
from schedgames.measures import (
    alpha_strong,
    check_flower,
    deviation_stats,
    ir_min,
    leq_lpt_three_machine_limit,
    lpt_min_improvement_limit,
    measure_report,
    ne_min_improvement_limit,
    structural_report,
)
from schedgames.schedulers import lpt
from schedgames.witnesses import figure1, figure3, figure9, footnote5

FIG1 = figure1()


# --- deviation_stats -----------------------------------------------------


def test_stats_of_benchmark_deviation():
    stats = deviation_stats(FIG1.instance, FIG1.schedule, FIG1.deviation.after)
    assert stats.mover_improvement == {j: Fraction(5, 4) for j in (1, 2, 4, 6)}
    assert stats.damage == {3: Fraction(8, 5), 5: Fraction(8, 5)}
    assert stats.bystander_improvement == {}
    assert stats.migration[0][1] and stats.migration[0][2]
    assert stats.migration[1][0] and stats.migration[2][0]
    assert not stats.migration[1][2] and not stats.migration[2][1]


def test_stats_of_swap_without_bystanders():
    fn5 = footnote5(Fraction(1, 10))
    stats = deviation_stats(fn5.instance, fn5.schedule, fn5.deviation.after)
    assert stats.damage == {}
    assert stats.mover_improvement == {1: Fraction(10), 2: Fraction(10)}


def test_stats_of_ratio_family_deviation():
    art = figure3(3)
    stats = deviation_stats(art.instance, art.schedule, art.deviation.after)
    assert stats.mover_improvement[4] == 3 and stats.mover_improvement[6] == 3
    assert stats.mover_improvement[1] == Fraction(12, 11)
    assert stats.mover_improvement[2] == Fraction(12, 11)
    assert stats.damage == {3: Fraction(11, 6), 5: Fraction(11, 6)}


def test_stats_reject_non_profitable_move():
    bad = Schedule((1, 1, 3, 2, 2, 3))
    with pytest.raises(ValidationError, match="job 3"):
        deviation_stats(FIG1.instance, FIG1.schedule, bad)


# --- the three measures ----------------------------------------------------


def test_benchmark_measures_exact():
    report = measure_report(FIG1.instance, FIG1.schedule)
    assert report.ir_min == Fraction(5, 4)
    assert report.ir_max == Fraction(5, 4)
    assert report.dr_max == Fraction(8, 5)
    assert report.exhaustive


def test_strong_schedule_measures_are_one():
    instance = IdenticalInstance(m=3, p=(2, 2, 2))
    schedule = Schedule((1, 2, 3))
    report = measure_report(instance, schedule)
    assert report.ir_min == report.ir_max == report.dr_max == 1
    assert report.strong
    assert report.ir_min_witness is None
    value = ir_min(instance, schedule)
    assert value.value == 1 and value.witness is None


def test_rounded_lpt_instance_min_improvement_bracket():
    art = figure9()
    value = ir_min(art.instance, art.schedule)
    assert Fraction(11115, 10000) <= value.value <= Fraction(1113, 1000)
    assert leq_lpt_three_machine_limit(value.value)


def test_ratio_family_max_improvement_is_r():
    art = figure3(3)
    report = measure_report(art.instance, art.schedule)
    assert report.ir_max == 3
    assert report.dr_max == Fraction(11, 6)


def test_swap_instance_min_improvement():
    fn5 = footnote5(Fraction(1, 10))
    assert ir_min(fn5.instance, fn5.schedule).value == 10


def test_measure_witnesses_reproduce_their_values():
    report = measure_report(FIG1.instance, FIG1.schedule)
    stats = deviation_stats(FIG1.instance, FIG1.schedule, report.ir_min_witness.after)
    assert stats.min_improvement == report.ir_min
    stats = deviation_stats(FIG1.instance, FIG1.schedule, report.dr_max_witness.after)
    assert stats.max_damage == report.dr_max


def test_budget_exhaustion_flags_report_inconclusive():
    report = measure_report(FIG1.instance, FIG1.schedule, node_budget=5)
    assert not report.exhaustive


@given(instance_with_schedule(min_m=2, max_m=3, min_n=1, max_n=6))
def test_measures_match_brute_force_oracle(pair):
    instance, schedule = pair
    report = measure_report(instance, schedule)
    assert (report.ir_min, report.ir_max, report.dr_max) == brute_measures(
        instance, schedule
    )
    fast = ir_min(instance, schedule)
    assert fast.value == report.ir_min and fast.exhaustive


@given(instance_with_schedule(min_m=2, max_m=3, min_n=1, max_n=6))
def test_measure_ordering_invariants(pair):
    instance, schedule = pair
    report = measure_report(instance, schedule)
    assert 1 <= report.ir_min <= report.ir_max
    assert report.dr_max >= 1
    assert report.strong == (report.deviation_count == 0)
    if report.strong:
        assert report.ir_min == report.ir_max == report.dr_max == 1
    else:
        # movers improve strictly, so a deviation forces ir_min above 1
        assert report.ir_min > 1


def test_alpha_strong_predicate():
    assert alpha_strong(FIG1.instance, FIG1.schedule, Fraction(5, 4))
    assert not alpha_strong(FIG1.instance, FIG1.schedule, Fraction(6, 5))
    assert measure_report(FIG1.instance, FIG1.schedule).is_alpha_strong(2)


# --- flower ------------------------------------------------------------------


def test_benchmark_deviation_obeys_flower():
    assert check_flower(FIG1.instance, FIG1.schedule, FIG1.deviation.after)


def test_ratio_family_deviation_obeys_flower():
    art = figure3(3)
    assert check_flower(art.instance, art.schedule, art.deviation.after)


def test_migration_between_light_machines_is_not_flower():
    # machine 1 stays untouched at load 10 while a job hops 2 -> 3
    instance = IdenticalInstance(m=3, p=(10, 1, 2))
    before = Schedule((1, 2, 2))
    after = Schedule((1, 2, 3))
    assert not check_flower(instance, before, after)


def test_flower_rejects_non_deviation():
    with pytest.raises(ValidationError):
        check_flower(FIG1.instance, FIG1.schedule, FIG1.schedule)


# --- structural report --------------------------------------------------------


def test_benchmark_structural_report_passes():
    report = structural_report(FIG1.instance, FIG1.schedule, FIG1.deviation.after)
    assert report.passed
    assert report.migrant_count == 4
    assert report.flower and report.outer_loads_increase and report.center_becomes_least_loaded
    assert report.center == 1
    new = load_profile(FIG1.instance, FIG1.deviation.after)
    assert new.loads == (4, 8, 8)


def test_structural_report_requires_equilibrium_start():
    instance = IdenticalInstance(m=3, p=(10, 1, 2))
    with pytest.raises(ValidationError):
        structural_report(instance, Schedule((1, 2, 2)), Schedule((1, 2, 3)))


def test_two_migrant_move_is_rejected_before_structure():
    bad = Schedule((1, 1, 3, 2, 2, 3))
    with pytest.raises(ValidationError):
        structural_report(FIG1.instance, FIG1.schedule, bad)


def test_rounded_instance_unit_normalized_quantities():
    art = figure9()
    report = structural_report(art.instance, art.schedule, art.deviation.after, lpt_origin=True)
    assert report.passed and report.unit_quantities_ok
    assert report.unit_job == 7
    assert all(v >= 1 for v in report.incoming_per_unit.values())
    assert all(v >= 1 for v in report.staying_per_unit.values())
    assert sorted(report.incoming_per_unit.values()) == [1, Fraction(1367, 1000)]
    assert sorted(report.staying_per_unit.values()) == [
        Fraction(1266, 1000),
        Fraction(1633, 1000),
    ]


# n >= 8 because smaller three-machine equilibria rarely admit a deviation
@given(
    instance=identical_instances(3, 3, 8, 10, sizes=rationals(max_value=100, max_denominator=1)),
    seed=st.integers(0, 2**32),
)
def test_structural_report_matches_oracle(instance, seed):
    for schedule in (lpt(instance), random_ne(instance, seed)):
        for dev in enumerate_profitable_deviations(instance, schedule):
            ref = brute_structure(instance, schedule, dev.after)
            stats = deviation_stats(instance, schedule, dev.after)
            assert stats.migration == ref["migration"]
            assert stats.loads_before == load_profile(instance, schedule).loads
            assert stats.loads_after == load_profile(instance, dev.after).loads
            assert check_flower(instance, schedule, dev.after) == ref["flower"]
            plain = structural_report(instance, schedule, dev.after)
            unit = structural_report(instance, schedule, dev.after, lpt_origin=True)
            for report in (plain, unit):
                assert report.center == ref["center"]
                assert report.flower == ref["flower"]
                assert report.migrant_count == len(dev.migrants)
            assert plain.unit_job is plain.incoming_per_unit is plain.staying_per_unit is None
            assert unit.unit_job == ref["unit_job"]
            assert unit.incoming_per_unit == ref["incoming"]
            assert unit.staying_per_unit == ref["staying"]


@given(
    pair=st.one_of(
        instance_with_schedule(min_m=3, max_m=3, min_n=2, max_n=6),
        twin_heavy_pairs(unrelated=True, min_m=3, max_m=3, min_n=2, max_n=6),
    )
)
def test_check_flower_matches_oracle_from_any_start(pair):
    instance, schedule = pair
    for dev in enumerate_profitable_deviations(instance, schedule):
        stats = deviation_stats(instance, schedule, dev.after)
        assert stats.loads_before == load_profile(instance, schedule).loads
        assert stats.loads_after == load_profile(instance, dev.after).loads
        ref = brute_structure(instance, schedule, dev.after)
        assert stats.migration == ref["migration"]
        assert check_flower(instance, schedule, dev.after) == ref["flower"]


# --- bound helpers -------------------------------------------------------------


def test_equilibrium_min_improvement_limits():
    assert ne_min_improvement_limit(2) == 1
    assert ne_min_improvement_limit(3) == Fraction(5, 4)
    assert ne_min_improvement_limit(4) == Fraction(8, 5)


def test_lpt_min_improvement_limits():
    assert lpt_min_improvement_limit(3) is None
    assert lpt_min_improvement_limit(4) == Fraction(5, 4)
    assert lpt_min_improvement_limit(6) == Fraction(4, 3) - Fraction(1, 18)


def test_lpt_three_machine_limit_comparator():
    # the limit is 1/2 + sqrt(6)/4 = 1.1123724...
    assert leq_lpt_three_machine_limit(Fraction(1))
    assert leq_lpt_three_machine_limit(Fraction(11123, 10000))
    assert leq_lpt_three_machine_limit(Fraction(3633, 3266))
    assert not leq_lpt_three_machine_limit(Fraction(11124, 10000))
    assert not leq_lpt_three_machine_limit(Fraction(5, 4))
