import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import instance_with_schedule, rationals
from schedgames.core import (
    IdenticalInstance,
    Schedule,
    UnrelatedInstance,
    ValidationError,
    canonical_form,
    format_rational,
    induced_instance,
    instance_from_dict,
    instance_to_dict,
    job_cost,
    load_profile,
    parse_rational,
    schedule_from_dict,
    schedule_to_dict,
)

FIG1 = IdenticalInstance(m=3, p=(5, 5, 3, 2, 3, 2))
FIG1_NE = Schedule((1, 1, 2, 2, 3, 3))


def test_load_profile_three_machine_benchmark():
    profile = load_profile(FIG1, FIG1_NE)
    assert profile.loads == (Fraction(10), Fraction(5), Fraction(5))
    assert profile.makespan == 10


def test_load_profile_empty_instance():
    profile = load_profile(IdenticalInstance(m=2, p=()), Schedule(()))
    assert profile.loads == (0, 0)
    assert profile.makespan == 0


def test_load_profile_single_job_on_second_machine():
    profile = load_profile(IdenticalInstance(m=2, p=(7,)), Schedule((2,)))
    assert profile.loads == (0, 7)
    assert profile.makespan == 7


def test_load_profile_rejects_length_mismatch_and_bad_machine():
    with pytest.raises(ValidationError):
        load_profile(FIG1, Schedule((1, 1, 2)))
    with pytest.raises(ValidationError):
        load_profile(FIG1, Schedule((1, 1, 2, 2, 3, 4)))


def test_job_cost_is_machine_load():
    assert job_cost(FIG1, FIG1_NE, 4) == 5  # the size-2 job on machine 2
    assert job_cost(IdenticalInstance(m=3, p=(7,)), Schedule((2,)), 1) == 7
    unrelated = UnrelatedInstance(m=2, p=((1, Fraction(1, 10)), (Fraction(1, 10), 1)))
    assert job_cost(unrelated, Schedule((1, 2)), 1) == 1


def test_job_cost_rejects_bad_index():
    with pytest.raises(ValidationError):
        job_cost(FIG1, FIG1_NE, 7)


def test_induced_instance_benchmark_subset():
    induced = induced_instance(FIG1, FIG1_NE, {2, 3})
    assert induced.instance.m == 2
    assert induced.instance.p == (3, 2, 3, 2)
    assert induced.jobs == (3, 4, 5, 6)
    assert induced.machines == (2, 3)


def test_induced_instance_full_subset_is_identity():
    induced = induced_instance(FIG1, FIG1_NE, {1, 2, 3})
    assert induced.instance.p == FIG1.p
    assert induced.jobs == tuple(range(1, 7))
    assert induced.induced_schedule(FIG1_NE).assignment == FIG1_NE.assignment


def test_induced_instance_rejects_empty_subset():
    with pytest.raises(ValidationError):
        induced_instance(FIG1, FIG1_NE, set())


@given(instance_with_schedule(min_m=2, max_m=3, min_n=1, max_n=8), st.data())
def test_induced_instance_matches_direct_filter(pair, data):
    instance, schedule = pair
    subset = data.draw(
        st.sets(st.integers(1, instance.m), min_size=1, max_size=instance.m)
    )
    induced = induced_instance(instance, schedule, subset)
    expected_jobs = [
        j for j in range(1, instance.n + 1) if schedule.machine_of(j) in subset
    ]
    assert list(induced.jobs) == expected_jobs
    assert induced.instance.p == tuple(instance.p[j - 1] for j in expected_jobs)
    # reproducing the original loads on the selected machines
    sub_profile = load_profile(induced.instance, induced.induced_schedule(schedule))
    full_profile = load_profile(instance, schedule)
    for sub_i, orig_i in enumerate(induced.machines, start=1):
        assert sub_profile.load(sub_i) == full_profile.load(orig_i)


def test_canonical_form_relabels_by_first_job():
    instance = IdenticalInstance(m=2, p=(1, 1, 1, 1))
    assert canonical_form(Schedule((2, 2, 1, 1)), instance).assignment == (1, 1, 2, 2)


def test_canonical_form_keeps_canonical_input():
    instance = IdenticalInstance(m=2, p=(1, 1, 1, 1))
    assert canonical_form(Schedule((1, 1, 2, 2)), instance).assignment == (1, 1, 2, 2)


@given(instance_with_schedule(min_n=1))
def test_canonical_form_idempotent_and_load_preserving(pair):
    instance, schedule = pair
    once = canonical_form(schedule, instance)
    twice = canonical_form(once, instance)
    assert once.assignment == twice.assignment
    before = load_profile(instance, schedule)
    after = load_profile(instance, once)
    assert sorted(before.loads) == sorted(after.loads)
    for j in range(1, instance.n + 1):
        assert job_cost(instance, schedule, j) == job_cost(instance, once, j)


@given(instance_with_schedule())
def test_total_load_is_conserved(pair):
    instance, schedule = pair
    profile = load_profile(instance, schedule)
    assert sum(profile.loads, Fraction(0)) == instance.total()
    if instance.n:
        assert profile.makespan == max(
            job_cost(instance, schedule, j) for j in range(1, instance.n + 1)
        )


def test_parse_rational_accepts_decimal_fraction_and_int():
    assert parse_rational("1.633") == Fraction(1633, 1000)
    assert parse_rational("5/4") == Fraction(5, 4)
    assert parse_rational(7) == 7


def test_parse_rational_caps_decimal_exponent():
    assert parse_rational("1e100") == 10**100
    assert parse_rational("-2.5E-100") == Fraction(-25, 10**101)
    for bad in ("1e101", "1e-101", "1e20000", "3.5E+2_000", "1e" + "9" * 5000):
        with pytest.raises(ValidationError, match="exponent"):
            parse_rational(bad)


@pytest.mark.parametrize("bad", [1.5, True, "x", "1/0", None, [1]])
def test_parse_rational_rejects_inexact_or_malformed(bad):
    with pytest.raises(ValidationError):
        parse_rational(bad)


@given(st.integers(1, 4), st.lists(rationals(max_denominator=97), max_size=6))
def test_identical_instance_json_round_trip_is_bit_exact(m, p):
    instance = IdenticalInstance(m=m, p=tuple(p))
    data = json.loads(json.dumps(instance_to_dict(instance)))
    again = instance_from_dict(data)
    assert isinstance(again, IdenticalInstance)
    assert again.m == instance.m and again.p == instance.p


@given(st.integers(1, 3), st.integers(0, 4), st.data())
def test_unrelated_instance_json_round_trip_is_bit_exact(m, n, data):
    rows = tuple(
        tuple(data.draw(rationals(max_denominator=23)) for _ in range(n))
        for _ in range(m)
    )
    instance = UnrelatedInstance(m=m, p=rows)
    again = instance_from_dict(json.loads(json.dumps(instance_to_dict(instance))))
    assert isinstance(again, UnrelatedInstance)
    assert again.p == instance.p


def test_schedule_round_trip():
    schedule = Schedule((1, 3, 2, 2))
    assert schedule_from_dict(schedule_to_dict(schedule)).assignment == schedule.assignment


def test_instance_validation_errors():
    with pytest.raises(ValidationError):
        IdenticalInstance(m=0, p=(1,))
    with pytest.raises(ValidationError):
        IdenticalInstance(m=2, p=(0,))
    with pytest.raises(ValidationError):
        UnrelatedInstance(m=2, p=((1, 2), (1,)))
    with pytest.raises(ValidationError):
        instance_from_dict({"machines": 2})
    with pytest.raises(ValidationError):
        instance_from_dict({"machines": 2, "jobs": [1.25]})


@pytest.mark.parametrize(
    "data",
    [
        {"machines": 2, "jobs": "53"},
        {"machines": 2, "jobs": 5},
        {"machines": 2, "matrix": ["12", "34"]},
        {"machines": 2, "matrix": "1234"},
        {"machines": 2, "matrix": [[1, 2], "34"]},
    ],
)
def test_instance_from_dict_rejects_non_list_fields(data):
    # strings must not be split into one job per character
    with pytest.raises(ValidationError, match="must be a list"):
        instance_from_dict(data)


def test_format_rational():
    assert format_rational(Fraction(8, 2)) == 4
    assert format_rational(Fraction(5, 4)) == "5/4"
