import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import instance_with_schedule, rationals
from oracles import induced_instance
from schedgames.core import (
    IdenticalInstance,
    Schedule,
    UnrelatedInstance,
    ValidationError,
    canonical_form,
    format_rational,
    instance_from_dict,
    instance_to_dict,
    load_profile,
    parse_rational,
    schedule_from_dict,
    schedule_to_dict,
    validate_schedule,
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


@pytest.mark.parametrize(
    "bad", [True, 1.0, "1", None, 0, FIG1.m + 1], ids=["bool", "float", "str", "none", "0", "m+1"]
)
def test_validate_schedule_names_the_first_bad_job(bad):
    # no such entry passes the whole-assignment check, and the error names
    # the job and its entry
    message = re.escape(f"job 3 assigned to invalid machine {bad!r}")
    with pytest.raises(ValidationError, match=message):
        validate_schedule(FIG1, Schedule((1, 2, bad, 3, 1, 2)))


# `induced_instance` is the test oracle (tests/oracles.py) behind the
# subset-preservation checks of `lpt` and `ptas`; these pin it down
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


def test_induced_instance_on_unrelated_machines_keeps_their_rows_and_jobs():
    # rows are machines, columns jobs: machines 1 and 3 keep jobs 1, 3, 4
    instance = UnrelatedInstance(m=3, p=((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)))
    induced = induced_instance(instance, Schedule((1, 2, 3, 1)), [3, 1])
    assert induced.machines == (1, 3) and induced.jobs == (1, 3, 4)
    assert isinstance(induced.instance, UnrelatedInstance)
    assert induced.instance.p == ((1, 3, 4), (9, 11, 12))
    assert induced.induced_schedule(Schedule((1, 2, 3, 1))).assignment == (1, 2, 1)


def test_induced_instance_rejects_empty_subset():
    with pytest.raises(ValidationError):
        induced_instance(FIG1, FIG1_NE, set())


@pytest.mark.parametrize("subset", [[1.5], [True], ["2"]])
def test_induced_instance_takes_int_machines_only(subset):
    # [1.5] gave an empty sub-instance and [True] read as machine 1
    with pytest.raises(ValidationError, match="machine index"):
        induced_instance(FIG1, FIG1_NE, subset)


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


def test_canonical_form_rejects_unrelated_machines():
    instance = UnrelatedInstance(m=2, p=((1, 2), (2, 1)))
    with pytest.raises(ValidationError, match="identical machines"):
        canonical_form(Schedule((2, 1)), instance)


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
        assert before.load(schedule.machine_of(j)) == after.load(once.machine_of(j))


@given(instance_with_schedule())
def test_total_load_is_conserved(pair):
    instance, schedule = pair
    profile = load_profile(instance, schedule)
    assert sum(profile.loads, Fraction(0)) == sum(instance.p, Fraction(0))
    if instance.n:
        assert profile.makespan == max(
            profile.load(schedule.machine_of(j)) for j in range(1, instance.n + 1)
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


@pytest.mark.parametrize(
    "instance",
    [
        IdenticalInstance(m=3, p=("1/2", 3, "2/3")),
        UnrelatedInstance(m=2, p=(("1/2", 3), (1, "4/3"))),
    ],
)
def test_scaled_form_is_cached_tuples_outside_equality(instance):
    sizes, scale = instance._scaled
    assert scale == 6
    assert type(sizes) is tuple and all(type(row) is tuple for row in sizes)
    rows = (instance.p,) * instance.m if isinstance(instance, IdenticalInstance) else instance.p
    assert [[Fraction(s, scale) for s in row] for row in sizes] == [list(row) for row in rows]
    assert instance._scaled is instance._scaled
    # the cache is no field: a fresh copy without it is equal, hashes and prints alike
    fresh = type(instance)(m=instance.m, p=instance.p)
    assert fresh == instance and hash(fresh) == hash(instance) and repr(fresh) == repr(instance)


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
    # a file naming both was read as identical machines, its matrix dropped
    with pytest.raises(ValidationError, match="both 'jobs' and 'matrix'"):
        instance_from_dict({"machines": 2, "jobs": [1, 2], "matrix": [[1, 2], [3, 4]]})
    # a bool machine count constructed, and its file then wrote
    # "machines": true, which instance_from_dict rejects
    for m in (True, 2.0):
        with pytest.raises(ValidationError, match="machine count"):
            IdenticalInstance(m=m, p=(1, 2))
        with pytest.raises(ValidationError, match="machine count"):
            UnrelatedInstance(m=m, p=((1, 2),))


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


UNRELATED = UnrelatedInstance(m=2, p=((1, 2, 3), (4, 5, 6)))


def test_one_based_accessors_read_the_named_index():
    assert Schedule((1, 2, 3)).machine_of(3) == 3
    assert load_profile(FIG1, FIG1_NE).load(1) == 10
    assert FIG1.processing_time(4) == FIG1.processing_time(4, 3) == 2
    assert UNRELATED.processing_time(3, 2) == 6


@pytest.mark.parametrize("index", [0, -1, 4, True, 1.0, "1", None])
def test_one_based_accessors_reject_a_bad_index(index):
    # index 0 and -1 used to wrap around to the last entries, and True to
    # read entry 1
    with pytest.raises(ValidationError, match="job index"):
        Schedule((1, 2, 3)).machine_of(index)
    with pytest.raises(ValidationError, match="machine index"):
        load_profile(FIG1, FIG1_NE).load(index)
    with pytest.raises(ValidationError, match="job index"):
        UNRELATED.processing_time(index, 1)
    with pytest.raises(ValidationError, match="machine index"):
        UNRELATED.processing_time(1, index)
    with pytest.raises(ValidationError, match="job index"):
        IdenticalInstance(m=3, p=(1, 2, 3)).processing_time(index)


@pytest.mark.parametrize("machine", [0, 4, 99, True, 1.0])
def test_identical_processing_time_checks_a_given_machine(machine):
    with pytest.raises(ValidationError, match="machine index"):
        FIG1.processing_time(1, machine)
