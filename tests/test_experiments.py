import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import _best_response_equilibrium
from schedgames import experiments, measures
from schedgames.core import (
    BudgetExceededError,
    IdenticalInstance,
    Schedule,
    UnrelatedInstance,
    ValidationError,
    canonical_form,
    instance_from_dict,
    load_profile,
    schedule_from_dict,
)
from schedgames.equilibria import (
    ScanContext,
    enumerate_profitable_deviations,
    is_nash,
    scan_deviations,
)
from schedgames.experiments import (
    CSV_COLUMNS,
    SCHEDULERS,
    SplitMix64,
    SweepConfig,
    bound_sweep,
    random_instance,
    random_ne,
    replay_violation,
    Violation,
)
from schedgames.measures import StructuralReport, deviation_stats, structural_report
from schedgames.witnesses import figure1


# --- rng / generation ------------------------------------------------------


def test_splitmix_is_deterministic_and_64_bit():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    draws = [a.next_u64() for _ in range(5)]
    assert draws == [b.next_u64() for _ in range(5)]
    assert all(0 <= d < 2**64 for d in draws)


def test_splitmix_below_range():
    rng = SplitMix64(9)
    draws = [rng.below(7) for _ in range(200)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7  # all residues show up quickly


def test_splitmix_below_rejects_an_empty_range():
    with pytest.raises(ValidationError, match="range bound must be positive"):
        SplitMix64(1).below(0)


def test_random_ne_rejects_unrelated_machines():
    instance = UnrelatedInstance(m=2, p=((1, 2), (2, 1)))
    with pytest.raises(ValidationError, match="identical machines"):
        random_ne(instance, 1)


def test_random_instance_is_deterministic():
    a = random_instance(42, 3, 6, 20)
    b = random_instance(42, 3, 6, 20)
    assert a.p == b.p and a.m == b.m


def test_random_instance_range():
    instance = random_instance(7, 2, 50, 5)
    assert all(1 <= q <= 5 for q in instance.p)
    assert all(q.denominator == 1 for q in instance.p)


@pytest.mark.parametrize(
    "m, n, p_max", [(True, 3, 5), (1, True, 5), (1, 3, True), (3, 2.5, 5), (3.0, 2, 5), (3, 2, 5.0)]
)
def test_random_instance_takes_int_counts_only(m, n, p_max):
    # n=True gave a one-job instance, p_max=True all-ones sizes, and
    # n=2.5 a TypeError
    with pytest.raises(ValidationError, match="ints"):
        random_instance(1, m, n, p_max)


@pytest.mark.parametrize("seed", [True, 1.5, "7"])
def test_generators_take_int_seeds_only(seed):
    # seed=True equalled seed 1, and a float or str seed was a TypeError
    with pytest.raises(ValidationError, match="seed must be an int"):
        random_instance(seed, 3, 4, 5)
    with pytest.raises(ValidationError, match="seed must be an int"):
        random_ne(IdenticalInstance(m=2, p=(1, 2, 3)), seed)


def test_random_instances_differ_across_seeds():
    draws = {random_instance(seed, 3, 8, 20).p for seed in range(100)}
    assert len(draws) > 90


def test_random_ne_reaches_equilibrium():
    for seed in range(25):
        instance = random_instance(seed, 3, 7, 9)
        schedule = random_ne(instance, seed)
        assert is_nash(instance, schedule).holds


def test_random_ne_some_seed_hits_benchmark_equilibrium():
    art = figure1()
    expected = canonical_form(art.schedule, art.instance).assignment
    hits = []
    for seed in range(120):
        schedule = random_ne(art.instance, seed)
        loads = sorted(load_profile(art.instance, schedule).loads, reverse=True)
        if loads == [10, 5, 5]:
            hits.append(seed)
    assert hits, "no seed reproduced the benchmark equilibrium"
    # seed 23 is the first one (frozen so replays can rely on it)
    assert hits[0] == 23
    first = canonical_form(random_ne(art.instance, 23), art.instance)
    sizes_by_machine = sorted(
        tuple(sorted(p for p, at in zip(art.instance.p, first.assignment) if at == i))
        for i in range(1, 4)
    )
    assert sizes_by_machine == [(2, 3), (2, 3), (5, 5)]


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_random_ne_matches_best_response_oracle(rational):
    # the oracle moves jobs on Fraction loads, so a slip in random_ne's
    # scaled integers shows; rational sizes make the scale exceed 1
    for seed in range(200):
        rng = random.Random(seed)
        m, n = rng.randint(2, 5), rng.randint(0, 12)
        if rational:
            p = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 6)) for _ in range(n))
        else:
            p = tuple(rng.randint(1, 20) for _ in range(n))
        instance = IdenticalInstance(m=m, p=p)
        draw = SplitMix64(seed)
        start = [1 + draw.below(m) for _ in range(n)]
        expected = _best_response_equilibrium(instance, start)
        assert random_ne(instance, seed) == expected, (seed, m, p)


# --- sweeps ------------------------------------------------------------------


def small_config(scheduler, **kw):
    defaults = dict(
        seed=99,
        trials=12,
        m_range=(3, 3),
        n_range=(4, 7),
        p_max=12,
        scheduler=scheduler,
        budget=10**6,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


def test_lpt_sweep_runs_clean():
    report = bound_sweep(small_config("lpt"))
    assert len(report.records) == 12
    assert report.violations == []
    assert report.inconclusive == 0
    assert all(r.bounds_ok for r in report.records)


def test_random_ne_sweep_runs_clean():
    report = bound_sweep(small_config("random-ne"))
    assert report.violations == []


def test_ls_sweep_checks_single_move_damage():
    report = bound_sweep(small_config("ls"))
    assert report.violations == []
    names = {c.name for r in report.records for c in r.checks}
    assert "ls-single-move-damage" in names and "ls-makespan" in names


def test_ptas_sweep_checks_scheme_bounds():
    config = small_config("ptas", eps=Fraction(1, 2), trials=8, n_range=(3, 6))
    report = bound_sweep(config)
    assert report.violations == []
    names = {c.name for r in report.records for c in r.checks}
    assert {"ptas-min-improvement", "ptas-makespan", "schedule-is-equilibrium"} <= names


def test_sweep_replays_identically():
    config = small_config("lpt", trials=6)
    first = bound_sweep(config)
    second = bound_sweep(config)
    assert first.csv_rows() == second.csv_rows()
    assert [r.jobs for r in first.records] == [r.jobs for r in second.records]


def test_sweep_csv_schema():
    report = bound_sweep(small_config("lpt", trials=3))
    rows = report.csv_rows()
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 4
    trial, scheduler, m, n = rows[1][:4]
    assert (trial, scheduler, m) == ("0", "lpt", "3")
    assert rows[1][9] == "true" and rows[1][10] == "true"


def test_sweep_config_validation():
    for trials in (0, True, 1.5, "3"):
        with pytest.raises(ValidationError, match="trials must be a positive int"):
            small_config("lpt", trials=trials)
    with pytest.raises(ValidationError):
        small_config("quantum")
    with pytest.raises(ValidationError):
        small_config("ptas")  # missing eps
    with pytest.raises(ValidationError):
        small_config("lpt", m_range=(3, 2))
    # bools and floats were taken for ints: p_max=True swept all-ones sizes
    for field, value in (
        ("p_max", True), ("m_range", (True, 3)), ("p_max", 2.5), ("n_range", (4, 6.0)),
    ):
        with pytest.raises(ValidationError, match=field):
            small_config("lpt", **{field: value})
    for budget in (0, -1, True, 1.5):
        with pytest.raises(ValidationError, match="node budget must be positive"):
            small_config("ptas", eps="1/2", budget=budget)
    for seed in (True, 1.5, "7"):
        with pytest.raises(ValidationError, match="seed must be an int"):
            small_config("lpt", seed=seed)
    # 3^20 exceeds the budget, but m^n is no cost: such trials end inconclusive
    assert small_config("lpt", n_range=(4, 20), budget=10**5).budget == 10**5


def test_sweep_config_rejects_unusable_eps():
    # an lpt sweep wrote records carrying an eps that no check had read
    with pytest.raises(ValidationError, match="eps applies only"):
        small_config("lpt", eps="1/2")
    with pytest.raises(ValidationError, match="must be positive"):
        small_config("ptas", eps=0)


@pytest.mark.parametrize("eps", ["1/0", "abc", 0.5], ids=["zero-denominator", "not-a-number", "float"])
def test_sweep_config_parses_eps_as_exact_rational(eps):
    # a bare Fraction(eps) raised ZeroDivisionError or a plain ValueError,
    # and silently took a float
    with pytest.raises(ValidationError):
        small_config("ptas", eps=eps)


def test_sweep_mixed_machine_range():
    config = SweepConfig(
        seed=4,
        trials=10,
        m_range=(2, 3),
        n_range=(3, 6),
        p_max=9,
        scheduler="random-ne",
        budget=10**6,
    )
    report = bound_sweep(config)
    assert {r.m for r in report.records} == {2, 3}
    assert report.violations == []


def test_replay_rejects_non_violation():
    # a fabricated record whose claim does not actually fail
    art = figure1()
    payload = {
        "scheduler": "random-ne",
        "check": "ne-min-improvement",
        "instance": {"machines": 3, "jobs": [5, 5, 3, 2, 3, 2]},
        "schedule": {"assignment": [1, 1, 2, 2, 3, 3]},
        "witness": None,
    }
    assert replay_violation(payload) is False
    assert is_nash(art.instance, art.schedule).holds


FIG1_RECORD = {
    "trial": 0,
    "scheduler": "random-ne",
    "instance": {"machines": 3, "jobs": [5, 5, 3, 2, 3, 2]},
    "schedule": {"assignment": [1, 1, 2, 2, 3, 3]},
    "witness": None,
}


def test_replay_reads_ptas_scheduler_and_eps_from_record():
    # the benchmark equilibrium has ir_min 5/4, above 1 + 1/10
    payload = dict(
        FIG1_RECORD,
        scheduler="ptas",
        eps="1/10",
        check="ptas-min-improvement",
        observed="5/4",
        bound="<= 1 + 1/10",
    )
    assert replay_violation(payload) is True
    assert replay_violation(dict(payload, eps="1/2")) is False
    # a record must name its scheduler; none is guessed from the schedule
    old = {k: v for k, v in payload.items() if k not in ("scheduler", "eps")}
    with pytest.raises(ValidationError, match="'scheduler'"):
        replay_violation(old)


def test_replay_rejects_unknown_scheduler():
    payload = dict(FIG1_RECORD, scheduler="foo", eps=None, check="ne-min-improvement")
    with pytest.raises(ValidationError, match="scheduler must be one of"):
        replay_violation(payload)


@pytest.mark.parametrize("eps, message", [(None, "needs eps"), ("-1", "must be positive")])
def test_replay_rejects_ptas_record_without_usable_eps(eps, message):
    # ptas cannot run without a positive eps, so no such record is replayable
    payload = dict(FIG1_RECORD, scheduler="ptas", eps=eps, check="ptas-min-improvement")
    with pytest.raises(ValidationError, match=message):
        replay_violation(payload)


def test_replay_keeps_random_ne_scheduler_of_non_equilibrium():
    payload = dict(
        FIG1_RECORD,
        schedule={"assignment": [1, 1, 1, 2, 3, 3]},
        scheduler="random-ne",
        eps=None,
        check="schedule-is-equilibrium",
    )
    assert replay_violation(payload) is True


def test_violation_record_carries_scheduler_and_eps():
    violation = Violation(
        trial=0,
        seed=1,
        scheduler="ptas",
        eps=Fraction(1, 10),
        check="ptas-min-improvement",
        observed="5/4",
        bound="<= 1 + 1/10",
        instance=FIG1_RECORD["instance"],
        schedule=FIG1_RECORD["schedule"],
        witness=None,
    )
    record = violation.to_dict()
    assert record["scheduler"] == "ptas" and record["eps"] == "1/10"
    assert replay_violation(record) is True


@pytest.mark.parametrize(
    "scheduler, budget, p_max",
    [
        pytest.param("lpt", 10**6, 20, id="lpt"),
        pytest.param("random-ne", 10**6, 20, id="random-ne"),
        pytest.param("lpt", 200, 20, id="lpt-budget-200"),
        pytest.param("random-ne", 200, 20, id="random-ne-budget-200"),
        pytest.param("lpt", 10**6, 8, id="lpt-twins"),
        pytest.param("random-ne", 10**6, 10, id="random-ne-twins"),
        pytest.param("random-ne", 200, 10, id="random-ne-twins-budget-200"),
    ],
)
def test_structure_violations_match_the_public_checks(monkeypatch, scheduler, budget, p_max):
    # a stricter predicate than the paper's lemmas, so that some deviations
    # fail it: at most 5 migrants, and per-unit flows of at least 2.  A
    # budget-stopped trial keeps the failing deviations up to the last
    # orbit representative that its scan, by index, meets within the
    # budget; small sizes give failing twin orbits.  The reference lists
    # every profitable deviation with a complete enumeration, which the
    # oracle tests check against brute_deviations in order; brute_deviations
    # itself takes about two seconds per trial at n = 10.
    lemmas = StructuralReport.passed.fget

    def stricter(sr):
        unit = sr.incoming_per_unit
        return lemmas(sr) and sr.migrant_count < 6 and (unit is None or min(unit.values()) >= 2)

    monkeypatch.setattr(StructuralReport, "passed", property(stricter))
    config = small_config(
        scheduler, seed=5, trials=40, n_range=(8, 10), p_max=p_max, budget=budget
    )
    report = bound_sweep(config)
    found = [
        (v.trial, v.witness, v.observed)
        for v in report.violations
        if v.check == "deviation-structure"
    ]
    expected = []
    for r in report.records:
        instance, schedule = IdenticalInstance(m=3, p=r.jobs), Schedule(r.assignment)
        if not is_nash(instance, schedule).holds:
            continue
        met = []
        try:
            scan_deviations(
                ScanContext(instance, schedule), budget=budget,
                on_leaf=lambda ctx, assign, loads, caps: met.append(tuple(i + 1 for i in assign)),
            )
            last = None
        except BudgetExceededError:
            last = met[-1] if met else ()
        everything = enumerate_profitable_deviations(instance, schedule)
        assert everything.complete
        for dev in everything:
            if last is not None and dev.after.assignment > last:
                break
            sr = structural_report(instance, schedule, dev.after, lpt_origin=scheduler == "lpt")
            if not sr.passed:
                expected.append((r.trial, dev.to_dict(), repr(sr)))
    assert found and found == expected
    for v in report.violations:
        if v.check == "deviation-structure":
            assert replay_violation(v.to_dict()) is True


@pytest.mark.parametrize(
    "scheduler, budget",
    [
        pytest.param("lpt", 10**6, id="lpt"),
        pytest.param("random-ne", 10**6, id="random-ne"),
        pytest.param("random-ne", 200, id="random-ne-budget-200"),
    ],
)
def test_bounds_ok_is_false_exactly_for_the_trials_with_a_violation(
    monkeypatch, scheduler, budget
):
    # a failing structural predicate is a failed check of its trial, so it
    # clears the trial's bounds_ok and CSV cell as a failed limit does, in
    # an inconclusive trial too; only an inconclusive trial without a
    # failed check has a blank cell
    lemmas = StructuralReport.passed.fget
    monkeypatch.setattr(
        StructuralReport, "passed", property(lambda sr: lemmas(sr) and sr.migrant_count < 6)
    )
    config = small_config(scheduler, seed=5, trials=40, n_range=(8, 10), p_max=20, budget=budget)
    report = bound_sweep(config)
    violated = {v.trial for v in report.violations}
    assert violated and {v.check for v in report.violations} == {"deviation-structure"}
    assert [r.bounds_ok for r in report.records] == [
        r.trial not in violated for r in report.records
    ]
    column = CSV_COLUMNS.index("bounds_ok")
    assert [row[column] for row in report.csv_rows()[1:]] == [
        "false" if r.trial in violated else "true" if r.exhaustive else ""
        for r in report.records
    ]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_each_sweep_trial_builds_one_scan_context(monkeypatch, scheduler):
    built = []
    init = ScanContext.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ScanContext, "__init__", counted)
    eps = Fraction(1, 2) if scheduler == "ptas" else None
    config = small_config(scheduler, seed=5, trials=10, n_range=(8, 10), p_max=20, eps=eps)
    report = bound_sweep(config)
    assert len(built) == len(report.records) == 10


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_each_sweep_trial_scales_its_instance_once(scalings, scheduler):
    # the scheduler, the trial's scan context and optimal_makespan share it
    eps = Fraction(1, 2) if scheduler == "ptas" else None
    config = small_config(scheduler, seed=5, trials=10, n_range=(8, 10), p_max=20, eps=eps)
    report = bound_sweep(config)
    assert len(scalings) == len(report.records) == 10


@pytest.mark.parametrize(
    "check, missing",
    [
        ("ne-min-improvement", "check"),
        ("ne-min-improvement", "instance"),
        ("ne-min-improvement", "schedule"),
        ("ne-min-improvement", "scheduler"),
        ("deviation-structure", "witness"),
    ],
)
def test_replay_rejects_a_record_without_a_required_field(check, missing):
    payload = dict(FIG1_RECORD, eps=None, check=check, witness={"assignment": [2, 3, 2, 1, 3, 1]})
    del payload[missing]
    with pytest.raises(ValidationError, match=f"no '{missing}' field"):
        replay_violation(payload)


@pytest.mark.parametrize("budget", [0, True])
@pytest.mark.parametrize("check", ["deviation-structure", "ne-min-improvement"])
def test_replay_checks_the_budget_for_every_record(budget, check):
    # the benchmark deviation of the benchmark equilibrium, which keeps
    # both the structural lemmas and the min-improvement limit
    witness = {"assignment": [2, 3, 2, 1, 3, 1]}
    payload = dict(FIG1_RECORD, eps=None, check=check, witness=witness)
    assert replay_violation(payload) is False
    with pytest.raises(ValidationError, match="node budget must be positive"):
        replay_violation(payload, node_budget=budget)


@pytest.mark.parametrize("check", ["deviation-structure", "ne-min-improvement"])
def test_replay_rejects_a_schedule_that_does_not_fit_the_instance(check):
    # job 6 on machine 4 of 3: the structural replay and the re-evaluation
    # both validate the schedule when they build its scan context
    witness = {"assignment": [2, 3, 2, 1, 3, 1]}
    schedule = {"assignment": [1, 1, 2, 2, 3, 4]}
    payload = dict(FIG1_RECORD, eps=None, check=check, schedule=schedule, witness=witness)
    with pytest.raises(ValidationError, match="job 6 assigned to invalid machine 4"):
        replay_violation(payload)


def test_violation_record_carries_trial_seed(monkeypatch):
    # a damage limit of 1 fails on every equilibrium trial
    monkeypatch.setattr(measures, "NE_DAMAGE_LIMIT", Fraction(1))
    report = bound_sweep(small_config("random-ne", trials=5))
    assert report.violations
    for violation in report.violations:
        assert violation.seed == report.records[violation.trial].seed
        record = violation.to_dict()
        assert record["seed"] == violation.seed
        assert replay_violation(record) is True
        # records written before the field existed still replay
        del record["seed"]
        assert replay_violation(record) is True


def test_violation_carries_the_witness_of_the_measure_it_checks(monkeypatch):
    # at a damage limit of 11/10 some trials' min-improvement witness
    # damages less than the trial's dr_max; the record must carry one that
    # attains it
    monkeypatch.setattr(measures, "NE_DAMAGE_LIMIT", Fraction(11, 10))
    config = SweepConfig(
        seed=1, trials=40, m_range=(3, 3), n_range=(6, 8), p_max=20, scheduler="random-ne"
    )
    report = bound_sweep(config)
    damage = [v for v in report.violations if v.check == "ne-damage"]
    assert len(damage) == 7
    for violation in damage:
        instance = instance_from_dict(violation.instance)
        schedule = schedule_from_dict(violation.schedule)
        after = schedule_from_dict(violation.witness)
        stats = deviation_stats(instance, schedule, after)
        assert str(stats.max_damage) == violation.observed
    for violation in report.violations:
        assert replay_violation(violation.to_dict()) is True

    # every other limit on a measure, lowered until it fails: each record
    # carries a witness attaining `observed` through the `DeviationStats`
    # property that the limit bounds, and replays
    monkeypatch.setattr(measures, "NE_MIN_IMPROVEMENT_LIMIT_3", Fraction(1))
    report = bound_sweep(config)
    assert [v.check for v in report.violations].count("ne-min-improvement") == 7
    monkeypatch.setattr(measures, "LPT_DAMAGE_LIMIT", Fraction(1))
    monkeypatch.setattr(measures, "LPT_MAX_IMPROVEMENT_LIMIT_3", Fraction(1))
    lpt_report = bound_sweep(dataclasses.replace(config, trials=200, scheduler="lpt"))
    counts = Counter(v.check for v in lpt_report.violations)
    assert counts["lpt-damage"] == 200 and counts["lpt-max-improvement"] == 5
    stat_of = {
        "ne-min-improvement": "min_improvement",
        "lpt-damage": "max_damage",
        "lpt-max-improvement": "max_improvement",
    }
    witnessed = Counter()
    for violation in report.violations + lpt_report.violations:
        if violation.check not in stat_of:
            continue
        assert replay_violation(violation.to_dict()) is True
        if violation.witness is None:
            # a strict damage limit of 1 fails on every trial, also on
            # one where no deviation damages a job: dr_max is then 1
            assert violation.check == "lpt-damage" and violation.observed == "1"
            continue
        witnessed[violation.check] += 1
        instance = instance_from_dict(violation.instance)
        schedule = schedule_from_dict(violation.schedule)
        stats = deviation_stats(instance, schedule, schedule_from_dict(violation.witness))
        assert str(getattr(stats, stat_of[violation.check])) == violation.observed
    assert witnessed == {"ne-min-improvement": 12, "lpt-damage": 5, "lpt-max-improvement": 5}


def test_inconclusive_trials_are_counted_not_judged():
    # 3^9 joint actions exceed the budget, yet the sweep runs: trials whose
    # measures run out of budget are counted, not judged
    config = SweepConfig(
        seed=3, trials=6, m_range=(3, 3), n_range=(9, 9), p_max=20, scheduler="lpt", budget=50
    )
    report = bound_sweep(config)
    assert report.inconclusive == 3
    capped = [r for r in report.records if not r.exhaustive]
    assert len(capped) == 3 and sum(r.exhaustive for r in report.records) == 3
    for r in capped:
        assert r.checks == ()
        assert r.ir_min is r.ir_max is r.dr_max is None
    rows = report.csv_rows()
    column = CSV_COLUMNS.index("bounds_ok")
    assert [row[column] == "" for row in rows[1:]] == [not r.exhaustive for r in report.records]
