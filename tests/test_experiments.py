from fractions import Fraction

import pytest

from schedgames import experiments
from schedgames.core import ValidationError, canonical_form, load_profile
from schedgames.equilibria import is_nash
from schedgames.experiments import (
    CSV_COLUMNS,
    SplitMix64,
    SweepConfig,
    bound_sweep,
    random_instance,
    random_ne,
    replay_violation,
    Violation,
)
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


def test_random_instance_is_deterministic():
    a = random_instance(42, 3, 6, 20)
    b = random_instance(42, 3, 6, 20)
    assert a.p == b.p and a.m == b.m


def test_random_instance_range():
    instance = random_instance(7, 2, 50, 5)
    assert all(1 <= q <= 5 for q in instance.p)
    assert all(q.denominator == 1 for q in instance.p)


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
        tuple(sorted(art.instance.p[j - 1] for j in first.jobs_on(i)))
        for i in range(1, 4)
    )
    assert sizes_by_machine == [(2, 3), (2, 3), (5, 5)]


def test_random_ne_potential_strictly_decreases():
    instance = random_instance(3, 3, 8, 12)
    seen = []

    def watch(job, source, target, before, after):
        seen.append((sorted(before, reverse=True), sorted(after, reverse=True)))

    random_ne(instance, 5, on_move=watch)
    assert seen
    for before, after in seen:
        assert after < before  # lexicographic decrease of sorted loads


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
    with pytest.raises(ValidationError):
        small_config("lpt", trials=0)
    with pytest.raises(ValidationError):
        small_config("quantum")
    with pytest.raises(ValidationError):
        small_config("ptas")  # missing eps
    with pytest.raises(ValidationError):
        small_config("lpt", m_range=(3, 2))
    with pytest.raises(ValidationError):
        small_config("lpt", n_range=(4, 20), budget=10**5)  # 3^20 over budget


def test_sweep_config_rejects_unusable_eps():
    # an lpt sweep wrote records carrying an eps that no check had read
    with pytest.raises(ValidationError, match="eps applies only"):
        small_config("lpt", eps="1/2")
    with pytest.raises(ValidationError, match="must be positive"):
        small_config("ptas", eps=0)


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
        "check": "ne-min-improvement",
        "instance": {"machines": 3, "jobs": [5, 5, 3, 2, 3, 2]},
        "schedule": {"assignment": [1, 1, 2, 2, 3, 3]},
        "witness": None,
    }
    assert replay_violation(payload) is False
    assert is_nash(art.instance, art.schedule).holds


FIG1_RECORD = {
    "trial": 0,
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
    # an old record without the fields is guessed to be random-ne
    old = {k: v for k, v in payload.items() if k not in ("scheduler", "eps")}
    assert replay_violation(old) is False


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


def test_violation_record_carries_trial_seed(monkeypatch):
    # a damage limit of 1 fails on every equilibrium trial
    monkeypatch.setattr(experiments, "NE_DAMAGE_LIMIT", Fraction(1))
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


def test_inconclusive_trials_are_counted_not_judged():
    from schedgames.measures import measure_report

    art = figure1()
    partial = measure_report(art.instance, art.schedule, node_budget=5)
    assert not partial.exhaustive  # the sweep marks such trials inconclusive
