"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  Exact-rational comparisons throughout; sweep
seeds are frozen so every run sees the same instances.
"""

import itertools
import time
from fractions import Fraction

import pytest

from oracles import induced_instance
from schedgames.core import IdenticalInstance, Schedule, load_profile
from schedgames.equilibria import (
    ScanContext,
    enumerate_profitable_deviations,
    is_nash,
    is_strong,
)
from schedgames.measures import (
    check_flower,
    deviation_stats,
    measure_report,
    structural_report,
)
from schedgames.schedulers import PtasConfig, list_schedule, lpt, optimal_makespan, ptas
from schedgames.experiments import (
    SplitMix64,
    SweepConfig,
    bound_sweep,
    random_instance,
    random_ne,
)
from schedgames.witnesses import (
    figure1,
    figure3,
    figure9,
    ls_examples,
    partition_oracle,
    reduce_partition_identical,
    reduce_partition_unrelated,
    search_extremal_lpt,
)

SEED = 20260809


def _report(capsys, idx, ok, elapsed, limit, detail):
    line = (
        f"criterion {idx:02d}: {'PASS' if ok else 'FAIL'}"
        f" [{elapsed:.2f}s / limit {limit:.0f}s] {detail}"
    )
    with capsys.disabled():
        print(line)
    assert ok and elapsed < limit, line


@pytest.fixture(scope="module")
def table1_sweeps():
    """Criterion-4 sweeps, shared with the structural criterion."""
    started = time.perf_counter()
    reports = {
        scheduler: bound_sweep(
            SweepConfig(
                seed=SEED,
                trials=500,
                m_range=(3, 3),
                n_range=(4, 9),
                p_max=20,
                scheduler=scheduler,
                budget=10**8,
            )
        )
        for scheduler in ("lpt", "random-ne")
    }
    return reports, time.perf_counter() - started


def test_criterion_01_benchmark_figure_measures(capsys):
    started = time.perf_counter()
    art = figure1()
    report = measure_report(art.instance, art.schedule)
    witness = report.ir_min_witness
    ok = (
        report.ir_min == Fraction(5, 4)
        and report.ir_max == Fraction(5, 4)
        and report.dr_max == Fraction(8, 5)
        and report.exhaustive
        and len(witness.migrants) == 4
        and check_flower(art.instance, art.schedule, witness.after)
    )
    _report(
        capsys, 1, ok, time.perf_counter() - started, 1,
        f"ir_min={report.ir_min} ir_max={report.ir_max} dr_max={report.dr_max}, "
        f"{len(witness.migrants)} movers, flower",
    )


def test_criterion_02_rounded_lpt_instance(capsys):
    started = time.perf_counter()
    art = figure9()
    loads = sorted(load_profile(art.instance, lpt(art.instance)).loads, reverse=True)
    value = measure_report(art.instance, art.schedule).ir_min
    ok = (
        loads == [Fraction(3633, 1000), Fraction(2633, 1000), Fraction(2633, 1000)]
        and Fraction(11115, 10000) <= value <= Fraction(11130, 10000)
    )
    _report(
        capsys, 2, ok, time.perf_counter() - started, 5,
        f"loads={[str(l) for l in loads]} ir_min={value} ({float(value):.5f})",
    )


def test_criterion_03_ratio_family(capsys):
    started = time.perf_counter()
    failures = []
    for r in (Fraction(3, 2), Fraction(2), Fraction(3), Fraction(10)):
        art = figure3(r)
        report = measure_report(art.instance, art.schedule)
        if report.ir_max != r or report.dr_max != (4 * r - 1) / (2 * r):
            failures.append((r, report.ir_max, report.dr_max))
    _report(
        capsys, 3, not failures, time.perf_counter() - started, 5,
        f"r in (3/2, 2, 3, 10): ir_max=r and dr_max=(4r-1)/(2r); failures={failures}",
    )


def test_criterion_04_three_machine_bound_sweep(capsys, table1_sweeps):
    reports, elapsed = table1_sweeps
    bound_violations = [
        v
        for report in reports.values()
        for v in report.violations
        if v.check != "deviation-structure"
    ]
    inconclusive = sum(r.inconclusive for r in reports.values())
    ok = not bound_violations and inconclusive == 0
    _report(
        capsys, 4, ok, elapsed, 600,
        f"1000 trials (500 lpt + 500 random-ne), m=3, n in 4..9, p in 1..20: "
        f"{len(bound_violations)} bound violations, {inconclusive} inconclusive",
    )


def test_criterion_05_general_machine_counts(capsys):
    started = time.perf_counter()
    violations = []
    for scheduler in ("lpt", "random-ne"):
        report = bound_sweep(
            SweepConfig(
                seed=SEED + 5,
                trials=200,
                m_range=(4, 5),
                n_range=(4, 9),
                p_max=20,
                scheduler=scheduler,
                budget=10**8,
            )
        )
        violations += [v for v in report.violations if "min-improvement" in v.check]
        violations += [v for v in report.violations if v.check == "schedule-is-equilibrium"]
    _report(
        capsys, 5, not violations, time.perf_counter() - started, 900,
        f"400 trials, m in 4..5: equilibria within 2-2/(m+1), greedy within "
        f"4/3-1/(3m); {len(violations)} violations",
    )


def test_criterion_06_deviation_structure(capsys, table1_sweeps):
    started = time.perf_counter()
    reports, _ = table1_sweeps
    structural_violations = [
        v
        for report in reports.values()
        for v in report.violations
        if v.check == "deviation-structure"
    ]
    # independent second pass over the same trials
    deviations_seen = 0
    failures = []
    for scheduler, report in reports.items():
        for record in report.records:
            instance = IdenticalInstance(m=record.m, p=record.jobs)
            schedule = Schedule(record.assignment)
            for deviation in enumerate_profitable_deviations(instance, schedule):
                deviations_seen += 1
                sr = structural_report(
                    instance, schedule, deviation.after,
                    lpt_origin=scheduler == "lpt",
                )
                if not (
                    sr.passed
                    and sr.at_least_four_migrants
                    and sr.flower
                    and sr.outer_loads_increase
                    and sr.center_becomes_least_loaded
                ):
                    failures.append((record.trial, scheduler, sr))
    ok = not structural_violations and not failures and deviations_seen > 0
    _report(
        capsys, 6, ok, time.perf_counter() - started, 600,
        f"{deviations_seen} deviations from criterion-4 trials: all have >= 4 "
        f"movers, flower shape, rising outer loads, sinking center; "
        f"{len(failures) + len(structural_violations)} violations",
    )


def test_criterion_07_two_machines_strong(capsys):
    started = time.perf_counter()
    rng = SplitMix64(SEED + 7)
    failures = 0
    for _ in range(300):
        n = 1 + rng.below(9)
        instance = random_instance(rng.next_u64(), 2, n, 20)
        schedule = random_ne(instance, rng.next_u64())
        if not (is_nash(instance, schedule).holds and is_strong(instance, schedule).holds):
            failures += 1
    _report(
        capsys, 7, failures == 0, time.perf_counter() - started, 60,
        f"300 random two-machine equilibria, {failures} not strong",
    )


def test_criterion_08_approximation_scheme(capsys):
    started = time.perf_counter()
    failures = []
    for eps in (Fraction(1), Fraction(1, 2)):
        for m in (2, 3):
            rng = SplitMix64(SEED + 80 + m)
            for _ in range(100):
                n = 1 + rng.below(8)
                instance = random_instance(rng.next_u64(), m, n, 20)
                schedule = ptas(instance, PtasConfig(epsilon=eps))
                opt = optimal_makespan(instance).value
                makespan = load_profile(instance, schedule).makespan
                value = measure_report(instance, schedule).ir_min
                if not (
                    is_nash(instance, schedule).holds
                    and value <= 1 + eps
                    and makespan <= (1 + eps) * opt
                ):
                    failures.append((eps, m, instance.p))
    _report(
        capsys, 8, not failures, time.perf_counter() - started, 600,
        f"400 scheme runs (eps in (1, 1/2), m in (2, 3)): equilibrium, "
        f"min-improvement <= 1+eps, makespan <= (1+eps)*opt; {len(failures)} failures",
    )


def test_criterion_09_subset_preservation(capsys):
    started = time.perf_counter()
    rng = SplitMix64(SEED + 9)
    failures = 0
    for _ in range(200):
        m = 2 + rng.below(3)
        n = 1 + rng.below(9)
        instance = random_instance(rng.next_u64(), m, n, 20)
        schedule = lpt(instance)
        subset = [i for i in range(1, m + 1) if rng.below(2)]
        if not subset:
            subset = [1 + rng.below(m)]
        induced = induced_instance(instance, schedule, subset)
        if lpt(induced.instance).assignment != induced.induced_schedule(schedule).assignment:
            failures += 1
    _report(
        capsys, 9, failures == 0, time.perf_counter() - started, 60,
        f"200 induced-subinstance reruns reproduce the greedy assignment "
        f"exactly; {failures} mismatches",
    )


def test_criterion_10_reduction_equivalence(capsys):
    started = time.perf_counter()
    mismatches = []
    cases = 0
    for size in (4, 5, 6):
        for values in itertools.combinations_with_replacement(range(3, 9), size):
            if sum(values) % 2:
                continue
            cases += 1
            oracle_strong = partition_oracle(list(values)) is None
            art = reduce_partition_identical(values, m=3)
            if is_strong(art.instance, art.start_schedule).holds != oracle_strong:
                mismatches.append(("identical", values))
            art_u = reduce_partition_unrelated(values, Fraction(1, len(values)))
            if is_strong(art_u.instance, art_u.start_schedule).holds != oracle_strong:
                mismatches.append(("unrelated", values))
    _report(
        capsys, 10, cases > 0 and not mismatches, time.perf_counter() - started, 1200,
        f"{cases} multisets (|A| in 4..6, values 3..8, even totals), both "
        f"reductions agree with the half-sum oracle; {len(mismatches)} mismatches",
    )


def test_criterion_11_extremal_search(capsys):
    started = time.perf_counter()
    improvement = search_extremal_lpt(3, "ir_max", Fraction(155, 100))
    damage = search_extremal_lpt(3, "dr_max", Fraction(140, 100))
    checks = []
    for result, target, cap, strict in (
        (improvement, Fraction(155, 100), Fraction(5, 3), False),
        (damage, Fraction(140, 100), Fraction(3, 2), True),
    ):
        ok = result.found and target <= result.value
        ok = ok and (result.value < cap if strict else result.value <= cap)
        if ok:
            # independent re-verification of the witness deviation
            stats = deviation_stats(result.instance, result.schedule, result.deviation.after)
            achieved = max(
                stats.max_improvement if not strict else Fraction(0), stats.max_damage
            )
            ok = achieved >= target
            report = measure_report(result.instance, result.schedule)
            ok = ok and report.exhaustive
            ok = ok and (report.ir_max <= Fraction(5, 3) if not strict else True)
            ok = ok and (report.dr_max < Fraction(3, 2) if strict else True)
        checks.append(ok)
    _report(
        capsys, 11, all(checks), time.perf_counter() - started, 1800,
        f"greedy instances found with improvement {improvement.value} >= 1.55 "
        f"(cap 5/3) and damage {damage.value} >= 1.40 (cap 3/2), both re-verified",
    )


def test_criterion_12_list_scheduling_counterexamples(capsys):
    started = time.perf_counter()
    imp, _ = ls_examples(10, Fraction(1, 10))
    loads = load_profile(imp.instance, imp.schedule).loads
    stats = deviation_stats(imp.instance, imp.schedule, imp.deviation.after)
    ok = loads == (11, 1) and stats.min_improvement == Fraction(11, 2)
    (job,) = imp.deviation.migrants
    machine = imp.deviation.after.machine_of(job)
    ok = ok and (job, machine) == (1, 2) and (
        load_profile(imp.instance, imp.schedule).load(imp.schedule.machine_of(job))
        / (loads[machine - 1] + imp.instance.p[job - 1])
        == Fraction(11, 2)
    )
    rng = SplitMix64(SEED + 12)
    damage_failures = 0
    for _ in range(200):
        m = 2 + rng.below(3)
        n = 1 + rng.below(9)
        instance = random_instance(rng.next_u64(), m, n, 20)
        order = list(range(1, n + 1))
        # deterministic shuffle via the seeded stream
        for k in range(n - 1, 0, -1):
            pick = rng.below(k + 1)
            order[k], order[pick] = order[pick], order[k]
        schedule = list_schedule(instance, order)
        current = load_profile(instance, schedule).loads
        for j, i, _ in ScanContext(instance, schedule).improving_moves():
            before = current[i]
            if before > 0 and (before + instance.p[j]) > 2 * before:
                damage_failures += 1
    ok = ok and damage_failures == 0
    _report(
        capsys, 12, ok, time.perf_counter() - started, 60,
        f"arrival-order trap gives loads (11, 1) and exact single-move ratio "
        f"11/2; 200 random list schedules show single-move damage <= 2 "
        f"({damage_failures} failures)",
    )
