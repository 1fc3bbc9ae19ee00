"""Randomized sweep harness: seeded instance generation, random
equilibria via best-response dynamics, and bound sweeps that stress
every measure limit on generated instances.

Reports are replayable: the per-trial seeds derive deterministically
from the sweep seed via SplitMix64 (documented below), so (seed, config)
regenerate identical reports modulo timing fields, and any violation
record carries everything needed to reproduce it standalone.
`bound_sweep` and `replay_violation` evaluate a trial through the one
private `_evaluate`, so a replay runs the checks the sweep ran.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    BudgetExceededError,
    IdenticalInstance,
    Schedule,
    ValidationError,
    format_rational,
    instance_from_dict,
    instance_to_dict,
    load_profile,
    parse_rational,
    schedule_from_dict,
    schedule_to_dict,
    validate_schedule,
)
from .equilibria import DEFAULT_SEARCH_BUDGET, improving_moves, is_nash
from .measures import (
    LPT_DAMAGE_LIMIT,
    LPT_MAX_IMPROVEMENT_LIMIT_3,
    NE_DAMAGE_LIMIT,
    MeasureReport,
    leq_lpt_three_machine_limit,
    lpt_min_improvement_limit,
    measure_report,
    ne_min_improvement_limit,
    structural_report,
)
from .schedulers import PtasConfig, list_schedule, lpt, optimal_makespan, ptas

SCHEDULERS = ("lpt", "ls", "ptas", "random-ne")

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The standard splitmix64 pseudo-random stream.

    state <- state + 0x9E3779B97F4A7C15 (mod 2^64); the output is the
    state xor-shifted by 30/27/31 and multiplied by 0xBF58476D1CE4E5B9
    and 0x94D049BB133111EB in between.  Fixed here so that sweeps replay
    identically across implementations and platforms.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        """Uniform integer in [0, k) via rejection sampling (no modulo bias)."""
        if k < 1:
            raise ValidationError(f"range bound must be positive, got {k}")
        limit = (1 << 64) - ((1 << 64) % k)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % k

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def random_instance(seed: int, m: int, n: int, p_max: int) -> IdenticalInstance:
    """n integer processing times drawn uniformly from [1, p_max]."""
    if m < 1 or n < 0 or p_max < 1:
        raise ValidationError("m, p_max must be positive and n non-negative")
    rng = SplitMix64(seed)
    return IdenticalInstance(m=m, p=tuple(1 + rng.below(p_max) for _ in range(n)))


def random_ne(instance: IdenticalInstance, seed: int, on_move=None) -> Schedule:
    """Random assignment driven to equilibrium by best-response moves.

    Repeatedly the lowest-index improving job moves to its best machine
    (smallest resulting cost, lowest index on ties).  Each move strictly
    lexicographically decreases the sorted load vector, so this stops.
    `on_move(job, source, target, loads_before, loads_after)` observes
    every step.
    """
    if not isinstance(instance, IdenticalInstance):
        raise ValidationError("random equilibria are defined for identical machines only")
    rng = SplitMix64(seed)
    assignment = [1 + rng.below(instance.m) for _ in range(instance.n)]
    loads = [Fraction(0)] * instance.m
    for j, i in enumerate(assignment):
        loads[i - 1] += instance.p[j]
    while True:
        moved = False
        for j in range(1, instance.n + 1):
            here = assignment[j - 1]
            cost = loads[here - 1]
            size = instance.p[j - 1]
            best = None
            for i in range(1, instance.m + 1):
                if i == here:
                    continue
                new = loads[i - 1] + size
                if new < cost and (best is None or new < best[0]):
                    best = (new, i)
            if best is not None:
                before = tuple(loads)
                target = best[1]
                assignment[j - 1] = target
                loads[here - 1] -= size
                loads[target - 1] += size
                if on_move is not None:
                    on_move(j, here, target, before, tuple(loads))
                moved = True
                break
        if not moved:
            return Schedule(tuple(assignment))


def _check_scheduler(scheduler, eps) -> None:
    """Reject a scheduler the sweep cannot run: an unknown name, ptas
    without a positive eps, or an eps that the scheduler would not read."""
    if scheduler not in SCHEDULERS:
        raise ValidationError(f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}")
    if scheduler == "ptas" and eps is None:
        raise ValidationError("the ptas scheduler needs eps")
    if scheduler != "ptas" and eps is not None:
        raise ValidationError(f"eps applies only to the ptas scheduler, not {scheduler!r}")
    if eps is not None and eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: `trials` random instances with m in m_range, n in
    n_range, integer sizes in [1, p_max], scheduled by `scheduler`.

    Integer sizes keep the exhaustive deviation search exact and fast;
    `structural` additionally validates the per-deviation structure on
    every three-machine equilibrium trial.
    """

    seed: int
    trials: int
    m_range: tuple[int, int]
    n_range: tuple[int, int]
    p_max: int
    scheduler: str
    eps: Fraction | None = None
    budget: int = DEFAULT_SEARCH_BUDGET
    structural: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials must be at least 1")
        for name, (lo, hi) in (("m_range", self.m_range), ("n_range", self.n_range)):
            if lo < 1 or hi < lo:
                raise ValidationError(f"{name} must be an ordered positive interval, got {lo}..{hi}")
        if self.p_max < 1:
            raise ValidationError("p_max must be positive")
        if self.eps is not None:
            object.__setattr__(self, "eps", Fraction(self.eps))
        _check_scheduler(self.scheduler, self.eps)
        if self.m_range[1] ** self.n_range[1] > self.budget:
            raise ValidationError(
                f"m^n can reach {self.m_range[1]}^{self.n_range[1]}, beyond the "
                f"node budget {self.budget}; shrink the ranges or raise the budget"
            )


@dataclass(frozen=True)
class BoundCheck:
    name: str
    holds: bool
    observed: str
    bound: str


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    scheduler: str
    m: int
    n: int
    seed: int
    jobs: tuple[Fraction, ...]
    assignment: tuple[int, ...]
    makespan: Fraction
    opt: Fraction | None
    ir_min: Fraction | None
    ir_max: Fraction | None
    dr_max: Fraction | None
    exhaustive: bool
    inconclusive: bool
    checks: tuple[BoundCheck, ...]

    @property
    def bounds_ok(self) -> bool:
        return all(c.holds for c in self.checks)


@dataclass(frozen=True)
class Violation:
    """A failed check with everything needed to replay it standalone:
    the scheduler and eps select the checks that apply, and `seed` is the
    `TrialRecord.seed` of the trial that drew the instance."""

    trial: int
    seed: int
    scheduler: str
    eps: Fraction | None
    check: str
    observed: str
    bound: str
    instance: dict
    schedule: dict
    witness: dict | None

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "eps": None if self.eps is None else format_rational(self.eps),
            "check": self.check,
            "observed": self.observed,
            "bound": self.bound,
            "instance": self.instance,
            "schedule": self.schedule,
            "witness": self.witness,
        }


CSV_COLUMNS = [
    "trial",
    "scheduler",
    "m",
    "n",
    "makespan",
    "opt",
    "ir_min",
    "ir_max",
    "dr_max",
    "bounds_ok",
    "exhaustive",
]


@dataclass
class SweepReport:
    config: SweepConfig
    records: list[TrialRecord] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    inconclusive: int = 0
    elapsed: float = 0.0

    def csv_rows(self) -> list[list[str]]:
        rows = [CSV_COLUMNS]
        for r in self.records:
            rows.append(
                [
                    str(r.trial),
                    r.scheduler,
                    str(r.m),
                    str(r.n),
                    str(format_rational(r.makespan)),
                    "" if r.opt is None else str(format_rational(r.opt)),
                    "" if r.ir_min is None else str(format_rational(r.ir_min)),
                    "" if r.ir_max is None else str(format_rational(r.ir_max)),
                    "" if r.dr_max is None else str(format_rational(r.dr_max)),
                    "" if r.inconclusive else str(r.bounds_ok).lower(),
                    str(r.exhaustive).lower(),
                ]
            )
        return rows

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(self.csv_rows())

    def to_dict(self) -> dict:
        """Machine-readable summary; `elapsed_seconds` is the only field
        that varies between identical replays."""
        return {
            "trials": len(self.records),
            "inconclusive": self.inconclusive,
            "violations": [v.to_dict() for v in self.violations],
            "elapsed_seconds": self.elapsed,
        }


def _schedule_for(config: SweepConfig, instance: IdenticalInstance, extra_seed: int) -> Schedule:
    if config.scheduler == "lpt":
        return lpt(instance)
    if config.scheduler == "ls":
        return list_schedule(instance, range(1, instance.n + 1))
    if config.scheduler == "ptas":
        return ptas(instance, PtasConfig(epsilon=config.eps))
    return random_ne(instance, extra_seed)


def _bound_checks(
    scheduler, eps, equilibrium, instance, schedule, report: MeasureReport, makespan, opt
):
    """Every limit applicable to this scheduler and machine count;
    `equilibrium` says whether the schedule is a Nash equilibrium."""
    m = instance.m
    checks = []

    def add(name, holds, observed, bound):
        checks.append(BoundCheck(name=name, holds=holds, observed=str(observed), bound=bound))

    if scheduler in ("lpt", "ptas", "random-ne"):
        add("schedule-is-equilibrium", equilibrium, equilibrium, "true")
    if equilibrium:
        limit = ne_min_improvement_limit(m)
        add("ne-min-improvement", report.ir_min <= limit, report.ir_min, str(limit))
        add("ne-damage", report.dr_max < NE_DAMAGE_LIMIT, report.dr_max, "< 2")
        if m == 3 and report.deviation_count > 0:
            top = makespan
            total = instance.total()
            add("ne-top-load-at-most-half", 2 * top <= total, top, f"<= {total}/2")
    if scheduler == "lpt":
        if m == 3:
            add(
                "lpt-min-improvement",
                leq_lpt_three_machine_limit(report.ir_min),
                report.ir_min,
                "1/2 + sqrt(6)/4",
            )
            add(
                "lpt-max-improvement",
                report.ir_max <= LPT_MAX_IMPROVEMENT_LIMIT_3,
                report.ir_max,
                str(LPT_MAX_IMPROVEMENT_LIMIT_3),
            )
        else:
            limit = lpt_min_improvement_limit(m)
            add("lpt-min-improvement", report.ir_min <= limit, report.ir_min, str(limit))
        add("lpt-damage", report.dr_max < LPT_DAMAGE_LIMIT, report.dr_max, "< 3/2")
        if opt is not None:
            limit = Fraction(4, 3) - Fraction(1, 3 * m)
            add("lpt-makespan", makespan <= limit * opt, makespan, f"<= ({limit})*opt")
    if scheduler == "ls":
        if opt is not None:
            limit = 2 - Fraction(1, m)
            add("ls-makespan", makespan <= limit * opt, makespan, f"<= ({limit})*opt")
        loads = load_profile(instance, schedule).loads
        worst = Fraction(1)
        for j, i, _ in improving_moves(instance, schedule):
            before = loads[i - 1]
            if before > 0:
                worst = max(worst, (before + instance.p[j - 1]) / before)
        add("ls-single-move-damage", worst <= 2, worst, "<= 2")
    if scheduler == "ptas":
        add("ptas-min-improvement", report.ir_min <= 1 + eps, report.ir_min, f"<= 1 + {eps}")
        if opt is not None:
            add(
                "ptas-makespan", makespan <= (1 + eps) * opt, makespan, f"<= (1 + {eps})*opt"
            )
    return tuple(checks)


def _evaluate(scheduler, eps, instance, schedule, budget, structural):
    """Measure one trial's schedule and check every applicable limit,
    computing equilibrium status once for the checks and for the
    structural predicates, which run on every deviation of a three-machine
    equilibrium when `structural`.  Returns (measures, makespan, opt,
    checks, structural_failures): `opt` is None past its budget, `checks`
    is empty when the measures ran out of budget (the trial is
    inconclusive), and the failures are (deviation, report) pairs."""
    equilibrium = is_nash(instance, schedule).holds
    structural_failures: list[tuple] = []
    on_deviation = None
    if structural and instance.m == 3 and equilibrium:

        def on_deviation(dev):
            sr = structural_report(instance, schedule, dev.after, lpt_origin=scheduler == "lpt")
            if not sr.passed:
                structural_failures.append((dev, sr))

    measures = measure_report(instance, schedule, node_budget=budget, on_deviation=on_deviation)
    makespan = load_profile(instance, schedule).makespan
    try:
        opt = optimal_makespan(instance, node_budget=budget).value
    except BudgetExceededError:
        opt = None
    checks: tuple[BoundCheck, ...] = ()
    if measures.exhaustive:
        checks = _bound_checks(
            scheduler, eps, equilibrium, instance, schedule, measures, makespan, opt
        )
    return measures, makespan, opt, checks, structural_failures


def bound_sweep(config: SweepConfig) -> SweepReport:
    """Run the configured trials, measuring every schedule exactly and
    checking every applicable limit; a clean sweep has no violations.

    Budget-capped trials are marked inconclusive and excluded from the
    bound checks but still counted; structural findings discovered before
    the budget ran out are kept (a witnessed failure stands on its own).
    """
    report = SweepReport(config=config)
    started = time.perf_counter()
    rng = SplitMix64(config.seed)
    for t in range(config.trials):
        trial_seed = rng.next_u64()
        trng = SplitMix64(trial_seed)
        m = trng.between(*config.m_range)
        n = trng.between(*config.n_range)
        instance_seed = trng.next_u64()
        extra_seed = trng.next_u64()
        instance = random_instance(instance_seed, m, n, config.p_max)
        schedule = _schedule_for(config, instance, extra_seed)
        measures, makespan, opt, checks, structural_failures = _evaluate(
            config.scheduler, config.eps, instance, schedule, config.budget, config.structural
        )
        inconclusive = not measures.exhaustive
        if inconclusive:
            report.inconclusive += 1

        def violation(check, observed, bound, witness):
            return Violation(
                trial=t,
                seed=trial_seed,
                scheduler=config.scheduler,
                eps=config.eps,
                check=check,
                observed=observed,
                bound=bound,
                instance=instance_to_dict(instance),
                schedule=schedule_to_dict(schedule),
                witness=None if witness is None else witness.to_dict(),
            )

        witness = measures.ir_min_witness or measures.dr_max_witness
        for c in checks:
            if not c.holds:
                report.violations.append(violation(c.name, c.observed, c.bound, witness))
        for dev, sr in structural_failures:
            report.violations.append(
                violation("deviation-structure", repr(sr), "structural predicates", dev)
            )
        report.records.append(
            TrialRecord(
                trial=t,
                scheduler=config.scheduler,
                m=m,
                n=n,
                seed=trial_seed,
                jobs=instance.p,
                assignment=schedule.assignment,
                makespan=makespan,
                opt=opt,
                ir_min=None if inconclusive else measures.ir_min,
                ir_max=None if inconclusive else measures.ir_max,
                dr_max=None if inconclusive else measures.dr_max,
                exhaustive=measures.exhaustive,
                inconclusive=inconclusive,
                checks=checks,
            )
        )
    report.elapsed = time.perf_counter() - started
    return report


def replay_violation(payload: dict, node_budget: int = DEFAULT_SEARCH_BUDGET) -> bool:
    """Re-evaluate a violation record from scratch; True iff it reproduces.

    The record's own `scheduler` and `eps` select the checks, and must
    name a scheduler the sweep can run; records written before those
    fields existed fall back to guessing the scheduler from the schedule,
    which cannot recognize `ptas`.  A `deviation-structure` record is
    replayed on its witness alone; any other check reproduces only when
    the trial's measures finish within `node_budget`."""
    instance = instance_from_dict(payload["instance"])
    schedule = schedule_from_dict(payload["schedule"])
    validate_schedule(instance, schedule)
    scheduler = payload.get("scheduler") or _detect_scheduler(instance, schedule)
    eps = payload.get("eps")
    eps = None if eps is None else parse_rational(eps)
    _check_scheduler(scheduler, eps)
    check = payload["check"]
    if check == "deviation-structure":
        after = schedule_from_dict(payload["witness"])
        lpt_origin = scheduler == "lpt"
        return not structural_report(instance, schedule, after, lpt_origin=lpt_origin).passed
    checks = _evaluate(scheduler, eps, instance, schedule, node_budget, structural=False)[3]
    return any(c.name == check and not c.holds for c in checks)


def _detect_scheduler(instance, schedule) -> str:
    if isinstance(instance, IdenticalInstance):
        if schedule.assignment == lpt(instance).assignment:
            return "lpt"
        if schedule.assignment == list_schedule(instance, range(1, instance.n + 1)).assignment:
            return "ls"
    return "random-ne" if is_nash(instance, schedule).holds else "ls"
