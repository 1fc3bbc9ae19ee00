"""Randomized sweep harness: seeded instance generation, random
equilibria via best-response dynamics, and bound sweeps that stress
every measure limit on generated instances.

Reports are replayable: the per-trial seeds derive deterministically
from the sweep seed via SplitMix64 (documented below), so (seed, config)
regenerate identical reports modulo timing fields, and any violation
record carries everything needed to reproduce it standalone.
`bound_sweep` and `replay_violation` evaluate a trial through the one
private `_evaluate`, whose list of `BoundCheck`s is the single record of
what the trial checked: the trial's `checks` and `bounds_ok`, its CSV
cell and its violations (one per failed check, in list order) all read
it, and a replay runs the checks the sweep ran.  Each check carries its
witness: a limit on a measure of `measures._MEASURES` that measure's
witness, a structural check its deviation, and any other check none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .core import (
    DEFAULT_SEARCH_BUDGET,
    BudgetExceededError,
    IdenticalInstance,
    Schedule,
    ValidationError,
    _check_budget,
    _is_int,
    format_rational,
    instance_from_dict,
    instance_to_dict,
    parse_rational,
    schedule_from_dict,
    schedule_to_dict,
)
from .equilibria import Deviation, ScanContext
from .measures import (
    _MEASURES,
    MeasureReport,
    _measure,
    _paper_limits,
    _structure,
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
        if not _is_int(seed):
            raise ValidationError(f"seed must be an int, got {seed!r}")
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
    if not all(map(_is_int, (m, n, p_max))) or m < 1 or n < 0 or p_max < 1:
        raise ValidationError(
            "m and p_max must be positive ints and n a non-negative int, "
            f"got m={m!r}, n={n!r}, p_max={p_max!r}"
        )
    rng = SplitMix64(seed)
    return IdenticalInstance(m=m, p=tuple(1 + rng.below(p_max) for _ in range(n)))


def random_ne(instance: IdenticalInstance, seed: int) -> Schedule:
    """Random assignment driven to equilibrium by best-response moves.

    Repeatedly the lowest-index improving job moves to its best machine
    (smallest resulting cost, lowest index on ties).  Each move strictly
    lexicographically decreases the sorted load vector, so this stops.
    Loads are sums of the instance's scaled integers (see `core`).  On
    identical machines a job's best machine is the least loaded one, and
    a job improves by moving there iff its machine's load less its own
    size exceeds that machine's load.
    """
    if not isinstance(instance, IdenticalInstance):
        raise ValidationError("random equilibria are defined for identical machines only")
    rng = SplitMix64(seed)
    assignment = [rng.below(instance.m) for _ in range(instance.n)]
    sizes = instance._scaled[0][0]
    loads = [0] * instance.m
    for j, i in enumerate(assignment):
        loads[i] += sizes[j]
    while True:
        low = min(loads)
        target = loads.index(low)
        for j, here in enumerate(assignment):
            if loads[here] - sizes[j] > low:
                loads[here] -= sizes[j]
                loads[target] += sizes[j]
                assignment[j] = target
                break
        else:
            return Schedule(tuple(i + 1 for i in assignment))


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

    Integer sizes keep the exhaustive deviation search exact and fast.
    Every deviation of a three-machine equilibrium trial is also checked
    against the structural predicates.  `budget`, a positive int, caps
    each search of a trial, whatever m and n are: a trial whose measures
    run out of it is inconclusive, and its `opt` is None once that search
    runs out.  It also caps the ptas prefix search, which fails loudly
    with `BudgetExceededError` instead, ending the sweep.
    """

    seed: int
    trials: int
    m_range: tuple[int, int]
    n_range: tuple[int, int]
    p_max: int
    scheduler: str
    eps: Fraction | None = None
    budget: int = DEFAULT_SEARCH_BUDGET

    def __post_init__(self):
        if not _is_int(self.seed):
            raise ValidationError(f"seed must be an int, got {self.seed!r}")
        if not _is_int(self.trials) or self.trials < 1:
            raise ValidationError(f"trials must be a positive int, got {self.trials!r}")
        for name, (lo, hi) in (("m_range", self.m_range), ("n_range", self.n_range)):
            if not (_is_int(lo) and _is_int(hi)) or lo < 1 or hi < lo:
                raise ValidationError(
                    f"{name} must be an ordered interval of positive ints, got {lo!r}..{hi!r}"
                )
        if not _is_int(self.p_max) or self.p_max < 1:
            raise ValidationError(f"p_max must be a positive int, got {self.p_max!r}")
        if self.eps is not None:
            object.__setattr__(self, "eps", parse_rational(self.eps))
        _check_scheduler(self.scheduler, self.eps)
        _check_budget(self.budget)


@dataclass(frozen=True)
class BoundCheck:
    """One verdict of a trial; `witness` is the deviation that attains the
    value it checks, if any."""

    name: str
    holds: bool
    observed: str
    bound: str
    witness: Deviation | None


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
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record["eps"] = None if self.eps is None else format_rational(self.eps)
        return record


CSV_COLUMNS = [
    "trial", "scheduler", "m", "n", "makespan", "opt", *_MEASURES, "bounds_ok", "exhaustive",
]


@dataclass
class SweepReport:
    config: SweepConfig
    records: list[TrialRecord] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def inconclusive(self) -> int:
        """The number of trials whose measures ran out of budget."""
        return sum(not r.exhaustive for r in self.records)

    def csv_rows(self) -> list[list[str]]:
        """The CSV_COLUMNS header, then one row per trial; a value that
        was not computed is an empty cell, and so is `bounds_ok` for an
        inconclusive trial none of whose checks failed."""
        rows = [CSV_COLUMNS]
        for r in self.records:
            values = (r.makespan, r.opt, *(getattr(r, name) for name in _MEASURES))
            ok = "false" if not r.bounds_ok else "true" if r.exhaustive else ""
            rows.append(
                [str(r.trial), r.scheduler, str(r.m), str(r.n)]
                + ["" if q is None else str(format_rational(q)) for q in values]
                + [ok, str(r.exhaustive).lower()]
            )
        return rows


def _schedule_for(config: SweepConfig, instance: IdenticalInstance, extra_seed: int) -> Schedule:
    if config.scheduler == "lpt":
        return lpt(instance)
    if config.scheduler == "ls":
        return list_schedule(instance, range(1, instance.n + 1))
    if config.scheduler == "ptas":
        return ptas(instance, PtasConfig(epsilon=config.eps, node_budget=config.budget))
    return random_ne(instance, extra_seed)


# each scheduler's makespan guarantee against opt, given m and eps: the
# factor, and its printed form (ptas prints eps apart)
_MAKESPAN_FACTORS = {
    "lpt": lambda m, eps: (Fraction(4, 3) - Fraction(1, 3 * m),) * 2,
    "ls": lambda m, eps: (2 - Fraction(1, m),) * 2,
    "ptas": lambda m, eps: (1 + eps, f"1 + {eps}"),
}


def _bound_checks(scheduler, eps, equilibrium, ctx, report: MeasureReport, makespan, opt):
    """Every limit applicable to this scheduler and machine count on the
    schedule of `ctx`, as a list of `BoundCheck`s in check order;
    `equilibrium` says whether it is a Nash equilibrium.  A check that
    reads a measure carries that measure's witness."""
    m = ctx.m
    checks = []

    def add(name, holds, observed, bound, witness=None):
        checks.append(BoundCheck(name, holds, str(observed), bound, witness))

    def add_limits(prefix, limits):
        # limits as `measures._paper_limits` gives them, by measure
        for measure, limit in limits.items():
            if limit is not None:
                text, holds = limit
                observed, witness = getattr(report, measure), getattr(report, f"{measure}_witness")
                add(f"{prefix}-{_MEASURES[measure][0]}", holds(observed), observed, text, witness)

    if scheduler in ("lpt", "ptas", "random-ne"):
        add("schedule-is-equilibrium", equilibrium, equilibrium, "true")
    if equilibrium:
        add_limits("ne", _paper_limits(m, lpt_schedule=False))
        if m == 3 and report.deviation_count > 0:
            total = Fraction(sum(ctx.load0), ctx.scale)
            add("ne-top-load-at-most-half", 2 * makespan <= total, makespan, f"<= {total}/2")
    if scheduler == "lpt":
        add_limits("lpt", _paper_limits(m, lpt_schedule=True))
    if scheduler == "ptas":
        add_limits("ptas", {"ir_min": (f"<= 1 + {eps}", lambda x: x <= 1 + eps)})
    if scheduler in _MAKESPAN_FACTORS and opt is not None:
        factor, text = _MAKESPAN_FACTORS[scheduler](m, eps)
        add(f"{scheduler}-makespan", makespan <= factor * opt, makespan, f"<= ({text})*opt")
    if scheduler == "ls":
        worst = Fraction(1)
        for _, i, cost in ctx.improving_moves():
            if ctx.load0[i] > 0:
                worst = max(worst, Fraction(cost, ctx.load0[i]))
        add("ls-single-move-damage", worst <= 2, worst, "<= 2")
    return checks


def _evaluate(scheduler, eps, instance, schedule, budget):
    """Measure one trial's schedule and check every applicable limit on
    one scaled-integer context: it gives the equilibrium status, the
    makespan and the single-move damage, and the measure scan runs on it.
    The caller checks `budget`.

    On a three-machine equilibrium the structural predicates run once per
    orbit representative.  Twins share a start machine and every size, so
    each member of an orbit has the representative's report, and a
    failing orbit is expanded whole.  After a budget stop only members up
    to the last representative are kept, a lexicographic prefix of the
    failing deviations; so the measure scan keeps index order
    (`_measure`'s default), not the size order of `measure_report`.

    Returns (measures, makespan, opt, checks): `opt` is None past its
    budget.  `checks` lists the limit checks in check order, none when the
    measures ran out of budget (the trial is inconclusive), then one
    failed `deviation-structure` check per failing deviation, in
    lexicographic order, with the deviation as its witness."""
    ctx = ScanContext(instance, schedule)
    equilibrium = next(ctx.improving_moves(), None) is None
    failed: list[tuple] = []
    last = None
    on_leaf = None
    if ctx.m == 3 and equilibrium:
        lpt_origin = scheduler == "lpt"

        def on_leaf(ctx, assign, loads, caps):
            nonlocal last
            last = tuple(assign)
            sr = _structure(ctx, assign, lpt_origin)
            if not sr.passed:
                failed.extend((member, sr) for member in ctx.orbit(assign))

    measures = _measure(ctx, budget, on_leaf)
    makespan = Fraction(max(ctx.load0), ctx.scale)
    try:
        opt = optimal_makespan(instance, node_budget=budget).value
    except BudgetExceededError:
        opt = None
    checks = []
    if measures.exhaustive:
        checks = _bound_checks(scheduler, eps, equilibrium, ctx, measures, makespan, opt)
    checks += [
        BoundCheck(
            "deviation-structure", False, repr(sr), "structural predicates", ctx.deviation(assign)
        )
        for assign, sr in sorted(failed, key=lambda f: f[0])
        if measures.exhaustive or assign <= last
    ]
    return measures, makespan, opt, tuple(checks)


def bound_sweep(config: SweepConfig) -> SweepReport:
    """Run the configured trials, measuring every schedule exactly and
    checking every applicable limit; a clean sweep has no violations.

    Each trial's record keeps its `_evaluate` checks, and each failed
    check becomes one violation, in list order.  Budget-capped trials are
    marked inconclusive and excluded from the limit checks but still
    counted; structural failures found before the budget ran out are kept
    (a witnessed failure stands on its own).
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
        measures, makespan, opt, checks = _evaluate(
            config.scheduler, config.eps, instance, schedule, config.budget
        )
        inconclusive = not measures.exhaustive
        report.violations.extend(
            Violation(
                trial=t,
                seed=trial_seed,
                scheduler=config.scheduler,
                eps=config.eps,
                check=c.name,
                observed=c.observed,
                bound=c.bound,
                instance=instance_to_dict(instance),
                schedule=schedule_to_dict(schedule),
                witness=None if c.witness is None else c.witness.to_dict(),
            )
            for c in checks
            if not c.holds
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
                **{name: None if inconclusive else getattr(measures, name) for name in _MEASURES},
                exhaustive=measures.exhaustive,
                checks=checks,
            )
        )
    report.elapsed = time.perf_counter() - started
    return report


def replay_violation(payload: dict, node_budget: int = DEFAULT_SEARCH_BUDGET) -> bool:
    """Re-evaluate a violation record from scratch; True iff it reproduces.

    The record needs its `scheduler`, `check`, `instance` and `schedule`
    fields, and a `deviation-structure` record its `witness`; a missing
    one, or a schedule that does not fit the instance, is a
    ValidationError.  The record's own `scheduler` and `eps`
    select the checks, and must name a scheduler the sweep can run.  A
    `deviation-structure` record is replayed on its witness alone; any
    other check reproduces only when the trial's measures finish within
    `node_budget`, which is checked first whatever the record."""
    _check_budget(node_budget)
    required = ["scheduler", "check", "instance", "schedule"]
    if payload.get("check") == "deviation-structure":
        required.append("witness")
    for key in required:
        if key not in payload:
            raise ValidationError(f"the violation record has no {key!r} field")
    instance = instance_from_dict(payload["instance"])
    schedule = schedule_from_dict(payload["schedule"])
    scheduler = payload["scheduler"]
    eps = payload.get("eps")
    eps = None if eps is None else parse_rational(eps)
    _check_scheduler(scheduler, eps)
    check = payload["check"]
    if check == "deviation-structure":
        after = schedule_from_dict(payload["witness"])
        lpt_origin = scheduler == "lpt"
        return not structural_report(instance, schedule, after, lpt_origin=lpt_origin).passed
    checks = _evaluate(scheduler, eps, instance, schedule, node_budget)[3]
    return any(c.name == check and not c.holds for c in checks)

