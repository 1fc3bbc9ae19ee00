"""Stability measures of schedules under coalition moves.

For a profitable deviation, a mover's improvement ratio is its old cost
over its new cost, an improving bystander's is the old over the new load
of its (unchanged) machine, and the damage ratio of a job left behind on
a heavier machine is the new load over the old.  A schedule's measures
maximize these over every profitable deviation; by convention all three
are exactly 1 when no deviation exists.

`measure_report` computes all three, with witnesses, from one scan of
`equilibria.scan_deviations`; read `ir_max` and `dr_max` from it.
`ir_min` answers the min-improvement measure alone with a scan that
prunes every branch unable to beat the best ratio found so far.  The
`ir_max` witness counts improving bystanders in its coalition; every
other witness's coalition is its migrants.

`deviation_stats` is the one validated pass over a single given
deviation: its ratios, migration matrix, flows and loads.  `check_flower`
and `structural_report` read every per-deviation fact from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    BudgetExceededError,
    IdenticalInstance,
    Instance,
    Schedule,
    ValidationError,
    load_profile,
)
from .equilibria import (
    DEFAULT_SEARCH_BUDGET,
    Deviation,
    OrbitMerge,
    ScanContext,
    is_nash,
    profitable_deviation,
    scan_deviations,
)

# Exact limits quantified over deviations (strict where marked).
NE_MIN_IMPROVEMENT_LIMIT_3 = Fraction(5, 4)
LPT_MAX_IMPROVEMENT_LIMIT_3 = Fraction(5, 3)
NE_DAMAGE_LIMIT = Fraction(2)  # strict
LPT_DAMAGE_LIMIT = Fraction(3, 2)  # strict


def ne_min_improvement_limit(m: int) -> Fraction:
    """Largest guaranteed min-improvement bound for equilibria on m machines."""
    if m <= 2:
        return Fraction(1)
    if m == 3:
        return NE_MIN_IMPROVEMENT_LIMIT_3
    return 2 - Fraction(2, m + 1)


def lpt_min_improvement_limit(m: int) -> Fraction | None:
    """Rational LPT min-improvement bound; None for m == 3 where the exact
    limit is irrational (use `leq_lpt_three_machine_limit`)."""
    if m <= 2:
        return Fraction(1)
    if m == 3:
        return None
    return Fraction(4, 3) - Fraction(1, 3 * m)


def leq_lpt_three_machine_limit(x: Fraction) -> bool:
    """Decide x <= 1/2 + sqrt(6)/4 exactly in rational arithmetic."""
    x = Fraction(x)
    if x <= Fraction(1, 2):
        return True
    return (2 * x - 1) ** 2 <= Fraction(3, 2)


@dataclass(frozen=True)
class DeviationStats:
    """Exact per-job ratios and flow bookkeeping for one deviation.

    migration[i-1][j-1] is 1 iff some job moves machine i -> j;
    staying_load[i-1] totals the jobs that keep machine i; moved_load
    carries the per-pair totals (measured on the destination machine for
    unrelated instances, since that is the load actually added there).
    `loads_before` and `loads_after` are the machine loads of the two
    schedules.
    """

    mover_improvement: dict[int, Fraction]
    bystander_improvement: dict[int, Fraction]
    damage: dict[int, Fraction]
    migration: tuple[tuple[int, ...], ...]
    staying_load: tuple[Fraction, ...]
    moved_load: tuple[tuple[Fraction, ...], ...]
    loads_before: tuple[Fraction, ...]
    loads_after: tuple[Fraction, ...]

    @property
    def min_improvement(self) -> Fraction:
        return min(self.mover_improvement.values())

    @property
    def max_improvement(self) -> Fraction:
        return max(
            list(self.mover_improvement.values())
            + list(self.bystander_improvement.values())
        )

    @property
    def max_damage(self) -> Fraction:
        return max(self.damage.values(), default=Fraction(1))


def deviation_stats(instance: Instance, before: Schedule, after: Schedule) -> DeviationStats:
    """Ratios and flows of a profitable deviation, validated first."""
    profitable_deviation(instance, before, after)
    old = load_profile(instance, before).loads
    new = load_profile(instance, after).loads
    m = instance.m
    mover: dict[int, Fraction] = {}
    bystander: dict[int, Fraction] = {}
    damage: dict[int, Fraction] = {}
    migration = [[0] * m for _ in range(m)]
    staying = [Fraction(0)] * m
    moved = [[Fraction(0)] * m for _ in range(m)]
    for j in range(1, instance.n + 1):
        src = before.machine_of(j)
        dst = after.machine_of(j)
        if src != dst:
            mover[j] = old[src - 1] / new[dst - 1]
            migration[src - 1][dst - 1] = 1
            moved[src - 1][dst - 1] += instance.processing_time(j, dst)
        else:
            staying[src - 1] += instance.processing_time(j, src)
            if new[src - 1] < old[src - 1]:
                bystander[j] = old[src - 1] / new[src - 1]
            elif new[src - 1] > old[src - 1]:
                damage[j] = new[src - 1] / old[src - 1]
    return DeviationStats(
        mover_improvement=mover,
        bystander_improvement=bystander,
        damage=damage,
        migration=tuple(tuple(row) for row in migration),
        staying_load=tuple(staying),
        moved_load=tuple(tuple(row) for row in moved),
        loads_before=old,
        loads_after=new,
    )


@dataclass(frozen=True)
class MeasureValue:
    value: Fraction
    witness: Deviation | None
    exhaustive: bool


@dataclass(frozen=True)
class MeasureReport:
    """The three measures with witnesses.  `exhaustive` is False when the
    node budget truncated the search, making the values lower bounds."""

    ir_min: Fraction
    ir_max: Fraction
    dr_max: Fraction
    ir_min_witness: Deviation | None
    ir_max_witness: Deviation | None
    dr_max_witness: Deviation | None
    exhaustive: bool
    deviation_count: int

    @property
    def strong(self) -> bool:
        return self.exhaustive and self.deviation_count == 0

    def is_alpha_strong(self, alpha) -> bool:
        """No coalition improves every member by a factor above alpha."""
        return self.ir_min <= Fraction(alpha)


def _leaf_min_improvement(ctx, assign, loads):
    """Smallest improvement ratio among the movers of a leaf: (num, den)."""
    num, den = None, None
    for j in range(ctx.n):
        if assign[j] != ctx.orig[j]:
            c, l = ctx.cost0[j], loads[assign[j]]
            if num is None or c * den < num * l:
                num, den = c, l
    return num, den


def _stayer_flags(ctx, assign):
    stayers = [False] * ctx.m
    for j in range(ctx.n):
        if assign[j] == ctx.orig[j]:
            stayers[assign[j]] = True
    return stayers


def _leaf_max_improvement(ctx, assign, loads):
    """Largest improvement over movers and improving bystanders: (num, den)."""
    num, den = None, None
    for j in range(ctx.n):
        if assign[j] != ctx.orig[j]:
            c, l = ctx.cost0[j], loads[assign[j]]
            if num is None or c * den > num * l:
                num, den = c, l
    stayers = _stayer_flags(ctx, assign)
    for i in range(ctx.m):
        if stayers[i] and loads[i] < ctx.load0[i]:
            c, l = ctx.load0[i], loads[i]
            if num is None or c * den > num * l:
                num, den = c, l
    return num, den


def _leaf_max_damage(ctx, assign, loads):
    """Largest load growth on a machine keeping at least one job: (num, den)."""
    num, den = None, None
    stayers = _stayer_flags(ctx, assign)
    for i in range(ctx.m):
        if stayers[i] and loads[i] > ctx.load0[i]:
            c, l = loads[i], ctx.load0[i]
            if num is None or c * den > num * l:
                num, den = c, l
    return num, den


def measure_report(
    instance: Instance,
    schedule: Schedule,
    node_budget: int = DEFAULT_SEARCH_BUDGET,
    on_deviation=None,
) -> MeasureReport:
    """All three measures from one exhaustive scan.

    `on_deviation(deviation)` is invoked for every profitable deviation
    found (movers-only coalition), in lexicographic order.
    """
    best = {
        "min": [1, 1, None],
        "max": [1, 1, None],
        "dr": [1, 1, None],
    }
    count = [0]
    merge = None
    if on_deviation is not None:
        merge = OrbitMerge(lambda ctx, assign: on_deviation(ctx.deviation(assign)))

    def leaf(ctx, assign, loads):
        count[0] += ctx.orbit_size(assign)
        _bump(best["min"], *_leaf_min_improvement(ctx, assign, loads), ctx, assign)
        _bump(best["max"], *_leaf_max_improvement(ctx, assign, loads), ctx, assign)
        _bump(best["dr"], *_leaf_max_damage(ctx, assign, loads), ctx, assign)
        if merge is not None:
            merge.add(ctx, assign)

    exhaustive = True
    try:
        ctx = scan_deviations(instance, schedule, budget=node_budget, on_leaf=leaf)
        if merge is not None:
            merge.flush()
    except BudgetExceededError:
        exhaustive = False
        ctx = None

    def finish(slot, with_bystanders=False):
        num, den, assign = slot
        if assign is None:
            return Fraction(1), None
        coalition = None
        if with_bystanders:
            coalition = ctx.migrants_of(assign) | ctx.bystanders(assign)
        return Fraction(num, den), ctx.deviation(assign, coalition)

    # witnesses need the context; on budget exhaustion rebuild it
    if ctx is None:
        ctx = ScanContext(instance, schedule)
    ir_min, w_min = finish(best["min"])
    ir_max, w_max = finish(best["max"], with_bystanders=True)
    dr_max, w_dr = finish(best["dr"])
    return MeasureReport(
        ir_min=ir_min,
        ir_max=ir_max,
        dr_max=dr_max,
        ir_min_witness=w_min,
        ir_max_witness=w_max,
        dr_max_witness=w_dr,
        exhaustive=exhaustive,
        deviation_count=count[0],
    )


def _bump(slot, num, den, ctx, assign):
    if num is not None and num * slot[1] > slot[0] * den:
        slot[0], slot[1], slot[2] = num, den, list(assign)


def ir_min(
    instance: Instance, schedule: Schedule, node_budget: int = DEFAULT_SEARCH_BUDGET
) -> MeasureValue:
    """Largest factor by which some coalition improves every mover; 1 when
    the schedule is strong.  Uses ratio-floor pruning, so it is faster
    than a full report."""
    floor = [1, 1]
    slot = [1, 1, None]

    def leaf(ctx, assign, loads):
        num, den = _leaf_min_improvement(ctx, assign, loads)
        if num is not None and num * floor[1] > floor[0] * den:
            floor[0], floor[1] = num, den
            slot[0], slot[1], slot[2] = num, den, list(assign)

    exhaustive = True
    try:
        ctx = scan_deviations(
            instance, schedule, budget=node_budget, on_leaf=leaf, min_ratio_floor=floor
        )
    except BudgetExceededError:
        exhaustive = False
        ctx = ScanContext(instance, schedule)
    witness = None if slot[2] is None else ctx.deviation(slot[2])
    return MeasureValue(value=Fraction(slot[0], slot[1]), witness=witness, exhaustive=exhaustive)


def alpha_strong(
    instance: Instance,
    schedule: Schedule,
    alpha,
    node_budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """True iff no coalition improves every member by more than alpha."""
    return ir_min(instance, schedule, node_budget).value <= Fraction(alpha)


def _flower_center(loads, matrix) -> int:
    """Most loaded machine, preferring one touched by a migration and
    breaking remaining ties by lowest index.  Returns a 0-based index."""
    top = max(loads)
    candidates = [i for i, l in enumerate(loads) if l == top]
    touched = [
        i for i in candidates if any(matrix[i]) or any(row[i] for row in matrix)
    ]
    return touched[0] if touched else candidates[0]


def _is_flower(matrix, center) -> bool:
    """Each other machine sends to and receives from `center`, and to no
    machine but it."""
    m = len(matrix)
    for i in range(m):
        if i == center:
            continue
        if not (matrix[center][i] and matrix[i][center]):
            return False
        for j in range(m):
            if j != center and j != i and matrix[i][j]:
                return False
    return True


def check_flower(instance: Instance, before: Schedule, after: Schedule) -> bool:
    """Every migration enters or leaves the most loaded machine, in both
    directions for each of the other machines."""
    stats = deviation_stats(instance, before, after)
    return _is_flower(stats.migration, _flower_center(stats.loads_before, stats.migration))


@dataclass(frozen=True)
class StructuralReport:
    """Structural predicates of a deviation from an equilibrium.

    Fields are None when not applicable (three-machine checks on other
    sizes, unit-normalized checks without lpt_origin)."""

    migrant_count: int
    receivers_also_lose: bool
    at_least_four_migrants: bool
    flower: bool | None
    outer_loads_increase: bool | None
    center_becomes_least_loaded: bool | None
    center: int | None
    unit_job: int | None
    incoming_per_unit: dict[int, Fraction] | None
    staying_per_unit: dict[int, Fraction] | None
    unit_quantities_ok: bool | None

    @property
    def passed(self) -> bool:
        checks = [
            self.receivers_also_lose,
            self.at_least_four_migrants,
            self.flower,
            self.outer_loads_increase,
            self.center_becomes_least_loaded,
            self.unit_quantities_ok,
        ]
        return all(c for c in checks if c is not None)


def structural_report(
    instance: Instance,
    before: Schedule,
    after: Schedule,
    lpt_origin: bool = False,
) -> StructuralReport:
    """Evaluate the structural predicates that every deviation from an
    equilibrium must satisfy; `before` must itself be an equilibrium.

    With lpt_origin=True (three machines), also rescales so the lightest
    job on the busiest machine has size 1 and reports the per-unit
    staying and incoming loads of the other two machines, which must all
    be at least 1.
    """
    if not is_nash(instance, before).holds:
        raise ValidationError("structural checks require an equilibrium starting schedule")
    stats = deviation_stats(instance, before, after)
    old, new, matrix = stats.loads_before, stats.loads_after, stats.migration
    m = instance.m

    receivers_also_lose = all(
        any(matrix[i]) or not any(row[i] for row in matrix) for i in range(m)
    )
    migrant_count = len(stats.mover_improvement)

    flower = outer_up = center_down = None
    center = unit_job = None
    incoming = staying = None
    unit_ok = None
    if m == 3:
        c = _flower_center(old, matrix)
        center = c + 1
        flower = _is_flower(matrix, c)
        outer = [i for i in range(3) if i != c]
        outer_up = all(new[i] > old[i] for i in outer)
        center_down = new[c] < min(new[i] for i in outer)
        if lpt_origin:
            if not isinstance(instance, IdenticalInstance):
                raise ValidationError("unit-normalized checks need identical machines")
            on_center = [j for j in range(1, instance.n + 1) if before.machine_of(j) == c + 1]
            unit_size = min(instance.p[j - 1] for j in on_center)
            # the stable size sort assigns equal jobs by ascending index,
            # so the last-placed lightest job is the highest-index one
            unit_job = max(j for j in on_center if instance.p[j - 1] == unit_size)
            incoming = {i + 1: stats.moved_load[i][c] / unit_size for i in outer}
            staying = {i + 1: stats.staying_load[i] / unit_size for i in outer}
            unit_ok = all(v >= 1 for v in incoming.values()) and all(
                v >= 1 for v in staying.values()
            )

    return StructuralReport(
        migrant_count=migrant_count,
        receivers_also_lose=receivers_also_lose,
        at_least_four_migrants=migrant_count >= 4,
        flower=flower,
        outer_loads_increase=outer_up,
        center_becomes_least_loaded=center_down,
        center=center,
        unit_job=unit_job,
        incoming_per_unit=incoming,
        staying_per_unit=staying,
        unit_quantities_ok=unit_ok,
    )
