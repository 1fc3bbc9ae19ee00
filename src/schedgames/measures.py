"""Stability measures of schedules under coalition moves.

For a profitable deviation, a mover's improvement ratio is its old cost
over its new cost, an improving bystander's is the old over the new load
of its (unchanged) machine, and the damage ratio of a job left behind on
a heavier machine is the new load over the old.  A schedule's measures
maximize these over every profitable deviation; by convention all three
are exactly 1 when no deviation exists.

The three measures are named once, in the private table `_MEASURES`:
`ir_min`, `ir_max` and `dr_max` in report order, each with its sweep
check name and the `DeviationStats` property a witness attains it
through.  The report, the sweep's checks, the CLI and the extremal
search iterate over it.  `_paper_limits` picks the paper's Table-1
limits on the three measures, and their text; the sweep's checks and
the CLI's table both read it.

`measure_report` computes all three, with witnesses, from one scan of
`equilibria.scan_deviations`; read `ir_max` and `dr_max` from it.  It
wraps `_measure`, which runs that scan on a caller's `ScanContext`.
`ir_min` answers the min-improvement measure alone with a scan that
prunes every branch unable to reach the best ratio found so far; that
floor starts at the best single improving move, which is itself a
profitable deviation, so the value and witness are those of a floor
started at 1, reached in fewer nodes.  Both read a leaf's smallest
mover improvement off the scan's per-machine caps, in one O(m) pass of
`_leaf_screen`, and both read a budget stop through one helper, `_scan`,
which returns the nodes visited and whether the scan finished.  The
screen is built once per scan, with the scan's constants (the uncapped
cap, the start loads and the largest of them) read then, and `ir_min`
takes the form that computes the smallest mover improvement alone.  The
`ir_max` witness counts improving bystanders in its coalition; every
other witness's coalition is its migrants.

Both scans place jobs by non-increasing size (`by_size=True`, an
argument of the scan, not of the context), which meets the caps and the
load-conservation cut sooner than index order, so their leaves do not
come in lexicographic order.  Each witness is therefore kept by a
tie-break, `_bump`: a leaf replaces it on a strictly larger ratio, or on
an equal one with a lexicographically smaller joint action.  Each orbit
representative is the smallest member of its orbit, so every witness is
the lexicographically smallest deviation attaining its value, as in an
index-order scan.  `ir_min`'s seed goes through the same tie-break, and
its floor still visits ties, so a leaf that ties the seed with a smaller
joint action replaces it.

The exact `ir_max` and `dr_max` of a leaf take a pass over its n jobs,
`_leaf_max_ratios`, which `_measure` runs only when it must:
`_leaf_screen` also bounds both ratios from above, and the O(n) pass
runs only when a bound reaches the best ratio so far.  A bound that only
ties the best still runs it, since the leaf may attain that ratio with a
smaller joint action and win the tie-break.

`deviation_stats`, `check_flower` and `structural_report` each validate
the given deviation once, with `ScanContext.check_move`, and read every
load from that one context.  The structural checks (those two, and the
sweep's check of each orbit representative its `_measure` scan finds)
share one private pass, `_structure`.  Every load here is one of the
context's scaled integers, and ratios of them are scale-free, so they
stay exact; `core.load_profile` is the public `Fraction` view of the
same loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DEFAULT_SEARCH_BUDGET,
    BudgetExceededError,
    IdenticalInstance,
    Instance,
    Schedule,
    ValidationError,
    _check_budget,
    parse_rational,
)
from .equilibria import Deviation, ScanContext, scan_deviations

# The three measures in report order: each one's check name in a sweep,
# after its "ne-", "lpt-" or "ptas-" prefix, and the `DeviationStats`
# property through which a witness attains it.
_MEASURES = {
    "ir_min": ("min-improvement", "min_improvement"),
    "ir_max": ("max-improvement", "max_improvement"),
    "dr_max": ("damage", "max_damage"),
}

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


def _paper_limits(m: int, lpt_schedule: bool) -> dict:
    """The Table-1 limit on each of `ir_min`, `ir_max` and `dr_max`, in
    that order, of an LPT schedule (`lpt_schedule`) or of any other
    equilibrium on m machines: a pair (text as reports print it, exact
    test of a value), or None where the measure is unbounded.  The limit
    constants above are read at each call."""

    def at_most(limit):
        return str(limit), lambda x: x <= limit

    def below(limit):
        return f"< {limit}", lambda x: x < limit

    if not lpt_schedule:
        ir_min, ir_max, dr_max = at_most(ne_min_improvement_limit(m)), None, below(NE_DAMAGE_LIMIT)
    elif m == 3:
        ir_min = "1/2 + sqrt(6)/4", leq_lpt_three_machine_limit
        ir_max, dr_max = at_most(LPT_MAX_IMPROVEMENT_LIMIT_3), below(LPT_DAMAGE_LIMIT)
    else:
        ir_min = at_most(lpt_min_improvement_limit(m))
        ir_max, dr_max = None, below(LPT_DAMAGE_LIMIT)
    return {"ir_min": ir_min, "ir_max": ir_max, "dr_max": dr_max}


@dataclass(frozen=True)
class DeviationStats:
    """Exact per-job improvement and damage ratios of one deviation."""

    mover_improvement: dict[int, Fraction]
    bystander_improvement: dict[int, Fraction]
    damage: dict[int, Fraction]

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
    """Ratios of a profitable deviation, validated first."""
    ctx = ScanContext(instance, before)
    assign, _ = ctx.check_move(after)
    old, new = ctx.load0, ctx.loads_of(assign)
    mover: dict[int, Fraction] = {}
    bystander: dict[int, Fraction] = {}
    damage: dict[int, Fraction] = {}
    for j, (src, dst) in enumerate(zip(ctx.orig, assign), start=1):
        if src != dst:
            mover[j] = Fraction(old[src], new[dst])
        elif new[src] < old[src]:
            bystander[j] = Fraction(old[src], new[src])
        elif new[src] > old[src]:
            damage[j] = Fraction(new[src], old[src])
    return DeviationStats(mover_improvement=mover, bystander_improvement=bystander, damage=damage)


@dataclass(frozen=True)
class MeasureValue:
    value: Fraction
    witness: Deviation | None
    exhaustive: bool


@dataclass(frozen=True)
class MeasureReport:
    """The three measures with witnesses.  `exhaustive` is False when the
    node budget truncated the search, making the values lower bounds.
    `nodes` is the count `scan_deviations` returns, or after a budget stop
    the one carried by its `BudgetExceededError`."""

    ir_min: Fraction
    ir_max: Fraction
    dr_max: Fraction
    ir_min_witness: Deviation | None
    ir_max_witness: Deviation | None
    dr_max_witness: Deviation | None
    exhaustive: bool
    deviation_count: int
    nodes: int

    def is_alpha_strong(self, alpha) -> bool:
        """No coalition improves every member by a factor above alpha,
        read with `parse_rational`.  It holds only on an exhaustive report,
        since a budget stop leaves `ir_min` a lower bound."""
        return self.ir_min <= parse_rational(alpha) and self.exhaustive


def _leaf_max_ratios(ctx, assign, loads):
    """Largest improvement over movers and improving bystanders, and
    largest load growth on a machine keeping at least one job: two
    (num, den) pairs, a pair None when nothing qualifies."""
    orig, cost0 = ctx.orig, ctx.cost0
    kept = [False] * ctx.m
    inum = iden = dnum = dden = None
    for j, i in enumerate(assign):
        if i == orig[j]:
            kept[i] = True
        elif inum is None or cost0[j] * iden > inum * loads[i]:
            inum, iden = cost0[j], loads[i]
    for i, start in enumerate(ctx.load0):
        if not kept[i]:
            continue
        load = loads[i]
        if load < start:
            if inum is None or start * iden > inum * load:
                inum, iden = start, load
        elif load > start and (dnum is None or load * dden > dnum * start):
            dnum, dden = load, start
    return inum, iden, dnum, dden


def _leaf_screen(ctx, bounds=True):
    """The leaf screen of one coalition-free scan of `ctx`: a function of
    a leaf's (loads, caps) that makes one O(m) pass over them and returns
    (num, den) of the leaf's smallest mover improvement, then, with
    `bounds` (the report's form, not `ir_min`'s), (num, den) upper bounds
    on the largest improvement and on the largest damage that
    `_leaf_max_ratios` finds, 0/1 where none exists.
    The scan's constants, `ctx.uncapped`, `ctx.load0` and its largest
    entry, are read here once, not at each leaf.

    Without a coalition only movers set caps, so `caps[i]` is the
    smallest start cost among the movers into machine i, or
    `ctx.uncapped` if none, and the smallest improvement is the least
    `caps[i] / loads[i]`.  A mover's start cost is at most the largest
    start load, so that load over each capped machine's load bounds the
    movers; a machine that keeps jobs with no mover landing there can
    only lose load, and its start over its new load bounds its
    bystanders.  Damage needs a kept job on a machine whose load grows, so
    a mover landed there, and the bound is its load over its start."""
    uncapped, load0 = ctx.uncapped, ctx.load0
    top = max(load0)

    def smallest(loads, caps):
        num = den = None
        for cap, load in zip(caps, loads):
            if cap != uncapped and (num is None or cap * den < num * load):
                num, den = cap, load
        return num, den

    def screen(loads, caps):
        num = den = None
        inum = dnum = 0
        iden = dden = 1
        for cap, load, start in zip(caps, loads, load0):
            if cap != uncapped:
                if num is None or cap * den < num * load:
                    num, den = cap, load
                if top * iden > inum * load:
                    inum, iden = top, load
                if load > start > 0 and load * dden > dnum * start:
                    dnum, dden = load, start
            elif 0 < load < start and start * iden > inum * load:
                inum, iden = start, load
        return num, den, inum, iden, dnum, dden

    return screen if bounds else smallest


def measure_report(
    instance: Instance,
    schedule: Schedule,
    node_budget: int = DEFAULT_SEARCH_BUDGET,
) -> MeasureReport:
    """All three measures from one exhaustive scan, which places jobs by
    size.  After a budget stop the values are lower bounds taken from the
    leaves met in size order, not from a lexicographic prefix, and each
    witness is the smallest of those leaves attaining its value."""
    _check_budget(node_budget)
    return _measure(ScanContext(instance, schedule), node_budget, by_size=True)


def _measure(
    ctx: ScanContext, node_budget: int, on_leaf=None, *, by_size=False
) -> MeasureReport:
    """`measure_report` of the schedule of `ctx`, a context without a
    coalition, for a caller that has checked the budget, from one scan
    that places jobs by index, or with `by_size` by size.
    `on_leaf(ctx, assign, loads, caps)`, when given, also sees every orbit
    representative the scan finds, in scan order (lexicographic in index
    order, as a sweep's is)."""
    best = {name: [1, 1, None] for name in _MEASURES}
    low, high, harm = best["ir_min"], best["ir_max"], best["dr_max"]
    twins = ctx.twins
    count = [0]
    screen = _leaf_screen(ctx)

    def leaf(ctx, assign, loads, caps):
        count[0] += ctx.orbit_size(assign) if twins else 1
        num, den, inum, iden, dnum, dden = screen(loads, caps)
        _bump(low, num, den, assign)
        # a bound that ties the best may hide a tie with a smaller leaf
        if inum * high[1] >= high[0] * iden or dnum * harm[1] >= harm[0] * dden:
            inum, iden, dnum, dden = _leaf_max_ratios(ctx, assign, loads)
            _bump(high, inum, iden, assign)
            _bump(harm, dnum, dden, assign)
        if on_leaf is not None:
            on_leaf(ctx, assign, loads, caps)

    nodes, exhaustive = _scan(ctx, node_budget, leaf, by_size=by_size)
    fields = {}
    for name, (num, den, assign) in best.items():
        witness = None
        if assign is not None:
            # the ir_max witness's coalition counts its improving bystanders
            bystanders = ctx.bystanders(assign) if name == "ir_max" else ()
            witness = ctx.deviation(assign, ctx.migrants_of(assign).union(bystanders))
        fields[name], fields[f"{name}_witness"] = Fraction(num, den), witness
    return MeasureReport(**fields, exhaustive=exhaustive, deviation_count=count[0], nodes=nodes)


def _scan(ctx: ScanContext, node_budget: int, on_leaf, *, by_size, min_ratio_floor=None):
    """`scan_deviations` on `ctx` in the order `by_size` picks: (nodes,
    finished), where a budget stop gives the nodes its
    `BudgetExceededError` carries and False."""
    try:
        nodes = scan_deviations(
            ctx, budget=node_budget, on_leaf=on_leaf, by_size=by_size,
            min_ratio_floor=min_ratio_floor,
        )
    except BudgetExceededError as exc:
        return exc.nodes, False
    return nodes, True


def _bump(slot, num, den, assign):
    """Keep num/den and `assign` in `slot` ([num, den, assign or None])
    if the ratio is strictly larger, or equal with a lexicographically
    smaller joint action."""
    if num is None:
        return
    gain = num * slot[1] - slot[0] * den
    if gain > 0 or (gain == 0 and slot[2] is not None and assign < slot[2]):
        slot[0], slot[1], slot[2] = num, den, list(assign)


def ir_min(
    instance: Instance, schedule: Schedule, node_budget: int = DEFAULT_SEARCH_BUDGET
) -> MeasureValue:
    """Largest factor by which some coalition improves every mover; 1 when
    the schedule is strong.  Uses ratio-floor pruning, from the best
    single improving move on, so it is faster than a full report.  Like
    `measure_report` it places jobs by size: after a budget stop the value
    is a lower bound taken from the best single move and the leaves met in
    size order, with the smallest of those attaining it."""
    _check_budget(node_budget)
    ctx = ScanContext(instance, schedule)
    # [num, den, assign]: the scan prunes on the ratio in its first two,
    # from the best single improving move on, the smallest on ties
    slot = [1, 1, None]
    orig, cost0 = ctx.orig, ctx.cost0
    for j, i, cost in ctx.improving_moves():
        move = list(orig)
        move[j] = i
        _bump(slot, cost0[j], cost, move)
    smallest = _leaf_screen(ctx, bounds=False)

    def leaf(ctx, assign, loads, caps):
        num, den = smallest(loads, caps)
        _bump(slot, num, den, assign)

    exhaustive = _scan(ctx, node_budget, leaf, by_size=True, min_ratio_floor=slot)[1]
    witness = None if slot[2] is None else ctx.deviation(slot[2])
    return MeasureValue(value=Fraction(slot[0], slot[1]), witness=witness, exhaustive=exhaustive)


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


def _flows(ctx, assign):
    """(migration, loads, moved, staying) of the joint action `assign`,
    0-based and scaled: migration[i][k] is 1 iff some job moves i -> k,
    moved[i][k] totals those jobs' sizes on k (the load they add there),
    staying[i] the jobs that keep machine i, and loads are the loads after
    the move."""
    m = ctx.m
    migration = [[0] * m for _ in range(m)]
    moved = [[0] * m for _ in range(m)]
    staying = [0] * m
    loads = [0] * m
    for j, k in enumerate(assign):
        i = ctx.orig[j]
        size = ctx.sizes[k][j]
        loads[k] += size
        if i == k:
            staying[i] += size
        else:
            migration[i][k] = 1
            moved[i][k] += size
    return migration, loads, moved, staying


def check_flower(instance: Instance, before: Schedule, after: Schedule) -> bool:
    """Every migration enters or leaves the most loaded machine, in both
    directions for each of the other machines."""
    ctx = ScanContext(instance, before)
    migration = _flows(ctx, ctx.check_move(after)[0])[0]
    return _is_flower(migration, _flower_center(ctx.load0, migration))


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
    ctx = ScanContext(instance, before)
    if next(ctx.improving_moves(), None) is not None:
        raise ValidationError("structural checks require an equilibrium starting schedule")
    return _structure(ctx, ctx.check_move(after)[0], lpt_origin)


def _structure(ctx: ScanContext, assign, lpt_origin: bool) -> StructuralReport:
    """`structural_report` of the move from ctx's schedule to the 0-based
    joint action `assign`, for a caller that knows the schedule is an
    equilibrium and the move a profitable deviation from it."""
    migration, new, moved, staying = _flows(ctx, assign)
    old = ctx.load0
    m = ctx.m

    receivers_also_lose = all(
        any(migration[i]) or not any(row[i] for row in migration) for i in range(m)
    )
    migrant_count = sum(k != i for k, i in zip(assign, ctx.orig))

    flower = outer_up = center_down = None
    center = unit_job = None
    incoming = staying_per_unit = None
    unit_ok = None
    if m == 3:
        c = _flower_center(old, migration)
        center = c + 1
        flower = _is_flower(migration, c)
        outer = [i for i in range(3) if i != c]
        outer_up = all(new[i] > old[i] for i in outer)
        center_down = new[c] < min(new[i] for i in outer)
        if lpt_origin:
            if not isinstance(ctx.instance, IdenticalInstance):
                raise ValidationError("unit-normalized checks need identical machines")
            sizes = ctx.sizes[c]
            on_center = [j for j in range(ctx.n) if ctx.orig[j] == c]
            unit = min(sizes[j] for j in on_center)
            # the stable size sort assigns equal jobs by ascending index,
            # so the last-placed lightest job is the highest-index one
            unit_job = 1 + max(j for j in on_center if sizes[j] == unit)
            incoming = {i + 1: Fraction(moved[i][c], unit) for i in outer}
            staying_per_unit = {i + 1: Fraction(staying[i], unit) for i in outer}
            unit_ok = all(v >= 1 for v in incoming.values()) and all(
                v >= 1 for v in staying_per_unit.values()
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
        staying_per_unit=staying_per_unit,
        unit_quantities_ok=unit_ok,
    )
