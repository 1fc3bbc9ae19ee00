"""Exact equilibrium checking: unilateral moves, coalition deviations,
and pruned exhaustive search over joint actions.

The search works in common-denominator integers (see `_scaling`) and
visits candidate joint actions in lexicographic order of the assignment
vector.  Jobs that are interchangeable (twins: same start machine, same
processing time on every machine) are explored once per symmetry orbit,
through its lexicographically smallest member.  A relabelling of twins
keeps every load and ratio, so every reported witness is still the
lexicographically smallest one of its kind, and runs are reproducible.
Deciding strong stability is a hard problem, so searches carry an
explicit node budget and fail loudly (never approximately) when it runs
out.

`scan_deviations` is the one search kernel.  Here `is_strong`,
`can_coalition_deviate` and `enumerate_profitable_deviations` are views
over it; the measures that maximize a ratio over deviations live in
`measures`.  Each `Deviation` a scan finds is built by
`ScanContext.deviation` and written out by `Deviation.to_dict`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterator

from ._scaling import scaled_sizes
from .core import (
    BudgetExceededError,
    Instance,
    Schedule,
    ValidationError,
    load_profile,
    validate_schedule,
)

DEFAULT_SEARCH_BUDGET = 10**8


@dataclass(frozen=True)
class Deviation:
    """A joint move: `coalition` members all strictly improve, everyone
    else keeps their machine.  `migrants` are the jobs that actually
    change machine (always a subset of the coalition)."""

    before: Schedule
    after: Schedule
    migrants: frozenset[int]
    coalition: frozenset[int]

    def to_dict(self) -> dict:
        """The witness record written by the CLI and sweeps; read back by
        `schedule_from_dict`, which takes its `assignment`."""
        return {
            "assignment": list(self.after.assignment),
            "migrants": sorted(self.migrants),
            "coalition": sorted(self.coalition),
        }


@dataclass(frozen=True)
class NashResult:
    holds: bool
    witness: tuple[int, int] | None = None  # (job, target machine)

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class StrongResult:
    holds: bool
    witness: Deviation | None = None

    def __bool__(self) -> bool:
        return self.holds


def improving_moves(instance: Instance, schedule: Schedule) -> Iterator[tuple[int, int, Fraction]]:
    """All strictly improving unilateral moves as (job, machine, new cost),
    in ascending job then machine order."""
    validate_schedule(instance, schedule)
    loads = load_profile(instance, schedule).loads
    for j in range(1, instance.n + 1):
        here = schedule.machine_of(j)
        cost = loads[here - 1]
        for i in range(1, instance.m + 1):
            if i == here:
                continue
            moved = loads[i - 1] + instance.processing_time(j, i)
            if moved < cost:
                yield j, i, moved


def is_nash(instance: Instance, schedule: Schedule) -> NashResult:
    """No job can strictly lower its cost by moving alone.  On failure the
    witness is the lowest-index improving (job, machine) pair."""
    for j, i, _ in improving_moves(instance, schedule):
        return NashResult(holds=False, witness=(j, i))
    return NashResult(holds=True)


def profitable_deviation(
    instance: Instance, before: Schedule, after: Schedule, coalition=None
) -> Deviation:
    """Validated constructor: checks the joint move is a profitable
    deviation and raises ValidationError naming the first violator."""
    validate_schedule(instance, before)
    validate_schedule(instance, after)
    migrants = frozenset(
        j for j in range(1, instance.n + 1) if before.machine_of(j) != after.machine_of(j)
    )
    if not migrants:
        raise ValidationError("the two schedules are identical; a deviation must move someone")
    members = frozenset(coalition) if coalition is not None else migrants
    if not migrants <= members:
        stranded = min(migrants - members)
        raise ValidationError(f"job {stranded} migrates but is not in the coalition")
    old = load_profile(instance, before).loads
    new = load_profile(instance, after).loads
    for j in sorted(members):
        if not (new[after.machine_of(j) - 1] < old[before.machine_of(j) - 1]):
            raise ValidationError(
                f"job {j} does not strictly improve "
                f"({old[before.machine_of(j) - 1]} -> {new[after.machine_of(j) - 1]})"
            )
    return Deviation(before=before, after=after, migrants=migrants, coalition=members)


class _StopScan(Exception):
    pass


class ScanContext:
    """Read-only scaled-integer view of (instance, schedule) shared by a scan.

    `twins` lists the twin classes among the `free` jobs (0-based, all
    jobs by default): jobs with the same start machine and the same
    scaled processing time on every machine, in index order, two or more
    per class.  `prev_twin[j]` is the twin just before job j, or -1.
    """

    __slots__ = (
        "instance", "schedule", "m", "n", "sizes", "scale", "orig", "load0", "cost0",
        "twins", "prev_twin",
    )

    def __init__(self, instance: Instance, schedule: Schedule, free=None):
        validate_schedule(instance, schedule)
        self.instance = instance
        self.schedule = schedule
        self.m = instance.m
        self.n = instance.n
        self.sizes, self.scale = scaled_sizes(instance)
        self.orig = [i - 1 for i in schedule.assignment]
        load0 = [0] * self.m
        for j, i in enumerate(self.orig):
            load0[i] += self.sizes[i][j]
        self.load0 = load0
        self.cost0 = [load0[i] for i in self.orig]
        columns = list(zip(*self.sizes))
        classes: dict = {}
        for j in range(self.n) if free is None else free:
            classes.setdefault((self.orig[j], columns[j]), []).append(j)
        self.twins = tuple(tuple(c) for c in classes.values() if len(c) > 1)
        self.prev_twin = [-1] * self.n
        for c in self.twins:
            for a, b in zip(c, c[1:]):
                self.prev_twin[b] = a

    def to_schedule(self, assign) -> Schedule:
        return Schedule(tuple(i + 1 for i in assign))

    def migrants_of(self, assign) -> frozenset[int]:
        return frozenset(j + 1 for j in range(self.n) if assign[j] != self.orig[j])

    def deviation(self, assign, coalition=None) -> Deviation:
        """The deviation to the joint action `assign`; its coalition is the
        migrants unless given."""
        migrants = self.migrants_of(assign)
        return Deviation(
            before=self.schedule,
            after=self.to_schedule(assign),
            migrants=migrants,
            coalition=migrants if coalition is None else frozenset(coalition),
        )

    def bystanders(self, assign) -> frozenset[int]:
        """Jobs that keep their machine while its load strictly drops under
        the joint action `assign`; they can join the coalition of the move
        without violating profitability."""
        loads = [0] * self.m
        for j, i in enumerate(assign):
            loads[i] += self.sizes[i][j]
        return frozenset(
            j + 1
            for j, i in enumerate(assign)
            if i == self.orig[j] and loads[i] < self.load0[i]
        )

    def orbit_size(self, assign) -> int:
        """Number of labelled joint actions that relabel twins of the
        representative `assign` (targets non-decreasing within each twin
        class, as `on_leaf` receives them): the product over twin classes
        of the multinomial of their targets."""
        size = 1
        for c in self.twins:
            if assign[c[0]] == assign[c[-1]]:
                continue
            counts: dict = {}
            for j in c:
                counts[assign[j]] = counts.get(assign[j], 0) + 1
            placed = 0
            for k in counts.values():
                placed += k
                size *= comb(placed, k)
        return size

    def orbit(self, assign) -> list[tuple[int, ...]]:
        """Every labelled joint action that relabels twins of the
        representative `assign` (`orbit_size` of them), `assign` first and
        the rest in no fixed order."""
        members = [tuple(assign)]
        for c in self.twins:
            if assign[c[0]] == assign[c[-1]]:
                continue
            grown = []
            orders = _distinct_orders([assign[j] for j in c])
            for member in members:
                for order in orders:
                    relabelled = list(member)
                    for j, i in zip(c, order):
                        relabelled[j] = i
                    grown.append(tuple(relabelled))
            members = grown
        return members


def _distinct_orders(values: list) -> list[tuple]:
    """Distinct orderings of a sorted list, by repeated next permutation;
    the sorted order comes first."""
    out = [tuple(values)]
    last = len(values) - 1
    while True:
        k = last - 1
        while k >= 0 and values[k] >= values[k + 1]:
            k -= 1
        if k < 0:
            return out
        h = last
        while values[h] <= values[k]:
            h -= 1
        values[k], values[h] = values[h], values[k]
        values[k + 1 :] = reversed(values[k + 1 :])
        out.append(tuple(values))


class OrbitMerge:
    """Expand the orbit representatives of a scan into every labelled
    joint action and pass them to `emit(ctx, assign)` in global
    lexicographic order, stopping the scan after `limit` (positive or
    None) of them; `count` is the number passed on.

    A member of a later orbit is never below that orbit's representative,
    which comes after the current one; so once a representative is seen,
    every pending member below it, and then the representative, is final.
    Call `add` per leaf and `flush` after the scan ends; after a budget
    stop, skip `flush` to keep what was emitted a lexicographic prefix.
    """

    def __init__(self, emit: Callable, limit: int | None = None):
        self.emit = emit
        self.limit = limit
        self.count = 0
        self.pending: list = []
        self.ctx = None

    def add(self, ctx, assign, _loads=None):
        """Take one representative; usable as `on_leaf` itself."""
        self.ctx = ctx
        pending = self.pending
        rep = assign
        if ctx.twins:  # else every orbit is trivial and nothing is pending
            members = ctx.orbit(assign)
            rep = members[0]
            for member in members[1:]:
                heapq.heappush(pending, member)
            while pending and pending[0] < rep:
                self._emit(heapq.heappop(pending))
        self._emit(rep)

    def flush(self):
        while self.pending and self.count != self.limit:
            self.emit(self.ctx, heapq.heappop(self.pending))
            self.count += 1

    def _emit(self, assign):
        self.emit(self.ctx, assign)
        self.count += 1
        if self.count == self.limit:
            raise _StopScan


def scan_deviations(
    instance: Instance,
    schedule: Schedule,
    *,
    budget: int,
    on_leaf: Callable,
    coalition=None,
    min_ratio_floor=None,
) -> ScanContext:
    """Depth-first search over joint actions, calling on_leaf(ctx, assign,
    loads) once per symmetry orbit of profitable candidates, in
    lexicographic order.

    Without `coalition`, any set of jobs may move and a candidate is
    profitable iff every mover strictly improves.  With `coalition`, only
    those jobs may act and every member (moving or staying) must strictly
    improve.  A branch is cut as soon as some machine's partial load
    reaches the smallest original cost among the movers bound to it.
    `min_ratio_floor`, a mutable [num, den] pair, further prunes branches
    whose smallest member improvement ratio cannot exceed num/den.

    Two jobs free to act are twins when they share a start machine and
    have the same processing time on every machine (`ctx.twins`).
    Relabelling twins changes no load, cost or ratio, so the search only
    visits candidates whose targets are non-decreasing within each twin
    class; this is the lexicographically smallest member of its orbit,
    hence the first profitable leaf, and the first leaf attaining any
    leaf value, is the same as in a scan of every labelled candidate.
    `on_leaf` sees representatives only: a caller that counts labelled
    deviations adds `ctx.orbit_size(assign)`, and one that needs each of
    them expands `ctx.orbit(assign)` (`OrbitMerge` restores the global
    lexicographic order).  Branches skipped by the twin bound count as
    resolved in `BudgetExceededError.explored_fraction`, since their
    representatives come earlier in lexicographic order.
    """
    if not isinstance(budget, int) or budget < 1:
        raise ValidationError(f"node budget must be positive, got {budget!r}")
    n = instance.n
    if coalition is None:
        free = list(range(n))
    else:
        seen = set()
        for j in coalition:
            if not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= n:
                raise ValidationError(f"coalition member {j!r} is not a job index in 1..{n}")
            seen.add(j - 1)
        free = sorted(seen)
    ctx = ScanContext(instance, schedule, free)
    m = ctx.m
    sizes, orig = ctx.sizes, ctx.orig
    # per depth: the job, its start machine and cost, and its previous twin
    plan = [(j, orig[j], ctx.cost0[j], ctx.prev_twin[j]) for j in free]

    loads = [0] * m
    members_fixed = coalition is not None
    if members_fixed:
        for j in range(n):
            if j not in seen:
                loads[orig[j]] += sizes[orig[j]][j]

    depth = len(free)
    infinity = sum(max(sizes[i][j] for i in range(m)) for j in range(n)) + 1
    caps = [infinity] * m
    assign = list(orig)
    choice = [0] * depth
    nodes = 0

    def resolved_fraction() -> Fraction:
        if depth == 0:
            return Fraction(1)
        covered = 0
        for d in range(depth):
            covered += choice[d] * m ** (depth - d - 1)
        return Fraction(covered, m**depth)

    def dfs(t: int, migrants: int):
        nonlocal nodes
        if t == depth:
            if migrants:
                on_leaf(ctx, assign, loads)
            return
        j, oj, cj, twin = plan[t]
        for i in range(0 if twin < 0 else assign[twin], m):
            choice[t] = i
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"deviation search exceeded {budget} nodes",
                    nodes=nodes,
                    budget=budget,
                    explored_fraction=resolved_fraction(),
                )
            stay = i == oj
            size = sizes[i][j]
            if not stay and size >= cj:
                continue
            new_load = loads[i] + size
            old_cap = caps[i]
            new_cap = old_cap
            if not stay or members_fixed:
                if cj < new_cap:
                    new_cap = cj
            if new_load >= new_cap:
                continue
            if min_ratio_floor is not None and new_cap != infinity:
                if new_cap * min_ratio_floor[1] <= new_load * min_ratio_floor[0]:
                    continue
            loads[i] = new_load
            caps[i] = new_cap
            assign[j] = i
            dfs(t + 1, migrants if stay else migrants + 1)
            loads[i] = new_load - size
            caps[i] = old_cap
        assign[j] = oj
        choice[t] = 0

    try:
        dfs(0, 0)
    except _StopScan:
        pass
    return ctx


def _first_deviation(instance, schedule, budget, coalition=None) -> Deviation | None:
    """The lexicographically first profitable deviation, or None."""
    hit: list = []

    def grab(ctx, assign, loads):
        hit.append(ctx.deviation(assign, coalition))
        raise _StopScan

    scan_deviations(instance, schedule, budget=budget, on_leaf=grab, coalition=coalition)
    return hit[0] if hit else None


def is_strong(
    instance: Instance, schedule: Schedule, node_budget: int = DEFAULT_SEARCH_BUDGET
) -> StrongResult:
    """Is the schedule resilient to every coalition move?  Exhaustive
    within the budget; raises BudgetExceededError rather than guessing.
    On failure the witness is the lexicographically smallest profitable
    joint action, its coalition the migrants."""
    witness = _first_deviation(instance, schedule, node_budget)
    return StrongResult(holds=witness is None, witness=witness)


def can_coalition_deviate(
    instance: Instance,
    schedule: Schedule,
    coalition,
    node_budget: int = DEFAULT_SEARCH_BUDGET,
) -> Deviation | None:
    """Joint move of exactly the given jobs in which every one of them
    (moving or staying put) strictly improves; None if impossible."""
    members = frozenset(coalition)
    if not members:
        return None
    return _first_deviation(instance, schedule, node_budget, members)


@dataclass(frozen=True)
class DeviationSweep:
    """Materialized stream of profitable deviations in lexicographic
    order; `complete` is False when a limit or the budget truncated it."""

    deviations: tuple[Deviation, ...]
    complete: bool

    def __iter__(self):
        return iter(self.deviations)

    def __len__(self):
        return len(self.deviations)


def enumerate_profitable_deviations(
    instance: Instance,
    schedule: Schedule,
    limit: int | None = None,
    node_budget: int = DEFAULT_SEARCH_BUDGET,
) -> DeviationSweep:
    """Every profitable deviation (movers-only coalitions), lexicographic
    in the joint action; complete iff it finished under budget and limit.
    A budget stop keeps the lexicographic prefix found so far."""
    if limit is not None and (not isinstance(limit, int) or limit < 1):
        raise ValidationError(f"limit must be a positive int or None, got {limit!r}")
    found: list[Deviation] = []
    merge = OrbitMerge(lambda ctx, assign: found.append(ctx.deviation(assign)), limit)
    complete = True
    try:
        scan_deviations(instance, schedule, budget=node_budget, on_leaf=merge.add)
        merge.flush()
    except BudgetExceededError:
        complete = False
    return DeviationSweep(deviations=tuple(found), complete=complete and merge.count != limit)
