"""Exact equilibrium checking: unilateral moves, coalition deviations,
and one pruned exhaustive search over joint actions.

`scan_deviations` is the one search kernel: `is_strong` and
`enumerate_profitable_deviations` here, and the measures in `measures`,
are views over it.  It runs on a `ScanContext`, the instance's `_scaled`
integers (see `core`) read against one schedule, from which `is_nash`
and `profitable_deviation` also take every load and cost; a value
becomes a `Fraction` only on its way out.

Each scan places the jobs free to act by index, so that candidates come
in lexicographic order, or, given `by_size`, by non-increasing size
(`_scan_order`), where its cuts bite sooner.  Whether a deviation exists
does not depend on that order, so `is_strong`, for every coalition or
one named one, decides by size and scans by index only when a deviation
exists, to find the lexicographically first.
`enumerate_profitable_deviations` scans by size too and sorts what it
finds once; after a budget stop it keeps the deviations below the first
joint action, in index order, that the scan left unresolved, which it
reads off the stop's `explored_fraction`.

The scan cuts only branches that hold no profitable deviation, and it
visits interchangeable jobs once per relabelling, through the
lexicographically smallest relabelling; so every verdict, witness and
count equals that of the plain enumeration.  `is_strong`'s scans stop at
their first leaf, so they also skip a branch that only mirrors one on an
interchangeable machine of lower index (machines of equal rows, start
loads and residents, as the Partition reductions' two gadget machines
are): the mirror's image comes first, so the first leaf, and with it the
verdict and the witness, stays.  Deciding strong stability is hard, so
every search takes a node budget and raises `BudgetExceededError` when it
runs out, never guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import comb
from operator import attrgetter, getitem, ne
from typing import Callable, Iterator

from .core import (
    DEFAULT_SEARCH_BUDGET,
    BudgetExceededError,
    Instance,
    Schedule,
    ValidationError,
    _MAX_SEARCH_JOBS,
    _check_budget,
    _is_int,
    validate_schedule,
)


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
class StabilityResult:
    """The verdict of `is_nash` or `is_strong`; when it fails, `witness`
    is the deviation that breaks it."""

    holds: bool
    witness: Deviation | None = None

    def __bool__(self) -> bool:
        return self.holds


def is_nash(instance: Instance, schedule: Schedule) -> StabilityResult:
    """No job can strictly lower its cost by moving alone.  On failure the
    witness is the one-job deviation of the lowest-index improving move:
    the lowest job, to the lowest machine it gains on."""
    ctx = ScanContext(instance, schedule)
    for j, i, _ in ctx.improving_moves():
        assign = list(ctx.orig)
        assign[j] = i
        return StabilityResult(holds=False, witness=ctx.deviation(assign))
    return StabilityResult(holds=True)


def profitable_deviation(
    instance: Instance, before: Schedule, after: Schedule, coalition=None
) -> Deviation:
    """Validated constructor: checks the joint move is a profitable
    deviation and raises ValidationError naming the first violator."""
    ctx = ScanContext(instance, before)
    assign, members = ctx.check_move(after, coalition)
    return ctx.deviation(assign, members)


def _members(coalition, n: int) -> frozenset[int]:
    """The coalition as a set of job indices, each checked to be in 1..n
    and named once."""
    members: set[int] = set()
    for j in coalition:
        if not _is_int(j) or not 1 <= j <= n:
            raise ValidationError(f"coalition member {j!r} is not a job index in 1..{n}")
        if j in members:
            raise ValidationError(f"the coalition names job {j} twice")
        members.add(j)
    return frozenset(members)


class _StopScan(Exception):
    """Raised by a scan's `on_leaf` to end the scan; the scan sets its
    `nodes`, the count up to that leaf, and returns it."""


# the trusted constructors' path past a frozen dataclass's __init__; field
# by field, so that an instance keeps its compact attribute layout
_new, _set = object.__new__, object.__setattr__


class ScanContext:
    """Read-only scaled-integer view of (instance, schedule), validated on
    construction: every load, cost and unilateral or joint move of the
    schedule is derived from it, and a deviation scan runs on it.
    `sizes[i][j]` is job j's size on machine i times `scale` (both from
    the instance's `_scaled` form), `columns[j]` the same sizes as job
    j's column over the machines, `orig[j]` job j's machine, `load0` the
    machine loads and `cost0[j]` job j's cost, all 0-based.

    `coalition` is the set of jobs (1-based, checked with `_members`) a
    scan lets act, or None for any set of movers; `free` lists the jobs
    free to act, 0-based and ascending (each scan picks its own order).
    `twins` lists the twin classes among them: jobs with the same start
    machine and the same scaled processing time on every machine, in index
    order, two or more per class, the classes in the index order of their
    first job.  `prev_twin[j]` is the twin just before job j, or -1.
    `uncapped` exceeds every load a joint action can give a machine; a
    scan caps machines at it until a mover or member lands there.  No
    field depends on a scan's order, so one context serves a call's scans
    by size and by index, and the call pays the set-up once.  `jobs` is
    the range of 1-based job indices, from which migrant sets are read.

    `migrants_of` and `deviation` trust the joint action they are given
    (one machine index in 0..m-1 per job, as a scan or `check_move`
    produces it).  `deviation` is the one way the package builds a
    `Deviation`: it builds it and its `after` schedule past the dataclass
    constructors, in one call that a scan's leaf can afford, and the
    results equal, hash like and print like the ones those constructors
    build.  `migrants_of` serves the validating and witness paths.
    """

    __slots__ = (
        "instance", "schedule", "m", "n", "sizes", "scale", "columns", "orig", "load0",
        "cost0", "coalition", "free", "twins", "prev_twin", "uncapped", "jobs",
    )

    def __init__(self, instance: Instance, schedule: Schedule, coalition=None):
        self.coalition = None if coalition is None else _members(coalition, instance.n)
        validate_schedule(instance, schedule)
        self.instance = instance
        self.schedule = schedule
        self.m = m = instance.m
        self.n = n = instance.n
        self.jobs = range(1, n + 1)
        self.sizes, self.scale = instance._scaled
        self.columns = columns = list(zip(*self.sizes))
        self.orig = orig = [i - 1 for i in schedule.assignment]
        load0 = [0] * m
        for i, size in zip(orig, map(getitem, columns, orig)):
            load0[i] += size
        self.load0 = load0
        self.cost0 = [load0[i] for i in orig]
        self.free = free = tuple(
            range(n) if self.coalition is None else sorted(j - 1 for j in self.coalition)
        )
        classes: dict = {}
        for j in free:
            classes.setdefault((orig[j], columns[j]), []).append(j)
        self.uncapped = sum(map(max, columns)) + 1
        self.twins = tuple(tuple(c) for c in classes.values() if len(c) > 1)
        self.prev_twin = prev_twin = [-1] * n
        for c in self.twins:
            for a, b in zip(c, c[1:]):
                prev_twin[b] = a

    def migrants_of(self, assign) -> frozenset[int]:
        return frozenset(compress(self.jobs, map(ne, assign, self.orig)))

    def deviation(self, assign, coalition=None) -> Deviation:
        """The deviation to the joint action `assign`; its coalition is the
        migrants unless given."""
        migrants = frozenset(compress(self.jobs, map(ne, assign, self.orig)))
        after = _new(Schedule)
        _set(after, "assignment", tuple([i + 1 for i in assign]))
        deviation = _new(Deviation)
        _set(deviation, "before", self.schedule)
        _set(deviation, "after", after)
        _set(deviation, "migrants", migrants)
        _set(deviation, "coalition", migrants if coalition is None else frozenset(coalition))
        return deviation

    def loads_of(self, assign) -> list[int]:
        """The machine loads under the joint action `assign`."""
        loads = [0] * self.m
        for j, i in enumerate(assign):
            loads[i] += self.sizes[i][j]
        return loads

    def improving_moves(self) -> Iterator[tuple[int, int, int]]:
        """Every strictly improving unilateral move as (job, machine, new
        cost), in ascending job then machine order."""
        for j, here in enumerate(self.orig):
            for i in range(self.m):
                cost = self.load0[i] + self.sizes[i][j]
                if i != here and cost < self.cost0[j]:
                    yield j, i, cost

    def check_move(self, after: Schedule, coalition=None) -> tuple[list[int], frozenset[int]]:
        """The joint action to `after` and its coalition (the migrants
        unless given), checked to be a profitable deviation: every member
        strictly improves.  Raises ValidationError naming the first
        violator."""
        validate_schedule(self.instance, after)
        assign = [i - 1 for i in after.assignment]
        migrants = self.migrants_of(assign)
        if not migrants:
            raise ValidationError("the two schedules are identical; a deviation must move someone")
        members = migrants if coalition is None else _members(coalition, self.n)
        if not migrants <= members:
            stranded = min(migrants - members)
            raise ValidationError(f"job {stranded} migrates but is not in the coalition")
        loads = self.loads_of(assign)
        for j in sorted(members):
            old, new = self.cost0[j - 1], loads[assign[j - 1]]
            if not new < old:
                raise ValidationError(
                    f"job {j} does not strictly improve "
                    f"({Fraction(old, self.scale)} -> {Fraction(new, self.scale)})"
                )
        return assign, members

    def bystanders(self, assign) -> frozenset[int]:
        """Jobs that keep their machine while its load strictly drops under
        the joint action `assign`; they can join the coalition of the move
        without violating profitability."""
        loads = self.loads_of(assign)
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


def _scan_order(ctx: ScanContext, by_size) -> tuple[int, ...] | list[int]:
    """The jobs free to act in `ctx`, in the order a scan places them: by
    index, or with `by_size` by non-increasing size on the start machine,
    ties by index."""
    if not by_size:
        return ctx.free
    # a stable sort keeps ties in index order, reversed or not
    own = list(map(getitem, ctx.columns, ctx.orig))
    return sorted(ctx.free, key=own.__getitem__, reverse=True)


def _mirror_rows(ctx: ScanContext, order) -> list:
    """Per depth of a scan that places the jobs in `order`, the machines
    it may skip there as mirrors (see `scan_deviations`): a tuple of
    (k2, k1, held), or None.  Each k2 is paired with the smallest
    interchangeable k1, and a depth lists the pair when its job is a
    resident of neither and the residents placed above it match on both
    machines, with `held` their load on either."""
    m, sizes, load0, orig, columns = ctx.m, ctx.sizes, ctx.load0, ctx.orig, ctx.columns
    rows: list = [None] * len(order)
    pairs = []
    residents = None
    for k2 in range(1, m):
        for k1 in range(k2):
            if load0[k1] != load0[k2] or sizes[k1] != sizes[k2]:
                continue
            if residents is None:
                residents = [[] for _ in range(m)]
                for j, i in enumerate(orig):
                    residents[i].append(columns[j])
                for group in residents:
                    group.sort()
            if residents[k1] == residents[k2]:
                pairs.append((k2, k1))
                break
    for k2, k1 in pairs:
        # `surplus` counts each column's placed residents of k1 less those
        # of k2, `unmatched` the columns where that is not 0
        surplus: dict = {}
        unmatched = held = 0
        entry = (k2, k1, held)
        for t, j in enumerate(order):
            oj = orig[j]
            if oj == k1 or oj == k2:
                column = columns[j]
                before = surplus.get(column, 0)
                after = surplus[column] = before + (1 if oj == k1 else -1)
                unmatched += (after != 0) - (before != 0)
                if oj == k1:
                    held += column[k1]
                    entry = (k2, k1, held)
            elif not unmatched:
                row = rows[t]
                rows[t] = (entry,) if row is None else (*row, entry)
    return rows


def scan_deviations(
    ctx: ScanContext,
    *,
    budget: int,
    on_leaf: Callable,
    by_size=False,
    min_ratio_floor=None,
    first=False,
) -> int:
    """Depth-first search over the joint actions of the schedule of `ctx`.
    Returns the nodes visited, which `budget` (a positive int, checked by
    the public entry points) caps.

    A node is one machine tried for one job, whether a cut then drops it
    or not, counted in visiting order.  The node that exceeds the budget
    raises `BudgetExceededError` with `nodes` = budget + 1.  An `on_leaf`
    that raises `_StopScan` ends the scan, which returns the nodes up to
    and including that leaf: the smallest budget that reaches it.

    The scan places the jobs of `ctx.free` in index order, or with
    `by_size` by non-increasing size on the start machine, ties by index
    (`_scan_order`).
    Each profitable candidate, one per orbit (below), goes to on_leaf(ctx,
    assign, loads, caps) in lexicographic order of those jobs taken in
    that order: the 0-based joint action, its machine loads, and
    per machine its cap, the smallest start cost among the jobs bound to
    it (movers into it, and with a coalition the members that stay), or
    `ctx.uncapped`.  They are the scan's own lists, valid during the call
    only.  Without `ctx.coalition` any set of jobs may move, and a
    candidate is profitable iff every mover strictly improves; with it,
    only its members act and each must strictly improve.

    The three cuts keep every profitable leaf, hence every verdict,
    witness, count and orbit, because loads only grow and caps only drop
    below a node; the twin rule keeps one leaf of every orbit:
    - cap: a machine whose load reaches its cap has a bound job that
      does not improve.
    - ratio floor: `min_ratio_floor`, a mutable sequence led by num and
      den, cuts a branch whose smallest member improvement is already
      below num/den.  A tie is visited, so a caller can keep the
      lexicographically smallest leaf of the best ratio in either order.
    - load conservation: at a profitable leaf a capped machine ends below
      its cap, and an uncapped one at most at the larger of its start
      load less the work that left it and `tops`, the largest start cost
      less one of a later job that can gain by moving there.  The final
      loads add up to at least the placed work plus each unplaced job's
      smallest size, so when the bounds sum to less, no profitable leaf
      lies below.
    - twins: jobs free to act with the same start machine and size on
      every machine (`ctx.twins`).  Relabelling them changes no load,
      cost or ratio, so only targets non-decreasing within each twin class
      are visited: the lexicographically smallest member of each orbit,
      in either order, since twins share a size and so both keep a class
      in index order.  So in index order the first leaf attaining any
      value is that of the labelled scan.  A caller adds
      `ctx.orbit_size(assign)` to count labelled deviations, or expands
      `ctx.orbit(assign)`.

    With `first`, for a caller that wants only the first leaf, the scan
    also skips mirror branches (`_mirror_rows`).  Without a coalition,
    machines k1 < k2 are interchangeable when their rows of sizes, start
    loads and multisets of residents' columns (the jobs that start on
    them) are equal.  At a depth whose job is a resident of neither, whose
    placed residents match on both, and where both machines are uncapped
    and hold exactly their placed residents' load (each stayed and
    nothing landed), the child on k2 is skipped: swapping k1 and k2, and
    their residents pairwise, maps every profitable leaf below it to one
    below the child on k1, which shares the prefix and so comes first,
    and twin classes to twin classes, so the first profitable
    representative is never below a skipped child.  An exhaustive scan
    would lose those leaves from its counts, values and witnesses, so it
    keeps the rule off.  A skipped child is no node.

    A budget stop's `explored_fraction` is the exact share of the joint
    actions resolved in visiting order, cut, twin-skipped and mirror
    branches included: those below the path to the node that exceeded the
    budget.
    The scan's set-up is its order and its plan, one entry per depth,
    built from the columns, costs and twins `ctx` stores, so that a call
    validates and builds one context for all its scans.  The scan
    recurses once per job free to act, so it refuses more than 500 of
    them (ValidationError) to stay within the recursion limit, and it
    drops its recursive closure on every exit, so that its lists, `ctx`
    and `on_leaf` are freed at once by reference counting, not left to
    the cycle collector.
    """
    free = ctx.free
    if len(free) > _MAX_SEARCH_JOBS:
        raise ValidationError(
            f"a deviation scan handles at most {_MAX_SEARCH_JOBS} jobs free to act, "
            f"got {len(free)}"
        )
    m, n = ctx.m, ctx.n
    columns, orig = ctx.columns, ctx.orig
    free = _scan_order(ctx, by_size)
    cost0, load0, prev_twin = ctx.cost0, ctx.load0, ctx.prev_twin
    members_fixed = ctx.coalition is not None
    # per depth: the job, its sizes on each machine, its start machine, the
    # machine it keeps without setting a cap (its start machine, or -1 when
    # members are fixed), its start cost, its previous twin, and for the
    # jobs at later depths the sum of their smallest sizes and, per machine
    # k, the work of those that start on k and the largest start cost less
    # one among those that can gain by moving to k (-1 if none), and the
    # machines it may skip as mirrors (`_mirror_rows`, None if none); a
    # depth that raises no top shares the `tops` list of the depth after it
    mirrors = _mirror_rows(ctx, free) if first and not members_fixed else [None] * len(free)
    plan = []
    rest_min, pend, tops = 0, [0] * m, [-1] * m
    for j, mirror in zip(reversed(free), reversed(mirrors)):
        column, oj, cj = columns[j], orig[j], cost0[j]
        keep = -1 if members_fixed else oj
        plan.append((j, column, oj, keep, cj, prev_twin[j], rest_min, pend, tops, mirror))
        rest_min += min(column)
        pend = pend.copy()
        pend[oj] += column[oj]
        shared = True
        for i, size in enumerate(column):
            if size < cj and tops[i] < cj - 1 and i != oj:
                if shared:
                    tops, shared = tops.copy(), False
                tops[i] = cj - 1
    plan.reverse()

    loads = [0] * m
    if members_fixed:
        for j in set(range(n)).difference(free):
            loads[orig[j]] += columns[j][orig[j]]

    depth = len(free)
    last = depth - 1
    infinity = ctx.uncapped
    caps = [infinity] * m
    assign = list(orig)
    # the machines a job tries: all of them, or from its previous twin's on
    starts = [range(k, m) for k in range(m)]
    machines = starts[0]

    # `placed` is sum(loads).  `room` sums each machine's largest final
    # load at a profitable leaf as far as the placed jobs tell: cap - 1 once
    # capped, else its start load less the work of the placed jobs that
    # left it, which is its load plus the work still to be placed that
    # starts on it.  Every child runs one rule: its machine's cap drops to
    # the job's start cost unless the job keeps its machine (`keep`) or the
    # cap is already lower, and the conservation cut runs where it drops.
    # A move that does not lower the job's cost needs no test of its own:
    # its new load is at least its size, so at least its start cost, which
    # caps that machine.  `nodes` is the count so far, handed down and
    # back up.  A budget stop is raised at the node that exceeds the
    # budget; nothing resets `assign` while it unwinds, so the stop reads
    # the machines chosen at the depths above from `assign`.
    def out_of_budget(t: int, i: int, nodes: int) -> BudgetExceededError:
        covered = 0
        for d in range(t):
            covered = covered * m + assign[free[d]]
        return BudgetExceededError(
            f"deviation search exceeded {budget} nodes",
            nodes=nodes,
            budget=budget,
            explored_fraction=Fraction((covered * m + i) * m ** (depth - t - 1), m**depth),
        )

    def dfs(t: int, placed: int, room: int, nodes: int) -> int:
        j, column, oj, keep, cj, twin, rest_min, pend, tops, mirror = plan[t]
        floor = min_ratio_floor
        at_leaf = t == last
        # a mover that leaves an uncapped start machine takes its room along
        leave = column[oj] if caps[oj] == infinity else 0
        tried = machines if twin < 0 else starts[assign[twin]]
        if mirror is not None:
            # k2 mirrors k1 while neither has a cap and each holds exactly
            # its placed residents: all of them stayed and nothing landed
            for k2, k1, held in mirror:
                if loads[k2] == held == loads[k1] and caps[k2] == infinity == caps[k1]:
                    tried = [i for i in tried if i != k2]
        for i in tried:
            nodes += 1
            if nodes > budget:
                raise out_of_budget(t, i, nodes)
            size = column[i]
            load = loads[i]
            new_load = load + size
            old_cap = caps[i]
            cap = old_cap if i == keep or cj >= old_cap else cj
            if new_load >= cap:
                continue
            if floor is not None and cap != infinity:
                if cap * floor[1] < new_load * floor[0]:
                    continue
            if cap == old_cap:
                new_room = room if i == oj else room - leave
            else:
                # i's room becomes cj - 1; that of an uncapped start machine
                # loses the job (when i is that machine, `leave` is the
                # job's part of its room)
                new_room = room + cj - 1 - leave - (
                    load + pend[i] if old_cap == infinity else old_cap - 1
                )
                # load conservation: the work still to land must fit the room
                short = placed + size + rest_min - new_room
                if short > 0:
                    for k in machines:
                        if caps[k] == infinity and k != i:
                            top = tops[k] - loads[k] - pend[k]
                            if top > 0:
                                short -= top
                    if short > 0:
                        continue
                caps[i] = cap
            loads[i] = new_load
            assign[j] = i
            if at_leaf:
                if assign != orig:
                    try:
                        on_leaf(ctx, assign, loads, caps)
                    except _StopScan as stop:
                        stop.nodes = nodes
                        raise
            else:
                nodes = dfs(t + 1, placed + size, new_room, nodes)
            loads[i] = load
            caps[i] = old_cap
        assign[j] = oj
        return nodes

    try:
        return dfs(0, sum(loads), sum(load0), 0) if depth else 0
    except _StopScan as stop:
        return stop.nodes
    finally:
        # `dfs` reaches itself through its closure cell; left in place, that
        # cycle would keep the plan, the scan's lists, `ctx` and `on_leaf`
        # (with all the caller has collected) alive until the cycle
        # collector runs, so drop it on every exit
        dfs = None


def is_strong(
    instance: Instance,
    schedule: Schedule,
    node_budget: int = DEFAULT_SEARCH_BUDGET,
    *,
    coalition=None,
) -> StabilityResult:
    """Is the schedule resilient to every coalition move, or with
    `coalition` to a joint move of exactly those jobs, in which every one
    of them (moving or staying put) strictly improves?  A job named twice
    in `coalition` raises ValidationError.  Exhaustive within the budget;
    raises BudgetExceededError rather than guessing.  On failure the
    witness is the lexicographically smallest profitable joint action,
    its coalition the migrants, or `coalition` when given.

    Whether a deviation exists does not depend on visiting order, so two
    scans of the one context the call validates and builds share
    `node_budget`: one by size, where the cuts bite sooner, decides, and
    only when it meets a deviation does one by index find the smallest,
    on the nodes the first left.  Both stop at their first leaf, so both
    skip the branches that mirror interchangeable machines (`first` in
    `scan_deviations`).  A stop counts the nodes of both in
    `nodes`, names `node_budget` as `budget`, and reports in
    `explored_fraction` the share the stopped scan resolved, in its own
    visiting order.  A stop in the scan by index carries in `best` the
    deviation the scan by size found, so the schedule is known not to be
    strong, though that deviation need not be the smallest; a stop in the
    scan by size carries none."""
    _check_budget(node_budget)
    hit: list = []

    def grab(ctx, assign, loads, caps):
        hit.append(ctx.deviation(assign, ctx.coalition))
        raise _StopScan

    ctx = ScanContext(instance, schedule, coalition)
    nodes = scan_deviations(ctx, budget=node_budget, on_leaf=grab, by_size=True, first=True)
    if not hit:
        return StabilityResult(holds=True)
    found = hit.pop()
    try:
        scan_deviations(ctx, budget=node_budget - nodes, on_leaf=grab, first=True)
    except BudgetExceededError as stop:
        raise BudgetExceededError(
            f"deviation search exceeded {node_budget} nodes",
            nodes=nodes + stop.nodes,
            budget=node_budget,
            explored_fraction=stop.explored_fraction,
            best=found,
        ) from None
    return StabilityResult(holds=False, witness=hit[0])


@dataclass(frozen=True)
class DeviationSweep:
    """Materialized list of profitable deviations in lexicographic order
    of the joint action; `complete` is False when the budget truncated
    it, and the list is then a lexicographic prefix."""

    deviations: tuple[Deviation, ...]
    complete: bool

    def __iter__(self):
        return iter(self.deviations)

    def __len__(self):
        return len(self.deviations)


def _first_unresolved(order, m: int, share: Fraction) -> tuple[int, ...]:
    """The lexicographically smallest joint action of jobs 0..n-1, as
    1-based machines, whose rank is at least `share` of the m^n joint
    actions, where `order` lists every job and the rank reads a joint
    action as a base-m number over the jobs in that order: the first joint
    action in index order that a scan in `order`, stopped with `share`
    explored, left unresolved.  Each job in index order takes the smallest
    machine from which the largest completion still reaches that rank."""
    n = len(order)
    weight = [0] * n
    for depth, j in enumerate(order):
        weight[j] = m ** (n - 1 - depth)
    need = int(share * m**n)
    rest = m**n - 1
    first = []
    for w in weight:
        # `rest` is the largest rank the jobs after this one can add
        rest -= (m - 1) * w
        i = max(0, -((rest - need) // w))
        need -= i * w
        first.append(i + 1)
    return tuple(first)


def enumerate_profitable_deviations(
    instance: Instance, schedule: Schedule, node_budget: int = DEFAULT_SEARCH_BUDGET
) -> DeviationSweep:
    """Every profitable deviation (movers-only coalitions), lexicographic
    in the joint action; complete iff it finished within the budget.  A
    budget stop keeps a lexicographic prefix: every profitable deviation
    below the first joint action, in index order, that the scan left
    unresolved.

    The scan places the jobs by size, where its cuts bite sooner, and each
    leaf builds the deviation of every member of its orbit; one sort by
    joint action orders them.  A stop's `explored_fraction` names what the
    scan resolved: the joint actions whose rank over the jobs in size
    order is below that share of all of them.  The first joint action in
    index order outside that set is the cutoff (`_first_unresolved`).
    Every profitable one below it has an orbit whose representative, the
    member of smallest rank, the scan met, so the deviations kept are
    exactly those below the cutoff."""
    _check_budget(node_budget)
    ctx = ScanContext(instance, schedule)
    found: list[Deviation] = []
    deviation = ctx.deviation

    def leaf(ctx, assign, loads, caps):
        found.append(deviation(assign))

    def orbit_leaf(ctx, assign, loads, caps):
        found.extend(map(deviation, ctx.orbit(assign)))

    # the cutoff after a stop reads the order the scan ran in
    by_size = True
    share = None
    try:
        # without twins every orbit is its representative alone
        scan_deviations(
            ctx, budget=node_budget, on_leaf=orbit_leaf if ctx.twins else leaf, by_size=by_size
        )
    except BudgetExceededError as stop:
        share = stop.explored_fraction
    if share is not None:
        cutoff = _first_unresolved(_scan_order(ctx, by_size), ctx.m, share)
        found = [d for d in found if d.after.assignment < cutoff]
    found.sort(key=attrgetter("after.assignment"))
    return DeviationSweep(deviations=tuple(found), complete=share is None)
