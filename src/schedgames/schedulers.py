"""Assignment methods: LPT, list scheduling, lexicographically minimal
prefix assignment, the strong-stability PTAS, and an exact makespan oracle.

Deterministic tie-breaks throughout: the job sort orders by
non-increasing size with ties broken by ascending job index, and greedy
steps pick the least loaded machine with the lowest index.

The lex-min prefix search (`lex_min_assignment`, and each round of
`ptas`) and `optimal_makespan` both run a DFS over canonical assignments
on scaled integer sizes.  The lex-min search cuts a child whose new load
exceeds the incumbent's largest load, and a child whose machine carries
the same load as an earlier sibling's; both cuts are exact and keep the
first DFS leaf that attains the minimal vector, so the labels returned
are those the full enumeration returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._scaling import scaled_sizes
from .core import (
    BudgetExceededError,
    IdenticalInstance,
    Schedule,
    ValidationError,
    canonical_form,
    parse_rational,
)

DEFAULT_ENUM_BUDGET = 10**7


def _require_identical(instance):
    if not isinstance(instance, IdenticalInstance):
        raise ValidationError("this scheduler is defined for identical machines only")


def size_ordered_jobs(instance: IdenticalInstance) -> list[int]:
    """Job indices sorted by non-increasing size, ties by ascending index."""
    return sorted(range(1, instance.n + 1), key=lambda j: (-instance.p[j - 1], j))


def _greedy_fill(instance, order, loads, assignment):
    """Assign jobs in `order` to the least loaded machine (lowest index tie)."""
    for j in order:
        best = min(range(instance.m), key=lambda i: (loads[i], i))
        assignment[j - 1] = best + 1
        loads[best] += instance.p[j - 1]


def lpt(instance: IdenticalInstance) -> Schedule:
    """Longest-processing-time rule: sort, then greedy least-loaded."""
    _require_identical(instance)
    loads = [Fraction(0)] * instance.m
    assignment = [0] * instance.n
    _greedy_fill(instance, size_ordered_jobs(instance), loads, assignment)
    return Schedule(tuple(assignment))


def list_schedule(instance: IdenticalInstance, order: Sequence[int]) -> Schedule:
    """Greedy least-loaded assignment in the given job order."""
    _require_identical(instance)
    order = list(order)
    if sorted(order) != list(range(1, instance.n + 1)):
        raise ValidationError(f"order must be a permutation of 1..{instance.n}")
    loads = [Fraction(0)] * instance.m
    assignment = [0] * instance.n
    _greedy_fill(instance, order, loads, assignment)
    return Schedule(tuple(assignment))


@dataclass(frozen=True)
class PartialAssignment:
    """Assignment of a job subset.  jobs[k] is on machine machines[k]."""

    jobs: tuple[int, ...]
    machines: tuple[int, ...]
    loads: tuple[Fraction, ...]

    def as_mapping(self) -> dict[int, int]:
        return dict(zip(self.jobs, self.machines))


def _canonical_partial(instance, jobs, labels, machine_ids):
    """Relabel machine labels so first-use order follows ascending job index."""
    first: dict[int, int] = {}
    for j, lab in sorted(zip(jobs, labels)):
        first.setdefault(lab, j)
    order = sorted(first, key=first.get)
    relabel = {lab: machine_ids[pos] for pos, lab in enumerate(order)}
    machines = tuple(relabel[lab] for lab in labels)
    loads = [Fraction(0)] * instance.m
    for j, i in zip(jobs, machines):
        loads[i - 1] += instance.p[j - 1]
    return PartialAssignment(jobs=tuple(jobs), machines=machines, loads=tuple(loads))


def _lex_min_over(instance, jobs, machine_ids, node_budget):
    """Lex-minimal assignment of `jobs` (sorted non-increasing) to `machine_ids`.

    Enumerates machine-relabeling canonical assignments only (a fresh
    machine may be opened only after all previously opened ones), which
    is exhaustive up to symmetry because the machines are identical.
    Loads are scaled integers.  Two exact cuts skip a child:

    - max-load: its new load exceeds the incumbent's largest load, so
      every leaf below it has a strictly larger sorted vector;
    - equal-load sibling: its machine's load equals an earlier sibling's;
      swapping the two machines for the remaining jobs maps every leaf
      below it to a leaf with the same sorted vector below the earlier
      sibling, which (relabelled canonically) comes first in DFS order.

    Neither cut removes the first DFS leaf that attains the minimum, and
    only a strictly smaller vector replaces the incumbent, so the labels
    returned are those of that first minimal leaf, as in the full
    enumeration.  Every child examined counts as one node.
    """
    m = len(machine_ids)
    k = len(jobs)
    row = scaled_sizes(instance)[0][0]
    sizes = [row[j - 1] for j in jobs]
    best_vector: list[int] | None = None
    best_labels: list[int] | None = None
    loads = [0] * m
    labels = [0] * k
    nodes = 0

    def dfs(t: int, used: int):
        nonlocal best_vector, best_labels, nodes
        if t == k:
            vector = sorted(loads, reverse=True)
            if best_vector is None or vector < best_vector:
                best_vector = vector
                best_labels = labels.copy()
            return
        size = sizes[t]
        seen: set[int] = set()
        for i in range(min(used + 1, m)):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"lexicographic enumeration exceeded {node_budget} nodes "
                    f"(need up to {m}^{k} assignments)",
                    nodes=nodes,
                    budget=node_budget,
                )
            load = loads[i]
            if load in seen:
                continue
            seen.add(load)
            if best_vector is not None and load + size > best_vector[0]:
                continue
            loads[i] = load + size
            labels[t] = i
            dfs(t + 1, max(used, i + 1))
            loads[i] = load

    dfs(0, 0)
    if best_labels is None:  # k == 0
        return [], []
    return list(jobs), best_labels


def lex_min_assignment(
    instance: IdenticalInstance, k: int, node_budget: int = DEFAULT_ENUM_BUDGET
) -> PartialAssignment:
    """Assignment of the k longest jobs whose sorted load vector is
    lexicographically minimal; deterministic via canonical relabeling."""
    _require_identical(instance)
    if not isinstance(k, int) or k < 0 or k > instance.n:
        raise ValidationError(f"k must be in 0..{instance.n}, got {k!r}")
    chosen = size_ordered_jobs(instance)[:k]
    machine_ids = list(range(1, instance.m + 1))
    jobs, labels = _lex_min_over(instance, chosen, machine_ids, node_budget)
    return _canonical_partial(instance, jobs, labels, machine_ids)


@dataclass(frozen=True)
class PtasConfig:
    """Knobs for the strong-stability approximation scheme.

    epsilon sets the prefix size k = ceil(m / epsilon).  `refine`
    re-runs the scheme on the remaining machines whenever the makespan
    machine carries prefix jobs only (off by default: the base scheme is
    the contract, the loop is an optional post-pass).
    """

    epsilon: Fraction
    refine: bool = False
    node_budget: int = DEFAULT_ENUM_BUDGET

    def __post_init__(self):
        eps = parse_rational(self.epsilon)
        if eps <= 0:
            raise ValidationError(f"epsilon must be positive, got {eps}")
        object.__setattr__(self, "epsilon", eps)

    def prefix_size(self, m: int, n: int) -> int:
        # ceil(m / epsilon), exactly
        k = -((-m * self.epsilon.denominator) // self.epsilon.numerator)
        return min(n, k)


def _scheme_round(instance, jobs, machine_ids, k, node_budget):
    """One pass: lex-min prefix on the given machines, greedy completion.

    Returns (assignment dict, prefix job set)."""
    ordered = sorted(jobs, key=lambda j: (-instance.p[j - 1], j))
    prefix = ordered[: min(k, len(ordered))]
    rest = ordered[len(prefix):]
    pjobs, plabels = _lex_min_over(instance, prefix, machine_ids, node_budget)
    partial = _canonical_partial(instance, pjobs, plabels, machine_ids)
    amap = partial.as_mapping()
    loads = {i: Fraction(0) for i in machine_ids}
    for j, i in amap.items():
        loads[i] += instance.p[j - 1]
    for j in rest:
        target = min(machine_ids, key=lambda i: (loads[i], i))
        amap[j] = target
        loads[target] += instance.p[j - 1]
    return amap, set(prefix)


def ptas(instance: IdenticalInstance, config: PtasConfig) -> Schedule:
    """Lex-minimal assignment of the longest k jobs, then LPT for the rest."""
    _require_identical(instance)
    k = config.prefix_size(instance.m, instance.n)
    jobs = list(range(1, instance.n + 1))
    machine_ids = list(range(1, instance.m + 1))
    frozen: dict[int, int] = {}
    while True:
        amap, prefix = _scheme_round(instance, jobs, machine_ids, k, config.node_budget)
        if not config.refine or len(machine_ids) == 1 or not amap:
            break
        loads = {i: Fraction(0) for i in machine_ids}
        for j, i in amap.items():
            loads[i] += instance.p[j - 1]
        top = max(loads.values())
        top_machines = [i for i in machine_ids if loads[i] == top]
        # a completion job on some makespan machine ends the loop
        if any(
            any(j not in prefix for j, i in amap.items() if i == mach)
            for mach in top_machines
        ):
            break
        mach = min(top_machines)
        moved = [j for j, i in amap.items() if i == mach]
        if len(moved) == len(jobs):
            break
        for j in moved:
            frozen[j] = mach
        jobs = [j for j in jobs if j not in frozen]
        machine_ids = [i for i in machine_ids if i != mach]
    frozen.update(amap)
    return Schedule(tuple(frozen[j] for j in range(1, instance.n + 1)))


@dataclass(frozen=True)
class OptimalMakespan:
    value: Fraction
    schedule: Schedule


def optimal_makespan(
    instance: IdenticalInstance, node_budget: int = DEFAULT_ENUM_BUDGET
) -> OptimalMakespan:
    """Exact minimum makespan via branch and bound over canonical assignments.

    Warm-started from the LPT schedule, built on the sorted scaled sizes;
    prunes machine-permutation symmetry, equal-load duplicates, and
    branches that cannot beat the incumbent.  Raises BudgetExceededError (carrying the best incumbent)
    when the node budget runs out.
    """
    _require_identical(instance)
    if instance.n == 0:
        return OptimalMakespan(value=Fraction(0), schedule=Schedule(()))
    sizes_rows, scale = scaled_sizes(instance)
    order = size_ordered_jobs(instance)
    sizes = [sizes_rows[0][j - 1] for j in order]
    m = instance.m
    n = instance.n

    loads = [0] * m
    best_assign = []
    for size in sizes:
        i = loads.index(min(loads))
        best_assign.append(i + 1)
        loads[i] += size
    best_val = max(loads)
    total = sum(sizes)
    lower = max(sizes[0], -(-total // m))
    loads = [0] * m
    current = [0] * n
    nodes = 0

    def dfs(t: int, used: int, cur_max: int):
        nonlocal best_val, best_assign, nodes
        if best_val == lower:
            return
        if t == n:
            if cur_max < best_val:
                best_val = cur_max
                best_assign = [i + 1 for i in current]
            return
        seen: set[int] = set()
        for i in range(min(used + 1, m)):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"makespan search exceeded {node_budget} nodes",
                    nodes=nodes,
                    budget=node_budget,
                    best=OptimalMakespan(
                        value=Fraction(best_val, scale),
                        schedule=_schedule_from(order, best_assign, n),
                    ),
                )
            if loads[i] in seen:
                continue
            seen.add(loads[i])
            new_load = loads[i] + sizes[t]
            if new_load >= best_val:
                continue
            loads[i] = new_load
            current[t] = i
            dfs(t + 1, max(used, i + 1), max(cur_max, new_load))
            loads[i] = new_load - sizes[t]

    dfs(0, 0, 0)
    schedule = _schedule_from(order, best_assign, n)
    return OptimalMakespan(
        value=Fraction(best_val, scale), schedule=canonical_form(schedule, instance)
    )


def _schedule_from(order, machines, n):
    assignment = [0] * n
    for j, i in zip(order, machines):
        assignment[j - 1] = i
    return Schedule(tuple(assignment))
