"""Assignment methods: LPT, list scheduling, lexicographically minimal
prefix assignment, the strong-stability PTAS, and an exact makespan oracle.

Deterministic tie-breaks throughout: the one job sort,
`size_ordered_jobs`, orders by non-increasing size with ties broken by
ascending job index, and greedy steps pick the least loaded machine with
the lowest index.  Loads are sums of the instance's `_scaled` integers
(see `core`).  `list_schedule`, hence `lpt`, the completion of each
`ptas` round and the warm start of `optimal_makespan` share one greedy,
`_greedy`.  `core.load_profile` is the `Fraction` view of the loads of
a schedule returned here.

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

from .core import (
    BudgetExceededError,
    IdenticalInstance,
    Schedule,
    ValidationError,
    _check_budget,
    _is_int,
    canonical_form,
    parse_rational,
)

DEFAULT_ENUM_BUDGET = 10**7


def _require_identical(instance):
    if not isinstance(instance, IdenticalInstance):
        raise ValidationError("this scheduler is defined for identical machines only")


def size_ordered_jobs(instance: IdenticalInstance) -> list[int]:
    """Job indices sorted by non-increasing size, ties by ascending index."""
    _require_identical(instance)
    row = instance._scaled[0][0]
    return sorted(range(1, instance.n + 1), key=lambda j: (-row[j - 1], j))


def _greedy(sizes, loads) -> list[int]:
    """Place jobs of the given scaled sizes, in order, each on the least
    loaded machine (lowest index on ties), adding to `loads` in place;
    returns their 0-based machines."""
    machines = []
    for size in sizes:
        i = loads.index(min(loads))
        loads[i] += size
        machines.append(i)
    return machines


def lpt(instance: IdenticalInstance) -> Schedule:
    """Longest-processing-time rule: list scheduling in size order."""
    return list_schedule(instance, size_ordered_jobs(instance))


def list_schedule(instance: IdenticalInstance, order: Sequence[int]) -> Schedule:
    """Greedy least-loaded assignment in the given job order, a
    permutation of the job indices (ints, not bools)."""
    _require_identical(instance)
    order = list(order)
    if not all(map(_is_int, order)) or sorted(order) != list(range(1, instance.n + 1)):
        raise ValidationError(f"order must be a permutation of 1..{instance.n}")
    row = instance._scaled[0][0]
    return _schedule_from(order, _greedy([row[j - 1] for j in order], [0] * instance.m))


@dataclass(frozen=True)
class PartialAssignment:
    """Assignment of a job subset.  jobs[k] is on machine machines[k]."""

    jobs: tuple[int, ...]
    machines: tuple[int, ...]
    loads: tuple[Fraction, ...]

    def as_mapping(self) -> dict[int, int]:
        return dict(zip(self.jobs, self.machines))


def _canonical_partial(row, jobs, labels, m) -> tuple[list[int], list[int]]:
    """Relabel the m machines so that first use follows ascending job
    index; returns each job's 0-based machine and the scaled loads."""
    first: dict[int, int] = {}
    for _, lab in sorted(zip(jobs, labels)):
        first.setdefault(lab, len(first))
    machines = [first[lab] for lab in labels]
    loads = [0] * m
    for j, i in zip(jobs, machines):
        loads[i] += row[j - 1]
    return machines, loads


def _lex_min_over(row, jobs, m, node_budget) -> list[int]:
    """Labels of the lex-minimal assignment of `jobs` (sorted
    non-increasing, scaled sizes in `row`) to m machines.

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
    k = len(jobs)
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
    return best_labels


def lex_min_assignment(
    instance: IdenticalInstance, k: int, node_budget: int = DEFAULT_ENUM_BUDGET
) -> PartialAssignment:
    """Assignment of the k longest jobs whose sorted load vector is
    lexicographically minimal; deterministic via canonical relabeling."""
    _require_identical(instance)
    if not _is_int(k) or k < 0 or k > instance.n:
        raise ValidationError(f"k must be in 0..{instance.n}, got {k!r}")
    _check_budget(node_budget)
    chosen = size_ordered_jobs(instance)[:k]
    rows, scale = instance._scaled
    labels = _lex_min_over(rows[0], chosen, instance.m, node_budget)
    machines, loads = _canonical_partial(rows[0], chosen, labels, instance.m)
    return PartialAssignment(
        jobs=tuple(chosen),
        machines=tuple(i + 1 for i in machines),
        loads=tuple(Fraction(load, scale) for load in loads),
    )


@dataclass(frozen=True)
class PtasConfig:
    """Knobs for the strong-stability approximation scheme.

    epsilon sets the prefix size k = ceil(m / epsilon).  `refine`
    re-runs the scheme on the remaining machines whenever the makespan
    machine carries prefix jobs only (off by default: the base scheme is
    the contract, the loop is an optional post-pass).  `node_budget`, a
    positive int, caps each round's lex-min prefix search.
    """

    epsilon: Fraction
    refine: bool = False
    node_budget: int = DEFAULT_ENUM_BUDGET

    def __post_init__(self):
        eps = parse_rational(self.epsilon)
        if eps <= 0:
            raise ValidationError(f"epsilon must be positive, got {eps}")
        object.__setattr__(self, "epsilon", eps)
        _check_budget(self.node_budget)

    def prefix_size(self, m: int, n: int) -> int:
        # ceil(m / epsilon), exactly
        k = -((-m * self.epsilon.denominator) // self.epsilon.numerator)
        return min(n, k)


def _scheme_round(row, jobs, m, k, node_budget):
    """One pass on m machines: lex-min prefix of the first k of `jobs`
    (in size order), greedy completion.  Returns each job's 0-based
    machine, the prefix job set and the scaled loads."""
    prefix, rest = jobs[:k], jobs[k:]
    labels = _lex_min_over(row, prefix, m, node_budget)
    machines, loads = _canonical_partial(row, prefix, labels, m)
    machines += _greedy([row[j - 1] for j in rest], loads)
    return dict(zip(jobs, machines)), set(prefix), loads


def ptas(instance: IdenticalInstance, config: PtasConfig) -> Schedule:
    """Lex-minimal assignment of the longest k jobs, then LPT for the rest."""
    _require_identical(instance)
    row = instance._scaled[0][0]
    k = config.prefix_size(instance.m, instance.n)
    # the live jobs, kept in size order as rounds freeze some of them
    jobs = size_ordered_jobs(instance)
    machine_ids = list(range(1, instance.m + 1))
    frozen: dict[int, int] = {}
    while True:
        placed, prefix, loads = _scheme_round(row, jobs, len(machine_ids), k, config.node_budget)
        amap = {j: machine_ids[i] for j, i in placed.items()}
        if not config.refine or len(machine_ids) == 1 or not amap:
            break
        top = max(loads)
        top_machines = [machine_ids[i] for i, load in enumerate(loads) if load == top]
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
    branches that cannot beat the incumbent.  Raises BudgetExceededError
    (carrying the best incumbent) when the node budget runs out.
    """
    _require_identical(instance)
    _check_budget(node_budget)
    if instance.n == 0:
        return OptimalMakespan(value=Fraction(0), schedule=Schedule(()))
    rows, scale = instance._scaled
    order = size_ordered_jobs(instance)
    sizes = [rows[0][j - 1] for j in order]
    m = instance.m
    n = instance.n

    loads = [0] * m
    best_assign = _greedy(sizes, loads)
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
                best_assign = current.copy()
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
                        schedule=_schedule_from(order, best_assign),
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
    schedule = _schedule_from(order, best_assign)
    return OptimalMakespan(
        value=Fraction(best_val, scale), schedule=canonical_form(schedule, instance)
    )


def _schedule_from(order, machines) -> Schedule:
    """The schedule that puts job order[k] on 0-based machine machines[k];
    `order` lists every job."""
    assignment = [0] * len(order)
    for j, i in zip(order, machines):
        assignment[j - 1] = i + 1
    return Schedule(tuple(assignment))
