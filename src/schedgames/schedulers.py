"""Assignment methods: LPT, list scheduling, lexicographically minimal
prefix assignment, the strong-stability PTAS, and an exact makespan oracle.

Deterministic tie-breaks throughout: the one job sort,
`size_ordered_jobs`, orders by non-increasing size with ties broken by
ascending job index, and greedy steps pick the least loaded machine with
the lowest index.  Loads are sums of the instance's `_scaled` integers
(see `core`).  `list_schedule`, hence `lpt`, the completion of `ptas`,
the first limit of the lex-min prefix and the warm start of
`optimal_makespan` share one greedy, `_greedy`.
`core.load_profile` is the `Fraction` view of the loads of a schedule
returned here.

One search, `_canonical_search`, enumerates canonical assignments of
scaled integer sizes: it counts nodes against the budget, starts a job
no lower than an equal-size predecessor's machine, cuts a child whose
machine carries the same load as an earlier sibling's or whose new load
exceeds a limit, and hands each leaf to a leaf rule that sets the next
limit or ends the search.  The lex-min prefix (`lex_min_assignment`,
and the prefix of `ptas`) keeps the first leaf with the smallest sorted
load vector, under a limit that starts at the greedy makespan of the
prefix and then follows its incumbent's largest load, so the labels are
those the full enumeration returns.  `optimal_makespan` keeps the leaf
with the smallest makespan, under the limit of its incumbent less one,
and stops at the lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    DEFAULT_SEARCH_BUDGET,
    BudgetExceededError,
    IdenticalInstance,
    Schedule,
    ValidationError,
    _MAX_SEARCH_JOBS,
    _check_budget,
    _is_int,
    canonical_form,
    parse_rational,
)


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


def _canonical_search(sizes, m, limit, node_budget, leaf, what) -> None:
    """Depth-first search over the canonical assignments of `sizes`
    (scaled, non-increasing) to m identical machines.

    Job t may use machines 0..min(used, m - 1), where `used` counts the
    machines opened so far, so each assignment is met once up to machine
    relabeling.  Every child examined counts as one node; past
    `node_budget` nodes the search raises BudgetExceededError, named by
    `what`.  Three exact rules skip a child:

    - twin: a job as large as job t - 1 starts at that job's machine.
      Among leaves with the same loads, the first in DFS order has
      non-decreasing machines within each run of equal sizes, since
      swapping two equal jobs gives a lexicographically smaller canonical
      leaf with the same loads;
    - equal-load sibling: its machine's load equals an earlier sibling's;
      swapping the two machines for the remaining jobs maps every leaf
      below it to a leaf with the same load multiset below the earlier
      sibling, which (relabelled canonically) comes first in DFS order;
    - limit: its new load exceeds `limit`.

    At each leaf `leaf(loads, labels)` sees the live loads and each job's
    machine, and returns the new limit, or None to end the search.

    The search recurses once per job, so more than 500 of them raise
    ValidationError, named by `what`.  It holds nothing once it returns or
    raises: its lists and `leaf` (with the caller's incumbent) are freed
    by reference counting, without waiting for the cycle collector.
    """
    k = len(sizes)
    if k > _MAX_SEARCH_JOBS:
        raise ValidationError(f"{what} handles at most {_MAX_SEARCH_JOBS} jobs, got {k}")
    loads = [0] * m
    labels = [0] * k
    nodes = 0

    def dfs(t: int, used: int) -> bool:
        """Search below depth t; True once the leaf rule ends the search."""
        nonlocal limit, nodes
        if t == k:
            limit = leaf(loads, labels)
            return limit is None
        size = sizes[t]
        seen: set[int] = set()
        for i in range(labels[t - 1] if t and size == sizes[t - 1] else 0, min(used + 1, m)):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"{what} exceeded {node_budget} nodes", nodes=nodes, budget=node_budget
                )
            load = loads[i]
            if load in seen:
                continue
            seen.add(load)
            if load + size > limit:
                continue
            loads[i] = load + size
            labels[t] = i
            if dfs(t + 1, max(used, i + 1)):
                return True
            loads[i] = load
        return False

    try:
        dfs(0, 0)
    finally:
        # `dfs` reaches itself through its closure cell; left in place, that
        # cycle would keep the lists and `leaf` alive until the cycle
        # collector runs, so drop it on every exit
        dfs = None


def _lex_min_prefix(row, jobs, m, node_budget) -> tuple[list[int], list[int]]:
    """The lex-minimal assignment of `jobs` (sorted non-increasing, scaled
    sizes in `row`) to m machines: each job's 0-based machine, relabelled
    so that first use follows ascending job index, and the scaled loads.

    The limit starts at the makespan of `_greedy` on the same jobs: that
    placement is one of the assignments, so the minimal vector's largest
    load is at most its makespan.  A leaf replaces the incumbent only on a
    strictly smaller sorted load vector, and the limit then drops to that
    vector's largest load: a child above it only leads to strictly larger
    vectors.  So the limit never cuts a leaf that attains the minimum, and
    no other rule of `_canonical_search` (none of which reads the limit)
    removes the first DFS leaf that attains it: that leaf is the one kept,
    and the labels are those the full enumeration returns.
    """
    sizes = [row[j - 1] for j in jobs]
    greedy_loads = [0] * m
    _greedy(sizes, greedy_loads)
    best_vector: list[int] | None = None
    best_labels: list[int] = []

    def leaf(loads, labels):
        nonlocal best_vector, best_labels
        vector = sorted(loads, reverse=True)
        if best_vector is None or vector < best_vector:
            best_vector, best_labels = vector, labels.copy()
        return best_vector[0]

    _canonical_search(
        sizes, m, max(greedy_loads), node_budget, leaf,
        f"lexicographic enumeration of up to {m}^{len(jobs)} assignments",
    )
    first: dict[int, int] = {}
    for _, lab in sorted(zip(jobs, best_labels)):
        first.setdefault(lab, len(first))
    machines = [first[lab] for lab in best_labels]
    loads = [0] * m
    for size, i in zip(sizes, machines):
        loads[i] += size
    return machines, loads


def lex_min_assignment(
    instance: IdenticalInstance, k: int, node_budget: int = DEFAULT_SEARCH_BUDGET
) -> PartialAssignment:
    """Assignment of the k longest jobs whose sorted load vector is
    lexicographically minimal; deterministic via canonical relabeling."""
    _require_identical(instance)
    if not _is_int(k) or k < 0 or k > instance.n:
        raise ValidationError(f"k must be in 0..{instance.n}, got {k!r}")
    _check_budget(node_budget)
    chosen = size_ordered_jobs(instance)[:k]
    rows, scale = instance._scaled
    machines, loads = _lex_min_prefix(rows[0], chosen, instance.m, node_budget)
    return PartialAssignment(
        jobs=tuple(chosen),
        machines=tuple(i + 1 for i in machines),
        loads=tuple(Fraction(load, scale) for load in loads),
    )


@dataclass(frozen=True)
class PtasConfig:
    """Knobs for the strong-stability approximation scheme.

    epsilon sets the prefix size k = ceil(m / epsilon).  `node_budget`, a
    positive int, caps the lex-min prefix search.
    """

    epsilon: Fraction
    node_budget: int = DEFAULT_SEARCH_BUDGET

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


def ptas(instance: IdenticalInstance, config: PtasConfig) -> Schedule:
    """Lex-minimal assignment of the longest k jobs, then list scheduling
    of the rest in size order from the prefix's loads."""
    _require_identical(instance)
    row = instance._scaled[0][0]
    order = size_ordered_jobs(instance)
    k = config.prefix_size(instance.m, instance.n)
    machines, loads = _lex_min_prefix(row, order[:k], instance.m, config.node_budget)
    machines += _greedy([row[j - 1] for j in order[k:]], loads)
    return _schedule_from(order, machines)


@dataclass(frozen=True)
class OptimalMakespan:
    value: Fraction
    schedule: Schedule


def optimal_makespan(
    instance: IdenticalInstance, node_budget: int = DEFAULT_SEARCH_BUDGET
) -> OptimalMakespan:
    """Exact minimum makespan via branch and bound over canonical assignments.

    Warm-started from the LPT schedule, built on the sorted scaled sizes.
    The limit is the incumbent less one, so `_canonical_search` cuts every
    branch that cannot beat it; the search ends once the incumbent meets
    the lower bound max(largest job, ceil(total / m)).  Raises
    BudgetExceededError (carrying the best incumbent) when the node
    budget runs out.
    """
    _require_identical(instance)
    _check_budget(node_budget)
    rows, scale = instance._scaled
    order = size_ordered_jobs(instance)
    sizes = [rows[0][j - 1] for j in order]
    m = instance.m
    loads = [0] * m
    best_assign = _greedy(sizes, loads)
    best_val = max(loads)
    lower = max(max(sizes, default=0), -(-sum(sizes) // m))

    def leaf(loads, labels):
        # a load placed higher in the tree may exceed an incumbent that
        # has dropped since, so the leaf compares its own makespan
        nonlocal best_val, best_assign
        top = max(loads)
        if top < best_val:
            best_val, best_assign = top, labels.copy()
            if top == lower:
                return None
        return best_val - 1

    if best_val > lower:
        try:
            _canonical_search(sizes, m, best_val - 1, node_budget, leaf, "makespan search")
        except BudgetExceededError as exc:
            exc.best = OptimalMakespan(
                value=Fraction(best_val, scale), schedule=_schedule_from(order, best_assign)
            )
            raise
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
