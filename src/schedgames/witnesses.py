"""Benchmark generators: parametric instances that exhibit extremal
stability behavior, Partition-based hardness reductions with their
start schedules, and a verified search for extremal LPT instances.

Every generator returns exact rationals, and two constructors certify
every artifact that makes a claim.  `_figure` builds each one that bundles
a deviation, the figures and the list-scheduling improvement alike, and
validates that deviation for profitability (the list-scheduling damage
example is its schedule alone).  `_reduction` checks that each
reduction's start schedule is an equilibrium and takes its verdict from
`partition_oracle`.

The extremal search charges each candidate the nodes its scan reports
visiting (`MeasureReport.nodes`) against one shared node budget: a
candidate is scanned with whatever budget is left, and a candidate that
exhausts it ends the search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DEFAULT_SEARCH_BUDGET,
    IdenticalInstance,
    Instance,
    Schedule,
    UnrelatedInstance,
    ValidationError,
    _check_budget,
    _is_int,
    parse_rational,
)
from .equilibria import Deviation, is_nash, profitable_deviation
from .measures import _MEASURES, deviation_stats, measure_report
from .schedulers import list_schedule, lpt


@dataclass(frozen=True)
class FigureArtifact:
    """An instance, its start schedule, and a known profitable deviation
    (None when the point of the artifact is the schedule alone)."""

    instance: Instance
    schedule: Schedule
    deviation: Deviation | None = None


def _figure(instance, before, after) -> FigureArtifact:
    """The artifact of the deviation from `before` to `after`, validated."""
    return FigureArtifact(instance, before, profitable_deviation(instance, before, after))


def figure1() -> FigureArtifact:
    """Three machines, jobs (5,5,3,2,3,2): an equilibrium where the four
    jobs of sizes 5 and 2 jointly migrate and each improves by 5/4."""
    instance = IdenticalInstance(m=3, p=(5, 5, 3, 2, 3, 2))
    before = Schedule((1, 1, 2, 2, 3, 3))
    after = Schedule((2, 3, 2, 1, 3, 1))
    return _figure(instance, before, after)


def figure3(r, m: int = 3) -> FigureArtifact:
    """Equilibrium family with unboundedly lucky movers: the two unit jobs
    improve by exactly r while the jobs of size 2r-1 suffer (4r-1)/(2r).

    Extra machines each carry a single inert job of size 4r.
    """
    r = parse_rational(r)
    if r <= 1:
        raise ValidationError(f"the ratio parameter must exceed 1, got {r}")
    if not _is_int(m) or m < 3:
        raise ValidationError(f"machine count must be an int of at least 3, got {m!r}")
    extras = m - 3
    p = (2 * r, 2 * r, 2 * r - 1, Fraction(1), 2 * r - 1, Fraction(1)) + (4 * r,) * extras
    dummies = tuple(range(4, m + 1))
    before = Schedule((1, 1, 2, 2, 3, 3) + dummies)
    after = Schedule((2, 3, 2, 1, 3, 1) + dummies)
    instance = IdenticalInstance(m=m, p=p)
    return _figure(instance, before, after)


def figure9() -> FigureArtifact:
    """LPT schedule on (1.633, 1.633, 1.367, 1.266, 1, 1, 1) whose five
    movers all improve by just over 1.112: the busiest machine empties
    out and receives the 1.367 job plus a unit job."""
    instance = IdenticalInstance(
        m=3, p=("1.633", "1.633", "1.367", "1.266", "1", "1", "1")
    )
    before = lpt(instance)
    after = Schedule((2, 2, 1, 3, 3, 1, 3))
    return _figure(instance, before, after)


def footnote5(eps) -> FigureArtifact:
    """Two unrelated machines where swapping lets both jobs drop from
    cost 1 to eps, so the improvement ratio 1/eps is unbounded."""
    eps = parse_rational(eps)
    if not 0 < eps < 1:
        raise ValidationError(f"eps must lie strictly between 0 and 1, got {eps}")
    instance = UnrelatedInstance(m=2, p=((Fraction(1), eps), (eps, Fraction(1))))
    before = Schedule((1, 2))
    after = Schedule((2, 1))
    return _figure(instance, before, after)


def ls_examples(X, eps) -> tuple[FigureArtifact, FigureArtifact]:
    """The two list-scheduling counterexamples, each scheduled in arrival
    order, as the pair (improvement, damage).

    improvement: list scheduling traps unit job 1 with the long job X;
    moving alone next to the other unit job improves it by (1+X)/2.
    damage: a coalition makes the long job migrate, damaging a bystander
    proportionally to X; the artifact is the schedule alone.
    """
    X = parse_rational(X)
    eps = parse_rational(eps)
    if X <= 1:
        raise ValidationError(f"X must exceed 1, got {X}")
    if not 0 < eps < Fraction(1, 2):
        raise ValidationError(f"eps must lie strictly between 0 and 1/2, got {eps}")
    instance = IdenticalInstance(m=2, p=(Fraction(1), Fraction(1), X))
    # arrival order puts the unit jobs on machines 1 and 2, then X on machine 1
    improvement = _figure(instance, list_schedule(instance, (1, 2, 3)), Schedule((2, 2, 1)))
    instance = IdenticalInstance(
        m=3, p=(1 - 2 * eps, 1 - eps, Fraction(1), Fraction(2), X, Fraction(2), Fraction(3))
    )
    return improvement, FigureArtifact(instance, list_schedule(instance, range(1, 8)))


def partition_oracle(values) -> tuple[int, ...] | None:
    """Exact half-sum subset via the pseudo-polynomial reachability table;
    returns one witness half (as a sorted value tuple) or None."""
    items = list(values)
    for a in items:
        if not _is_int(a) or a <= 0:
            raise ValidationError(f"partition inputs must be positive integers, got {a!r}")
    total = sum(items)
    if total % 2:
        return None
    half = total // 2
    reachable = 1
    history = []
    for a in items:
        history.append(reachable)
        reachable |= reachable << a
    if not (reachable >> half) & 1:
        return None
    chosen = []
    remaining = half
    for a, prior in zip(reversed(items), reversed(history)):
        if remaining > 0 and not (prior >> remaining) & 1:
            chosen.append(a)
            remaining -= a
    return tuple(sorted(chosen))


@dataclass(frozen=True)
class ReductionArtifact:
    """A Partition input together with the scheduling instance and start
    schedule it induces; `expected_se` mirrors the oracle's verdict."""

    partition_set: tuple[int, ...]
    instance: Instance
    start_schedule: Schedule
    expected_se: bool | None
    partition_witness: tuple[int, ...] | None


def _reduction(items, instance, schedule) -> ReductionArtifact:
    """The artifact of Partition input `items` and the start schedule it
    induces, which must be an equilibrium; the oracle gives the verdict."""
    check = is_nash(instance, schedule)
    if not check.holds:
        raise ValidationError(
            f"constructed start schedule is not an equilibrium: {check.witness.to_dict()}"
        )
    witness = partition_oracle(items)
    return ReductionArtifact(items, instance, schedule, witness is None, witness)


def reduce_partition_identical(values, m: int = 3) -> ReductionArtifact:
    """Identical-machines reduction: the question 'can any coalition
    improve on this equilibrium?' encodes Partition.

    All n inputs sit on machine 1 (load 2B); machines 2 and 3 each hold
    one job of size B-2 and one of size B-1; any further machine holds a
    single job of size 2B.  The start schedule is strong iff the inputs
    have no half-sum split.
    """
    items = tuple(values)
    for a in items:
        if not _is_int(a) or a < 3:
            raise ValidationError(
                f"reduction inputs must be integers of size at least 3, got {a!r}"
            )
    total = sum(items)
    if total % 2:
        raise ValidationError(f"total size must be even, got {total}")
    if not _is_int(m) or m < 3:
        raise ValidationError(f"machine count must be an int of at least 3, got {m!r}")
    half = total // 2
    if half < 3:
        raise ValidationError(f"half-sum must be at least 3, got {half}")
    n = len(items)
    p = items + (half - 2, half - 2, half - 1, half - 1) + (total,) * (m - 3)
    assignment = (1,) * n + (2, 3, 2, 3) + tuple(range(4, m + 1))
    return _reduction(items, IdenticalInstance(m=m, p=p), Schedule(assignment))


def reduce_partition_unrelated(values, eps) -> ReductionArtifact:
    """Two unrelated machines: input job i costs a_i + eps on machine 1
    and 2*a_i + eps on machine 2; a closing job costs B on machine 1 and
    2B + n*eps on machine 2.  With all inputs on machine 1 and the
    closing job on machine 2, both loads equal 2B + n*eps, and the
    schedule is strong iff there is no half-sum split.
    """
    items = tuple(values)
    for a in items:
        if not _is_int(a) or a <= 0:
            raise ValidationError(f"reduction inputs must be positive integers, got {a!r}")
    n = len(items)
    if n < 2:
        raise ValidationError("needs at least two input integers")
    total = sum(items)
    if total % 2:
        raise ValidationError(f"total size must be even, got {total}")
    eps = parse_rational(eps)
    if not 0 < eps < Fraction(1, n - 1):
        raise ValidationError(f"eps must lie strictly between 0 and 1/{n - 1}, got {eps}")
    half = total // 2
    row1 = tuple(a + eps for a in items) + (Fraction(half),)
    row2 = tuple(2 * a + eps for a in items) + (2 * half + n * eps,)
    return _reduction(items, UnrelatedInstance(m=2, p=(row1, row2)), Schedule((1,) * n + (2,)))


@dataclass(frozen=True)
class ExtremalSearchResult:
    found: bool
    instance: IdenticalInstance | None
    schedule: Schedule | None
    deviation: Deviation | None
    value: Fraction
    budget_charged: int


_EPS_GRID = [
    Fraction(1, 8),
    Fraction(1, 12),
    Fraction(1, 16),
    Fraction(1, 20),
    Fraction(1, 24),
    Fraction(1, 32),
    Fraction(1, 48),
    Fraction(1, 64),
]


def _extremal_candidates(m: int):
    """Deterministic stream of small LPT stress instances.

    Two perturbation families (graded near-unit jobs; a 3/2-plateau with
    perturbed unit jobs) over a grid of perturbations, then generic
    multisets over a coarse value grid.  For m > 3, inert oversized jobs
    park one per extra machine.
    """
    one = Fraction(1)

    def pad(sizes):
        sizes = tuple(sizes)
        if m == 3:
            return sizes
        giant = 2 * max(sizes)
        return tuple(sorted(sizes, reverse=True)) + (giant,) * (m - 3)

    for eps in _EPS_GRID:
        yield pad([1 + 5 * eps, 1 + 4 * eps, 1 + 3 * eps, 1 + 2 * eps, 1 + eps, one, one])
        yield pad([3, 3, 2, 2, 1 + eps, 1 + eps, 1 + eps])
    for eps in (Fraction(1, 8), Fraction(1, 16)):
        grid = (one, 1 + eps, 1 + 2 * eps, Fraction(2), 2 + eps, Fraction(3))
        for combo in itertools.combinations_with_replacement(grid, 6):
            yield pad(combo)


def search_extremal_lpt(
    m: int, measure: str, target, node_budget: int = DEFAULT_SEARCH_BUDGET
) -> ExtremalSearchResult:
    """Search LPT schedules for a profitable deviation whose improvement
    (measure='ir_max') or damage (measure='dr_max') reaches `target`.

    Every hit is re-verified: the witness deviation is revalidated from
    scratch and must reproduce the claimed ratio.  Returns the best value
    found when the candidate stream or the node budget runs out.
    `budget_charged` is the number of scan nodes visited, at most
    `node_budget`.
    """
    if not _is_int(m) or m < 3:
        raise ValidationError(f"machine count must be an int of at least 3, got {m!r}")
    _check_budget(node_budget)
    if measure not in ("ir_max", "dr_max"):
        raise ValidationError(f"measure must be 'ir_max' or 'dr_max', got {measure!r}")
    target = parse_rational(target)
    found = False
    best_value = Fraction(1)
    best: tuple | None = None
    charged = 0
    for sizes in _extremal_candidates(m):
        left = node_budget - charged
        if left == 0:
            break
        instance = IdenticalInstance(m=m, p=sizes)
        schedule = lpt(instance)
        report = measure_report(instance, schedule, node_budget=left)
        # a budget stop counts the one node past `left` that it refused
        charged += min(report.nodes, left)
        if not report.exhaustive:
            break
        value, witness = getattr(report, measure), getattr(report, f"{measure}_witness")
        found = value >= target and witness is not None
        if value > best_value or found:
            best_value = value
            best = (instance, schedule, witness)
        if found:
            stats = deviation_stats(instance, schedule, witness.after)
            achieved = getattr(stats, _MEASURES[measure][1])
            if achieved != value:
                raise AssertionError(
                    f"witness re-verification mismatch: {achieved} != {value}"
                )
            break
    instance, schedule, witness = best if best else (None, None, None)
    return ExtremalSearchResult(found, instance, schedule, witness, best_value, charged)
