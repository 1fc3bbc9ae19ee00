"""Exact-arithmetic domain model for load balancing games.

Jobs are numbered 1..n and machines 1..m everywhere in the public API,
including file formats and witness output.  All processing times, loads
and ratios are `fractions.Fraction`; equilibrium checks rely on strict
inequalities, so nothing is ever rounded.  Every type is an immutable
value and every operation is a pure function.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


class ValidationError(ValueError):
    """Invalid instance, schedule, or operation argument."""


class BudgetExceededError(RuntimeError):
    """A search ran out of its node budget before finishing.

    The result is inconclusive: callers must never report the searched
    property as decided.  `explored_fraction` (when known) is the share
    of the joint-action space that was resolved before the search ran
    out; `best` optionally carries the best bound found so far.
    """

    def __init__(self, message, *, nodes, budget, explored_fraction=None, best=None):
        super().__init__(message)
        self.nodes = nodes
        self.budget = budget
        self.explored_fraction = explored_fraction
        self.best = best


# Largest decimal exponent magnitude a string may carry: "1e20000" would
# otherwise become a 66,439-bit numerator that every later scan works on.
MAX_DECIMAL_EXPONENT = 100
_EXPONENT = re.compile(r"e([-+]?[0-9_]+)$", re.IGNORECASE)


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int, 'a/b' string, or decimal string.

    Floats are rejected: a JSON literal like 1.633 does not round-trip
    exactly, so decimals must be quoted ("1.633" -> 1633/1000).  So are
    decimal exponents above MAX_DECIMAL_EXPONENT in magnitude.
    """
    if isinstance(value, bool):
        raise ValidationError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValidationError(
            f"refusing inexact float {value!r}; write it as a quoted string"
        )
    if isinstance(value, str):
        text = value.strip()
        exponent = _EXPONENT.search(text)
        if exponent:
            digits = exponent.group(1).lstrip("+-").replace("_", "").lstrip("0")
            # compare lengths first: int() refuses strings of over 4300 digits
            too_long = len(digits) > len(str(MAX_DECIMAL_EXPONENT))
            if too_long or int(digits or "0") > MAX_DECIMAL_EXPONENT:
                raise ValidationError(
                    f"decimal exponent of {value!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
                )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational: {value!r}") from exc
    raise ValidationError(f"not a rational: {value!r}")


def format_rational(q: Fraction):
    """Serialize a Fraction for JSON: int when integral, else 'a/b'."""
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def _as_positive_rationals(values, what: str) -> tuple[Fraction, ...]:
    out = []
    for k, v in enumerate(values, start=1):
        q = parse_rational(v)
        if q <= 0:
            raise ValidationError(f"{what} {k} must be positive, got {q}")
        out.append(q)
    return tuple(out)


@dataclass(frozen=True)
class IdenticalInstance:
    """m identical machines and an ordered list of job processing times.

    Job order is significant: it is the arrival order consumed by list
    scheduling and the tie-break order used by the LPT sort.
    """

    m: int
    p: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValidationError(f"machine count must be a positive int, got {self.m!r}")
        object.__setattr__(self, "p", _as_positive_rationals(self.p, "processing time of job"))

    @property
    def n(self) -> int:
        return len(self.p)

    def processing_time(self, job: int, machine: int | None = None) -> Fraction:
        self._check_job(job)
        return self.p[job - 1]

    def total(self) -> Fraction:
        return sum(self.p, Fraction(0))

    def _check_job(self, job: int):
        if not 1 <= job <= self.n:
            raise ValidationError(f"job index {job} out of range 1..{self.n}")


@dataclass(frozen=True)
class UnrelatedInstance:
    """Machines with job- and machine-dependent processing times.

    `p` has one row per machine: p[i-1][j-1] is the time of job j on
    machine i, matching the on-disk matrix layout.
    """

    m: int
    p: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValidationError(f"machine count must be a positive int, got {self.m!r}")
        rows = tuple(
            _as_positive_rationals(row, f"processing time on machine {i}")
            for i, row in enumerate(self.p, start=1)
        )
        if len(rows) != self.m:
            raise ValidationError(f"expected {self.m} matrix rows, got {len(rows)}")
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise ValidationError(f"matrix is not rectangular: row lengths {sorted(widths)}")
        object.__setattr__(self, "p", rows)

    @property
    def n(self) -> int:
        return len(self.p[0]) if self.p else 0

    def processing_time(self, job: int, machine: int) -> Fraction:
        self._check_job(job)
        if not 1 <= machine <= self.m:
            raise ValidationError(f"machine index {machine} out of range 1..{self.m}")
        return self.p[machine - 1][job - 1]

    def _check_job(self, job: int):
        if not 1 <= job <= self.n:
            raise ValidationError(f"job index {job} out of range 1..{self.n}")


Instance = IdenticalInstance | UnrelatedInstance


@dataclass(frozen=True)
class Schedule:
    """Assignment of each job to a machine: assignment[j-1] is job j's machine."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))

    @property
    def n(self) -> int:
        return len(self.assignment)

    def machine_of(self, job: int) -> int:
        return self.assignment[job - 1]

    def jobs_on(self, machine: int) -> tuple[int, ...]:
        return tuple(j for j, i in enumerate(self.assignment, start=1) if i == machine)


def validate_schedule(instance: Instance, schedule: Schedule):
    if schedule.n != instance.n:
        raise ValidationError(
            f"schedule covers {schedule.n} jobs but the instance has {instance.n}"
        )
    for j, i in enumerate(schedule.assignment, start=1):
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= instance.m:
            raise ValidationError(f"job {j} assigned to invalid machine {i!r}")


@dataclass(frozen=True)
class LoadProfile:
    """Per-machine loads and their maximum."""

    loads: tuple[Fraction, ...]
    makespan: Fraction

    def load(self, machine: int) -> Fraction:
        return self.loads[machine - 1]


def load_profile(instance: Instance, schedule: Schedule) -> LoadProfile:
    """Exact per-machine loads; empty machines have load 0."""
    validate_schedule(instance, schedule)
    loads = [Fraction(0)] * instance.m
    for j, i in enumerate(schedule.assignment, start=1):
        loads[i - 1] += instance.processing_time(j, i)
    loads = tuple(loads)
    return LoadProfile(loads=loads, makespan=max(loads) if loads else Fraction(0))


def job_cost(instance: Instance, schedule: Schedule, job: int) -> Fraction:
    """Cost of a job: the total load on the machine it occupies."""
    instance._check_job(job)
    return load_profile(instance, schedule).load(schedule.machine_of(job))


@dataclass(frozen=True)
class InducedInstance:
    """Restriction of an instance to the jobs sitting on a machine subset.

    `jobs[k-1]` is the original index of sub-instance job k (original
    relative order preserved); `machines[i-1]` is the original index of
    sub-instance machine i (ascending).
    """

    instance: Instance
    jobs: tuple[int, ...]
    machines: tuple[int, ...]

    def to_original_job(self, job: int) -> int:
        return self.jobs[job - 1]

    def induced_schedule(self, schedule: Schedule) -> Schedule:
        """Translate an assignment of the original jobs into sub-instance labels."""
        rank = {orig: k for k, orig in enumerate(self.machines, start=1)}
        return Schedule(tuple(rank[schedule.machine_of(j)] for j in self.jobs))


def induced_instance(
    instance: Instance, schedule: Schedule, machine_subset: Iterable[int]
) -> InducedInstance:
    """Sub-instance holding exactly the jobs scheduled on the given machines."""
    validate_schedule(instance, schedule)
    subset = sorted(set(machine_subset))
    if not subset:
        raise ValidationError("machine subset must be nonempty")
    for i in subset:
        if not 1 <= i <= instance.m:
            raise ValidationError(f"machine index {i} out of range 1..{instance.m}")
    chosen = set(subset)
    jobs = tuple(j for j in range(1, instance.n + 1) if schedule.machine_of(j) in chosen)
    if isinstance(instance, IdenticalInstance):
        sub = IdenticalInstance(m=len(subset), p=tuple(instance.p[j - 1] for j in jobs))
    else:
        sub = UnrelatedInstance(
            m=len(subset),
            p=tuple(tuple(instance.p[i - 1][j - 1] for j in jobs) for i in subset),
        )
    return InducedInstance(instance=sub, jobs=jobs, machines=tuple(subset))


def canonical_form(schedule: Schedule, instance: IdenticalInstance) -> Schedule:
    """Relabel identical machines so first-job indices are increasing.

    Machines are renumbered in order of the smallest job index they
    carry; empty machines come last.  Idempotent, and the load multiset
    and every job cost are unchanged.
    """
    if not isinstance(instance, IdenticalInstance):
        raise ValidationError("canonical form is defined for identical machines only")
    validate_schedule(instance, schedule)
    first_job: dict[int, int] = {}
    for j, i in enumerate(schedule.assignment, start=1):
        first_job.setdefault(i, j)
    # occupied machines by first job, then untouched machines by index
    order = sorted(first_job, key=first_job.get)
    order += [i for i in range(1, instance.m + 1) if i not in first_job]
    relabel = {old: new for new, old in enumerate(order, start=1)}
    return Schedule(tuple(relabel[i] for i in schedule.assignment))


# --- JSON file formats -----------------------------------------------------
#
# Identical instance:  {"machines": m, "jobs": ["5", "3/2", ...]}
# Unrelated instance:  {"machines": m, "matrix": [[...], ...]}   rows = machines
# Schedule:            {"assignment": [1, 1, 2, ...]}
#
# Rationals are ints or strings ("a/b" or exact decimal); round-trips are
# bit-exact.


def instance_to_dict(instance: Instance) -> dict:
    if isinstance(instance, IdenticalInstance):
        return {"machines": instance.m, "jobs": [format_rational(q) for q in instance.p]}
    return {
        "machines": instance.m,
        "matrix": [[format_rational(q) for q in row] for row in instance.p],
    }


def _as_list(value, what: str) -> list:
    # a string would otherwise be split into its characters
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return value


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict) or "machines" not in data:
        raise ValidationError("instance file must be an object with a 'machines' field")
    m = data["machines"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValidationError(f"'machines' must be an integer, got {m!r}")
    if "jobs" in data:
        return IdenticalInstance(m=m, p=tuple(_as_list(data["jobs"], "'jobs'")))
    if "matrix" in data:
        rows = _as_list(data["matrix"], "'matrix'")
        return UnrelatedInstance(
            m=m,
            p=tuple(tuple(_as_list(row, f"matrix row {i}")) for i, row in enumerate(rows, 1)),
        )
    raise ValidationError("instance file needs either 'jobs' or 'matrix'")


def schedule_to_dict(schedule: Schedule) -> dict:
    return {"assignment": list(schedule.assignment)}


def schedule_from_dict(data: dict) -> Schedule:
    if not isinstance(data, dict) or "assignment" not in data:
        raise ValidationError("schedule file must be an object with an 'assignment' field")
    assignment = data["assignment"]
    if not isinstance(assignment, list):
        raise ValidationError("'assignment' must be a list of machine indices")
    return Schedule(tuple(assignment))


def read_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def write_instance(instance: Instance, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")


def read_schedule(path) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_dict(json.load(fh))


def write_schedule(schedule: Schedule, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule_to_dict(schedule), fh, indent=2)
        fh.write("\n")
