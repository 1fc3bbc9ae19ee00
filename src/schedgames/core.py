"""Exact-arithmetic domain model for load balancing games.

Jobs are numbered 1..n and machines 1..m everywhere in the public API,
including file formats and witness output.  All processing times, loads
and ratios are `fractions.Fraction`; equilibrium checks rely on strict
inequalities, so nothing is ever rounded.  Every type is an immutable
value and every operation is a pure function.

Search code works in ints: an instance scales its sizes by their common
denominator once, on first use, and keeps them and the scale as its
private `_scaled`.  Ratios of scaled quantities are scale-free, so every
result stays exact.  The form is all tuples, so no reader can change
what the next one sees, and it is not a dataclass field, so equality,
hashing and repr ignore it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction


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


def _is_int(x) -> bool:
    """An int, and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_index(index, count: int, what: str) -> None:
    """Reject a 1-based index that is not an int in 1..count (bools included)."""
    if not _is_int(index) or not 1 <= index <= count:
        raise ValidationError(f"{what} index {index!r} out of range 1..{count}")


def _check_budget(budget) -> None:
    """Reject a node budget that is not a positive int (bools included)."""
    if not _is_int(budget) or budget < 1:
        raise ValidationError(f"node budget must be positive, got {budget!r}")


# The node budget of every search that is not given one: the deviation
# scans, the measures, the schedulers' searches, sweeps and the CLI.
DEFAULT_SEARCH_BUDGET = 10**8

# Both search kernels, `equilibria.scan_deviations` and
# `schedulers._canonical_search`, recurse once per job they place; this
# many jobs keeps them well inside the interpreter's default recursion
# limit of 1000 frames.
_MAX_SEARCH_JOBS = 500


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


def _scaled_form(instance) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(sizes, scale): sizes[i][j] = p(machine i+1, job j+1) * scale."""
    identical = isinstance(instance, IdenticalInstance)
    rows = (instance.p,) if identical else instance.p
    scale = math.lcm(1, *(q.denominator for row in rows for q in row))
    sizes = tuple(tuple(q.numerator * (scale // q.denominator) for q in row) for row in rows)
    return (sizes * instance.m if identical else sizes), scale


@dataclass(frozen=True)
class IdenticalInstance:
    """m identical machines and an ordered list of job processing times.

    Job order is significant: it is the arrival order consumed by list
    scheduling and the tie-break order used by the LPT sort.
    """

    m: int
    p: tuple[Fraction, ...]

    def __post_init__(self):
        if not _is_int(self.m) or self.m < 1:
            raise ValidationError(f"machine count must be a positive int, got {self.m!r}")
        object.__setattr__(self, "p", _as_positive_rationals(self.p, "processing time of job"))

    @property
    def n(self) -> int:
        return len(self.p)

    def processing_time(self, job: int, machine: int | None = None) -> Fraction:
        """Job `job`'s size; `machine`, if given, must be a machine index."""
        _check_index(job, self.n, "job")
        if machine is not None:
            _check_index(machine, self.m, "machine")
        return self.p[job - 1]

    @cached_property
    def _scaled(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        return _scaled_form(self)


@dataclass(frozen=True)
class UnrelatedInstance:
    """Machines with job- and machine-dependent processing times.

    `p` has one row per machine: p[i-1][j-1] is the time of job j on
    machine i, matching the on-disk matrix layout.
    """

    m: int
    p: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not _is_int(self.m) or self.m < 1:
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
        _check_index(job, self.n, "job")
        _check_index(machine, self.m, "machine")
        return self.p[machine - 1][job - 1]

    @cached_property
    def _scaled(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        return _scaled_form(self)


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
        _check_index(job, self.n, "job")
        return self.assignment[job - 1]


def validate_schedule(instance: Instance, schedule: Schedule):
    if schedule.n != instance.n:
        raise ValidationError(
            f"schedule covers {schedule.n} jobs but the instance has {instance.n}"
        )
    assignment = schedule.assignment
    # checked whole first, by builtins; the per-job loop runs only to name
    # the first bad job (or for an int subclass, which it accepts)
    if set(map(type, assignment)) == {int}:
        if 1 <= min(assignment) and max(assignment) <= instance.m:
            return
    for j, i in enumerate(assignment, start=1):
        if not _is_int(i) or not 1 <= i <= instance.m:
            raise ValidationError(f"job {j} assigned to invalid machine {i!r}")


@dataclass(frozen=True)
class LoadProfile:
    """Per-machine loads and their maximum."""

    loads: tuple[Fraction, ...]
    makespan: Fraction

    def load(self, machine: int) -> Fraction:
        _check_index(machine, len(self.loads), "machine")
        return self.loads[machine - 1]


def load_profile(instance: Instance, schedule: Schedule) -> LoadProfile:
    """Exact per-machine loads; empty machines have load 0."""
    validate_schedule(instance, schedule)
    loads = [Fraction(0)] * instance.m
    for j, i in enumerate(schedule.assignment, start=1):
        loads[i - 1] += instance.processing_time(j, i)
    loads = tuple(loads)
    return LoadProfile(loads=loads, makespan=max(loads) if loads else Fraction(0))


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
    if not _is_int(m):
        raise ValidationError(f"'machines' must be an integer, got {m!r}")
    if "jobs" in data and "matrix" in data:
        raise ValidationError("instance file has both 'jobs' and 'matrix'; give one")
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
