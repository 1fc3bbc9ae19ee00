"""Seeded inputs, per-item work and output checks for the three workloads.

Inputs come from the benchmark's own `random.Random`, seeded from the
workload name and `--seed`, so a change to the package cannot change
them.  The one exception is `sweep`, whose input is a `SweepConfig` seed
that the package expands into an instance itself.

Each workload cycles through a fixed list of shapes (scheduler, machine
count, job count, Partition family) and draws only the numbers at random.
Every run therefore sees the same mix of item sizes, which keeps
throughput and latency percentiles steady from seed to seed.

A workload `draw`s plain numbers, which is the benchmark's own work, and
`build`s the package's input objects from them, which is timed as set-up.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction


def item_digest(encoded) -> str:
    """Short hash of an item's exact results, as recorded in expected.json."""
    return hashlib.sha256(repr(encoded).encode()).hexdigest()[:8]


@dataclass(frozen=True)
class Props:
    """Input properties a symmetry or pruning change depends on."""

    twins: int
    jobs: int
    joint_actions: int  # m^n, the unpruned size of the deviation search


def input_props(m: int, columns, assignment) -> Props:
    """`columns` holds each job's size (identical machines) or matrix
    column (unrelated machines); a twin shares it and its start machine
    with another job."""
    keys = Counter(zip(assignment, columns))
    return Props(
        twins=sum(count for count in keys.values() if count > 1),
        jobs=len(assignment),
        joint_actions=m ** len(assignment),
    )


def has_half_split(values) -> bool:
    """Subset-sum reachability of the half-sum, independent of the package."""
    total = sum(values)
    if total % 2:
        return False
    reach = 1
    for a in values:
        reach |= reach << a
    return bool(reach >> (total // 2) & 1)


# --------------------------------------------------------------------- sweep


@dataclass(frozen=True)
class SweepItem:
    tag: str  # scheduler name; `optimal_makespan.unread_frac` reads it
    config: object  # experiments.SweepConfig


class Sweep:
    """One `experiments.bound_sweep` trial per item, round-robin over the
    four schedulers: the `schedgames experiment` user journey.

    Four machines stop at n = 11: at n = 12 a single trial of `lpt` or
    `ptas` takes up to 0.3 s, and those trials alone set how many items a
    run completes.
    """

    name = "sweep"
    pool_size = 2400
    schedulers = ("lpt", "ls", "random-ne", "ptas")
    shapes = tuple((m, n) for m in (3, 4) for n in range(8, 13) if (m, n) != (4, 12))
    p_max = 20
    ptas_eps = Fraction(1, 2)

    def draw(self, seed: int, count: int) -> list:
        rng = random.Random(f"schedbench/sweep/{seed}")
        specs = []
        for k in range(count):
            scheduler = self.schedulers[k % len(self.schedulers)]
            m, n = self.shapes[(k // len(self.schedulers)) % len(self.shapes)]
            specs.append((scheduler, m, n, rng.getrandbits(64)))
        return specs

    def build(self, pkg, specs) -> list:
        return [
            SweepItem(
                tag=scheduler,
                config=pkg.experiments.SweepConfig(
                    seed=config_seed,
                    trials=1,
                    m_range=(m, m),
                    n_range=(n, n),
                    p_max=self.p_max,
                    scheduler=scheduler,
                    eps=self.ptas_eps if scheduler == "ptas" else None,
                ),
            )
            for scheduler, m, n, config_seed in specs
        ]

    def run(self, pkg, item):
        return pkg.experiments.bound_sweep(item.config)

    def check(self, pkg, item, report):
        """(failure or None, encoded exact results, input properties)."""
        if report.inconclusive or report.records[0].opt is None:
            return "budget", None, None
        (rec,) = report.records
        encoded = (
            rec.scheduler, rec.m, rec.n, rec.assignment, str(rec.makespan),
            str(rec.opt), str(rec.ir_min), str(rec.ir_max), str(rec.dr_max),
        )
        props = input_props(rec.m, rec.jobs, rec.assignment)
        return ("wrong" if report.violations else None), encoded, props


# -------------------------------------------------------------------- decide


@dataclass(frozen=True)
class DecideItem:
    tag: str
    has_split: bool  # from the benchmark's own subset-sum check
    expected_se: bool  # from witnesses.partition_oracle, via the reduction
    instance: object
    schedule: object


class Decide:
    """`equilibria.is_strong` on the paper's Partition reductions.

    Inputs without a half-sum split are multiples of 3 plus one value that
    is not: every subset sum is then 0 or r mod 3 while the half-sum is
    -r mod 3, so the start schedule is strong and the search exhausts.
    Inputs with a split are drawn from 3..9 until one is found.
    """

    name = "decide"
    pool_size = 2000
    # (variant, machines, inputs, has a half-sum split)
    slots = (
        ("identical", 3, 5, False),
        ("identical", 3, 6, False),
        ("identical", 3, 7, False),
        ("identical", 3, 6, True),
        ("identical", 3, 7, True),
        ("identical", 3, 8, True),
        ("identical", 4, 3, False),
        ("identical", 4, 4, False),
        ("identical", 4, 4, True),
        ("identical", 4, 5, True),
        ("unrelated", 2, 11, False),
        ("unrelated", 2, 13, False),
        ("unrelated", 2, 14, False),
        ("unrelated", 2, 12, True),
        ("unrelated", 2, 14, True),
        ("unrelated", 2, 16, True),
    )

    @staticmethod
    def draw_values(rng, k: int, split: bool) -> tuple[int, ...]:
        while True:
            if split:
                values = [rng.randint(3, 9) for _ in range(k)]
            else:
                values = [3 * rng.randint(1, 3) for _ in range(k - 1)]
                values.insert(rng.randrange(k), rng.choice((4, 5, 7, 8)))
            if sum(values) % 2 == 0 and has_half_split(values) == split:
                return tuple(values)

    def draw(self, seed: int, count: int) -> list:
        rng = random.Random(f"schedbench/decide/{seed}")
        specs = []
        for k in range(count):
            variant, m, size, split = self.slots[k % len(self.slots)]
            specs.append((variant, m, self.draw_values(rng, size, split), split))
        return specs

    def build(self, pkg, specs) -> list:
        wit = pkg.witnesses
        items = []
        for variant, m, values, split in specs:
            if variant == "identical":
                art = wit.reduce_partition_identical(values, m=m)
            else:
                art = wit.reduce_partition_unrelated(values, Fraction(1, len(values)))
            items.append(
                DecideItem(
                    tag=f"{variant}-m{m}",
                    has_split=split,
                    expected_se=art.expected_se,
                    instance=art.instance,
                    schedule=art.start_schedule,
                )
            )
        return items

    def run(self, pkg, item):
        return pkg.equilibria.is_strong(item.instance, item.schedule)

    def check(self, pkg, item, result):
        witness = None if result.witness is None else result.witness.after.assignment
        encoded = (result.holds, witness)
        inst = item.instance
        columns = zip(*inst.p) if isinstance(inst, pkg.core.UnrelatedInstance) else inst.p
        props = input_props(inst.m, columns, item.schedule.assignment)
        ok = result.holds == item.expected_se and item.expected_se != item.has_split
        if ok and not result.holds:
            try:
                pkg.equilibria.profitable_deviation(item.instance, item.schedule, result.witness.after)
            except pkg.core.ValidationError:
                ok = False
        return (None if ok else "wrong"), encoded, props


# ------------------------------------------------------------------- measure


@dataclass(frozen=True)
class MeasureItem:
    tag: str
    instance: object
    schedule: object


def improving_moves(sizes, start, m: int) -> int:
    """Unilateral moves (job, machine) that strictly lower the job's cost."""
    loads = [0] * (m + 1)
    for size, i in zip(sizes, start):
        loads[i] += size
    machines = loads[1:]
    # a move to the job's own machine never lowers its cost
    return sum(sum(load + size < loads[i] for load in machines) for size, i in zip(sizes, start))


class Measure:
    """`measure_report`, `ir_min` and `enumerate_profitable_deviations` on
    random start assignments that are not equilibria: the scan is
    exhaustive and reaches hundreds to thousands of profitable leaves.

    The leaf count has a heavy tail, and one item from it can take as long
    as a thousand ordinary ones.  The number of improving unilateral moves
    predicts it well, so starts are drawn until that number equals a
    target that cycles through `move_targets`, and sizes stop at n = 9 on
    3 machines and n = 8 on 4.  A run then holds thousands of items in the
    same proportions on every seed.
    """

    name = "measure"
    pool_size = 2400
    shapes = ((3, 8), (3, 9), (4, 7), (4, 8))
    move_targets = (1, 2, 3, 4, 5, 6, 7, 8)
    p_max = 20

    def draw(self, seed: int, count: int) -> list:
        rng = random.Random(f"schedbench/measure/{seed}")
        specs = []
        for k in range(count):
            m, n = self.shapes[k % len(self.shapes)]
            target = self.move_targets[(k // len(self.shapes)) % len(self.move_targets)]
            while True:
                sizes = rng.choices(range(1, self.p_max + 1), k=n)
                start = rng.choices(range(1, m + 1), k=n)
                if improving_moves(sizes, start, m) == target:
                    break
            specs.append((m, sizes, start))
        return specs

    def build(self, pkg, specs) -> list:
        return [
            MeasureItem(
                tag=f"m{m}n{len(sizes)}",
                instance=pkg.core.IdenticalInstance(m=m, p=sizes),
                schedule=pkg.core.Schedule(start),
            )
            for m, sizes, start in specs
        ]

    def run(self, pkg, item):
        inst, start = item.instance, item.schedule
        return (
            pkg.measures.measure_report(inst, start),
            pkg.measures.ir_min(inst, start),
            pkg.equilibria.enumerate_profitable_deviations(inst, start),
        )

    def check(self, pkg, item, output):
        report, best, deviations = output
        if not (report.exhaustive and best.exhaustive and deviations.complete):
            return "budget", None, None
        inst, start = item.instance, item.schedule

        def after(witness):
            return None if witness is None else witness.after.assignment

        encoded = (
            str(report.ir_min), str(report.ir_max), str(report.dr_max),
            report.deviation_count, after(report.ir_min_witness),
            after(report.ir_max_witness), after(report.dr_max_witness),
        )
        props = input_props(inst.m, inst.p, start.assignment)
        ok = best.value == report.ir_min and len(deviations) == report.deviation_count
        for value, witness, stat in (
            (report.ir_max, report.ir_max_witness, "max_improvement"),
            (report.dr_max, report.dr_max_witness, "max_damage"),
        ):
            if witness is None:
                ok = ok and value == 1
                continue
            try:
                stats = pkg.measures.deviation_stats(inst, start, witness.after)
            except pkg.core.ValidationError:
                ok = False
            else:
                ok = ok and getattr(stats, stat) == value
        return (None if ok else "wrong"), encoded, props


WORKLOADS = {w.name: w for w in (Sweep(), Decide(), Measure())}
