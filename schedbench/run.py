#!/usr/bin/env python3
"""Benchmark of the schedgames package: sweep, decide and measure workloads.

    python3 schedbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

`--workload all` runs the three workloads one after another, each in its
own process so that its peak memory is its own, and prints one table.

Every item's output is checked; a wrong answer, an exhausted node budget
or an exception counts as failed, and any failure makes the exit code 1.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer
metrics.  A traced run spends half its time untraced, to measure the
tracing overhead, and writes its spans to `.bench_out/`.

A run is a closed loop in one thread: the next item starts when the
previous one ends, for `--seconds` seconds and at least MIN_ITEMS items.

Times are reported in reference seconds.  The speed of a shared host
drifts by a fifth over tens of seconds, and that drift would swamp the
differences a change makes.  So every CAL_INTERVAL the run times a fixed
pure-Python kernel that does not touch the package, and scales each item
time by REF_KERNEL_S over the kernel's latest time: the result is the
time the item would take on a CPU where the kernel takes REF_KERNEL_S.
The table prints the raw wall-clock figures next to them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracer import SETUP, Tracer
from workloads import WORKLOADS, item_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("core", "equilibria", "measures", "schedulers", "experiments", "witnesses")

MIN_ITEMS = 100  # so that at least ten latency samples lie beyond p90
SETUP_REPEATS = 5
CAL_INTERVAL = 0.2  # seconds between two timings of the reference kernel
REF_KERNEL_S = 0.002  # the reference kernel's time on the reference CPU
REF_VALUES = (7, 3, 9, 4, 8, 2, 6, 5, 1, 9, 3, 7, 4)
HELD_OUT_SEED = 7919  # kept out of tuning; check claimed gains on it too

# span names whose calls and self time the traced run reports
TIMED_LAYERS = (
    "equilibria.scan_deviations", "equilibria.is_strong",
    "equilibria.enumerate_profitable_deviations", "equilibria.is_nash", "core.load_profile",
    "measures.leaf", "equilibria.leaf", "measures.measure_report", "measures.ir_min", "measures.structural_report",
    "schedulers.ptas", "schedulers.optimal_makespan", "schedulers.lpt", "schedulers.list_schedule",
    "experiments.random_ne", "experiments.bound_sweep",
    "witnesses.reduce_partition", "witnesses.partition_oracle",
)


def reference_kernel() -> int:
    """Count the subsets of REF_VALUES summing below 40 by depth-first
    search: integer work, calls and branches like the package's own."""
    count = 0

    def dfs(t: int, total: int):
        nonlocal count
        if t == len(REF_VALUES):
            count += 1
            return
        dfs(t + 1, total)
        if total + REF_VALUES[t] < 40:
            dfs(t + 1, total + REF_VALUES[t])

    dfs(0, 0)
    return count


def host_speed() -> float:
    """Reference seconds per wall-clock second right now: REF_KERNEL_S over
    the best of three timings of the reference kernel."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return REF_KERNEL_S / best


def load_package() -> SimpleNamespace:
    """Import schedgames from this checkout's source tree, afresh."""
    if not (SRC / "schedgames" / "__init__.py").is_file():
        raise SystemExit(f"schedbench: no package source at {SRC}")
    for name in [n for n in sys.modules if n == "schedgames" or n.startswith("schedgames.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("schedgames")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"schedbench: imported schedgames from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"schedgames.{name}") for name in MODULES}
    )


def set_up(workload, seed: int):
    """Draw the inputs, then import the package and build its input objects
    SETUP_REPEATS times; the last build is the one used.  Returns the
    package, the draws, the items and the (raw, reference) set-up times."""
    specs = workload.draw(seed, workload.pool_size)
    times = []
    for _ in range(SETUP_REPEATS):
        speed = host_speed()
        started = time.perf_counter()
        pkg = load_package()
        items = workload.build(pkg, specs)
        raw = time.perf_counter() - started
        times.append((raw, raw * speed))
    return pkg, specs, items, times


def run_pass(workload, pkg, items, seconds: float, min_items: int, tracer=None):
    """Run items in order, cycling through the pool, for `seconds` and at
    least `min_items` items.  Returns one outcome per item."""
    outcomes = []
    started = time.perf_counter()
    deadline = started + seconds
    speed, next_calibration = host_speed(), started + CAL_INTERVAL
    k = 0
    while k < min_items or time.perf_counter() < deadline:
        if time.perf_counter() >= next_calibration:
            speed, next_calibration = host_speed(), time.perf_counter() + CAL_INTERVAL
        item = items[k % len(items)]
        if tracer is not None:
            tracer.begin_item(k, item.tag)
        output = failure = None
        t0 = time.perf_counter()
        try:
            output = workload.run(pkg, item)
        except pkg.core.BudgetExceededError:
            failure = "budget"
        except Exception:  # a raising item is a failed item, not a crashed run
            failure = "raised"
            traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_item()
        digest = props = None
        if failure is None:
            try:
                failure, encoded, props = workload.check(pkg, item, output)
            except Exception:
                failure = "raised"
                traceback.print_exc(file=sys.stderr)
            else:
                digest = None if encoded is None else item_digest(encoded)
        if k >= len(items) and failure is None and digest != outcomes[k % len(items)].digest:
            failure = "wrong"  # the same input gave another answer on an earlier pass
        outcomes.append(
            SimpleNamespace(
                latency=latency * speed, raw=latency, failure=failure, digest=digest, props=props
            )
        )
        k += 1
    return outcomes


def check_expected(name: str, seed: int, outcomes):
    """Mark as wrong each of the first items whose digest differs from the
    one recorded in expected.json for this seed, if there is a record."""
    recorded = json.loads((BENCH / "expected.json").read_text()).get(name, {}).get(str(seed), "")
    expected = [recorded[k : k + 8] for k in range(0, len(recorded), 8)]
    for outcome, digest in zip(outcomes, expected):
        if outcome.failure is None and outcome.digest != digest:
            outcome.failure = "wrong"


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(outcomes, setup_times) -> dict:
    """Throughput counts item time only, not the benchmark's own checks."""
    rows = {}
    for prefix, field, k in (("", "latency", 1), ("raw.", "raw", 0)):
        latencies_ms = [getattr(o, field) * 1000 for o in outcomes]
        rows[prefix + "items_per_s"] = (1000 * len(outcomes) / sum(latencies_ms), "1/s", len(outcomes))
        rows[prefix + "item_p50_ms"] = (percentile(latencies_ms, 50), "ms", len(outcomes))
        rows[prefix + "item_p90_ms"] = (percentile(latencies_ms, 90), "ms", len(outcomes))
        rows[prefix + "setup_s"] = (statistics.median(t[k] for t in setup_times), "s", len(setup_times))
    rows["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return rows


def input_properties(outcomes) -> dict:
    """Properties of the first MIN_ITEMS inputs, the same on every run of a seed."""
    props = [o.props for o in outcomes[:MIN_ITEMS] if o.props is not None]
    jobs = sum(p.jobs for p in props)
    return {
        "inputs.twin_share": (sum(p.twins for p in props) / jobs if jobs else 0.0, "frac", len(props)),
        "inputs.joint_actions": (sum(p.joint_actions for p in props), "count", len(props)),
    }


def per_layer(tracer: Tracer, traced, untraced) -> dict:
    """Per-layer rows of the traced pass.  The witnesses layers run while
    the inputs are built, every other layer while items run."""
    items = len(traced)

    def phase(name):
        return "setup" if name.startswith("witnesses.") else "items"

    rows = {}
    for name in TIMED_LAYERS:
        rows[f"{name}.calls"] = (tracer.calls[phase(name), name], "count", items)
        rows[f"{name}.self_s"] = (tracer.self_s[phase(name), name], "s", items)
    scans = tracer.calls["items", "equilibria.scan_deviations"]
    leaves = tracer.counts["equilibria.scan_deviations.leaves"]
    om = "schedulers.optimal_makespan"
    om_calls = tracer.calls["items", om]
    common = min(len(untraced), items)
    base = sum(o.latency for o in untraced[:common])
    spent = sum(o.latency for o in traced[:common])
    rows.update(
        {
            "equilibria.scan_deviations.leaves": (leaves, "count", items),
            "equilibria.scan_deviations.leaves_per_call": (leaves / scans if scans else 0.0, "count", scans),
            "equilibria.is_nash.calls_per_item": (
                tracer.calls["items", "equilibria.is_nash"] / items, "count", items
            ),
            "equilibria.budget_exceeded": (tracer.counts["equilibria.budget_exceeded"], "count", scans),
            "measures.deviation_count": (tracer.counts["measures.deviation_count"], "count", items),
            f"{om}.unread_frac": (
                tracer.tagged_calls(om, "random-ne") / om_calls if om_calls else 0.0, "frac", om_calls
            ),
            "trace_overhead_frac": (spent / base - 1, "frac", common),
        }
    )
    return rows


def self_share(rows, prefix: str) -> float:
    """Share of the items' self time spent in layers starting with `prefix`."""
    times = {n: rows[f"{n}.self_s"][0] for n in TIMED_LAYERS if not n.startswith("witnesses.")}
    return sum(t for n, t in times.items() if n.startswith(prefix)) / sum(times.values())


# The layer split each workload was built to show; a traced run checks it.
PREDICTIONS = {
    "sweep": (
        ("schedulers.ptas and schedulers.optimal_makespan do work",
         lambda r: r["schedulers.ptas.self_s"][0] > 0 and r["schedulers.optimal_makespan.self_s"][0] > 0),
        ("some optimal_makespan results go unread (random-ne trials)",
         lambda r: r["schedulers.optimal_makespan.unread_frac"][0] > 0),
    ),
    "decide": (
        ("equilibria.scan_deviations has the largest self time",
         lambda r: self_share(r, "equilibria.scan_deviations") == max(
             self_share(r, n) for n in TIMED_LAYERS if not n.startswith("witnesses."))),
        ("schedulers take under 1% of self time", lambda r: self_share(r, "schedulers.") < 0.01),
    ),
    "measure": (
        ("leaf callbacks take at least 15% of self time",
         lambda r: self_share(r, "measures.leaf") + self_share(r, "equilibria.leaf") >= 0.15),
        ("schedulers make no calls",
         lambda r: sum(r[f"{n}.calls"][0] for n in TIMED_LAYERS if n.startswith("schedulers.")) == 0),
    ),
}


def declared_metrics(key: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[key]]


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Set up, run and check one workload.  Returns (table rows, JSON result).

    A traced run spends half of `seconds` untraced and half traced, both
    from the first item, so that the overhead is measured on equal work.
    """
    workload = WORKLOADS[name]
    pkg, specs, items, setup_times = set_up(workload, seed)
    outcomes = run_pass(workload, pkg, items, seconds / 2 if trace else seconds, MIN_ITEMS)
    check_expected(name, seed, outcomes)
    rows = end_to_end(outcomes, setup_times)
    rows.update(input_properties(outcomes))
    if trace:
        tracer = Tracer(pkg.core.BudgetExceededError)
        tracer.install()
        try:
            tracer.begin_item(SETUP, "setup")
            items = workload.build(pkg, specs)
            tracer.end_item()
            traced = run_pass(workload, pkg, items, seconds / 2, MIN_ITEMS, tracer)
        finally:
            tracer.uninstall()
        check_expected(name, seed, traced)
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl.gz")
        rows.update(per_layer(tracer, traced, outcomes))
        for text, holds in PREDICTIONS[name]:
            print(f"{name:8s} prediction {'holds' if holds(rows) else 'FAILS'}: {text}")
        outcomes = outcomes + traced
    failed = sum(o.failure is not None for o in outcomes)
    rows["failed_frac"] = (failed / len(outcomes), "frac", len(outcomes))
    wanted = declared_metrics("per_layer" if trace else "end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m: {"value": rows[m][0], "unit": rows[m][1]} for m in wanted},
    }
    return rows, result


def print_rows(workload: str, rows: dict):
    for metric, (value, unit, samples) in rows.items():
        print(f"{workload:8s} {metric:52s} {value:>16.6g} {unit:6s} n={samples}")


def run_all(args) -> int:
    """Each workload in its own process; one table and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise SystemExit(f"schedbench: workload {name} printed nothing (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    rows, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_rows(args.workload, rows)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
