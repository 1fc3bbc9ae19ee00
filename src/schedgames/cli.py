"""Command-line front end.

Subcommands: schedule, check, measures, witness, reduce, experiment.
The result payload is JSON on stdout (CSV with --format csv where it
applies); diagnostics go to stderr.  Exit codes: 0 the command succeeded
and every checked property holds, 1 a checked property fails (e.g. the
schedule is not strong), 2 usage error, 3 a search ran out of budget.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .core import (
    BudgetExceededError,
    IdenticalInstance,
    ValidationError,
    format_rational,
    parse_rational,
    read_instance,
    read_schedule,
    write_instance,
    write_schedule,
    load_profile,
)
from .equilibria import (
    DEFAULT_SEARCH_BUDGET,
    can_coalition_deviate,
    is_nash,
    is_strong,
)
from .measures import (
    LPT_DAMAGE_LIMIT,
    LPT_MAX_IMPROVEMENT_LIMIT_3,
    NE_DAMAGE_LIMIT,
    deviation_stats,
    lpt_min_improvement_limit,
    measure_report,
    ne_min_improvement_limit,
)
from .schedulers import PtasConfig, list_schedule, lpt, ptas
from .experiments import SweepConfig, bound_sweep
from . import witnesses


@dataclass(frozen=True)
class Verdict:
    command: str
    payload: dict
    exit_code: int
    rendered: str | None = None


def _fmt(q) -> str:
    return str(format_rational(q))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedgames",
        description="Scheduling-game toolkit: schedulers, equilibrium checks, "
        "stability measures, witnesses, reductions, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="run a scheduler on an instance")
    p.add_argument("--alg", required=True, choices=["lpt", "ls", "ptas"])
    p.add_argument("--eps", help="approximation parameter for --alg ptas")
    p.add_argument("--refine", action="store_true", help="ptas re-run post-pass")
    p.add_argument("--order", help="comma-separated job order for --alg ls")
    p.add_argument("--in", dest="instance", required=True)
    p.add_argument("--out", help="write the schedule JSON here")

    p = sub.add_parser("check", help="equilibrium checks")
    p.add_argument("--ne", action="store_true")
    p.add_argument("--se", action="store_true")
    p.add_argument("--coalition", help="job indices, e.g. 1,2,5")
    p.add_argument("--in", dest="instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)

    p = sub.add_parser("measures", help="stability measures of a schedule")
    p.add_argument("--in", dest="instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    p.add_argument("--table1", action="store_true", help="emit a measures-vs-bounds table")
    p.add_argument("--out", help="directory for the table and witness files")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("witness", help="generate a benchmark artifact")
    p.add_argument("--figure", required=True, choices=["1", "3", "9", "fn5", "ls"])
    p.add_argument("--param", help="parameters, e.g. r=3 or x=10,eps=1/10")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("reduce", help="Partition reduction artifacts")
    p.add_argument("--set", dest="values", required=True, help="integers, e.g. 3,3,4,4")
    p.add_argument("--variant", required=True, choices=["identical", "unrelated"])
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--eps", help="perturbation for the unrelated variant")
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("experiment", help="seeded bound sweeps")
    p.add_argument("--preset", choices=["table1", "ptas"])
    p.add_argument("--scheduler", choices=["lpt", "ls", "ptas", "random-ne"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--m", required=True, help="machine count or range, e.g. 3 or 4..5")
    p.add_argument("--n", required=True, help="job count or range, e.g. 4..8")
    p.add_argument("--p-max", type=int, default=20)
    p.add_argument("--eps", help="ptas approximation parameter")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    p.add_argument("--out", help="write the per-trial CSV here")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def _parse_span(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _parse_params(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise ValidationError(f"parameters look like key=value, got {piece!r}")
        key, value = piece.split("=", 1)
        out[key.strip().lower()] = value.strip()
    return out


def _cmd_schedule(args) -> Verdict:
    if args.alg != "ptas" and (args.eps is not None or args.refine):
        raise ValidationError("--eps and --refine apply only to --alg ptas")
    if args.alg != "ls" and args.order is not None:
        raise ValidationError("--order applies only to --alg ls")
    instance = read_instance(args.instance)
    if args.alg == "lpt":
        schedule = lpt(instance)
    elif args.alg == "ls":
        if args.order:
            order = [int(x) for x in args.order.split(",")]
        else:
            order = list(range(1, instance.n + 1))
        schedule = list_schedule(instance, order)
    else:
        if args.eps is None:
            raise ValidationError("--alg ptas needs --eps")
        schedule = ptas(
            instance, PtasConfig(epsilon=parse_rational(args.eps), refine=args.refine)
        )
    if args.out:
        write_schedule(schedule, args.out)
    profile = load_profile(instance, schedule)
    payload = {
        "algorithm": args.alg,
        "assignment": list(schedule.assignment),
        "loads": [_fmt(l) for l in profile.loads],
        "makespan": _fmt(profile.makespan),
    }
    return Verdict(command="schedule", payload=payload, exit_code=0)


def _cmd_check(args) -> Verdict:
    instance = read_instance(args.instance)
    schedule = read_schedule(args.schedule)
    want_ne, want_se = args.ne, args.se
    if not want_ne and not want_se and not args.coalition:
        want_ne = want_se = True
    payload: dict = {}
    all_hold = True
    if want_ne:
        result = is_nash(instance, schedule)
        payload["ne"] = {"holds": result.holds}
        if result.witness:
            payload["ne"]["witness"] = {"job": result.witness[0], "machine": result.witness[1]}
        all_hold &= result.holds
    if want_se:
        result = is_strong(instance, schedule, node_budget=args.budget)
        payload["se"] = {
            "holds": result.holds,
            "witness": None if result.witness is None else result.witness.to_dict(),
        }
        all_hold &= result.holds
    if args.coalition:
        members = [int(x) for x in args.coalition.split(",")]
        if len(set(members)) != len(members):
            raise ValidationError(f"--coalition names a job twice: {args.coalition}")
        deviation = can_coalition_deviate(instance, schedule, members, node_budget=args.budget)
        payload["coalition"] = {
            "members": members,
            "can_deviate": deviation is not None,
            "witness": None if deviation is None else deviation.to_dict(),
        }
        all_hold &= deviation is None
    return Verdict(command="check", payload=payload, exit_code=0 if all_hold else 1)


def _table_rows(instance, schedule, report) -> list[list[str]]:
    """measure, bound, observed max, witness file (filled in by caller)."""
    m = instance.m
    if isinstance(instance, IdenticalInstance) and schedule.assignment == lpt(instance).assignment:
        if m == 3:
            ir_min_bound = "1/2 + sqrt(6)/4"
        else:
            ir_min_bound = str(lpt_min_improvement_limit(m))
        ir_max_bound = str(LPT_MAX_IMPROVEMENT_LIMIT_3) if m == 3 else "unbounded"
        dr_bound = f"< {LPT_DAMAGE_LIMIT}"
    elif is_nash(instance, schedule).holds:
        ir_min_bound = str(ne_min_improvement_limit(m))
        ir_max_bound = "unbounded"
        dr_bound = f"< {NE_DAMAGE_LIMIT}"
    else:
        ir_min_bound = ir_max_bound = dr_bound = "-"
    return [
        ["measure", "bound", "observed", "witness_file"],
        ["ir_min", ir_min_bound, _fmt(report.ir_min), ""],
        ["ir_max", ir_max_bound, _fmt(report.ir_max), ""],
        ["dr_max", dr_bound, _fmt(report.dr_max), ""],
    ]


def _cmd_measures(args) -> Verdict:
    instance = read_instance(args.instance)
    schedule = read_schedule(args.schedule)
    report = measure_report(instance, schedule, node_budget=args.budget)
    by_measure = {
        "ir_min": report.ir_min_witness,
        "ir_max": report.ir_max_witness,
        "dr_max": report.dr_max_witness,
    }
    payload = {
        "ir_min": _fmt(report.ir_min),
        "ir_max": _fmt(report.ir_max),
        "dr_max": _fmt(report.dr_max),
        "exhaustive": report.exhaustive,
        "deviations": report.deviation_count,
    }
    for name, witness in by_measure.items():
        payload[f"{name}_witness"] = None if witness is None else witness.to_dict()
    rendered = None
    if args.table1:
        rows = _table_rows(instance, schedule, report)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for row in rows[1:]:
                witness = by_measure[row[0]]
                if witness is not None:
                    path = out / f"witness_{row[0]}.json"
                    _write_json(witness.to_dict(), path)
                    row[3] = str(path)
            (out / "table1.csv").write_text(_render_csv(rows), encoding="utf-8")
            payload["table1"] = str(out / "table1.csv")
        if args.format == "csv":
            rendered = _render_csv(rows)
    exit_code = 0 if report.exhaustive else 3
    return Verdict(command="measures", payload=payload, exit_code=exit_code, rendered=rendered)


def _write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _render_csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _cmd_witness(args) -> Verdict:
    params = _parse_params(args.param)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload: dict = {"figure": args.figure, "files": []}

    def emit(name, obj, writer):
        path = out / name
        writer(obj, path)
        payload["files"].append(str(path))

    if args.figure == "ls":
        examples = witnesses.ls_examples(
            params.get("x", "10"), params.get("eps", "1/10")
        )
        emit("improvement_instance.json", examples.improvement.instance, write_instance)
        emit("improvement_schedule.json", examples.improvement.schedule, write_schedule)
        emit("damage_instance.json", examples.damage.instance, write_instance)
        emit("damage_schedule.json", examples.damage.schedule, write_schedule)
        payload["improvement_move"] = {
            "job": examples.improvement.move[0],
            "machine": examples.improvement.move[1],
            "ratio": _fmt(examples.improvement.ratio),
        }
        return Verdict(command="witness", payload=payload, exit_code=0)

    if args.figure == "1":
        artifact = witnesses.figure1()
    elif args.figure == "3":
        artifact = witnesses.figure3(params.get("r", "3"), int(params.get("m", "3")))
    elif args.figure == "9":
        artifact = witnesses.figure9()
    else:
        artifact = witnesses.footnote5(params.get("eps", "1/10"))
    emit("instance.json", artifact.instance, write_instance)
    emit("schedule.json", artifact.schedule, write_schedule)
    if artifact.deviation is not None:
        emit("deviation.json", artifact.deviation.to_dict(), _write_json)
        stats = deviation_stats(
            artifact.instance, artifact.schedule, artifact.deviation.after
        )
        payload["min_improvement"] = _fmt(stats.min_improvement)
        payload["max_improvement"] = _fmt(stats.max_improvement)
        payload["max_damage"] = _fmt(stats.max_damage)
    return Verdict(command="witness", payload=payload, exit_code=0)


def _cmd_reduce(args) -> Verdict:
    values = [int(x) for x in args.values.split(",")]
    if args.variant == "identical":
        artifact = witnesses.reduce_partition_identical(values, m=args.m)
    else:
        eps = parse_rational(args.eps) if args.eps else Fraction(1, len(values))
        artifact = witnesses.reduce_partition_unrelated(values, eps)
    payload = {
        "variant": args.variant,
        "partition_set": list(artifact.partition_set),
        "expected_se": artifact.expected_se,
        "partition_witness": (
            None if artifact.partition_witness is None else list(artifact.partition_witness)
        ),
        "jobs": artifact.instance.n,
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_instance(artifact.instance, out / "instance.json")
        write_schedule(artifact.start_schedule, out / "schedule.json")
        _write_json(payload, out / "artifact.json")
        payload["files"] = [
            str(out / "instance.json"),
            str(out / "schedule.json"),
            str(out / "artifact.json"),
        ]
    return Verdict(command="reduce", payload=payload, exit_code=0)


def _cmd_experiment(args) -> Verdict:
    if bool(args.preset) == bool(args.scheduler):
        raise ValidationError("pick one of --preset table1|ptas and --scheduler")
    if args.eps is not None and "ptas" not in (args.preset, args.scheduler):
        raise ValidationError("--eps applies only to the ptas scheduler")
    m_range = _parse_span(args.m)
    n_range = _parse_span(args.n)
    eps = parse_rational(args.eps) if args.eps else None
    if args.preset == "table1":
        schedulers = ["lpt", "random-ne"]
    elif args.preset == "ptas":
        schedulers = ["ptas"]
        if eps is None:
            eps = Fraction(1)
    else:
        schedulers = [args.scheduler]
        if args.scheduler == "ptas" and eps is None:
            raise ValidationError("--scheduler ptas needs --eps")
    reports = []
    for scheduler in schedulers:
        config = SweepConfig(
            seed=args.seed,
            trials=args.trials,
            m_range=m_range,
            n_range=n_range,
            p_max=args.p_max,
            scheduler=scheduler,
            eps=eps,
            budget=args.budget,
        )
        reports.append(bound_sweep(config))
    rows = reports[0].csv_rows()
    for extra in reports[1:]:
        rows.extend(extra.csv_rows()[1:])
    if args.out:
        Path(args.out).write_text(_render_csv(rows), encoding="utf-8")
    violations = [v.to_dict() for r in reports for v in r.violations]
    payload = {
        "schedulers": schedulers,
        "trials": sum(len(r.records) for r in reports),
        "inconclusive": sum(r.inconclusive for r in reports),
        "violations": violations,
        "elapsed_seconds": sum(r.elapsed for r in reports),
    }
    if args.out:
        payload["csv"] = args.out
    rendered = _render_csv(rows) if args.format == "csv" else None
    return Verdict(
        command="experiment",
        payload=payload,
        exit_code=0 if not violations else 1,
        rendered=rendered,
    )


_HANDLERS = {
    "schedule": _cmd_schedule,
    "check": _cmd_check,
    "measures": _cmd_measures,
    "witness": _cmd_witness,
    "reduce": _cmd_reduce,
    "experiment": _cmd_experiment,
}


def run(argv) -> Verdict:
    """Parse and dispatch; never raises on bad input."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return Verdict(
            command="usage", payload={"error": "usage"}, exit_code=2 if code else 0
        )
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        # ValidationError and JSONDecodeError are ValueErrors too; OSError
        # covers missing, unreadable and directory paths
        print(f"error: {exc}", file=sys.stderr)
        return Verdict(command=args.command, payload={"error": str(exc)}, exit_code=2)
    except BudgetExceededError as exc:
        payload = {
            "error": "budget-exceeded",
            "nodes": exc.nodes,
            "budget": exc.budget,
            "explored_fraction": (
                None if exc.explored_fraction is None else _fmt(exc.explored_fraction)
            ),
        }
        print(f"error: {exc}", file=sys.stderr)
        return Verdict(command=args.command, payload=payload, exit_code=3)


def main() -> None:
    verdict = run(sys.argv[1:])
    try:
        if verdict.rendered is not None:
            sys.stdout.write(verdict.rendered)
        else:
            print(json.dumps(verdict.payload, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; send the rest of the output, and the
        # interpreter's final flush, to devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(verdict.exit_code)


if __name__ == "__main__":
    main()
