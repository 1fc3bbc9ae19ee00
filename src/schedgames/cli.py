"""Command-line front end.

Subcommands: schedule, check, measures, witness, reduce, experiment.
The result payload is JSON on stdout (CSV with --format csv where it
applies); diagnostics go to stderr.  Exit codes: 0 the command succeeded
and every checked property holds, 1 a checked property fails (e.g. the
schedule is not strong, or `witness --search` missed its target), 2
usage error, 3 a search ran out of budget; a `check` that stops while
seeking the smallest witness adds the deviation it already found as
`best`.
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
    DEFAULT_SEARCH_BUDGET,
    BudgetExceededError,
    IdenticalInstance,
    ValidationError,
    _check_budget,
    format_rational,
    parse_rational,
    read_instance,
    read_schedule,
    write_instance,
    write_schedule,
    load_profile,
)
from .equilibria import Deviation, _members, is_nash, is_strong
from .measures import _MEASURES, _paper_limits, deviation_stats, measure_report
from .schedulers import PtasConfig, list_schedule, lpt, ptas
from .experiments import SCHEDULERS, SweepConfig, bound_sweep
from . import witnesses


@dataclass(frozen=True)
class Verdict:
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
    p.add_argument("--out", help="directory for the measures-vs-bounds table and witness files")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("witness", help="generate a benchmark artifact")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--figure", choices=["1", "3", "9", "fn5", "ls"])
    source.add_argument(
        "--search", choices=["ir_max", "dr_max"], help="search LPT schedules for a target"
    )
    p.add_argument("--param", help="parameters, e.g. r=3, x=10,eps=1/10 or target=1.55,m=3")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("reduce", help="Partition reduction artifacts")
    p.add_argument("--set", dest="values", required=True, help="integers, e.g. 3,3,4,4")
    p.add_argument("--variant", required=True, choices=["identical", "unrelated"])
    p.add_argument("--m", type=int, help="machine count for the identical variant (default 3)")
    p.add_argument("--eps", help="perturbation for the unrelated variant")
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("experiment", help="seeded bound sweeps")
    p.add_argument("--preset", choices=["table1", "ptas"])
    p.add_argument("--scheduler", choices=SCHEDULERS)
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


def _parse_span(text: str, flag: str) -> tuple[int, int]:
    """An integer n, read as n..n, or a range lo..hi of integers."""
    lo, dots, hi = text.partition("..")
    try:
        return int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValidationError(f"{flag} takes an integer or a range lo..hi, got {text!r}") from None


def _parse_int(text: str, name: str) -> int:
    """`text` as an integer; bad input names `name`, the flag or
    parameter it was given to."""
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{name} takes an integer, got {text!r}") from None


def _parse_ints(text: str, flag: str) -> list[int]:
    """A comma-separated list of integers; an empty value is bad input,
    not an absent flag."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _parse_params(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise ValidationError(f"parameters look like key=value, got {piece!r}")
        key, value = piece.split("=", 1)
        key = key.strip().lower()
        if key in out:
            raise ValidationError(f"--param names {key} twice")
        out[key] = value.strip()
    return out


def _cmd_schedule(args) -> Verdict:
    if args.alg != "ptas" and args.eps is not None:
        raise ValidationError("--eps applies only to --alg ptas")
    if args.alg != "ls" and args.order is not None:
        raise ValidationError("--order applies only to --alg ls")
    instance = read_instance(args.instance)
    if args.alg == "lpt":
        schedule = lpt(instance)
    elif args.alg == "ls":
        if args.order is None:
            order = list(range(1, instance.n + 1))
        else:
            order = _parse_ints(args.order, "--order")
        schedule = list_schedule(instance, order)
    else:
        if args.eps is None:
            raise ValidationError("--alg ptas needs --eps")
        schedule = ptas(instance, PtasConfig(epsilon=parse_rational(args.eps)))
    if args.out:
        write_schedule(schedule, args.out)
    profile = load_profile(instance, schedule)
    payload = {
        "algorithm": args.alg,
        "assignment": list(schedule.assignment),
        "loads": [_fmt(l) for l in profile.loads],
        "makespan": _fmt(profile.makespan),
    }
    return Verdict(payload=payload, exit_code=0)


def _cmd_check(args) -> Verdict:
    members = None
    if args.coalition is not None:
        members = _parse_ints(args.coalition, "--coalition")
    instance = read_instance(args.instance)
    schedule = read_schedule(args.schedule)
    if members is not None:
        # reject a malformed coalition before any search runs
        _members(members, instance.n)
    want_ne, want_se = args.ne, args.se
    if not want_ne and not want_se and members is None:
        want_ne = want_se = True
    payload: dict = {}
    all_hold = True
    if want_ne:
        result = is_nash(instance, schedule)
        payload["ne"] = {"holds": result.holds}
        if result.witness:
            payload["ne"]["witness"] = result.witness.to_dict()
        all_hold &= result.holds
    if want_se:
        result = is_strong(instance, schedule, node_budget=args.budget)
        payload["se"] = {
            "holds": result.holds,
            "witness": None if result.witness is None else result.witness.to_dict(),
        }
        all_hold &= result.holds
    if members is not None:
        result = is_strong(instance, schedule, node_budget=args.budget, coalition=members)
        payload["coalition"] = {
            "members": members,
            "can_deviate": not result.holds,
            "witness": None if result.witness is None else result.witness.to_dict(),
        }
        all_hold &= result.holds
    return Verdict(payload=payload, exit_code=0 if all_hold else 1)


def _table_rows(instance, schedule, report) -> list[list[str]]:
    """measure, bound, observed max, witness file (filled in by caller).
    The Table-1 limits hold on identical machines only; on unrelated ones
    even `ir_min` of an equilibrium is unbounded (footnote 5)."""
    limits = None
    if isinstance(instance, IdenticalInstance):
        if schedule.assignment == lpt(instance).assignment:
            limits = _paper_limits(instance.m, lpt_schedule=True)
        elif is_nash(instance, schedule).holds:
            limits = _paper_limits(instance.m, lpt_schedule=False)
    rows = [["measure", "bound", "observed", "witness_file"]]
    for measure in _MEASURES:
        if limits is None:
            bound = "-"
        else:
            bound = "unbounded" if limits[measure] is None else limits[measure][0]
        rows.append([measure, bound, _fmt(getattr(report, measure)), ""])
    return rows


def _cmd_measures(args) -> Verdict:
    instance = read_instance(args.instance)
    schedule = read_schedule(args.schedule)
    report = measure_report(instance, schedule, node_budget=args.budget)
    payload = {name: _fmt(getattr(report, name)) for name in _MEASURES}
    payload.update(exhaustive=report.exhaustive, deviations=report.deviation_count)
    for name in _MEASURES:
        witness = getattr(report, f"{name}_witness")
        payload[f"{name}_witness"] = None if witness is None else witness.to_dict()
    rendered = None
    if args.out or args.format == "csv":
        rows = _table_rows(instance, schedule, report)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for row in rows[1:]:
                witness = payload[f"{row[0]}_witness"]
                if witness is not None:
                    path = out / f"witness_{row[0]}.json"
                    _write_json(witness, path)
                    row[3] = str(path)
            (out / "table1.csv").write_text(_render_csv(rows), encoding="utf-8")
            payload["table1"] = str(out / "table1.csv")
        if args.format == "csv":
            rendered = _render_csv(rows)
    exit_code = 0 if report.exhaustive else 3
    return Verdict(payload=payload, exit_code=exit_code, rendered=rendered)


def _write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _render_csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _write_artifact(artifact, out: Path, files: list[str]) -> dict[str, str]:
    """Write the artifact's instance.json, schedule.json and, if it has a
    deviation, deviation.json into `out`, listing each path in `files`;
    returns the deviation's ratios, or nothing without one.  The directory
    is made only here, so that a rejected parameter leaves none behind."""
    out.mkdir(parents=True, exist_ok=True)

    def emit(name, obj, writer):
        writer(obj, out / name)
        files.append(str(out / name))

    # a search that found no deviation at all has no instance
    if artifact.instance is not None:
        emit("instance.json", artifact.instance, write_instance)
        emit("schedule.json", artifact.schedule, write_schedule)
    if artifact.deviation is None:
        return {}
    emit("deviation.json", artifact.deviation.to_dict(), _write_json)
    stats = deviation_stats(artifact.instance, artifact.schedule, artifact.deviation.after)
    return {name: _fmt(getattr(stats, name)) for _, name in _MEASURES.values()}


# each figure's builder and the --param keys it reads, in order, with
# their defaults
_FIGURES = {
    "1": (witnesses.figure1, {}),
    "3": (lambda r, m: witnesses.figure3(r, _parse_int(m, "--param m")), {"r": "3", "m": "3"}),
    "9": (witnesses.figure9, {}),
    "fn5": (witnesses.footnote5, {"eps": "1/10"}),
    "ls": (witnesses.ls_examples, {"x": "10", "eps": "1/10"}),
}


def _cmd_witness(args) -> Verdict:
    params = _parse_params(args.param)
    search = None
    if args.search:
        if "target" not in params or set(params) - {"target", "m"}:
            raise ValidationError("--search takes --param target=T and optionally m=M")
        m = _parse_int(params.get("m", "3"), "--param m")
        search = witnesses.search_extremal_lpt(m, args.search, params["target"])
        artifact = witnesses.FigureArtifact(search.instance, search.schedule, search.deviation)
    else:
        build, defaults = _FIGURES[args.figure]
        unread = sorted(set(params) - set(defaults))
        if unread:
            raise ValidationError(
                f"--figure {args.figure} does not read --param {', '.join(unread)}"
                f" (it reads: {', '.join(defaults) or 'none'})"
            )
        artifact = build(*(params.get(key, value) for key, value in defaults.items()))
    out = Path(args.out)
    payload: dict = {"search": args.search} if args.search else {"figure": args.figure}
    payload["files"] = files = []
    if args.figure == "ls":
        improvement, damage = artifact
        payload["improvement"] = _write_artifact(improvement, out / "improvement", files)
        _write_artifact(damage, out / "damage", files)
    else:
        payload.update(_write_artifact(artifact, out, files))
    if search is None:
        return Verdict(payload=payload, exit_code=0)
    payload["found"] = search.found
    payload["value"] = _fmt(search.value)
    payload["nodes"] = search.budget_charged
    return Verdict(payload=payload, exit_code=0 if search.found else 1)


def _cmd_reduce(args) -> Verdict:
    if args.variant == "identical" and args.eps is not None:
        raise ValidationError("--eps applies only to --variant unrelated")
    if args.variant == "unrelated" and args.m is not None:
        raise ValidationError("--m applies only to --variant identical")
    values = _parse_ints(args.values, "--set")
    if args.variant == "identical":
        artifact = witnesses.reduce_partition_identical(values, m=3 if args.m is None else args.m)
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
    return Verdict(payload=payload, exit_code=0)


def _cmd_experiment(args) -> Verdict:
    if bool(args.preset) == bool(args.scheduler):
        raise ValidationError("pick one of --preset table1|ptas and --scheduler")
    if args.eps is not None and "ptas" not in (args.preset, args.scheduler):
        raise ValidationError("--eps applies only to the ptas scheduler")
    m_range = _parse_span(args.m, "--m")
    n_range = _parse_span(args.n, "--n")
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
    return Verdict(payload=payload, exit_code=0 if not violations else 1, rendered=rendered)


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
        return Verdict(payload={"error": "usage"}, exit_code=2 if code else 0)
    try:
        # a bad budget is bad input even where no search would read it
        if hasattr(args, "budget"):
            _check_budget(args.budget)
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        # ValidationError and JSONDecodeError are ValueErrors too; OSError
        # covers missing, unreadable and directory paths
        print(f"error: {exc}", file=sys.stderr)
        return Verdict(payload={"error": str(exc)}, exit_code=2)
    except BudgetExceededError as exc:
        payload = {
            "error": "budget-exceeded",
            "nodes": exc.nodes,
            "budget": exc.budget,
            "explored_fraction": (
                None if exc.explored_fraction is None else _fmt(exc.explored_fraction)
            ),
        }
        if isinstance(exc.best, Deviation):
            # a deviation found before the stop: the schedule is not stable,
            # though a smaller witness may exist
            payload["best"] = exc.best.to_dict()
        print(f"error: {exc}", file=sys.stderr)
        return Verdict(payload=payload, exit_code=3)


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
