import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fractions import Fraction

from schedgames import experiments, measures
from schedgames.cli import _build_parser, run
from schedgames.core import (
    parse_rational,
    read_instance,
    read_schedule,
    schedule_from_dict,
    write_instance,
    write_schedule,
)
from schedgames.equilibria import profitable_deviation
from schedgames.experiments import SweepConfig, bound_sweep, replay_violation
from schedgames.measures import deviation_stats
from schedgames.witnesses import figure1, ls_examples


@pytest.fixture()
def fig1_files(tmp_path):
    art = figure1()
    ipath = tmp_path / "instance.json"
    spath = tmp_path / "schedule.json"
    write_instance(art.instance, ipath)
    write_schedule(art.schedule, spath)
    return str(ipath), str(spath)


def test_check_se_fails_with_witness(fig1_files):
    instance, schedule = fig1_files
    verdict = run(["check", "--se", "--in", instance, "--schedule", schedule])
    assert verdict.exit_code == 1
    assert verdict.payload["se"]["holds"] is False
    assert verdict.payload["se"]["witness"]["assignment"] == [2, 3, 2, 1, 3, 1]
    assert verdict.payload["se"]["witness"]["migrants"] == [1, 2, 4, 6]


def test_check_ne_holds(fig1_files):
    instance, schedule = fig1_files
    verdict = run(["check", "--ne", "--in", instance, "--schedule", schedule])
    assert verdict.exit_code == 0
    assert verdict.payload["ne"]["holds"] is True


def test_check_defaults_to_both(fig1_files):
    instance, schedule = fig1_files
    verdict = run(["check", "--in", instance, "--schedule", schedule])
    assert set(verdict.payload) == {"ne", "se"}
    assert verdict.exit_code == 1


def test_check_coalition(fig1_files):
    instance, schedule = fig1_files
    verdict = run(
        ["check", "--coalition", "1,2,4,6", "--in", instance, "--schedule", schedule]
    )
    assert verdict.exit_code == 1
    assert verdict.payload["coalition"]["can_deviate"] is True
    verdict = run(["check", "--coalition", "3,5", "--in", instance, "--schedule", schedule])
    assert verdict.exit_code == 0
    assert verdict.payload["coalition"]["can_deviate"] is False


def test_check_coalition_rejects_duplicate_members(fig1_files):
    instance, schedule = fig1_files
    verdict = run(["check", "--coalition", "1,1,2", "--in", instance, "--schedule", schedule])
    assert verdict.exit_code == 2
    assert "twice" in verdict.payload["error"]
    # a malformed coalition is bad input even when --se would stop on its
    # budget first: it is rejected before any search runs
    for coalition, words in (("1,1,2", "twice"), ("99", "1..6")):
        args = ["check", "--se", "--budget", "1", "--coalition", coalition]
        verdict = run([*args, "--in", instance, "--schedule", schedule])
        assert verdict.exit_code == 2
        assert words in verdict.payload["error"]


def test_check_rejects_an_empty_coalition(fig1_files):
    # an empty value is bad input, not an absent flag that runs --ne and --se
    instance, schedule = fig1_files
    verdict = run(["check", "--coalition", "", "--in", instance, "--schedule", schedule])
    assert verdict.exit_code == 2
    assert "--coalition" in verdict.payload["error"]


def test_schedule_rejects_an_empty_order(fig1_files):
    # an empty value is bad input, not an absent flag that keeps arrival order
    instance, _ = fig1_files
    verdict = run(["schedule", "--alg", "ls", "--order", "", "--in", instance])
    assert verdict.exit_code == 2
    assert "--order" in verdict.payload["error"]


SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("flag, code", [("--ne", 0), ("--se", 1)])
def test_closed_stdout_exits_with_verdict_code(fig1_files, flag, code):
    instance, schedule = fig1_files
    proc = subprocess.Popen(
        [sys.executable, "-m", "schedgames", "check", flag, "--in", instance, "--schedule", schedule],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    proc.stdout.close()  # the reader leaves before the payload is written
    _, err = proc.communicate(timeout=60)
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
    assert proc.returncode == code


def test_check_budget_exhaustion_exit_code(fig1_files):
    instance, schedule = fig1_files
    verdict = run(
        ["check", "--se", "--budget", "2", "--in", instance, "--schedule", schedule]
    )
    assert verdict.exit_code == 3
    assert verdict.payload["error"] == "budget-exceeded"
    assert "best" not in verdict.payload
    # the scan by size finds a deviation within 50 nodes and the scan by
    # index for the smallest one stops: still exit 3, with that deviation
    verdict = run(
        ["check", "--se", "--budget", "50", "--in", instance, "--schedule", schedule]
    )
    assert verdict.exit_code == 3 and verdict.payload["nodes"] == 51
    best = verdict.payload["best"]
    art = figure1()
    after = schedule_from_dict(best)
    assert profitable_deviation(art.instance, art.schedule, after).to_dict() == best


def test_schedule_round_trips_into_check_and_measures(tmp_path, fig1_files):
    instance, _ = fig1_files
    out = str(tmp_path / "lpt.json")
    verdict = run(["schedule", "--alg", "lpt", "--in", instance, "--out", out])
    assert verdict.exit_code == 0
    assert verdict.payload["makespan"] == "7"
    check = run(["check", "--ne", "--se", "--in", instance, "--schedule", out])
    assert check.exit_code == 0  # greedy sorted output here is strong
    measures = run(["measures", "--in", instance, "--schedule", out])
    assert measures.exit_code == 0
    assert measures.payload["ir_min"] == "1"


def test_schedule_is_deterministic(fig1_files, tmp_path):
    instance, _ = fig1_files
    a = run(["schedule", "--alg", "lpt", "--in", instance])
    b = run(["schedule", "--alg", "lpt", "--in", instance])
    assert a.payload == b.payload


def test_schedule_ls_with_order(fig1_files):
    instance, _ = fig1_files
    verdict = run(["schedule", "--alg", "ls", "--order", "6,5,4,3,2,1", "--in", instance])
    assert verdict.exit_code == 0
    assert len(verdict.payload["assignment"]) == 6


def test_schedule_ptas(fig1_files):
    instance, _ = fig1_files
    verdict = run(["schedule", "--alg", "ptas", "--eps", "1/2", "--in", instance])
    assert verdict.exit_code == 0
    missing = run(["schedule", "--alg", "ptas", "--in", instance])
    assert missing.exit_code == 2


def test_measures_on_benchmark(fig1_files):
    instance, schedule = fig1_files
    verdict = run(["measures", "--in", instance, "--schedule", schedule])
    assert verdict.exit_code == 0
    assert verdict.payload["ir_min"] == "5/4"
    assert verdict.payload["ir_max"] == "5/4"
    assert verdict.payload["dr_max"] == "8/5"
    assert verdict.payload["exhaustive"] is True


def test_measures_table(fig1_files, tmp_path):
    instance, schedule = fig1_files
    out = str(tmp_path / "table")
    verdict = run(["measures", "--out", out, "--in", instance, "--schedule", schedule])
    assert verdict.exit_code == 0
    table = (tmp_path / "table" / "table1.csv").read_text()
    assert table.splitlines()[0] == "measure,bound,observed,witness_file"
    assert "ir_min,5/4,5/4" in table
    assert (tmp_path / "table" / "witness_ir_min.json").exists()


def test_measures_table_has_no_limits_on_unrelated_machines(tmp_path):
    # footnote 5: an equilibrium on unrelated machines with ir_min 1/eps;
    # Table 1's limits are for identical machines, so no row claims one
    out = tmp_path / "w5"
    assert run(["witness", "--figure", "fn5", "--param", "eps=1/10", "--out", str(out)]).exit_code == 0
    instance, schedule = str(out / "instance.json"), str(out / "schedule.json")
    verdict = run(["measures", "--format", "csv", "--in", instance, "--schedule", schedule])
    assert verdict.exit_code == 0
    assert verdict.rendered.splitlines() == [
        "measure,bound,observed,witness_file",
        "ir_min,-,10,",
        "ir_max,-,10,",
        "dr_max,-,1,",
    ]


def test_usage_errors_exit_2(fig1_files):
    instance, schedule = fig1_files
    assert run(["frobnicate"]).exit_code == 2
    assert run(["check", "--no-such-flag", "--in", instance, "--schedule", schedule]).exit_code == 2
    assert run(["schedule", "--alg", "ptas", "--eps", "1/2", "--refine", "--in", instance]).exit_code == 2
    assert run(["schedule", "--alg", "lpt", "--in", "/nonexistent.json"]).exit_code == 2
    assert run(["check", "--coalition", "1,x", "--in", instance, "--schedule", schedule]).exit_code == 2
    assert run(["witness", "--figure", "3", "--param", "m=x", "--out", "/tmp/wbad"]).exit_code == 2


@pytest.mark.parametrize(
    "data",
    [{"machines": 2, "jobs": "53"}, {"machines": 2, "matrix": ["12", "34"]}],
)
def test_string_instance_fields_exit_2(tmp_path, data):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    verdict = run(["schedule", "--alg", "lpt", "--in", str(path)])
    assert verdict.exit_code == 2
    assert "must be a list" in verdict.payload["error"]


def test_instance_file_with_both_jobs_and_matrix_exits_2(tmp_path, fig1_files):
    _, schedule = fig1_files
    path = tmp_path / "both.json"
    path.write_text(json.dumps({"machines": 3, "jobs": [1] * 6, "matrix": [[1] * 6] * 3}))
    verdict = run(["check", "--in", str(path), "--schedule", schedule])
    assert verdict.exit_code == 2
    assert "both 'jobs' and 'matrix'" in verdict.payload["error"]


def test_directory_path_exits_2_with_json_error(tmp_path, fig1_files):
    _, schedule = fig1_files
    verdict = run(["check", "--ne", "--in", str(tmp_path), "--schedule", schedule])
    assert verdict.exit_code == 2
    assert "error" in verdict.payload
    json.dumps(verdict.payload)


def test_witness_figures(tmp_path):
    out = str(tmp_path / "w1")
    verdict = run(["witness", "--figure", "1", "--out", out])
    assert verdict.exit_code == 0
    assert verdict.payload["min_improvement"] == "5/4"
    instance = read_instance(tmp_path / "w1" / "instance.json")
    assert instance.n == 6
    deviation = json.loads((tmp_path / "w1" / "deviation.json").read_text())
    assert deviation["migrants"] == [1, 2, 4, 6]

    verdict = run(["witness", "--figure", "3", "--param", "r=2,m=4", "--out", str(tmp_path / "w3")])
    assert verdict.exit_code == 0
    assert verdict.payload["max_improvement"] == "2"

    verdict = run(["witness", "--figure", "9", "--out", str(tmp_path / "w9")])
    assert verdict.exit_code == 0

    verdict = run(["witness", "--figure", "fn5", "--param", "eps=1/10", "--out", str(tmp_path / "w5")])
    assert verdict.exit_code == 0
    assert verdict.payload["min_improvement"] == "10"

    verdict = run(["witness", "--figure", "ls", "--param", "x=10", "--out", str(tmp_path / "wls")])
    assert verdict.exit_code == 0
    assert verdict.payload["improvement"]["min_improvement"] == "11/2"
    deviation = json.loads((tmp_path / "wls" / "improvement" / "deviation.json").read_text())
    assert (deviation["migrants"], deviation["assignment"][0]) == ([1], 2)


def _reads_back(instance, schedule, record) -> bool:
    """A witness record names its own deviation: its assignment, read back
    through `schedule_from_dict`, certifies to the same dict."""
    after = schedule_from_dict(record)
    deviation = profitable_deviation(instance, schedule, after, record["coalition"])
    return deviation.to_dict() == record


@pytest.mark.parametrize(
    "flags, part",
    [
        (["--figure", "1"], ""),
        (["--figure", "3", "--param", "r=2,m=4"], ""),
        (["--figure", "9"], ""),
        (["--figure", "fn5"], ""),
        (["--figure", "ls"], "improvement"),
        (["--search", "ir_max", "--param", "target=1.55"], ""),
    ],
    ids=["figure-1", "figure-3", "figure-9", "fn5", "ls-improvement", "search-ir_max"],
)
def test_written_witness_reads_back_as_its_deviation(tmp_path, flags, part):
    out = tmp_path / "w"
    assert run(["witness", *flags, "--out", str(out)]).exit_code == 0
    instance = read_instance(out / part / "instance.json")
    schedule = read_schedule(out / part / "schedule.json")
    record = json.loads((out / part / "deviation.json").read_text())
    assert _reads_back(instance, schedule, record)


def test_ls_witness_writes_both_parts_as_artifacts(tmp_path):
    out = tmp_path / "ls"
    assert run(["witness", "--figure", "ls", "--out", str(out)]).exit_code == 0
    for part, artifact in zip(("improvement", "damage"), ls_examples(10, Fraction(1, 10))):
        assert read_instance(out / part / "instance.json") == artifact.instance
        assert read_schedule(out / part / "schedule.json") == artifact.schedule
    # the damage example is its schedule alone
    assert sorted(p.name for p in (out / "damage").iterdir()) == ["instance.json", "schedule.json"]


def test_check_ne_witness_reads_back_as_its_deviation(tmp_path, fig1_files):
    instance, _ = fig1_files
    stacked = tmp_path / "stacked.json"
    write_schedule(schedule_from_dict({"assignment": [3, 3, 1, 2, 3, 3]}), stacked)
    verdict = run(["check", "--ne", "--in", instance, "--schedule", str(stacked)])
    assert verdict.exit_code == 1
    record = verdict.payload["ne"]["witness"]
    assert record["migrants"] == record["coalition"] and len(record["migrants"]) == 1
    assert _reads_back(read_instance(instance), read_schedule(stacked), record)


def test_witness_search_writes_verified_witnesses(tmp_path):
    for measure, target in (("ir_max", "1.55"), ("dr_max", "1.40")):
        out = tmp_path / measure
        verdict = run(
            ["witness", "--search", measure, "--param", f"target={target}", "--out", str(out)]
        )
        assert verdict.exit_code == 0
        assert verdict.payload["found"] is True and verdict.payload["nodes"] > 0
        instance = read_instance(out / "instance.json")
        schedule = read_schedule(out / "schedule.json")
        record = json.loads((out / "deviation.json").read_text())
        deviation = profitable_deviation(
            instance, schedule, schedule_from_dict(record), record["coalition"]
        )
        stats = deviation_stats(instance, schedule, deviation.after)
        reached = stats.max_improvement if measure == "ir_max" else stats.max_damage
        assert reached == parse_rational(verdict.payload["value"]) >= parse_rational(target)


def test_witness_search_exits_1_below_its_target(tmp_path):
    verdict = run(["witness", "--search", "dr_max", "--param", "target=2", "--out", str(tmp_path)])
    assert verdict.exit_code == 1
    assert verdict.payload["found"] is False
    assert parse_rational(verdict.payload["value"]) < Fraction(3, 2)


@pytest.mark.parametrize(
    "flags",
    [
        ["--search", "ir_max", "--figure", "1", "--param", "target=1.5"],
        ["--search", "ir_max"],
        ["--search", "ir_max", "--param", "target=1.5,r=3"],
        ["--search", "ir_max", "--param", "target=1.5,m=2"],
    ],
    ids=["with-figure", "no-target", "unknown-param", "two-machines"],
)
def test_witness_search_rejects_bad_usage(tmp_path, flags):
    assert run(["witness", *flags, "--out", str(tmp_path)]).exit_code == 2


@pytest.mark.parametrize(
    "figure, param",
    [
        ("1", "r=3,bogus=1"),
        ("3", "r=2,eps=1/10"),
        ("9", "m=4"),
        ("fn5", "eps=1/10,x=3"),
        ("ls", "x=10,r=3"),
    ],
    ids=["figure-1", "figure-3", "figure-9", "fn5", "ls"],
)
def test_witness_figure_rejects_parameters_it_does_not_read(tmp_path, figure, param):
    out = tmp_path / "w"
    verdict = run(["witness", "--figure", figure, "--param", param, "--out", str(out)])
    assert verdict.exit_code == 2
    assert "does not read" in verdict.payload["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--m", "x", "--n", "4"], "--m"),
        (["--m", "3", "--n", "3.."], "--n"),
        (["--m", "3..y", "--n", "4"], "--m"),
    ],
    ids=["m-not-an-int", "n-open-range", "m-range-end"],
)
def test_experiment_integer_flags_name_the_flag(flags, name):
    verdict = run(["experiment", "--scheduler", "lpt", "--seed", "1", "--trials", "1", *flags])
    assert verdict.exit_code == 2
    assert verdict.payload["error"].startswith(f"{name} takes an integer")


@pytest.mark.parametrize(
    "flags",
    [
        ["--figure", "3", "--param", "m=x"],
        ["--search", "ir_max", "--param", "target=1.55,m=x"],
    ],
    ids=["figure-3", "search"],
)
def test_witness_integer_parameter_names_its_key(tmp_path, flags):
    verdict = run(["witness", *flags, "--out", str(tmp_path / "w")])
    assert verdict.exit_code == 2
    assert verdict.payload["error"] == "--param m takes an integer, got 'x'"


@pytest.mark.parametrize(
    "flags",
    [
        ["--figure", "3", "--param", "r=3,r=5"],
        ["--search", "ir_max", "--param", "target=1.55,target=9"],
    ],
    ids=["figure-3", "search"],
)
def test_witness_rejects_a_repeated_parameter(tmp_path, flags):
    # a repeated key is bad input, not the last value silently winning
    out = tmp_path / "w"
    verdict = run(["witness", *flags, "--out", str(out)])
    assert verdict.exit_code == 2
    key = flags[-1].partition("=")[0]
    assert verdict.payload["error"] == f"--param names {key} twice"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--figure", "3", "--param", "r=1"],
        ["--figure", "3", "--param", "m=x"],
        ["--search", "ir_max", "--param", "target=abc"],
        ["--search", "ir_max", "--param", "target=1.5,m=2"],
    ],
    ids=["ratio-one", "m-not-an-int", "bad-target", "two-machines"],
)
def test_failed_witness_leaves_no_output_directory(tmp_path, flags):
    out = tmp_path / "w"
    verdict = run(["witness", *flags, "--out", str(out)])
    assert verdict.exit_code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "data, field",
    [
        ([3, [1, 2]], "'machines'"),
        ({"jobs": [1, 2]}, "'machines'"),
        ({"machines": "3", "jobs": [1, 2]}, "'machines' must be an integer"),
        ({"machines": 3, "matrix": [[1, 2], [3, 4]]}, "matrix rows"),
    ],
    ids=["not-an-object", "no-machines", "machines-a-string", "matrix-row-count"],
)
def test_malformed_instance_file_exits_2_naming_the_field(tmp_path, data, field):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    verdict = run(["schedule", "--alg", "lpt", "--in", str(path)])
    assert verdict.exit_code == 2
    assert field in verdict.payload["error"]


@pytest.mark.parametrize(
    "data", [[1, 1, 2, 2, 3, 3], {"assignment": "112233"}], ids=["not-an-object", "string"]
)
def test_malformed_schedule_file_exits_2_naming_the_field(tmp_path, fig1_files, data):
    instance, _ = fig1_files
    path = tmp_path / "bad-schedule.json"
    path.write_text(json.dumps(data))
    verdict = run(["check", "--ne", "--in", instance, "--schedule", str(path)])
    assert verdict.exit_code == 2
    assert "'assignment'" in verdict.payload["error"]


def test_check_over_the_scan_job_limit_exits_2(tmp_path):
    # the scan recurses once per job; 1,200 jobs used to overflow the stack
    ipath, spath = tmp_path / "instance.json", tmp_path / "schedule.json"
    ipath.write_text(json.dumps({"machines": 2, "jobs": [1] * 1200}))
    spath.write_text(json.dumps({"assignment": [1] * 600 + [2] * 600}))
    verdict = run(
        ["check", "--se", "--budget", "100000", "--in", str(ipath), "--schedule", str(spath)]
    )
    assert verdict.exit_code == 2
    assert "at most 500 jobs" in verdict.payload["error"]


def test_ptas_over_the_search_job_limit_exits_2(tmp_path):
    # eps = 1/1000 puts all 1,200 jobs in the lex-min prefix, whose search
    # recurses once per job; it used to overflow the stack and exit 1
    ipath = tmp_path / "instance.json"
    ipath.write_text(json.dumps({"machines": 2, "jobs": [1] * 1200}))
    verdict = run(["schedule", "--alg", "ptas", "--eps", "1/1000", "--in", str(ipath)])
    assert verdict.exit_code == 2
    assert "at most 500 jobs" in verdict.payload["error"]


def test_reduce_identical(tmp_path):
    out = str(tmp_path / "red")
    verdict = run(["reduce", "--set", "3,3,4,4", "--variant", "identical", "--out", out])
    assert verdict.exit_code == 0
    assert verdict.payload["expected_se"] is False
    assert verdict.payload["partition_witness"] == [3, 4]
    schedule = read_schedule(tmp_path / "red" / "schedule.json")
    assert schedule.assignment == (1, 1, 1, 1, 2, 3, 2, 3)
    check = run(
        [
            "check",
            "--se",
            "--in", str(tmp_path / "red" / "instance.json"),
            "--schedule", str(tmp_path / "red" / "schedule.json"),
        ]
    )
    assert check.exit_code == 1  # split exists, so not strong


def test_reduce_unrelated_default_eps():
    verdict = run(["reduce", "--set", "3,3,3,5", "--variant", "unrelated"])
    assert verdict.exit_code == 0
    assert verdict.payload["expected_se"] is True


def test_reduce_rejects_odd_total():
    verdict = run(["reduce", "--set", "3,4", "--variant", "identical"])
    assert verdict.exit_code == 2


@pytest.mark.parametrize(
    "variant, flag",
    [("identical", ["--eps", "1/2"]), ("unrelated", ["--m", "5"])],
    ids=["identical-eps", "unrelated-m"],
)
def test_reduce_rejects_flags_of_the_other_variant(tmp_path, variant, flag):
    out = tmp_path / "red"
    verdict = run(["reduce", "--set", "3,3,4,4", "--variant", variant, *flag, "--out", str(out)])
    assert verdict.exit_code == 2
    assert flag[0] in verdict.payload["error"]
    assert not out.exists()


def test_reduce_identical_reads_an_explicit_machine_count():
    default = run(["reduce", "--set", "3,3,4,4", "--variant", "identical"])
    three = run(["reduce", "--set", "3,3,4,4", "--variant", "identical", "--m", "3"])
    four = run(["reduce", "--set", "3,3,4,4", "--variant", "identical", "--m", "4"])
    assert default.exit_code == three.exit_code == four.exit_code == 0
    assert three.payload == default.payload
    assert four.payload["jobs"] > three.payload["jobs"]


def test_experiment_preset(tmp_path):
    out = str(tmp_path / "report.csv")
    verdict = run(
        [
            "experiment", "--preset", "table1", "--seed", "5", "--trials", "4",
            "--m", "3", "--n", "4..6", "--out", out,
        ]
    )
    assert verdict.exit_code == 0
    assert verdict.payload["violations"] == []
    assert verdict.payload["trials"] == 8  # two schedulers
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0].startswith("trial,scheduler,m,n,makespan")
    assert len(lines) == 9


def test_experiment_explicit_scheduler_csv_stdout():
    verdict = run(
        [
            "experiment", "--scheduler", "ls", "--seed", "5", "--trials", "3",
            "--m", "3", "--n", "4..5", "--format", "csv",
        ]
    )
    assert verdict.exit_code == 0
    assert verdict.rendered.startswith("trial,scheduler")


def test_experiment_reports_budget_capped_trials_as_inconclusive():
    # m^n = 3^9 exceeds the budget; the trials still run
    verdict = run(
        [
            "experiment", "--scheduler", "lpt", "--seed", "3", "--trials", "6",
            "--m", "3", "--n", "9", "--budget", "50",
        ]
    )
    assert verdict.exit_code == 0
    assert verdict.payload["trials"] == 6 and verdict.payload["inconclusive"] == 3


def test_experiment_budget_caps_the_ptas_prefix_search():
    # eps = 1/2 on 3 machines puts the 6 longest of 8 jobs in the prefix,
    # whose lex-min search needs more than 10 nodes
    verdict = run(
        [
            "experiment", "--scheduler", "ptas", "--eps", "1/2", "--seed", "1",
            "--trials", "1", "--m", "3", "--n", "8", "--budget", "10",
        ]
    )
    assert verdict.exit_code == 3
    assert verdict.payload["error"] == "budget-exceeded"
    assert verdict.payload["budget"] == 10


def test_experiment_rejects_non_positive_budget_before_ptas_runs():
    # a budget stop of the ptas search would exit 3 instead
    verdict = run(
        [
            "experiment", "--scheduler", "ptas", "--eps", "1/2", "--seed", "1",
            "--trials", "1", "--m", "3", "--n", "8", "--budget", "0",
        ]
    )
    assert verdict.exit_code == 2
    assert verdict.payload["error"] == "node budget must be positive, got 0"


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_check_ne_rejects_a_bad_budget_no_search_reads(fig1_files, budget):
    # --ne runs no budgeted search, yet a bad budget is still bad input
    instance, schedule = fig1_files
    verdict = run(["check", "--ne", "--budget", budget, "--in", instance, "--schedule", schedule])
    assert verdict.exit_code == 2
    assert verdict.payload["error"] == f"node budget must be positive, got {budget}"


def test_experiment_needs_preset_or_scheduler():
    verdict = run(["experiment", "--seed", "1", "--trials", "2", "--m", "3", "--n", "4"])
    assert verdict.exit_code == 2


def test_experiment_rejects_preset_with_scheduler():
    verdict = run(
        [
            "experiment", "--preset", "table1", "--scheduler", "ls", "--seed", "5",
            "--trials", "2", "--m", "3", "--n", "4",
        ]
    )
    assert verdict.exit_code == 2
    assert "--preset" in verdict.payload["error"]


def test_experiment_rejects_eps_without_ptas():
    for picked in (["--scheduler", "lpt"], ["--preset", "table1"]):
        verdict = run(
            ["experiment", *picked, "--eps", "1/2", "--seed", "5", "--trials", "2", "--m", "3", "--n", "4"]
        )
        assert verdict.exit_code == 2
        assert "--eps" in verdict.payload["error"]


def test_schedule_rejects_flags_of_other_algorithms(fig1_files):
    instance, _ = fig1_files
    for alg, flags in (
        ("lpt", ["--eps", "1/2"]),
        ("lpt", ["--order", "3,2"]),
        ("ptas", ["--eps", "1/2", "--order", "3,2"]),
    ):
        verdict = run(["schedule", "--alg", alg, *flags, "--in", instance])
        assert verdict.exit_code == 2
        assert "only" in verdict.payload["error"]


def test_huge_decimal_exponent_exits_2(tmp_path, fig1_files):
    _, schedule = fig1_files
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"machines": 3, "jobs": ["1e5000", 5, 3, 2, 3, 2]}))
    verdict = run(["measures", "--in", str(path), "--schedule", schedule])
    assert verdict.exit_code == 2
    assert "exponent" in verdict.payload["error"]


def test_fig1_deviation_serializes_alike_everywhere(tmp_path, fig1_files, monkeypatch):
    """The check payload, the measures witness file, the witness figure and
    a sweep violation all write the benchmark deviation as one dict."""
    instance, schedule = fig1_files
    art = figure1()
    expected = art.deviation.to_dict()

    check = run(["check", "--se", "--in", instance, "--schedule", schedule])
    assert check.payload["se"]["witness"] == expected

    out = tmp_path / "table"
    run(["measures", "--out", str(out), "--in", instance, "--schedule", schedule])
    assert json.loads((out / "witness_ir_min.json").read_text()) == expected

    run(["witness", "--figure", "1", "--out", str(tmp_path / "w1")])
    assert json.loads((tmp_path / "w1" / "deviation.json").read_text()) == expected

    # a sweep whose one trial is the benchmark, with a damage limit every
    # equilibrium fails, so the trial records its ir_min witness
    monkeypatch.setattr(experiments, "random_instance", lambda *args: art.instance)
    monkeypatch.setattr(experiments, "random_ne", lambda *args: art.schedule)
    monkeypatch.setattr(measures, "NE_DAMAGE_LIMIT", Fraction(1))
    config = SweepConfig(
        seed=1, trials=1, m_range=(3, 3), n_range=(6, 6), p_max=5, scheduler="random-ne"
    )
    violations = bound_sweep(config).violations
    assert [v.check for v in violations] == ["ne-damage"]
    assert violations[0].witness == expected

    # read as an lpt start, the deviation fails the unit-normalized checks:
    # the size-2 jobs that reach the center are below its unit size 5
    record = {
        "trial": 0,
        "scheduler": "lpt",
        "eps": None,
        "check": "deviation-structure",
        "observed": "",
        "bound": "structural predicates",
        "instance": {"machines": 3, "jobs": [5, 5, 3, 2, 3, 2]},
        "schedule": {"assignment": [1, 1, 2, 2, 3, 3]},
        "witness": expected,
    }
    assert replay_violation(record) is True


def test_param_piece_without_equals_sign_exits_2(tmp_path):
    verdict = run(["witness", "--figure", "9", "--param", "bad", "--out", str(tmp_path)])
    assert verdict.exit_code == 2
    assert verdict.payload["error"] == "parameters look like key=value, got 'bad'"


def test_schedule_ls_without_order_uses_arrival_order(fig1_files):
    instance, _ = fig1_files
    verdict = run(["schedule", "--alg", "ls", "--in", instance])
    assert verdict.exit_code == 0
    ordered = run(["schedule", "--alg", "ls", "--order", "1,2,3,4,5,6", "--in", instance])
    assert verdict.payload == ordered.payload
    assert verdict.payload["assignment"] == [1, 2, 3, 3, 1, 2]


def test_check_ne_fails_with_a_single_job_witness(tmp_path, fig1_files):
    instance, _ = fig1_files
    stacked = tmp_path / "stacked.json"
    write_schedule(schedule_from_dict({"assignment": [1] * 6}), stacked)
    verdict = run(["check", "--ne", "--in", instance, "--schedule", str(stacked)])
    assert verdict.exit_code == 1
    # job 1 moves alone to machine 2
    witness = {"assignment": [2, 1, 1, 1, 1, 1], "migrants": [1], "coalition": [1]}
    assert verdict.payload == {"ne": {"holds": False, "witness": witness}}


def test_measures_table_on_a_three_machine_lpt_schedule(tmp_path, fig1_files):
    instance, _ = fig1_files
    schedule = str(tmp_path / "lpt.json")
    assert run(["schedule", "--alg", "lpt", "--in", instance, "--out", schedule]).exit_code == 0
    verdict = run(["measures", "--format", "csv", "--in", instance, "--schedule", schedule])
    assert verdict.exit_code == 0
    bounds = [row.split(",")[:2] for row in verdict.rendered.splitlines()[1:]]
    assert bounds == [["ir_min", "1/2 + sqrt(6)/4"], ["ir_max", "5/3"], ["dr_max", "< 3/2"]]


def test_experiment_ptas_preset_defaults_to_eps_one():
    flags = ["--seed", "3", "--trials", "6", "--m", "3", "--n", "2..6", "--format", "csv"]
    default = run(["experiment", "--preset", "ptas", *flags])
    explicit = run(["experiment", "--preset", "ptas", "--eps", "1", *flags])
    assert default.exit_code == explicit.exit_code == 0
    assert default.rendered == explicit.rendered
    for key in ("schedulers", "trials", "inconclusive", "violations"):
        assert default.payload[key] == explicit.payload[key]


def test_experiment_ptas_scheduler_needs_eps():
    verdict = run(
        ["experiment", "--scheduler", "ptas", "--seed", "1", "--trials", "1", "--m", "3", "--n", "4"]
    )
    assert verdict.exit_code == 2
    assert verdict.payload["error"] == "--scheduler ptas needs --eps"


def test_readme_commands_parse():
    # every `schedgames` command shown in the README's code fences is one
    # the parser accepts, so the guide cannot drift from the flags; and the
    # guide keeps to its bound of 180 lines
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    assert len(lines) <= 180
    commands, fenced = [], False
    for line in lines:
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("schedgames "):
            commands.append(line)
    assert commands
    parser = _build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"the README shows a command that does not parse: {command}")
