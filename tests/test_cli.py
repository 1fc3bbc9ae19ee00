import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fractions import Fraction

from schedgames import experiments
from schedgames.cli import run
from schedgames.core import read_instance, read_schedule, write_instance, write_schedule
from schedgames.experiments import SweepConfig, bound_sweep, replay_violation
from schedgames.witnesses import figure1


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
    verdict = run(
        ["measures", "--table1", "--out", out, "--in", instance, "--schedule", schedule]
    )
    assert verdict.exit_code == 0
    table = (tmp_path / "table" / "table1.csv").read_text()
    assert table.splitlines()[0] == "measure,bound,observed,witness_file"
    assert "ir_min,5/4,5/4" in table
    assert (tmp_path / "table" / "witness_ir_min.json").exists()


def test_usage_errors_exit_2(fig1_files):
    instance, schedule = fig1_files
    assert run(["frobnicate"]).exit_code == 2
    assert run(["check", "--no-such-flag", "--in", instance, "--schedule", schedule]).exit_code == 2
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
    assert verdict.payload["improvement_move"]["ratio"] == "11/2"


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
        ("ls", ["--refine"]),
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
    run(["measures", "--table1", "--out", str(out), "--in", instance, "--schedule", schedule])
    assert json.loads((out / "witness_ir_min.json").read_text()) == expected

    run(["witness", "--figure", "1", "--out", str(tmp_path / "w1")])
    assert json.loads((tmp_path / "w1" / "deviation.json").read_text()) == expected

    # a sweep whose one trial is the benchmark, with a damage limit every
    # equilibrium fails, so the trial records its ir_min witness
    monkeypatch.setattr(experiments, "random_instance", lambda *args: art.instance)
    monkeypatch.setattr(experiments, "random_ne", lambda *args: art.schedule)
    monkeypatch.setattr(experiments, "NE_DAMAGE_LIMIT", Fraction(1))
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
