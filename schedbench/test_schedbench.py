"""Self-test of the benchmark at a tiny size: every declared metric is
printed, and wrong answers are counted as failed and fail the command.

    python3 -m pytest schedbench
"""

import dataclasses
import json

import pytest

import run
import workloads


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_ITEMS", 3)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    for workload in workloads.WORKLOADS.values():
        monkeypatch.setattr(workload, "pool_size", 8)


def run_main(capsys, workload, trace="0"):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace])
    lines = capsys.readouterr().out.strip().splitlines()
    rows = {line.split()[1]: float(line.split()[2]) for line in lines[:-1] if "prediction" not in line}
    return code, rows, json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_printed(tiny, capsys, workload, trace):
    code, rows, result = run_main(capsys, workload, trace)
    declared = run.declared_metrics("per_layer" if trace == "1" else "end_to_end")
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == declared
    assert set(declared) | {"failed_frac"} <= set(rows)
    assert rows["failed_frac"] == 0


def test_wrong_expected_verdict_is_counted_as_failed(tiny, capsys, monkeypatch):
    build = workloads.Decide.build

    def build_with_wrong_first_verdict(self, pkg, specs):
        items = build(self, pkg, specs)
        items[0] = dataclasses.replace(items[0], expected_se=not items[0].expected_se)
        return items

    monkeypatch.setattr(workloads.Decide, "build", build_with_wrong_first_verdict)
    code, rows, result = run_main(capsys, "decide")
    assert code == 1
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert rows["failed_frac"] == pytest.approx(1 / 3)


def test_result_differing_from_recorded_digest_is_counted_as_failed(tiny, capsys, monkeypatch):
    monkeypatch.setattr(run, "item_digest", lambda encoded: "00000000")
    code, rows, result = run_main(capsys, "measure")
    assert code == 1
    assert (result["attempted"], result["failed"]) == (3, 3)
