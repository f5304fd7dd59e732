"""Tests of the benchmark itself, on its short mode.

Run explicitly (the file name keeps it out of the repository's test
collection)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-variable", "paper-fixed35", "laptop-table1")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int = 0, cwd: pathlib.Path = ROOT):
    return subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--short",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _parse(stdout: str):
    lines = stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest:"))
    return json.loads(lines[-1]), digest


def _assert_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_passes_checks_and_repeats_its_digest(workload):
    first = _run(workload, seed=3)
    second = _run(workload, seed=3)
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0, second.stdout + second.stderr
    result, digest = _parse(first.stdout)
    _, digest_again = _parse(second.stdout)
    _assert_metrics(result, _spec()["end_to_end"])
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name
    assert digest == digest_again


def test_another_seed_gives_another_digest():
    _, first = _parse(_run("paper-variable", seed=3).stdout)
    _, other = _parse(_run("paper-variable", seed=4).stdout)
    assert first != other


@pytest.mark.parametrize("workload", ["paper-fixed35", "laptop-table1"])
def test_traced_short_run_reports_every_per_layer_metric(workload):
    run = _run(workload, seed=5, trace=1)
    assert run.returncode == 0, run.stdout + run.stderr
    result, _ = _parse(run.stdout)
    _assert_metrics(result, _spec()["per_layer"])
    metrics = result["metrics"]
    assert metrics["trace.spans"]["value"] > 0
    assert metrics["models.alc.calls"]["value"] > 0
    assert metrics["layer.models.self_s"]["value"] > 0
    assert "check ok   tracing leaves the trajectory unchanged" in run.stdout


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench")
    run = _run("paper-variable", seed=1, cwd=tmp_path)
    assert run.returncode != 0
    assert run.stdout.strip() == ""


def test_a_failed_check_exits_nonzero(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run as bench
    import workloads

    add = workloads.LedgerAudit.add

    def drop_compile_charges(self, result, seeding, aggregate_mean):
        add(self, result, seeding, aggregate_mean)
        self.compile_seconds = 0.0

    monkeypatch.setattr(workloads.LedgerAudit, "add", drop_compile_charges)
    code = bench.main(
        ["--workload", "paper-variable", "--seed", "2", "--seconds", "0", "--short"]
    )
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "check FAIL ledger equals the broker's charges" in out
