"""Tests of the benchmark itself, at the tiny scale.

They check the output contract against BENCHMARK.json, the determinism
of the generator and of the traced counts, that a wrong report counts as
a failure, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(name: str, trace: bool, seed: int = 1, digests: dict | None = None) -> dict:
    return run.run_workload(name, seed, seconds=0.1, trace=trace, scale="tiny", digests=digests)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(name, trace):
    outcome = tiny_run(name, trace)
    result = outcome["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], outcome["record"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end" if not trace else "per_layer"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)) and not isinstance(value["value"], bool)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counts(name):
    first, second = (tiny_run(name, trace=True)["result"]["metrics"] for _ in range(2))
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert "cli.checks_reported" in counts and "core.oplus.calls" in counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["cli.checks_reported"]["value"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    one, two = workloads.build(name, 7), workloads.build(name, 7)
    assert one == two
    left, right = tmp_path / "a", tmp_path / "b"
    left.mkdir()
    right.mkdir()
    for (doc, a), (_, b) in zip(one.write(left).items(), two.write(right).items()):
        assert a.read_bytes() == b.read_bytes(), doc
    assert workloads.build(name, 8).documents != one.documents


def test_a_tampered_digest_drives_error_rate_above_zero():
    workload = workloads.build("exact-analysis", 1, "tiny")
    digests = run.report_digests(workload)
    clean = tiny_run("exact-analysis", trace=False, digests=digests)
    assert clean["result"]["failed"] == 0
    label = workload.commands[0].label
    digests[label] = "0" * 64
    tampered = tiny_run("exact-analysis", trace=False, digests=digests)
    assert tampered["record"]["error_rate"] > 0
    assert not tampered["result"]["correct"]
    # one CLI and two in-process runs of the tampered command per round
    assert tampered["result"]["failed"] == 3 * tampered["record"]["rounds"]
    assert all(label in f for f in tampered["record"]["failures"])


def test_peak_rss_is_the_cli_process_own():
    # a child's max-RSS counts the memory of the process that spawned it
    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    outcome = tiny_run("finite-sweep", trace=False)
    assert outcome["result"]["metrics"]["peak_rss_mb"]["value"] < 48
    del ballast


def test_a_missing_function_is_reported_absent(monkeypatch):
    from mvprob import analysis

    monkeypatch.delattr(analysis, "pow_bounds")  # finite-sweep never calls it
    outcome = tiny_run("finite-sweep", trace=True)
    assert outcome["result"]["correct"]
    assert outcome["record"]["absent_functions"] == ["analysis.pow_bounds"]
    assert outcome["result"]["metrics"]["analysis.pow_bounds.s"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "finite-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
