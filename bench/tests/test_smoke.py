"""Smoke test of the benchmark harness: very short runs of every mode.

Run from the repository root (takes about half a minute):

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "bench" / "layers.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(report_line)["report"], result


def assert_clean(report: dict, result: dict, metric_specs: list[dict]) -> None:
    assert result["correct"] is True, report["ops"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["ops"]["fail_ratio"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in metric_specs}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_emits_every_end_to_end_metric(workload):
    report, result = result_of(run(workload, 0))
    assert_clean(report, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["provenance"]["src_lines"] > 0


def test_traced_run_emits_every_per_layer_metric_and_its_spans():
    report, result = result_of(run("denoise_sweep", 1))
    assert_clean(report, result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["denoise.wavelet_count"]["value"] == 258
    assert metrics["denoise.mean_filled_count"]["value"] == 16
    spans = json.loads((ROOT / report["metrics"]["spans_file"]).read_text())["spans"]
    assert spans and all(s["end"] >= s["start"] for s in spans)
    ids = {s["id"] for s in spans}
    assert all(s["parent"] in ids for s in spans if s["parent"] is not None)
    assert all(s["op"] for s in spans)


def test_layer_map_covers_every_metric():
    assert set(LAYERS["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert LAYERS["per_layer"][m["name"]]["unit"] == m["unit"]
    assert set(LAYERS["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(LAYERS["workloads"]) == {w["name"] for w in SPEC["workloads"]}


def test_failed_child_and_missing_output_are_failures_not_crashes():
    workdir = ROOT / ".bench_work" / "robustness"
    workloads.clear_outputs(workdir)
    env = workloads.child_env()
    tally = workloads.Tally()
    try:
        for code in ("raise SystemExit('boom')",
                     "import sys; sys.stderr.write('Traceback (most recent call last):')"):
            child = workloads.spawn([sys.executable, "-c", code], workdir, env)
            tally.record(code, workloads.child_problem(child))
        ref = workloads.chain_reference(42)
        for step in workloads.CHAIN_STEPS:
            tally.record(step, workloads.guarded(workloads.check_step, step, workdir, ref, "", 0))
    finally:
        shutil.rmtree(workdir)
    assert tally.attempted == tally.failed == 2 + len(workloads.CHAIN_STEPS)
    assert "boom" in tally.failures[0]["problem"]
    assert "Traceback" in tally.failures[1]["problem"]


def test_fails_without_a_result_where_the_source_is_missing():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("cli_chain", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
