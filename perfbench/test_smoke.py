"""Smoke test of the benchmark: every workload, untraced and traced, at tiny sizes.

Run from the repository root (about 90 s on 2 cores)::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_CHECKS = {
    "panel_loop": set(),
    "panel_vectorized": {"coverage_band_fig2a"},
    "ope_compare": set(),
    "log_roundtrip": {"log_reads_back_exactly", "infer_equals_ipwz_solve"},
}
CALL_CHECKS = {
    "coverage": {"replications_accounted", "coverage_in_unit_interval"},
    "diagnose": {"histograms_count_every_rep"},
    "compare-ope": {"ipwz_and_cadr_reported"},
    "simulate": {"log_has_every_round"},
    "infer": set(),
}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert BENCH["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": bd}
                                   for n, u, b, bd in run.END_TO_END]
    assert BENCH["per_layer"] == [{"name": n, "unit": u, "better": b}
                                  for n, u, b, _ in layers.PER_LAYER]
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] < setup["bound"] for m in BENCH["end_to_end"] if m is not setup)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_reported_and_checks_run(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    doc = json.loads(Path(next(line.split(": ", 1)[1] for line in lines
                               if line.startswith("results: "))).read_text())
    ran = {c["name"].rsplit(":", 1)[-1] for c in doc["checks"]}
    commands = {c.command for c in run.WORKLOADS[workload].calls}
    expected = {"exit_0", "imports_checkout_src", *WORKLOAD_CHECKS[workload],
                *(n for cmd in commands for n in CALL_CHECKS[cmd]),
                "digests_equal_parallel_serial_traced" if trace
                else "digests_equal_across_passes"}
    assert expected <= ran
    assert all(c["ok"] is not False for c in doc["checks"])
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "git_sha",
            "BANDITLAB_MAX_WORKERS", "workload_seed"} <= set(doc["environment"])
    assert doc["environment"]["workload_seed"] == 3
    assert all(len(c["sha256"]) == 64 for c in doc["calls"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "panel_loop", "--seed", "1", "--seconds", "20",
                 "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
