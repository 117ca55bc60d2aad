"""Smoke test of the benchmark: every workload for a few operations at tiny size.

Run from the root of a checkout, either way:

    python3 -m pytest -q perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

It checks that each workload prints every metric BENCHMARK.json names, by
name and with its unit, that no operation fails on the current code, and
that the benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-session", "grid-export", "modes-many", "few-mode-oracle")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", "2", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check(workload: str, trace: int, section: str) -> None:
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr
    metrics = result["metrics"]
    assert set(metrics) == set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, name
        assert any(line.startswith(f"# {workload} {name} = ") and line.endswith(f" {unit}") for line in lines), name
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in metrics.values()), metrics
        assert metrics["success_ratio"]["value"] == 1.0


def test_end_to_end_metrics() -> None:
    for workload in WORKLOADS:
        _check(workload, 0, "end_to_end")


def test_traced_metrics() -> None:
    for workload in WORKLOADS:
        _check(workload, 1, "per_layer")


def test_refuses_without_sources() -> None:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("cli-session", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test in (test_end_to_end_metrics, test_traced_metrics, test_refuses_without_sources):
        test()
        print(f"{test.__name__}: ok")
