"""Smoke run of the benchmark: one short run per workload, untraced and traced.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric emitted matches BENCHMARK.json, that no operation
fails on any workload, and that the benchmark refuses to run without the
program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def smoke(request):
    proc = bench("--workload", "all", "--seed", "1", "--seconds", "1",
                 "--trace", str(request.param))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return request.param, json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec(smoke):
    _, results = smoke
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])


def test_metric_names_match_spec(smoke):
    trace, results = smoke
    section = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    for name, result in results.items():
        emitted = {k: m["unit"] for k, m in result["metrics"].items()}
        assert emitted == units, name


def test_no_operation_fails(smoke):
    _, results = smoke
    for name, result in results.items():
        assert result["correct"], name
        assert result["attempted"] >= 1 and result["failed"] == 0, name


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "rg-flow", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
