"""uvflow benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` (nothing is installed).  Each workload is a closed loop with one
client: jobs run one after another, each in a fresh interpreter with BLAS
threads pinned to 1, so no job can reuse an earlier job's results.  Every
job of a run executes the same seeded operation list; the loop starts jobs
until the next one would end after ``--seconds``.

End-to-end metrics (``--trace 0``):

    setup_s      median wall time of a fresh ``import uvflow.cli``
    job_s        median wall time of one job, timed after set-up
    peak_rss_mb  median peak resident memory of a job process

Failures come out as ``attempted``/``failed`` (fail_frac = failed/attempted)
and the worst relative error of any checked output as max_rel_err; both are
printed by name on every run.  A separate traced run (``--trace 1``)
alternates untraced and traced jobs and reports per-layer calls, busy and
self time, work counters, per-module import time from ``python -X
importtime``, the tracing overhead (traced job_s minus untraced job_s),
max_rel_err and fail_frac.

Every CLI report a job writes is hashed (SHA-256); a report that differs
between jobs of one run fails the run.  Results, with the environment and
every span, go to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
JOB = os.path.join(ROOT, "bench", "job.py")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
JOB_TIMEOUT_S = 150.0
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

CLI_LAYERS = ("cli.paper_suite", "cli.analyze", "cli.oracle", "cli.kh_scan", "cli.flow")
SUITE_LAYERS = tuple(f"suite.criterion_{i}" for i in range(1, 10))
GRID_LAYERS = ("eigensolver.ground_state.refined", "eigensolver.ground_state.raw",
               "eigensolver.eigenvalue_by_index.refined",
               "eigensolver.eigenvalue_by_index.raw")
LAYERS = CLI_LAYERS + GRID_LAYERS + (
    "eigensolver.shooting_ground_energy",
    "kh.dressed_integral_with_order", "kh.log_divergence_fit",
    "potentials.kh_shape", "potentials.with_coupling_and_cutoff",
    "reduction.expand_at_cutoff", "reduction.expand_at_cutoff.kh",
    "reduction.ho_ground_energy",
    "flow.beta_closed_form", "flow.beta_numeric", "flow.uv_limit_energy",
    "flow.solve_fixed_point", "flow.integrate_flow")
IMPORT_MODULES = (
    "uvflow", "uvflow.potentials", "uvflow.reduction", "uvflow.flow",
    "uvflow.eigensolver", "uvflow.kh", "uvflow.suite", "uvflow.cli", "numpy",
    "scipy.integrate", "scipy.interpolate", "scipy.linalg", "scipy.optimize",
    "scipy.special")

def per_layer_units() -> dict:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for layer in LAYERS + SUITE_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        if layer not in SUITE_LAYERS:
            units[f"{layer}.failed"] = "count"
    for layer in CLI_LAYERS + SUITE_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "eigensolver.grid_points": "count", "eigensolver.ns_per_point": "ns",
        "kh.quad_nodes": "count", "kh.ns_per_node": "ns",
        "flow.integrate_flow.beta_evals": "count",
        "trace.overhead_s": "s", "max_rel_err": "ratio", "fail_frac": "ratio"})
    for mod in IMPORT_MODULES:
        units[f"{mod}.import_s"] = "s"
    return units


# -- processes ----------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "UVFLOW_OUTPUT_DIR"}
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = SRC
    return env


def python(args, timeout, stdin=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=timeout)


def check_program() -> None:
    """The checkout's own uvflow must import; a warm-up also writes its bytecode."""
    if not os.path.isfile(os.path.join(SRC, "uvflow", "cli.py")):
        raise SystemExit(f"bench: no uvflow sources under {SRC}")
    proc = python(["-c", "import uvflow.cli; print(uvflow.cli.__file__)"], 120)
    if proc.returncode != 0:
        raise SystemExit(f"bench: cannot import uvflow.cli:\n{proc.stderr}")
    if not os.path.abspath(proc.stdout.strip()).startswith(SRC + os.sep):
        raise SystemExit(f"bench: uvflow imported from {proc.stdout.strip()}, not {SRC}")


def setup_times() -> list:
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = python(["-c", "import uvflow.cli"], 120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"bench: import failed:\n{proc.stderr}")
    return times


def import_times() -> dict:
    """Median cumulative import time per module, from ``-X importtime``."""
    samples = {mod: [] for mod in IMPORT_MODULES}
    for _ in range(IMPORT_SAMPLES):
        proc = python(["-X", "importtime", "-c", "import uvflow.cli"], 120)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for mod in IMPORT_MODULES:
            samples[mod].append(seen.get(mod, 0.0))
    return {mod: statistics.median(v) for mod, v in samples.items()}


def run_job(ops: list, trace: bool, job_id: str, work_dir: str) -> dict:
    os.makedirs(work_dir)
    request = json.dumps({"ops": ops, "trace": trace, "job_id": job_id,
                          "work_dir": work_dir})
    try:
        proc = python([JOB], JOB_TIMEOUT_S, stdin=request)
    except subprocess.TimeoutExpired:
        return {"crash": f"job exceeded {JOB_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"job exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


# -- checks and metrics -------------------------------------------------------

def check_job(workload, ops, refs, job) -> dict:
    """attempted, failed, worst relative error and failure notes of one job."""
    if "crash" in job:
        n = len(ops) * workload.outcomes_per_op
        return {"attempted": n, "failed": n, "max_rel_err": 0.0,
                "notes": [job["crash"]], "known_defects": []}
    attempted = failed = 0
    max_err, notes, known = 0.0, [], set()
    for i, (op, ref, res) in enumerate(zip(ops, refs, job["results"])):
        if "error" in res:
            outcomes = [(False, None)] * workload.outcomes_per_op
            notes.append(f"op {i} ({op['kind']}): {res['error']}")
        else:
            try:
                outcomes = workload.check(op, res["out"], ref)
            except (KeyError, IndexError, ValueError, TypeError, ZeroDivisionError) as exc:
                outcomes = [(False, None)]
                notes.append(f"op {i} ({op['kind']}): unreadable output: {exc!r}")
        for ok, err, *defect in outcomes:
            known.update(defect)
            attempted += 1
            if not ok:
                failed += 1
                notes.append(f"op {i} ({op['kind']}): check failed, rel err {err}")
            if err is not None and not math.isnan(err):
                max_err = max(max_err, err)
    return {"attempted": attempted, "failed": failed, "max_rel_err": max_err,
            "notes": notes, "known_defects": sorted(known)}


def report_hashes(ops, jobs) -> tuple:
    """{report: [sha256 per job]} and the reports that differ between jobs."""
    hashes = {}
    for job in jobs:
        for op, res in zip(ops, job.get("results", [])):
            if op["kind"] == "cli" and "out" in res:
                for name, rep in res["out"]["reports"].items():
                    hashes.setdefault(name, []).append(rep["sha256"])
    differ = sorted(name for name, hs in hashes.items() if len(set(hs)) > 1)
    return hashes, differ


def layer_metrics(job: dict) -> dict:
    """Per-layer calls, busy (inclusive) and self time, and counters of one traced job."""
    spans = job["spans"]
    child = Counter()
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    m = Counter()
    for i, (name, start, end, _, _, failed) in enumerate(spans):
        m[f"{name}.calls"] += 1
        m[f"{name}.busy_s"] += end - start
        m[f"{name}.self_s"] += end - start - child[i]
        m[f"{name}.failed"] += int(failed)
    counters = job["counters"]
    for key in ("eigensolver.grid_points", "kh.quad_nodes", "flow.integrate_flow.beta_evals"):
        m[key] = counters.get(key, 0)
    grid_busy = sum(m[f"{layer}.busy_s"] for layer in GRID_LAYERS)
    points = m["eigensolver.grid_points"]
    m["eigensolver.ns_per_point"] = 1e9 * grid_busy / points if points else 0.0
    nodes = m["kh.quad_nodes"]
    # computed: order doubling evaluates about 2x the converged order
    m["kh.ns_per_node"] = (1e9 * m["kh.dressed_integral_with_order.busy_s"] / (2 * nodes)
                           if nodes else 0.0)
    return m


def end_to_end_metrics(jobs: list, setup: list) -> dict:
    metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
    if jobs:
        metrics["job_s"] = {"value": statistics.median(j["job_s"] for j in jobs),
                            "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(j["peak_rss_mb"] for j in jobs),
                                  "unit": "MB"}
    return metrics


def per_layer_metrics(jobs: list, imports: dict, max_err: float, fail_frac: float) -> dict:
    """Medians over the traced jobs; overhead against the untraced ones."""
    traced = [j for j in jobs if j["traced"]]
    untraced = [j["job_s"] for j in jobs if not j["traced"]]
    per_job = [layer_metrics(j) for j in traced]
    values = {"max_rel_err": max_err, "fail_frac": fail_frac}
    for mod, seconds in imports.items():
        values[f"{mod}.import_s"] = seconds
    if per_job:
        for key in per_layer_units():
            values.setdefault(key, statistics.median(m[key] for m in per_job))
    if traced and untraced:
        values["trace.overhead_s"] = (statistics.median(j["job_s"] for j in traced)
                                      - statistics.median(untraced))
    return {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()
            if k in values}


def environment(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "platform": platform.platform(), "blas_pin": BLAS_PIN, "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    ops = workload.make_ops(seed)
    for i, op in enumerate(ops):
        op["index"] = i
    refs = workload.references(ops)          # set-up, not timed
    setup = [] if trace else setup_times()
    imports = import_times() if trace else {}

    run_dir = os.path.join(OUT, f"work-{os.getpid()}")
    jobs = []
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(jobs) % 2 == 1
            job_start = time.perf_counter()
            job = run_job(ops, traced, f"{name}-{seed}-{len(jobs)}",
                          os.path.join(run_dir, f"job{len(jobs)}"))
            wall = time.perf_counter() - job_start
            job["traced"] = traced
            jobs.append(job)
            if time.perf_counter() - start + wall > seconds and len(jobs) >= (2 if trace else 1):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = [check_job(workload, ops, refs, job) for job in jobs]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    max_err = max(c["max_rel_err"] for c in checks)
    hashes, differ = report_hashes(ops, jobs)
    ok_jobs = [j for j in jobs if "crash" not in j]
    correct = failed == 0 and not differ and len(ok_jobs) == len(jobs)

    if trace:
        metrics = per_layer_metrics(ok_jobs, imports, max_err, failed / attempted)
    else:
        metrics = end_to_end_metrics(ok_jobs, setup)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {
        "workload": name, "why": workload.why, "seconds": seconds, "trace": trace,
        "environment": environment(seed), "result": result,
        "setup_s_samples": setup, "import_s": imports,
        "job_s_samples": [j.get("job_s") for j in jobs],
        "traced_flags": [j["traced"] for j in jobs],
        "peak_rss_mb_samples": [j.get("peak_rss_mb") for j in jobs],
        "fail_frac": failed / attempted, "max_rel_err": max_err,
        "failures": [n for c in checks for n in c["notes"]],
        "known_defects": sorted({d for c in checks for d in c["known_defects"]}),
        "report_sha256": hashes, "reports_differ": differ,
        "spans": [s for j in jobs for s in j.get("spans", [])],
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, allow_nan=True)
    detail["path"] = os.path.relpath(path, ROOT)
    return detail


def summarize(detail: dict) -> None:
    res = detail["result"]
    jobs = detail["job_s_samples"]
    print(f"{detail['workload']}: seed {detail['environment']['seed']}, "
          f"{len(jobs)} jobs, closed loop with 1 client, trace {int(detail['trace'])}")
    if not detail["trace"]:
        counts = {"setup_s": len(detail["setup_s_samples"]),
                  "job_s": detail["traced_flags"].count(False),
                  "peak_rss_mb": len(jobs)}
        for key, m in res["metrics"].items():
            print(f"  {key:14s} {m['value']:.6g} {m['unit']}  (median of {counts[key]})")
    else:
        labels = {"trace.overhead_s": "traced minus untraced job_s",
                  "eigensolver.ns_per_point": "busy / grid points",
                  "kh.ns_per_node": "computed: busy / (2 x quad_nodes)"}
        for key, label in labels.items():
            m = res["metrics"].get(key)
            if m:
                print(f"  {key:28s} {m['value']:.6g} {m['unit']}  ({label})")
        busiest = sorted(((m["value"], k) for k, m in res["metrics"].items()
                          if k.endswith(".busy_s")), reverse=True)
        for value, key in busiest[:6]:
            print(f"  {key:40s} {value:.6g} s")
    print(f"  fail_frac      {detail['fail_frac']:.6g} ratio  "
          f"({res['failed']}/{res['attempted']} operations failed)")
    print(f"  max_rel_err    {detail['max_rel_err']:.6g} ratio")
    for name, hs in sorted(detail["report_sha256"].items()):
        flag = "DIFFERS" if name in detail["reports_differ"] else f"same in {len(hs)} jobs"
        print(f"  report {name}: sha256 {hs[0][:16]}... {flag}")
    for note in detail["failures"][:10]:
        print(f"  FAILED {note}")
    for note in detail["known_defects"]:
        print(f"  KNOWN DEFECT {note}")
    print(f"  results: {detail['path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_program()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
        summarize(detail)
        results[name] = detail["result"]
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
