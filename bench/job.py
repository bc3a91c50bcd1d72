"""One benchmark job, run in a fresh interpreter by ``bench/run.py``.

Reads ``{"ops": [...], "trace": bool, "job_id": str, "work_dir": str}`` as
JSON on stdin, imports uvflow (set-up, not timed), runs the operations in
order and prints one JSON object on stdout:

    {"job_s": ..., "peak_rss_mb": ..., "results": [...], "spans": [...],
     "counters": {...}}

Each result is ``{"out": <outputs>}`` or ``{"error": "<type>: <message>"}``.
The job sees only the generated inputs: no seed and no reference values.

With ``trace`` set, every call into a uvflow layer is recorded as a span
``[name, start, end, parent_index, job_id, failed]``.  Spans stay in memory
and go out with the result.  The paper suite is traced from outside by
swapping the names ``uvflow.suite`` looks up at call time (its criteria
tuple and its eigensolver functions); no file of the program is changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter

import numpy as np

import uvflow.cli as cli
from uvflow import eigensolver, flow, kh, potentials, reduction, suite


class NullTracer:
    """Untraced jobs: call straight through, record nothing."""

    def __init__(self):
        self.counters: Counter = Counter()
        self.spans: list = []

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """In-memory spans at each call into a layer; one job id per job."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()

    def call(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        span = [name, time.perf_counter(), None, parent, self.job_id, False]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def grid_points(n: int, refine: bool) -> int:
    """Grid sizes one oracle call solves: n, plus the Richardson pair."""
    if not refine:
        return n
    nc = (n + 1) // 2
    if nc % 2 == 0:
        nc += 1
    return n + nc + 2 * n - 1


# -- spec construction from plain inputs -------------------------------------

def build_spec(family: str, p: dict):
    if family == "morse":
        return potentials.morse(p["A"], p.get("a", 1.0), p.get("m", 1.0))
    if family == "quartic":
        return potentials.quartic(p["g"])
    if family == "coulomb":
        return potentials.coulomb(p["alpha"])
    if family == "soft-coulomb":
        return potentials.soft_coulomb(p["alpha"], p["lam"])
    if family == "harmonic":
        # (p^2 + w^2 x^2)/2, levels w (k + 1/2)
        w2 = p["omega"] ** 2
        return potentials.custom(
            lambda x: 0.5 * w2 * np.asarray(x, dtype=float) ** 2, kappa=0.5,
            d1=lambda x: w2 * float(x), d2=lambda x: w2)
    if family == "sextic":
        # x^4 + b x^6 with analytic derivatives, kappa = 1: its stiffness is
        # not a power law in the cutoff, so the fixed point is tabulated
        b = p["b"]
        return potentials.custom(
            lambda x: np.asarray(x, dtype=float) ** 4 + b * np.asarray(x, dtype=float) ** 6,
            kappa=1.0,
            d1=lambda x: 4.0 * x ** 3 + 6.0 * b * x ** 5,
            d2=lambda x: 12.0 * x ** 2 + 30.0 * b * x ** 4)
    raise ValueError(f"unknown family {family!r}")


# -- operations --------------------------------------------------------------

def op_cli(op, tr, work_dir):
    """``uvflow <argv>`` in process; reports go to a fresh output dir."""
    out_dir = os.path.join(work_dir, f"op{op['index']}")
    os.makedirs(out_dir)
    os.environ["UVFLOW_OUTPUT_DIR"] = out_dir
    name = "cli." + op["argv"][0].replace("-", "_")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = tr.call(name, cli.main, list(op["argv"]))
    reports = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            data = fh.read()
        reports[fname] = {"sha256": hashlib.sha256(data).hexdigest(),
                          "text": data.decode()}
    if not reports:
        # the paper suite writes no file; its stdout is the report
        data = stdout.getvalue().encode()
        reports[op["argv"][0] + ".stdout"] = {
            "sha256": hashlib.sha256(data).hexdigest(), "text": data.decode()}
    return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "reports": reports}


def op_grid(op, tr, work_dir):
    spec = build_spec(op["family"], op["params"])
    grid = eigensolver.Grid(op["half_width"], op["n"])
    parity = eigensolver.Parity(op["parity"]) if op["parity"] else None
    refine = op["refine"]
    suffix = ".refined" if refine else ".raw"
    if op["level"] == 0:
        res = tr.call("eigensolver.ground_state" + suffix, eigensolver.ground_state,
                      spec, grid, parity=parity, refine=refine)
    else:
        res = tr.call("eigensolver.eigenvalue_by_index" + suffix,
                      eigensolver.eigenvalue_by_index, spec, grid, op["level"],
                      parity=parity, refine=refine)
    tr.counters["eigensolver.grid_points"] += grid_points(op["n"], refine)
    return res.refinement_estimate if refine else res.eigenvalue


def op_kh_point(op, tr, work_dir):
    value, order = tr.call("kh.dressed_integral_with_order",
                           kh.dressed_integral_with_order, op["z"], op["lam"])
    tr.counters["kh.quad_nodes"] += order
    return [value, order]


def op_kh_shape(op, tr, work_dir):
    spec = potentials.kramers_henneberger(op["alpha"], op["eps_exp"], op["lam"])
    z = np.asarray(op["z"], dtype=float)
    return [float(v) for v in tr.call("potentials.kh_shape", spec, z)]


def op_kh_expand(op, tr, work_dir):
    spec = potentials.kramers_henneberger(op["alpha"], op["eps_exp"], op["lam"])
    red = tr.call("reduction.expand_at_cutoff.kh", reduction.expand_at_cutoff,
                  spec, op["lam"])
    return list(red.taylor)


def op_kh_fit(op, tr, work_dir):
    fit = tr.call("kh.log_divergence_fit", kh.log_divergence_fit, op["lams"])
    return [[f.lam, f.c0, f.c2] for f in fit]


def op_rg_point(op, tr, work_dir):
    spec = build_spec(op["family"], op["params"])
    g, lam = op["g"], op["lam"]
    moved = tr.call("potentials.with_coupling_and_cutoff",
                    potentials.with_coupling_and_cutoff, spec, g, lam)
    red = tr.call("reduction.expand_at_cutoff", reduction.expand_at_cutoff, moved, lam)
    est = tr.call("reduction.ho_ground_energy", reduction.ho_ground_energy, red)
    bc = tr.call("flow.beta_closed_form", flow.beta_closed_form, spec, g, lam)
    bn = tr.call("flow.beta_numeric", flow.beta_numeric, spec, g, lam)
    return [est.energy, bc, bn]


def op_uv_limit(op, tr, work_dir):
    spec = build_spec(op["family"], op["params"])
    if op["flow"] == "constant":
        # Morse depth does not run at leading order (as in ``uvflow analyze``)
        law = flow.PowerLawFlow(spec.coupling, 0.0)
    else:
        law = tr.call("flow.solve_fixed_point", flow.solve_fixed_point, spec)
    return tr.call("flow.uv_limit_energy", flow.uv_limit_energy, spec, law).energy


def op_integrate(op, tr, work_dir):
    spec = build_spec(op["family"], op["params"])
    beta = op["beta"]
    if isinstance(tr, Tracer):
        # the same right-hand side integrate_flow builds from the name,
        # passed as a callable so its evaluations can be counted
        fn = flow.beta_closed_form if beta == "closed-form" else flow.beta_numeric

        def beta(g, lam):
            tr.counters["flow.integrate_flow.beta_evals"] += 1
            return fn(spec, g, lam)
    traj = tr.call("flow.integrate_flow", flow.integrate_flow, spec, op["g0"],
                   op["lam0"], op["lam1"], beta=beta)
    return [[float(l) for l in traj.lams], [float(g) for g in traj.couplings]]


def op_fixed_point(op, tr, work_dir):
    spec = build_spec(op["family"], op["params"])
    law = tr.call("flow.solve_fixed_point", flow.solve_fixed_point, spec)
    return [[float(l) for l in law.lams], [float(g) for g in law.couplings]]


OPS = {
    "cli": op_cli, "grid": op_grid, "kh_point": op_kh_point,
    "kh_shape": op_kh_shape, "kh_expand": op_kh_expand, "kh_fit": op_kh_fit,
    "rg_point": op_rg_point, "uv_limit": op_uv_limit,
    "integrate": op_integrate, "fixed_point": op_fixed_point,
}


def trace_suite(tr: Tracer) -> None:
    """Route the suite's criteria and oracle calls through the tracer."""
    suite.ALL_CRITERIA = tuple(tr.wrap(f"suite.{fn.__name__}", fn)
                               for fn in suite.ALL_CRITERIA)
    ground_state = suite.ground_state

    def traced_ground_state(spec, grid, parity=None, refine=True):
        tr.counters["eigensolver.grid_points"] += grid_points(grid.n, refine)
        name = "eigensolver.ground_state" + (".refined" if refine else ".raw")
        return tr.call(name, ground_state, spec, grid, parity=parity, refine=refine)

    suite.ground_state = traced_ground_state
    suite.shooting_ground_energy = tr.wrap("eigensolver.shooting_ground_energy",
                                           suite.shooting_ground_energy)


def main() -> int:
    request = json.load(sys.stdin)
    tr = Tracer(request["job_id"]) if request["trace"] else NullTracer()
    if request["trace"]:
        trace_suite(tr)
    work_dir = request["work_dir"]
    results = []
    start = time.perf_counter()
    for op in request["ops"]:
        try:
            results.append({"out": OPS[op["kind"]](op, tr, work_dir)})
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append({"error": f"{type(exc).__name__}: {exc}"})
    job_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"job_s": job_s, "peak_rss_mb": peak_kb / 1024.0,
               "results": results, "spans": tr.spans,
               "counters": dict(tr.counters)},
              sys.stdout, allow_nan=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
