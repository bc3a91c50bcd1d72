"""Command-line harness for the reduction/flow pipeline.

Subcommands:
    analyze      large-cutoff flow prediction vs oracle, one row per model
    flow         sample or integrate a running coupling, write the trajectory
    kh-scan      dressed-kernel growth fit plus the two limiting energies
    oracle       solve one model on a grid
    paper-suite  run the acceptance checks, print one PASS/FAIL line each

Configuration is a JSON file (--config) whose keys are the subcommand's
long options, written with - or _; flags win over the file, and any other
key is a config error.  Reports are deterministic: floats are written
with 12 significant digits, row and column order is fixed, and no
timestamps are emitted, so identical configs give byte-identical files.
If UVFLOW_OUTPUT_DIR is set, relative output paths land under it.

Exit codes: 0 success, 1 computation error, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import kh
from .errors import ConfigError, IntegrationAbortError, UVFlowError
from .flow import (LAMBDA_FLOOR, PowerLawFlow, beta_closed_form, beta_numeric,
                   integrate_flow, pipeline_ground_energy, solve_fixed_point,
                   uv_limit_energy)
from .potentials import (PotentialSpec, coulomb, kramers_henneberger, morse,
                         quartic, soft_coulomb)

CASE_STUDIES = ("morse", "quartic", "coulomb", "kh")

# model name -> (constructor, its parameters with their defaults,
#                oracle defaults (half_width, n, parity as --parity spells it))
_MODELS = {
    "morse": (morse, {"A": 4.0, "a": 1.0, "m": 1.0}, (30.0, 4001, None)),
    "quartic": (quartic, {"g": 1.0}, (6.0, 4001, None)),
    "coulomb": (coulomb, {"alpha": 1.0}, (30.0, 4001, "odd")),
    "soft-coulomb": (soft_coulomb, {"alpha": 1.0, "lam": 1000.0},
                     (30.0, 4001, "odd")),
    "kh": (kramers_henneberger, {"alpha": 1.0, "eps_exp": 1.0, "lam": 1.0e4},
           (12.0, 4001, None)),
}

# model parameters of analyze, flow and oracle: name -> flag help
_PARAMS = {"A": "Morse well depth", "a": "Morse range parameter",
           "m": "Morse mass", "g": "quartic coupling",
           "alpha": "Coulomb-family coupling",
           "lam": "shape cutoff (soft-coulomb, kh)",
           "eps_exp": "drive-strength parameter",
           "K": "log-flow integration constant"}

ANALYZE_COLUMNS = ("model", "rg_energy", "oracle_energy", "rel_error",
                   "sign_branch", "flow_law", "notes")
FLOW_COLUMNS = ("lambda", "coupling", "beta", "energy")
KH_SCAN_COLUMNS = ("lambda", "c0", "c2", "c0_over_log", "c2_over_log",
                   "small_field_energy", "strong_field_energy")
ORACLE_COLUMNS = ("model", "half_width", "n", "parity", "level",
                  "eigenvalue", "refinement_estimate", "convergence_ratio")


def _fmt(value) -> str:
    """One cell: 12 significant digits for floats, empty for missing."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _round12(value):
    return float(_fmt(value)) if isinstance(value, float) else value


def _report_path(args, stem: str):
    """(path, format) of the report; the default path is <stem>.<format>,
    and a relative path lands under UVFLOW_OUTPUT_DIR when that is set."""
    fmt = "csv" if args.format is None else args.format
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    path = args.output or f"{stem}.{fmt}"
    if not isinstance(path, str):
        raise ConfigError(f"output must be a path string, got {path!r}")
    root = os.environ.get("UVFLOW_OUTPUT_DIR")
    if root and not os.path.isabs(path):
        path = os.path.join(root, path)
    return path, fmt


def _write_report(path: str, columns: Sequence[str], rows: list[dict],
                  fmt: str, extra: Optional[dict] = None,
                  comments: Sequence[str] = ()) -> None:
    parent = os.path.dirname(path)
    if parent:
        try:
            os.makedirs(parent, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {parent}: {exc}") from exc
    if fmt == "json":
        payload = {"rows": [{k: _round12(r.get(k)) for k in columns}
                            for r in rows]}
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt(r.get(k)) for k in columns])
        for line in comments:
            fh.write(f"# {line}\n")


def _load_config(args) -> None:
    """Fill the options left off the command line from the --config file.

    A key names one of the subcommand's long options, written with - or _
    (analyze also reads ``models``); any other key, a key given in both
    spellings, and a null value are config errors.
    """
    path = getattr(args, "config", None)
    if path is None:
        return
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if len({key.replace("-", "_") for key in cfg}) < len(cfg):
        raise ConfigError(f"config {path} sets an option under both spellings")
    options = set(vars(args)) - {"command", "func", "config", "model"}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in options:
            raise ConfigError(f"unknown config key {key!r}")
        if value is None:
            raise ConfigError(f"config key {key!r} is null")
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _integer(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer of at least {minimum}, "
                          f"got {value!r}")
    return value


def _grid_size(value) -> int:
    if _integer("n", value, 3) % 2 == 0:
        raise ConfigError(f"n must be odd, got {value!r}")
    return value


def _number(name: str, value, floor: float = 0.0) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not floor < value < math.inf):
        raise ConfigError(f"{name} must be a finite number above {floor:g}, "
                          f"got {value!r}")
    return float(value)


# the settings of flow beyond the model parameters; kh's log flow
# g = K**2/ln(lam) reads none of them
_FLOW_SETTINGS = ("g0", "beta", "start_on_fixed_point")


def _params(args, models: Sequence[str]) -> dict:
    """The model parameters that are set, each a finite number.

    A model reads its constructor's parameters (and flow's settings);
    analyze and flow follow kh along its log flow instead, which reads
    only K and eps_exp.  A setting that none of the models reads is a
    config error.
    """
    read = set()
    for model in models:
        if model == "kh" and args.command != "oracle":
            read.update(("K", "eps_exp"))
        else:
            read.update(_MODELS[model][1], _FLOW_SETTINGS)
    unread = [key for key in (*_PARAMS, *_FLOW_SETTINGS)
              if getattr(args, key, None) is not None and key not in read]
    if unread:
        raise ConfigError(f"{args.command} does not read "
                          + ", ".join("--" + k.replace("_", "-") for k in unread)
                          + " for " + ", ".join(models))
    return {key: _number(key, getattr(args, key), -math.inf)
            for key in _PARAMS if getattr(args, key) is not None}


def build_spec(model: str, params: dict) -> PotentialSpec:
    make, defaults, _ = _MODELS[model]
    return make(**{k: params.get(k, v) for k, v in defaults.items()})


def _grid_level(spec: PotentialSpec, half_width: float, n: int, level: int,
                parity: Optional[str]):
    """The oracle's ``level`` on the grid, in the sector ``parity`` spelled
    as --parity takes it.  Only grid commands get here, so only they load
    the eigensolver, and with it scipy.linalg."""
    from .eigensolver import Grid, Parity, eigenvalue_by_index

    try:
        parity = None if parity in (None, "none") else Parity(parity)
    except ValueError as exc:
        raise ConfigError(f"unknown parity {parity!r}") from exc
    return eigenvalue_by_index(spec, Grid(half_width, n), level, parity=parity)


# -- analyze -----------------------------------------------------------------

def _analyze_row(model: str, params: dict, half_width: Optional[float],
                 n: Optional[int]) -> dict:
    if model == "kh":
        K = params.get("K", 1.0)
        eps = params.get("eps_exp", 1.0)
        rg = kh.scaled_energy_from_K(K, eps)
        return {"model": model, "rg_energy": rg, "sign_branch": "ambiguous",
                "flow_law": f"g(lam) = {K * K:.12g} / ln(lam)",
                "notes": "root sign absorbed into K**2; printed form has no "
                         "direct eigensolve target, see kh-scan"}
    spec = build_spec(model, params)
    if model == "morse":
        # the depth does not run at leading order; the flow is a constant
        flow = PowerLawFlow(spec.coupling, 0.0)
    else:
        flow = solve_fixed_point(spec)
    est = uv_limit_energy(spec, flow)
    dl, dn, dparity = _MODELS[model][2]
    oracle = _grid_level(spec, half_width if half_width is not None else dl,
                         n if n is not None else dn, 0, dparity).refinement_estimate
    rel = abs(est.energy - oracle) / abs(oracle)
    notes = (f"oracle minus flow limit = {oracle - est.energy:.12g}"
             if model == "morse" else "")
    return {"model": model, "rg_energy": est.energy, "oracle_energy": oracle,
            "rel_error": rel,
            "sign_branch": "positive" if est.branches is None else "ambiguous",
            "flow_law": f"g(lam) = {flow.coefficient:.12g} lam^{flow.exponent:g}",
            "notes": notes}


def cmd_analyze(args) -> int:
    models = [args.model] if args.model is not None else args.models
    if models is None:
        models = list(CASE_STUDIES)
    if (not isinstance(models, list)
            or any(m not in tuple(_MODELS) for m in models)):
        raise ConfigError(f"models must be a list drawn from {tuple(_MODELS)}, "
                          f"got {models!r}")
    params = _params(args, models)
    half_width = None if args.half_width is None else _number("half-width", args.half_width)
    n = None if args.n is None else _grid_size(args.n)
    path, fmt = _report_path(args, "analyze")
    rows, failed = [], False
    for model in models:
        try:
            rows.append(_analyze_row(model, params, half_width, n))
        except UVFlowError as exc:
            failed = True
            rows.append({"model": model, "sign_branch": "", "flow_law": "",
                         "notes": f"analyze/{model}: {type(exc).__name__}: {exc}"})
    _write_report(path, ANALYZE_COLUMNS, rows, fmt)
    for r in rows:
        print(f"{r['model']:12s} rg={_fmt(r.get('rg_energy')):>18s} "
              f"oracle={_fmt(r.get('oracle_energy')):>18s} "
              f"rel={_fmt(r.get('rel_error'))} {r['notes']}")
    print(f"wrote {path}")
    return 1 if failed else 0


# -- flow --------------------------------------------------------------------

def cmd_flow(args) -> int:
    model = args.model
    params = _params(args, [model])
    path, fmt = _report_path(args, f"flow_{model}")
    lam0 = _number("lam0", 10.0 if args.lam0 is None else args.lam0, LAMBDA_FLOOR)
    lam1 = _number("lam1", 1.0e4 if args.lam1 is None else args.lam1, LAMBDA_FLOOR)
    if lam0 == lam1:
        raise ConfigError(f"lam0 and lam1 must differ, both are {lam0!r}")
    points = _integer("points", 41 if args.points is None else args.points, 2)
    beta_name = "closed" if args.beta is None else args.beta
    beta = {"closed": beta_closed_form, "numeric": beta_numeric}.get(str(beta_name))
    if beta is None:
        raise ConfigError(f"unknown beta choice {beta_name!r}")
    if not isinstance(args.start_on_fixed_point, (bool, type(None))):
        raise ConfigError("start-on-fixed-point must be true or false, "
                          f"got {args.start_on_fixed_point!r}")
    rows, errors = [], []
    if model == "kh":
        K = params.get("K", 1.0)
        eps = params.get("eps_exp", 1.0)
        flow = kh.cs_solution(K)
        for lam in np.geomspace(lam0, lam1, points):
            alpha = flow(lam)
            rows.append({"lambda": float(lam), "coupling": alpha,
                         "beta": flow.derivative_wrt_log(lam),
                         "energy": kh.scaled_ground_energy(alpha, lam, eps)})
    else:
        spec = build_spec(model, params)
        if args.start_on_fixed_point:
            g0 = solve_fixed_point(spec)(lam0)
        elif args.g0 is not None:
            g0 = _number("g0", args.g0, -math.inf)
        else:
            # the model's coupling, on the side of the family's canonical
            # fixed point, where its beta is defined (g < 0 for the Coulomb
            # shapes); a family without one, Morse, keeps its sign
            fixed_point = spec.family.fixed_point
            side = 1.0 if fixed_point is None else fixed_point(spec.kappa)[0]
            g0 = math.copysign(spec.coupling, side)
        try:
            traj = integrate_flow(spec, g0, lam0, lam1, n_points=points,
                                  beta=lambda g, lam: beta(spec, g, lam))
            lams, gs = traj.lams, traj.couplings
        except IntegrationAbortError as exc:
            lams, gs = exc.partial if exc.partial is not None else ([], [])
            errors.append(exc)
        for lam, g in zip(lams, gs):
            try:
                rows.append({"lambda": float(lam), "coupling": float(g),
                             "beta": beta(spec, g, lam),
                             "energy": pipeline_ground_energy(spec, g, lam)})
            except UVFlowError as exc:  # keep the rows before it, as an abort does
                errors.append(exc)
                break
    _write_report(path, FLOW_COLUMNS, rows, fmt)
    for exc in errors:
        print(f"flow/{model}: {type(exc).__name__}: {exc}", file=sys.stderr)
    if errors:
        print(f"wrote partial trajectory to {path}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


# -- kh-scan -----------------------------------------------------------------

def cmd_kh_scan(args) -> int:
    path, fmt = _report_path(args, "kh_scan")
    eps = _number("eps-exp", 1.0 if args.eps_exp is None else args.eps_exp)
    z_window = _number("z-window", 0.2 if args.z_window is None else args.z_window)
    if z_window > 0.3:
        raise ConfigError(f"z-window must be at most 0.3, got {z_window!r}")
    n_fit = _integer("n-fit", 9 if args.n_fit is None else args.n_fit, 5)
    lambdas = args.lambdas
    if lambdas is None:
        lambdas = list(np.geomspace(
            _number("lam0", 1.0e2 if args.lam0 is None else args.lam0, LAMBDA_FLOOR),
            _number("lam1", 1.0e6 if args.lam1 is None else args.lam1, LAMBDA_FLOOR),
            _integer("points", 5 if args.points is None else args.points, 1)))
    elif isinstance(lambdas, str):
        try:
            lambdas = [float(tok) for tok in lambdas.split(",") if tok]
        except ValueError as exc:
            raise ConfigError(f"cutoff list {lambdas!r}: {exc}") from exc
    if not isinstance(lambdas, list) or not lambdas:
        raise ConfigError(f"lambdas must be a non-empty list of cutoffs, "
                          f"got {lambdas!r}")
    lambdas = [_number("lambdas", lam, LAMBDA_FLOOR) for lam in lambdas]
    small = kh.ground_energy_limits(eps, kh.FieldRegime.SMALL_FIELD)
    strong = kh.ground_energy_limits(eps, kh.FieldRegime.STRONG_FIELD)
    rows = []
    for f in kh.log_divergence_fit(lambdas, z_window=z_window, n_fit=n_fit):
        s = math.log(f.lam)
        rows.append({"lambda": f.lam, "c0": f.c0, "c2": f.c2,
                     "c0_over_log": f.c0 / s, "c2_over_log": f.c2 / s,
                     "small_field_energy": small.energy,
                     "strong_field_energy": strong.energy})
    extra = {"limits": {
        "eps_exp": _round12(eps),
        "small_field": {"energy": _round12(small.energy),
                        "K": _round12(small.constant)},
        "strong_field": {"energy": _round12(strong.energy),
                         "K_squared": _round12(strong.constant),
                         "branches": [_round12(b) for b in strong.branches]},
    }}
    comments = (
        f"small-field(eps_exp={_fmt(eps)}): energy={_fmt(small.energy)} "
        f"K={_fmt(small.constant)}",
        f"strong-field(eps_exp={_fmt(eps)}): energy={_fmt(strong.energy)} "
        f"branches={_fmt(strong.branches[0])},{_fmt(strong.branches[1])}",
    )
    _write_report(path, KH_SCAN_COLUMNS, rows, fmt, extra=extra,
                  comments=comments)
    print(f"wrote {path}")
    return 0


# -- oracle ------------------------------------------------------------------

def cmd_oracle(args) -> int:
    model = args.model
    params = _params(args, [model])
    path, fmt = _report_path(args, f"oracle_{model}")
    dl, dn, dparity = _MODELS[model][2]
    half_width = _number("half-width", dl if args.half_width is None else args.half_width)
    n = _grid_size(dn if args.n is None else args.n)
    parity = dparity if args.parity is None else args.parity
    level = _integer("level", 0 if args.level is None else args.level, 0)
    spec = build_spec(model, params)
    res = _grid_level(spec, half_width, n, level, parity)
    row = {"model": model, "half_width": half_width, "n": n,
           "parity": res.parity.value if res.parity else "none",
           "level": level, "eigenvalue": res.eigenvalue,
           "refinement_estimate": res.refinement_estimate,
           "convergence_ratio": res.convergence_ratio}
    _write_report(path, ORACLE_COLUMNS, [row], fmt)
    print(f"{model}: level {level} = {_fmt(res.refinement_estimate)} "
          f"(raw {_fmt(res.eigenvalue)}, ratio {_fmt(res.convergence_ratio)})")
    print(f"wrote {path}")
    return 0


# -- paper-suite -------------------------------------------------------------

def cmd_paper_suite(args) -> int:
    from . import suite

    results = suite.run_all()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.index}  {r.name}: {r.details}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


# -- parser ------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    p.add_argument("--output", help="output path (default per command)")


def _add_params(p: argparse.ArgumentParser) -> None:
    for key, text in _PARAMS.items():
        p.add_argument("--" + key.replace("_", "-"), type=float, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvflow",
        description="cutoff reductions, running couplings and oracles "
                    "for one-dimensional quantum systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="flow prediction vs oracle per model")
    p.add_argument("model", nargs="?", choices=_MODELS,
                   help="single model (default: the four case studies)")
    _add_common(p)
    _add_params(p)
    p.add_argument("--half-width", type=float, help="oracle box half width")
    p.add_argument("--n", type=int, help="oracle grid points (odd)")
    p.set_defaults(func=cmd_analyze, models=None)

    p = sub.add_parser("flow", help="write a running-coupling trajectory")
    p.add_argument("model", choices=_MODELS)
    _add_common(p)
    _add_params(p)
    p.add_argument("--g0", type=float, help="starting coupling at lam0")
    p.add_argument("--lam0", type=float, help="starting cutoff (default 10)")
    p.add_argument("--lam1", type=float, help="final cutoff (default 1e4)")
    p.add_argument("--points", type=int, help="rows in the trajectory")
    p.add_argument("--beta", choices=("closed", "numeric"),
                   help="beta evaluation route (default closed)")
    p.add_argument("--start-on-fixed-point", action="store_true", default=None,
                   help="set g0 from the canonical-oscillator matching")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("kh-scan", help="dressed-kernel growth fit and limits")
    _add_common(p)
    p.add_argument("--lambdas", help="comma-separated cutoff list")
    p.add_argument("--lam0", type=float, help="scan start (default 1e2)")
    p.add_argument("--lam1", type=float, help="scan end (default 1e6)")
    p.add_argument("--points", type=int, help="scan points (default 5)")
    p.add_argument("--z-window", type=float, help="fit half-width (default 0.2)")
    p.add_argument("--n-fit", type=int, help="fit samples (default 9)")
    p.add_argument("--eps-exp", type=float,
                   help="drive-strength parameter (default 1)")
    p.set_defaults(func=cmd_kh_scan)

    p = sub.add_parser("oracle", help="solve one model on a grid")
    p.add_argument("model", choices=_MODELS)
    _add_common(p)
    _add_params(p)
    p.add_argument("--half-width", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--parity", choices=("even", "odd", "none"))
    p.add_argument("--level", type=int, help="eigenvalue index (default 0)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("paper-suite", help="run all acceptance criteria")
    p.set_defaults(func=cmd_paper_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _load_config(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"uvflow {args.command}: config error: {exc}", file=sys.stderr)
        return 2
    except UVFlowError as exc:
        print(f"uvflow {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
