"""Command-line harness for the reduction/flow pipeline.

Subcommands:
    analyze      large-cutoff flow prediction vs oracle, one row per model
    flow         sample or integrate a running coupling, write the trajectory
    kh-scan      dressed-kernel growth fit plus the two limiting energies
    oracle       solve one model on a grid
    paper-suite  run the acceptance checks, print one PASS/FAIL line each

Settings are flags, each given one way.  An argument that starts with @
names an args file, which argparse reads in its place, one argument per
line (--g=8), skipping blank lines; a setting given later wins.  Each
option's argparse type checks every rule that needs that setting alone
(finite, above a floor, at most a top, a count up to MAX_COUNT, odd for
--n), so a bad value exits 2 with argparse's "error: argument --X:" line,
from a flag or a file alike.  A config error is left for the three rules
that involve two settings or the file system: a model parameter that no
model of the run reads, lam0 == lam1 in flow, and a report path that
cannot be written.  Reports are deterministic: floats are written with 12
significant digits, row and column order is fixed, and no timestamps are
emitted, so identical settings give byte-identical files.  If
UVFLOW_OUTPUT_DIR is set, relative output paths land under it.

Exit codes: 0 success, 1 computation error, 2 bad setting or usage.
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
from .flow import (LAMBDA_FLOOR, LogFlow, PowerLawFlow, beta_closed_form,
                   beta_numeric, integrate_flow, pipeline_ground_energy,
                   solve_fixed_point, uv_limit_energy)
from .potentials import (Parity, PotentialSpec, coulomb, kramers_henneberger,
                         morse, quartic, soft_coulomb)

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
# the model parameters that take only numbers above 0
_POSITIVE = ("a", "m", "lam", "eps_exp")

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


def _write_report(args, stem: str, columns: Sequence[str], rows: list[dict],
                  extra: Optional[dict] = None,
                  comments: Sequence[str] = ()) -> str:
    """Write the report in --format and return its path: --output, by
    default <stem>.<format>, placed under UVFLOW_OUTPUT_DIR when that is
    set and the path is relative."""
    path = args.output or f"{stem}.{args.format}"
    root = os.environ.get("UVFLOW_OUTPUT_DIR")
    if root and not os.path.isabs(path):
        path = os.path.join(root, path)
    try:
        if os.path.dirname(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    with fh:
        if args.format == "json":
            payload = {"rows": [{k: _round12(r.get(k)) for k in columns}
                                for r in rows]}
            if extra:
                payload.update(extra)
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for r in rows:
                writer.writerow([_fmt(r.get(k)) for k in columns])
            for line in comments:
                fh.write(f"# {line}\n")
    return path


# the largest count that --n, --points, --n-fit and --level take: far above
# the grids and trajectories the package runs, and small enough that the
# arrays a count sizes fit in memory
MAX_COUNT = 10**6


def _real(floor: float = -math.inf, top: float = math.inf):
    """argparse type: a finite number above ``floor``, at most ``top``."""
    rule = ("a finite number" + (f" above {floor:g}" if floor > -math.inf else "")
            + (f" and at most {top:g}" if top < math.inf else ""))

    def real(text: str) -> float:
        value = float(text)
        if floor < value < math.inf and value <= top:
            return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return real


def _count(minimum: int, odd: bool = False):
    """argparse type: an integer from ``minimum`` to MAX_COUNT, odd if
    ``odd``."""
    rule = f"{'an odd' if odd else 'an'} integer from {minimum} to {MAX_COUNT}"

    def count(text: str) -> int:
        value = int(text)
        if minimum <= value <= MAX_COUNT and (value % 2 or not odd):
            return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return count


# the settings of flow beyond the model parameters; kh's log flow
# g = K**2/ln(lam) reads none of them
_FLOW_SETTINGS = ("g0", "beta", "start_on_fixed_point")


def _params(args, models: Sequence[str]) -> dict:
    """The model parameters that are set.

    A parameter or flow setting is set when it is not None, which is
    why none of them has a parser default.  A model reads its
    constructor's parameters (and flow's settings); analyze and flow
    follow kh along its log flow instead, which reads only K and eps_exp.
    A setting that none of the models reads is a config error.
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
    return {key: getattr(args, key) for key in _PARAMS
            if getattr(args, key) is not None}


def build_spec(model: str, params: dict) -> PotentialSpec:
    make, defaults, _ = _MODELS[model]
    return make(**{k: params.get(k, v) for k, v in defaults.items()})


def _grid_sector(half_width: float, n: int, parity: Optional[str]):
    """The oracle's grid, and the sector ``parity`` spelled as --parity
    takes it.  Only grid commands get here, so only they load the
    eigensolver, and with it scipy's LAPACK extension."""
    from .eigensolver import Grid

    return Grid(half_width, n), None if parity in (None, "none") else Parity(parity)


# -- analyze -----------------------------------------------------------------

def _analyze_row(model: str, params: dict) -> dict:
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
    from .eigensolver import eigenvalue_by_index

    grid, sector = _grid_sector(*_MODELS[model][2])
    oracle = eigenvalue_by_index(spec, grid, 0, parity=sector).refinement_estimate
    rel = abs(est.energy - oracle) / abs(oracle)
    notes = (f"oracle minus flow limit = {oracle - est.energy:.12g}"
             if model == "morse" else "")
    return {"model": model, "rg_energy": est.energy, "oracle_energy": oracle,
            "rel_error": rel,
            "sign_branch": "positive" if est.branches is None else "ambiguous",
            "flow_law": f"g(lam) = {flow.coefficient:.12g} lam^{flow.exponent:g}",
            "notes": notes}


def cmd_analyze(args) -> int:
    models = args.models or CASE_STUDIES
    params = _params(args, models)
    rows, failed = [], False
    for model in models:
        try:
            rows.append(_analyze_row(model, params))
        except UVFlowError as exc:
            failed = True
            rows.append({"model": model, "sign_branch": "", "flow_law": "",
                         "notes": f"analyze/{model}: {type(exc).__name__}: {exc}"})
    path = _write_report(args, "analyze", ANALYZE_COLUMNS, rows)
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
    if args.lam0 == args.lam1:
        raise ConfigError(f"lam0 and lam1 must differ, both are {args.lam0!r}")
    beta = beta_numeric if args.beta == "numeric" else beta_closed_form
    errors = []
    if model == "kh":
        eps = params.get("eps_exp", 1.0)
        flow = LogFlow(params.get("K", 1.0))
        lams = np.geomspace(args.lam0, args.lam1, args.points)
        gs = map(flow, lams)  # sampled row by row, inside the loop's try
        row_beta = lambda g, lam: flow.derivative_wrt_log(lam)
        row_energy = lambda g, lam: kh.scaled_ground_energy(g, lam, eps)
    else:
        spec = build_spec(model, params)
        if args.start_on_fixed_point:
            g0 = solve_fixed_point(spec)(args.lam0)
        elif args.g0 is not None:
            g0 = args.g0
        else:
            # the model's coupling, on the side of the family's canonical
            # fixed point, where its beta is defined (g < 0 for the Coulomb
            # shapes); a family without one, Morse, keeps its sign
            fixed_point = spec.family.fixed_point
            side = 1.0 if fixed_point is None else fixed_point(spec.kappa)[0]
            g0 = math.copysign(spec.coupling, side)
        row_beta = lambda g, lam: beta(spec, g, lam)
        row_energy = lambda g, lam: pipeline_ground_energy(spec, g, lam)
        try:
            lams, gs = integrate_flow(spec, g0, args.lam0, args.lam1,
                                      n_points=args.points, beta=row_beta)
        except IntegrationAbortError as exc:
            lams, gs = exc.partial if exc.partial is not None else ([], [])
            errors.append(exc)
    rows = []
    try:  # a failing row keeps the rows before it, as an abort does
        for lam, g in zip(lams, gs):
            rows.append({"lambda": float(lam), "coupling": float(g),
                         "beta": row_beta(g, lam), "energy": row_energy(g, lam)})
    except UVFlowError as exc:
        errors.append(exc)
    path = _write_report(args, f"flow_{model}", FLOW_COLUMNS, rows)
    for exc in errors:
        print(f"flow/{model}: {type(exc).__name__}: {exc}", file=sys.stderr)
    if errors:
        print(f"wrote partial trajectory to {path}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


# -- kh-scan -----------------------------------------------------------------

def cmd_kh_scan(args) -> int:
    eps = args.eps_exp
    lambdas = np.geomspace(args.lam0, args.lam1, args.points)
    small, K, upper, lower = kh.ground_energy_limits(eps)
    rows = []
    for f in kh.log_divergence_fit(lambdas, z_window=args.z_window,
                                     n_fit=args.n_fit):
        s = math.log(f.lam)
        rows.append({"lambda": f.lam, "c0": f.c0, "c2": f.c2,
                     "c0_over_log": f.c0 / s, "c2_over_log": f.c2 / s,
                     "small_field_energy": small, "strong_field_energy": upper})
    extra = {"limits": {
        "eps_exp": _round12(eps),
        "small_field": {"energy": _round12(small), "K": _round12(K)},
        "strong_field": {"energy": _round12(upper), "K_squared": _round12(eps),
                         "branches": [_round12(upper), _round12(lower)]},
    }}
    comments = (
        f"small-field(eps_exp={_fmt(eps)}): energy={_fmt(small)} K={_fmt(K)}",
        f"strong-field(eps_exp={_fmt(eps)}): energy={_fmt(upper)} "
        f"branches={_fmt(upper)},{_fmt(lower)}",
    )
    path = _write_report(args, "kh_scan", KH_SCAN_COLUMNS, rows, extra=extra,
                         comments=comments)
    print(f"wrote {path}")
    return 0


# -- oracle ------------------------------------------------------------------

def cmd_oracle(args) -> int:
    model = args.model
    params = _params(args, [model])
    dl, dn, dparity = _MODELS[model][2]
    half_width = dl if args.half_width is None else args.half_width
    n = dn if args.n is None else args.n
    parity = dparity if args.parity is None else args.parity
    from .eigensolver import _level_count, eigenvalue_by_index

    grid, sector = _grid_sector(half_width, n, parity)
    count = _level_count(grid, sector, refine=True)
    if args.level >= count:
        raise ConfigError(f"--level {args.level} is past the last level: --n {n} "
                          f"with --parity {parity or 'none'} refines {count} levels")
    spec = build_spec(model, params)
    res = eigenvalue_by_index(spec, grid, args.level, parity=sector)
    row = {"model": model, "half_width": half_width, "n": n,
           "parity": res.parity.value if res.parity else "none",
           "level": args.level, "eigenvalue": res.eigenvalue,
           "refinement_estimate": res.refinement_estimate,
           "convergence_ratio": res.convergence_ratio}
    path = _write_report(args, f"oracle_{model}", ORACLE_COLUMNS, [row])
    print(f"{model}: level {args.level} = {_fmt(res.refinement_estimate)} "
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
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--output", help="output path (default per command)")


def _add_params(p: argparse.ArgumentParser) -> None:
    for key, text in _PARAMS.items():
        p.add_argument("--" + key.replace("_", "-"), help=text,
                       type=_real(0.0) if key in _POSITIVE else _real())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvflow", fromfile_prefix_chars="@",
        description="cutoff reductions, running couplings and oracles "
                    "for one-dimensional quantum systems; @FILE reads "
                    "arguments from FILE, one per line")
    # a blank line of an args file gives no argument, not an empty one
    parser.convert_arg_line_to_args = lambda line: [line] if line.strip() else []
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="flow prediction vs oracle per model")
    p.add_argument("models", nargs="*", metavar="model",
                   help="models to compare (default: the four case studies)")
    _add_common(p)
    _add_params(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("flow", help="write a running-coupling trajectory")
    p.add_argument("model", choices=_MODELS)
    _add_common(p)
    _add_params(p)
    start = p.add_mutually_exclusive_group()
    start.add_argument("--g0", type=_real(), help="starting coupling at lam0")
    start.add_argument("--start-on-fixed-point", action="store_true",
                       default=None,
                       help="set g0 from the canonical-oscillator matching")
    p.add_argument("--lam0", type=_real(LAMBDA_FLOOR), default=10.0,
                   help="starting cutoff (default 10)")
    p.add_argument("--lam1", type=_real(LAMBDA_FLOOR), default=1.0e4,
                   help="final cutoff (default 1e4)")
    p.add_argument("--points", type=_count(2), default=41,
                   help="rows in the trajectory (default 41)")
    p.add_argument("--beta", choices=("closed", "numeric"),
                   help="beta evaluation route (default closed)")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("kh-scan", help="dressed-kernel growth fit and limits")
    _add_common(p)
    p.add_argument("--lam0", type=_real(LAMBDA_FLOOR), default=1.0e2,
                   help="scan start (default 1e2)")
    p.add_argument("--lam1", type=_real(LAMBDA_FLOOR), default=1.0e6,
                   help="scan end (default 1e6)")
    p.add_argument("--points", type=_count(1), default=5,
                   help="scan points (default 5)")
    p.add_argument("--z-window", type=_real(0.0, 0.3), default=0.2,
                   help="fit half-width (default 0.2)")
    p.add_argument("--n-fit", type=_count(5), default=9,
                   help="fit samples (default 9)")
    p.add_argument("--eps-exp", type=_real(0.0), default=1.0,
                   help="drive-strength parameter (default 1)")
    p.set_defaults(func=cmd_kh_scan)

    p = sub.add_parser("oracle", help="solve one model on a grid")
    p.add_argument("model", choices=_MODELS)
    _add_common(p)
    _add_params(p)
    p.add_argument("--half-width", type=_real(0.0))
    p.add_argument("--n", type=_count(3, odd=True))
    p.add_argument("--parity", choices=("even", "odd", "none"))
    p.add_argument("--level", type=_count(0), default=0,
                   help="eigenvalue index (default 0)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("paper-suite", help="run all acceptance criteria")
    p.set_defaults(func=cmd_paper_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except (UnicodeDecodeError, RecursionError) as exc:
        # argparse turns only an OSError of an args file into a usage error
        parser.error(f"cannot read an args file: {exc}")
    # analyze's models are checked after parsing, not by choices= (which
    # argparse before 3.12 also applies to an empty nargs="*" list) or a
    # type: the value of an unknown option may be read as a model, and the
    # unknown option must be reported first
    for name in getattr(args, "models", ()):
        if name not in _MODELS:
            parser.error(f"argument model: invalid choice: {name!r} "
                         f"(choose from {', '.join(map(repr, _MODELS))})")
    try:
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
