"""Workload inputs, references and checks for the uvflow benchmark.

A workload turns ``--seed`` into a fixed list of operations (plain JSON the
job process executes), computes the reference for each operation before any
timing starts, and checks each job's outputs against those references.

References share no code with uvflow: exact spectra and closed-form laws
are written out here, and the dressed-kernel values come from
``scipy.integrate.quad`` with the algebraic endpoint weight, split at z.

Per-check tolerances (relative):

    grid oracle, Richardson-refined     5e-7   (worst seen 4e-7: odd Coulomb, alpha 1.5, n 2001)
    grid oracle, raw                    2e-3 * (2000 / (n - 1))**2   (h^2 error; worst 9e-4 at n 2001)
    dressed-kernel value vs quad        1e-3   (early stops reported above 1e-6, see below)
    KH expansion V(x0) vs quad          1e-3   (V'' is reported only, see below)
    log-divergence fit c0, c2           1e-3 seeded cutoffs; 1e-4 kh-scan defaults
    numeric vs closed-form beta         1e-4   (the paper-suite bound, for cutoffs 10..1e3 as there)
    completed square vs own formulas    1e-9
    UV limit vs exact                   1e-8
    energy-law drift along a flow       1e-6 Morse, quartic; 2e-3 Coulomb types (RK45 atol floor)
    tabulated fixed point at its nodes  1e-12
    CLI report cells (12 digits)        as the operation they print, at least 1e-11

Known defects, reported by name on every run that meets them and not
counted as failures (the gate tolerance above still catches a broken
quadrature, whose errors are of order one):

* Order doubling in ``dressed_integral_with_order`` can stop early, when two
  low orders happen to agree to 1e-8: the remainder it samples has a kink
  at z' = z, so Chebyshev sums converge only algebraically and erratically.
  Over 10,800 seeded points the five worst were 9.3e-6 to 5.5e-5 off quad,
  the worst at z = -0.757, cutoff 2.0e5, stopped at 64 nodes.  Values more
  than 1e-6 off are reported.
* The KH curvature V''(1/lam) from ``expand_at_cutoff`` is 1% to 7% off
  for cutoffs above about 1e3 (a 5-point stencil with step 1.2e-4 on a
  fixed-order quadrature whose node spacing is of the same size), against
  a quad-based 3-point stencil that converges as its step shrinks.
  V(1/lam) itself is right to 1e-8.

Inputs are drawn where the program completes.  Points have |z| <= 0.99 and
the 401-point shape uses cutoffs 1e5..2e5, because order doubling raises
QuadratureError at the 2^16 cap for 0.996 <= |z| < 1 at cutoffs between
about 3e2 and 1e4.  Scalar flow points use cutoffs 10..1e3: beyond that the
Morse numeric beta loses digits (2.3e-4 off at A = 4.3, cutoff 8.7e3),
because dE/dlam ~ 2 a^2 A / lam^3 sinks to the rounding level of its
central difference.  ``uvflow flow coulomb`` and ``flow soft-coulomb`` exit
1 at their defaults (alpha = 1 is outside the beta domain), so the flow
command runs for morse and quartic.  The tabulated fixed point is built on
a shape with analytic derivatives: the finite-difference fallback uses an
absolute step near x = 0 and is 4e-3 off at cutoff 1e7, 80% at 1e8.
"""

from __future__ import annotations

import csv
import math
import random
import re

QUARTIC_GROUND = 1.0603620904841829      # Hioe & Montroll (1975), p^2 + x^4
GRID_SIZES = (2001, 4001, 8001, 16001)
KH_TOL = 1.0e-3
KH_REPORT = 1.0e-6


# -- exact and closed-form references -----------------------------------------

def morse_level(A: float, k: int, a: float = 1.0, m: float = 1.0) -> float:
    """Morse (1929): E_k = -A + a sqrt(2A/m)(k + 1/2) - a^2 (k + 1/2)^2 / (2m)."""
    return -A + a * math.sqrt(2.0 * A / m) * (k + 0.5) - a * a * (k + 0.5) ** 2 / (2.0 * m)


def shape_taylor(family: str, p: dict, x: float, lam: float):
    """(kappa, v, v', v'') of the family shape at x, shape moved to lam."""
    if family == "morse":
        a, m = p.get("a", 1.0), p.get("m", 1.0)
        e1, e2 = math.exp(-a * x), math.exp(-2.0 * a * x)
        return 0.5 / m, e2 - 2.0 * e1, -2.0 * a * e2 + 2.0 * a * e1, 4.0 * a * a * e2 - 2.0 * a * a * e1
    if family == "quartic":
        return 1.0, x ** 4, 4.0 * x ** 3, 12.0 * x * x
    if family == "coulomb":
        return 0.5, -1.0 / x, 1.0 / (x * x), -2.0 / x ** 3
    if family == "soft-coulomb":
        d2 = 1.0 / (lam * lam)
        u = x * x + d2
        return 0.5, -u ** -0.5, x * u ** -1.5, (d2 - 2.0 * x * x) * u ** -2.5
    raise ValueError(family)


def reduced_level(family: str, p: dict, g: float, lam: float) -> float:
    """sqrt(kappa c) + C of the completed square at x0 = 1/lam."""
    kappa, v, v1, v2 = shape_taylor(family, p, 1.0 / lam, lam)
    V, V1, V2 = g * v, g * v1, g * v2
    return V - V1 * V1 / (2.0 * V2) + math.sqrt(kappa * abs(0.5 * V2))


def energy_law(family: str, p: dict, g: float, lam: float) -> float:
    """The printed large-cutoff level E0(g, lam) each closed-form beta keeps fixed."""
    if family == "morse":
        a, m = p.get("a", 1.0), p.get("m", 1.0)
        return a * math.sqrt(g / (2.0 * m)) - g - a * a * g / lam ** 2
    if family == "quartic":
        return math.sqrt(6.0 * g) / lam + g / (3.0 * lam ** 4)
    if family == "coulomb":
        return 0.5 * math.sqrt(-2.0 * g * lam ** 3) - 0.75 * g * lam
    if family == "soft-coulomb":
        return (0.5 * math.sqrt(-(math.sqrt(2.0) / 8.0) * g * lam ** 3)
                - (math.sqrt(2.0) / 2.0) * g * lam)
    raise ValueError(family)


def closed_beta(family: str, p: dict, g: float, lam: float) -> float:
    if family == "morse":
        a, m = p.get("a", 1.0), p.get("m", 1.0)
        return 2.0 * a * a * g / (lam ** 2 + a * a - a * lam ** 2 / math.sqrt(8.0 * m * g))
    if family == "quartic":
        u = math.sqrt(6.0 * g) / lam
        return 2.0 * g * (9.0 * lam ** 2 + 2.0 * u) / (9.0 * lam ** 2 + u)
    raise ValueError(family)


def kh_scaled_energy(K: float, eps: float) -> float:
    x = (2.0 / math.pi) * K * K / eps
    return 0.5 * math.sqrt(x) + x


def kernel_quad(z: float, lam: float) -> float:
    """I(z, lam) by QUADPACK with the (1 - z'^2)^(-1/2) weight, split at z."""
    from scipy.integrate import quad

    d2 = 1.0 / (lam * lam)
    opts = dict(weight="alg", limit=400, epsabs=0.0, epsrel=1.0e-13)
    if abs(z) >= 1.0:
        return quad(lambda t: ((z - t) ** 2 + d2) ** -0.5, -1.0, 1.0,
                    wvar=(-0.5, -0.5), **opts)[0]
    left = quad(lambda t: ((z - t) ** 2 + d2) ** -0.5 * (1.0 - t) ** -0.5,
                -1.0, z, wvar=(-0.5, 0.0), **opts)[0]
    right = quad(lambda t: ((z - t) ** 2 + d2) ** -0.5 * (1.0 + t) ** -0.5,
                 z, 1.0, wvar=(0.0, -0.5), **opts)[0]
    return left + right


def quad_fit(lams, z_window: float = 0.2, n_fit: int = 9):
    """Least-squares c0 + c2 z^2 on quad values: [(lam, c0, c2), ...]."""
    import numpy as np

    z = np.linspace(-z_window, z_window, n_fit)
    design = np.column_stack([np.ones_like(z), z * z])
    out = []
    for lam in lams:
        y = np.array([kernel_quad(float(zi), lam) for zi in z])
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        out.append((float(lam), float(coef[0]), float(coef[1])))
    return out


def rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def strata(rng: random.Random, n: int):
    """n draws in [0, 1), one per equal stratum, in random order."""
    draws = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return draws


def csv_rows(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    head = lines[0].split(",")
    return [dict(zip(head, row)) for row in csv.reader(lines[1:])]


# -- workloads ----------------------------------------------------------------

class Workload:
    """``make_ops(seed)``, ``references(ops)`` and ``check(op, out, ref)``.

    ``check`` returns one ``(ok, rel_err)`` per operation the op stands for:
    one for most ops, one per criterion for the paper suite.  ``rel_err`` is
    None where an operation has no numeric reference.  A third element, if
    present, describes a known defect the operation shows; it is reported
    and does not fail the operation.
    """

    name = ""
    why = ""
    outcomes_per_op = 1

    def make_ops(self, seed: int) -> list:
        raise NotImplementedError

    def references(self, ops: list) -> list:
        return [None] * len(ops)

    def check(self, op, out, ref):
        raise NotImplementedError


def worst(pairs):
    """One operation from several (value, reference, tolerance) checks."""
    errs = [rel(v, r) for v, r, _ in pairs]
    ok = all(e <= tol for e, (_, _, tol) in zip(errs, pairs))
    return ok, max(errs)


class PaperSuite(Workload):
    name = "paper-suite"
    why = ("what users run: 9 criteria, ~95% one Numerov shooting solve; 2 of its "
           "13 grid solves repeat an earlier input, so shooting work and "
           "repeated-solve caching show here")

    outcomes_per_op = 9
    _LINE = re.compile(r"^(PASS|FAIL)\s+(\d)\s+\S+: (.*)$", re.M)
    # printed values with an exact counterpart: (name, exact, tolerance)
    EXACT = {1: (("RG", 1.0, 1e-11), ("oracle", QUARTIC_GROUND, 1e-8)),
             2: (("RG", -0.5, 1e-11),),
             9: (("oscillator", 0.5, 1e-8),)}

    def make_ops(self, seed):
        return [{"kind": "cli", "argv": ["paper-suite"]}]

    def check(self, op, out, ref):
        found = {int(m.group(2)): (m.group(1), m.group(3))
                 for m in self._LINE.finditer(out["stdout"])}
        all_pass = len(found) == 9 and all(s == "PASS" for s, _ in found.values())
        exit_ok = out["rc"] == (0 if all_pass else 1)
        outcomes = []
        for idx in range(1, 10):
            status, details = found.get(idx, ("FAIL", ""))
            passed = exit_ok and status == "PASS"
            nums = {k: float(v) for k, v in re.findall(r"(\w+)=(-?[\d.]+(?:e-?\d+)?)", details)}
            pairs = [(nums.get(key, math.nan), exact, tol)
                     for key, exact, tol in self.EXACT.get(idx, ())]
            if pairs:
                ok, err = worst(pairs)
                outcomes.append((passed and ok, err))
            else:
                outcomes.append((passed, None))
        return outcomes


class GridOracle(Workload):
    name = "grid-oracle"
    why = ("seeded grid-oracle solves with exact spectra, n 2001..16001, refined "
           "and raw, plus analyze and oracle; 0 repeated inputs, so grid gains "
           "show and a solve cache shows none")

    # family, level, half width, parity, parameter draw, exact level
    CASES = (
        ("morse", 0, 30.0, None, lambda r: {"A": r.uniform(4.0, 9.0)},
         lambda p: morse_level(p["A"], 0)),
        ("morse", 1, 30.0, None, lambda r: {"A": r.uniform(4.0, 9.0)},
         lambda p: morse_level(p["A"], 1)),
        ("coulomb", 0, 30.0, "odd", lambda r: {"alpha": r.uniform(1.0, 1.5)},
         lambda p: -0.5 * p["alpha"] ** 2),
        ("quartic", 0, 6.0, None, lambda r: {"g": r.uniform(0.5, 4.0)},
         lambda p: p["g"] ** (1.0 / 3.0) * QUARTIC_GROUND),
        ("harmonic", 2, 12.0, None, lambda r: {"omega": r.uniform(0.5, 2.0)},
         lambda p: 2.5 * p["omega"]),
    )
    # defaults of ``uvflow oracle <model>`` and their exact levels
    ORACLE_EXACT = {"morse": morse_level(4.0, 0), "quartic": QUARTIC_GROUND,
                    "coulomb": -0.5}

    def make_ops(self, seed):
        rng = random.Random(seed)
        ops = []
        for family, level, hw, parity, draw, _ in self.CASES:
            for n in GRID_SIZES:
                for refine in (True, False):
                    ops.append({"kind": "grid", "family": family,
                                "params": draw(rng), "level": level,
                                "half_width": hw, "parity": parity, "n": n,
                                "refine": refine})
        ops.append({"kind": "cli", "argv": ["analyze"]})
        ops.append({"kind": "cli", "argv": ["oracle", rng.choice(sorted(self.ORACLE_EXACT))]})
        return ops

    def references(self, ops):
        exact = {(f, lvl): fn for f, lvl, _, _, _, fn in self.CASES}
        return [exact[(op["family"], op["level"])](op["params"])
                if op["kind"] == "grid" else None for op in ops]

    def check(self, op, out, ref):
        if op["kind"] == "grid":
            tol = 5e-7 if op["refine"] else 2e-3 * (2000.0 / (op["n"] - 1)) ** 2
            return [worst([(out, ref, tol)])]
        if out["rc"] != 0:
            return [(False, None)]
        if op["argv"][0] == "analyze":
            rows = {r["model"]: r for r in csv_rows(out["reports"]["analyze.csv"]["text"])}
            pairs = [(float(rows["morse"]["oracle_energy"]), morse_level(4.0, 0), 5e-7),
                     (float(rows["morse"]["rg_energy"]), math.sqrt(2.0) - 4.0, 1e-8),
                     (float(rows["quartic"]["oracle_energy"]), QUARTIC_GROUND, 5e-7),
                     (float(rows["quartic"]["rg_energy"]), 1.0, 1e-11),
                     (float(rows["coulomb"]["oracle_energy"]), -0.5, 5e-7),
                     (float(rows["coulomb"]["rg_energy"]), -0.5, 1e-11),
                     (float(rows["kh"]["rg_energy"]), kh_scaled_energy(1.0, 1.0), 1e-11)]
            return [worst(pairs)]
        model = op["argv"][1]
        row = csv_rows(out["reports"][f"oracle_{model}.csv"]["text"])[0]
        return [worst([(float(row["refinement_estimate"]), self.ORACLE_EXACT[model], 5e-7)])]


class KHKernel(Workload):
    name = "kh-kernel"
    why = ("seeded dressed-kernel quadrature (cost per value varies ~100x with z), "
           "the 401-point KH shape, its expansion and log fit, kh-scan; 0 repeated "
           "inputs")

    BANDS = ((0.0, 0.9), (0.9, 0.99), (1.0, 1.5))   # interior, near endpoint, outside
    PER_BAND = 12
    SHAPE_Z = [-1.5 + 3.0 * i / 400 for i in range(401)]
    SCAN_LAMS = [10.0 ** k for k in range(2, 7)]     # kh-scan default cutoffs

    def make_ops(self, seed):
        rng = random.Random(seed)
        ops = []
        for lo, hi in self.BANDS:
            # stratified in |z| and in log(lam), so the cost of a job is
            # nearly the same for every seed
            for u, v in zip(strata(rng, self.PER_BAND), strata(rng, self.PER_BAND)):
                z = rng.choice((-1.0, 1.0)) * (lo + (hi - lo) * u)
                ops.append({"kind": "kh_point", "z": z, "lam": 10.0 ** (2.0 + 4.0 * v)})
        ops.append({"kind": "kh_shape", "alpha": rng.uniform(0.5, 2.0),
                    "eps_exp": rng.uniform(0.5, 2.0),
                    "lam": log_uniform(rng, 1.0e5, 2.0e5), "z": self.SHAPE_Z})
        ops.append({"kind": "kh_expand", "alpha": rng.uniform(0.5, 2.0),
                    "eps_exp": rng.uniform(0.5, 2.0),
                    "lam": log_uniform(rng, 1.0e2, 1.0e6)})
        ops.append({"kind": "kh_fit",
                    "lams": sorted(10.0 ** (2.0 + 4.0 * v) for v in strata(rng, 5))})
        ops.append({"kind": "cli", "argv": ["kh-scan"]})
        return ops

    def references(self, ops):
        refs = []
        for op in ops:
            kind = op["kind"]
            if kind == "kh_point":
                refs.append(kernel_quad(op["z"], op["lam"]))
            elif kind == "kh_shape":
                scale = op["alpha"] / (math.pi * op["eps_exp"])
                refs.append([scale * kernel_quad(z, op["lam"]) for z in op["z"]])
            elif kind == "kh_expand":
                scale = op["alpha"] / (math.pi * op["eps_exp"])
                z0, h, lam = 1.0 / op["lam"], 1.0e-3, op["lam"]
                i0 = kernel_quad(z0, lam)
                i2 = (kernel_quad(z0 + h, lam) - 2.0 * i0 + kernel_quad(z0 - h, lam)) / (h * h)
                refs.append((scale * i0, scale * i2))
            elif kind == "kh_fit":
                refs.append(quad_fit(op["lams"]))
            else:
                refs.append(quad_fit(self.SCAN_LAMS))
        return refs

    def check(self, op, out, ref):
        kind = op["kind"]
        if kind == "kh_point":
            ok, err = worst([(out[0], ref, KH_TOL)])
            if err > KH_REPORT:
                return [(ok, err, f"dressed integral stopped early: {err:.2e} off quad at "
                                  f"z={op['z']:.6g}, cutoff {op['lam']:.6g}, {out[1]} nodes")]
            return [(ok, err)]
        if kind == "kh_shape":
            if len(out) != len(ref):
                return [(False, None)]
            ok, err = worst([(v, r, KH_TOL) for v, r in zip(out, ref)])
            if err > KH_REPORT:
                return [(ok, err, f"KH shape at cutoff {op['lam']:.6g}: worst value "
                                  f"{err:.2e} off quad")]
            return [(ok, err)]
        if kind == "kh_expand":
            # V'' is reported, not gated (known defect, see the module notes)
            off = rel(out[2], ref[1])
            return [(*worst([(out[0], ref[0], KH_TOL)]),
                     f"KH expansion V'' is {off:.2e} off the quad stencil at cutoff {op['lam']:.6g}")]
        if kind == "kh_fit":
            return [worst([(c, rc, KH_TOL) for row, rrow in zip(out, ref)
                           for c, rc in zip(row[1:], rrow[1:])])]
        if out["rc"] != 0:
            return [(False, None)]
        rows = csv_rows(out["reports"]["kh_scan.csv"]["text"])
        pairs = [(float(row[col]), rrow[k], 1e-4) for row, rrow in zip(rows, ref)
                 for k, col in ((1, "c0"), (2, "c2"))]
        half_root = 0.5 * math.sqrt(2.0 / math.pi)
        pairs += [(float(rows[0]["small_field_energy"]), 0.5, 1e-11),
                  (float(rows[0]["strong_field_energy"]), 2.0 / math.pi + half_root, 1e-11)]
        return [worst(pairs) if len(rows) == len(ref) else (False, None)]


class RGFlow(Workload):
    name = "rg-flow"
    why = ("seeded scalar reduction, both betas, UV limits and flow integration "
           "for four families, plus flow; 0 repeated inputs; where family "
           "dispatch lives, so a registry refactor must show no change")

    POINTS_PER_FAMILY = 40
    DRIFT_TOL = {"morse": 1e-6, "quartic": 1e-6, "coulomb": 2e-3, "soft-coulomb": 2e-3}

    @staticmethod
    def _coupling(family, rng):
        if family == "morse":
            # A >= 1 keeps the printed level sqrt(A/2) - A away from zero
            return rng.uniform(1.0, 8.0)
        if family == "quartic":
            return log_uniform(rng, 0.1, 10.0)
        return -log_uniform(rng, 0.05, 2.0)

    @staticmethod
    def _params(family, g, rng):
        key = {"morse": "A", "quartic": "g"}.get(family, "alpha")
        p = {key: g}
        if family == "soft-coulomb":
            p["lam"] = log_uniform(rng, 50.0, 500.0)
        return p

    def make_ops(self, seed):
        rng = random.Random(seed)
        families = ("morse", "quartic", "coulomb", "soft-coulomb")
        ops = []
        for family in families:
            for u in strata(rng, self.POINTS_PER_FAMILY):
                g = self._coupling(family, rng)
                ops.append({"kind": "rg_point", "family": family,
                            "params": self._params(family, g, rng), "g": g,
                            "lam": 10.0 ** (1.0 + 2.0 * u)})
        for family in families:
            g = self._coupling(family, rng)
            ops.append({"kind": "uv_limit", "family": family,
                        "params": self._params(family, g, rng),
                        "flow": "constant" if family == "morse" else "fixed"})
        for family in families:
            for beta in ("closed-form", "numeric"):
                g = self._coupling(family, rng)
                ops.append({"kind": "integrate", "family": family,
                            "params": self._params(family, g, rng), "g0": g,
                            "lam0": 10.0, "lam1": 1.0e4, "beta": beta})
        ops.append({"kind": "fixed_point", "family": "sextic",
                    "params": {"b": rng.uniform(0.1, 1.0)}})
        ops.append({"kind": "cli", "argv": ["flow", "morse"]})
        ops.append({"kind": "cli", "argv": ["flow", "quartic"]})
        return ops

    def check(self, op, out, ref):
        kind, family = op["kind"], op.get("family")
        if kind == "rg_point":
            energy, bc, bn = out
            pairs = [(energy, reduced_level(family, op["params"], op["g"], op["lam"]), 1e-9),
                     (bn, bc, 1e-4)]
            return [worst(pairs)]
        if kind == "uv_limit":
            # fixed-point flows pin the level of the canonical oscillator;
            # the constant Morse flow gives the printed law a sqrt(A/2m) - A
            if family == "morse":
                exact = math.sqrt(op["params"]["A"] / 2.0) - op["params"]["A"]
            else:
                exact = 1.0 if family == "quartic" else -0.5
            return [worst([(out, exact, 1e-8)])]
        if kind == "integrate":
            lams, gs = out
            return [self._drift(family, op["params"], lams, gs, self.DRIFT_TOL[family])]
        if kind == "fixed_point":
            b = op["params"]["b"]
            pairs = [(g, 1.0 / (0.5 * (12.0 / l ** 2 + 30.0 * b / l ** 4)), 1e-12)
                     for l, g in zip(*out)]
            return [worst(pairs)]
        if out["rc"] != 0:
            return [(False, None)]
        model = op["argv"][1]
        rows = csv_rows(out["reports"][f"flow_{model}.csv"]["text"])
        lams = [float(r["lambda"]) for r in rows]
        gs = [float(r["coupling"]) for r in rows]
        p = {"A": 4.0} if model == "morse" else {"g": 1.0}
        ok, err = self._drift(model, p, lams, gs, 1e-6)
        betas = [(float(r["beta"]), closed_beta(model, p, g, l), 1e-10)
                 for r, g, l in zip(rows, gs, lams)]
        ok2, err2 = worst(betas)
        return [(ok and ok2, max(err, err2))]

    @staticmethod
    def _drift(family, p, lams, gs, tol):
        if not lams:
            return False, None
        e0 = energy_law(family, p, gs[0], lams[0])
        return worst([(energy_law(family, p, g, l), e0, tol) for l, g in zip(lams, gs)])


WORKLOADS = {w.name: w for w in (PaperSuite(), GridOracle(), KHKernel(), RGFlow())}
