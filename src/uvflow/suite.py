"""Bundled acceptance checks behind the ``uvflow paper-suite`` command.

Each criterion is a standalone function returning a CriterionResult with
the measured numbers in ``details``; the CLI prints one PASS/FAIL line per
criterion and the test suite asserts on the same functions.  Tolerances
are pinned here, not in the callers.  Criteria 1, 8 and 9 quote one shared
grid solve, the refined quartic(1) level on Grid(6, 4001), which
``_quartic_level`` makes once per process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kh
from .eigensolver import Grid, ground_state
from .flow import (LogFlow, beta_closed_form, beta_numeric,
                   pipeline_ground_energy, solve_fixed_point, uv_limit_energy)
from .potentials import Parity, coulomb, custom, morse, quartic, soft_coulomb
from .shooting import shooting_ground_energy


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str


def _half_oscillator():
    """The canonical (p^2 + x^2)/2 as a custom spec (exact level 1/2)."""
    return custom(lambda x: 0.5 * np.asarray(x, dtype=float) ** 2, kappa=0.5,
                  d1=lambda x: float(x), d2=lambda x: 1.0)


@functools.cache
def _quartic_level() -> float:
    """Refined quartic(1) level on Grid(6, 4001), for criteria 1, 8 and 9.

    ``ground_state`` is looked up when the level is first made, so a
    tracer or spy swapped in for it sees the one solve.
    """
    return ground_state(quartic(1.0), Grid(6.0, 4001)).refinement_estimate


def criterion_1() -> CriterionResult:
    """Quartic: flow limit exactly 1 against oracle ~1.06036 (5..7% off)."""
    spec = quartic(1.0)
    rg = uv_limit_energy(spec, solve_fixed_point(spec)).energy
    oracle = _quartic_level()
    rel = abs(rg - oracle) / abs(oracle)
    passed = (abs(rg - 1.0) <= 1.0e-12
              and abs(oracle - 1.06036) <= 1.0e-4
              and 0.05 <= rel <= 0.07)
    return CriterionResult(1, "quartic-uv-prediction", passed,
                           f"RG={rg:.12g} oracle={oracle:.10g} rel={rel:.4%}")


def criterion_2() -> CriterionResult:
    """Coulomb: flow limit -1/2; softened odd levels approach it monotonically."""
    spec = coulomb(1.0)
    est = uv_limit_energy(spec, solve_fixed_point(spec))
    softenings = (1.0e-1, 1.0e-2, 1.0e-3)
    levels = [ground_state(soft_coulomb(1.0, 1.0 / s), Grid(30.0, 4001),
                           parity=Parity.ODD).refinement_estimate
              for s in softenings]
    monotone = levels[0] > levels[1] > levels[2] > -0.5
    s2, s3 = softenings[1], softenings[2]
    extrap = levels[2] - s3 * (levels[1] - levels[2]) / (s2 - s3)
    passed = (abs(est.energy + 0.5) <= 1.0e-12 and monotone
              and abs(extrap + 0.5) <= 0.02 * 0.5)
    return CriterionResult(
        2, "coulomb-uv-prediction", passed,
        f"RG={est.energy:.12g} levels={[f'{e:.8f}' for e in levels]} "
        f"extrapolated={extrap:.6f}")


def criterion_3() -> CriterionResult:
    """Morse: oracle minus the flow-limit law is -1/8, independent of depth."""
    gaps = []
    for A in (1.0, 4.0, 9.0):
        oracle = ground_state(morse(A), Grid(30.0, 4001)).refinement_estimate
        gaps.append(oracle - (math.sqrt(A / 2.0) - A))
    spread = max(gaps) - min(gaps)
    passed = spread <= 1.0e-4 and all(abs(g + 0.125) <= 1.0e-4 for g in gaps)
    return CriterionResult(
        3, "morse-constant-gap", passed,
        f"gaps={[f'{g:.8f}' for g in gaps]} spread={spread:.3g}")


def criterion_4() -> CriterionResult:
    """Numeric and closed-form betas agree to 1e-4 on the family test grids."""
    cases = [
        (morse(1.0), (0.5, 1.0, 4.0)),
        (quartic(1.0), (0.5, 1.0, 2.0)),
        (coulomb(1.0), (-1.0, -0.5, -0.1)),
        (soft_coulomb(1.0, 100.0), (-1.0, -0.5, -0.1)),
    ]
    worst, where = 0.0, ""
    for spec, couplings in cases:
        for g in couplings:
            for lam in (10.0, 100.0, 1000.0):
                bc = beta_closed_form(spec, g, lam)
                bn = beta_numeric(spec, g, lam)
                rel = abs(bn - bc) / abs(bc)
                if rel > worst:
                    worst, where = rel, f"{spec.family.name}(g={g}, lam={lam})"
    passed = worst <= 1.0e-4
    return CriterionResult(4, "beta-cross-validation", passed,
                           f"worst rel diff {worst:.3g} at {where}")


def criterion_5() -> CriterionResult:
    """Level is cutoff-independent along the two closed fixed-point flows."""
    e_q = [pipeline_ground_energy(quartic(1.0), lam * lam / 6.0, lam)
           for lam in (1.0e3, 1.0e6)]
    var_q = abs(e_q[1] - e_q[0]) / abs(e_q[1])
    e_c = [pipeline_ground_energy(coulomb(1.0), -0.5 / lam ** 3, lam)
           for lam in (1.0e3, 1.0e6)]
    var_c = abs(e_c[1] - e_c[0]) / abs(e_c[1])
    passed = var_q <= 1.0e-4 and var_c <= 1.0e-4
    return CriterionResult(5, "fixed-point-independence", passed,
                           f"quartic var={var_q:.3g} coulomb var={var_c:.3g}")


def criterion_6() -> CriterionResult:
    """Dressed kernel grows like ln(lam)(2 + z^2); closed form matches an
    independent midpoint sum."""
    lams = (1.0e2, 1.0e3, 1.0e4, 1.0e5, 1.0e6)
    fit = kh.log_divergence_fit(lams, z_window=0.2, n_fit=9)
    top = fit[-1]
    ratio = top.c2 / math.log(top.lam)
    slope = float(np.polyfit([math.log(f.lam) for f in fit],
                             [f.c0 for f in fit], 1)[0])
    # the plain midpoint rule in theta over [0, pi]; the integrand is smooth
    # and periodic, so 2^17 nodes reach rounding at lam = 1e4.  Blocks of
    # 2^14 nodes, transformed in place, keep the work array small.
    z, lam, n, block = 0.3, 1.0e4, 2 ** 17, 2 ** 14
    total = 0.0
    for start in range(0, n, block):
        t = np.arange(start + 0.5, start + block, dtype=float)
        t *= math.pi / n
        np.cos(t, out=t)
        np.subtract(z, t, out=t)
        np.square(t, out=t)
        t += 1.0 / (lam * lam)
        np.sqrt(t, out=t)
        total += float(np.reciprocal(t, out=t).sum())
    value = kh.dressed_potential_integral(z, lam)
    mid_rel = abs((math.pi / n) * total - value) / value
    passed = (abs(ratio - 1.0) <= 0.10 and abs(slope - 2.0) <= 0.05 * 2.0
              and mid_rel <= 1.0e-12)
    return CriterionResult(
        6, "kh-log-divergence", passed,
        f"c2/ln={ratio:.5f} dc0/dln={slope:.5f} midpoint rel={mid_rel:.3g}")


def criterion_7() -> CriterionResult:
    """Log flow solves its own flow equation; scaled level cutoff-independent."""
    flow = LogFlow(1.3)
    lams = np.geomspace(1.0e2, 1.0e6, 9)
    resid = max(abs(flow.derivative_wrt_log(l) + flow(l) / math.log(l))
                for l in lams)
    es = [kh.scaled_ground_energy(flow(l), l, 2.0) for l in lams]
    var = (max(es) - min(es)) / abs(es[-1])
    passed = resid <= 1.0e-12 and var <= 1.0e-10
    return CriterionResult(7, "kh-cs-flow", passed,
                           f"ODE residual={resid:.3g} level variation={var:.3g}")


def criterion_8() -> CriterionResult:
    """Coupling-scaling laws hold in the oracle (cube root and square)."""
    e1 = _quartic_level()
    e8 = ground_state(quartic(8.0), Grid(6.0, 4001)).refinement_estimate
    rel_q = abs(e8 - 2.0 * e1) / abs(e8)
    s1 = ground_state(soft_coulomb(1.0, 50.0), Grid(30.0, 4001),
                      parity=Parity.ODD).refinement_estimate
    # halved box: the x -> x/2 rescaling behind the law maps the alpha=2
    # problem on [-15, 15] onto the alpha=1 grid exactly
    s2 = ground_state(soft_coulomb(2.0, 100.0), Grid(15.0, 4001),
                      parity=Parity.ODD).refinement_estimate
    rel_s = abs(s2 - 4.0 * s1) / abs(s2)
    passed = rel_q <= 1.0e-5 and rel_s <= 1.0e-5
    return CriterionResult(8, "scaling-laws", passed,
                           f"quartic rel={rel_q:.3g} soft-coulomb rel={rel_s:.3g}")


def criterion_9() -> CriterionResult:
    """Oracle soundness: exact oscillator, h^2 convergence, dual routes agree."""
    res = ground_state(_half_oscillator(), Grid(12.0, 4001))
    shoot_q = shooting_ground_energy(quartic(1.0), 6.0, parity=Parity.EVEN)
    agree = abs(_quartic_level() - shoot_q)
    passed = (abs(res.refinement_estimate - 0.5) <= 1.0e-8
              and 3.5 <= res.convergence_ratio <= 4.5
              and agree <= 1.0e-7)
    return CriterionResult(
        9, "oracle-soundness", passed,
        f"oscillator={res.refinement_estimate:.12g} "
        f"ratio={res.convergence_ratio:.4f} grid-vs-shooting={agree:.3g}")


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
