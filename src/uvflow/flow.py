"""Running couplings from cutoff independence of the reduced ground level.

Requiring dE0/dLambda = 0 for the reduced-oscillator level E0(g, Lambda)
turns the coupling into a running one,

    dg/dln(Lambda) = beta(g, Lambda) = -Lambda (dE0/dLambda) / (dE0/dg).

Each builtin family carries two descriptions of the same flow:

* ``beta_closed_form``   the hand-derived expression for that family;
* ``beta_numeric``       implicit differentiation of the family's energy
                         law by central finite differences.

The energy law E0(g, Lambda) is the large-cutoff form the closed-form beta
was derived from.  For the quartic and Coulomb families it coincides (to
rounding) with the exact completed-square pipeline; for the Morse family it
is the leading large-Lambda form, which the exact expansion only approaches
as Lambda grows (see ``pipeline_ground_energy`` to evaluate the exact
route).

The laws, the closed-form betas, the fixed-point power laws and the
attractive flag behind ``default_sign_policy`` are defined once per family,
in ``potentials.FAMILIES``; this module reads that entry and never branches
on the family.  Custom shapes have no entry: their law is the exact
reduction, they have no closed-form beta, their fixed point is tabulated
and their default policy prefers the positive root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from .errors import (DomainError, FlowUndefinedError, IntegrationAbortError,
                     NoFixedPointError, NoUVLimitError)
from .potentials import FAMILIES, PotentialSpec, with_coupling_and_cutoff
from .reduction import (GroundStateEstimate, SignBranch, expand_at_cutoff,
                        ho_ground_energy)

LAMBDA_FLOOR = 2.0

_EPS = float(np.finfo(float).eps)
_FD_STEP = _EPS ** (1.0 / 3.0)


def _check_lam(lam: float) -> float:
    lam = float(lam)
    if not lam > LAMBDA_FLOOR:
        raise DomainError(f"cutoff {lam} is at or below the floor {LAMBDA_FLOOR}")
    return lam


# -- coupling flows ---------------------------------------------------------

@dataclass(frozen=True)
class PowerLawFlow:
    """g(Lambda) = coefficient * Lambda**exponent."""

    coefficient: float
    exponent: float

    def __call__(self, lam: float) -> float:
        if not lam >= LAMBDA_FLOOR:
            raise DomainError(f"cutoff {lam} is below the floor {LAMBDA_FLOOR}")
        return self.coefficient * lam ** self.exponent


@dataclass(frozen=True)
class LogFlow:
    """g(Lambda) = K**2 / ln(Lambda), the logarithmic running solution."""

    K: float

    def __call__(self, lam: float) -> float:
        if not lam >= LAMBDA_FLOOR:
            raise DomainError(f"cutoff {lam} is below the floor {LAMBDA_FLOOR}")
        return self.K ** 2 / math.log(lam)

    def derivative_wrt_log(self, lam: float) -> float:
        """d g / d ln(Lambda), analytic."""
        s = math.log(lam)
        return -self.K ** 2 / (s * s)


@dataclass(frozen=True)
class TabulatedFlow:
    """Sampled trajectory, interpolated monotonically in ln(Lambda)."""

    lams: np.ndarray
    couplings: np.ndarray
    _interp: PchipInterpolator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lams = np.asarray(self.lams, dtype=float)
        if lams.ndim != 1 or len(lams) < 2 or np.any(np.diff(lams) <= 0):
            raise DomainError("tabulated flow needs strictly increasing cutoffs")
        interp = PchipInterpolator(np.log(lams), np.asarray(self.couplings, dtype=float))
        object.__setattr__(self, "_interp", interp)

    @property
    def lam_min(self) -> float:
        return float(self.lams[0])

    @property
    def lam_max(self) -> float:
        return float(self.lams[-1])

    def __call__(self, lam: float) -> float:
        if not (self.lam_min <= lam <= self.lam_max):
            raise DomainError(f"cutoff {lam} outside tabulated range "
                              f"[{self.lam_min}, {self.lam_max}]")
        return float(self._interp(math.log(lam)))


CouplingFlow = PowerLawFlow | LogFlow | TabulatedFlow


class SignPolicy(Enum):
    PREFER_NEGATIVE = "prefer-negative"
    PREFER_POSITIVE = "prefer-positive"


def default_sign_policy(spec: PotentialSpec) -> SignPolicy:
    """Attractive families resolve the root downward, confining ones upward."""
    fam = FAMILIES.get(spec.family)
    if fam is not None and fam.attractive:
        return SignPolicy.PREFER_NEGATIVE
    return SignPolicy.PREFER_POSITIVE


# -- energy laws ------------------------------------------------------------

def pipeline_ground_energy(spec: PotentialSpec, g: float, lam: float) -> float:
    """E0 through the exact completed-square route (positive branch)."""
    red = expand_at_cutoff(with_coupling_and_cutoff(spec, g, lam), lam)
    return ho_ground_energy(red).energy


def uv_energy_law(spec: PotentialSpec) -> Callable[[float, float], float]:
    """The closed-form large-cutoff level E0(g, Lambda) for the family.

    This is the expression the family's closed-form beta is the implicit
    derivative of.  For quartic and Coulomb it equals the exact reduction;
    for Morse and the regularized Coulomb it is the printed large-Lambda
    form (the regularized-Coulomb one keeps the printed bracket constant,
    which differs from the generic completed square; see README).
    """
    fam = FAMILIES.get(spec.family)
    if fam is None:
        # no printed law for custom shapes; fall back to the exact reduction
        return lambda g, lam: pipeline_ground_energy(spec, g, lam)
    return partial(fam.energy_law, spec.shape)


# -- beta functions ---------------------------------------------------------

def beta_closed_form(spec: PotentialSpec, g: float, lam: float) -> float:
    """Hand-derived beta = dg/dln(Lambda) for the builtin families."""
    lam = _check_lam(lam)
    fam = FAMILIES.get(spec.family)
    if fam is None:
        raise FlowUndefinedError(f"no closed-form beta for family {spec.family.value}")
    return fam.beta(spec.shape, g, lam)


def beta_numeric(spec: PotentialSpec, g: float, lam: float) -> float:
    """beta = -Lambda (dE0/dLambda)/(dE0/dg) by central finite differences
    of the family's energy law (see uv_energy_law)."""
    lam = _check_lam(lam)
    energy = uv_energy_law(spec)
    hg = (abs(g) if g != 0.0 else 1.0) * _FD_STEP
    hl = lam * _FD_STEP
    de_dg = (energy(g + hg, lam) - energy(g - hg, lam)) / (2.0 * hg)
    de_dl = (energy(g, lam + hl) - energy(g, lam - hl)) / (2.0 * hl)
    if de_dg == 0.0 or not math.isfinite(de_dg) or not math.isfinite(de_dl):
        raise FlowUndefinedError(
            f"cutoff independence is degenerate at (g={g}, lam={lam})")
    return -lam * de_dl / de_dg


# -- fixed points -----------------------------------------------------------

def solve_fixed_point(spec: PotentialSpec) -> CouplingFlow:
    """Coupling law g(Lambda) that holds the reduced oscillator canonical.

    The canonical forms p^2 + x^2 (kappa = 1) and (p^2 + x^2)/2
    (kappa = 1/2) both have stiffness kappa, so pointwise
    g(Lambda) = kappa / (v''(1/Lambda)/2).  A builtin family with a
    closed fixed point returns that power law; any other shape gets the
    pointwise solution tabulated from LAMBDA_FLOOR to 1e8.
    """
    if spec.kappa not in (0.5, 1.0):
        raise NoFixedPointError(
            f"no canonical oscillator with kinetic normalization {spec.kappa}")
    fam = FAMILIES.get(spec.family)
    if fam is not None and fam.fixed_point is not None:
        return PowerLawFlow(*fam.fixed_point(spec.kappa))

    def pointwise(lam: float) -> float:
        moved = with_coupling_and_cutoff(spec, 1.0, lam)
        _, _, v2 = moved.shape_derivatives(1.0 / lam)
        if v2 == 0.0:
            raise NoFixedPointError(f"flat shape curvature at cutoff {lam}")
        return spec.kappa / (0.5 * v2)

    lams = np.geomspace(LAMBDA_FLOOR, 1.0e8, 25 * 8 + 1)
    vals = np.array([pointwise(l) for l in lams])
    if np.any(~np.isfinite(vals)):
        raise NoFixedPointError("pointwise stiffness match is not finite")
    return TabulatedFlow(lams, vals)


# -- flow integration -------------------------------------------------------

def integrate_flow(spec: PotentialSpec, g0: float, lam0: float, lam1: float,
                   beta: str | Callable[[float, float], float] = "closed-form",
                   n_points: int = 129) -> TabulatedFlow:
    """Integrate dg/ds = beta(g, e^s) in s = ln(Lambda) from lam0 to lam1."""
    lam0 = _check_lam(lam0)
    lam1 = _check_lam(lam1)
    if lam0 == lam1:
        raise DomainError("integration endpoints coincide")
    if callable(beta):
        rhs_beta = beta
    elif beta == "closed-form":
        rhs_beta = lambda g, lam: beta_closed_form(spec, g, lam)
    elif beta == "numeric":
        rhs_beta = lambda g, lam: beta_numeric(spec, g, lam)
    else:
        raise DomainError(f"unknown beta method {beta!r}")

    def rhs(s, y):
        return [rhs_beta(y[0], math.exp(s))]

    s0, s1 = math.log(lam0), math.log(lam1)
    s_eval = np.linspace(s0, s1, n_points)
    try:
        sol = solve_ivp(rhs, (s0, s1), [float(g0)], t_eval=s_eval,
                        rtol=1.0e-8, atol=abs(g0) * 1.0e-8 * 1e-3 + 1e-300,
                        method="RK45")
    except (FlowUndefinedError, DomainError, ValueError, OverflowError) as exc:
        raise IntegrationAbortError(f"beta evaluation failed mid-flow: {exc}") from exc
    good = np.isfinite(sol.y[0])
    if not sol.success or not good.all():
        lams_ok = np.exp(sol.t[good])
        gs_ok = sol.y[0][good]
        raise IntegrationAbortError(
            f"flow integration aborted: {sol.message}",
            partial=(lams_ok, gs_ok) if len(gs_ok) else None)
    lams = np.exp(sol.t)
    gs = sol.y[0]
    if lams[0] > lams[-1]:
        lams, gs = lams[::-1], gs[::-1]
    # exp(log(lam)) rounding must not shrink the range past the endpoints
    lams[0], lams[-1] = min(lam0, lam1), max(lam0, lam1)
    return TabulatedFlow(lams, gs)


# -- large-cutoff limit -----------------------------------------------------

UV_SAMPLE_CUTOFFS = (1.0e3, 10.0 ** 4.5, 1.0e6)


def _aitken(e1: float, e2: float, e3: float) -> Tuple[float, float]:
    """One acceleration step: (estimate, estimated remaining error).

    For a geometrically settling tail e_k = e* + A r^k the step is exact;
    the error estimate scales the applied correction by r once more.  A
    non-shrinking tail (|r| >= 1) gets an infinite error estimate.
    """
    d1, d2 = e2 - e1, e3 - e2
    if d1 == 0.0 or d2 == 0.0:
        return e3, abs(d2)
    ratio = d2 / d1
    if abs(ratio) >= 1.0:
        return e3, math.inf
    correction = d2 * ratio / (1.0 - ratio)
    return e3 + correction, abs(correction * ratio)


def uv_limit_energy(spec: PotentialSpec, flow: CouplingFlow,
                    policy: Optional[SignPolicy] = None) -> GroundStateEstimate:
    """Ground level in the infinite-cutoff limit along a coupling flow.

    E0(Lambda) is sampled through the exact reduction at UV_SAMPLE_CUTOFFS
    and accelerated with one Aitken step, whose remaining-error estimate
    must be at most 1e-6 max(1, |E0|).  When
    the coupling is negative or the reduced stiffness inverted at a sample,
    the frequency root is sign-ambiguous: both branches are settled and
    carried in ``branches``, and ``policy`` picks the one ``energy``
    quotes.
    """
    if policy is None:
        policy = default_sign_policy(spec)
    roots, offsets, flipped = [], [], False
    for lam in UV_SAMPLE_CUTOFFS:
        try:
            g = flow(lam)
        except DomainError as exc:
            raise NoUVLimitError(f"flow not defined up to cutoff {lam}: {exc}") from exc
        red = expand_at_cutoff(with_coupling_and_cutoff(spec, g, lam), lam)
        roots.append(math.sqrt(red.kappa * abs(red.stiffness)))
        offsets.append(red.offset)
        if red.stiffness < 0.0 or g < 0.0:
            flipped = True
    plus = [c + r for c, r in zip(offsets, roots)]
    minus = [c - r for c, r in zip(offsets, roots)]

    def settle(series):
        est, err = _aitken(*series)
        if err > 1.0e-6 * max(1.0, abs(est)):
            raise NoUVLimitError(
                "reduced level is still drifting at the largest cutoffs",
                trend=list(zip(UV_SAMPLE_CUTOFFS, series)))
        return est

    if not flipped:
        return GroundStateEstimate(settle(plus), SignBranch.POSITIVE)
    both = (settle(plus), settle(minus))
    energy = both[1] if policy is SignPolicy.PREFER_NEGATIVE else both[0]
    return GroundStateEstimate(energy, SignBranch.AMBIGUOUS, branches=both)
