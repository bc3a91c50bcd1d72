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
attractive flag that picks the quoted branch of an ambiguous level are
defined once per family, in the ``potentials.FamilyDef`` that each spec
carries; this module reads that entry and never branches on the family.  A
family with no law (every custom shape) uses the exact reduction, one with
no closed-form beta has none, and one with no fixed-point power law has its
fixed point tabulated.

The two numerical tools the flows need, a scalar Dormand-Prince integrator
and a monotone cubic interpolant, are written out here on Python floats
rather than imported, so that importing uvflow loads only numpy and
``scipy.linalg``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence, Tuple

import numpy as np

from .errors import (DomainError, FlowUndefinedError, IntegrationAbortError,
                     NoFixedPointError, NoUVLimitError)
from .potentials import PotentialSpec, with_coupling_and_cutoff
from .reduction import GroundStateEstimate, expand_at_cutoff, ho_ground_energy

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


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at an end knot, kept shape-preserving."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of the monotone piecewise cubic through (x, y).

    Fritsch & Carlson (SIAM J. Numer. Anal. 17, 238 (1980)) with the
    weighted harmonic mean of Fritsch & Butland at interior knots: zero
    where the neighbouring secants differ in sign or one vanishes.  The
    end slopes are the three-point formula of Moler's pchiptx, held to
    the sign of the end secant.  Operation for operation this is scipy's
    PchipInterpolator.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if len(m) == 1:
        return np.array([m[0], m[0]])
    d = np.zeros_like(y)
    inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
    w1 = (2.0 * h[1:] + h[:-1])[inner]
    w2 = (h[1:] + 2.0 * h[:-1])[inner]
    d[1:-1][inner] = 1.0 / ((w1 / m[:-1][inner] + w2 / m[1:][inner]) / (w1 + w2))
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


@dataclass(frozen=True)
class TabulatedFlow:
    """Sampled trajectory, interpolated monotonically in ln(Lambda).

    Between knots the coupling is the cubic Hermite polynomial on the
    ``_pchip_slopes``, so it overshoots no sample.
    """

    lams: np.ndarray
    couplings: np.ndarray
    _knots: Tuple[list, list, list] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lams = np.asarray(self.lams, dtype=float)
        if lams.ndim != 1 or len(lams) < 2 or np.any(np.diff(lams) <= 0):
            raise DomainError("tabulated flow needs strictly increasing cutoffs")
        s = np.log(lams)
        g = np.asarray(self.couplings, dtype=float)
        knots = (s.tolist(), g.tolist(), _pchip_slopes(s, g).tolist())
        object.__setattr__(self, "_knots", knots)

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
        s, g, d = self._knots
        x = math.log(lam)
        i = min(bisect_right(s, x), len(s) - 1) - 1  # x = s[-1] takes the last piece
        # power-form coefficients of the Hermite cubic on [s_i, s_i+1]
        h = s[i + 1] - s[i]
        secant = (g[i + 1] - g[i]) / h
        t = (d[i] + d[i + 1] - 2.0 * secant) / h
        c3, c2 = t / h, (secant - d[i]) / h - t
        u = x - s[i]
        return g[i] + d[i] * u + c2 * (u * u) + c3 * (u * u * u)


CouplingFlow = PowerLawFlow | LogFlow | TabulatedFlow


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
    if spec.family.energy_law is None:
        # no printed law (custom shapes); fall back to the exact reduction
        return lambda g, lam: pipeline_ground_energy(spec, g, lam)
    return partial(spec.family.energy_law, spec.shape)


# -- beta functions ---------------------------------------------------------

def beta_closed_form(spec: PotentialSpec, g: float, lam: float) -> float:
    """Hand-derived beta = dg/dln(Lambda) for the builtin families."""
    lam = _check_lam(lam)
    if spec.family.beta is None:
        raise FlowUndefinedError(f"no closed-form beta for family {spec.family.name}")
    return spec.family.beta(spec.shape, g, lam)


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
    g(Lambda) = kappa / (v''(1/Lambda)/2).  A family with a closed fixed
    point returns that power law; any other shape gets the pointwise
    solution tabulated from LAMBDA_FLOOR to 1e8.
    """
    if spec.kappa not in (0.5, 1.0):
        raise NoFixedPointError(
            f"no canonical oscillator with kinetic normalization {spec.kappa}")
    if spec.family.fixed_point is not None:
        return PowerLawFlow(*spec.family.fixed_point(spec.kappa))

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
#
# The explicit 5(4) pair of Dormand & Prince (J. Comput. Appl. Math. 6, 19
# (1980)) with the step control of Hairer, Norsett & Wanner (Solving
# Ordinary Differential Equations I, Sec. II.4) and the pair's 4th-order
# continuous extension, on Python floats for the one scalar equation.
# Tableau, starting step, controller and interpolant are those of scipy's
# RK45, so a trajectory matches solve_ivp(method="RK45") to rounding.

_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# 5th minus 4th order weights over all seven stages: the local error estimate
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
         1 / 40)
# dense output: y(t + x h) = y + h sum_j (sum_i k_i P_ij) x^(j+1), stored by
# column j, one weight per stage i
_DP_P = tuple(zip(
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423)))
_DP_SAFETY = 0.9
_DP_MIN_FACTOR = 0.2     # bounds on the step change after one attempt
_DP_MAX_FACTOR = 10.0
_DP_EXPONENT = -1.0 / 5.0  # the controlled error is O(h^5)


def _dot(ks: Sequence[float], ws: Sequence[float]) -> float:
    """sum k_i w_i, accumulated left to right."""
    acc = 0.0
    for k, w in zip(ks, ws):
        acc += k * w
    return acc


def _dormand_prince(rhs: Callable[[float, float], float], t0: float, y0: float,
                    t_eval: Sequence[float], rtol: float,
                    atol: float) -> Iterator[float]:
    """Integrate dy/dt = rhs(t, y) from t0 to t_eval[-1]; yield y at each
    point of t_eval (monotone, starting at t0) as the steps pass it.

    A step is accepted when its error estimate, scaled by
    atol + rtol max(|y_old|, |y_new|), is below 1; the next step is the
    last one times 0.9 err^(-1/5), held to [0.2, 10], and never grows
    right after a rejection.  A step below 10 ulp of t raises
    FlowUndefinedError; exceptions of ``rhs`` pass through, so the caller
    keeps every value yielded before them.
    """
    t_bound = t_eval[-1]
    direction = 1.0 if t_bound > t0 else -1.0
    t, y = t0, y0
    f = rhs(t, y)
    # starting step (Hairer, Norsett & Wanner II.4)
    span = abs(t_bound - t0)
    scale = atol + abs(y) * rtol
    d0, d1 = abs(y / scale), abs(f / scale)
    h0 = 1.0e-6 if d0 < 1.0e-5 or d1 < 1.0e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = rhs(t + h0 * direction, y + h0 * direction * f)
    d2 = abs((f1 - f) / scale) / h0
    if d1 <= 1.0e-15 and d2 <= 1.0e-15:
        h1 = max(1.0e-6, h0 * 1.0e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 5.0)
    h_abs = min(100.0 * h0, h1, span)
    emitted = 0
    while True:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise FlowUndefinedError(
                    f"the step fell below 10 ulp of ln(lam) = {t}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0.0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            ks = [f]
            for c, a in zip(_DP_C, _DP_A):
                ks.append(rhs(t + c * h, y + _dot(ks, a) * h))
            y_new = y + h * _dot(ks, _DP_B)
            f_new = rhs(t + h, y_new)
            ks.append(f_new)
            err = abs(_dot(ks, _DP_E) * h
                      / (atol + max(abs(y), abs(y_new)) * rtol))
            if err < 1.0:
                factor = (_DP_MAX_FACTOR if err == 0.0 else
                          min(_DP_MAX_FACTOR, _DP_SAFETY * err ** _DP_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_DP_MIN_FACTOR, _DP_SAFETY * err ** _DP_EXPONENT)
            rejected = True
        q = [_dot(ks, col) for col in _DP_P]
        while emitted < len(t_eval) and direction * (t_eval[emitted] - t_new) <= 0.0:
            x = (t_eval[emitted] - t) / h
            xx = x * x
            yield h * _dot(q, (x, xx, xx * x, xx * x * x)) + y
            emitted += 1
        if direction * (t_new - t_bound) >= 0.0:
            return
        t, y, f = t_new, y_new, f_new


def integrate_flow(spec: PotentialSpec, g0: float, lam0: float, lam1: float,
                   beta: str | Callable[[float, float], float] = "closed-form",
                   n_points: int = 129) -> TabulatedFlow:
    """Integrate dg/ds = beta(g, e^s) in s = ln(Lambda) from lam0 to lam1.

    The trajectory is sampled at n_points equally spaced in s.  A beta
    that fails, or a coupling that leaves the float range, aborts with an
    IntegrationAbortError whose ``partial`` holds the samples reached
    before the failure, in integration order (None when there are none).
    """
    lam0 = _check_lam(lam0)
    lam1 = _check_lam(lam1)
    s0, s1 = math.log(lam0), math.log(lam1)
    if s0 == s1:
        raise DomainError("integration endpoints coincide")
    if callable(beta):
        rhs_beta = beta
    elif beta == "closed-form":
        rhs_beta = lambda g, lam: beta_closed_form(spec, g, lam)
    elif beta == "numeric":
        rhs_beta = lambda g, lam: beta_numeric(spec, g, lam)
    else:
        raise DomainError(f"unknown beta method {beta!r}")

    def rhs(s: float, g: float) -> float:
        b = rhs_beta(g, math.exp(s))
        if not math.isfinite(b):
            raise FlowUndefinedError(f"beta is {b} at (g={g}, lam={math.exp(s)})")
        return b

    s_eval = np.linspace(s0, s1, n_points)
    gs: list[float] = []
    try:
        for g in _dormand_prince(rhs, s0, float(g0), s_eval.tolist(),
                                 rtol=1.0e-8, atol=abs(g0) * 1.0e-8 * 1e-3 + 1e-300):
            if not math.isfinite(g):
                raise FlowUndefinedError(f"the coupling reached {g}")
            gs.append(g)
    except (FlowUndefinedError, DomainError, ValueError, OverflowError) as exc:
        partial = (np.exp(s_eval[:len(gs)]), np.array(gs)) if gs else None
        raise IntegrationAbortError(f"flow integration aborted: {exc}",
                                    partial=partial) from exc
    lams = np.exp(s_eval)
    gs = np.array(gs)
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


def uv_limit_energy(spec: PotentialSpec, flow: CouplingFlow) -> GroundStateEstimate:
    """Ground level in the infinite-cutoff limit along a coupling flow.

    E0(Lambda) is sampled through the exact reduction at UV_SAMPLE_CUTOFFS
    and accelerated with one Aitken step, whose remaining-error estimate
    must be at most 1e-6 max(1, |E0|).  When
    the coupling is negative or the reduced stiffness inverted at a sample,
    the frequency root is sign-ambiguous: both branches are settled and
    carried in ``branches``, and ``energy`` quotes the lower one for an
    attractive family, the upper one otherwise.
    """
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
        return GroundStateEstimate(settle(plus))
    both = (settle(plus), settle(minus))
    energy = both[1] if spec.family.attractive else both[0]
    return GroundStateEstimate(energy, branches=both)
