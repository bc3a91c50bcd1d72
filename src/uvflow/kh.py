"""Drive-averaged binding kernel and its logarithmic running coupling.

A charge bound by an attractive center and shaken by a fast periodic drive
sees, to leading order, the time average of the displaced center.  In units
of the drive amplitude (z = x/amplitude) that average is the kernel

    I(z, Lambda) = integral over z' in [-1, 1] of
                   [(z - z')^2 + 1/Lambda^2]^(-1/2) (1 - z'^2)^(-1/2) dz',

with the short-distance regulator 1/Lambda smoothing the passage of the
center through z.  I grows like ln(Lambda) (2 + z^2) near z = 0, so the
reduced problem is an oscillator whose coupling runs logarithmically; the
cutoff-independence condition integrates in closed form to

    alpha(Lambda) = K^2 / ln(Lambda).

This module provides the quadrature for I, the quadratic fit that measures
its logarithmic growth, the closed-form flow, the scaled oscillator level
along it, and the two printed limiting energies (weak and strong drive).

Quadrature note: Gauss-Chebyshev absorbs the endpoint weight
(1 - z'^2)^(-1/2) exactly, but the kernel factor varies on scale 1/Lambda
near z' = z and plain Chebyshev sampling would need order ~Lambda nodes.
The first-order local expansion of the endpoint weight around z' = z is
therefore integrated against the kernel in closed form and only the smooth
remainder is sampled; order doubling then converges for cutoffs up to 1e6
well inside the 2^16-node cap.

Both quadrature entry points take a scalar z or an array of z.  A call
builds the order-n node table once and samples all points against it in
tiles of at most 2^14 (point, node) pairs, so the work arrays stay small at
every order; each point's samples are added by numpy's pairwise sum.  Order
doubling keeps a per-point convergence mask, so every point stops at the
order it would reach on its own.

Two limits remain.  Two low orders can agree to 1e-8 by accident, because
the sampled remainder has a kink at z' = z and converges only algebraically;
such an early stop has been seen 5.5e-5 off an adaptive reference (z = -0.757,
Lambda = 2e5, 64 nodes).  And for 0.996 <= |z| < 1 at cutoffs from about 3e2
to 1e4, doubling stalls at the cap and raises QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, FitDegenerateError, QuadratureError
from .flow import LAMBDA_FLOOR, LogFlow
from .potentials import PotentialSpec, custom

_REL_TOL = 1.0e-8
_N_MAX = 2 ** 16
_TILE = 2 ** 14          # (point, node) pairs in one work array


def _fixed_order(z: np.ndarray, lam: float, n: int) -> np.ndarray:
    """I at order n for a 1-D float array z; lam > 0 and n >= 2 are checked
    by the callers."""
    # theta_k = (2k - 1) pi / (2n), built in place; sin(theta) then takes
    # over its buffer, so the table is two arrays of n
    theta = np.arange(1, n + 1, dtype=float)
    theta *= 2.0
    theta -= 1.0
    theta *= math.pi / (2.0 * n)
    zp = np.cos(theta)
    sin_t = np.sin(theta, out=theta)
    delta = 1.0 / lam
    dd = delta * delta
    out = np.empty(z.shape)
    # kernel is smooth on the whole interval outside; plain Chebyshev suffices
    outside = np.abs(z) >= 1.0
    out[outside] = (math.pi / n) * _sampled_sums(z[outside], dd, zp)
    inside = ~outside
    zi = z[inside]
    w0 = 1.0 / np.sqrt(1.0 - zi * zi)
    w1 = zi * w0 ** 3
    s0 = np.arcsinh((1.0 - zi) / delta) + np.arcsinh((1.0 + zi) / delta)
    s1 = np.sqrt((1.0 - zi) ** 2 + dd) - np.sqrt((1.0 + zi) ** 2 + dd)
    out[inside] = (w0 * s0 + w1 * s1
                   + (math.pi / n) * _sampled_sums(zi, dd, zp, sin_t, w0, w1))
    return out


def _sampled_sums(z, dd, zp, sin_t=None, w0=None, w1=None) -> np.ndarray:
    """Per-point sums over the nodes zp of the kernel, or of the kernel times
    the peak-subtracted weight 1 - (w0 + (z' - z) w1) sin(theta) when sin_t
    is given.  Work arrays hold at most _TILE elements: a tile is a block of
    points at low order and a block of nodes of one point above 2^14."""
    n = zp.size
    rows, cols = max(1, _TILE // n), min(n, _TILE)
    sums = np.zeros(z.size)
    for r in range(0, z.size, rows):
        zr = z[r:r + rows, None]
        for c in range(0, n, cols):
            nodes = zp[c:c + cols]
            kernel = np.subtract(zr, nodes)
            np.square(kernel, out=kernel)
            kernel += dd
            np.sqrt(kernel, out=kernel)
            np.divide(1.0, kernel, out=kernel)
            if sin_t is not None:
                weight = np.subtract(nodes, zr)
                weight *= w1[r:r + rows, None]
                weight += w0[r:r + rows, None]
                weight *= sin_t[c:c + cols]
                np.subtract(1.0, weight, out=weight)
                kernel *= weight
            sums[r:r + rows] += kernel.sum(axis=1)
    return sums


def gauss_chebyshev_integral(z, lam: float, n: int):
    """I(z, lam) at one fixed quadrature order (no convergence control).

    z is a scalar, giving a float, or an array, giving an array of its shape;
    a NaN in z raises DomainError, and z = +-inf gives 0.
    """
    if lam <= 0.0:
        raise DomainError("the kernel needs a positive cutoff")
    if n < 2:
        raise DomainError("quadrature order must be at least 2")
    zs = np.asarray(z, dtype=float)
    if np.isnan(zs).any():
        raise DomainError("the kernel needs a number for z, got NaN")
    values = _fixed_order(zs.ravel(), lam, n).reshape(zs.shape)
    return float(values) if zs.ndim == 0 else values


def dressed_integral_with_order(z, lam: float, n_q: int = 16,
                                rel_tol: float = _REL_TOL):
    """Converged I(z, lam) plus the quadrature order that achieved it.

    z is a scalar, giving (float, int), or an array, giving a value array and
    an integer order array of its shape.  Each point doubles its order from
    n_q until two orders agree to rel_tol; the first point still unsettled at
    2^16 nodes raises QuadratureError.  A NaN in z raises DomainError before
    any doubling.
    """
    if n_q < 16 or n_q % 2 != 0:
        raise DomainError("starting quadrature order must be even and >= 16")
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    values = np.empty(flat.shape)
    orders = np.zeros(flat.shape, dtype=int)
    active = np.arange(flat.size)
    prev = last = gauss_chebyshev_integral(flat, lam, n_q)
    n = 2 * n_q
    while active.size and n <= _N_MAX:
        cur = _fixed_order(flat[active], lam, n)
        done = np.abs(cur - prev) <= rel_tol * np.abs(cur)
        values[active[done]] = cur[done]
        orders[active[done]] = n
        active, prev, last = active[~done], cur[~done], prev[~done]
        n *= 2
    if active.size:
        raise QuadratureError(
            f"order doubling stalled at n={_N_MAX} for (z={float(flat[active[0]])}, "
            f"lam={lam}); last two values {float(last[0])!r} and "
            f"{float(prev[0])!r}")
    if zs.ndim == 0:
        return float(values[0]), int(orders[0])
    return values.reshape(zs.shape), orders.reshape(zs.shape)


def dressed_potential_integral(z, lam: float, n_q: int = 16):
    """I(z, lam) with order doubling to relative agreement 1e-8; scalar or
    array z as in dressed_integral_with_order."""
    value, _ = dressed_integral_with_order(z, lam, n_q)
    return value


@dataclass(frozen=True)
class FitCoefficients:
    """Quadratic growth coefficients of the kernel at one cutoff, with the
    highest quadrature order any of the fit's samples needed."""

    lam: float
    c0: float
    c2: float
    order: int


def log_divergence_fit(lams: Sequence[float], z_window: float = 0.2,
                       n_fit: int = 9) -> list[FitCoefficients]:
    """Fit I(z, lam) ~ c0 + c2 z^2 on |z| <= z_window for each cutoff."""
    if not 0.0 < z_window <= 0.3:
        raise DomainError("fit window must lie in (0, 0.3]")
    if n_fit < 5:
        raise DomainError("need at least 5 fit samples")
    z = np.linspace(-z_window, z_window, n_fit)
    design = np.column_stack([np.ones_like(z), z * z])
    if np.ptp(z * z) == 0.0:
        raise FitDegenerateError("fit samples have no spread in z^2")
    out = []
    for lam in lams:
        y, orders = dressed_integral_with_order(z, lam)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        out.append(FitCoefficients(float(lam), float(coef[0]), float(coef[1]),
                                   int(orders.max())))
    return out


# -- the logarithmic flow and its printed energies ---------------------------

def cs_solution(K: float) -> LogFlow:
    """The closed-form running coupling alpha(Lambda) = K^2 / ln(Lambda)."""
    return LogFlow(float(K))


def scaled_ground_energy(alpha: float, lam: float, eps_exp: float) -> float:
    """Reduced-oscillator level in scaled units at one cutoff.

    E = (1/2) sqrt((2/pi)(alpha/eps_exp) ln(lam)) + (2/pi)(alpha/eps_exp) ln(lam);
    substituting alpha = K^2/ln(lam) makes this cutoff-independent, which is
    exactly what the logarithmic flow encodes.
    """
    if eps_exp <= 0.0:
        raise DomainError("eps_exp must be positive")
    if not lam > LAMBDA_FLOOR:
        raise DomainError(f"cutoff {lam} is at or below {LAMBDA_FLOOR}")
    x = (2.0 / math.pi) * (alpha / eps_exp) * math.log(lam)
    if x < 0.0:
        raise DomainError("the scaled level is real only for alpha >= 0")
    return 0.5 * math.sqrt(x) + x


def scaled_energy_from_K(K: float, eps_exp: float) -> float:
    """The cutoff-independent value of the scaled level along the flow."""
    if eps_exp <= 0.0:
        raise DomainError("eps_exp must be positive")
    x = (2.0 / math.pi) * K * K / eps_exp
    return 0.5 * math.sqrt(x) + x


class FieldRegime(Enum):
    SMALL_FIELD = "small-field"
    STRONG_FIELD = "strong-field"


@dataclass(frozen=True)
class EnergyLimit:
    """A printed limiting ground energy (unit energy scale)."""

    regime: FieldRegime
    energy: float
    constant: float                          # the K (small) or K^2 (strong) used
    branches: Optional[Tuple[float, float]] = None
    note: str = ""


def ground_energy_limits(eps_exp: float, regime: FieldRegime) -> EnergyLimit:
    """Limiting ground energy for the requested drive regime.

    The two regimes fix the flow constant differently and are reported as
    printed, including the strong-drive root ambiguity (both branches come
    out positive and proportional to eps_exp^2).  The regime labels follow
    the source convention even though the small-field label is paired with
    large eps_exp; see README.
    """
    if eps_exp <= 0.0:
        raise DomainError("eps_exp must be positive")
    if regime is FieldRegime.SMALL_FIELD:
        K = -math.sqrt(2.0 / (math.pi * eps_exp ** 3))
        energy = -0.5 + 1.0 / eps_exp ** 2
        return EnergyLimit(regime, energy, K,
                           note="single branch; tends to -1/2 as eps_exp grows")
    half_root = 0.5 * math.sqrt(2.0 / math.pi) * eps_exp ** 2
    base = (2.0 / math.pi) * eps_exp ** 2
    plus, minus = base + half_root, base - half_root
    return EnergyLimit(regime, plus, eps_exp, branches=(plus, minus),
                       note="both branches positive, proportional to eps_exp^2")


def reduced_quadratic_spec(c0: float, c2: float, alpha: float,
                           eps_exp: float) -> PotentialSpec:
    """Quadratic-in-z stand-in potential built from measured (c0, c2).

    V(z) = alpha (c0 + c2 z^2) / (pi eps_exp), kinetic normalization 1/2,
    so the generic completed-square reduction consumes the fitted kernel
    through the same code path as every other family.
    """
    if eps_exp <= 0.0:
        raise DomainError("eps_exp must be positive")
    scale = 1.0 / (math.pi * eps_exp)

    def profile(z):
        return scale * (c0 + c2 * np.asarray(z, dtype=float) ** 2)

    return custom(profile, coupling=alpha, kappa=0.5,
                  d1=lambda z: scale * 2.0 * c2 * z,
                  d2=lambda z: scale * 2.0 * c2)
