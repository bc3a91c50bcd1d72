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

This module evaluates I in closed form, fits its logarithmic growth,
and provides the scaled oscillator level along that flow (``flow.LogFlow``)
and the two printed limiting energies (weak and strong drive).

Closed form: with z' = cos(theta), I = integral over theta in [0, pi] of
[(z - cos theta)^2 + delta^2]^(-1/2), delta = 1/Lambda, a complete elliptic
integral.  Carlson's reduction of the complete quartic integral gives

    I = 2 R_F(0, u, conj(u)) = pi / AGM(Re sqrt(u), |u|^(1/2)),
    u = (z - 1)(z + 1) + delta^2 - 2i delta

(B. C. Carlson, Numer. Math. 33, 1 (1979); DLMF 19.8 and 19.29(ii)).  The
arithmetic-geometric mean converges quadratically, in at most 7 steps for
cutoffs up to 1e6, and carries the first two z-derivatives along, so the
curvature of the dressed potential is analytic too.  Writing z^2 - 1 as
(z - 1)(z + 1) keeps the digits at z = +-1, and Re sqrt(u) is taken as
delta / |Im sqrt(u)| where the direct form would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DomainError, FitDegenerateError, IterationLimitError
from .flow import _check_lam

_AGM_TOL = 2.0 ** -26    # one step past this relative gap leaves rounding only
_AGM_STEPS = 32          # the AGM at the largest cutoff, 1.7e308, takes 13 steps
_FAR = 1.0e9             # beyond |z| = _FAR, I = pi/|z| to double precision


def _sqrt_derivatives(x, dx, d2x):
    """sqrt(x) and its first two derivatives from those of x."""
    s = np.sqrt(x)
    ds = dx / (2.0 * s)
    return s, ds, (d2x - 2.0 * ds * ds) / (2.0 * s)


def _closed_form(z: np.ndarray, lam: float):
    """(I, I', I'') for a float array z without NaN; lam is checked by the
    caller."""
    far = np.abs(z) >= _FAR
    w = 1.0 / np.maximum(np.abs(z), _FAR)
    tail = (math.pi * w, -math.pi * np.sign(z) * w * w, 2.0 * math.pi * w ** 3)
    z = np.where(far, 0.0, z)
    delta = 1.0 / lam
    r = (z - 1.0) * (z + 1.0) + delta * delta      # Re u
    b = np.hypot(r, 2.0 * delta)                    # |u|
    big = np.sqrt(0.5 * (b + np.abs(r)))            # the larger of |Re|, |Im| sqrt(u)
    a0 = np.where(r >= 0.0, big, delta / big)       # Re sqrt(u) = delta / |Im sqrt(u)|
    # z-derivatives of a0^2 = (|u| + Re u)/2 and of |u|, in forms free of
    # the cancellation in |u| + Re u; |Im sqrt(u)| = delta / a0
    a2 = (a0 * (1.0 - z * z / b) + (2.0 * z / b) ** 2 * delta * (delta / a0)) / b
    a = np.stack([a0, z * a0 / b, a2])
    g = np.stack(_sqrt_derivatives(b, 2.0 * z * r / b,
                                   (2.0 * r + (4.0 * z * delta / b) ** 2) / b))
    # a point's a stops one step past its own gap test and g is not read
    # after that, so an array gives every point its scalar result bit for bit
    live = np.ones(z.shape, dtype=bool)
    for _ in range(_AGM_STEPS):
        last = np.abs(a[0] - g[0]) <= _AGM_TOL * a[0]
        mean = 0.5 * (a + g)
        g = np.stack(_sqrt_derivatives(a[0] * g[0], a[1] * g[0] + a[0] * g[1],
                                       a[2] * g[0] + 2.0 * a[1] * g[1] + a[0] * g[2]))
        a = np.where(live, mean, a)
        live &= ~last
        if not live.any():
            break
    else:
        raise IterationLimitError(f"the AGM did not settle in {_AGM_STEPS} steps")
    value = math.pi / a[0]
    m1, m2 = a[1] / a[0], a[2] / a[0]
    near = (value, -value * m1, value * (2.0 * m1 * m1 - m2))
    return tuple(np.where(far, t, v) for t, v in zip(tail, near))


def dressed_integral_derivatives(z, lam: float):
    """(I, dI/dz, d2I/dz2) at z.

    z is a scalar, giving floats, or an array, giving arrays of its shape;
    a NaN in z raises DomainError, and z = +-inf gives zeros.  A cutoff at
    which the closed form leaves the float range at some z also raises
    DomainError, before numpy can warn: below about 1e-154, where 1/lam^2
    overflows (about 1e-150 at |z| near 1e9), and above about 2e123 at
    z = +-1, where I'' does.
    """
    if not 0.0 < lam < math.inf:
        raise DomainError("the kernel needs a positive finite cutoff")
    zs = np.asarray(z, dtype=float)
    if np.isnan(zs).any():
        raise DomainError("the kernel needs a number for z, got NaN")
    try:
        with np.errstate(all="raise", under="ignore"):
            parts = _closed_form(zs, lam)
    except FloatingPointError:
        raise DomainError(f"the kernel leaves the float range at cutoff {lam!r}") from None
    return tuple(float(p) for p in parts) if zs.ndim == 0 else parts


def dressed_potential_integral(z, lam: float):
    """I(z, lam); scalar or array z as in dressed_integral_derivatives."""
    return dressed_integral_derivatives(z, lam)[0]


def dressed_integral_with_order(z, lam: float):
    """I(z, lam) and the number of quadrature nodes sampled, always 0.

    The closed form samples no nodes; this pair remains only because the
    benchmark's kh-kernel job times this name and counts the nodes.
    """
    return dressed_potential_integral(z, lam), 0


@dataclass(frozen=True)
class FitCoefficients:
    """Quadratic growth coefficients of the kernel at one cutoff."""

    lam: float
    c0: float
    c2: float


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
        y = dressed_potential_integral(z, lam)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        out.append(FitCoefficients(float(lam), float(coef[0]), float(coef[1])))
    return out


# -- the scaled level along the logarithmic flow, and its limits -------------

def scaled_ground_energy(alpha: float, lam: float, eps_exp: float) -> float:
    """Reduced-oscillator level in scaled units at one cutoff.

    E = (1/2) sqrt((2/pi)(alpha/eps_exp) ln(lam)) + (2/pi)(alpha/eps_exp) ln(lam);
    substituting alpha = K^2/ln(lam) makes this cutoff-independent, which is
    exactly what the logarithmic flow encodes.
    """
    if eps_exp <= 0.0:
        raise DomainError("eps_exp must be positive")
    x = (2.0 / math.pi) * (alpha / eps_exp) * math.log(_check_lam(lam))
    if x < 0.0:
        raise DomainError("the scaled level is real only for alpha >= 0")
    return _scaled_level(x)


def scaled_energy_from_K(K: float, eps_exp: float) -> float:
    """The cutoff-independent value of the scaled level along the flow."""
    if eps_exp <= 0.0:
        raise DomainError("eps_exp must be positive")
    return _scaled_level((2.0 / math.pi) * K * K / eps_exp)


def _scaled_level(x: float) -> float:
    """(1/2) sqrt(x) + x; a level that is not a finite float is a DomainError."""
    level = 0.5 * math.sqrt(x) + x
    if not math.isfinite(level):
        raise DomainError(f"the scaled level is {level} at scaled stiffness {x!r}")
    return level


def ground_energy_limits(eps_exp: float) -> Tuple[float, float, float, float]:
    """The two printed limiting ground energies (unit energy scale):
    (small-field energy, its K, strong-drive upper branch, lower branch).

    The small-field level has a single branch and tends to -1/2 as eps_exp
    grows.  The strong-drive level fixes K^2 = eps_exp and keeps its root
    ambiguity: both branches come out positive and proportional to
    eps_exp^2, and the upper one is the quoted energy.  The regime labels
    follow the source convention even though the small-field label is
    paired with large eps_exp; see README.  An eps_exp at which the
    small-field limit is not a finite float is a DomainError; where it is
    finite, so is eps_exp^2 and with it the strong-drive branches.
    """
    if eps_exp <= 0.0:
        raise DomainError("eps_exp must be positive")
    try:
        K = -math.sqrt(2.0 / (math.pi * eps_exp ** 3))
        small = -0.5 + 1.0 / eps_exp ** 2
    except (OverflowError, ZeroDivisionError):
        K = small = math.inf
    if not (math.isfinite(small) and math.isfinite(K)):
        raise DomainError(f"the small-field limit is not finite at eps_exp = {eps_exp!r}")
    half_root = 0.5 * math.sqrt(2.0 / math.pi) * eps_exp ** 2
    base = (2.0 / math.pi) * eps_exp ** 2
    return small, K, base + half_root, base - half_root
