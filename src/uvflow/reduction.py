"""Small-distance reduction of a potential to a shifted oscillator.

At short distance a cutoff Lambda selects the expansion point x0 = 1/Lambda.
Completing the square on the second-order Taylor polynomial there gives

    V(x) ~= c * (x - xbar)**2 + C

    c    = V''(x0) / 2
    xbar = x0 - V'(x0) / V''(x0)
    C    = V(x0) - V'(x0)**2 / (2 V''(x0))

so H reduces to kappa p^2 + c (x - xbar)^2 + C, a harmonic oscillator with
frequency omega = 2 sqrt(kappa c) and ground level

    E0 = sqrt(kappa c) + C.

The square root carries an intrinsic sign ambiguity (it enters through
omega**2); it only matters when the flow has driven the coupling outside
the binding regime.  A GroundStateEstimate then carries both branches, and
the family's ``attractive`` flag decides which one ``energy`` quotes along
a flow (see ``flow.uv_limit_energy``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateExpansionError, DomainError, NoBoundStateError
from .potentials import PotentialSpec


@dataclass(frozen=True)
class QuadraticReduction:
    """Completed-square data c (x - xbar)^2 + C at cutoff Lambda."""

    stiffness: float
    center: float
    offset: float
    kappa: float
    taylor: Tuple[float, float, float]  # (V, V', V'') at x0 = 1/Lambda


@dataclass(frozen=True)
class GroundStateEstimate:
    """A reduced ground level; ``branches`` is (+root, -root) when the
    frequency root is sign-ambiguous and None when it is not."""

    energy: float
    branches: Optional[Tuple[float, float]] = None


def expand_at_cutoff(spec: PotentialSpec, lam: float) -> QuadraticReduction:
    """Taylor-expand V at x0 = 1/lam and complete the square."""
    if lam <= 0:
        raise DomainError("cutoff must be positive")
    x0 = 1.0 / lam
    v0, v1, v2 = spec.derivatives(x0)
    if v2 == 0.0 or not math.isfinite(v2):
        raise DegenerateExpansionError(
            f"vanishing or non-finite curvature V''({x0}) = {v2}")
    c = 0.5 * v2
    xbar = x0 - v1 / v2
    offset = v0 - v1 * v1 / (2.0 * v2)
    # c = v2/2 is finite here, but V'/V'' and V'^2 can still overflow
    if not (math.isfinite(xbar) and math.isfinite(offset)):
        raise DomainError(f"the reduction at cutoff {lam} leaves the float range: "
                          f"stiffness {c}, center {xbar}, offset {offset}")
    return QuadraticReduction(c, xbar, offset, spec.kappa, (v0, v1, v2))


def ho_ground_energy(red: QuadraticReduction) -> GroundStateEstimate:
    """Ground level of kappa p^2 + c (x - xbar)^2 + C.

    For c > 0 this is sqrt(kappa c) + C on the positive branch.  For an
    inverted parabola (c < 0) the frequency is defined only up to sign and
    both formal values +-sqrt(kappa |c|) + C are reported.
    """
    c, C = red.stiffness, red.offset
    root = math.sqrt(red.kappa * abs(c))
    if c > 0.0:
        return GroundStateEstimate(C + root)
    return GroundStateEstimate(C + root, branches=(C + root, C - root))


@dataclass(frozen=True)
class GaussianState:
    """Normalized oscillator ground state exp(-(x-center)^2/(2 sigma^2))."""

    center: float
    sigma: float

    def __call__(self, x):
        n = (math.pi * self.sigma ** 2) ** -0.25
        return n * np.exp(-((x - self.center) ** 2) / (2.0 * self.sigma ** 2))


def ho_ground_wavefunction(red: QuadraticReduction) -> GaussianState:
    """Ground-state Gaussian of the reduced oscillator (requires c > 0)."""
    if red.stiffness <= 0.0:
        raise NoBoundStateError("inverted reduced oscillator has no bound state")
    omega = 2.0 * math.sqrt(red.kappa * red.stiffness)
    sigma = math.sqrt(2.0 * red.kappa / omega)
    return GaussianState(red.center, sigma)
