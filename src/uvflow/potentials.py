"""One-dimensional potential families.

Every Hamiltonian handled by this package has the form

    H = kappa * p**2 + V(x),        V(x) = g * v(x),

where ``kappa`` is the kinetic normalization (1/(2m) for the Morse family,
1 for the quartic oscillator, 1/2 for the Coulomb-type families), ``g`` is
the single running coupling and ``v`` is a fixed shape function.  Keeping
the coupling factored out of the shape is what lets the flow machinery
treat all families uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SingularPointError

_EPS = float(np.finfo(float).eps)
# step rules for the finite-difference fallback: cube root of machine
# epsilon for first derivatives, fourth root for the 5-point second
# derivative stencil
_H1_SCALE = _EPS ** (1.0 / 3.0)
_H2_SCALE = _EPS ** 0.25


class Family(Enum):
    MORSE = "morse"
    QUARTIC = "quartic"
    COULOMB = "coulomb"
    SOFT_COULOMB = "soft-coulomb"
    KRAMERS_HENNEBERGER = "kramers-henneberger"
    CUSTOM = "custom"


@dataclass(frozen=True)
class PotentialSpec:
    """A potential family member: shape, coupling and kinetic normalization.

    ``binding_sign`` records which sign of the coupling produces a binding
    (or confining) potential; flows that drive the coupling to the opposite
    sign describe formally unstable Hamiltonians and their ground-state
    energy inherits a sign ambiguity (resolved downstream by a SignPolicy).
    """

    family: Family
    coupling: float
    kappa: float
    shape: dict = field(default_factory=dict)
    profile: Optional[Callable] = None
    profile_d1: Optional[Callable] = None
    profile_d2: Optional[Callable] = None
    binding_sign: float = 1.0

    # -- shape function -------------------------------------------------

    def shape_value(self, x):
        """v(x) for scalar or ndarray argument."""
        if self.family is Family.MORSE:
            a = self.shape["a"]
            return np.exp(-2.0 * a * x) - 2.0 * np.exp(-a * x)
        if self.family is Family.QUARTIC:
            x2 = x * x  # libm pow rounds (-x)**4 and x**4 apart; keep it even
            return x2 * x2
        if self.family is Family.COULOMB:
            if np.any(np.asarray(x) == 0.0):
                raise SingularPointError("1/|x| potential evaluated at x = 0")
            return -1.0 / np.abs(x)
        if self.family is Family.SOFT_COULOMB:
            d2 = 1.0 / self.shape["lam"] ** 2
            return -1.0 / np.sqrt(x * x + d2)
        # KH and custom profiles
        return self.profile(x)

    def shape_derivatives(self, x0: float):
        """(v, v', v'') at a scalar point x0.

        Analytic for the builtin families; the Kramers-Henneberger profile
        and custom profiles without registered derivatives fall back to
        central finite differences.
        """
        x0 = float(x0)
        if self.family is Family.MORSE:
            a = self.shape["a"]
            e1 = math.exp(-a * x0)
            e2 = math.exp(-2.0 * a * x0)
            return e2 - 2.0 * e1, -2.0 * a * e2 + 2.0 * a * e1, 4.0 * a * a * e2 - 2.0 * a * a * e1
        if self.family is Family.QUARTIC:
            return x0 ** 4, 4.0 * x0 ** 3, 12.0 * x0 ** 2
        if self.family is Family.COULOMB:
            if x0 == 0.0:
                raise SingularPointError("1/|x| potential expanded at x = 0")
            r = abs(x0)
            return -1.0 / r, math.copysign(1.0, x0) / (x0 * x0), -2.0 / r ** 3
        if self.family is Family.SOFT_COULOMB:
            d2 = 1.0 / self.shape["lam"] ** 2
            u = x0 * x0 + d2
            return -u ** -0.5, x0 * u ** -1.5, (d2 - 2.0 * x0 * x0) * u ** -2.5
        if self.family is Family.KRAMERS_HENNEBERGER:
            return self._kh_derivatives(x0)
        return self._custom_derivatives(x0)

    def _custom_derivatives(self, x0: float):
        v0 = float(self.profile(x0))
        if self.profile_d1 is not None and self.profile_d2 is not None:
            return v0, float(self.profile_d1(x0)), float(self.profile_d2(x0))
        return _stencil_derivatives(self.profile, x0, v0)

    def _kh_derivatives(self, z0: float):
        # The dressed integral carries a small adaptive-order error; for a
        # usable stencil the order must be frozen across the five points,
        # so the (smooth) quadrature error cancels in the differences.
        from . import kh

        lam = self.shape["lam"]
        scale = 1.0 / (math.pi * self.shape["eps_exp"])
        _, n = kh.dressed_integral_with_order(z0, lam)
        g = lambda z: kh.gauss_chebyshev_integral(z, lam, n) * scale
        return _stencil_derivatives(g, z0, g(z0))

    # -- full potential --------------------------------------------------

    def __call__(self, x):
        """V(x) = g * v(x)."""
        return self.coupling * self.shape_value(x)

    def derivatives(self, x0: float):
        """(V, V', V'') at x0."""
        v, d1, d2 = self.shape_derivatives(x0)
        g = self.coupling
        return g * v, g * d1, g * d2


def _stencil_derivatives(f: Callable, x0: float, v0: float):
    """(v0, f'(x0), f''(x0)) by a central difference and the 5-point
    second-derivative stencil, with steps scaled by max(|x0|, 1)."""
    h1 = max(abs(x0), 1.0) * _H1_SCALE
    d1 = (f(x0 + h1) - f(x0 - h1)) / (2.0 * h1)
    h2 = max(abs(x0), 1.0) * _H2_SCALE
    d2 = (-f(x0 + 2 * h2) + 16 * f(x0 + h2) - 30 * v0 + 16 * f(x0 - h2) - f(x0 - 2 * h2)) / (12 * h2 * h2)
    return v0, float(d1), float(d2)


# -- family constructors ---------------------------------------------------

def morse(A: float, a: float = 1.0, m: float = 1.0) -> PotentialSpec:
    """Morse well A*(exp(-2ax) - 2exp(-ax)) with H = p^2/(2m) + V."""
    if a <= 0 or m <= 0:
        raise DomainError("Morse requires a > 0 and m > 0")
    return PotentialSpec(Family.MORSE, float(A), 0.5 / m, {"a": float(a), "m": float(m)})


def quartic(g: float) -> PotentialSpec:
    """Quartic oscillator H = p^2 + g x^4."""
    return PotentialSpec(Family.QUARTIC, float(g), 1.0)


def coulomb(alpha: float) -> PotentialSpec:
    """One-dimensional Coulomb H = p^2/2 - alpha/|x|."""
    return PotentialSpec(Family.COULOMB, float(alpha), 0.5)


def soft_coulomb(alpha: float, lam: float) -> PotentialSpec:
    """Regularized Coulomb H = p^2/2 - alpha/sqrt(x^2 + 1/lam^2).

    The cutoff lam enters the shape itself (softening distance 1/lam); the
    flow machinery moves it together with the expansion point.
    """
    if lam <= 0:
        raise DomainError("soft_coulomb requires lam > 0")
    return PotentialSpec(Family.SOFT_COULOMB, float(alpha), 0.5, {"lam": float(lam)})


def kramers_henneberger(alpha: float, eps_exp: float, lam: float) -> PotentialSpec:
    """Cycle-averaged (dressed) Coulomb potential in laser units.

    V(z) = alpha * I(z, lam) / (pi * eps_exp) with I the dressed-potential
    integral; evaluation delegates to the quadrature in uvflow.kh.
    """
    if eps_exp <= 0:
        raise DomainError("kramers_henneberger requires eps_exp > 0")
    if lam <= 0:
        raise DomainError("kramers_henneberger requires lam > 0")
    from . import kh

    scale = 1.0 / (math.pi * eps_exp)

    def profile(z, _lam=float(lam), _s=scale):
        return kh.dressed_potential_integral(z, _lam) * _s

    return PotentialSpec(
        Family.KRAMERS_HENNEBERGER,
        float(alpha),
        0.5,
        {"eps_exp": float(eps_exp), "lam": float(lam)},
        profile=profile,
    )


def custom(profile: Callable, coupling: float = 1.0, kappa: float = 1.0,
           d1: Optional[Callable] = None, d2: Optional[Callable] = None,
           binding_sign: float = 1.0) -> PotentialSpec:
    """Wrap a user shape function v(x) as a family member.

    ``profile`` should accept numpy arrays if the resulting spec is meant
    for the grid eigensolver.  Without d1/d2 the expansion machinery uses the
    central finite-difference fallback.
    """
    if kappa <= 0:
        raise DomainError("custom requires kappa > 0")
    return PotentialSpec(Family.CUSTOM, float(coupling), float(kappa),
                         profile=profile, profile_d1=d1, profile_d2=d2,
                         binding_sign=float(binding_sign))


def with_coupling_and_cutoff(spec: PotentialSpec, coupling: float, lam: float) -> PotentialSpec:
    """Copy of spec with a new coupling and, where the shape carries the
    cutoff (soft Coulomb, Kramers-Henneberger), the shape moved to lam."""
    if spec.family is Family.SOFT_COULOMB:
        return soft_coulomb(coupling, lam)
    if spec.family is Family.KRAMERS_HENNEBERGER:
        return kramers_henneberger(coupling, spec.shape["eps_exp"], lam)
    return replace(spec, coupling=float(coupling))
