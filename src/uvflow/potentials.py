"""One-dimensional potential families.

Every Hamiltonian handled by this package has the form

    H = kappa * p**2 + V(x),        V(x) = g * v(x),

where ``kappa`` is the kinetic normalization (1/(2m) for the Morse family,
1 for the quartic oscillator, 1/2 for the Coulomb-type families), ``g`` is
the single running coupling and ``v`` is a fixed shape function.  Keeping
the coupling factored out of the shape is what lets the flow machinery
treat all families uniformly.

Each builtin family is defined once, as a ``FamilyDef`` in ``FAMILIES``:
its shape and derivatives, printed energy law, closed-form beta, fixed-point
power law and the two flags that set its default sign policy and its parity
guard.  ``PotentialSpec``, ``flow`` and ``eigensolver`` read that entry and
never branch on the family.  Custom shapes have no entry; they carry their
own profile callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (DomainError, FlowUndefinedError, NoFixedPointError,
                     SingularPointError)

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

    A builtin family reads its shape from ``FAMILIES`` with the parameters
    in ``shape``; a custom one carries ``profile`` and, optionally, its
    first two derivatives.  The flow treats a negative coupling as outside
    the binding regime: there the reduced ground level is sign-ambiguous,
    and a SignPolicy resolves it downstream.
    """

    family: Family
    coupling: float
    kappa: float
    shape: dict = field(default_factory=dict)
    profile: Optional[Callable] = None
    profile_d1: Optional[Callable] = None
    profile_d2: Optional[Callable] = None

    # -- shape function -------------------------------------------------

    def shape_value(self, x):
        """v(x) for scalar or ndarray argument."""
        fam = FAMILIES.get(self.family)
        return self.profile(x) if fam is None else fam.value(self.shape, x)

    def shape_derivatives(self, x0: float):
        """(v, v', v'') at a scalar point x0.

        Analytic for the builtin families; custom profiles without
        registered derivatives fall back to a central difference and the
        5-point second-derivative stencil, with steps scaled by
        max(|x0|, 1).
        """
        x0 = float(x0)
        fam = FAMILIES.get(self.family)
        if fam is not None:
            return fam.derivatives(self.shape, x0)
        f = self.profile
        v0 = float(f(x0))
        if self.profile_d1 is not None and self.profile_d2 is not None:
            return v0, float(self.profile_d1(x0)), float(self.profile_d2(x0))
        h1 = max(abs(x0), 1.0) * _H1_SCALE
        d1 = (f(x0 + h1) - f(x0 - h1)) / (2.0 * h1)
        h2 = max(abs(x0), 1.0) * _H2_SCALE
        d2 = (-f(x0 + 2 * h2) + 16 * f(x0 + h2) - 30 * v0 + 16 * f(x0 - h2) - f(x0 - 2 * h2)) / (12 * h2 * h2)
        return v0, float(d1), float(d2)

    # -- full potential --------------------------------------------------

    def __call__(self, x):
        """V(x) = g * v(x)."""
        return self.coupling * self.shape_value(x)

    def derivatives(self, x0: float):
        """(V, V', V'') at x0."""
        v, d1, d2 = self.shape_derivatives(x0)
        g = self.coupling
        return g * v, g * d1, g * d2


# -- the builtin families --------------------------------------------------

@dataclass(frozen=True)
class FamilyDef:
    """Everything the pipeline knows about one builtin family.

    ``value``, ``derivatives``, ``energy_law`` and ``beta`` take the spec's
    ``shape`` dict first.  ``energy_law`` is the printed large-cutoff level
    E0(g, Lambda) and ``beta`` the closed-form dg/dln(Lambda), its implicit
    derivative.  ``fixed_point`` maps a target stiffness to the
    (coefficient, exponent) of the power law g(Lambda) that holds the
    reduced stiffness there; None means no closed form, and the fixed point
    is tabulated.  An ``attractive`` family resolves an ambiguous frequency
    root downward by default, the others upward.  A shape that is
    ``singular_at_origin`` has no value at x = 0, so the oracles solve only
    its odd sector.
    """

    value: Callable
    derivatives: Callable
    energy_law: Callable
    beta: Callable
    fixed_point: Optional[Callable[[float], Tuple[float, float]]]
    attractive: bool
    singular_at_origin: bool = False


def _morse_value(s, x):
    a = s["a"]
    return np.exp(-2.0 * a * x) - 2.0 * np.exp(-a * x)


def _morse_derivatives(s, x0):
    a = s["a"]
    e1 = math.exp(-a * x0)
    e2 = math.exp(-2.0 * a * x0)
    return e2 - 2.0 * e1, -2.0 * a * e2 + 2.0 * a * e1, 4.0 * a * a * e2 - 2.0 * a * a * e1


def _morse_law(s, A, lam):
    if A < 0:
        raise FlowUndefinedError("Morse energy law needs A >= 0")
    a = s["a"]
    return a * math.sqrt(A / (2.0 * s["m"])) - A - a * a * A / lam ** 2


def _morse_beta(s, g, lam):
    if g <= 0:
        raise FlowUndefinedError("Morse beta needs A > 0")
    a = s["a"]
    den = lam ** 2 + a * a - a * lam ** 2 / math.sqrt(8.0 * s["m"] * g)
    if den == 0.0:
        raise FlowUndefinedError("Morse beta denominator vanished")
    return 2.0 * a * a * g / den


def _quartic_value(s, x):
    x2 = x * x  # libm pow rounds (-x)**4 and x**4 apart; keep it even
    return x2 * x2


def _quartic_law(s, g, lam):
    if g < 0:
        raise FlowUndefinedError("quartic energy law needs g >= 0")
    return math.sqrt(6.0 * g) / lam + g / (3.0 * lam ** 4)


def _quartic_beta(s, g, lam):
    if g < 0:
        raise FlowUndefinedError("quartic beta needs g >= 0")
    u = math.sqrt(6.0 * g) / lam
    return 2.0 * g * (9.0 * lam ** 2 + 2.0 * u) / (9.0 * lam ** 2 + u)


def _coulomb_value(s, x):
    if np.any(np.asarray(x) == 0.0):
        raise SingularPointError("1/|x| potential evaluated at x = 0")
    return -1.0 / np.abs(x)


def _coulomb_derivatives(s, x0):
    if x0 == 0.0:
        raise SingularPointError("1/|x| potential expanded at x = 0")
    r = abs(x0)
    return -1.0 / r, math.copysign(1.0, x0) / (x0 * x0), -2.0 / r ** 3


def _coulomb_law(s, alpha, lam):
    if alpha > 0:
        raise FlowUndefinedError("Coulomb energy law needs alpha <= 0")
    return 0.5 * math.sqrt(-2.0 * alpha * lam ** 3) - 0.75 * alpha * lam


def _coulomb_beta(s, g, lam):
    if g > 0:
        raise FlowUndefinedError("Coulomb beta needs alpha <= 0")
    t = math.sqrt(-2.0 * g * lam)
    return -3.0 * g * (2.0 * lam + t) / (2.0 * lam + 3.0 * t)


def _soft_coulomb_value(s, x):
    d2 = 1.0 / s["lam"] ** 2
    return -1.0 / np.sqrt(x * x + d2)


def _soft_coulomb_derivatives(s, x0):
    d2 = 1.0 / s["lam"] ** 2
    u = x0 * x0 + d2
    return -u ** -0.5, x0 * u ** -1.5, (d2 - 2.0 * x0 * x0) * u ** -2.5


def _soft_coulomb_law(s, alpha, lam):
    if alpha > 0:
        raise FlowUndefinedError("softened Coulomb energy law needs alpha <= 0")
    return (0.5 * math.sqrt(-(math.sqrt(2.0) / 8.0) * alpha * lam ** 3)
            - (math.sqrt(2.0) / 2.0) * alpha * lam)


def _soft_coulomb_beta(s, g, lam):
    if g > 0:
        raise FlowUndefinedError("softened Coulomb beta needs alpha <= 0")
    t = math.sqrt(-2.0 * math.sqrt(2.0) * g * lam)
    return -g * (3.0 * lam + 4.0 * t) / (lam + 4.0 * t)


# uvflow.kh imports this module, so the dressed family imports it on use

def _kh_value(s, z):
    from . import kh

    return kh.dressed_potential_integral(z, s["lam"]) * (1.0 / (math.pi * s["eps_exp"]))


def _kh_derivatives(s, z0):
    from . import kh

    scale = 1.0 / (math.pi * s["eps_exp"])
    return tuple(d * scale for d in kh.dressed_integral_derivatives(z0, s["lam"]))


def _kh_law(s, alpha, lam):
    from . import kh

    return kh.scaled_ground_energy(alpha, lam, s["eps_exp"])


def _kh_fixed_point(stiffness):
    raise NoFixedPointError(
        "the dressed family runs logarithmically; use kh.cs_solution")


FAMILIES = {
    Family.MORSE: FamilyDef(
        _morse_value, _morse_derivatives, _morse_law, _morse_beta,
        fixed_point=None, attractive=False),
    Family.QUARTIC: FamilyDef(
        _quartic_value, lambda s, x0: (x0 ** 4, 4.0 * x0 ** 3, 12.0 * x0 ** 2),
        _quartic_law, _quartic_beta,
        fixed_point=lambda tc: (tc / 6.0, 2.0), attractive=False),
    Family.COULOMB: FamilyDef(
        _coulomb_value, _coulomb_derivatives, _coulomb_law, _coulomb_beta,
        fixed_point=lambda tc: (-tc, -3.0), attractive=True,
        singular_at_origin=True),
    Family.SOFT_COULOMB: FamilyDef(
        _soft_coulomb_value, _soft_coulomb_derivatives, _soft_coulomb_law,
        _soft_coulomb_beta,
        fixed_point=lambda tc: (-8.0 * math.sqrt(2.0) * tc, -3.0),
        attractive=True),
    Family.KRAMERS_HENNEBERGER: FamilyDef(
        _kh_value, _kh_derivatives, _kh_law, lambda s, g, lam: -g / math.log(lam),
        fixed_point=_kh_fixed_point, attractive=True),
}


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
    integral; evaluation delegates to the closed form in uvflow.kh.
    """
    if eps_exp <= 0:
        raise DomainError("kramers_henneberger requires eps_exp > 0")
    if lam <= 0:
        raise DomainError("kramers_henneberger requires lam > 0")
    return PotentialSpec(Family.KRAMERS_HENNEBERGER, float(alpha), 0.5,
                         {"eps_exp": float(eps_exp), "lam": float(lam)})


def custom(profile: Callable, coupling: float = 1.0, kappa: float = 1.0,
           d1: Optional[Callable] = None,
           d2: Optional[Callable] = None) -> PotentialSpec:
    """Wrap a user shape function v(x) as a family member.

    ``profile`` should accept numpy arrays if the resulting spec is meant
    for the grid eigensolver.  Without d1/d2 the expansion machinery uses the
    central finite-difference fallback.
    """
    if kappa <= 0:
        raise DomainError("custom requires kappa > 0")
    return PotentialSpec(Family.CUSTOM, float(coupling), float(kappa),
                         profile=profile, profile_d1=d1, profile_d2=d2)


def with_coupling_and_cutoff(spec: PotentialSpec, coupling: float, lam: float) -> PotentialSpec:
    """Copy of spec with a new coupling and, where the shape carries the
    cutoff (soft Coulomb, Kramers-Henneberger), the shape moved to lam."""
    if "lam" not in spec.shape:
        return replace(spec, coupling=float(coupling))
    if lam <= 0:
        raise DomainError(f"{spec.family.value} requires lam > 0")
    return replace(spec, coupling=float(coupling), shape={**spec.shape, "lam": float(lam)})
