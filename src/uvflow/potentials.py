"""One-dimensional potential families.

Every Hamiltonian handled by this package has the form

    H = kappa * p**2 + V(x),        V(x) = g * v(x),

where ``kappa`` is the kinetic normalization (1/(2m) for the Morse family,
1 for the quartic oscillator, 1/2 for the Coulomb-type families), ``g`` is
the single running coupling and ``v`` is a fixed shape function.  Keeping
the coupling factored out of the shape is what lets the flow machinery
treat all families uniformly.

Each family is defined once, as a ``FamilyDef``: its name, shape and
derivatives, printed energy law, closed-form beta, fixed-point power law
and the two flags that pick the quoted branch of a sign-ambiguous level
and set its parity guard.
A ``PotentialSpec`` carries its family's entry, so ``flow``,
``eigensolver`` and ``shooting`` read it directly and never branch on the
family.  ``Parity`` names the sectors that the two oracles solve.  The
builtin entries are in ``FAMILIES``, keyed by name; ``custom`` builds one
for a user shape, with no energy law, beta or fixed-point power law.
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


class Parity(Enum):
    """A parity sector, of a symmetric potential, that both oracles can
    restrict a solve to."""

    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class FamilyDef:
    """Everything the pipeline knows about one family.

    ``name`` labels the family in messages.  ``value``, ``derivatives``,
    ``energy_law`` and ``beta`` take the spec's ``shape`` dict first.
    ``energy_law`` is the printed large-cutoff level E0(g, Lambda) and
    ``beta`` the closed-form dg/dln(Lambda), its implicit derivative.
    ``fixed_point`` maps a target stiffness to the (coefficient, exponent)
    of the power law g(Lambda) that holds the reduced stiffness there.
    None for any of the three means no closed form: the law is the exact
    reduction, there is no closed-form beta, and the fixed point is the
    pointwise stiffness match, evaluated at each cutoff.  An
    ``attractive`` family quotes the lower branch of an ambiguous
    frequency root, the others the upper one.  A shape that is
    ``singular_at_origin`` has no value at x = 0, so the oracles solve only
    its odd sector.
    """

    name: str
    value: Callable
    derivatives: Callable
    energy_law: Optional[Callable] = None
    beta: Optional[Callable] = None
    fixed_point: Optional[Callable[[float], Tuple[float, float]]] = None
    attractive: bool = False
    singular_at_origin: bool = False


@dataclass(frozen=True)
class PotentialSpec:
    """A potential family member: shape, coupling and kinetic normalization.

    The shape is ``family.value`` and ``family.derivatives`` with the
    parameters in ``shape``.  The flow treats a negative coupling as outside
    the binding regime: there the reduced ground level is sign-ambiguous,
    and ``family.attractive`` picks the branch it quotes.
    """

    family: FamilyDef
    coupling: float
    kappa: float
    shape: dict = field(default_factory=dict, hash=False)

    def __call__(self, x):
        """V(x) = g * v(x) for a scalar or ndarray argument."""
        return self.coupling * self.family.value(self.shape, x)

    def derivatives(self, x0: float):
        """(V, V', V'') at a scalar point x0; a shape whose float arithmetic
        overflows or divides by zero there raises DomainError."""
        try:
            v, d1, d2 = self.family.derivatives(self.shape, float(x0))
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"the {self.family.name} shape leaves the float "
                              f"range at x0 = {float(x0)!r}: {exc.args[-1]}") from None
        g = self.coupling
        return g * v, g * d1, g * d2


# -- the builtin families --------------------------------------------------

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


def _softening(s):
    """The squared softening distance 1/lam^2; a lam^2 that overflows, or
    underflows to 0 (lam below about 1.5e-162), is a DomainError."""
    try:
        return 1.0 / s["lam"] ** 2
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"lam^2 leaves the float range at lam = {s['lam']!r}") from None


def _soft_coulomb_value(s, x):
    d2 = _softening(s)
    return -1.0 / np.sqrt(x * x + d2)


def _soft_coulomb_derivatives(s, x0):
    d2 = _softening(s)
    u = x0 * x0 + d2
    return -u ** -0.5, x0 * u ** -1.5, ((d2 - 2.0 * x0 * x0) / u) * u ** -1.5


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


# uvflow.kh imports this module through uvflow.flow, so the dressed family
# imports it on use

def _kh_derivatives(s, z):
    from . import kh

    scale = 1.0 / (math.pi * s["eps_exp"])
    return tuple(d * scale for d in kh.dressed_integral_derivatives(z, s["lam"]))


def _kh_law(s, alpha, lam):
    from . import kh

    return kh.scaled_ground_energy(alpha, lam, s["eps_exp"])


def _kh_fixed_point(stiffness):
    raise NoFixedPointError(
        "the dressed family runs logarithmically; use flow.LogFlow")


FAMILIES = {fam.name: fam for fam in (
    FamilyDef("morse", _morse_value, _morse_derivatives, _morse_law, _morse_beta),
    FamilyDef("quartic", _quartic_value,
              lambda s, x0: (x0 ** 4, 4.0 * x0 ** 3, 12.0 * x0 ** 2),
              _quartic_law, _quartic_beta,
              fixed_point=lambda tc: (tc / 6.0, 2.0)),
    FamilyDef("coulomb", _coulomb_value, _coulomb_derivatives, _coulomb_law,
              _coulomb_beta, fixed_point=lambda tc: (-tc, -3.0),
              attractive=True, singular_at_origin=True),
    FamilyDef("soft-coulomb", _soft_coulomb_value, _soft_coulomb_derivatives,
              _soft_coulomb_law, _soft_coulomb_beta,
              fixed_point=lambda tc: (-8.0 * math.sqrt(2.0) * tc, -3.0),
              attractive=True),
    FamilyDef("kramers-henneberger", lambda s, z: _kh_derivatives(s, z)[0],
              _kh_derivatives, _kh_law,
              lambda s, g, lam: -g / math.log(lam),
              fixed_point=_kh_fixed_point, attractive=True),
)}


# -- family constructors ---------------------------------------------------

def morse(A: float, a: float = 1.0, m: float = 1.0) -> PotentialSpec:
    """Morse well A*(exp(-2ax) - 2exp(-ax)) with H = p^2/(2m) + V."""
    if a <= 0 or m <= 0:
        raise DomainError("Morse requires a > 0 and m > 0")
    return PotentialSpec(FAMILIES["morse"], float(A), 0.5 / m, {"a": float(a), "m": float(m)})


def quartic(g: float) -> PotentialSpec:
    """Quartic oscillator H = p^2 + g x^4."""
    return PotentialSpec(FAMILIES["quartic"], float(g), 1.0)


def coulomb(alpha: float) -> PotentialSpec:
    """One-dimensional Coulomb H = p^2/2 - alpha/|x|."""
    return PotentialSpec(FAMILIES["coulomb"], float(alpha), 0.5)


def soft_coulomb(alpha: float, lam: float) -> PotentialSpec:
    """Regularized Coulomb H = p^2/2 - alpha/sqrt(x^2 + 1/lam^2).

    The cutoff lam enters the shape itself (softening distance 1/lam); the
    flow machinery moves it together with the expansion point.
    """
    if lam <= 0:
        raise DomainError("soft_coulomb requires lam > 0")
    return PotentialSpec(FAMILIES["soft-coulomb"], float(alpha), 0.5, {"lam": float(lam)})


def kramers_henneberger(alpha: float, eps_exp: float, lam: float) -> PotentialSpec:
    """Cycle-averaged (dressed) Coulomb potential in laser units.

    V(z) = alpha * I(z, lam) / (pi * eps_exp) with I the dressed-potential
    integral; evaluation delegates to the closed form in uvflow.kh.
    """
    if eps_exp <= 0:
        raise DomainError("kramers_henneberger requires eps_exp > 0")
    if lam <= 0:
        raise DomainError("kramers_henneberger requires lam > 0")
    return PotentialSpec(FAMILIES["kramers-henneberger"], float(alpha), 0.5,
                         {"eps_exp": float(eps_exp), "lam": float(lam)})


def _differences(profile, x0, v0, scale):
    """((V', error), (V'', error)) at x0 by a central difference and the
    5-point stencil, with steps ``scale`` times the step rules.  An error
    estimate is the change when the step doubles plus the rounding bound,
    so it shows both a step too long for the shape's features and one too
    short for its size; a non-finite estimate reads as infinite."""
    h = scale * _H1_SCALE
    f = {k: float(profile(x0 + k * h)) for k in (-2, -1, 1, 2)}
    d1 = (f[1] - f[-1]) / (2.0 * h)
    e1 = abs(d1 - (f[2] - f[-2]) / (4.0 * h)) + _EPS * (abs(f[1]) + abs(f[-1])) / (2.0 * h)
    h = scale * _H2_SCALE
    f = {k: float(profile(x0 + k * h)) for k in (-4, -2, -1, 1, 2, 4)}
    d2, d2_doubled = ((-f[-2 * k] + 16.0 * f[-k] - 30.0 * v0 + 16.0 * f[k] - f[2 * k])
                      / (12.0 * (k * h) ** 2) for k in (1, 2))
    e2 = abs(d2 - d2_doubled) + _EPS * (abs(f[-2]) + 16.0 * abs(f[-1]) + 30.0 * abs(v0)
                                        + 16.0 * abs(f[1]) + abs(f[2])) / (12.0 * h * h)
    return tuple((d, e if math.isfinite(e) else math.inf) for d, e in ((d1, e1), (d2, e2)))


def custom(profile: Callable, coupling: float = 1.0, kappa: float = 1.0,
           d1: Optional[Callable] = None,
           d2: Optional[Callable] = None) -> PotentialSpec:
    """Wrap a user shape function v(x) as a family member.

    ``profile`` should accept numpy arrays if the resulting spec is meant
    for the grid eigensolver.  ``d1`` and ``d2`` come together; one without
    the other is a DomainError.  Without them the derivatives fall back to
    a central difference and the 5-point second-derivative stencil.  Below
    |x0| = 1 each is taken with steps scaled by |x0| and by 1, keeping the
    one with the smaller error estimate: a shape such as x^4, which shrinks
    with x0, needs the first at the reduction point 1/Lambda of a large
    cutoff, and a Morse well, whose size does not, the second.  Each call
    builds its own family entry, with no energy law, beta or fixed-point
    power law.
    """
    if kappa <= 0:
        raise DomainError("custom requires kappa > 0")
    if (d1 is None) != (d2 is None):
        raise DomainError("custom takes both d1 and d2 or neither")

    def derivatives(s, x0):
        v0 = float(profile(x0))
        if d1 is not None:
            return v0, float(d1(x0)), float(d2(x0))
        r = abs(x0)
        fine = _differences(profile, x0, v0, r or 1.0)
        if not 0.0 < r < 1.0:
            return v0, fine[0][0], fine[1][0]
        # a unit step that spans a feature of size |x0| (a singular origin)
        # can look converged on doubling, so it must also agree with the
        # |x0|-scaled one within the two estimates
        unit = _differences(profile, x0, v0, 1.0)
        return (v0, *(du if eu < ef and not abs(du - df) > ef + eu else df
                      for (df, ef), (du, eu) in zip(fine, unit)))

    family = FamilyDef("custom", lambda s, x: profile(x), derivatives)
    return PotentialSpec(family, float(coupling), float(kappa))


def with_coupling_and_cutoff(spec: PotentialSpec, coupling: float, lam: float) -> PotentialSpec:
    """Copy of spec with a new coupling and, where the shape carries the
    cutoff (soft Coulomb, Kramers-Henneberger), the shape moved to lam."""
    if "lam" not in spec.shape:
        return replace(spec, coupling=float(coupling))
    if lam <= 0:
        raise DomainError(f"{spec.family.name} requires lam > 0")
    return replace(spec, coupling=float(coupling), shape={**spec.shape, "lam": float(lam)})
