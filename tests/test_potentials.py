import dataclasses
import math

import numpy as np
import pytest

import uvflow as uf
from uvflow.potentials import FAMILIES

# one member of each builtin family and one custom shape, keyed by family name
EXAMPLES = {spec.family.name: spec for spec in (
    uf.morse(4.0, 1.3, 0.7), uf.quartic(0.8), uf.coulomb(1.2),
    uf.soft_coulomb(1.1, 7.0), uf.kramers_henneberger(0.9, 2.0, 1.0e3),
    uf.custom(np.cosh, d1=np.sinh, d2=np.cosh))}


def test_morse_value_at_origin():
    assert uf.morse(1.0, 1.0, 1.0)(0.0) == -1.0


def test_quartic_value():
    assert uf.quartic(1.0)(2.0) == 16.0


def test_coulomb_value():
    assert uf.coulomb(1.0)(0.5) == -2.0


def test_coulomb_singular_at_zero():
    spec = uf.coulomb(1.0)
    with pytest.raises(uf.SingularPointError):
        spec(0.0)
    with pytest.raises(uf.SingularPointError):
        spec(np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(uf.SingularPointError):
        spec.derivatives(0.0)


def test_quartic_derivatives():
    v0, v1, v2 = uf.quartic(1.0).derivatives(0.1)
    assert abs(v0 - 1.0e-4) < 1e-18
    assert abs(v1 - 4.0e-3) < 1e-16
    assert abs(v2 - 0.12) < 1e-15


def test_coulomb_derivatives():
    v0, v1, v2 = uf.coulomb(1.0).derivatives(0.1)
    assert abs(v0 + 10.0) < 1e-12
    assert abs(v1 - 100.0) < 1e-10
    assert abs(v2 + 2000.0) < 1e-8


def test_morse_derivatives_at_origin():
    # A (exp(-2ax) - 2 exp(-ax)): slope cancels at x = 0, curvature is 2A a^2
    v0, v1, v2 = uf.morse(2.0).derivatives(0.0)
    assert v0 == -2.0
    assert v1 == 0.0
    assert v2 == 4.0


def test_finite_difference_fallback_matches_analytic():
    """A custom wrapper with no supplied d1/d2 must reproduce the analytic
    derivatives of the same shape through the finite-difference fallback,
    also at the reduction points 1/Lambda of large cutoffs: there the size
    of the Morse and soft-Coulomb shapes does not shrink with x0, and the
    Coulomb shape is singular at the origin, which a unit step would span."""
    cases = [
        (uf.morse(1.7, 1.3), lambda x: np.exp(-2.6 * x) - 2.0 * np.exp(-1.3 * x), 1.7),
        (uf.quartic(0.8), lambda x: np.asarray(x, dtype=float) ** 4, 0.8),
        (uf.coulomb(1.2), lambda x: -1.0 / np.abs(x), 1.2),
        (uf.soft_coulomb(1.1, 7.0),
         lambda x: -1.0 / np.sqrt(np.asarray(x, dtype=float) ** 2 + 1.0 / 49.0), 1.1),
    ]
    for spec, profile, g in cases:
        fd = uf.custom(profile, coupling=g)
        for x0 in (1e-8, 1e-6, 10 ** -4.5, 1e-3, 0.35, 1.0, 2.2):
            an = spec.derivatives(x0)
            num = fd.derivatives(x0)
            assert abs(num[0] - an[0]) < 1e-10 * max(1.0, abs(an[0]))
            assert abs(num[1] - an[1]) < 1e-7 * max(1.0, abs(an[1]))
            assert abs(num[2] - an[2]) < 1e-5 * max(1.0, abs(an[2]))


def test_finite_difference_fallback_keeps_digits_at_large_cutoffs():
    """For a shape that shrinks with x0 the |x0|-scaled steps win, so the
    curvature at 1/Lambda keeps its digits however small the point gets."""
    fd = uf.custom(lambda x: x ** 4 + 0.3 * x ** 6)
    for lam in (1.0e4, 1.0e6, 1.0e8):
        x0 = 1.0 / lam
        _, d1, d2 = fd.derivatives(x0)
        exact1 = 4.0 * x0 ** 3 + 1.8 * x0 ** 5
        exact2 = 12.0 * x0 ** 2 + 9.0 * x0 ** 4
        assert abs(d1 - exact1) < 1e-8 * exact1
        assert abs(d2 - exact2) < 1e-8 * exact2


def test_even_shapes_are_exactly_even():
    xs = np.array([0.3, 0.71, 1.9, 4.2])
    for spec in (uf.quartic(0.9), uf.coulomb(1.0), uf.soft_coulomb(1.0, 5.0)):
        assert np.all(spec(xs) == spec(-xs))


def test_coupling_enters_linearly():
    xs = np.array([0.3, 0.9, 1.7])
    assert np.all(uf.quartic(2.0)(xs) == 2.0 * uf.quartic(1.0)(xs))
    assert np.all(uf.morse(8.0)(xs) == 8.0 * uf.morse(1.0)(xs))


def test_kh_profile_scalar_and_array_agree():
    spec = uf.kramers_henneberger(1.0, 1.0, 100.0)
    scalar = spec(0.3)
    arr = spec(np.array([0.3, -0.3]))
    assert abs(arr[0] - scalar) < 1e-14 * abs(scalar)
    assert arr[0] == arr[1]  # dressed kernel is even in z


def test_kh_derivatives_finite_and_even():
    spec = uf.kramers_henneberger(1.0, 1.0, 100.0)
    v0, v1, v2 = spec.derivatives(0.0)
    assert math.isfinite(v0) and math.isfinite(v2)
    assert abs(v1) < 1e-8 * max(1.0, abs(v0))


@pytest.mark.parametrize("name", [*FAMILIES, "custom"])
def test_family_table_entry(name):
    """Every builtin family has one table entry, and its value agrees with
    the first of its derivatives; a custom shape carries its own entry,
    outside the table and with no closed forms."""
    spec = EXAMPLES[name]
    if name == "custom":
        fam = spec.family
        assert name not in FAMILIES
        assert fam.energy_law is fam.beta is fam.fixed_point is None
        assert not fam.attractive and not fam.singular_at_origin
    else:
        assert spec.family is FAMILIES[name]
    for x0 in (-0.7, 0.05, 0.3, 0.9, 0.999, 1.5):
        v = float(spec(x0))
        v0 = spec.derivatives(x0)[0]
        assert abs(v - v0) <= 1e-14 * abs(v0)


@pytest.mark.parametrize("call", [
    lambda: uf.soft_coulomb(1.0, 1.0e300)(np.array([0.5])),
    lambda: uf.soft_coulomb(1.0, 1.0e300).derivatives(0.5),
    lambda: uf.soft_coulomb(-1.0, 1.0e70).derivatives(1.0e-70),
    lambda: uf.coulomb(1.0).derivatives(1.0e-200),
], ids=["soft-coulomb-value", "soft-coulomb-derivatives",
        "soft-coulomb-curvature", "coulomb-curvature"])
def test_shape_out_of_float_range_is_a_domain_error(call):
    with pytest.raises(uf.DomainError):
        call()


def test_with_coupling_and_cutoff():
    q = uf.with_coupling_and_cutoff(uf.quartic(1.0), 3.0, 50.0)
    assert q.coupling == 3.0 and q.family is FAMILIES["quartic"]
    s = uf.with_coupling_and_cutoff(uf.soft_coulomb(1.0, 5.0), 2.0, 40.0)
    assert s.coupling == 2.0 and s.shape["lam"] == 40.0
    k = uf.with_coupling_and_cutoff(uf.kramers_henneberger(1.0, 2.0, 100.0), 0.5, 300.0)
    assert k.coupling == 0.5 and k.shape["lam"] == 300.0 and k.shape["eps_exp"] == 2.0


def test_spec_is_immutable():
    spec = uf.quartic(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.coupling = 5.0


def test_constructor_validation():
    with pytest.raises(uf.DomainError):
        uf.morse(1.0, -2.0)
    with pytest.raises(uf.DomainError):
        uf.soft_coulomb(1.0, 0.0)
    with pytest.raises(uf.DomainError):
        uf.kramers_henneberger(1.0, -1.0, 100.0)
    with pytest.raises(uf.DomainError):
        uf.custom(lambda x: x * x, kappa=0.0)
    # a lone d1 or d2 would go unused beside the finite differences
    with pytest.raises(uf.DomainError):
        uf.custom(lambda x: x ** 4, d1=lambda x: 999.0)
    with pytest.raises(uf.DomainError):
        uf.custom(lambda x: x ** 4, d2=lambda x: 999.0)
    # unconstrained knobs stay unconstrained
    uf.morse(-1.0)
    uf.quartic(float("nan"))
