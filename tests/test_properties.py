"""Property tests over random inputs, drawn reproducibly (derandomize)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import uvflow as uf
from uvflow.potentials import FAMILIES

# one member of each builtin family; the draw sets coupling and cutoff
BASE = {"morse": uf.morse(1.0, 1.3, 0.7), "quartic": uf.quartic(1.0),
        "coulomb": uf.coulomb(1.0), "soft-coulomb": uf.soft_coulomb(1.0, 10.0),
        "kramers-henneberger": uf.kramers_henneberger(1.0, 1.0, 10.0)}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(g=st.floats(0.5, 10.0), scale=st.floats(0.1, 10.0))
def test_quartic_scaling_on_the_grid(g, scale):
    """Nodes x -> scale^(-1/6) x map p^2 + g x^4 on Grid(L, n) onto
    scale^(-1/3) (p^2 + scale g x^4) on Grid(L scale^(-1/6), n), so the two
    raw levels differ by exactly the factor scale^(1/3)."""
    level = uf.ground_state(uf.quartic(g), uf.Grid(6.0, 2001),
                            refine=False).eigenvalue
    scaled = uf.ground_state(uf.quartic(scale * g),
                             uf.Grid(6.0 * scale ** (-1.0 / 6.0), 2001),
                             refine=False).eigenvalue
    assert abs(scaled - scale ** (1.0 / 3.0) * level) <= 1e-10 * scaled


@settings(derandomize=True, max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(FAMILIES)),
       g=st.floats(0.01, 100.0), sign=st.sampled_from([-1.0, 1.0]),
       log_lam=st.floats(0.5, 6.0))
def test_completed_square_invariants(name, g, sign, log_lam):
    """c (x0 - xbar)^2 + C, 2c (x0 - xbar) and 2c reproduce V, V' and V''
    at x0 = 1/Lambda."""
    lam = 10.0 ** log_lam
    spec = uf.with_coupling_and_cutoff(BASE[name], sign * g, lam)
    red = uf.expand_at_cutoff(spec, lam)
    v0, v1, v2 = spec.derivatives(1.0 / lam)
    c, dx = red.stiffness, 1.0 / lam - red.center
    assert abs(c * dx * dx + red.offset - v0) <= 1e-14 * abs(v0)
    assert abs(2.0 * c * dx - v1) <= 1e-14 * abs(v1)
    assert abs(2.0 * c - v2) <= 1e-14 * abs(v2)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(alpha=st.floats(0.5, 4.0), lam=st.floats(10.0, 1000.0),
       bohr_radii=st.floats(30.0, 45.0))
def test_soft_coulomb_rescaling_on_the_grid(alpha, lam, bohr_radii):
    """x -> x/2 maps p^2/2 - 2 alpha/sqrt(x^2 + 1/(2 lam)^2) on
    Grid(L/2, n) onto 4 (p^2/2 - alpha/sqrt(x^2 + 1/lam^2)) on Grid(L, n),
    so E(2 alpha, 2 lam; L/2) = 4 E(alpha, lam; L) in the odd sector, to
    criterion 8's bound.  The box spans as many Bohr radii 1/alpha as
    criterion 8's, or more, so the level decays before the wall."""
    half_width = bohr_radii / alpha
    level = uf.ground_state(uf.soft_coulomb(alpha, lam), uf.Grid(half_width, 2001),
                            parity=uf.Parity.ODD).refinement_estimate
    scaled = uf.ground_state(uf.soft_coulomb(2.0 * alpha, 2.0 * lam),
                             uf.Grid(half_width / 2.0, 2001),
                             parity=uf.Parity.ODD).refinement_estimate
    assert abs(scaled - 4.0 * level) <= 1e-5 * abs(scaled)


# each family's coupling domain for the beta comparison; cutoffs stay at or
# below 1e3, past which the numeric beta of the Morse law loses digits
BETA_DOMAINS = [("morse", 1.0, 8.0), ("quartic", 0.1, 10.0),
                ("coulomb", -2.0, -0.05), ("soft-coulomb", -2.0, -0.05),
                ("kramers-henneberger", 0.05, 2.0)]


@pytest.mark.parametrize("name, low, high", BETA_DOMAINS,
                         ids=[name for name, _, _ in BETA_DOMAINS])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_numeric_beta_matches_closed_form(name, low, high, data):
    """Implicit differentiation of the family's energy law gives its
    closed-form beta to criterion 4's bound, 1e-4."""
    g = data.draw(st.floats(low, high), label="g")
    lam = 10.0 ** data.draw(st.floats(1.0, 3.0), label="log10_lam")
    closed = uf.beta_closed_form(BASE[name], g, lam)
    numeric = uf.beta_numeric(BASE[name], g, lam)
    assert abs(numeric - closed) <= 1e-4 * abs(closed)
