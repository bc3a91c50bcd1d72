import math

import numpy as np
import pytest

import uvflow as uf

QUARTIC_FP_CUTOFF = 100.0
GAUSS_VS_GRID_OVERLAP = 0.9919629318


def test_quartic_reduction_closed_form():
    g, lam = 1.3, 50.0
    red = uf.expand_at_cutoff(uf.quartic(g), lam)
    assert abs(red.stiffness - 6.0 * g / lam ** 2) < 1e-12 * abs(red.stiffness)
    assert abs(red.center - 2.0 / (3.0 * lam)) < 1e-12 * red.center
    assert abs(red.offset - g / (3.0 * lam ** 4)) < 1e-12 * abs(red.offset)
    assert red.kappa == 1.0


def test_coulomb_reduction_closed_form():
    alpha, lam = -0.7, 30.0
    red = uf.expand_at_cutoff(uf.coulomb(alpha), lam)
    assert abs(red.stiffness + alpha * lam ** 3) < 1e-12 * abs(red.stiffness)
    assert abs(red.center - 1.5 / lam) < 1e-12 * red.center
    assert abs(red.offset + 0.75 * alpha * lam) < 1e-12 * abs(red.offset)


def test_morse_reduction_large_cutoff():
    A, a, lam = 4.0, 1.0, 1.0e4
    red = uf.expand_at_cutoff(uf.morse(A, a), lam)
    # stiffness approaches a^2 A from below, gap of order 3a/lam
    assert abs(red.stiffness - 3.998800140) < 5e-8
    # the completed-square offset is -A up to O(1/lam^3): no 1/lam^2 term
    assert abs(red.offset + A) < 1e-11
    printed = -A - a * a * A / lam ** 2
    gap = a * a * A / lam ** 2
    assert 0.99 * gap < abs(red.offset - printed) < 1.01 * gap


def test_polynomial_matches_taylor_reconstruction():
    """Completing the square then expanding back must reproduce the Taylor
    coefficients of the shape at x0, for every family and cutoff."""
    specs = [uf.morse(4.0), uf.quartic(1.3), uf.coulomb(1.0),
             uf.coulomb(-0.7), uf.soft_coulomb(1.0, 1000.0)]
    for spec in specs:
        for lam in (10.0, 1.0e2, 1.0e3, 1.0e4):
            red = uf.expand_at_cutoff(spec, lam)
            x0 = 1.0 / lam
            v0, v1, v2 = red.taylor
            assert (v0, v1, v2) == spec.derivatives(x0)
            c, xb, C = red.stiffness, red.center, red.offset
            c2, c1, c0 = c, -2.0 * c * xb, c * xb * xb + C
            w2 = 0.5 * v2
            w1 = v1 - v2 * x0
            w0 = v0 - v1 * x0 + 0.5 * v2 * x0 * x0
            assert abs(c2 - w2) < 1e-12 * max(1.0, abs(w2))
            assert abs(c1 - w1) < 1e-12 * max(1.0, abs(w1))
            assert abs(c0 - w0) < 1e-12 * max(1.0, abs(w0))


def test_ho_ground_energy_quartic():
    g, lam = 1.0, 40.0
    est = uf.ho_ground_energy(uf.expand_at_cutoff(uf.quartic(g), lam))
    law = math.sqrt(6.0 * g) / lam + g / (3.0 * lam ** 4)
    assert abs(est.energy - law) < 1e-12 * law
    assert est.branches is None


def test_ho_ground_energy_coulomb_negative_coupling():
    lam = 200.0
    alpha = -1.0 / (2.0 * lam ** 3)
    est = uf.ho_ground_energy(uf.expand_at_cutoff(uf.coulomb(alpha), lam))
    law = 0.5 * math.sqrt(-2.0 * alpha * lam ** 3) - 0.75 * alpha * lam
    assert abs(est.energy - law) < 1e-12 * abs(law)
    assert est.branches is None


def test_ho_ground_energy_unit_oscillator_exact():
    spec = uf.custom(lambda x: 0.5 * x * x, kappa=0.5,
                     d1=lambda x: x, d2=lambda x: 1.0 + 0.0 * x)
    est = uf.ho_ground_energy(uf.expand_at_cutoff(spec, 100.0))
    assert est.energy == 0.5


def test_ho_ground_energy_inverted_reports_both_branches():
    est = uf.ho_ground_energy(uf.expand_at_cutoff(uf.coulomb(1.0), 50.0))
    assert est.branches is not None
    plus, minus = est.branches
    assert plus > minus
    assert est.energy == plus


def test_ho_ground_wavefunction_unit_oscillator():
    spec = uf.custom(lambda x: 0.5 * x * x, kappa=0.5,
                     d1=lambda x: x, d2=lambda x: 1.0 + 0.0 * x)
    state = uf.ho_ground_wavefunction(uf.expand_at_cutoff(spec, 100.0))
    assert state.sigma == 1.0
    assert abs(state.center) < 1e-15


def test_ho_ground_wavefunction_matches_grid_solver():
    """At the coupling that pins the reduced stiffness to 1, the reduced
    Gaussian should overlap the true quartic ground state at the 99% level."""
    lam = QUARTIC_FP_CUTOFF
    g = lam ** 2 / 6.0
    red = uf.expand_at_cutoff(uf.quartic(g), lam)
    state = uf.ho_ground_wavefunction(red)
    assert state.sigma == 1.0
    assert abs(state.center - 2.0 / (3.0 * lam)) < 1e-15

    grid = uf.Grid(6.0, 4001)
    res = uf.ground_state(uf.quartic(1.0), grid)
    overlap = float(np.sum(res.eigenfunction * state(grid.nodes)) * grid.spacing)
    assert overlap > 0.99
    assert abs(overlap - GAUSS_VS_GRID_OVERLAP) < 5e-4


def test_gaussian_state_is_normalized():
    state = uf.GaussianState(center=0.3, sigma=0.7)
    x = np.linspace(-10.0, 10.0, 4001)
    h = x[1] - x[0]
    assert abs(np.sum(state(x) ** 2) * h - 1.0) < 1e-10


def test_ho_ground_wavefunction_inverted_raises():
    red = uf.expand_at_cutoff(uf.coulomb(1.0), 50.0)
    with pytest.raises(uf.NoBoundStateError):
        uf.ho_ground_wavefunction(red)


def test_reduced_oscillator_virial_balance():
    """Solve the reduced quadratic itself on a grid: kinetic and potential
    expectation values (above the offset) must match, and the level must sit
    at sqrt(kappa c) + C."""
    lam = QUARTIC_FP_CUTOFF
    red = uf.expand_at_cutoff(uf.quartic(lam ** 2 / 6.0), lam)
    c, xb, C = red.stiffness, red.center, red.offset

    def profile(x):
        return c * (np.asarray(x, dtype=float) - xb) ** 2 + C

    spec = uf.custom(profile, kappa=red.kappa)
    grid = uf.Grid(10.0, 16001)
    res = uf.ground_state(spec, grid, refine=False)
    psi2 = res.eigenfunction ** 2
    v_mean = float(np.sum(psi2 * profile(grid.nodes)) * grid.spacing)
    t_mean = res.eigenvalue - v_mean
    assert abs(t_mean - (v_mean - C)) < 1e-6 * t_mean
    assert abs(res.eigenvalue - uf.ho_ground_energy(red).energy) < 1e-7


def test_degenerate_expansion_raises():
    flat = uf.custom(lambda x: 3.0 * x, d1=lambda x: 3.0 + 0.0 * x,
                     d2=lambda x: 0.0 * x)
    with pytest.raises(uf.DegenerateExpansionError):
        uf.expand_at_cutoff(flat, 10.0)


def test_reduction_leaving_the_float_range_raises():
    """V'^2 overflows at g = 1e200, cutoff 10: the offset would be -inf."""
    spec = uf.with_coupling_and_cutoff(uf.quartic(1.0), 1.0e200, 10.0)
    with pytest.raises(uf.DomainError, match="float range"):
        uf.expand_at_cutoff(spec, 10.0)
    assert math.isfinite(uf.expand_at_cutoff(uf.quartic(1.0e150), 10.0).offset)


def test_nonpositive_cutoff_raises():
    with pytest.raises(uf.DomainError):
        uf.expand_at_cutoff(uf.quartic(1.0), 0.0)
    with pytest.raises(uf.DomainError):
        uf.expand_at_cutoff(uf.quartic(1.0), -3.0)
