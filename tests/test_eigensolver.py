import math

import numpy as np
import pytest

import uvflow as uf
from uvflow import eigensolver

MORSE_EXACT = -4.0 + math.sqrt(2.0) - 0.125  # A=4, a=1, m=1
QUARTIC_GROUND = 1.0603620904
QUARTIC_HIOE_MONTROLL = 1.0603620904841829  # J. Math. Phys. 16, 1945 (1975)


def half_oscillator():
    return uf.custom(lambda x: 0.5 * x * x, kappa=0.5,
                     d1=lambda x: x, d2=lambda x: 1.0 + 0.0 * x)


def test_grid_validation():
    with pytest.raises(uf.DomainError):
        uf.Grid(10.0, 4000)
    with pytest.raises(uf.DomainError):
        uf.Grid(10.0, 1)
    with pytest.raises(uf.DomainError):
        uf.Grid(-1.0, 401)
    g = uf.Grid(10.0, 4001)
    assert g.spacing == 20.0 / 4000
    assert g.nodes[0] == -10.0 and g.nodes[-1] == 10.0 and g.nodes[2000] == 0.0


def test_oscillator_ground_state():
    res = uf.ground_state(half_oscillator(), uf.Grid(12.0, 4001))
    assert abs(res.refinement_estimate - 0.5) < 1e-8
    assert 3.5 < res.convergence_ratio < 4.5
    norm = float(np.sum(res.eigenfunction ** 2)) * uf.Grid(12.0, 4001).spacing
    assert abs(norm - 1.0) < 1e-10
    assert res.parity is uf.Parity.EVEN


def test_oscillator_first_excited():
    res = uf.eigenvalue_by_index(half_oscillator(), uf.Grid(12.0, 4001), 1)
    assert abs(res.refinement_estimate - 1.5) < 1e-7
    assert res.parity is uf.Parity.ODD


def test_oscillator_levels_interleave():
    grid = uf.Grid(12.0, 4001)
    levels = [uf.eigenvalue_by_index(half_oscillator(), grid, k).refinement_estimate
              for k in range(3)]
    assert levels[0] < levels[1] < levels[2]
    assert abs(levels[2] - 2.5) < 1e-6


def test_quartic_ground_state():
    res = uf.ground_state(uf.quartic(1.0), uf.Grid(6.0, 4001))
    assert abs(res.refinement_estimate - QUARTIC_GROUND) < 1e-7


def test_morse_ground_state():
    res = uf.ground_state(uf.morse(4.0), uf.Grid(30.0, 4001))
    assert abs(res.refinement_estimate - MORSE_EXACT) < 1e-6
    assert res.parity is None  # asymmetric well


def test_ground_state_is_level_zero():
    grid = uf.Grid(6.0, 4001)
    a = uf.ground_state(uf.quartic(1.0), grid)
    b = uf.eigenvalue_by_index(uf.quartic(1.0), grid, 0)
    assert a.refinement_estimate == b.refinement_estimate


def test_coulomb_needs_odd_sector():
    grid = uf.Grid(30.0, 4001)
    with pytest.raises(uf.SingularPointError):
        uf.ground_state(uf.coulomb(1.0), grid)
    with pytest.raises(uf.SingularPointError):
        uf.ground_state(uf.coulomb(1.0), grid, parity=uf.Parity.EVEN)


def test_coulomb_odd_sector_ground():
    grid = uf.Grid(30.0, 4001)
    res = uf.ground_state(uf.coulomb(1.0), grid, parity=uf.Parity.ODD)
    assert abs(res.refinement_estimate + 0.5) < 1e-6
    assert res.eigenfunction[grid.n // 2] == 0.0  # exact node at the center


def test_soft_coulomb_sharpening_trend():
    # shorter softening length means a deeper well and a lower odd level,
    # but never below the bare Coulomb value -1/2
    grid = uf.Grid(30.0, 4001)
    e_sharp = uf.ground_state(uf.soft_coulomb(1.0, 100.0), grid,
                              parity=uf.Parity.ODD).refinement_estimate
    e_soft = uf.ground_state(uf.soft_coulomb(1.0, 10.0), grid,
                             parity=uf.Parity.ODD).refinement_estimate
    assert e_sharp < e_soft
    assert e_sharp > -0.5 and e_soft > -0.5


def test_quartic_coupling_scaling_on_one_grid():
    # E(g) = g**(1/3) E(1) for p^2 + g x^4; same grid so discretization
    # error cancels in the ratio
    grid = uf.Grid(6.0, 4001)
    e1 = uf.ground_state(uf.quartic(1.0), grid).refinement_estimate
    e8 = uf.ground_state(uf.quartic(8.0), grid).refinement_estimate
    assert abs(e8 - 2.0 * e1) < 1e-6


def test_box_too_small_raises():
    with pytest.raises(uf.DomainTooSmallError):
        uf.ground_state(half_oscillator(), uf.Grid(3.0, 401))


def test_negative_level_index_raises():
    with pytest.raises(uf.DomainError):
        uf.eigenvalue_by_index(half_oscillator(), uf.Grid(12.0, 4001), -1)


def test_shooting_oscillator():
    assert abs(uf.shooting_ground_energy(half_oscillator(), 12.0) - 0.5) < 1e-9
    assert abs(uf.shooting_ground_energy(half_oscillator(), 12.0,
                                         parity=uf.Parity.EVEN) - 0.5) < 1e-9


def test_shooting_agrees_with_grid_on_quartic():
    g = uf.ground_state(uf.quartic(1.0), uf.Grid(6.0, 4001)).refinement_estimate
    s = uf.shooting_ground_energy(uf.quartic(1.0), 6.0, parity=uf.Parity.EVEN)
    assert abs(g - s) < 1e-7


def test_shooting_morse():
    e = uf.shooting_ground_energy(uf.morse(4.0), 30.0)
    assert abs(e - MORSE_EXACT) < 1e-9


def test_shooting_coulomb_odd():
    e = uf.shooting_ground_energy(uf.coulomb(1.0), 30.0, parity=uf.Parity.ODD)
    assert abs(e + 0.5) < 1e-5


@pytest.mark.parametrize("spec, half_width, kwargs, exact", [
    (uf.quartic(1.0), 6.0, {"parity": uf.Parity.EVEN}, QUARTIC_HIOE_MONTROLL),
    (half_oscillator(), 12.0, {"parity": uf.Parity.ODD}, 1.5),
    # spans four levels, so the node count must isolate the lowest first
    (half_oscillator(), 12.0, {"bracket": (0.2, 4.0)}, 0.5),
], ids=["quartic-even", "oscillator-odd", "oscillator-wide-bracket"])
def test_shooting_matches_closed_form(spec, half_width, kwargs, exact):
    e = uf.shooting_ground_energy(spec, half_width, **kwargs)
    assert abs(e - exact) < 1e-9


def test_shooting_sweep_count(monkeypatch):
    sweeps = []
    for name in ("_numerov_nodes", "_numerov_mismatch"):
        def counted(*args, _sweep=getattr(eigensolver, name)):
            sweeps.append(_sweep)
            return _sweep(*args)
        monkeypatch.setattr(eigensolver, name, counted)
    uf.shooting_ground_energy(uf.quartic(1.0), 6.0, parity=uf.Parity.EVEN)
    assert 0 < len(sweeps) <= 16


def test_shooting_with_explicit_bracket():
    e = uf.shooting_ground_energy(half_oscillator(), 12.0, bracket=(0.2, 0.9))
    assert abs(e - 0.5) < 1e-9
    with pytest.raises(uf.DomainError):
        uf.shooting_ground_energy(half_oscillator(), 12.0, bracket=(0.8, 0.9))


def test_shooting_coulomb_needs_odd_sector():
    with pytest.raises(uf.SingularPointError):
        uf.shooting_ground_energy(uf.coulomb(1.0), 30.0)
    with pytest.raises(uf.SingularPointError):
        uf.shooting_ground_energy(uf.coulomb(1.0), 30.0, parity=uf.Parity.EVEN)


def test_shooting_validation():
    with pytest.raises(uf.DomainError):
        uf.shooting_ground_energy(half_oscillator(), -1.0)
    with pytest.raises(uf.DomainError):
        uf.shooting_ground_energy(half_oscillator(), 12.0, n=8)
    with pytest.raises(uf.DomainError):
        uf.shooting_ground_energy(half_oscillator(), 12.0, tol=0.0)
