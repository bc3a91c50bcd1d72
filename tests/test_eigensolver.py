import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

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
    for half_width in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(uf.DomainError):
            uf.Grid(half_width, 401)
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
], ids=["quartic-even", "oscillator-odd"])
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


@pytest.mark.parametrize("parity, levels", [(None, 5), (uf.Parity.EVEN, 3)],
                         ids=["full-line", "even-sector"])
def test_shooting_halves_a_multi_level_step(monkeypatch, parity, levels):
    # levels 0.1 (k + 1/2): the first growth step, [min V, min V + 1/2],
    # holds five of them on the full line and three even ones, so the node
    # count must isolate the lowest before Brent runs
    counts = []

    def counted(w, sector, _nodes=eigensolver._numerov_nodes):
        counts.append(_nodes(w, sector))
        return counts[-1]

    monkeypatch.setattr(eigensolver, "_numerov_nodes", counted)
    spec = uf.custom(lambda x: 0.005 * x * x, kappa=0.5,
                     d1=lambda x: 0.01 * x, d2=lambda x: 0.01 + 0.0 * x)
    e = uf.shooting_ground_energy(spec, 60.0, parity=parity)
    assert counts[0] == levels
    assert abs(e - 0.05) < 2e-14


def test_shooting_coulomb_needs_odd_sector():
    with pytest.raises(uf.SingularPointError):
        uf.shooting_ground_energy(uf.coulomb(1.0), 30.0)
    with pytest.raises(uf.SingularPointError):
        uf.shooting_ground_energy(uf.coulomb(1.0), 30.0, parity=uf.Parity.EVEN)


def test_shooting_validation():
    for half_width in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(uf.DomainError):
            uf.shooting_ground_energy(half_oscillator(), half_width)


# -- conformance with exact spectra -------------------------------------------

def morse_level(k, A=4.0):
    # P. M. Morse, Phys. Rev. 34, 57 (1929), a = m = 1
    return -A + math.sqrt(2.0 * A) * (k + 0.5) - 0.5 * (k + 0.5) ** 2


# (spec, half width, n, parity, level, exact, raw bound, refined bound);
# each bound is about ten times the error seen when the test was written
CONFORMANCE = {
    "morse-0": (uf.morse(4.0), 30.0, 4001, None, 0, morse_level(0), 5e-4, 5e-9),
    "morse-1": (uf.morse(4.0), 30.0, 4001, None, 1, morse_level(1), 1e-3, 2.5e-8),
    # odd 1D Coulomb levels are -alpha^2/(2 n^2): R. Loudon, Am. J. Phys. 27, 649 (1959)
    "coulomb-odd-half": (uf.coulomb(1.0), 30.0, 4001, uf.Parity.ODD, 0, -0.5,
                         3e-4, 8e-9),
    "coulomb-odd-eighth": (uf.coulomb(1.0), 60.0, 8001, uf.Parity.ODD, 1, -0.125,
                           2e-5, 1.5e-10),
    "harmonic-0": (half_oscillator(), 12.0, 4001, None, 0, 0.5, 1e-5, 3e-11),
    "harmonic-1": (half_oscillator(), 12.0, 4001, None, 1, 1.5, 6e-5, 8e-11),
    "harmonic-2": (half_oscillator(), 12.0, 4001, None, 2, 2.5, 1.5e-4, 3e-10),
    "harmonic-3": (half_oscillator(), 12.0, 4001, None, 3, 3.5, 3e-4, 6e-10),
    "quartic-hioe-montroll": (uf.quartic(1.0), 6.0, 4001, None, 0,
                              QUARTIC_HIOE_MONTROLL, 1e-5, 1.5e-10),
}


@pytest.mark.parametrize("refine", [False, True], ids=["raw", "refined"])
@pytest.mark.parametrize("case", sorted(CONFORMANCE))
def test_grid_matches_exact_spectrum(case, refine):
    spec, half_width, n, parity, k, exact, raw_bound, refined_bound = CONFORMANCE[case]
    res = uf.eigenvalue_by_index(spec, uf.Grid(half_width, n), k, parity=parity,
                                 refine=refine)
    if refine:
        assert abs(res.refinement_estimate - exact) < refined_bound
    else:
        assert abs(res.eigenvalue - exact) < raw_bound
        assert math.isnan(res.convergence_ratio)


def test_sectors_split_at_the_center_index():
    # linspace leaves the center node at +1.8e-15 for this width; a sign
    # test put it in the odd sector and moved the level by 1e-2
    grid = uf.Grid(13.716, 801)
    assert grid.nodes[400] != 0.0
    odd = uf.ground_state(half_oscillator(), grid, parity=uf.Parity.ODD)
    even = uf.ground_state(half_oscillator(), grid, parity=uf.Parity.EVEN)
    assert abs(odd.refinement_estimate - 1.5) < 1e-7
    assert abs(even.refinement_estimate - 0.5) < 1e-7
    assert len(odd.eigenfunction) == len(even.eigenfunction) == 801


# -- the seeded Sturm-window solve --------------------------------------------

WINDOW_SECTORS = {
    "full-line-morse-wall": (uf.morse(4.0), 30.0, None),
    "odd-coulomb": (uf.coulomb(1.0), 30.0, uf.Parity.ODD),
    "even-quartic": (uf.quartic(1.0), 6.0, uf.Parity.EVEN),
}


def index_reference(spec, grid, parity, k):
    """Level k by LAPACK index bisection on the same sector matrix."""
    d, e = eigensolver._sector_matrix(spec, grid, parity)
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(k, k),
                            tol=eigensolver._EIG_TOL)
    return float(w[0]), v[:, 0]


def sector_vector(psi, parity):
    """The unit sector eigenvector inside a full-grid eigenfunction."""
    center = len(psi) // 2
    if parity is None:
        return psi[1:-1]
    if parity is uf.Parity.ODD:
        return psi[center + 1:-1]
    body = psi[center:-1].copy()
    body[0] /= math.sqrt(2.0)
    return body


def assert_same_level(spec, grid, parity, k, seed):
    ref_w, ref_v = index_reference(spec, grid, parity, k)
    w, psi = eigensolver._solve_sector(spec, grid, k, parity, seed)
    assert abs(w - ref_w) <= 2.0 * eigensolver._EIG_TOL * max(1.0, abs(ref_w))
    v = sector_vector(psi, parity)
    assert min(np.max(np.abs(v - ref_v)), np.max(np.abs(v + ref_v))) < 1e-8


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("sector", sorted(WINDOW_SECTORS))
def test_window_solve_matches_index_solve(sector, k):
    spec, half_width, parity = WINDOW_SECTORS[sector]
    # 4001 points seed from 2001, which seeds from the 1001-point base grid
    grid = uf.Grid(half_width, 4001)
    assert_same_level(spec, grid, parity, k,
                      eigensolver._coarse_level(spec, grid, k, parity))


@pytest.mark.parametrize("sector", sorted(WINDOW_SECTORS))
def test_window_solve_ignores_a_bad_seed(sector):
    spec, half_width, parity = WINDOW_SECTORS[sector]
    grid = uf.Grid(half_width, 2001)
    levels = [index_reference(spec, grid, parity, k)[0] for k in range(4)]
    for k in range(4):
        # far above, far below, and on every other level
        for seed in [levels[k] + 1.0e3, levels[k] - 1.0e3] + levels[:k] + levels[k + 1:]:
            assert_same_level(spec, grid, parity, k, seed)


@pytest.mark.parametrize("k", [0, 1])
def test_window_stops_at_adjacent_floats(k):
    """Levels closer than one ulp of their size: halving stops once the
    midpoint would round onto an end, with both levels in the window."""
    window = eigensolver._sturm_window(np.array([1000.0, 1000.0]),
                                       np.array([1.0e-14]), k, 1000.0)
    assert window == (999.9999999999999, 1000.0, 0, 2)


def test_only_base_size_grids_are_solved_by_index(monkeypatch):
    calls = []

    def recorded(d, e, **kwargs):
        calls.append((len(d), kwargs["select"]))
        return eigh_tridiagonal(d, e, **kwargs)

    monkeypatch.setattr(eigensolver, "eigh_tridiagonal", recorded)
    uf.ground_state(uf.morse(4.0), uf.Grid(30.0, 8001))
    # 1001 (index) -> 2001 -> 4001 (the coarse companion) -> 8001 -> 15001
    assert calls == [(999, "i"), (1999, "v"), (3999, "v"), (7999, "v"),
                     (15999, "v")]


def test_non_finite_potential_is_a_domain_error():
    # infinite only on the center node, which the coarse rungs share
    spiked = uf.custom(lambda x: np.where(x == 0.0, np.inf, 0.5 * x * x), kappa=0.5)
    for n in (401, 4001):
        with pytest.raises(uf.DomainError, match="not finite"):
            uf.ground_state(spiked, uf.Grid(12.0, n))
    # NaN on the finest grid only, where the seeded window search runs
    fine_nan = uf.custom(lambda x: 0.5 * x * x if x.size < 3000 else x * np.nan,
                         kappa=0.5)
    with pytest.raises(uf.DomainError, match="not finite"):
        uf.ground_state(fine_nan, uf.Grid(12.0, 4001))


def test_level_beyond_the_sector_is_a_domain_error():
    grid = uf.Grid(30.0, 4001)
    for refine in (False, True):
        with pytest.raises(uf.DomainError,
                           match=r"^level index 1999 exceeds the sector size 1999$"):
            uf.eigenvalue_by_index(uf.coulomb(1.0), grid, 1999,
                                   parity=uf.Parity.ODD, refine=refine)
    # a level the coarse sector lacks is solved by index, unseeded
    assert eigensolver._coarse_level(uf.coulomb(1.0), grid, 1500, uf.Parity.ODD) is None
    assert_same_level(uf.coulomb(1.0), grid, uf.Parity.ODD, 1500, None)
