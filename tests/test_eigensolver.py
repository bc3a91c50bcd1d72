import contextlib
import functools
import itertools
import math
from collections import namedtuple

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

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


@pytest.mark.parametrize("spec, grid, parity", [
    (uf.quartic(-1.0), uf.Grid(6.0, 401), None),
    (uf.quartic(-1.0), uf.Grid(6.0, 401), uf.Parity.EVEN),
    (uf.coulomb(-1.0), uf.Grid(30.0, 401), uf.Parity.ODD),
], ids=["inverted-quartic", "inverted-quartic-even", "repulsive-coulomb-odd"])
def test_level_at_a_lowest_wall_has_no_bound_state(spec, grid, parity):
    with pytest.raises(uf.NoBoundStateError):
        uf.eigenvalue_by_index(spec, grid, 0, parity=parity)


def test_negative_level_index_raises():
    with pytest.raises(uf.DomainError):
        uf.eigenvalue_by_index(half_oscillator(), uf.Grid(12.0, 4001), -1)


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


def index_route(spec, grid, parity, k):
    """Level k and its unit sector vector unseeded: bracketed by Sturm
    counts up from the floor, bisected inside the bracket, then refined."""
    return eigensolver._solve_sector(spec, grid, k, parity)


def gershgorin(d, e):
    """floor and top of ``_level``: below and above the Gershgorin interval
    of T = (d, e), where N is 0 and the number of rows."""
    return (np.min(d) - 2.0 * np.max(np.abs(e)) - max(1.0, 1.0e-12 * abs(np.min(d))),
            np.max(d) + 2.0 * np.max(np.abs(e)) + 1.0)


def window_ends(seed, k, floor):
    """The window (lo, hi] that ``_level`` counts for level k seeded at
    ``seed``; a ground state's reaches down to the floor."""
    width = eigensolver._WINDOW * max(1.0, abs(seed))
    return seed - width if k else floor, seed + width


def assert_same_level(ref, found):
    """The level and vector ``found`` agree with ``ref``, the index route's,
    to 1e-14 of the level, and on the eigenvector up to its sign."""
    (ref_w, ref_v), (w, v) = ref, found
    assert abs(w - ref_w) <= 1e-14 * max(1.0, abs(ref_w))
    assert min(np.max(np.abs(v - ref_v)), np.max(np.abs(v + ref_v))) < 1e-8


# dgtsv solves that refine one seeded level, at most: up to four
# Rayleigh-quotient steps and the last solve
MAX_SOLVES = 5


def spy_lapack(monkeypatch, name, spied):
    """Route the grid route's calls of LAPACK routine ``name`` through
    ``spied(routine, *args)``; spies of different routines compose."""
    routine = "_" + name
    monkeypatch.setattr(eigensolver, routine,
                        functools.partial(spied, getattr(eigensolver, routine)))


# one LAPACK dstebz call over the interval ``window``: "count" a Sturm
# count (infinite tolerance), "bisect" a bisection of the ``levels``
# eigenvalues in it to _EIG_TOL
Dstebz = namedtuple("Dstebz", "kind rows window levels")


@pytest.fixture
def dstebz_calls(monkeypatch):
    """Every dstebz call of the grid route, in order, as ``Dstebz``; each
    selects its eigenvalues by interval (range 'V'), none by index."""
    calls = []

    def spied(stebz, d, e, rng, vl, vu, il, iu, tol, order):
        assert rng == 1
        found = stebz(d, e, rng, vl, vu, il, iu, tol, order)
        calls.append(Dstebz("count" if tol == math.inf else "bisect",
                            len(d), (vl, vu), int(found[0])))
        return found

    spy_lapack(monkeypatch, "stebz", spied)
    return calls


@pytest.fixture
def gtsv_calls(monkeypatch):
    """The number of rows of every dgtsv solve of the grid route, in order."""
    calls = []

    def spied(gtsv, dl, d, du, b, *overwrite):
        calls.append(len(d))
        return gtsv(dl, d, du, b, *overwrite)

    spy_lapack(monkeypatch, "gtsv", spied)
    return calls


def ladder_seeds(spec, grid, parity, k, monkeypatch):
    """The seed of each grid that eigenvalue_by_index solves for level k,
    refined, keyed by grid size; None for an index solve."""
    seeds = {}
    solve = eigensolver._solve_sector

    def spied(spec, g, k, parity, seed=None):
        seeds[g.n] = seed
        return solve(spec, g, k, parity, seed)

    monkeypatch.setattr(eigensolver, "_solve_sector", spied)
    # a level that the box does not confine is still solved first
    with contextlib.suppress(uf.DomainTooSmallError, uf.NoBoundStateError):
        uf.eigenvalue_by_index(spec, grid, k, parity=parity)
    return seeds


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("sector", sorted(WINDOW_SECTORS))
def test_window_solve_matches_index_solve(sector, k, monkeypatch, dstebz_calls):
    spec, half_width, parity = WINDOW_SECTORS[sector]
    # the 1001-point base by index, the 2001-point companion seeded from the
    # base alone, 4001 points predicted from both; the fine 8001 points are
    # solved only for a level that the box confines
    grid = uf.Grid(half_width, 4001)
    seeds = ladder_seeds(spec, grid, parity, k, monkeypatch)
    assert sorted(seeds)[:3] == [1001, 2001, 4001] and seeds[1001] is None
    for n in (2001, 4001):
        g, seed = uf.Grid(half_width, n), seeds[n]
        ref = index_route(spec, g, parity, k)
        dstebz_calls.clear()
        assert_same_level(ref, eigensolver._solve_sector(spec, g, k, parity, seed))
        # every seeded window is seed +- _WINDOW max(1, |seed|), counted
        # from its low end; a ground state's low end is the floor, uncounted
        width = eigensolver._WINDOW * max(1.0, abs(seed))
        edges = [seed - width, seed + width] if k else [seed + width]
        counted = [c.window[1] for c in dstebz_calls if c.kind == "count"]
        assert counted and counted == edges[:len(counted)]


@pytest.mark.parametrize("sector", sorted(WINDOW_SECTORS))
def test_window_solve_ignores_a_bad_seed(sector, dstebz_calls):
    spec, half_width, parity = WINDOW_SECTORS[sector]
    grid = uf.Grid(half_width, 2001)
    refs = [index_route(spec, grid, parity, k) for k in range(4)]
    levels = [w for w, _ in refs]
    d, e, _ = eigensolver._sector_matrix(spec, grid, parity)
    spectrum = eigh_tridiagonal(d, e, eigvals_only=True)
    floor, top = gershgorin(d, e)

    def below(x):
        return int(np.sum(spectrum <= x))

    for k in range(4):
        # far above, far below, and on every other level
        for seed in [levels[k] + 1.0e3, levels[k] - 1.0e3] + levels[:k] + levels[k + 1:]:
            dstebz_calls.clear()
            assert_same_level(refs[k], eigensolver._solve_sector(spec, grid, k, parity, seed))
            # a bad seed costs its window counts, lo (not for a ground
            # state) and then hi unless N(lo) > k, each a call if it lies
            # inside (floor, top), and one bracket: counts on the level's
            # side of the window, then one bisection
            lo, hi = window_ends(seed, k, floor)
            window = [x for x in ([lo] if k else []) + ([hi] if below(lo) <= k else [])
                      if floor < x < top]
            assert [c.window[1] for c in dstebz_calls[:len(window)]] == window
            assert {c.kind for c in dstebz_calls[:len(window)]} <= {"count"}
            bracket = dstebz_calls[len(window):]
            if not bracket:
                assert (below(lo), below(hi)) == (k, k + 1)
                continue
            *counts, bisect = bracket
            assert bisect.kind == "bisect" and {c.kind for c in counts} <= {"count"}
            a, b = bisect.window
            assert below(a) <= k < below(b)
            for c in counts:
                x = c.window[1]
                if below(lo) > k:
                    assert x < lo
                elif below(hi) <= k:
                    assert x > hi
                else:
                    assert lo < x < hi


@pytest.mark.parametrize("k", [0, 1])
def test_window_holding_a_cluster_is_bisected_inside_it(k, dstebz_calls):
    """Levels closer than one ulp of their size: a window that holds both
    does not hold level k alone, so it becomes the bracket, halved by
    counts inside it until it is _EIG_TOL wide and bisected with both
    levels in it."""
    d, e = np.array([1000.0, 1000.0]), np.array([1.0e-14])

    def quotient(u):
        return float(d @ (u * u) + 2.0 * e[0] * u[0] * u[1])

    # seeded at 1001 the window is 1001 +- 5.005: the ground state's,
    # (floor, 1006.005], holds both at once; level 1's low end, 995.995,
    # lies below the Gershgorin interval and its high end above it, so
    # neither end's count needs a call
    w, v = eigensolver._level(d, e, k, 1001.0, quotient)
    floor, top = gershgorin(d, e)
    lo, hi = window_ends(1001.0, k, floor)
    *counts, bisect = dstebz_calls
    assert counts and all(c.kind == "count" and lo < c.window[1] < top for c in counts)
    a, b = bisect.window
    assert (bisect.kind, bisect.levels) == ("bisect", 2) and lo <= a < b <= hi
    assert b - a <= eigensolver._EIG_TOL * max(abs(a), abs(b))
    ref = eigh_tridiagonal(d, e, eigvals_only=True)[k]
    assert abs(w - ref) <= 2.0 * eigensolver._EIG_TOL * abs(ref)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_a_shift_on_a_level_is_solved_one_float_above():
    """A shift that is an eigenvalue to working precision stops dgtsv at a
    zero pivot; the solve is repeated one float above it, and the
    refinement still finds the level and its vector."""
    d, e = np.full(3, 2.0), np.full(2, -1.0)
    assert eigensolver._gtsv(e.copy(), d - 2.0, e.copy(), np.ones(3))[4] == 3

    def quotient(u):
        return float(d @ (u * u) + 2.0 * (e @ (u[:-1] * u[1:])))

    # levels 2 - sqrt(2), 2 and 2 + sqrt(2); level 1 seeded exactly on it
    w, v = eigensolver._level(d, e, 1, 2.0, quotient)
    assert abs(w - 2.0) <= 4.0 * np.finfo(float).eps
    assert np.allclose(np.abs(v), [math.sqrt(0.5), 0.0, math.sqrt(0.5)], atol=1e-12)


def test_both_lapack_routes_agree_in_one_process():
    """With scipy.linalg imported, as it is here, the extension loaded from
    its file and the routines scipy.linalg hands out give the same Sturm
    count and the same dgtsv solve."""
    d, e, _ = eigensolver._sector_matrix(uf.quartic(1.0), uf.Grid(6.0, 2001), None)
    floor = np.min(d) - 2.0 * np.max(np.abs(e)) - 1.0
    u = np.linspace(1.0, 2.0, len(d))
    flapack = eigensolver._load_flapack()
    counts, solves = [], []
    for stebz, gtsv in [(flapack.dstebz, flapack.dgtsv),
                        get_lapack_funcs(("stebz", "gtsv"), (d, e))]:
        counts.append(stebz(d, e, 1, floor, 10.0, 1, 1, math.inf, "B")[0])
        solves.append(gtsv(e.copy(), d - 1.06, e.copy(), u.copy())[3])
    assert counts[0] == counts[1] == 3
    assert np.array_equal(solves[0], solves[1])


def test_only_base_size_grids_start_from_the_floor(dstebz_calls, gtsv_calls):
    # refined: 1001 (from the floor) -> 4001 (the coarse companion) -> 8001
    # -> 16001 (fine); raw: 1001 (from the floor) -> 8001; no other halving
    # is solved, and each window holds the level, so it is counted once
    # and refined, never bisected
    for refine, counted in ((True, [3999, 7999, 15999]), (False, [7999])):
        dstebz_calls.clear()
        gtsv_calls.clear()
        uf.ground_state(uf.morse(4.0), uf.Grid(30.0, 8001), refine=refine)
        base = [c for c in dstebz_calls if c.rows == 999]
        floor = base[0].window[0]
        assert base[0] == Dstebz("count", 999, (floor, floor + 1.0), 0)
        assert [c.kind for c in base] == ["count"] * (len(base) - 1) + ["bisect"]
        assert sorted(c.rows for c in dstebz_calls if c.rows != 999) == counted
        assert {c.kind for c in dstebz_calls if c.rows != 999} == {"count"}
        assert sorted(set(gtsv_calls)) == [999] + counted


def test_coarse_companion_is_made_odd(dstebz_calls):
    # n = 3 (mod 4): (n + 1)/2 = 2002 is even, so the companion has 2003 points
    grid = uf.Grid(12.0, 4003)
    assert eigensolver._coarser(grid) == uf.Grid(12.0, 2003)
    res = uf.ground_state(half_oscillator(), grid)
    assert abs(res.refinement_estimate - 0.5) < 1e-8
    assert 3.5 < res.convergence_ratio < 4.5
    # 1003 (index) -> 2003 (the companion) -> 4003 -> 8005, interior rows
    assert sorted({c.rows for c in dstebz_calls}) == [1001, 2001, 4001, 8003]


@pytest.mark.parametrize("spec, half_width, parity", [
    (uf.morse(4.0), 30.0, None), (uf.quartic(1.0), 6.0, None),
    (uf.coulomb(1.0), 30.0, uf.Parity.ODD)],
    ids=["morse", "quartic", "odd-coulomb"])
def test_refined_ground_state_dstebz_calls(spec, half_width, parity, dstebz_calls,
                                           gtsv_calls):
    """The work of a refined 8001- or 16001-point ground state, as LAPACK
    calls: on the 1001-point base grid, counts up from the floor and one
    bisection of the bracket they isolate the level in, then one count per
    window (the coarse companion, the grid and the fine grid); every window
    holds the level, so none takes the bracket route.  Each grid is refined
    by MAX_SOLVES dgtsv solves or fewer, in ladder order."""
    for n in (8001, 16001):
        dstebz_calls.clear()
        gtsv_calls.clear()
        uf.ground_state(spec, uf.Grid(half_width, n), parity=parity)
        rows = [uf.Grid(half_width, m).sector(parity)[1]
                for m in (1001, (n + 1) // 2, n, 2 * n - 1)]
        base = [c for c in dstebz_calls if c.rows == rows[0]]
        assert len(base) >= 2 and base[-1].levels == 1
        assert [(c.kind, c.rows) for c in dstebz_calls] == [("count", rows[0])] * (
            len(base) - 1) + [("bisect", rows[0])] + [("count", r) for r in rows[1:]]
        assert [r for r, _ in itertools.groupby(gtsv_calls)] == rows
        assert max(gtsv_calls.count(r) for r in rows) <= MAX_SOLVES



@pytest.mark.parametrize("spec, half_width, refined", [
    (uf.soft_coulomb(1.0, 100.0), 30.0, -0.49929782213206836),
    (uf.soft_coulomb(1.0, 50.0), 30.0, -0.49773507190936445),
    (uf.soft_coulomb(2.0, 100.0), 15.0, -1.990940287637456),
], ids=["alpha-1-lam-100", "alpha-1-lam-50", "alpha-2-lam-100"])
def test_pre_asymptotic_soft_coulomb_windows_hold_their_level(spec, half_width, refined,
                                                              dstebz_calls):
    """The paper suite's soft-Coulomb ground states, odd sector, whose h^2
    predictions on 4001 and 8001 points are off by more than their
    corrections: each 0.5% window still holds the level at its one count,
    after the 1001-point base's counts and bisection, and the refined level
    is the one the bracket route gives."""
    res = uf.ground_state(spec, uf.Grid(half_width, 4001), parity=uf.Parity.ODD)
    base = sum(c.rows == 499 for c in dstebz_calls)
    assert base >= 2
    assert [(c.kind, c.rows) for c in dstebz_calls] == [("count", 499)] * (base - 1) + [
        ("bisect", 499), ("count", 999), ("count", 1999), ("count", 3999)]
    assert res.refinement_estimate == refined

@pytest.mark.parametrize("k", [0, 1])
def test_a_pair_no_count_splits_is_bisected_together(k, dstebz_calls):
    """The inverted quartic's two wall states, one at each end of the box,
    lie closer than any count can split: the bracket is halved to _EIG_TOL
    width with both in it, bisected, and its entry k - N(a) is level k."""
    d, e, rayleigh = eigensolver._sector_matrix(uf.quartic(-1.0), uf.Grid(6.0, 401), None)
    w, _ = eigensolver._level(d, e, k, None, rayleigh)
    bisect = dstebz_calls[-1]
    assert (bisect.kind, bisect.levels) == ("bisect", 2)
    ref = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(k, k))[0]
    assert abs(w - ref) <= eigensolver._EIG_TOL * max(1.0, abs(ref))


def test_a_deep_wall_keeps_level_zero_above_the_floor(dstebz_calls):
    """The inverted Morse well on its 1001-point base: the wall at x = -30
    puts min d near -1.0e26, where one ulp is about 1.7e10, so a unit
    margin below the Gershgorin interval rounds back to min d, and level
    0, at min d, would never be counted.  The floor's margin scales with
    |min d|, so the counts find level 0, not level 1 (-8.98e25)."""
    d, e, rayleigh = eigensolver._sector_matrix(uf.morse(-1.0), uf.Grid(30.0, 1001), None)
    floor, _ = gershgorin(d, e)
    assert np.min(d) - 2.0 * np.max(np.abs(e)) - 1.0 == np.min(d) > floor
    w, _ = eigensolver._level(d, e, 0, None, rayleigh)
    assert all(c.window[0] == floor for c in dstebz_calls if c.kind == "count")
    ref = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 1))
    assert ref[0] < 1.1 * ref[1] < 0.0
    assert abs(w - ref[0]) <= eigensolver._EIG_TOL * abs(ref[0])


def test_a_cluster_window_makes_no_count_below_it(monkeypatch, dstebz_calls):
    """Harmonic level 300 on 8001 points of half-width 50: its neighbours
    lie within 0.5% of it, so a seeded window holds them too and becomes
    the bracket, halved inside it; a window below the level steps up from
    its high end.  Either way no count lies below the window's low end,
    and every bit of the refined level is pinned."""
    spec, grid, k = half_oscillator(), uf.Grid(50.0, 8001), 300
    seeds = ladder_seeds(spec, grid, None, k, monkeypatch)
    clusters = 0
    for n, seed in seeds.items():
        if seed is None:
            continue
        rows = uf.Grid(50.0, n).sector(None)[1]
        calls = [c for c in dstebz_calls if c.rows == rows]
        lo, hi = window_ends(seed, k, None)
        assert calls[0].window[1] == lo
        assert all(c.window[1] >= lo for c in calls if c.kind == "count")
        n_lo, n_hi = calls[0].levels, calls[1].levels
        if n_lo <= k and n_hi > k + 1:
            clusters += 1
            assert all(lo <= c.window[1] <= hi for c in calls if c.kind == "count")
    assert sorted(seeds) == [1001, 4001, 8001, 16001] and clusters >= 2
    res = uf.eigenvalue_by_index(spec, grid, k)
    assert res.refinement_estimate.hex() == "0x1.2c802acabe5f3p+8"


def test_the_highest_level_caps_the_steps_at_the_gershgorin_top(dstebz_calls):
    """The last level of a 5-row sector: the steps up from the floor pass
    the spectrum, the step that would pass top stops at it, where N is the
    number of rows and no count is needed, and the bracket from the last
    step to top holds the level alone.  (On the full line the last two
    levels, one at each wall, would be bisected together.)"""
    d, e, rayleigh = eigensolver._sector_matrix(uf.quartic(1.0), uf.Grid(6.0, 11),
                                                uf.Parity.EVEN)
    k = len(d) - 1
    w, _ = eigensolver._level(d, e, k, None, rayleigh)
    floor, top = gershgorin(d, e)
    *counts, bisect = dstebz_calls
    steps = [c.window[1] for c in counts]
    assert steps == [floor + 2.0 ** i - 1.0 for i in range(1, len(steps) + 1)]
    assert all(c.kind == "count" and c.levels <= k for c in counts)
    assert steps[-1] + 2.0 ** len(steps) > top
    assert bisect == Dstebz("bisect", k + 1, (steps[-1], top), 1)
    ref = eigh_tridiagonal(d, e, eigvals_only=True)[-1]
    assert abs(w - ref) <= eigensolver._EIG_TOL * max(1.0, abs(ref))


def test_an_unseeded_ladder_keeps_its_bits():
    """``oracle quartic --n 401``: the grid and its 201-point companion
    are at most the base size, so each is bracketed from the floor, and
    the fine 801 points are seeded from them; every bit of the levels is
    pinned."""
    res = uf.eigenvalue_by_index(uf.quartic(1.0), uf.Grid(6.0, 401), 0)
    assert [res.eigenvalue.hex(), res.refinement_estimate.hex(),
            res.convergence_ratio.hex()] == [
        "0x1.0f6ceb3752d73p+0", "0x1.0f73e3d6943d1p+0", "0x1.0004608049c4dp+2"]


def test_a_level_the_grid_does_not_resolve_is_refused():
    """The quartic level grows as g^(1/3) and narrows as g^(-1/6): at
    g = 1e12 on 4001 points it is right to 4.7e-6 with a Richardson
    correction of 1.0e-2 of its size, under _RESOLVED; at g = 1e16 the
    correction is 0.137 and the level 2.3% off, so it is refused, naming
    the grid size."""
    grid = uf.Grid(6.0, 4001)
    res = uf.ground_state(uf.quartic(1.0e12), grid)
    assert abs(res.refinement_estimate / (1.0e4 * QUARTIC_HIOE_MONTROLL) - 1.0) < 1e-5
    correction = abs(res.refinement_estimate - res.eigenvalue) / res.refinement_estimate
    assert 0.009 < correction < eigensolver._RESOLVED
    with pytest.raises(uf.DomainTooSmallError,
                       match=r"^level 0 is not resolved on 4001 points: refining moves it "
                             r"by 0\.137 of its size; enlarge n$"):
        uf.ground_state(uf.quartic(1.0e16), grid)
    # the raw level has no Richardson pair to check
    assert uf.ground_state(uf.quartic(1.0e16), grid, refine=False).eigenvalue > 0.0


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


def test_scalar_valued_shape_gives_one_value_per_node():
    # V = 1 in a box of half-width 5: both oracles take the scalar shape as
    # V on every node.  Shooting finds the box level 1 + (pi/10)^2; the
    # 101-point grid's sector level is the discrete one, 1 + 4t sin^2(pi/200)
    # with t = 1/h^2 = 100; and its ground state, flat against the walls
    # where V is lowest, has no bound state
    flat = uf.custom(lambda x: 1.0)
    assert abs(uf.shooting_ground_energy(flat, 5.0) - (1.0 + (math.pi / 10.0) ** 2)) < 1e-9
    grid = uf.Grid(5.0, 101)
    level, _ = eigensolver._solve_sector(flat, grid, 0, None)
    assert abs(level - (1.0 + 400.0 * math.sin(math.pi / 200.0) ** 2)) < 1e-13
    with pytest.raises(uf.NoBoundStateError):
        uf.ground_state(flat, grid)


def test_level_beyond_the_sector_is_a_domain_error(dstebz_calls):
    grid = uf.Grid(30.0, 4001)
    # refining needs the level on the 2001-point companion as well
    for refine, size in ((False, 1999), (True, 999)):
        assert eigensolver._level_count(grid, uf.Parity.ODD, refine) == size
        with pytest.raises(uf.DomainError,
                           match=rf"^level index {size} exceeds the sector size {size}$"):
            uf.eigenvalue_by_index(uf.coulomb(1.0), grid, size,
                                   parity=uf.Parity.ODD, refine=refine)
    assert dstebz_calls == []
    # a level the coarse sector lacks is solved unseeded: counts up from the
    # floor, then one bisection of their bracket
    with pytest.raises(uf.DomainTooSmallError):
        uf.eigenvalue_by_index(uf.coulomb(1.0), grid, 1500,
                               parity=uf.Parity.ODD, refine=False)
    d, e, _ = eigensolver._sector_matrix(uf.coulomb(1.0), grid, uf.Parity.ODD)
    floor, _ = gershgorin(d, e)
    *counts, bisect = dstebz_calls
    assert counts[0] == Dstebz("count", 1999, (floor, floor + 1.0), 0)
    assert {(c.kind, c.rows) for c in counts} == {("count", 1999)}
    assert (bisect.kind, bisect.rows) == ("bisect", 1999)
    # and refined to the stored matrix's level 1500, bisected by LAPACK
    ref = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                           select_range=(1500, 1500), tol=eigensolver._EIG_TOL)[0]
    w, _ = index_route(uf.coulomb(1.0), grid, uf.Parity.ODD, 1500)
    assert abs(w - ref) <= 2.0 * eigensolver._EIG_TOL * max(1.0, abs(ref))


@pytest.mark.parametrize("n, parity", [(3, None), (3, uf.Parity.EVEN), (5, None)],
                         ids=["3-full-line", "3-even", "5-full-line"])
def test_one_row_sector_is_solved_directly(n, parity, dstebz_calls, gtsv_calls):
    """A one-row sector, on 3 points or as the companion of 5, holds one
    level: its diagonal entry, with the unit vector.  It calls no LAPACK
    routine, whose dstebz wrapper rejects an empty off-diagonal."""
    spec, grid = uf.quartic(1.0), uf.Grid(6.0, n)
    d, e, rayleigh = eigensolver._sector_matrix(spec, uf.Grid(6.0, 3), parity)
    assert len(d) == 1 and len(e) == 0
    w, v = eigensolver._level(d, e, 0, None, rayleigh)
    assert w == d[0] and v.tolist() == [1.0]
    assert dstebz_calls == [] and gtsv_calls == []
    # every interior node of so coarse a grid is next to a wall
    with pytest.raises(uf.DomainTooSmallError):
        uf.ground_state(spec, grid, parity=parity)
    with pytest.raises(uf.DomainError, match=r"^level index 0 exceeds the sector size 0$"):
        uf.ground_state(spec, uf.Grid(6.0, 3), parity=uf.Parity.ODD)


# -- the refined level against an extended-precision reference --------------

def long_double_level(spec, grid, parity, k):
    """Level k of the exact finite-difference matrix, diagonal 2t + V and
    off-diagonal -t (the even sector's first one -sqrt(2) t), built in long
    double from the program's own float64 t, V and sqrt(2), and located by
    Sturm multisection: 255 counts a sweep, vectorized over the shifts,
    from a bracket around LAPACK's level of the stored matrix."""
    ld = np.longdouble
    t = ld(spec.kappa / grid.spacing ** 2)
    v = eigensolver._potential_on(spec, grid.nodes[grid.sector(parity)[0]])
    d = 2 * t + v.astype(ld)
    e2 = np.full(len(d) - 1, t * t)
    if parity is uf.Parity.EVEN:
        e2[0] = (t * ld(math.sqrt(2.0))) ** 2

    def counts(x):
        """N(x), the number of levels at or below each shift in x."""
        q = d[0] - x
        below = (q <= 0).astype(int)
        for d_i, e2_i in zip(d[1:], e2):
            q = d_i - x - e2_i / q
            below += q <= 0
        return below

    e32 = np.full(len(d) - 1, -float(t))
    if parity is uf.Parity.EVEN:
        e32[0] *= math.sqrt(2.0)
    stored = eigh_tridiagonal(d.astype(float), e32, eigvals_only=True,
                              select="i", select_range=(k, k))[0]
    lo, hi = ld(stored) - ld(1e-9) * max(1.0, abs(stored)), ld(stored) + ld(1e-9) * max(1.0, abs(stored))
    assert counts(np.array([lo, hi])).tolist() == [k, k + 1]
    while hi - lo > ld(1e-18) * max(1.0, abs(stored)):
        x = np.linspace(lo, hi, 257)[1:-1]
        n = counts(x)
        lo = max([lo] + [xi for xi, ni in zip(x, n) if ni <= k])
        hi = min([hi] + [xi for xi, ni in zip(x, n) if ni > k])
    return float((lo + hi) / 2)


@pytest.mark.parametrize("spec, half_width, parity, k", [
    (uf.quartic(1.0), 6.0, None, 0),
    (uf.coulomb(1.0), 30.0, uf.Parity.ODD, 0),
    (uf.quartic(1.0), 6.0, uf.Parity.EVEN, 1),
], ids=["quartic-full-line", "coulomb-odd", "quartic-even-1"])
def test_raw_level_matches_a_long_double_reference(spec, half_width, parity, k):
    """The raw level is the exact finite-difference level, not that of the
    stored diagonal fl(2t + V), to 1e-13 relative: on the full line (the
    paper suite's quartic grid), with the Dirichlet zero at the center in
    the odd sector, and with the sqrt(2) head of the even sector."""
    grid = uf.Grid(half_width, 4001)
    ref = long_double_level(spec, grid, parity, k)
    raw = uf.eigenvalue_by_index(spec, grid, k, parity=parity, refine=False).eigenvalue
    assert abs(raw - ref) <= 1e-13 * max(1.0, abs(ref))
