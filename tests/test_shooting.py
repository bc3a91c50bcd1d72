import math

import numpy as np
import pytest
from scipy.optimize import brentq

import uvflow as uf
from uvflow import shooting


MORSE_EXACT = -4.0 + math.sqrt(2.0) - 0.125  # A=4, a=1, m=1
QUARTIC_HIOE_MONTROLL = 1.0603620904841829  # J. Math. Phys. 16, 1945 (1975)


def half_oscillator():
    return uf.custom(lambda x: 0.5 * x * x, kappa=0.5,
                     d1=lambda x: x, d2=lambda x: 1.0 + 0.0 * x)


# -- Numerov shooting ----------------------------------------------------------

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
        def counted(*args, _sweep=getattr(shooting, name)):
            sweeps.append(_sweep)
            return _sweep(*args)
        monkeypatch.setattr(shooting, name, counted)
    uf.shooting_ground_energy(uf.quartic(1.0), 6.0, parity=uf.Parity.EVEN)
    assert 0 < len(sweeps) <= 16


@pytest.mark.parametrize("parity, levels", [(None, 5), (uf.Parity.EVEN, 3)],
                         ids=["full-line", "even-sector"])
def test_shooting_halves_a_multi_level_step(monkeypatch, parity, levels):
    # levels 0.1 (k + 1/2): the first growth step, [min V, min V + 1/2],
    # holds five of them on the full line and three even ones, so the node
    # count must isolate the lowest before Brent runs
    counts = []

    def counted(w, sector, _nodes=shooting._numerov_nodes):
        counts.append(_nodes(w, sector))
        return counts[-1]

    monkeypatch.setattr(shooting, "_numerov_nodes", counted)
    spec = uf.custom(lambda x: 0.005 * x * x, kappa=0.5,
                     d1=lambda x: 0.01 * x, d2=lambda x: 0.01 + 0.0 * x)
    e = uf.shooting_ground_energy(spec, 60.0, parity=parity)
    assert counts[0] == levels
    assert abs(e - 0.05) < 2e-14


def test_shooting_coulomb_needs_odd_sector():
    # the full line is refused before V is sampled, as the even sector is
    with pytest.raises(uf.SingularPointError, match="shoot in the odd sector"):
        uf.shooting_ground_energy(uf.coulomb(1.0), 30.0)
    with pytest.raises(uf.SingularPointError, match="shoot in the odd sector"):
        uf.shooting_ground_energy(uf.coulomb(1.0), 30.0, parity=uf.Parity.EVEN)


def test_shooting_validation():
    for half_width in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(uf.DomainError):
            uf.shooting_ground_energy(half_oscillator(), half_width)


# -- the renormalized Numerov sweep against its indexed form -------------------

def _indexed_ratio_sweep(w, rho, start, stop, step):
    """The sweep as first written, over range() with two subscripts a point."""
    sign, nodes = 1, 0
    for i in range(start, stop, step):
        if rho <= -1.0:
            sign = -sign
            if w[i - step] > -12.0 and w[i] > -12.0:
                nodes += 1
            if rho == -1.0:
                rho = shooting._BELOW_ZERO
        rho = w[i] + rho / (1.0 + rho)
    return rho, sign, nodes


def _seeded_w(seed, walls):
    rng = np.random.default_rng(seed)
    w = rng.normal(-0.5, 1.0, 301)
    if walls:
        w[rng.integers(0, w.size, 25)] = rng.uniform(-30.0, -12.0, 25)
    return w


# (start, stop, step, starting rho from w)
_SWEEPS = {
    "outward-even": (1, 301, 1, lambda w: 0.5 * w[0]),
    "outward-odd": (2, 301, 1, lambda w: 1.0 + w[1]),
    "inward": (298, 40, -1, lambda w: 1.0 + w[-2]),
    "inward-to-origin": (298, 0, -1, lambda w: 1.0 + w[-2]),
    "outward-empty": (7, 7, 1, lambda w: 0.25),
    "inward-empty": (7, 7, -1, lambda w: 0.25),
    "outward-from-a-zero": (1, 301, 1, lambda w: -1.0),
    "inward-from-a-zero": (298, 40, -1, lambda w: -1.0),
}


@pytest.mark.parametrize("sweep", list(_SWEEPS))
@pytest.mark.parametrize("walls", [False, True], ids=["no-walls", "walls"])
@pytest.mark.parametrize("seed", [3, 11])
def test_ratio_sweep_matches_the_indexed_loop(seed, walls, sweep):
    w = _seeded_w(seed, walls)
    start, stop, step, rho_of = _SWEEPS[sweep]
    rho = float(rho_of(w))
    ours = shooting._ratio_sweep(memoryview(w), rho, start, stop, step)
    theirs = _indexed_ratio_sweep(memoryview(w), rho, start, stop, step)
    assert ours[0].hex() == theirs[0].hex()
    assert ours[1:] == theirs[1:]


def test_ratio_sweep_cases_reach_every_branch():
    # a zero at the start is moved just below -1, and its sign change next
    # to a wall (w < -12) is not a node
    w = memoryview(np.array([0.0, -20.0, 0.5]))
    assert shooting._ratio_sweep(w, -1.0, 1, 3, 1)[1:] == (-1, 0)
    assert _indexed_ratio_sweep(w, -1.0, 1, 3, 1)[1:] == (-1, 0)
    # the seeded sweeps change sign many times, walls or not
    for walls in (False, True):
        w = memoryview(_seeded_w(3, walls))
        assert _indexed_ratio_sweep(w, 0.5 * w[0], 1, 301, 1)[2] > 10


# -- Brent's method against scipy's brentq -------------------------------------

def _recorded(f):
    """f, and the list of points it is evaluated at."""
    points = []

    def g(x):
        points.append(x)
        return f(x)
    return g, points


@pytest.mark.parametrize("f, a, b, xtol", [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-12),
    (lambda x: math.cos(x) - x, 0.0, 1.0, 2e-12),
    (lambda x: math.exp(x) - 10.0, -3.0, 7.0, 1e-14),
    (lambda x: (x - 0.3) ** 5, -1.0, 2.0, 1e-12),
    (lambda x: math.atan(50.0 * (x - 0.123)), -4.0, 5.0, 1e-13),
    (lambda x: x - 0.25, 0.0, 0.25, 1e-12),
], ids=["cubic", "cos", "exp", "fifth-power-root", "steep-atan", "root-at-end"])
def test_brent_iterates_match_scipy(f, a, b, xtol):
    ours, our_points = _recorded(f)
    theirs, their_points = _recorded(f)
    root = shooting._brentq(ours, a, b, xtol)
    assert root == brentq(theirs, a, b, xtol=xtol)
    assert our_points == their_points


@pytest.mark.parametrize("spec, half_width, parity", [
    (uf.quartic(1.0), 6.0, uf.Parity.EVEN),
    (half_oscillator(), 12.0, uf.Parity.ODD),
    (uf.quartic(1.0), 6.0, None),
    (uf.morse(4.0), 30.0, None),
], ids=["quartic-even", "oscillator-odd", "quartic-full-line", "morse"])
def test_brent_matches_scipy_on_the_shooting_mismatch(monkeypatch, spec,
                                                      half_width, parity):
    searches = []

    def spy(f, a, b, xtol, _brent=shooting._brentq):
        searches.append((f, a, b, xtol))
        return _brent(f, a, b, xtol)

    monkeypatch.setattr(shooting, "_brentq", spy)
    energy = uf.shooting_ground_energy(spec, half_width, parity=parity)
    (f, a, b, xtol), = searches
    theirs, their_points = _recorded(f)
    assert brentq(theirs, a, b, xtol=xtol) == energy
    ours, our_points = _recorded(f)
    shooting._brentq(ours, a, b, xtol)
    assert our_points == their_points


def test_brent_rejects_a_bracket_without_sign_change():
    with pytest.raises(uf.IterationLimitError, match="sign change"):
        shooting._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


def test_brent_rejects_nan():
    with pytest.raises(uf.IterationLimitError, match="NaN"):
        shooting._brentq(lambda x: math.nan if x > 0.0 else -1.0,
                         -1.0, 1.0, 1e-12)
