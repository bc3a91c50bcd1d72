import math

import pytest
from scipy.optimize import brentq

import uvflow as uf
from uvflow import shooting


def half_oscillator():
    return uf.custom(lambda x: 0.5 * x * x, kappa=0.5,
                     d1=lambda x: x, d2=lambda x: 1.0 + 0.0 * x)


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
