import math
import re

import numpy as np
import pytest

import uvflow as uf
from uvflow import kh

I_AT_ORIGIN_UNIT_CUTOFF = 2.6220575456  # independent adaptive quadrature
STRONG_PLUS_AT_TENTH = 0.010355620527690141
STRONG_MINUS_AT_TENTH = 0.002376774919661487


def test_fixed_order_quadrature_symmetry():
    a = kh.gauss_chebyshev_integral(0.3, 1.0e3, 64)
    b = kh.gauss_chebyshev_integral(-0.3, 1.0e3, 64)
    assert a == b


def test_fixed_order_quadrature_validation():
    with pytest.raises(uf.DomainError):
        kh.gauss_chebyshev_integral(0.3, 0.0, 64)
    with pytest.raises(uf.DomainError):
        kh.gauss_chebyshev_integral(0.3, 1.0e3, 1)


def test_quadrature_outside_the_source_interval():
    for z in (1.0, 1.5, -2.0):
        val = kh.dressed_potential_integral(z, 1.0e3)
        assert math.isfinite(val) and val > 0.0


def test_dressed_integral_against_frozen_oracle():
    val = kh.dressed_potential_integral(0.0, 1.0)
    assert abs(val - I_AT_ORIGIN_UNIT_CUTOFF) < 1e-6 * val


def reference_with_order(z, lam):
    """One point at a time with exactly rounded sums: the quadrature and the
    doubling rule written out independently of the batched code."""
    delta = 1.0 / lam

    def at_order(n):
        theta = (2.0 * np.arange(1, n + 1) - 1.0) * (math.pi / (2.0 * n))
        zp = np.cos(theta)
        kernel = 1.0 / np.sqrt((z - zp) ** 2 + delta * delta)
        if abs(z) >= 1.0:
            return (math.pi / n) * math.fsum(kernel)
        w0 = 1.0 / math.sqrt(1.0 - z * z)
        w1 = z * w0 ** 3
        s0 = math.asinh((1.0 - z) / delta) + math.asinh((1.0 + z) / delta)
        s1 = (math.sqrt((1.0 - z) ** 2 + delta * delta)
              - math.sqrt((1.0 + z) ** 2 + delta * delta))
        remainder = kernel * (1.0 - (w0 + (zp - z) * w1) * np.sin(theta))
        return w0 * s0 + w1 * s1 + (math.pi / n) * math.fsum(remainder)

    prev, n = at_order(16), 32
    while n <= 2 ** 16:
        cur = at_order(n)
        if abs(cur - prev) <= 1e-8 * abs(cur):
            return cur, n
        prev, n = cur, 2 * n
    raise AssertionError(f"reference stalled at z={z}, lam={lam}")


TABLE_Z = (0.0, 0.3, -0.3, 0.9, -0.9, 0.99, -0.99, 1.0, -1.0, 1.5, -2.0)


@pytest.mark.parametrize("lam", [10.0, 1.0e2, 1.0e4, 1.0e6])
def test_array_evaluation_matches_the_point_loop(lam):
    values, orders = kh.dressed_integral_with_order(np.array(TABLE_Z), lam)
    for z, value, order in zip(TABLE_Z, values, orders):
        ref, ref_order = reference_with_order(z, lam)
        assert order == ref_order, z
        assert abs(value - ref) <= 1e-12 * abs(ref), z
        assert kh.dressed_integral_with_order(z, lam) == (value, order)


def test_array_larger_than_a_tile_equals_point_evaluation():
    # 2,001 points span several tiles at the low orders (1,024 points at n=16)
    z = np.concatenate([np.linspace(-0.9, 0.9, 401), np.linspace(1.0, 3.0, 800),
                        np.linspace(-3.0, -1.0, 800)])
    values, orders = kh.dressed_integral_with_order(z, 1.0e2)
    loop = [kh.dressed_integral_with_order(float(t), 1.0e2) for t in z]
    assert values.tolist() == [v for v, _ in loop]
    assert orders.tolist() == [n for _, n in loop]


def test_array_names_the_first_stalled_point():
    z = np.array([0.0, 0.5, 0.997, -0.997])
    with pytest.raises(uf.QuadratureError) as err:
        kh.dressed_integral_with_order(z, 1.0e3)
    found = re.search(r"z=0\.997, lam=1000\.0\); last two values (\S+) and (\S+)$",
                      str(err.value))
    # the values at 2^15 and 2^16 nodes, which differ by more than 1e-8
    first, second = (float(v) for v in found.groups())
    assert abs(first - second) > 1e-8 * abs(second)
    with pytest.raises(uf.QuadratureError, match=r"z=0\.997"):
        kh.dressed_potential_integral(z, 1.0e3)


def test_nan_z_is_a_domain_error(monkeypatch):
    # raised before any doubling: no quadrature order is ever sampled
    sampled = []
    monkeypatch.setattr(kh, "_fixed_order",
                        lambda *args: sampled.append(args) or np.zeros(0))
    for z in (math.nan, np.array([0.3, math.nan]), np.array([[math.nan]])):
        with pytest.raises(uf.DomainError, match="NaN"):
            kh.dressed_integral_with_order(z, 1.0e3)
        with pytest.raises(uf.DomainError, match="NaN"):
            kh.gauss_chebyshev_integral(z, 1.0e3, 64)
    assert sampled == []


def test_infinite_z_gives_zero():
    assert kh.dressed_integral_with_order(math.inf, 1.0e3) == (0.0, 32)
    values, _ = kh.dressed_integral_with_order(np.array([-math.inf, math.inf]), 1.0e3)
    assert values.tolist() == [0.0, 0.0]


def test_scalar_and_array_types():
    value, order = kh.dressed_integral_with_order(0.3, 1.0e3)
    assert type(value) is float and type(order) is int
    assert type(kh.dressed_potential_integral(np.float64(0.3), 1.0e3)) is float
    assert type(kh.gauss_chebyshev_integral(1, 1.0e3, 64)) is float
    z = np.array([[0.0, 0.3, -0.9], [1.0, 1.5, -2.0]])
    values, orders = kh.dressed_integral_with_order(z, 1.0e3)
    assert values.shape == orders.shape == (2, 3)
    assert orders.dtype.kind == "i"
    assert kh.gauss_chebyshev_integral(z, 1.0e3, 64).shape == (2, 3)
    assert values[0, 1] == kh.dressed_potential_integral(0.3, 1.0e3)


def test_dressed_integral_order_doubling_settles():
    val, order = kh.dressed_integral_with_order(0.3, 1.0e4)
    again = kh.gauss_chebyshev_integral(0.3, 1.0e4, 2 * order)
    assert abs(again - val) < 1e-7 * abs(val)


def test_dressed_integral_log_slope():
    # I(0, lam) grows by 2 ln(10) per decade once lam is large
    vals = [kh.dressed_potential_integral(0.0, lam) for lam in (1e2, 1e3, 1e4)]
    for lo, hi in zip(vals, vals[1:]):
        slope = (hi - lo) / math.log(10.0)
        assert abs(slope - 2.0) < 0.04


def test_dressed_integral_converges_everywhere():
    for z in (0.0, 0.1, 0.5, 0.9):
        for lam in (10.0, 1.0e2, 1.0e4):
            assert math.isfinite(kh.dressed_potential_integral(z, lam))


def test_log_divergence_fit_coefficients():
    fits = kh.log_divergence_fit([1.0e2, 1.0e4])
    assert [f.lam for f in fits] == [1.0e2, 1.0e4]
    c2_ratio = fits[1].c2 / math.log(1.0e4)
    assert 0.9 < c2_ratio < 1.1
    c0_slope = (fits[1].c0 - fits[0].c0) / math.log(1.0e2)
    assert abs(c0_slope - 2.0) < 0.02


def test_log_divergence_fit_reports_the_order_reached():
    z = np.linspace(-0.2, 0.2, 9)
    for fit in kh.log_divergence_fit([1.0e2, 1.0e4]):
        _, orders = kh.dressed_integral_with_order(z, fit.lam)
        assert type(fit.order) is int and fit.order == orders.max()


def test_log_divergence_fit_window_stability():
    narrow, narrower = kh.log_divergence_fit([1.0e4], z_window=0.1), \
        kh.log_divergence_fit([1.0e4], z_window=0.05)
    assert abs(narrow[0].c2 / narrower[0].c2 - 1.0) < 0.02
    # the default window sits on the shoulder of the quadratic regime and
    # moves the curvature a touch more; keep it bounded
    wide = kh.log_divergence_fit([1.0e4], z_window=0.2)
    assert abs(wide[0].c2 / narrow[0].c2 - 1.0) < 0.03


def test_log_divergence_fit_validation():
    with pytest.raises(uf.DomainError):
        kh.log_divergence_fit([1.0e4], z_window=0.0)
    with pytest.raises(uf.DomainError):
        kh.log_divergence_fit([1.0e4], z_window=0.4)
    with pytest.raises(uf.DomainError):
        kh.log_divergence_fit([1.0e4], n_fit=4)
    with pytest.raises(uf.FitDegenerateError):
        kh.log_divergence_fit([1.0e4], z_window=5e-324)


def test_cs_solution_is_the_log_flow():
    flow = kh.cs_solution(1.0)
    assert isinstance(flow, uf.LogFlow)
    assert flow(math.e) == 1.0
    assert abs(kh.cs_solution(2.0)(math.exp(4.0)) - 1.0) < 1e-14


def test_cs_solution_satisfies_the_flow_equation():
    flow = kh.cs_solution(1.3)
    for lam in (10.0, 50.0, 1.0e4):
        residual = flow.derivative_wrt_log(lam) + flow(lam) / math.log(lam)
        assert abs(residual) < 1e-13


def test_scaled_level_is_cutoff_independent_along_the_flow():
    K, eps = 1.0, 2.0
    flow = kh.cs_solution(K)
    target = kh.scaled_energy_from_K(K, eps)
    for lam in (1.0e2, 1.0e4, 1.0e6):
        val = kh.scaled_ground_energy(flow(lam), lam, eps)
        assert abs(val - target) < 1e-10 * target


def test_scaled_level_validation():
    with pytest.raises(uf.DomainError):
        kh.scaled_ground_energy(-0.1, 1.0e4, 1.0)
    with pytest.raises(uf.DomainError):
        kh.scaled_ground_energy(0.1, 2.0, 1.0)
    with pytest.raises(uf.DomainError):
        kh.scaled_ground_energy(0.1, 1.0e4, 0.0)
    with pytest.raises(uf.DomainError):
        kh.scaled_energy_from_K(1.0, -1.0)


def test_small_field_limit():
    lim = kh.ground_energy_limits(10.0, kh.FieldRegime.SMALL_FIELD)
    assert abs(lim.energy + 0.49) < 1e-12
    assert abs(lim.constant + math.sqrt(2.0 / (math.pi * 1000.0))) < 1e-15
    assert lim.branches is None
    assert lim.note
    deep = kh.ground_energy_limits(1.0e6, kh.FieldRegime.SMALL_FIELD)
    assert abs(deep.energy + 0.5) < 1e-11


def test_strong_field_limit():
    lim = kh.ground_energy_limits(0.1, kh.FieldRegime.STRONG_FIELD)
    plus, minus = lim.branches
    assert plus > 0.0 and minus > 0.0
    assert abs(plus - STRONG_PLUS_AT_TENTH) < 1e-14
    assert abs(minus - STRONG_MINUS_AT_TENTH) < 1e-14
    assert lim.energy == plus
    assert lim.constant == 0.1
    assert lim.note


def test_energy_limit_validation():
    with pytest.raises(uf.DomainError):
        kh.ground_energy_limits(0.0, kh.FieldRegime.SMALL_FIELD)
    with pytest.raises(uf.DomainError):
        kh.ground_energy_limits(-2.0, kh.FieldRegime.STRONG_FIELD)


def test_reduced_quadratic_spec_shape():
    spec = kh.reduced_quadratic_spec(3.0, 2.0, 1.0, 2.0)
    assert spec.kappa == 0.5
    scale = 1.0 / (math.pi * 2.0)
    assert abs(spec(0.5) - scale * (3.0 + 2.0 * 0.25)) < 1e-15
    _, _, v2 = spec.derivatives(0.1)
    assert abs(v2 - scale * 4.0) < 1e-12
    with pytest.raises(uf.DomainError):
        kh.reduced_quadratic_spec(3.0, 2.0, 1.0, 0.0)


def test_reduced_quadratic_matches_printed_level():
    """Feeding the fitted kernel coefficients through the generic completed
    square must land near the printed scaled level; the two differ only by
    the finite-window curvature deficit (about 5% at this cutoff)."""
    K, eps, lam = 1.0, 2.0, 1.0e6
    fit = kh.log_divergence_fit([lam])[0]
    alpha = kh.cs_solution(K)(lam)
    spec = kh.reduced_quadratic_spec(fit.c0, fit.c2, alpha, eps)
    est = uf.ho_ground_energy(uf.expand_at_cutoff(spec, lam))
    printed = kh.scaled_energy_from_K(K, eps)
    assert abs(est.energy - printed) < 0.08 * printed
