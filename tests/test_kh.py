import math

import numpy as np
import pytest

import uvflow as uf
from uvflow import kh

I_AT_ORIGIN_UNIT_CUTOFF = 2.6220575456  # independent adaptive quadrature
STRONG_PLUS_AT_TENTH = 0.010355620527690141
STRONG_MINUS_AT_TENTH = 0.002376774919661487

# (z, lam, I, dI/dz, d2I/dz2): pi / AGM(Re sqrt(u), |u|^(1/2)) evaluated in
# mpmath at 40 digits, derivatives by mpmath.diff, rounded to doubles; the
# 60-digit evaluation agrees to 7e-41.  The second entry of each cutoff is
# z = 1/lam, where the reduction expands the dressed potential.
PINNED = [
    (0.0, 10.0, 7.364384972182821, 0.0, 3.2882310106644645),
    (0.1, 10.0, 7.380895739845007, 0.33161348563890897, 3.372295920935273),
    (0.3, 10.0, 7.518187786144349, 1.065709812230313, 4.110400977774471),
    (-0.9, 10.0, 9.036341700247721, -0.4444479003231587, -96.62543057134329),
    (0.997, 10.0, 8.253289613480971, -19.292990222304795, -216.656513399337),
    (0.999, 10.0, 8.21427558399593, -19.718360652653914, -208.62130753909724),
    (1.0, 10.0, 8.194453610725363, -19.924882348393137, -204.40015209377063),
    (1.0001, 10.0, 8.192460101204722, -19.945300909505402, -203.97085556844002),
    (1.5, 10.0, 2.7857106374804097, -3.255053134061686, 9.09830615948404),
    (2.0, 10.0, 1.8092885333377045, -1.1982202315773407, 1.776247192705912),
    (0.0, 100.0, 11.982679534557423, 0.0, 7.980983246245569),
    (0.01, 100.0, 11.983078608639154, 0.07981980059472077, 7.983973904996843),
    (0.3, 100.0, 12.363439628581352, 2.6927917120352407, 11.182245599315731),
    (-0.9, 100.0, 19.84830113897226, -50.178538365455516, 555.642227461156),
    (0.997, 100.0, 27.658380893778038, -367.21325573814164, -83458.75110342719),
    (0.999, 100.0, 26.758069058256343, -530.856249263653, -76677.22307600024),
    (1.0, 100.0, 26.190540379630953, -602.3307555423205, -65474.72913911779),
    (1.0001, 100.0, 26.129982195227157, -608.810116723036, -64105.8087030596),
    (1.5, 100.0, 2.8096786715252278, -3.370697653716499, 9.88252801349816),
    (2.0, 100.0, 1.8137540216326622, -1.2090887434621134, 1.813418188359513),
    (0.0, 1.0e4, 21.193269418208974, 0.0, 17.19326906434359),
    (0.0001, 1.0e4, 21.19326950417532, 0.001719326930224262, 17.193269778040683),
    (0.3, 1.0e4, 22.018854041678285, 5.876609088301994, 24.945006674070132),
    (-0.9, 1.0e4, 41.00073121360843, -150.7456301738641, 2103.765040374112),
    (0.997, 1.0e4, 141.55645410455543, 14945.27413141238, 6036512.898396863),
    (0.999, 1.0e4, 195.77031375928215, 52758.59448020346, 56062962.51510798),
    (1.0, 1.0e4, 262.20275999668866, -599102.8914022547, -6555068983.531041),
    (1.0001, 1.0e4, 194.26140352072056, -584287.282633472, 3414362496.920905),
    (1.5, 1.0e4, 2.809925867688943, -3.3719109495107547, 9.89093829967639),
    (2.0, 1.0e4, 1.8137993596997195, -1.209199565071816, 1.813799326110843),
    (0.0, 1.0e6, 30.403609838161227, 0.0, 26.40360983810742),
    (1e-06, 1.0e6, 30.40360983817443, 2.6403609838145024e-05, 26.403609838220238),
    (0.3, 1.0e6, 31.673914264489486, 9.05959612665871, 38.70297290355203),
    (-0.9, 1.0e6, 62.13070726088896, -250.83510585150313, 3637.302335441106),
    (0.997, 1.0e6, 260.5712097369735, 34763.13859708831, 15959117.732129108),
    (0.999, 1.0e6, 401.9977447297888, 156188.04163625953, 211977037.8854711),
    (1.0, 1.0e6, 2622.057254756979, -599070445.1248219, -655514313689080.9),
    (1.0001, 1.0e6, 222.13442850281055, -1110644.3790942347, 16657305872.071423),
    (1.5, 1.0e6, 2.8099258924138177, -3.3719110708874096, 9.89093914122118),
    (2.0, 1.0e6, 1.8137993642337644, -1.2091995761550367, 1.8137993642304056),
    # order doubling of the earlier quadrature stalled here
    (0.997, 1.0e3, 81.30754364778359, 4609.907243419487, 739365.8495841004),
]


@pytest.mark.parametrize("z, lam, value, d1, d2", PINNED)
def test_closed_form_matches_pinned_table(z, lam, value, d1, d2):
    got = kh.dressed_integral_derivatives(z, lam)
    assert abs(got[0] - value) <= 1e-13 * value
    assert abs(got[1] - d1) <= 1e-13 * max(1.0, abs(d1))
    assert abs(got[2] - d2) <= 1e-13 * abs(d2)


@pytest.mark.parametrize("lam", [1.0e2, 1.0e4, 1.0e6])
def test_kh_curvature_at_the_expansion_point(lam):
    # the (V, V', V'') the reduction takes at x0 = 1/lam
    (_, _, value, d1, d2), = [row for row in PINNED if row[:2] == (1.0 / lam, lam)]
    eps_exp = 2.0
    scale = 1.0 / (math.pi * eps_exp)
    got = uf.kramers_henneberger(1.0, eps_exp, lam).derivatives(1.0 / lam)
    for g, want in zip(got, (value, d1, d2)):
        assert abs(g - scale * want) <= 1e-12 * abs(scale * want)


def test_points_near_the_edge_evaluate():
    z = np.array([0.0, 0.5, 0.997, -0.997])
    values = kh.dressed_potential_integral(z, 1.0e3)
    pinned = PINNED[-1][2]
    assert abs(values[2] - pinned) <= 1e-13 * pinned
    assert values[3] == values[2]


def midpoint_reference(z, lam, n=2 ** 17):
    """The plain midpoint rule in theta over [0, pi], no peak subtraction;
    the integrand is smooth and periodic, so 2^17 nodes reach rounding for
    lam up to 1e4."""
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    return (math.pi / n) * math.fsum(1.0 / np.sqrt((z - np.cos(theta)) ** 2 + lam ** -2))


TABLE_Z = (0.0, 0.3, -0.3, 0.9, -0.9, 0.99, -0.99, 0.997, 1.0, -1.0, 1.5, -2.0)


@pytest.mark.parametrize("lam", [10.0, 1.0e2, 1.0e4])
def test_closed_form_matches_the_midpoint_sum(lam):
    values = kh.dressed_potential_integral(np.array(TABLE_Z), lam)
    for z, value in zip(TABLE_Z, values):
        ref = midpoint_reference(z, lam)
        assert abs(value - ref) <= 1e-12 * ref, z


@pytest.mark.parametrize("lam", [10.0, 1.0e2, 1.0e4, 1.0e6])
def test_array_evaluation_matches_the_point_loop(lam):
    arrays = kh.dressed_integral_derivatives(np.array(TABLE_Z), lam)
    for i, z in enumerate(TABLE_Z):
        assert kh.dressed_integral_derivatives(z, lam) == tuple(a[i] for a in arrays), z


def test_array_larger_than_a_tile_equals_point_evaluation():
    # 2,001 points on both sides of |z| = 1, where the AGM needs from two
    # to seven steps
    z = np.concatenate([np.linspace(-0.9, 0.9, 401), np.linspace(1.0, 3.0, 800),
                        np.linspace(-3.0, -1.0, 800)])
    values = kh.dressed_potential_integral(z, 1.0e2)
    assert values.tolist() == [kh.dressed_potential_integral(float(t), 1.0e2) for t in z]


def test_kernel_is_exactly_even():
    z = np.concatenate([np.linspace(0.0, 3.0, 601), [0.997, 0.999, 1.0001, 50.0, 2.0e9]])
    for lam in (10.0, 1.0e3, 1.0e6):
        v, d1, d2 = kh.dressed_integral_derivatives(z, lam)
        w, e1, e2 = kh.dressed_integral_derivatives(-z, lam)
        assert np.array_equal(v, w) and np.array_equal(d1, -e1) and np.array_equal(d2, e2)


def test_kernel_validation():
    for lam in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(uf.DomainError, match="cutoff"):
            kh.dressed_potential_integral(0.3, lam)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [1.0e-154, 1.0e-155, 1.0e-300])
def test_a_cutoff_out_of_the_float_range_is_a_domain_error(lam):
    """At these cutoffs 1/lam^2 overflows: the kernel raises DomainError
    before numpy can warn, where it returned NaN slopes (1e-154) or never
    left the AGM loop (1e-155 and below), whose gap test reads NaN."""
    for z in (0.3, np.linspace(-3.0, 3.0, 7)):
        with pytest.raises(uf.DomainError, match="leaves the float range"):
            kh.dressed_integral_derivatives(z, lam)


def test_the_agm_loop_is_bounded(monkeypatch):
    """An AGM that has not settled in _AGM_STEPS steps is an
    IterationLimitError, not an endless loop: at lam = 1e4 it takes 7."""
    monkeypatch.setattr(kh, "_AGM_STEPS", 6)
    with pytest.raises(uf.IterationLimitError, match="6 steps"):
        kh.dressed_integral_derivatives(0.3, 1.0e4)
    monkeypatch.setattr(kh, "_AGM_STEPS", 7)
    assert kh.dressed_integral_derivatives(0.3, 1.0e4)[0] > 0.0


def test_quadrature_outside_the_source_interval():
    for z in (1.0, 1.5, -2.0):
        val = kh.dressed_potential_integral(z, 1.0e3)
        assert math.isfinite(val) and val > 0.0


def test_dressed_integral_against_frozen_oracle():
    val = kh.dressed_potential_integral(0.0, 1.0)
    assert abs(val - I_AT_ORIGIN_UNIT_CUTOFF) < 1e-6 * val


def test_nan_z_is_a_domain_error():
    for z in (math.nan, np.array([0.3, math.nan]), np.array([[math.nan]])):
        with pytest.raises(uf.DomainError, match="NaN"):
            kh.dressed_potential_integral(z, 1.0e3)
        with pytest.raises(uf.DomainError, match="NaN"):
            kh.dressed_integral_derivatives(z, 1.0e3)


def test_infinite_z_gives_zero():
    assert kh.dressed_integral_derivatives(math.inf, 1.0e3) == (0.0, 0.0, 0.0)
    values = kh.dressed_potential_integral(np.array([-math.inf, math.inf]), 1.0e3)
    assert values.tolist() == [0.0, 0.0]


def test_no_finite_z_raises():
    z = np.array([0.999999, 1.0 - 1e-12, 1.0e3, 1.0e5, 1.0e7, 3.0e8, 1.0e9,
                  1.0e12, 1.0e200, 1.0e300])
    v, d1, d2 = kh.dressed_integral_derivatives(z, 1.0e6)
    assert np.all(np.isfinite(v) & np.isfinite(d1) & np.isfinite(d2))
    # far out the kernel is the bare pi / sqrt(z^2 - 1), without overflow
    far = z[2:]
    bare = math.pi / (far * np.sqrt((1.0 - 1.0 / far) * (1.0 + 1.0 / far)))
    assert np.all(np.abs(v[2:] / bare - 1.0) <= 1e-15)


def test_scalar_and_array_types():
    assert type(kh.dressed_potential_integral(np.float64(0.3), 1.0e3)) is float
    assert type(kh.dressed_potential_integral(1, 1.0e3)) is float
    assert all(type(d) is float for d in kh.dressed_integral_derivatives(0.3, 1.0e3))
    z = np.array([[0.0, 0.3, -0.9], [1.0, 1.5, -2.0]])
    values = kh.dressed_potential_integral(z, 1.0e3)
    assert values.shape == (2, 3)
    assert all(d.shape == (2, 3) for d in kh.dressed_integral_derivatives(z, 1.0e3))
    assert values[0, 1] == kh.dressed_potential_integral(0.3, 1.0e3)


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


def test_cs_solution_satisfies_the_flow_equation():
    flow = uf.LogFlow(1.3)
    for lam in (10.0, 50.0, 1.0e4):
        residual = flow.derivative_wrt_log(lam) + flow(lam) / math.log(lam)
        assert abs(residual) < 1e-13


def test_scaled_level_is_cutoff_independent_along_the_flow():
    K, eps = 1.0, 2.0
    flow = uf.LogFlow(K)
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
    # levels that leave the float range
    with pytest.raises(uf.DomainError):
        kh.scaled_energy_from_K(1.0e200, 1.0)
    with pytest.raises(uf.DomainError):
        kh.scaled_ground_energy(1.0e300, 1.0e4, 1.0e-10)


def test_small_field_limit():
    energy, K, _, _ = kh.ground_energy_limits(10.0)
    assert abs(energy + 0.49) < 1e-12
    assert abs(K + math.sqrt(2.0 / (math.pi * 1000.0))) < 1e-15
    assert abs(kh.ground_energy_limits(1.0e6)[0] + 0.5) < 1e-11


def test_strong_field_limit():
    _, _, plus, minus = kh.ground_energy_limits(0.1)
    assert plus > 0.0 and minus > 0.0
    assert abs(plus - STRONG_PLUS_AT_TENTH) < 1e-14
    assert abs(minus - STRONG_MINUS_AT_TENTH) < 1e-14


def test_energy_limit_validation():
    for eps_exp in (0.0, -2.0, 1.0e-120, 1.0e160):
        with pytest.raises(uf.DomainError):
            kh.ground_energy_limits(eps_exp)


def test_reduced_quadratic_matches_printed_level():
    """Feeding the fitted kernel coefficients through the generic completed
    square must land near the printed scaled level; the two differ only by
    the finite-window curvature deficit (about 5% at this cutoff)."""
    K, eps, lam = 1.0, 2.0, 1.0e6
    fit = kh.log_divergence_fit([lam])[0]
    alpha = uf.LogFlow(K)(lam)
    scale = 1.0 / (math.pi * eps)
    spec = uf.custom(lambda z: scale * (fit.c0 + fit.c2 * z * z),
                     coupling=alpha, kappa=0.5,
                     d1=lambda z: scale * 2.0 * fit.c2 * z,
                     d2=lambda z: scale * 2.0 * fit.c2)
    est = uf.ho_ground_energy(uf.expand_at_cutoff(spec, lam))
    printed = kh.scaled_energy_from_K(K, eps)
    assert abs(est.energy - printed) < 0.08 * printed
