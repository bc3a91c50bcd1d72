import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import uvflow as uf
from uvflow import kh
from uvflow.flow import UV_SAMPLE_CUTOFFS

MORSE_LAW_GAP_SLOPE = -1.5 * math.sqrt(2.0)  # A=4, a=1, m=1


def morse_fixed_point(lam):
    """kappa / (v''(1/lam)/2) for Morse A = 4, a = m = 1 (kappa = 1/2)."""
    return 1.0 / (4.0 * math.exp(-2.0 / lam) - 2.0 * math.exp(-1.0 / lam))


def kh_spec():
    return uf.kramers_henneberger(1.0, 1.0, 1.0e4)


# -- flow containers ----------------------------------------------------------

def test_power_law_flow():
    flow = uf.PowerLawFlow(0.5, 2.0)
    assert flow(10.0) == 50.0
    with pytest.raises(uf.DomainError):
        flow(uf.LAMBDA_FLOOR)  # a cutoff must lie above the floor
    with pytest.raises(uf.DomainError):
        flow(1.5)


def test_log_flow_values():
    flow = uf.LogFlow(1.0)
    assert flow(math.e) == 1.0
    flow2 = uf.LogFlow(2.0)
    assert abs(flow2(math.exp(4.0)) - 1.0) < 1e-14


def test_log_flow_product_invariant():
    flow = uf.LogFlow(1.3)
    for lam in (10.0, 1.0e3, 1.0e7):
        assert abs(flow(lam) * math.log(lam) - 1.3 ** 2) < 1e-15 * 1.3 ** 2


def test_log_flow_derivative_matches_finite_difference():
    flow = uf.LogFlow(1.3)
    lam = 1.0e3
    h = 1e-6
    fd = (flow(lam * math.exp(h)) - flow(lam * math.exp(-h))) / (2.0 * h)
    assert abs(flow.derivative_wrt_log(lam) - fd) < 1e-6 * abs(fd)


@pytest.mark.parametrize("lam", [uf.LAMBDA_FLOOR, 1.0, 0.5, -3.0, math.nan,
                                 math.inf])
def test_cutoff_floor_is_one_rule(lam):
    """Every function of the cutoff takes it finite and above the floor
    only, as the betas and the CLI do."""
    calls = [uf.PowerLawFlow(0.5, 2.0), uf.LogFlow(1.0),
             uf.LogFlow(1.0).derivative_wrt_log, uf.solve_fixed_point(uf.morse(4.0)),
             lambda lam: kh.scaled_ground_energy(1.0, lam, 1.0),
             lambda lam: uf.beta_closed_form(uf.quartic(1.0), 1.0, lam)]
    for call in calls:
        with pytest.raises(uf.DomainError, match=r"outside \(2\.0, inf\)"):
            call(lam)


def test_log_flow_out_of_float_range_is_a_domain_error():
    with pytest.raises(uf.DomainError):
        uf.LogFlow(1.0e200)(10.0)  # K**2 overflows
    flow = uf.LogFlow(1.3e154)  # K**2 is finite, K**2 / ln(2.5)**2 is not
    assert math.isfinite(flow(10.0))
    with pytest.raises(uf.DomainError):
        flow.derivative_wrt_log(2.5)


# -- energy laws --------------------------------------------------------------

def test_law_equals_pipeline_quartic_and_coulomb():
    """For these two shapes the printed large-cutoff law IS the completed
    square, so the two routes must agree to rounding at every cutoff."""
    law_q = uf.uv_energy_law(uf.quartic(1.0))
    law_c = uf.uv_energy_law(uf.coulomb(1.0))
    for lam in (10.0, 1.0e2, 1.0e3, 1.0e4):
        eq = uf.pipeline_ground_energy(uf.quartic(1.0), 1.3, lam)
        assert abs(law_q(1.3, lam) - eq) < 1e-12 * abs(eq)
        ec = uf.pipeline_ground_energy(uf.coulomb(1.0), -0.7, lam)
        assert abs(law_c(-0.7, lam) - ec) < 1e-12 * abs(ec)


def test_morse_law_differs_from_pipeline_at_first_order():
    """The printed Morse law drops a 1/lam term the completed square keeps;
    the gap times lam must approach -(3/2) a^2 sqrt(A/(2m))."""
    spec = uf.morse(4.0)
    law = uf.uv_energy_law(spec)
    for lam in (1.0e3, 1.0e4):
        gap = (uf.pipeline_ground_energy(spec, 4.0, lam) - law(4.0, lam)) * lam
        assert abs(gap - MORSE_LAW_GAP_SLOPE) < 0.01 * abs(MORSE_LAW_GAP_SLOPE)


def test_soft_coulomb_law_bracket_offset():
    # printed law carries -(sqrt(2)/2) alpha lam where the completed square
    # gives -(sqrt(2)/4) alpha lam; the gap is exactly the difference
    spec = uf.soft_coulomb(1.0, 1000.0)
    law = uf.uv_energy_law(spec)
    for lam in (1.0e2, 1.0e3):
        alpha = -1.0 / (2.0 * lam ** 3)
        gap = law(alpha, lam) - uf.pipeline_ground_energy(spec, alpha, lam)
        expected = -(math.sqrt(2.0) / 4.0) * alpha * lam
        assert abs(gap - expected) < 1e-2 * abs(expected)


def test_law_domain_guards():
    with pytest.raises(uf.FlowUndefinedError):
        uf.uv_energy_law(uf.quartic(1.0))(-1.0, 100.0)
    with pytest.raises(uf.FlowUndefinedError):
        uf.uv_energy_law(uf.coulomb(1.0))(0.5, 100.0)
    # the dressed law is kh.scaled_ground_energy, which guards its own domain
    with pytest.raises(uf.DomainError):
        uf.uv_energy_law(kh_spec())(-0.5, 100.0)


# -- beta functions -----------------------------------------------------------

def test_beta_closed_form_morse():
    val = uf.beta_closed_form(uf.morse(1.0), 1.0, 10.0)
    assert abs(val - 2.0 / (101.0 - 100.0 / math.sqrt(8.0))) < 1e-15 * val


def test_beta_closed_form_quartic():
    g = 100.0 / 6.0  # tuned so sqrt(6 g)/lam = 1
    val = uf.beta_closed_form(uf.quartic(1.0), g, 10.0)
    assert abs(val - 2.0 * g * 902.0 / 901.0) < 1e-13 * val


def test_beta_closed_form_coulomb():
    alpha = -5.0e-4  # tuned so sqrt(-2 alpha lam) = 0.1
    val = uf.beta_closed_form(uf.coulomb(1.0), alpha, 10.0)
    assert abs(val + 3.0 * alpha * 20.1 / 20.3) < 1e-15 * abs(val)


def test_beta_closed_form_kh():
    assert uf.beta_closed_form(kh_spec(), 0.7, math.exp(2.0)) == -0.35


def test_beta_closed_form_guards():
    with pytest.raises(uf.FlowUndefinedError):
        uf.beta_closed_form(uf.coulomb(1.0), 0.1, 100.0)
    with pytest.raises(uf.FlowUndefinedError):
        uf.beta_closed_form(uf.quartic(1.0), -1.0, 100.0)
    with pytest.raises(uf.FlowUndefinedError):
        uf.beta_closed_form(uf.morse(1.0), 0.0, 100.0)
    with pytest.raises(uf.FlowUndefinedError):
        uf.beta_closed_form(uf.custom(lambda x: x * x), 1.0, 100.0)
    with pytest.raises(uf.DomainError):
        uf.beta_closed_form(uf.quartic(1.0), 1.0, 1.5)


def test_beta_numeric_agrees_with_closed_form():
    cases = [
        (uf.morse(4.0), 4.0), (uf.morse(4.0), 0.5),
        (uf.quartic(1.0), 0.5), (uf.quartic(1.0), 10.0),
        (uf.coulomb(1.0), -1.0e-3), (uf.coulomb(1.0), -1.0e-6),
        (uf.soft_coulomb(1.0, 1000.0), -1.0e-4),
        (kh_spec(), 0.5),
    ]
    for spec, g in cases:
        for lam in (1.0e2, 1.0e3):
            closed = uf.beta_closed_form(spec, g, lam)
            numeric = uf.beta_numeric(spec, g, lam)
            assert abs(numeric - closed) < 1e-4 * max(1e-30, abs(closed))


def test_beta_numeric_fixed_point_exponents():
    lam = 1.0e3
    g = lam ** 2 / 6.0
    assert abs(uf.beta_numeric(uf.quartic(1.0), g, lam) / g - 2.0) < 1e-3
    alpha = -1.0 / (2.0 * lam ** 3)
    assert abs(uf.beta_numeric(uf.coulomb(1.0), alpha, lam) / alpha + 3.0) < 1e-3


def test_beta_numeric_scale_invariant_shape_is_flat():
    # a pure quadratic shape reduces to the same level at every cutoff,
    # so the implied running vanishes
    spec = uf.custom(lambda x: 0.5 * x * x, kappa=0.5,
                     d1=lambda x: x, d2=lambda x: 1.0 + 0.0 * x)
    assert abs(uf.beta_numeric(spec, 1.0, 1.0e3)) < 1e-10


# -- fixed points --------------------------------------------------------------

def test_fixed_point_quartic():
    flow = uf.solve_fixed_point(uf.quartic(1.0))
    assert isinstance(flow, uf.PowerLawFlow)
    assert flow.coefficient == 1.0 / 6.0 and flow.exponent == 2.0


def test_fixed_point_coulomb():
    flow = uf.solve_fixed_point(uf.coulomb(1.0))
    assert isinstance(flow, uf.PowerLawFlow)
    assert flow.coefficient == -0.5 and flow.exponent == -3.0


def test_fixed_point_soft_coulomb():
    flow = uf.solve_fixed_point(uf.soft_coulomb(1.0, 1000.0))
    assert isinstance(flow, uf.PowerLawFlow)
    assert flow.coefficient == -4.0 * math.sqrt(2.0) and flow.exponent == -3.0


def test_fixed_point_morse_is_tabulated():
    """The law is checked on a table of cutoffs, and read exactly at any."""
    flow = uf.solve_fixed_point(uf.morse(4.0))
    assert isinstance(flow, uf.PointwiseFlow)
    assert len(flow.lams) == 201
    assert flow.lams[0] == uf.LAMBDA_FLOOR and flow.lams[-1] == 1.0e8
    assert np.array_equal(flow.couplings[1:], [flow(lam) for lam in flow.lams[1:]])
    for lam in (10.0, 1.0e3, 1.0e8, 1.0e12):
        exact = morse_fixed_point(lam)
        assert abs(flow(lam) - exact) <= 4.0 * math.ulp(exact)


def test_fixed_point_custom_is_tabulated():
    # the custom (p^2 + x^2)/2 is already canonical: g = 1 at every cutoff
    spec = uf.custom(lambda x: 0.5 * x * x, kappa=0.5,
                     d1=lambda x: x, d2=lambda x: 1.0 + 0.0 * x)
    flow = uf.solve_fixed_point(spec)
    assert isinstance(flow, uf.PointwiseFlow)
    for lam in (10.0, 1.0e3, 12345.6, 1.0e12):
        assert abs(flow(lam) - 1.0) < 1e-15
    assert abs(uf.uv_limit_energy(spec, flow).energy - 0.5) < 1e-12


def test_fixed_point_rejections():
    with pytest.raises(uf.NoFixedPointError):
        uf.solve_fixed_point(kh_spec())
    with pytest.raises(uf.NoFixedPointError):
        uf.solve_fixed_point(uf.custom(lambda x: x * x, kappa=0.7))


def test_fixed_point_flat_curvature_is_no_fixed_point():
    """A shape that flattens below x = 1e-9 passes the check up to 1e8 but
    has no fixed point at a cutoff beyond it, nor does a flat shape."""
    spec = uf.custom(lambda x: 0.5 * x * x, kappa=0.5, d1=lambda x: x,
                     d2=lambda x: 1.0 if abs(x) > 1.0e-9 else 0.0)
    flow = uf.solve_fixed_point(spec)
    assert flow(1.0e8) == 1.0
    with pytest.raises(uf.NoFixedPointError, match="match is inf at cutoff"):
        flow(1.0e10)
    flat = uf.custom(lambda x: x, kappa=0.5, d1=lambda x: 1.0, d2=lambda x: 0.0)
    with pytest.raises(uf.NoFixedPointError):
        uf.solve_fixed_point(flat)


def test_fixed_point_law_is_self_consistent_with_beta():
    # along g(lam) = c lam^k the logarithmic derivative k g must track beta
    lam = 1.0e4
    for spec in (uf.quartic(1.0), uf.coulomb(1.0), uf.soft_coulomb(1.0, 1000.0)):
        flow = uf.solve_fixed_point(spec)
        g = flow(lam)
        beta = uf.beta_closed_form(spec, g, lam)
        assert abs(flow.exponent * g - beta) < 1e-2 * abs(beta)


# -- integration ---------------------------------------------------------------

def test_integrate_flow_kh_matches_log_solution():
    exact = uf.LogFlow(1.0)
    lams, gs = uf.integrate_flow(kh_spec(), exact(1.0e2), 1.0e2, 1.0e6)
    assert lams[0] == 1.0e2 and lams[-1] == 1.0e6
    assert abs(gs[-1] - exact(1.0e6)) < 1e-7 * exact(1.0e6)
    assert abs(lams[64] / 1.0e4 - 1.0) < 1e-14  # the middle of 129 samples
    assert abs(gs[64] - exact(lams[64])) < 1e-6 * exact(lams[64])


def test_integrate_flow_accepts_callable_beta():
    exact = uf.LogFlow(1.0)
    lams, gs = uf.integrate_flow(kh_spec(), exact(1.0e2), 1.0e2, 1.0e6,
                                 beta=lambda g, lam: -g / math.log(lam))
    assert lams[-1] == 1.0e6
    assert abs(gs[-1] - exact(1.0e6)) < 1e-7 * exact(1.0e6)


def test_integrate_flow_numeric_beta_route():
    a = uf.integrate_flow(uf.quartic(1.0), 1.0, 1.0e2, 1.0e3)
    b = uf.integrate_flow(uf.quartic(1.0), 1.0, 1.0e2, 1.0e3, beta="numeric")
    assert a.lams[-1] == b.lams[-1] == 1.0e3
    assert abs(a.couplings[-1] - b.couplings[-1]) < 1e-4 * abs(a.couplings[-1])


def test_integrate_flow_morse_conserves_law_level():
    spec = uf.morse(1.0)
    law = uf.uv_energy_law(spec)
    lams, gs = uf.integrate_flow(spec, 1.0, 1.0e3, 1.0e4)
    assert lams[-1] == 1.0e4
    e0 = law(1.0, 1.0e3)
    e1 = law(gs[-1], 1.0e4)
    assert abs(e1 - e0) < 1e-3 * abs(e0)


def test_integrate_flow_quartic_keeps_reduced_stiffness():
    lam0, lam1 = 1.0e2, 1.0e3
    lams, gs = uf.integrate_flow(uf.quartic(1.0), lam0 ** 2 / 6.0, lam0, lam1)
    assert lams[0] == lam0 and lams[-1] == lam1
    c0 = 6.0 * gs[0] / lam0 ** 2
    c1 = 6.0 * gs[-1] / lam1 ** 2
    assert abs(c1 / c0 - 1.0) < 1e-2


def test_integrate_flow_downward():
    traj = uf.integrate_flow(uf.quartic(1.0), 1.0, 1.0e4, 1.0e2)
    assert isinstance(traj, uf.Trajectory)
    assert traj.lams[0] == 1.0e2 and traj.lams[-1] == 1.0e4
    assert np.all(np.diff(traj.lams) > 0.0)
    assert traj.couplings[-1] == 1.0


def test_integrate_flow_abort_carries_no_partial_when_immediate():
    with pytest.raises(uf.IntegrationAbortError) as info:
        uf.integrate_flow(uf.coulomb(1.0), 5.0, 1.0e2, 1.0e4)
    assert info.value.partial is None


def test_integrate_flow_abort_keeps_partial_trajectory():
    def beta(g, lam):
        if lam > 100.0:
            raise uf.FlowUndefinedError("no beta above 100")
        return 2.0 * g

    with pytest.raises(uf.IntegrationAbortError) as info:
        uf.integrate_flow(uf.quartic(1.0), 1.0, 10.0, 1.0e4, beta=beta)
    assert isinstance(info.value.partial, uf.Trajectory)
    lams, gs = info.value.partial
    s_eval = np.linspace(math.log(10.0), math.log(1.0e4), 129)
    assert 10 < len(lams) < 129
    assert lams[-1] <= 100.0
    assert np.array_equal(lams, np.exp(s_eval[:len(lams)]))
    assert np.allclose(gs, (lams / 10.0) ** 2, rtol=1e-7, atol=0.0)


def _solve_ivp_flow(spec, g0, lam0, lam1):
    """(couplings, beta evaluations) of integrate_flow through scipy's RK45."""
    s0, s1 = math.log(lam0), math.log(lam1)
    sol = solve_ivp(
        lambda s, y: [uf.beta_closed_form(spec, float(y[0]), math.exp(s))],
        (s0, s1), [g0], t_eval=np.linspace(s0, s1, 129), rtol=1.0e-8,
        atol=abs(g0) * 1.0e-11 + 1e-300, method="RK45")
    assert sol.success
    return sol.y[0], sol.nfev


@pytest.mark.parametrize("spec, g0, lam0, lam1", [
    (uf.morse(4.0), 4.0, 10.0, 1.0e4),
    (uf.morse(9.0, 2.0, 3.0), 9.0, 1.0e4, 3.0),
    (uf.quartic(1.0), 1.0, 10.0, 1.0e4),
    (uf.quartic(1.0), 50.0, 1.0e4, 10.0),
], ids=["morse-up", "morse-down", "quartic-up", "quartic-down"])
def test_integrate_flow_matches_solve_ivp(spec, g0, lam0, lam1):
    calls = []

    def beta(g, lam):
        calls.append(lam)
        return uf.beta_closed_form(spec, g, lam)

    ours = uf.integrate_flow(spec, g0, lam0, lam1, beta=beta).couplings
    if lam0 > lam1:
        ours = ours[::-1]
    theirs, evaluations = _solve_ivp_flow(spec, g0, lam0, lam1)
    assert np.max(np.abs(ours - theirs) / np.abs(theirs)) < 1e-10
    assert len(calls) == evaluations  # the same steps, tried and taken


def test_integrate_flow_validation():
    with pytest.raises(uf.DomainError):
        uf.integrate_flow(uf.quartic(1.0), 1.0, 1.0e2, 1.0e2)
    with pytest.raises(uf.DomainError):
        uf.integrate_flow(uf.quartic(1.0), 1.0, 1.5, 1.0e2)
    with pytest.raises(uf.DomainError):
        uf.integrate_flow(uf.quartic(1.0), 1.0, 1.0e2, 1.0e4, beta="magic")
    for n in (1, 0):
        with pytest.raises(uf.DomainError, match="at least 2 points"):
            uf.integrate_flow(uf.quartic(1.0), 1.0, 10.0, 1.0e4, n_points=n)


# -- infinite-cutoff limit -------------------------------------------------------

def test_uv_limit_quartic_fixed_point():
    est = uf.uv_limit_energy(uf.quartic(1.0), uf.solve_fixed_point(uf.quartic(1.0)))
    assert abs(est.energy - 1.0) < 1e-12
    assert est.branches is None


def test_uv_limit_coulomb_fixed_point_is_ambiguous():
    spec = uf.coulomb(1.0)
    flow = uf.solve_fixed_point(spec)
    est = uf.uv_limit_energy(spec, flow)
    assert est.branches is not None
    plus, minus = est.branches
    assert abs(plus - 0.5) < 1e-9 and abs(minus + 0.5) < 1e-9
    assert est.energy == minus  # attractive family quotes the lower branch


def test_uv_limit_soft_coulomb_fixed_point():
    spec = uf.soft_coulomb(1.0, 1000.0)
    est = uf.uv_limit_energy(spec, uf.solve_fixed_point(spec))
    assert abs(est.energy + 0.5) < 1e-9


def test_uv_limit_constant_morse_depth():
    spec = uf.morse(4.0)
    est = uf.uv_limit_energy(spec, uf.PowerLawFlow(4.0, 0.0))
    assert abs(est.energy - (-4.0 + math.sqrt(2.0))) < 1e-8
    assert est.branches is None


def test_uv_limit_detects_drift():
    with pytest.raises(uf.NoUVLimitError) as info:
        uf.uv_limit_energy(uf.morse(4.0), uf.PowerLawFlow(1.0, 1.0))
    assert len(info.value.trend) == 3


def test_uv_limit_needs_flow_up_to_samples():
    def flow(lam):  # defined up to 1e4 only, below the largest sample
        if lam > 1.0e4:
            raise uf.DomainError(f"cutoff {lam} is above 1e4")
        return lam ** 2 / 6.0

    with pytest.raises(uf.NoUVLimitError, match="not defined up to cutoff"):
        uf.uv_limit_energy(uf.quartic(1.0), flow)


def test_uv_sample_cutoffs_are_increasing():
    assert list(UV_SAMPLE_CUTOFFS) == sorted(UV_SAMPLE_CUTOFFS)
    assert len(UV_SAMPLE_CUTOFFS) == 3


def test_attractive_families_quote_the_lower_branch():
    assert uf.morse(1.0).family.attractive is False
    assert uf.quartic(1.0).family.attractive is False
    assert uf.custom(lambda x: x * x).family.attractive is False
    assert uf.coulomb(1.0).family.attractive is True
    assert uf.soft_coulomb(1.0, 5.0).family.attractive is True
    assert kh_spec().family.attractive is True
    # an inverted quartic along g = -lam^2/6 has reduced level +-1; the
    # confining family quotes the upper branch
    est = uf.uv_limit_energy(uf.quartic(1.0), uf.PowerLawFlow(-1.0 / 6.0, 2.0))
    plus, minus = est.branches
    assert abs(plus - 1.0) < 1e-9 and abs(minus + 1.0) < 1e-9
    assert est.energy == plus
