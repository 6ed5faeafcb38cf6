import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import PchipInterpolator

from dblab import (
    ModelParams,
    ModelValidationError,
    PayoffStream,
    ProgressModel,
    RiskyArm,
    SafeArm,
    Tabulated,
    TimeVarying,
    doing_time_to_reach,
    no_shirk_check,
    hail_mary_belief,
    posterior,
    progress_model_from_dict,
    progress_value_array,
    validate_model,
)
from dblab.model import _FAMILIES


# ---------------------------------------------------------------------------
# belief arithmetic
# ---------------------------------------------------------------------------

def test_posterior_matches_belief_ode():
    # Independent oracle: integrate dp/dt = -lam * p * (1 - p) directly.
    lam, p0 = 0.75, 0.75
    sol = solve_ivp(lambda t, p: -lam * p * (1.0 - p), (0.0, 1.0), [p0],
                    rtol=1e-11, atol=1e-13, dense_output=True)
    assert abs(posterior(p0, lam, 1.0) - sol.y[0, -1]) < 1e-8


def test_posterior_anchor_value():
    assert posterior(0.75, 0.75, 1.0) == pytest.approx(0.5863, abs=5e-5)


def test_posterior_basic_shape():
    assert posterior(0.6, 1.3, 0.0) == pytest.approx(0.6, abs=1e-15)
    ts = np.linspace(0.0, 5.0, 50)
    ps = posterior(0.6, 1.3, ts)
    assert np.all(np.diff(ps) < 0.0)
    assert ps[-1] > 0.0


def test_doing_time_roundtrip(rng):
    for _ in range(1000):
        p0 = rng.uniform(0.02, 0.98)
        lam = rng.uniform(0.05, 4.0)
        t = rng.uniform(0.0, 8.0)
        p_t = posterior(p0, lam, t)
        back = doing_time_to_reach(p0, lam, p_t)
        assert back == pytest.approx(t, abs=1e-10, rel=1e-10)


def test_doing_time_rejects_target_above_prior():
    with pytest.raises(ValueError):
        doing_time_to_reach(0.5, 1.0, 0.6)


def test_params_validation():
    good = dict(p_bar=0.5, lam=1.0, mu=1.0, c=0.1, B=2.0, T=1.0)
    ModelParams(**good)
    for key, bad in [("p_bar", 0.0), ("p_bar", 1.0), ("lam", 0.0),
                     ("mu", -1.0), ("c", -0.1), ("B", 0.0), ("T", -0.5),
                     ("lam", math.inf), ("mu", math.inf), ("c", math.inf),
                     ("B", math.inf), ("T", math.inf), ("B", math.nan)]:
        with pytest.raises(ModelValidationError):
            ModelParams(**{**good, key: bad})


# ---------------------------------------------------------------------------
# value-of-progress families
# ---------------------------------------------------------------------------

def _fd1(model, tau, h=1e-5):
    return (model.value(tau + h) - model.value(tau - h)) / (2 * h)


def _fd2(model, tau, h=1e-4):
    return (model.value(tau + h) - 2 * model.value(tau)
            + model.value(tau - h)) / (h * h)


ALL_MODELS = [
    SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5),
    SafeArm(nu=0.7, B_nu=3.0),
    PayoffStream(nu=1.3, B_nu=4.0),
    RiskyArm(p_bar_nu=0.7, nu=1.1, B_nu=4.0, c_nu=0.4),
    TimeVarying(nu=1.0, alpha=0.2, beta=0.15, B=4.0, c=0.3),
    TimeVarying(nu=1.2, alpha=-0.1, beta=-0.2, B=4.0, c=0.0),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.family)
def test_value_zero_at_origin(model):
    assert model.value(0.0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.family)
def test_value_increasing(model):
    taus = np.linspace(0.0, 6.0, 200)
    vals = progress_value_array(model, taus)
    assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.family)
def test_derivatives_match_finite_differences(model):
    taus = [0.15, 0.6, 1.3, 2.4]
    if isinstance(model, RiskyArm):
        # keep clear of the stopping-time kink where one-sided behavior starts
        taus = [t for t in taus if t < model.stop_time - 1e-3]
    for tau in taus:
        v1, v2 = model.value(tau, 1), model.value(tau, 2)
        assert v1 == pytest.approx(_fd1(model, tau), rel=1e-6, abs=1e-8)
        assert v2 == pytest.approx(_fd2(model, tau), rel=1e-5, abs=1e-6)


def test_safe_arm_anchor():
    arm = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5)
    assert arm.value(1.0) == pytest.approx(4.5 * (1 - math.exp(-1)), rel=1e-12)
    assert arm.limit() == pytest.approx(4.5, rel=1e-12)


def test_payoff_stream_anchor():
    arm = PayoffStream(nu=0.5, B_nu=3.0)
    assert arm.value(2.0) == pytest.approx(3.0 * (1 - math.exp(-1)), rel=1e-12)
    assert arm.limit() == pytest.approx(3.0)


def test_risky_arm_stop_time_and_continuity():
    arm = RiskyArm(p_bar_nu=0.7, nu=1.1, B_nu=4.0, c_nu=0.4)
    odds = 0.7 / 0.3
    expected = math.log(odds * (1.1 * 4.0 - 0.4) / 0.4) / 1.1
    assert arm.stop_time == pytest.approx(expected, rel=1e-12)
    t = arm.stop_time
    assert arm.value(t - 1e-9) == pytest.approx(arm.value(t + 1e-9), abs=1e-7)
    # flat and slope-free beyond the stopping time
    assert arm.value(t + 2.0) == pytest.approx(arm.limit(), rel=1e-12)
    assert arm.value(t + 2.0, 1) == 0.0


def test_risky_arm_marginal_value_vanishes_at_stop():
    arm = RiskyArm(p_bar_nu=0.7, nu=1.1, B_nu=4.0, c_nu=0.4)
    # the active-branch slope hits zero exactly at the stopping time
    slope = arm.value(arm.stop_time - 1e-12, 1)
    assert slope == pytest.approx(0.0, abs=1e-9)


def _per_family_value(model, tau, order):
    """V, V' or V'' as each arm family wrote it before the three shared
    one formula; ``tau`` is a float or an array."""
    xp = np if isinstance(tau, np.ndarray) else math
    decay = xp.exp(-model.nu * tau)
    if isinstance(model, PayoffStream):
        nu, b = model.nu, model.B_nu
        return (b * (1.0 - decay), nu * b * decay, -nu * nu * b * decay)[order]
    if isinstance(model, SafeArm):
        nu, b, c = model.nu, model.B_nu, model.c_nu
        slope0 = nu * b - c
        return ((1.0 - decay) * (b - c / nu), decay * slope0,
                -nu * decay * slope0)[order]
    p, nu, b, c = model.p_bar_nu, model.nu, model.B_nu, model.c_nu
    stop = math.log(p / (1.0 - p) * (nu * b - c) / c) / nu
    active = (p * (1.0 - decay) * (b - c / nu) - (1.0 - p) * c * tau,
              p * decay * (nu * b - c) - (1.0 - p) * c,
              -nu * p * decay * (nu * b - c))[order]
    flat = p * b - c / nu - (1.0 - p) * c * stop if order == 0 else 0.0
    if xp is np:
        return np.where(tau <= stop, active, flat)
    return active if tau <= stop else flat


ARMS = [SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5), SafeArm(nu=0.7, B_nu=3.0),
        SafeArm(nu=0.4, B_nu=9.0, c_nu=3.1),
        RiskyArm(p_bar_nu=0.7, nu=1.1, B_nu=4.0, c_nu=0.4),
        RiskyArm(p_bar_nu=0.3, nu=2.0, B_nu=3.0, c_nu=0.2),
        RiskyArm(p_bar_nu=0.9, nu=0.5, B_nu=7.0, c_nu=1.0),
        PayoffStream(nu=1.3, B_nu=4.0), PayoffStream(nu=0.37, B_nu=2.2)]


@pytest.mark.parametrize("model", ARMS, ids=repr)
def test_arm_value_matches_per_family_formulas_bit_for_bit(model):
    # the grid runs past every RiskyArm's stop (at most ~6.2 here)
    grid = np.linspace(0.0, 12.0, 1001)
    scalars = [0.0, 0.37, 1.9, 12.0]
    orders = (0, 1) if isinstance(model, PayoffStream) else (0, 1, 2)
    for order in orders:
        assert np.array_equal(model.value(grid, order),
                              _per_family_value(model, grid, order))
        for tau in scalars:
            got = model.value(tau, order)
            assert type(got) is float
            assert got.hex() == _per_family_value(model, tau, order).hex()
    if isinstance(model, PayoffStream):
        # V'' is reassociated, (-nu*e)*(nu*B) for (-nu*nu*B)*e
        np.testing.assert_allclose(model.value(grid, 2),
                                   _per_family_value(model, grid, 2),
                                   rtol=1e-15, atol=0.0)
        for tau in scalars:
            assert model.value(tau, 2) == pytest.approx(
                _per_family_value(model, tau, 2), rel=1e-15, abs=0.0)


def test_risky_arm_rejects_hopeless_start():
    # prior odds too low: posterior starts below the indifference belief
    with pytest.raises(ModelValidationError):
        RiskyArm(p_bar_nu=0.05, nu=1.0, B_nu=1.2, c_nu=1.0)
    with pytest.raises(ModelValidationError):
        RiskyArm(p_bar_nu=0.7, nu=1.0, B_nu=4.0, c_nu=0.0)


def test_time_varying_value_against_direct_time_quadrature():
    # Oracle in calendar time, no hazard substitution:
    #   V(tau) = int_0^tau e^{-N(t)} (n(t) B - c) dt
    tv = TimeVarying(nu=1.0, alpha=0.2, beta=0.15, B=4.0, c=0.3)

    def integrand(t):
        n = tv.nu * math.exp(tv.alpha + tv.beta * t)
        cum = tv.nu * math.exp(tv.alpha) * math.expm1(tv.beta * t) / tv.beta
        return math.exp(-cum) * (n * tv.B - tv.c)

    for tau in (0.4, 1.1, 2.7):
        direct, _ = quad(integrand, 0.0, tau, epsabs=1e-12)
        assert tv.value(tau) == pytest.approx(direct, rel=1e-9)


def test_time_varying_limits():
    growing = TimeVarying(nu=1.0, alpha=0.2, beta=0.15, B=4.0, c=0.3)
    assert growing.limit() == pytest.approx(4.0, rel=0.2)
    flat = TimeVarying(nu=2.0, alpha=0.5, beta=0.0, B=4.0, c=0.3)
    assert flat.limit() == pytest.approx(4.0 - 0.3 / (2.0 * math.exp(0.5)),
                                         rel=1e-12)
    fading_free = TimeVarying(nu=1.2, alpha=-0.1, beta=-0.2, B=4.0, c=0.0)
    total = 1.2 * math.exp(-0.1) / 0.2
    assert fading_free.limit() == pytest.approx(4.0 * -math.expm1(-total),
                                                rel=1e-10)
    fading_costly = TimeVarying(nu=1.2, alpha=-0.1, beta=-0.2, B=4.0, c=0.1)
    assert fading_costly.limit() == -math.inf


def test_tabulated_matches_sampled_model():
    arm = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5)
    taus = np.linspace(0.0, 8.0, 60)
    tab = Tabulated(taus=tuple(taus),
                    values=tuple(arm.value(t) for t in taus))
    for tau in (0.3, 1.7, 4.2):
        assert tab.value(tau) == pytest.approx(arm.value(tau), abs=2e-4)
    with pytest.raises(ValueError):
        tab.value(9.0)


def test_tabulated_flat_tail_extends_past_last_knot():
    taus = np.linspace(0.0, 15.0, 61)
    values = -4.5 * np.expm1(-np.minimum(taus, 14.0))
    tab = Tabulated(taus=tuple(taus), values=tuple(values))
    assert tab.value(27.87) == tab.limit() == values[-1]
    assert tab.value(27.87, 1) == 0.0 and tab.value(27.87, 2) == 0.0
    grid = np.array([3.0, 15.0, 15.5, 40.0])
    for order in (0, 1, 2):
        out = tab.value(grid, order)
        assert [tab.value(float(t), order) for t in grid] == list(out)
        assert out[0] == tab.value(3.0, order)
    with pytest.raises(ValueError):
        tab.value(math.inf)


def test_tabulated_derivatives_match_fresh_interpolant():
    taus = np.linspace(0.0, 8.0, 60)
    values = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5).value(taus)
    tab = Tabulated(taus=tuple(taus), values=tuple(values))
    fresh = PchipInterpolator(taus, values)
    probe = np.array([0.0, 0.3, 1.7, 4.2, 8.0])
    for order in (0, 1, 2):
        curve = fresh if order == 0 else fresh.derivative(order)
        assert np.array_equal(tab.value(probe, order), curve(probe))
        assert tab.value(1.7, order) == float(curve(1.7))


def test_tabulated_construction_guards():
    with pytest.raises(ModelValidationError):
        Tabulated(taus=(0.0, 1.0, 2.0), values=(0.0, 1.0, 2.0))  # too few
    with pytest.raises(ModelValidationError):
        Tabulated(taus=(0.0, 1.0, 1.0, 2.0), values=(0.0, 1.0, 1.5, 2.0))
    with pytest.raises(ModelValidationError):
        Tabulated(taus=(0.0, 1.0, 2.0, 3.0), values=(0.0, 1.0, 0.5, 2.0))
    with pytest.raises(ModelValidationError):
        Tabulated(taus=(0.5, 1.0, 2.0, 3.0), values=(0.0, 1.0, 1.5, 2.0))


def test_tabulated_limit_requires_flat_tail():
    steep = Tabulated(taus=(0.0, 1.0, 2.0, 3.0), values=(0.0, 1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        steep.limit()
    flat = Tabulated(taus=(0.0, 1.0, 20.0, 21.0),
                     values=(0.0, 1.0, 2.0, 2.0))
    assert flat.limit() == pytest.approx(2.0)


def test_model_from_dict_roundtrip():
    spec = {"family": "SafeArm", "nu": 1.0, "B_nu": 5.0, "c_nu": 0.5}
    model = progress_model_from_dict(spec)
    assert isinstance(model, SafeArm)
    assert model.nu == 1.0
    with pytest.raises(ValueError):
        progress_model_from_dict({"family": "Mystery", "nu": 1.0})
    with pytest.raises(ModelValidationError):
        progress_model_from_dict({"family": "SafeArm", "nu": 1.0,
                                  "B_nu": 5.0, "bogus": 3.0})
    with pytest.raises(ModelValidationError, match="SafeArm.nu"):
        progress_model_from_dict({"family": "SafeArm", "nu": True,
                                  "B_nu": 5.0})


def test_time_varying_without_drift_is_a_safe_arm():
    # beta = 0 leaves a constant hazard nu*e^alpha: the sure arm's value
    taus = np.linspace(0.0, 8.0, 201)
    for alpha, B, c in ((0.2, 4.0, 0.3), (-0.4, 2.0, 0.0)):
        drift_free = TimeVarying(nu=1.1, alpha=alpha, beta=0.0, B=B, c=c)
        arm = SafeArm(nu=1.1 * math.exp(alpha), B_nu=B, c_nu=c)
        for order in (0, 1, 2):
            np.testing.assert_allclose(drift_free.value(taus, order),
                                       arm.value(taus, order),
                                       rtol=1e-12, atol=0.0)
            assert drift_free.value(0.7, order) == pytest.approx(
                arm.value(0.7, order), rel=1e-12)
        assert drift_free.limit() == pytest.approx(arm.limit(), rel=1e-12)


_REF_ARM = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5)
_TAB_TAUS = np.linspace(0.0, 8.0, 40)
FIVE_FAMILIES = ALL_MODELS + [
    Tabulated(taus=tuple(_TAB_TAUS), values=tuple(_REF_ARM.value(_TAB_TAUS)))]
TAU_ARRAYS = arrays(np.float64, st.integers(1, 6),
                    elements=st.floats(0.0, 6.0, allow_subnormal=False))
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)


def _concrete_families(cls=ProgressModel):
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from _concrete_families(sub)


def test_every_concrete_family_is_registered_under_its_name():
    assert set(_concrete_families()) == set(_FAMILIES.values())
    assert {type(m) for m in FIVE_FAMILIES} == set(_FAMILIES.values())


@pytest.mark.parametrize("model", FIVE_FAMILIES, ids=lambda m: m.family)
def test_family_rebuilds_from_its_spec(model):
    assert _FAMILIES[model.family] is type(model)
    spec = {"family": model.family, **dataclasses.asdict(model)}
    assert progress_model_from_dict(spec) == model


def _assert_scalar_float(x):
    assert isinstance(x, float) and not isinstance(x, np.ndarray)
    json.dumps(x)
    assert "%.12g" % x


def _assert_matches_elementwise(fn, taus):
    out = fn(taus)
    assert isinstance(out, np.ndarray) and out.shape == taus.shape
    ref = []
    for t in taus:
        val = fn(float(t))
        _assert_scalar_float(val)
        ref.append(val)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("model", FIVE_FAMILIES, ids=lambda m: m.family)
@PROPERTY
@given(taus=TAU_ARRAYS)
def test_value_array_matches_scalar_calls(model, order, taus):
    _assert_matches_elementwise(lambda t: model.value(t, order), taus)
    np.testing.assert_array_equal(progress_value_array(model, taus, order),
                                  model.value(taus, order))


@pytest.mark.parametrize("model", FIVE_FAMILIES, ids=lambda m: m.family)
@PROPERTY
@given(taus=TAU_ARRAYS)
def test_hail_mary_belief_array_matches_scalar_calls(model, taus):
    params = ModelParams(p_bar=0.75, lam=0.75, mu=1.0, c=0.5, B=5.0, T=1.9)
    _assert_matches_elementwise(lambda t: hail_mary_belief(params, model, t),
                                taus)


@PROPERTY
@given(p0=st.floats(0.01, 0.99), lam=st.floats(0.05, 5.0), taus=TAU_ARRAYS)
def test_posterior_array_matches_scalar_calls(p0, lam, taus):
    _assert_matches_elementwise(lambda t: posterior(p0, lam, t), taus)


@pytest.mark.parametrize("model", FIVE_FAMILIES, ids=lambda m: m.family)
def test_value_rejects_bad_remaining_times(model):
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            model.value(bad)
        with pytest.raises(ValueError):
            model.value(np.array([0.5, bad]))
    with pytest.raises(ValueError):
        model.value(0.5, order=3)
    with pytest.raises(ValueError):
        posterior(0.5, 1.0, np.array([0.5, -0.1]))


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

def test_validate_baseline_passes(base_params, safe_arm):
    report = validate_model(base_params, safe_arm)
    assert report.overall
    assert report.failure_names() == []


def test_validate_flags_low_relative_concavity():
    params = ModelParams(p_bar=0.8, lam=1.0, mu=0.4, c=0.5, B=9.0, T=4.0)
    slow = SafeArm(nu=0.5, B_nu=10.25, c_nu=0.0)
    report = validate_model(params, slow)
    assert not report.overall
    assert "relative_concavity" in report.failure_names()
    failing = [c for c in report.checks if c.name == "relative_concavity"][0]
    assert failing.witness_tau is not None
    assert failing.witness_value is not None


def test_validate_flags_worthless_progress(base_params):
    puny = SafeArm(nu=1.0, B_nu=0.6, c_nu=0.5)  # limit 0.1 < c/mu = 0.5
    report = validate_model(base_params, puny)
    assert "limit_exceeds_thinking_cost" in report.failure_names()


def test_validate_flags_progress_worth_more_than_reward(base_params):
    lavish = SafeArm(nu=1.0, B_nu=50.0, c_nu=0.0)  # limit 50 > B + c/mu
    report = validate_model(base_params, lavish)
    assert "limit_within_reward_bound" in report.failure_names()


def test_validate_fails_an_agent_whose_terms_overflow(base_params, safe_arm):
    # mu*B overflows a double, so the deadline-salience terms are not
    # finite: one named hard check fails, and nothing warns
    params = dataclasses.replace(base_params, B=1e308, mu=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_model(params, safe_arm)
    assert not report.overall
    assert report.failure_names() == ["finite_terms"]
    failing, = [c for c in report.checks if c.name == "finite_terms"]
    assert not failing.advisory
    assert failing.witness_tau is not None
    assert not math.isfinite(failing.witness_value)


def test_validate_tabulated_concavity_is_advisory(base_params):
    arm = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5)
    taus = np.linspace(0.0, 10.0, 120)
    tab = Tabulated(taus=tuple(taus),
                    values=tuple(arm.value(t) for t in taus))
    report = validate_model(base_params, tab)
    advisory = {c.name for c in report.checks if c.advisory}
    assert "relative_concavity" in advisory
    # advisory outcomes never decide the overall verdict
    hard = [c for c in report.checks if not c.advisory]
    assert report.overall == all(c.passed for c in hard)


# ---------------------------------------------------------------------------
# terminal incentive check
# ---------------------------------------------------------------------------

def test_no_shirk_threshold(base_params):
    res = no_shirk_check(base_params, 0.5)
    assert res.threshold == pytest.approx(0.5 / (0.75 * 5.0), rel=1e-12)
    assert bool(res)
    assert not bool(no_shirk_check(base_params, 0.1))
    floor = posterior(base_params.p_bar, base_params.lam, base_params.T)
    assert res.belief_floor == pytest.approx(floor, rel=1e-12)
    with pytest.raises(ValueError):
        no_shirk_check(base_params, 0.0)
