"""Tests for the policy calculus.

Oracles used here:
  * expected-value quadrature / Monte Carlo for the benchmark values,
  * a brute-force two-segment deviation value for the boundary-belief sign
    rule,
  * independent root-finding on inline closed forms for the period maps,
  * the solver's schedules for the switching diagnostics.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from dblab import (
    INFINITE,
    ModelParams,
    SearchCeilingError,
    PayoffStream,
    RiskyArm,
    SafeArm,
    Tabulated,
    do_throughout_value,
    doing_time_to_reach,
    hail_mary_belief,
    hail_mary_belief_raw,
    hail_mary_time,
    initial_doing_span,
    known_arm_value,
    posterior,
    preference_integral,
    preference_slope,
    solve,
    switching_profile,
    thinking_span,
)
from dblab.policy import _sign_intervals


# ---------------------------------------------------------------------------
# benchmark values
# ---------------------------------------------------------------------------

def test_known_arm_value_endpoints(base_params):
    assert known_arm_value(base_params, 0.0) == 0.0
    limit = base_params.B - base_params.c / base_params.lam
    assert known_arm_value(base_params, 300.0) == pytest.approx(limit, rel=1e-12)
    with pytest.raises(ValueError):
        known_arm_value(base_params, -0.1)


def test_known_arm_value_matches_quadrature(base_params):
    # U(tau) is the expected discounted-by-survival flow of a known arm:
    # integral of exp(-lam*s) * (lam*B - c) ds over [0, tau].
    lam, B, c = base_params.lam, base_params.B, base_params.c
    for tau in (0.3, 1.0, 2.7):
        want, _ = quad(lambda s: math.exp(-lam * s) * (lam * B - c), 0.0, tau,
                       epsabs=1e-12)
        assert known_arm_value(base_params, tau) == pytest.approx(want, abs=1e-10)
    assert known_arm_value(base_params, 1.0) == pytest.approx(2.2864, abs=1e-4)


def test_do_throughout_value_reductions(base_params):
    for tau in (0.4, 1.0, 3.0):
        assert do_throughout_value(base_params, 1.0, tau) == pytest.approx(
            known_arm_value(base_params, tau), rel=1e-14)
    costless = dataclasses.replace(base_params, c=0.0)
    assert do_throughout_value(costless, 0.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        do_throughout_value(base_params, 1.3, 1.0)
    with pytest.raises(ValueError):
        do_throughout_value(base_params, 0.5, -1.0)


def test_do_throughout_value_monte_carlo(base_params, rng):
    # One risky arm pulled for the whole window: pay flow cost until the
    # arrival (or the horizon), collect B on arrival.
    p, tau = 0.75, 1.0
    lam, B, c = base_params.lam, base_params.B, base_params.c
    n = 1_000_000
    solvable = rng.random(n) < p
    arrival = rng.exponential(1.0 / lam, n)
    hit = solvable & (arrival <= tau)
    value = B * hit - c * np.where(hit, arrival, tau)
    est, se = value.mean(), value.std(ddof=1) / math.sqrt(n)
    want = do_throughout_value(base_params, p, tau)
    assert want == pytest.approx(1.5898, abs=1e-4)
    assert abs(est - want) <= 3.0 * se


# ---------------------------------------------------------------------------
# boundary belief
# ---------------------------------------------------------------------------

def test_boundary_belief_anchors(base_params, safe_arm):
    assert hail_mary_belief(base_params, safe_arm, 0.0) == 0.0
    assert hail_mary_belief(base_params, safe_arm, 1.0) == pytest.approx(
        0.6937, abs=1e-3)
    assert hail_mary_belief(base_params, safe_arm, 1.2) == pytest.approx(
        0.7500, abs=1e-3)


def test_boundary_belief_cap(base_params):
    # A progress limit at the Assumption-1 ceiling B + c/mu pushes the raw
    # indifference belief above one at long horizons; the capped version
    # saturates.
    rich = SafeArm(nu=1.0, B_nu=5.5, c_nu=0.0)
    assert hail_mary_belief_raw(base_params, rich, 40.0) > 1.0
    assert hail_mary_belief(base_params, rich, 40.0) == 1.0


def test_boundary_belief_monotone_with_unit_limit(base_params, safe_arm):
    taus = np.linspace(0.0, 50.0, 2001)
    q = np.array([hail_mary_belief(base_params, safe_arm, t) for t in taus])
    assert q[0] == 0.0
    assert np.all(np.diff(q) >= -1e-12)
    assert hail_mary_belief_raw(base_params, safe_arm, 1e3) == pytest.approx(
        1.0, abs=1e-3)


def _two_segment_gap(params, model, p, tau, eps=1e-6):
    """Value of thinking for ``eps`` then doing, minus doing throughout.

    Brute-force expected-value computation used as the sign oracle for the
    boundary belief: both strategies priced by direct quadrature over the
    first arrival during the deviation window.
    """
    lam, mu, c, B = params.lam, params.mu, params.c, params.B
    u = lambda w: (B - c / lam) * -math.expm1(-lam * w)
    zd = lambda w: p * u(w) - (1.0 - p) * c * w
    head, _ = quad(lambda t: mu * math.exp(-mu * t) * (model.value(tau - t) - c * t),
                   0.0, eps, epsabs=1e-16)
    tail = math.exp(-mu * eps) * (-c * eps + zd(tau - eps))
    return head + tail - zd(tau)


def test_marginal_deviation_sign_matches_boundary_belief(base_params, safe_arm, rng):
    hits = 0
    for _ in range(500):
        p = rng.uniform(0.01, 0.99)
        tau = rng.uniform(1e-3, 10.0)
        qhat = hail_mary_belief_raw(base_params, safe_arm, tau)
        if abs(qhat - p) <= 1e-4:
            continue
        gap = _two_segment_gap(base_params, safe_arm, p, tau)
        assert math.copysign(1.0, gap) == math.copysign(1.0, qhat - p), (
            f"sign mismatch at p={p}, tau={tau}: gap={gap}, qhat={qhat}")
        hits += 1
    assert hits > 400


# ---------------------------------------------------------------------------
# boundary-belief inverse
# ---------------------------------------------------------------------------

def test_hail_mary_time_roundtrip(base_params, safe_arm):
    for p in (0.3, 0.5, 0.75, 0.9):
        t = hail_mary_time(base_params, safe_arm, p)
        assert hail_mary_belief(base_params, safe_arm, t) == pytest.approx(
            p, abs=1e-8)


def test_hail_mary_time_anchors(base_params, safe_arm):
    assert hail_mary_time(base_params, safe_arm, 0.75) == pytest.approx(
        1.200, abs=1e-3)
    # independent root of the inline indifference-belief formula
    lam, mu, c, B = (base_params.lam, base_params.mu, base_params.c,
                     base_params.B)
    K = 4.5

    def qhat(t):
        v = K * -math.expm1(-t)
        u = (B - c / lam) * -math.expm1(-lam * t)
        return mu * (v + c * t) / (mu * (B + c * t) + (lam - mu) * (B - u))

    want = brentq(lambda t: qhat(t) - 2.0 / 3.0, 0.5, 1.5, xtol=1e-12)
    got = hail_mary_time(base_params, safe_arm, 2.0 / 3.0)
    assert got == pytest.approx(want, abs=1e-8)
    assert got == pytest.approx(0.920, abs=2e-3)


def test_hail_mary_time_small_target(base_params, safe_arm):
    assert 0.0 <= hail_mary_time(base_params, safe_arm, 1e-6) < 1e-5


def test_hail_mary_time_ceiling_error(base_params, safe_arm):
    # The raw belief approaches one only asymptotically; a target above its
    # value at the search ceiling must be reported, not silently clamped.
    with pytest.raises(SearchCeilingError):
        hail_mary_time(base_params, safe_arm, 0.999)
    with pytest.raises(ValueError):
        hail_mary_time(base_params, safe_arm, 1.0)


# ---------------------------------------------------------------------------
# preference slope and integral
# ---------------------------------------------------------------------------

def test_preference_slope_anchor(base_params, safe_arm):
    got = preference_slope(base_params, safe_arm, 0.0, 0.75, 1.2)
    assert got == pytest.approx(0.5305, abs=1e-3)


def test_preference_slope_costless_skeptic(base_params, safe_arm):
    # With p = 0 and c = 0 only the deadline effect mu*V' survives.
    costless = dataclasses.replace(base_params, c=0.0)
    for s in (0.0, 0.8, 2.0, 5.0):
        got = preference_slope(costless, safe_arm, s, 0.0, 0.3)
        assert got == pytest.approx(
            costless.mu * safe_arm.value(0.3 + s, 1), rel=1e-12)
        assert got > 0.0


def test_preference_slope_sign_flip(base_params, safe_arm):
    assert preference_slope(base_params, safe_arm, 0.0, 0.75, 1.2) > 0.0
    assert preference_slope(base_params, safe_arm, 2.5, 0.75, 1.2) < 0.0
    # zero of the slope in closed form: 1.96875*e^{-x} = 0.0625 at
    # x = xi + s, i.e. s* = ln(31.5) - 1.2
    root = brentq(lambda s: preference_slope(base_params, safe_arm, s, 0.75, 1.2),
                  1.0, 4.0, xtol=1e-10)
    assert root == pytest.approx(math.log(31.5) - 1.2, abs=1e-8)
    with pytest.raises(ValueError):
        preference_slope(base_params, safe_arm, -0.1, 0.75, 1.2)


def test_preference_integral_basics(base_params, safe_arm):
    assert preference_integral(base_params, safe_arm, 0.0, 0.75, 1.2) == 0.0
    assert preference_integral(base_params, safe_arm, 0.7, 0.75, 1.2) > 0.0


@pytest.mark.parametrize("model", [
    SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5),
    SafeArm(nu=1.7, B_nu=3.2, c_nu=0.4),
    PayoffStream(nu=0.8, B_nu=4.0),
    RiskyArm(p_bar_nu=0.7, nu=1.1, B_nu=4.0, c_nu=0.4),
    RiskyArm(p_bar_nu=0.6, nu=1.0, B_nu=3.0, c_nu=0.5),  # nu == mu
])
def test_preference_integral_closed_matches_quadrature(base_params, model):
    taus, xis = [0.0, 1e-7, 1e-6, 0.3, 1.0, 2.5, 4.0], [0.0, 1.2]
    if isinstance(model, RiskyArm):
        # anchors either side of the stop time, and spans across the kink
        stop = model.stop_time
        xis += [stop - 0.5, stop, stop + 0.3]
        taus += [0.5 + 1e-9, 0.9, stop + 0.4]
    for tau in taus:
        for p in (0.2, 0.75):
            for xi in xis:
                closed = preference_integral(base_params, model, tau, p, xi)
                numeric, _ = quad(
                    lambda s: (math.exp(base_params.mu * s) * preference_slope(
                        base_params, model, s, p, xi)),
                    0.0, tau, epsabs=1e-10, epsrel=1e-12, limit=200)
                assert abs(closed - numeric) <= 1e-9, (tau, p, xi)


def _growth_reference(x, tau):
    return tau if x == 0.0 else math.expm1(x * tau) / x


def _exponential_integral_reference(params, model, tau, p, xi):
    """The two-term SafeArm/PayoffStream closed form (no drift, no stop
    time), the reference that pins those families' results bit for bit."""
    mu, lam, B, c = params.mu, params.lam, params.B, params.c
    scale = model.limit()
    nu = model.nu
    a_coef = mu * scale * math.exp(-nu * xi) * (nu - p * lam)
    b_coef = p * mu * lam * (scale - B) + (mu - lam * p) * c
    return (a_coef * _growth_reference(mu - nu, tau)
            + b_coef * _growth_reference(mu, tau))


def test_preference_integral_exponential_families_bit_identical(rng):
    for _ in range(400):
        params = ModelParams(p_bar=rng.uniform(0.05, 0.95),
                             lam=rng.uniform(0.1, 10.0),
                             mu=rng.uniform(0.1, 10.0), c=rng.uniform(0.0, 3.0),
                             B=rng.uniform(1.0, 31.0), T=2.0)
        nu = params.mu if rng.random() < 0.1 else rng.uniform(0.1, 10.0)
        if rng.random() < 0.5:
            model = PayoffStream(nu=nu, B_nu=rng.uniform(0.5, 10.0))
        else:
            model = SafeArm(nu=nu, B_nu=rng.uniform(1.0, 10.0),
                            c_nu=rng.uniform(0.0, 0.1))
        tau = float(rng.choice([0.0, 1e-6, rng.uniform(0.0, 4.0)]))
        p, xi = rng.uniform(0.01, 0.99), rng.uniform(0.0, 4.0)
        got = preference_integral(params, model, tau, p, xi)
        want = _exponential_integral_reference(params, model, tau, p, xi)
        assert got.hex() == want.hex(), (params, model, tau, p, xi)


def test_preference_integral_dense_tabulated_solves(base_params, safe_arm):
    # 401 knots on [0, 15], flat after tau=14: every knot inside the range
    # is a break point for quad, more than its default subinterval budget;
    # the table samples the SafeArm curve, so the schedules agree
    taus = [15.0 * i / 400 for i in range(401)]
    values = [-4.5 * math.expm1(-min(tau, 14.0)) for tau in taus]
    dense = Tabulated(taus=tuple(taus), values=tuple(values))
    assert preference_integral(base_params, dense, 10.0, 0.75, 0.0) == \
        pytest.approx(preference_integral(base_params, safe_arm, 10.0, 0.75,
                                          0.0), abs=1e-5)
    got, ref = solve(base_params, dense), solve(base_params, safe_arm)
    assert got.structure == ref.structure
    for name in ("tau1", "tau2", "tau3"):
        assert getattr(got, name) == pytest.approx(getattr(ref, name),
                                                   abs=1e-6)


# ---------------------------------------------------------------------------
# period-length maps
# ---------------------------------------------------------------------------

def test_thinking_span_anchor(base_params, safe_arm):
    got = thinking_span(base_params, safe_arm, 1.2)
    assert got == pytest.approx(3.543, abs=2e-3)
    # independent root of the closed-form accumulated preference
    # a*tau + b*(e^tau - 1) with the coefficients rebuilt inline
    p = hail_mary_belief(base_params, safe_arm, 1.2)
    mu, lam, c, B = (base_params.mu, base_params.lam, base_params.c,
                     base_params.B)
    K = 4.5
    a = mu * K * math.exp(-1.2) * (1.0 - p * lam)
    b = p * mu * lam * (K - B) + (mu - lam * p) * c
    want = brentq(lambda t: a * t + b * math.expm1(t), 1.0, 10.0, xtol=1e-10)
    assert got == pytest.approx(want, abs=1e-6)


def test_thinking_span_infinite_when_slope_stays_positive(base_params, safe_arm):
    # At tau3 = 0.5 the boundary belief sits below the threshold where the
    # limiting slope turns negative, so the preference never comes back to
    # indifference.
    assert thinking_span(base_params, safe_arm, 0.5) == INFINITE


def test_thinking_span_zero_when_thinking_loses_immediately(base_params, safe_arm):
    # At tau3 = 3 the boundary belief is so optimistic that the slope is
    # negative from the start.
    p = hail_mary_belief(base_params, safe_arm, 3.0)
    assert preference_slope(base_params, safe_arm, 0.0, p, 3.0) < 0.0
    assert thinking_span(base_params, safe_arm, 3.0) == 0.0


def test_thinking_span_rejects_saturated_belief(base_params):
    rich = SafeArm(nu=1.0, B_nu=5.5, c_nu=0.0)
    assert hail_mary_belief(base_params, rich, 40.0) == 1.0
    with pytest.raises(ValueError):
        thinking_span(base_params, rich, 40.0)


def test_initial_doing_span_identity(base_params, safe_arm):
    t_star = hail_mary_time(base_params, safe_arm, 2.0 / 3.0)
    got = initial_doing_span(base_params, safe_arm, t_star)
    q = hail_mary_belief(base_params, safe_arm, t_star)
    assert got == pytest.approx(
        doing_time_to_reach(base_params.p_bar, base_params.lam, q), rel=1e-12)
    # reaching 2/3 from 3:1 odds takes (1/lam) * ln(1.5)
    assert got == pytest.approx(math.log(1.5) / base_params.lam, abs=1e-6)


def test_initial_doing_span_boundary_cases(base_params, safe_arm):
    at_prior = hail_mary_time(base_params, safe_arm, base_params.p_bar)
    assert initial_doing_span(base_params, safe_arm, at_prior) <= 1e-6
    with pytest.raises(ValueError):
        initial_doing_span(base_params, safe_arm, 2.0)  # q(2) > p_bar


def test_period_maps_nonincreasing(base_params, safe_arm):
    # both maps shrink as the trailing doing stretch grows
    t_hi = hail_mary_time(base_params, safe_arm, base_params.p_bar)
    tau1 = [initial_doing_span(base_params, safe_arm, t)
            for t in np.linspace(0.93, t_hi, 64)]
    assert all(b <= a + 1e-9 for a, b in zip(tau1, tau1[1:]))

    tau2 = [thinking_span(base_params, safe_arm, t)
            for t in np.linspace(0.93, 1.9, 64)]
    assert all(b <= a + 1e-9 for a, b in zip(tau2, tau2[1:]))
    assert tau2[-1] < tau2[0]


def test_boundary_slope_positive_up_to_prior(base_params, safe_arm):
    # wherever the boundary belief lies in (0, p_bar], thinking initially
    # gains ground after a switch
    for t3 in np.linspace(0.05, 1.2, 64):
        p = hail_mary_belief(base_params, safe_arm, t3)
        assert 0.0 < p <= base_params.p_bar + 1e-9
        assert preference_slope(base_params, safe_arm, 0.0, p, t3) > 0.0


# ---------------------------------------------------------------------------
# switching diagnostics
# ---------------------------------------------------------------------------

def test_switching_profile_think_do(base_params, safe_arm):
    sched = solve(base_params, safe_arm)
    prof = switching_profile(base_params, safe_arm, sched)
    assert len(prof.sign_pattern) == 2
    (a0, b0, lab0), (a1, b1, lab1) = prof.sign_pattern
    assert (lab0, lab1) == ("do-favored", "think-favored")
    assert a0 == 0.0 and b1 == pytest.approx(base_params.T)
    assert b0 == a1
    assert b0 == pytest.approx(sched.tau3, abs=1e-6)
    assert b0 == pytest.approx(1.2, abs=1e-4)
    g, y = prof.grid, prof.y_values
    assert np.all(y[g <= sched.tau3 - 0.01] < 0.0)
    assert np.all(y[g >= sched.tau3 + 0.01] > 0.0)
    assert y[0] < 0.0  # doing always wins just before the deadline


def test_switching_profile_short_horizon_all_doing(base_params, safe_arm):
    short = dataclasses.replace(base_params, T=0.5)
    prof = switching_profile(short, safe_arm, (0.0, 0.0, 0.5))
    assert prof.sign_pattern == ((0.0, 0.5, "do-favored"),)
    assert np.all(prof.y_values[1:] < 0.0)


def test_switching_profile_do_think_do(base_params, safe_arm):
    p6 = dataclasses.replace(base_params, T=6.0)
    sched = solve(p6, safe_arm)
    assert sched.tau1 > 0.0
    prof = switching_profile(p6, safe_arm, sched)
    labels = [lab for _, _, lab in prof.sign_pattern]
    assert labels == ["do-favored", "think-favored", "do-favored"]
    bounds = [prof.sign_pattern[0][1], prof.sign_pattern[1][1]]
    assert bounds[0] == pytest.approx(sched.tau3, abs=1e-5)
    assert bounds[1] == pytest.approx(sched.tau3 + sched.tau2, abs=1e-5)
    # intervals chain into a partition of [0, T]
    for (_, hi, _), (lo, _, _) in zip(prof.sign_pattern, prof.sign_pattern[1:]):
        assert hi == lo


# edge cases of the sign pattern: one point, zeros on the grid and ties
_G = np.array([0.0, 0.5, 1.5, 2.0])
_THINK_DO = ((0.0, 0.5, "think-favored"), (0.5, 2.0, "do-favored"))


@pytest.mark.parametrize("grid, y, want", [
    (np.array([0.3]), np.array([-1.0]), ((0.3, 0.3, "do-favored"),)),
    # y is exactly 0 at the grid point where the label changes
    (_G, np.array([1.0, 0.0, -1.0, -2.0]), _THINK_DO),
    (_G, np.array([-1.0, 0.0, 3.0, 1.0]),
     ((0.0, 0.5, "do-favored"), (0.5, 2.0, "think-favored"))),
    # equal neighbours in the crossing cell: the boundary is its start;
    # the product 2e-200 * -1e-200 underflows, so no sign change is seen
    (_G, np.array([1.0, 0.0, 0.0, -1.0]), _THINK_DO),
    (_G, np.array([2e-200, -1e-200, -1e-200, -1.0]), _THINK_DO),
], ids=["one_point", "zero_at_point", "zero_then_up", "zero_tie",
        "underflow_tie"])
def test_sign_intervals_edge_cases(grid, y, want):
    got = _sign_intervals(grid, y)
    assert got == want
    assert all(type(b) is float for lo, hi, _ in got for b in (lo, hi))


def test_switching_profile_concavity_certificate(base_params, safe_arm):
    # The slope of the preference decays along every thinking stretch; that
    # single-sign-change property is what the thinking-span bracketing uses.
    for T in (1.9, 6.0):
        params = dataclasses.replace(base_params, T=T)
        sched = solve(params, safe_arm)
        prof = switching_profile(params, safe_arm, sched)
        nonzero = prof.concavity_flags[prof.concavity_flags != 0]
        assert len(nonzero) > 100
        assert set(np.unique(nonzero)) == {-1}
        lo, hi = sched.tau3, sched.tau3 + sched.tau2
        flagged = prof.grid[prof.concavity_flags != 0]
        assert flagged.min() >= lo - 1e-9 and flagged.max() <= hi + 1e-9


def test_switching_profile_normalized_preference_concave_at_anchor(
        base_params, safe_arm):
    # On the short thinking window of the base horizon the normalized
    # preference itself is concave as well (this is not true of long
    # windows, where the survival factor dominates far from the switch).
    sched = solve(base_params, safe_arm)
    prof = switching_profile(base_params, safe_arm, sched)
    g, y = prof.grid, prof.y_values
    inside = (g > sched.tau3 + 0.01) & (g < base_params.T - 0.01)
    idx = np.where(inside)[0]
    d2 = y[idx + 1] - 2.0 * y[idx] + y[idx - 1]
    assert np.all(d2 <= 1e-12)


def _scalar_loop_profile(params, model, sched, n_steps=4096):
    """Reference for switching_profile: one point at a time, fourth-order
    steps in remaining time, concavity flags from an explicit window."""
    tau1, tau2, tau3 = sched.tau1, sched.tau2, sched.tau3
    T, mu, lam, B, c = params.T, params.mu, params.lam, params.B, params.c
    p_bar = params.p_bar

    def doing_time_at(r):
        if r <= tau3:
            return tau1 + (tau3 - r)
        return tau1 if r <= tau3 + tau2 else max(T - r, 0.0)

    def eta_rate(r, active):
        a = doing_time_at(r)
        pre = math.exp(-mu * (T - r - a))
        v = model.value(r)
        return pre * (mu * (1 - p_bar) * ((1 - active) * mu * v - c)
                      - (lam - mu) * p_bar * math.exp(-lam * a)
                      * ((1 - active) * mu * v + active * lam * B - c))

    grid, etas, cell_thinks, eta = [0.0], [0.0], [], 0.0
    for lo, hi, active in ((0.0, tau3, 1.0), (tau3, tau3 + tau2, 0.0),
                           (tau3 + tau2, T, 1.0)):
        if hi <= lo:
            continue
        n = max(1, math.ceil((hi - lo) / (T / n_steps)))
        h = (hi - lo) / n
        for i in range(n):
            t = lo + i * h
            eta += h * (eta_rate(t, active) + 4.0 * eta_rate(t + 0.5 * h, active)
                        + eta_rate(t + h, active)) / 6.0
            grid.append(t + h)
            etas.append(eta)
            cell_thinks.append(active == 0.0)
    y, slope = [], []
    for t, e in zip(grid, etas):
        a = doing_time_at(t)
        q = posterior(p_bar, lam, a)
        odds_mass = 1.0 - p_bar + p_bar * math.exp(-lam * a)
        y.append(mu * model.value(t) - q * lam * B
                 - e / (math.exp(-mu * (T - t - a)) * odds_mass))
        slope.append(mu * model.value(t, 1) + q * mu * lam * (model.value(t) - B)
                     + (mu - lam * q) * c)
    flags = [0] * len(grid)
    for i in range(1, len(grid) - 1):
        if all(cell_thinks[i - 1:i + 2]):
            drift = slope[i + 1] - slope[i - 1]
            flags[i] = int(np.sign(drift)) if abs(drift) > 1e-12 else 0
    return np.array(grid), np.array(y), np.array(flags)


def test_switching_profile_matches_scalar_loop(base_params, safe_arm):
    # 4096 float64 steps of size <= 1 on values below 10: the summation
    # order alone moves y by at most about 4096 * 2.2e-16 * 10 < 1e-11
    for T in (0.5, 1.9, 6.0):
        params = dataclasses.replace(base_params, T=T)
        sched = solve(params, safe_arm)
        prof = switching_profile(params, safe_arm, sched)
        grid, y, flags = _scalar_loop_profile(params, safe_arm, sched)
        np.testing.assert_allclose(prof.grid, grid, rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(prof.y_values, y, rtol=0.0, atol=1e-11)
        np.testing.assert_array_equal(prof.concavity_flags, flags)


def test_switching_profile_validation(base_params, safe_arm):
    with pytest.raises(ValueError):
        switching_profile(base_params, safe_arm, (0.0, 0.5, 1.2))  # spans 1.7
    with pytest.raises(ValueError):
        switching_profile(base_params, safe_arm, (-0.1, 0.8, 1.2))
