"""Solver tests: schedule anchors, benchmark plans, belief thresholds, and
agreement with the discrete-time oracle on random parameter sets."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from dblab import (
    DO_ONLY,
    DO_THINK_DO,
    DO_THROUGHOUT,
    THINK_DO,
    Grid,
    ModelParams,
    ModelValidationError,
    PayoffStream,
    RiskyArm,
    SafeArm,
    SearchCeilingError,
    agreement,
    belief_thresholds,
    dp_reduced,
    hail_mary_belief,
    hail_mary_time,
    posterior,
    solve,
    solve_infinite_horizon,
    solve_no_cost,
    switching_profile,
    validate_model,
)
from dblab import solver as solver_module


def _check_schedule_consistency(params, model, sched):
    assert sched.tau1 + sched.tau2 + sched.tau3 == pytest.approx(
        params.T, abs=1e-8)
    assert sched.q_at_switch == pytest.approx(
        hail_mary_belief(params, model, sched.tau3), abs=1e-8)
    assert sched.terminal_belief == pytest.approx(
        posterior(params.p_bar, params.lam, sched.tau1 + sched.tau3), abs=1e-10)
    if sched.structure == DO_ONLY:
        assert sched.tau1 == 0.0 and sched.tau2 == 0.0
    elif sched.structure == THINK_DO:
        assert sched.tau1 == 0.0 and sched.tau2 > 0.0 and sched.tau3 > 0.0
    else:
        assert sched.structure == DO_THINK_DO
        assert sched.tau1 > 0.0 and sched.tau2 > 0.0 and sched.tau3 > 0.0


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def test_solve_think_do_anchor(base_params, safe_arm):
    sched = solve(base_params, safe_arm)
    assert sched.structure == THINK_DO
    assert sched.tau1 == pytest.approx(0.0, abs=1e-3)
    assert sched.tau2 == pytest.approx(0.700, abs=1e-3)
    assert sched.tau3 == pytest.approx(1.200, abs=1e-3)
    _check_schedule_consistency(base_params, safe_arm, sched)


def test_solve_think_do_longer_horizon(params_at, safe_arm):
    params = params_at(4.0)
    sched = solve(params, safe_arm)
    assert sched.structure == THINK_DO
    assert sched.tau1 == pytest.approx(0.0, abs=1e-3)
    assert sched.tau2 == pytest.approx(2.800, abs=1e-3)
    assert sched.tau3 == pytest.approx(1.200, abs=1e-3)
    _check_schedule_consistency(params, safe_arm, sched)


def test_solve_do_only_short_horizon(params_at, safe_arm):
    params = params_at(0.8)
    sched = solve(params, safe_arm)
    assert sched.structure == DO_ONLY
    assert (sched.tau1, sched.tau2, sched.tau3) == (0.0, 0.0, 0.8)
    _check_schedule_consistency(params, safe_arm, sched)


def test_solve_do_think_do(params_at, safe_arm):
    params = params_at(6.0)
    sched = solve(params, safe_arm)
    assert sched.structure == DO_THINK_DO
    assert sched.tau1 == pytest.approx(0.2724, abs=1e-3)
    assert sched.tau2 == pytest.approx(4.6754, abs=1e-3)
    assert sched.tau3 == pytest.approx(1.0521, abs=1e-3)
    assert sched.tau3 < 1.2
    _check_schedule_consistency(params, safe_arm, sched)


def test_solve_structure_boundary(params_at, safe_arm):
    # the do-only region ends where the horizon crosses the boundary-belief
    # inverse at the prior (about 1.20003)
    assert solve(params_at(1.2), safe_arm).structure == DO_ONLY
    just_above = solve(params_at(1.21), safe_arm)
    assert just_above.structure == THINK_DO
    assert just_above.tau2 < 0.02


def test_solve_degenerate_horizon(params_at, safe_arm):
    sched = solve(params_at(0.0), safe_arm)
    assert (sched.tau1, sched.tau2, sched.tau3) == (0.0, 0.0, 0.0)
    assert sched.structure == DO_ONLY


def test_solve_profile_matches_structure(params_at, safe_arm):
    intervals_by_structure = {DO_ONLY: 1, THINK_DO: 2, DO_THINK_DO: 3}
    for T in (0.8, 1.9, 6.0):
        params = params_at(T)
        sched = solve(params, safe_arm)
        prof = switching_profile(params, safe_arm, sched)
        assert len(prof.sign_pattern) == intervals_by_structure[sched.structure]


def test_solve_accepts_numpy_scalar_params(base_params, safe_arm):
    params = ModelParams(*(np.float64(v)
                           for v in dataclasses.astuple(base_params)))
    sched = solve(params, safe_arm)
    ref = solve(base_params, safe_arm)
    assert sched.structure == ref.structure == THINK_DO
    assert sched.no_shirk_ok is True
    for got, want in zip((sched.tau1, sched.tau2, sched.tau3),
                         (ref.tau1, ref.tau2, ref.tau3)):
        assert got == pytest.approx(want, abs=1e-12)


def test_solve_rejects_an_overflowing_agent(base_params, safe_arm):
    # a finite B so large that mu*B overflows: validation fails it by name;
    # unvalidated, the boundary belief is NaN on the whole grid, which must
    # be an invalid model, not an IndexError
    params = dataclasses.replace(base_params, B=1e308, mu=10.0)
    with pytest.raises(ModelValidationError, match="finite_terms"):
        solve(params, safe_arm)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ModelValidationError, match="overflow"):
            solve(params, safe_arm, validate=False)


def test_schedule_fields_are_plain_floats(base_params, safe_arm):
    # the horizon-map root search starts from numpy grid points here, and an
    # integer T would pass straight through DO_ONLY; both report floats
    do_think_do = solve(ModelParams(p_bar=0.4, lam=1.9, mu=1.0, c=0.2, B=7.0,
                                    T=2.0),
                        SafeArm(nu=1.3, B_nu=4.0, c_nu=0.2))
    do_only = solve(dataclasses.replace(base_params, p_bar=0.9, T=2),
                    safe_arm)
    assert (do_think_do.structure, do_only.structure) == (DO_THINK_DO, DO_ONLY)
    for sched in (do_think_do, do_only):
        for name in ("tau1", "tau2", "tau3", "q_at_switch", "terminal_belief"):
            assert type(getattr(sched, name)) is float, name
        assert "np." not in repr(sched)


def test_solve_no_shirk_flag(base_params, safe_arm):
    sched = solve(base_params, safe_arm)
    assert sched.no_shirk_ok
    assert sched.terminal_belief > base_params.c / (base_params.lam * base_params.B)


# ---------------------------------------------------------------------------
# horizon monotonicity and threshold properties
# ---------------------------------------------------------------------------

def test_schedule_monotone_in_horizon(params_at, safe_arm):
    t_grid = np.arange(1.0, 8.0 + 1e-9, 0.25)
    scheds = [solve(params_at(float(T)), safe_arm) for T in t_grid]
    tau1 = np.array([s.tau1 for s in scheds])
    tau2 = np.array([s.tau2 for s in scheds])
    assert np.all(np.diff(tau1) >= -1e-6)
    assert np.all(np.diff(tau2) >= -1e-6)
    assert tau2[-1] > 4.5  # thinking keeps growing with the horizon
    thr = belief_thresholds(params_at(4.0), safe_arm)
    for s in scheds:
        assert s.terminal_belief >= thr.p_check - 1e-6


def test_pessimistic_prior_never_opens_with_doing(params_at, safe_arm):
    # prior below the no-deadline indifference belief: no opening doing period
    for T in np.arange(1.0, 8.0 + 1e-9, 0.25):
        sched = solve(params_at(float(T), p_bar=0.5), safe_arm)
        assert sched.structure != DO_THINK_DO
        assert sched.tau1 == 0.0


def test_confident_prior_never_opens_with_thinking(params_at, safe_arm):
    # prior above the always-do-first threshold: thinking never comes first
    for T in (1.0, 2.0, 4.0, 8.0):
        sched = solve(params_at(T, p_bar=0.95), safe_arm)
        assert sched.structure in (DO_ONLY, DO_THINK_DO)


# ---------------------------------------------------------------------------
# infinite-horizon benchmark
# ---------------------------------------------------------------------------

def test_infinite_horizon_anchor(base_params, safe_arm):
    plan = solve_infinite_horizon(base_params, safe_arm)
    # closed form (c/lam) / (B - V_inf + c/mu), and the rate-only form
    # mu*nu/(lam*(mu+nu)) for this progress model; both give 2/3
    assert plan.p_hat == pytest.approx(2.0 / 3.0, rel=1e-12)
    rate_form = (base_params.mu * safe_arm.nu
                 / (base_params.lam * (base_params.mu + safe_arm.nu)))
    assert plan.p_hat == pytest.approx(rate_form, rel=1e-12)
    assert plan.structure == "DO_THEN_THINK"
    assert plan.switch_time == pytest.approx(4.0 / 3.0 * math.log(1.5), abs=1e-9)


def test_infinite_horizon_pessimist_thinks_forever(base_params, safe_arm):
    plan = solve_infinite_horizon(
        dataclasses.replace(base_params, p_bar=0.5), safe_arm)
    assert plan.structure == "THINK_THROUGHOUT"
    assert plan.switch_time == 0.0


def test_infinite_horizon_boundary_prior(base_params, safe_arm):
    plan = solve_infinite_horizon(
        dataclasses.replace(base_params, p_bar=2.0 / 3.0), safe_arm)
    assert plan.structure == "DO_THEN_THINK"
    assert plan.switch_time == pytest.approx(0.0, abs=1e-12)


def test_infinite_horizon_degenerate_indifference(base_params):
    # progress limit at B + c/mu: doing never pays relative to thinking
    rich = SafeArm(nu=1.0, B_nu=5.5, c_nu=0.0)
    plan = solve_infinite_horizon(base_params, rich)
    assert plan.structure == "THINK_THROUGHOUT"
    assert plan.note != ""
    nearly = SafeArm(nu=1.0, B_nu=5.45, c_nu=0.0)
    plan2 = solve_infinite_horizon(base_params, nearly)
    assert plan2.structure == "THINK_THROUGHOUT"
    assert plan2.p_hat >= 1.0


# ---------------------------------------------------------------------------
# zero-cost benchmark
# ---------------------------------------------------------------------------

def test_no_cost_anchor(params_at):
    params = params_at(4.0, c=0.0)
    full = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.0)  # progress limit equals B
    got = solve_no_cost(params, full)
    assert got == pytest.approx(1.103, abs=5e-3)
    # independent root of p_bar = mu*V / (B*(mu + (lam-mu)*exp(-lam*tau)))
    lam, mu, B, p_bar = params.lam, params.mu, params.B, params.p_bar

    def gap(t):
        v = B * -math.expm1(-t)
        return mu * v / (B * (mu + (lam - mu) * math.exp(-lam * t))) - p_bar

    want = brentq(gap, 0.1, 4.0, xtol=1e-10)
    assert got == pytest.approx(want, abs=1e-6)


def test_no_cost_do_throughout_cases(params_at):
    full = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.0)
    assert solve_no_cost(params_at(0.5, c=0.0), full) is DO_THROUGHOUT
    assert solve_no_cost(params_at(4.0, c=0.0, p_bar=0.999), full) is DO_THROUGHOUT


def test_no_cost_is_t1_of_the_costless_agent(rng):
    # the benchmark forces c = 0, then reads T1 within the horizon
    found = {"root": 0, DO_THROUGHOUT: 0}
    for i in range(40):
        p_bar, lam, mu, nu, B = (rng.uniform(0.05, 0.98),
                                 *rng.uniform(0.1, 10.0, 3),
                                 rng.uniform(1.0, 31.0))
        model = (SafeArm(nu=nu, B_nu=B, c_nu=0.0) if i % 2
                 else PayoffStream(nu=nu, B_nu=B))
        for T in (0.5, 2.0, 8.0):
            params = ModelParams(p_bar=p_bar, lam=lam, mu=mu, c=1.0, B=B, T=T)
            got = solve_no_cost(params, model)
            try:
                t_one = hail_mary_time(dataclasses.replace(params, c=0.0),
                                       model, p_bar)
            except SearchCeilingError:
                t_one = math.inf
            if 0.0 < t_one <= T:
                assert got == t_one
                found["root"] += 1
            else:
                assert got is DO_THROUGHOUT
                found[DO_THROUGHOUT] += 1
    assert min(found.values()) > 0, found


def test_no_cost_requires_full_progress_limit(params_at, safe_arm):
    # the zero-cost benchmark is only stated for V(inf) = B
    with pytest.raises(ValueError):
        solve_no_cost(params_at(4.0, c=0.0), safe_arm)


# ---------------------------------------------------------------------------
# belief thresholds
# ---------------------------------------------------------------------------

def test_thresholds_anchors(base_params, safe_arm):
    thr = belief_thresholds(base_params, safe_arm)
    assert thr.p_hat == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert 0.88 < thr.p_tilde < 0.90
    assert thr.p_tilde == pytest.approx(0.8902, abs=1e-3)
    assert thr.p_check == pytest.approx(0.5008, abs=2e-3)
    assert thr.T1 == pytest.approx(1.200, abs=1e-3)
    assert thr.p_check <= thr.p_hat <= thr.p_tilde


def test_thresholds_horizon_for_other_prior(base_params, safe_arm):
    thr = belief_thresholds(
        dataclasses.replace(base_params, p_bar=0.6), safe_arm)
    assert thr.T1 == pytest.approx(0.753, abs=2e-3)


# ---------------------------------------------------------------------------
# agreement with the discrete-time oracle on random instances
# ---------------------------------------------------------------------------

def _random_instance(rng):
    """Draw a validated parameter set with a SafeArm progress model."""
    while True:
        p_bar = rng.uniform(0.3, 0.9)
        lam = rng.uniform(0.4, 2.0)
        mu = rng.uniform(0.4, 2.0)
        c = rng.uniform(0.0, 0.8)
        B = rng.uniform(2.0, 8.0)
        nu = 1.05 * max(p_bar * lam, 0.3) * (1.0 + rng.uniform(0.0, 1.5))
        c_nu = rng.uniform(0.0, 0.5)
        limit = rng.uniform(c / mu + 0.2, B + c / mu)
        if limit <= c_nu / nu:
            continue
        model = SafeArm(nu=nu, B_nu=limit + c_nu / nu, c_nu=c_nu)
        params = ModelParams(p_bar=p_bar, lam=lam, mu=mu, c=c, B=B, T=1.0)
        if validate_model(params, model).overall:
            return params, model


def test_solver_matches_dp_oracle_on_random_instances(rng):
    dt = 1e-3
    for _ in range(50):
        params, model = _random_instance(rng)
        for T in (0.5, 1.0, 2.0, 4.0, 8.0):
            p = dataclasses.replace(params, T=T)
            sched = solve(p, model, validate=False)
            dp = dp_reduced(p, model, Grid.from_horizon(T, dt),
                            keep_values=False)
            report = agreement(sched, dp)
            assert report["pass"], f"{report} at {p}, {model}"


def test_solver_matches_dp_past_the_exponential_range():
    # mu * search_ceiling = 877: the preference integral's weight exp(mu*s)
    # overflows a double at the ceiling, so the root search must end below it
    params = ModelParams(p_bar=0.5743445308830082, lam=0.22592415899579157,
                         mu=9.903572970745266, c=2.1689338069350854,
                         B=23.676413668451957, T=1.0)
    model = SafeArm(nu=0.6214498710840459, B_nu=3.100251759125187,
                    c_nu=0.4783599980130857)
    sched = solve(params, model)
    assert sched.structure == THINK_DO
    dp = dp_reduced(params, model, Grid.from_horizon(params.T, 1e-3),
                    keep_values=False)
    report = agreement(sched, dp)
    assert report["pass"], report


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_solver_matches_dp_where_the_entry_belief_binds(T):
    # the prior binds, but stage one's bisection leaves q(bar3) 1.04e-9
    # from p_bar, where q' = 1.17.  bar3 is its own record, so the
    # schedule is THINK_DO whatever that gap
    params = ModelParams(p_bar=0.33871153438068924, lam=0.4338442064312078,
                         mu=1.287333771821863, c=0.054943772189583046,
                         B=2.5757320058278683, T=T)
    model = SafeArm(nu=0.7185594043868812, B_nu=2.7444711848618937,
                    c_nu=0.34364159659950455)
    sched = solve(params, model, validate=False)
    dt = 2e-3
    dp = dp_reduced(params, model, Grid.from_horizon(T, dt),
                    keep_values=False)
    report = agreement(sched, dp)
    assert report["pass"], report


def _wide_instance(rng, family):
    """Draw a validated parameter set over the wide ranges: p_bar in
    (.05, .98), lam, mu and nu in [.1, 10], B and B_nu in [1, 31], c in
    [0, 3], c_nu in [0, 2], with p_bar_nu in (.05, .98) for RiskyArm."""
    while True:
        params = ModelParams(p_bar=rng.uniform(0.05, 0.98),
                             lam=rng.uniform(0.1, 10.0),
                             mu=rng.uniform(0.1, 10.0), c=rng.uniform(0.0, 3.0),
                             B=rng.uniform(1.0, 31.0), T=1.0)
        nu = rng.uniform(0.1, 10.0)
        try:
            if family == "SafeArm":
                model = SafeArm(nu=nu, B_nu=rng.uniform(1.0, 31.0),
                                c_nu=rng.uniform(0.0, 2.0))
            elif family == "PayoffStream":
                model = PayoffStream(nu=nu, B_nu=rng.uniform(1.0, 31.0))
            else:
                model = RiskyArm(p_bar_nu=rng.uniform(0.05, 0.98), nu=nu,
                                 B_nu=rng.uniform(1.0, 31.0),
                                 c_nu=rng.uniform(0.0, 2.0))
        except ModelValidationError:
            continue
        if validate_model(params, model).overall:
            return params, model


def test_solver_matches_dp_over_the_wide_range(rng):
    # wide draws reach the regime where the thinking span jumps to
    # infinity below some final stretch t3*: past F(t3*) the final stretch
    # stays at t3* and thinking takes the extra horizon
    for family in ("SafeArm", "PayoffStream", "RiskyArm"):
        for _ in range(4):
            params, model = _wide_instance(rng, family)
            for T in (0.5, 2.0, 8.0):
                p = dataclasses.replace(params, T=T)
                dp = dp_reduced(p, model, Grid.from_horizon(T, 2e-3),
                                keep_values=False)
                report = agreement(solve(p, model, validate=False), dp)
                assert report["pass"], f"{report} at {p}, {model}"


def test_solver_matches_dp_past_the_thinking_span_jump():
    params = ModelParams(p_bar=0.9380721045086288, lam=6.359997284023371,
                         mu=7.2368046874098475, c=2.38065262863355,
                         B=22.805669981003064, T=4.0)
    model = SafeArm(nu=9.762059738671445, B_nu=12.53970515996461,
                    c_nu=1.3239438615265038)
    dp = dp_reduced(params, model, Grid.from_horizon(params.T, 1e-3),
                    keep_values=False)
    report = agreement(solve(params, model, validate=False), dp)
    assert report["pass"], report


def test_steep_opening_stretch_is_resolved_to_the_bracket():
    # d(tau1)/d(tau3) is about 4e4 here, so tau1 must come from tau3
    # through the opening-stretch map, not from the horizon's residual
    params = ModelParams(p_bar=0.3973, lam=1.715, mu=1.641, c=0.1950,
                         B=3.767, T=8.0)
    model = RiskyArm(p_bar_nu=0.5810, nu=2.884, B_nu=2.378, c_nu=0.5900)
    got, ref = solve(params, model), solve(params, model, tau_tol=1e-15)
    assert got.structure == ref.structure == DO_THINK_DO
    for g, r in zip((got.tau1, got.tau2, got.tau3),
                    (ref.tau1, ref.tau2, ref.tau3)):
        assert abs(g - r) <= 1e-8


# ---------------------------------------------------------------------------
# tau_tol over its whole range
# ---------------------------------------------------------------------------

def _taus(sched):
    return sched.tau1, sched.tau2, sched.tau3


def test_coarse_tolerance_keeps_the_structure_on_cross_check_draws(rng):
    # where the prior binds, stage one stops up to tau_tol short of the
    # binding point; THINK_DO is read off the record structure, not off a
    # window on the belief there, so a coarse tolerance never fails a solve
    think_do = 0
    for _ in range(20):
        params, model = _random_instance(rng)
        for T in (0.5, 1.0, 2.0, 4.0, 8.0):
            p = dataclasses.replace(params, T=T)
            ref = solve(p, model, validate=False, tau_tol=1e-13)
            think_do += ref.structure == THINK_DO
            for tau_tol in (1e-6, 1e-4, 1e-3):
                got = solve(p, model, validate=False, tau_tol=tau_tol)
                assert got.structure == ref.structure, (tau_tol, p, model)
                if tau_tol == 1e-6:
                    assert all(abs(g - r) <= 1e-4 for g, r in
                               zip(_taus(got), _taus(ref))), (p, model)
    assert think_do > 0


def test_anchor_at_a_coarse_tolerance_is_think_do(base_params, safe_arm):
    got = solve(base_params, safe_arm, tau_tol=0.05)
    ref = solve(base_params, safe_arm)
    assert got.structure == ref.structure == THINK_DO
    assert all(abs(g - r) <= 0.05 for g, r in zip(_taus(got), _taus(ref)))


@pytest.mark.parametrize("T", [1.9, 6.0])
@pytest.mark.parametrize("tau_tol", [1e-16, 0.0])
def test_tolerance_below_the_double_spacing_ends_the_search(params_at,
                                                             safe_arm, T,
                                                             tau_tol):
    # the bisection stops at adjacent doubles instead of looping forever
    got = solve(params_at(T), safe_arm, tau_tol=tau_tol)
    ref = solve(params_at(T), safe_arm, tau_tol=1e-15)
    assert got.structure == ref.structure
    assert all(abs(g - r) <= 1e-12 for g, r in zip(_taus(got), _taus(ref)))


@pytest.mark.parametrize("tau_tol", [-1.0, math.nan, math.inf])
def test_solve_refuses_a_negative_or_non_finite_tolerance(base_params,
                                                          safe_arm, tau_tol):
    with pytest.raises(ValueError, match="tau_tol"):
        solve(base_params, safe_arm, tau_tol=tau_tol)


# ---------------------------------------------------------------------------
# the final-stretch search against its definition
# ---------------------------------------------------------------------------

def _family_instance(rng, family):
    """Draw a validated parameter set with a progress model of ``family``."""
    if family == "SafeArm":
        return _random_instance(rng)
    while True:
        params = ModelParams(p_bar=rng.uniform(0.3, 0.9),
                             lam=rng.uniform(0.4, 2.0),
                             mu=rng.uniform(0.4, 2.0), c=rng.uniform(0.0, 0.8),
                             B=rng.uniform(2.0, 8.0), T=1.0)
        nu = rng.uniform(0.3, 3.0)
        try:
            if family == "PayoffStream":
                model = PayoffStream(nu=nu, B_nu=rng.uniform(0.5, params.B))
            else:
                model = RiskyArm(p_bar_nu=rng.uniform(0.4, 0.9), nu=nu,
                                 B_nu=rng.uniform(1.0, params.B + 2.0),
                                 c_nu=rng.uniform(0.05, 0.8))
        except ModelValidationError:
            continue
        if validate_model(params, model).overall:
            return params, model


def _min_slack(params, model, x, start_belief):
    """Brute-force minimum over t in [0, x] of posterior(start_belief, t)
    - q(x - t) on 2^16 points: the final stretch x, entered at
    start_belief, is feasible when this is not negative."""
    ts = np.linspace(0.0, x, 2 ** 16)
    return np.min(posterior(start_belief, params.lam, ts)
                  - hail_mary_belief(params, model, x - ts))


def _log_odds_curve(params, model, x):
    """logit q(s) - lam*s on 2^16 points of [0, x]."""
    s = np.linspace(0.0, x, 2 ** 16)
    q = hail_mary_belief(params, model, s)
    with np.errstate(divide="ignore"):
        return s, np.log(q / (1.0 - q)) - params.lam * s


def test_final_stretch_search_meets_its_definition(rng, monkeypatch):
    found = []
    search = solver_module._largest_feasible
    monkeypatch.setattr(solver_module, "_largest_feasible",
                        lambda *a: found.append(search(*a)) or found[-1])
    interior = 0
    for family in ("SafeArm", "PayoffStream", "RiskyArm"):
        for _ in range(4):
            params, model = _family_instance(rng, family)
            for T in (0.5, 2.0, 8.0):
                p = dataclasses.replace(params, T=T)
                found.clear()
                try:
                    solve(p, model, validate=False)
                except solver_module.SolverError:
                    pass  # stage three may fail; stages one and two ran
                if not found:
                    continue  # DO_ONLY: the whole horizon is feasible
                bar3 = found[0][0]  # stage one's bracket, feasible end
                # stage one: the longest stretch feasible from the prior
                assert _min_slack(p, model, bar3, p.p_bar) >= -1e-12
                assert _min_slack(p, model, bar3 + 1e-6, p.p_bar) < 0.0
                # stage two: the last record point of the log-odds curve
                bar3_self = solver_module._record_curve(p, model, 1e-9)(bar3)[1]
                assert 0.0 < bar3_self <= bar3
                s, h = _log_odds_curve(p, model, bar3)
                h_self = _log_odds_curve(p, model, bar3_self)[1]
                assert h_self[-1] >= np.max(h_self) - 1e-12, (p, model)
                beyond = s > bar3_self + 1e-6
                assert np.all(h[beyond] < h_self[-1]), (p, model)
                interior += bar3_self < bar3
    assert interior > 0
