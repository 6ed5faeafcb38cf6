"""Acceptance gate: the ten headline behaviors, one test per criterion.

Each criterion prints a single [PASS]/[FAIL] line (run with ``-s`` to see
them on passing runs). The reference parameter set is B=5, p_bar=3/4,
c=1/2, lam=3/4, mu=1 with progress worth (1-e^{-tau})(B-c); departures
are stated inline.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from dblab import (
    DO_ONLY,
    DO_THINK_DO,
    Grid,
    ModelParams,
    NoFeedbackModel,
    SafeArm,
    SimConfig,
    agreement,
    backload,
    belief_thresholds,
    dp_no_feedback,
    dp_reduced,
    dp_two_stage,
    extract_schedule,
    majority_intervals,
    no_solution_prob,
    progress_given_no_solution,
    route_probabilities,
    simulate,
    solution_density,
    solve,
    solve_infinite_horizon,
    solve_no_cost,
    sweep,
)
from dblab.dp import ACTION_DO, ACTION_IDLE, ACTION_THINK

PARAMS = ModelParams(p_bar=0.75, lam=0.75, mu=1.0, c=0.5, B=5.0, T=1.9)
MODEL = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5)


def _at(T, **overrides):
    import dataclasses
    return dataclasses.replace(PARAMS, T=T, **overrides)


@contextlib.contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {summary}")
        raise
    print(f"[PASS] criterion {number}: {summary}")


def test_criterion_1_reference_schedules_and_oracle():
    began = time.perf_counter()
    with criterion(1, "reference schedules at T=1.9 and T=4 match the "
                      "grid oracle"):
        for T, want in ((1.9, (0.0, 0.700, 1.200)),
                        (4.0, (0.0, 2.800, 1.200))):
            sched = solve(_at(T), MODEL)
            got = (sched.tau1, sched.tau2, sched.tau3)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-3)
            dp = dp_reduced(_at(T), MODEL, Grid.from_horizon(T, 1e-3),
                            keep_values=False)
            report = agreement(sched, dp)
            assert report["pass"], report
        assert time.perf_counter() - began < 30.0


def test_criterion_2_pure_doing_boundary():
    with criterion(2, "doing-only exactly up to the T=1.200 boundary; "
                      "early doing returns at T=6"):
        for T in (0.3, 0.8, 1.0, 1.15, 1.199):
            assert solve(_at(T), MODEL).structure == DO_ONLY
        for T in (1.201, 1.5, 2.5, 4.0):
            assert solve(_at(T), MODEL).structure != DO_ONLY
        long_run = solve(_at(6.0), MODEL)
        assert long_run.structure == DO_THINK_DO
        assert long_run.tau1 > 0.0


def test_criterion_3_no_deadline_closed_forms():
    with criterion(3, "no-deadline indifference belief 2/3 by both "
                      "formulas; switch time (4/3)ln(3/2)"):
        plan = solve_infinite_horizon(PARAMS, MODEL)
        assert plan.p_hat == pytest.approx(2.0 / 3.0, rel=1e-12)
        rate_form = (PARAMS.mu * MODEL.nu
                     / (PARAMS.lam * (PARAMS.mu + MODEL.nu)))
        assert plan.p_hat == pytest.approx(rate_form, rel=1e-12)
        assert plan.switch_time == pytest.approx(
            4.0 / 3.0 * math.log(1.5), abs=1e-9)


def test_criterion_4_costless_benchmark():
    with criterion(4, "costless benchmark root ~1.103 and the zero-cost "
                      "grid oracle agrees"):
        free = _at(4.0, c=0.0)
        full = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.0)
        root = solve_no_cost(free, full)
        assert root == pytest.approx(1.103, abs=5e-3)
        sched = solve(_at(1.9, c=0.0), full)
        assert sched.tau3 == pytest.approx(root, abs=1e-6)
        dt = 1e-3
        dp = dp_reduced(_at(1.9, c=0.0), full,
                        Grid.from_horizon(1.9, dt), keep_values=False)
        assert agreement(sched, dp)["oracle"][2] == pytest.approx(
            root, abs=5.0 * dt)


def test_criterion_5_schedule_monotonicity_and_belief_floor():
    with criterion(5, "doing/thinking spans grow with the horizon and the "
                      "terminal belief never falls below its floor"):
        th = belief_thresholds(PARAMS, MODEL)
        assert th.p_check == pytest.approx(0.5008, abs=2e-3)
        tau1s, tau2s = [], []
        for T in np.arange(1.0, 8.0 + 1e-9, 0.25):
            sched = solve(_at(float(T)), MODEL)
            tau1s.append(sched.tau1)
            tau2s.append(sched.tau2)
            assert sched.terminal_belief >= th.p_check - 2e-3
        for seq in (tau1s, tau2s):
            assert all(b >= a - 1e-6 for a, b in zip(seq, seq[1:]))


def test_criterion_6_backloading_and_monte_carlo():
    began = time.perf_counter()
    with criterion(6, "backloading never hurts on 100 random schedules; "
                      "closed-form total matches a 10^6-rep Monte Carlo"):
        rng = np.random.default_rng(20240817)
        floor = PARAMS.p_bar * PARAMS.lam
        for _ in range(100):
            taus = tuple(rng.uniform(0.0, 3.0, 3))
            nu = floor * (1.0 + rng.uniform(0.0, 2.0))
            base = route_probabilities(taus, PARAMS, nu).p_total
            flip = route_probabilities(backload(taus), PARAMS, nu).p_total
            assert flip >= base - 1e-12
        anchor = (0.0, 0.7, 1.2)
        exact = route_probabilities(anchor, PARAMS, 1.0).p_total
        assert exact == pytest.approx(0.6197, abs=1e-3)
        sim = simulate(anchor, PARAMS, 1.0, SimConfig(reps=1_000_000,
                                                      seed=11))
        assert abs(sim.success_rate - exact) <= 3.0 * sim.success_se
        assert time.perf_counter() - began < 60.0


def test_criterion_7_confidence_can_hurt():
    with criterion(7, "a higher prior can lower the success probability "
                      "at a moderate deadline"):
        rows = sweep(_at(4.0), MODEL, "p_bar",
                     np.arange(0.50, 0.951, 0.05))
        totals = np.array([row["p_total"] for row in rows])
        assert np.all(np.isfinite(totals))
        assert np.any(np.diff(totals) < 0.0)


def test_criterion_8_no_feedback_commitment_and_identities():
    with criterion(8, "without feedback, thinking never reverts to doing; "
                      "density identities hold to 1e-10"):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            mu = rng.uniform(0.3, 2.0)
            nu = rng.uniform(0.2, 2.0)
            while abs(mu - nu) < 1e-3:
                nu = rng.uniform(0.2, 2.0)
            nf = NoFeedbackModel(mu=mu, nu=nu, B=rng.uniform(2.0, 8.0),
                                 c=rng.uniform(0.0, 0.6),
                                 p_bar=rng.uniform(0.3, 0.9),
                                 lam=rng.uniform(0.4, 1.5))
            T = rng.uniform(1.0, 8.0)
            dp = dp_no_feedback(nf, T, Grid.from_horizon(T, 2e-3))
            labels = [lab for _, _, lab in extract_schedule(dp)]
            if ACTION_THINK in labels:
                after = labels[labels.index(ACTION_THINK) + 1:]
                assert ACTION_DO not in after
        h = 1e-3
        for _ in range(1000):
            mu = rng.uniform(0.2, 3.0)
            nu = rng.uniform(0.2, 3.0)
            while abs(mu - nu) < 1e-3:
                nu = rng.uniform(0.2, 3.0)
            a = max(rng.uniform(0.0, 10.0), 2.0 * h)
            nf = NoFeedbackModel(mu=mu, nu=nu, B=5.0, c=0.5, p_bar=0.75,
                                 lam=0.75)

            def slope(hh):
                return (no_solution_prob(nf, a + hh)
                        - no_solution_prob(nf, a - hh)) / (2.0 * hh)

            refined = (4.0 * slope(h / 2.0) - slope(h)) / 3.0
            assert abs(refined - solution_density(nf, a)) <= 1e-10
            split = (nu * progress_given_no_solution(nf, a)
                     * (1.0 - no_solution_prob(nf, a)))
            assert abs(solution_density(nf, a) - split) <= 1e-10


def test_criterion_9_second_thinking_interval():
    with criterion(9, "the explicit two-stage oracle shows two disjoint "
                      "thinking intervals outside the validated class"):
        params = ModelParams(p_bar=0.8, lam=1.0, mu=0.4, c=0.5, B=9.0,
                             T=6.0)
        model = SafeArm(nu=0.5, B_nu=10.25, c_nu=0.0)
        dp = dp_two_stage(params, model, Grid.from_horizon(6.0, 2e-3))
        blocks = [lab for _, _, lab in majority_intervals(dp, window=0.2)]
        assert blocks == [ACTION_THINK, ACTION_DO, ACTION_THINK, ACTION_DO]
        assert blocks.count(ACTION_THINK) == 2


def test_criterion_10_oracle_hygiene():
    with criterion(10, "interior actions add nothing, the oracle "
                       "converges at first order, and idling never "
                       "appears on path"):
        pure = dp_reduced(PARAMS, MODEL, Grid.from_horizon(1.9, 2e-3),
                          keep_values=False)
        rich_grid = Grid.from_horizon(
            1.9, 2e-3,
            (ACTION_DO, ACTION_THINK, ACTION_IDLE, 0.25, 0.5, 0.75))
        rich = dp_reduced(PARAMS, MODEL, rich_grid, keep_values=False)
        assert abs(rich.root_value - pure.root_value) <= (
            1e-6 * (PARAMS.B + PARAMS.c))
        assert set(rich.path_action_labels()) <= {ACTION_DO, ACTION_THINK}

        sched = solve(PARAMS, MODEL)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            dp = dp_reduced(PARAMS, MODEL, Grid.from_horizon(1.9, dt),
                            keep_values=False)
            errs.append(abs(extract_schedule(dp)[0][1] - sched.tau2))
        assert errs[0] / errs[1] >= 1.8
        assert errs[1] / errs[2] >= 1.8

        shirk_floor = PARAMS.c / (PARAMS.lam * PARAMS.B)
        assert shirk_floor == pytest.approx(0.1333, abs=1e-4)
        assert belief_thresholds(PARAMS, MODEL).p_check > shirk_floor
