"""Tests for schedule outcome accounting.

Closed-form route probabilities are pinned against an independent Monte
Carlo of the generating process (Bernoulli solvability, exponential doing
and progress arrivals, exponential conversion), and the bookkeeping
identities (route sums, trajectory reconciliation, backloading) are
checked exactly.
"""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import dblab
from dblab import (
    OutcomeSummary,
    SimConfig,
    backload,
    expected_work_time,
    route_probabilities,
    simulate,
    sweep,
    trajectory_probabilities,
)
from dblab.outcomes import _BLOCK, SimResult, conversion_rate

SCHED = (0.0, 0.7, 1.2)
NU = 1.0


def test_summary_sums_exactly():
    s = OutcomeSummary(p_do_initial=0.125, p_think=0.25, p_hailmary=0.0625)
    assert s.p_total == 0.125 + 0.25 + 0.0625


def test_route_anchor_values(base_params):
    r = route_probabilities(SCHED, base_params, NU)
    assert r.p_do_initial == 0.0
    assert r.p_think == pytest.approx(0.3987, abs=1e-3)
    assert r.p_hailmary == pytest.approx(0.2210, abs=1e-3)
    assert r.p_total == pytest.approx(0.6197, abs=1e-3)
    assert r.p_total == r.p_do_initial + r.p_think + r.p_hailmary
    with pytest.raises(ValueError):
        route_probabilities((-0.1, 0.7, 1.2), base_params, NU)


def test_route_anchor_monte_carlo(base_params):
    r = route_probabilities(SCHED, base_params, NU)
    sim = simulate(SCHED, base_params, NU, SimConfig(reps=1_000_000, seed=7))
    assert abs(sim.success_rate - r.p_total) <= 3.0 * sim.success_se
    work = expected_work_time(SCHED, base_params, NU)
    assert abs(sim.work_mean - work) <= 3.0 * sim.work_se


def test_no_thinking_reduces_to_single_arm(base_params):
    p_bar, lam = base_params.p_bar, base_params.lam
    for taus in ((1.9, 0.0, 0.0), (1.0, 0.0, 0.9), (0.0, 0.0, 1.9)):
        r = route_probabilities(taus, base_params, NU)
        assert r.p_think == 0.0
        assert r.p_total == pytest.approx(
            p_bar * -math.expm1(-lam * 1.9), rel=1e-12)


def test_instant_conversion_proxy(base_params):
    r = route_probabilities(SCHED, base_params, 1e6)
    assert r.p_think == pytest.approx(-math.expm1(-base_params.mu * 0.7),
                                      rel=1e-4)


def test_race_quantities_continuous_at_equal_rates(base_params):
    # both derivatives in nu are below one here, so moving nu off mu by
    # delta may move either value by at most delta: no equal-rate branch
    # switches formulas and no divided difference cancels near mu == nu
    sched, mu = (0.3, 0.7, 0.9), base_params.mu
    think = route_probabilities(sched, base_params, mu).p_think
    work = expected_work_time(sched, base_params, mu)
    for k in range(6, 16):
        delta = 10.0 ** -k
        near = route_probabilities(sched, base_params, mu + delta).p_think
        assert abs(near - think) <= delta, delta
        assert abs(expected_work_time(sched, base_params, mu + delta)
                   - work) <= delta, delta


def _work_time_by_quadrature(taus, params, nu):
    """The integral of the no-solution probability over each phase, by
    quadrature: the reference for the closed form."""
    tau1, tau2, tau3 = taus
    p_bar, lam, mu = params.p_bar, params.lam, params.mu
    pref = p_bar * math.exp(-lam * tau1) + 1.0 - p_bar
    if abs(mu - nu) <= 1e-9 * max(mu, nu):
        def alive(u):
            return (1.0 + mu * u) * math.exp(-mu * u)
        pending = mu * tau2 * math.exp(-mu * tau2)
    else:
        def alive(u):
            return (mu * math.exp(-nu * u) - nu * math.exp(-mu * u)) / (mu - nu)
        pending = (mu * (math.exp(-mu * tau2) - math.exp(-nu * tau2))
                   / (nu - mu))

    def phase3(u):
        return (math.exp(-mu * tau2)
                * (p_bar * math.exp(-lam * (tau1 + u)) + 1.0 - p_bar)
                + pref * pending * math.exp(-nu * u))

    return (quad(lambda t: p_bar * math.exp(-lam * t) + 1.0 - p_bar,
                 0.0, tau1, epsabs=1e-13)[0]
            + pref * quad(alive, 0.0, tau2, epsabs=1e-13)[0]
            + quad(phase3, 0.0, tau3, epsabs=1e-13)[0])


@pytest.mark.parametrize("equal_rates", [False, True])
def test_expected_work_matches_quadrature(base_params, rng, equal_rates):
    for _ in range(200):
        params = dataclasses.replace(
            base_params, p_bar=rng.uniform(0.05, 0.95),
            lam=rng.uniform(0.1, 5.0), mu=rng.uniform(0.1, 5.0))
        nu = params.mu if equal_rates else rng.uniform(0.1, 5.0)
        taus = tuple(rng.uniform(0.0, 4.0, size=3))
        want = _work_time_by_quadrature(taus, params, nu)
        assert expected_work_time(taus, params, nu) == pytest.approx(
            want, rel=1e-11)


def test_expected_work_closed_forms(base_params):
    assert expected_work_time((0.0, 0.0, 0.0), base_params, NU) == 0.0
    lam, T = base_params.lam, 1.9
    # truncated exponential mean when the arm almost surely works
    sure = dataclasses.replace(base_params, p_bar=1.0 - 1e-12)
    assert expected_work_time((T, 0.0, 0.0), sure, NU) == pytest.approx(
        -math.expm1(-lam * T) / lam, rel=1e-9)
    # mixture over solvability for the general single-arm case
    p_bar = base_params.p_bar
    want = p_bar * -math.expm1(-lam * T) / lam + (1.0 - p_bar) * T
    assert expected_work_time((T, 0.0, 0.0), base_params, NU) == (
        pytest.approx(want, rel=1e-9))


def test_backload_definition():
    assert backload((0.5, 1.0, 2.5)) == (0.0, 1.5, 3.0)
    fixed = (0.0, 1.0, 2.5)
    assert backload(fixed) == fixed
    with pytest.raises(ValueError):
        backload((0.5, -1.0, 2.5))


def test_backloading_never_hurts(base_params, rng):
    # when conversion outpaces the believed doing rate, moving all doing
    # after the thinking block weakly raises the success probability
    floor = base_params.p_bar * base_params.lam
    for _ in range(100):
        taus = tuple(rng.uniform(0.0, 3.0, 3))
        nu = floor * (1.0 + rng.uniform(0.0, 2.0))
        base = route_probabilities(taus, base_params, nu).p_total
        flipped = route_probabilities(backload(taus), base_params, nu).p_total
        assert flipped >= base - 1e-12


def test_trajectory_curves(base_params):
    traj = trajectory_probabilities(SCHED, base_params, NU)
    t = traj["t"]
    assert t[0] == 0.0 and t[-1] == pytest.approx(1.9, rel=1e-12)
    assert traj["p_progress"][0] == 0.0
    assert traj["p_solution"][0] == 0.0
    assert traj["p_neither"][0] == 1.0
    assert traj["p_neither"][-1] == pytest.approx(0.2756, abs=1e-3)
    assert np.all(np.diff(traj["p_progress"]) >= -1e-15)
    assert np.all(np.diff(traj["p_solution"]) >= -1e-15)
    assert np.all(np.diff(traj["p_neither"]) <= 1e-15)
    total = traj["p_progress"] + traj["p_solution"] + traj["p_neither"]
    np.testing.assert_allclose(total, 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        trajectory_probabilities(SCHED, base_params, NU, n_points=1)


def test_trajectory_reconciles_with_routes(base_params):
    mu = base_params.mu
    r = route_probabilities(SCHED, base_params, NU)
    traj = trajectory_probabilities(SCHED, base_params, NU)
    assert abs(traj["p_solution"][-1]
               - (r.p_do_initial + r.p_hailmary)) <= 1e-10
    # progress made but conversion still pending at the deadline
    pending = mu * 0.7 * math.exp(-mu * 0.7) * math.exp(-NU * 1.2)
    assert abs(traj["p_progress"][-1] - r.p_think - pending) <= 1e-10


def test_simulate_deterministic(base_params):
    cfg = SimConfig(reps=50_000, seed=31)
    first = simulate(SCHED, base_params, NU, cfg)
    second = simulate(SCHED, base_params, NU, cfg)
    assert first == second
    other = simulate(SCHED, base_params, NU, SimConfig(reps=50_000, seed=32))
    assert other.success_rate != first.success_rate


def _simulate_full_arrays(schedule, params, nu, config):
    """The full-array Monte Carlo that `simulate` streams in blocks: each
    variable-major draw array and every mask held at once.  It is the
    reference for the blocked draws; with one replication ``std(ddof=1)``
    is undefined (numpy warns), so it returns NaN there."""
    tau1, tau2, tau3 = schedule
    T = tau1 + tau2 + tau3
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    reps = config.reps
    solvable = rng.random(reps) < params.p_bar
    t_do = rng.exponential(1.0 / params.lam, reps)
    t_think = rng.exponential(1.0 / params.mu, reps)
    t_conv = rng.exponential(1.0 / nu, reps)
    early = solvable & (t_do < tau1)
    progress = t_think < tau2
    convert = progress & (t_think + t_conv <= tau2 + tau3)
    hail = solvable & ~progress & (t_do >= tau1) & (t_do < tau1 + tau3)
    success = early | convert | hail
    sol_time = np.full(reps, np.inf)
    sol_time[early] = t_do[early]
    t_convert = tau1 + t_think + t_conv
    sol_time[convert] = np.minimum(sol_time[convert], t_convert[convert])
    t_hail = tau2 + t_do
    sol_time[hail] = np.minimum(sol_time[hail], t_hail[hail])
    work = np.minimum(sol_time, T)
    rate = float(success.mean())
    rate_se = math.sqrt(max(rate * (1.0 - rate), 0.0) / reps)
    work_se = (float(work.std(ddof=1) / math.sqrt(reps)) if reps > 1
               else math.nan)
    return SimResult(success_rate=rate, success_se=rate_se,
                     work_mean=float(work.mean()), work_se=work_se,
                     reps=reps, seed=config.seed)


@pytest.mark.parametrize("seed", [0, 31])
@pytest.mark.parametrize("reps", [1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                  3 * _BLOCK + 5, 200_000])
def test_simulate_blocks_read_the_full_array_draws(base_params, reps, seed):
    # every route is live on this schedule: early doing, conversion and
    # the hail-mary return
    sched, cfg = (0.3, 0.7, 0.9), SimConfig(reps=reps, seed=seed)
    got = simulate(sched, base_params, NU, cfg)
    want = _simulate_full_arrays(sched, base_params, NU, cfg)
    assert got.success_rate == want.success_rate
    assert got.success_se == want.success_se
    assert got.work_mean == pytest.approx(want.work_mean, rel=1e-12)
    if reps == 1:
        assert math.isnan(got.work_se) and math.isnan(want.work_se)
    else:
        assert got.work_se == pytest.approx(want.work_se, rel=1e-12)
    assert (got.reps, got.seed) == (reps, seed)


def test_simulate_one_replication_does_not_warn(base_params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim = simulate(SCHED, base_params, NU, SimConfig(reps=1, seed=4))
    assert math.isnan(sim.work_se)
    assert sim.success_rate in (0.0, 1.0) and sim.success_se == 0.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_simulate_memory_does_not_grow_with_reps(base_params):
    # The child's peak RSS (VmHWM) grows by what one call at 10^6 reps
    # holds at once; the full-array version grew by ~75 MB.  ru_maxrss is
    # no use here: a spawned child starts from the spawning process's
    # peak.  The reps=1 call loads numpy.random before the measurement.
    script = f"""
from dblab import ModelParams, SimConfig, simulate

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))

params = ModelParams(**{dataclasses.asdict(base_params)!r})
simulate({SCHED!r}, params, {NU!r}, SimConfig(reps=1))
before = peak_kb()
simulate({SCHED!r}, params, {NU!r}, SimConfig(reps=1_000_000, seed=7))
print(peak_kb() - before)
"""
    src = str(Path(dblab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    grown_kb = int(proc.stdout)
    assert grown_kb < 16 * 1024, grown_kb


def test_simulate_hopeless_arm(base_params):
    hopeless = dataclasses.replace(base_params, p_bar=1e-9)
    sim = simulate((1.9, 0.0, 0.0), hopeless, NU,
                   SimConfig(reps=100_000, seed=3))
    assert sim.success_rate <= 1e-4
    with pytest.raises(ValueError):
        SimConfig(reps=0)


def test_conversion_rate_resolution(safe_arm):
    assert conversion_rate(safe_arm, 2.5) == 2.5
    assert conversion_rate(safe_arm) == safe_arm.nu
    with pytest.raises(ValueError):
        conversion_rate(None, None)
    with pytest.raises(ValueError):
        conversion_rate(safe_arm, -1.0)


def test_sweep_over_horizon(base_params, safe_arm):
    grid = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]
    rows = sweep(base_params, safe_arm, "T", grid)
    assert [row["grid_value"] for row in rows] == grid
    p_totals = [row["p_total"] for row in rows]
    assert all(b > a for a, b in zip(p_totals, p_totals[1:]))
    for row in rows:
        assert row["p_total_backloaded"] >= row["p_total"] - 1e-12
        assert row["expected_work"] > 0.0
        assert row["structure"] in ("DO_ONLY", "THINK_DO", "DO_THINK_DO")
    tau2 = [row["tau2"] for row in rows]
    assert all(b >= a - 1e-9 for a, b in zip(tau2, tau2[1:]))
    far = sweep(base_params, safe_arm, "T", [30.0])[0]
    assert far["p_total"] >= 0.99


def test_sweep_survives_bad_points(base_params, safe_arm):
    rows = sweep(base_params, safe_arm, "T", [1.9, -1.0, 0.5])
    assert rows[0]["structure"] == "THINK_DO"
    assert rows[1]["structure"].startswith("ERROR:")
    assert math.isnan(rows[1]["p_total"]) and math.isnan(rows[1]["tau1"])
    assert rows[2]["structure"] == "DO_ONLY"
    with pytest.raises(ValueError):
        sweep(base_params, safe_arm, "lam", [0.5])


def test_sweep_belief_crossing(base_params, safe_arm):
    # a more confident prior can leave the agent worse off at a moderate
    # deadline: confidence delays thinking past the point of usefulness
    at_four = dataclasses.replace(base_params, T=4.0)
    lo, hi = sweep(at_four, safe_arm, "p_bar", [0.80, 0.89])
    assert lo["p_total"] == pytest.approx(0.915817, abs=1e-4)
    assert hi["p_total"] == pytest.approx(0.911819, abs=1e-4)
    assert lo["p_total"] > hi["p_total"]
