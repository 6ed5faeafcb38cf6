"""Oracle tests: grid guards, closed-form cross-checks, action-set
robustness, switch-time convergence, the explicit two-stage variant, and
the unobserved-progress variant."""

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from dblab import (
    CoarseGridError,
    Grid,
    ModelParams,
    NoFeedbackModel,
    RiskyArm,
    SafeArm,
    agreement,
    do_throughout_value,
    dp_no_feedback,
    dp_reduced,
    dp_two_stage,
    extract_schedule,
    majority_intervals,
    solve,
    validate_model,
)
from dblab import dp as dp_module
from dblab.dp import (_BLOCK, ACTION_DO, ACTION_IDLE, ACTION_THINK,
                      _assemble, _check_grid, _intervals_from_path)

GOLDEN_DIR = Path(__file__).parent / "data" / "dp"


# ---------------------------------------------------------------------------
# grid construction and guards
# ---------------------------------------------------------------------------

def test_grid_construction():
    g = Grid.from_horizon(1.9, 1e-3)
    assert g.n_steps == 1900
    assert g.horizon == pytest.approx(1.9, rel=1e-12)
    assert g.action_set == (ACTION_DO, ACTION_THINK)
    # canonical ordering: pure actions first, then mixes ascending
    g2 = Grid(1e-3, 10, (ACTION_THINK, 0.75, ACTION_IDLE, ACTION_DO, 0.25))
    assert g2.action_set == (ACTION_DO, ACTION_THINK, ACTION_IDLE, 0.25, 0.75)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(-1e-3, 10)
    with pytest.raises(ValueError):
        Grid(1e-3, -1)
    with pytest.raises(ValueError):
        Grid(1e-3, 10, (ACTION_DO,))  # THINK missing
    with pytest.raises(ValueError):
        Grid(1e-3, 10, (ACTION_DO, ACTION_THINK, 1.5))
    with pytest.raises(ValueError):
        Grid(1e-3, 10, (ACTION_DO, ACTION_THINK, "NAP"))
    for dt in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            Grid(dt, 10)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            Grid.from_horizon(1.9, dt)


def test_run_guards(base_params, safe_arm):
    with pytest.raises(CoarseGridError):
        dp_reduced(base_params, safe_arm, Grid(0.02, 90))
    # the byte budget refuses before allocating: 1 byte a policy cell and a
    # path tie mask (220531500) and 8 a kept value cell (1764252008) exceed
    # 1 GiB (the gap pass reads its checkpoints off the kept rows); without
    # the values, 8 bytes a checkpoint cell take their place, and they fit
    # up to about N = 45,500
    with pytest.raises(ValueError, match=r"n_steps=21000 would keep "
                       r"1984783508 bytes .*keep_values=False"):
        dp_reduced(base_params, safe_arm, Grid(1e-4, 21_000))
    _check_grid(Grid(1e-4, 21_000), keep_values=False)
    _check_grid(Grid(1e-4, 40_000), keep_values=False)
    with pytest.raises(ValueError, match="n_steps=50000"):
        _check_grid(Grid(1e-4, 50_000), keep_values=False)


# ---------------------------------------------------------------------------
# reduced oracle vs closed forms
# ---------------------------------------------------------------------------

def test_reduced_do_only_matches_closed_form(params_at, safe_arm):
    params = params_at(0.5)
    dp = dp_reduced(params, safe_arm, Grid.from_horizon(0.5, 1e-3))
    assert extract_schedule(dp) == ((0.0, 0.5, ACTION_DO),)
    assert set(dp.path_action_labels()) == {ACTION_DO}
    want = do_throughout_value(params, params.p_bar, 0.5)
    assert dp.root_value == pytest.approx(want, abs=2e-4)


def test_reduced_think_do_matches_quadrature(base_params, safe_arm):
    sched = solve(base_params, safe_arm)
    dp = dp_reduced(base_params, safe_arm, Grid.from_horizon(1.9, 1e-3),
                    keep_values=False)
    intervals = extract_schedule(dp)
    assert [lab for _, _, lab in intervals] == [ACTION_THINK, ACTION_DO]
    assert intervals[0][1] == pytest.approx(sched.tau2, abs=5e-3)
    assert intervals[0][1] == pytest.approx(0.700, abs=5e-3)
    # policy value priced directly: think for tau2 (progress pays the lump,
    # effort costs accrue), then work the doing arm for tau3
    mu, c = base_params.mu, base_params.c
    head, _ = quad(
        lambda t: mu * math.exp(-mu * t) * (safe_arm.value(1.9 - t) - c * t),
        0.0, sched.tau2, epsabs=1e-12)
    tail = math.exp(-mu * sched.tau2) * (
        -c * sched.tau2
        + do_throughout_value(base_params, base_params.p_bar, sched.tau3))
    assert dp.root_value == pytest.approx(head + tail, abs=5e-4)


def test_value_table_shape_and_monotonicity(base_params, safe_arm):
    dp = dp_reduced(base_params, safe_arm, Grid.from_horizon(1.9, 5e-3))
    n = dp.grid.n_steps
    # no time left -> no value, regardless of the belief state
    assert all(v == 0.0 for v in dp.value_rows[0])
    assert dp.root_value == dp.value(n, 0)
    # more unrewarded doing -> lower belief -> lower value
    for k in (1, n // 2, n):
        row = dp.value_rows[k]
        assert np.all(np.diff(row) <= 1e-12)
    with pytest.raises(ValueError):
        dp_reduced(base_params, safe_arm, Grid.from_horizon(0.5, 5e-3),
                   keep_values=False).value(0, 0)


def test_preference_gaps_match_path_actions(base_params, safe_arm):
    dp = dp_reduced(base_params, safe_arm, Grid.from_horizon(1.9, 2e-3),
                    keep_values=False)
    labels = np.array(dp.path_action_labels())
    assert np.all(dp.path_gaps[labels == ACTION_THINK] >= -1e-12)
    assert np.all(dp.path_gaps[labels == ACTION_DO] <= 1e-12)


# ---------------------------------------------------------------------------
# action-set robustness: idling and interior mixes buy nothing
# ---------------------------------------------------------------------------

def test_idle_and_mixes_add_no_value(base_params, safe_arm):
    pure = dp_reduced(base_params, safe_arm, Grid.from_horizon(1.9, 2e-3),
                      keep_values=False)
    rich_grid = Grid.from_horizon(
        1.9, 2e-3,
        (ACTION_DO, ACTION_THINK, ACTION_IDLE, 0.25, 0.5, 0.75))
    rich = dp_reduced(base_params, safe_arm, rich_grid, keep_values=False)
    assert abs(rich.root_value - pure.root_value) <= 1e-12
    on_path = set(rich.path_action_labels())
    assert on_path <= {ACTION_DO, ACTION_THINK}
    b_pure = extract_schedule(pure)[0][1]
    b_rich = extract_schedule(rich)[0][1]
    assert abs(b_pure - b_rich) <= 1e-12


def test_switch_time_convergence(base_params, safe_arm):
    # sub-step refinement of the switch boundary gains roughly a factor of
    # two in accuracy per halving of dt
    sched = solve(base_params, safe_arm)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        dp = dp_reduced(base_params, safe_arm, Grid.from_horizon(1.9, dt),
                        keep_values=False)
        errs.append(abs(extract_schedule(dp)[0][1] - sched.tau2))
    assert errs[2] <= 1e-3
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


# ---------------------------------------------------------------------------
# the judge of a schedule against the oracle's path
# ---------------------------------------------------------------------------

_DT = 2.0 ** -9  # a binary step, so the sums and deltas below are exact


@pytest.fixture(scope="module")
def judged_run():
    params = ModelParams(p_bar=0.75, lam=0.75, mu=1.0, c=0.5, B=5.0, T=2.0)
    model = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5)
    return solve(params, model), dp_reduced(
        params, model, Grid.from_horizon(2.0, _DT), keep_values=False)


def _judge(run, taus, path):
    sched, dp = run
    return agreement(dataclasses.replace(sched, tau1=taus[0], tau2=taus[1],
                                         tau3=taus[2]),
                     dataclasses.replace(dp, switch_times=path))


def test_agreement_on_the_real_run(judged_run):
    report = agreement(*judged_run)
    assert report["pass"] is True
    assert report["tolerance"] == 5.0 * _DT
    assert report["oracle"][0] == 0.0
    assert sum(report["oracle"]) == pytest.approx(2.0, abs=1e-12)
    assert "reason" not in report and "judged_as_do_only" not in report


@pytest.mark.parametrize("path, taus", [
    (((0.0, 2.0, ACTION_DO),), (0.0, 0.0, 2.0)),
    (((0.0, 0.75, ACTION_THINK), (0.75, 2.0, ACTION_DO)), (0.0, 0.75, 1.25)),
    (((0.0, 0.25, ACTION_DO), (0.25, 1.0, ACTION_THINK),
      (1.0, 2.0, ACTION_DO)), (0.25, 0.75, 1.0)),
], ids=["DO_ONLY", "THINK_DO", "DO_THINK_DO"])
def test_agreement_reads_the_path_as_taus(judged_run, path, taus):
    report = _judge(judged_run, taus, path)
    assert report == {"solver": list(taus), "oracle": list(taus),
                      "tolerance": 5.0 * _DT, "pass": True}


def test_agreement_judges_a_sub_step_thinking_block_as_doing(judged_run):
    do_only = ((0.0, 2.0, ACTION_DO),)
    report = _judge(judged_run, (1.0, 0.5 * _DT, 1.0 - 0.5 * _DT), do_only)
    assert report["pass"] is True
    assert report["judged_as_do_only"] == [0.0, 0.0, 2.0]
    assert report["solver"] == [1.0, 0.5 * _DT, 1.0 - 0.5 * _DT]
    # a block of one full step would show on the grid: no rule, a failure
    report = _judge(judged_run, (1.0, _DT, 1.0 - _DT), do_only)
    assert report["pass"] is False and "judged_as_do_only" not in report
    assert "tau1" in report["reason"]


@pytest.mark.parametrize("path", [
    ((0.0, 0.5, ACTION_THINK), (0.5, 1.0, ACTION_DO),
     (1.0, 2.0, ACTION_THINK)),
    ((0.0, 1.0, ACTION_DO), (1.0, 2.0, ACTION_IDLE)),
], ids=["two_think_blocks", "idle"])
def test_agreement_fails_a_path_without_a_tau_form(judged_run, path):
    report = _judge(judged_run, (0.0, 0.0, 2.0), path)
    assert report["pass"] is False and report["oracle"] is None
    assert "no tau form" in report["reason"]


def test_agreement_takes_a_plain_tuple(judged_run):
    sched, dp = judged_run
    taus = (sched.tau1, sched.tau2, sched.tau3)
    assert agreement(taus, dp) == agreement(sched, dp)
    do_only = dataclasses.replace(dp, switch_times=((0.0, 2.0, ACTION_DO),))
    sub_step = (1.0, 0.5 * _DT, 1.0 - 0.5 * _DT)
    report = agreement(sub_step, do_only)
    assert report == _judge(judged_run, sub_step, do_only.switch_times)
    assert report["judged_as_do_only"] == [0.0, 0.0, 2.0]


def test_agreement_tolerance_is_inclusive(judged_run):
    path = ((0.0, 0.75, ACTION_THINK), (0.75, 2.0, ACTION_DO))
    tol = 5.0 * _DT
    at = _judge(judged_run, (0.0, 0.75 + tol, 1.25 - tol), path)
    assert at["pass"] is True and "reason" not in at
    above = tol + 2.0 ** -30
    past = _judge(judged_run, (0.0, 0.75 + above, 1.25 - above), path)
    assert past["pass"] is False
    assert "tau1" not in past["reason"]
    assert "tau2" in past["reason"] and "tau3" in past["reason"]


# ---------------------------------------------------------------------------
# explicit two-stage variant
# ---------------------------------------------------------------------------

def test_two_stage_matches_reduced_safe_arm(base_params, safe_arm):
    g = Grid.from_horizon(1.9, 2e-3)
    reduced = dp_reduced(base_params, safe_arm, g, keep_values=False)
    staged = dp_two_stage(base_params, safe_arm, g)
    assert staged.root_value == pytest.approx(reduced.root_value, abs=1e-3)
    b_r = extract_schedule(reduced)[0][1]
    b_s = extract_schedule(staged)[0][1]
    assert abs(b_r - b_s) <= 1e-2


def test_two_stage_instant_conversion(base_params):
    # a second arm that converts almost immediately behaves like its own
    # reduced value
    fast = SafeArm(nu=1e3, B_nu=5.0, c_nu=0.5)
    g = Grid.from_horizon(1.9, 2e-3)
    staged = dp_two_stage(base_params, fast, g)
    reduced = dp_reduced(base_params, fast, g, keep_values=False)
    assert staged.root_value == pytest.approx(reduced.root_value, abs=5e-3)


def test_two_stage_risky_arm(params_at):
    risky = RiskyArm(p_bar_nu=0.8, nu=1.0, B_nu=5.0, c_nu=0.3)
    params = params_at(4.0)
    g = Grid.from_horizon(4.0, 2e-3)
    reduced = dp_reduced(params, risky, g, keep_values=False)
    staged = dp_two_stage(params, risky, g)
    labels = [lab for _, _, lab in extract_schedule(reduced)]
    assert labels == [ACTION_DO, ACTION_THINK, ACTION_DO]
    assert staged.root_value == pytest.approx(reduced.root_value, abs=1e-3)
    for (_, b_r, _), (_, b_s, _) in zip(extract_schedule(reduced)[:-1],
                                        extract_schedule(staged)[:-1]):
        assert abs(b_r - b_s) <= 1e-2


def _full_row_entry_values(arm, grid):
    """A RiskyArm's stage-two entry values by the recursion over full rows
    of pull counts, as written before it shared the row step."""
    N, dt = grid.n_steps, grid.dt
    q2 = -math.expm1(-arm.nu * dt)
    p2 = dp_module.posterior(arm.p_bar_nu, arm.nu, dt * np.arange(N + 2))
    s2 = p2[:N + 1] * q2
    a2 = -arm.c_nu * dt + s2 * arm.B_nu
    b2 = 1.0 - s2
    rows, work, entry = np.zeros(N + 2), np.empty(N + 1), np.zeros(N + 1)
    stopped = 0
    for k in range(1, N + 1):
        np.multiply(b2, rows[1:], out=work)
        np.add(work, a2, out=work)
        stopped += np.count_nonzero(rows[:N - k + 1] > work[:N - k + 1])
        np.maximum(rows[:N + 1], work, out=rows[:N + 1])
        entry[k] = rows[0]
    return entry, stopped


@pytest.mark.parametrize("T, dt", [(4.0, 2e-3), (6.0, 1e-3)])
def test_stage2_entry_values_match_full_rows(T, dt):
    arm = RiskyArm(p_bar_nu=0.3, nu=2.0, B_nu=3.0, c_nu=0.2)
    assert arm.stop_time < 1.3  # inside the horizon: stopping is taken
    grid = Grid.from_horizon(T, dt)
    want, stopped = _full_row_entry_values(arm, grid)
    assert stopped > 0
    assert np.array_equal(dp_module._stage2_entry_values(arm, grid), want)


def test_two_stage_rejects_general_stage2(base_params):
    from dblab import PayoffStream
    with pytest.raises(ValueError):
        dp_two_stage(base_params, PayoffStream(nu=1.0, B_nu=5.0),
                     Grid.from_horizon(1.9, 2e-3))


# ---------------------------------------------------------------------------
# unobserved-progress variant
# ---------------------------------------------------------------------------

def test_no_feedback_never_returns_to_doing():
    nf = NoFeedbackModel(mu=1.0, nu=1.0 - 1e-7, B=5.0, c=0.5,
                         p_bar=0.75, lam=0.75)
    dp = dp_no_feedback(nf, 6.0)
    labels = [lab for _, _, lab in extract_schedule(dp)]
    assert labels == [ACTION_DO, ACTION_THINK]


def test_no_feedback_equal_rates_continuity():
    close = NoFeedbackModel(mu=1.0, nu=1.0 - 1e-7, B=5.0, c=0.5,
                            p_bar=0.75, lam=0.75)
    exact = NoFeedbackModel(mu=1.0, nu=1.0, B=5.0, c=0.5,
                            p_bar=0.75, lam=0.75, limit_mode=True)
    d1 = dp_no_feedback(close, 6.0)
    d2 = dp_no_feedback(exact, 6.0)
    assert d1.root_value == pytest.approx(d2.root_value, abs=1e-4)
    assert extract_schedule(d1)[0][1] == pytest.approx(
        extract_schedule(d2)[0][1], abs=1e-3)


def test_no_feedback_refuses_a_grid_that_does_not_span_the_horizon():
    nf = NoFeedbackModel(mu=1.0, nu=1.0 - 1e-7, B=5.0, c=0.5,
                         p_bar=0.75, lam=0.75)
    with pytest.raises(ValueError, match="does not span the horizon"):
        dp_no_feedback(nf, 6.0, Grid.from_horizon(2.0, 2e-3))
    spans = dp_no_feedback(nf, 1.0, Grid.from_horizon(1.0, 5e-3))
    assert spans.grid.horizon == pytest.approx(1.0)


def test_no_feedback_equal_rates_need_no_flag():
    # mu == nu builds as it is, and its oracle run is the golden of the
    # run that passes limit_mode=True
    nf = NoFeedbackModel(mu=1.0, nu=1.0, B=5.0, c=0.5, p_bar=0.75, lam=0.75)
    want = json.loads((GOLDEN_DIR / "no_feedback_limit.json").read_text())
    assert _fingerprint(dp_no_feedback(nf, 6.0)) == want


# ---------------------------------------------------------------------------
# outside the validated class: time-averaged block structure
# ---------------------------------------------------------------------------

def test_unvalidated_model_shows_second_thinking_block():
    # parameter set violating the curvature condition: the fine-grained
    # policy chatters on a nearly indifferent band, but its time-averaged
    # structure opens with thinking, unlike every validated instance
    params = ModelParams(p_bar=0.8, lam=1.0, mu=0.4, c=0.5, B=9.0, T=6.0)
    model = SafeArm(nu=0.5, B_nu=10.25, c_nu=0.0)
    report = validate_model(params, model)
    assert not report.overall
    dp = dp_reduced(params, model, Grid.from_horizon(6.0, 2e-3),
                    keep_values=False)
    blocks = [lab for _, _, lab in majority_intervals(dp, window=0.2)]
    assert blocks == [ACTION_THINK, ACTION_DO, ACTION_THINK, ACTION_DO]


# a chattering path for the majority view: THINK is action 1, and 11 steps
# of 0.01 leave a partial last window of 2 steps at w = 3
_CHATTER = SimpleNamespace(
    grid=Grid(0.01, 11), action_names=(ACTION_DO, ACTION_THINK),
    path_actions=np.array([1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1], dtype=np.int8))


@pytest.mark.parametrize("window, want", [
    # the partial window is half THINK, so THINK by its own length
    (0.03, ((0.0, 0.03, ACTION_THINK), (0.03, 0.09, ACTION_DO),
            (0.09, 0.11, ACTION_THINK))),
    # one window past the horizon: 5 of 11 steps think
    (0.5, ((0.0, 0.11, ACTION_DO),)),
], ids=["partial_last_window", "window_past_horizon"])
def test_majority_intervals_edge_windows(window, want):
    assert majority_intervals(_CHATTER, window=window) == want


# ---------------------------------------------------------------------------
# pinned oracle outputs: exact goldens and the tie rule
# ---------------------------------------------------------------------------

def _golden_cases() -> dict:
    """Name -> zero-argument call of one oracle run."""
    params = ModelParams(p_bar=0.75, lam=0.75, mu=1.0, c=0.5, B=5.0, T=1.9)
    safe = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5)
    rich = (ACTION_DO, ACTION_THINK, ACTION_IDLE, 0.25, 0.5, 0.75)
    crit9 = ModelParams(p_bar=0.8, lam=1.0, mu=0.4, c=0.5, B=9.0, T=6.0)
    at4 = ModelParams(p_bar=0.75, lam=0.75, mu=1.0, c=0.5, B=5.0, T=4.0)
    risky = RiskyArm(p_bar_nu=0.8, nu=1.0, B_nu=5.0, c_nu=0.3)
    generic = NoFeedbackModel(mu=1.0, nu=0.6, B=5.0, c=0.5, p_bar=0.75,
                              lam=0.75)
    limit = NoFeedbackModel(mu=1.0, nu=1.0, B=5.0, c=0.5, p_bar=0.75,
                            lam=0.75, limit_mode=True)
    return {
        "reduced_kept": lambda: dp_reduced(
            at4, safe, Grid.from_horizon(4.0, 1e-3)),
        "reduced_rich": lambda: dp_reduced(
            params, safe, Grid.from_horizon(1.9, 2e-3, rich)),
        "two_stage_safe": lambda: dp_two_stage(
            crit9, SafeArm(nu=0.5, B_nu=10.25, c_nu=0.0),
            Grid.from_horizon(6.0, 2e-3)),
        "two_stage_risky": lambda: dp_two_stage(
            at4, risky, Grid.from_horizon(4.0, 2e-3)),
        "no_feedback": lambda: dp_no_feedback(generic, 6.0),
        "no_feedback_limit": lambda: dp_no_feedback(limit, 6.0),
    }


def _sha256(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(np.ascontiguousarray(row).tobytes())
    return digest.hexdigest()


def _fingerprint(dp) -> dict:
    """Exact record of one oracle run: root value, switch intervals, and
    hashes of the preference gaps and of the bytes of the policy rows, the
    path's tie masks and the kept value rows."""
    tables = list(dp.policy_rows) + [dp.tie_rows]
    if dp.value_rows is not None:
        tables += list(dp.value_rows)
    return {
        "root_value": repr(dp.root_value),
        "switch_times": [list(iv) for iv in dp.switch_times],
        "path_gaps_sha256": _sha256([dp.path_gaps]),
        "values_kept": dp.value_rows is not None,
        "tables_sha256": _sha256(tables),
    }


@pytest.mark.parametrize("name", sorted(_golden_cases()))
def test_oracle_matches_golden(name):
    dp = _golden_cases()[name]()
    assert all(r.dtype == np.int8 for r in dp.policy_rows)
    assert dp.tie_rows.dtype == np.uint8
    assert dp.tie_rows.shape == (dp.grid.n_steps,)
    assert dp.value_rows is None or all(r.dtype == np.float64
                                        for r in dp.value_rows)
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert _fingerprint(dp) == want


def test_tie_goes_to_first_action_with_both_bits_set():
    # identical DO and THINK rows at every state: the first action in
    # action-set order is chosen, and both are flagged as tied at every
    # state of the no-arrival path.  Both Q rows are W + 1 (coefficients
    # a = b = 1); every value row is flat inside the triangle, so DO
    # reading W[m + 1] and THINK reading W[m] see the same value.  The
    # cells past the edge of a block's rows are not flat (DO there reads
    # the zeros beyond the last row), so a policy row carrying one of them
    # would show a 1
    N = _BLOCK + 6
    grid = Grid(1e-3, N, (ACTION_THINK, ACTION_DO))
    ones = np.ones(N + 1)
    dp = _assemble(grid, (ones, ones, ones, ones, 0), False)
    assert grid.action_set[0] == ACTION_DO
    for k in range(1, grid.n_steps + 1):
        assert dp.policy_rows[k].shape == (N - k + 1,)
        assert np.all(dp.policy_rows[k] == 0)
    assert np.all(dp.tie_rows == 0b11)
    assert dp.root_value == float(N)
    assert set(dp.path_action_labels()) == {ACTION_DO}


# ---------------------------------------------------------------------------
# the checkpointed gap pass against a plain full-row recursion
# ---------------------------------------------------------------------------

def _plain_recursion(grid: Grid, coef, path_m: np.ndarray):
    """Reference: the backward recursion over exact rows, with fresh
    arrays, the policy and tie rows set by masked assignment in reverse
    action order, and Q_think - Q_do read off each row at the path state."""
    N = grid.n_steps
    actions = grid.action_set
    a_do, b_do, a_th, b_th, along = coef
    W = np.zeros(N + 1)
    value_rows = [W]
    policy_rows = [np.zeros(0, dtype=np.int8)]
    tie_rows = [np.zeros(0, dtype=np.uint8)]
    gaps = np.zeros(N)
    for k in range(1, N + 1):
        n = N - k + 1
        th = k + along * np.arange(n)
        q_do = a_do[:n] + b_do[:n] * W[1:n + 1]
        q_th = a_th[th] + b_th[th] * W[:n]
        pure = {ACTION_DO: q_do, ACTION_THINK: q_th, ACTION_IDLE: W[:n]}
        qs = [pure[a] if isinstance(a, str) else a * q_do + (1.0 - a) * q_th
              for a in actions]
        row = np.maximum(qs[0], qs[1])
        for q in qs[2:]:
            row = np.maximum(row, q)
        floor = row - 1e-12
        best = np.zeros(n, dtype=np.int8)
        ties = np.zeros(n, dtype=np.uint8)
        for i in range(len(qs) - 1, -1, -1):
            best[qs[i] == row] = i
            ties |= (qs[i] >= floor).astype(np.uint8) << i
        policy_rows.append(best)
        tie_rows.append(ties)
        m = path_m[N - k]
        gaps[N - k] = q_th[m] - q_do[m]
        W = row
        value_rows.append(W)
    return policy_rows, tie_rows, gaps, value_rows


def _full_table_walk(N: int, actions: tuple, policy_rows, tie_rows):
    """Reference: the forward no-arrival walk over the full tie table,
    keeping the incumbent action wherever its tie bit is set."""
    path_actions = np.zeros(N, dtype=np.int8)
    path_m = np.zeros(N, dtype=np.int64)
    m, incumbent = 0, -1
    for j in range(N):
        a = int(policy_rows[N - j][m])
        if incumbent >= 0 and (int(tie_rows[N - j][m]) >> incumbent) & 1:
            a = incumbent
        path_actions[j], path_m[j] = a, m
        if actions[a] == ACTION_DO:
            m += 1
        incumbent = a
    return path_actions, path_m


def _gap_pass_case(variant: str, n_steps: int):
    """One oracle call on a grid of ``n_steps``; "kept" keeps the value
    table, every other reduced variant runs without it."""
    crit9 = ModelParams(p_bar=0.8, lam=1.0, mu=0.4, c=0.5, B=9.0, T=6.0)
    at4 = ModelParams(p_bar=0.75, lam=0.75, mu=1.0, c=0.5, B=5.0, T=4.0)
    safe = SafeArm(nu=0.5, B_nu=10.25, c_nu=0.0)
    nf = NoFeedbackModel(mu=1.0, nu=0.6, B=5.0, c=0.5, p_bar=0.75, lam=0.75)
    actions = {"pure": (ACTION_DO, ACTION_THINK),
               "idle": (ACTION_DO, ACTION_THINK, ACTION_IDLE),
               "rich": (ACTION_DO, ACTION_THINK, ACTION_IDLE, 0.25, 0.5, 0.75)}
    grid = Grid(6e-3, n_steps, actions.get(variant, (ACTION_DO, ACTION_THINK)))
    if variant in actions or variant == "kept":
        return dp_reduced(crit9, safe, grid, keep_values=variant == "kept")
    if variant == "two_stage":
        return dp_two_stage(at4, RiskyArm(p_bar_nu=0.8, nu=1.0, B_nu=5.0,
                                          c_nu=0.3), grid)
    if variant == "no_feedback_limit":
        nf = NoFeedbackModel(mu=1.0, nu=1.0, B=5.0, c=0.5, p_bar=0.75,
                             lam=0.75, limit_mode=True)
    return dp_no_feedback(nf, grid.horizon, grid)


def _check_against_plain_recursion(monkeypatch, run) -> int:
    """Run one oracle call, compare it with the plain recursion and the
    full-table walk byte for byte, and return its number of gap passes."""
    seen, passes = [], []
    assemble, gap_pass = dp_module._assemble, dp_module._gaps_along_path

    def spy(grid, coef, keep_values):
        seen.append(coef)
        return assemble(grid, coef, keep_values)

    def counted(*args):
        passes.append(args)
        return gap_pass(*args)

    monkeypatch.setattr(dp_module, "_assemble", spy)
    monkeypatch.setattr(dp_module, "_gaps_along_path", counted)
    dp = run()
    policy_rows, tie_rows, gaps, value_rows = _plain_recursion(
        dp.grid, seen[0], dp.path_m)

    def raw(rows):
        return [(r.dtype, r.shape, r.tobytes()) for r in rows]

    # raw() also pins each row's dtype and its N - k + 1 entries
    assert raw(dp.policy_rows) == raw(policy_rows)
    if dp.value_rows is not None:
        assert raw(dp.value_rows) == raw(value_rows)
    assert dp.root_value == value_rows[-1][0]
    N = dp.grid.n_steps
    path_ties = np.array([tie_rows[N - j][dp.path_m[j]] for j in range(N)],
                         dtype=np.uint8)
    assert raw([dp.tie_rows]) == raw([path_ties])
    path_actions, path_m = _full_table_walk(N, dp.grid.action_set,
                                            policy_rows, tie_rows)
    assert raw([dp.path_actions, dp.path_m]) == raw([path_actions, path_m])
    assert dp.path_gaps.tobytes() == gaps.tobytes()
    return len(passes)


@pytest.mark.parametrize("n_steps", [0, 1, 2, 3, 5, 17, 1001, _BLOCK - 1,
                                     _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("variant", ["pure", "idle", "rich", "two_stage",
                                     "no_feedback", "no_feedback_limit",
                                     "kept"])
def test_gap_pass_matches_plain_recursion(monkeypatch, variant, n_steps):
    # checkpoint stride isqrt(N) does not divide N for 5, 17 and 1001, so
    # the last segment of the gap pass is partial; the backward pass takes
    # its rows in blocks of _BLOCK, each at the width of its first row, and
    # the sizes around it end in a partial block, an exact one, or one row
    # into a second or third
    _check_against_plain_recursion(
        monkeypatch, lambda: _gap_pass_case(variant, n_steps))


def test_second_gap_pass_matches_full_table_walk(monkeypatch):
    # on the criterion-9 two-stage run the walk on the policy alone leaves
    # the tie-resolved path, so the path's ties take a second gap pass
    crit9 = ModelParams(p_bar=0.8, lam=1.0, mu=0.4, c=0.5, B=9.0, T=6.0)
    safe = SafeArm(nu=0.5, B_nu=10.25, c_nu=0.0)
    passes = _check_against_plain_recursion(
        monkeypatch, lambda: dp_two_stage(crit9, safe, Grid(2e-3, 1800)))
    assert passes == 2


def test_one_walk_when_no_switch_is_tied(monkeypatch):
    # the README anchor's path has no switch whose incumbent is tied, so
    # the walk on the policy alone stands after one gap pass
    walks, passes = [], []
    walk, gap_pass = dp_module._walk_no_arrival_path, dp_module._gaps_along_path
    monkeypatch.setattr(dp_module, "_walk_no_arrival_path",
                        lambda *args: walks.append(args) or walk(*args))
    monkeypatch.setattr(dp_module, "_gaps_along_path",
                        lambda *args: passes.append(args) or gap_pass(*args))
    anchor = ModelParams(p_bar=0.75, lam=0.75, mu=1.0, c=0.5, B=5.0, T=1.9)
    dp = dp_reduced(anchor, SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5),
                    Grid.from_horizon(1.9, 1e-3), keep_values=False)
    assert (len(walks), len(passes)) == (1, 1)
    assert [lab for *_, lab in dp.switch_times] == [ACTION_THINK, ACTION_DO]


# ---------------------------------------------------------------------------
# switch search and sub-step refinement
# ---------------------------------------------------------------------------

def _scalar_intervals(grid: Grid, actions: tuple, path_actions, path_gaps):
    """Reference: the step-by-step merge of the path into intervals, with
    switches between DO and THINK refined by the interpolated gap."""
    N, dt = grid.n_steps, grid.dt
    if N == 0:
        return ()
    pure = {actions.index(ACTION_DO), actions.index(ACTION_THINK)}
    bounds, labels = [0.0], [actions[path_actions[0]]]
    for j in range(1, N):
        if path_actions[j] == path_actions[j - 1]:
            continue
        raw = t_switch = j * dt
        if {int(path_actions[j]), int(path_actions[j - 1])} <= pure:
            g0, g1 = path_gaps[j - 1], path_gaps[j]
            if g0 != g1 and np.isfinite(g0) and np.isfinite(g1):
                t_star = (j - 1) * dt + dt * g0 / (g0 - g1)
                t_switch = min(max(t_star, raw - dt), raw + dt)
        bounds.append(t_switch)
        labels.append(actions[path_actions[j]])
    bounds.append(N * dt)
    return tuple((bounds[i], bounds[i + 1], labels[i])
                 for i in range(len(labels)))


@pytest.mark.parametrize("path, gaps", [
    # DO -> THINK -> IDLE -> THINK -> DO -> THINK -> DO, with a gap of
    # +inf at one DO/THINK switch, NaN at another and equal gaps at a third
    ([0, 0, 1, 1, 2, 2, 1, 0, 0, 1, 1, 0, 0],
     [-0.3, -0.1, 0.2, 0.4, 0.0, 0.1, 0.3, np.inf, -0.2, -0.2, 0.5, np.nan,
      -1.0]),
    # gaps of one sign: the interpolation lands more than a step off and is
    # clipped to one step either side (the first three switches)
    ([1, 0, 1, 0, 0, 1], [0.1, 0.5, 3.0, 2.0, -1e-12, 2e-12]),
    ([0] * 6, [-1.0] * 6),
    ([2], [0.0]),
])
def test_switch_search_matches_scalar_loop(path, gaps):
    actions = (ACTION_DO, ACTION_THINK, ACTION_IDLE)
    grid = Grid(0.1, len(path), actions)
    path, gaps = np.array(path, dtype=np.int8), np.array(gaps)
    got = _intervals_from_path(grid, actions, path, gaps)
    assert got == _scalar_intervals(grid, actions, path, gaps)
    assert all(type(t) is float for iv in got for t in iv[:2])
    assert _intervals_from_path(Grid(0.1, 0, actions), actions, path[:0],
                                gaps[:0]) == ()


def _write_goldens() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, run in _golden_cases().items():
        fields = _fingerprint(run())
        intervals = ",\n  ".join(json.dumps(iv)
                                  for iv in fields.pop("switch_times"))
        lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in fields.items()]
        lines.append(f' "switch_times": [\n  {intervals}\n ]')
        (GOLDEN_DIR / f"{name}.json").write_text(
            "{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    # regenerate the goldens, on purpose only:
    #     PYTHONPATH=src python tests/test_dp.py --write
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_dp.py --write  (rewrites the six "
                 "DP goldens under tests/data/dp)")
    _write_goldens()
