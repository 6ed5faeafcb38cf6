"""Oracle tests: grid guards, closed-form cross-checks, action-set
robustness, switch-time convergence, the explicit two-stage variant, and
the unobserved-progress variant."""

import hashlib
import json
import math
from pathlib import Path

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
from dblab.dp import (ACTION_DO, ACTION_IDLE, ACTION_THINK, _assemble,
                      _check_grid)

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


def test_run_guards(base_params, safe_arm):
    with pytest.raises(CoarseGridError):
        dp_reduced(base_params, safe_arm, Grid(0.02, 90))
    # the byte budget refuses before allocating: 2 bytes a policy/tie cell
    # (441021000), 8 a kept value cell (1764252008) and 8 a checkpoint cell
    # of the gap pass (12335248) exceed 1 GiB; without the values they fit
    with pytest.raises(ValueError, match=r"n_steps=21000 would keep "
                       r"2217608256 bytes .*keep_values=False"):
        dp_reduced(base_params, safe_arm, Grid(1e-4, 21_000))
    _check_grid(Grid(1e-4, 21_000), keep_values=False)
    with pytest.raises(ValueError, match="n_steps=40000"):
        _check_grid(Grid(1e-4, 40_000), keep_values=False)


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


def test_no_feedback_equal_rates_guard():
    with pytest.raises(ValueError):
        NoFeedbackModel(mu=1.0, nu=1.0, B=5.0, c=0.5, p_bar=0.75, lam=0.75)


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
    hashes of the preference gaps and of the kept tables' bytes."""
    tables = list(dp.policy_rows) + list(dp.tie_rows)
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
    assert all(r.dtype == np.uint8 for r in dp.tie_rows)
    assert dp.value_rows is None or all(r.dtype == np.float64
                                        for r in dp.value_rows)
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert _fingerprint(dp) == want


def test_tie_goes_to_first_action_with_both_bits_set():
    # identical DO and THINK rows at every state: the first action in
    # action-set order is chosen and both are flagged as tied.  Both Q
    # rows are W + 1 (coefficients a = b = 1); every value row is flat, so
    # DO reading W[m + 1] and THINK reading W[m] see the same value
    grid = Grid(1e-3, 6, (ACTION_THINK, ACTION_DO))
    dp = _assemble(grid, lambda k, m: (1.0, 1.0, 1.0, 1.0), False)
    assert grid.action_set[0] == ACTION_DO
    for k in range(1, grid.n_steps + 1):
        assert np.all(dp.policy_rows[k] == 0)
        assert np.all(dp.tie_rows[k] == 0b11)
    assert dp.root_value == 6.0
    assert set(dp.path_action_labels()) == {ACTION_DO}


# ---------------------------------------------------------------------------
# the checkpointed gap pass against a plain full-row recursion
# ---------------------------------------------------------------------------

def _plain_recursion(grid: Grid, coef, path_m: np.ndarray):
    """Reference: the backward recursion over full rows, with fresh arrays,
    the policy and tie rows set by masked assignment in reverse action
    order, and Q_think - Q_do read off each row at the path state."""
    N = grid.n_steps
    actions = grid.action_set
    W = np.zeros(N + 1)
    policy_rows = [np.zeros(0, dtype=np.int8)]
    tie_rows = [np.zeros(0, dtype=np.uint8)]
    gaps = np.zeros(N)
    for k in range(1, N + 1):
        n = N - k + 1
        a_do, b_do, a_th, b_th = coef(k, np.s_[:n])
        q_do = a_do + b_do * W[1:n + 1]
        q_th = a_th + b_th * W[:n]
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
    return policy_rows, tie_rows, gaps


def _gap_pass_case(variant: str, n_steps: int):
    crit9 = ModelParams(p_bar=0.8, lam=1.0, mu=0.4, c=0.5, B=9.0, T=6.0)
    at4 = ModelParams(p_bar=0.75, lam=0.75, mu=1.0, c=0.5, B=5.0, T=4.0)
    safe = SafeArm(nu=0.5, B_nu=10.25, c_nu=0.0)
    nf = NoFeedbackModel(mu=1.0, nu=0.6, B=5.0, c=0.5, p_bar=0.75, lam=0.75)
    actions = {"pure": (ACTION_DO, ACTION_THINK),
               "idle": (ACTION_DO, ACTION_THINK, ACTION_IDLE),
               "rich": (ACTION_DO, ACTION_THINK, ACTION_IDLE, 0.25, 0.5, 0.75)}
    grid = Grid(6e-3, n_steps, actions.get(variant, (ACTION_DO, ACTION_THINK)))
    if variant in actions:
        return dp_reduced(crit9, safe, grid, keep_values=False)
    if variant == "two_stage":
        return dp_two_stage(at4, RiskyArm(p_bar_nu=0.8, nu=1.0, B_nu=5.0,
                                          c_nu=0.3), grid)
    if variant == "no_feedback_limit":
        nf = NoFeedbackModel(mu=1.0, nu=1.0, B=5.0, c=0.5, p_bar=0.75,
                             lam=0.75, limit_mode=True)
    return dp_no_feedback(nf, grid.horizon, grid)


@pytest.mark.parametrize("n_steps", [0, 1, 2, 3, 5, 17, 1001])
@pytest.mark.parametrize("variant", ["pure", "idle", "rich", "two_stage",
                                     "no_feedback", "no_feedback_limit"])
def test_gap_pass_matches_plain_recursion(monkeypatch, variant, n_steps):
    # checkpoint stride isqrt(N) does not divide N for 5, 17 and 1001, so
    # the last segment of the gap pass is partial
    seen = []
    assemble = dp_module._assemble

    def spy(grid, coef, keep_values):
        seen.append(coef)
        return assemble(grid, coef, keep_values)

    monkeypatch.setattr(dp_module, "_assemble", spy)
    dp = _gap_pass_case(variant, n_steps)
    policy_rows, tie_rows, gaps = _plain_recursion(dp.grid, seen[0], dp.path_m)

    def raw(rows):
        return [(r.dtype, r.tobytes()) for r in rows]

    assert raw(dp.policy_rows) == raw(policy_rows)
    assert raw(dp.tie_rows) == raw(tie_rows)
    assert dp.path_gaps.tobytes() == gaps.tobytes()


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
    # regenerate the goldens: PYTHONPATH=src python tests/test_dp.py
    _write_goldens()
