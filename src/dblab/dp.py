"""Discrete-time dynamic-programming oracle.

Independent cross-check for the schedule solver: backward recursion on a
(remaining steps, doing steps used) triangle with exact per-step
exponential arrival probabilities.  Variants cover the reduced model (a
progress arrival pays the value-of-progress lump), the explicit two-stage
model (a progress arrival switches to a second arm that is itself worked
step by step), and the unobserved-progress model.

Belief enters only through the count of unrewarded doing steps, so the
state space is exact; no belief grid is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    ModelParams,
    ProgressModel,
    RiskyArm,
    SafeArm,
    posterior,
    progress_value_array,
)
from .nofeedback import NoFeedbackModel, no_solution_prob

ACTION_DO = "DO"
ACTION_THINK = "THINK"
ACTION_IDLE = "IDLE"

_MAX_STEPS = 20000
_TIE_TOL = 1e-12


class CoarseGridError(ValueError):
    """The requested step is too coarse for oracle-grade switch times."""


def _canonical_actions(action_set: Sequence) -> tuple:
    pure = [a for a in action_set if a in (ACTION_DO, ACTION_THINK, ACTION_IDLE)]
    mixes = sorted(a for a in action_set if isinstance(a, float))
    for a in action_set:
        if a not in pure and a not in mixes:
            raise ValueError(f"unknown action {a!r}")
    for a in mixes:
        if not 0.0 < a < 1.0:
            raise ValueError(f"interior mix must lie in (0, 1), got {a}")
    ordered = [a for a in (ACTION_DO, ACTION_THINK, ACTION_IDLE) if a in pure]
    if ACTION_DO not in ordered or ACTION_THINK not in ordered:
        raise ValueError("action set must contain DO and THINK")
    return tuple(ordered + mixes)


@dataclass(frozen=True)
class Grid:
    """Time discretization plus the action set of the recursion."""

    dt: float
    n_steps: int
    action_set: tuple = (ACTION_DO, ACTION_THINK)

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {self.n_steps}")
        object.__setattr__(self, "action_set",
                           _canonical_actions(self.action_set))

    @classmethod
    def from_horizon(cls, T: float, dt: float,
                     action_set: Sequence = (ACTION_DO, ACTION_THINK)) -> "Grid":
        n = int(round(T / dt)) if T > 0.0 else 0
        return cls(dt, n, tuple(action_set))

    @property
    def horizon(self) -> float:
        return self.dt * self.n_steps


@dataclass
class DPSolution:
    """Tables and extracted switch structure of one oracle run.

    ``value_rows[k][m]`` is the optimal continuation value with k steps
    remaining after m unrewarded doing steps (``None`` unless kept);
    ``policy_rows`` mirrors it with action indices into ``action_names``;
    ``tie_rows`` holds bitmasks of actions within tolerance of the best.
    ``switch_times`` lists (start, end, action) intervals along the
    no-arrival path, with boundaries refined below step resolution where
    the recursion's preference gap allows it.
    """

    grid: Grid
    root_value: float
    action_names: tuple
    policy_rows: list
    tie_rows: list
    path_actions: np.ndarray
    path_m: np.ndarray
    path_gaps: np.ndarray
    switch_times: tuple
    value_rows: Optional[list] = None

    def value(self, k: int, m: int) -> float:
        if self.value_rows is None:
            raise ValueError("value table was not kept for this run")
        return float(self.value_rows[k][m])

    def path_action_labels(self) -> list:
        return [self.action_names[a] for a in self.path_actions]


def _check_grid(grid: Grid) -> None:
    if grid.dt > 0.01:
        raise CoarseGridError(
            f"grid too coarse: dt={grid.dt} exceeds the 0.01 cap")
    if grid.n_steps > _MAX_STEPS:
        raise ValueError(
            f"state-space guard: n_steps={grid.n_steps} exceeds {_MAX_STEPS}")


# ---------------------------------------------------------------------------
# shared backward recursion over the (k, m) triangle
# ---------------------------------------------------------------------------

def _backward_rows(N: int, actions: tuple, step_values):
    """The backward recursion, written once.

    ``step_values(k, W_prev)`` must return (Q_do, Q_th) arrays of length
    N - k + 1 given the previous value row.  For k = 1..N this yields the
    list of Q rows, one per action in ``actions`` order, and their
    elementwise maximum, the value row.  DO and THINK lead every canonical
    action set, so the first two Q rows are theirs.
    """
    W = np.zeros(N + 1)
    for k in range(1, N + 1):
        M = N - k
        Q_do, Q_th = step_values(k, W)
        pure = {ACTION_DO: Q_do, ACTION_THINK: Q_th, ACTION_IDLE: W[:M + 1]}
        # an interior mix randomizes between the pure branches
        qs = [pure[a] if isinstance(a, str) else a * Q_do + (1.0 - a) * Q_th
              for a in actions]
        row = np.maximum(qs[0], qs[1])
        for q in qs[2:]:
            np.maximum(row, q, out=row)
        yield qs, row
        W[:M + 1] = row


def _walk_no_arrival_path(N: int, actions: tuple, policy_rows, tie_rows):
    """Forward walk assuming nothing ever arrives, resolving near-ties to
    the incumbent action to suppress one-step flips."""
    path_actions = np.zeros(N, dtype=np.int8)
    path_m = np.zeros(N, dtype=np.int64)
    m = 0
    incumbent = -1
    for j in range(N):
        k = N - j
        a = int(policy_rows[k][m])
        if incumbent >= 0 and a != incumbent:
            if (int(tie_rows[k][m]) >> incumbent) & 1:
                a = incumbent
        path_actions[j] = a
        path_m[j] = m
        if actions[a] == ACTION_DO:
            m += 1
        incumbent = a
    return path_actions, path_m


def _gaps_along_path(N: int, actions: tuple, path_m: np.ndarray,
                     step_values) -> np.ndarray:
    """Second pass recording Q_think - Q_do at every path state."""
    gaps = np.zeros(N)
    for k, (qs, _) in enumerate(_backward_rows(N, actions, step_values), 1):
        m = path_m[N - k]
        gaps[N - k] = qs[1][m] - qs[0][m]
    return gaps


def _intervals_from_path(grid: Grid, actions: tuple, path_actions: np.ndarray,
                         path_gaps: Optional[np.ndarray]) -> tuple:
    """Merge the path into (start, end, action) intervals; boundaries
    between the two pure actions are refined by interpolating the
    preference gap, which is accurate below one step."""
    N = grid.n_steps
    dt = grid.dt
    if N == 0:
        return ()
    pure = {actions.index(ACTION_DO), actions.index(ACTION_THINK)}
    bounds = [0.0]
    labels = [actions[path_actions[0]]]
    for j in range(1, N):
        if path_actions[j] == path_actions[j - 1]:
            continue
        raw = j * dt
        t_switch = raw
        if (path_gaps is not None and {int(path_actions[j]),
                                       int(path_actions[j - 1])} <= pure):
            g0, g1 = path_gaps[j - 1], path_gaps[j]
            if g0 != g1 and np.isfinite(g0) and np.isfinite(g1):
                t_star = (j - 1) * dt + dt * g0 / (g0 - g1)
                t_switch = min(max(t_star, raw - dt), raw + dt)
        bounds.append(t_switch)
        labels.append(actions[path_actions[j]])
    bounds.append(N * dt)
    return tuple((bounds[i], bounds[i + 1], labels[i])
                 for i in range(len(labels)))


def extract_schedule(dp: DPSolution) -> tuple:
    """Interval list (start, end, action) along the no-arrival path; each
    boundary carries about one step of uncertainty."""
    return _intervals_from_path(dp.grid, dp.action_names, dp.path_actions,
                                dp.path_gaps)


def interval_taus(intervals) -> tuple:
    """Collapse (start, end, action) intervals to (tau1, tau2, tau3):
    leading doing, total thinking, trailing doing.  Without a thinking
    interval the whole span is the final stretch, ``(0, 0, T)``, the way
    the closed-form solver reports a doing-only schedule."""
    tau1 = tau2 = tau3 = 0.0
    seen_think = False
    for start, end, label in intervals:
        span = end - start
        if label == ACTION_THINK:
            tau2 += span
            seen_think = True
        elif seen_think:
            tau3 += span
        else:
            tau1 += span
    if not seen_think:
        return 0.0, 0.0, tau1
    return tau1, tau2, tau3


def majority_intervals(dp: DPSolution, window: float = 0.2) -> tuple:
    """Coarse-grained interval view of the no-arrival path.

    Outside the validated model class the fine-grained policy can chatter
    along a nearly indifferent stretch (the optimal control there is
    interior, and a two-action grid approximates it by alternating).  This
    view splits the horizon into windows, labels each by the action that
    occupies most of it, and merges adjacent windows, turning chatter into
    its time-averaged block structure.
    """
    N, dt = dp.grid.n_steps, dp.grid.dt
    if N == 0:
        return ()
    w = max(1, int(round(window / dt)))
    think_idx = dp.action_names.index(ACTION_THINK)
    is_think = (dp.path_actions == think_idx)
    labels = []
    starts = list(range(0, N, w))
    for s in starts:
        frac = float(np.mean(is_think[s:s + w]))
        labels.append(ACTION_THINK if frac >= 0.5 else ACTION_DO)
    intervals = []
    begin = 0.0
    for i in range(1, len(labels)):
        if labels[i] != labels[i - 1]:
            t = starts[i] * dt
            intervals.append((begin, t, labels[i - 1]))
            begin = t
    intervals.append((begin, N * dt, labels[-1]))
    return tuple(intervals)


def _assemble(grid: Grid, step_values, keep_values: bool) -> DPSolution:
    """Tables, no-arrival path and switch times of one oracle run.  The
    policy is the first action, in ``action_set`` order, that attains the
    row value; the tie bits flag every action within tolerance of it."""
    N = grid.n_steps
    actions = grid.action_set
    row = np.zeros(N + 1)  # k = 0: no time left, no value
    value_rows = [row] if keep_values else None
    policy_rows: list = [np.zeros(0, dtype=np.int8)]
    tie_rows: list = [np.zeros(0, dtype=np.uint8)]
    for qs, row in _backward_rows(N, actions, step_values):
        floor = row - _TIE_TOL
        best = np.zeros(row.size, dtype=np.int8)
        ties = np.zeros(row.size, dtype=np.uint8)
        for i in range(len(qs) - 1, -1, -1):
            best[qs[i] == row] = i
            ties |= (qs[i] >= floor).astype(np.uint8) << i
        policy_rows.append(best)
        tie_rows.append(ties)
        if keep_values:
            value_rows.append(row)
    path_actions, path_m = _walk_no_arrival_path(N, actions, policy_rows,
                                                 tie_rows)
    gaps = _gaps_along_path(N, actions, path_m, step_values)
    return DPSolution(
        grid=grid, root_value=float(row[0]), action_names=actions,
        policy_rows=policy_rows, tie_rows=tie_rows, path_actions=path_actions,
        path_m=path_m, path_gaps=gaps,
        switch_times=_intervals_from_path(grid, actions, path_actions, gaps),
        value_rows=value_rows)


# ---------------------------------------------------------------------------
# oracle variants
# ---------------------------------------------------------------------------

def _step_values(agent, grid: Grid, think):
    """Q-value rows of the triangle recursion for an agent with ``p_bar``,
    ``lam``, ``c`` and ``B``.  A doing arrival pays ``B`` with the
    posterior-weighted probability; ``think(k)`` gives the chance of a
    thinking arrival with k steps remaining (a scalar, or an array over the
    doing steps m) and what that arrival pays."""
    N = grid.n_steps
    dt = grid.dt
    p_vec = posterior(agent.p_bar, agent.lam, dt * np.arange(N + 1))
    q_do = -math.expm1(-agent.lam * dt)
    cost = agent.c * dt

    def step_values(k: int, W: np.ndarray):
        M = N - k
        s_do = p_vec[:M + 1] * q_do
        s_th, pay = think(k)
        Q_do = -cost + s_do * agent.B + (1.0 - s_do) * W[1:M + 2]
        Q_th = -cost + s_th * pay + (1.0 - s_th) * W[:M + 1]
        return Q_do, Q_th

    return step_values


def _lump_oracle(params: ModelParams, grid: Grid, lump: np.ndarray,
                 keep_values: bool) -> DPSolution:
    """A thinking arrival in the step with k steps remaining pays
    ``lump[k - 1]``."""
    q_th = -math.expm1(-params.mu * grid.dt)
    return _assemble(grid, _step_values(params, grid,
                                        lambda k: (q_th, lump[k - 1])),
                     keep_values)


def dp_reduced(params: ModelParams, model: ProgressModel, grid: Grid, *,
               keep_values: bool = True) -> DPSolution:
    """Reduced-model oracle: a thinking arrival pays the value-of-progress
    lump evaluated at the middle of the arrival step."""
    _check_grid(grid)
    lump = progress_value_array(
        model, (np.arange(1, grid.n_steps + 1) - 0.5) * grid.dt)
    return _lump_oracle(params, grid, lump, keep_values)


def _stage2_entry_values(params: ModelParams, stage2: ProgressModel,
                         grid: Grid) -> np.ndarray:
    """Value of entering the post-progress phase with k steps remaining,
    working the second arm (or idling once it stops being worth it)."""
    N = grid.n_steps
    dt = grid.dt
    if isinstance(stage2, SafeArm):
        q2 = -math.expm1(-stage2.nu * dt)
        pv = np.zeros(N + 1)
        for k in range(1, N + 1):
            work = (-stage2.c_nu * dt + q2 * stage2.B_nu
                    + (1.0 - q2) * pv[k - 1])
            pv[k] = max(pv[k - 1], work)
        return pv
    if isinstance(stage2, RiskyArm):
        q2 = -math.expm1(-stage2.nu * dt)
        p2 = posterior(stage2.p_bar_nu, stage2.nu, dt * np.arange(N + 2))
        rows = np.zeros(N + 2)
        entry = np.zeros(N + 1)
        for k in range(1, N + 1):
            s2 = p2[:N + 1] * q2
            work = (-stage2.c_nu * dt + s2 * stage2.B_nu
                    + (1.0 - s2) * rows[1:N + 2])
            rows[:N + 1] = np.maximum(rows[:N + 1], work)
            entry[k] = rows[0]
        return entry
    raise ValueError(
        "second stage must be a known-rate or belief-tracked arm "
        f"(SafeArm/RiskyArm), got {type(stage2).__name__}")


def dp_two_stage(params: ModelParams, stage2: ProgressModel, grid: Grid, *,
                 keep_values: bool = False) -> DPSolution:
    """Two-stage oracle: a thinking arrival moves the agent to an explicit
    second arm which is then worked until it pays off or time runs out.

    The pre-progress tables have the same shape as the reduced oracle; the
    lump paid on progress is the second stage's own optimal value, averaged
    across the arrival step."""
    _check_grid(grid)
    entry = _stage2_entry_values(params, stage2, grid)
    lump = 0.5 * (entry[:-1] + entry[1:])
    return _lump_oracle(params, grid, lump, keep_values)


def dp_no_feedback(nf: NoFeedbackModel, T: float, grid: Optional[Grid] = None,
                   *, dt: float = 2e-3, keep_values: bool = False
                   ) -> DPSolution:
    """Unobserved-progress oracle.

    A thinking step pays off when the two-stage pipeline delivers a
    solution during the step, conditional on not having delivered one over
    the accumulated thinking time so far; a doing step pays off with the
    posterior-weighted arrival probability.  Built from event probabilities
    of the underlying race, not from any reduced-form preference object.
    """
    if grid is None:
        grid = Grid.from_horizon(T, dt)
    _check_grid(grid)
    N = grid.n_steps
    # survival of the thinking pipeline after j thinking steps, and the
    # chance that step j + 1 delivers given that the first j did not
    surv = 1.0 - no_solution_prob(nf, grid.dt * np.arange(N + 2))
    arrive = 1.0 - surv[1:] / surv[:-1]
    # at (k, m) the agent has thought for N - k - m steps
    return _assemble(grid, _step_values(nf, grid,
                                        lambda k: (arrive[N - k::-1], nf.B)),
                     keep_values)
