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

_TIE_TOL = 1e-12
# what one oracle run may keep: its policy and (kept) value rows, the
# path's tie masks and the checkpoint rows of its gap pass
_BYTE_BUDGET = 1 << 30


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
    ``tie_rows[j]`` is the bitmask of the actions within tolerance of the
    best at the j-th no-arrival path state (N - j, ``path_m[j]``).
    ``switch_times`` lists (start, end, action) intervals along the
    no-arrival path, with boundaries refined below step resolution where
    the recursion's preference gap allows it.
    """

    grid: Grid
    root_value: float
    action_names: tuple
    policy_rows: list
    tie_rows: np.ndarray
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


def _checkpoint_stride(N: int) -> int:
    """The gap pass keeps every S-th value row, about N^1.5 / 2 cells, and
    rebuilds the rows between them in S steps."""
    return max(1, math.isqrt(N))


def _check_grid(grid: Grid, keep_values: bool) -> None:
    if grid.dt > 0.01:
        raise CoarseGridError(
            f"grid too coarse: dt={grid.dt} exceeds the 0.01 cap")
    N = grid.n_steps
    S = _checkpoint_stride(N)
    n_checkpoints = -(-N // S)  # rows k = 0, S, 2S, ... below N
    need = (N * (N + 1) // 2 + N  # policy rows and path ties, 1 byte each
            + 8 * (n_checkpoints * (N + 1)
                   - S * n_checkpoints * (n_checkpoints - 1) // 2))
    if keep_values:
        need += 8 * ((N + 1) * (N + 2) // 2)
    if need > _BYTE_BUDGET:
        fix = ("pass keep_values=False (1 byte a cell instead of 9)"
               if keep_values else "use fewer steps")
        raise ValueError(
            f"memory budget: n_steps={N} would keep {need} bytes of tables, "
            f"over the {_BYTE_BUDGET}-byte budget; {fix}")


# ---------------------------------------------------------------------------
# shared backward recursion over the (k, m) triangle
# ---------------------------------------------------------------------------

def _action_values(W: np.ndarray, coef: tuple, actions: tuple,
                   q_do: np.ndarray, q_th: np.ndarray) -> list:
    """The one Q builder: Q of every action, in ``actions`` order, on the
    cells that the buffers ``q_do`` and ``q_th`` cover, from the previous
    value row W (or a stack of row windows, one per row of a 2-D W).

    ``coef = (a_do, b_do, a_th, b_th)`` makes each pure Q affine in the
    next state's value: DO moves to m + 1 (``b_do * W[m+1] + a_do``), THINK
    and IDLE stay at m, and an interior mix randomizes between DO and
    THINK.  DO and THINK lead every canonical action set."""
    a_do, b_do, a_th, b_th = coef
    n = q_do.shape[-1]
    np.multiply(b_do, W[..., 1:n + 1], out=q_do)
    np.add(q_do, a_do, out=q_do)
    np.multiply(b_th, W[..., :n], out=q_th)
    np.add(q_th, a_th, out=q_th)
    pure = {ACTION_DO: q_do, ACTION_THINK: q_th, ACTION_IDLE: W[..., :n]}
    return [pure[a] if isinstance(a, str) else a * q_do + (1.0 - a) * q_th
            for a in actions]


def _best_action(qs: list, row: np.ndarray,
                 best: Optional[np.ndarray] = None) -> None:
    """The one action reduction: ``row`` gets the elementwise maximum of
    the Q arrays and ``best``, when given, the first action, in list
    order, that attains it (``argmax``'s rule): an action takes over only
    where it is strictly above the running maximum."""
    np.maximum(qs[0], qs[1], out=row)
    if best is not None:
        np.less(qs[0], qs[1], out=best.view(bool))
    for i, q in enumerate(qs[2:], 2):
        if best is not None:
            np.copyto(best, i, where=row < q)
        np.maximum(row, q, out=row)


def _walk_no_arrival_path(N: int, actions: tuple, policy_rows,
                          known_m: Optional[np.ndarray] = None,
                          ties: Optional[np.ndarray] = None):
    """Forward walk assuming nothing ever arrives, resolving near-ties to
    the incumbent action to suppress one-step flips.  The tie masks
    ``ties[j]`` hold at the states (N - j, ``known_m[j]``) of an earlier
    walk; elsewhere the walk follows the policy alone.  The walk is a
    scalar loop, so it reads and writes the arrays through memoryviews,
    which trade in Python ints instead of numpy scalars."""
    does = [a == ACTION_DO for a in actions]
    path_actions = np.zeros(N, dtype=np.int8)
    path_m = np.zeros(N, dtype=np.int64)
    acts, ms = memoryview(path_actions), memoryview(path_m)
    if known_m is not None:
        known_m, ties = memoryview(known_m), memoryview(ties)
    m = 0
    incumbent = -1
    for j in range(N):
        a = policy_rows[N - j].item(m)
        if (a != incumbent and incumbent >= 0 and known_m is not None
                and known_m[j] == m and ties[j] >> incumbent & 1):
            a = incumbent
        acts[j] = a
        ms[j] = m
        if does[a]:
            m += 1
        incumbent = a
    return path_actions, path_m


def _gaps_along_path(N: int, actions: tuple, path_m: np.ndarray, coef,
                     checkpoints: list, S: int) -> tuple:
    """Q_think - Q_do and the tie mask (the bits of the actions within
    ``_TIE_TOL`` of the best) at every path state, rebuilt from the value
    rows k = 0, S, 2S, ... kept by the first pass.

    Segment s rebuilds rows c+1..c+S from checkpoint row c = s*S, but only
    on the window of m that its path states depend on: the path's m range
    over the segment plus S + 1.  All segments advance together as one 2-D
    array, so the pass takes S vectorized steps.  Every path state reads
    the same operands as in the first pass, so its gap is bit-identical;
    cells outside the triangle read clipped coefficients and are never
    read by a cell inside it."""
    gaps, ties = np.zeros(N), np.zeros(N, dtype=np.uint8)
    if N == 0:
        return gaps, ties
    c = np.arange(0, N, S)  # each segment's checkpoint row
    # m never falls along the path (j = N - k), so a segment's path states
    # span m from lo, at its last row, to hi, at its first row c + 1
    lo = path_m[N - np.minimum(c + S, N)]
    hi = path_m[N - 1 - c]
    w = int((hi - lo).max()) + S + 1
    V = np.zeros((c.size, w))
    for s, row in enumerate(checkpoints):
        part = row[lo[s]:lo[s] + w]
        V[s, :part.size] = part
    nxt, q_do, q_th = np.empty_like(V), np.empty_like(V), np.empty_like(V)
    m = lo[:, None] + np.arange(w)
    segments = np.arange(c.size)
    for t in range(1, S + 1):
        n = w - t
        k = np.minimum(c[:, None] + t, N)
        qs = _action_values(V, coef(k, np.minimum(m[:, :n], N - k)), actions,
                            q_do[:, :n], q_th[:, :n])
        _best_action(qs, nxt[:, :n])
        live = c + t <= N  # the last segment may be partial
        j = N - t - c[live]
        at = segments[live], path_m[j] - lo[live]
        gaps[j] = qs[1][at] - qs[0][at]
        floor = nxt[at] - _TIE_TOL
        for b, q in enumerate(qs):
            ties[j] |= (q[at] >= floor).astype(np.uint8) << b
        V, nxt = nxt, V
    return gaps, ties


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
    """Interval list (start, end, action) along the no-arrival path, as
    stored in ``switch_times``; each boundary carries about one step of
    uncertainty."""
    return dp.switch_times


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


def _assemble(grid: Grid, coef, keep_values: bool) -> DPSolution:
    """Tables, no-arrival path and switch times of one oracle run, from
    the backward recursion over full rows.

    ``coef(k, m)`` returns the affine coefficients of `_action_values` at
    k steps remaining on the doing counts m (a slice here).  The value row
    alternates between two buffers and is copied only to be kept.  The
    policy is the first action, in ``action_set`` order, that attains the
    row value.  The tie bits are needed only along the no-arrival path, so
    the gap pass supplies them: walk, rebuild the path's gaps and ties,
    and walk again until the path stops moving.  A walk is exact up to the
    first state off the previous path, so each pass gains a state."""
    N = grid.n_steps
    actions = grid.action_set
    S = _checkpoint_stride(N)
    W, nxt = np.zeros(N + 1), np.empty(N + 1)  # k = 0: no time left, no value
    checkpoints = [W.copy()]
    value_rows = [checkpoints[0]] if keep_values else None
    policy_rows: list = [np.zeros(0, dtype=np.int8)]
    q_do, q_th = np.empty(N), np.empty(N)
    for k in range(1, N + 1):
        n = N - k + 1
        qs = _action_values(W, coef(k, np.s_[:n]), actions, q_do[:n],
                            q_th[:n])
        best = np.empty(n, dtype=np.int8)
        _best_action(qs, nxt[:n], best)
        policy_rows.append(best)
        if keep_values:
            value_rows.append(nxt[:n].copy())
        if k % S == 0 and k < N:
            checkpoints.append(nxt[:n].copy())
        W, nxt = nxt, W
    path_actions, path_m = _walk_no_arrival_path(N, actions, policy_rows)
    while True:
        gaps, ties = _gaps_along_path(N, actions, path_m, coef, checkpoints, S)
        path_actions, walked = _walk_no_arrival_path(N, actions, policy_rows,
                                                     path_m, ties)
        if np.array_equal(walked, path_m):
            break
        path_m = walked
    return DPSolution(
        grid=grid, root_value=float(W[0]), action_names=actions,
        policy_rows=policy_rows, tie_rows=ties, path_actions=path_actions,
        path_m=path_m, path_gaps=gaps,
        switch_times=_intervals_from_path(grid, actions, path_actions, gaps),
        value_rows=value_rows)


# ---------------------------------------------------------------------------
# oracle variants
# ---------------------------------------------------------------------------

def _step_values(agent, grid: Grid, chance, pay, at):
    """Affine Q coefficients of the triangle recursion for an agent with
    ``p_bar``, ``lam``, ``c`` and ``B``, as the function ``coef(k, m)`` that
    `_action_values` reads.  A doing arrival pays ``B`` with the
    posterior-weighted probability.  A thinking arrival at state (k, m)
    happens with probability ``chance[at(k, m)]`` and pays
    ``pay[at(k, m)]``; one of the two may be a scalar.  The vectors are
    built once, so a row only slices (or, for a window, gathers) them."""
    N = grid.n_steps
    dt = grid.dt
    s_do = posterior(agent.p_bar, agent.lam, dt * np.arange(N + 1)) * (
        -math.expm1(-agent.lam * dt))
    cost = agent.c * dt
    a_do = -cost + s_do * agent.B
    b_do = 1.0 - s_do
    a_th = -cost + chance * pay
    b_th = np.broadcast_to(1.0 - chance, a_th.shape)

    def coef(k, m):
        i = at(k, m)
        return a_do[m], b_do[m], a_th[i], b_th[i]

    return coef


def _lump_oracle(params: ModelParams, grid: Grid, lump: np.ndarray,
                 keep_values: bool) -> DPSolution:
    """A thinking arrival in the step with k steps remaining pays
    ``lump[k - 1]``."""
    q_th = -math.expm1(-params.mu * grid.dt)
    return _assemble(grid, _step_values(params, grid, q_th, lump,
                                        lambda k, m: k - 1),
                     keep_values)


def dp_reduced(params: ModelParams, model: ProgressModel, grid: Grid, *,
               keep_values: bool = True) -> DPSolution:
    """Reduced-model oracle: a thinking arrival pays the value-of-progress
    lump evaluated at the middle of the arrival step."""
    _check_grid(grid, keep_values)
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
        s2 = p2[:N + 1] * q2
        a2 = -stage2.c_nu * dt + s2 * stage2.B_nu
        b2 = 1.0 - s2
        rows = np.zeros(N + 2)
        work = np.empty(N + 1)
        entry = np.zeros(N + 1)
        for k in range(1, N + 1):
            np.multiply(b2, rows[1:], out=work)
            np.add(work, a2, out=work)
            np.maximum(rows[:N + 1], work, out=rows[:N + 1])
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
    _check_grid(grid, keep_values)
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
    _check_grid(grid, keep_values)
    N = grid.n_steps
    # survival of the thinking pipeline after j thinking steps, and the
    # chance that step j + 1 delivers given that the first j did not
    surv = 1.0 - no_solution_prob(nf, grid.dt * np.arange(N + 2))
    arrive = 1.0 - surv[1:] / surv[:-1]
    # at (k, m) the agent has thought for N - k - m steps; m arrives as a
    # slice (a full row, m = 0..N-k, read as a reversed view) or as an
    # index array (a gap-pass window, gathered)
    return _assemble(grid, _step_values(
        nf, grid, arrive, nf.B,
        lambda k, m: (slice(N - k, None, -1) if isinstance(m, slice)
                      else N - k - m)), keep_values)
