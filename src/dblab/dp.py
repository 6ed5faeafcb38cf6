"""Discrete-time dynamic-programming oracle.

Independent cross-check for the schedule solver: backward recursion on a
(remaining steps, doing steps used) triangle with exact per-step
exponential arrival probabilities.  Variants cover the reduced model (a
progress arrival pays the value-of-progress lump), the explicit two-stage
model (a progress arrival opens a second arm, worked step by step; a risky
one by the same row step), and the unobserved-progress model.

Belief enters only through the count of unrewarded doing steps, so the
state space is exact; no belief grid is involved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    ModelParams,
    ProgressModel,
    RiskyArm,
    SafeArm,
    _as_taus,
    _runs,
    posterior,
    progress_value_array,
)
from .nofeedback import NoFeedbackModel, no_solution_prob

ACTION_DO = "DO"
ACTION_THINK = "THINK"
ACTION_IDLE = "IDLE"

_TIE_TOL = 1e-12
# rows the backward pass advances at one width (see `_assemble`)
_BLOCK = 32
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
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {self.n_steps}")
        object.__setattr__(self, "action_set",
                           _canonical_actions(self.action_set))

    @classmethod
    def from_horizon(cls, T: float, dt: float,
                     action_set: Sequence = (ACTION_DO, ACTION_THINK)) -> "Grid":
        # a dt that is not positive (NaN too) leaves no steps, for the
        # constructor to refuse by name
        n = int(round(T / dt)) if T > 0.0 and dt > 0.0 else 0
        return cls(dt, n, tuple(action_set))

    @property
    def horizon(self) -> float:
        return self.dt * self.n_steps


@dataclass
class DPSolution:
    """Tables and extracted switch structure of one oracle run.

    ``value_rows[k][m]`` is the optimal continuation value with k steps
    remaining after m unrewarded doing steps (``None`` unless kept; each
    kept row is an array of its own, N - k + 1 long);
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
    N, S = grid.n_steps, _checkpoint_stride(grid.n_steps)
    n_checkpoints = -(-N // S)  # rows k = 0, S, 2S, ... below N
    # 1 byte a policy cell and a path tie mask, 8 a kept value cell; the gap
    # pass reads its checkpoints off kept rows, or keeps copies of its own
    need = N * (N + 1) // 2 + N + 8 * (
        (N + 1) * (N + 2) // 2 if keep_values else n_checkpoints * (N + 1)
        - S * n_checkpoints * (n_checkpoints - 1) // 2)
    if need > _BYTE_BUDGET:
        fix = ("pass keep_values=False (1 byte a cell instead of 9)"
               if keep_values else "use fewer steps")
        raise ValueError(
            f"memory budget: n_steps={N} would keep {need} bytes of tables, "
            f"over the {_BYTE_BUDGET}-byte budget; {fix}")


# ---------------------------------------------------------------------------
# shared backward recursion over the (k, m) triangle
# ---------------------------------------------------------------------------

def _row_step(w_th: np.ndarray, w_do: np.ndarray, do: Sequence,
              th: Sequence, extras: tuple, q: Sequence, row: np.ndarray,
              policy: Optional[tuple] = None) -> None:
    """One row of the backward recursion, the step every pass shares.  From
    the previous value row read at m (``w_th``) and m + 1 (``w_do``), a row
    or a stack of windows, ``q[i]`` gets Q of the i-th action (the last
    slot is scratch) and ``row`` their maximum.  DO's Q is ``a + b * w_do``
    for ``do = (a, b)``, THINK's the same in ``w_th`` by ``th``; after them
    come the ``extras``, (index, mix) pairs: IDLE (mix None) keeps the
    value at m (its slot stays unwritten), a mix randomizes.  With
    ``policy = (best, mask)`` (bool, ``mask`` scratch) ``best``, read as
    int8, gets the first action that attains the row value (``argmax``'s
    rule)."""
    (a_do, b_do), (a_th, b_th), q_do, q_th = do, th, q[0], q[1]
    np.multiply(b_do, w_do, out=q_do)
    np.add(q_do, a_do, out=q_do)
    np.multiply(b_th, w_th, out=q_th)
    np.add(q_th, a_th, out=q_th)
    np.maximum(q_do, q_th, out=row)
    if policy:
        best, mask = policy
        np.less(q_do, q_th, out=best)
    for i, mix in extras:
        qi = w_th
        if mix is not None:
            qi = q[i]
            np.multiply(mix, q_do, out=qi)
            np.multiply(1.0 - mix, q_th, out=q[-1])
            np.add(qi, q[-1], out=qi)
        if policy:
            np.less(row, qi, out=mask)
            np.putmask(best.view(np.int8), mask, i)
        np.maximum(row, qi, out=row)


def _walk_no_arrival_path(N: int, actions: tuple, policy: np.ndarray,
                          known_m: Optional[np.ndarray] = None,
                          ties: Optional[np.ndarray] = None):
    """Forward walk assuming nothing ever arrives, resolving near-ties to
    the incumbent action to suppress one-step flips, on the policy rows
    k = 1..N stored back to back.  The tie masks ``ties[j]`` hold at the
    states (N - j, ``known_m[j]``) of an earlier walk; elsewhere the walk
    follows the policy alone.  The walk is a scalar loop, so it reads and
    writes the arrays through memoryviews, which trade in Python ints
    instead of numpy scalars."""
    does = [a == ACTION_DO for a in actions]
    path_actions = np.zeros(N, dtype=np.int8)
    path_m = np.zeros(N, dtype=np.int64)
    acts, ms, pol = map(memoryview, (path_actions, path_m, policy))
    if known_m is not None:
        known_m, ties = memoryview(known_m), memoryview(ties)
    m = 0
    incumbent = -1
    start = (N - 1) * (N + 2) // 2  # row N: rows 1..N-1 are N..2 long
    for j in range(N):
        a = pol[start + m]
        start -= j + 2  # row N - j - 1 is j + 2 long
        if (a != incumbent and incumbent >= 0 and known_m is not None
                and known_m[j] == m and ties[j] >> incumbent & 1):
            a = incumbent
        acts[j] = a
        ms[j] = m
        if does[a]:
            m += 1
        incumbent = a
    return path_actions, path_m


def _gaps_along_path(N: int, extras: tuple, path_m: np.ndarray, coef: tuple,
                     checkpoints: list, S: int) -> tuple:
    """Q_think - Q_do and the tie mask (the bits of the actions within
    ``_TIE_TOL`` of the best) at every path state, rebuilt from the value
    rows k = 0, S, 2S, ... kept by the first pass.

    Segment s rebuilds rows c+1..c+S from checkpoint row c = s*S, but only
    on the window of m that its path states depend on: the path's m range
    over the segment plus S + 1.  All segments advance together as the
    columns of one 2-D array (m down the rows, so a step's operands are
    contiguous) in S vectorized steps, on coefficients gathered once (a
    step's THINK rows are the last step's shifted by one).  Every path
    state reads the same operands as in the first pass, so its gap is
    bit-identical; cells outside the triangle read clipped coefficients
    and are never read by a cell inside it."""
    gaps, ties = np.zeros(N), np.zeros(N, dtype=np.uint8)
    if N == 0:
        return gaps, ties
    a_do, b_do, a_th, b_th, along = coef
    c = np.arange(0, N, S)  # each segment's checkpoint row
    # m never falls along the path (j = N - k), so a segment's path states
    # span m from lo, at its last row, to hi, at its first row c + 1
    lo = path_m[N - np.minimum(c + S, N)]
    hi = path_m[N - 1 - c]
    w = int((hi - lo).max()) + S + 1
    V = np.zeros((w, c.size))
    for s, row in enumerate(checkpoints):
        part = row[lo[s]:lo[s] + w]
        V[:part.size, s] = part
    nxt, segments = np.empty_like(V), np.arange(c.size)
    m = np.minimum(lo + np.arange(w)[:, None], N)
    do = np.stack((a_do[m], b_do[m]))
    # step t (from 0) rebuilds row k = c + t + 1 of each segment (past N
    # when the last segment is partial), with path state j = N - k
    th = np.minimum(c + 1 + along * lo + np.arange(S + along * w)[:, None],
                    a_th.size - 1)
    th = np.stack((a_th[th], b_th[th]))
    j = N - c - np.arange(1, S + 1)[:, None]
    live = j >= 0
    at = np.where(live, path_m[np.maximum(j, 0)] - lo, 0)
    n_actions = 2 + len(extras)
    idle = [i for i, mix in extras if mix is None]
    q = np.empty((n_actions + 1, w, c.size))
    q_at = np.empty((n_actions, S, c.size))
    for t in range(S):
        n = w - t - 1
        rows = slice(t, t + (n if along else 1))
        _row_step(V[:n], V[1:n + 1], do[:, :n], th[:, rows], extras,
                  q[:, :n], nxt[:n])
        q_at[:, t] = q[:n_actions, at[t], segments]
        q_at[idle, t] = V[at[t], segments]  # IDLE's Q: the value at m
        V, nxt = nxt, V
    # the row value is the largest Q, so the tie floor comes from q_at
    j, q_at = j[live], q_at[:, live]
    gaps[j] = q_at[1] - q_at[0]
    bits = np.arange(n_actions, dtype=np.uint8)[:, None]
    ties[j] = np.bitwise_or.reduce(
        (q_at >= q_at.max(axis=0) - _TIE_TOL) << bits, axis=0)
    return gaps, ties


def _intervals_from_path(grid: Grid, actions: tuple, path_actions: np.ndarray,
                         path_gaps: np.ndarray) -> tuple:
    """Merge the path into (start, end, action) intervals; boundaries
    between the two pure actions are refined by interpolating the
    preference gap, which is accurate below one step."""
    N, dt = grid.n_steps, grid.dt
    j, runs = _runs(path_actions)
    raw = j * dt
    g0, g1 = path_gaps[j - 1], path_gaps[j]
    # DO and THINK are actions 0 and 1; a switch between them is refined
    refine = ((np.maximum(path_actions[j - 1], path_actions[j]) <= 1)
              & (g0 != g1) & np.isfinite(g0) & np.isfinite(g1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_star = (j - 1) * dt + dt * g0 / (g0 - g1)
    bounds = [0.0, *np.where(refine, np.minimum(np.maximum(t_star, raw - dt),
                                                raw + dt), raw).tolist(),
              N * dt]
    labels = [actions[a] for a in runs.tolist()]
    return tuple(zip(bounds[:-1], bounds[1:], labels))


def extract_schedule(dp: DPSolution) -> tuple:
    """Interval list (start, end, action) along the no-arrival path, as
    stored in ``switch_times``; each boundary carries about one step of
    uncertainty."""
    return dp.switch_times


def agreement(schedule, dp: DPSolution) -> dict:
    """Judge a schedule, or a plain (tau1, tau2, tau3), against the
    oracle's path: the ``solver`` and ``oracle`` taus, the ``tolerance``
    5*dt, ``pass``, and a ``reason`` on a failure.  The path has a tau form
    (else ``oracle`` is None) when it has at most three intervals, DO and
    THINK labels only and at most one THINK block.  A thinking block under one step cannot show
    on the grid: when 0 < tau2 < dt and the path never thinks, the schedule
    is judged as the doing-only one, given as ``judged_as_do_only``."""
    dt = dp.grid.dt
    tol = 5.0 * dt
    judged = list(_as_taus(schedule))
    report = {"solver": judged, "oracle": None, "tolerance": tol}
    labels = [lab for *_, lab in dp.switch_times]
    think = [(a, b) for a, b, lab in dp.switch_times if lab == ACTION_THINK]
    if (len(labels) > 3 or len(think) > 1
            or not set(labels) <= {ACTION_DO, ACTION_THINK}):
        return {**report, "pass": False,
                "reason": f"the oracle's path {labels} has no tau form"}
    (a, b), = think or [(0.0, 0.0)]  # a path that never thinks: (0, 0, T)
    report["oracle"] = oracle = [a, b - a, dp.grid.horizon - b]
    if not think and 0.0 < judged[1] < dt:
        judged = report["judged_as_do_only"] = [0.0, 0.0, sum(judged)]
    off = [f"tau{i} ({abs(o - s):.6g})" for i, (o, s) in
           enumerate(zip(oracle, judged), 1) if not abs(o - s) <= tol]
    report["pass"] = not off
    if off:
        report["reason"] = f"|solver - oracle| > {tol:.6g} at {', '.join(off)}"
    return report


def majority_intervals(dp: DPSolution, window: float = 0.2) -> tuple:
    """Coarse-grained interval view of the no-arrival path.

    Outside the validated model class the fine-grained policy can chatter
    along a nearly indifferent stretch (the optimal control there is
    interior, and a two-action grid approximates it by alternating).  This
    view splits the horizon into windows (the last may be partial), labels
    each THINK when thinking fills at least half of it and DO otherwise,
    and merges adjacent windows, turning chatter into its time-averaged
    block structure.
    """
    N, dt = dp.grid.n_steps, dp.grid.dt
    starts = np.arange(0, N, max(1, int(round(window / dt))))
    is_think = dp.path_actions == dp.action_names.index(ACTION_THINK)
    share = np.add.reduceat(is_think, starts, dtype=np.int64) / np.diff(
        np.r_[starts, N])
    j, runs = _runs(share >= 0.5)
    bounds = [0.0, *(starts[j] * dt).tolist(), N * dt]
    labels = [ACTION_THINK if r else ACTION_DO for r in runs.tolist()]
    return tuple(zip(bounds[:-1], bounds[1:], labels))


def _assemble(grid: Grid, coef: tuple, keep_values: bool) -> DPSolution:
    """Tables, no-arrival path and switch times of one oracle run, from
    the backward recursion.

    ``coef = (a_do, b_do, a_th, b_th, along)``: `_row_step`'s affine
    coefficients, DO's as vectors over the doing count m and THINK's at
    (k, m) as their entry k + along * m (``along`` is 0 or 1).  The rows
    advance in blocks of ``_BLOCK``, each at the width of its block's first
    row, so the views of buffers, Q scratch and coefficients are set up
    once a block.  A cell inside the triangle reads only cells inside it,
    so the cells past the edge (zero or stale, on padded coefficients)
    never reach it.  Only the inside is kept, N - k + 1 long: policy rows
    as views into one buffer (the next row overwrites a row's excess),
    kept value rows and checkpoints as copies.  The policy is the first
    action, in ``action_set`` order, that attains the row value.
    The gap pass supplies the tie bits along the no-arrival path: walk,
    rebuild the path's gaps and ties, and walk again until the path stops
    moving.  A walk can first leave the last path only at a switch whose
    incumbent is tied, so it is rerun only when one is; each rerun gains a
    state."""
    N, actions = grid.n_steps, grid.action_set
    extras = tuple((i, None if a == ACTION_IDLE else a)
                   for i, a in enumerate(actions[2:], 2))
    a_do, b_do, a_th, b_th, along = coef
    # THINK's coefficients as (k, m) tables, views of the vectors
    think = [np.lib.stride_tricks.as_strided(
        v, (N + 1, N + 1), (v.strides[0], along * v.strides[0]),
        writeable=False) for v in (a_th, b_th)]
    S = _checkpoint_stride(N)
    W = np.zeros((2, N + 1))  # row k goes to W[k % 2]; k = 0: no value
    rows = [np.zeros(N + 1)]  # the kept rows, or checkpoints
    policy = np.empty(N * (N + 1) // 2 + _BLOCK, dtype=np.int8)
    best, policy_rows = policy.view(bool), [policy[:0]]
    q, mask = np.empty((len(actions) + 1, N)), np.empty(N, dtype=bool)
    start = 0  # where row k starts in ``policy``
    for k0 in range(1, N + 1, _BLOCK):
        n0 = N - k0 + 1
        w_th, w_do = W[(k0 - 1) % 2, :n0], W[(k0 - 1) % 2, 1:n0 + 1]
        row, spare = W[k0 % 2, :n0], W[k0 % 2, 1:n0 + 1]
        qs, do, scratch = tuple(q[:, :n0]), (a_do[:n0], b_do[:n0]), mask[:n0]
        for k, th in enumerate(zip(*(t[k0:k0 + _BLOCK, :n0] for t in think)),
                               k0):
            _row_step(w_th, w_do, do, th, extras, qs, row,
                      (best[start:start + n0], scratch))
            n = N - k + 1
            policy_rows.append(policy[start:start + n])
            start += n
            if keep_values or k % S == 0 and k < N:
                rows.append(row[:n].copy())
            w_th, w_do, row, spare = row, spare, w_th, w_do
    checkpoints = rows[:N:S] if keep_values else rows
    path_actions, path_m = _walk_no_arrival_path(N, actions, policy)
    while True:
        gaps, ties = _gaps_along_path(N, extras, path_m, coef, checkpoints, S)
        j, _ = _runs(path_actions)
        if not np.any(ties[j] >> path_actions[j - 1] & 1):
            break
        path_actions, walked = _walk_no_arrival_path(N, actions, policy,
                                                     path_m, ties)
        if np.array_equal(walked, path_m):
            break
        path_m = walked
    return DPSolution(
        grid=grid, root_value=float(W[N % 2, 0]), action_names=actions,
        policy_rows=policy_rows, tie_rows=ties, path_actions=path_actions,
        path_m=path_m, path_gaps=gaps,
        switch_times=_intervals_from_path(grid, actions, path_actions, gaps),
        value_rows=rows if keep_values else None)


# ---------------------------------------------------------------------------
# oracle variants
# ---------------------------------------------------------------------------

def _step_values(agent, grid: Grid, chance, pay, along: int) -> tuple:
    """Affine Q coefficients of the triangle recursion for an agent with
    ``p_bar``, ``lam``, ``c`` and ``B``, as the ``coef`` that `_assemble`
    reads.  A doing arrival pays ``B`` with the posterior-weighted
    probability.  A thinking arrival at state (k, m) happens with
    probability ``chance[k + along * m]`` and pays ``pay[k + along * m]``;
    one of the two may be a scalar."""
    N = grid.n_steps
    dt = grid.dt
    s_do = posterior(agent.p_bar, agent.lam, dt * np.arange(N + 1)) * (
        -math.expm1(-agent.lam * dt))
    cost = agent.c * dt
    a_th = -cost + chance * pay
    return (-cost + s_do * agent.B, 1.0 - s_do, a_th,
            np.broadcast_to(1.0 - chance, a_th.shape), along)


def _lump_oracle(params: ModelParams, grid: Grid, lump: np.ndarray,
                 keep_values: bool) -> DPSolution:
    """A thinking arrival in the step with k steps remaining pays
    ``lump[k - 1]``."""
    q_th = -math.expm1(-params.mu * grid.dt)
    return _assemble(grid, _step_values(params, grid, q_th,
                                        np.r_[0.0, lump], 0), keep_values)


def dp_reduced(params: ModelParams, model: ProgressModel, grid: Grid, *,
               keep_values: bool = True) -> DPSolution:
    """Reduced-model oracle: a thinking arrival pays the value-of-progress
    lump evaluated at the middle of the arrival step."""
    _check_grid(grid, keep_values)
    lump = progress_value_array(
        model, (np.arange(1, grid.n_steps + 1) - 0.5) * grid.dt)
    return _lump_oracle(params, grid, lump, keep_values)


def _stage2_entry_values(stage2: ProgressModel, grid: Grid) -> np.ndarray:
    """Value of entering the post-progress phase with k steps remaining,
    working the second arm or stopping (idling) once it is not worth it.
    A sure arm's belief never moves, so one scalar per k; a risky arm's
    recursion runs on the (k, pulls) triangle by `_row_step`, with
    stopping as THINK's coefficients (0, 1): it keeps the value at m."""
    if not isinstance(stage2, (SafeArm, RiskyArm)):
        raise ValueError(
            "second stage must be a known-rate or belief-tracked arm "
            f"(SafeArm/RiskyArm), got {type(stage2).__name__}")
    p2, nu, b2, c2, _ = stage2._arm
    N, dt = grid.n_steps, grid.dt
    q2 = -math.expm1(-nu * dt)
    if p2 == 1.0:
        gain, keep = -c2 * dt + q2 * b2, 1.0 - q2
        return np.fromiter(itertools.accumulate(
            range(N), lambda e, _: max(e, gain + keep * e), initial=0.0),
            float, N + 1)
    s2 = posterior(p2, nu, dt * np.arange(N)) * q2
    a_work, b_work = -c2 * dt + s2 * b2, 1.0 - s2
    entry = np.zeros(N + 1)
    W, spare, q = np.zeros(N + 1), np.empty(N + 1), np.empty((2, N))
    for k in range(1, N + 1):
        n = N - k + 1
        _row_step(W[:n], W[1:n + 1], (a_work[:n], b_work[:n]), (0.0, 1.0),
                  (), q[:, :n], spare[:n])
        W, spare = spare[:n], W
        entry[k] = W[0]
    return entry


def dp_two_stage(params: ModelParams, stage2: ProgressModel,
                 grid: Grid) -> DPSolution:
    """Two-stage oracle: a thinking arrival moves the agent to an explicit
    second arm which is then worked until it pays off or time runs out.

    The pre-progress tables have the same shape as the reduced oracle; the
    lump paid on progress is the second stage's own optimal value, averaged
    across the arrival step."""
    _check_grid(grid, False)
    entry = _stage2_entry_values(stage2, grid)
    lump = 0.5 * (entry[:-1] + entry[1:])
    return _lump_oracle(params, grid, lump, False)


def dp_no_feedback(nf: NoFeedbackModel, T: float,
                   grid: Optional[Grid] = None) -> DPSolution:
    """Unobserved-progress oracle over the horizon ``T``, on ``grid`` or by
    default in steps of 2e-3; a grid must span T.

    A thinking step pays off when the two-stage pipeline delivers a
    solution during the step, conditional on not having delivered one over
    the accumulated thinking time so far; a doing step pays off with the
    posterior-weighted arrival probability.  Built from event probabilities
    of the underlying race, not from any reduced-form preference object.
    """
    if grid is None:
        grid = Grid.from_horizon(T, 2e-3)
    elif grid.n_steps != Grid.from_horizon(T, grid.dt).n_steps:
        raise ValueError(f"grid of {grid.n_steps} steps of {grid.dt} does "
                         f"not span the horizon T = {T}")
    _check_grid(grid, False)
    N = grid.n_steps
    # survival of the thinking pipeline after j thinking steps, and the
    # chance that step j + 1 delivers given that the first j did not
    surv = 1.0 - no_solution_prob(nf, grid.dt * np.arange(N + 2))
    arrive = 1.0 - surv[1:] / surv[:-1]
    # at (k, m) the agent has thought for N - k - m steps: entry k + m of
    # the chances stored back to front, padded for the cells past the edge
    return _assemble(grid, _step_values(
        nf, grid, np.r_[arrive[::-1], np.zeros(N)], nf.B, 1), False)
