"""Backward-induction solver for the optimal effort schedule.

The optimal policy splits the horizon into at most three stretches: an
opening doing period (length tau1), a thinking period (tau2), and a final
"Hail Mary" doing period (tau3).  The solver pins the final stretch first
via the boundary-belief curve, then works backward: if the prior already
sits on the boundary the schedule is think-then-do; otherwise an opening
doing period drags the belief down to the boundary and the three lengths
are balanced against the horizon by a bracketed root search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _roots
from .model import (
    ModelParams,
    ModelValidationError,
    ProgressModel,
    _ops,
    no_shirk_check,
    posterior,
    validate_model,
)
from .policy import (
    _decayed_log_odds,
    hail_mary_belief,
    hail_mary_time,
    initial_doing_span,
    search_ceiling,
    thinking_span,
)

DO_ONLY = "DO_ONLY"
THINK_DO = "THINK_DO"
DO_THINK_DO = "DO_THINK_DO"
DO_THROUGHOUT = "DO_THROUGHOUT"


class SolverError(RuntimeError):
    """The schedule search failed; the message reports the failed bracket."""


@dataclass(frozen=True)
class PolicySchedule:
    """Optimal period lengths plus the beliefs at the seams.

    q_at_switch     : boundary belief at the start of the final doing period
    terminal_belief : posterior at the deadline if nothing has arrived
    no_shirk_ok     : terminal belief clears the incentive bound c/(lam*B)
    """

    tau1: float
    tau2: float
    tau3: float
    structure: str
    q_at_switch: float
    terminal_belief: float
    no_shirk_ok: bool = True

    @property
    def total(self) -> float:
        return self.tau1 + self.tau2 + self.tau3


@dataclass(frozen=True)
class Thresholds:
    """Belief landmarks of the solution.

    p_hat   : no-deadline indifference belief
    p_tilde : prior above which the schedule opens with doing for any horizon
    p_check : floor on the belief path when the prior starts at or above p_hat
    T1      : horizon at which the boundary belief equals the prior
    """

    p_hat: float
    p_tilde: float
    p_check: float
    T1: float


@dataclass(frozen=True)
class InfiniteHorizonPlan:
    p_hat: float
    switch_time: float
    structure: str
    note: str = ""


# ---------------------------------------------------------------------------
# the final-stretch search in log-odds
# ---------------------------------------------------------------------------

_GRID = 4096  # samples of the log-odds curve on [0, T]


def _record_curve(params: ModelParams, model: ProgressModel, tau_tol: float):
    """x -> (H(x), the largest maximiser of h on [0, x]), for h(s) = logit
    q(s) - lam*s on [0, T] and its running maximum H(x) = max of h on [0, x].

    A final doing stretch x entered at belief p never drops the belief below
    the boundary curve q iff logit p - lam*x >= H(x).  H is read off a fixed
    grid whose strict interior maxima on the record are each refined once,
    by a root of h' across the two neighbouring cells."""
    h = lambda s: _decayed_log_odds(params, model, s)
    slope = lambda s: _decayed_log_odds(params, model, s, 1)
    grid = np.linspace(0.0, params.T, _GRID)
    hs = h(grid)
    running = np.maximum.accumulate(hs)
    records = np.flatnonzero(hs == running)
    tops = records[(records > 1) & (records < _GRID - 1)]
    peaks = []  # (h, s) at each refined maximum
    for j in tops[hs[tops + 1] < hs[tops]]:
        if slope(grid[j - 1]) > 0.0 > slope(grid[j + 1]):
            at = _roots.brentq(slope, grid[j - 1], grid[j + 1], tau_tol)
            peaks.append((h(at), at))

    def top(x: float) -> tuple:
        k = int(np.searchsorted(grid, x, side="right")) - 1
        r = records[np.searchsorted(records, k, side="right") - 1]
        best = max((float(running[k]), float(grid[r])), (h(x), x))
        return max([best] + [p for p in peaks if p[1] <= x])
    return top


def _largest_feasible(feasible, lo: float, hi: float, tau_tol: float) -> float:
    """Largest x in [lo, hi] with feasible(x), given feasible(lo) and not
    feasible(hi); plain bisection."""
    while hi - lo > tau_tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# main solver
# ---------------------------------------------------------------------------

def solve(params: ModelParams, model: ProgressModel, *,
          tau_tol: float = 1e-9, validate: bool = True) -> PolicySchedule:
    """Compute the unique optimal schedule for the given primitives.

    Raises :class:`ModelValidationError` when the value-of-progress model
    fails its standing conditions and :class:`SolverError` when a root
    bracket cannot be established.
    """
    if validate:
        report = validate_model(params, model)
        if not report.overall:
            raise ModelValidationError(
                "model failed validation: " + ", ".join(report.failure_names()))
    T = params.T
    if T == 0.0:
        return _finish(params, model, 0.0, 0.0, 0.0, DO_ONLY)

    # Stage one: the longest final stretch consistent with the prior's decay.
    top = _record_curve(params, model, tau_tol)
    logit_prior = math.log(params.p_bar / (1.0 - params.p_bar))
    feasible_prior = lambda x: logit_prior - params.lam * x >= top(x)[0]
    if feasible_prior(T):
        return _finish(params, model, 0.0, 0.0, T, DO_ONLY)
    # plain bisection keeps bar3 on the feasible side: q(bar3) <= p_bar
    bar3 = _largest_feasible(feasible_prior, 0.0, T, tau_tol)

    # Stage two: re-anchor the final stretch on its own boundary belief.
    # Entered at q(x), a stretch x is feasible iff h(x) = H(x), so the
    # longest one is the largest maximiser of h on [0, bar3].
    bar3_self = top(bar3)[1]
    q_bar = hail_mary_belief(params, model, bar3)
    resid = abs(q_bar - params.p_bar)
    # The binding point is the entry belief itself: no opening doing
    # period; think until indifference, then do.  Stage one leaves bar3
    # within tau_tol of the binding point, so where bar3 is its own record
    # the belief may miss p_bar by q'(bar3) times that much; the test
    # allows two default tolerances in time, q' = (h' + lam) q (1 - q).
    binds = resid <= 1e-9
    if not binds and bar3_self == bar3 > 0.0:
        slope = _decayed_log_odds(params, model, bar3, 1) + params.lam
        binds = resid <= 2e-9 * max(1.0, slope * q_bar * (1.0 - q_bar))
    if binds:
        span = thinking_span(params, model, bar3)
        if span >= T - bar3:
            return _finish(params, model, 0.0, T - bar3, bar3, THINK_DO)
    if bar3_self <= 0.0:
        raise SolverError(
            "the log-odds boundary curve peaks at zero: no final stretch in "
            f"(0, {bar3}] is feasible from its own boundary belief")

    # Stage three: balance the three period lengths against the horizon.
    def excess(t3: float) -> float:
        span = thinking_span(params, model, t3)
        if math.isinf(span):
            return math.inf
        return initial_doing_span(params, model, t3) + span + t3 - T

    g_hi = excess(bar3_self)
    if g_hi > 1e-9:
        lo_probe = max(bar3_self * 1e-6, 1e-12)
        raise SolverError(
            "no feasible balance of period lengths: excess at "
            f"{lo_probe:.3g} is {excess(lo_probe):.6g}, excess at "
            f"{bar3_self:.6g} is {g_hi:.6g}")
    # The opening stretch blows up as the final stretch shrinks, so a lower
    # end with positive excess always exists.
    lo, g_lo = bar3_self, g_hi
    while g_lo <= 0.0:
        lo *= 0.25
        if lo < 1e-14:
            raise SolverError(
                "excess stayed nonpositive down to a vanishing final stretch")
        g_lo = excess(lo)
    tau3 = _bisect_excess(excess, lo, bar3_self, tau_tol)
    span = thinking_span(params, model, tau3)
    tau1 = max(T - span - tau3, 0.0)
    structure = DO_THINK_DO if tau1 > 1e-9 else THINK_DO
    return _finish(params, model, tau1, span, tau3, structure)


def _bisect_excess(excess, lo: float, hi: float, tau_tol: float) -> float:
    """Bisect for the zero of a decreasing excess function on [lo, hi]."""
    while hi - lo > tau_tol:
        mid = 0.5 * (lo + hi)
        g = excess(mid)
        if abs(g) <= 1e-9 and math.isfinite(g):
            return mid
        if g > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _finish(params: ModelParams, model: ProgressModel, tau1: float,
            tau2: float, tau3: float, structure: str) -> PolicySchedule:
    # force an exact horizon split before reporting
    tau2 = max(params.T - tau1 - tau3, 0.0)
    q_switch = hail_mary_belief(params, model, tau3)
    terminal = posterior(params.p_bar, params.lam, tau1 + tau3)
    shirk = no_shirk_check(params, terminal)
    # the searches hand back numpy scalars and an integer T on some paths
    return PolicySchedule(float(tau1), float(tau2), float(tau3), structure,
                          float(q_switch), float(terminal), bool(shirk))


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------

def solve_infinite_horizon(params: ModelParams,
                           model: ProgressModel) -> InfiniteHorizonPlan:
    """No-deadline benchmark: a single indifference belief and the doing
    time needed to decay the prior down to it."""
    vinf = model.limit()
    denom = params.B - vinf + params.c / params.mu
    if denom <= 0.0:
        return InfiniteHorizonPlan(
            math.inf, 0.0, "THINK_THROUGHOUT",
            note="doing never preferred: progress is worth at least the "
                 "direct reward bound")
    p_hat = (params.c / params.lam) / denom
    if p_hat <= 0.0:
        return InfiniteHorizonPlan(
            0.0, math.inf, DO_THROUGHOUT,
            note="doing always preferred: effort is free")
    if p_hat >= 1.0:
        return InfiniteHorizonPlan(
            p_hat, 0.0, "THINK_THROUGHOUT",
            note="doing never preferred: indifference belief at or above one")
    if params.p_bar >= p_hat:
        odds = (params.p_bar * (1.0 - p_hat)) / (p_hat * (1.0 - params.p_bar))
        switch = max(math.log(odds) / params.lam, 0.0)
        return InfiniteHorizonPlan(p_hat, switch, "DO_THEN_THINK")
    return InfiniteHorizonPlan(p_hat, 0.0, "THINK_THROUGHOUT")


def solve_no_cost(params: ModelParams, model: ProgressModel,
                  n_scan: int = 1024) -> Union[float, str]:
    """Costless benchmark: the first horizon at which the prior crosses the
    boundary curve, under the convention that effort is free and progress
    is eventually worth the full reward.

    The cost is forced to zero regardless of ``params.c``; the model must
    satisfy V(inf) = B.  Returns the smallest root in (0, T], or the
    DO_THROUGHOUT constant when there is none.
    """
    vinf = model.limit()
    if abs(vinf - params.B) > 1e-8 * max(1.0, params.B):
        raise ValueError(
            f"benchmark requires V(inf) = B, got V(inf) = {vinf}, B = {params.B}")
    mu, lam, B, p_bar = params.mu, params.lam, params.B, params.p_bar

    def gap(tau):
        return (mu * model.value(tau)
                - p_bar * B * (mu + (lam - mu) * _ops(tau).exp(-lam * tau)))

    if params.T <= 0.0:
        return DO_THROUGHOUT
    taus = np.linspace(0.0, params.T, n_scan + 1)
    vals = gap(taus)
    crossings = np.where((vals[:-1] < 0.0) & (vals[1:] >= 0.0))[0]
    if crossings.size == 0:
        return DO_THROUGHOUT
    i = int(crossings[0])
    return _roots.brentq(gap, taus[i], taus[i + 1], 1e-9)


def belief_thresholds(params: ModelParams, model: ProgressModel) -> Thresholds:
    """Belief landmarks: the no-deadline indifference belief, the
    always-open-with-doing prior, the belief-path floor, and the horizon at
    which the boundary belief meets the prior."""
    ceiling = search_ceiling(params)
    plan = solve_infinite_horizon(params, model)
    p_hat = plan.p_hat
    if not 0.0 < p_hat < 1.0:
        raise SolverError(
            f"thresholds undefined: no-deadline indifference belief {p_hat} "
            "is outside (0, 1)")
    mu, lam, B, c = params.mu, params.lam, params.B, params.c

    def mapped(p: float) -> float:
        t = hail_mary_time(params, model, p)
        return ((model.value(t, 1) + c)
                / (lam * (B + c / mu - model.value(t))))

    lo = p_hat + 1e-6
    hi_t = 0.9 * ceiling
    hi = min(hail_mary_belief(params, model, hi_t) - 1e-9, 1.0 - 1e-9)
    f = lambda p: mapped(p) - p
    f_lo, f_hi = f(lo), f(hi)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise SolverError(
            "fixed-point bracket absent for the always-doing prior: "
            f"f({lo:.6g}) = {f_lo:.6g}, f({hi:.6g}) = {f_hi:.6g}")
    p_tilde = _roots.brentq(f, lo, hi, 1e-10)
    t_hat = hail_mary_time(params, model, p_hat)
    p_check = posterior(p_hat, lam, t_hat)
    t_one = hail_mary_time(params, model, params.p_bar)
    return Thresholds(p_hat, p_tilde, p_check, t_one)
