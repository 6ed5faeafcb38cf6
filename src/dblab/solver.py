"""Backward-induction solver for the optimal effort schedule.

The optimal policy splits the horizon into at most three stretches: an
opening doing period (length tau1), a thinking period (tau2), and a final
"Hail Mary" doing period (tau3).  The solver pins the final stretch first
via the boundary-belief curve, then works backward: if the prior already
sits on the boundary the schedule is think-then-do; otherwise an opening
doing period drags the belief down to the boundary, and tau3 inverts the
decreasing horizon map F(t3) = t3 + thinking_span(t3) + initial_doing_span(t3).
Below some t3* the span is infinite (the agent leaves the idea and returns to
it only at the end): past F(t3*), tau3 stays at t3* and thinking takes the rest.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from . import _roots
from .model import (
    ModelParams,
    ModelValidationError,
    ProgressModel,
    no_shirk_check,
    posterior,
    validate_model,
)
from .policy import (
    SearchCeilingError,
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
    if np.isnan(hs).any():
        raise ModelValidationError("the boundary belief is NaN on [0, T]: "
                                   "the agent's values overflow")
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


def _largest_feasible(feasible, lo: float, hi: float, tau_tol: float) -> tuple:
    """Bracket (lo, hi), at most tau_tol wide or else adjacent doubles, on
    the largest x with feasible(x), given feasible(lo) and not
    feasible(hi); plain bisection."""
    while hi - lo > tau_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# main solver
# ---------------------------------------------------------------------------

def solve(params: ModelParams, model: ProgressModel, *,
          tau_tol: float = 1e-9, validate: bool = True) -> PolicySchedule:
    """Compute the unique optimal schedule for the given primitives.

    Stage three solves F(tau3) = T by one bracketed ``brentq``, or takes
    t3* when F(t3*) <= T, and sets tau1 = initial_doing_span(tau3).

    Raises :class:`ModelValidationError` when the value-of-progress model
    fails its standing conditions and :class:`SolverError` when a root
    bracket cannot be established.  ``tau_tol``, the width in time of the
    solver's own brackets, must be finite and >= 0 (else ValueError).
    """
    if not 0.0 <= tau_tol < math.inf:
        raise ValueError(f"tau_tol must be finite and >= 0, got {tau_tol}")
    if validate:
        report = validate_model(params, model)
        if not report.overall:
            raise ModelValidationError(
                "model failed validation: " + ", ".join(report.failure_names()))
    T = params.T
    if T == 0.0:
        return _finish(params, model, 0.0, 0.0, DO_ONLY)

    # Stage one: the longest final stretch consistent with the prior's decay.
    top = _record_curve(params, model, tau_tol)
    logit_prior = math.log(params.p_bar / (1.0 - params.p_bar))
    feasible_prior = lambda x: logit_prior - params.lam * x >= top(x)[0]
    if feasible_prior(T):
        return _finish(params, model, 0.0, T, DO_ONLY)
    # plain bisection keeps bar3 on the feasible side: q(bar3) <= p_bar
    bar3 = _largest_feasible(feasible_prior, 0.0, T, tau_tol)[0]

    # Stage two: re-anchor the final stretch on its own boundary belief.
    # Entered at q(x), a stretch x is feasible iff h(x) = H(x), so the
    # longest one is the largest maximiser of h on [0, bar3].  Where that is
    # bar3 itself, the prior binds: think until indifference, then do.
    bar3_self = top(bar3)[1]
    binds = bar3_self == bar3 > 0.0
    span = functools.cache(functools.partial(thinking_span, params, model))
    if binds and span(bar3) >= T - bar3:
        return _finish(params, model, 0.0, bar3, THINK_DO)
    if bar3_self <= 0.0:
        raise SolverError(
            "the log-odds boundary curve peaks at zero: no final stretch in "
            f"(0, {bar3}] is feasible from its own boundary belief")

    # Stage three: invert the horizon map F on (0, bar3_self].
    F = lambda t3: t3 + span(t3) + initial_doing_span(params, model, t3)
    if F(bar3_self) > T + 1e-9:
        raise SolverError(
            "no feasible balance of period lengths: F at the longest final "
            f"stretch {bar3_self:.6g} is {F(bar3_self):.6g} > T = {T:.6g}")
    tau3 = _final_stretch(F, span, bar3_self, T, tau_tol)
    tau1 = initial_doing_span(params, model, tau3)
    structure = DO_THINK_DO if tau1 > 1e-9 else THINK_DO
    return _finish(params, model, tau1, tau3, structure)


def _final_stretch(F, span, upper: float, T: float, tau_tol: float) -> float:
    """The root of F(t3) = T in (0, upper], or upper where F(upper) >= T.

    F grows without bound as t3 shrinks, so walking down from upper finds a
    lower end with F > T.  Where the span is infinite there, bisection finds
    t3*, the finite side of the jump, which is the answer if F(t3*) <= T."""
    lo = hi = upper
    while F(lo) < T:
        lo, hi = 0.25 * lo, lo
        if lo < 1e-14:
            raise SolverError(
                "F stayed below the horizon down to a vanishing final stretch")
    if math.isinf(span(lo)):
        _, lo = _largest_feasible(lambda t: math.isinf(span(t)), lo, hi, tau_tol)
        if F(lo) <= T:
            return lo
    return _roots.brentq(lambda t: F(t) - T, lo, hi, tau_tol) if lo < hi else hi


def _finish(params: ModelParams, model: ProgressModel, tau1: float,
            tau3: float, structure: str) -> PolicySchedule:
    # thinking takes the rest: an exact horizon split
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


def solve_no_cost(params: ModelParams,
                  model: ProgressModel) -> Union[float, str]:
    """Costless benchmark: T1 of the costless agent, the smallest final
    stretch at which its boundary belief reaches the prior, within the
    horizon.

    The cost is forced to zero regardless of ``params.c``; the model must
    satisfy V(inf) = B.  Returns that stretch where it lies in (0, T], or
    the DO_THROUGHOUT constant when it does not.
    """
    vinf = model.limit()
    if abs(vinf - params.B) > 1e-8 * max(1.0, params.B):
        raise ValueError(
            f"benchmark requires V(inf) = B, got V(inf) = {vinf}, B = {params.B}")
    try:
        t_one = hail_mary_time(replace(params, c=0.0), model, params.p_bar)
    except SearchCeilingError:
        return DO_THROUGHOUT
    return t_one if 0.0 < t_one <= params.T else DO_THROUGHOUT


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
