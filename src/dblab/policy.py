"""Policy calculus for the deadline bandit.

Closed forms and root searches for the building blocks of the optimal
schedule: the known-arm value, the value of doing throughout, the Hail-Mary
boundary belief q (the belief at which an agent entering the final doing
stretch is exactly willing to stop thinking), the thinking-preference slope
and its survival-weighted integral, the period-length maps, and a
diagnostic reconstruction of the switching profile along a schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _roots
from .model import (
    ModelParams,
    ProgressModel,
    Tabulated,
    _Arm,
    _as_taus,
    _checked_ops,
    _growth_ratio,
    _ops,
    _runs,
    doing_time_to_reach,
    posterior,
    progress_value_array,
)

INFINITE = math.inf
_CEILING_T = 4.0  # time-axis searches run to this many horizons
_PROFILE_STEPS = 4096  # switching-profile steps over the horizon


class SearchCeilingError(RuntimeError):
    """A bracketing search hit its ceiling without finding the target."""


def search_ceiling(params: ModelParams) -> float:
    """Default upper end for time-axis root searches."""
    return max(20.0 / params.mu, 20.0 / params.lam, _CEILING_T * params.T)


# ---------------------------------------------------------------------------
# benchmark values
# ---------------------------------------------------------------------------

def known_arm_value(params: ModelParams, tau):
    """Value of pulling an arm of known rate ``lam`` for a window ``tau``
    (scalar or array): ``(B - c/lam) * (1 - exp(-lam*tau))``."""
    return _known_arm(params, tau, _checked_ops(tau))


def _known_arm(params: ModelParams, tau, xp):
    # unchecked: for callers that have validated tau already
    return (params.B - params.c / params.lam) * -xp.expm1(-params.lam * tau)


def do_throughout_value(params: ModelParams, p: float, tau: float) -> float:
    """Expected value of working the doing arm for all of ``tau`` at
    belief ``p``: the known-arm value when it works, a pure cost sink when
    it does not."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    return p * known_arm_value(params, tau) - (1.0 - p) * params.c * tau


# ---------------------------------------------------------------------------
# Hail-Mary boundary belief
# ---------------------------------------------------------------------------

def hail_mary_belief_raw(params: ModelParams, model: ProgressModel, tau):
    """The indifference belief before capping at one.

    ``mu*(V(tau) + c*tau) / (mu*(B + c*tau) + (lam - mu)*(B - U(tau)))``
    where U is the known-arm value.  The denominator stays positive for all
    admissible parameters, including lam == mu.  ``tau`` is a scalar or an
    array.
    """
    num, den = _belief_terms(params, model, tau)
    return num / den


def _belief_terms(params: ModelParams, model: ProgressModel, tau) -> tuple:
    """Numerator and denominator of :func:`hail_mary_belief_raw`."""
    mu, lam, B, c = params.mu, params.lam, params.B, params.c
    num = mu * (model.value(tau) + c * tau)  # value() validates tau
    den = mu * (B + c * tau) + (lam - mu) * (B - _known_arm(params, tau, _ops(tau)))
    return num, den


def _decayed_log_odds(params: ModelParams, model: ProgressModel, s,
                      order: int = 0):
    """h(s) = logit q(s) - lam*s for the boundary belief q; doing for a time
    t lowers a belief's log-odds by exactly lam*t.  Order 0 takes a scalar
    or an array and maps q = 0 to -inf and q >= 1 to +inf; order 1 gives
    h'(s) = q'/(q(1-q)) - lam at a scalar."""
    mu, lam, B, c = params.mu, params.lam, params.B, params.c
    num, den = _belief_terms(params, model, s)
    if order == 1:  # the quotient rule on q = num/den
        d_num = mu * (model.value(s, 1) + c)
        d_den = mu * c - (lam - mu) * (lam * B - c) * math.exp(-lam * s)
        return (d_num * den - num * d_den) / (num * (den - num)) - lam
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.log(np.maximum(np.divide(num, den - num), 0.0)) - lam * s
    h = np.where(num >= den, np.inf, h)
    return h if isinstance(s, np.ndarray) else float(h)


def hail_mary_belief(params: ModelParams, model: ProgressModel, tau):
    """Belief on entering the final doing stretch of length ``tau`` at which
    the agent is exactly indifferent about one last instant of thinking;
    capped at one."""
    return _ops(tau).minimum(1.0, hail_mary_belief_raw(params, model, tau))


def hail_mary_time(params: ModelParams, model: ProgressModel,
                   p: float) -> float:
    """Smallest final-stretch length at which the boundary belief reaches
    ``p``; the inverse of :func:`hail_mary_belief`."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    ceiling = search_ceiling(params)
    q = lambda t: hail_mary_belief(params, model, t)
    hi = min(1.0, ceiling)
    while q(hi) < p and hi < ceiling:
        hi = min(2.0 * hi, ceiling)
    if q(hi) < p:
        raise SearchCeilingError(
            f"boundary belief never reaches {p} below the search ceiling "
            f"{ceiling} (value there: {q(hi)})")
    # smallest crossing: locate the first sign change on a scan grid
    grid = np.linspace(0.0, hi, 257)
    vals = hail_mary_belief(params, model, grid) - p
    idx = int(np.argmax(vals >= 0.0))  # >= 1: q(0) = 0 < p
    return _roots.brentq(lambda t: q(t) - p, grid[idx - 1], grid[idx], 1e-9)


# ---------------------------------------------------------------------------
# thinking-preference slope and integral
# ---------------------------------------------------------------------------

def preference_slope(params: ModelParams, model: ProgressModel, s: float,
                     p: float, xi: float) -> float:
    """Instantaneous drift of the relative preference for thinking, ``s``
    before an anchor point with ``xi`` remaining, at frozen belief ``p``:
    ``mu*V'(xi+s) + p*mu*lam*(V(xi+s) - B) + (mu - lam*p)*c``."""
    if s < 0.0 or xi < 0.0:
        raise ValueError("s and xi must be nonnegative")
    mu, lam, B, c = params.mu, params.lam, params.B, params.c
    return (mu * model.value(xi + s, 1)
            + p * mu * lam * (model.value(xi + s) - B)
            + (mu - lam * p) * c)


def preference_integral(params: ModelParams, model: ProgressModel, tau: float,
                        p: float, xi: float) -> float:
    """Survival-weighted accumulation of the preference slope,
    ``integral of exp(mu*s) * slope(s) over s in [0, tau]``, anchored at
    indifference (value 0 at tau = 0).

    An arm family (SafeArm, PayoffStream, RiskyArm), whose V is
    ``scale*(1 - exp(-nu*t)) - kappa*t`` up to its stop and flat after it,
    evaluates in closed form, piece by piece either side of the stop; the
    generic route is adaptive quadrature with absolute tolerance 1e-10.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    mu, lam, B, c = params.mu, params.lam, params.B, params.c
    if isinstance(model, _Arm):
        p_arm, nu, b_arm, c_arm, stop = model._arm
        scale, kappa = p_arm * (b_arm - c_arm / nu), (1.0 - p_arm) * c_arm
        # past the stop time V is flat at limit(): a constant slope
        flat = p * mu * lam * (model.limit() - B) + (mu - lam * p) * c
        if xi >= stop:
            return flat * _growth_ratio(mu, tau)
        head = min(tau, stop - xi)  # the exponential-affine piece
        a_coef = mu * scale * math.exp(-nu * xi) * (nu - p * lam)
        b_coef = (p * mu * lam * (scale - B - kappa * xi)
                  + (mu - lam * p) * c - mu * kappa)
        val = (a_coef * _growth_ratio(mu - nu, head)
               + b_coef * _growth_ratio(mu, head))
        if kappa:
            # the -kappa*t drift adds a slope term linear in s, and
            # integral of s*exp(mu*s) over [0, t] = (t*exp(mu*t) - G(mu, t))/mu
            val -= (p * mu * lam * kappa
                    * (head * math.exp(mu * head) - _growth_ratio(mu, head)) / mu)
        if tau > head:
            val += flat * math.exp(mu * head) * _growth_ratio(mu, tau - head)
        return val
    # each knot of a Tabulated curve is a kink of its interpolant's V'
    points = []
    if isinstance(model, Tabulated):
        points = [t - xi for t in model.taus if xi < t < xi + tau]
    from scipy.integrate import quad  # loaded on first use: slow to import

    # each break point takes one of quad's subintervals; the refinement
    # budget comes on top
    val, _ = quad(
        lambda s: math.exp(mu * s) * preference_slope(params, model, s, p, xi),
        0.0, tau, epsabs=1e-10, epsrel=1e-12, limit=200 + len(points),
        points=points or None)
    return val


# ---------------------------------------------------------------------------
# period-length maps
# ---------------------------------------------------------------------------

def thinking_span(params: ModelParams, model: ProgressModel,
                  tau3: float) -> float:
    """Length of the thinking stretch that ends exactly at indifference when
    the final doing stretch has length ``tau3``.

    Returns the smallest positive root of the preference integral at the
    boundary belief, or ``INFINITE`` when the preference never returns to
    indifference below the search ceiling or 700/mu, whichever is smaller.
    """
    if tau3 < 0.0:
        raise ValueError(f"tau3 must be nonnegative, got {tau3}")
    ceiling = search_ceiling(params)
    p = hail_mary_belief(params, model, tau3)
    if p >= 1.0 - 1e-12:
        raise ValueError(
            "no thinking period is defined at a boundary belief of one")
    slope0 = preference_slope(params, model, 0.0, p, tau3)
    if slope0 <= 0.0:
        # Thinking loses ground immediately; the indifference point is now.
        return 0.0
    if preference_slope(params, model, ceiling, p, tau3) >= 0.0:
        return INFINITE
    peak = _roots.brentq(lambda s: preference_slope(params, model, s, p, tau3),
                         0.0, ceiling, 1e-9)
    # exp(mu*s) overflows a double near s = 709/mu: the search ends at
    # 700/mu, and a preference still positive there counts as never returning
    end = min(ceiling, 700.0 / params.mu)
    acc = lambda t: preference_integral(params, model, t, p, tau3)
    if acc(end) > 0.0:
        return INFINITE
    return _roots.brentq(acc, peak, end, 1e-9)


def initial_doing_span(params: ModelParams, model: ProgressModel,
                       tau3: float) -> float:
    """Length of the opening doing stretch that drags the prior exactly to
    the boundary belief of a final stretch ``tau3``."""
    q = hail_mary_belief(params, model, tau3)
    if q > params.p_bar + 1e-12:
        raise ValueError(
            f"boundary belief {q} exceeds the prior {params.p_bar}; "
            "no opening doing stretch can reach it")
    q = min(q, params.p_bar)
    if q <= 0.0:
        raise ValueError("boundary belief is zero; opening stretch undefined")
    return doing_time_to_reach(params.p_bar, params.lam, q)


# ---------------------------------------------------------------------------
# switching diagnostics along a schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchingDiagnostics:
    """Reconstructed relative-preference path along a given schedule.

    grid            : remaining-time sample points, ascending from 0 to T
    y_values        : relative preference for thinking at each grid point
                      (positive favors thinking, negative favors doing)
    sign_pattern    : intervals (start, end, label) partitioning [0, T],
                      label in {"think-favored", "do-favored"}
    concavity_flags : curvature sign of the accumulated preference slope at
                      frozen belief at each interior thinking grid point,
                      0 elsewhere.  All -1 exactly when the slope decays
                      throughout each thinking stretch, which is the
                      single-sign-change property the thinking-span root
                      bracketing relies on.  (The normalized preference in
                      ``y_values`` folds in a survival factor and is *not*
                      globally concave while thinking, so its raw second
                      differences are not the right certificate.)
    """

    grid: np.ndarray
    y_values: np.ndarray
    sign_pattern: tuple
    concavity_flags: np.ndarray


def switching_profile(params: ModelParams, model: ProgressModel,
                      schedule) -> SwitchingDiagnostics:
    """Integrate the co-state correction along the schedule's action path
    and reconstruct the relative preference for thinking on a sample grid.

    The correction starts at zero at the deadline and accumulates with a
    classical fourth-order scheme in remaining time, with nodes aligned to
    the schedule's switch points.  Its rate does not depend on the
    correction itself, so each step is Simpson's rule on the rate.
    """
    tau1, tau2, tau3 = _as_taus(schedule)
    T = tau1 + tau2 + tau3
    if abs(T - params.T) > 1e-6:
        raise ValueError(
            f"schedule spans {T}, which does not match the horizon {params.T}")
    mu, lam, B, c, p_bar = params.mu, params.lam, params.B, params.c, params.p_bar

    def doing_time_at(tau_rem: np.ndarray) -> np.ndarray:
        # doing time accumulated by calendar time T - tau_rem
        return np.where(tau_rem <= tau3, tau1 + (tau3 - tau_rem),
                        np.where(tau_rem <= tau3 + tau2, tau1,
                                 np.maximum(T - tau_rem, 0.0)))

    def eta_rate(tau_rem: np.ndarray, active: float) -> np.ndarray:
        a_doing = doing_time_at(tau_rem)
        pre = np.exp(-mu * (T - tau_rem - a_doing))
        decayed = p_bar * np.exp(-lam * a_doing)
        v = progress_value_array(model, tau_rem)
        return pre * (mu * (1.0 - p_bar) * ((1.0 - active) * mu * v - c)
                      - (lam - mu) * decayed
                      * ((1.0 - active) * mu * v + active * lam * B - c))

    # segments in remaining time: final doing, thinking, opening doing
    segments = []
    if tau3 > 0.0:
        segments.append((0.0, tau3, 1.0))
    if tau2 > 0.0:
        segments.append((tau3, tau3 + tau2, 0.0))
    if tau1 > 0.0:
        segments.append((tau3 + tau2, T, 1.0))

    h_target = T / _PROFILE_STEPS if T > 0.0 else 1.0
    grids = [np.zeros(1)]
    actions = []  # action on the cell ending at the matching grid point
    steps = [np.zeros(1)]
    for lo, hi, active in segments:
        n_seg = max(1, math.ceil((hi - lo) / h_target))
        h = (hi - lo) / n_seg
        nodes = lo + h * np.arange(n_seg + 1)
        k_end = eta_rate(nodes, active)
        k_mid = eta_rate(nodes[:-1] + 0.5 * h, active)
        steps.append(h * (k_end[:-1] + 4.0 * k_mid + k_end[1:]) / 6.0)
        grids.append(nodes[1:])
        actions.append(np.full(n_seg, active))

    grid = np.concatenate(grids)
    etas = np.cumsum(np.concatenate(steps))
    a_path = doing_time_at(grid)
    pre = np.exp(-mu * (T - grid - a_path))
    odds_mass = 1.0 - p_bar + p_bar * np.exp(-lam * a_path)
    belief = posterior(p_bar, lam, a_path)
    v_path = progress_value_array(model, grid)
    y = mu * v_path - belief * lam * B - etas / (pre * odds_mass)

    # an interior point is flagged when every cell touching it (the one
    # beyond the last grid point counts as thinking) is a thinking cell
    slope = (mu * progress_value_array(model, grid, 1)
             + belief * mu * lam * (v_path - B) + (mu - lam * belief) * c)
    thinking = np.append(np.concatenate([np.zeros(0)] + actions) == 0.0, True)
    inside = thinking[:-2] & thinking[1:-1] & thinking[2:]
    drift = slope[2:] - slope[:-2]
    flags = np.zeros(len(grid), dtype=np.int8)
    flags[1:-1] = np.where(inside & (np.abs(drift) > 1e-12), np.sign(drift), 0)
    return SwitchingDiagnostics(grid, y, _sign_intervals(grid, y), flags)


def _sign_intervals(grid: np.ndarray, y: np.ndarray) -> tuple:
    """Partition [grid[0], grid[-1]] into think-/do-favored intervals, a
    cell labelled by the sign of its endpoints' sum, with boundaries at
    interpolated zero crossings: in the cell before the label change when
    y changes sign there, else in the cell after it."""
    if len(grid) < 2:
        return ((float(grid[0]), float(grid[-1]), "do-favored"),)
    i, runs = _runs(y[:-1] + y[1:] > 0.0)
    lo = np.where(y[i - 1] * y[i] < 0.0, i - 1, i)
    ya, yb, a, b = y[lo], y[lo + 1], grid[lo], grid[lo + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(ya != yb, a + (b - a) * (ya / (ya - yb)), a)
    bounds = [float(grid[0]), *cross.tolist(), float(grid[-1])]
    labels = ["think-favored" if r else "do-favored" for r in runs.tolist()]
    return tuple(zip(bounds[:-1], bounds[1:], labels))
