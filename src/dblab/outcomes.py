"""Outcome accounting for a fixed doing/thinking/doing schedule.

Given a schedule (tau1, tau2, tau3) executed against the true data
generating process -- a doing arm that pays off at rate lambda only if the
problem is solvable, and a thinking arm whose progress converts into a
solution at a known rate nu -- these routines compute success
probabilities by route, the expected time spent before stopping, full
occupancy trajectories, and Monte Carlo estimates of the same quantities.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .model import (ModelParams, ModelValidationError, ProgressModel,
                    _as_taus, _exp_gap, _require)
from .solver import SolverError, solve


@dataclass(frozen=True)
class OutcomeSummary:
    """Success probability split by route; total is the exact sum."""

    p_do_initial: float
    p_think: float
    p_hailmary: float
    p_total: float = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        total = self.p_do_initial + self.p_think + self.p_hailmary
        object.__setattr__(self, "p_total", total)


@dataclass(frozen=True)
class SimConfig:
    reps: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("reps", 1), ("seed", 0)):
            value = getattr(self, name)
            # a bool is an int, but not a count
            _require(type(value) is int and value >= low,
                     f"{name} must be an int >= {low}, got {value!r}")


@dataclass(frozen=True)
class SimResult:
    """Monte Carlo estimates with their standard errors.  With one
    replication the work-time spread is undefined, so ``work_se`` is NaN
    (returned without a warning)."""

    success_rate: float
    success_se: float
    work_mean: float
    work_se: float
    reps: int
    seed: int


def conversion_rate(model: ProgressModel = None, nu: float = None) -> float:
    """Resolve the progress-to-solution conversion rate: explicit argument
    wins, otherwise taken off the progress model."""
    if nu is not None:
        if not 0.0 < nu < math.inf:
            raise ValueError(f"conversion rate must be in (0, inf), got {nu}")
        return float(nu)
    rate = getattr(model, "nu", None)
    if rate is None:
        raise ValueError(
            "no conversion rate: pass nu explicitly or use a model that "
            "carries one")
    return float(rate)


def route_probabilities(schedule, params: ModelParams, nu: float
                        ) -> OutcomeSummary:
    """Success probability of each route under the schedule.

    Routes: solution from the initial doing block; progress during the
    thinking block converting before the deadline; and a late doing
    solution after thinking came up empty.
    """
    tau1, tau2, tau3 = _as_taus(schedule)
    p_bar, lam, mu = params.p_bar, params.lam, params.mu
    p_do = p_bar * -math.expm1(-lam * tau1)
    pref = p_bar * math.exp(-lam * tau1) + 1.0 - p_bar
    # progress by the end of thinking, less what is still pending at the
    # deadline
    converted = (-math.expm1(-mu * tau2)
                 - mu * _exp_gap(mu, nu, tau2) * math.exp(-nu * tau3))
    p_think = pref * converted
    p_hail = (p_bar * math.exp(-lam * tau1) * math.exp(-mu * tau2)
              * -math.expm1(-lam * tau3))
    return OutcomeSummary(p_do_initial=p_do, p_think=p_think,
                          p_hailmary=p_hail)


def expected_work_time(schedule, params: ModelParams, nu: float) -> float:
    """Expected calendar time until a solution arrives or the deadline
    hits, i.e. the integral of the no-solution probability over [0, T]."""
    tau1, tau2, tau3 = _as_taus(schedule)
    p_bar, lam, mu = params.p_bar, params.lam, params.mu
    pref = p_bar * math.exp(-lam * tau1) + 1.0 - p_bar
    # each phase integrates a sum of exponentials: thinking survives as
    # exp(-mu*u) + mu*gap(u), and the mass mu*gap(tau2) still pending when
    # thinking ends converts at rate nu
    gap = _exp_gap(mu, nu, tau2)
    phase1 = -p_bar * math.expm1(-lam * tau1) / lam + (1.0 - p_bar) * tau1
    alive2 = -math.expm1(-mu * tau2) / mu - math.expm1(-nu * tau2) / nu - gap
    phase3 = (math.exp(-mu * tau2)
              * (-p_bar * math.exp(-lam * tau1) * math.expm1(-lam * tau3) / lam
                 + (1.0 - p_bar) * tau3)
              - pref * mu * gap * math.expm1(-nu * tau3) / nu)
    return phase1 + pref * alive2 + phase3


def backload(schedule) -> tuple:
    """Move the initial doing block to the end: (a, b, d) -> (0, a+b, a+d).

    Total doing and thinking time are preserved, but all doing now happens
    after thinking has had its chance.
    """
    tau1, tau2, tau3 = _as_taus(schedule)
    return 0.0, tau1 + tau2, tau1 + tau3


_TRAJECTORY_POINTS = 401  # samples of the occupancy curves


def trajectory_probabilities(schedule, params: ModelParams, nu: float) -> dict:
    """Occupancy curves over calendar time.

    Returns arrays over ``t``, 401 points on [0, total span]: probability that
    progress has been made (solution via conversion may follow or already
    have happened), that a solution arrived straight from doing, and that
    neither has happened.  The three doing/progress states partition the
    sample space, so the curves sum to one.
    """
    tau1, tau2, tau3 = _as_taus(schedule)
    p_bar, lam, mu = params.p_bar, params.lam, params.mu
    span = tau1 + tau2 + tau3
    t = np.linspace(0.0, span, _TRAJECTORY_POINTS)
    pref = p_bar * math.exp(-lam * tau1) + 1.0 - p_bar

    think_time = np.clip(t - tau1, 0.0, tau2)
    p_progress = pref * -np.expm1(-mu * think_time)

    early = p_bar * -np.expm1(-lam * np.minimum(t, tau1))
    late_doing = np.clip(t - tau1 - tau2, 0.0, tau3)
    late = (p_bar * math.exp(-lam * tau1) * math.exp(-mu * tau2)
            * -np.expm1(-lam * late_doing))
    p_solution = early + late

    p_neither = 1.0 - p_progress - p_solution
    return {"t": t, "p_progress": p_progress, "p_solution": p_solution,
            "p_neither": p_neither}


_BLOCK = 1 << 14  # replications per block of `simulate`


def _block_sizes(reps: int):
    return (min(_BLOCK, reps - start) for start in range(0, reps, _BLOCK))


def _variable_streams(seed: int, reps: int) -> list:
    """Four generators at the starts of the four variable-major arrays of
    one Philox stream: solvability, doing clock, progress clock and
    conversion clock, each ``reps`` long.

    A uniform draw takes one 64-bit word, so the solvability array is
    skipped by count.  An exponential draw takes a data-dependent number
    of words, so a scout draws the two middle arrays block by block into
    one buffer and discards them."""
    bitgen = np.random.Philox(key=seed)
    scout = np.random.Generator(bitgen)
    states = [bitgen.state]
    bitgen.random_raw(reps, output=False)
    states.append(bitgen.state)
    buf = np.empty(min(reps, _BLOCK))
    for _ in range(2):
        for n in _block_sizes(reps):
            scout.standard_exponential(out=buf[:n])
        states.append(bitgen.state)
    streams = []
    for state in states:
        stream = np.random.Philox(key=seed)
        stream.state = state
        streams.append(np.random.Generator(stream))
    return streams


def simulate(schedule, params: ModelParams, nu: float,
             config: SimConfig = SimConfig()) -> SimResult:
    """Monte Carlo of the schedule against the true process.

    Draws are variable-major: one Philox-seeded array per primitive
    random quantity (solvability, doing clock, progress clock, conversion
    clock), each of length ``reps``, in that fixed order, so replication
    j reads column j of every array and results are reproducible for a
    given (seed, reps) pair.  The arrays are read in blocks of ``_BLOCK``
    columns, one generator per array, so memory does not depend on
    ``reps``.  The success count is an exact integer; the work-time mean
    and variance of each block are merged into the running totals with
    the pairwise update of Chan, Golub and LeVeque.
    """
    tau1, tau2, tau3 = _as_taus(schedule)
    T = tau1 + tau2 + tau3
    reps = config.reps
    streams = _variable_streams(config.seed, reps)
    scales = (1.0 / params.lam, 1.0 / params.mu, 1.0 / nu)
    draws = np.empty((4, min(reps, _BLOCK)))
    wins, count, mean, m2 = 0, 0, 0.0, 0.0
    for n in _block_sizes(reps):
        u, t_do, t_think, t_conv = draws[:, :n]
        streams[0].random(out=u)
        for stream, scale, clock in zip(streams[1:], scales,
                                        (t_do, t_think, t_conv)):
            stream.standard_exponential(out=clock)
            np.multiply(clock, scale, out=clock)
        solvable = u < params.p_bar

        # The doing clock is shared by both doing blocks: by memorylessness
        # the time-on-arm until a doing arrival is a single exponential.
        early = solvable & (t_do < tau1)
        progress = t_think < tau2
        convert = progress & (t_think + t_conv <= tau2 + tau3)
        hail = (solvable & ~progress & (t_do >= tau1)
                & (t_do < tau1 + tau3))
        wins += int(np.count_nonzero(early | convert | hail))

        # An early arrival precedes any conversion, and the hail-mary
        # route excludes both, so each success has one arrival time.
        work = np.where(convert, tau1 + t_think + t_conv, T)
        np.copyto(work, tau2 + t_do, where=hail)
        np.minimum(work, T, out=work)
        np.copyto(work, t_do, where=early)

        block_mean = float(work.mean())
        work -= block_mean
        block_m2 = float(np.square(work, out=work).sum())
        delta = block_mean - mean
        count += n
        mean += delta * n / count
        m2 += block_m2 + delta * delta * (count - n) * n / count

    rate = wins / reps
    rate_se = math.sqrt(max(rate * (1.0 - rate), 0.0) / reps)
    work_se = (math.sqrt(m2 / (reps - 1)) / math.sqrt(reps) if reps > 1
               else math.nan)
    return SimResult(success_rate=rate, success_se=rate_se,
                     work_mean=mean, work_se=work_se,
                     reps=reps, seed=config.seed)


SWEEP_COLUMNS = ("grid_value", "tau1", "tau2", "tau3", "structure",
                 "p_total", "p_do_initial", "p_think", "p_hailmary",
                 "p_total_backloaded", "expected_work")


def _sweep_point(params: ModelParams, model: ProgressModel, variable: str,
                 value: float, nu: float, solver: dict) -> dict:
    row = dict.fromkeys(SWEEP_COLUMNS, float("nan"))
    row["grid_value"] = value
    try:
        point = dataclasses.replace(params, **{variable: value})
        sched = solve(point, model, **solver)
        routes = route_probabilities(sched, point, nu)
        flipped = route_probabilities(backload(sched), point, nu)
        row.update(tau1=sched.tau1, tau2=sched.tau2, tau3=sched.tau3,
                   structure=sched.structure,
                   p_total=routes.p_total,
                   p_do_initial=routes.p_do_initial,
                   p_think=routes.p_think,
                   p_hailmary=routes.p_hailmary,
                   p_total_backloaded=flipped.p_total,
                   expected_work=expected_work_time(sched, point, nu))
    except (SolverError, ModelValidationError, ValueError) as err:
        row["structure"] = f"ERROR:{type(err).__name__}"
    return row


def sweep(params: ModelParams, model: ProgressModel, variable: str,
          grid, *, nu: float = None, **solver) -> list:
    """Solve and score the schedule across a parameter grid.

    ``variable`` is the ModelParams field to vary ("T" or "p_bar"); the
    ``solver`` keywords (``tau_tol``) go to each `solve`.  Points that fail
    to solve get an ERROR structure tag and NaN metrics instead of aborting
    the sweep.  Rows come back in grid order.
    """
    if variable not in ("T", "p_bar"):
        raise ValueError(f"variable must be 'T' or 'p_bar', got {variable!r}")
    rate = conversion_rate(model, nu)
    return [_sweep_point(params, model, variable, float(v), rate, solver)
            for v in grid]
