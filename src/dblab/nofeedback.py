"""Closed-form probability objects for the unobserved-progress variant.

Here progress arrivals are invisible: the agent only sees solutions.  The
thinking pipeline is a two-stage exponential race (progress at rate ``mu``,
then conversion at rate ``nu``); accumulated thinking time therefore turns
into latent optimism about having progressed already.  Everything below is
a function of accumulated arm time, not calendar time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelParams, _checked_ops, _exp_gap, _number, _require


@dataclass(frozen=True)
class NoFeedbackModel:
    """Primitives for the unobserved-progress variant.

    The agent primitives obey :class:`ModelParams`' rules, and ``nu`` must
    be positive and finite.  At equal stage rates the race is a gamma
    arrival, which every formula below covers exactly.  ``limit_mode`` is
    accepted and ignored: older callers pass it to declare equal rates.
    """

    mu: float
    nu: float
    B: float
    c: float
    p_bar: float
    lam: float
    limit_mode: bool = False

    def __post_init__(self) -> None:
        ModelParams(self.p_bar, self.lam, self.mu, self.c, self.B, 0.0)
        _require(_number("nu", self.nu) > 0.0,
                 f"nu must be positive, got {self.nu}")


# mu * _exp_gap(mu, nu, a) is the chance that progress has arrived by
# thinking time a but not yet converted; survival adds exp(-mu*a), the
# chance of no progress.

def no_solution_prob(nf: NoFeedbackModel, thinking_time):
    """CDF of the thinking pipeline's solution time at accumulated thinking
    time ``thinking_time`` (scalar or array): progress followed by
    conversion."""
    a, mu = thinking_time, nf.mu
    xp = _checked_ops(a, name="thinking_time")
    return -xp.expm1(-mu * a) - mu * _exp_gap(mu, nf.nu, a)


def solution_density(nf: NoFeedbackModel, thinking_time):
    """Density of the thinking pipeline's solution time."""
    _checked_ops(thinking_time, name="thinking_time")
    return nf.mu * nf.nu * _exp_gap(nf.mu, nf.nu, thinking_time)


def progress_given_no_solution(nf: NoFeedbackModel, thinking_time):
    """Probability that progress has already arrived, conditional on no
    solution after ``thinking_time`` of thinking.  Grows with thinking time:
    latent optimism."""
    a, mu = thinking_time, nf.mu
    xp = _checked_ops(a, name="thinking_time")
    pending = mu * _exp_gap(mu, nf.nu, a)
    return pending / (xp.exp(-mu * a) + pending)


def doing_density(nf: NoFeedbackModel, doing_time):
    """Unconditional density of a doing-arm solution at accumulated doing
    time ``doing_time``: the prior-weighted exponential arrival."""
    xp = _checked_ops(doing_time, name="doing_time")
    return nf.lam * nf.p_bar * xp.exp(-nf.lam * doing_time)
