"""Tests for the unobserved-progress probability objects.

The oracle is a direct Monte Carlo of the two-stage exponential race
(progress, then conversion), plus finite differences and the algebraic
identity linking the density, the hazard decomposition, and the CDF.
"""

import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

from dblab import (
    NoFeedbackModel,
    doing_density,
    no_solution_prob,
    progress_given_no_solution,
    solution_density,
)

NF = NoFeedbackModel(mu=1.0, nu=0.5, B=5.0, c=0.5, p_bar=0.75, lam=0.75)


def test_model_guards():
    with pytest.raises(ValueError):
        NoFeedbackModel(mu=-1.0, nu=0.5, B=5.0, c=0.5, p_bar=0.75, lam=0.75)
    with pytest.raises(ValueError):
        no_solution_prob(NF, -0.5)


@pytest.mark.parametrize("key", ["mu", "nu", "B", "lam"])
def test_model_refuses_an_infinite_primitive(key):
    with pytest.raises(ValueError, match=f"{key} must be .*finite"):
        dataclasses.replace(NF, **{key: math.inf})


def test_solution_cdf_anchors():
    assert no_solution_prob(NF, 0.0) == 0.0
    # 1 - (mu e^{-nu} - nu e^{-mu})/(mu - nu) at mu=1, nu=0.5
    want = 1.0 - (math.exp(-0.5) - 0.5 * math.exp(-1.0)) / 0.5
    assert no_solution_prob(NF, 1.0) == pytest.approx(want, rel=1e-12)
    assert no_solution_prob(NF, 1.0) == pytest.approx(0.1548, abs=1e-4)
    grid = np.linspace(0.0, 30.0, 400)
    vals = no_solution_prob(NF, grid)
    assert np.all(np.diff(vals) > 0.0)
    assert vals[-1] < 1.0


def test_solution_cdf_monte_carlo(rng):
    n = 1_000_000
    t_progress = rng.exponential(1.0 / NF.mu, n)
    t_convert = rng.exponential(1.0 / NF.nu, n)
    done = t_progress + t_convert <= 1.0
    est = done.mean()
    se = math.sqrt(est * (1.0 - est) / n)
    assert abs(est - no_solution_prob(NF, 1.0)) <= 3.0 * se


def test_equal_rates_limit():
    erlang = NoFeedbackModel(mu=1.0, nu=1.0, B=5.0, c=0.5, p_bar=0.75,
                             lam=0.75, limit_mode=True)
    assert no_solution_prob(erlang, 1.0) == pytest.approx(
        1.0 - 2.0 * math.exp(-1.0), rel=1e-12)
    # the generic formulas approach the limit forms continuously
    near = NoFeedbackModel(mu=1.0, nu=1.0 - 1e-9, B=5.0, c=0.5, p_bar=0.75,
                           lam=0.75)
    for a in (0.3, 1.0, 4.0):
        assert no_solution_prob(near, a) == pytest.approx(
            no_solution_prob(erlang, a), abs=1e-6)
        assert solution_density(near, a) == pytest.approx(
            solution_density(erlang, a), abs=1e-6)
        assert progress_given_no_solution(near, a) == pytest.approx(
            progress_given_no_solution(erlang, a), abs=1e-6)


def _race_reference(mu, nu, a):
    """CDF, density and conditional progress in 40-digit decimal
    arithmetic at the exact binary values of the inputs."""
    with localcontext() as ctx:
        ctx.prec = 40
        mu, nu, a = Decimal(mu), Decimal(nu), Decimal(a)
        e_mu, e_nu = (-mu * a).exp(), (-nu * a).exp()
        gap = a * e_mu if mu == nu else (e_mu - e_nu) / (nu - mu)
        return (float(1 - e_mu - mu * gap), float(mu * nu * gap),
                float(mu * gap / (e_mu + mu * gap)))


@pytest.mark.parametrize("rel", [0.0] + [s * 10.0 ** -k for k in
                                         (4, 7, 9, 11, 13, 15)
                                         for s in (1.0, -1.0)])
def test_race_exact_at_and_beside_equal_rates(rel):
    mu = 1.0
    nu = mu * (1.0 + rel)
    nf = NoFeedbackModel(mu=mu, nu=nu, B=5.0, c=0.5, p_bar=0.75, lam=0.75,
                         limit_mode=(mu == nu))
    for a in (0.01, 0.5, 1.0, 4.0, 20.0):
        got = (no_solution_prob(nf, a), solution_density(nf, a),
               progress_given_no_solution(nf, a))
        for value, want in zip(got, _race_reference(mu, nu, a)):
            assert abs(value - want) <= 1e-15, (nu, a)


def test_solution_density_anchor_and_normalization():
    assert solution_density(NF, 0.0) == 0.0
    assert solution_density(NF, 1.0) == pytest.approx(
        math.exp(-0.5) - math.exp(-1.0), rel=1e-12)
    assert solution_density(NF, 1.0) == pytest.approx(0.2387, abs=1e-4)
    total, _ = quad(lambda a: solution_density(NF, a), 0.0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_solution_density_monte_carlo_slope(rng):
    # finite difference of the Monte Carlo CDF around A=1
    n = 1_000_000
    h = 0.05
    t = rng.exponential(1.0 / NF.mu, n) + rng.exponential(1.0 / NF.nu, n)
    in_band = (t > 1.0 - h) & (t <= 1.0 + h)
    est = in_band.mean() / (2.0 * h)
    se = math.sqrt(in_band.mean() * (1.0 - in_band.mean()) / n) / (2.0 * h)
    assert abs(est - solution_density(NF, 1.0)) <= 3.0 * se + 1e-3


def test_solution_density_single_peak():
    grid = np.linspace(0.0, 20.0, 2001)
    dens = solution_density(NF, grid)
    rises = np.diff(dens) > 0
    # increasing then decreasing: exactly one sign change in the slope
    assert np.sum(rises[:-1] & ~rises[1:]) == 1
    peak = grid[np.argmax(dens)]
    assert peak == pytest.approx(math.log(NF.mu / NF.nu) / (NF.mu - NF.nu),
                                 abs=0.02)
    slower = NoFeedbackModel(mu=1.0, nu=0.3, B=5.0, c=0.5, p_bar=0.75,
                             lam=0.75)
    peak_slower = grid[np.argmax(solution_density(slower, grid))]
    assert peak_slower > peak


def test_density_is_cdf_derivative():
    h = 1e-5
    for a in np.linspace(0.05, 5.0, 100):
        fd = (no_solution_prob(NF, a + h)
              - no_solution_prob(NF, a - h)) / (2.0 * h)
        assert fd == pytest.approx(solution_density(NF, a), rel=1e-6)


def test_hazard_decomposition_identity(rng):
    # density = conversion rate * P(progress, no solution yet)
    for _ in range(1000):
        mu = rng.uniform(0.1, 3.0)
        nu = rng.uniform(0.1, 3.0)
        if abs(mu - nu) < 1e-3:
            continue
        a = rng.uniform(0.0, 10.0)
        nf = NoFeedbackModel(mu=mu, nu=nu, B=5.0, c=0.5, p_bar=0.75, lam=0.75)
        lhs = solution_density(nf, a)
        rhs = (nu * progress_given_no_solution(nf, a)
               * (1.0 - no_solution_prob(nf, a)))
        assert abs(lhs - rhs) <= 1e-10


def test_progress_given_no_solution_anchor(rng):
    assert progress_given_no_solution(NF, 0.0) == 0.0
    assert progress_given_no_solution(NF, 1.0) == pytest.approx(0.5647,
                                                                abs=1e-4)
    grid = np.linspace(0.0, 30.0, 300)
    vals = progress_given_no_solution(NF, grid)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals < 1.0)
    # conditional Monte Carlo at A = 1
    n = 1_000_000
    t1 = rng.exponential(1.0 / NF.mu, n)
    t2 = rng.exponential(1.0 / NF.nu, n)
    no_solution = t1 + t2 > 1.0
    progressed = no_solution & (t1 <= 1.0)
    est = progressed.sum() / no_solution.sum()
    se = math.sqrt(est * (1.0 - est) / no_solution.sum())
    assert abs(est - progress_given_no_solution(NF, 1.0)) <= 3.0 * se


def test_doing_density():
    assert doing_density(NF, 0.0) == pytest.approx(NF.lam * NF.p_bar,
                                                   rel=1e-12)
    assert doing_density(NF, 1.0) == pytest.approx(0.2657, abs=1e-4)
    assert doing_density(NF, 80.0) == pytest.approx(0.0, abs=1e-12)
    # slope of the unconditional success probability p_bar*(1 - e^{-lam A})
    h = 1e-6
    for a in (0.0, 0.7, 2.5):
        cdf = lambda x: NF.p_bar * -math.expm1(-NF.lam * x)
        fd = (cdf(a + h) - cdf(a)) / h
        assert fd == pytest.approx(doing_density(NF, a), rel=1e-5)


def test_array_inputs_match_scalar_loops():
    grid = np.array([0.0, 0.4, 1.3, 6.0])
    for fn in (no_solution_prob, solution_density,
               progress_given_no_solution, doing_density):
        batch = fn(NF, grid)
        assert isinstance(batch, np.ndarray)
        singles = [fn(NF, float(a)) for a in grid]
        np.testing.assert_allclose(batch, singles, rtol=1e-14)
        assert isinstance(fn(NF, 1.0), float)
