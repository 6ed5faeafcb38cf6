"""The in-house root finder against scipy.

``dblab._roots`` ports scipy's ``brentq`` operation for operation, so every
comparison here is ``==`` on the double, not a tolerance.  scipy is the
reference in these tests only.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from dblab import (
    ModelParams,
    RiskyArm,
    SafeArm,
    Tabulated,
    belief_thresholds,
    hail_mary_time,
    solve,
    solve_no_cost,
    thinking_span,
)
from dblab import _roots
from dblab._roots import brentq
from test_solver import _random_instance

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
XTOLS = st.sampled_from([1e-9, 1e-10, 1e-12, 2e-12, 5e-324])


def _outcome(call, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return call(*args, **kwargs)
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


def _assert_same_root(f, a, b, xtol):
    assert _outcome(brentq, f, a, b, xtol) == \
        _outcome(scipy_brentq, f, a, b, xtol=xtol)


# ---------------------------------------------------------------------------
# brentq on synthetic brackets
# ---------------------------------------------------------------------------

@PROPERTY
@given(root=st.floats(-5.0, 5.0), left=st.floats(1e-3, 10.0),
       right=st.floats(1e-3, 10.0), k=st.floats(0.0, 50.0), xtol=XTOLS)
def test_brentq_matches_scipy_on_polynomials(root, left, right, k, xtol):
    cubic = lambda x: (x - root) * (1.0 + k * (x - root) ** 2)
    _assert_same_root(cubic, root - left, root + right, xtol)
    quintic = lambda x: (x - root) ** 5 + k * (x - root) - 1e-9
    _assert_same_root(quintic, root - left, root + right, xtol)


@PROPERTY
@given(root=st.floats(-3.0, 3.0), left=st.floats(1e-3, 5.0),
       right=st.floats(1e-3, 5.0), k=st.floats(0.05, 30.0),
       w=st.floats(0.0, 10.0), xtol=XTOLS)
def test_brentq_matches_scipy_on_exp_mixes(root, left, right, k, w, xtol):
    mix = lambda x: math.expm1(k * (x - root)) + w * (x - root)
    _assert_same_root(mix, root - left, root + right, xtol)
    # a decreasing mix with a constant offset, so the root is not a knot
    # of the formula
    off = lambda x: math.exp(-k * x) - math.exp(-k * root) + 1e-3 * (root - x)
    _assert_same_root(off, root - left, root + right, xtol)


@PROPERTY
@given(root=st.floats(-1.0, 1.0), k=st.floats(1.0, 1e4),
       span=st.floats(1e-2, 100.0), xtol=XTOLS)
def test_brentq_matches_scipy_on_steep_brackets(root, k, span, xtol):
    _assert_same_root(lambda x: math.tanh(k * (x - root)),
                      root - span, root + 0.37 * span, xtol)
    _assert_same_root(lambda x: math.atan(k * (x - root)) - 1e-3,
                      root - span, root + span, xtol)


def test_brentq_endpoint_roots_and_errors_match_scipy():
    f = lambda x: x - 0.5
    assert brentq(f, 0.5, 1.0, 1e-9) == scipy_brentq(f, 0.5, 1.0, xtol=1e-9)
    assert brentq(f, 0.0, 0.5, 1e-9) == scipy_brentq(f, 0.0, 0.5, xtol=1e-9)
    # a same-sign bracket, a NaN value and a bracket bisection cannot
    # close in 100 iterations raise the same exception types and messages
    cases = [(lambda x: x * x + 1.0, 0.0, 1.0, ValueError, "different signs"),
             (lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, ValueError,
              "is NaN"),
             (lambda x: -1.0 if x < 1.0 else 1.0, 0.0, 1e300, RuntimeError,
              "Failed to converge after 100 iterations")]
    for fn, a, b, exc, text in cases:
        ours = _outcome(brentq, fn, a, b, 1e-9)
        assert ours[0] is exc and text in ours[1]
        assert ours == _outcome(scipy_brentq, fn, a, b, xtol=1e-9)


def test_brentq_coerces_numpy_inputs():
    f = lambda x: np.float64(x) ** 3 - np.float64(2.0)
    a, b = np.float64(0.0), np.float64(2.0)
    root = brentq(f, a, b, 1e-12)
    assert type(root) is float and root == scipy_brentq(f, a, b, xtol=1e-12)


# ---------------------------------------------------------------------------
# the real callbacks: every call the solver makes, checked against scipy
# ---------------------------------------------------------------------------

class _CrossCheck:
    """Replace the port with a version that also runs scipy on the same
    callback and bracket and insists on the same double."""

    def __init__(self, monkeypatch):
        self.roots = 0
        port_root = _roots.brentq

        def root(f, a, b, xtol):
            got = port_root(f, a, b, xtol)
            assert got == scipy_brentq(f, a, b, xtol=xtol), (a, b, xtol)
            self.roots += 1
            return got

        monkeypatch.setattr(_roots, "brentq", root)


@PROPERTY
@given(tau3=st.floats(0.0, 6.0), p=st.floats(0.01, 0.99),
       mu=st.floats(0.4, 2.0), nu=st.floats(0.5, 3.0))
def test_policy_callbacks_match_scipy(tau3, p, mu, nu):
    params = ModelParams(p_bar=0.75, lam=0.75, mu=mu, c=0.5, B=5.0, T=1.9)
    model = SafeArm(nu=nu, B_nu=5.0, c_nu=0.5)
    with pytest.MonkeyPatch.context() as mp:
        _CrossCheck(mp)
        # either may raise (a boundary belief of one, a belief beyond the
        # search ceiling); a call that reached a search was still checked
        _outcome(thinking_span, params, model, tau3)
        _outcome(hail_mary_time, params, model, p)


def test_solver_calls_match_scipy_on_drawn_instances(monkeypatch):
    check = _CrossCheck(monkeypatch)
    rng = np.random.default_rng(6)
    for _ in range(4):
        params, model = _random_instance(rng)
        for T in (0.5, 2.0, 8.0):
            solve(dataclasses.replace(params, T=T), model, validate=False)
        for tau3 in (0.2, 1.0, 3.0):
            _outcome(thinking_span, params, model, tau3)
        for p in (0.2, 0.6, 0.95):
            _outcome(hail_mary_time, params, model, p)
        _outcome(belief_thresholds, params, model)
    assert check.roots > 100


def test_generic_family_calls_match_scipy(monkeypatch, base_params):
    check = _CrossCheck(monkeypatch)
    risky = RiskyArm(p_bar_nu=0.7, nu=1.1, B_nu=4.0, c_nu=0.4)
    taus = np.linspace(0.0, 15.0, 61)
    table = Tabulated(taus=tuple(taus),
                      values=tuple(-4.5 * np.expm1(-np.minimum(taus, 14.0))))
    for model in (risky, table):
        thinking_span(base_params, model, 1.0)
        hail_mary_time(base_params, model, 0.6)
    solve(base_params, table)
    costless = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.0)
    solve_no_cost(dataclasses.replace(base_params, T=6.0), costless)
    assert check.roots > 5
