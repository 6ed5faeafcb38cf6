"""Model primitives: agent parameters, belief arithmetic, and the
value-of-progress family.

The agent splits effort between a risky "doing" arm (arrival rate ``lam``
when it works, which happens with prior probability ``p_bar``) and a safe
"thinking" arm (arrival rate ``mu``) whose arrival yields progress worth
``V(tau)`` when ``tau`` time remains.  Three families of V (SafeArm,
RiskyArm, PayoffStream) are one second arm, whose value formula is written
once in ``_Arm``.  Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Optional

import numpy as np


class ModelValidationError(ValueError):
    """A primitive violates one of its hard constructor invariants."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ModelValidationError(msg)


def _number(key: str, value) -> float:
    """A number read from outside the program (a config or a model spec)
    as a float.  A bool, a non-number and a value past the range of
    doubles (NaN and infinity too) are refused, naming ``key``."""
    # bool is an int, but JSON true/false is not a number
    _require(not isinstance(value, bool) and isinstance(value, (int, float)),
             f"{key} must be a number, got {value!r}")
    _require(-sys.float_info.max <= value <= sys.float_info.max,
             f"{key} must be finite, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# agent primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Agent primitives.

    p_bar : prior belief that the doing arm works, in (0, 1)
    lam   : arrival rate of the doing arm conditional on it working
    mu    : arrival rate of progress on the thinking arm
    c     : flow cost of effort
    B     : payoff of a solution
    T     : deadline (total time available)
    """

    p_bar: float
    lam: float
    mu: float
    c: float
    B: float
    T: float

    def __post_init__(self) -> None:
        _require(0.0 < self.p_bar < 1.0,
                 f"p_bar must lie strictly inside (0, 1), got {self.p_bar}")
        _require(self.lam > 0.0, f"lam must be positive, got {self.lam}")
        _require(self.mu > 0.0, f"mu must be positive, got {self.mu}")
        _require(self.c >= 0.0, f"c must be nonnegative, got {self.c}")
        _require(self.B > 0.0, f"B must be positive, got {self.B}")
        _require(self.T >= 0.0, f"T must be nonnegative, got {self.T}")
        for name in ("lam", "mu", "c", "B", "T"):
            value = getattr(self, name)
            _require(math.isfinite(value), f"{name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# scalar-or-array evaluation
# ---------------------------------------------------------------------------

def _ops(x):
    """Namespace for evaluating a formula at ``x``: numpy for arrays, and
    for scalars the matching ``math`` functions, which keep scalar results
    plain floats and are several times faster than numpy on one number."""
    return np if isinstance(x, np.ndarray) else _SCALAR_OPS


_SCALAR_OPS = SimpleNamespace(exp=math.exp, expm1=math.expm1, minimum=min,
                              where=lambda cond, a, b: a if cond else b)


def _growth_ratio(x: float, tau):
    """(exp(x*tau) - 1)/x at a scalar or array ``tau``, continuous at x = 0."""
    if x == 0.0:
        return tau
    return _ops(tau).expm1(x * tau) / x


def _exp_gap(a: float, b: float, t):
    """(exp(-a*t) - exp(-b*t))/(b - a) at a scalar or array ``t``, and its
    limit t*exp(-a*t) at a == b.  Both factors decay, so nothing cancels
    or overflows next to a == b."""
    return _ops(t).exp(-min(a, b) * t) * _growth_ratio(-abs(b - a), t)


def _checked_ops(x, order: int = 0, top: float = sys.float_info.max,
                 name: str = "tau"):
    """:func:`_ops` of ``x`` after rejecting any entry that is not finite or
    lies outside [0, top], and a derivative order other than 0, 1, 2.
    Scalars skip every numpy call: the solver makes thousands of scalar
    evaluations."""
    if isinstance(x, np.ndarray):
        # initial=0 accepts an empty array
        xp, lo, hi = np, x.min(initial=0.0), x.max(initial=0.0)
    else:
        xp, lo, hi = _SCALAR_OPS, x, x
    if not (0.0 <= lo and hi <= top):  # NaN and inf fail too: top is finite
        raise ValueError(
            f"{name} must be finite and in [0, {top:g}], got {x}")
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    return xp


# ---------------------------------------------------------------------------
# belief arithmetic
# ---------------------------------------------------------------------------

def posterior(p_bar: float, lam: float, doing_time):
    """Belief that the doing arm works after `doing_time` of unrewarded doing.

    Bayes rule against an exponential arrival:
    ``p_bar*exp(-lam*A) / (p_bar*exp(-lam*A) + 1 - p_bar)``.  Accepts a
    scalar or an array of doing times.
    """
    if not 0.0 < p_bar < 1.0:
        raise ValueError(f"p_bar must lie in (0, 1), got {p_bar}")
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    w = p_bar * _checked_ops(doing_time, name="doing_time").exp(-lam * doing_time)
    return w / (w + 1.0 - p_bar)


def doing_time_to_reach(p_bar: float, lam: float, p_target: float) -> float:
    """Doing time that drags the belief from `p_bar` down to `p_target`.

    Inverse of :func:`posterior` in its time argument.  Beliefs only fall
    while doing, so `p_target` above `p_bar` is rejected.
    """
    if not 0.0 < p_bar < 1.0:
        raise ValueError(f"p_bar must lie in (0, 1), got {p_bar}")
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    if not 0.0 < p_target <= p_bar:
        raise ValueError(
            f"p_target must lie in (0, p_bar]={(0.0, p_bar)}, got {p_target}: "
            "belief cannot rise without an arrival")
    odds_start = p_bar / (1.0 - p_bar)
    odds_end = p_target / (1.0 - p_target)
    return math.log(odds_start / odds_end) / lam


def _as_taus(schedule) -> tuple:
    """(tau1, tau2, tau3) of a schedule object or a 3-sequence, as floats;
    rounding noise down to -1e-12 is clipped to zero."""
    if hasattr(schedule, "tau1"):
        schedule = (schedule.tau1, schedule.tau2, schedule.tau3)
    taus = tuple(float(t) for t in schedule)
    if len(taus) != 3 or min(taus) < -1e-12:
        raise ValueError(f"schedule must be three nonnegative spans, got {taus}")
    return tuple(max(t, 0.0) for t in taus)


def _runs(labels: np.ndarray) -> tuple:
    """Run-length view of a label array, one label per sample or cell: where
    each run after the first starts, and the label of every run (none for
    an empty array).  The DP path, its majority view and a preference's
    sign pattern each put their own boundary at these starts."""
    starts = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    return starts, np.r_[labels[:1], labels[starts]]


# ---------------------------------------------------------------------------
# value-of-progress family
# ---------------------------------------------------------------------------

class ProgressModel:
    """Value of progress as a function of remaining time.

    Subclasses implement ``value(tau, order)`` returning V, V' or V'' and
    ``limit()`` returning the no-deadline value V(inf).  ``value`` takes a
    scalar (and returns a float) or an array (and returns an array).
    """

    @property
    def family(self) -> str:
        """The class name, which is the ``family`` key of a model spec."""
        return type(self).__name__

    def value(self, tau, order: int = 0):
        raise NotImplementedError

    def limit(self) -> float:
        raise NotImplementedError


class _Arm(ProgressModel):
    """Progress opens a second arm that works with probability p, then
    delivers B at rate nu against flow cost c, and is worked until ``stop``
    (its belief's indifference point; infinite for a sure arm, p = 1).
    Over a remaining window tau its value is
    ``p*(1 - exp(-nu*tau))*(B - c/nu) - (1 - p)*c*tau`` up to ``stop`` and
    flat after it.  A family gives ``_arm = (p, nu, B, c, stop)``."""

    def value(self, tau, order: int = 0):
        xp = _checked_ops(tau, order)
        p, nu, b, cc, stop = self._arm
        decay = xp.exp(-nu * tau)
        if order == 0:
            active = p * (1.0 - decay) * (b - cc / nu) - (1.0 - p) * cc * tau
        elif order == 1:
            active = p * decay * (nu * b - cc) - (1.0 - p) * cc
        else:
            active = -nu * p * decay * (nu * b - cc)
        if stop == math.inf:
            return active
        return xp.where(tau <= stop, active,
                        self.limit() if order == 0 else 0.0)

    def limit(self) -> float:
        # flat past a finite stop, continuous with the active branch there
        p, nu, b, cc, stop = self._arm
        drift = 0.0 if stop == math.inf else (1.0 - p) * cc * stop
        return p * b - cc / nu - drift


@dataclass(frozen=True)
class SafeArm(_Arm):
    """Progress opens a known-rate conversion arm (p = 1): working it costs
    ``c_nu`` per unit time and delivers ``B_nu`` at rate ``nu``."""

    nu: float
    B_nu: float
    c_nu: float = 0.0

    def __post_init__(self) -> None:
        _require(self.nu > 0.0, f"nu must be positive, got {self.nu}")
        _require(self.c_nu >= 0.0, f"c_nu must be nonnegative, got {self.c_nu}")
        _require(self.nu * self.B_nu > self.c_nu,
                 "conversion arm must be worth working: nu*B_nu > c_nu")

    @cached_property
    def _arm(self) -> tuple:
        return 1.0, self.nu, self.B_nu, self.c_nu, math.inf


@dataclass(frozen=True)
class RiskyArm(_Arm):
    """Progress opens a second risky arm that works with probability
    ``p_bar_nu``.

    The arm is pulled until the posterior on it reaches the myopic
    indifference belief ``c_nu/(nu*B_nu)``, which happens after
    ``stop_time`` of unrewarded pulling; beyond that the opportunity is
    worthless at the margin and the value is flat.
    """

    p_bar_nu: float
    nu: float
    B_nu: float
    c_nu: float

    def __post_init__(self) -> None:
        _require(0.0 < self.p_bar_nu < 1.0,
                 f"p_bar_nu must lie in (0, 1), got {self.p_bar_nu}")
        _require(self.nu > 0.0, f"nu must be positive, got {self.nu}")
        _require(self.c_nu > 0.0,
                 "c_nu must be positive for a finite stopping time")
        _require(self.nu * self.B_nu > self.c_nu,
                 "arm must be worth starting: nu*B_nu > c_nu")
        self._arm  # the stopping odds, checked and cached

    @cached_property
    def _arm(self) -> tuple:
        odds = self.p_bar_nu / (1.0 - self.p_bar_nu)
        arg = odds * (self.nu * self.B_nu - self.c_nu) / self.c_nu
        _require(arg > 1.0,
                 "no valid stopping time: the posterior starts at or below "
                 "the indifference belief c_nu/(nu*B_nu)")
        return (self.p_bar_nu, self.nu, self.B_nu, self.c_nu,
                math.log(arg) / self.nu)

    @property
    def stop_time(self) -> float:
        """Pulling time after which the arm is abandoned."""
        return self._arm[4]


@dataclass(frozen=True)
class TimeVarying(ProgressModel):
    """Progress opens a conversion opportunity whose hazard drifts in
    calendar time: rate ``nu*exp(alpha + beta*t)`` after t of conversion
    effort, paying ``B`` against flow cost ``c``.

    The value is the expected discounted-by-survival payoff of riding that
    hazard for the remaining window; it has no closed form and is evaluated
    by adaptive quadrature in cumulative-hazard units, one per point.
    """

    nu: float
    alpha: float
    beta: float
    B: float
    c: float

    def __post_init__(self) -> None:
        _require(self.nu > 0.0, f"nu must be positive, got {self.nu}")
        _require(self.B > 0.0, f"B must be positive, got {self.B}")
        _require(self.c >= 0.0, f"c must be nonnegative, got {self.c}")

    def _cum_hazard(self, t):
        return self.nu * math.exp(self.alpha) * _growth_ratio(self.beta, t)

    def _hazard_integral(self, upper: float) -> float:
        # Substituting u = cumulative hazard turns the integrand into
        # exp(-u) * (B - c/rate(u)) with rate(u) = base + beta*u.
        if upper == 0.0:
            return 0.0
        from scipy.integrate import quad  # loaded on first use: slow to import

        base = self.nu * math.exp(self.alpha)
        val, _ = quad(
            lambda u: math.exp(-u) * (self.B - self.c / (base + self.beta * u)),
            0.0, upper, epsabs=1e-10, epsrel=1e-12, limit=200)
        return val

    def value(self, tau, order: int = 0):
        xp = _checked_ops(tau, order)
        if order == 0:
            upper = self._cum_hazard(tau)
            if xp is np:
                return np.vectorize(self._hazard_integral, otypes=[float])(upper)
            return self._hazard_integral(upper)
        rate = self.nu * xp.exp(self.alpha + self.beta * tau)
        surv = xp.exp(-self._cum_hazard(tau))
        if order == 1:
            return surv * (rate * self.B - self.c)
        return surv * (self.beta * rate * self.B - rate * (rate * self.B - self.c))

    def limit(self) -> float:
        base = self.nu * math.exp(self.alpha)
        if self.beta > 0.0:
            return self._hazard_integral(math.inf)
        if self.beta == 0.0:
            return self.B - self.c / base
        # Decaying hazard: total hazard is finite, so once the rate has
        # burned out the flow cost accumulates without bound.
        total_hazard = base / abs(self.beta)
        if self.c == 0.0:
            return self.B * -math.expm1(-total_hazard)
        return -math.inf


@dataclass(frozen=True)
class PayoffStream(_Arm):
    """Progress triggers a mean-reverting payoff stream whose expected
    level at the deadline is ``B_nu*(1 - exp(-nu*tau))``: a sure, costless
    arm (p = 1, c = 0)."""

    nu: float
    B_nu: float

    def __post_init__(self) -> None:
        _require(self.nu > 0.0, f"nu must be positive, got {self.nu}")
        _require(self.B_nu > 0.0, f"B_nu must be positive, got {self.B_nu}")

    @cached_property
    def _arm(self) -> tuple:
        return 1.0, self.nu, self.B_nu, 0.0, math.inf


@dataclass(frozen=True)
class Tabulated(ProgressModel):
    """Escape hatch: a value-of-progress curve given as (tau, V) samples,
    interpolated by a monotone piecewise cubic."""

    taus: tuple
    values: tuple

    def __post_init__(self) -> None:
        _require(len(self.taus) == len(self.values),
                 "taus and values must have equal length")
        _require(len(self.taus) >= 4, "need at least 4 grid points")
        t = np.asarray(self.taus, dtype=float)
        v = np.asarray(self.values, dtype=float)
        _require(bool(np.all(np.diff(t) > 0.0)), "taus must be strictly increasing")
        _require(t[0] == 0.0, "grid must start at tau=0")
        _require(v[0] == 0.0, "value at tau=0 must be 0")
        _require(bool(np.all(np.diff(v) >= 0.0)), "values must be nondecreasing")

    @cached_property
    def _curves(self) -> tuple:
        """V, V' and V'' as interpolants, built once."""
        from scipy.interpolate import PchipInterpolator  # slow to import

        v = PchipInterpolator(np.asarray(self.taus, dtype=float),
                              np.asarray(self.values, dtype=float))
        return v, v.derivative(1), v.derivative(2)

    @cached_property
    def _flat_tail(self) -> bool:
        return abs(self.values[-1] - self.values[-2]) < 1e-8

    def value(self, tau, order: int = 0):
        """Past the last knot a flat tail extends flat (V stays at its last
        value, V' = V'' = 0); any other tail admits no tau beyond it."""
        end = self.taus[-1]
        xp = _checked_ops(tau, order, top=(sys.float_info.max
                                           if self._flat_tail else end))
        curve = self._curves[order]
        past = float(self.values[-1]) if order == 0 else 0.0
        if xp is np:
            return np.where(tau > end, past, curve(np.minimum(tau, end)))
        return past if tau > end else float(curve(tau))

    def limit(self) -> float:
        if not self._flat_tail:
            raise ValueError(
                "tabulated grid is not flattened at the tail; cannot read "
                "off the no-deadline value")
        return float(self.values[-1])


# the public families: every class above that a model spec can name
_FAMILIES = {cls.__name__: cls for base in (ProgressModel, _Arm)
             for cls in base.__subclasses__()
             if not cls.__name__.startswith("_")}


def progress_model_from_dict(spec: dict) -> ProgressModel:
    """Build a family member from a plain dict with a ``family`` key."""
    if not isinstance(spec, dict):
        raise ModelValidationError(
            f"model spec must be a JSON object, got {spec!r}")
    kwargs = dict(spec)
    name = kwargs.pop("family", None)
    if not isinstance(name, str) or name not in _FAMILIES:
        raise ModelValidationError(
            f"unknown progress-model family {name!r}; "
            f"expected one of {sorted(_FAMILIES)}")
    cls = _FAMILIES[name]
    if name == "Tabulated":
        for key in ("taus", "values"):
            if not isinstance(kwargs.get(key), (list, tuple)):
                raise ModelValidationError(
                    f"Tabulated needs a list {key!r}, got {kwargs.get(key)!r}")
        kwargs = {key: tuple(_number(f"{name}.{key}[{i}]", val)
                             for i, val in enumerate(kwargs[key]))
                  for key in ("taus", "values")}
    else:
        kwargs = {key: _number(f"{name}.{key}", val)
                  for key, val in kwargs.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ModelValidationError(f"bad parameters for {name}: {exc}") from exc


def progress_value_array(model: ProgressModel, taus, order: int = 0) -> np.ndarray:
    """V, V' or V'' of any family member on an array of remaining times."""
    return model.value(np.asarray(taus, dtype=float), order)


# ---------------------------------------------------------------------------
# validity checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness_tau: Optional[float] = None
    witness_value: Optional[float] = None
    detail: str = ""
    advisory: bool = False


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    overall: bool

    def failure_names(self) -> list:
        return [c.name for c in self.checks if not c.passed and not c.advisory]


_CHECK_POINTS = 512  # geometric grid on which validate_model samples V


def _check_grid(params: ModelParams, model: ProgressModel) -> np.ndarray:
    hi = max(10.0 / params.lam, 10.0 / params.mu, 2.0 * params.T)
    if isinstance(model, Tabulated):
        hi = min(hi, model.taus[-1])
    if isinstance(model, _Arm):
        # the stated conditions hold while the arm is worth working; past
        # its stop the value is flat by design
        hi = min(hi, model._arm[4])
    return np.geomspace(hi * 1e-6, hi, _CHECK_POINTS)


def _first_failure(bad: np.ndarray, at: np.ndarray, values: np.ndarray) -> tuple:
    """(passed, witness tau, witness value) of a check sampled on a grid
    that fails where ``bad`` holds; the witness is the first failure."""
    idx = np.flatnonzero(bad)
    if idx.size == 0:
        return True, None, None
    return False, float(at[idx[0]]), float(values[idx[0]])


def validate_model(params: ModelParams, model: ProgressModel) -> ValidationReport:
    """Check the standing conditions on the value of progress.

    Conditions: V(0)=0, V strictly increasing, relative concavity
    -V''/V' >= p_bar*lam, c/mu < V(inf) <= B + c/mu, and (when mu > lam) a
    monotone deadline-salience ratio.  Each condition is sampled on a
    geometric grid; a failing entry carries a concrete witness point.
    Derivative-based checks on tabulated curves are advisory only.
    """
    checks: list = []
    grid = _check_grid(params, model)
    advisory_derivs = isinstance(model, Tabulated)

    v0 = model.value(0.0)
    checks.append(CheckResult("value_at_zero", abs(v0) <= 1e-12, 0.0, v0))

    # every check reads terms sampled on the grid; they are sampled
    # quietly, and one past the range of doubles fails here by name
    mu, lam, B, c = params.mu, params.lam, params.B, params.c
    salient = mu > lam and lam * B > c  # deadline salience is relevant
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [progress_value_array(model, grid, 1),
                 progress_value_array(model, grid, 2)]
        if salient:
            from .policy import _belief_terms  # late import: avoids a cycle
            u2 = -lam * (lam * B - c) * np.exp(-lam * grid)
            terms += [(mu - lam) * u2, *_belief_terms(params, model, grid)]
    size = np.abs(terms).max(axis=0)
    checks.append(CheckResult("finite_terms", *_first_failure(
        ~np.isfinite(size), grid, size), detail="largest |term| at tau"))
    d1, d2 = terms[:2]

    # strict increase: first derivative (value differences for Tabulated)
    if advisory_derivs:
        rise, at = np.diff(progress_value_array(model, grid)), grid[1:]
    else:
        rise, at = d1, grid
    checks.append(CheckResult("strictly_increasing",
                              *_first_failure(rise <= 0.0, at, rise)))

    # relative concavity: -V''/V' >= p_bar*lam
    floor = params.p_bar * params.lam
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d1 > 0.0, -d2 / d1, np.inf)
    checks.append(CheckResult("relative_concavity",
                              *_first_failure(ratio < floor - 1e-9, grid, ratio),
                              detail=f"required >= {floor}",
                              advisory=advisory_derivs))

    # limits
    try:
        vinf = model.limit()
        ok_low = vinf > params.c / params.mu
        checks.append(CheckResult(
            "limit_exceeds_thinking_cost", ok_low, None, vinf,
            detail=f"required > {params.c / params.mu}"))
        ok_high = vinf <= params.B + params.c / params.mu + 1e-9
        checks.append(CheckResult(
            "limit_within_reward_bound", ok_high, None, vinf,
            detail=f"required <= {params.B + params.c / params.mu}"))
    except ValueError as exc:
        checks.append(CheckResult("limit_exceeds_thinking_cost", False,
                                  None, None, detail=str(exc)))
        checks.append(CheckResult("limit_within_reward_bound", False,
                                  None, None, detail=str(exc)))

    # deadline-salience monotonicity, relevant only when mu > lam
    if salient and np.isfinite(size).all():
        f = mu * d2 / terms[2] - terms[3] / terms[4]
        diffs = np.diff(f)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(f))))
        # either direction is monotone; a ratio that rises somewhere fails
        # where it first falls
        falls = (diffs < -tol) & bool(np.any(diffs > tol))
        checks.append(CheckResult("deadline_salience_monotone",
                                  *_first_failure(falls, grid, diffs),
                                  advisory=advisory_derivs))

    overall = all(c.passed for c in checks if not c.advisory)
    return ValidationReport(tuple(checks), overall)


# ---------------------------------------------------------------------------
# terminal incentives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoShirkResult:
    """Whether the agent still wants to pull an arm at the deadline."""

    ok: bool
    threshold: float
    belief_floor: float

    def __bool__(self) -> bool:
        return self.ok


def no_shirk_check(params: ModelParams, terminal_belief: float) -> NoShirkResult:
    """True iff the terminal belief clears the incentive bound c/(lam*B).

    Also exposes the model-free floor on the terminal belief: the posterior
    after doing for the whole horizon.
    """
    if not 0.0 < terminal_belief < 1.0:
        raise ValueError(
            f"terminal_belief must lie in (0, 1), got {terminal_belief}")
    threshold = params.c / (params.lam * params.B)
    floor = posterior(params.p_bar, params.lam, params.T)
    return NoShirkResult(bool(terminal_belief >= threshold), threshold, floor)
