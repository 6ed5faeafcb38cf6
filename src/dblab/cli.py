"""Command line front end.

Subcommands: ``solve`` (closed-form schedule for one configuration),
``verify`` (cross-check the schedule against the discrete-time oracle),
``sweep`` (schedule and outcome metrics across a parameter grid),
``simulate`` (Monte Carlo of a solved schedule), ``trajectory``
(occupancy curves of a solved schedule).

Exit codes: 0 success, 1 unreadable input, 2 invalid configuration or
grid, 3 solver or verification failure, 4 output write failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dp import CoarseGridError, Grid, agreement, dp_no_feedback, \
    dp_reduced, dp_two_stage, extract_schedule
from .model import (
    ModelParams,
    ModelValidationError,
    _number,
    _require,
    progress_model_from_dict,
)
from .nofeedback import NoFeedbackModel
from .outcomes import (
    SWEEP_COLUMNS,
    SimConfig,
    conversion_rate,
    route_probabilities,
    simulate,
    sweep,
    trajectory_probabilities,
)
from .policy import SearchCeilingError
from .solver import SolverError, belief_thresholds, solve, \
    solve_infinite_horizon

_AGENT_KEYS = {"p_bar", "lambda", "mu", "c", "B", "T"}


class _WriteFailure(Exception):
    """Wrapper marking an OSError raised while writing results."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _normalize(obj):
    """Round floats to 12 significant digits so serialization is a fixed
    point under parse/dump cycles; null for a non-finite one (strict JSON)."""
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, float):
        return float("%.12g" % obj) if np.isfinite(obj) else None
    return obj


@dataclass
class RunConfig:
    """Parsed run configuration: agent parameters, progress model, and
    optional solver / oracle / simulation / sweep blocks."""

    params: ModelParams
    model_spec: dict
    solver: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict) or "agent" not in data or "model" not in data:
            raise ValueError("config must contain 'agent' and 'model' blocks")
        agent = _block(data, "agent")
        unknown = set(agent) - _AGENT_KEYS
        if unknown:
            raise ValueError(f"unknown agent keys: {sorted(unknown)}")
        missing = _AGENT_KEYS - set(agent)
        if missing:
            raise ValueError(f"missing agent keys: {sorted(missing)}")
        num = {key: _number(f"agent.{key}", agent[key]) for key in agent}
        params = ModelParams(p_bar=num["p_bar"], lam=num["lambda"],
                             mu=num["mu"], c=num["c"], B=num["B"], T=num["T"])
        model_spec = _block(data, "model")
        progress_model_from_dict(model_spec)  # fail fast on bad spec
        blocks = {name: _block(data, name) for name in _BLOCK_KEYS}
        for name, block in blocks.items():
            for key in block:
                if key not in _BLOCK_KEYS[name]:
                    raise ValueError(f"unknown config key {name}.{key}")
                read = _BLOCK_KEYS[name][key]
                if read is not None:
                    block[key] = read(f"{name}.{key}", block[key])
        return cls(params=params, model_spec=model_spec, **blocks)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def build_model(self):
        return progress_model_from_dict(self.model_spec)



def _block(data: dict, name: str) -> dict:
    """A copy of the config block ``name`` (empty when absent)."""
    block = data.get(name, {})
    if not isinstance(block, dict):
        raise ModelValidationError(
            f"config block {name!r} must be a JSON object, got {block!r}")
    return dict(block)


def _count(key: str, value) -> int:
    """A whole number read from the config; 1e6 reads as 1000000."""
    number = _number(key, value)
    _require(number.is_integer(),
             f"{key} must be a whole number, got {value!r}")
    return int(number)


def _parse_grid(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like start:stop:step, got {text!r}")
    start, stop, step = (_number(f"grid {text!r}", float(p)) for p in parts)
    if step <= 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    values = np.arange(start, stop + 0.5 * step, step)
    return [float(v) for v in values if v <= stop + 1e-12]


def _grid(key: str, spec) -> list:
    """The values of a config's sweep grid: a list, or start:stop:step."""
    if isinstance(spec, str):
        return _parse_grid(spec)
    if isinstance(spec, (list, tuple)):
        return [_number(f"{key}[{i}]", v) for i, v in enumerate(spec)]
    raise ValueError(f"unusable grid spec: {spec!r}")


# the known keys of the optional blocks, each with the reader that turns
# its value into a number when the config is read (None: not a number)
_BLOCK_KEYS = {"solver": {"tau_tol": _number},
               "oracle": {"kind": None, "dt": _number, "nu": _number},
               "sim": {"reps": _count, "seed": _count, "nu": _number},
               "sweep": {"variable": None, "grid": _grid, "nu": _number}}


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as err:
        raise _WriteFailure(f"cannot write {path}: {err}") from err


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in header))
    _write_text(path, "\n".join(lines) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    if not out.is_dir():
        raise _WriteFailure(f"output directory {out} does not exist")
    return out


def _solve_from_config(cfg: RunConfig):
    model = cfg.build_model()
    # the solver block holds keywords of solve, all checked numbers
    return model, solve(cfg.params, model, **cfg.solver)


def cmd_solve(args) -> int:
    cfg = RunConfig.from_file(args.config)
    model, sched = _solve_from_config(cfg)
    plan = solve_infinite_horizon(cfg.params, model)
    payload = {
        "tau1": sched.tau1, "tau2": sched.tau2, "tau3": sched.tau3,
        "structure": sched.structure, "q_at_switch": sched.q_at_switch,
        "terminal_belief": sched.terminal_belief,
        "no_shirk_ok": sched.no_shirk_ok,
        "infinite_horizon": {"p_hat": plan.p_hat,
                             "switch_time": plan.switch_time,
                             "structure": plan.structure},
    }
    try:
        th = belief_thresholds(cfg.params, model)
        payload["thresholds"] = {"p_hat": th.p_hat, "p_tilde": th.p_tilde,
                                 "p_check": th.p_check, "T1": th.T1}
    except (SolverError, SearchCeilingError, ValueError):
        payload["thresholds"] = None
    out = _out_dir(args) / "schedule.json"
    _write_text(out, json.dumps(_normalize(payload), indent=2,
                                sort_keys=True) + "\n")
    print(f"structure {sched.structure}: do {_fmt(sched.tau1)}, "
          f"think {_fmt(sched.tau2)}, do {_fmt(sched.tau3)} "
          f"(T={_fmt(cfg.params.T)})")
    print(f"wrote {out}")
    return 0


def cmd_verify(args) -> int:
    cfg = RunConfig.from_file(args.config)
    dt = (_number("--dt", args.dt) if args.dt is not None
          else cfg.oracle.get("dt", 1e-3))
    kind = cfg.oracle.get("kind", "reduced")
    model = cfg.build_model()
    grid = Grid.from_horizon(cfg.params.T, dt)
    if kind == "reduced":
        dp = dp_reduced(cfg.params, model, grid, keep_values=False)
    elif kind == "two_stage":
        dp = dp_two_stage(cfg.params, model, grid)
    elif kind == "no_feedback":
        nu = conversion_rate(model, cfg.oracle.get("nu"))
        nf = NoFeedbackModel(mu=cfg.params.mu, nu=nu, B=cfg.params.B,
                             c=cfg.params.c, p_bar=cfg.params.p_bar,
                             lam=cfg.params.lam)
        dp = dp_no_feedback(nf, cfg.params.T, grid)
    else:
        raise ValueError(f"unknown oracle kind {kind!r}")
    report = {"kind": kind, "dt": dt,
              "oracle_intervals": [list(iv) for iv in extract_schedule(dp)]}
    if kind == "no_feedback":
        # structural check only: thinking, once started, never stops early
        labels = [lab for *_, lab in dp.switch_times]
        ok = "DO" not in labels[labels.index("THINK") + 1:] \
            if "THINK" in labels else True
        report["check"] = "no return to doing after thinking"
        report["pass"] = bool(ok)
    else:
        report.update(agreement(solve(cfg.params, model, **cfg.solver), dp))
    out = _out_dir(args) / "verify.json"
    _write_text(out, json.dumps(_normalize(report), indent=2,
                                sort_keys=True) + "\n")
    status = "PASS" if report["pass"] else "FAIL"
    print(f"verify[{kind}] dt={_fmt(dt)}: {status}")
    print(f"wrote {out}")
    if not report["pass"]:
        why = report.get("reason") or f"its path fails '{report['check']}'"
        raise SolverError(f"oracle disagrees with closed-form schedule: {why}")
    return 0


def cmd_sweep(args) -> int:
    cfg = RunConfig.from_file(args.config)
    model = cfg.build_model()
    variable = args.variable or cfg.sweep.get("variable")
    if variable is None:
        raise ValueError("no sweep variable: use --variable or the config")
    values = (_parse_grid(args.grid) if args.grid is not None
              else cfg.sweep.get("grid"))
    if values is None:
        raise ValueError("no sweep grid: use --grid or the config")
    rows = sweep(cfg.params, model, variable, values, nu=cfg.sweep.get("nu"),
                 **cfg.solver)
    out = _out_dir(args) / "sweep.csv"
    _write_csv(out, SWEEP_COLUMNS, rows)
    n_err = sum(1 for r in rows if str(r["structure"]).startswith("ERROR"))
    print(f"swept {variable} over {len(values)} points "
          f"({n_err} failed); wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = RunConfig.from_file(args.config)
    model, sched = _solve_from_config(cfg)
    nu = conversion_rate(model, cfg.sim.get("nu"))
    # a flag wins over the config; SimConfig holds the defaults
    counts = {key: cfg.sim[key] for key in ("reps", "seed") if key in cfg.sim}
    counts.update((key, getattr(args, key)) for key in ("reps", "seed")
                  if getattr(args, key) is not None)
    result = simulate(sched, cfg.params, nu, SimConfig(**counts))
    out = _out_dir(args) / "simulate.csv"
    row = {"estimate": result.success_rate, "std_err": result.success_se,
           "reps": result.reps, "seed": result.seed}
    _write_csv(out, ("estimate", "std_err", "reps", "seed"), [row])
    exact = route_probabilities(sched, cfg.params, nu).p_total
    print(f"success rate {_fmt(result.success_rate)} "
          f"+/- {_fmt(result.success_se)} (closed form {_fmt(exact)})")
    print(f"wrote {out}")
    return 0


def cmd_trajectory(args) -> int:
    cfg = RunConfig.from_file(args.config)
    model, sched = _solve_from_config(cfg)
    nu = conversion_rate(model, cfg.sim.get("nu"))
    curves = trajectory_probabilities(sched, cfg.params, nu)
    rows = [
        {"t": t, "p_progress": pp, "p_solution": ps, "p_neither": pn}
        for t, pp, ps, pn in zip(curves["t"], curves["p_progress"],
                                 curves["p_solution"], curves["p_neither"])
    ]
    out = _out_dir(args) / "trajectory.csv"
    _write_csv(out, ("t", "p_progress", "p_solution", "p_neither"), rows)
    print(f"wrote {out} ({len(rows)} points)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dblab",
        description="Schedule doing against thinking under a deadline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="JSON run configuration")
        p.add_argument("--out", default=".",
                       help="directory for result files")

    p_solve = sub.add_parser("solve", help="closed-form schedule")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify",
                              help="cross-check against the grid oracle")
    common(p_verify)
    p_verify.add_argument("--dt", type=float, default=None,
                          help="oracle step size")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="metrics across a parameter grid")
    common(p_sweep)
    p_sweep.add_argument("--grid", default=None,
                         help="grid as start:stop:step")
    p_sweep.add_argument("--variable", choices=("T", "p_bar"), default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo of the schedule")
    common(p_sim)
    p_sim.add_argument("--reps", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_traj = sub.add_parser("trajectory", help="occupancy curves over time")
    common(p_traj)
    p_traj.set_defaults(func=cmd_trajectory)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, json.JSONDecodeError,
            UnicodeDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1
    except (ModelValidationError, CoarseGridError, ValueError) as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return 2
    except (SolverError, SearchCeilingError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    except _WriteFailure as err:
        print(f"output error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
