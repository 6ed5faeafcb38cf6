"""The two benchmark workloads: seeded inputs, timed ops and output checks.

Every workload is a closed loop with one caller and one op in flight.  It
hands out ops a round at a time; round ``r`` draws its inputs from its own
stream ``numpy.random.default_rng([seed, r])``, so a seed fixes every
input and rounds can be drawn lazily.  dblab only ever sees the generated
inputs.

An op is timed by its ``run``; its ``check`` then returns the problems it
found, and any problem fails the op.  ``perturb`` is
added to every ``tau1`` the program reports before it is checked; the
self-test sets it to prove that the checks can fail.

Every workload sticks to inputs on which the program is expected to be
right, so no op should fail.  The known defects outside them are listed in
``ledger.json`` and re-run by the traced run's probes instead.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import dblab
import dblab.cli
from dblab import (
    Grid,
    ModelParams,
    NoFeedbackModel,
    SafeArm,
    SearchCeilingError,
    SolverError,
)

HERE = Path(__file__).resolve().parent

# Reference agent of the acceptance suite and the README (T varies).
REF = dict(p_bar=0.75, lam=0.75, mu=1.0, c=0.5, B=5.0)
HORIZONS = (0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _g12(x: float) -> float:
    return float("%.12g" % x)


def _oracle_taus(intervals, T: float):
    """Collapse the oracle's intervals to (tau1, tau2, tau3) the way the
    DP cross-check test does; None when the pattern has no such form."""
    labels = [lab for _, _, lab in intervals]
    think = [(a, b) for a, b, lab in intervals if lab == "THINK"]
    if len(intervals) > 3 or len(think) > 1 or not set(labels) <= {"DO", "THINK"}:
        return None
    if not think:
        return 0.0, 0.0, T
    (a, b), = think
    return a, b - a, T - b


def _schedule_mismatch(got, want, tol: float) -> Optional[str]:
    if not all(_close(g, w, tol) for g, w in zip(got, want)):
        return f"schedule {tuple(got)} differs from {tuple(want)} by > {tol}"
    return None


# ---------------------------------------------------------------------------
# seeded instance draws
# ---------------------------------------------------------------------------

def draw_test_instance(rng):
    """Parameter ranges of the suite's DP cross-check test."""
    while True:
        p_bar = rng.uniform(0.3, 0.9)
        lam = rng.uniform(0.4, 2.0)
        mu = rng.uniform(0.4, 2.0)
        c = rng.uniform(0.0, 0.8)
        B = rng.uniform(2.0, 8.0)
        nu = 1.05 * max(p_bar * lam, 0.3) * (1.0 + rng.uniform(0.0, 1.5))
        c_nu = rng.uniform(0.0, 0.5)
        limit = rng.uniform(c / mu + 0.2, B + c / mu)
        if limit <= c_nu / nu:
            continue
        model = SafeArm(nu=float(nu), B_nu=float(limit + c_nu / nu),
                        c_nu=float(c_nu))
        params = ModelParams(p_bar=float(p_bar), lam=float(lam),
                             mu=float(mu), c=float(c), B=float(B), T=1.0)
        if dblab.validate_model(params, model).overall:
            return params, model


# ---------------------------------------------------------------------------
# workload base
# ---------------------------------------------------------------------------

class Workload:
    name = "abstract"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.trace_dir: Optional[Path] = None
        self.child_peak_kb = 0

    def rng(self, r: int):
        return np.random.default_rng([self.seed, r])

    def round(self, r: int) -> list:
        raise NotImplementedError

    def warmup(self) -> Op:
        return self.round(0)[0]


# ---------------------------------------------------------------------------
# cli_oneshot
# ---------------------------------------------------------------------------

def _config(T: float, model: dict, **agent) -> dict:
    a = dict(REF, **agent)
    return {"agent": {"p_bar": a["p_bar"], "lambda": a["lam"],
                      "mu": a["mu"], "c": a["c"], "B": a["B"], "T": T},
            "model": model}


CLI_CONFIGS = (
    ("anchor", _config(1.9, {"family": "SafeArm", "nu": 1.0, "B_nu": 5.0,
                             "c_nu": 0.5})),
    ("do_only", _config(0.5, {"family": "SafeArm", "nu": 1.0, "B_nu": 5.0,
                              "c_nu": 0.5})),
    ("long", _config(6.0, {"family": "SafeArm", "nu": 1.0, "B_nu": 5.0,
                           "c_nu": 0.5})),
    ("stream", _config(3.0, {"family": "PayoffStream", "nu": 1.3,
                             "B_nu": 4.0})),
    ("risky", _config(2.5, {"family": "RiskyArm", "p_bar_nu": 0.7,
                            "nu": 1.1, "B_nu": 4.0, "c_nu": 0.4})),
)

CLI_SUBCOMMANDS = ("solve", "trajectory", "simulate", "verify", "sweep")
SIM_REPS = 1_000_000
VERIFY_DT = 2e-3


class CliOneshot(Workload):
    """``python -m dblab.cli`` one invocation at a time, round-robin over
    five subcommands and a fixed set of configurations."""

    name = "cli_oneshot"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        order = np.random.default_rng([seed]).permutation(len(CLI_CONFIGS))
        self.configs = [CLI_CONFIGS[i] for i in order]
        self.paths = {}
        for label, cfg in CLI_CONFIGS:
            path = scratch / f"{label}.json"
            path.write_text(json.dumps(cfg))
            self.paths[label] = path
        self._ref: dict = {}
        self._n = 0
        # verify false-fails on DO_ONLY configs (ledger.json:
        # verify_do_only_false_fail), so it only runs on the others
        self.verifiable = {label for label, _ in CLI_CONFIGS
                           if self.reference(label)[1].structure != dblab.DO_ONLY}

    def reference(self, label: str):
        """In-process schedule and route probabilities for a config."""
        if label not in self._ref:
            cfg = dblab.cli.RunConfig.from_file(self.paths[label])
            model = cfg.build_model()
            sched = dblab.solve(cfg.params, model)
            p_total = dblab.route_probabilities(sched, cfg.params, model.nu).p_total
            self._ref[label] = (cfg.params, sched, p_total)
        return self._ref[label]

    def argv(self, sub: str, label: str, out: Path, r: int) -> list:
        args = [sub, "--config", str(self.paths[label]), "--out", str(out)]
        if sub == "simulate":
            args += ["--reps", str(SIM_REPS), "--seed", str(self.seed * 1000 + r)]
        elif sub == "verify":
            args += ["--dt", repr(VERIFY_DT)]
        elif sub == "sweep":
            args += ["--variable", "T", "--grid", "0.5:8:0.5"]
        return args

    def _launch(self, args: list, out: Path) -> dict:
        if self.trace_dir is not None:
            spans = self.trace_dir / f"cli-{self._n:05d}.npz"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(spans)] + args
        else:
            spans = None
            cmd = [sys.executable, "-m", "dblab.cli"] + args
        self._n += 1
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return {"exit": proc.returncode, "stderr": err.decode(errors="replace"),
                "out": out, "spans": spans}

    def round(self, r: int) -> list:
        ops = []
        for i, sub in enumerate(CLI_SUBCOMMANDS):
            label = self.configs[(i + r) % len(self.configs)][0]
            if sub == "verify" and label not in self.verifiable:
                continue
            out = self.scratch / f"r{r}-{sub}"
            ops.append(self._op(sub, label, out, r))
        return ops

    def warmup(self) -> Op:
        return self._op("solve", self.configs[0][0],
                        self.scratch / "warmup", 0)

    def _op(self, sub: str, label: str, out: Path, r: int) -> Op:
        def run():
            out.mkdir(parents=True, exist_ok=True)
            return self._launch(self.argv(sub, label, out, r), out)

        def check(res, perturb: float):
            if res["exit"] != 0:
                return [f"{sub} {label}: exit {res['exit']}: "
                        f"{res['stderr'].strip()[-200:]}"]
            return getattr(self, f"_check_{sub}")(label, res["out"], perturb)

        return Op(f"cli.{sub}", run, check)

    def _check_solve(self, label, out, perturb):
        _, sched, _ = self.reference(label)
        got = json.loads((out / "schedule.json").read_text())
        taus = (got["tau1"] + perturb, got["tau2"], got["tau3"])
        want = tuple(_g12(t) for t in (sched.tau1, sched.tau2, sched.tau3))
        if taus != want:
            return [f"solve {label}: schedule.json {taus} != in-process {want}"]
        return []

    def _check_trajectory(self, label, out, perturb):
        params, _, _ = self.reference(label)
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = [r for r in rows
               if abs(float(r["p_progress"]) + float(r["p_solution"])
                      + float(r["p_neither"]) - 1.0) > 1e-9]
        if bad or len(rows) != 401 or not _close(float(rows[-1]["t"]),
                                                 params.T, 1e-9):
            return [f"trajectory {label}: {len(bad)} rows off, "
                    f"{len(rows)} rows"]
        return []

    def _check_simulate(self, label, out, perturb):
        _, _, p_total = self.reference(label)
        with open(out / "simulate.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        est, se = float(row["estimate"]), float(row["std_err"])
        if abs(est - p_total) > 4.0 * se or int(row["reps"]) != SIM_REPS:
            return [f"simulate {label}: {est} +/- {se} vs exact {p_total}"]
        return []

    def _check_verify(self, label, out, perturb):
        _, sched, _ = self.reference(label)
        rep = json.loads((out / "verify.json").read_text())
        solver = (rep["solver"][0] + perturb, rep["solver"][1], rep["solver"][2])
        want = tuple(_g12(t) for t in (sched.tau1, sched.tau2, sched.tau3))
        msg = None
        if not rep["pass"] or solver != want:
            msg = f"verify {label}: pass={rep['pass']} solver {solver} != {want}"
        else:
            msg = _schedule_mismatch(rep["oracle"], solver, 5.0 * VERIFY_DT)
        return [msg] if msg else []

    def _check_sweep(self, label, out, perturb):
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        msgs = [m for m in (_row_problem(
            {k: (v if k == "structure" else float(v)) for k, v in r.items()},
            float(r["grid_value"]), perturb) for r in rows) if m]
        if len(rows) != 16:
            msgs.append(f"sweep {label}: {len(rows)} rows, expected 16")
        return msgs[:1]


_PROBS = ("p_total", "p_do_initial", "p_think", "p_hailmary",
          "p_total_backloaded")


def _row_problem(row: dict, T: float, perturb: float) -> Optional[str]:
    if str(row["structure"]).startswith("ERROR"):
        return f"row {row['grid_value']}: {row['structure']}"
    total = row["tau1"] + perturb + row["tau2"] + row["tau3"]
    if abs(total - T) > 1e-9 * max(1.0, T):
        return f"row {row['grid_value']}: taus sum to {total}, not T={T}"
    bad = [k for k in _PROBS if not -1e-12 <= row[k] <= 1.0 + 1e-12]
    if bad:
        return f"row {row['grid_value']}: probabilities outside [0, 1]: {bad}"
    return None


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

CROSS_DT = 1e-3
GENERIC_DT = 2e-3
KEEP_DT = 1e-3
RICH_ACTIONS = ("DO", "THINK", "IDLE", 0.25, 0.5, 0.75)
REF_MODEL = SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5)
CRIT9_PARAMS = ModelParams(p_bar=0.8, lam=1.0, mu=0.4, c=0.5, B=9.0, T=6.0)
CRIT9_MODEL = SafeArm(nu=0.5, B_nu=10.25, c_nu=0.0)


def _no_return_to_doing(intervals) -> Optional[str]:
    labels = [lab for _, _, lab in intervals]
    if "THINK" in labels and "DO" in labels[labels.index("THINK") + 1:]:
        return f"no-feedback path returns to doing: {labels}"
    return None


class Oracle(Workload):
    """The DP oracle.  Each round cross-checks ``solve`` against
    ``dp_reduced`` at dt=1e-3 over five horizons, on an instance from the
    suite's cross-check ranges, then runs the DP's other paths once each:
    two-stage, no-feedback, a rich action set and kept value tables."""

    name = "oracle"

    def round(self, r: int) -> list:
        rng = self.rng(r)
        params, model = draw_test_instance(rng)
        agent = ModelParams(T=4.0, **dict(REF, p_bar=float(rng.uniform(0.6, 0.85)),
                                          c=float(rng.uniform(0.3, 0.7))))
        nf_nu = float(rng.uniform(0.6, 0.9))
        return [self._cross(dataclasses.replace(params, T=T), model)
                for T in HORIZONS] + [
            self._two_stage_crit9(),
            self._no_feedback(agent, nf_nu),
            self._rich(ModelParams(T=1.9, **REF), REF_MODEL),
            self._kept(dataclasses.replace(params, T=4.0), model),
        ]

    def _cross(self, p, model) -> Op:
        def run():
            # the oracle runs even when solve raises, so the work per op
            # does not depend on the solver succeeding
            try:
                sched = dblab.solve(p, model, validate=False)
            except (SolverError, SearchCeilingError, ValueError) as err:
                sched = err
            dp = dblab.dp_reduced(p, model, Grid.from_horizon(p.T, CROSS_DT),
                                  keep_values=False)
            return sched, dblab.extract_schedule(dp)

        def check(res, perturb: float):
            sched, intervals = res
            if isinstance(sched, Exception):
                return [f"solve raised {type(sched).__name__}: {sched}"]
            oracle = _oracle_taus(intervals, p.T)
            if oracle is None:
                return [f"oracle intervals {intervals}"]
            got = (sched.tau1 + perturb, sched.tau2, sched.tau3)
            msg = _schedule_mismatch(got, oracle, 5.0 * CROSS_DT)
            return [f"{msg} at {p}, {model}"] if msg else []

        return Op(f"cross.T{p.T:g}", run, check)

    def _two_stage_crit9(self) -> Op:
        def run():
            dp = dblab.dp_two_stage(CRIT9_PARAMS, CRIT9_MODEL,
                                    Grid.from_horizon(6.0, GENERIC_DT))
            return dblab.majority_intervals(dp, window=0.2)

        def check(majority, perturb: float):
            blocks = [lab for _, _, lab in majority]
            if blocks != ["THINK", "DO", "THINK", "DO"]:
                return [f"criterion-9 blocks {blocks}"]
            return []
        return Op("generic.two_stage", run, check)

    def _no_feedback(self, p, nu: float) -> Op:
        generic = NoFeedbackModel(mu=p.mu, nu=nu, B=p.B, c=p.c, p_bar=p.p_bar,
                                  lam=p.lam)
        limit = dataclasses.replace(generic, nu=p.mu, limit_mode=True)

        def run():
            grid = Grid.from_horizon(p.T, GENERIC_DT)
            return [dblab.extract_schedule(dblab.dp_no_feedback(nf, p.T, grid))
                    for nf in (generic, limit)]

        def check(schedules, perturb: float):
            return [msg for msg in map(_no_return_to_doing, schedules) if msg][:1]
        return Op("generic.no_feedback", run, check)

    def _rich(self, p, model) -> Op:
        def run():
            return tuple(
                dblab.dp_reduced(p, model, Grid.from_horizon(p.T, GENERIC_DT,
                                                             actions),
                                 keep_values=False)
                for actions in (RICH_ACTIONS, ("DO", "THINK")))

        def check(res, perturb: float):
            rich, pure = res
            msgs = []
            if abs(rich.root_value - pure.root_value) > 1e-6 * (p.B + p.c):
                msgs.append(f"rich root {rich.root_value} vs pure "
                            f"{pure.root_value}")
            if "IDLE" in rich.path_action_labels():
                msgs.append("IDLE on the rich-action path")
            return msgs[:1]
        return Op("generic.rich_actions", run, check)

    def _kept(self, p, model) -> Op:
        def run():
            dp = dblab.dp_reduced(p, model, Grid.from_horizon(p.T, KEEP_DT))
            return dp, dblab.extract_schedule(dp)

        def check(res, perturb: float):
            dp, intervals = res
            root = dp.value(dp.grid.n_steps, 0)
            if root != dp.root_value:
                return [f"kept table root {root} != {dp.root_value}"]
            oracle = _oracle_taus(intervals, p.T)
            sched = dblab.solve(p, model, validate=False)
            got = (sched.tau1 + perturb, sched.tau2, sched.tau3)
            msg = (_schedule_mismatch(got, oracle, 5.0 * KEEP_DT)
                   if oracle else f"oracle intervals {intervals}")
            return [msg] if msg else []
        return Op("generic.kept_tables", run, check)


WORKLOADS = {cls.name: cls for cls in (CliOneshot, Oracle)}
