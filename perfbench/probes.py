"""Re-runs of the known defects recorded in ``ledger.json``.

Each probe returns True while its defect still reproduces.  The workloads
keep clear of these inputs so that no timed op fails; the probes run in
every traced run, and a fixed defect shows up as a probe turning False.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import dblab
import dblab.cli
from dblab import Grid, ModelParams, PayoffStream, SafeArm, SolverError

from workloads import CLI_CONFIGS, _oracle_taus, _schedule_mismatch


def verify_do_only_false_fail(scratch: Path) -> bool:
    cfg = scratch / "probe-do-only.json"
    cfg.write_text(json.dumps(dict(CLI_CONFIGS)["do_only"]))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = dblab.cli.main(["verify", "--config", str(cfg), "--out",
                               str(scratch), "--dt", "2e-3"])
    return code == 3


def _raises_solver_error(params: ModelParams, model) -> bool:
    try:
        dblab.solve(params, model, validate=False)
    except SolverError:
        return True
    return False


def wide_range_solver_error(scratch: Path) -> bool:
    return _raises_solver_error(
        ModelParams(p_bar=0.5062316494908999, lam=0.5736627912689096,
                    mu=8.065819592381613, c=2.086547545105533,
                    B=9.193324492324605, T=2.0),
        SafeArm(nu=1.7039136822727003, B_nu=5.919813882943533,
                c_nu=1.2742422233509372))


def test_range_solver_error(scratch: Path) -> bool:
    return _raises_solver_error(
        ModelParams(p_bar=0.34456218182092957, lam=0.5836694517795555,
                    mu=1.9770328377135225, c=0.749281841405492,
                    B=4.3875476891472935, T=1.9),
        SafeArm(nu=0.7356340628520818, B_nu=3.916432926152959,
                c_nu=0.4218929660680569))


def low_prior_solver_error(scratch: Path) -> bool:
    return _raises_solver_error(
        ModelParams(p_bar=0.3, lam=0.75, mu=1.0, c=0.5, B=5.0, T=4.0),
        PayoffStream(nu=1.2661191184366012, B_nu=5.207370711079651))


def wide_range_oracle_mismatch(scratch: Path) -> bool:
    params = ModelParams(p_bar=0.9380721045086288, lam=6.359997284023371,
                         mu=7.2368046874098475, c=2.38065262863355,
                         B=22.805669981003064, T=4.0)
    model = SafeArm(nu=9.762059738671445, B_nu=12.53970515996461,
                    c_nu=1.3239438615265038)
    sched = dblab.solve(params, model, validate=False)
    dp = dblab.dp_reduced(params, model, Grid.from_horizon(4.0, 1e-3),
                          keep_values=False)
    oracle = _oracle_taus(dblab.extract_schedule(dp), 4.0)
    return oracle is None or _schedule_mismatch(
        (sched.tau1, sched.tau2, sched.tau3), oracle, 5e-3) is not None


def numpy_scalar_params_typeerror(scratch: Path) -> bool:
    params = ModelParams(*(np.float64(v) for v in (0.75, 0.75, 1.0, 0.5,
                                                   5.0, 1.9)))
    try:
        dblab.solve(params, SafeArm(nu=1.0, B_nu=5.0, c_nu=0.5))
    except TypeError:
        return True
    return False


PROBES = (verify_do_only_false_fail, wide_range_solver_error,
          wide_range_oracle_mismatch, test_range_solver_error,
          low_prior_solver_error, numpy_scalar_params_typeerror)


def run_all(scratch: Path) -> dict:
    return {probe.__name__: probe(scratch) for probe in PROBES}
