"""End-to-end tests of the command line front end.

Each test drives ``main`` in-process with a config written to a temp
directory, then inspects exit codes and emitted artifacts. CSV headers
are pinned verbatim: downstream plotting depends on them.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import dblab
from dblab.cli import RunConfig, _parse_grid, main

# Artifacts written by the CLI for two configs (the README anchor and a
# RiskyArm model); they are compared byte for byte, so a change that moves
# any printed digit shows up here.  Regenerate them only on purpose.
DATA = Path(__file__).parent / "data"
GOLDEN_ARGS = {
    "schedule.json": ["solve"],
    "trajectory.csv": ["trajectory"],
    "simulate.csv": ["simulate", "--reps", "100000", "--seed", "7"],
    "sweep.csv": ["sweep", "--variable", "T", "--grid", "0.5:8:0.5"],
}

BASE_CONFIG = {
    "agent": {"p_bar": 0.75, "lambda": 0.75, "mu": 1.0, "c": 0.5,
              "B": 5.0, "T": 1.9},
    "model": {"family": "SafeArm", "nu": 1.0, "B_nu": 5.0, "c_nu": 0.5},
}


@pytest.fixture
def config_path(tmp_path):
    def write(name="run.json", **overrides):
        data = {k: dict(v) for k, v in BASE_CONFIG.items()}
        for key, val in overrides.items():
            if isinstance(val, dict) and key in data:
                data[key].update(val)
            else:
                data[key] = val
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return path
    return write


def test_solve_writes_schedule_artifact(config_path, tmp_path, capsys):
    rc = main(["solve", "--config", str(config_path()),
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "schedule.json").read_text())
    assert payload["structure"] == "THINK_DO"
    assert payload["tau1"] == 0.0
    assert payload["tau2"] == pytest.approx(0.700, abs=1e-3)
    assert payload["tau3"] == pytest.approx(1.200, abs=1e-3)
    assert payload["q_at_switch"] == pytest.approx(0.75, abs=1e-6)
    assert payload["no_shirk_ok"] is True
    th = payload["thresholds"]
    assert th["p_hat"] == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert th["p_tilde"] == pytest.approx(0.8902, abs=1e-3)
    assert th["p_check"] == pytest.approx(0.5008, abs=1e-3)
    assert th["T1"] == pytest.approx(1.200, abs=1e-3)
    inf = payload["infinite_horizon"]
    assert inf["structure"] == "DO_THEN_THINK"
    assert inf["p_hat"] == th["p_hat"]
    assert "THINK_DO" in capsys.readouterr().out


def test_missing_config_exits_1(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "absent.json" in capsys.readouterr().err


def test_unparseable_config_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    assert "input error" in capsys.readouterr().err


def test_invalid_agent_exits_2(config_path, tmp_path, capsys):
    bad = config_path(agent={"p_bar": 1.2})
    rc = main(["solve", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "p_bar" in capsys.readouterr().err

    typo = config_path(name="typo.json", agent={"pbar": 0.75})
    assert main(["solve", "--config", str(typo),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("name, key, config", [
    ("agent_list", "agent", {"agent": [1], "model": BASE_CONFIG["model"]}),
    ("agent_value", "agent.mu", {"agent": {**BASE_CONFIG["agent"], "mu": [1]},
                                 "model": BASE_CONFIG["model"]}),
    ("tabulated", "values", {"agent": BASE_CONFIG["agent"],
                             "model": {"family": "Tabulated",
                                       "taus": [0.0, 1.0, 2.0, 3.0]}}),
    ("sim_block", "sim.reps", {**BASE_CONFIG, "sim": {"reps": "many"}}),
    ("solver_key", "solver.n_grid", {**BASE_CONFIG,
                                     "solver": {"n_grid": 2048}}),
    ("sim_key", "sim.sead", {**BASE_CONFIG, "sim": {"sead": 7}}),
    # json writes inf as Infinity, which json also reads
    ("agent_inf", "B must be finite", {**BASE_CONFIG, "agent": {
        **BASE_CONFIG["agent"], "B": math.inf}}),
    ("model_bool", "SafeArm.nu", {**BASE_CONFIG, "model": {
        **BASE_CONFIG["model"], "nu": True}}),
    ("tabulated_bool", "Tabulated.values[0]", {**BASE_CONFIG, "model": {
        "family": "Tabulated", "taus": [0, 1, 2, 3, 4],
        "values": [False, True, True, True, True]}}),
    ("tabulated_str", "Tabulated.taus[4]", {**BASE_CONFIG, "model": {
        "family": "Tabulated", "taus": [0, 1, 2, 3, "15"],
        "values": [0.0, 1.0, 1.5, 1.75, 1.75]}}),
    ("solver_negative", "tau_tol", {**BASE_CONFIG, "solver": {"tau_tol": -1}}),
    # json writes nan as NaN, which json also reads
    ("solver_nan", "tau_tol", {**BASE_CONFIG,
                               "solver": {"tau_tol": math.nan}}),
    ("agent_missing", "missing agent keys", {
        "agent": {k: v for k, v in BASE_CONFIG["agent"].items() if k != "T"},
        "model": BASE_CONFIG["model"]}),
    ("oracle_inf", "oracle.nu must be finite", {**BASE_CONFIG, "oracle": {
        "kind": "no_feedback", "nu": math.inf}}),
    ("sim_reps_inf", "sim.reps must be finite", {**BASE_CONFIG,
                                                 "sim": {"reps": math.inf}}),
    ("sweep_nan", "sweep.nu must be finite", {**BASE_CONFIG,
                                              "sweep": {"nu": math.nan}}),
    ("sweep_grid_nan", "sweep.grid[1]", {**BASE_CONFIG, "sweep": {
        "grid": [1.0, math.nan]}}),
    ("sim_reps_fraction", "sim.reps must be a whole number", {
        **BASE_CONFIG, "sim": {"reps": 2.5}}),
    ("model_inf", "SafeArm.B_nu must be finite", {**BASE_CONFIG, "model": {
        **BASE_CONFIG["model"], "B_nu": math.inf}}),
    ("tabulated_nan", "Tabulated.values[4]", {**BASE_CONFIG, "model": {
        "family": "Tabulated", "taus": [0, 1, 2, 3, 4],
        "values": [0.0, 1.0, 1.5, 1.75, math.nan]}}),
])
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, name, key,
                                                 config):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and key in err


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_programming_error_is_not_an_invalid_configuration(
        config_path, tmp_path, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("bug inside a subcommand")

    monkeypatch.setattr("dblab.cli.solve", broken)
    with pytest.raises(error):
        main(["solve", "--config", str(config_path()), "--out", str(tmp_path)])


@pytest.mark.parametrize("artifact", sorted(GOLDEN_ARGS))
@pytest.mark.parametrize("name", ["anchor", "risky"])
def test_artifacts_match_golden_bytes(tmp_path, name, artifact):
    sub, *extra = GOLDEN_ARGS[artifact]
    rc = main([sub, "--config", str(DATA / name / "config.json"),
               "--out", str(tmp_path)] + extra)
    assert rc == 0
    assert (tmp_path / artifact).read_bytes() == \
        (DATA / name / artifact).read_bytes()


def test_safe_and_risky_arm_runs_never_import_scipy(tmp_path, config_path):
    # a fresh interpreter: the suite's warning filter imports scipy here.
    # The RiskyArm sweep's DO_THINK_DO points reach thinking_span, so they
    # run the closed-form preference integral.
    def oracle_config(kind):
        return config_path(f"{kind}.json", oracle={"kind": kind})

    script = f"""
import sys
import dblab, dblab.cli
anchor = {str(DATA / "anchor" / "config.json")!r}
risky = {str(DATA / "risky" / "config.json")!r}
two_stage = {str(oracle_config("two_stage"))!r}
no_feedback = {str(oracle_config("no_feedback"))!r}
out = {str(tmp_path)!r}
for cfg, argv in ((anchor, ["solve"]), (anchor, ["verify", "--dt", "2e-3"]),
                  (anchor, ["simulate"]), (risky, ["solve"]),
                  (risky, ["simulate"]), (risky, {GOLDEN_ARGS["sweep.csv"]!r}),
                  (two_stage, ["verify", "--dt", "2e-3"]),
                  (no_feedback, ["verify", "--dt", "2e-3"])):
    assert dblab.cli.main(argv + ["--config", cfg, "--out", out]) == 0, argv
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
"""
    src = str(Path(dblab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_solver_failure_exits_3(config_path, tmp_path, capsys):
    # a bisection tolerance as wide as the horizon leaves stage one's
    # bracket at zero, which the solver reports rather than papering over
    bad = config_path(solver={"tau_tol": 2.0})
    rc = main(["solve", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and "peaks at zero" in err


@pytest.mark.parametrize("tau_tol", [1e-16, 1e-6, 1e-3])
def test_solve_with_the_solver_block(config_path, tmp_path, tau_tol):
    # from below the spacing of doubles to a coarse tolerance, the anchor
    # stays THINK_DO and its taus move by less than tau_tol + the default
    assert main(["solve", "--config", str(config_path()),
                 "--out", str(tmp_path)]) == 0
    ref = json.loads((tmp_path / "schedule.json").read_text())
    rc = main(["solve", "--config", str(config_path(
        solver={"tau_tol": tau_tol})), "--out", str(tmp_path)])
    assert rc == 0
    got = json.loads((tmp_path / "schedule.json").read_text())
    assert got["structure"] == "THINK_DO"
    for key in ("tau1", "tau2", "tau3"):
        assert abs(got[key] - ref[key]) <= tau_tol + 1e-9, key


def test_unwritable_out_dir_exits_4(config_path, tmp_path, capsys):
    rc = main(["solve", "--config", str(config_path()),
               "--out", str(tmp_path / "missing" / "dir")])
    assert rc == 4
    assert "output error" in capsys.readouterr().err


def test_verify_solves_with_the_solver_block(config_path, tmp_path, capsys):
    # tau_tol = 0.05 moves tau3 from 1.2 to 1.1875, past the 5*dt that
    # verify allows at dt = 2e-3; at the default tolerance it passes
    bad = config_path(solver={"tau_tol": 0.05})
    rc = main(["verify", "--config", str(bad), "--out", str(tmp_path),
               "--dt", "2e-3"])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["pass"] is False
    assert report["solver"] == pytest.approx([0.0, 0.7125, 1.1875], abs=1e-9)


def test_verify_failure_names_the_judges_reason(config_path, tmp_path,
                                                capsys):
    # stderr carries the same reason that verify.json holds
    bad = config_path(solver={"tau_tol": 0.05})
    rc = main(["verify", "--config", str(bad), "--out", str(tmp_path),
               "--dt", "1e-3"])
    assert rc == 3
    reason = json.loads((tmp_path / "verify.json").read_text())["reason"]
    assert reason.startswith("|solver - oracle| > 0.005 at tau2")
    assert capsys.readouterr().err == (
        f"solver failure: oracle disagrees with closed-form schedule: "
        f"{reason}\n")


def test_verify_no_feedback_failure_names_the_check(config_path, tmp_path,
                                                    capsys, monkeypatch):
    # a path that returns to doing after thinking fails the structural check
    path = (0.0, 1.0, "THINK"), (1.0, 1.9, "DO")
    monkeypatch.setattr(dblab.cli, "dp_no_feedback",
                        lambda *_: SimpleNamespace(switch_times=path))
    rc = main(["verify", "--config",
               str(config_path(oracle={"kind": "no_feedback"})),
               "--out", str(tmp_path), "--dt", "2e-3"])
    assert rc == 3
    assert capsys.readouterr().err.endswith(
        "its path fails 'no return to doing after thinking'\n")


def test_sweep_solves_with_the_solver_block(config_path, tmp_path):
    # tau_tol = 0.05 moves the anchor at T = 2 to (0, 0.8125, 1.1875); the
    # sweep row at T = 2 is that same solve
    path = config_path(agent={"T": 2.0}, solver={"tau_tol": 0.05})
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    want = json.loads((tmp_path / "schedule.json").read_text())
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path),
                 "--variable", "T", "--grid", "2:2:1"]) == 0
    header, row = (tmp_path / "sweep.csv").read_text().splitlines()
    got = dict(zip(header.split(","), row.split(",")))
    assert [float(got[k]) for k in ("tau1", "tau2", "tau3")] == \
        [want[k] for k in ("tau1", "tau2", "tau3")]
    assert want["tau2"] == pytest.approx(0.8125, abs=1e-9)


def test_model_failing_validation_exits_2(config_path, tmp_path, capsys):
    # a slow conversion arm is not concave enough relative to its slope
    slow = config_path(model={"nu": 0.3, "B_nu": 5.0, "c_nu": 0.5})
    rc = main(["solve", "--config", str(slow), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "model failed validation: relative_concavity" in err


def test_unwritable_result_file_exits_4(config_path, tmp_path, capsys):
    (tmp_path / "schedule.json").mkdir()
    rc = main(["solve", "--config", str(config_path()),
               "--out", str(tmp_path)])
    assert rc == 4
    assert "output error" in capsys.readouterr().err


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_costless_anchor_writes_null_thresholds(config_path, tmp_path):
    # effort is free, so the no-deadline indifference belief is not in
    # (0, 1) and the belief landmarks are undefined; an infinite value is
    # written as null, so the file is strict JSON
    plans = [
        # the idea is worth B: the no-deadline plan never does, p_hat = inf
        ({"c_nu": 0.0}, {"p_hat": None, "switch_time": 0.0,
                         "structure": "THINK_THROUGHOUT"}),
        # doing is free and progress is not: do forever, switch_time = inf
        ({}, {"p_hat": 0.0, "switch_time": None,
              "structure": "DO_THROUGHOUT"}),
    ]
    for model, plan in plans:
        free = config_path(agent={"c": 0.0}, model=model)
        assert main(["solve", "--config", str(free),
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "schedule.json").read_text(),
                             parse_constant=_refuse_constant)
        assert payload["thresholds"] is None
        assert payload["structure"] == "THINK_DO"
        assert payload["infinite_horizon"] == plan


def test_verify_against_grid_oracle(config_path, tmp_path):
    rc = main(["verify", "--config", str(config_path()),
               "--out", str(tmp_path), "--dt", "1e-3"])
    assert rc == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["pass"] is True
    assert report["kind"] == "reduced"
    assert report["tolerance"] == pytest.approx(5e-3)
    for got, want in zip(report["oracle"], report["solver"]):
        assert got == pytest.approx(want, abs=5e-3)


def test_verify_two_stage_oracle(config_path, tmp_path):
    path = config_path(oracle={"kind": "two_stage"})
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path),
               "--dt", "2e-3"])
    assert rc == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["kind"] == "two_stage"
    assert report["pass"] is True


def test_verify_no_feedback_oracle_at_and_beside_equal_rates(config_path,
                                                             tmp_path):
    # the anchor has nu == mu: leaving oracle.nu out takes the model's
    # rate, and a rate 1e-13 off runs the formulas without limit_mode.
    # At T=6 the oracle thinks after an opening doing stretch.
    mu = BASE_CONFIG["agent"]["mu"]
    runs = []
    for extra in ({}, {"nu": mu}, {"nu": mu * (1.0 + 1e-13)}):
        path = config_path(agent={"T": 6.0},
                           oracle={"kind": "no_feedback", **extra})
        rc = main(["verify", "--config", str(path), "--out", str(tmp_path),
                   "--dt", "2e-3"])
        assert rc == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["kind"] == "no_feedback" and report["pass"] is True
        runs.append(report["oracle_intervals"])
    assert [lab for *_, lab in runs[0]] == ["DO", "THINK"]
    assert runs[1] == runs[0]
    for got, want in zip(runs[2], runs[0]):
        assert got[2] == want[2]
        assert got[:2] == pytest.approx(want[:2], abs=1e-9)


# the SafeArm overflow instance of test_solver.py: the preference integral's
# weight exp(mu*s) overflows at the search ceiling
OVERFLOW_CONFIG = {
    "agent": {"p_bar": 0.5743445308830082, "lambda": 0.22592415899579157,
              "mu": 9.903572970745266, "c": 2.1689338069350854,
              "B": 23.676413668451957, "T": 1.0},
    "model": {"family": "SafeArm", "nu": 0.6214498710840459,
              "B_nu": 3.100251759125187, "c_nu": 0.4783599980130857},
}


def test_solve_past_the_exponential_range_exits_0(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW_CONFIG))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "schedule.json").read_text())
    assert payload["structure"] == "THINK_DO"


def test_verify_do_only_config_passes(config_path, tmp_path):
    rc = main(["verify", "--config", str(config_path(agent={"T": 0.5})),
               "--out", str(tmp_path), "--dt", "2e-3"])
    assert rc == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["pass"] is True
    assert report["solver"] == [0.0, 0.0, 0.5]
    assert report["oracle"] == pytest.approx([0.0, 0.0, 0.5], abs=1e-12)
    assert "judged_as_do_only" not in report


def test_verify_sub_step_thinking_block_passes(tmp_path):
    # solve thinks for 0.6 ms between two doing blocks; the dt=1e-3 oracle
    # cannot show a block that short and is doing-only, so the schedule is
    # judged as the doing-only one it rounds to, and the report says so
    path = tmp_path / "sub_step.json"
    path.write_text(json.dumps({
        "agent": {"p_bar": 0.7584966497556718, "lambda": 0.4361507759115387,
                  "mu": 1.1306671814104254, "c": 0.29304819942913957,
                  "B": 5.635858211058256, "T": 4.0},
        "model": {"family": "SafeArm", "nu": 0.5051199064096894,
                  "B_nu": 3.7100550779679984, "c_nu": 0.3077368263911496}}))
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path),
               "--dt", "1e-3"])
    assert rc == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["pass"] is True
    assert 0.0 < report["solver"][1] < 1e-3
    assert report["oracle"] == [0.0, 0.0, 4.0]
    assert report["tolerance"] == pytest.approx(5e-3)
    assert report["judged_as_do_only"] == [0.0, 0.0, 4.0]


@pytest.mark.parametrize("T", [0.5, 1.0, 1.9, 4.0])
def test_tabulated_flat_tail_solves_and_verifies(tmp_path, T):
    # 61 knots on [0, 15], flat after tau=14: the solver's root searches
    # run past the last knot, where the flat tail extends
    taus = [15.0 * i / 60 for i in range(61)]
    values = [-4.5 * math.expm1(-min(tau, 14.0)) for tau in taus]
    path = tmp_path / "tabulated.json"
    path.write_text(json.dumps({
        "agent": {**BASE_CONFIG["agent"], "T": T},
        "model": {"family": "Tabulated", "taus": taus, "values": values}}))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path),
               "--dt", "1e-3"])
    assert rc == 0
    assert json.loads((tmp_path / "verify.json").read_text())["pass"] is True


def test_verify_rejects_coarse_grid(config_path, tmp_path):
    rc = main(["verify", "--config", str(config_path()),
               "--out", str(tmp_path), "--dt", "0.5"])
    assert rc == 2
    rc = main(["verify", "--config", str(config_path(
        oracle={"kind": "nonsense"})), "--out", str(tmp_path)])
    assert rc == 2


def test_sweep_csv_contract(config_path, tmp_path):
    rc = main(["sweep", "--config", str(config_path()),
               "--out", str(tmp_path), "--grid", "0.5:2.0:0.5",
               "--variable", "T"])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("grid_value,tau1,tau2,tau3,structure,p_total,"
                        "p_do_initial,p_think,p_hailmary,"
                        "p_total_backloaded,expected_work")
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0.5" and first[4] == "DO_ONLY"
    # p_total strictly grows with the horizon on this grid
    totals = [float(line.split(",")[5]) for line in lines[1:]]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_sweep_reads_variable_and_grid_list_from_the_config(config_path,
                                                           tmp_path):
    args = ["sweep", "--out", str(tmp_path), "--config"]
    assert main(args + [str(config_path()), "--grid", "0.5:2.0:0.5",
                        "--variable", "T"]) == 0
    flags = (tmp_path / "sweep.csv").read_bytes()
    block = {"variable": "T", "grid": [0.5, 1, 1.5, 2.0]}
    assert main(args + [str(config_path(sweep=block))]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == flags


def test_sweep_needs_variable_and_grid(config_path, tmp_path, capsys):
    rc = main(["sweep", "--config", str(config_path()),
               "--out", str(tmp_path), "--grid", "0.5:2.0:0.5"])
    assert rc == 2
    rc = main(["sweep", "--config", str(config_path()),
               "--out", str(tmp_path), "--variable", "T"])
    assert rc == 2
    rc = main(["sweep", "--config", str(config_path(sweep={"grid": 2.0})),
               "--out", str(tmp_path), "--variable", "T"])
    assert rc == 2
    assert "unusable grid spec" in capsys.readouterr().err


def test_simulate_csv_deterministic(config_path, tmp_path):
    args = ["simulate", "--config", str(config_path()),
            "--out", str(tmp_path), "--reps", "50000", "--seed", "9"]
    assert main(args) == 0
    first = (tmp_path / "simulate.csv").read_bytes()
    assert main(args) == 0
    second = (tmp_path / "simulate.csv").read_bytes()
    assert first == second
    lines = first.decode().splitlines()
    assert lines[0] == "estimate,std_err,reps,seed"
    est, se, reps, seed = lines[1].split(",")
    assert reps == "50000" and seed == "9"
    assert abs(float(est) - 0.6197) <= 4.0 * float(se)


def test_simulate_reads_reps_and_seed_from_the_config(config_path,
                                                      tmp_path):
    # 5e4 is a whole number: it reads as 50000, as the flag would
    args = ["simulate", "--out", str(tmp_path), "--config"]
    assert main(args + [str(config_path()), "--reps", "50000",
                        "--seed", "9"]) == 0
    flags = (tmp_path / "simulate.csv").read_bytes()
    assert main(args + [str(config_path(sim={"reps": 5e4, "seed": 9}))]) == 0
    assert (tmp_path / "simulate.csv").read_bytes() == flags
    # a flag wins over the config
    assert main(args + [str(config_path(sim={"reps": 7, "seed": 1})),
                        "--reps", "50000", "--seed", "9"]) == 0
    assert (tmp_path / "simulate.csv").read_bytes() == flags


def test_simulate_refuses_a_negative_seed_by_name(config_path, tmp_path,
                                                   capsys):
    rc = main(["simulate", "--config", str(config_path()),
               "--out", str(tmp_path), "--reps", "10", "--seed", "-1"])
    assert rc == 2
    assert "seed must be an int >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("oracle, flags, key", [
    ({"kind": "no_feedback", "nu": math.inf}, [], "oracle.nu"),
    ({}, ["--dt", "nan"], "--dt must be finite"),
])
def test_verify_refuses_a_non_finite_number(config_path, tmp_path, capsys,
                                            oracle, flags, key):
    path = config_path(agent={"T": 6.0}, oracle=oracle)
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path)]
              + flags)
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_trajectory_csv_contract(config_path, tmp_path):
    rc = main(["trajectory", "--config", str(config_path()),
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,p_progress,p_solution,p_neither"
    assert lines[1] == "0,0,0,1"
    assert len(lines) - 1 == 401
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(1.9, rel=1e-9)
    assert float(last[3]) == pytest.approx(0.2756, abs=1e-3)


def test_runconfig_roundtrip(config_path):
    cfg = RunConfig.from_file(config_path(solver={"tau_tol": 1e-9},
                                          sim={"reps": 1000, "seed": 4}))
    assert cfg.params.lam == 0.75
    assert cfg.model_spec["family"] == "SafeArm"
    assert cfg.sim == {"reps": 1000, "seed": 4}
    assert cfg.solver == {"tau_tol": 1e-9} and cfg.oracle == {}
    with pytest.raises(ValueError):
        RunConfig.from_dict({"agent": BASE_CONFIG["agent"]})


def test_parse_grid():
    assert _parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _parse_grid("1:1:0.5") == [1.0]
    with pytest.raises(ValueError):
        _parse_grid("0:1")
    with pytest.raises(ValueError):
        _parse_grid("0:1:-0.5")


def _write_goldens() -> None:
    for name in ("anchor", "risky"):
        for sub, *extra in GOLDEN_ARGS.values():
            assert main([sub, "--config", str(DATA / name / "config.json"),
                         "--out", str(DATA / name)] + extra) == 0, (name, sub)


if __name__ == "__main__":
    # regenerate the CLI goldens from GOLDEN_ARGS, on purpose only:
    #     PYTHONPATH=src python tests/test_cli.py --write
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli.py --write  (rewrites the eight "
                 "CLI artifacts under tests/data/anchor and tests/data/risky)")
    _write_goldens()
