"""dblab benchmark: two seeded workloads, end-to-end metrics and a traced
per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json; ``--trace
1`` re-runs the same rounds with every public dblab function wrapped and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

dblab is imported from ``src/`` of the checkout, never from an installed
copy.  Scratch files go to ``.bench_build/perfbench/`` and are removed at
the end.  Each workload process runs with BLAS threads pinned to one and
``DBLAB_THREADS`` unset, so ``sweep`` runs serially.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_oneshot", "oracle")
SETUP_SAMPLES = 5      # set-up is measured this many times per run
DEADLINE_S = 170.0     # a run gives up (exit 1) after this long


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _ledger() -> dict:
    return json.loads((HERE / "ledger.json").read_text())


def _env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("DBLAB_THREADS", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _worker(args: list, scratch: Path, deadline: float) -> tuple:
    """Run worker.py to completion; returns (spawn time, its JSON report,
    its resource usage)."""
    out_path = scratch / "worker.out"
    cmd = [sys.executable, str(HERE / "worker.py"), "--scratch",
           str(scratch)] + args
    with open(out_path, "wb") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, env=_env(), cwd=ROOT,
                                start_new_session=True)
    pid = 0
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"worker {args} passed the deadline")
            time.sleep(0.02)
    finally:
        if not pid:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}")
    lines = out_path.read_text().strip().splitlines()
    return spawned, json.loads(lines[-1]), usage


def measure(workload: str, seed: int, seconds: float, trace: int,
            perturb: float = 0.0) -> tuple:
    """One benchmark run; returns (result object, report lines)."""
    deadline = time.monotonic() + DEADLINE_S
    spec = _spec()
    scratch = ROOT / ".bench_build" / "perfbench" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--perturb", repr(perturb)]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                spawned, rep, _ = _worker(args + ["--setup-only"], scratch,
                                          deadline)
                setups.append(rep["first_op"] - spawned)
        spawned, rep, usage = _worker(args, scratch, deadline)
        setups.append(rep["first_op"] - spawned)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lat = np.array(rep["latencies"]) * 1e3
    tail_pct = _ledger()["tail_percentile"][workload]
    if trace:
        values = {m["name"]: rep["layers"].get(m["name"], 0.0)
                  for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        # cli_oneshot's work happens in its CLI children; the others' in
        # the worker itself
        peak_kb = rep["child_peak_kb"] or usage.ru_maxrss
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": (rep["attempted"] - rep["failed"]) / rep["op_time"],
            "op_p50_ms": float(np.median(lat)),
            "op_tail_ms": float(np.percentile(lat, tail_pct)),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    attempted, failed = rep["attempted"], rep["failed"]
    lines = [
        f"workload {workload} seed {seed}: {rep['rounds']} rounds, "
        f"{attempted} ops attempted, {failed} failed "
        f"(failed_frac {failed / max(attempted, 1):.4f})",
        f"  env: python {rep['versions']['python']}, numpy "
        f"{rep['versions']['numpy']}, scipy {rep['versions']['scipy']}, "
        f"nproc {os.cpu_count()}; BLAS threads 1, DBLAB_THREADS unset",
    ]
    if not trace:
        lines.append(f"  op_tail_ms is p{tail_pct} of {lat.size} op samples;"
                     f" setup_s is the median of {len(setups)} set-ups")
    for msg in rep["failures"]:
        lines.append(f"  failure: {msg}")
    for name, is_open in rep.get("probes", {}).items():
        lines.append(f"  known defect {name}: {'open' if is_open else 'FIXED'}")
    for name, value in values.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    return result, lines


def selftest() -> int:
    """Run each workload for one round in every mode; check that every
    named metric is emitted and that a perturbed schedule is caught."""
    spec = _spec()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    seen_nonzero = set()
    for wl in WORKLOADS:
        plain, _ = measure(wl, 1, 0.01, 0)
        assert set(plain["metrics"]) == e2e, (wl, plain["metrics"].keys())
        assert plain["failed"] == 0 and plain["attempted"] > 0, (wl, plain)
        assert all(m["value"] > 0 for m in plain["metrics"].values()), plain
        traced, _ = measure(wl, 1, 0.01, 1)
        assert set(traced["metrics"]) == layers, wl
        seen_nonzero |= {k for k, m in traced["metrics"].items() if m["value"]}
        broken, _ = measure(wl, 1, 0.01, 0, perturb=1e-2)
        assert broken["failed"] > 0, f"{wl}: perturbed tau1 went unnoticed"
        print(f"selftest {wl}: ok ({plain['attempted']} ops; "
              f"{broken['failed']} perturbed ops caught)")
    silent = layers - seen_nonzero
    assert not silent, f"per-layer metrics never measured: {sorted(silent)}"
    print("selftest: ok")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "dblab" / "__init__.py").is_file():
        print(f"error: no dblab sources under {ROOT / 'src'}; run from a "
              "dblab checkout", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    seconds = args.seconds or _spec()["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result, lines = measure(name, args.seed, seconds, args.trace)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
