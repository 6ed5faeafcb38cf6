"""One benchmark process: set up a workload, then run it in a closed loop.

Started by ``run.py``; not meant to be run by hand.  The last line of
standard output is one JSON object with the raw measurements:

* ``first_op``: ``time.monotonic()`` when set-up ended (interpreter start,
  ``import dblab``, seeded inputs, one discarded warm-up op);
* with ``--setup-only`` nothing else is run;
* otherwise the op counts, per-op latencies and, with ``--trace 1``, the
  per-layer metrics of a traced re-run of the same rounds.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

_t0 = time.perf_counter()
import dblab  # noqa: E402  (timed: this is the import users pay for)
IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from probes import run_all as run_probes  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class Stats:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.op_time = 0.0
        self.rounds = 0
        self.latencies: list = []
        self.failures: list = []


def run_rounds(wl: Workload, seconds: float, perturb: float, tracer=None,
               n_rounds=None, cli=None) -> Stats:
    """Run whole rounds until ``seconds`` of op time have accrued (or
    exactly ``n_rounds``).  Drawing a round's inputs and checking outputs
    happen between ops and are not timed."""
    st = Stats()
    op_id = 0
    while True:
        for op in wl.round(st.rounds):
            span = tracer.begin_op(op_id) if tracer is not None else None
            began = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as err:  # an op that raises counts as failed
                result, error = None, err
            took = time.perf_counter() - began
            if span is not None:
                tracer.end_op(span)
            op_id += 1
            st.op_time += took
            st.attempted += 1
            st.latencies.append(took)
            if error is not None:
                msgs = [f"{op.kind}: {type(error).__name__}: {error}"]
            else:
                msgs = op.check(result, perturb)
            st.failed += bool(msgs)
            st.failures.extend(msgs[:3 - len(st.failures)])
            if cli is not None and result is not None:
                _collect_cli(result, cli)
        st.rounds += 1
        if n_rounds is not None:
            if st.rounds >= n_rounds:
                return st
        elif st.op_time >= seconds:
            return st


def _collect_cli(result: dict, cli: dict) -> None:
    """Fold one traced CLI process's spans into the run's totals."""
    if result["spans"] is None or not result["spans"].exists():
        return
    data = cli["totals"].add_dump(result["spans"])
    cli["imports"].append(float(data["import_s"]))
    cli["bytes"].append(sum(f.stat().st_size for f in result["out"].iterdir()))
    result["spans"].unlink()


# ---------------------------------------------------------------------------
# traced run: import split, known-defect probes, per-layer metrics
# ---------------------------------------------------------------------------

def _wall(cmd: list) -> float:
    began = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return time.perf_counter() - began


def import_split() -> dict:
    """Interpreter floor, and numpy/scipy self time while importing dblab,
    from ``python -X importtime``."""
    interp = statistics.median(_wall([sys.executable, "-c", "pass"])
                               for _ in range(3))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import dblab"], check=True, text=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    selfs = Counter()
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)", line.strip())
        if m:
            selfs[m.group(2).split(".")[0]] += int(m.group(1)) * 1e-6
    return {"import.interp_s": interp, "import.numpy_s": selfs["numpy"],
            "import.scipy_s": selfs["scipy"]}


def layer_metrics(totals: tracing.Totals) -> dict:
    """Flatten span aggregates into ``<module>.<function>.{calls,self_s}``
    plus module totals and the computed counters."""
    agg, counters = totals.spans, totals.counters
    out = {}
    value = [0, 0.0]
    modules = Counter()
    for name, (calls, self_s, _) in agg.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        if name.startswith("model.value."):
            value[0] += calls
            value[1] += self_s
        if name != tracing.OP_SPAN:
            modules[name.split(".")[0]] += self_s
    out["model.value.calls"], out["model.value.self_s"] = value
    for mod, self_s in modules.items():
        out[f"{mod}.self_s"] = self_s
    dp_time = sum(agg.get(f"dp.{f}", (0, 0.0, 0.0))[2]
                  for f in ("dp_reduced", "dp_two_stage", "dp_no_feedback"))
    cells = counters.get("dp.cells", 0.0)
    out["dp.cells"] = cells
    out["dp.cells_per_s"] = cells / dp_time if dp_time else 0.0
    out["dp.bytes_kept"] = totals.peaks.get("dp.bytes_kept", 0.0)
    sim_time = agg.get("outcomes.simulate", (0, 0.0, 0.0))[2]
    reps = counters.get("outcomes.simulate.reps", 0.0)
    out["outcomes.simulate.reps_per_s"] = reps / sim_time if sim_time else 0.0
    return out


def traced_phase(wl: Workload, args, untraced: Stats,
                 scratch: Path) -> tuple:
    probes = run_probes(scratch)
    metrics = import_split()
    metrics["import.dblab_s"] = IMPORT_S
    tracer = tracing.Tracer()
    tracing.install(tracer)
    totals = tracing.Totals()
    cli = None
    if wl.name == "cli_oneshot":
        wl.trace_dir = scratch
        cli = {"totals": totals, "imports": [], "bytes": []}
    traced = run_rounds(wl, args.seconds, args.perturb, tracer,
                        n_rounds=untraced.rounds, cli=cli)
    tracer.dump(scratch / "spans.npz")
    totals.add_tracer(tracer)
    if cli is not None:
        metrics["import.dblab_s"] = statistics.median(cli["imports"])
        metrics["cli.bytes_written"] = statistics.mean(cli["bytes"])
    metrics.update(layer_metrics(totals))
    metrics["trace.ops_s"] = traced.op_time
    metrics["trace.overhead_frac"] = traced.op_time / untraced.op_time - 1.0
    metrics["trace.spans"] = sum(c for c, _, _ in totals.spans.values())
    metrics["ledger.open_defects"] = sum(probes.values())
    return traced, metrics, probes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--perturb", type=float, default=0.0)
    args = ap.parse_args()

    src = ROOT / "src"
    if Path(dblab.__file__).resolve().parent.parent != src:
        print(f"dblab imported from {dblab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    scratch = Path(args.scratch)
    wl = WORKLOADS[args.workload](args.seed, scratch)
    warm = wl.warmup()
    warm.check(warm.run(), 0.0)
    first_op = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_op": first_op}))
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    st = run_rounds(wl, seconds, args.perturb)
    report = {"first_op": first_op}
    metrics = {}
    if args.trace:
        traced, metrics, probes = traced_phase(wl, args, st, scratch)
        report["probes"] = probes
        for name in ("attempted", "failed"):
            setattr(st, name, getattr(st, name) + getattr(traced, name))
        st.failures.extend(traced.failures[:3 - len(st.failures)])
    report.update(
        attempted=st.attempted, failed=st.failed, op_time=st.op_time,
        rounds=st.rounds, latencies=st.latencies,
        failures=st.failures,
        child_peak_kb=wl.child_peak_kb,
        versions={"python": platform.python_version(),
                  "numpy": np.__version__, "scipy": scipy.__version__},
        layers=metrics)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
