"""Span recorder for the traced benchmark run.

Spans are recorded from outside dblab: every public function of the
package is replaced, in each namespace that binds it, by a wrapper that
opens a span on entry and closes it on exit.  Each family's ``value``
method is wrapped on its class.  Private helpers are left alone.

Spans live in flat arrays (name id, start, end, parent span, op id) and
are written out once, when the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

_MODULES = ("model", "policy", "solver", "dp", "nofeedback", "outcomes",
            "cli")

OP_SPAN = "bench.op"


class Tracer:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict = {}
        self.peaks: dict = {}
        self._stack: list = []
        self.op_id = -1

    def _intern(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        if self.op_id >= 0:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def peak(self, name: str, amount: float) -> None:
        if self.op_id >= 0:
            self.peaks[name] = max(self.peaks.get(name, 0.0), amount)

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self.open(OP_SPAN)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.op_id = -1

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def dump(self, path, **extra) -> None:
        np.savez(path, counters=json.dumps(self.counters),
                 peaks=json.dumps(self.peaks), **extra, **self.arrays())


def aggregate(spans: dict) -> dict:
    """Per span name: calls, self seconds and total seconds, over spans
    that ran inside a timed op (op id >= 0)."""
    n = len(spans["start"])
    if n == 0:
        return {}
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    self_t = dur - child
    inside = spans["op"] >= 0
    ids = spans["name_id"][inside]
    k = len(spans["names"])
    calls = np.bincount(ids, minlength=k)
    selfs = np.bincount(ids, weights=self_t[inside], minlength=k)
    totals = np.bincount(ids, weights=dur[inside], minlength=k)
    return {str(name): (int(calls[i]), float(selfs[i]), float(totals[i]))
            for i, name in enumerate(spans["names"]) if calls[i]}


class Totals:
    """Span aggregates, counters (summed) and peaks (maxed) over several
    tracers, such as one per traced CLI process."""

    def __init__(self) -> None:
        self.spans: dict = {}
        self.counters: dict = {}
        self.peaks: dict = {}

    def add(self, spans: dict, counters: dict, peaks: dict) -> None:
        for name, (c, s, t) in aggregate(spans).items():
            c0, s0, t0 = self.spans.get(name, (0, 0.0, 0.0))
            self.spans[name] = (c0 + c, s0 + s, t0 + t)
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, value in peaks.items():
            self.peaks[name] = max(self.peaks.get(name, 0.0), value)

    def add_tracer(self, tracer: Tracer) -> None:
        self.add(tracer.arrays(), tracer.counters, tracer.peaks)

    def add_dump(self, path) -> dict:
        """Add a file written by :meth:`Tracer.dump`; returns its arrays."""
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        self.add(arrays, json.loads(str(arrays["counters"])),
                 json.loads(str(arrays["peaks"])))
        return arrays


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _dp_counts(tracer: Tracer, sol) -> None:
    n = sol.grid.n_steps
    tracer.count("dp.cells", (n + 1) * (n + 2) // 2)
    kept = sum(r.nbytes for r in sol.policy_rows)
    kept += sum(r.nbytes for r in sol.tie_rows)
    if sol.value_rows is not None:
        kept += sum(r.nbytes for r in sol.value_rows)
    tracer.peak("dp.bytes_kept", kept)


def _sim_counts(tracer: Tracer, result) -> None:
    tracer.count("outcomes.simulate.reps", result.reps)


_RESULT_HOOKS = {
    "dp.dp_reduced": _dp_counts,
    "dp.dp_two_stage": _dp_counts,
    "dp.dp_no_feedback": _dp_counts,
    "outcomes.simulate": _sim_counts,
}


def _wrap(tracer: Tracer, name: str, fn):
    hook = _RESULT_HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap dblab's public functions and family ``value`` methods."""
    import dblab
    import dblab.cli  # not imported by the package itself

    from dblab.model import ProgressModel

    modules = [dblab] + [sys.modules[f"dblab.{m}"] for m in _MODULES]
    wrappers: dict = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__ or ""
            if not home.startswith("dblab."):
                continue
            if obj not in wrappers:
                layer = home.rsplit(".", 1)[1]
                wrappers[obj] = _wrap(tracer, f"{layer}.{obj.__name__}", obj)
            setattr(mod, attr, wrappers[obj])
    for cls in ProgressModel.__subclasses__():
        if "value" in vars(cls):
            cls.value = _wrap(tracer, f"model.value.{cls.__name__}",
                              vars(cls)["value"])
