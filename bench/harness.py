"""Operation accounting, checks, spans and child interpreters for the workloads."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
CHILD = Path(__file__).resolve().parent / "child.py"
EPS = sys.float_info.epsilon


class Tracer:
    """Spans around the benchmark's calls into lgradial.

    While disabled, `call` is a plain call, so untraced rounds pay nothing.
    A span holds its name, start and end on `time.perf_counter` (the
    system-wide monotonic clock on Linux, so child interpreters' spans line
    up with the parent's), the id of the enclosing span, the operation id
    and the round. While `memory` is also set, call sites flagged `memory`
    record the tracemalloc peak of the call, in KiB; tracemalloc slows
    Python-heavy calls several times over, so the run turns it on for one
    extra round whose times it does not use.
    """

    def __init__(self):
        self.enabled = False
        self.memory = False
        self.spans = []
        self.round = None
        self.op = None
        self._stack = []

    def call(self, name, fn, *args, memory=False, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        memory = memory and self.memory
        if memory:
            tracemalloc.start()
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            span["failed"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            if memory:
                span["peak_kib"] = tracemalloc.get_traced_memory()[1] / 1024.0
                tracemalloc.stop()
            self._stack.pop()

    def add(self, name, start, end, failed=False, peak_kib=None):
        """Record a span timed elsewhere, such as in a child interpreter."""
        if self.enabled:
            span = self._open(name)
            span.update(start=start, end=end, failed=failed)
            if peak_kib is not None:
                span["peak_kib"] = peak_kib
            self._stack.pop()

    def _open(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op, "round": self.round, "failed": False}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span


class Run:
    """Counts operations and failures and keeps the margins of passed checks."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0  # equal inputs that gave unequal outputs
        self.errors = []     # the first failures, for the run record
        self.margins = {}    # round -> (margin in dex, check name) of its passed checks
        self.round = 0
        self._checks = None

    def operation(self, name, fn, *args):
        """Run fn(*args) as one operation; it passes when every check it made passed.

        A raise from the library fails the operation, and the run goes on.
        """
        self.attempted += 1
        self.tracer.op = self.attempted
        self._checks = []
        try:
            self.tracer.call("op." + name, fn, *args)
            reason = next((c for c, ok in self._checks if not ok),
                          None if self._checks else "no check made")
        except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            self._blame_last_call()
            if len(self.errors) < 20:
                self.errors.append({"round": self.round, "op": name, "reason": reason})
        self.tracer.op = None
        self._checks = None
        return reason is None

    def expect(self, name, measured, tolerance):
        """Pass when `measured` is finite and <= `tolerance`; NaN and inf fail.

        A pass records the margin log10(tolerance / measured), with measured
        floored at machine epsilon.
        """
        measured = float(measured)
        ok = math.isfinite(measured) and measured <= tolerance
        if ok:
            self.margins.setdefault(self.round, []).append(
                (math.log10(tolerance / max(measured, EPS)), name))
        self._checks.append((name, ok))
        return ok

    def require(self, name, condition):
        """A check without a size, such as finiteness or byte identity."""
        self._checks.append((name, bool(condition)))
        return bool(condition)

    def same(self, name, condition):
        """Reproducibility: an output equals the one an earlier round got from the same input."""
        self.mismatches += not condition
        return self.require(name + " reproducible", condition)

    def round_margin(self, index):
        """(margin, check name) of the round's tightest passed check, or (None, None)."""
        return min(self.margins.get(index) or [(None, None)])

    def _blame_last_call(self):
        """Mark the failed operation's last library call, whose result missed."""
        for span in reversed(self.tracer.spans):
            if span["op"] != self.tracer.op:
                break
            if not span["name"].startswith("op."):
                span["failed"] = True
                break


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def layer_metrics(spans, rounds, names, memory_names):
    """Per call site: busy_s, calls, failed (medians over `rounds`) and peak_kib (max).

    Peaks come from whichever spans carry one, that is from the memory round.
    """
    sums = {}
    peaks = {}
    for span in spans:
        if "peak_kib" in span:
            peaks[span["name"]] = max(peaks.get(span["name"], 0.0), span["peak_kib"])
        if span["round"] not in rounds:
            continue
        key = (span["name"], span["round"])
        busy, calls, failed = sums.get(key, (0.0, 0, 0))
        sums[key] = (busy + span["end"] - span["start"], calls + 1, failed + span["failed"])
    out = {}
    for name in names:
        per_round = [sums.get((name, r), (0.0, 0, 0)) for r in rounds]
        for i, field in enumerate(("busy_s", "calls", "failed")):
            out[f"{name}.{field}"] = statistics.median(v[i] for v in per_round)
        if name in memory_names:
            out[f"{name}.peak_kib"] = peaks.get(name, 0.0)
    return out


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args=(), timeout=150):
    """Run child.py in a fresh interpreter and return the JSON on its last line.

    With no arguments the child only imports lgradial; otherwise it also
    runs `lgradial.cli.main(args)`. The child is waited for, or killed on
    timeout.
    """
    proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {list(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def import_samples(count):
    """Wall times of `import lgradial` in `count` fresh interpreters."""
    return [run_child()["import_s"] for _ in range(count)]
