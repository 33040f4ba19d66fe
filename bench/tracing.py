"""Per-layer wall-clock attribution for the benchmark.

`Tracer.install()` wraps a fixed list of public entry points of the
simulator's layers (`ENTRY_POINTS`) from outside the program: nothing
under ``src/`` changes, and an untraced run never calls `install`, so it
runs the program exactly as shipped.

Each call into a wrapped entry point records a span: layer name, start,
end, parent span, op id, process and thread.  Spans stay in memory.  The
benchmark's own process writes them once at the end; a process forked
from it (a `ParallelSweep` pool worker) or started under
``serve_launcher.py`` (the job server) cannot be relied on to run exit
hooks, so it appends each finished outermost span, with its children,
to ``<flush_dir>/<pid>.jsonl`` for the benchmark to merge.

`attribute()` turns merged spans into self times: a span's duration
minus the part of it its children cover, both clipped to a time window.
On the threads that drive the workload, the self times of every layer
plus a residual (time outside any span) add up to the window's wall.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional


def _store_hit(span: dict, args, result, before) -> None:
    span["hit"] = result is not None


def _run_outcome(span: dict, args, result, before) -> None:
    ctx = args[0]
    span["engine"] = ctx.engine
    span["engine_used"] = ctx.engine_used
    span["cache_hit"] = ctx.cache_hit
    if ctx.engine_used == "graph" and not ctx.cache_hit:
        span["graph_cycles"] = result.cycles


def _events_before(args) -> int:
    return args[0].events_fired


def _events_fired(span: dict, args, result, before: int) -> None:
    span["events"] = args[0].events_fired - before


#: (layer, module, attribute path, before hook, after hook).  ``before``
#: sees the call's arguments; ``after`` annotates the span from the
#: arguments, the result and what ``before`` returned.  Several entry
#: points may share one layer.  ``SCENARIOS.<name>`` entries are
#: dict items: the CNN scenarios are looked up through that registry.
ENTRY_POINTS: list[tuple] = [
    ("build.parse", "repro.build.pipeline", "BuildPipeline.parse", None, None),
    ("build.lower", "repro.build.pipeline", "BuildPipeline.lower", None, None),
    ("build.optimize", "repro.build.pipeline", "BuildPipeline.optimize",
     None, None),
    ("build.graph", "repro.build.pipeline", "BuildPipeline.graph", None, None),
    ("build.store_get", "repro.build.store", "ArtifactStore.get",
     None, _store_hit),
    ("exec.build", "repro.exec.context", "SimContext.build", None, None),
    ("exec.stage", "repro.exec.context", "SimContext.stage", None, None),
    ("exec.run", "repro.exec.context", "SimContext.run", None, _run_outcome),
    ("exec.sweep", "repro.exec.parallel", "ParallelSweep.run", None, None),
    ("exec.cache_get", "repro.exec.cache", "RunCache.get", None, _store_hit),
    ("exec.cache_put", "repro.exec.cache", "RunCache.put", None, None),
    ("engine.graph_run", "repro.engine.scheduler", "GraphScheduler.run",
     None, None),
    ("sim.eventq_run", "repro.sim.eventq", "EventQueue.run",
     _events_before, _events_fired),
    ("system.collect", "repro.sim.simobject", "System.dump_stats", None, None),
    ("system.collect", "repro.core.compute_unit", "ComputeUnit.power_report",
     None, None),
    ("system.collect", "repro.core.compute_unit", "ComputeUnit.area_report",
     None, None),
    ("system.collect", "repro.system.soc", "RunResult.to_dict", None, None),
    ("workloads.verify", "repro.workloads.base", "Workload.verify", None, None),
    ("soc.scenario", "repro.system.cnn_scenarios", "SCENARIOS.private_spm",
     None, None),
    ("soc.scenario", "repro.system.cnn_scenarios", "SCENARIOS.shared_spm",
     None, None),
    ("soc.scenario", "repro.system.cnn_scenarios", "SCENARIOS.stream",
     None, None),
    ("serve.execute", "repro.serve.workers", "execute_job", None, None),
    ("serve.journal_append", "repro.serve.journal", "JobJournal.append",
     None, None),
]

#: Spans the benchmark opens itself, around calls it makes.
BENCH_LAYERS = ("serve.client",)

#: Every layer a span can carry, in report order.
LAYERS: tuple = tuple(dict.fromkeys(
    [entry[0] for entry in ENTRY_POINTS] + list(BENCH_LAYERS)))


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, flush_dir: Optional[Path] = None) -> None:
        self.flush_dir = Path(flush_dir) if flush_dir is not None else None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists: list[list[dict]] = []
        self._originals: list[tuple] = []
        self.installed = False
        self.flush_each_root = False

    # -- recording -------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.done = []
            local.op = None
            local.suspended = False
            with self._lock:
                self._lists.append(local.done)
        return local

    def _open(self, name: str) -> dict:
        local = self._state()
        parent = local.stack[-1] if local.stack else None
        span = {
            "id": next(self._ids),
            "parent": parent["id"] if parent is not None else None,
            "name": name,
            "op": local.op if parent is None else parent["op"],
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start": time.perf_counter(),
        }
        local.stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        local = self._local
        local.stack.pop()
        local.done.append(span)
        if not local.stack and self.flush_each_root:
            self._flush(local.done)

    def _flush(self, done: list) -> None:
        lines = "".join(json.dumps(span) + "\n" for span in done)
        done.clear()
        with self._lock:
            with open(self.flush_dir / f"{os.getpid()}.jsonl", "a",
                      encoding="utf-8") as fh:
                fh.write(lines)

    @contextmanager
    def span(self, name: str, op=None):
        """A span opened by benchmark code around its own calls."""
        if not self.installed:
            yield None
            return
        local = self._state()
        previous = local.op
        if op is not None:
            local.op = op
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            local.op = previous

    @contextmanager
    def op(self, op_id):
        """Tag the spans opened inside with ``op_id``."""
        local = self._state()
        previous, local.op = local.op, op_id
        try:
            yield
        finally:
            local.op = previous

    @contextmanager
    def suspended(self):
        """Record nothing inside: benchmark bookkeeping that calls a
        wrapped function (digests call ``RunResult.to_dict``) must not be
        charged to the program's layers."""
        local = self._state()
        previous, local.suspended = local.suspended, True
        try:
            yield
        finally:
            local.suspended = previous

    # -- wrapping --------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable, before, after) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._state()
            if local.suspended:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            span = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, result, state)
                return result
            finally:
                tracer._close(span)

        return wrapper

    def install(self) -> "Tracer":
        """Wrap every entry point.  Processes forked afterwards keep the
        wrappers, start with no spans, and flush per outermost span."""
        if self.installed:
            return self
        for layer, module_name, path, before, after in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            owner_name, __, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name)
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = self._wrap(layer, original, before, after)
            else:
                # Class attributes are read from __dict__ so that an
                # inherited method is never copied onto a subclass.
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                setattr(owner, attr, self._wrap(layer, original, before, after))
            self._originals.append((owner, attr, original))
        self.installed = True
        if self.flush_dir is not None:
            self.flush_dir.mkdir(parents=True, exist_ok=True)
            os.register_at_fork(after_in_child=self._after_fork)
        return self

    def _after_fork(self) -> None:
        if not self.installed:
            return
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists = []
        self.flush_each_root = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._originals.clear()
        self.installed = False

    # -- collection ------------------------------------------------------
    def spans(self) -> list[dict]:
        """This process's finished spans plus every flushed file."""
        with self._lock:
            merged = [span for done in self._lists for span in done]
        if self.flush_dir is not None and self.flush_dir.is_dir():
            for path in sorted(self.flush_dir.glob("*.jsonl")):
                with open(path, encoding="utf-8") as fh:
                    merged.extend(json.loads(line) for line in fh if line.strip())
        return merged


def remote_tracer(flush_dir: Path) -> Tracer:
    """A tracer for a process whose spans another process collects."""
    tracer = Tracer(flush_dir).install()
    tracer.flush_each_root = True
    return tracer


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def _clip(span: dict, t0: float, t1: float) -> float:
    return max(0.0, min(span["end"], t1) - max(span["start"], t0))


def unresolved_parents(spans: list[dict]) -> list[dict]:
    """Spans whose parent id names no span of the same process."""
    known = {(span["pid"], span["id"]) for span in spans}
    return [span for span in spans if span["parent"] is not None
            and (span["pid"], span["parent"]) not in known]


def attribute(spans: list[dict], t0: float, t1: float,
              drivers: set) -> dict:
    """Self time per layer inside ``[t0, t1]``.

    ``drivers`` holds the ``(pid, tid)`` pairs of the threads that ran
    the workload's timed loop.  ``layers_s`` sums self time over every
    process and thread, so concurrent workers and server threads can
    take more than one wall between them.  ``driver_layers_s`` plus
    ``residual_s`` equals ``driver_wall_s`` (one wall per driver thread):
    the residual is driver time spent outside every span.
    """
    covered: dict = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[(span["pid"], span["parent"])] += _clip(span, t0, t1)
    layers_s: dict = defaultdict(float)
    driver_layers_s: dict = defaultdict(float)
    for span in spans:
        own = _clip(span, t0, t1) - covered[(span["pid"], span["id"])]
        layers_s[span["name"]] += own
        if (span["pid"], span["tid"]) in drivers:
            driver_layers_s[span["name"]] += own
    driver_wall_s = len(drivers) * (t1 - t0)
    return {
        "wall_s": t1 - t0,
        "layers_s": dict(layers_s),
        "driver_layers_s": dict(driver_layers_s),
        "driver_wall_s": driver_wall_s,
        "residual_s": driver_wall_s - sum(driver_layers_s.values()),
    }


def in_window(spans: list[dict], t0: float, t1: float) -> list[dict]:
    return [span for span in spans if span["end"] > t0 and span["start"] < t1]


def write_chrome_trace(spans: list[dict], path: Path, t0: float) -> None:
    """Chrome trace-event JSON (loads in Perfetto / chrome://tracing)."""
    events = []
    for span in spans:
        args = {key: value for key, value in span.items()
                if key not in ("name", "pid", "tid", "start", "end")}
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ph": "X",
            "ts": round((span["start"] - t0) * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "pid": span["pid"],
            "tid": span["tid"],
            "args": args,
        })
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}) + "\n")
