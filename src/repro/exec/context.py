"""The simulation lifecycle as an explicit, reusable object.

Every consumer of the simulator used to hand-roll the same four phases:
build the `System` (compile the kernel, elaborate the datapath, wire the
memory system), stage the workload's dataset, drain the event loop, and
collect statistics.  This module names those phases:

* :class:`Simulation` wraps an already-built `System` — init-once
  event-loop runs, stats collection, and reset/teardown.
* :class:`SimContext` owns the full build → stage → run → collect
  pipeline for one kernel on one `StandaloneAccelerator`
  configuration, with optional result caching and golden-model
  verification.  Contexts are reusable (`reset()` then `run()` again)
  and picklable (live simulator state is dropped, the spec survives),
  which is what lets `ParallelSweep` ship them across processes.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.build.artifact import Artifact
from repro.build.store import ArtifactStore
from repro.exec.cache import RunCache, run_cache_key
from repro.faults import (
    FaultInjector,
    FaultPlan,
    SimWatchdog,
    coerce_watchdog,
    watchdog_spec,
)
from repro.ir.module import Module
from repro.passes.pipeline import PipelineSpec
from repro.sim.sanitizer import AccessSanitizer
from repro.sim.simobject import System
from repro.sim.stats import format_stats
from repro.system.soc import RunResult, StandaloneAccelerator
from repro.trace import TraceConfig, TraceHub
from repro.workloads.base import Workload


class Simulation:
    """Owns a built `System`: event-loop execution, stats, reset.

    The thin waist between "a wired platform" and "a finished run" —
    used directly by the SoC-level scenarios, and indirectly (via
    `StandaloneAccelerator`) by :class:`SimContext`.
    """

    def __init__(self, system: System) -> None:
        self.system = system
        self.exit_cause: Optional[str] = None

    @property
    def cur_tick(self) -> int:
        return self.system.cur_tick

    def run(self, max_tick: Optional[int] = None,
            max_events: Optional[int] = None, watchdog=None) -> str:
        """Initialise (once) and drain the event queue; returns the exit cause."""
        self.exit_cause = self.system.run(
            max_tick=max_tick, max_events=max_events,
            watchdog=coerce_watchdog(watchdog, self.system),
        )
        return self.exit_cause

    def stats(self) -> dict:
        return self.system.dump_stats()

    def report(self) -> str:
        return format_stats(self.stats(), title=self.system.name)

    def reset(self) -> None:
        """Tear down run state so the same system can simulate again."""
        self.system.reset()
        self.exit_cause = None


class SimContext:
    """One kernel's build → stage → run → collect lifecycle.

    Workload mode (cacheable)::

        ctx = SimContext(get_workload("gemm"), config=DeviceConfig(...),
                         memory="spm", spm_bytes=1 << 15, seed=7)
        result = ctx.run()          # RunResult, verified against the golden model
        ctx.reset()                 # reusable: tears down, next run() rebuilds

    Source mode (arbitrary staging, not cacheable)::

        ctx = SimContext.from_source(KERNEL, "saxpy", args_builder, memory="spm")
    """

    def __init__(
        self,
        workload: Optional[Workload] = None,
        *,
        seed: int = 7,
        verify: bool = True,
        cache: Optional[RunCache] = None,
        max_ticks: Optional[int] = None,
        source: Union[str, Module, None] = None,
        func_name: Optional[str] = None,
        args_builder: Optional[Callable[[StandaloneAccelerator], list]] = None,
        trace=None,
        faults=None,
        sanitize: bool = False,
        watchdog=None,
        timeout_s: Optional[float] = None,
        module: Union[Module, Artifact, None] = None,
        pipeline: Union[str, PipelineSpec, None] = None,
        artifact_store: Optional[ArtifactStore] = None,
        engine: str = "graph",
        **acc_kwargs,
    ) -> None:
        if (workload is None) == (source is None):
            raise ValueError("pass exactly one of 'workload' or 'source'")
        if source is not None and func_name is None:
            raise ValueError("source mode needs 'func_name'")
        if cache is not None and workload is None:
            raise ValueError(
                "caching needs workload mode: an args_builder callable "
                "cannot be part of a content-addressed key"
            )
        self.workload = workload
        self.source = workload.source if workload is not None else source
        self.func_name = workload.func_name if workload is not None else func_name
        self.args_builder = args_builder
        self.seed = seed
        self.verify = verify
        self.cache = cache
        self.max_ticks = max_ticks
        # Tracing is observability only: deliberately NOT in cache_key().
        self.trace = TraceConfig.coerce(trace)
        # Robustness knobs: fault plans poison results, so faulty runs
        # bypass the cache entirely; watchdog/timeout are observability.
        self.faults = FaultPlan.coerce(faults)
        # Race detection: sanitized runs carry extra result payload, so
        # they also bypass the run cache.
        self.sanitize = sanitize
        self.watchdog = watchdog
        self.timeout_s = timeout_s
        # Build-pipeline plumbing: a prebuilt module (compiled once by
        # e.g. the sweep parent and shipped across the pool) skips the
        # frontend entirely; an explicit pipeline spec changes which
        # passes run (and is part of the run-cache key); the artifact
        # store makes repeated compiles of the same kernel near-free.
        self.module_input = module
        self.pipeline = PipelineSpec.parse(pipeline) if pipeline is not None else None
        self.artifact_store = artifact_store
        # Engine selection is an execution strategy, not a design point:
        # the graph backend (the default) produces byte-identical
        # results, so it is deliberately NOT part of cache_key() — both
        # engines share one run-cache entry.
        self.engine = engine
        self.acc_kwargs = dict(acc_kwargs)
        # Live per-run state (rebuilt after reset; never pickled).
        self.fault_injector: Optional[FaultInjector] = None
        self.sanitizer = None
        self.trace_hub: Optional[TraceHub] = None
        self._module: Optional[Module] = None
        self._acc: Optional[StandaloneAccelerator] = None
        self._data = None
        self._addresses: Optional[dict[str, int]] = None
        self._args: Optional[list] = None
        self._ran = False
        self.last_result: Optional[RunResult] = None
        #: True when the last `run()` was served from the run cache
        #: (no simulation happened); consumers like `repro.serve` use
        #: this to report cache hits per request.
        self.cache_hit = False

    @classmethod
    def from_source(
        cls,
        source: Union[str, Module],
        func_name: str,
        args_builder: Callable[[StandaloneAccelerator], list],
        **kwargs,
    ) -> "SimContext":
        """Context around raw kernel source and a staging callable."""
        return cls(source=source, func_name=func_name, args_builder=args_builder,
                   **kwargs)

    # -- lifecycle phases -------------------------------------------------
    @property
    def accelerator(self) -> Optional[StandaloneAccelerator]:
        """The built `StandaloneAccelerator` (None before `build`/after `reset`)."""
        return self._acc

    @property
    def engine_used(self) -> Optional[str]:
        """Engine that executed the last run: the context's ``engine``
        once it has launched, None before a launch or when the result
        came straight from the run cache."""
        if (self.cache_hit or self._acc is None
                or not self._acc.unit.invocations):
            return None
        return self.engine

    def cache_key(self) -> str:
        """Content hash of this context's configuration (workload mode)."""
        if self.workload is None:
            raise ValueError("cache keys are only defined in workload mode")
        return run_cache_key(self.source, self.func_name, seed=self.seed,
                             pipeline=self.pipeline, **self.acc_kwargs)

    def build(self) -> StandaloneAccelerator:
        """Phase 1: compile (once, store-aware) and wire the system."""
        if self._acc is None:
            # The hub exists before the compile so build-stage timings
            # land on the ``build`` trace channel.
            if self.trace is not None and self.trace_hub is None:
                self.trace_hub = self.trace.make_hub()
            if self._module is None:
                self._module = self._resolve_module()
            acc = StandaloneAccelerator(self._module, self.func_name,
                                        artifact_store=self.artifact_store,
                                        engine=self.engine,
                                        trace_hub=self.trace_hub,
                                        **self.acc_kwargs)
            system = acc.system
            if self.trace_hub is not None:
                system.attach_probe(self.trace_hub)
            # A plan that fails to attach leaves the context unbuilt, so
            # the next run() retries (and fails) the same way.
            if self.faults:
                self.fault_injector = FaultInjector(self.faults).attach(system)
            if self.sanitize:
                self.sanitizer = system.attach_probe(AccessSanitizer())
            self._acc = acc
        return self._acc

    def _resolve_module(self) -> Module:
        """The kernel IR: prebuilt if provided, else one staged compile."""
        if self.module_input is not None:
            if isinstance(self.module_input, Artifact):
                return self.module_input.module
            return self.module_input
        if isinstance(self.source, Module):
            return self.source
        from repro.build.pipeline import build_module

        return build_module(
            self.source, self.func_name, pipeline=self.pipeline,
            unroll_factor=self.acc_kwargs.get("unroll_factor", 1),
            store=self.artifact_store, trace_hub=self.trace_hub,
        ).module

    def stage(self) -> list:
        """Phase 2: place the dataset in accelerator memory, build the arg list."""
        acc = self.build()
        if self.workload is not None:
            self._data = self.workload.make_data(np.random.default_rng(self.seed))
            self._args, self._addresses = self.workload.stage(acc, self._data)
        else:
            self._args = self.args_builder(acc)
        return self._args

    def run(self) -> RunResult:
        """Phases 1-4: build, stage, drain the event loop, collect stats.

        Consults the cache first (workload mode); a hit skips simulation
        entirely.  A context that already ran is reset transparently, so
        ``ctx.run()`` is always a fresh, deterministic run.
        """
        key: Optional[str] = None
        self.cache_hit = False
        if self.cache is not None and not self.faults and not self.sanitize:
            # Faulty runs never touch the cache: an injected corruption
            # must not be served back as a clean result (or vice versa).
            key = self.cache_key()
            cached = self.cache.get(key)
            if cached is not None:
                self.cache_hit = True
                self.last_result = cached
                return cached
        if self._ran:
            self.reset()
        acc = self.build()
        args = self._args if self._args is not None else self.stage()
        result = acc.run(args, max_ticks=self.max_ticks,
                         watchdog=self._make_watchdog(acc.system))
        self._ran = True
        if self.trace_hub is not None:
            result.trace_summary = self.trace_hub.summary()
        if self.sanitizer is not None:
            result.sanitizer = self.sanitizer.summary()
        if self.verify and self.workload is not None:
            self.workload.verify(acc, self._addresses, self._data)
        if key is not None:
            self.cache.put(key, result)
        self.last_result = result
        return result

    def _make_watchdog(self, system: System) -> Optional[SimWatchdog]:
        """A fresh watchdog for this run, bound to the built system.

        A caller's `SimWatchdog` instance is read as a spec and never
        modified, so reusing it (after `reset()` or in another context)
        watches the current system's engines.  ``timeout_s`` alone gets
        a wall-clock-only watchdog (no livelock budget); combined with
        an explicit watchdog it sets/overrides the wall-clock deadline.
        """
        watchdog = coerce_watchdog(watchdog_spec(self.watchdog), system)
        if self.timeout_s is not None:
            if watchdog is None:
                watchdog = SimWatchdog(livelock_cycles=None).bind_system(system)
            watchdog.wall_clock_s = self.timeout_s
        return watchdog

    def reset(self) -> None:
        """Tear down the built system so the context can run again.

        Resets the live system (event queue, object state, stats, memory
        allocator) and drops it; the next `run()` rebuilds from the
        cached compile, producing an identical result.
        """
        if self._acc is not None:
            system = self._acc.system
            for observer in list(system.observers):
                system.detach_probe(observer)
            self._acc.reset()
        self._acc = None
        self.fault_injector = None
        self.sanitizer = None
        self.trace_hub = None
        self._data = None
        self._addresses = None
        self._args = None
        self._ran = False

    # -- pickling (ProcessPoolExecutor ships contexts, not systems) -------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Live simulator state is full of closures and cyclic wiring;
        # only the spec crosses process boundaries.
        for live in ("_module", "_acc", "_data", "_addresses", "_args",
                     "last_result", "trace_hub", "fault_injector",
                     "sanitizer"):
            state[live] = None
        state["_ran"] = False
        # Caches/stores are owned by the parent process.  A prebuilt
        # module_input, however, *does* cross: `Module` pickles
        # losslessly (its recorded fingerprint included), so the
        # receiving process never re-runs the frontend.
        state["cache"] = None
        state["artifact_store"] = None
        # A bound watchdog instance holds engine references; ship the
        # picklable spec instead and re-bind in the worker.
        state["watchdog"] = watchdog_spec(self.watchdog)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        what = self.workload.name if self.workload is not None else self.func_name
        state = "built" if self._acc is not None else "unbuilt"
        return f"<SimContext {what} ({state})>"
