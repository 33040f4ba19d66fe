"""Process-parallel design-space sweeps.

The paper's DSE figures (13-15) are embarrassingly parallel: every
parameter point is an independent simulation over the same seeded
dataset.  `ParallelSweep` fans the points out over a
`ProcessPoolExecutor` and reassembles the results in grid order, so the
output is independent of scheduling.  Determinism is guaranteed by
construction:

* each worker builds its own `SimContext` from a pickled spec (no
  shared simulator state), and
* *every* result — serial or parallel — crosses a lossless
  `RunResult.to_dict()`/`from_dict()` round trip, so ``workers=N``
  produces byte-identical `SweepPoint.record()` rows to ``workers=1``.

With a `RunCache` attached, already-known points skip simulation
entirely; only the misses are submitted to the pool.  A sweep point
pays for its simulation and elaboration and for nothing another point
already did:

* the kernel is compiled *once per distinct (source, func, pipeline)*
  in the parent — see `repro.build` — and the distinct `Module`s reach
  each worker process once, through the pool initializer (under fork
  they are not pickled at all); a submit carries only a module index;
* each worker process (and the serial path, for one `run()`) keeps a
  private in-memory `ArtifactStore` for its lifetime, so it lowers each
  distinct datapath once and every later point runs on the same shared,
  read-only `SimGraph`.  The user's ``artifact_store`` serves only the
  parent's compile, and nothing outlives the sweep in the parent.

Sweeps are *hardened*: a point that crashes, hangs (watchdog), or
exceeds ``point_timeout`` yields a `SweepPoint` carrying a
`FailureRecord` while every other point completes normally.  Crashed
workers are retried up to ``retries`` times with deterministic
exponential backoff (capped at `SWEEP_BACKOFF_CAP_S`);
``strict=True`` restores fail-fast semantics.

Sweeps are also *resumable*: the parent puts every successful point
into the attached `RunCache` the moment it is recorded, before
``on_point`` reports it, so a point reported as done is already stored.
With an on-disk cache (``RunCache(path)``) a re-run of the same sweep
— after a crash, a SIGKILL, a new process — answers the finished points
from the cache and re-executes only the ones it is missing.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.exec.cache import RunCache, run_cache_key
from repro.exec.context import SimContext
from repro.exec.failures import FailureRecord, SweepPointError, retry_delay
from repro.faults import FaultPlan, watchdog_spec
from repro.system.soc import RunResult
from repro.trace import TraceConfig
from repro.workloads.base import Workload

#: Ceiling for the backoff before a sweep resubmits lost points.
SWEEP_BACKOFF_CAP_S = 5.0


@dataclass
class SweepPoint:
    params: dict
    result: Optional[RunResult] = None
    failure: Optional[FailureRecord] = None
    #: Engine that simulated the point ("dynamic"/"graph"): its own
    #: request; "" when no simulation produced a result (a cache hit or
    #: a failure).
    engine_used: str = ""

    @property
    def ok(self) -> bool:
        return self.failure is None and self.result is not None

    @property
    def cycles(self) -> int:
        return self.result.cycles if self.result is not None else 0

    @property
    def runtime_us(self) -> float:
        return self.result.runtime_ns / 1e3 if self.result is not None else 0.0

    @property
    def power_mw(self) -> float:
        return self.result.power.total_mw if self.result is not None else 0.0

    def record(self) -> dict:
        """Flat dict for CSV export; failed points serialize zeroed metrics."""
        row = dict(self.params)
        occupancy = self.result.occupancy if self.result is not None else None
        row.update(
            cycles=self.cycles,
            runtime_us=self.runtime_us,
            power_mw=self.power_mw,
            stall_fraction=occupancy.stall_fraction() if occupancy else 0.0,
            issue_fraction=occupancy.issue_fraction() if occupancy else 0.0,
            status="ok" if self.ok else "failed",
            error="" if self.failure is None else self.failure.summary(),
            # Stable provenance columns: which engine produced the row,
            # so engine provenance survives into dse.reports.
            engine_used=self.engine_used,
        )
        return row


def grid_points(param_grid: dict[str, Iterable]) -> list[dict]:
    """Cartesian product of a parameter grid, in key-major order."""
    keys = list(param_grid)
    return [
        dict(zip(keys, values))
        for values in itertools.product(*(param_grid[k] for k in keys))
    ]


class _SweepWorker:
    """The worker body of one sweep: its distinct kernels, its per-sweep
    settings and a private in-memory `ArtifactStore`.

    The pool initializer installs one per worker process
    (`_init_worker`); the serial path (and the fallback after a broken
    pool) runs the parent's instance for one `ParallelSweep.run`.  Both
    run every point through `run` — the same code either way, which is
    what makes the two paths byte-identical.
    """

    def __init__(self, workload: Workload, modules: list, seed: int,
                 verify: bool, max_ticks: Optional[int],
                 trace: Optional[TraceConfig], watchdog,
                 timeout_s: Optional[float]) -> None:
        from repro.build.store import ArtifactStore

        self.workload = workload
        #: The distinct kernels, prebuilt by the parent, so workers
        #: never run the frontend.
        self.modules = modules
        self.seed = seed
        self.verify = verify
        self.max_ticks = max_ticks
        self.trace = trace
        self.watchdog = watchdog
        self.timeout_s = timeout_s
        #: Lowers each datapath once; later points on it share the
        #: `SimGraph`.
        self.store = ArtifactStore()

    def run(self, module_index: int, acc_kwargs: dict, faults) -> dict:
        """One point: a full SimContext lifecycle, returned as a payload
        dict.

        Failures come back as ``{"__failure__": ...}`` payloads rather
        than raised exceptions, so the parent never depends on
        exception pickling; the per-point timeout is enforced *in the
        worker* by a wall-clock watchdog, which works identically for
        both paths.
        """
        try:
            ctx = SimContext(self.workload, seed=self.seed,
                             verify=self.verify, max_ticks=self.max_ticks,
                             trace=self.trace, faults=faults,
                             watchdog=self.watchdog, timeout_s=self.timeout_s,
                             module=self.modules[module_index],
                             artifact_store=self.store, **acc_kwargs)
            return ctx.run().to_dict()
        except Exception as exc:  # noqa: BLE001 - folded into a FailureRecord
            return {"__failure__": FailureRecord.from_exception(exc).to_dict()}


#: This pool process's worker body, installed by `_init_worker`.
_worker: Optional[_SweepWorker] = None


def _init_worker(worker: _SweepWorker) -> None:
    """Pool initializer: runs once per worker process."""
    global _worker
    _worker = worker


def _run_in_worker(module_index: int, acc_kwargs: dict, faults) -> dict:
    """Pool task: one point on this process's `_SweepWorker`."""
    return _worker.run(module_index, acc_kwargs, faults)


@dataclass
class ParallelSweep:
    """Sweep executor: ``workers=1`` is the deterministic serial path,
    ``workers=N`` fans pending points out across processes."""

    workers: int = 1
    cache: Optional[RunCache] = None
    verify: bool = True
    max_ticks: Optional[int] = None
    #: Optional tracing for every point (TraceConfig or channel spec).
    #: Observability only — never part of the run-cache key, so a traced
    #: sweep and an untraced one share cached results.
    trace: object = None
    #: Per-point wall-clock budget in seconds (None = unlimited).
    point_timeout: Optional[float] = None
    #: How many times to resubmit points lost to a crashed worker
    #: process before falling back to in-process serial execution.
    #: Retry N sleeps ``retry_backoff_s * 2^(N-1)`` seconds, capped at
    #: `SWEEP_BACKOFF_CAP_S` — deterministic (no jitter) so schedules
    #: are testable and reproducible.
    retries: int = 0
    retry_backoff_s: float = 0.1
    #: Fail-fast: re-raise the first point failure as `SweepPointError`
    #: instead of degrading gracefully.
    strict: bool = False
    #: Fault injection: a `FaultPlan`/spec applied to every point, or a
    #: callable ``params -> plan|spec|None`` for point-selective faults.
    faults: object = None
    #: Hang detection for every point: `SimWatchdog` spec (True, cycle
    #: budget, kwargs dict, or instance — reduced to a picklable spec).
    watchdog: object = None
    #: Content-addressed compile cache (`repro.build.ArtifactStore`):
    #: kernels already built by an earlier sweep/process are store hits.
    #: It serves the parent's compile only; each worker lowers its
    #: points' graphs through its own private store.
    artifact_store: object = None
    #: Pass-pipeline spec applied to every point's compile (string or
    #: `PipelineSpec`).  None = the standard preset driven by each
    #: point's ``unroll_factor``; a non-default spec joins the run-cache
    #: key so differently-optimized runs never collide.
    pipeline: object = None

    def run(
        self,
        workload: Workload,
        param_grid: dict[str, Iterable],
        configure: Callable[[dict], dict],
        seed: int = 7,
        unroll_factor: int = 1,
        on_point: Optional[Callable[[int, int, SweepPoint], None]] = None,
    ) -> list[SweepPoint]:
        """Run ``workload`` across the cartesian product of ``param_grid``.

        ``configure(params)`` maps one parameter point to the keyword
        arguments of `StandaloneAccelerator` (it may include a 'config'
        DeviceConfig).  Every point runs the same dataset (same seed), so
        differences are purely architectural.

        ``on_point(done, total, point)`` is called in the parent process
        once per resolved point — cache hits first (grid order), then
        executed points as they complete (completion order under
        ``workers>1``) — with ``done`` counting monotonically to
        ``total``.  Observability only: it never joins cache keys, and
        both the serial and parallel paths report every point exactly
        once.  With a cache attached, every point reported as done is
        already stored; afterwards ``cache_hits`` counts the points this
        run answered from the cache.
        """
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        entries: list[tuple[dict, dict, Optional[FaultPlan]]] = []
        for params in grid_points(param_grid):
            kwargs = configure(params)
            kwargs.setdefault("unroll_factor", unroll_factor)
            entries.append((params, kwargs, self._plan_for(params)))

        total = len(entries)
        done = 0
        self.cache_hits = 0
        points = [SweepPoint(params=params) for params, __, ___ in entries]

        def notify(index: int) -> None:
            nonlocal done
            done += 1
            if on_point is not None:
                on_point(done, total, points[index])

        pending: list[tuple[int, Optional[str], dict, Optional[FaultPlan]]] = []
        for index, (params, kwargs, plan) in enumerate(entries):
            key: Optional[str] = None
            # Faulty points bypass the cache in both directions: a
            # corrupted result must never be stored, and a clean stored
            # result must never stand in for an injected run.
            if self.cache is not None and not plan:
                key = run_cache_key(workload.source, workload.func_name,
                                    seed=seed, pipeline=self.pipeline,
                                    **kwargs)
                cached = self.cache.get(key)
                if cached is not None:
                    points[index].result = cached
                    self.cache_hits += 1
                    notify(index)
                    continue
            pending.append((index, key, kwargs, plan))

        def resolve(slot: int, payload: dict) -> None:
            index, key, kwargs = pending[slot][:3]
            point = points[index]
            failure_dict = payload.get("__failure__")
            if failure_dict is not None:
                point.failure = FailureRecord.from_dict(failure_dict)
            else:
                point.engine_used = kwargs.get("engine", "graph")
                point.result = RunResult.from_dict(payload)
                if key is not None:
                    # Stored before it is reported: a point `on_point`
                    # has seen survives a crash of this process.
                    self.cache.put(key, point.result)
            notify(index)

        modules, module_of = self._prebuild(workload, pending)
        worker = _SweepWorker(workload, modules, seed, self.verify,
                              self.max_ticks, TraceConfig.coerce(self.trace),
                              watchdog_spec(self.watchdog), self.point_timeout)
        self._execute(worker, pending, module_of, resolve)
        if self.strict:
            for point in points:
                if point.failure is not None:
                    raise SweepPointError(point.params, point.failure)
        return points

    def retry_delay(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based)."""
        return retry_delay(self.retry_backoff_s, attempt, SWEEP_BACKOFF_CAP_S)

    # ------------------------------------------------------------------
    def _prebuild(self, workload: Workload,
                  pending: list) -> tuple[list, list[int]]:
        """Compile each *distinct* kernel once.

        Returns the distinct `Module`s and, per pending slot, the index
        of its module.  Points differ in memory/datapath knobs far more
        often than in compile-relevant ones, so a sweep usually holds
        one distinct (source, func, pipeline) triple — compiled here, in
        the parent, exactly once, and handed to each worker once.  This
        is what turns the sweep hot path from O(points × compile) into
        O(distinct kernels).
        """
        from repro.build.artifact import artifact_key
        from repro.build.pipeline import build_module, resolve_spec

        index_of: dict[str, int] = {}
        modules: list = []
        module_of: list[int] = []
        for __, __, kwargs, __ in pending:
            spec = resolve_spec(self.pipeline,
                                unroll_factor=kwargs.get("unroll_factor", 1))
            akey = artifact_key(workload.source, workload.func_name, spec)
            if akey not in index_of:
                index_of[akey] = len(modules)
                modules.append(build_module(
                    workload.source, workload.func_name, pipeline=spec,
                    store=self.artifact_store,
                ).module)
            module_of.append(index_of[akey])
        return modules, module_of

    def _plan_for(self, params: dict) -> Optional[FaultPlan]:
        """Resolve the sweep-level fault setting for one point."""
        faults = self.faults
        if callable(faults) and not isinstance(faults, FaultPlan):
            faults = faults(params)
        plan = FaultPlan.coerce(faults)
        return plan if plan else None

    def _execute(self, worker: _SweepWorker,
                 pending: list[tuple[int, Optional[str], dict,
                                     Optional[FaultPlan]]],
                 module_of: list[int],
                 resolve: Callable[[int, dict], None]) -> None:
        """Run the pending points, handing each payload to ``resolve``.

        ``worker`` runs the serial path and the fallback in-process, and
        the pool's initializer installs it in every pool process;
        ``module_of[slot]`` indexes its modules.

        Pool crashes (a worker segfaults or is OOM-killed) don't discard
        the sweep: completed futures are harvested, only genuinely
        unfinished points are resubmitted (up to ``retries`` times, with
        backoff), and whatever still remains runs serially in-process.

        ``resolve(slot, payload)`` fires in the parent exactly once per
        slot, the moment its payload is first recorded — the retry path
        can observe the same future twice, so recording (not completion)
        is the notification point.
        """
        recorded: set[int] = set()

        def record(slot: int, payload: dict) -> None:
            if slot in recorded:
                return
            recorded.add(slot)
            resolve(slot, payload)

        def run_inline(slot: int) -> dict:
            __, __, kwargs, plan = pending[slot]
            return worker.run(module_of[slot], kwargs, plan)

        if self.workers == 1 or len(pending) <= 1:
            for slot in range(len(pending)):
                record(slot, run_inline(slot))
            return

        remaining = list(range(len(pending)))
        attempts = 0
        pool_ok = True
        while remaining and pool_ok and attempts <= self.retries:
            if attempts > 0:
                time.sleep(self.retry_delay(attempts))
            futures: dict = {}
            resolve_error: Optional[OSError] = None
            try:
                with ProcessPoolExecutor(max_workers=self.workers,
                                         initializer=_init_worker,
                                         initargs=(worker,)) as pool:
                    futures = {
                        slot: pool.submit(_run_in_worker, module_of[slot],
                                          pending[slot][2], pending[slot][3])
                        for slot in remaining
                    }
                    # Harvest in completion order so progress callbacks
                    # fire as points finish, not in submission order.
                    slot_of = {future: slot for slot, future in futures.items()}
                    for future in as_completed(slot_of):
                        payload = future.result()
                        try:
                            record(slot_of[future], payload)
                        except OSError as exc:
                            resolve_error = exc
                            raise
                    remaining = []
            except (BrokenProcessPool, PermissionError, OSError) as exc:
                if exc is resolve_error:
                    raise  # storing or reporting a point failed, not the pool
                # A worker died mid-flight (or this environment forbids
                # fork/semaphores entirely).  Keep every result that did
                # complete; only rerun what is genuinely unfinished.
                for slot, future in futures.items():
                    if (slot not in recorded and future.done()
                            and not future.cancelled()
                            and future.exception() is None):
                        record(slot, future.result())
                remaining = [slot for slot in remaining if slot not in recorded]
                if not recorded:
                    # Nothing ever completed: process support is likely
                    # absent — stop burning retries on a dead pool.
                    pool_ok = False
                attempts += 1
        # Leftovers (retry budget exhausted, or no process support at
        # all) degrade to the serial path, which is result-identical.
        for slot in remaining:
            record(slot, run_inline(slot))
