"""Job execution: spec -> simulation, off the event loop.

One function per job kind, all with the same shape
``(spec, state, publish) -> result dict``:

* ``compile`` — `build_module` through the shared `ArtifactStore`;
  returns the printed IR and the artifact key.
* ``run`` — one `SimContext` lifecycle through the shared `RunCache`;
  the result dict is byte-identical to a direct `SimContext.run`.
* ``sweep`` — a hardened `ParallelSweep` over a port grid; per-point
  progress (the new ``on_point`` callback) is published to the job's
  event log, which the SSE endpoint streams.  Every finished point is
  stored in the shared `RunCache` before it is published, so with an
  on-disk cache (``--cache-dir``, or ``<state-dir>/runs``) a sweep
  interrupted by a crash resumes from its finished points instead of
  re-simulating them.
* ``analyze`` — IR lints + memory-dependence report as JSON.

`WorkerPool` owns N asyncio worker tasks that claim jobs from the
`JobQueue` and run these bodies in a `ThreadPoolExecutor`, so the
event loop keeps answering ``/healthz`` (and accepting submissions that
may dedup onto the running job) while simulations grind.  Anything a
body raises is folded into a per-job `FailureRecord` — a crashing job
marks itself ``failed``; the worker and the server keep serving.  The
pool also enforces the per-job retry policy (``retries`` /
``backoff_s`` in the spec: deterministic exponential backoff, capped)
and feeds outcomes to the server's `CircuitBreaker`.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

from repro.exec.cache import RunCache, run_cache_key
from repro.exec.failures import FailureRecord, retry_delay
from repro.exec.params import accelerator_kwargs
from repro.serve.jobs import JOB_KINDS, Job, JobQueue


class SpecError(ValueError):
    """A job spec the workers cannot execute (client error, HTTP 400)."""


# ----------------------------------------------------------------------
# Spec handling
# ----------------------------------------------------------------------
def run_spec_kwargs(spec: dict) -> dict:
    """`StandaloneAccelerator` kwargs for a run/sweep spec, through
    `repro.exec.params.accelerator_kwargs` as ``repro run`` does, so a
    job submitted over HTTP and a CLI run of the same parameters share
    one run-cache key.
    """
    params = dict(
        ports=int(spec.get("ports", 2)),
        unroll=int(spec.get("unroll", 1)),
        clock_mhz=float(spec.get("clock_mhz", 100.0)),
        fu_limits={str(k): int(v)
                   for k, v in (spec.get("fu_limits") or {}).items()},
        spm_bytes=int(spec.get("spm_bytes", 1 << 16)),
    )
    try:
        return accelerator_kwargs(memory=spec.get("memory", "spm"), **params)
    except ValueError as exc:  # an unknown memory configuration
        raise SpecError(str(exc)) from None


def _spec_workload(spec: dict):
    from repro.workloads import get_workload

    name = spec.get("workload")
    if not name:
        raise SpecError("spec needs a 'workload' name")
    return get_workload(name)


def job_dedup_key(kind: str, spec: dict,
                  on_fallback: Optional[Callable[[str], None]] = None) -> str:
    """Content-addressed identity of one request.

    Run jobs reuse the run-cache key itself, so "identical request"
    and "identical cached result" are literally the same equivalence
    class; other kinds hash their canonical spec.  A spec too broken
    to key that way still gets a (unique-enough) hash — it will queue,
    fail in the worker, and report a proper `FailureRecord` — and the
    reason for the fallback is handed to ``on_fallback`` so the server
    can record it on the job's event log.  Only *expected* spec errors
    (unknown workload, malformed knob values) take the fallback;
    anything else is a server bug and propagates.
    """
    if kind == "run":
        try:
            workload = _spec_workload(spec)
            return "run:" + run_cache_key(
                workload.source, workload.func_name,
                seed=int(spec.get("seed", 7)), **run_spec_kwargs(spec))
        except (SpecError, KeyError, TypeError, ValueError) as exc:
            if on_fallback is not None:
                on_fallback(f"{type(exc).__name__}: {exc}")
    blob = json.dumps({"kind": kind, "spec": spec}, sort_keys=True,
                      separators=(",", ":"), default=str)
    return f"{kind}:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def job_retry_policy(spec: dict) -> tuple[int, float]:
    """``(retries, backoff_s)`` from a job spec, defensively coerced."""
    try:
        retries = max(0, int(spec.get("retries", 0)))
    except (TypeError, ValueError):
        retries = 0
    try:
        backoff_s = max(0.0, float(spec.get("backoff_s", 0.5)))
    except (TypeError, ValueError):
        backoff_s = 0.5
    return retries, backoff_s


# ----------------------------------------------------------------------
# Job bodies
# ----------------------------------------------------------------------
def _job_compile(spec: dict, state: "ServerState", publish) -> dict:
    from repro.build import build_module
    from repro.ir.printer import print_module

    source = spec.get("source")
    if not source:
        workload = _spec_workload(spec)
        source, func = workload.source, workload.func_name
    else:
        func = spec.get("func", "module")
    publish("compiling")
    artifact = build_module(source, func,
                            pipeline=spec.get("passes"),
                            unroll_factor=int(spec.get("unroll", 1)),
                            store=state.artifact_store)
    return {
        "ir": print_module(artifact.module),
        "artifact_key": artifact.key,
        "store_hit": bool(artifact.meta.get("cached")),
    }


def _job_run(spec: dict, state: "ServerState", publish) -> dict:
    from repro.exec.context import SimContext

    workload = _spec_workload(spec)
    ctx = SimContext(workload, seed=int(spec.get("seed", 7)),
                     verify=bool(spec.get("verify", True)),
                     cache=state.run_cache,
                     artifact_store=state.artifact_store,
                     timeout_s=spec.get("timeout_s"),
                     **run_spec_kwargs(spec))
    # Probe before building so a cache hit never pays a compile
    # (`in` is accounting-neutral; `run()` below does the counted get).
    will_hit = (state.run_cache is not None
                and ctx.cache_key() in state.run_cache)
    if not will_hit:
        publish("compiling")
        ctx.build()
        ctx.stage()
        publish("running")
    result = ctx.run()
    # engine_used is None on a cache hit: no simulation ran.
    publish("cache_hit" if ctx.cache_hit else "ran",
            cycles=result.cycles, engine=ctx.engine_used)
    payload = result.to_dict()
    payload["__cache_hit__"] = ctx.cache_hit
    return payload


def _job_sweep(spec: dict, state: "ServerState", publish) -> dict:
    from repro.dse import pareto_front
    from repro.exec.parallel import ParallelSweep

    workload = _spec_workload(spec)
    ports = [int(p) for p in spec.get("ports", [1, 2, 4, 8])]

    def configure(params):
        point_spec = dict(spec, ports=params["ports"])
        return run_spec_kwargs(point_spec)

    def on_point(done, total, point):
        publish("point", done=done, total=total, params=point.params,
                ok=point.ok, cycles=point.cycles)

    executor = ParallelSweep(
        workers=int(spec.get("sweep_workers", 1)),
        cache=state.run_cache,
        verify=bool(spec.get("verify", True)),
        point_timeout=spec.get("point_timeout"),
        retries=int(spec.get("retries", 0)),
        retry_backoff_s=float(spec.get("backoff_s", 0.1)),
        artifact_store=state.artifact_store,
    )
    publish("compiling")
    points = executor.run(workload, {"ports": ports}, configure,
                          seed=int(spec.get("seed", 7)),
                          unroll_factor=int(spec.get("unroll", 1)),
                          on_point=on_point)
    healthy = [p for p in points if p.ok]
    front = pareto_front(healthy,
                         objectives=lambda p: (p.runtime_us, p.power_mw))
    rows = []
    for point in points:
        row = point.record()
        row["pareto"] = point in front
        rows.append(row)
    return {"rows": rows, "failed": sum(1 for p in points if not p.ok),
            "resumed": executor.cache_hits}


def _job_analyze(spec: dict, state: "ServerState", publish) -> dict:
    from repro.analysis import analyze_module, analyze_scenario
    from repro.build import build_module

    scenario = spec.get("scenario")
    if scenario:
        # System-level concurrency lint (SYS301-306) of a scenario, the
        # same resolution rules as ``repro analyze --scenario``.
        publish("linting scenario")
        report = analyze_scenario(scenario)
        return json.loads(report.render_json())

    source = spec.get("source")
    if source:
        label = func = spec.get("func", "module")
        unroll = int(spec.get("unroll", 1))
    else:
        workload = _spec_workload(spec)
        source, func = workload.source, workload.func_name
        label = workload.name
        unroll = int(spec.get("unroll", workload.default_unroll))
    publish("compiling")
    artifact = build_module(source, func, unroll_factor=unroll,
                            pipeline=spec.get("passes"),
                            store=state.artifact_store)
    publish("linting")
    report = analyze_module(label, artifact.module)
    return json.loads(report.render_json())


_BODIES: dict[str, Callable] = {
    "compile": _job_compile,
    "run": _job_run,
    "sweep": _job_sweep,
    "analyze": _job_analyze,
}
assert set(_BODIES) == set(JOB_KINDS)


class ServerState:
    """Everything the job bodies share: the caches and counters.

    Both caches default to in-memory instances, so even a bare
    ``repro serve`` dedups repeat compiles and runs across jobs;
    ``--cache-dir``/``--artifact-dir`` make them survive restarts.
    """

    def __init__(self, run_cache: Optional[RunCache] = None,
                 artifact_store=None) -> None:
        from repro.build.store import ArtifactStore

        self.run_cache = run_cache if run_cache is not None else RunCache()
        self.artifact_store = (artifact_store if artifact_store is not None
                               else ArtifactStore())

    def cache_stats(self) -> dict:
        from repro.build import STAGE_COUNTERS

        return {"run_cache": self.run_cache.stats(),
                "stage_counters": STAGE_COUNTERS.snapshot(),
                "artifact_store": self.artifact_store.stats()}


def execute_job(job: Job, state: ServerState) -> tuple[Optional[dict],
                                                       Optional[FailureRecord],
                                                       bool]:
    """Run one job body; returns ``(result, failure, cache_hit)``.

    Runs inside an executor thread.  ``job.publish`` is the only thing
    it touches concurrently with the event loop, and that is a bare
    list append (plus the lock-guarded journal sink).
    """
    body = _BODIES.get(job.kind)
    try:
        if body is None:
            raise SpecError(f"unknown job kind '{job.kind}' "
                            f"(expected one of {', '.join(JOB_KINDS)})")
        result = body(job.spec, state, job.publish)
        cache_hit = bool(result.pop("__cache_hit__", False))
        return result, None, cache_hit
    except Exception as exc:  # noqa: BLE001 - jobs fail, servers don't
        return None, FailureRecord.from_exception(exc), False


class WorkerPool:
    """N asyncio worker tasks draining the queue via executor threads.

    Beyond plain execution the pool enforces the durability policies:

    * a failed attempt whose job still has retry budget is re-queued
      with a deterministic exponential backoff instead of resolving;
    * final outcomes are reported to the `CircuitBreaker` (when one is
      attached) so repeat offenders start failing fast at submit time;
    * after each resolution the journal is compacted once it has
      accumulated ``snapshot_every`` appends.
    """

    def __init__(self, queue: JobQueue, state: ServerState,
                 workers: int = 2, poll_s: float = 0.02,
                 breaker=None) -> None:
        self.queue = queue
        self.state = state
        self.workers = max(1, int(workers))
        self.poll_s = poll_s
        self.breaker = breaker
        self._executor: Optional[ThreadPoolExecutor] = None
        self._tasks: list = []
        self._stopping = False

    async def start(self) -> None:
        import asyncio

        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")
        self._tasks = [asyncio.create_task(self._worker_loop(i))
                       for i in range(self.workers)]

    async def _worker_loop(self, index: int) -> None:
        import asyncio

        loop = asyncio.get_running_loop()
        while not self._stopping:
            job = self.queue.claim()
            if job is None:
                await asyncio.sleep(self.poll_s)
                continue
            result, failure, cache_hit = await loop.run_in_executor(
                self._executor, execute_job, job, self.state)
            if failure is not None and not self._stopping:
                retries, backoff_s = job_retry_policy(job.spec)
                if job.attempts <= retries:
                    delay = retry_delay(backoff_s, job.attempts)
                    self.queue.requeue(job, delay_s=delay,
                                       reason=failure.reason)
                    continue
            if failure is not None:
                failure.attempts = job.attempts
            if self.breaker is not None and job.dedup_key is not None:
                if failure is not None:
                    self.breaker.record_failure(job.dedup_key)
                else:
                    self.breaker.record_success(job.dedup_key)
            self.queue.resolve(job, result=result, failure=failure,
                               cache_hit=cache_hit)
            journal = self.queue.journal
            if journal is not None and journal.should_compact():
                journal.compact(self.queue)

    async def stop(self) -> None:
        import asyncio

        self._stopping = True
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
