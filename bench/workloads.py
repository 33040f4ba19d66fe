"""The four benchmark workloads.  `run.py` starts this file as a child
process, one workload per process, so that a hang can be killed from
outside.

    python bench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t-spawn T --out-dir DIR [--quick] [--setup-only]

Every workload is a closed loop driven from this process: the next
operation starts when the previous one has finished.  Operation ``i`` of
round ``r`` uses the input seed ``seed + r``.  The timed phase runs whole
rounds until ``--seconds`` have passed, so each run measures the same
mix of operations.  Between rounds of an untraced phase the host's speed
is measured with a fixed loop (`reference_s`), and every timing is
reported both as measured and normalized to a host of nominal speed.

Stdout carries one JSON object per line: ``{"progress": ...}`` after
every operation (the parent's count of finished work if it has to kill
this process), then ``{"setup_ready_s": ..., "setup_wall_s": ...}`` (set-up
time normalized and as measured) in ``--setup-only`` mode or
``{"report": ...}`` at the end of a run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import LAYERS, Tracer, attribute, in_window, unresolved_parents  # noqa: E402
from tracing import write_chrome_trace  # noqa: E402

#: Table IV kernels at unroll 4 in a 64 KiB scratchpad, as in BENCH_6/9.
KERNEL_ACC = dict(memory="spm", spm_bytes=1 << 16, unroll_factor=4)

#: Fig. 13 GEMM sweep: 27 points, a third of them on the cache/DRAM model.
DSE_GRID = {"memory": ["ideal", "spm", "cache"], "fus": [2, 8, 32],
            "ports": [1, 4, 16]}
DSE_WORKERS = 2

#: serve_mixed job mix, taken from the repository's own uses of
#: ``repro serve``: the README quickstart and the CI serve smoke submit
#: this spec twice (a simulation, then a cache hit), and
#: ``repro.serve.bench`` (BENCH_7.json) submits it 20 times duplicated and
#: 20 times with distinct seeds.  Hence one kernel and one resubmission
#: per new spec.  No recorded serve trace exists, so this is the
#: repository's mix, not observed traffic.
SERVE_SPEC = {"workload": "gemm_dse", "ports": 4, "unroll": 2}
#: New specs per block; a block holds as many resubmissions.
SERVE_NEW_PER_BLOCK = 6
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
#: Job events after which nothing more happens to the job.
SERVE_TERMINAL = ("done", "failed", "cancelled")


#: Host-speed reference: a fixed pure-Python loop of this many steps,
#: timed between rounds.  It is benchmark code, so no change to the
#: program moves it, while a busier or slower host slows it and the
#: simulator alike.  On a shared 2-vCPU VM whose load from other tenants
#: moved 20-second medians of the raw round rates by 37-42% (quartile
#: distance over median), normalizing each round cut that to 6-10%.
REF_STEPS = 100_000
#: The loop's time on that VM unloaded (10.7 ms at best, 12.5 ms median
#: under load).  A normalized time is a wall time x REF_NOMINAL_S / the
#: loop's time around it: seconds of a host at nominal speed.
REF_NOMINAL_S = 0.010


def _loop_s() -> float:
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(REF_STEPS):
        key = i & 255
        acc = (acc * 33 + table.get(key, i)) & 0xFFFFF
        table[key] = acc
    return time.perf_counter() - start


def reference_s(processes: int = 1) -> float:
    """Median of three timings of the reference loop, in seconds.  With
    ``processes`` > 1, the mean of that over as many forked processes
    running at once: a workload that simulates on two CPUs is slowed by
    load on either (the two-process reference tracked ``dse_sweep`` at
    a correlation of 0.87, one process at 0.76)."""
    if processes == 1:
        return statistics.median(_loop_s() for __ in range(3))
    children = []
    for __ in range(processes):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read)
                os.write(write, repr(reference_s()).encode())
            finally:
                os._exit(0)
        os.close(write)
        children.append((pid, read))
    times = []
    for pid, read in children:
        with os.fdopen(read) as fh:
            times.append(float(fh.read()))
        os.waitpid(pid, 0)
    return statistics.mean(times)


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail(values: list) -> tuple[float, float]:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples
    beyond it, and its value (``(0, 0)`` below 20 samples)."""
    for q in (99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, nearest_rank(values, q)
    return 0.0, 0.0


def mem_counts(stats: dict) -> dict:
    """Simulated memory-system counts in one run's flat stats dict.  A
    cache is any object that reports a ``miss_rate``."""
    counts = {"spm": 0, "dram": 0, "hits": 0, "misses": 0, "dma_bytes": 0}
    for key, value in stats.items():
        if re.search(r"spm\.(reads|writes)$", key):
            counts["spm"] += value
        elif re.search(r"\.dram\.(reads|writes)$", key):
            counts["dram"] += value
        elif key.endswith(".dma.bytes"):
            counts["dma_bytes"] += value
        elif key.endswith(".miss_rate"):
            prefix = key[: -len(".miss_rate")]
            counts["hits"] += stats.get(prefix + ".hits", 0)
            counts["misses"] += stats.get(prefix + ".misses", 0)
    return counts


@dataclass
class Op:
    """One operation of a timed phase and how it went."""

    key: str
    round: int
    #: perf_counter() when the op was started and when its result was in.
    start: float
    end: float
    ok: bool = True
    error: str = ""
    digest: str = ""
    cycles: int = 0
    #: False when the result came without simulating (a cache hit).
    simulated: bool = True
    extra: dict = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class Phase:
    ops: list
    start: float
    end: float
    #: ``(pid, thread id)`` of every thread that issued ops.
    drivers: set
    #: `reference_s` before the first round and after every round; empty
    #: when the phase was not calibrated (traced).
    refs: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def per_round(self) -> list[tuple[int, int, float, float]]:
        """``(ops, simulated cycles, seconds, speed)`` of every round, a
        round lasting from its first op's start to its last op's end.
        ``speed`` is REF_NOMINAL_S over the mean reference time before
        and after the round (1.0 without calibration)."""
        rounds: dict = {}
        for op in self.ops:
            rounds.setdefault(op.round, []).append(op)
        return [(len(ops),
                 sum(op.cycles for op in ops if op.ok and op.simulated),
                 max(op.end for op in ops) - min(op.start for op in ops),
                 (2.0 * REF_NOMINAL_S / (self.refs[rnd] + self.refs[rnd + 1])
                  if self.refs else 1.0))
                for rnd, ops in sorted(rounds.items())]

    def _median_rate(self, normalized: bool, cycles: bool) -> float:
        """Median over rounds: a burst of load from outside the benchmark
        slows one round, not the reported rate.  Normalizing each round
        by the host's speed around it removes slower drifts as well."""
        return median([(cyc if cycles else n) / (wall * (speed if normalized else 1.0))
                       for n, cyc, wall, speed in self.per_round()])

    @property
    def rate(self) -> float:
        """Ops per normalized second."""
        return self._median_rate(True, False)

    @property
    def cycle_rate(self) -> float:
        """Simulated cycles per normalized second."""
        return self._median_rate(True, True)

    @property
    def wall_rate(self) -> float:
        """Ops per wall second, as measured."""
        return self._median_rate(False, False)

    @property
    def wall_cycle_rate(self) -> float:
        return self._median_rate(False, True)


class Sink:
    """Collects ops, checks them against the golden digests, and reports
    progress on stdout."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.golden_checked = 0
        self.golden_mismatched = 0
        self.errors: list[str] = []

    def __call__(self, op: Op) -> Op:
        expected = self.golden.get(op.key)
        with self.lock:
            if op.ok and expected is not None:
                self.golden_checked += 1
                if op.digest != expected:
                    self.golden_mismatched += 1
                    op.ok, op.error = False, "digest differs from golden.json"
            self.attempted += 1
            if not op.ok:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{op.key}: {op.error}")
            emit({"progress": {"attempted": self.attempted,
                               "failed": self.failed}})
        return op


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def failure(key: str, rnd: int, start: float, exc: BaseException) -> Op:
    return Op(key, rnd, start, time.perf_counter(), ok=False,
              error=f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One benchmark workload: set-up, rounds of operations, teardown."""

    name = ""
    #: Processes the workload simulates on at once (see `reference_s`).
    processes = 1

    def __init__(self, tracer: Tracer, workdir: Path) -> None:
        self.tracer = tracer
        self.workdir = workdir
        #: Simulated memory counts of round 0 (deterministic per seed).
        self.round0_mem: dict = {}
        #: Digests of round 0, keyed like golden.json.
        self.round0: dict = {}

    def setup(self, seed: int) -> None:
        """Everything between the imports and the first timed op."""

    def run_round(self, rnd: int, seed: int, sink: Sink) -> list[Op]:
        raise NotImplementedError

    def phase(self, seed: int, seconds: float, quick: bool, sink: Sink,
              calibrate: bool) -> Phase:
        ops: list[Op] = []
        refs = [reference_s(self.processes)] if calibrate else []
        start = time.perf_counter()
        deadline = start + seconds
        rnd = 0
        while True:
            ops.extend(self.run_round(rnd, seed + rnd, sink))
            if calibrate:
                refs.append(reference_s(self.processes))
            rnd += 1
            if quick or time.perf_counter() >= deadline:
                break
        driver = {(os.getpid(), threading.get_ident())}
        return Phase(ops, start, time.perf_counter(), driver, refs)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extras(self, phase: Phase, seed: int) -> dict:
        return {}

    def close(self) -> None:
        """Stop whatever `setup` started."""

    def _keep_round0(self, op: Op, stats: dict) -> None:
        """Record a finished round-0 op: its digest and memory counts."""
        if not op.ok:
            return
        self.round0[op.key] = op.digest
        for key, value in mem_counts(stats).items():
            self.round0_mem[key] = self.round0_mem.get(key, 0) + value

    def mem_metrics(self) -> dict:
        counts = dict.fromkeys(("spm", "dram", "hits", "misses", "dma_bytes"), 0)
        counts.update(self.round0_mem)
        lookups = counts["hits"] + counts["misses"]
        return {
            "mem.spm_accesses": counts["spm"],
            "mem.dram_accesses": counts["dram"],
            "mem.cache_hit_ratio": counts["hits"] / lookups if lookups else 0.0,
            "mem.dma_bytes": counts["dma_bytes"],
        }


class KernelsGraph(Workload):
    """The nine Table IV kernels on the graph engine, one fresh
    `SimContext.run` each, sharing one warmed `ArtifactStore`."""

    name = "kernels_graph"

    def setup(self, seed: int) -> None:
        from repro.build.artifact import ElaboratedDesign
        from repro.build.pipeline import BuildPipeline
        from repro.build.store import ArtifactStore
        from repro.exec.context import SimContext
        from repro.workloads import get_workload
        from repro.workloads.registry import SPEED_SET

        # Cold compile and graph lowering into a fresh store: what the
        # first run of each kernel pays before the steady state.
        self.store = ArtifactStore()
        self.contexts: dict = {}
        for name in SPEED_SET:
            ctx = SimContext(get_workload(name), seed=seed, engine="graph",
                             artifact_store=self.store, **KERNEL_ACC)
            acc = ctx.build()
            BuildPipeline(store=self.store).graph(ElaboratedDesign(acc.unit.iface))

    def run_round(self, rnd: int, seed: int, sink: Sink) -> list[Op]:
        from repro.exec.context import SimContext
        from repro.workloads import get_workload
        from repro.workloads.registry import SPEED_SET

        ops = []
        for name in SPEED_SET:
            key = f"{name}@{seed}"
            start = time.perf_counter()
            try:
                with self.tracer.op(f"{rnd}:{name}"):
                    ctx = SimContext(get_workload(name), seed=seed,
                                     engine="graph", artifact_store=self.store,
                                     **KERNEL_ACC)
                    result = ctx.run()
            except Exception as exc:  # noqa: BLE001 - an op failure, counted
                ops.append(sink(failure(key, rnd, start, exc)))
                continue
            end = time.perf_counter()
            with self.tracer.suspended():
                op = Op(key, rnd, start, end, digest=digest(result.to_dict()),
                        cycles=result.cycles,
                        extra={"engine_used": ctx.engine_used})
            ops.append(sink(op))
            if rnd == 0:
                self.contexts[name] = ctx
                self._keep_round0(op, result.stats)
        return ops

    def extras(self, phase: Phase, seed: int) -> dict:
        fallbacks = sum(1 for op in phase.ops
                        if op.ok and op.extra.get("engine_used") != "graph")
        return {"fallbacks": fallbacks,
                "model_err_pct": self.model_error_pct(seed)}

    def model_error_pct(self, seed: int) -> float:
        """Mean |simulated − HLS-estimated cycles| / estimate, in percent,
        over the round-0 runs.  Simulated time against the in-repo HLS
        schedule estimate: a consistency figure, not silicon accuracy."""
        import numpy as np

        from repro.hls import hls_cycle_estimate
        from repro.ir.memory import MemoryImage

        errors = []
        for ctx in self.contexts.values():
            acc, workload = ctx.accelerator, ctx.workload
            memory = MemoryImage(KERNEL_ACC["spm_bytes"], base=acc.SPM_BASE)
            data = workload.make_data(np.random.default_rng(seed))
            args = [memory.alloc_array(np.ascontiguousarray(data.inputs[name]))
                    if name in data.inputs else data.scalars[name]
                    for name in workload.arg_order]
            estimate = hls_cycle_estimate(acc.module, workload.func_name, args,
                                          memory, acc.profile,
                                          acc.config).total_cycles
            errors.append(abs(ctx.last_result.cycles - estimate) / estimate)
        return 100.0 * sum(errors) / len(errors) if errors else 0.0


class SocFullsystem(Workload):
    """The three Fig. 16 CNN scenarios on the event queue: host driver,
    DMA, interrupts, stream buffers, DRAM and three accelerators."""

    name = "soc_fullsystem"

    def setup(self, seed: int) -> None:
        from repro.system.cnn_scenarios import SCENARIOS

        # Warm-up round: compiles the CNN kernels into the scenarios'
        # shared store.
        for name in SCENARIOS:
            SCENARIOS[name](seed=seed)

    def run_round(self, rnd: int, seed: int, sink: Sink) -> list[Op]:
        from repro.system.cnn_scenarios import SCENARIOS

        ops = []
        for name in list(SCENARIOS):
            key = f"{name}@{seed}"
            start = time.perf_counter()
            try:
                with self.tracer.op(f"{rnd}:{name}"):
                    result = SCENARIOS[name](seed=seed)
            except Exception as exc:  # noqa: BLE001 - an op failure, counted
                ops.append(sink(failure(key, rnd, start, exc)))
                continue
            canonical = {"total_ns": result.total_ns,
                         "acc_cycles": result.acc_cycles}
            op = Op(key, rnd, start, time.perf_counter(), ok=result.verified,
                    error="" if result.verified else "output differs from golden model",
                    digest=digest(canonical),
                    cycles=sum(result.acc_cycles.values()))
            ops.append(sink(op))
            if rnd == 0:
                with self.tracer.suspended():
                    self._keep_round0(op, result.soc.system.dump_stats())
        return ops


def dse_configure(params: dict) -> dict:
    """Fig. 13 design point -> `StandaloneAccelerator` kwargs (unroll 8)."""
    from repro.core.config import DeviceConfig

    ports = params["ports"]
    kwargs = dict(
        config=DeviceConfig(read_ports=ports, write_ports=max(1, ports // 2),
                            fu_limits={"fp_add": params["fus"],
                                       "fp_mul": params["fus"]}),
        unroll_factor=8, memory=params["memory"],
    )
    if params["memory"] == "cache":
        kwargs["cache_kwargs"] = dict(size=4096, line_size=64, assoc=4)
    else:
        kwargs.update(spm_bytes=1 << 15, spm_read_ports=ports,
                      spm_write_ports=max(1, ports // 2))
    return kwargs


class DseSweep(Workload):
    """The Fig. 13 GEMM sweep through `ParallelSweep(workers=2)` with
    every other setting at its default."""

    name = "dse_sweep"
    processes = DSE_WORKERS

    def setup(self, seed: int) -> None:
        import repro.exec.parallel  # noqa: F401 - the import is the set-up

    def run_round(self, rnd: int, seed: int, sink: Sink) -> list[Op]:
        from repro.exec.parallel import ParallelSweep
        from repro.workloads import get_workload

        start = time.perf_counter()
        try:
            with self.tracer.op(f"{rnd}:sweep"):
                points = ParallelSweep(workers=DSE_WORKERS).run(
                    get_workload("gemm_dse"), DSE_GRID, dse_configure,
                    seed=seed)
        except Exception as exc:  # noqa: BLE001 - every point failed
            return [sink(failure(f"sweep@{seed}", rnd, start, exc))]
        # A point's result is the user's once the whole sweep returns.
        end = time.perf_counter()
        ops = []
        for point in points:
            params = point.params
            key = f"{params['memory']}/f{params['fus']}/p{params['ports']}@{seed}"
            if not point.ok:
                error = point.failure.summary() if point.failure else "no result"
                ops.append(sink(Op(key, rnd, start, end, ok=False, error=error)))
                continue
            with self.tracer.suspended():
                op = Op(key, rnd, start, end,
                        digest=digest(point.result.to_dict()),
                        cycles=point.cycles)
            ops.append(sink(op))
            if rnd == 0:
                self._keep_round0(op, point.result.stats)
        return ops


class ServerProcess:
    """A ``repro serve`` subprocess with a durable journal and an on-disk
    run cache, started through ``serve_launcher.py``."""

    def __init__(self, workdir: Path, trace_dir: Optional[Path] = None) -> None:
        from repro.serve.client import ServeClient

        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH / "serve_launcher.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["serve", "--host", "127.0.0.1", "--port", "0",
                "--workers", str(SERVE_WORKERS),
                "--state-dir", str(workdir / "state"),
                "--cache-dir", str(workdir / "cache")]
        self.log = open(workdir / "server.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match is None:
            self.close()
            raise RuntimeError(f"server did not announce a port: {line!r} "
                               f"(log in {workdir / 'server.log'})")
        self.client = ServeClient(port=int(match.group(1)), timeout=60.0)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                if self.client.healthz().get("status") == "ok":
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.close()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client.shutdown("now")
            except (OSError, AttributeError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def serve_jobs(seed: int):
    """The seeded job list: ``(block, kind, spec)`` forever.

    Each block holds `SERVE_NEW_PER_BLOCK` new specs, `SERVE_SPEC` with
    the next unused input seeds counting up from ``seed``, and as many
    resubmissions of specs issued earlier, in an order drawn from the
    seed.  A resubmission finds its spec in the run cache, or coalesces
    onto it if it is still running.
    """
    rng = random.Random(seed)
    issued: list[dict] = []
    block = 0
    while True:
        first = seed + block * SERVE_NEW_PER_BLOCK
        fresh = iter([dict(SERVE_SPEC, seed=first + i)
                      for i in range(SERVE_NEW_PER_BLOCK)])
        kinds = ["new", "read"] * SERVE_NEW_PER_BLOCK
        rng.shuffle(kinds)
        if not issued:
            kinds.remove("new")
            kinds.insert(0, "new")
        for kind in kinds:
            if kind == "new":
                spec = next(fresh)
                issued.append(spec)
            else:
                spec = rng.choice(issued)
            yield block, kind, spec
        block += 1


def spec_key(spec: dict) -> str:
    return (f"{spec['workload']}/u{spec['unroll']}/p{spec['ports']}"
            f"@{spec['seed']}")


class ServeMixed(Workload):
    """`repro serve` with a journal and on-disk run cache, driven by two
    closed-loop client threads over HTTP; completion arrives by SSE."""

    name = "serve_mixed"

    def __init__(self, tracer: Tracer, workdir: Path) -> None:
        super().__init__(tracer, workdir)
        self.server: Optional[ServerProcess] = None
        #: First result digest seen per spec: a resubmission must match.
        self.results: dict = {}
        self.lock = threading.Lock()

    def setup(self, seed: int) -> None:
        # A fresh server starts with empty caches; with the tracer
        # installed it traces itself into the tracer's flush directory.
        self.results.clear()
        trace_dir = self.tracer.flush_dir if self.tracer.installed else None
        self.server = ServerProcess(self.workdir / "server", trace_dir)

    def phase(self, seed: int, seconds: float, quick: bool, sink: Sink,
              calibrate: bool) -> Phase:
        """Two client threads share each block's jobs.  The next block
        starts when both are done with this one, so the host's speed can
        be measured between blocks while the server is idle."""
        jobs = enumerate(serve_jobs(seed))
        lock = threading.Lock()
        ops: list[Op] = []
        drivers: set = set()
        queue: list = []
        refs = [reference_s(self.processes)] if calibrate else []
        stop = threading.Event()
        client = self.server.client
        start = time.perf_counter()
        deadline = start + seconds

        def load_block() -> None:
            block = [next(jobs) for __ in range(2 * SERVE_NEW_PER_BLOCK)]
            queue.extend(reversed(block))

        def between_blocks() -> None:
            # Barrier action: runs in one client while the other waits.
            if calibrate:
                refs.append(reference_s(self.processes))
            if quick or time.perf_counter() >= deadline:
                stop.set()
            else:
                load_block()

        def take():
            with lock:
                return queue.pop() if queue else None

        barrier = threading.Barrier(SERVE_CLIENTS, action=between_blocks)

        def drive() -> None:
            drivers.add((os.getpid(), threading.get_ident()))
            while not stop.is_set():
                while (taken := take()) is not None:
                    index, (block, kind, spec) = taken
                    begun = time.perf_counter()
                    try:
                        op = self._job(client, index, block, kind, spec)
                    except Exception as exc:  # noqa: BLE001 - the client keeps going
                        op = failure(spec_key(spec), block, begun, exc)
                    with lock:
                        ops.append(sink(op))
                barrier.wait()

        load_block()
        threads = [threading.Thread(target=drive, name=f"client-{i}")
                   for i in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return Phase(ops, start, time.perf_counter(), drivers, refs)

    def _job(self, client, index: int, block: int, kind: str,
             spec: dict) -> Op:
        """Submit one run job and wait for it on its SSE stream."""
        from repro.serve.client import ServeError
        from repro.serve.jobs import JobState

        key = spec_key(spec)
        submitted = time.time()
        start = time.perf_counter()
        try:
            with self.tracer.span("serve.client", op=index):
                job = client.submit("run", spec)
                acked = time.time()
                if job["state"] in JobState.ACTIVE:
                    for event in client.events(job["id"]):
                        if event.get("event") in SERVE_TERMINAL:
                            break
                seen = time.time()
                end = time.perf_counter()
            job = client.job(job["id"])
        except (ServeError, OSError) as exc:
            return failure(key, block, start, exc)
        op = Op(key, block, start, end,
                extra={"kind": kind, "cache_hit": bool(job.get("cache_hit")),
                       "deduped": job.get("deduped_of") is not None})
        if job["state"] != "done":
            failure_info = job.get("failure") or {}
            op.ok = False
            op.error = (f"job {job['state']}: {failure_info.get('error_type')}"
                        f": {failure_info.get('message')}")
            return op
        result = job["result"]
        op.digest = digest(result)
        op.cycles = result["cycles"]
        op.simulated = kind == "new"
        with self.lock:
            first = self.results.setdefault(key, op.digest)
        if first != op.digest:
            op.ok, op.error = False, "resubmitted spec returned another result"
        started = job.get("started_s") or acked
        finished = job.get("finished_s") or seen
        op.extra.update(
            submit_s=max(0.0, acked - submitted),
            queue_s=max(0.0, started - job["submitted_s"]),
            execute_s=max(0.0, finished - started),
            notify_s=max(0.0, seen - max(finished, acked)),
        )
        if block == 0 and kind == "new":
            with self.lock:
                self._keep_round0(op, result["stats"])
        return op

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def extras(self, phase: Phase, seed: int) -> dict:
        def latencies(kind):
            return [op.latency_s if op.ok else math.inf for op in phase.ops
                    if op.extra.get("kind", kind) == kind]

        return {"job_hit_p50_s": median(latencies("read")),
                "job_miss_p50_s": median(latencies("new"))}

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


WORKLOADS = {cls.name: cls for cls in
             (KernelsGraph, SocFullsystem, DseSweep, ServeMixed)}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(bench: Workload, phase: Phase) -> dict:
    return {
        "ops_per_s": phase.rate,
        "sim_cycles_per_s": phase.cycle_rate,
        "peak_rss_mb": bench.peak_rss_mb(),
    }


def summary(phase: Phase) -> dict:
    """Ungated figures, as measured: rates per wall second, the host's
    median speed against nominal, and the op latency median and tail (a
    failed op counts as never done)."""
    latencies = [op.latency_s if op.ok else math.inf for op in phase.ops]
    q, value = tail(latencies)
    rounds = phase.per_round()
    return {"wall_ops_per_s": phase.wall_rate,
            "wall_sim_cycles_per_s": phase.wall_cycle_rate,
            "host_speed": median([speed for *__, speed in rounds]),
            "op_samples": len(latencies), "op_p50_s": median(latencies),
            "op_tail_q": q, "op_tail_s": value,
            "rounds": len(rounds), "wall_s": phase.wall_s}


def per_layer(spans: list[dict], phase: Phase, setup_window: tuple,
              untraced_rate: float, bench: Workload) -> tuple[dict, dict]:
    """Per-layer metrics of a traced phase, plus the driver accounting."""
    t0, t1 = phase.start, phase.end
    accounting = attribute(spans, t0, t1, phase.drivers)
    wall = accounting["wall_s"]
    metrics = {f"{layer}_pct": 100.0 * accounting["layers_s"].get(layer, 0.0) / wall
               for layer in LAYERS}
    metrics["trace.residual_pct"] = (100.0 * accounting["residual_s"]
                                     / accounting["driver_wall_s"])
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate / phase.wall_rate - 1.0)

    s0, s1 = setup_window
    setup = attribute(spans, s0, s1, set())["layers_s"]
    setup_wall = s1 - s0
    compile_s = sum(setup.get(layer, 0.0) for layer in
                    ("build.parse", "build.lower", "build.optimize"))
    metrics["setup.build_pct"] = (100.0 * compile_s / setup_wall
                                  if setup_wall > 0 else 0.0)
    metrics["setup.graph_pct"] = (100.0 * setup.get("build.graph", 0.0) / setup_wall
                                  if setup_wall > 0 else 0.0)

    window = in_window(spans, t0, t1)

    def named(name):
        return [span for span in window if span["name"] == name]

    def ratio(name):
        gets = named(name)
        return sum(1 for s in gets if s.get("hit")) / len(gets) if gets else 0.0

    def busy(name):
        return sum(span["end"] - span["start"] for span in named(name))

    runs = named("exec.run")
    metrics["build.store_hit_ratio"] = ratio("build.store_get")
    metrics["exec.cache_hit_ratio"] = ratio("exec.cache_get")
    metrics["engine.fallbacks"] = sum(
        1 for s in runs if s.get("engine_used") not in (None, s.get("engine")))
    graph_s = busy("engine.graph_run")
    metrics["engine.cycles_per_s"] = (
        sum(s.get("graph_cycles", 0) for s in runs) / graph_s if graph_s else 0.0)
    events = sum(s.get("events", 0) for s in named("sim.eventq_run"))
    eventq_s = busy("sim.eventq_run")
    metrics["sim.events_per_op"] = events / len(phase.ops) if phase.ops else 0.0
    metrics["sim.events_per_s"] = events / eventq_s if eventq_s else 0.0
    metrics.update(bench.mem_metrics())

    jobs = [op for op in phase.ops if "kind" in op.extra]
    done = [op for op in jobs if "submit_s" in op.extra]
    total = sum(op.extra[k] for op in done
                for k in ("submit_s", "queue_s", "execute_s", "notify_s"))
    for part, key in (("submit", "submit_s"), ("queue", "queue_s"),
                      ("execute", "execute_s"), ("notify", "notify_s")):
        metrics[f"serve.job_{part}_pct"] = (
            100.0 * sum(op.extra[key] for op in done) / total if total else 0.0)
    metrics["serve.dedup_ratio"] = (
        sum(1 for op in jobs if op.extra["deduped"]) / len(jobs) if jobs else 0.0)
    metrics["serve.cache_hit_ratio"] = (
        sum(1 for op in jobs if op.extra["cache_hit"]) / len(jobs) if jobs else 0.0)
    return metrics, accounting


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="perf_counter() of the parent just before it "
                             "started this process (one clock host-wide)")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--golden", default=str(BENCH / "golden.json"),
                        help="digests to check against; '' checks none")
    return parser.parse_args(argv)


def load_golden(path: str, workload: str) -> dict:
    if not path:
        return {}
    return json.loads(Path(path).read_text()).get(workload, {})


def main(argv=None) -> int:
    args = parse_args(argv)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {ROOT / 'src'}")
    workdir = args.out_dir / "work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer(flush_dir=workdir / "spans")
    bench = WORKLOADS[args.workload](tracer, workdir)
    sink = Sink({} if args.setup_only else
                load_golden(args.golden, args.workload))
    try:
        bench.setup(args.seed)
        setup_wall = time.perf_counter() - args.t_spawn
        setup = {"setup_ready_s": (setup_wall * REF_NOMINAL_S
                                   / reference_s(bench.processes)),
                 "setup_wall_s": setup_wall}
        if args.setup_only:
            emit(setup)
            return 0
        report = {"workload": args.workload, "seed": args.seed, **setup}
        if args.trace:
            report.update(traced_run(args, bench, tracer, sink))
        else:
            phase = bench.phase(args.seed, args.seconds, args.quick, sink,
                                calibrate=True)
            report["metrics"] = end_to_end(bench, phase)
            report["extra"] = dict(summary(phase),
                                   **bench.extras(phase, args.seed))
            report["per_round"] = phase.per_round()
        report.update(
            attempted=sink.attempted, failed=sink.failed, errors=sink.errors,
            golden={"checked": sink.golden_checked,
                    "mismatched": sink.golden_mismatched},
            round0=bench.round0, digest=digest(sorted(bench.round0.items())))
    finally:
        bench.close()
        if workdir.exists():
            shutil.rmtree(workdir)
    emit({"report": report})
    return 0


def traced_run(args, bench: Workload, tracer: Tracer, sink: Sink) -> dict:
    """Half the time untraced, then the same ops traced after a fresh,
    traced set-up; the difference in wall-clock rate is the tracing
    overhead.  Neither phase is calibrated, so every second of the traced
    phase belongs to the workload."""
    half = args.seconds / 2.0
    plain = bench.phase(args.seed, half, args.quick, sink, calibrate=False)
    bench.close()
    bench.round0_mem.clear()
    tracer.install()
    setup_start = time.perf_counter()
    bench.setup(args.seed)
    setup_window = (setup_start, time.perf_counter())
    traced = bench.phase(args.seed, half, args.quick, sink, calibrate=False)
    bench.close()
    spans = tracer.spans()
    tracer.uninstall()
    metrics, accounting = per_layer(spans, traced, setup_window, plain.wall_rate,
                                    bench)
    trace_path = args.out_dir / f"{args.workload}.trace.json"
    write_chrome_trace(in_window(spans, setup_start, traced.end), trace_path,
                       setup_start)
    return {
        "metrics": metrics,
        "attribution": {
            # Relative to the trace file's time origin (the traced set-up).
            "window_s": [traced.start - setup_start, traced.end - setup_start],
            "drivers": sorted(traced.drivers),
            "wall_s": accounting["wall_s"],
            "driver_wall_s": accounting["driver_wall_s"],
            "driver_layers_s": accounting["driver_layers_s"],
            "residual_s": accounting["residual_s"],
            "unresolved_parents": len(unresolved_parents(spans)),
            "spans": len(spans),
        },
        "trace_file": str(trace_path),
    }


if __name__ == "__main__":
    sys.exit(main())
