"""Kill-and-resume: a SIGKILLed sweep resumes from its on-disk run cache.

A subprocess runs a 4-point sweep against ``RunCache(dir)`` and SIGKILLs
itself from ``on_point`` once ``k`` points are reported.  The contract
under test is "a point reported as done is already stored": re-running
the same sweep on the same directory must answer exactly those ``k``
points from the cache, and its rows must be byte-identical (provenance
columns aside) to a sweep that was never interrupted.  Every failure
point ``k`` is covered, on both the serial and the pool path.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import DeviceConfig
from repro.exec import ParallelSweep, RunCache
from repro.workloads import get_workload

ROOT = Path(__file__).resolve().parents[2]

GRID = {"ports": [1, 2, 4, 8]}

#: Provenance columns record what ran *this invocation* (a cache hit
#: runs nothing, so engine_used is "" by design).
PROVENANCE = ("engine_used",)

#: The victim: the same sweep as `_sweep`, killed after ``k`` points.
VICTIM = """
import os, signal, sys
from repro.exec import ParallelSweep, RunCache
from repro.workloads import get_workload
from tests.exec.test_kill_resume import GRID, configure

cache_dir, workers, kill_after = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])

def on_point(done, total, point):
    if done == kill_after:
        os.kill(os.getpid(), signal.SIGKILL)

ParallelSweep(workers=workers, cache=RunCache(cache_dir)).run(
    get_workload("gemm_dse"), GRID, configure, on_point=on_point)
sys.exit("sweep finished without being killed")
"""


def configure(params):
    return dict(
        config=DeviceConfig(read_ports=params["ports"],
                            write_ports=max(1, params["ports"] // 2)),
        memory="spm", spm_bytes=1 << 16, spm_read_ports=params["ports"],
    )


def _rows(points):
    return [json.dumps({k: v for k, v in p.record().items()
                        if k not in PROVENANCE}, sort_keys=True)
            for p in points]


def _kill_after(tmp_path, cache_dir, workers, k):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    log = tmp_path / "victim.log"
    # Own session, so pool workers orphaned by the SIGKILL can be reaped
    # with the whole process group.  Output goes to a file: the orphans
    # would hold a pipe open past the victim's death.
    with open(log, "w") as out:
        proc = subprocess.Popen(
            [sys.executable, "-c", VICTIM, str(cache_dir), str(workers),
             str(k)],
            cwd=ROOT, env=env, start_new_session=True,
            stdout=out, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=120)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    assert proc.returncode == -signal.SIGKILL, log.read_text()


@pytest.fixture(scope="module")
def uninterrupted():
    return _rows(ParallelSweep().run(get_workload("gemm_dse"), GRID,
                                     configure))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_killed_sweep_resumes_every_reported_point(tmp_path, uninterrupted,
                                                   workers, k):
    cache_dir = tmp_path / "runs"
    _kill_after(tmp_path, cache_dir, workers, k)

    cache = RunCache(cache_dir)
    executor = ParallelSweep(workers=workers, cache=cache)
    points = executor.run(get_workload("gemm_dse"), GRID, configure)
    assert cache.hits == k
    assert executor.cache_hits == k
    assert _rows(points) == uninterrupted
