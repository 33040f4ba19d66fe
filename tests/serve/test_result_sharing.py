"""One result payload per run key: every job of a key holds the run
cache's own payload, with the run-cache accounting unchanged.

The expected hit/miss counts are what the server counted when each job
built its own copy: a submit-time probe per submission that is not a
follower, plus one lookup per executed run job.
"""

import json

from repro.exec.cache import RunCache
from repro.exec.context import SimContext
from repro.serve import ServeClient, start_server_thread
from repro.serve.jobs import JobState
from repro.serve.workers import run_spec_kwargs
from repro.workloads import get_workload

RUN_SPEC = {"workload": "gemm_dse", "ports": 4, "unroll": 2, "seed": 7}


def sorted_json(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def test_hit_shares_the_miss_payload_and_counts_like_get():
    cache = RunCache()
    with start_server_thread(workers=1, run_cache=cache) as handle:
        client = ServeClient(port=handle.port)
        miss = client.wait(client.submit("run", dict(RUN_SPEC))["id"])
        hit = client.submit("run", dict(RUN_SPEC))
        assert not miss["cache_hit"] and hit["cache_hit"]
        assert hit["state"] == JobState.DONE
        assert sorted_json(hit["result"]) == sorted_json(miss["result"])
        assert "__cache_hit__" not in miss["result"]
        jobs = handle.server.queue.jobs
        assert jobs[hit["id"]].result is jobs[miss["id"]].result
        assert client.stats()["run_cache"]["hits"] == 1
        assert client.stats()["run_cache"]["misses"] == 2


def test_worker_time_hit_carries_the_flag_outside_the_result():
    other = dict(RUN_SPEC, seed=8)
    cache = RunCache()
    with start_server_thread(workers=1, run_cache=cache) as handle:
        client = ServeClient(port=handle.port)
        client.pause()
        queued = client.submit("run", other)  # submit-time probe: a miss
        ctx = SimContext(get_workload("gemm_dse"), seed=8,
                         **run_spec_kwargs(other))
        held = cache.put(ctx.cache_key(), ctx.run())
        client.resume()
        done = client.wait(queued["id"])
        assert done["cache_hit"]
        assert done["result"] == ctx.last_result.to_dict()
        assert handle.server.queue.jobs[queued["id"]].result is held
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1


def test_hit_from_disk_is_byte_identical_to_the_miss(tmp_path):
    def serve(spec):
        with start_server_thread(
                workers=1, run_cache=RunCache(tmp_path / "runs")) as handle:
            client = ServeClient(port=handle.port)
            job = client.submit("run", spec)
            return client.wait(job["id"]), client.stats()["run_cache"]

    miss, miss_counts = serve(dict(RUN_SPEC))
    hit, hit_counts = serve(dict(RUN_SPEC))
    assert hit["cache_hit"] and not miss["cache_hit"]
    assert sorted_json(hit["result"]) == sorted_json(miss["result"])
    assert (miss_counts["hits"], miss_counts["misses"]) == (0, 2)
    assert (hit_counts["hits"], hit_counts["misses"]) == (1, 0)
