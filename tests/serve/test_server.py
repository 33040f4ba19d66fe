"""End-to-end job-server tests over a real socket.

Each test starts a `JobServer` on a background thread bound to an
ephemeral port and drives it through `ServeClient` — the same path
``repro submit`` and the CI smoke use.
"""

import time

import pytest

import repro
from repro.exec.context import SimContext
from repro.exec.parallel import ParallelSweep
from repro.serve import ServeClient, ServeError, start_server_thread
from repro.serve.jobs import JobState
from repro.serve.workers import job_dedup_key, run_spec_kwargs
from repro.workloads import get_workload

RUN_SPEC = {"workload": "gemm_dse", "ports": 4, "unroll": 2, "seed": 7}


@pytest.fixture
def server():
    with start_server_thread(workers=2) as handle:
        yield handle


@pytest.fixture
def client(server):
    return ServeClient(port=server.port)


def test_health_and_version(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert client.version() == repro.__version__


def test_run_job_byte_identical_to_direct_simcontext(client):
    job = client.submit("run", dict(RUN_SPEC))
    job = client.wait(job["id"])
    assert job["state"] == JobState.DONE
    assert not job["cache_hit"]
    direct = SimContext(get_workload("gemm_dse"), seed=7,
                        **run_spec_kwargs(RUN_SPEC)).run()
    assert job["result"] == direct.to_dict()


def test_second_identical_submission_is_a_cache_hit(client):
    first = client.wait(client.submit("run", dict(RUN_SPEC))["id"])
    second = client.submit("run", dict(RUN_SPEC))
    # The POST response itself is already terminal: no queueing, no
    # compile, the cached result attached at submit time.
    assert second["state"] == JobState.DONE
    assert second["cache_hit"]
    assert second["result"] == first["result"]
    stats = client.stats()
    assert stats["run_cache"]["hits"] >= 1
    assert stats["queue"]["executed"] == 1


def test_concurrent_duplicates_execute_exactly_once(client):
    client.pause()  # deterministic: both submissions land while queued
    a = client.submit("run", dict(RUN_SPEC))
    b = client.submit("run", dict(RUN_SPEC))
    assert b["deduped_of"] == a["id"]
    client.resume()
    done_a = client.wait(a["id"])
    done_b = client.wait(b["id"])
    assert done_a["state"] == done_b["state"] == JobState.DONE
    assert done_a["result"] == done_b["result"]
    stats = client.stats()["queue"]
    assert stats["executed"] == 1
    assert stats["dedup_hits"] == 1


def test_cancelled_queued_job_never_runs(client):
    client.pause()
    job = client.submit("run", dict(RUN_SPEC, ports=16))
    assert job["state"] == JobState.QUEUED
    cancelled = client.cancel(job["id"])
    assert cancelled["state"] == JobState.CANCELLED
    client.resume()
    time.sleep(0.2)  # give a worker the chance to (wrongly) pick it up
    assert client.job(job["id"])["state"] == JobState.CANCELLED
    assert client.stats()["queue"]["executed"] == 0


def test_cancel_done_job_is_a_conflict(client):
    job = client.wait(client.submit("run", dict(RUN_SPEC))["id"])
    with pytest.raises(ServeError) as excinfo:
        client.cancel(job["id"])
    assert excinfo.value.status == 409


def test_crashing_job_reports_failure_and_server_survives(client):
    job = client.wait(client.submit("run", {"workload": "no_such_kernel"})["id"])
    assert job["state"] == JobState.FAILED
    assert job["failure"]["error_type"] == "KeyError"
    assert job["failure"]["traceback_tail"]
    assert job["failure"]["reason"] == "crash"
    # The worker survived: the server still answers and still executes.
    assert client.healthz()["status"] == "ok"
    ok = client.wait(client.submit("run", dict(RUN_SPEC))["id"])
    assert ok["state"] == JobState.DONE


def test_sweep_job_matches_direct_parallel_sweep(client):
    spec = {"workload": "gemm_dse", "ports": [1, 2], "unroll": 1, "seed": 7}
    job = client.wait(client.submit("sweep", spec)["id"], timeout=300.0)
    assert job["state"] == JobState.DONE
    rows = job["result"]["rows"]
    direct = ParallelSweep().run(
        get_workload("gemm_dse"), {"ports": [1, 2]},
        lambda params: run_spec_kwargs(dict(spec, ports=params["ports"])),
        seed=7, unroll_factor=1)
    assert [dict(r, pareto=None) for r in rows] \
        == [dict(p.record(), pareto=None) for p in direct]


def test_sweep_events_stream_per_point_progress(client):
    spec = {"workload": "gemm_dse", "ports": [1, 2], "unroll": 1}
    job = client.submit("sweep", spec)
    events = list(client.events(job["id"]))
    names = [event["event"] for event in events]
    assert names[0] == "queued"
    assert names[-1] == "done"
    points = [event for event in events if event["event"] == "point"]
    assert [(p["done"], p["total"]) for p in points] == [(1, 2), (2, 2)]
    assert all(p["ok"] for p in points)


def test_compile_job_returns_ir_and_artifact_key(client):
    job = client.wait(client.submit("compile", {"workload": "gemm_dse"})["id"])
    assert job["state"] == JobState.DONE
    assert "define void @gemm_dse" in job["result"]["ir"]
    assert len(job["result"]["artifact_key"]) == 64
    # Same kernel again: the shared artifact store serves it.
    again = client.wait(client.submit("compile", {"workload": "gemm_dse",
                                                  "force": 2})["id"])
    assert again["result"]["store_hit"]
    assert again["result"]["artifact_key"] == job["result"]["artifact_key"]


def test_analyze_job_returns_diagnostics(client):
    job = client.wait(client.submit("analyze", {"workload": "gemm_dse"})["id"])
    assert job["state"] == JobState.DONE
    assert job["result"]["subject"] == "gemm_dse"
    assert "diagnostics" in job["result"]
    assert "counts" in job["result"]


def test_analyze_job_scenario_path(client):
    # Generated scenarios lint statically through the same job kind.
    job = client.wait(client.submit("analyze", {"scenario": "gen:1:racy"})["id"])
    assert job["state"] == JobState.DONE
    assert any(d["code"] == "SYS304" for d in job["result"]["diagnostics"])
    clean = client.wait(client.submit("analyze", {"scenario": "gen:1"})["id"])
    assert clean["state"] == JobState.DONE
    assert clean["result"]["counts"]["error"] == 0
    # An unknown scenario is a job failure, not a dead worker.
    bad = client.wait(client.submit("analyze", {"scenario": "nope"})["id"])
    assert bad["state"] == JobState.FAILED
    assert "unknown scenario" in bad["failure"]["message"]


def test_stats_shape(client):
    stats = client.stats()
    assert stats["workers"] == 2
    for section in ("queue", "run_cache", "artifact_store",
                    "stage_counters"):
        assert section in stats
    assert set(stats["queue"]["by_state"]) == set(JobState.ALL)


def test_bad_requests_are_client_errors(client):
    with pytest.raises(ServeError) as excinfo:
        client.submit("teleport", {})
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.job("j999999")
    assert excinfo.value.status == 404


def test_stale_engine_key_is_ignored_and_dedups(client):
    # "engine" is not a spec key: like any unknown key it is ignored,
    # so the spec shares a job (and a result) with the same spec
    # without it.
    client.pause()
    plain = client.submit("run", dict(RUN_SPEC))
    stale = client.submit("run", dict(RUN_SPEC, engine="dynamic"))
    assert stale["deduped_of"] == plain["id"]
    client.resume()
    done = client.wait(stale["id"])
    assert done["state"] == JobState.DONE
    assert done["result"] == client.wait(plain["id"])["result"]


def test_dedup_key_equals_run_cache_key_class():
    # Two specs that differ only in JSON key order / irrelevant type
    # representation must produce one dedup key.
    a = job_dedup_key("run", {"workload": "gemm_dse", "ports": 4, "unroll": 2})
    b = job_dedup_key("run", {"unroll": 2, "ports": 4, "workload": "gemm_dse"})
    assert a == b
    assert a.startswith("run:")
    # Different configurations must not collide.
    c = job_dedup_key("run", {"workload": "gemm_dse", "ports": 8, "unroll": 2})
    assert c != a


def test_sweep_job_resumes_from_state_dir_run_cache(tmp_path):
    # A state dir alone makes sweeps resumable: the run cache defaults
    # to <state_dir>/runs, and a restarted server answers every point
    # of a repeated sweep from it.
    state_dir = tmp_path / "state"
    spec = {"workload": "gemm_dse", "ports": [1, 2], "unroll": 1, "seed": 7}
    ports = spec["ports"]

    def sweep():
        with start_server_thread(workers=1, state_dir=state_dir) as handle:
            client = ServeClient(port=handle.port)
            job = client.wait(client.submit("sweep", dict(spec))["id"],
                              timeout=300.0)
        assert job["state"] == JobState.DONE
        return job["result"]

    def result_columns(rows):
        return [{k: v for k, v in row.items()
                 if k != "engine_used"}
                for row in rows]

    first = sweep()
    assert first["resumed"] == 0
    assert len(list((state_dir / "runs").glob("*.json"))) == len(ports)
    again = sweep()
    assert again["resumed"] == len(ports)
    assert result_columns(again["rows"]) == result_columns(first["rows"])
    assert not (state_dir / "sweeps").exists()
