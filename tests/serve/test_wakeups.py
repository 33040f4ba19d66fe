"""Nothing in the job server polls.

Idle workers, SSE streams, a drain and `ServeClient.wait` all sleep
until a job changes; these tests pin what wakes them and that every
stream ends (and leaves no waiter behind) on shutdown and on hangup.
"""

import http.client
import threading
import time

import pytest

from repro.serve import ServeClient, start_server_thread
from repro.serve.jobs import JobQueue, JobState

RUN_SPEC = {"workload": "gemm_dse", "ports": 4, "unroll": 2, "seed": 7}


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def test_idle_workers_claim_once_each(monkeypatch):
    calls = []
    claim = JobQueue.claim

    def counting_claim(self):
        calls.append(time.monotonic())
        return claim(self)

    monkeypatch.setattr(JobQueue, "claim", counting_claim)
    with start_server_thread(workers=2):
        time.sleep(0.5)
    assert len(calls) <= 2


def test_resume_wakes_the_pool():
    with start_server_thread(workers=1) as handle:
        client = ServeClient(port=handle.port)
        client.pause()
        job = client.submit("run", dict(RUN_SPEC))
        time.sleep(0.1)
        assert client.job(job["id"])["state"] == JobState.QUEUED
        client.resume()  # publishes nothing: it must wake the pool itself
        assert client.wait(job["id"], timeout=30.0)["state"] == JobState.DONE


def test_shutdown_ends_a_stream_on_a_parked_job():
    handle = start_server_thread(workers=1)
    client = ServeClient(port=handle.port)
    client.pause()
    job = client.submit("run", dict(RUN_SPEC))
    parked = handle.server.queue.jobs[job["id"]]
    seen = []
    first = threading.Event()

    def follow():
        for event in client.events(job["id"], reconnect=False):
            seen.append(event["event"])
            first.set()

    follower = threading.Thread(target=follow, daemon=True)
    follower.start()
    assert first.wait(5.0), "the stream never opened"
    assert len(parked.waiters) == 1
    assert client.shutdown()["mode"] == "now"
    handle.thread.join(timeout=10.0)
    assert not handle.thread.is_alive(), "a stream kept the server alive"
    follower.join(timeout=5.0)
    assert not follower.is_alive(), "the stream never closed"
    assert seen == ["queued"]
    assert parked.state == JobState.QUEUED
    assert not parked.waiters


def test_client_hangup_unregisters_the_stream():
    with start_server_thread(workers=1) as handle:
        client = ServeClient(port=handle.port)
        client.pause()
        job = client.submit("run", dict(RUN_SPEC))
        parked = handle.server.queue.jobs[job["id"]]
        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=5.0)
        conn.request("GET", f"/v1/jobs/{job['id']}/events")
        response = conn.getresponse()
        assert response.readline().startswith(b"id: 0")
        assert len(parked.waiters) == 1
        response.close()
        conn.close()
        wait_until(lambda: not parked.waiters)
        assert not handle.server._streams


def test_wait_follows_the_stream_instead_of_polling():
    with start_server_thread(workers=1) as handle:
        client = ServeClient(port=handle.port)
        job = client.submit("run", dict(RUN_SPEC, seed=11))
        before = handle.server.requests
        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == JobState.DONE
        # One stream plus one GET for the finished record.
        assert handle.server.requests - before == 2


def test_wait_times_out_on_its_own_deadline():
    with start_server_thread(workers=1) as handle:
        client = ServeClient(port=handle.port)  # socket timeout: 60 s
        client.pause()
        job = client.submit("run", dict(RUN_SPEC))
        start = time.monotonic()
        with pytest.raises(TimeoutError,
                           match=f"job {job['id']} still queued after 0.3s"):
            client.wait(job["id"], timeout=0.3)
        assert time.monotonic() - start < 5.0
        # The abandoned stream is a hangup: the server lets go of it.
        parked = handle.server.queue.jobs[job["id"]]
        wait_until(lambda: not parked.waiters)
