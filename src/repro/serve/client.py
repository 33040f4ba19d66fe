"""`ServeClient`: the thin stdlib HTTP client for a running `JobServer`.

Used by ``repro submit``, the test suite, and the serve benchmark.
One method per endpoint, plus `wait()` (follow a job's SSE stream to
a terminal state) and `events()` (iterate the SSE progress stream as
dicts, transparently reconnecting after a dropped connection and
resuming from the last seen ``seq`` via the ``Last-Event-ID`` header).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Iterator, Optional

from repro.serve.jobs import JobState


class ServeError(RuntimeError):
    """A non-2xx response from the server."""

    def __init__(self, status: int, payload: dict) -> None:
        self.status = status
        self.payload = payload
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")


class ServeClient:
    def __init__(self, host: str = "127.0.0.1", port: int = 8333,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = json.loads(response.read() or b"{}")
            if response.status >= 400:
                raise ServeError(response.status, data)
            return data
        finally:
            conn.close()

    # -- endpoints -----------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def version(self) -> str:
        return self._request("GET", "/version")["version"]

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def submit(self, kind: str, spec: dict, priority: int = 0) -> dict:
        """POST a job; returns the job record (may already be done on a
        submit-time run-cache hit)."""
        return self._request("POST", "/v1/jobs", {
            "kind": kind, "spec": spec, "priority": priority,
        })["job"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")["job"]

    def pause(self) -> None:
        self._request("POST", "/v1/queue/pause")

    def resume(self) -> None:
        self._request("POST", "/v1/queue/resume")

    def shutdown(self, mode: str = "now") -> dict:
        """Stop the server; ``mode="drain"`` lets running jobs finish
        (up to the server's drain timeout) before it exits."""
        return self._request("POST", f"/v1/shutdown?mode={mode}")

    # -- conveniences --------------------------------------------------
    def wait(self, job_id: str, timeout: float = 120.0) -> dict:
        """Follow the job's SSE stream until it reaches a terminal
        state; returns the job."""
        deadline = time.monotonic() + timeout
        last_seq: Optional[int] = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining > 0:
                try:
                    # The server ends the stream once the job is
                    # terminal; a drop or a timeout is settled below.
                    for event in self._event_stream(job_id, last_seq,
                                                    timeout=remaining):
                        last_seq = event["seq"]
                        if time.monotonic() >= deadline:
                            break
                except (http.client.HTTPException, OSError):
                    pass
            job = self.job(job_id)
            if job["state"] not in JobState.ACTIVE:
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s")

    def _event_stream(self, job_id: str, last_seq: Optional[int] = None,
                      timeout: Optional[float] = None) -> Iterator[dict]:
        """One SSE connection, yielding events after ``last_seq``;
        ``timeout`` (default: the client's) bounds each socket wait."""
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout)
        try:
            headers = {}
            if last_seq is not None:
                headers["Last-Event-ID"] = str(last_seq)
            conn.request("GET", f"/v1/jobs/{job_id}/events",
                         headers=headers)
            response = conn.getresponse()
            if response.status >= 400:
                raise ServeError(response.status,
                                 json.loads(response.read() or b"{}"))
            for raw in response:
                line = raw.decode("utf-8").strip()
                if line.startswith("data:"):
                    yield json.loads(line[len("data:"):])
        finally:
            conn.close()

    def events(self, job_id: str, reconnect: bool = True,
               max_reconnects: int = 10,
               reconnect_delay_s: float = 0.2) -> Iterator[dict]:
        """Stream the job's SSE progress events as dicts.

        The stream ends when the job reaches a terminal state.  A
        dropped connection (server restart, network blip) is not the
        end: the client reconnects — up to ``max_reconnects``
        consecutive times — and resumes from the last ``seq`` it saw
        via the ``Last-Event-ID`` header, so no event is missed or
        duplicated.  Any successfully received event resets the
        reconnect budget.  A clean close is double-checked against the
        job's state: only a terminal job ends the iteration.
        """
        last_seq: Optional[int] = None
        consecutive = 0
        while True:
            dropped = False
            try:
                for event in self._event_stream(job_id, last_seq):
                    seq = event.get("seq")
                    if isinstance(seq, int):
                        last_seq = seq
                    consecutive = 0
                    yield event
            except (http.client.HTTPException, OSError):
                dropped = True  # ServeError (404 etc.) propagates above
            if not reconnect:
                return
            if not dropped:
                # Clean close: trust it only if the job really is done
                # (a draining/restarting server may close early).
                try:
                    job = self.job(job_id)
                except (http.client.HTTPException, OSError):
                    dropped = True
                else:
                    if job["state"] not in JobState.ACTIVE:
                        return
            consecutive += 1
            if consecutive > max_reconnects:
                raise ConnectionError(
                    f"SSE stream for {job_id} dropped and "
                    f"{max_reconnects} reconnects failed")
            time.sleep(reconnect_delay_s)
