"""The asyncio HTTP/JSON front door (``repro serve``).

Stdlib-only by design: requests are parsed directly off an
``asyncio.start_server`` stream (request line, headers, Content-Length
body), responses are JSON with ``Connection: close``.  That is all a
job API needs, keeps the dependency count at zero, and makes the whole
server one readable file.

Endpoints::

    POST   /v1/jobs             submit {"kind", "spec", "priority"}
    GET    /v1/jobs             list job summaries
    GET    /v1/jobs/{id}        one job, including its result payload
    GET    /v1/jobs/{id}/events live SSE progress stream (resumable:
                                honors Last-Event-ID, emits id: lines)
    DELETE /v1/jobs/{id}        cancel (queued jobs only)
    GET    /v1/stats            queue depth, cache/journal/breaker stats
    POST   /v1/queue/pause      stop handing out work (drain switch)
    POST   /v1/queue/resume     resume
    POST   /v1/shutdown         stop; ?mode=drain finishes running jobs
                                first (up to --drain-timeout), ?mode=now
                                (default) stops immediately
    GET    /healthz             liveness probe: ok | draining | degraded
    GET    /version             repro.__version__

Submissions dedup through the `JobQueue`; additionally, a run job whose
run-cache key is already in the cache completes *at submit time* — the
POST response itself carries ``state: done, cache_hit: true`` — which
is what makes repeated interactive DSE queries sub-second.

With ``--state-dir`` the server is *durable*: every submission, state
transition, and progress event is written ahead to
`repro.serve.journal.JobJournal`, and a restarted server replays it —
re-queueing the jobs that were queued/running at crash time and still
serving GET for terminal ones; sweep jobs resume from the run cache,
which defaults to ``<state-dir>/runs``.  SIGTERM/SIGINT trigger the same
graceful drain as ``POST /v1/shutdown?mode=drain``.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
from pathlib import Path
from typing import Optional
from urllib.parse import parse_qs

from repro.exec.cache import RunCache
from repro.exec.failures import FailureRecord
from repro.serve.jobs import (
    JOB_KINDS,
    CircuitBreaker,
    JobQueue,
    JobState,
)
from repro.serve.journal import JobJournal, recover_queue
from repro.serve.workers import (
    ServerState,
    SpecError,
    WorkerPool,
    job_dedup_key,
)

_JOB_PATH = re.compile(r"^/v1/jobs/([a-z0-9]+)(/events)?$")

#: How often the SSE stream checks a job's event log for news.
_SSE_POLL_S = 0.05

#: How often a drain re-checks whether running jobs have finished.
_DRAIN_POLL_S = 0.05


class HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message
        super().__init__(message)


_REASONS = {200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            500: "Internal Server Error", 503: "Service Unavailable"}


class JobServer:
    """One listening socket, one `JobQueue`, one `WorkerPool`.

    With ``state_dir`` set, also one `JobJournal`: the queue journals
    every mutation, and ``__init__`` replays whatever a previous
    process left behind *before* the workers start — so recovered jobs
    are first in line.  Without an explicit ``run_cache`` the run cache
    then lives under ``<state_dir>/runs``, which is what lets sweep jobs
    resume their finished points after a restart.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2, run_cache=None, artifact_store=None,
                 verify: bool = True, state_dir=None,
                 drain_timeout: float = 30.0,
                 breaker_threshold: int = 5,
                 breaker_cooldown_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.verify = verify
        self.drain_timeout = float(drain_timeout)
        self.journal = (JobJournal(state_dir)
                        if state_dir is not None else None)
        self.queue = JobQueue(journal=self.journal)
        self.recovery: Optional[dict] = None
        if self.journal is not None:
            self.recovery = recover_queue(self.queue, self.journal)
        self.breaker = CircuitBreaker(threshold=breaker_threshold,
                                      cooldown_s=breaker_cooldown_s)
        if run_cache is None and state_dir is not None:
            # Sweep jobs resume from the run cache: under a state dir
            # it is durable even without an explicit cache dir.
            run_cache = RunCache(Path(state_dir) / "runs")
        self.state = ServerState(run_cache=run_cache,
                                 artifact_store=artifact_store)
        self.pool = WorkerPool(self.queue, self.state, workers=workers,
                               breaker=self.breaker)
        self.started_s = time.time()
        self.requests = 0
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._drain_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> int:
        """Bind, start workers; returns the actual port (ephemeral-safe)."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        await self.pool.start()
        return self.port

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        await self.pool.stop()
        if self.journal is not None:
            self.journal.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def begin_drain(self) -> None:
        """Stop claiming work; finish running jobs (up to the drain
        timeout), snapshot the journal, then shut down.  Idempotent;
        must be called on the event loop (routes and signal handlers
        both are)."""
        if self.draining:
            return
        self.draining = True
        self.queue.pause()
        self._drain_task = asyncio.get_event_loop().create_task(self._drain())

    async def _drain(self) -> None:
        deadline = time.monotonic() + self.drain_timeout
        while self.queue.running() and time.monotonic() < deadline:
            await asyncio.sleep(_DRAIN_POLL_S)
        if self.journal is not None:
            # Final snapshot: recovery after a clean drain is O(1).
            self.journal.compact(self.queue)
        self._shutdown.set()

    # -- request plumbing ----------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            method, path, query, headers, body = \
                await self._read_request(reader)
            self.requests += 1
            if path.endswith("/events"):
                await self._stream_events(writer, path, headers)
            else:
                status, payload = self._route(method, path, query, body)
                await self._respond(writer, status, payload)
        except HttpError as err:
            await self._respond(writer, err.status, {"error": err.message})
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        except Exception as exc:  # noqa: BLE001 - the server must survive
            try:
                await self._respond(writer, 500,
                                    {"error": f"{type(exc).__name__}: {exc}"})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader) -> tuple[str, str, dict, dict, dict]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            raise HttpError(400, f"malformed request line: {request_line!r}")
        method = parts[0].upper()
        path, __, raw_query = parts[1].partition("?")
        query = {name: values[-1]
                 for name, values in parse_qs(raw_query).items()}
        headers: dict = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, __, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body: dict = {}
        content_length = int(headers.get("content-length") or 0)
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw)
            except ValueError:
                raise HttpError(400, "request body is not valid JSON")
            if not isinstance(body, dict):
                raise HttpError(400, "request body must be a JSON object")
        return method, path, query, headers, body

    @staticmethod
    async def _respond(writer, status: int, payload: dict) -> None:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(blob)}\r\n"
                "Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + blob)
        await writer.drain()

    # -- routing -------------------------------------------------------
    def _route(self, method: str, path: str, query: dict,
               body: dict) -> tuple[int, dict]:
        if path == "/healthz" and method == "GET":
            return 200, self._healthz()
        if path == "/version" and method == "GET":
            import repro

            return 200, {"version": repro.__version__}
        if path == "/v1/stats" and method == "GET":
            return 200, self._stats()
        if path == "/v1/jobs" and method == "POST":
            return self._submit(body)
        if path == "/v1/jobs" and method == "GET":
            return 200, self._list_jobs()
        if path == "/v1/queue/pause" and method == "POST":
            self.queue.pause()
            return 200, {"paused": True}
        if path == "/v1/queue/resume" and method == "POST":
            self.queue.resume()
            return 200, {"paused": False}
        if path == "/v1/shutdown" and method == "POST":
            mode = query.get("mode") or body.get("mode") or "now"
            if mode == "drain":
                self.begin_drain()
                return 200, {"shutting_down": True, "mode": "drain",
                             "running": len(self.queue.running()),
                             "drain_timeout_s": self.drain_timeout}
            if mode != "now":
                raise HttpError(400, f"bad shutdown mode {mode!r} "
                                     "(expected now|drain)")
            self._shutdown.set()
            return 200, {"shutting_down": True, "mode": "now"}
        match = _JOB_PATH.match(path)
        if match and not match.group(2):
            job = self.queue.jobs.get(match.group(1))
            if job is None:
                raise HttpError(404, f"no such job: {match.group(1)}")
            if method == "GET":
                return 200, {"job": job.to_dict()}
            if method == "DELETE":
                before = job.state
                job = self.queue.cancel(job.id)
                if job.state != JobState.CANCELLED and before == job.state:
                    return 409, {"job": job.to_dict(include_result=False),
                                 "error": f"job is {job.state}, "
                                          "not cancellable"}
                return 200, {"job": job.to_dict(include_result=False)}
            raise HttpError(405, f"{method} not allowed here")
        raise HttpError(404, f"no route for {method} {path}")

    def _submit(self, body: dict) -> tuple[int, dict]:
        kind = body.get("kind")
        if kind not in JOB_KINDS:
            raise HttpError(400, f"bad kind {kind!r} "
                                 f"(expected one of {', '.join(JOB_KINDS)})")
        spec = body.get("spec")
        if not isinstance(spec, dict):
            raise HttpError(400, "spec must be a JSON object")
        if not self.verify:
            spec = dict(spec, verify=False)
        dedup_reasons: list = []
        key = job_dedup_key(kind, spec, on_fallback=dedup_reasons.append)
        job = self.queue.submit(kind, spec,
                                priority=int(body.get("priority", 0)),
                                dedup_key=key)
        if dedup_reasons:
            # The spec could not be keyed the content-addressed way —
            # say so on the job's own event log, so a silently
            # un-deduped submission is diagnosable after the fact.
            job.publish("dedup_fallback", reason=dedup_reasons[0])
        if job.deduped_of is not None:
            return 201, {"job": job.to_dict()}
        if kind == "run":
            cached = self._probe_run_cache(spec)
            if cached is not None:
                self.queue.finish_immediately(job, cached, cache_hit=True)
                return 201, {"job": job.to_dict()}
        # Breaker check comes last: followers and cached results serve
        # even when the key is open, and check() admits the half-open
        # probe as a side effect, so only jobs that would really queue
        # may ask.
        blocked = self.breaker.check(key)
        if blocked is not None:
            job.publish("circuit_open", **blocked)
            failure = FailureRecord(
                error_type="CircuitOpen",
                message=(f"circuit open after "
                         f"{blocked['consecutive_failures']} consecutive "
                         f"failures; retry in {blocked['retry_in_s']}s"),
                attempts=0,
                reason="circuit_open",
            )
            self.queue.fail_immediately(job, failure)
        return 201, {"job": job.to_dict()}

    def _probe_run_cache(self, spec: dict) -> Optional[dict]:
        """Submit-time fast path: an already-cached run completes now."""
        from repro.exec.cache import run_cache_key
        from repro.serve.workers import _spec_workload, run_spec_kwargs

        try:
            workload = _spec_workload(spec)
            key = run_cache_key(workload.source, workload.func_name,
                                seed=int(spec.get("seed", 7)),
                                **run_spec_kwargs(spec))
        except (SpecError, KeyError, TypeError, ValueError):
            return None  # unkeyable spec: just queue it
        cached = self.state.run_cache.get(key)
        return cached.to_dict() if cached is not None else None

    def _list_jobs(self) -> dict:
        return {"jobs": [job.to_dict(include_result=False)
                         for job in self.queue.jobs.values()]}

    def _healthz(self) -> dict:
        status = "ok"
        open_keys = self.breaker.open_keys()
        journal_errors = (self.journal.write_errors
                          if self.journal is not None else 0)
        if open_keys or journal_errors:
            status = "degraded"
        if self.draining:
            status = "draining"
        payload = {"status": status, "uptime_s": self._uptime()}
        if open_keys:
            payload["open_breakers"] = len(open_keys)
        if journal_errors:
            payload["journal_write_errors"] = journal_errors
        return payload

    def _stats(self) -> dict:
        stats = {
            "queue": self.queue.stats(),
            "workers": self.pool.workers,
            "uptime_s": self._uptime(),
            "requests": self.requests,
            "health": self._healthz()["status"],
            "breaker": self.breaker.stats(),
        }
        if self.journal is not None:
            stats["journal"] = self.journal.stats()
        if self.recovery is not None:
            stats["recovery"] = self.recovery
        stats.update(self.state.cache_stats())
        return stats

    def _uptime(self) -> float:
        return round(time.time() - self.started_s, 3)

    # -- SSE -----------------------------------------------------------
    async def _stream_events(self, writer, path: str,
                             headers: Optional[dict] = None) -> None:
        match = _JOB_PATH.match(path)
        job = self.queue.jobs.get(match.group(1)) if match else None
        if job is None:
            raise HttpError(404, f"no such job: {path}")
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        # A reconnecting client resumes from the last seq it saw.
        sent = 0
        last_id = (headers or {}).get("last-event-id")
        if last_id is not None and last_id.strip().isdigit():
            sent = int(last_id.strip()) + 1
        while True:
            # The worker thread only ever appends; reading a snapshot of
            # the tail is race-free.
            events = job.events
            while sent < len(events):
                blob = json.dumps(events[sent], sort_keys=True)
                writer.write(f"id: {events[sent]['seq']}\n"
                             f"data: {blob}\n\n".encode("utf-8"))
                sent += 1
            await writer.drain()
            if job.terminal and sent >= len(job.events):
                break
            await asyncio.sleep(_SSE_POLL_S)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
async def _serve_async(server: JobServer, announce=None) -> None:
    port = await server.start()
    _install_signal_handlers(server)
    if announce is not None:
        announce(port)
    await server.serve_until_shutdown()


def _install_signal_handlers(server: JobServer) -> None:
    """SIGTERM/SIGINT → graceful drain (same as /v1/shutdown?mode=drain)."""
    import signal

    loop = asyncio.get_event_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.begin_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            return  # non-main thread or platform without signal support


def serve_forever(host: str = "127.0.0.1", port: int = 8333,
                  workers: int = 2, run_cache=None, artifact_store=None,
                  verify: bool = True, announce=None, state_dir=None,
                  drain_timeout: float = 30.0) -> None:
    """Blocking entry point behind ``repro serve``."""
    server = JobServer(host=host, port=port, workers=workers,
                       run_cache=run_cache, artifact_store=artifact_store,
                       verify=verify, state_dir=state_dir,
                       drain_timeout=drain_timeout)
    asyncio.run(_serve_async(server, announce=announce))


class ServerHandle:
    """A server running on a background thread (tests)."""

    def __init__(self, server: JobServer, thread: threading.Thread,
                 port: int) -> None:
        self.server = server
        self.thread = thread
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self.thread.is_alive():
            self._loop.call_soon_threadsafe(self.server._shutdown.set)
        self.thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_server_thread(host: str = "127.0.0.1", port: int = 0,
                        workers: int = 2, run_cache=None,
                        artifact_store=None, verify: bool = True,
                        timeout: float = 10.0, state_dir=None,
                        drain_timeout: float = 30.0,
                        breaker_threshold: int = 5,
                        breaker_cooldown_s: float = 30.0) -> ServerHandle:
    """Start a `JobServer` on its own thread + event loop; returns a
    handle with the bound (ephemeral) port."""
    server = JobServer(host=host, port=port, workers=workers,
                       run_cache=run_cache, artifact_store=artifact_store,
                       verify=verify, state_dir=state_dir,
                       drain_timeout=drain_timeout,
                       breaker_threshold=breaker_threshold,
                       breaker_cooldown_s=breaker_cooldown_s)
    ready = threading.Event()
    bound: dict = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        handle._loop = loop

        async def main() -> None:
            bound["port"] = await server.start()
            ready.set()
            await server.serve_until_shutdown()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(target=runner, name="repro-serve", daemon=True)
    handle = ServerHandle(server, thread, 0)
    thread.start()
    if not ready.wait(timeout=timeout):
        raise RuntimeError("server failed to start within "
                           f"{timeout}s")
    handle.port = bound["port"]
    return handle
