"""The HTTP job-queue server: enqueue, lease, complete, fail, stream.

A long-running :class:`JobQueueServer` (stdlib ``ThreadingHTTPServer``, no
dependencies) turns the crash-safe orchestrator into a distributed system:
coordinators enqueue content-keyed shard jobs, remote worker agents lease
them, and a shared :class:`~repro.service.remote.cache.ResultCache` in
front of the checkpoint journal serves any shard ever completed — across
studies and across restarts — without re-execution.

Endpoints (JSON bodies unless noted):

=====================  ======================================================
``POST /enqueue``      one ``remote-job`` record; answers ``enqueued``,
                       ``duplicate`` (job already known) or ``cached`` (a
                       ``remote-cache-hit`` record rides along)
``POST /lease``        claim the oldest ready job; answers the job plus a
                       ``remote-lease`` record, or ``lease: null``
``POST /heartbeat``    extend a lease; ``ok: false`` means it was revoked
``POST /complete``     deliver a result payload (journal-first, durable)
``POST /fail``         deliver an error descriptor; the server triages it
                       through :class:`~repro.service.retry.RetryPolicy`
``GET /result?key=``   the completed result payload (or ``null``)
``GET /error?key=``    the terminal error descriptor (or ``null``)
``GET /job?key=``      job status and attempt count
``GET /status``        queue/cache/telemetry summary
``GET /events``        server-sent-events telemetry stream; ``?after=seq``
                       (or ``Last-Event-ID``) replays missed records first
=====================  ======================================================

The server owns no lifecycle logic of its own: each endpoint is one call
on a :class:`~repro.service.queue.JobQueue`, the same core the local pipe
transport drives.  Lease expiry, :class:`~repro.service.retry.RetryPolicy`
triage (an expired lease is a transient
:class:`~repro.exceptions.ShardTimeoutError` of kind ``"lease"``; a worker
reporting a deterministic :class:`~repro.exceptions.ReproError` fails the
job fast), first-result-wins completion, the result cache and telemetry all
live there.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from functools import cached_property
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional
from urllib.parse import parse_qs, urlparse

from repro.service.checkpoint import content_key
from repro.service.queue import JobQueue
from repro.service.remote.protocol import JobRecord
from repro.service.remote.telemetry import sse_encode
from repro.service.retry import RetryPolicy

_KEEPALIVE = b": keep-alive\n\n"


class JobQueueServer:
    """A threaded HTTP transport over one :class:`~repro.service.queue.JobQueue`.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`url`).
    cache:
        A :class:`~repro.service.remote.cache.ResultCache`, a journal (or
        journal path) to back one with, or ``None`` for a memory-only cache.
    retry:
        The :class:`~repro.service.retry.RetryPolicy` triaging worker
        failures and lease expiries (transient → re-queued with backoff,
        deterministic → failed fast).
    lease_timeout:
        Seconds of heartbeat silence before a lease is revoked and its job
        re-queued.
    heartbeat_interval:
        The heartbeat cadence handed to workers with each lease.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache=None,
        retry: Optional[RetryPolicy] = None,
        lease_timeout: float = 30.0,
        heartbeat_interval: float = 0.2,
    ) -> None:
        self.queue = JobQueue(
            retry=retry,
            cache=cache,
            lease_timeout=float(lease_timeout),
            heartbeat_interval=heartbeat_interval,
        )
        self.cache = self.queue.cache
        self.telemetry = self.queue.telemetry
        self._running = False
        self._thread: Optional[threading.Thread] = None

        server = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.0"

            def log_message(self, format, *args):  # silence per-request noise
                pass

            def _json(self, payload: dict, status: int = 200) -> None:
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _read_body(self) -> dict:
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length) if length else b"{}"
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except json.JSONDecodeError:
                    return {}
                return payload if isinstance(payload, dict) else {}

            def _route(self, method: str) -> None:
                parsed = urlparse(self.path)
                query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
                if method == "GET" and parsed.path == "/events":
                    self._stream_events(query)
                    return
                route = server._routes.get((method, parsed.path))
                if route is None:
                    self._json({"error": f"unknown endpoint {parsed.path}"}, status=404)
                    return
                request = self._read_body() if method == "POST" else query
                try:
                    answer, status = route(request), 200
                except _BadRequest as exc:
                    answer, status = exc.args[0], 400
                except Exception as exc:  # surface, don't kill the thread
                    answer, status = {"error": f"{type(exc).__name__}: {exc}"}, 500
                if answer is None:
                    key = request.get("key")
                    answer, status = {"ok": False, "error": f"unknown job {key!r}"}, 404
                self._json(answer, status=status)

            def do_POST(self) -> None:
                self._route("POST")

            def do_GET(self) -> None:
                self._route("GET")

            def _stream_events(self, query: Dict[str, str]) -> None:
                after = int(query.get("after") or self.headers.get("Last-Event-ID") or 0)
                self.send_response(200)
                self.send_header("Content-Type", "text/event-stream")
                self.send_header("Cache-Control", "no-cache")
                self.end_headers()
                idle_loops = 0
                try:
                    while server._running:
                        records = server.telemetry.wait(after, timeout=0.5)
                        # The stream doubles as the server's clock: expire
                        # leases even when no worker is polling /lease.
                        server.queue.expire()
                        if not records:
                            idle_loops += 1
                            if idle_loops >= 10:
                                self.wfile.write(_KEEPALIVE)
                                self.wfile.flush()
                                idle_loops = 0
                            continue
                        idle_loops = 0
                        for record in records:
                            self.wfile.write(sse_encode(record))
                            after = record.seq
                        self.wfile.flush()
                except (BrokenPipeError, ConnectionResetError):
                    return  # subscriber went away

        daemon_server = ThreadingHTTPServer((host, port), _Handler)
        daemon_server.daemon_threads = True
        # SSE handler threads block in wait(); don't let shutdown() join them.
        daemon_server.block_on_close = False
        self._server = daemon_server

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "JobQueueServer":
        self._running = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.cache.close()

    def __enter__(self) -> "JobQueueServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------ #
    # Endpoints: one queue call each.  A route maps the request (POST body
    # or GET query) to its JSON answer; ``None`` answers 404 (unknown job).
    # ------------------------------------------------------------------ #

    @cached_property
    def _routes(self) -> Dict[tuple, Callable[[dict], Optional[dict]]]:
        queue = self.queue
        return {
            ("POST", "/enqueue"): self._enqueue,
            ("POST", "/lease"): self._lease,
            ("POST", "/heartbeat"): lambda r: {
                "ok": queue.heartbeat(r.get("key"), r.get("lease_id"))
            },
            ("POST", "/complete"): lambda r: queue.complete(
                r.get("key"), r.get("lease_id"), r["result"], r.get("worker")
            ),
            ("POST", "/fail"): lambda r: queue.fail(
                r.get("key"), r.get("lease_id"), r.get("error") or {}, r.get("worker")
            ),
            ("GET", "/result"): lambda r: {
                "key": r.get("key"),
                "result": queue.result(r.get("key")),
            },
            ("GET", "/error"): lambda r: {
                "key": r.get("key"),
                "error": queue.error(r.get("key")),
            },
            ("GET", "/job"): lambda r: queue.job(r.get("key")),
            ("GET", "/status"): lambda r: queue.status(),
        }

    def _enqueue(self, request: dict) -> dict:
        record = JobRecord.from_dict(request)
        if content_key(record.body) != record.key:
            raise _BadRequest(
                {"error": "job key does not hash its body", "key": record.key}
            )
        return self.queue.enqueue(record)

    def _lease(self, request: dict) -> dict:
        leased = self.queue.lease(str(request.get("worker") or "anonymous"))
        if leased is None:
            counts = self.queue.counts()
            return {
                "lease": None,
                "pending": counts.get("pending", 0),
                "leased": counts.get("leased", 0),
            }
        lease, record = leased
        return {"lease": lease.to_dict(), "job": record.to_dict()}


class _BadRequest(Exception):
    """A request the queue refuses; its argument is the HTTP 400 answer."""


def main(argv=None) -> int:
    """CLI: ``python -m repro.service.remote.server --port 8737 --cache c.jsonl``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.remote.server",
        description="Run the remote job-queue server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8737, help="0 picks a free port")
    parser.add_argument(
        "--cache", default=None, help="checkpoint journal backing the result cache"
    )
    parser.add_argument("--lease-timeout", type=float, default=30.0)
    parser.add_argument("--heartbeat-interval", type=float, default=0.2)
    parser.add_argument("--max-attempts", type=int, default=3)
    args = parser.parse_args(argv)

    server = JobQueueServer(
        host=args.host,
        port=args.port,
        cache=args.cache,
        retry=RetryPolicy(max_attempts=args.max_attempts),
        lease_timeout=args.lease_timeout,
        heartbeat_interval=args.heartbeat_interval,
    )
    server.start()
    print(f"repro job-queue server listening on {server.url}", flush=True)
    try:
        while True:
            time.sleep(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = ["JobQueueServer", "main"]
