"""Coordinator-side dispatch of shard jobs to a remote queue server.

:class:`RemoteDispatch` is the HTTP counterpart of the orchestrator's local
pipe transport: both are the same coordinator book
(``repro.service.orchestrator._ShardBook`` — journal replay, the
``results`` / ``records`` / ``failures`` maps and the ``on_shard`` stream)
over a :class:`~repro.service.queue.JobQueue`, here the one behind a
:class:`~repro.service.remote.server.JobQueueServer`.  So
``run_study_service(remote=...)`` reuses ``_collect`` and
``merge_ensemble_executions`` unchanged, and the merged result stays
bit-for-bit identical to the single-process run.

The dispatch is event-driven with a polling safety net: a daemon thread
subscribes to the server's SSE telemetry stream (``/events?after=seq``,
where ``seq`` is sampled *before* the jobs are enqueued so no lifecycle
event can be missed), and the main loop additionally polls ``GET /job``
for still-pending keys every ``poll_interval`` seconds in case the stream
drops.  Results are journaled locally as they arrive, so a coordinator
SIGKILLed mid-dispatch resumes from its own journal exactly like the
multiprocessing route — and jobs completed while it was dead are served
from the server's shared cache on re-enqueue.
"""

from __future__ import annotations

import queue as queue_module
import socket
import threading
import time
import urllib.request
from typing import Any, Callable, List, Optional

from repro.exceptions import RemoteServiceError
from repro.service.checkpoint import CheckpointJournal
from repro.service.orchestrator import _ShardBook
from repro.service.remote.protocol import RemoteConfig, TelemetryRecord, http_json
from repro.service.remote.telemetry import iter_sse_events

_SSE_CLOSED = object()


class RemoteDispatch(_ShardBook):
    """Run a job list against a remote queue server (the HTTP transport)."""

    def __init__(
        self,
        jobs: List[Any],
        *,
        remote: RemoteConfig,
        journal: Optional[CheckpointJournal],
    ) -> None:
        super().__init__(jobs, journal=journal)
        self._remote = remote
        self._events: "queue_module.Queue" = queue_module.Queue()
        self._sse_response = None

    # ------------------------------------------------------------------ #
    # Server round-trips
    # ------------------------------------------------------------------ #

    def _call(self, endpoint: str, payload: Optional[dict] = None) -> dict:
        return http_json(
            f"{self._remote.url}{endpoint}",
            payload,
            timeout=self._remote.request_timeout,
        )

    def _fetch_result(self, key: str) -> dict:
        payload = self._call(f"/result?key={key}").get("result")
        if payload is None:
            raise RemoteServiceError(
                f"server reported job {key[:12]} completed but has no result"
            )
        return payload

    def _fetch_error(self, key: str) -> Optional[dict]:
        return self._call(f"/error?key={key}").get("error")

    def _enqueue(self, job) -> Optional[str]:
        return self._call("/enqueue", job.record.to_dict()).get("status")

    # ------------------------------------------------------------------ #
    # Telemetry subscription
    # ------------------------------------------------------------------ #

    def _subscribe(self, after: int) -> None:
        url = f"{self._remote.url}/events?after={after}"

        def _reader() -> None:
            try:
                response = urllib.request.urlopen(url, timeout=None)
            except OSError:
                self._events.put(_SSE_CLOSED)
                return
            self._sse_response = response
            try:
                for payload in iter_sse_events(response):
                    self._events.put(payload)
            except Exception:
                pass  # stream torn down; the polling net takes over
            finally:
                self._events.put(_SSE_CLOSED)
                try:
                    # The reader owns close(): HTTPResponse.close() taken from
                    # another thread would block on the read lock readline()
                    # holds until the server's next keep-alive frame.
                    response.close()
                except Exception:
                    pass

        threading.Thread(target=_reader, daemon=True).start()

    def _close_stream(self) -> None:
        """Unblock the reader thread's pending readline() immediately.

        Shutting the socket down makes the blocked read return EOF at once;
        the reader thread then closes the response itself and exits.
        """
        response = self._sse_response
        if response is None:
            return
        try:
            response.fp.raw._sock.shutdown(socket.SHUT_RDWR)  # CPython layout
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self, on_shard: Optional[Callable[[Any], None]] = None) -> None:
        self._replay(on_shard)
        if not self.pending:
            return
        # Sample the telemetry cursor BEFORE enqueueing: every event about
        # our jobs lands strictly after it, so the stream cannot miss one.
        seq0 = int(self._call("/status").get("telemetry_seq", 0))
        self._subscribe(seq0)
        try:
            for job in list(self.pending.values()):
                # Cached, or enqueued by an earlier run (or another study)
                # and already settled there.
                status = self._enqueue(job)
                if status == "cached":
                    status = "completed"
                self._settle(job.key, status, source="cache")
            deadline = (
                None
                if self._remote.job_timeout is None
                else time.monotonic() + self._remote.job_timeout
            )
            while self.pending:
                if deadline is not None and time.monotonic() > deadline:
                    raise RemoteServiceError(
                        f"remote dispatch exceeded job_timeout="
                        f"{self._remote.job_timeout}s with {len(self.pending)} "
                        f"job(s) still pending (are any workers running?)"
                    )
                try:
                    event = self._events.get(timeout=self._remote.poll_interval)
                except queue_module.Empty:
                    event = _SSE_CLOSED
                if event is _SSE_CLOSED:
                    # Stream quiet for a poll interval (or gone): poll the
                    # pending keys directly.
                    self._poll_pending()
                    continue
                try:
                    record = TelemetryRecord.from_dict(event)
                except Exception:
                    continue  # not a telemetry record; ignore
                self._observe(record)
        finally:
            self._close_stream()

    def _poll_pending(self) -> None:
        for key, job in list(self.pending.items()):
            answer = self._call(f"/job?key={key}")
            status = answer.get("status")
            if status is None:
                # The server forgot the job (restarted queue): re-enqueue.
                self._enqueue(job)
            else:
                attempts = max(int(answer.get("attempts") or 0), 1)
                self._settle(key, status, attempts=attempts)


def run_remote(
    jobs: List[Any],
    *,
    remote: RemoteConfig,
    journal: Optional[CheckpointJournal],
    on_shard: Optional[Callable[[Any], None]],
) -> RemoteDispatch:
    """Dispatch ``jobs`` remotely and return the filled book."""
    dispatch = RemoteDispatch(jobs, remote=remote, journal=journal)
    dispatch.run(on_shard)
    return dispatch


__all__ = ["RemoteDispatch", "run_remote"]
