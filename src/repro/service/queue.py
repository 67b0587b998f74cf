"""The job-queue core: one lease state machine for local and remote shards.

:class:`JobQueue` alone owns a shard job's lifecycle — ``pending`` →
``leased`` → ``completed`` | ``failed``, back to ``pending`` on a retried
failure.  Two thin transports sit on it and never track attempts, expiry
or retries themselves: the pipe transport
(``repro.service.orchestrator._Scheduler``) hands leases to the
persistent worker slots of the local pool and forwards their messages, and
the HTTP transport (:class:`~repro.service.remote.server.JobQueueServer`)
maps each endpoint to one queue call.

Every failure — an error a worker reports, a crash or timeout a transport
detects, a lease whose heartbeats stopped — is triaged once, in
:meth:`JobQueue._triage`, through the :class:`~repro.service.retry.RetryPolicy`.
Heartbeats and failures quote their lease, so a revoked lease can neither
keep a job alive nor fail its retry; a result is accepted from any lease
until the job completes (results are content-keyed and deterministic, so
the first is *the* result).  Completed results go to the
:class:`~repro.service.remote.cache.ResultCache` and every transition
appends to the :class:`~repro.service.remote.telemetry.TelemetryLog`.
Durable cache I/O (the fsync'd journal) runs outside the queue's lock.
"""

from __future__ import annotations

import math
import secrets
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.exceptions import ShardTimeoutError
from repro.service.remote.cache import ResultCache
from repro.service.remote.protocol import CacheHitRecord, JobRecord, LeaseRecord
from repro.service.remote.telemetry import TelemetryLog
from repro.service.retry import RetryPolicy
from repro.service.worker import describe_error, error_from_descriptor


@dataclass
class _Entry:
    """The queue's view of one job."""

    record: JobRecord
    status: str = "pending"  # pending | leased | completed | failed
    attempts: int = 0
    ready_at: float = 0.0
    lease_id: Optional[str] = None
    worker: Optional[str] = None
    leased_at: float = 0.0
    expires_at: float = math.inf
    error: Optional[dict] = None


class JobQueue:
    """Thread-safe in-process job queue with leases, retries, cache and telemetry.

    Parameters
    ----------
    retry:
        The :class:`~repro.service.retry.RetryPolicy` triaging every failure.
    cache:
        A :class:`~repro.service.remote.cache.ResultCache`, a journal (or
        journal path) to back one with, or ``None`` for a memory-only cache.
    lease_timeout:
        Seconds of heartbeat silence before a lease is revoked (``None``:
        leases never expire).
    heartbeat_interval:
        The heartbeat cadence handed to workers with each lease.
    clock:
        Monotonic time source for lease deadlines and retry backoff.
    """

    def __init__(
        self,
        *,
        retry: Optional[RetryPolicy] = None,
        cache=None,
        lease_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.cache = cache if isinstance(cache, ResultCache) else ResultCache(cache)
        self.lease_timeout = None if lease_timeout is None else float(lease_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.telemetry = TelemetryLog()
        self._clock = clock
        self._jobs: Dict[str, _Entry] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle transitions
    # ------------------------------------------------------------------ #

    def enqueue(self, record: JobRecord) -> dict:
        """Admit one job; answers ``enqueued``, ``cached`` or the known status.

        A key already in the cache is born completed (``cache-hit``
        telemetry, and a ``remote-cache-hit`` record rides along).  Every
        admission the cache decides counts once in the cache's hit/miss
        counters; a key the queue already knows counts neither.
        """
        key = record.key
        cached, layer = self.cache.lookup(key)
        with self._lock:
            existing = self._jobs.get(key)
            if existing is not None:
                return {"status": existing.status, "key": key}
            self.cache.count(hit=cached is not None)
            if cached is not None:
                self._jobs[key] = _Entry(record, status="completed")
                self.telemetry.append("cache-hit", key, kind=record.kind)
                hit = CacheHitRecord(key=key, kind=record.kind, source=layer)
                return {"status": "cached", "cache_hit": hit.to_dict()}
            self._jobs[key] = _Entry(record)
            self.telemetry.append("enqueued", key, kind=record.kind)
            return {"status": "enqueued", "key": key}

    def lease(self, worker: str) -> Optional[Tuple[LeaseRecord, JobRecord]]:
        """Claim the oldest ready job for ``worker``, or ``None``."""
        with self._lock:
            now = self._expire(self._jobs.values())
            entry = next(
                (
                    entry
                    for entry in self._jobs.values()
                    if entry.status == "pending" and entry.ready_at <= now
                ),
                None,
            )
            if entry is None:
                return None
            entry.status = "leased"
            entry.attempts += 1
            entry.lease_id = secrets.token_hex(8)
            entry.worker = worker
            entry.leased_at = now
            entry.expires_at = self._deadline(now)
            lease = LeaseRecord(
                key=entry.record.key,
                lease_id=entry.lease_id,
                worker=worker,
                attempt=entry.attempts,
                heartbeat_interval=self.heartbeat_interval,
                expires_in=self.lease_timeout,
            )
            self.telemetry.append(
                "leased",
                lease.key,
                kind=entry.record.kind,
                worker=worker,
                attempt=entry.attempts,
            )
            return lease, entry.record

    def heartbeat(self, key: str, lease_id: Optional[str]) -> bool:
        """Extend a live lease; ``False`` means it was revoked."""
        with self._lock:
            entry = self._live(key, lease_id)
            if entry is None:
                return False
            entry.expires_at = self._deadline(self._clock())
            return True

    def holds(self, key: str, lease_id: Optional[str]) -> bool:
        """Whether ``lease_id`` is still the live lease of ``key``."""
        with self._lock:
            return self._live(key, lease_id) is not None

    def complete(
        self,
        key: str,
        lease_id: Optional[str],
        result: dict,
        worker: Optional[str] = None,
    ) -> Optional[dict]:
        """Accept a result; the first one wins, even from a revoked lease.

        ``None`` for an unknown key.
        """
        with self._lock:
            entry = self._jobs.get(key)
            if entry is None:
                return None
            if entry.status == "completed":
                return {"ok": True, "duplicate": True}
        # The durable write happens before the job is announced completed,
        # so ``result(key)`` answers as soon as ``completed`` is observed.
        self.cache.put(key, result, kind=entry.record.kind)
        with self._lock:
            if entry.status == "completed":  # a concurrent result won
                return {"ok": True, "duplicate": True}
            stale = entry.lease_id != lease_id
            elapsed = self._clock() - entry.leased_at if entry.attempts else None
            worker = worker or entry.worker
            entry.status = "completed"
            entry.lease_id = None
            self.telemetry.append(
                "completed",
                key,
                kind=entry.record.kind,
                worker=worker,
                attempt=entry.attempts,
                elapsed=elapsed,
            )
            return {"ok": True, "stale_lease": stale}

    def fail(
        self,
        key: str,
        lease_id: Optional[str],
        descriptor: dict,
        worker: Optional[str] = None,
    ) -> Optional[dict]:
        """Report a failed attempt (an error descriptor) on a live lease.

        A report quoting a revoked lease is a duplicate: that attempt was
        already triaged when its lease was revoked.  ``None`` for an
        unknown key.
        """
        with self._lock:
            if key not in self._jobs:
                return None
            entry = self._live(key, lease_id)
            if entry is None:
                return {"ok": True, "duplicate": True}
            error = error_from_descriptor(descriptor)
            event = self._triage(entry, error, descriptor, worker or entry.worker)
            return {"ok": True, "retried": event == "retried"}

    def expire(self) -> None:
        """Revoke every lease past its heartbeat deadline."""
        with self._lock:
            self._expire(self._jobs.values())

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def result(self, key: Optional[str]) -> Optional[dict]:
        """The completed result payload of ``key`` (or ``None``)."""
        return self.cache.lookup(key)[0] if key else None

    def error(self, key: Optional[str]) -> Optional[dict]:
        """The terminal error descriptor of ``key`` (or ``None``)."""
        with self._lock:
            entry = self._jobs.get(key)
            return None if entry is None else entry.error

    def job(self, key: Optional[str]) -> dict:
        """Status, attempt count and current worker of ``key``."""
        with self._lock:
            entry = self._jobs.get(key)
            if entry is None:
                return {"key": key, "status": None}
            self._expire([entry])
            return {
                "key": key,
                "status": entry.status,
                "attempts": entry.attempts,
                "worker": entry.worker,
            }

    def counts(self) -> Dict[str, int]:
        """Number of jobs per status."""
        with self._lock:
            counts: Dict[str, int] = {}
            for entry in self._jobs.values():
                counts[entry.status] = counts.get(entry.status, 0) + 1
            return counts

    def status(self) -> dict:
        """Queue, cache and telemetry summary."""
        self.expire()
        return {
            "telemetry_seq": self.telemetry.last_seq,
            "jobs": self.counts(),
            "cache": {
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            },
            "lease_timeout": self.lease_timeout,
        }

    def until_ready(self) -> Optional[float]:
        """Seconds until the next pending job may be leased (``None``: none pending)."""
        with self._lock:
            ready = [e.ready_at for e in self._jobs.values() if e.status == "pending"]
            return None if not ready else max(0.0, min(ready) - self._clock())

    def until_expiry(self) -> Optional[float]:
        """Seconds until the next live lease expires (``None``: none can)."""
        with self._lock:
            expiries = [
                e.expires_at
                for e in self._jobs.values()
                if e.status == "leased" and e.expires_at < math.inf
            ]
            return None if not expiries else max(0.0, min(expiries) - self._clock())

    # ------------------------------------------------------------------ #
    # Internals (called with the lock held)
    # ------------------------------------------------------------------ #

    def _deadline(self, now: float) -> float:
        return math.inf if self.lease_timeout is None else now + self.lease_timeout

    def _expire(self, entries: Iterable[_Entry]) -> float:
        """Revoke the leases among ``entries`` past their deadline; returns the clock."""
        now = self._clock()
        for entry in entries:
            if entry.status != "leased" or now <= entry.expires_at:
                continue
            error = ShardTimeoutError(
                f"lease {entry.lease_id} on job {entry.record.key[:12]} "
                f"(worker {entry.worker}, attempt {entry.attempts}) expired "
                f"after {self.lease_timeout}s without a heartbeat",
                elapsed=now - entry.leased_at,
                kind="lease",
            )
            self._triage(entry, error, describe_error(error), entry.worker)
        return now

    def _live(self, key: str, lease_id: Optional[str]) -> Optional[_Entry]:
        """The entry of ``key`` if ``lease_id`` is its live lease (only it is expired)."""
        entry = self._jobs.get(key)
        if entry is None:
            return None
        self._expire([entry])
        if entry.status != "leased" or entry.lease_id != lease_id:
            return None
        return entry

    def _triage(
        self,
        entry: _Entry,
        error: BaseException,
        descriptor: dict,
        worker: Optional[str],
    ) -> str:
        """The one retry decision: re-queue after backoff, or fail for good."""
        attempt = entry.attempts
        entry.lease_id = None
        entry.worker = None
        if self.retry.should_retry(error, attempt):
            entry.status = "pending"
            entry.ready_at = self._clock() + self.retry.delay_before(
                attempt + 1, entry.record.key
            )
            event = "retried"
        else:
            entry.status = "failed"
            entry.error = descriptor
            event = "failed"
        self.telemetry.append(
            event,
            entry.record.key,
            kind=entry.record.kind,
            worker=worker,
            attempt=attempt,
            error_type=descriptor.get("type"),
            message=descriptor.get("message"),
        )
        return event


__all__ = ["JobQueue"]
