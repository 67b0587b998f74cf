"""The remote worker agent: lease, heartbeat, run, report, repeat.

``python -m repro.service.worker --url http://HOST:PORT`` (or the
equivalent :func:`run_worker` call) turns any machine that can import this
library into a shard worker.  The agent polls the queue server for leases,
runs each job through the *same* runners the local multiprocessing route
uses (:data:`repro.service.worker._RUNNERS` — study shards and sweep
rows), heartbeats on the lease's cadence from a daemon thread while the
shard computes, and posts the result (or a pickled error descriptor) back.

A worker that dies mid-shard simply stops heartbeating; the server expires
the lease after ``lease_timeout`` seconds and re-queues the job for the
next surviving worker.  The ``--kill-marker`` / ``--hang-marker`` flags
arm the same fault-injection markers the local worker honors (the marker
file is consumed, then the worker SIGKILLs itself or hangs without
heartbeats) — they exist for the crash tests and the CI smoke job.
"""

from __future__ import annotations

import argparse
import os
import threading
import time
from typing import Optional

from repro.exceptions import RemoteServiceError
from repro.service.remote.protocol import JobRecord, LeaseRecord, http_json
from repro.service.worker import _maybe_trigger_markers, _run_job


def run_worker(
    url: str,
    *,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.2,
    stop_when_idle: bool = False,
    max_jobs: Optional[int] = None,
    kill_marker: Optional[str] = None,
    hang_marker: Optional[str] = None,
    request_timeout: float = 10.0,
    stop_event: Optional[threading.Event] = None,
) -> int:
    """Poll ``url`` for leases and run jobs until told to stop.

    Returns the number of jobs this worker *completed* (failures and
    cache-served jobs don't count).  ``stop_when_idle=True`` exits once the
    server reports no pending and no leased jobs; ``max_jobs`` bounds the
    completions; ``stop_event`` allows an embedding thread to interrupt the
    poll loop.
    """
    url = url.rstrip("/")
    worker = worker_id or f"worker-{os.getpid()}"
    markers = {"kill_marker": kill_marker, "hang_marker": hang_marker}
    completed = 0
    while stop_event is None or not stop_event.is_set():
        answer = http_json(f"{url}/lease", {"worker": worker}, timeout=request_timeout)
        if answer.get("lease") is None:
            if (
                stop_when_idle
                and answer.get("pending", 0) == 0
                and answer.get("leased", 0) == 0
            ):
                return completed
            time.sleep(poll_interval)
            continue
        lease = LeaseRecord.from_dict(answer["lease"])
        job = JobRecord.from_dict(answer["job"])
        # Fault-injection markers fire after the lease is claimed and before
        # any heartbeat: the server sees a worker that leased a shard and
        # went silent, which is exactly the failure being simulated.
        _maybe_trigger_markers(markers)

        def _beat() -> bool:
            try:
                reply = http_json(
                    f"{url}/heartbeat",
                    {"key": lease.key, "lease_id": lease.lease_id},
                    timeout=request_timeout,
                )
            except RemoteServiceError:
                return True  # transient; the next beat may get through
            return bool(reply.get("ok"))  # revoked: the job is someone else's

        tag, outcome = _run_job(
            job.kind,
            job.body,
            max(float(lease.heartbeat_interval), 0.05),
            _beat,
        )
        report = {"key": lease.key, "lease_id": lease.lease_id, "worker": worker}
        if tag == "error":
            report["error"] = outcome
            http_json(f"{url}/fail", report, timeout=request_timeout)
            continue
        report["result"] = outcome
        http_json(f"{url}/complete", report, timeout=request_timeout)
        completed += 1
        if max_jobs is not None and completed >= max_jobs:
            return completed
    return completed


def main(argv=None) -> int:
    """CLI entry point, also reachable as ``python -m repro.service.worker``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="Run a remote shard worker against a job-queue server.",
    )
    parser.add_argument("--url", required=True, help="queue server base URL")
    parser.add_argument("--worker-id", default=None)
    parser.add_argument("--poll", type=float, default=0.2, dest="poll_interval")
    parser.add_argument(
        "--once", action="store_true", help="exit after completing one job"
    )
    parser.add_argument(
        "--stop-when-idle",
        action="store_true",
        help="exit when the server reports an empty queue",
    )
    parser.add_argument("--kill-marker", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--hang-marker", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--request-timeout", type=float, default=10.0)
    args = parser.parse_args(argv)

    completed = run_worker(
        args.url,
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        stop_when_idle=args.stop_when_idle,
        max_jobs=1 if args.once else None,
        kill_marker=args.kill_marker,
        hang_marker=args.hang_marker,
        request_timeout=args.request_timeout,
    )
    print(f"worker exiting after {completed} completed job(s)", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = ["main", "run_worker"]
