"""Remote worker service: HTTP job queue, streaming telemetry, result cache.

The remote layer distributes the crash-safe orchestrator across machines
with nothing but the standard library:

* :class:`~repro.service.remote.server.JobQueueServer` — the HTTP
  transport of the :class:`~repro.service.queue.JobQueue` core (enqueue /
  lease / heartbeat / complete / fail, one queue call per endpoint) plus
  an SSE telemetry stream, with a shared content-keyed result cache
  (:class:`~repro.service.remote.cache.ResultCache`) in front of the
  checkpoint journal;
* :func:`~repro.service.remote.worker.run_worker` — the worker agent
  (``python -m repro.service.worker --url ...``) that leases jobs, runs
  them through the same shard runners as the multiprocessing route, and
  heartbeats while they compute;
* :class:`~repro.service.remote.client.RemoteDispatch` — the coordinator
  side, engaged through ``run_study_service(remote=RemoteConfig(...))``;
* ``python -m repro.service.status --url ...`` — a live tail of the
  telemetry stream.

All wire records are versioned canonical-JSON (see
:mod:`repro.service.remote.protocol`); unknown ``__type__`` or newer
``version`` headers are rejected loudly.
"""

from repro.service.remote.cache import ResultCache
from repro.service.remote.client import RemoteDispatch, run_remote
from repro.service.remote.protocol import (
    CacheHitRecord,
    JobRecord,
    LeaseRecord,
    RemoteConfig,
    TelemetryRecord,
    as_remote_config,
)
from repro.service.remote.server import JobQueueServer
from repro.service.remote.telemetry import TelemetryLog, iter_sse_events, sse_encode
from repro.service.remote.worker import run_worker

__all__ = [
    "CacheHitRecord",
    "JobQueueServer",
    "JobRecord",
    "LeaseRecord",
    "RemoteConfig",
    "RemoteDispatch",
    "ResultCache",
    "TelemetryLog",
    "TelemetryRecord",
    "as_remote_config",
    "iter_sse_events",
    "run_remote",
    "run_worker",
    "sse_encode",
]
