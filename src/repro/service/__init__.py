"""Crash-safe study orchestration: sharded ensembles across worker processes.

The :class:`~repro.api.Study` facade is declarative — this package makes it
*serializable* and puts a crash-safe orchestrator in front of it:

* :mod:`repro.service.serialization` — versioned JSON codecs for every
  spec, plan, config and result, so studies cross process boundaries and
  results can be journaled;
* :mod:`repro.service.checkpoint` — an append-only on-disk journal of
  completed shard results keyed by content hash, for resume-after-crash
  and cross-study deduplication;
* :mod:`repro.service.retry` — bounded retries with exponential backoff
  and deterministic jitter, distinguishing transient failures (killed
  worker, timeout) from deterministic ones (fail fast);
* :mod:`repro.service.queue` — the :class:`~repro.service.queue.JobQueue`
  core owning every shard job's lifecycle (leases, heartbeats, expiry,
  retry triage, first-result-wins, result cache, telemetry) for both the
  local and the remote route;
* :mod:`repro.service.worker` — the worker slot loop of the local pool
  (persistent processes that run job after job over one pipe), with
  liveness heartbeats and structured error reporting;
* :mod:`repro.service.orchestrator` — :func:`run_study_service` and
  :func:`run_certification_sweep_service`, which shard the ``(B, n, d)``
  scenario axis (or the sweep's grid rows) across a persistent pool of
  worker processes, reused by every study, and merge the results
  deterministically: the orchestrated result is bit-for-bit identical to
  the single-process run regardless of worker count, completion order, or
  crash/resume cycles;
* :mod:`repro.service.remote` — the distributed route: an HTTP server
  over the same job queue with streamed telemetry, the remote worker agent
  (``python -m repro.service.worker --url ...``), a shared content-keyed
  result cache, and the ``remote=RemoteConfig(...)`` coordinator side of
  :func:`run_study_service`.
"""

from repro.service.checkpoint import CheckpointJournal, content_key
from repro.service.orchestrator import (
    PartialStudyResult,
    ShardFailure,
    ShardRecord,
    run_certification_sweep_service,
    run_study_service,
)
from repro.service.retry import RetryPolicy, is_transient_failure

#: Names of the remote route, imported on first use: the route pulls in
#: ``http.server`` and ``http.client``, which a local study never needs.
_REMOTE_NAMES = frozenset({"JobQueueServer", "RemoteConfig", "ResultCache", "run_worker"})


def __getattr__(name: str):
    if name in _REMOTE_NAMES:
        from repro.service import remote

        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CheckpointJournal",
    "JobQueueServer",
    "PartialStudyResult",
    "RemoteConfig",
    "ResultCache",
    "RetryPolicy",
    "ShardFailure",
    "ShardRecord",
    "content_key",
    "is_transient_failure",
    "run_certification_sweep_service",
    "run_study_service",
    "run_worker",
]
