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

import importlib

#: Where each public name lives.  Names resolve on first use, so importing
#: one submodule (the job queue needs the cache, protocol and telemetry)
#: does not import the HTTP server and client modules.
_SUBMODULES = {
    "CacheHitRecord": "protocol",
    "JobQueueServer": "server",
    "JobRecord": "protocol",
    "LeaseRecord": "protocol",
    "RemoteConfig": "protocol",
    "RemoteDispatch": "client",
    "ResultCache": "cache",
    "TelemetryLog": "telemetry",
    "TelemetryRecord": "protocol",
    "as_remote_config": "protocol",
    "iter_sse_events": "telemetry",
    "run_remote": "client",
    "run_worker": "worker",
    "sse_encode": "telemetry",
}


def __getattr__(name: str):
    if name in _SUBMODULES:
        module = importlib.import_module(f"{__name__}.{_SUBMODULES[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(_SUBMODULES)
