"""Shard worker slot: runs job after job, reports results, proves liveness.

A *slot* is one persistent worker process of the local pool
(``repro.service.orchestrator``).  It loops over one duplex pipe: it
receives a *job payload* — ``{"kind", "body", "service"}`` where ``body``
is the content-hashed job description and ``service`` carries the
orchestration envelope (job key, lease id, heartbeat interval) — runs it,
and answers on the same pipe.  Every message quotes the job's lease, so the
job queue can tell a live attempt from a revoked one:

* ``("heartbeat", key, lease_id)`` every ``heartbeat_interval`` seconds from
  a daemon thread, so the orchestrator can distinguish a *slow* shard from a
  *hung* one;
* ``("result", key, lease_id, result_payload)`` on success — the payload is
  the JSON-safe encoding of the shard's :class:`~repro.api.StudyResult` (or
  sweep row), ready for the checkpoint journal;
* ``("error", key, lease_id, descriptor)`` on failure — the descriptor
  carries the pickled exception (the structured exception types round-trip
  with their diagnostic fields intact) plus plain-text type/message/
  traceback fallbacks for exceptions that refuse to pickle.

The heartbeat thread is joined before the result or error is sent, so no
heartbeat of a job arrives after its outcome.  A ``None`` payload, an
end-of-file on the pipe or the death of the parent process ends the slot.
A slot killed by a signal sends nothing; the orchestrator sees its process
sentinel and classifies the death as transient.

The ``service`` section may carry *fault-injection markers* (used by the
crash tests and the CI smoke job): ``kill_marker`` names a file whose
existence makes the worker remove the file and ``SIGKILL`` itself before
doing any work; ``hang_marker`` likewise, but the worker sleeps forever
without ever heartbeating.  Both fire **before** the heartbeat thread
starts and consume their marker file, so the retry attempt runs clean.
"""

from __future__ import annotations

import base64
import os
import pickle
import signal
import threading
import time
import traceback
from typing import Any, Callable, Dict, Optional, Tuple

from repro.exceptions import RemoteServiceError, ServiceError


def _maybe_trigger_markers(markers: Dict[str, Any]) -> None:
    kill_marker = markers.get("kill_marker")
    if kill_marker and os.path.exists(kill_marker):
        os.remove(kill_marker)
        os.kill(os.getpid(), signal.SIGKILL)
    hang_marker = markers.get("hang_marker")
    if hang_marker and os.path.exists(hang_marker):
        os.remove(hang_marker)
        while True:  # pragma: no cover - killed by the orchestrator
            time.sleep(3600.0)


def describe_error(error: BaseException) -> Dict[str, Any]:
    """A queue-safe descriptor of a worker-side exception.

    The exception itself travels pickled (the library's structured
    exceptions define ``__reduce__`` so their keyword-only diagnostic
    fields survive); type name, message and traceback travel as plain
    strings so an unpicklable exception still produces a useful failure.
    """
    try:
        pickled = base64.b64encode(pickle.dumps(error)).decode("ascii")
    except Exception:
        pickled = None
    return {
        "type": type(error).__name__,
        "message": str(error),
        "traceback": "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        ),
        "pickled": pickled,
    }


def error_from_descriptor(descriptor: Dict[str, Any]) -> BaseException:
    """Rebuild the worker-side exception (or a ``ServiceError`` stand-in)."""
    pickled = descriptor.get("pickled")
    if pickled is not None:
        try:
            error = pickle.loads(base64.b64decode(pickled))
            if isinstance(error, BaseException):
                return error
        except Exception:
            pass
    return ServiceError(
        f"worker failed with {descriptor.get('type')}: {descriptor.get('message')}"
    )


def _run_study_shard(body: Dict[str, Any]) -> Dict[str, Any]:
    from repro.api import CertifySpec, ScenarioSpec, Study
    from repro.config import EngineConfig
    from repro.faults import FaultPlan
    from repro.service.serialization import decode_algorithm, decode_model

    result = Study(
        algorithm=decode_algorithm(body["algorithm"]),
        scenario=ScenarioSpec.from_dict(body["scenario"]),
        model=None if body["model"] is None else decode_model(body["model"]),
        certify=(
            None if body["certify"] is None else CertifySpec.from_dict(body["certify"])
        ),
        faults=None if body["faults"] is None else FaultPlan.from_dict(body["faults"]),
        config=EngineConfig.from_dict(body["config"]),
    ).run()
    return result.to_dict()


def _run_sweep_row(body: Dict[str, Any]) -> Dict[str, Any]:
    from repro.analysis.experiments import run_certification_row
    from repro.config import EngineConfig

    with EngineConfig.from_dict(body["config"]):
        return {"row": run_certification_row(body["row"])}


_RUNNERS = {
    "study_shard": _run_study_shard,
    "sweep_row": _run_sweep_row,
}


def _run_job(
    kind: Optional[str],
    body: Dict[str, Any],
    interval: float,
    beat: Callable[[], bool],
) -> Tuple[str, Any]:
    """Run one job while a daemon thread calls ``beat()`` every ``interval`` s.

    The beats stop when the job ends (the thread is joined before this
    returns) or ``beat()`` returns ``False`` (the lease is gone).  Returns
    ``("result", payload)`` or ``("error", descriptor)``.  Only a remote
    queue server can hand out a ``kind`` this worker does not know, so that
    fails the job with a :class:`~repro.exceptions.RemoteServiceError`.
    Both the local pool's slots and the remote worker agent run jobs here.
    """
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(interval) and beat():
            pass

    beats = threading.Thread(target=_beat, daemon=True)
    beats.start()
    try:
        runner = _RUNNERS.get(kind)
        if runner is None:
            raise RemoteServiceError(f"unknown job kind {kind!r}")
        return "result", runner(body)
    except BaseException as error:
        return "error", describe_error(error)
    finally:
        stop.set()
        beats.join()


def slot_main(conn) -> None:
    """Process entry point of a pool slot: run job payloads from ``conn``."""
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    from repro.config import _ACTIVE_CONFIGS

    # A forked slot inherits the config stack of the thread that started
    # it; every job carries its merged config, and nothing else may leak in.
    _ACTIVE_CONFIGS.stack = []
    parent = parent_process()
    watched = [conn] if parent is None else [conn, parent.sentinel]
    while True:
        if parent is not None and parent.sentinel in wait(watched):
            return
        try:
            payload = conn.recv()
        except EOFError:
            return
        if payload is None:
            return
        service = payload["service"]
        key, lease_id = service["key"], service["lease_id"]
        _maybe_trigger_markers(service.get("markers") or {})

        def _beat() -> bool:
            try:
                conn.send(("heartbeat", key, lease_id))
            except OSError:  # the orchestrator is gone
                return False
            return True

        tag, outcome = _run_job(
            payload.get("kind"),
            payload["body"],
            float(service.get("heartbeat_interval", 0.2)),
            _beat,
        )
        try:
            conn.send((tag, key, lease_id, outcome))
        except OSError:
            return


def main(argv=None) -> int:
    """``python -m repro.service.worker --url ...`` runs a *remote* worker.

    The local pool starts its slots itself (:func:`slot_main` as the
    process target); this entry point is how a worker joins a
    :class:`~repro.service.remote.server.JobQueueServer` from any machine.
    """
    from repro.service.remote.worker import main as remote_main

    return remote_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "describe_error",
    "error_from_descriptor",
    "main",
    "slot_main",
]
