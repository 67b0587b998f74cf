"""Wire records and HTTP plumbing of the remote job-queue service.

Everything that crosses the coordinator/server/worker HTTP boundary is one
of four **versioned canonical-JSON records**, following the same format
contract as the campaign payloads (ROADMAP "reject unknown versions
loudly"): every record carries ``__type__`` and ``version`` headers, and
decoding a payload with an unknown type raises
:class:`~repro.exceptions.SerializationError` while a newer version raises
:class:`~repro.exceptions.UnsupportedVersionError` naming the record type.

* :class:`JobRecord` (``remote-job`` v1) — one content-keyed shard job, the
  exact ``{"kind", "body"}`` payload the local orchestrator ships to its
  ``multiprocessing`` workers, plus the key the body hashes to;
* :class:`LeaseRecord` (``remote-lease`` v1) — a bounded claim on a job:
  worker id, attempt number, lease token, and the heartbeat/expiry budgets
  the worker must honor;
* :class:`TelemetryRecord` (``remote-telemetry`` v1) — one shard lifecycle
  event (``enqueued``/``leased``/``completed``/``failed``/``retried``/
  ``cache-hit``) with worker id, attempt and timing, streamed over the SSE
  endpoint;
* :class:`CacheHitRecord` (``remote-cache-hit`` v1) — the server's answer
  when an enqueued job's key is already in the shared result cache: the
  job completes instantly, no worker runs.

:class:`RemoteConfig` is the coordinator-side handle passed as
``run_study_service(remote=...)``; :func:`http_json` is the one HTTP
client helper every remote component uses (stdlib ``urllib`` only).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from typing import Any, ClassVar, Dict, Optional

from repro.exceptions import ConfigError, RemoteServiceError
from repro.service.serialization import _check_header

JOB_TYPE = "remote-job"
LEASE_TYPE = "remote-lease"
TELEMETRY_TYPE = "remote-telemetry"
CACHE_HIT_TYPE = "remote-cache-hit"

#: Every shard lifecycle event the telemetry stream may carry.
TELEMETRY_EVENTS = (
    "enqueued",
    "leased",
    "completed",
    "failed",
    "retried",
    "cache-hit",
)


class _WireRecord:
    """The codec every wire record shares.

    ``to_dict`` writes the ``__type__``/``version`` headers, then the
    dataclass fields in declaration order; ``from_dict`` checks the headers
    and requires every field without a default.
    """

    TYPE: ClassVar[str]

    def to_dict(self) -> dict:
        payload = {"__type__": self.TYPE, "version": 1}
        for field in fields(self):
            payload[field.name] = getattr(self, field.name)
        return payload

    @classmethod
    def from_dict(cls, payload: dict):
        _check_header(payload, cls.TYPE)
        return cls(
            **{
                field.name: (
                    payload[field.name]
                    if field.default is MISSING
                    else payload.get(field.name, field.default)
                )
                for field in fields(cls)
            }
        )


@dataclass(frozen=True)
class JobRecord(_WireRecord):
    """One content-keyed job as it travels to (and from) the queue server."""

    TYPE: ClassVar[str] = JOB_TYPE
    key: str
    kind: str
    body: Dict[str, Any]


@dataclass(frozen=True)
class LeaseRecord(_WireRecord):
    """A worker's bounded claim on one job.

    ``lease_id`` authenticates heartbeats and completions for this attempt;
    ``expires_in`` is the seconds of heartbeat silence after which the
    server revokes the lease and re-queues the job (transient, per
    :func:`~repro.service.retry.is_transient_failure` semantics).
    """

    TYPE: ClassVar[str] = LEASE_TYPE
    key: str
    lease_id: str
    worker: str
    attempt: int
    heartbeat_interval: float
    expires_in: float


@dataclass(frozen=True)
class TelemetryRecord(_WireRecord):
    """One shard lifecycle event in the server's telemetry stream."""

    TYPE: ClassVar[str] = TELEMETRY_TYPE
    seq: int
    event: str
    key: str
    kind: Optional[str] = None
    worker: Optional[str] = None
    attempt: Optional[int] = None
    elapsed: Optional[float] = None
    error_type: Optional[str] = None
    message: Optional[str] = None
    timestamp: Optional[float] = None


@dataclass(frozen=True)
class CacheHitRecord(_WireRecord):
    """The server's answer when an enqueued job is already in the cache."""

    TYPE: ClassVar[str] = CACHE_HIT_TYPE
    key: str
    kind: str
    source: str  # "memory" or "journal"


@dataclass(frozen=True)
class RemoteConfig:
    """Coordinator-side configuration of a remote study route.

    Pass as ``run_study_service(remote=RemoteConfig(url=...))`` (a bare URL
    string is promoted to a default config).  Retry/lease policy lives on
    the *server* — the coordinator only needs to know where the queue is
    and how patiently to wait.

    Attributes
    ----------
    url:
        Base URL of the job-queue server, e.g. ``"http://127.0.0.1:8737"``.
    request_timeout:
        Per-HTTP-request timeout in seconds.
    poll_interval:
        Fallback polling cadence (seconds) used to double-check pending
        jobs if the telemetry stream goes quiet.
    job_timeout:
        Overall budget for the whole remote dispatch (``None`` = wait
        forever); guards against a queue with no live workers.
    """

    url: str
    request_timeout: float = 10.0
    poll_interval: float = 2.0
    job_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.url, str) or not self.url.startswith(("http://", "https://")):
            raise ConfigError(
                f"RemoteConfig.url must be an http(s) URL, got {self.url!r}"
            )
        object.__setattr__(self, "url", self.url.rstrip("/"))


def as_remote_config(remote) -> RemoteConfig:
    """Promote a URL string to a :class:`RemoteConfig` (configs pass through)."""
    if isinstance(remote, RemoteConfig):
        return remote
    if isinstance(remote, str):
        return RemoteConfig(url=remote)
    raise ConfigError(
        f"remote must be a RemoteConfig or a server URL, got {type(remote).__name__}"
    )


def http_json(
    url: str,
    payload: Optional[dict] = None,
    *,
    timeout: float = 10.0,
) -> dict:
    """One JSON round-trip with the queue server (POST if ``payload`` else GET).

    Raises :class:`~repro.exceptions.RemoteServiceError` on connection
    failures, non-2xx statuses, and non-JSON responses, carrying the HTTP
    status when one was received.
    """
    # Imported here: the local pipe route imports this module for its
    # records, and urllib.request would load http.client for it.
    import urllib.error
    import urllib.request

    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            text = response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            detail = exc.read().decode("utf-8", "replace")[:500]
        except Exception:
            pass
        raise RemoteServiceError(
            f"{url} answered HTTP {exc.code}: {detail or exc.reason}",
            status=exc.code,
        ) from exc
    except OSError as exc:  # URLError, ConnectionRefusedError, timeouts
        raise RemoteServiceError(f"cannot reach {url}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise RemoteServiceError(f"{url} returned non-JSON: {text[:200]!r}") from exc


__all__ = [
    "CACHE_HIT_TYPE",
    "CacheHitRecord",
    "JOB_TYPE",
    "JobRecord",
    "LEASE_TYPE",
    "LeaseRecord",
    "RemoteConfig",
    "TELEMETRY_EVENTS",
    "TELEMETRY_TYPE",
    "TelemetryRecord",
    "as_remote_config",
    "http_json",
]
