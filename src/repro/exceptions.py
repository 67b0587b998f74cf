"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """Raised when a communication graph is malformed or misused.

    Typical causes are missing self-loops, out-of-range agent identifiers, or
    combining graphs defined on different agent sets.
    """


class ModelError(ReproError):
    """Raised when a network model is malformed or misused.

    Typical causes are empty models, mixing graphs with different numbers of
    agents, or querying a model for a family it does not contain.
    """


class ExecutionError(ReproError):
    """Raised when an execution cannot be performed as requested.

    Typical causes are mismatched initial-value shapes, running zero agents,
    or using a communication pattern that yields graphs of the wrong size.
    """


class EnsembleShapeError(ExecutionError):
    """Raised when stacked ensemble inputs have inconsistent shapes.

    The batched engines operate on ``(B, n, d)`` value tensors, ``(C, n, n)``
    candidate adjacency stacks and per-scenario plan collections; this error
    names the offending shapes instead of letting NumPy raise an opaque
    broadcast error deep inside a masked reduction.

    Attributes
    ----------
    expected / actual:
        The shape (or shape description) the engine required and the one it
        received, when the raise site can name them (``None`` otherwise).
        Preserved across process boundaries — see :meth:`__reduce__`.
    """

    def __init__(self, message: str, *, expected=None, actual=None) -> None:
        super().__init__(message)
        self.expected = expected
        self.actual = actual

    def __reduce__(self):
        # The default Exception reduction replays only ``self.args``; the
        # keyword-only diagnostics would vanish when a worker's error is
        # pickled back to the orchestrator.
        return (_rebuild_ensemble_shape_error, (self.args[0], self.expected, self.actual))


def _rebuild_ensemble_shape_error(message, expected, actual):
    return EnsembleShapeError(message, expected=expected, actual=actual)


class ConfigError(ReproError):
    """Raised when an :class:`~repro.config.EngineConfig` or a
    :class:`~repro.api.Study` is declared inconsistently.

    Typical causes are invalid knob values, a scenario specification with
    zero or several communication sources, or requesting certification
    without a network model.
    """


class NonFiniteValueError(ConfigError):
    """Raised when a :class:`~repro.api.Study` gets NaN or infinite initial values.

    One non-finite agent would spread to every output within a few rounds,
    so the facade rejects it at the boundary.

    Attributes
    ----------
    scenario / agent / coordinate:
        Where the first non-finite value sits (``scenario`` is ``None`` for
        a single-scenario study).  Preserved across process boundaries.
    """

    def __init__(
        self, message: str, *, scenario=None, agent=None, coordinate=None
    ) -> None:
        super().__init__(message)
        self.scenario = scenario
        self.agent = agent
        self.coordinate = coordinate

    def __reduce__(self):
        return (
            _rebuild_non_finite_value_error,
            (self.args[0], self.scenario, self.agent, self.coordinate),
        )


def _rebuild_non_finite_value_error(message, scenario, agent, coordinate):
    return NonFiniteValueError(
        message, scenario=scenario, agent=agent, coordinate=coordinate
    )


class AlgorithmError(ReproError):
    """Raised when an algorithm is configured or driven incorrectly.

    Typical causes are invalid weights for averaging algorithms, deciding
    twice in an approximate-consensus wrapper, or using an algorithm outside
    the network-model family it supports.
    """


class SolvabilityError(ReproError):
    """Raised when a solvability analysis cannot be carried out."""


class AsynchronyError(ReproError):
    """Raised by the asynchronous message-passing simulator.

    Typical causes are scheduling messages with non-positive delays,
    delivering messages to crashed agents, exceeding the crash budget, or a
    fault schedule starving a round-based agent of its ``n - f`` quorum.

    Attributes
    ----------
    agent / round_number / time:
        The agent, (1-based) round and simulation time of the failure, when
        the raise site can name them (``None`` otherwise).  Preserved across
        process boundaries — see :meth:`__reduce__`.
    """

    def __init__(
        self, message: str, *, agent=None, round_number=None, time=None
    ) -> None:
        super().__init__(message)
        self.agent = agent
        self.round_number = round_number
        self.time = time

    def __reduce__(self):
        return (
            _rebuild_asynchrony_error,
            (self.args[0], self.agent, self.round_number, self.time),
        )


def _rebuild_asynchrony_error(message, agent, round_number, time):
    return AsynchronyError(message, agent=agent, round_number=round_number, time=time)


class FaultModelError(ExecutionError):
    """Raised when an injected fault pushes an effective graph outside ``N_A``.

    The crash network model ``N_A`` of Section 8.1 contains exactly the
    graphs in which every agent has at least ``n - f`` in-neighbors.  The
    batched fault path checks every realized effective communication graph
    against this invariant; a violation names the offending scenario, round
    and agent instead of silently running an execution the certification
    layer's crash-model guarantees no longer cover.

    Attributes
    ----------
    scenario:
        The ensemble scenario index of the violating graph (``None`` when
        the violation occurred outside an ensemble context).
    round_number:
        The 1-based round of the violating graph.
    agent:
        The agent whose effective in-degree fell below the quorum.
    in_degree / required:
        The realized in-degree and the required minimum ``n - f``.
    """

    def __init__(
        self,
        message: str,
        *,
        scenario=None,
        round_number=None,
        agent=None,
        in_degree=None,
        required=None,
    ) -> None:
        super().__init__(message)
        self.scenario = scenario
        self.round_number = round_number
        self.agent = agent
        self.in_degree = in_degree
        self.required = required

    def __reduce__(self):
        # The default Exception reduction replays only ``self.args`` (the
        # message), so the diagnostic fields would be silently dropped when
        # the error crosses a process boundary (multiprocessing pickles
        # worker exceptions back to the orchestrator).
        kwargs = {
            "scenario": self.scenario,
            "round_number": self.round_number,
            "agent": self.agent,
            "in_degree": self.in_degree,
            "required": self.required,
        }
        return (_rebuild_fault_model_error, (self.args[0], kwargs))


def _rebuild_fault_model_error(message, kwargs):
    return FaultModelError(message, **kwargs)


class ServiceError(ReproError):
    """Raised by the crash-safe study orchestrator (:mod:`repro.service`).

    Typical causes are shards exhausting their retry budget in strict mode,
    malformed checkpoint journals, or dispatching a job kind no worker
    runner is registered for.
    """


class SerializationError(ServiceError):
    """Raised when a spec, plan, config or result cannot cross a process
    boundary as JSON.

    Typical causes are algorithms built from arbitrary callables
    (``CallableWeightAveraging``), adversary-routed studies (replay the
    committed schedules as a ``graphs=`` study instead), or payloads written
    by a newer serialization schema version.
    """


class UnsupportedVersionError(SerializationError):
    """Raised when a persisted record's ``version`` is newer than supported.

    The format contract (ROADMAP "campaign format contracts") is to reject
    unknown versions loudly rather than guess: a journal, cache or protocol
    payload written by a newer library must fail with an error that names
    the record type and both versions, never be half-decoded.

    Attributes
    ----------
    record_type:
        The ``__type__`` (or journal record kind) of the offending payload.
    version / supported:
        The version the record carries and the newest one this library reads.
    """

    def __init__(
        self, message: str, *, record_type=None, version=None, supported=None
    ) -> None:
        super().__init__(message)
        self.record_type = record_type
        self.version = version
        self.supported = supported

    def __reduce__(self):
        return (
            _rebuild_unsupported_version_error,
            (self.args[0], self.record_type, self.version, self.supported),
        )


def _rebuild_unsupported_version_error(message, record_type, version, supported):
    return UnsupportedVersionError(
        message, record_type=record_type, version=version, supported=supported
    )


class RemoteServiceError(ServiceError):
    """Raised by the remote job-queue service (:mod:`repro.service.remote`).

    Typical causes are an unreachable queue server, a malformed HTTP
    payload, a lease or completion rejected by the server, or a job that
    the server reports as terminally failed.

    Attributes
    ----------
    status:
        The HTTP status code of the failing request (``None`` when the
        failure happened before a response, e.g. a connection refusal).
    """

    def __init__(self, message: str, *, status=None) -> None:
        super().__init__(message)
        self.status = status

    def __reduce__(self):
        return (_rebuild_remote_service_error, (self.args[0], self.status))


def _rebuild_remote_service_error(message, status):
    return RemoteServiceError(message, status=status)


class WorkerCrashError(ServiceError):
    """Raised when a shard worker process dies without reporting a result.

    Carries the worker's exit code (negative values are the signal number,
    e.g. ``-9`` for SIGKILL).  Classified as *transient* by the retry
    policy: a killed worker says nothing deterministic about the shard.
    """

    def __init__(self, message: str, *, exitcode=None) -> None:
        super().__init__(message)
        self.exitcode = exitcode

    def __reduce__(self):
        return (_rebuild_worker_crash_error, (self.args[0], self.exitcode))


def _rebuild_worker_crash_error(message, exitcode):
    return WorkerCrashError(message, exitcode=exitcode)


class ShardTimeoutError(ServiceError):
    """Raised when a shard exceeds its wall-clock budget or stops heartbeating.

    Classified as *transient* by the retry policy.

    Attributes
    ----------
    elapsed:
        Seconds the shard had been running when it was killed.
    kind:
        ``"timeout"`` for a hard per-shard budget, ``"lease"`` for a
        worker whose heartbeats stopped long enough for the job queue to
        revoke its lease (local ``heartbeat_timeout`` or remote
        ``lease_timeout``).
    """

    def __init__(self, message: str, *, elapsed=None, kind="timeout") -> None:
        super().__init__(message)
        self.elapsed = elapsed
        self.kind = kind

    def __reduce__(self):
        return (_rebuild_shard_timeout_error, (self.args[0], self.elapsed, self.kind))


def _rebuild_shard_timeout_error(message, elapsed, kind):
    return ShardTimeoutError(message, elapsed=elapsed, kind=kind)


class CampaignError(ServiceError):
    """Raised by the counterexample campaign service (:mod:`repro.campaign`).

    Typical causes are a registry audit finding an algorithm with no fuzz
    entry, a malformed corpus entry or failure artifact, or a replay whose
    re-execution does not reproduce the recorded divergence.
    """
