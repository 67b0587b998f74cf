"""Unified engine configuration: every execution knob in one declarative object.

The engines grew their tuning knobs one at a time: ``use_fast_path`` on
:func:`repro.execution.run_execution`, ``use_batch`` on the adversaries and
the :class:`~repro.core.valency.ValencyEstimator`, ``use_packed`` on the
α-relation kernels, and so on.  :class:`EngineConfig` consolidates all of
them into a single dataclass that doubles as an exception-safe,
*thread-local* context manager:

>>> from repro.config import EngineConfig
>>> with EngineConfig(use_fast_path=False, use_batch=False):
...     ...  # every engine entry point inside the block sees the overrides

Every field defaults to ``None``, meaning "inherit": from an enclosing
``EngineConfig`` block if one is active, else from the library default
(auto-select fast path, batched evaluation on, packed kernels on,
4096-scenario valency chunks).  The fields are consulted lazily by the engine
entry points through the ``resolve_*`` helpers below; leaving a block drops
its overrides, even when the body raises.  The masked reductions have no
setting: they choose their kernel from the input shape alone (see
:mod:`repro.algorithms.base`).

Configs nest: the innermost block wins field-by-field.  The active stack is
thread-local, so concurrent studies can run under different configurations
without racing each other.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

from repro.exceptions import ConfigError

#: Library defaults the ``resolve_*`` helpers fall back to when neither an
#: explicit argument nor an active config sets a field.
_DEFAULT_USE_BATCH = True
_DEFAULT_USE_PACKED = True
_DEFAULT_SCENARIO_CHUNK = 4096
_DEFAULT_SEED = 0


def _default_threads() -> int:
    """Library-default worker count: the ``REPRO_THREADS`` env var, else 1.

    Read per call (not cached at import) so test harnesses and CI matrix jobs
    can flip the default without re-importing the library.
    """
    raw = os.environ.get("REPRO_THREADS")
    if raw is None:
        return 1
    try:
        threads = int(raw)
    except ValueError as exc:
        raise ConfigError(f"REPRO_THREADS must be a positive int, got {raw!r}") from exc
    if threads < 1:
        raise ConfigError(f"REPRO_THREADS must be a positive int, got {raw!r}")
    return threads


#: Fields that participate in the innermost-wins merge.
_CONFIG_FIELDS = (
    "use_fast_path",
    "use_batch",
    "use_packed",
    "scenario_chunk",
    "seed",
    "threads",
)


@dataclass
class EngineConfig:
    """Declarative bundle of every engine execution knob.

    Attributes
    ----------
    use_fast_path:
        Tri-state fast-path selection of the round engine (``None`` =
        auto-select, ``False`` = per-agent reference path, ``True`` = require
        the vectorized path).  Consulted by every entry point that accepts a
        ``use_fast_path`` keyword when that keyword is left at ``None``.
    use_batch:
        Whether adversaries, ensemble runners and the valency estimator
        evaluate candidates/futures as stacked ensembles (default ``True``)
        or through their per-item reference loops (``False``).
    use_packed:
        Whether the α/β-relation analyses use the packed witness-tensor
        kernels (default ``True``) or the per-pair reference loops.
    scenario_chunk:
        Upper bound on the number of stacked scenarios per batched valency
        pass (default 4096).
    seed:
        The config-scoped RNG seed (default 0).  Every stochastic engine
        component — :class:`~repro.asynchrony.schedulers.RandomDelayScheduler`
        and the :class:`~repro.faults.FaultPlan` samplers — derives its
        streams from this single seed (via disjoint per-purpose seed tuples),
        so a faulted run is reproduced exactly by re-entering the same
        config, across threads included (the stack is thread-local).
    threads:
        Worker count of the parallel ensemble backend (default 1 = the serial
        path; the ``REPRO_THREADS`` env var overrides the library default).
        Values > 1 shard the scenario (B) axis of the ensemble runners and
        the valency certifier across a :class:`ThreadPoolExecutor` owned by
        the config block; results are bit-for-bit identical to the serial
        path (see :mod:`repro.execution.parallel`).  The pool is created
        lazily on first use and torn down when the block exits.
    """

    use_fast_path: Optional[bool] = None
    use_batch: Optional[bool] = None
    use_packed: Optional[bool] = None
    scenario_chunk: Optional[int] = None
    seed: Optional[int] = None
    threads: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("use_fast_path", "use_batch", "use_packed"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, bool):
                raise ConfigError(f"{name} must be True, False or None, got {value!r}")
        if self.scenario_chunk is not None and (
            isinstance(self.scenario_chunk, bool)
            or not isinstance(self.scenario_chunk, int)
            or self.scenario_chunk < 1
        ):
            raise ConfigError(
                f"scenario_chunk must be a positive int or None, got {self.scenario_chunk!r}"
            )
        if self.seed is not None and (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, int)
            or self.seed < 0
        ):
            raise ConfigError(
                f"seed must be a non-negative int or None, got {self.seed!r}"
            )
        if self.threads is not None and (
            isinstance(self.threads, bool)
            or not isinstance(self.threads, int)
            or self.threads < 1
        ):
            raise ConfigError(
                f"threads must be a positive int or None, got {self.threads!r}"
            )

    def to_dict(self) -> dict:
        """A versioned JSON-safe encoding; invert with :meth:`from_dict`.

        Every field is already JSON-native (``None``/bool/int/str), so the
        encoding is the field dict plus a type/version header — canonical
        for a given config, which lets the service layer content-hash it.
        """
        payload = {"__type__": "EngineConfig", "version": 2}
        for name in _CONFIG_FIELDS:
            payload[name] = getattr(self, name)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineConfig":
        from repro.exceptions import SerializationError

        if not isinstance(payload, dict) or payload.get("__type__") != "EngineConfig":
            raise SerializationError(
                f"expected an EngineConfig payload, got "
                f"__type__={payload.get('__type__') if isinstance(payload, dict) else payload!r}"
            )
        version = payload.get("version")
        if version != 2:
            raise SerializationError(
                f"EngineConfig payload version {version!r} is not supported "
                "(this library reads version 2)"
            )
        return cls(**{name: payload.get(name) for name in _CONFIG_FIELDS})

    # ------------------------------------------------------------------ #
    # Context-manager protocol
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "EngineConfig":
        _ACTIVE_CONFIGS.stack.append(_StackEntry(self))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        entry = _pop_entry_for(self)
        if entry is not None and entry.pool is not None:
            entry.pool.shutdown(wait=True)
            entry.pool = None
        return False


class _StackEntry:
    """One thread-local activation of a config block.

    Carries the entered config and — when the parallel backend runs inside
    the block — the block's lazily-created worker pool.  The pool lives on
    the stack entry rather than on the (possibly shared)
    :class:`EngineConfig` instance so that one config object entered
    concurrently from several threads gets one pool per activation, each
    torn down by its own ``__exit__``.
    """

    __slots__ = ("config", "pool", "pool_size")

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.pool: Optional[ThreadPoolExecutor] = None
        self.pool_size = 0


class _ConfigStack(threading.local):
    def __init__(self) -> None:
        self.stack: List[_StackEntry] = []


_ACTIVE_CONFIGS = _ConfigStack()


def _pop_entry_for(config: EngineConfig) -> Optional[_StackEntry]:
    """Remove and return this thread's innermost stack entry for ``config``."""
    stack = _ACTIVE_CONFIGS.stack
    for index in range(len(stack) - 1, -1, -1):
        if stack[index].config is config:
            entry = stack[index]
            del stack[index]
            return entry
    return None


def _acquire_worker_pool(threads: int) -> Optional[ThreadPoolExecutor]:
    """The active block's lazily-created worker pool for ``threads`` workers.

    Walks this thread's config stack for the innermost entry that sets
    ``threads`` (the entry whose value :func:`resolve_threads` returns) and
    creates its pool on first use; the pool is then reused by every parallel
    run inside the block and shut down by the block's ``__exit__``.  Returns
    ``None`` when no active block owns a matching pool — e.g. the count came
    from an explicit keyword or the ``REPRO_THREADS`` default — in which case
    the caller runs a transient pool for the duration of the call.
    """
    for entry in reversed(_ACTIVE_CONFIGS.stack):
        if entry.config.threads is not None:
            if entry.pool is None:
                entry.pool = ThreadPoolExecutor(
                    max_workers=threads, thread_name_prefix="repro-shard"
                )
                entry.pool_size = threads
            elif entry.pool_size != threads:
                return None
            return entry.pool
    return None


def _lookup(field_name: str):
    """Innermost non-None value of a field on the active config stack.

    Kept allocation-free: the resolvers run on hot engine paths (one call
    per ``apply_graph`` on the reference loops), so no merged dataclass is
    built here.
    """
    for entry in reversed(_ACTIVE_CONFIGS.stack):
        value = getattr(entry.config, field_name)
        if value is not None:
            return value
    return None


def current_engine_config() -> EngineConfig:
    """The merged view of the thread's active config blocks (innermost wins).

    Fields no active block sets stay ``None``; the ``resolve_*`` helpers map
    those to the library defaults.
    """
    merged = {}
    for entry in _ACTIVE_CONFIGS.stack:
        for name in _CONFIG_FIELDS:
            value = getattr(entry.config, name)
            if value is not None:
                merged[name] = value
    return EngineConfig(**merged)


def resolve_use_fast_path(explicit: Optional[bool] = None) -> Optional[bool]:
    """Fast-path tri-state: explicit argument, else active config, else auto (None)."""
    if explicit is not None:
        return explicit
    return _lookup("use_fast_path")


def resolve_use_batch(explicit: Optional[bool] = None) -> bool:
    """Batched-evaluation flag: explicit argument, else active config, else True."""
    if explicit is not None:
        return explicit
    configured = _lookup("use_batch")
    return _DEFAULT_USE_BATCH if configured is None else configured


def resolve_use_packed(explicit: Optional[bool] = None) -> bool:
    """Packed-kernel flag: explicit argument, else active config, else True."""
    if explicit is not None:
        return explicit
    configured = _lookup("use_packed")
    return _DEFAULT_USE_PACKED if configured is None else configured


def resolve_scenario_chunk(explicit: Optional[int] = None) -> int:
    """Valency scenario-chunk bound: explicit argument, else config, else 4096."""
    if explicit is not None:
        return explicit
    configured = _lookup("scenario_chunk")
    return _DEFAULT_SCENARIO_CHUNK if configured is None else configured


def resolve_seed(explicit: Optional[int] = None) -> int:
    """Config-scoped RNG seed: explicit argument, else active config, else 0."""
    if explicit is not None:
        return explicit
    configured = _lookup("seed")
    return _DEFAULT_SEED if configured is None else configured


def resolve_threads(explicit: Optional[int] = None) -> int:
    """Parallel worker count: explicit argument, else config, else REPRO_THREADS, else 1."""
    if explicit is not None:
        if (
            isinstance(explicit, bool)
            or not isinstance(explicit, int)
            or explicit < 1
        ):
            raise ConfigError(f"threads must be a positive int or None, got {explicit!r}")
        return explicit
    configured = _lookup("threads")
    return _default_threads() if configured is None else configured


__all__ = [
    "EngineConfig",
    "current_engine_config",
    "resolve_scenario_chunk",
    "resolve_seed",
    "resolve_threads",
    "resolve_use_batch",
    "resolve_use_fast_path",
    "resolve_use_packed",
]
