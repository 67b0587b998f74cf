"""The crash-safe study orchestrator: shard, dispatch, retry, merge.

:func:`run_study_service` mirrors the :class:`~repro.api.Study` front door
but executes the study as *shard jobs* across a pool of worker processes:

1. the ``(B, n, d)`` scenario axis is split into contiguous shards, each a
   self-contained serialized job (algorithm, sliced scenario, model,
   certification spec, ``scenario_base``-offset fault plan, and the
   **explicitly merged** engine config — so fork and spawn workers see the
   identical configuration);
2. jobs are keyed by a content hash and checked against the checkpoint
   journal first — a killed orchestrator resumes by re-running only the
   missing shards, and identical shards (within or across studies)
   deduplicate;
3. the remaining jobs go through one :class:`~repro.service.queue.JobQueue`
   — in process, with the pipe transport handing each lease to a slot of
   one persistent, module-wide worker pool, or behind a
   :class:`~repro.service.remote.server.JobQueueServer` with ``remote=`` —
   which owns every attempt: workers prove liveness through
   heartbeats on their lease; a worker killed by a signal, or one that
   exceeds its wall-clock or heartbeat budget, is classified as a
   *transient* failure and retried with exponential backoff, while
   deterministic engine failures (:class:`~repro.exceptions.FaultModelError`
   and friends) fail fast on the first attempt;
4. completed shards are journaled immediately (crash-durable) and streamed
   to the ``on_shard`` callback; the final merge concatenates the shard
   ensembles in scenario order, bit-for-bit identical to the single-process
   :class:`~repro.api.Study` run regardless of worker count, completion
   order, or crash/resume cycles.

With ``strict=True`` (default) an exhausted shard raises its underlying
error; ``strict=False`` degrades gracefully and always returns a
:class:`PartialStudyResult` whose ``failures`` list records every exhausted
shard.  :func:`run_certification_sweep_service` applies the same machinery
to the certification sweep's grid rows.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import (
    ConfigError,
    ServiceError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.service.checkpoint import CheckpointJournal, content_key
from repro.service.retry import RetryPolicy
from repro.service.worker import describe_error, error_from_descriptor, slot_main

if TYPE_CHECKING:
    from repro.service.remote.protocol import JobRecord, LeaseRecord


@dataclass(frozen=True)
class ShardRecord:
    """One completed shard: where its result came from and what it cost.

    ``source`` is ``"worker"`` for a freshly computed shard, ``"journal"``
    for a checkpoint replay (including in-run deduplication of identical
    shards).
    """

    shard: int
    key: str
    start: int
    stop: int
    attempts: int
    source: str
    elapsed: float


@dataclass(frozen=True)
class ShardFailure:
    """One exhausted shard: the error that ended it and how hard we tried."""

    shard: int
    key: str
    attempts: int
    error: BaseException
    error_type: str
    message: str
    traceback: Optional[str] = None


@dataclass
class PartialStudyResult:
    """Graceful-degradation result of a service run (``strict=False``).

    ``result`` is the fully merged result when every shard completed —
    a :class:`~repro.api.StudyResult` for :func:`run_study_service`, the
    sweep-row list for :func:`run_certification_sweep_service` — and
    ``None`` otherwise.  ``shards`` records every *completed* shard in
    scenario order; ``failures`` records every exhausted one.
    """

    result: Optional[Any]
    shards: List[ShardRecord] = field(default_factory=list)
    failures: List[ShardFailure] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        return (
            f"PartialStudyResult(complete={self.complete}, "
            f"shards={len(self.shards)}, failures={len(self.failures)})"
        )


# --------------------------------------------------------------------- #
# The coordinator book and the pipe transport
# --------------------------------------------------------------------- #


@dataclass
class _Job:
    """One content-keyed unit of work (possibly covering several shards)."""

    record: "JobRecord"
    start: int
    stop: int
    shards: List[int]

    @property
    def key(self) -> str:
        return self.record.key


def _make_jobs(entries) -> List[_Job]:
    """Key ``(kind, body, start, stop)`` shard entries by content.

    Entry ``i`` is shard ``i``; identical bodies fold into one job covering
    every shard index that shares it.
    """
    from repro.service.remote.protocol import JobRecord

    jobs: Dict[str, _Job] = {}
    for index, (kind, body, start, stop) in enumerate(entries):
        key = content_key(body)
        if key in jobs:
            jobs[key].shards.append(index)
        else:
            record = JobRecord(key=key, kind=kind, body=body)
            jobs[key] = _Job(record=record, start=start, stop=stop, shards=[index])
    return list(jobs.values())


class _ShardBook:
    """The coordinator's ledger, shared by the pipe and HTTP transports.

    It replays the journal, then settles every other job exactly once from
    its outcome in the job queue: a completed job is journaled, recorded
    and streamed to ``on_shard``; a failed one becomes a
    :class:`ShardFailure`.  A transport implements ``run(on_shard)`` and
    the ``_fetch_result(key)`` / ``_fetch_error(key)`` readers of its queue.
    """

    def __init__(
        self, jobs: List[_Job], *, journal: Optional[CheckpointJournal]
    ) -> None:
        self._jobs = {job.key: job for job in jobs}
        self._journal = journal
        self._on_shard: Optional[Callable[[ShardRecord], None]] = None
        self.pending: Dict[str, _Job] = {}
        self.results: Dict[str, Any] = {}
        self.records: Dict[str, ShardRecord] = {}
        self.failures: Dict[str, ShardFailure] = {}

    def _replay(self, on_shard: Optional[Callable[[ShardRecord], None]]) -> None:
        self._on_shard = on_shard
        for key, job in self._jobs.items():
            cached = None if self._journal is None else self._journal.get(key)
            if cached is None:
                self.pending[key] = job
            else:
                self.results[key] = cached
                self._record(job, "journal", attempts=0, elapsed=0.0)

    def _record(self, job: _Job, source: str, *, attempts: int, elapsed: float) -> None:
        record = ShardRecord(
            shard=job.shards[0],
            key=job.key,
            start=job.start,
            stop=job.stop,
            attempts=attempts,
            source=source,
            elapsed=elapsed,
        )
        self.records[job.key] = record
        if self._on_shard is not None:
            self._on_shard(record)

    def _settle(
        self,
        key: str,
        status: Optional[str],
        *,
        source: str = "worker",
        attempts: int = 0,
        elapsed: float = 0.0,
    ) -> None:
        """Settle a pending job whose queue status is completed or failed."""
        job = self.pending.get(key)
        if job is None or status not in ("completed", "failed"):
            return
        del self.pending[key]
        if status == "failed":
            descriptor = self._fetch_error(key) or {}
            error = error_from_descriptor(descriptor)
            self.failures[key] = ShardFailure(
                shard=job.shards[0],
                key=key,
                attempts=attempts,
                error=error,
                error_type=descriptor.get("type", type(error).__name__),
                message=descriptor.get("message", str(error)),
                traceback=descriptor.get("traceback"),
            )
            return
        result = self._fetch_result(key)
        self.results[key] = result
        if self._journal is not None:
            self._journal.put(key, result, kind=job.record.kind)
        self._record(job, source, attempts=attempts, elapsed=elapsed)

    def _observe(self, event) -> None:
        """Settle a job from one of the queue's telemetry records."""
        if event.event == "cache-hit":
            self._settle(event.key, "completed", source="cache")
        elif event.event in ("completed", "failed"):
            self._settle(
                event.key,
                event.event,
                attempts=event.attempt or 1,
                elapsed=event.elapsed or 0.0,
            )


class _Slot:
    """One persistent worker process of the pool and its end of the pipe.

    ``lease`` and ``started`` describe the job it runs (``None`` while idle).
    """

    def __init__(self, context, key) -> None:
        self.key = key
        self.conn, self._slot_end = context.Pipe()
        self.process = context.Process(
            target=slot_main, args=(self._slot_end,), daemon=True, name="repro-slot"
        )
        self.lease: Optional["LeaseRecord"] = None
        self.started = 0.0

    def start(self) -> None:
        self.process.start()
        self._slot_end.close()

    def kill(self) -> None:
        if self.process.pid is not None:
            self.process.kill()  # a no-op once it has exited
            self.process.join()
        self.conn.close()
        self._slot_end.close()


class _SlotPool:
    """Persistent worker slots shared by every pipe-transport run.

    Slots are started lazily, one per lease that finds no idle slot of its
    key (the start method, and ``REPRO_THREADS``, which a slot copies from
    the orchestrator's environment when it starts), and go back to the
    pool after a healthy job.  A slot that crashed, timed out or lost its
    lease is killed and discarded.  A lock guards the pool because several
    threads may run studies at once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: List[_Slot] = []
        self.slots: set = set()  # every live slot, idle or busy

    def acquire(self, context) -> _Slot:
        key = (context.get_start_method(), os.environ.get("REPRO_THREADS"))
        found, dead = None, []
        with self._lock:
            for index in range(len(self._idle) - 1, -1, -1):
                if self._idle[index].key == key:
                    slot = self._idle.pop(index)
                    if slot.process.exitcode is None:
                        found = slot
                        break
                    dead.append(slot)
        for slot in dead:
            self.discard(slot)
        return found if found is not None else self._start(context, key)

    def _start(self, context, key) -> _Slot:
        slot = _Slot(context, key)
        # Registered before the fork, so the child closes this end too.
        with self._lock:
            self.slots.add(slot)
        try:
            slot.start()
        except BaseException:
            self.discard(slot)
            raise
        return slot

    def release(self, slot: _Slot) -> None:
        slot.lease = None
        with self._lock:
            self._idle.append(slot)

    def discard(self, slot: _Slot) -> None:
        with self._lock:
            self.slots.discard(slot)
        slot.kill()

    def trim(self, keep: int) -> None:
        """Stop all but the ``keep`` most recently used idle slots."""
        with self._lock:
            cut = max(len(self._idle) - keep, 0)
            extra, self._idle = self._idle[:cut], self._idle[cut:]
            self.slots.difference_update(extra)
        _stop(extra)

    def close(self) -> None:
        with self._lock:
            slots = list(self.slots)
            self.slots.clear()
            self._idle.clear()
        _stop(slots)

    def pids(self) -> List[int]:
        with self._lock:
            return sorted(slot.process.pid for slot in self.slots if slot.process.pid)


def _stop(slots: List[_Slot], timeout: float = 1.0) -> None:
    """Ask ``slots`` to exit, then kill whichever is still up after ``timeout``."""
    for slot in slots:
        try:
            slot.conn.send(None)
        except OSError:
            pass
    deadline = time.monotonic() + timeout
    for slot in slots:
        slot.process.join(max(deadline - time.monotonic(), 0.0))
        slot.kill()


def _forget_pool() -> None:
    """In a forked child: drop the inherited pool and its pipe ends.

    Without this, a slot would keep the orchestrator's end of every older
    slot's pipe open, and those slots would never see end-of-file once the
    orchestrator dies.
    """
    global _POOL
    inherited, _POOL = _POOL, _SlotPool()
    for slot in inherited.slots:
        slot.conn.close()


_POOL = _SlotPool()
os.register_at_fork(after_in_child=_forget_pool)
atexit.register(lambda: _POOL.close())


class _Scheduler(_ShardBook):
    """Pipe transport: leases of an in-process queue, run on pooled slots.

    It leases up to ``workers`` jobs from a
    :class:`~repro.service.queue.JobQueue`, hands each lease to a slot of
    the module's persistent pool, forwards the slots' heartbeat/result/error
    messages to the queue, and kills a slot that died, whose lease the
    queue revoked or whose ``shard_timeout`` ran out.  Attempts, heartbeat expiry (the queue's
    lease timeout is ``heartbeat_timeout``) and retries are the queue's.
    It blocks on the running slots' pipes and process sentinels until one
    speaks or dies, or the next lease expiry, shard timeout or retry is due.
    """

    def __init__(
        self,
        jobs: List[_Job],
        *,
        workers: int,
        journal: Optional[CheckpointJournal],
        retry: Optional[RetryPolicy],
        shard_timeout: Optional[float],
        heartbeat_interval: float,
        heartbeat_timeout: Optional[float],
        start_method: Optional[str],
        fault_markers: Optional[Dict[int, Dict[str, str]]],
    ) -> None:
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ConfigError(f"workers must be a positive int, got {workers!r}")
        from repro.service.queue import JobQueue

        super().__init__(jobs, journal=journal)
        self._workers = workers
        self._shard_timeout = shard_timeout
        self._fault_markers = fault_markers or {}
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._context = multiprocessing.get_context(start_method)
        self._queue = JobQueue(
            retry=retry,
            lease_timeout=heartbeat_timeout,
            heartbeat_interval=heartbeat_interval,
        )

    def _fetch_result(self, key: str) -> dict:
        return self._queue.result(key)

    def _fetch_error(self, key: str) -> Optional[dict]:
        return self._queue.error(key)

    def run(self, on_shard: Optional[Callable[[ShardRecord], None]] = None) -> None:
        self._replay(on_shard)
        if not self.pending:
            return
        queue = self._queue
        for job in self.pending.values():
            queue.enqueue(job.record)
        running: Dict[str, _Slot] = {}  # by lease id
        seen = 0
        try:
            while self.pending:
                while len(running) < self._workers:
                    leased = queue.lease("local")
                    if leased is None:
                        break
                    slot = _POOL.acquire(self._context)
                    self._dispatch(slot, leased[0])
                    running[leased[0].lease_id] = slot
                self._wait(running)
                self._police(running)
                for event in queue.telemetry.since(seen):
                    seen = event.seq
                    self._observe(event)
        finally:
            for slot in running.values():
                _POOL.discard(slot)
            _POOL.trim(self._workers)

    def _dispatch(self, slot: _Slot, lease) -> None:
        job = self._jobs[lease.key]
        service = {
            "key": job.key,
            "lease_id": lease.lease_id,
            "heartbeat_interval": lease.heartbeat_interval,
        }
        markers = self._fault_markers.get(job.shards[0])
        if markers:
            service["markers"] = markers
        slot.lease, slot.started = lease, time.monotonic()
        try:
            slot.conn.send(
                {"kind": job.record.kind, "body": job.record.body, "service": service}
            )
        except OSError:
            pass  # the slot died; _police sees its exit

    def _timeout(self, running: Dict[str, _Slot]) -> Optional[float]:
        """Seconds until a retry, lease expiry or shard timeout is due."""
        due = []
        if len(running) < self._workers:
            due.append(self._queue.until_ready())
        if running:
            due.append(self._queue.until_expiry())
            if self._shard_timeout is not None:
                now = time.monotonic()
                due.extend(
                    slot.started + self._shard_timeout - now
                    for slot in running.values()
                )
        due = [seconds for seconds in due if seconds is not None]
        if not due:
            return None if running else 0.0
        return max(min(due), 0.0)

    def _wait(self, running: Dict[str, _Slot]) -> None:
        """Block until a slot speaks or dies, or something is due; forward."""
        from multiprocessing.connection import wait

        handles = {}
        for slot in running.values():
            handles[slot.conn] = handles[slot.process.sentinel] = slot
        ready = wait(list(handles), self._timeout(running))
        for slot in {handles[handle] for handle in ready}:
            self._forward(slot, running)

    def _forward(self, slot: _Slot, running: Dict[str, _Slot]) -> None:
        """Pass a running slot's messages to the job queue until its job ends."""
        current = slot.lease.lease_id
        while True:
            try:
                if not slot.conn.poll():
                    return
                tag, key, lease_id, *outcome = slot.conn.recv()
            except (EOFError, OSError):
                return  # the slot died; _police sees its exit
            if lease_id != current:
                continue  # a message of an earlier job
            if tag == "heartbeat":
                self._queue.heartbeat(key, lease_id)
                continue
            del running[lease_id]
            if tag == "result":
                self._queue.complete(key, lease_id, outcome[0])
            else:
                self._queue.fail(key, lease_id, outcome[0])
            _POOL.release(slot)
            return

    def _police(self, running: Dict[str, _Slot]) -> None:
        """Discard slots that died, lost their lease or overran."""
        now = time.monotonic()
        for lease_id, slot in list(running.items()):
            process, lease = slot.process, slot.lease
            label = f"worker for shard {self._jobs[lease.key].shards[0]}"
            if process.exitcode is not None:
                # It may have sent its result just before it exited.
                self._forward(slot, running)
                if lease_id not in running:
                    continue
                error = WorkerCrashError(
                    f"{label} (attempt {lease.attempt}) exited with code "
                    f"{process.exitcode} without reporting a result",
                    exitcode=process.exitcode,
                )
            elif not self._queue.holds(lease.key, lease_id):
                # Revoked: its heartbeats stopped.  The queue has triaged it.
                error = None
            elif (
                self._shard_timeout is not None
                and now - slot.started > self._shard_timeout
            ):
                error = ShardTimeoutError(
                    f"{label} (attempt {lease.attempt}) exceeded its timeout "
                    f"budget of {self._shard_timeout}s",
                    elapsed=now - slot.started,
                    kind="timeout",
                )
            else:
                continue
            del running[lease_id]
            _POOL.discard(slot)
            if error is not None:
                self._queue.fail(lease.key, lease_id, describe_error(error))


# --------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------- #


def _open_journal(journal: Union[CheckpointJournal, str, Path, None]):
    if journal is None:
        return None, False
    if isinstance(journal, CheckpointJournal):
        return journal, False
    return CheckpointJournal(journal), True


def _shard_bounds(batch: int, workers: int, shard_size: Optional[int]) -> List[tuple]:
    if shard_size is None:
        shard_size = max(1, -(-batch // max(workers, 1)))
    if isinstance(shard_size, bool) or not isinstance(shard_size, int) or shard_size < 1:
        raise ConfigError(f"shard_size must be a positive int, got {shard_size!r}")
    return [(start, min(start + shard_size, batch)) for start in range(0, batch, shard_size)]


def _serve(
    jobs: List[_Job],
    merge,
    *,
    journal,
    strict: bool,
    remote,
    fault_markers: Optional[Dict[int, Dict[str, str]]],
    on_shard: Optional[Callable[[ShardRecord], None]],
    **pool,
):
    """Dispatch ``jobs``, then merge their results or degrade gracefully.

    Jobs go to the local pool or, with ``remote=``, the queue server (the
    ``pool`` knobs are then ignored).  ``merge`` maps the book's
    ``results`` (by job key) to the merged result.
    """
    if remote is not None and fault_markers:
        raise ConfigError(
            "_fault_markers drive the local worker pool and cannot be "
            "combined with remote=; arm the remote worker's --kill-marker "
            "/ --hang-marker flags instead"
        )
    opened_journal, owns_journal = _open_journal(journal)
    try:
        if remote is None:
            book = _Scheduler(
                jobs, journal=opened_journal, fault_markers=fault_markers, **pool
            )
            book.run(on_shard)
        else:
            from repro.service.remote.client import run_remote
            from repro.service.remote.protocol import as_remote_config

            book = run_remote(
                jobs,
                remote=as_remote_config(remote),
                journal=opened_journal,
                on_shard=on_shard,
            )
    finally:
        if owns_journal and opened_journal is not None:
            opened_journal.close()
    records, failures = _collect(book, jobs)
    if failures:
        if strict:
            raise failures[0].error
        return PartialStudyResult(result=None, shards=records, failures=failures)
    merged = merge(book.results)
    if strict:
        return merged
    return PartialStudyResult(result=merged, shards=records, failures=[])


def _by_shard(jobs: List[_Job], results: Dict[str, Any], decode) -> List[Any]:
    """Decode each job's result once, then expand it to every shard it covers."""
    by_shard: Dict[int, Any] = {}
    for job in jobs:
        decoded = decode(results[job.key])
        for shard_index in job.shards:
            by_shard[shard_index] = decoded
    return [by_shard[index] for index in sorted(by_shard)]


def run_study_service(
    algorithm,
    *,
    scenario=None,
    initial_values=None,
    rounds=None,
    pattern=None,
    graphs=None,
    record_every: int = 1,
    scenario_labels=None,
    model=None,
    certify=None,
    faults=None,
    config=None,
    workers: int = 4,
    shard_size: Optional[int] = None,
    journal: Union[CheckpointJournal, str, Path, None] = None,
    retry: Optional[RetryPolicy] = None,
    strict: bool = True,
    shard_timeout: Optional[float] = None,
    heartbeat_interval: float = 0.2,
    heartbeat_timeout: Optional[float] = None,
    start_method: Optional[str] = None,
    on_shard: Optional[Callable[[ShardRecord], None]] = None,
    remote=None,
    _fault_markers: Optional[Dict[int, Dict[str, str]]] = None,
):
    """Run a :class:`~repro.api.Study` as crash-safe shard jobs.

    The study parameters (everything up to ``config``) mirror
    :class:`repro.api.Study`; adversarial scenarios are rejected — an
    adaptive adversary reacts to the *whole* ensemble, so slicing it would
    change its choices (and its decision procedure is arbitrary code that
    does not serialize).  The remaining parameters drive the service layer:

    ``workers``
        How many worker slots the run uses at once (and the default shard
        count).  Slots are persistent processes shared by every local
        service run; at most ``workers`` of them stay idle after the run.
    ``shard_size``
        Scenarios per shard; default splits the batch evenly over the pool.
    ``journal``
        A :class:`~repro.service.checkpoint.CheckpointJournal` (or a path
        to one) for crash-safe resume and cross-study deduplication.
    ``retry``
        The :class:`~repro.service.retry.RetryPolicy`; transient failures
        (killed/hung workers) back off and retry, deterministic engine
        errors fail fast.
    ``strict``
        ``True`` (default) returns the merged
        :class:`~repro.api.StudyResult` and *raises* the underlying error
        of the first exhausted shard.  ``False`` always returns a
        :class:`PartialStudyResult`.
    ``shard_timeout`` / ``heartbeat_interval`` / ``heartbeat_timeout``
        Per-attempt wall-clock budget and worker-liveness policing; a shard
        that exceeds either is killed and classified transient
        (:class:`~repro.exceptions.ShardTimeoutError` of kind ``"timeout"``
        or, once the job queue revokes the silent worker's lease,
        ``"lease"``).
    ``on_shard``
        Streaming callback, invoked with each completed
        :class:`ShardRecord` as soon as the shard's result is journaled.
    ``remote``
        A :class:`~repro.service.remote.RemoteConfig` (or a queue server
        URL).  When set, jobs are dispatched to the remote job-queue
        server instead of the local multiprocessing pool; the worker-pool
        knobs (``workers``, timeouts, ``start_method``) are ignored —
        lease and retry policy live on the server — while ``journal``,
        ``retry``-independent resume, ``strict`` and ``on_shard`` behave
        identically.

    The merged result is **bit-for-bit identical** to the single-process
    ``Study(...).run()`` — outputs, diameters, certificates and provenance
    (modulo nothing: the merged config travels explicitly with every shard).

    Because the shipped config includes ``threads``, process-level sharding
    composes with the thread-level parallel backend: each worker re-enters
    the merged :class:`~repro.config.EngineConfig` and — when it carries
    ``threads > 1`` — shards its own B-slice across a thread pool (see
    :mod:`repro.execution.parallel`), without changing a byte of the merged
    result.  Size ``workers * threads`` to the machine's core count to avoid
    oversubscription.
    """
    from repro.api import Study, StudyResult
    from repro.config import EngineConfig, current_engine_config
    from repro.execution.schedule import validate_schedule
    from repro.faults import as_fault_plan
    from repro.service.serialization import (
        encode_algorithm,
        encode_certify_spec,
        encode_model,
        encode_scenario_spec,
    )

    study = Study(
        algorithm=algorithm,
        scenario=scenario,
        initial_values=initial_values,
        rounds=rounds,
        pattern=pattern,
        graphs=graphs,
        record_every=record_every,
        scenario_labels=scenario_labels,
        model=model,
        certify=certify,
        faults=faults,
        config=config,
    )
    spec = study._spec
    if spec.adversary is not None:
        raise ConfigError(
            "adversarial studies cannot be sharded: the adversary adapts to "
            "the whole ensemble; run the adversary through Study directly and "
            "replay its committed schedules as a graphs= service study"
        )
    study_config = study._config if study._config is not None else EngineConfig()
    with study_config:
        merged_config = current_engine_config()
        resolved_plan = as_fault_plan(study._faults)

    algorithm_payload = encode_algorithm(study._algorithm)
    model_payload = None if study._model is None else encode_model(study._model)
    certify_payload = (
        None if study._certify is None else encode_certify_spec(study._certify)
    )
    config_payload = merged_config.to_dict()

    if not spec.is_ensemble():
        bounds = [(0, 1)]
    else:
        batch, n = np.asarray(spec.initial_values, dtype=float).shape[:2]
        bounds = _shard_bounds(batch, workers, shard_size)
        if spec.graphs is not None:
            # Checked once against the full ensemble shape; shards only slice.
            spec = replace(spec, graphs=validate_schedule(spec.graphs, batch, n))

    entries = []
    for start, stop in bounds:
        shard_plan = resolved_plan
        if shard_plan is not None and spec.is_ensemble():
            shard_plan = replace(
                shard_plan, scenario_base=shard_plan.scenario_base + start
            )
        body = {
            "kind": "study_shard",
            "algorithm": algorithm_payload,
            "scenario": encode_scenario_spec(_slice_scenario(spec, start, stop)),
            "model": model_payload,
            "certify": certify_payload,
            "faults": None if shard_plan is None else shard_plan.to_dict(),
            "config": config_payload,
            # Part of the content key: results journaled or cached in an
            # older payload format are never looked up, so they get rerun.
            # 2: columnar recorded states; 3: one columnar valency record.
            "result_version": 3,
        }
        entries.append(("study_shard", body, start, stop))
    jobs = _make_jobs(entries)
    return _serve(
        jobs,
        lambda results: _merge_study_shards(
            _by_shard(jobs, results, StudyResult.from_dict),
            resolved_plan,
            ensemble=spec.is_ensemble(),
        ),
        journal=journal,
        strict=strict,
        remote=remote,
        workers=workers,
        retry=retry,
        shard_timeout=shard_timeout,
        heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=heartbeat_timeout,
        start_method=start_method,
        fault_markers=_fault_markers,
        on_shard=on_shard,
    )


def _slice_scenario(spec, start: int, stop: int):
    """The ``[start, stop)`` scenario slice of an ensemble spec with a validated schedule."""
    from repro.api import ScenarioSpec
    from repro.execution.schedule import slice_schedule
    from repro.models.patterns import CommunicationPattern

    if not spec.is_ensemble():
        return spec
    full = np.asarray(spec.initial_values, dtype=float)
    values = full[start:stop]
    labels = (
        None
        if spec.scenario_labels is None
        else list(spec.scenario_labels)[start:stop]
    )
    pattern = spec.pattern
    if pattern is not None and not isinstance(pattern, CommunicationPattern):
        pattern = list(pattern)[start:stop]
    graphs = None
    if spec.graphs is not None:
        graphs = slice_schedule(spec.graphs, start, stop)
    return ScenarioSpec(
        initial_values=values,
        rounds=spec.rounds if graphs is None else None,
        pattern=pattern,
        graphs=graphs,
        record_every=spec.record_every,
        scenario_labels=labels,
    )


def _collect(book: _ShardBook, jobs: List[_Job]):
    """Per-shard records/failures in scenario order from the job-level maps."""
    records: List[ShardRecord] = []
    failures: List[ShardFailure] = []
    for job in jobs:
        record = book.records.get(job.key)
        failure = book.failures.get(job.key)
        for shard_index in job.shards:
            if record is not None:
                source = record.source if shard_index == job.shards[0] else "journal"
                records.append(replace(record, shard=shard_index, source=source))
            elif failure is not None:
                failures.append(replace(failure, shard=shard_index))
    records.sort(key=lambda record: record.shard)
    failures.sort(key=lambda failure: failure.shard)
    return records, failures


def _merge_study_shards(ordered, resolved_plan, *, ensemble: bool):
    """Merge decoded shard results (in scenario order) into one result."""
    from repro.api import StudyResult
    from repro.core.valency import ValencyEstimate
    from repro.execution.batch import merge_ensemble_executions

    if not ensemble:
        if len(ordered) != 1:
            raise ServiceError(
                f"single-scenario study produced {len(ordered)} shards"
            )
        return ordered[0]
    if len(ordered) == 1 and ordered[0].execution.fault_plan == resolved_plan:
        return ordered[0]
    execution = merge_ensemble_executions(
        [result.execution for result in ordered], fault_plan=resolved_plan
    )
    valency = None
    if ordered[0].valency is not None:
        valency = ValencyEstimate.concatenate([result.valency for result in ordered], axis=1)
    return StudyResult(
        execution=execution, provenance=ordered[0].provenance, valency=valency
    )


def run_certification_sweep_service(
    sizes: Sequence[int] = (4, 6),
    rounds: int = 24,
    suffix_rounds: int = 40,
    exploration_depth: int = 0,
    use_batch: Optional[bool] = None,
    config=None,
    ensemble_size: Optional[int] = None,
    ensemble_spread: float = 0.05,
    seed: int = 0,
    faults=None,
    *,
    workers: int = 4,
    journal: Union[CheckpointJournal, str, Path, None] = None,
    retry: Optional[RetryPolicy] = None,
    strict: bool = True,
    shard_timeout: Optional[float] = None,
    heartbeat_interval: float = 0.2,
    heartbeat_timeout: Optional[float] = None,
    start_method: Optional[str] = None,
    on_shard: Optional[Callable[[ShardRecord], None]] = None,
    remote=None,
    _fault_markers: Optional[Dict[int, Dict[str, str]]] = None,
):
    """Run the certification sweep with each grid row as one shard job.

    Mirrors :func:`repro.analysis.experiments.run_certification_sweep`
    (identical rows, in the identical order) but dispatches every row as a
    retry-protected, journaled worker job.  The service parameters match
    :func:`run_study_service`.
    """
    from repro.analysis.experiments import certification_sweep_rows
    from repro.config import EngineConfig, current_engine_config

    sweep_config = config if config is not None else EngineConfig()
    with sweep_config:
        merged_config = current_engine_config()
        descriptors = certification_sweep_rows(
            sizes=sizes,
            rounds=rounds,
            suffix_rounds=suffix_rounds,
            exploration_depth=exploration_depth,
            use_batch=use_batch,
            ensemble_size=ensemble_size,
            ensemble_spread=ensemble_spread,
            seed=seed,
            faults=faults,
        )
    config_payload = merged_config.to_dict()

    jobs = _make_jobs(
        (
            "sweep_row",
            {"kind": "sweep_row", "row": descriptor, "config": config_payload},
            index,
            index + 1,
        )
        for index, descriptor in enumerate(descriptors)
    )
    return _serve(
        jobs,
        lambda results: _by_shard(jobs, results, lambda payload: payload["row"]),
        journal=journal,
        strict=strict,
        remote=remote,
        workers=workers,
        retry=retry,
        shard_timeout=shard_timeout,
        heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=heartbeat_timeout,
        start_method=start_method,
        fault_markers=_fault_markers,
        on_shard=on_shard,
    )


__all__ = [
    "PartialStudyResult",
    "ShardFailure",
    "ShardRecord",
    "run_certification_sweep_service",
    "run_study_service",
]
