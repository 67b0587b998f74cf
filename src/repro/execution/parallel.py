"""B-axis threadpool sharding: the parallel execution backend.

The batched engine already turns ``B`` independent scenarios into stacked
``(B, n, d)`` array programs; every one of those NumPy kernels releases the
GIL, so slicing the scenario axis into contiguous shards and running each
shard's *serial* engine call on a worker thread scales the same code across
cores.  This module holds the two primitives behind
``EngineConfig(threads=...)``:

* :func:`shard_bounds` — split ``B`` scenarios into at most ``threads``
  contiguous, balanced ``(start, stop)`` slices.
* :func:`parallel_map` — run shard thunks on the active config block's
  worker pool (or a transient pool), re-entering the caller's merged
  :class:`~repro.config.EngineConfig` inside each worker thread.

Determinism contract
--------------------
Sharding must be invisible in the results: for every route the merged record
is bit-for-bit identical to the serial run.  Three properties make that hold:

1. Every reduction of the batched engine is elementwise-independent across
   the scenario axis, and the three masked-extreme kernels (dense, fold,
   sort-select) are byte-for-byte equal once every zero is made ``+0.0``,
   which the dispatcher does on each output, so slicing ``B`` then
   concatenating commutes with every round update even when a shard's size
   selects a different kernel.
2. Fault draws are counter-based: a shard covering global scenarios
   ``[start, stop)`` runs under ``replace(plan, scenario_base=plan.
   scenario_base + start)``, which makes its draws the exact slice of the
   unsharded plan's draws (see :class:`repro.faults.FaultPlan`).
3. The config stack is thread-local, so each worker re-enters the caller's
   merged config (with ``threads`` forced to 1 — shards never nest parallel
   runs) and resolves every knob exactly as the caller thread would.

The adversarial route shards because the batched adversary commits a
*per-scenario* argmax over per-scenario histories; each shard drives its own
``copy.deepcopy`` of the adversary, so stateful adversaries cannot race.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Callable, List, Sequence, Tuple, TypeVar

from repro.config import _acquire_worker_pool, current_engine_config

T = TypeVar("T")


def shard_bounds(total: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``total`` items into at most ``parts`` contiguous balanced slices.

    Every slice is non-empty (``parts`` is clamped to ``total``) and the
    slice lengths differ by at most one, the longer slices first:

    >>> shard_bounds(7, 3)
    [(0, 3), (3, 5), (5, 7)]
    >>> shard_bounds(2, 7)
    [(0, 1), (1, 2)]
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    parts = min(parts, total)
    if parts == 0:
        return []
    base, extra = divmod(total, parts)
    bounds = []
    start = 0
    for index in range(parts):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def parallel_map(tasks: Sequence[Callable[[], T]], threads: int) -> List[T]:
    """Run shard thunks on ``threads`` workers, preserving order.

    Pool worker threads start with an *empty* thread-local config stack, so
    each task runs inside the caller's merged :class:`~repro.config.
    EngineConfig` re-entered on the worker (with ``threads`` pinned to 1:
    shards are the leaves of the parallel run).  The pool itself is the
    active config block's lazily-created executor when one owns the thread
    count (torn down by the block's ``__exit__``); otherwise — an explicit
    ``threads=`` keyword or the ``REPRO_THREADS`` default — a transient pool
    lives just for this call.  A single task runs inline on the caller
    thread, under the same re-entered config for identical resolution.

    Exceptions raised by a task propagate to the caller (after all workers
    finish or are cancelled by pool shutdown).
    """
    tasks = list(tasks)
    if not tasks:
        return []
    worker_config = replace(current_engine_config(), threads=1)

    def _run(task: Callable[[], T]) -> T:
        with worker_config:
            return task()

    if len(tasks) == 1:
        return [_run(tasks[0])]
    pool = _acquire_worker_pool(threads)
    if pool is not None:
        return list(pool.map(_run, tasks))
    with ThreadPoolExecutor(
        max_workers=min(threads, len(tasks)), thread_name_prefix="repro-shard"
    ) as transient:
        return list(transient.map(_run, tasks))


__all__ = ["parallel_map", "shard_bounds"]
