"""The shared result cache in front of the checkpoint journal.

Completed shard results are keyed by the same content hash the local
orchestrator journals under — ``content_key(job body)`` — so the cache
deduplicates **across studies and across coordinator restarts**: any study
that enqueues a shard identical to one ever completed (same spec slice,
config, certify and fault payloads) is served the journaled result without
a worker running.

The cache is two layers.  The in-memory dict absorbs the hot path; the
optional backing :class:`~repro.service.checkpoint.CheckpointJournal`
makes entries durable — a restarted queue server reloads every result it
ever served.  Writes go journal-first (fsync'd) so a SIGKILL between the
layers loses nothing.  Version policing is inherited from the journal and
codec layers: records written by a newer schema raise
:class:`~repro.exceptions.UnsupportedVersionError` naming the record type
instead of being half-decoded.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.service.checkpoint import CheckpointJournal


class ResultCache:
    """Content-keyed result store: in-memory dict over an optional journal."""

    def __init__(
        self, journal: Union[CheckpointJournal, str, Path, None] = None
    ) -> None:
        self._owns_journal = journal is not None and not isinstance(
            journal, CheckpointJournal
        )
        self._journal = (
            CheckpointJournal(journal)
            if self._owns_journal
            else (journal if isinstance(journal, CheckpointJournal) else None)
        )
        self._memory: Dict[str, dict] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            keys = set(self._memory)
            if self._journal is not None:
                keys.update(self._journal.keys())
            return len(keys)

    def __contains__(self, key: str) -> bool:
        return self.lookup(key)[0] is not None

    def lookup(self, key: str) -> Tuple[Optional[dict], Optional[str]]:
        """``(result payload, layer)`` for ``key`` — layer is ``"memory"``,
        ``"journal"``, or ``None`` on a miss.  Does not touch the counters:
        the job queue counts each admission the cache decides (:meth:`count`)."""
        with self._lock:
            result = self._memory.get(key)
            if result is not None:
                return result, "memory"
            if self._journal is not None:
                result = self._journal.get(key)
                if result is not None:
                    # Promote: later lookups skip the journal dict indirection.
                    self._memory[key] = result
                    return result, "journal"
            return None, None

    def count(self, hit: bool) -> None:
        """Count one admission the cache decided: a hit or a miss."""
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def put(self, key: str, result: dict, kind: str = "shard") -> None:
        """Store one completed result (durably first, when journal-backed)."""
        with self._lock:
            if self._journal is not None:
                self._journal.put(key, result, kind=kind)
            self._memory[key] = result

    def close(self) -> None:
        if self._owns_journal and self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        backing = "journal" if self._journal is not None else "memory-only"
        return (
            f"ResultCache({backing}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


__all__ = ["ResultCache"]
