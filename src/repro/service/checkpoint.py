"""Append-only checkpoint journal of completed shard results.

The orchestrator keys every shard job by a **content hash** of its
canonical JSON body — ``(spec slice, config, certify, faults, shard
bounds)`` — and appends the shard's result payload to the journal as soon
as a worker reports it.  Because the key is pure content:

* a killed orchestrator resumes by re-running only the shards whose keys
  are missing from the journal, and
* identical shards across *different* studies (same spec, config and
  slice) deduplicate automatically — the second study replays the
  journaled result without running a worker job.

The journal is a JSONL file: one header line, then one
``{"key": ..., "kind": ..., "result": ...}`` record per completed shard.
Appends are flushed and ``fsync``-ed before :meth:`CheckpointJournal.put`
returns, so a completed shard survives a SIGKILL of the orchestrator the
instant the worker's result is recorded.  Loading tolerates a truncated
final line (the torn write of a crash mid-append) but refuses corruption
anywhere else — a damaged middle means the file is not our journal.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.exceptions import ServiceError, UnsupportedVersionError
from repro.service.serialization import canonical_json

_MAGIC = "repro-service-journal"
_VERSION = 1
_RECORD_VERSION = 1


def content_key(payload: object) -> str:
    """The sha256 content hash of a payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class CheckpointJournal:
    """Append-only JSONL journal of completed shard results, keyed by hash.

    Parameters
    ----------
    path:
        The journal file.  Created (with a header line) if missing; loaded
        and appended to if present.  A later record for a key already seen
        wins (last-writer-wins makes replayed appends harmless).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._records: Dict[str, dict] = {}
        self._load()
        self._handle = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #

    def _load(self) -> None:
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(
                    json.dumps({"journal": _MAGIC, "version": _VERSION}) + "\n"
                )
                handle.flush()
                os.fsync(handle.fileno())
            return
        text = self.path.read_text(encoding="utf-8")
        lines = text.split("\n")
        # Drop a trailing empty segment from the final newline; what remains
        # is one JSON document per line, except possibly a torn final line.
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise ServiceError(f"{self.path} is empty, not a checkpoint journal")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"{self.path} does not start with a journal header: {exc}"
            ) from exc
        if not isinstance(header, dict) or header.get("journal") != _MAGIC:
            raise ServiceError(f"{self.path} is not a repro service journal")
        if header.get("version") != _VERSION:
            version = header.get("version")
            if isinstance(version, int) and version > _VERSION:
                raise UnsupportedVersionError(
                    f"{self.path} was written by journal version {version}, "
                    f"newer than supported; this library reads version {_VERSION}",
                    record_type=_MAGIC,
                    version=version,
                    supported=_VERSION,
                )
            raise ServiceError(
                f"{self.path} was written by journal version "
                f"{version!r}; this library reads version {_VERSION}"
            )
        for index, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if index == len(lines):
                    # A torn final line is the expected signature of a crash
                    # mid-append: everything before it is intact, so resume
                    # from there and re-run the lost shard.  Truncate the
                    # torn tail so records appended by this resume start on
                    # a fresh line instead of concatenating onto the tear.
                    intact = len(text.encode("utf-8")) - len(line.encode("utf-8"))
                    with open(self.path, "r+b") as handle:
                        handle.truncate(intact)
                    break
                raise ServiceError(
                    f"{self.path} line {index} is corrupt (not at end of file): {exc}"
                ) from exc
            if not isinstance(record, dict) or "key" not in record:
                raise ServiceError(f"{self.path} line {index} is not a shard record")
            version = record.get("version", 1)
            if isinstance(version, int) and version > _RECORD_VERSION:
                # Reject loudly instead of decoding half of a newer schema:
                # the record was journaled by a newer library.
                kind = record.get("kind", "shard")
                raise UnsupportedVersionError(
                    f"{self.path} line {index}: {kind!r} record version "
                    f"{version} is newer than supported (this library reads "
                    f"record versions 1..{_RECORD_VERSION}); refusing to decode",
                    record_type=kind,
                    version=version,
                    supported=_RECORD_VERSION,
                )
            self._records[record["key"]] = record

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    def get(self, key: str) -> Optional[dict]:
        """The journaled result payload of ``key``, or ``None``."""
        record = self._records.get(key)
        return None if record is None else record["result"]

    def put(self, key: str, result: dict, kind: str = "shard") -> None:
        """Durably append one completed shard's result payload.

        Flushes and ``fsync``-s before returning: once ``put`` returns, the
        record survives a SIGKILL of the whole process tree.
        """
        record = {"key": key, "kind": kind, "version": _RECORD_VERSION, "result": result}
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._records[key] = record

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"CheckpointJournal({str(self.path)!r}, records={len(self)})"
