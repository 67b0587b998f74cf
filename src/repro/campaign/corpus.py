"""The campaign corpus: a directory of behaviorally novel scenarios.

Each entry is one :class:`~repro.campaign.targets.CaseSpec` persisted as
canonical JSON under its content hash (``<key>.json``), together with the
discrete *behavior features* it exhibited when executed.  A case is
*interesting* — and enters the corpus — exactly when it exhibits a feature no
earlier entry has: a new target/algorithm combination, a new shape bucket, a
new graph class, a newly exercised fault-plan effect, or a new near-miss
tolerance margin on the last-ulp pairs.  The mutator then breeds new cases
from corpus parents instead of blind resampling.

Writes are atomic (temp file + rename) and idempotent (content-keyed), which
is what lets a SIGKILLed campaign replay its journal and reconstruct an
identical corpus.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from repro.campaign.registry import get_entry
from repro.campaign.targets import CaseResult, CaseSpec
from repro.exceptions import CampaignError
from repro.execution.schedule import is_shared, scenario_graphs
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.properties import (
    is_complete,
    is_nonsplit,
    is_rooted,
    is_strongly_connected,
)
from repro.service.serialization import canonical_json

_ENTRY_TYPE = "campaign-corpus-entry"


def _graph_classes(graph: CommunicationGraph) -> Iterable[str]:
    if is_complete(graph):
        yield "graph:complete"
    if is_strongly_connected(graph):
        yield "graph:strongly-connected"
    if is_rooted(graph):
        yield "graph:rooted"
    if is_nonsplit(graph):
        yield "graph:nonsplit"


def case_features(spec: CaseSpec, result: CaseResult) -> Tuple[str, ...]:
    """The discrete behavior features of one executed case (sorted).

    These drive the novelty signal: a case enters the corpus when it
    exhibits a feature the corpus has not seen.
    """
    features: Set[str] = {
        f"combo:{spec.target}:{spec.algorithm}",
        f"n:{spec.n}",
        f"d:{spec.d}",
        f"B:{spec.batch}",
        f"rounds:{spec.rounds}",
        f"record:{spec.record_every}",
    }
    if not all(is_shared(round_graphs) for round_graphs in spec.graphs):
        features.add("graph:per-scenario")
    for graph in {g for b in range(spec.batch) for g in scenario_graphs(spec.graphs, b)}:
        features.update(_graph_classes(graph))
    plan = spec.plan
    if plan is not None and not plan.is_zero():
        if plan.drop:
            features.add("fault:drop")
        if plan.duplicate:
            features.add("fault:duplicate")
        if plan.jitter:
            features.add("fault:jitter")
        for crash in plan.crashes:
            features.add("fault:crash")
            if crash.final_recipients is not None:
                features.add("fault:crash-unclean")
            if crash.recovery_round is not None:
                features.add("fault:recovery")
        if plan.joins:
            features.add("fault:join")
        if plan.enforce_model:
            features.add("fault:enforce-model")
    if spec.perturb is not None:
        features.add(f"perturb:{spec.perturb['side']}")
    if result.status == "divergence":
        features.add(f"divergence:{spec.target}:{spec.algorithm}")
    elif result.status == "agree":
        if not result.exact and result.max_diff > 0.0:
            # Near-miss margin bucket: how close a tolerance-compared pair
            # came to the 1e-12 line, in decades.
            features.add(
                f"nearmiss:{spec.target}:{int(np.floor(np.log10(result.max_diff)))}"
            )
        if result.reason == "both sides raised":
            features.add(f"raise:{spec.target}:{spec.algorithm}")
    if not get_entry(spec.algorithm).exact:
        features.add("family:averaging")
    return tuple(sorted(features))


class Corpus:
    """A content-hash-keyed store of interesting case specs on disk."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._entries: Dict[str, dict] = {}
        self.seen_features: Set[str] = set()
        self._load()

    def _load(self) -> None:
        for path in sorted(self.root.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise CampaignError(f"corrupt corpus entry {path}: {exc}") from exc
            self._validate(payload, path)
            self._entries[path.stem] = payload
            self.seen_features.update(payload["features"])

    @staticmethod
    def _validate(payload: dict, origin: object) -> None:
        if not isinstance(payload, dict) or payload.get("__type__") != _ENTRY_TYPE:
            raise CampaignError(f"not a corpus entry: {origin}")
        if payload.get("version") != 1:
            raise CampaignError(
                f"corpus entry {origin} has unsupported version {payload.get('version')!r}"
            )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self):
        """Entry keys in sorted (deterministic) order."""
        return sorted(self._entries)

    def get(self, key: str) -> Optional[dict]:
        return self._entries.get(key)

    def spec(self, key: str) -> CaseSpec:
        entry = self._entries.get(key)
        if entry is None:
            raise CampaignError(f"no corpus entry {key!r}")
        return CaseSpec.from_dict(entry["spec"])

    def make_entry(self, spec: CaseSpec, features: Tuple[str, ...], origin: dict) -> dict:
        return {
            "__type__": _ENTRY_TYPE,
            "version": 1,
            "spec": spec.to_dict(),
            "features": sorted(features),
            "origin": origin,
        }

    def is_novel(self, features: Iterable[str]) -> bool:
        return not set(features) <= self.seen_features

    def add(self, spec: CaseSpec, features: Tuple[str, ...], origin: dict) -> str:
        """Persist a case (idempotent, atomic); returns its content key."""
        return self.write_payload(self.make_entry(spec, features, origin))

    def write_payload(self, payload: dict) -> str:
        """Persist a pre-built corpus entry payload (used by journal replay)."""
        self._validate(payload, "<payload>")
        key = CaseSpec.from_dict(payload["spec"]).key()
        path = self.root / f"{key}.json"
        text = canonical_json(payload)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
        self._entries[key] = payload
        self.seen_features.update(payload["features"])
        return key


__all__ = ["Corpus", "case_features"]
