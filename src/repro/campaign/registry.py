"""The shared fuzz registry: every algorithm the campaign (and CI) fuzzes.

One :class:`FuzzEntry` per algorithm, keyed by the algorithm's serialization
codec name, carrying everything the differential harnesses need to generate
and rebuild cases:

* ``draw_params`` — JSON-safe constructor parameters drawn from a case rng,
  so a corpus entry or failure artifact can rebuild the exact algorithm;
* ``build`` — rebuild the algorithm from those parameters (plus the fixed
  communication graph, for graph-pinned algorithms like mass splitting);
* capability flags — whether the entry has batch hooks (``reference_only``
  entries exercise only the per-agent reference paths), tolerates fault
  plans, runs under the event simulator, or requires a fixed ``n`` or a
  fixed strongly connected graph every round.

Registering an algorithm here is *sufficient* to fuzz it: both the CI suite
(``tests/test_fuzz_equivalence.py``) and the campaign target generator
(:mod:`repro.campaign.targets`) enumerate this registry.  The audit
(:func:`audit_registry`) compares the registry against the serialization
codec registry and fails loudly on any algorithm that is serializable but
unfuzzed, so a new algorithm cannot silently skip the harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import CampaignError
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.families import complete_graph


@dataclass(frozen=True)
class FuzzEntry:
    """One fuzzable algorithm: how to build it and what it supports.

    Attributes
    ----------
    key:
        Registry key; equals the algorithm's serialization codec name so the
        audit can match the two registries one-to-one.
    exact:
        Whether the algorithm's two execution paths agree bit-for-bit
        (the order-independent min/max family) rather than to the last ulp
        (the summation-order-sensitive averaging family).
    draw_params:
        ``(rng) -> dict`` of JSON-safe constructor parameters.
    build:
        ``(params, n, graph) -> Algorithm``; ``graph`` is the fixed
        communication graph (only consulted when ``needs_fixed_graph``).
    fixed_n:
        The exact system size the algorithm requires, or ``None``.
    needs_fixed_graph:
        Whether the algorithm must see one fixed strongly connected graph
        every round (mass splitting).
    supports_faults:
        Whether the algorithm tolerates fault-perturbed in-neighborhoods.
    supports_simulator:
        Whether the round-based event-simulator route (complete graph,
        ``f = 0``) is a valid reference for the algorithm.
    reference_only:
        ``True`` when the algorithm has no batch hooks: toggle pairs that
        force a vectorized side skip it, and the audit marks it.
    perturbable:
        Whether the per-agent state is a plain value array, so the
        synthetic-divergence wrapper used by mutation-kill checks
        (:class:`repro.campaign.targets.PerturbedAlgorithm`) can offset it.
    """

    key: str
    exact: bool
    draw_params: Callable[[np.random.Generator], dict]
    build: Callable[[dict, int, Optional[CommunicationGraph]], object]
    fixed_n: Optional[int] = None
    needs_fixed_graph: bool = False
    supports_faults: bool = True
    supports_simulator: bool = True
    reference_only: bool = False
    perturbable: bool = False


def _build_registry() -> Dict[str, FuzzEntry]:
    from repro.algorithms import (
        AmortizedMidpointAlgorithm,
        DecidingAlgorithm,
        FloodingExactConsensus,
        HegselmannKrauseAlgorithm,
        MassSplittingAlgorithm,
        MeanAlgorithm,
        MidpointAlgorithm,
        SelfWeightedAveraging,
        TwoAgentThirdsAlgorithm,
    )
    from repro.asynchrony import MinRelaySyncAlgorithm

    entries = [
        FuzzEntry(
            key="midpoint",
            exact=True,
            draw_params=lambda rng: {},
            build=lambda p, n, g: MidpointAlgorithm(),
            perturbable=True,
        ),
        FuzzEntry(
            key="amortized-midpoint",
            exact=True,
            draw_params=lambda rng: {"phase_length": None},
            build=lambda p, n, g: AmortizedMidpointAlgorithm(
                phase_length=p.get("phase_length")
            ),
        ),
        # The Section 9 approximate-consensus wrapper: decide-and-freeze over
        # a min/max inner algorithm, with a randomized decision round so
        # cases hit pre-decision, mid-run and instant (round-0) freezes.
        FuzzEntry(
            key="deciding",
            exact=True,
            draw_params=lambda rng: {"decision_round": int(rng.integers(0, 7))},
            build=lambda p, n, g: DecidingAlgorithm(
                MidpointAlgorithm(), int(p["decision_round"])
            ),
        ),
        FuzzEntry(
            key="two-agent-thirds",
            exact=True,
            draw_params=lambda rng: {},
            build=lambda p, n, g: TwoAgentThirdsAlgorithm(),
            fixed_n=2,
            perturbable=True,
        ),
        FuzzEntry(
            key="mean",
            exact=False,
            draw_params=lambda rng: {},
            build=lambda p, n, g: MeanAlgorithm(),
            perturbable=True,
        ),
        FuzzEntry(
            key="hegselmann-krause",
            exact=False,
            draw_params=lambda rng: {"confidence": float(rng.uniform(0.5, 2.5))},
            build=lambda p, n, g: HegselmannKrauseAlgorithm(float(p["confidence"])),
            perturbable=True,
        ),
        FuzzEntry(
            key="self-weighted",
            exact=False,
            draw_params=lambda rng: {"self_weight": float(rng.uniform(0.1, 0.9))},
            build=lambda p, n, g: SelfWeightedAveraging(float(p["self_weight"])),
            perturbable=True,
        ),
        # No batch hooks (set-valued messages): exercises the per-agent
        # reference paths of every engine; pairs that force a vectorized
        # side skip it.
        FuzzEntry(
            key="min-relay-sync",
            exact=True,
            draw_params=lambda rng: {},
            build=lambda p, n, g: MinRelaySyncAlgorithm(),
            reference_only=True,
        ),
        # Flood-and-take-the-minimum (Theorem 4's induced asymptotic form):
        # tuple-valued messages, so reference-only like MinRelay.
        FuzzEntry(
            key="flooding-exact",
            exact=True,
            draw_params=lambda rng: {"horizon": int(rng.integers(1, 8))},
            build=lambda p, n, g: FloodingExactConsensus(int(p["horizon"])),
            reference_only=True,
        ),
        # Mass splitting is pinned to one fixed strongly connected graph
        # every round and rejects any other in-neighborhood, so it cannot
        # run under fault plans or the complete-graph simulator route.
        FuzzEntry(
            key="mass-splitting",
            exact=True,
            draw_params=lambda rng: {},
            build=lambda p, n, g: MassSplittingAlgorithm(
                g if g is not None else complete_graph(n)
            ),
            needs_fixed_graph=True,
            supports_faults=False,
            supports_simulator=False,
            reference_only=True,
            perturbable=True,
        ),
    ]
    return {entry.key: entry for entry in entries}


#: Registry key -> entry, in registration order (the generator draws by index).
REGISTRY: Dict[str, FuzzEntry] = _build_registry()

#: The entries as an ordered tuple (stable draw order for case generation).
ORDERED_ENTRIES: Tuple[FuzzEntry, ...] = tuple(REGISTRY.values())


def get_entry(key: str) -> FuzzEntry:
    """Look up a registry entry, raising a loud error on unknown keys."""
    entry = REGISTRY.get(key)
    if entry is None:
        raise CampaignError(
            f"unknown fuzz-registry key {key!r} (registered: {sorted(REGISTRY)})"
        )
    return entry


def build_probe(entry: FuzzEntry):
    """Build a small throwaway instance of an entry (for capability checks)."""
    n = entry.fixed_n or 3
    params = entry.draw_params(np.random.default_rng(0))
    return entry.build(params, n, complete_graph(n))


@dataclass(frozen=True)
class RegistryAudit:
    """The result of comparing the fuzz registry against the codec registry."""

    fuzzed: Tuple[str, ...]
    reference_only: Tuple[str, ...]
    unfuzzed: Tuple[str, ...]
    unknown: Tuple[str, ...]
    mismatched: Tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not (self.unfuzzed or self.unknown or self.mismatched)

    def summary(self) -> str:
        lines = ["fuzz-registry audit:"]
        for key in self.fuzzed:
            lines.append(f"  fuzzed          {key}")
        for key in self.reference_only:
            lines.append(f"  fuzzed          {key}  [reference-only: no batch hooks]")
        for key in self.unfuzzed:
            lines.append(f"  UNFUZZED        {key}  <- serializable but has no fuzz entry")
        for key in self.unknown:
            lines.append(f"  UNKNOWN         {key}  <- fuzz entry with no serialization codec")
        for key in self.mismatched:
            lines.append(
                f"  MISMATCHED      {key}  <- reference_only flag disagrees with supports_batch()"
            )
        lines.append("audit OK" if self.ok else "audit FAILED")
        return "\n".join(lines)


def audit_registry(strict: bool = False, codec_names: Optional[Tuple[str, ...]] = None) -> RegistryAudit:
    """Cross-check the fuzz registry against the serialization codec registry.

    Every serializable algorithm must have a fuzz entry (else it ships
    unfuzzed), every fuzz entry must name a real codec (else artifacts for it
    could not be rebuilt elsewhere), and every entry's ``reference_only``
    flag must match what the built algorithm actually reports.  With
    ``strict=True`` any violation raises :class:`CampaignError`.
    """
    from repro.service.serialization import registered_algorithm_names

    names = tuple(codec_names) if codec_names is not None else registered_algorithm_names()
    unfuzzed = tuple(sorted(set(names) - set(REGISTRY)))
    unknown = tuple(sorted(set(REGISTRY) - set(names)))
    mismatched = []
    fuzzed, reference_only = [], []
    for key in sorted(REGISTRY):
        entry = REGISTRY[key]
        if build_probe(entry).supports_batch() == entry.reference_only:
            mismatched.append(key)
        (reference_only if entry.reference_only else fuzzed).append(key)
    audit = RegistryAudit(
        fuzzed=tuple(fuzzed),
        reference_only=tuple(reference_only),
        unfuzzed=unfuzzed,
        unknown=unknown,
        mismatched=tuple(mismatched),
    )
    if strict and not audit.ok:
        raise CampaignError("fuzz-registry audit failed:\n" + audit.summary())
    return audit


__all__ = [
    "FuzzEntry",
    "REGISTRY",
    "ORDERED_ENTRIES",
    "RegistryAudit",
    "audit_registry",
    "build_probe",
    "get_entry",
]
