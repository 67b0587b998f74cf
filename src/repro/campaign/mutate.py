"""Seed-deterministic structured mutation of corpus parents.

The campaign breeds new cases by mutating corpus entries instead of blind
resampling: a mutation keeps most of a parent's structure (values, graph
schedule, plan) and changes one or two aspects — shape, a round, some edges,
a fault knob, the target pair.  ``mutate_spec(spec, seed)`` is a pure
function of the parent's content and the seed, so a campaign round replans
identically after a crash-resume.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import List, Optional

import numpy as np

from repro.campaign.registry import get_entry
from repro.campaign.targets import (
    TARGETS,
    CaseSpec,
    RoundGraphs,
    _stable_int,
    enumerate_targets,
    random_fault_plan,
)
from repro.faults import FaultPlan
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.generators import random_graph, random_strongly_connected_graph

_MUTATE_NAMESPACE = 0x3D7A7E


def _restrict_plan(plan: Optional[FaultPlan], n: int) -> Optional[FaultPlan]:
    """Drop crash/join specs that reference agents outside ``0..n-1``."""
    if plan is None:
        return None
    crashes = tuple(
        dc_replace(
            c,
            final_recipients=None
            if c.final_recipients is None
            else frozenset(a for a in c.final_recipients if a < n),
        )
        for c in plan.crashes
        if c.agent < n
    )
    joins = tuple(j for j in plan.joins if j.agent < n)
    return dc_replace(plan, crashes=crashes, joins=joins)


def _resize_values(
    values: np.ndarray, rng: np.random.Generator, batch: int, n: int, d: int
) -> np.ndarray:
    """Resize a (B, n, d) tensor, keeping the overlapping block of the parent."""
    resized = rng.uniform(-2.0, 2.0, size=(batch, n, d))
    b0 = min(batch, values.shape[0])
    n0 = min(n, values.shape[1])
    d0 = min(d, values.shape[2])
    resized[:b0, :n0, :d0] = values[:b0, :n0, :d0]
    return resized


def _round_graphs(
    spec: CaseSpec, rng: np.random.Generator, n: int, batch: int
) -> RoundGraphs:
    entry = get_entry(spec.algorithm)
    p = float(rng.uniform(0.15, 0.95))
    if entry.needs_fixed_graph:
        return random_strongly_connected_graph(n, rng, p)
    if rng.random() < 0.5:
        return random_graph(n, rng, p)
    return tuple(random_graph(n, rng, p) for _ in range(batch))


def _rebuild_graphs(spec: CaseSpec, rng: np.random.Generator, n: int, batch: int):
    """Regenerate the whole schedule at a new shape (shape mutations)."""
    entry = get_entry(spec.algorithm)
    if entry.needs_fixed_graph:
        fixed = random_strongly_connected_graph(n, rng, float(rng.uniform(0.3, 0.9)))
        return tuple([fixed] * spec.rounds)
    return tuple(_round_graphs(spec, rng, n, batch) for _ in range(spec.rounds))


# Each operator returns a mutated spec, or None when inapplicable.  The
# operator list and its order are part of the deterministic contract.


def _op_resize_batch(spec: CaseSpec, rng: np.random.Generator) -> Optional[CaseSpec]:
    batch = int(rng.integers(1, 5))
    if batch == spec.batch:
        return None
    values = _resize_values(spec.values, rng, batch, spec.n, spec.d)
    graphs = []
    for g in spec.graphs:
        if isinstance(g, CommunicationGraph):
            graphs.append(g)
        else:
            graphs.append(tuple(g[b % len(g)] for b in range(batch)))
    return dc_replace(spec, values=values, graphs=tuple(graphs))


def _op_resize_n(spec: CaseSpec, rng: np.random.Generator) -> Optional[CaseSpec]:
    entry = get_entry(spec.algorithm)
    if entry.fixed_n is not None:
        return None
    n = int(rng.integers(2, 9))
    if n == spec.n:
        return None
    values = _resize_values(spec.values, rng, spec.batch, n, spec.d)
    graphs = _rebuild_graphs(spec, rng, n, spec.batch)
    return dc_replace(
        spec, values=values, graphs=graphs, plan=_restrict_plan(spec.plan, n)
    )


def _op_resize_d(spec: CaseSpec, rng: np.random.Generator) -> Optional[CaseSpec]:
    d = int(rng.integers(1, 4))
    if d == spec.d:
        return None
    values = _resize_values(spec.values, rng, spec.batch, spec.n, d)
    return dc_replace(spec, values=values)


def _op_add_round(spec: CaseSpec, rng: np.random.Generator) -> Optional[CaseSpec]:
    if spec.rounds >= 9:
        return None
    entry = get_entry(spec.algorithm)
    if entry.needs_fixed_graph:
        extra: RoundGraphs = spec.graphs[0]
    else:
        extra = _round_graphs(spec, rng, spec.n, spec.batch)
    return dc_replace(spec, graphs=spec.graphs + (extra,))


def _op_drop_round(spec: CaseSpec, rng: np.random.Generator) -> Optional[CaseSpec]:
    if spec.rounds <= 1:
        return None
    return dc_replace(spec, graphs=spec.graphs[:-1])


def _op_flip_edges(spec: CaseSpec, rng: np.random.Generator) -> Optional[CaseSpec]:
    entry = get_entry(spec.algorithm)
    n = spec.n
    if n < 2:
        return None
    if entry.needs_fixed_graph:
        fixed = random_strongly_connected_graph(n, rng, float(rng.uniform(0.3, 0.9)))
        return dc_replace(spec, graphs=tuple([fixed] * spec.rounds))
    round_index = int(rng.integers(spec.rounds))
    round_graphs = spec.graphs[round_index]

    def flip(graph: CommunicationGraph) -> CommunicationGraph:
        adjacency = graph.adjacency.copy()
        for _ in range(int(rng.integers(1, 4))):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            if i != j:
                adjacency[i, j] = not adjacency[i, j]
        return CommunicationGraph(n, adjacency=adjacency)

    if isinstance(round_graphs, CommunicationGraph):
        mutated: RoundGraphs = flip(round_graphs)
    else:
        scenario = int(rng.integers(len(round_graphs)))
        mutated = tuple(
            flip(g) if b == scenario else g for b, g in enumerate(round_graphs)
        )
    graphs = tuple(
        mutated if r == round_index else g for r, g in enumerate(spec.graphs)
    )
    return dc_replace(spec, graphs=graphs)


def _op_jitter_values(spec: CaseSpec, rng: np.random.Generator) -> Optional[CaseSpec]:
    noise = rng.normal(0.0, 0.1, size=spec.values.shape)
    return dc_replace(spec, values=spec.values + noise)


def _op_mutate_plan(spec: CaseSpec, rng: np.random.Generator) -> Optional[CaseSpec]:
    entry = get_entry(spec.algorithm)
    if not entry.supports_faults or not TARGETS[spec.target].requires_plan:
        return None
    if spec.plan is None or rng.random() < 0.3:
        return dc_replace(spec, plan=random_fault_plan(rng, spec.n, spec.rounds))
    plan = spec.plan
    knob = int(rng.integers(3))
    if knob == 0:
        plan = dc_replace(plan, drop=float(rng.uniform(0.0, 0.4)))
    elif knob == 1:
        plan = dc_replace(plan, seed=int(rng.integers(0, 2**31)))
    else:
        plan = dc_replace(plan, enforce_model=not plan.enforce_model)
    return dc_replace(spec, plan=plan)


def _op_record_every(spec: CaseSpec, rng: np.random.Generator) -> Optional[CaseSpec]:
    record_every = int(rng.integers(1, 4))
    if record_every == spec.record_every:
        return None
    return dc_replace(spec, record_every=record_every)


def _op_retarget(spec: CaseSpec, rng: np.random.Generator) -> Optional[CaseSpec]:
    entry = get_entry(spec.algorithm)
    admissible = [t for t in enumerate_targets(entry) if t != spec.target]
    if not admissible:
        return None
    target = admissible[int(rng.integers(len(admissible)))]
    plan = spec.plan
    if TARGETS[target].requires_plan and plan is None:
        plan = random_fault_plan(rng, spec.n, spec.rounds)
    return dc_replace(spec, target=target, plan=plan)


_OPERATORS = (
    _op_resize_batch,
    _op_resize_n,
    _op_resize_d,
    _op_add_round,
    _op_drop_round,
    _op_flip_edges,
    _op_jitter_values,
    _op_mutate_plan,
    _op_record_every,
    _op_retarget,
)


def mutate_spec(spec: CaseSpec, seed: int) -> CaseSpec:
    """Derive a structured mutant of ``spec``; pure in ``(spec content, seed)``.

    Applies one or two operators drawn from a fixed list; operators that do
    not apply to the parent (e.g. resizing ``n`` of a fixed-``n`` algorithm)
    are skipped deterministically.
    """
    rng = np.random.default_rng(
        (_MUTATE_NAMESPACE, _stable_int(spec.key()), int(seed))
    )
    mutated = spec
    applications = 1 + int(rng.random() < 0.35)
    for _ in range(applications):
        order = rng.permutation(len(_OPERATORS))
        for index in order:
            candidate = _OPERATORS[int(index)](mutated, rng)
            if candidate is not None:
                mutated = candidate
                break
    return mutated


__all__ = ["mutate_spec"]
