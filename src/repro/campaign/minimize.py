"""Deterministic delta-debugging of a diverging case to a minimal scenario.

Given a :class:`~repro.campaign.targets.CaseSpec` whose execution diverges,
:func:`minimize` greedily shrinks it along a *fixed reduction order* —
scenarios, rounds, agents, coordinates, fault plan, graphs, values — keeping
a candidate only when it still diverges, and repeats the whole pass until a
fixpoint.  The order is part of the contract: minimization is a pure
function of the input spec, so two campaigns that find the same divergence
emit the same minimal artifact.

Candidates whose execution is skipped (e.g. dropping the fault plan of a
plan-requiring target) or where both sides raise the same error simply do
not diverge, so they are rejected without special-casing.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.campaign.registry import get_entry
from repro.campaign.targets import CaseSpec, execute_case
from repro.exceptions import CampaignError
from repro.execution.schedule import is_shared, map_schedule, scenario_graphs
from repro.faults import FaultPlan
from repro.graphs.digraph import CommunicationGraph

_MAX_PASSES = 8


def _diverges(spec: CaseSpec) -> bool:
    return execute_case(spec).status == "divergence"


def _shift_perturb(spec: CaseSpec, removed_agent: int) -> Optional[dict]:
    if spec.perturb is None:
        return None
    perturb = dict(spec.perturb)
    if int(perturb["agent"]) > removed_agent:
        perturb["agent"] = int(perturb["agent"]) - 1
    return perturb


def _restrict_plan_agents(plan: Optional[FaultPlan], removed: int) -> Optional[FaultPlan]:
    """Renumber a plan after removing one agent (specs naming it are dropped)."""
    if plan is None:
        return None

    def shift(agent: int) -> int:
        return agent - 1 if agent > removed else agent

    crashes = tuple(
        dc_replace(
            c,
            agent=shift(c.agent),
            final_recipients=None
            if c.final_recipients is None
            else frozenset(shift(a) for a in c.final_recipients if a != removed),
        )
        for c in plan.crashes
        if c.agent != removed
    )
    joins = tuple(
        dc_replace(j, agent=shift(j.agent)) for j in plan.joins if j.agent != removed
    )
    return dc_replace(plan, crashes=crashes, joins=joins)


# --------------------------------------------------------------------------- #
# Reduction steps (fixed order)
# --------------------------------------------------------------------------- #


def _reduce_batch(spec: CaseSpec) -> CaseSpec:
    """Project the ensemble onto a single scenario (fault draws preserved)."""
    if spec.batch <= 1:
        return spec
    for scenario in range(spec.batch):
        plan = spec.plan
        if plan is not None:
            # A single-scenario ensemble with scenario_base += b realizes
            # exactly scenario b's fault draws (the sampling contract).
            plan = dc_replace(plan, scenario_base=plan.scenario_base + scenario)
        candidate = dc_replace(
            spec,
            values=spec.values[scenario : scenario + 1],
            graphs=tuple(scenario_graphs(spec.graphs, scenario)),
            plan=plan,
        )
        if _diverges(candidate):
            return candidate
    return spec


def _reduce_rounds(spec: CaseSpec) -> CaseSpec:
    """Truncate trailing rounds while the divergence persists."""
    while spec.rounds > 1:
        candidate = dc_replace(spec, graphs=spec.graphs[:-1])
        if not _diverges(candidate):
            break
        spec = candidate
    return spec


def _reduce_agents(spec: CaseSpec) -> CaseSpec:
    """Remove agents one at a time (highest index first) while possible."""
    entry = get_entry(spec.algorithm)
    if entry.fixed_n is not None:
        return spec
    progress = True
    while progress and spec.n > 1:
        progress = False
        for agent in range(spec.n - 1, -1, -1):
            if spec.perturb is not None and int(spec.perturb["agent"]) == agent:
                continue
            keep = [a for a in range(spec.n) if a != agent]
            candidate = dc_replace(
                spec,
                values=spec.values[:, keep, :],
                graphs=map_schedule(spec.graphs, lambda g: g.restricted_to(keep)),
                plan=_restrict_plan_agents(spec.plan, agent),
                perturb=_shift_perturb(spec, agent),
            )
            if _diverges(candidate):
                spec = candidate
                progress = True
                break
    return spec


def _reduce_dimensions(spec: CaseSpec) -> CaseSpec:
    """Project the values onto a single coordinate."""
    if spec.d <= 1:
        return spec
    for coord in range(spec.d):
        candidate = dc_replace(spec, values=spec.values[:, :, coord : coord + 1])
        if _diverges(candidate):
            return candidate
    return spec


def _reduce_record(spec: CaseSpec) -> CaseSpec:
    """Normalize the recording cadence to 1 (canonical minimal form)."""
    if spec.record_every == 1:
        return spec
    candidate = dc_replace(spec, record_every=1)
    return candidate if _diverges(candidate) else spec


def _simplify_plan(spec: CaseSpec) -> CaseSpec:
    """Shrink the fault plan: drop it, then drop each effect."""
    if spec.plan is None:
        return spec
    plan = spec.plan
    candidates: List[Optional[FaultPlan]] = [
        None,
        FaultPlan(seed=plan.seed, enforce_model=False, scenario_base=plan.scenario_base),
        dc_replace(plan, drop=0.0),
        dc_replace(plan, duplicate=0.0, jitter=0.0),
        dc_replace(plan, crashes=()),
        dc_replace(plan, joins=()),
        dc_replace(plan, enforce_model=False),
    ]
    for reduced in candidates:
        if reduced == spec.plan:
            continue
        candidate = dc_replace(spec, plan=reduced)
        if _diverges(candidate):
            return _simplify_plan(candidate) if reduced is not None else candidate
    return spec


def _simplify_graphs(spec: CaseSpec) -> CaseSpec:
    """Share per-scenario rounds, try self-loop-only rounds, remove edges."""
    entry = get_entry(spec.algorithm)
    # Per-scenario -> shared (scenario 0's graph).
    for round_index, round_graphs in enumerate(spec.graphs):
        if is_shared(round_graphs):
            continue
        candidate = dc_replace(
            spec,
            graphs=tuple(
                round_graphs[0] if r == round_index else g
                for r, g in enumerate(spec.graphs)
            ),
        )
        if _diverges(candidate):
            spec = candidate
    if entry.needs_fixed_graph:
        # The fixed graph must stay identical across rounds: edge removals
        # apply to every round at once (strong-connectivity violations make
        # both sides raise together, so they are rejected naturally).
        graph = spec.graphs[0]
        if is_shared(graph):
            for i in range(spec.n):
                for j in range(spec.n):
                    if i == j or not graph.has_edge(i, j):
                        continue
                    reduced = graph.remove_edge(i, j)
                    candidate = dc_replace(spec, graphs=tuple([reduced] * spec.rounds))
                    if _diverges(candidate):
                        graph = reduced
                        spec = candidate
        return spec
    # Whole-round collapse to self-loops only.
    loops_only = CommunicationGraph(spec.n)
    for round_index in range(spec.rounds):
        if spec.graphs[round_index] == loops_only:
            continue
        candidate = dc_replace(
            spec,
            graphs=tuple(
                loops_only if r == round_index else g
                for r, g in enumerate(spec.graphs)
            ),
        )
        if _diverges(candidate):
            spec = candidate
    # Single-edge removal, fixed scan order.
    for round_index in range(spec.rounds):
        graph = spec.graphs[round_index]
        if not is_shared(graph):
            continue
        for i in range(spec.n):
            for j in range(spec.n):
                if i == j or not graph.has_edge(i, j):
                    continue
                reduced = graph.remove_edge(i, j)
                candidate = dc_replace(
                    spec,
                    graphs=tuple(
                        reduced if r == round_index else g
                        for r, g in enumerate(spec.graphs)
                    ),
                )
                if _diverges(candidate):
                    graph = reduced
                    spec = candidate
    return spec


def _canonicalize_values(spec: CaseSpec) -> CaseSpec:
    """Zero the initial values if possible, else round them coarsely."""
    zeros = np.zeros_like(spec.values)
    if not np.array_equal(spec.values, zeros):
        candidate = dc_replace(spec, values=zeros)
        if _diverges(candidate):
            return candidate
    for decimals in (0, 2, 6):
        rounded = np.round(spec.values, decimals)
        if np.array_equal(rounded, spec.values):
            break
        candidate = dc_replace(spec, values=rounded)
        if _diverges(candidate):
            return candidate
    return spec


_STEPS: Tuple[Callable[[CaseSpec], CaseSpec], ...] = (
    _reduce_batch,
    _reduce_rounds,
    _reduce_agents,
    _reduce_dimensions,
    _reduce_record,
    _simplify_plan,
    _simplify_graphs,
    _canonicalize_values,
)


def minimize(spec: CaseSpec) -> CaseSpec:
    """Shrink a diverging case to a minimal one (deterministic fixpoint).

    Raises :class:`CampaignError` when the input does not diverge.
    """
    if not _diverges(spec):
        raise CampaignError(
            f"cannot minimize a non-diverging case (key {spec.key()})"
        )
    for _ in range(_MAX_PASSES):
        before = spec.key()
        for step in _STEPS:
            spec = step(spec)
        if spec.key() == before:
            break
    return spec


__all__ = ["minimize"]
