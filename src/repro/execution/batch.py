"""Batched ensemble execution: many independent scenarios in one pass.

The vectorized fast path of :mod:`repro.execution.engine` computes a round as
a masked reduction over the adjacency matrix.  Because every reduction
broadcasts over leading axes, an entire *ensemble* of ``B`` independent
scenarios — stacked ``(B, n, d)`` value tensors combined with per-scenario
graph sequences stacked into ``(B, n, n)`` adjacency tensors — runs through
the same NumPy expressions at once.  This is what opens scenario diversity at
scale: initial-value grids, pattern grids, and Monte-Carlo ensembles execute
in a handful of array operations per round instead of ``B`` separate Python
drive loops.

Entry points
------------
* :func:`run_ensemble` — run ``B`` scenarios against explicit per-round
  graphs (shared across scenarios or one per scenario).
* :func:`run_pattern_ensemble` — the same with oblivious
  :class:`~repro.models.patterns.CommunicationPattern` objects.
* :func:`run_adversarial_ensemble` — drive ``B`` scenarios under an adaptive
  adversary, evaluating a ``(B, C, n, d)`` candidate tensor per decision and
  committing a per-scenario argmax.
* :func:`sweep` — cross-product convenience over initial-value and pattern
  grids.

Algorithms without batch hooks fall back to scenario-by-scenario execution
— through :func:`repro.execution.engine.apply_graph` on the graphs route and
the round loop of :func:`repro.execution.engine.run_execution` on the
adversarial route — so the API is total.  :func:`run_adversarial_ensemble` is
the one batched evaluator of adversary plans: ``run_execution`` hands it
single-scenario plan adversaries on the fast path.  The records the runners
return (:class:`EnsembleExecution`, :class:`AdversarialEnsembleExecution`,
:class:`RecordedStates`) live in :mod:`repro.execution.execution`.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.base import Algorithm
from repro.config import resolve_threads, resolve_use_batch
from repro.exceptions import ConfigError, EnsembleShapeError, ExecutionError
from repro.execution.engine import _run_execution, apply_graph, initial_configuration
from repro.execution.execution import (  # the records live there; re-exported here
    AdversarialEnsembleExecution,
    EnsembleExecution,
    RecordedStates,
    _batch_diameters,
    _per_scenario_fields,
    _supports_batch_map,
)
from repro.execution.parallel import parallel_map, shard_bounds
from repro.execution.schedule import (
    RoundGraphs,
    round_adjacency,
    scenario_graphs,
    schedule_from_scenarios,
    slice_schedule,
    validate_schedule,
)
from repro.faults import FaultPlan, FaultSpec, as_fault_plan
from repro.execution.state import Configuration
from repro.graphs.digraph import CommunicationGraph
from repro.models.patterns import AdversarialPattern, CommunicationPattern, check_plans
from repro.types import (
    ValuesLike,
    as_value_matrix,
    check_finite,
    pairwise_diameters,
    running_argmax,
)


def stack_initial_values(initial_values: Union[np.ndarray, Sequence[ValuesLike]]) -> np.ndarray:
    """Promote per-scenario initial values to a ``(B, n, d)`` float tensor."""
    if isinstance(initial_values, np.ndarray):
        if initial_values.ndim == 3:
            return initial_values.astype(float, copy=True)
        if initial_values.ndim != 2:
            raise EnsembleShapeError(
                f"ensemble initial values must be a (B, n, d) tensor or a sequence of "
                f"per-scenario value collections, got an array of shape {initial_values.shape}"
            )
    matrices = [as_value_matrix(values) for values in initial_values]
    if not matrices:
        raise EnsembleShapeError("an ensemble needs at least one scenario")
    shape = matrices[0].shape
    for index, matrix in enumerate(matrices):
        if matrix.shape != shape:
            raise EnsembleShapeError(
                f"scenario {index} has shape {matrix.shape}, expected {shape}: all scenarios "
                "of an ensemble must share n and d"
            )
    return np.stack(matrices)


def _ensemble_inputs(
    initial_values: Union[np.ndarray, Sequence[ValuesLike]],
    scenario_labels: Optional[Sequence[object]],
    record_every: int,
) -> Tuple[np.ndarray, Optional[List[object]]]:
    """A runner call's validated ``(B, n, d)`` values and per-scenario labels."""
    if record_every < 1:
        raise ExecutionError(f"record_every must be >= 1, got {record_every}")
    values = stack_initial_values(initial_values)
    batch_size, n, d = values.shape
    if batch_size < 1 or n < 1 or d < 1:
        raise EnsembleShapeError(
            f"ensemble initial values need B >= 1, n >= 1 and d >= 1, got "
            f"(B, n, d) = {values.shape}"
        )
    check_finite(values)
    labels = list(scenario_labels) if scenario_labels is not None else None
    if labels is not None and len(labels) != batch_size:
        raise ExecutionError(f"need {batch_size} scenario labels, got {len(labels)}")
    return values, labels


def run_ensemble(
    algorithm: Algorithm,
    initial_values: Union[np.ndarray, Sequence[ValuesLike]],
    graph_rounds: Sequence[RoundGraphs],
    record_every: int = 1,
    scenario_labels: Optional[Sequence[object]] = None,
    use_batch: Optional[bool] = None,
    record_states: bool = False,
    fault_plan: Optional[Union[FaultPlan, FaultSpec]] = None,
    threads: Optional[int] = None,
) -> EnsembleExecution:
    """Execute ``B`` independent scenarios through the vectorized fast path.

    Parameters
    ----------
    algorithm:
        The algorithm to run; batch-capable algorithms execute all scenarios
        at once, others fall back to a per-scenario loop.
    initial_values:
        A ``(B, n, d)`` tensor or a sequence of ``B`` per-agent value
        collections (all with the same ``n`` and ``d``).
    graph_rounds:
        One entry per round ``t``: either a single
        :class:`~repro.graphs.digraph.CommunicationGraph` applied to every
        scenario, or a length-``B`` sequence of per-scenario graphs.
    record_every:
        Keep every ``record_every``-th round snapshot in addition to the
        initial and final ones.
    scenario_labels:
        Optional labels stored on the result (one per scenario).
    use_batch:
        ``None`` (default) consults the active
        :class:`~repro.config.EngineConfig` and auto-selects; ``False``
        forces the per-scenario fallback loop; ``True`` requires the stacked
        ensemble path (raising if the algorithm has no batch hooks).  Both
        paths are bit-for-bit identical.
    record_states:
        Additionally record every scenario's state at every recorded round
        (:class:`RecordedStates`), enabling
        :meth:`EnsembleExecution.scenario_configurations` and ensemble-scale
        certification (:meth:`repro.core.valency.ValencyEstimator.certify_ensemble`).
        The batched path keeps each recorded round's batch state as-is;
        algorithms whose batch state cannot be sliced (no ``batch_map``)
        take the per-scenario fallback loop instead.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` (or
        :class:`~repro.faults.FaultSpec`).  On the batched path the plan is
        compiled into per-round keep masks ANDed onto the stacked
        adjacency tensors — one vectorized mask application per round; the
        per-scenario fallback masks each scenario's graph with the same
        deterministic draws, so both paths stay bit-for-bit identical.
        With ``enforce_model=True`` every realized effective graph is
        checked against the crash model ``N_A`` and a violation raises
        :class:`~repro.exceptions.FaultModelError` naming the scenario,
        round and agent.  A zero plan is normalized to ``None``: the run
        is bit-for-bit identical to a fault-free one.
    threads:
        Parallel worker count: ``None`` (default) consults the active
        :class:`~repro.config.EngineConfig` (then the ``REPRO_THREADS`` env
        var, then 1).  With more than one worker the scenario axis is split
        into contiguous shards executed on a thread pool and merged through
        :func:`merge_ensemble_executions`; fault draws are sliced via
        ``scenario_base`` offsets, so the result is bit-for-bit identical
        to the serial run (see :mod:`repro.execution.parallel`).
    """
    values, labels = _ensemble_inputs(initial_values, scenario_labels, record_every)
    batch_size, n, _d = values.shape
    plan = as_fault_plan(fault_plan)
    if plan is not None:
        plan.validate_for(n)
    # Every route, the per-scenario fallback included, sees a schedule checked
    # against the full ensemble shape, so a malformed one fails identically.
    graph_rounds = validate_schedule(graph_rounds, batch_size, n)
    rounds = len(graph_rounds)

    if use_batch and not algorithm.supports_batch():
        raise ExecutionError(
            f"use_batch=True but {algorithm.name} does not implement the batch hooks"
        )
    worker_count = resolve_threads(threads)
    if worker_count > 1 and batch_size > 1:

        def shard_task(start: int, stop: int, shard_values, shard_labels):
            # A shard covering global scenarios [start, stop) draws its faults
            # from a scenario_base + start copy of the plan, which samples the
            # exact slice of the unsharded plan's draws.
            shard_plan = (
                replace(plan, scenario_base=plan.scenario_base + start)
                if plan is not None
                else None
            )
            shard_rounds = slice_schedule(graph_rounds, start, stop)
            return lambda: run_ensemble(
                algorithm,
                shard_values,
                shard_rounds,
                record_every=record_every,
                scenario_labels=shard_labels,
                use_batch=use_batch,
                record_states=record_states,
                fault_plan=shard_plan,
                threads=1,
            )

        return _run_sharded(values, labels, worker_count, shard_task, fault_plan=plan)
    batchable = algorithm.supports_batch() and resolve_use_batch(use_batch)
    batch_state = algorithm.batch_initial(values) if batchable else None
    if not batchable or (record_states and not _supports_batch_map(algorithm, batch_state)):
        return _run_ensemble_slow(
            algorithm, values, graph_rounds, record_every, labels, record_states, plan
        )
    recorded_rounds = [0]
    recorded = [np.array(algorithm.batch_outputs(batch_state), dtype=float)]
    recorded_batch_states = [batch_state] if record_states else None
    for t, round_graphs in enumerate(graph_rounds, start=1):
        adjacency = round_adjacency(round_graphs)
        if plan is not None:
            # One vectorized mask application per round (instead of B
            # per-scenario Python loops), with the N_A invariant check.
            adjacency = plan.apply_to_adjacency(adjacency, t, batch_size)
        batch_state = algorithm.batch_transition(batch_state, adjacency, t)
        if t % record_every == 0 or t == rounds:
            recorded_rounds.append(t)
            recorded.append(np.array(algorithm.batch_outputs(batch_state), dtype=float))
            if recorded_batch_states is not None:
                recorded_batch_states.append(batch_state)

    return EnsembleExecution(
        algorithm_name=algorithm.name,
        recorded_rounds=recorded_rounds,
        recorded_outputs=np.stack(recorded),
        scenario_labels=labels,
        batched=True,
        recorded_states=_stacked_record(algorithm, recorded_batch_states),
        fault_plan=plan,
    )


def _stacked_record(algorithm: Algorithm, batch_states) -> Optional[RecordedStates]:
    if batch_states is None:
        return None
    return RecordedStates(algorithm, stacked=tuple(batch_states))


def _run_sharded(
    values: np.ndarray,
    labels: Optional[List[object]],
    worker_count: int,
    shard_task: Callable[..., Callable[[], EnsembleExecution]],
    fault_plan: Optional[FaultPlan] = None,
) -> EnsembleExecution:
    """The parallel backend of both runners: contiguous B-axis shards, merged.

    ``shard_task(start, stop, values, labels)`` gets the shard's slices on the
    caller thread and returns the shard's run (the runner with ``threads=1``),
    so schedule slices, fault-plan offsets and adversary copies all exist
    before the fan-out.  The runs execute under the caller's merged config
    (:func:`repro.execution.parallel.parallel_map`); the merge rebuilds the
    serial record bit-for-bit and reports the study-level ``fault_plan``.
    """
    tasks = [
        shard_task(start, stop, values[start:stop], None if labels is None else labels[start:stop])
        for start, stop in shard_bounds(values.shape[0], worker_count)
    ]
    return merge_ensemble_executions(parallel_map(tasks, worker_count), fault_plan=fault_plan)


def _run_ensemble_slow(
    algorithm: Algorithm,
    values: np.ndarray,
    graph_rounds: Sequence[RoundGraphs],
    record_every: int,
    labels: Optional[List[object]],
    record_states: bool,
    plan: Optional[FaultPlan],
) -> EnsembleExecution:
    """Per-scenario fallback for algorithms without batch hooks.

    Faults are applied per scenario through
    :meth:`~repro.faults.FaultPlan.apply_to_graph`, whose masks equal the
    batched path's stacked masks slice-for-slice — the reference loop the
    fuzz harness checks the vectorized fault path against.
    """
    rounds = len(graph_rounds)
    configurations: List[List[Configuration]] = []
    for scenario in range(values.shape[0]):
        configuration = initial_configuration(algorithm, values[scenario])
        recorded = [configuration]
        for t, graph in enumerate(scenario_graphs(graph_rounds, scenario), start=1):
            if plan is not None:
                graph = plan.apply_to_graph(graph, t, scenario)
            configuration = apply_graph(algorithm, configuration, graph)
            if t % record_every == 0 or t == rounds:
                recorded.append(configuration)
        configurations.append(recorded)
    return EnsembleExecution(
        **_per_scenario_fields(algorithm, configurations, labels, record_states),
        fault_plan=plan,
    )


def run_adversarial_ensemble(
    algorithm: Algorithm,
    initial_values: Union[np.ndarray, Sequence[ValuesLike]],
    adversary: AdversarialPattern,
    rounds: int,
    record_every: int = 1,
    scenario_labels: Optional[Sequence[object]] = None,
    use_batch: Optional[bool] = None,
    record_states: bool = False,
    fault_plan: Optional[Union[FaultPlan, FaultSpec]] = None,
    threads: Optional[int] = None,
) -> AdversarialEnsembleExecution:
    """Drive ``B`` scenarios under an adaptive adversary in one batched loop.

    Each decision evaluates the adversary's candidate graph sequences against
    *every* scenario at once — a ``(B, C, n, d)`` candidate tensor computed by
    broadcasting the ensemble state against the stacked ``(C, n, n)``
    candidate adjacencies — and commits a per-scenario argmax of the successor
    output diameters.  The committed choices are exactly the ones ``B``
    independent per-scenario runs of the same adversary would make (enforced
    by ``tests/test_adversary_batch.py``), so worst-case sweeps scale with the
    hardware instead of with Python-level simulation loops.

    The adversary's plans are the whole declaration: the runner resolves
    them like :meth:`~repro.models.patterns.AdversarialPattern.choose` does
    (per-scenario
    :meth:`~repro.models.patterns.AdversarialPattern.ensemble_plans` handed
    each scenario's committed history, else the shared
    :meth:`~repro.models.patterns.AdversarialPattern.ensemble_plan`) and
    picks with the same :func:`~repro.types.running_argmax`.  Plans are
    resolved only when a round runs, so ``rounds=0`` returns the initial
    configurations for any adversary.

    Falls back to the scenario-by-scenario round loop of
    :func:`repro.execution.run_execution` (which calls the adversary's
    :meth:`~repro.models.patterns.AdversarialPattern.choose`) when the
    algorithm has no batch hooks, the adversary declares no plan for round 1,
    or ``use_batch`` resolves to ``False``.

    Fault injection is not supported on the adversarial route (a non-zero
    ``fault_plan`` raises :class:`~repro.exceptions.ConfigError`): the
    adversary evaluates and commits *raw* candidate graphs while faults
    would mask the applied ones, so the committed history and the realized
    execution would diverge.  Run the adversary fault-free, then replay its
    committed per-scenario graph schedules as a faulted ``graphs``-route
    ensemble (what :func:`repro.analysis.experiments.run_certification_sweep`
    does for its faulted certification rows).

    ``threads`` (resolved through the active config like
    :func:`run_ensemble`) shards the scenario axis across worker threads;
    every decision the batched runner makes is a *per-scenario* argmax over
    per-scenario histories, so each shard — driving its own deep copy of the
    adversary — commits exactly the choices the full run commits for its
    scenarios, and the merged record is bit-for-bit identical to the serial
    run.
    """
    if rounds < 0:
        raise ExecutionError(f"rounds must be non-negative, got {rounds}")
    if as_fault_plan(fault_plan) is not None:
        raise ConfigError(
            "run_adversarial_ensemble does not support fault injection: the "
            "adversary's committed graph history would diverge from the faulted "
            "realized graphs; run the adversary fault-free and replay its "
            "committed schedules as a faulted graphs-route ensemble instead"
        )
    values, labels = _ensemble_inputs(initial_values, scenario_labels, record_every)
    batch_size, n, _d = values.shape
    if not isinstance(adversary, AdversarialPattern):
        raise ExecutionError(
            f"run_adversarial_ensemble needs an AdversarialPattern, got {type(adversary).__name__}"
        )
    worker_count = resolve_threads(threads)
    if worker_count > 1 and batch_size > 1:

        def shard_task(start: int, stop: int, shard_values, shard_labels):
            # Safe to shard because every commit of the (batched or
            # per-scenario) runner is a per-scenario argmax over that
            # scenario's own committed history; each shard drives an
            # independent deep copy of the adversary, so stateful adversaries
            # neither race nor observe other shards' scenarios.  The shipped
            # adversaries' plans depend only on (round, n, per-scenario
            # history); tests/test_parallel_backend.py enforces
            # choice-for-choice equality with the serial run.
            shard_adversary = copy.deepcopy(adversary)
            return lambda: run_adversarial_ensemble(
                algorithm,
                shard_values,
                shard_adversary,
                rounds,
                record_every=record_every,
                scenario_labels=shard_labels,
                use_batch=use_batch,
                record_states=record_states,
                threads=1,
            )

        return _run_sharded(values, labels, worker_count, shard_task)
    batchable = algorithm.supports_batch() and resolve_use_batch(use_batch)
    # Adversaries that keep the base-class ensemble_plans always answer None,
    # so the runner skips the per-round call (and the per-scenario history
    # copies it would need) entirely for them.
    history_dependent = (
        type(adversary).ensemble_plans is not AdversarialPattern.ensemble_plans
    )
    histories: List[List[CommunicationGraph]] = [[] for _ in range(batch_size)]
    # The last shared plan check_plans passed, and its (C, horizon, commit):
    # a fixed plan is checked once per run, not at every decision.  A weak
    # reference, so a plan built per decision is freed with its stacks.
    checked_plan, checked_shape = None, None

    def decision_at(t: int):
        """Round ``t``'s plan: (per-scenario candidates, C, horizon, commit, stacks).

        ``stacks[offset]`` is the candidates' adjacency at that offset:
        ``(C, n, n)`` from a shared plan, which every scenario broadcasts
        against, or ``(B, C, n, n)`` from per-scenario plans.
        """
        scenario_plans = (
            adversary.ensemble_plans(t, n, [list(history) for history in histories])
            if history_dependent
            else None
        )
        if scenario_plans is not None:
            scenario_plans = list(scenario_plans)
            count, horizon, commit_rounds = check_plans(scenario_plans, batch_size, n)
            # Per-scenario plans are built per decision: copy their graphs
            # straight into (B, C, n, n) rather than through each short-lived
            # plan's own (C, n, n) stacks.
            stacks = [
                np.array(
                    [
                        [candidate[offset].adjacency for candidate in plan.candidates]
                        for plan in scenario_plans
                    ]
                )
                for offset in range(horizon)
            ]
            candidate_lists = [plan.candidates for plan in scenario_plans]
            return candidate_lists, count, horizon, commit_rounds, stacks
        plan = adversary.ensemble_plan(t, n)
        if plan is None:
            return None
        nonlocal checked_plan, checked_shape
        if checked_plan is None or checked_plan() is not plan:
            checked_shape = check_plans([plan], 1, n)
            checked_plan = weakref.ref(plan)
        count, horizon, commit_rounds = checked_shape
        return [plan.candidates] * batch_size, count, horizon, commit_rounds, plan.adjacency_stacks

    first_decision = decision_at(1) if batchable and rounds > 0 else None
    # Structured states without the batch_map hook take the per-scenario
    # fallback instead of crashing mid-run.
    planned = batchable and (rounds == 0 or first_decision is not None)
    batch_state = algorithm.batch_initial(values) if planned else None
    if not planned or not _supports_batch_map(algorithm, batch_state):
        # Per-scenario fallback through the round loop: also the reference
        # the batched commits are checked against.
        executions = [
            _run_execution(algorithm, scenario_values, adversary, rounds, record_every)
            for scenario_values in values
        ]
        return AdversarialEnsembleExecution(
            **_per_scenario_fields(
                algorithm, [e.configurations for e in executions], labels, record_states
            ),
            round_choices=schedule_from_scenarios([e.graphs for e in executions]),
        )
    recorded_rounds = [0]
    recorded = [np.array(algorithm.batch_outputs(batch_state), dtype=float)]
    recorded_batch_states = [batch_state] if record_states else None
    round_choices: List[List[CommunicationGraph]] = []
    rows = np.arange(batch_size)

    t = 1
    decision, first_decision = first_decision, None
    while t <= rounds:
        if decision is None:
            raise ExecutionError(
                f"{type(adversary).__name__}.ensemble_plan returned None mid-run"
            )
        candidate_lists, count, horizon, commit_rounds, stacks = decision

        # Evaluate all candidates against all scenarios at once: insert a
        # candidate axis into the batch state and let the stacked candidate
        # adjacencies broadcast it to (B, C, n, d).  The states of the rounds
        # to commit are kept: the winners' states are the committed ones.
        commit = min(commit_rounds, rounds - t + 1)
        candidate_state = algorithm.batch_map(batch_state, lambda a: a[:, None, ...])
        kept_states = []
        for offset in range(horizon):
            candidate_state = algorithm.batch_transition(
                candidate_state, stacks[offset], t + offset
            )
            if offset < commit:
                kept_states.append(candidate_state)
        outputs = np.asarray(algorithm.batch_outputs(candidate_state), dtype=float)
        if outputs.shape[:2] != (batch_size, count):
            # Outputs no candidate changed (mid-phase) keep the size-1 axis.
            outputs = np.broadcast_to(outputs, (batch_size, count, n, outputs.shape[-1]))
        choices = running_argmax(pairwise_diameters(outputs))  # (B,) from (B, C)

        def winners(leaf):
            # Leaves the candidate pass left broadcast over the candidate
            # axis hold one state per scenario.
            return leaf[:, 0] if leaf.shape[1] == 1 else leaf[rows, choices]

        for offset in range(commit):
            committed = [
                candidate_lists[b][choices[b]][offset] for b in range(batch_size)
            ]
            batch_state = algorithm.batch_map(kept_states[offset], winners)
            round_choices.append(committed)
            if history_dependent:
                for scenario, graph in enumerate(committed):
                    histories[scenario].append(graph)
            if t % record_every == 0 or t == rounds:
                recorded_rounds.append(t)
                recorded.append(np.array(algorithm.batch_outputs(batch_state), dtype=float))
                if recorded_batch_states is not None:
                    recorded_batch_states.append(batch_state)
            t += 1
        # Free this decision's stacks before the next decision builds its own.
        del decision, stacks
        decision = decision_at(t) if t <= rounds else None

    return AdversarialEnsembleExecution(
        algorithm_name=algorithm.name,
        recorded_rounds=recorded_rounds,
        recorded_outputs=np.stack(recorded),
        scenario_labels=labels,
        round_choices=round_choices,
        batched=True,
        recorded_states=_stacked_record(algorithm, recorded_batch_states),
    )


def materialize_pattern(pattern: CommunicationPattern, rounds: int) -> List[CommunicationGraph]:
    """Evaluate an oblivious pattern's first ``rounds`` graphs.

    Adaptive patterns cannot be materialized ahead of the execution and raise
    :class:`~repro.exceptions.ExecutionError` (run them one scenario at a time
    through :func:`repro.execution.run_execution`).
    """
    pattern.reset()
    return [pattern.graph_at(t) for t in range(1, rounds + 1)]


def run_pattern_ensemble(
    algorithm: Algorithm,
    initial_values: Union[np.ndarray, Sequence[ValuesLike]],
    patterns: Union[CommunicationPattern, Sequence[CommunicationPattern]],
    rounds: int,
    record_every: int = 1,
    scenario_labels: Optional[Sequence[object]] = None,
    use_batch: Optional[bool] = None,
    record_states: bool = False,
    fault_plan: Optional[Union[FaultPlan, FaultSpec]] = None,
    threads: Optional[int] = None,
) -> EnsembleExecution:
    """Run an ensemble against oblivious communication patterns.

    ``patterns`` is a single pattern shared by every scenario or one pattern
    per scenario.  ``fault_plan`` masks the materialized graphs exactly as
    on the ``graphs`` route (see :func:`run_ensemble`).  ``threads`` shards
    the scenario axis exactly as on the ``graphs`` route; the patterns are
    materialized *before* sharding (on the caller thread), so stateful
    pattern objects never race.
    """
    if rounds < 0:
        raise ExecutionError(f"rounds must be non-negative, got {rounds}")
    values, labels = _ensemble_inputs(initial_values, scenario_labels, record_every)
    batch_size = values.shape[0]
    if isinstance(patterns, CommunicationPattern):
        graph_rounds: List[RoundGraphs] = list(materialize_pattern(patterns, rounds))
    else:
        pattern_list = list(patterns)
        if len(pattern_list) != batch_size:
            raise ExecutionError(
                f"need one pattern per scenario ({batch_size}), got {len(pattern_list)}"
            )
        graph_rounds = schedule_from_scenarios(
            [materialize_pattern(p, rounds) for p in pattern_list]
        )
    return run_ensemble(
        algorithm,
        values,
        graph_rounds,
        record_every=record_every,
        scenario_labels=labels,
        use_batch=use_batch,
        record_states=record_states,
        fault_plan=fault_plan,
        threads=threads,
    )


def sweep(
    algorithm: Algorithm,
    initial_values_grid: Sequence[ValuesLike],
    patterns: Union[CommunicationPattern, Sequence[CommunicationPattern]],
    rounds: int,
    record_every: int = 1,
) -> EnsembleExecution:
    """Cross-product sweep over initial-value and pattern grids.

    Builds one scenario per ``(initial values, pattern)`` pair and executes
    the whole grid as a single batched ensemble.  Each scenario is labelled
    ``(value_index, pattern_index)`` so results can be pivoted back onto the
    grid.
    """
    values_list = [as_value_matrix(values) for values in initial_values_grid]
    if not values_list:
        raise ExecutionError("a sweep needs at least one initial-value vector")
    pattern_list = (
        [patterns] if isinstance(patterns, CommunicationPattern) else list(patterns)
    )
    if not pattern_list:
        raise ExecutionError("a sweep needs at least one pattern")
    per_pattern = [materialize_pattern(p, rounds) for p in pattern_list]
    labels = [(v, p) for v in range(len(values_list)) for p in range(len(pattern_list))]
    return run_ensemble(
        algorithm,
        stack_initial_values([values_list[v] for v, _ in labels]),
        schedule_from_scenarios([per_pattern[p] for _, p in labels]),
        record_every=record_every,
        scenario_labels=labels,
    )


def merge_ensemble_executions(
    shards: Sequence[EnsembleExecution],
    fault_plan: Optional[FaultPlan] = None,
) -> EnsembleExecution:
    """Concatenate shard ensembles along the scenario axis, deterministically.

    The inverse of slicing an ensemble study into shard jobs: given the
    shards **in scenario order**, rebuilds the ``(R, B, n, d)`` record a
    single run over the full ensemble would have produced — recorded
    outputs, labels and recorded states (:meth:`RecordedStates.concatenate`)
    are concatenated bit-for-bit (no recomputation happens here).  The
    shards must agree on algorithm, recorded rounds and the ``batched``
    provenance flag; labels and recorded states must be present on all
    shards or on none.

    ``fault_plan`` overrides the merged record's provenance plan: each
    shard ran under a ``scenario_base``-offset copy of the study's plan, so
    the caller passes the study-level plan the full run would have carried.
    Without the override the shards must all carry the same plan (the
    fault-free ``None`` included).

    Adversarial shards merge too — including their per-round committed graph
    choices — but only when *every* shard is an
    :class:`AdversarialEnsembleExecution` (mixing provenances is an error).
    By handing adversarial shards to this function the caller asserts the
    slicing did not change the adversary's choices; the parallel backend
    guarantees that by driving a per-shard adversary copy whose commits are
    per-scenario argmaxes (see
    :func:`repro.execution.batch.run_adversarial_ensemble`).
    """
    shard_list = list(shards)
    if not shard_list:
        raise ExecutionError("merging needs at least one shard ensemble")
    routes = {isinstance(shard, AdversarialEnsembleExecution) for shard in shard_list}
    if len(routes) != 1:
        raise ExecutionError(
            "adversarial and non-adversarial ensembles cannot be merged into "
            "one record: the shards ran different routes"
        )
    for shard in shard_list:
        if not isinstance(shard, EnsembleExecution):
            raise ExecutionError(
                f"merging needs EnsembleExecution shards, got {type(shard).__name__}"
            )
    first = shard_list[0]

    def signature(shard: EnsembleExecution) -> dict:
        # What every shard must share; batched differs when shards ran under
        # different engine configurations.
        return {
            "algorithm": shard.algorithm_name,
            "recorded rounds": list(shard.recorded_rounds),
            "batched": shard.batched,
            "per-scenario shape": shard.recorded_outputs.shape[2:],
            "scenario labels present": shard.scenario_labels is not None,
            "recorded states present": shard.recorded_states is not None,
        }

    expected = signature(first)
    for index, shard in enumerate(shard_list[1:], start=1):
        for name, got in signature(shard).items():
            if got != expected[name]:
                raise ExecutionError(
                    f"shard {index} has {name} {got!r}, shard 0 has {expected[name]!r}"
                )
    if fault_plan is None:
        plans = {shard.fault_plan for shard in shard_list}
        if len(plans) != 1:
            raise ExecutionError(
                "shards carry differing fault plans; pass fault_plan= with the "
                "study-level plan the merged record should report"
            )
        fault_plan = shard_list[0].fault_plan
    merged = dict(
        algorithm_name=first.algorithm_name,
        recorded_rounds=list(first.recorded_rounds),
        recorded_outputs=np.concatenate(
            [shard.recorded_outputs for shard in shard_list], axis=1
        ),
        scenario_labels=(
            None
            if first.scenario_labels is None
            else [label for shard in shard_list for label in shard.scenario_labels]
        ),
        batched=first.batched,
        recorded_states=(
            None
            if first.recorded_states is None
            else RecordedStates.concatenate([shard.recorded_states for shard in shard_list])
        ),
        fault_plan=fault_plan,
    )
    if not routes.pop():
        return EnsembleExecution(**merged)
    choice_counts = {len(shard.round_choices) for shard in shard_list}
    if len(choice_counts) != 1:
        raise ExecutionError(
            f"adversarial shards committed differing round counts "
            f"{sorted(choice_counts)}; shards must cover the same horizon"
        )
    merged_choices = [
        [choice for shard in shard_list for choice in shard.round_choices[t]]
        for t in range(choice_counts.pop())
    ]
    return AdversarialEnsembleExecution(**merged, round_choices=merged_choices)
