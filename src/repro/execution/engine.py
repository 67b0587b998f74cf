"""The synchronous round engine.

``run_execution`` drives an :class:`~repro.algorithms.base.Algorithm` for a
given number of rounds against a communication pattern, producing an
:class:`~repro.execution.execution.Execution`: the one-scenario view of an
:class:`~repro.execution.execution.EnsembleExecution` record.  ``apply_graph`` (the
``G.C`` operation of Section 2) performs a single round and is also used by
the valency estimator and by adaptive adversaries to evaluate candidate
successor configurations without committing to them.

Two execution paths are available and produce equivalent executions:

* the **per-agent path** — the fully general reference implementation that
  builds a ``{sender: value}`` dict per agent per round and calls the
  algorithm's ``transition``; and
* the **vectorized fast path** — taken automatically whenever the algorithm
  implements the ``batch_*`` hooks of :class:`~repro.algorithms.base.Algorithm`
  (all convex-combination algorithms with a ``combine_all``, plus the
  amortized midpoint algorithm).  Whole rounds are computed as masked NumPy
  reductions over the graph's adjacency matrix.  The recorded batch states
  are kept as they are, so per-agent states are only built when an adaptive
  pattern reads them or ``Execution.configurations`` is read.

``use_fast_path=None`` (the default) auto-selects; ``False`` forces the
per-agent path (used by the equivalence tests and benchmarks) and ``True``
requires the fast path.  Adaptive patterns keep working on the fast path:
the :class:`~repro.models.patterns.RoundContext` exposes the same outputs and
(lazily materialized) states, and ``simulate_outputs`` routes through the
same dispatch.  Adversaries that decide by plans run there as a one-scenario
:func:`~repro.execution.batch.run_adversarial_ensemble`, the one batched
evaluator of candidate plans, whose record the execution wraps unchanged.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import Algorithm, ConvexCombinationAlgorithm
from repro.config import resolve_use_batch, resolve_use_fast_path
from repro.exceptions import ExecutionError
from repro.execution.execution import (
    EnsembleExecution,
    Execution,
    RecordedStates,
    _per_scenario_fields,
    _supports_batch_map,
)
from repro.execution.state import Configuration
from repro.graphs.digraph import CommunicationGraph
from repro.models.patterns import AdversarialPattern, CommunicationPattern, RoundContext
from repro.types import ValuesLike, as_value_matrix, check_finite


def _fast_path_enabled(algorithm: Algorithm, use_fast_path: Optional[bool]) -> bool:
    """Resolve the ``use_fast_path`` tri-state against the algorithm's support.

    An explicit argument wins; ``None`` consults the active
    :class:`~repro.config.EngineConfig` (if any) before auto-selecting.
    """
    use_fast_path = resolve_use_fast_path(use_fast_path)
    if use_fast_path is None:
        return algorithm.supports_batch()
    if use_fast_path and not algorithm.supports_batch():
        raise ExecutionError(
            f"use_fast_path=True but {algorithm.name} does not implement the batch hooks"
        )
    return use_fast_path


class _LazyStates(Sequence):
    """A sequence of per-agent states materialized only on first access.

    The fast path hands this to :class:`~repro.models.patterns.RoundContext`
    so that oblivious patterns never pay for state materialization while
    adaptive adversaries still see the exact per-agent states.
    """

    __slots__ = ("_thunk", "_states")

    def __init__(self, thunk) -> None:
        self._thunk = thunk
        self._states: Optional[Tuple[Any, ...]] = None

    def _materialize(self) -> Tuple[Any, ...]:
        if self._states is None:
            self._states = tuple(self._thunk())
        return self._states

    def __getitem__(self, index):
        return self._materialize()[index]

    def __len__(self) -> int:
        return len(self._materialize())

    def __iter__(self):
        return iter(self._materialize())


def initial_configuration(
    algorithm: Algorithm, initial_values: ValuesLike
) -> Configuration:
    """Build ``C_0`` for ``algorithm`` from the agents' initial values."""
    values = as_value_matrix(initial_values)
    n = values.shape[0]
    if n < 1:
        raise ExecutionError("at least one agent is required")
    states = tuple(algorithm.initial_state(i, values[i], n) for i in range(n))
    outputs = np.vstack([np.asarray(algorithm.output(i, states[i]), dtype=float) for i in range(n)])
    return Configuration(states=states, outputs=outputs, round_number=0)


def apply_graph(
    algorithm: Algorithm,
    configuration: Configuration,
    graph: CommunicationGraph,
    use_fast_path: Optional[bool] = None,
) -> Configuration:
    """The successor configuration ``G.C``: one synchronous round with graph ``G``.

    Every agent broadcasts its message, receives the messages of its
    in-neighbors in ``graph`` (always including its own), and applies the
    algorithm's transition function.  Convex-combination algorithms with a
    ``combine_all`` dispatch to the vectorized fast path automatically;
    other batch-capable algorithms take the per-agent path here (pass
    ``use_fast_path=True`` to get an error instead of a silent fallback).
    """
    n = configuration.n
    if graph.n != n:
        raise ExecutionError(
            f"communication graph has {graph.n} agents but the configuration has {n}"
        )
    round_number = configuration.round_number + 1

    # Fast path: for convex-combination algorithms the state *is* the output
    # matrix, so one masked reduction replaces the per-agent dict traffic.
    # Other batch-capable algorithms (e.g. the amortized midpoint) carry
    # state beyond the outputs that a single Configuration-level step cannot
    # reconstruct cheaply; only run_execution drives their fast path.
    if _fast_path_enabled(algorithm, use_fast_path):
        if isinstance(algorithm, ConvexCombinationAlgorithm):
            new_values = algorithm.batch_transition(
                configuration.outputs, graph.adjacency, round_number
            )
            return Configuration(
                states=tuple(new_values), outputs=new_values, round_number=round_number
            )
        if use_fast_path:
            raise ExecutionError(
                f"apply_graph's fast path only covers convex-combination algorithms; "
                f"run {algorithm.name} through run_execution(use_fast_path=True) instead"
            )

    messages = [algorithm.message(i, configuration.states[i]) for i in range(n)]
    new_states: List[Any] = []
    for j in range(n):
        received = {i: messages[i] for i in graph.in_neighbors(j)}
        new_states.append(
            algorithm.transition(j, configuration.states[j], received, round_number)
        )
    outputs = np.vstack(
        [np.asarray(algorithm.output(j, new_states[j]), dtype=float) for j in range(n)]
    )
    return Configuration(states=tuple(new_states), outputs=outputs, round_number=round_number)


def successor_outputs(
    algorithm: Algorithm,
    configuration: Configuration,
    graph: CommunicationGraph,
    use_fast_path: Optional[bool] = None,
) -> np.ndarray:
    """The output matrix of ``G.C`` (convenience wrapper around :func:`apply_graph`)."""
    return apply_graph(algorithm, configuration, graph, use_fast_path=use_fast_path).outputs


def run_execution(
    algorithm: Algorithm,
    initial_values: ValuesLike,
    pattern: CommunicationPattern,
    rounds: int,
    record_every: int = 1,
    use_fast_path: Optional[bool] = None,
) -> Execution:
    """Run ``algorithm`` for ``rounds`` rounds against ``pattern``.

    On the fast path (and unless the active :class:`~repro.config.EngineConfig`
    sets ``use_batch=False``), an adversary that decides by plans — one that
    keeps :meth:`AdversarialPattern.choose` — runs as the one scenario of
    :func:`~repro.execution.batch.run_adversarial_ensemble`, which evaluates
    each decision's candidates as one stacked pass.  Every other case, the
    reference candidate loop included, runs round by round.

    Parameters
    ----------
    algorithm:
        The local algorithm to run.
    initial_values:
        One initial value per agent (scalars or d-vectors).
    pattern:
        The communication pattern; adaptive patterns receive a
        :class:`~repro.models.patterns.RoundContext` each round.
    rounds:
        Number of rounds ``T`` to execute (``T >= 0``).
    record_every:
        Keep every ``record_every``-th configuration in addition to the
        initial and final ones (1 keeps everything).  The accessors of the
        result take round numbers and name only recorded rounds.  The graphs
        list always has one entry per executed round.
    use_fast_path:
        ``None`` auto-selects the vectorized fast path when the algorithm
        supports it; ``False`` forces the per-agent reference path; ``True``
        requires the fast path (raising if unsupported).

    Returns
    -------
    Execution
        The recorded execution prefix.
    """
    if rounds < 0:
        raise ExecutionError(f"rounds must be non-negative, got {rounds}")
    if record_every < 1:
        raise ExecutionError(f"record_every must be >= 1, got {record_every}")
    check_finite(initial_values)
    if (
        isinstance(pattern, AdversarialPattern)
        and type(pattern).choose is AdversarialPattern.choose
        and _fast_path_enabled(algorithm, use_fast_path)
        and resolve_use_batch()
    ):
        from repro.execution.batch import run_adversarial_ensemble  # avoids a cycle

        pattern.reset()
        ensemble = run_adversarial_ensemble(
            algorithm,
            as_value_matrix(initial_values)[None],
            pattern,
            rounds,
            record_every=record_every,
            record_states=True,
            threads=1,
        )
        return Execution(record=ensemble, graphs=ensemble.scenario_graphs(0))
    return _run_execution(algorithm, initial_values, pattern, rounds, record_every, use_fast_path)


def _run_execution(
    algorithm: Algorithm,
    initial_values: ValuesLike,
    pattern: CommunicationPattern,
    rounds: int,
    record_every: int,
    use_fast_path: Optional[bool] = None,
) -> Execution:
    """The round-by-round loop behind :func:`run_execution`.

    The per-scenario fallback of
    :func:`~repro.execution.batch.run_adversarial_ensemble` calls it
    directly, so the two never hand a run back and forth.
    """
    pattern.reset()
    if _fast_path_enabled(algorithm, use_fast_path):
        return _run_execution_fast(algorithm, initial_values, pattern, rounds, record_every)

    configuration = initial_configuration(algorithm, initial_values)
    configurations = [configuration]
    graphs: List[CommunicationGraph] = []

    for t in range(1, rounds + 1):
        context = RoundContext(
            round_number=t,
            outputs=configuration.outputs,
            states=configuration.states,
            algorithm=algorithm,
            simulate_outputs=lambda g, _c=configuration: successor_outputs(
                algorithm, _c, g, use_fast_path=False
            ),
            history=graphs,
            use_fast_path=False,
        )
        graph = pattern.graph_at(t, context)
        configuration = apply_graph(algorithm, configuration, graph, use_fast_path=False)
        graphs.append(graph)
        if t % record_every == 0 or t == rounds:
            configurations.append(configuration)

    record = EnsembleExecution(**_per_scenario_fields(algorithm, [configurations], None, True))
    return Execution(record=record, graphs=graphs)


def _run_execution_fast(
    algorithm: Algorithm,
    initial_values: ValuesLike,
    pattern: CommunicationPattern,
    rounds: int,
    record_every: int,
) -> Execution:
    """The vectorized drive loop behind :func:`run_execution`.

    Like :func:`~repro.execution.batch.run_ensemble` it keeps each recorded
    batch state as it is, with a one-scenario leading axis; per-agent
    states are split off only where ``batch_map`` cannot add that axis.
    """
    values = as_value_matrix(initial_values)
    if values.shape[0] < 1:
        raise ExecutionError("at least one agent is required")
    batch_state = algorithm.batch_initial(values)
    outputs = np.asarray(algorithm.batch_outputs(batch_state), dtype=float)
    recorded_rounds, recorded, recorded_states = [0], [outputs], [batch_state]
    graphs: List[CommunicationGraph] = []

    for t in range(1, rounds + 1):
        context = RoundContext(
            round_number=t,
            outputs=outputs,
            states=_LazyStates(lambda _bs=batch_state: algorithm.batch_states(_bs)),
            algorithm=algorithm,
            simulate_outputs=lambda g, _bs=batch_state, _t=t: np.asarray(
                algorithm.batch_outputs(algorithm.batch_transition(_bs, g.adjacency, _t)),
                dtype=float,
            ),
            history=graphs,
        )
        graph = pattern.graph_at(t, context)
        if graph.n != values.shape[0]:
            raise ExecutionError(
                f"communication graph has {graph.n} agents but the configuration has {values.shape[0]}"
            )
        batch_state = algorithm.batch_transition(batch_state, graph.adjacency, t)
        outputs = np.asarray(algorithm.batch_outputs(batch_state), dtype=float)
        graphs.append(graph)
        if t % record_every == 0 or t == rounds:
            recorded_rounds.append(t)
            recorded.append(outputs)
            recorded_states.append(batch_state)

    if _supports_batch_map(algorithm, batch_state):
        stacked = tuple(algorithm.batch_map(s, lambda leaf: leaf[None]) for s in recorded_states)
        record = EnsembleExecution(
            algorithm_name=algorithm.name,
            recorded_rounds=recorded_rounds,
            recorded_outputs=np.stack(recorded)[:, None],
            batched=True,
            recorded_states=RecordedStates(algorithm, stacked=stacked),
        )
    else:
        configurations = [
            Configuration(algorithm.batch_states(state), snapshot, t)
            for state, snapshot, t in zip(recorded_states, recorded, recorded_rounds)
        ]
        record = EnsembleExecution(**_per_scenario_fields(algorithm, [configurations], None, True))
    return Execution(record=record, graphs=graphs)


def run_from_configuration(
    algorithm: Algorithm,
    configuration: Configuration,
    graphs: Sequence[CommunicationGraph],
    use_fast_path: Optional[bool] = None,
) -> Tuple[Configuration, List[Configuration]]:
    """Apply a fixed finite graph sequence starting from ``configuration``.

    Returns the final configuration and the list of all intermediate
    configurations (excluding the starting one).  Used by the valency
    estimator to evaluate candidate suffixes.
    """
    intermediate: List[Configuration] = []
    current = configuration
    for graph in graphs:
        current = apply_graph(algorithm, current, graph, use_fast_path=use_fast_path)
        intermediate.append(current)
    return current, intermediate
