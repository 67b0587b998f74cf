"""The synchronous round engine.

``run_execution`` drives an :class:`~repro.algorithms.base.Algorithm` for a
given number of rounds against a communication pattern, producing an
:class:`~repro.execution.execution.Execution` record.  ``apply_graph`` (the
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
  reductions over the graph's adjacency matrix, and per-agent states are only
  materialized for recorded configurations.

``use_fast_path=None`` (the default) auto-selects; ``False`` forces the
per-agent path (used by the equivalence tests and benchmarks) and ``True``
requires the fast path.  Adaptive patterns keep working on the fast path:
the :class:`~repro.models.patterns.RoundContext` exposes the same outputs and
(lazily materialized) states, and ``simulate_outputs`` routes through the
same dispatch.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import Algorithm, ConvexCombinationAlgorithm
from repro.config import resolve_use_fast_path
from repro.exceptions import ExecutionError
from repro.execution.execution import Execution
from repro.execution.state import Configuration
from repro.graphs.digraph import CommunicationGraph
from repro.models.patterns import CommunicationPattern, RoundContext
from repro.types import ValuesLike, as_value_matrix


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


class _AdjacencyCache:
    """Memoizes stacked ``(C, n, n)`` adjacency tensors across rounds.

    Candidate graph lists frequently repeat from decision to decision (a
    greedy adversary re-evaluates the same model every round, Ψ-block
    adversaries replay the committed block graph, constant suffixes repeat one
    list for a whole suffix); re-stacking the adjacency matrices every round
    is pure waste then.  Keys are the identities of the graph objects in the
    list — the cached tuple keeps them alive, so identity keys stay valid.
    """

    MAX_ENTRIES = 64
    MAX_BYTES = 16 << 20

    __slots__ = ("_store", "_bytes")

    def __init__(self) -> None:
        self._store: dict = {}
        self._bytes = 0

    def stacked(self, graphs: Tuple[CommunicationGraph, ...]) -> np.ndarray:
        key = tuple(map(id, graphs))
        hit = self._store.get(key)
        if hit is not None:
            return hit[1]
        stacked = np.stack([graph.adjacency for graph in graphs])
        stacked.setflags(write=False)
        # Bounded in entries *and* bytes: memoization must never pin more
        # memory than the reductions it is saving (large churning per-scenario
        # stacks simply go uncached).
        if (
            len(self._store) < self.MAX_ENTRIES
            and self._bytes + stacked.nbytes <= self.MAX_BYTES
        ):
            self._store[key] = (graphs, stacked)
            self._bytes += stacked.nbytes
        return stacked


def _make_batch_rollout(
    algorithm: Algorithm,
    batch_state: Any,
    round_number: int,
    n: int,
    cache: _AdjacencyCache,
):
    """A ``RoundContext.batch_rollout`` evaluating candidate graph sequences.

    Each round of the rollout stacks the candidates' adjacency matrices into a
    ``(C, n, n)`` tensor and runs one ``batch_transition`` on it; the
    unbatched ``(n, d)``-shaped state broadcasts against the candidate axis,
    so ``C`` candidate simulations cost one vectorized pass per round instead
    of ``C`` Python-level simulations.
    """

    def rollout(sequences: Sequence[Sequence[CommunicationGraph]]) -> np.ndarray:
        candidate_sequences = [list(sequence) for sequence in sequences]
        lengths = {len(sequence) for sequence in candidate_sequences}
        if not candidate_sequences or len(lengths) != 1 or 0 in lengths:
            raise ExecutionError(
                "batch rollout needs candidate sequences sharing one non-zero length"
            )
        for sequence in candidate_sequences:
            for graph in sequence:
                if graph.n != n:
                    raise ExecutionError(
                        f"candidate graph has {graph.n} agents but the configuration has {n}"
                    )
        state = batch_state
        for offset in range(lengths.pop()):
            adjacency = cache.stacked(tuple(sequence[offset] for sequence in candidate_sequences))
            state = algorithm.batch_transition(state, adjacency, round_number + offset)
        outputs = np.asarray(algorithm.batch_outputs(state), dtype=float)
        # Outputs that did not change during the rollout (e.g. mid-phase
        # amortized midpoint) never grow the candidate axis; broadcast to the
        # full (C, n, d) shape so callers always see one row per candidate.
        return np.broadcast_to(
            outputs, (len(candidate_sequences), n, outputs.shape[-1])
        ).copy()

    return rollout


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
        initial and final ones (1 keeps everything).  The graphs list always
        has one entry per executed round.
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

    pattern.reset()
    if _fast_path_enabled(algorithm, use_fast_path):
        return _run_execution_fast(algorithm, initial_values, pattern, rounds, record_every)

    configuration = initial_configuration(algorithm, initial_values)
    execution = Execution(algorithm_name=algorithm.name, configurations=[configuration], graphs=[])
    history: List[CommunicationGraph] = []

    for t in range(1, rounds + 1):
        context = RoundContext(
            round_number=t,
            outputs=configuration.outputs,
            states=configuration.states,
            algorithm=algorithm,
            simulate_outputs=lambda g, _c=configuration: successor_outputs(
                algorithm, _c, g, use_fast_path=False
            ),
            history=history,
        )
        graph = pattern.graph_at(t, context)
        configuration = apply_graph(algorithm, configuration, graph, use_fast_path=False)
        history.append(graph)
        execution.graphs.append(graph)
        if t % record_every == 0 or t == rounds:
            execution.configurations.append(configuration)

    return execution


def _run_execution_fast(
    algorithm: Algorithm,
    initial_values: ValuesLike,
    pattern: CommunicationPattern,
    rounds: int,
    record_every: int,
) -> Execution:
    """The vectorized drive loop behind :func:`run_execution`."""
    values = as_value_matrix(initial_values)
    if values.shape[0] < 1:
        raise ExecutionError("at least one agent is required")
    batch_state = algorithm.batch_initial(values)
    outputs = np.asarray(algorithm.batch_outputs(batch_state), dtype=float)
    execution = Execution(
        algorithm_name=algorithm.name,
        configurations=[
            Configuration(states=algorithm.batch_states(batch_state), outputs=outputs, round_number=0)
        ],
        graphs=[],
    )
    history: List[CommunicationGraph] = []
    rollout_cache = _AdjacencyCache()

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
            history=history,
            batch_rollout=_make_batch_rollout(
                algorithm, batch_state, t, values.shape[0], cache=rollout_cache
            ),
        )
        graph = pattern.graph_at(t, context)
        if graph.n != values.shape[0]:
            raise ExecutionError(
                f"communication graph has {graph.n} agents but the configuration has {values.shape[0]}"
            )
        batch_state = algorithm.batch_transition(batch_state, graph.adjacency, t)
        outputs = np.asarray(algorithm.batch_outputs(batch_state), dtype=float)
        history.append(graph)
        execution.graphs.append(graph)
        if t % record_every == 0 or t == rounds:
            execution.configurations.append(
                Configuration(
                    states=algorithm.batch_states(batch_state), outputs=outputs, round_number=t
                )
            )

    return execution


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
