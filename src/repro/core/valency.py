"""Valency estimation for asymptotic consensus algorithms.

Section 3 defines the *valency* ``Y*_N(C)`` of a configuration ``C`` as the
set of limits reachable from ``C`` in the network model ``N``, and
``δ_N(C) = diam(Y*_N(C))`` as its diameter.  The lower-bound proofs construct
executions along which ``δ_N(C_t)`` shrinks no faster than the claimed
contraction rate.

Valencies of arbitrary algorithms cannot be computed exactly (they quantify
over infinitely many futures), but they can be *under-approximated* by
sampling futures: every sampled future's limit is a member of the valency, so
the diameter of the sampled limits is a lower bound on ``δ_N(C)``.  The
:class:`ValencyEstimator` samples

* the constant suffixes ``G, G, G, ...`` for every ``G`` in the model — these
  are exactly the suffixes used in the proofs of Lemma 7 and Lemma 8 (run a
  graph in which some agent is deaf forever); and
* optionally, all graph sequences up to a bounded depth followed by constant
  suffixes (exhaustive exploration for small models).

For convex-combination algorithms the diameter of the current outputs is an
*upper* bound on ``δ_N(C)`` (the limit always lies in the convex hull of the
current values), so the estimator can also report certified two-sided bounds.

Two evaluation paths are available, mirroring the adversary API:

* the **batched path** (``use_batch=True``, the default) enumerates all
  sampled futures of one exploration depth as a stacked scenario ensemble —
  per-round ``(K, n, n)`` adjacency stacks driven through the algorithm's
  ``batch_*`` hooks — so a whole valency estimate costs a handful of array
  operations per round instead of ``K`` Python-level executions.  Candidate
  prefixes are *streamed* in bounded chunks (never materializing the full
  ``|N|^depth`` product), and an active-set drops scenarios that reached an
  exact fixpoint from the constant-suffix loop early (as certified by the
  algorithm's ``batch_state_fixpoint`` hook).  Ensembles are certified
  from their recorded batch states, sliced and stacked leaf by leaf; single
  configurations are restored through
  :meth:`~repro.algorithms.base.Algorithm.batch_state_from_states` —
  convex-combination algorithms get it from their outputs, stateful ones
  (e.g. the amortized midpoint) implement it.  Round-invariant algorithms
  stack the futures of configurations from all rounds into one pass; others
  stack only configurations of one round.
* the **reference path** (``use_batch=False``, or any algorithm without
  batch hooks) runs one ``run_from_configuration`` per sampled future.

Both paths produce bit-for-bit identical estimates (enforced by
``tests/test_valency_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import Algorithm, GatherPlan, PlannedStack
from repro.config import resolve_scenario_chunk, resolve_threads, resolve_use_batch
from repro.exceptions import EnsembleShapeError, ExecutionError
from repro.execution.batch import EnsembleExecution, RecordedStates
from repro.execution.engine import run_from_configuration
from repro.execution.state import Configuration
from repro.graphs.digraph import CommunicationGraph
from repro.models.network_model import NetworkModel
from repro.types import pairwise_diameters


@dataclass
class ValencyEstimate:
    """Valency estimates of configurations indexed by leading axes.

    One record holds every estimate of a certification: no leading axis for
    one configuration (:meth:`ValencyEstimator.estimate`), ``(R,)`` along a
    trace (:meth:`ValencyEstimator.trace`) and ``(R, B)`` for ``R`` recorded
    rounds of ``B`` scenarios (:meth:`ValencyEstimator.certify_ensemble`).

    Attributes
    ----------
    limits:
        ``(..., F, d)`` array of estimated reachable limits, one row per
        sampled future (``F`` = prefixes × model graphs).
    lower_diameter:
        ``(...)`` diameters of the sampled limits — lower bounds on
        ``δ_N(C)`` up to the convergence error of the suffix runs.
    upper_diameter:
        For convex-combination algorithms, the ``(...)`` diameters of the
        current outputs (upper bounds on ``δ_N(C)``); ``None`` otherwise.
    """

    limits: np.ndarray
    lower_diameter: np.ndarray
    upper_diameter: Optional[np.ndarray]

    def __getitem__(self, index) -> "ValencyEstimate":
        """The estimates at ``index`` of the leading axes (e.g. ``[:, b]``)."""
        return ValencyEstimate(
            limits=self.limits[index],
            lower_diameter=self.lower_diameter[index],
            upper_diameter=None if self.upper_diameter is None else self.upper_diameter[index],
        )

    @staticmethod
    def concatenate(parts: Sequence["ValencyEstimate"], axis: int) -> "ValencyEstimate":
        """Join records along leading axis ``axis`` (e.g. scenario shards on axis 1)."""
        upper = [part.upper_diameter for part in parts]
        return ValencyEstimate(
            limits=np.concatenate([part.limits for part in parts], axis=axis),
            lower_diameter=np.concatenate([part.lower_diameter for part in parts], axis=axis),
            upper_diameter=None if upper[0] is None else np.concatenate(upper, axis=axis),
        )


class ValencyEstimator:
    """Estimate valencies ``Y*_N(C)`` and their diameters ``δ_N(C)``.

    Parameters
    ----------
    algorithm:
        The asymptotic consensus algorithm under study.
    model:
        The network model ``N`` (a finite set of graphs).
    suffix_rounds:
        How many rounds each sampled future is run for; the limit is
        approximated by the centroid of the final outputs, with error at most
        the final output diameter for convex-combination algorithms.
    exploration_depth:
        All graph sequences of this length are explored exhaustively before
        appending constant suffixes.  Depth 0 (the default) samples only the
        constant suffixes, which is sufficient for the paper's constructions.
    use_batch:
        Evaluate all sampled futures as stacked scenario ensembles through
        the algorithm's batch hooks.  ``None`` (the default) resolves through
        the active :class:`~repro.config.EngineConfig` (batched unless
        configured off).  The batched path stacks the recorded batch states
        of an ensemble as they are, restores single configurations through
        :meth:`~repro.algorithms.base.Algorithm.batch_state_from_states`,
        and stacks configurations — of all rounds for
        :meth:`~repro.algorithms.base.Algorithm.round_invariant` algorithms,
        of one round otherwise.  Algorithms without these hooks fall back to
        the per-future reference loop; ``use_batch=False`` forces it.
    scenario_chunk:
        Upper bound on the number of stacked scenarios per batched pass
        (``None`` resolves through the active config, default 4096).
        Configurations are stacked at most ``scenario_chunk // |N|`` per
        pass and exhaustive prefixes are streamed in chunks respecting this
        bound, so peak memory stays ``O(scenario_chunk · n²)`` regardless of
        ``|N|^depth`` or the number of configurations (as long as
        ``|N| <= scenario_chunk``).
    threads:
        Parallel worker count for :meth:`certify_ensemble` (``None``
        resolves through the active config, then ``REPRO_THREADS``, default
        1).  Scenarios certify independently — their futures never interact
        — so the ensemble's scenario axis shards across worker threads with
        bit-for-bit identical estimates (enforced by
        ``tests/test_parallel_backend.py``).
    """

    def __init__(
        self,
        algorithm: Algorithm,
        model: NetworkModel,
        suffix_rounds: int = 60,
        exploration_depth: int = 0,
        use_batch: Optional[bool] = None,
        scenario_chunk: Optional[int] = None,
        threads: Optional[int] = None,
    ) -> None:
        use_batch = resolve_use_batch(use_batch)
        scenario_chunk = resolve_scenario_chunk(scenario_chunk)
        threads = resolve_threads(threads)
        if suffix_rounds < 1:
            raise ValueError(f"suffix_rounds must be >= 1, got {suffix_rounds}")
        if exploration_depth < 0:
            raise ValueError(f"exploration_depth must be >= 0, got {exploration_depth}")
        if scenario_chunk < 1:
            raise ValueError(f"scenario_chunk must be >= 1, got {scenario_chunk}")
        self._algorithm = algorithm
        self._model = model
        self._suffix_rounds = suffix_rounds
        self._exploration_depth = exploration_depth
        self._use_batch = use_batch
        self._scenario_chunk = scenario_chunk
        self._threads = threads

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def limit_estimates(self, configuration: Configuration) -> np.ndarray:
        """Estimated reachable limits from ``configuration`` (one row per sampled future)."""
        return self._limit_estimates([configuration])[0]

    def estimate(self, configuration: Configuration) -> ValencyEstimate:
        """Full estimate (limits plus certified lower/upper diameter bounds), no leading axis."""
        return self._record(configuration.outputs, self.limit_estimates(configuration))

    def valency_diameter(self, configuration: Configuration) -> float:
        """Lower estimate of ``δ_N(C)`` (diameter of the sampled reachable limits)."""
        return float(pairwise_diameters(self.limit_estimates(configuration)))

    def valencies_intersect(
        self,
        config_a: Configuration,
        config_b: Configuration,
        tolerance: float = 1e-6,
    ) -> bool:
        """Heuristic check that ``Y*_N(A)`` and ``Y*_N(B)`` intersect (Lemma 7 situations).

        The check looks for a *common suffix* leading both configurations to
        the same limit (up to ``tolerance``), which is precisely how Lemma 7
        establishes the intersection.
        """
        if self._batchable():
            limits_a, limits_b = self._batched_limits([config_a, config_b], max_depth=0)
            return any(
                float(np.linalg.norm(limits_a[index] - limits_b[index])) <= tolerance
                for index in range(limits_a.shape[0])
            )
        for graph in self._model:
            limit_a = self._constant_suffix_limit(config_a, graph)
            limit_b = self._constant_suffix_limit(config_b, graph)
            if float(np.linalg.norm(limit_a - limit_b)) <= tolerance:
                return True
        return False

    def trace(self, configurations: Sequence[Configuration]) -> ValencyEstimate:
        """Valency estimates along ``R`` configurations (e.g. an execution), axis ``(R,)``.

        On the batched path the configurations share stacked passes as
        :meth:`certify_ensemble`'s do: round-invariant algorithms stack
        configurations of any rounds, others only those of one round, and
        no pass stacks more than ``scenario_chunk`` suffix futures.
        """
        configurations = list(configurations)
        if not configurations:
            raise ExecutionError("a valency trace needs at least one configuration")
        return self._record(
            np.stack([configuration.outputs for configuration in configurations]),
            self._limit_estimates(configurations),
        )

    def certify_ensemble(self, ensemble: EnsembleExecution) -> ValencyEstimate:
        """Valency estimates at every recorded round of an ensemble, axes ``(R, B)``.

        The ensemble-scale counterpart of running :meth:`trace` on ``B``
        independent single-scenario executions: entry ``[r, b]`` is scenario
        ``b``'s estimate at recorded round ``ensemble.recorded_rounds[r]``,
        and ``[:, b]`` is bit-for-bit what the per-scenario trace produces
        (all evaluation paths perform the same elementwise operations, only
        stacked).  On the batched path the recorded batch states are sliced
        and stacked leaf by leaf
        (:meth:`~repro.execution.batch.RecordedStates.stacked_rounds`), so
        the sampled futures of all ``B`` scenarios — and, for round-invariant
        algorithms (stateful ones such as the amortized midpoint included),
        of all recorded rounds — run as single ensemble passes of per-round
        ``(K, n, n)`` adjacency stacks, in ``scenario_chunk``-bounded groups.
        No per-agent state object is built or restored on that path.

        Requires the ensemble to have been run with ``record_states=True``
        (:attr:`~repro.execution.batch.EnsembleExecution.recorded_states`);
        :class:`repro.api.Study` does this automatically for certified
        ensemble studies.

        Faulted ensembles (run with a
        :class:`~repro.faults.FaultPlan`) certify unchanged: the recorded
        configurations already hold the post-fault states, so the estimates
        quantify the valency of what the faulted system actually reached.
        The estimator's *futures* are still drawn from ``model`` — the
        certificate asks "how contracted is the reachable set from here
        under fault-free continuations", which is the quantity the Theorem 6
        bounds control.  Scenario ``b`` of a faulted ensemble certifies
        bit-for-bit identically to a single-scenario run of the same
        scenario under the same resolved plan.
        """
        if not isinstance(ensemble, EnsembleExecution):
            raise ExecutionError(
                f"certify_ensemble needs an EnsembleExecution, got {type(ensemble).__name__}"
            )
        recorded = ensemble.recorded_states
        if recorded is None:
            raise ExecutionError(
                "ensemble certification needs recorded per-scenario configurations; "
                "rerun the ensemble with record_states=True (Study(certify=...) does "
                "this automatically)"
            )
        n = ensemble.n
        for graph in self._model:
            if graph.n != n:
                raise EnsembleShapeError(
                    f"model graph has {graph.n} agents, ensemble scenarios have {n} "
                    f"(recorded outputs shape {ensemble.recorded_outputs.shape})"
                )
        batch_size = ensemble.batch_size
        rounds = ensemble.recorded_rounds
        outputs = ensemble.recorded_outputs
        if self._threads > 1 and batch_size > 1:
            # Scenario-axis sharding: per-scenario limits are arithmetically
            # independent (stacked passes never mix results across
            # configurations), so estimating contiguous scenario slices on
            # worker threads and concatenating is bit-for-bit identical to the
            # serial pass.  Imported lazily to keep the module import-light.
            from repro.execution.parallel import parallel_map, shard_bounds

            tasks = [
                lambda start=start, stop=stop: self._recorded_limits(
                    recorded.slice(start, stop), rounds, outputs[:, start:stop]
                )
                for start, stop in shard_bounds(batch_size, self._threads)
            ]
            limits = np.concatenate(parallel_map(tasks, self._threads), axis=1)
        else:
            limits = self._recorded_limits(recorded, rounds, outputs)
        return self._record(outputs, limits)

    def _recorded_limits(
        self, recorded: RecordedStates, rounds: Sequence[int], outputs: np.ndarray
    ) -> np.ndarray:
        """``(R, B, F, d)`` limit estimates of ``(R, B)`` recorded states and outputs."""
        batch_size = outputs.shape[1]
        if not self._batchable():
            per_scenario = [
                self._limit_estimates(recorded.scenario_configurations(b, rounds, outputs))
                for b in range(batch_size)
            ]
            return np.stack(per_scenario, axis=1)
        limits = self._stacked_limits(recorded, rounds, batch_size, self._exploration_depth)
        return limits.reshape((len(rounds), batch_size) + limits.shape[1:])

    def _limit_estimates(self, configurations: Sequence[Configuration]) -> np.ndarray:
        """``(R, F, d)`` limit estimates of ``R`` configurations, batched or reference."""
        if self._batchable():
            return self._batched_limits(configurations, self._exploration_depth)
        return np.stack([self._limit_estimates_reference(c) for c in configurations])

    # ------------------------------------------------------------------ #
    # Reference path
    # ------------------------------------------------------------------ #

    def _limit_estimates_reference(self, configuration: Configuration) -> np.ndarray:
        limits: List[np.ndarray] = []
        for prefix in self._prefixes():
            start = configuration
            if prefix:
                start, _ = run_from_configuration(self._algorithm, configuration, list(prefix))
            for graph in self._model:
                limits.append(self._constant_suffix_limit(start, graph))
        return np.vstack(limits)

    def _prefixes(self) -> Iterable[Sequence[CommunicationGraph]]:
        if self._exploration_depth == 0:
            yield ()
            return
        graphs = list(self._model)
        for depth in range(self._exploration_depth + 1):
            if depth == 0:
                yield ()
                continue
            for combo in iter_product(graphs, repeat=depth):
                yield combo

    def _constant_suffix_limit(
        self, configuration: Configuration, graph: CommunicationGraph
    ) -> np.ndarray:
        final, _ = run_from_configuration(
            self._algorithm, configuration, [graph] * self._suffix_rounds
        )
        return final.outputs.mean(axis=0)

    # ------------------------------------------------------------------ #
    # Batched path
    # ------------------------------------------------------------------ #

    def _batchable(self) -> bool:
        """Whether the stacked-ensemble path applies.

        It needs the algorithm's batch hooks and its ``batch_state``
        snapshot/restore hooks
        (:meth:`~repro.algorithms.base.Algorithm.batch_state_from_states`),
        which convex-combination algorithms get from their outputs and
        stateful ones (e.g. the amortized midpoint) implement.  Anything else
        — or ``use_batch=False`` — takes the per-future reference loop
        (mirroring the adversaries' per-candidate reference loop).
        """
        return (
            self._use_batch
            and self._algorithm.supports_batch()
            and self._algorithm.supports_batch_state()
        )

    def _pass_ranges(self, round_numbers: Sequence[int]) -> Iterator[Tuple[int, int]]:
        """Index ranges ``[start, stop)`` of configurations that share one stacked pass.

        Round-invariant algorithms stack configurations of any rounds;
        others only runs of one round (their transitions read the round
        number).  Either way at most ``scenario_chunk // |N|``
        configurations share a pass, so a constant-suffix pass stacks at
        most ``scenario_chunk`` futures (one per model graph and
        configuration) however many configurations there are.
        """
        config_group = max(1, self._scenario_chunk // max(1, len(self._model)))
        invariant = self._algorithm.round_invariant()
        start = 0
        for index in range(1, len(round_numbers) + 1):
            if (
                index == len(round_numbers)
                or index - start == config_group
                or (not invariant and round_numbers[index] != round_numbers[start])
            ):
                yield start, index
                start = index

    def _batched_limits(
        self, configurations: Sequence[Configuration], max_depth: int
    ) -> np.ndarray:
        """Stacked ``(R, F, d)`` limit estimates of ``R`` configurations, in input order."""
        recorded = RecordedStates(
            self._algorithm, per_agent=tuple((c.states,) for c in configurations)
        )
        rounds = [configuration.round_number for configuration in configurations]
        return self._stacked_limits(recorded, rounds, 1, max_depth)

    def _stacked_limits(
        self,
        recorded: RecordedStates,
        rounds: Sequence[int],
        batch_size: int,
        max_depth: int,
    ) -> np.ndarray:
        """``(R·B, F, d)`` limit estimates of every recorded configuration, round-major.

        Entry ``r·B + b`` is scenario ``b`` at recorded round ``r``.  Each
        pass stacks a contiguous range of entries: a slice of the recorded
        rounds it spans.
        """
        flat_rounds = [t for t in rounds for _ in range(batch_size)]
        limits: List[np.ndarray] = []
        for start, stop in self._pass_ranges(flat_rounds):
            offset = start - start % batch_size
            spanned = recorded.stacked_rounds(start // batch_size, (stop - 1) // batch_size + 1)
            base = self._algorithm.batch_map(
                spanned, lambda leaf: leaf[start - offset : stop - offset]
            )
            limits.append(
                self._limit_estimates_batch_state(base, flat_rounds[start:stop], max_depth)
            )
        return np.concatenate(limits)

    def _prefix_chunks(
        self, depth: int, chunk_size: int
    ) -> Iterator[List[Tuple[int, ...]]]:
        """Stream the depth-``depth`` prefixes in chunks of at most ``chunk_size``.

        A prefix is a tuple of model-graph indices.  The
        ``itertools.product`` iterator is consumed lazily, so the full
        ``|N|^depth`` candidate list is never materialized — peak memory is
        one chunk of prefix tuples plus its stacked adjacency tensors.
        """
        if depth == 0:
            yield [()]
            return
        chunk: List[Tuple[int, ...]] = []
        for combo in iter_product(range(len(self._model)), repeat=depth):
            chunk.append(combo)
            if len(chunk) >= chunk_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def _limit_estimates_batch_state(
        self, base, round_numbers: Sequence[int], max_depth: int
    ) -> np.ndarray:
        """Batched ``(R, F, d)`` limit estimates of a batch state stacking ``R`` configurations.

        ``round_numbers`` holds the ``R`` configurations' rounds, which must
        agree unless the algorithm is round-invariant.  The state is fanned
        out over each chunk of prefixes of depth ``0 .. max_depth`` via
        ``batch_map`` and driven through stacked adjacency ensembles of
        ``(R · P · M, n, n)`` — ``R`` configurations, ``P`` prefixes and the
        ``M`` model graphs as constant suffixes.  Scenario order matches the
        reference loop exactly (configuration-major, depth-ascending
        prefixes, model suffix graphs innermost), and every scenario runs the
        same elementwise operations as its reference future, so the result
        is bit-for-bit equal to the per-future reference loop.

        Every stack here (each prefix round's and the suffix's) is a
        selection of the model graphs, so one :class:`GatherPlan` built per
        call from the ``M`` graphs plans them all: the masked extremes of the
        algorithms' transitions gather each receiver's in-neighbours instead
        of masking all ``n²`` pairs (see
        :func:`~repro.algorithms.base._masked_extremes_pair`).
        """
        if len(set(round_numbers)) != 1 and not self._algorithm.round_invariant():
            raise ExecutionError(
                "stacked batch-state estimates need configurations at one round, "
                f"got rounds {sorted(set(round_numbers))}"
            )
        config_count = len(round_numbers)
        base_round = round_numbers[0]
        algorithm = self._algorithm
        model_count = len(self._model)
        gather_plan = GatherPlan(np.stack([graph.adjacency for graph in self._model]))
        prefix_chunk_size = max(
            1, self._scenario_chunk // max(1, config_count * model_count)
        )
        collected: List[np.ndarray] = []

        for depth in range(max_depth + 1):
            for prefix_chunk in self._prefix_chunks(depth, prefix_chunk_size):
                prefix_count = len(prefix_chunk)
                # (R · P, ...) leaves, configuration-major then prefix.
                state = algorithm.batch_map(
                    base,
                    lambda leaf, _count=prefix_count: np.repeat(
                        np.asarray(leaf), _count, axis=0
                    ),
                )
                for offset in range(depth):
                    graph_ids = [prefix[offset] for prefix in prefix_chunk]  # (P,)
                    adjacency = gather_plan.stack(np.tile(graph_ids, config_count))
                    state = algorithm.batch_transition(
                        state, adjacency, base_round + 1 + offset
                    )
                # Expand by the constant-suffix graphs: (R · P · M, ...) leaves.
                state = algorithm.batch_map(
                    state,
                    lambda leaf, _count=model_count: np.repeat(leaf, _count, axis=0),
                )
                suffix_stack = gather_plan.stack(
                    np.tile(np.arange(model_count), config_count * prefix_count)
                )
                finals = self._run_constant_suffix_state(
                    state, suffix_stack, base_round + depth
                )
                limits = finals.mean(axis=1)  # (R · P · M, d)
                collected.append(
                    limits.reshape(config_count, prefix_count * model_count, -1)
                )
        return np.concatenate(collected, axis=1)

    def _run_constant_suffix_state(
        self, state, suffix_adjacency: np.ndarray, start_round: int
    ) -> np.ndarray:
        """Run ``suffix_rounds`` constant-graph rounds on a stacked batch state.

        Output-level equality alone cannot retire stateful scenarios (the
        amortized midpoint's outputs stay constant mid-phase while its phase
        extremes keep widening), so the active set is gated on the
        algorithm's *state-level* fixpoint hook
        (:meth:`~repro.algorithms.base.Algorithm.batch_state_fixpoint`):
        scenarios it certifies as exact fixpoints of their constant graph are
        dropped early, bit-for-bit equal to running their remaining rounds.
        Algorithms answering ``None`` run every scenario for the full suffix.

        Retirement compacts in bulk: a check compacts the state and the
        stack only when at least half of the alive scenarios are fixed, and
        then writes the finals of every fixed one.  A fixed scenario left
        alive reproduces its outputs every round (the hook's contract), so
        the final ``finals[alive]`` write gives it the same limit, and the
        finals do not depend on when, or whether, it is compacted away.
        Nor do they depend on which rounds are checked, so the checks back
        off: a check that compacts resets the gap to the next one to one
        round, and any other check doubles it.

        A :class:`~repro.algorithms.base.PlannedStack` keeps its gather plan
        through compaction: the kept rows are re-planned from the model
        graphs, not masked dense for the rest of the suffix.
        """
        algorithm = self._algorithm
        outputs = np.asarray(algorithm.batch_outputs(state), dtype=float)
        finals = np.array(outputs, dtype=float)
        adjacency = suffix_adjacency
        alive = np.arange(finals.shape[0])
        next_check, gap = 0, 1
        for offset in range(self._suffix_rounds):
            new_state = algorithm.batch_transition(
                state, adjacency, start_round + 1 + offset
            )
            if offset == next_check and offset < self._suffix_rounds - 1:
                fixed = algorithm.batch_state_fixpoint(state, new_state)
                retiring = fixed is not None and 2 * np.count_nonzero(fixed) >= alive.size
                gap = 1 if retiring else 2 * gap
                next_check = offset + gap
                if retiring:
                    new_outputs = np.asarray(
                        algorithm.batch_outputs(new_state), dtype=float
                    )
                    new_outputs = np.broadcast_to(new_outputs, (alive.size,) + finals.shape[1:])
                    finals[alive[fixed]] = new_outputs[fixed]
                    keep = ~fixed
                    alive = alive[keep]
                    new_state = algorithm.batch_map(
                        new_state, lambda leaf, _keep=keep: leaf[_keep]
                    )
                    adjacency = (
                        adjacency.keep(keep)
                        if isinstance(adjacency, PlannedStack)
                        else adjacency[keep]
                    )
                    if alive.size == 0:
                        return finals
            state = new_state
        final_outputs = np.asarray(algorithm.batch_outputs(state), dtype=float)
        finals[alive] = np.broadcast_to(final_outputs, (alive.size,) + finals.shape[1:])
        return finals

    def _record(self, outputs: np.ndarray, limits: np.ndarray) -> ValencyEstimate:
        """The record of ``(..., n, d)`` outputs and their ``(..., F, d)`` limits.

        Each bound is one :func:`~repro.types.pairwise_diameters` call over
        every leading index, bit-for-bit equal to per-entry
        :func:`~repro.types.diameter` calls.
        """
        upper = None
        if self._algorithm.is_convex_combination():
            upper = pairwise_diameters(outputs)
        return ValencyEstimate(
            limits=limits, lower_diameter=pairwise_diameters(limits), upper_diameter=upper
        )
