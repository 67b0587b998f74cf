"""Communication patterns: infinite sequences of communication graphs.

In the system model of Section 2 the adversary chooses, for each round, one
graph from the network model; the resulting infinite sequence is the
*communication pattern* of the execution.  Section 6.1 generalizes this to
arbitrary *properties* — sets of allowed patterns — which the
:class:`SigmaBlockPattern` (concatenations of ``σ_i`` blocks) realizes.

A pattern is an object with a :meth:`CommunicationPattern.graph_at` method;
adaptive (adversarial) patterns additionally receive a
:class:`RoundContext` describing the current configuration and a simulator
for candidate successor configurations, which is how the worst-case
adversaries of the lower-bound proofs are implemented
(:mod:`repro.core.adversary`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import EnsembleShapeError, ExecutionError
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.families import psi_graph
from repro.types import pairwise_diameters, running_argmax


@dataclass
class RoundContext:
    """Information handed to adaptive patterns when they pick the next graph.

    Attributes
    ----------
    round_number:
        The 1-based round about to be executed.
    outputs:
        The ``(n, d)`` matrix of current agent outputs ``y(t-1)``.
    states:
        The current per-agent algorithm states (opaque to the pattern).
    algorithm:
        The running algorithm instance.
    simulate_outputs:
        Callable mapping a candidate communication graph to the ``(n, d)``
        output matrix the algorithm would produce if that graph were applied
        this round.  The call has no side effects on the running execution.
    history:
        The list of graphs applied in earlier rounds.
    use_fast_path:
        The engine path of the running execution (``False`` on the per-agent
        path), which the per-candidate replay takes as well.
    """

    round_number: int
    outputs: np.ndarray
    states: Sequence[Any]
    algorithm: Any
    simulate_outputs: Callable[[CommunicationGraph], np.ndarray]
    history: List[CommunicationGraph] = field(default_factory=list)
    use_fast_path: Optional[bool] = None

    def simulate_sequences_batch(
        self, sequences: Sequence[Sequence[CommunicationGraph]]
    ) -> np.ndarray:
        """The ``(C, n, d)`` outputs after applying each candidate graph sequence.

        All sequences must have the same length.  Each sequence is replayed
        from the current configuration through
        :func:`~repro.execution.engine.run_from_configuration` on the run's
        engine path: the per-candidate reference that
        :func:`~repro.execution.batch.run_adversarial_ensemble`'s stacked
        candidate pass must match bit for bit.
        """
        candidate_sequences = [list(sequence) for sequence in sequences]
        if not candidate_sequences:
            raise ExecutionError("simulate_sequences_batch needs at least one candidate")
        lengths = {len(sequence) for sequence in candidate_sequences}
        if len(lengths) != 1 or 0 in lengths:
            raise ExecutionError(
                f"candidate sequences must share one non-zero length, got lengths {sorted(lengths)}"
            )
        from repro.execution.engine import run_from_configuration  # local import avoids a cycle
        from repro.execution.state import Configuration

        configuration = Configuration(
            states=tuple(self.states),
            outputs=np.asarray(self.outputs, dtype=float),
            round_number=self.round_number - 1,
        )
        finals = []
        for sequence in candidate_sequences:
            final, _ = run_from_configuration(
                self.algorithm, configuration, sequence, use_fast_path=self.use_fast_path
            )
            finals.append(np.asarray(final.outputs, dtype=float))
        return np.stack(finals)


class CommunicationPattern(ABC):
    """Abstract base class of communication patterns."""

    @abstractmethod
    def graph_at(self, round_number: int, context: Optional[RoundContext] = None) -> CommunicationGraph:
        """Return the communication graph of round ``round_number`` (1-based).

        Oblivious patterns ignore ``context``; adaptive patterns may use it.
        """

    def reset(self) -> None:
        """Reset any internal state before a fresh execution (default: no-op)."""


class ConstantPattern(CommunicationPattern):
    """The pattern that applies the same graph every round."""

    def __init__(self, graph: CommunicationGraph) -> None:
        self._graph = graph

    def graph_at(self, round_number: int, context: Optional[RoundContext] = None) -> CommunicationGraph:
        return self._graph

    def __repr__(self) -> str:
        return f"ConstantPattern({self._graph!r})"


class PeriodicPattern(CommunicationPattern):
    """The pattern that cycles through a finite list of graphs forever."""

    def __init__(self, graphs: Sequence[CommunicationGraph]) -> None:
        graphs = list(graphs)
        if not graphs:
            raise ExecutionError("a periodic pattern needs at least one graph")
        self._graphs = graphs

    def graph_at(self, round_number: int, context: Optional[RoundContext] = None) -> CommunicationGraph:
        if round_number < 1:
            raise ExecutionError(f"rounds are 1-based, got {round_number}")
        return self._graphs[(round_number - 1) % len(self._graphs)]

    def __repr__(self) -> str:
        return f"PeriodicPattern({len(self._graphs)} graphs)"


class SequencePattern(CommunicationPattern):
    """A finite prefix of graphs, then a suffix pattern (default: repeat the last graph)."""

    def __init__(
        self,
        prefix: Sequence[CommunicationGraph],
        suffix: Optional[CommunicationPattern] = None,
    ) -> None:
        prefix = list(prefix)
        if not prefix and suffix is None:
            raise ExecutionError("a sequence pattern needs a prefix or a suffix")
        self._prefix = prefix
        self._suffix = suffix or ConstantPattern(prefix[-1])

    def graph_at(self, round_number: int, context: Optional[RoundContext] = None) -> CommunicationGraph:
        if round_number < 1:
            raise ExecutionError(f"rounds are 1-based, got {round_number}")
        if round_number <= len(self._prefix):
            return self._prefix[round_number - 1]
        return self._suffix.graph_at(round_number - len(self._prefix), context)

    def __repr__(self) -> str:
        return f"SequencePattern(prefix={len(self._prefix)}, suffix={self._suffix!r})"


class RandomPattern(CommunicationPattern):
    """A pattern that samples a graph uniformly from a collection each round.

    The sampling is a deterministic function of the round number and the seed,
    so the same pattern object can be replayed across executions.
    """

    def __init__(self, graphs: Sequence[CommunicationGraph], seed: int = 0) -> None:
        graphs = list(graphs)
        if not graphs:
            raise ExecutionError("a random pattern needs at least one graph")
        self._graphs = graphs
        self._seed = seed

    def graph_at(self, round_number: int, context: Optional[RoundContext] = None) -> CommunicationGraph:
        if round_number < 1:
            raise ExecutionError(f"rounds are 1-based, got {round_number}")
        rng = np.random.default_rng((self._seed, round_number))
        return self._graphs[int(rng.integers(len(self._graphs)))]

    def __repr__(self) -> str:
        return f"RandomPattern({len(self._graphs)} graphs, seed={self._seed})"


class SigmaBlockPattern(CommunicationPattern):
    """Concatenation of ``σ_i`` blocks: each block repeats ``Ψ_i`` for ``n - 2`` rounds.

    This realizes the property ``P_seq`` of Section 6.2.  The block choices
    may be given explicitly (``choices``) or sampled pseudo-randomly by block
    index; once the explicit choices are exhausted the last choice repeats.
    """

    def __init__(self, n: int, choices: Optional[Sequence[int]] = None, seed: int = 0) -> None:
        if n < 4:
            raise ExecutionError("sigma-block patterns need n >= 4 agents")
        self._n = n
        self._block_length = n - 2
        self._choices = list(choices) if choices is not None else None
        self._seed = seed
        self._psi = {i: psi_graph(n, i) for i in (0, 1, 2)}

    @property
    def block_length(self) -> int:
        """Number of rounds per ``σ`` block (``n - 2``)."""
        return self._block_length

    def choice_for_block(self, block_index: int) -> int:
        """The special agent made deaf during block ``block_index`` (0-based)."""
        if self._choices is not None:
            if block_index < len(self._choices):
                return self._choices[block_index]
            return self._choices[-1]
        rng = np.random.default_rng((self._seed, block_index))
        return int(rng.integers(3))

    def graph_at(self, round_number: int, context: Optional[RoundContext] = None) -> CommunicationGraph:
        if round_number < 1:
            raise ExecutionError(f"rounds are 1-based, got {round_number}")
        block_index = (round_number - 1) // self._block_length
        return self._psi[self.choice_for_block(block_index)]

    def __repr__(self) -> str:
        return f"SigmaBlockPattern(n={self._n}, block_length={self._block_length})"


@dataclass(frozen=True)
class EnsemblePlan:
    """One decision window of an adversary: candidates and a commit window.

    The plan is the whole declaration of an adversary's decision; both
    :meth:`AdversarialPattern.choose` and
    :func:`repro.execution.batch.run_adversarial_ensemble` derive the choice
    from it.

    Attributes
    ----------
    candidates:
        The ``C`` candidate graph sequences to evaluate, all of the same
        length ``L``.  The first candidate with the largest successor output
        diameter wins (:func:`~repro.types.running_argmax`).
    commit_rounds:
        How many rounds of the winning candidate to commit before the
        adversary is consulted again (1 for receding-horizon adversaries,
        ``L`` for block-committing ones).
    """

    candidates: Tuple[Tuple[CommunicationGraph, ...], ...]
    commit_rounds: int

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ExecutionError("an ensemble plan needs at least one candidate sequence")
        lengths = {len(candidate) for candidate in self.candidates}
        if len(lengths) != 1 or 0 in lengths:
            raise ExecutionError(
                f"ensemble-plan candidates must share one non-zero length, got {sorted(lengths)}"
            )
        if not 1 <= self.commit_rounds <= len(self.candidates[0]):
            raise ExecutionError(
                f"commit_rounds must be in [1, {len(self.candidates[0])}], got {self.commit_rounds}"
            )

    @property
    def horizon(self) -> int:
        """Length ``L`` of every candidate sequence."""
        return len(self.candidates[0])

    @cached_property
    def adjacency_stacks(self) -> Tuple[np.ndarray, ...]:
        """Per offset ``0 .. L-1``, the candidates' read-only ``(C, n, n)`` adjacency stack.

        Built on first use and kept with the plan, so an adversary that
        returns the same plan every decision stacks its candidates once.
        An offset whose graphs are those of the offset before it (a Ψ-block
        repeats one graph per candidate) shares that offset's stack.
        """
        stacks = []
        previous = None
        for column in zip(*self.candidates):
            if previous is None or any(a is not b for a, b in zip(column, previous)):
                stack = np.stack([graph.adjacency for graph in column])
                stack.setflags(write=False)
            stacks.append(stack)
            previous = column
        return tuple(stacks)


def check_plans(
    plans: Sequence[EnsemblePlan], batch_size: int, n: int
) -> Tuple[int, int, int]:
    """Check ``batch_size`` plans and return their shared ``(C, horizon, commit)``.

    Every plan must be an :class:`EnsemblePlan` over ``n``-agent graphs, and
    all must share the candidate count, horizon and commit window, so a whole
    decision evaluates as one stacked pass.  Both the single-scenario
    :meth:`AdversarialPattern.choose` (one plan) and the ensemble runner check
    here, so a malformed plan raises the same
    :class:`~repro.exceptions.EnsembleShapeError` on every route.
    """
    if len(plans) != batch_size:
        raise EnsembleShapeError(
            f"ensemble_plans must return one plan per scenario ({batch_size}), "
            f"got {len(plans)}"
        )
    for plan in plans:
        if not isinstance(plan, EnsemblePlan):
            raise EnsembleShapeError(
                f"ensemble_plans entries must be EnsemblePlan instances, "
                f"got {type(plan).__name__}"
            )
    counts = {len(plan.candidates) for plan in plans}
    horizons = {plan.horizon for plan in plans}
    commits = {plan.commit_rounds for plan in plans}
    if len(counts) != 1 or len(horizons) != 1 or len(commits) != 1:
        raise EnsembleShapeError(
            "per-scenario plans must share one candidate count, horizon and commit "
            f"window; got counts {sorted(counts)}, horizons {sorted(horizons)}, "
            f"commit windows {sorted(commits)}"
        )
    for plan in plans:
        for candidate in plan.candidates:
            for graph in candidate:
                if graph.n != n:
                    raise EnsembleShapeError(
                        f"candidate graph has {graph.n} agents, scenarios have {n}"
                    )
    return counts.pop(), horizons.pop(), commits.pop()


class AdversarialPattern(CommunicationPattern):
    """Base class of adaptive patterns that need the :class:`RoundContext`.

    An adversary declares its decisions as plans: :meth:`ensemble_plan`
    (candidates that depend only on the round number) or
    :meth:`ensemble_plans` (per-scenario candidates that depend on the
    committed history).  Every choice of
    :func:`repro.execution.batch.run_adversarial_ensemble`, which
    :func:`repro.execution.run_execution` hands plan adversaries to on the
    fast path, is derived from them, and so is :meth:`choose`, the
    per-candidate reference.  Adversaries whose decision is not a plan
    override :meth:`choose` instead; both engines then call it round by
    round, scenario by scenario.
    :meth:`graph_at` enforces that a context is available (adaptive patterns
    cannot be evaluated obliviously).
    """

    #: Graphs of the winning candidate still to be played in the current
    #: commit window.
    _pending: Tuple[CommunicationGraph, ...] = ()

    def graph_at(self, round_number: int, context: Optional[RoundContext] = None) -> CommunicationGraph:
        if context is None:
            raise ExecutionError(
                f"{type(self).__name__} is adaptive and needs a RoundContext; "
                "run it through repro.execution.run_execution"
            )
        return self.choose(context)

    def reset(self) -> None:
        self._pending = ()

    def choose(self, context: RoundContext) -> CommunicationGraph:
        """Pick the communication graph for the round described by ``context``.

        Resolves the round's plan (:meth:`ensemble_plans` for this one
        history, else :meth:`ensemble_plan`), evaluates its candidates with
        :meth:`RoundContext.simulate_sequences_batch` and keeps the first one
        with the largest successor output diameter.  Returns the winner's
        first graph and plays the rest of its commit window in the following
        rounds without consulting the plan.
        """
        if self._pending:
            graph, self._pending = self._pending[0], self._pending[1:]
            return graph
        n = context.outputs.shape[0]
        plans = self.ensemble_plans(context.round_number, n, [context.history])
        if plans is None:
            plan = self.ensemble_plan(context.round_number, n)
            if plan is None:
                raise ExecutionError(
                    f"{type(self).__name__} declares no ensemble plan; implement "
                    "ensemble_plan or ensemble_plans, or override choose"
                )
            plans = (plan,)
        check_plans(plans, 1, n)
        (plan,) = plans
        outputs = context.simulate_sequences_batch(plan.candidates)
        winner = plan.candidates[running_argmax(pairwise_diameters(outputs))]
        self._pending = tuple(winner[1:plan.commit_rounds])
        return winner[0]

    def ensemble_plan(self, round_number: int, n: int) -> Optional[EnsemblePlan]:
        """The candidate sequences to evaluate for round ``round_number``.

        Returns ``None`` (the default) when the adversary declares no shared
        plan: it then implements :meth:`ensemble_plans` or overrides
        :meth:`choose`.
        """
        return None

    def ensemble_plans(
        self,
        round_number: int,
        n: int,
        histories: Sequence[Sequence[CommunicationGraph]],
    ) -> Optional[Sequence[EnsemblePlan]]:
        """Per-scenario plans for *history-dependent* adversaries.

        ``histories`` holds, for each of the ``B`` scenarios of the ensemble,
        the graphs committed against that scenario so far (one history,
        :attr:`RoundContext.history`, in single-scenario runs).
        History-dependent adversaries return one :class:`EnsemblePlan` per
        scenario; all plans must share the same horizon, candidate count and
        ``commit_rounds`` so the runner can evaluate the whole decision as a
        single stacked ``(B, C, n, n)`` adjacency pass (see
        :func:`check_plans`).

        Returns ``None`` (the default) when the candidate set depends only on
        the round number; the shared :meth:`ensemble_plan` applies then.
        """
        return None
