"""Worst-case adversaries (adaptive communication patterns).

The lower-bound proofs construct executions round by round, always picking a
successor whose valency diameter stays large.  The adversaries here are the
executable counterparts:

* :class:`GreedyDiameterAdversary` — each round, pick the model graph that
  maximizes the *output* diameter of the successor configuration (the
  standard worst case for averaging algorithms; one-step optimal).
* :class:`LookaheadDiameterAdversary` — the same with ``k``-round lookahead
  over all graph sequences (exact worst case for short horizons).
* :class:`TwoAgentAdversary` — restricted to ``{H0, H1, H2}``; realizes the
  Theorem 1 execution against any two-agent algorithm.
* :class:`PsiBlockAdversary` — plays ``σ_i`` blocks (``Ψ_i`` repeated
  ``n - 2`` times) and greedily chooses the block's deaf agent; realizes the
  Theorem 3 execution.

Each adversary only declares its plan — the candidate graph sequences of a
decision and how many rounds of the winner to commit
(:class:`~repro.models.patterns.EnsemblePlan`).  The greedy, two-agent and
Ψ-block adversaries build their fixed plan once, so its candidate adjacency
stacks are built once too; the lookahead adversary builds its ``|N|^k``
candidates per decision, so their stacks are freed with the plan.
The choice is derived by one rule, the first candidate with the largest
successor output diameter wins, on one batched route:
:func:`repro.execution.batch.run_adversarial_ensemble`, to which
:func:`repro.execution.run_execution` hands single-scenario runs on the fast
path.  ``with EngineConfig(use_batch=False)`` selects the per-candidate
reference loop, :meth:`~repro.models.patterns.AdversarialPattern.choose`
(used by the benchmarks and equivalence tests), which makes identical
choices.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ExecutionError
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.families import psi_graph, two_agent_graphs
from repro.models.network_model import NetworkModel
from repro.models.patterns import AdversarialPattern, EnsemblePlan


class GreedyDiameterAdversary(AdversarialPattern):
    """Pick, every round, the model graph that maximizes the successor output diameter.

    Ties are broken by the order of the graphs in the model, which makes the
    adversary deterministic and executions reproducible.

    ``avoid_repeat=True`` makes the adversary *history-dependent*: the graph
    committed in the previous round is removed from the candidate set (when
    other candidates remain), forcing the adversary to keep perturbing the
    system instead of replaying one worst-case graph.  Its candidate sets then
    differ per scenario, which it declares through :meth:`ensemble_plans`.
    """

    def __init__(self, model: NetworkModel, avoid_repeat: bool = False) -> None:
        self._model = model
        self._avoid_repeat = avoid_repeat
        self._plan = EnsemblePlan(
            candidates=tuple((graph,) for graph in model), commit_rounds=1
        )

    @property
    def model(self) -> NetworkModel:
        """The network model the adversary draws graphs from."""
        return self._model

    def _candidate_graphs(
        self, history: Sequence[CommunicationGraph]
    ) -> List[CommunicationGraph]:
        graphs = list(self._model)
        if self._avoid_repeat and history:
            last = history[-1]
            filtered = [graph for graph in graphs if graph is not last]
            if filtered:
                return filtered
        return graphs

    def ensemble_plan(self, round_number: int, n: int) -> Optional[EnsemblePlan]:
        if self._avoid_repeat:
            # History-dependent: ensemble_plans serves the per-scenario sets.
            return None
        return self._plan

    def ensemble_plans(
        self,
        round_number: int,
        n: int,
        histories: Sequence[Sequence[CommunicationGraph]],
    ) -> Optional[Tuple[EnsemblePlan, ...]]:
        if not self._avoid_repeat:
            return None
        # One plan per scenario, each excluding that scenario's previous
        # commit.  Candidate counts stay uniform across scenarios: |N| in
        # round 1 (all histories empty), |N| - 1 afterwards (every history
        # ends in a model graph), so the stacked (B, C, n, n) pass is square.
        return tuple(
            EnsemblePlan(
                candidates=tuple(
                    (graph,) for graph in self._candidate_graphs(history)
                ),
                commit_rounds=1,
            )
            for history in histories
        )

    def __repr__(self) -> str:
        if self._avoid_repeat:
            return f"GreedyDiameterAdversary({self._model!r}, avoid_repeat=True)"
        return f"GreedyDiameterAdversary({self._model!r})"


class LookaheadDiameterAdversary(AdversarialPattern):
    """Exhaustive ``k``-round lookahead: maximize the output diameter ``k`` rounds ahead.

    The search cost is ``|N|^k`` simulated rounds per decision; keep ``k``
    small (2–4) and the model small.  Only the first graph of the best
    sequence is committed each round (receding-horizon control).
    """

    def __init__(self, model: NetworkModel, lookahead: int = 2) -> None:
        if lookahead < 1:
            raise ExecutionError(f"lookahead must be >= 1, got {lookahead}")
        self._model = model
        self._lookahead = lookahead

    def ensemble_plan(self, round_number: int, n: int) -> EnsemblePlan:
        # Built per decision, unlike the small fixed plans: |N|^k candidates'
        # stacks would otherwise stay pinned on the adversary between runs.
        return EnsemblePlan(
            candidates=tuple(iter_product(list(self._model), repeat=self._lookahead)),
            commit_rounds=1,
        )

    def __repr__(self) -> str:
        return f"LookaheadDiameterAdversary({self._model!r}, lookahead={self._lookahead})"


class TwoAgentAdversary(AdversarialPattern):
    """The Theorem 1 adversary for two-agent systems over ``{H0, H1, H2}``.

    Each round it evaluates the three possible successor configurations and
    keeps the one with the largest output diameter — the executable analogue
    of the proof's "keep the successor whose valency diameter is at least a
    third of the parent's".
    """

    def __init__(self) -> None:
        self._plan = EnsemblePlan(
            candidates=tuple((graph,) for graph in two_agent_graphs()), commit_rounds=1
        )

    def ensemble_plan(self, round_number: int, n: int) -> EnsemblePlan:
        if n != 2:
            raise ExecutionError("TwoAgentAdversary only applies to systems of 2 agents")
        return self._plan

    def __repr__(self) -> str:
        return "TwoAgentAdversary()"


class PsiBlockAdversary(AdversarialPattern):
    """The Theorem 3 adversary: play ``σ_i`` blocks, choosing the block greedily.

    At the start of every block of ``n - 2`` rounds the adversary simulates
    the three candidate blocks ``σ_0, σ_1, σ_2`` to completion and commits to
    the one whose end-of-block configuration has the largest output diameter
    (a plan whose commit window is the whole block).  The overall
    communication pattern is a concatenation of ``σ`` blocks — i.e. a member
    of the property ``P_seq`` of Section 6.2.
    """

    def __init__(self, n: int) -> None:
        if n < 4:
            raise ExecutionError("PsiBlockAdversary requires n >= 4 agents")
        self._n = n
        block_length = n - 2
        self._plan = EnsemblePlan(
            candidates=tuple((psi_graph(n, choice),) * block_length for choice in (0, 1, 2)),
            commit_rounds=block_length,
        )

    def ensemble_plan(self, round_number: int, n: int) -> EnsemblePlan:
        if n != self._n:
            raise ExecutionError(
                f"PsiBlockAdversary was built for n={self._n} agents, the system has n={n}"
            )
        return self._plan

    def __repr__(self) -> str:
        return f"PsiBlockAdversary(n={self._n})"


def worst_constant_suffixes(
    model: NetworkModel,
) -> Dict[str, CommunicationGraph]:
    """Constant suffixes in which some agent is deaf, keyed by a display label.

    These are the suffixes used by Lemma 7 / Lemma 8 to pin an execution's
    limit to a single agent's current value; they are exposed for use in
    valency experiments and documentation examples.
    """
    suffixes: Dict[str, CommunicationGraph] = {}
    for graph in model:
        for agent in graph.deaf_agents():
            label = f"deaf-agent-{agent}-via-{graph.name or 'graph'}"
            suffixes.setdefault(label, graph)
    return suffixes

