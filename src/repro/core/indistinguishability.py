"""Indistinguishability of configurations (the ``∼_i`` relation).

Two configurations are indistinguishable for agent ``i`` when ``i`` is in the
same state in both (Section 3).  The lower-bound proofs repeatedly combine
this with structural conditions on the communication graphs:

* **Lemma 6**: if ``i`` has the same in-neighbors in ``G`` and ``G'`` and
  ``C ∼_j C'`` for each of those in-neighbors ``j``, then ``G.C ∼_i G'.C'``.
* **Lemma 7**: under the additional existence of a graph in which ``i`` is
  deaf, the valencies of ``G.C`` and ``G'.C'`` intersect.
* **Lemma 14**: applying the block ``σ_i`` or ``σ_j`` to the same
  configuration yields configurations indistinguishable for the third special
  agent ``ℓ``.

The checkers below verify Lemmas 6 and 14 on concrete algorithms and
configurations; ``tests/test_indistinguishability.py`` runs them as property
tests on the midpoint and amortized midpoint algorithms.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.algorithms.base import Algorithm
from repro.execution.engine import apply_graph, run_from_configuration
from repro.execution.state import Configuration
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.families import sigma_sequence


def indistinguishable_agents(
    config_a: Configuration, config_b: Configuration
) -> FrozenSet[int]:
    """The set of agents for which the two configurations are indistinguishable."""
    return frozenset(
        i
        for i in range(config_a.n)
        if config_a.indistinguishable_for(config_b, i)
    )


def lemma6_holds(
    algorithm: Algorithm,
    config_a: Configuration,
    config_b: Configuration,
    graph_a: CommunicationGraph,
    graph_b: CommunicationGraph,
    agent: int,
) -> bool:
    """Check the conclusion of Lemma 6 for a concrete algorithm and inputs.

    Returns True when either the hypotheses fail (the lemma is vacuously
    true) or the hypotheses hold and the successor configurations are indeed
    indistinguishable for ``agent``.
    """
    same_in_neighbors = graph_a.in_neighbors(agent) == graph_b.in_neighbors(agent)
    if not same_in_neighbors:
        return True
    for j in graph_a.in_neighbors(agent):
        if not config_a.indistinguishable_for(config_b, j):
            return True
    successor_a = apply_graph(algorithm, config_a, graph_a)
    successor_b = apply_graph(algorithm, config_b, graph_b)
    return successor_a.indistinguishable_for(successor_b, agent)


def lemma14_holds(
    algorithm: Algorithm,
    configuration: Configuration,
    n: int,
    deaf_i: int,
    deaf_j: int,
) -> bool:
    """Check Lemma 14: ``σ_i.C ∼_ℓ σ_j.C`` for the third special agent ``ℓ``.

    ``deaf_i`` and ``deaf_j`` are two distinct members of ``{0, 1, 2}``; the
    check also verifies indistinguishability for the chain agents
    ``>= k + 3`` after ``k`` rounds, which is the strengthened statement the
    paper proves by induction.
    """
    if deaf_i == deaf_j:
        raise ValueError("Lemma 14 requires two distinct special agents")
    special = {0, 1, 2}
    (ell,) = special - {deaf_i, deaf_j}
    blocks = {
        deaf_i: sigma_sequence(n, deaf_i),
        deaf_j: sigma_sequence(n, deaf_j),
    }
    final_i, history_i = run_from_configuration(algorithm, configuration, blocks[deaf_i])
    final_j, history_j = run_from_configuration(algorithm, configuration, blocks[deaf_j])
    # Strengthened statement: after k rounds, agents {ell} and {k+3, ..., n-1}
    # (0-based: chain agents with index >= k + 2) cannot distinguish the runs.
    for k, (config_i, config_j) in enumerate(zip(history_i, history_j), start=1):
        if not config_i.indistinguishable_for(config_j, ell):
            return False
        for chain_agent in range(k + 2, n):
            if not config_i.indistinguishable_for(config_j, chain_agent):
                return False
    return final_i.indistinguishable_for(final_j, ell)

