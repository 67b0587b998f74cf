"""Seeded random generators for communication graphs.

These are used by tests (property-based testing on random graphs), by the
ablation benchmarks, and by the example applications to build random dynamic
networks.  All generators take an explicit :class:`numpy.random.Generator`;
they never touch global random state.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.properties import is_nonsplit, is_rooted


def _check_edge_probability(edge_probability: float) -> None:
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphError(f"edge_probability must be in [0, 1], got {edge_probability}")


def random_graph(
    n: int, rng: np.random.Generator, edge_probability: float = 0.5, name: Optional[str] = None
) -> CommunicationGraph:
    """A random digraph on ``n`` agents: each non-loop edge present independently.

    Self-loops are always present (as required by the system model).
    """
    _check_edge_probability(edge_probability)
    adj = rng.random((n, n)) < edge_probability
    np.fill_diagonal(adj, True)
    return CommunicationGraph(n, adjacency=adj, name=name)


def random_rooted_graph(
    n: int,
    rng: np.random.Generator,
    edge_probability: float = 0.3,
) -> CommunicationGraph:
    """A random *rooted* digraph (contains a rooted spanning tree).

    A random spanning arborescence rooted at a random agent is planted first,
    then extra edges are added independently, so the result is always rooted
    regardless of ``edge_probability``.
    """
    if n < 1:
        raise GraphError("need at least one agent")
    _check_edge_probability(edge_probability)
    root = int(rng.integers(n))
    order = [root] + list(rng.permutation([i for i in range(n) if i != root]))
    adj = rng.random((n, n)) < edge_probability
    np.fill_diagonal(adj, True)
    # Plant a random arborescence: each non-root node receives an edge from an
    # earlier node in the random order.
    for idx in range(1, n):
        child = order[idx]
        parent = order[int(rng.integers(idx))]
        adj[parent, child] = True
    graph = CommunicationGraph(n, adjacency=adj, name="random-rooted")
    assert is_rooted(graph)
    return graph


def random_nonsplit_graph(
    n: int,
    rng: np.random.Generator,
    edge_probability: float = 0.3,
) -> CommunicationGraph:
    """A random *non-split* digraph (any two agents have a common in-neighbor).

    A random "broadcaster" agent that sends to everyone is planted, which makes
    the graph non-split by construction; extra edges are added independently.
    """
    if n < 1:
        raise GraphError("need at least one agent")
    _check_edge_probability(edge_probability)
    adj = rng.random((n, n)) < edge_probability
    np.fill_diagonal(adj, True)
    broadcaster = int(rng.integers(n))
    adj[broadcaster, :] = True
    graph = CommunicationGraph(n, adjacency=adj, name="random-nonsplit")
    assert is_nonsplit(graph)
    return graph


def random_rooted_model(
    n: int,
    size: int,
    rng: np.random.Generator,
    edge_probability: float = 0.3,
) -> List[CommunicationGraph]:
    """A list of ``size`` random rooted graphs (a random rooted network model)."""
    return [random_rooted_graph(n, rng, edge_probability) for _ in range(size)]


def random_nonsplit_model(
    n: int,
    size: int,
    rng: np.random.Generator,
    edge_probability: float = 0.3,
) -> List[CommunicationGraph]:
    """A list of ``size`` random non-split graphs (a random non-split network model)."""
    return [random_nonsplit_graph(n, rng, edge_probability) for _ in range(size)]
