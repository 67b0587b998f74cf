"""Seeded random generators for communication graphs.

These are used by tests (property-based testing on random graphs), by the
ablation benchmarks, by the campaign fuzzer, and by the example applications
to build random dynamic networks.  All generators take an explicit
:class:`numpy.random.Generator`; they never touch global random state.

Each generator's stream is a contract: for a given generator state it makes
the same draws, in the same order, and returns the same graph.  Seeded
tests, campaigns and benchmark fingerprints rely on it, and
``tests/test_graphs.py`` pins it by digest.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.digraph import CommunicationGraph


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
    # A random order of the agents, root first: the other agents ascending,
    # shuffled in place.  A shuffle never reads the values it moves, so this
    # draws what ``rng.permutation(n - 1)`` draws and moves them alike.
    order = np.arange(n)
    order[1 : root + 1] -= 1
    order[0] = root
    rng.shuffle(order[1:])
    adj = rng.random((n, n)) < edge_probability
    # Plant a random arborescence: the agent at position idx receives from
    # the agent at position integers(idx) < idx, i.e. from an earlier one.
    # One array draw makes the same draws as n - 1 scalar integers(idx) calls.
    # ``planted`` holds the flat indices ``parent * n + child`` of its edges.
    planted = order[rng.integers(np.arange(1, n))]
    planted *= n
    planted += order[1:]
    adj.ravel()[planted] = True
    graph = CommunicationGraph(n, adjacency=adj, name="random-rooted")
    # Every parent precedes its child in ``order``, so these edges alone
    # make the graph rooted at ``root``; check they survived construction.
    if np.count_nonzero(graph.adjacency.ravel()[planted]) != n - 1:
        raise GraphError("random_rooted_graph lost its planted arborescence")
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
    broadcaster = int(rng.integers(n))
    adj[broadcaster, :] = True
    graph = CommunicationGraph(n, adjacency=adj, name="random-nonsplit")
    if np.count_nonzero(graph.adjacency[broadcaster]) != n:
        raise GraphError("random_nonsplit_graph lost its planted broadcaster")
    return graph


def random_strongly_connected_graph(
    n: int, rng: np.random.Generator, edge_probability: float = 0.5
) -> CommunicationGraph:
    """A random digraph guaranteed strongly connected (planted cycle + noise)."""
    _check_edge_probability(edge_probability)
    adjacency = rng.random((n, n)) < edge_probability
    cycle = rng.permutation(n)
    # Each agent sends to the next one in ``cycle``; the last to the first.
    successors = np.empty_like(cycle)
    successors[:-1] = cycle[1:]
    successors[-1:] = cycle[:1]
    adjacency[cycle, successors] = True
    return CommunicationGraph(n, adjacency=adjacency)


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
