"""Unit tests for communication graphs: construction, accessors, memoization."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.families import (
    complete_graph,
    cycle_graph,
    deaf_family,
    directed_path_graph,
    directed_star_graph,
    psi_family,
    psi_graph,
    two_agent_graphs,
)
from repro.graphs.generators import random_graph, random_nonsplit_graph, random_rooted_graph
from repro.graphs.properties import is_nonsplit, is_rooted, is_strongly_connected, roots


class TestConstruction:
    def test_self_loops_are_forced(self):
        g = CommunicationGraph(3, edges=[(0, 1)])
        for i in range(3):
            assert g.has_edge(i, i)

    def test_edges_and_adjacency_are_mutually_exclusive(self):
        with pytest.raises(GraphError):
            CommunicationGraph(2, edges=[(0, 1)], adjacency=np.eye(2, dtype=bool))

    def test_adjacency_shape_is_checked(self):
        with pytest.raises(GraphError):
            CommunicationGraph(3, adjacency=np.eye(2, dtype=bool))

    def test_out_of_range_edge_raises(self):
        with pytest.raises(GraphError):
            CommunicationGraph(2, edges=[(0, 5)])

    def test_needs_at_least_one_agent(self):
        with pytest.raises(GraphError):
            CommunicationGraph(0)

    def test_adjacency_is_read_only(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = False


class TestNeighborhoods:
    def test_in_neighbors_include_self(self):
        g = CommunicationGraph(3, edges=[(0, 1), (2, 1)])
        assert g.in_neighbors(1) == frozenset({0, 1, 2})
        assert g.in_neighbors(0) == frozenset({0})

    def test_out_neighbors(self):
        g = CommunicationGraph(3, edges=[(0, 1), (0, 2)])
        assert g.out_neighbors(0) == frozenset({0, 1, 2})
        assert g.out_neighbors(1) == frozenset({1})

    def test_neighborhoods_are_memoized(self):
        g = complete_graph(4)
        assert g.in_neighbors(2) is g.in_neighbors(2)
        assert g.out_neighbors(1) is g.out_neighbors(1)

    def test_degrees_match_neighborhoods(self):
        g = cycle_graph(5)
        for j in g.agents():
            assert g.in_degree(j) == len(g.in_neighbors(j))
            assert g.out_degree(j) == len(g.out_neighbors(j))

    def test_deaf_agents(self):
        g = directed_star_graph(4, center=0)
        assert g.is_deaf(0)
        assert g.deaf_agents() == frozenset({0})


class TestDerivedGraphs:
    def test_make_deaf_removes_incoming_edges(self):
        g = complete_graph(3).make_deaf(1)
        assert g.in_neighbors(1) == frozenset({1})
        assert g.in_neighbors(0) == frozenset({0, 1, 2})

    def test_self_loop_cannot_be_removed(self):
        with pytest.raises(GraphError):
            complete_graph(2).remove_edge(0, 0)

    def test_transpose(self):
        g = directed_path_graph(3)
        t = g.transpose()
        assert t.has_edge(1, 0) and t.has_edge(2, 1)
        assert not t.has_edge(0, 1)

    def test_restricted_to_relabels(self):
        g = CommunicationGraph(4, edges=[(1, 3)])
        sub = g.restricted_to([1, 3])
        assert sub.n == 2
        assert sub.has_edge(0, 1)

    def test_equality_and_hash_ignore_name(self):
        a = complete_graph(3)
        b = a.with_name("other")
        assert a == b and hash(a) == hash(b)


class TestFamilies:
    def test_two_agent_graphs_are_rooted(self):
        for g in two_agent_graphs():
            assert is_rooted(g)

    def test_complete_graph_is_strongly_connected_and_nonsplit(self):
        g = complete_graph(4)
        assert is_strongly_connected(g)
        assert is_nonsplit(g)

    def test_deaf_family_has_one_graph_per_agent(self):
        family = deaf_family(complete_graph(4))
        assert len(family) == 4
        for agent, member in enumerate(family):
            assert member.in_neighbors(agent) == frozenset({agent})

    def test_psi_graphs_are_rooted_but_not_nonsplit(self):
        for g in psi_family(5):
            assert is_rooted(g)
            assert not is_nonsplit(g)

    def test_psi_graph_special_agent_is_deaf(self):
        g = psi_graph(5, 1)
        assert 1 in g.deaf_agents()

    def test_roots_of_star(self):
        assert roots(directed_star_graph(4, center=2)) == frozenset({2})


class TestRandomGenerators:
    @pytest.mark.parametrize(
        "generator", [random_graph, random_rooted_graph, random_nonsplit_graph]
    )
    @pytest.mark.parametrize("edge_probability", [-0.1, 1.5, float("nan")])
    def test_edge_probability_outside_unit_interval_is_rejected(
        self, generator, edge_probability
    ):
        rng = np.random.default_rng(0)
        with pytest.raises(GraphError, match="edge_probability"):
            generator(4, rng, edge_probability)
        # Rejected before any draw: the generator's stream is untouched.
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize(
        "generator,adjacency,next_draw",
        [
            (
                random_rooted_graph,
                [[1, 1, 1, 0, 1], [1, 1, 1, 0, 1], [0, 0, 1, 0, 0], [1, 0, 1, 1, 1], [0, 1, 0, 0, 1]],
                0.01851721767021075,
            ),
            (
                random_nonsplit_graph,
                [[1, 1, 1, 1, 1], [0, 1, 1, 1, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 1], [0, 1, 0, 1, 1]],
                0.2273185251609081,
            ),
        ],
    )
    def test_valid_edge_probability_keeps_the_stream(self, generator, adjacency, next_draw):
        # Pinned draws of seed 5: validation consumes nothing from the stream.
        rng = np.random.default_rng(5)
        graph = generator(5, rng, 0.3)
        assert graph.adjacency.astype(int).tolist() == adjacency
        assert rng.random() == next_draw
