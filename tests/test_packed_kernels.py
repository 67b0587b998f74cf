"""Seeded-random equivalence of the bitset-packed graph kernels.

Every packed/stacked kernel must agree exactly with its per-graph reference:
products over random graph stacks, reachability/roots/rootedness/non-split
over stacks, the bucketed α step graph, α/β classes, α-diameter and
exact-consensus solvability against the per-pair reference path, and the
sort-select masked reductions against the dense path byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import base as reductions
from repro.algorithms.base import (
    _masked_extremes_dense,
    _masked_extremes_sorted,
    _reduction_operands,
    masked_extreme_pair,
    masked_max,
    masked_min,
    masked_min_max,
)
from repro.config import EngineConfig
from repro.exceptions import GraphError
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.families import complete_graph, deaf_family, psi_family, two_agent_graphs
from repro.graphs.generators import random_graph, random_nonsplit_graph, random_rooted_graph
from repro.graphs.packed import (
    in_neighborhood_ids,
    is_nonsplit_stack,
    is_rooted_stack,
    is_strongly_connected_stack,
    product_sequence_stack,
    product_stack,
    reachability_stack,
    roots_stack,
    stack_adjacencies,
)
from repro.graphs.products import product, product_sequence, product_sequence_batch
from repro.graphs.properties import (
    is_nonsplit,
    is_rooted,
    is_strongly_connected,
    reachability_matrix,
    roots,
)
from repro.graphs.relations import (
    _root_set_buckets,
    alpha_classes,
    alpha_diameter,
    alpha_related,
    alpha_step_graph,
    beta_classes,
)
from repro.graphs.solvability import exact_consensus_solvable
from repro.models.standard import all_rooted_model, crash_model
from repro.types import pack_bool_rows, packed_row_ids
from tests.kernel_bytes import assert_no_negative_zero, assert_same_bytes


def _random_stack(n, count, seed, probability=0.4):
    rng = np.random.default_rng(seed)
    return [random_graph(n, rng, probability) for _ in range(count)]


# --------------------------------------------------------------------------- #
# Bit kernels in types.py
# --------------------------------------------------------------------------- #

def test_packed_row_ids_group_equal_rows():
    rows = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1], [0, 0, 0]], dtype=bool)
    ids = packed_row_ids(pack_bool_rows(rows))
    assert ids[0] == ids[2]
    assert len({int(ids[0]), int(ids[1]), int(ids[3])}) == 3


# --------------------------------------------------------------------------- #
# Stacked structural kernels
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("seed,n,count", [(0, 4, 6), (1, 7, 10), (2, 12, 5), (3, 33, 4)])
def test_stacked_structure_kernels_match_scalar(seed, n, count):
    rng = np.random.default_rng(seed)
    graphs = (
        [random_graph(n, rng, 0.25) for _ in range(count)]
        + [random_rooted_graph(n, rng) for _ in range(2)]
        + [random_nonsplit_graph(n, rng) for _ in range(2)]
    )
    stack = stack_adjacencies(graphs)
    reach = reachability_stack(stack)
    for index, graph in enumerate(graphs):
        assert np.array_equal(reach[index], reachability_matrix(graph))
        assert frozenset(np.nonzero(roots_stack(stack)[index])[0].tolist()) == roots(graph)
    assert np.array_equal(is_rooted_stack(stack), [is_rooted(g) for g in graphs])
    assert np.array_equal(is_nonsplit_stack(stack), [is_nonsplit(g) for g in graphs])
    assert np.array_equal(
        is_strongly_connected_stack(stack), [is_strongly_connected(g) for g in graphs]
    )


def test_in_neighborhood_ids_match_in_neighbors():
    graphs = _random_stack(6, 8, seed=9)
    ids = in_neighborhood_ids(stack_adjacencies(graphs))
    for gi, g in enumerate(graphs):
        for hi, h in enumerate(graphs):
            for agent in range(6):
                assert (ids[gi, agent] == ids[hi, agent]) == (
                    g.in_neighbors(agent) == h.in_neighbors(agent)
                )


def test_product_stack_matches_product():
    first = _random_stack(5, 7, seed=4)
    second = _random_stack(5, 7, seed=5)
    batched = product_stack(stack_adjacencies(first), stack_adjacencies(second))
    for index in range(7):
        assert np.array_equal(batched[index], product(first[index], second[index]).adjacency)


def test_product_sequence_batch_matches_sequential_products():
    sequences = [_random_stack(6, 5, seed=20 + i) for i in range(9)]
    batched = product_sequence_batch(sequences)
    for index, sequence in enumerate(sequences):
        assert np.array_equal(batched[index], product_sequence(sequence).adjacency)


def test_product_sequence_batch_rejects_ragged_input():
    graphs = _random_stack(4, 3, seed=0)
    with pytest.raises(GraphError):
        product_sequence_batch([])
    with pytest.raises(GraphError):
        product_sequence_batch([graphs, graphs[:2]])


def test_product_sequence_stack_needs_a_round():
    with pytest.raises(GraphError):
        product_sequence_stack([])


def test_stack_adjacencies_validates():
    with pytest.raises(GraphError):
        stack_adjacencies([])
    with pytest.raises(GraphError):
        stack_adjacencies([complete_graph(3), complete_graph(4)])


# --------------------------------------------------------------------------- #
# Vectorized α machinery vs per-pair reference
# --------------------------------------------------------------------------- #

def _models(with_duplicates=False):
    """Small models; ``with_duplicates`` repeats each model's first two graphs."""
    rng = np.random.default_rng(11)
    models = [
        psi_family(4),
        psi_family(6),
        deaf_family(complete_graph(5)),
        list(two_agent_graphs()),
        [random_graph(5, rng, 0.35) for _ in range(9)],
        [random_rooted_graph(6, rng) for _ in range(7)],
    ]
    if with_duplicates:
        models = [list(graphs) + list(graphs)[:2] for graphs in models]
    return models


@pytest.mark.parametrize("with_duplicates", [False, True])
def test_alpha_relation_matrix_matches_pairwise_reference(with_duplicates):
    # The bucketed α relation (the step-relation matrix behind
    # alpha_step_graph) against direct per-pair, per-witness calls.
    for graphs in _models(with_duplicates):
        adjacency = alpha_step_graph(graphs)
        for g in graphs:
            for h in graphs:
                expected = any(alpha_related(g, h, witness) for witness in graphs)
                assert (h in adjacency[g]) == expected


def test_root_set_buckets_match_per_witness_reference():
    # Two graphs share a bucket under a witness's root set iff that witness
    # α-relates them; a rootless witness relates nothing.
    for graphs in _models()[:5]:
        buckets, witness_root_set = _root_set_buckets(graphs, graphs)
        for wi, witness in enumerate(graphs):
            k = witness_root_set[wi]
            for gi, g in enumerate(graphs):
                for hi, h in enumerate(graphs):
                    shared = k >= 0 and buckets[k, gi] == buckets[k, hi]
                    assert bool(shared) == alpha_related(g, h, witness)


@pytest.mark.parametrize("with_duplicates", [False, True])
def test_alpha_step_graph_packed_equals_reference(with_duplicates):
    for graphs in _models(with_duplicates):
        assert alpha_step_graph(graphs) == alpha_step_graph(graphs, use_packed=False)


@pytest.mark.parametrize("with_duplicates", [False, True])
def test_alpha_and_beta_classes_packed_equal_reference(with_duplicates):
    for graphs in _models(with_duplicates):
        assert set(alpha_classes(graphs)) == set(alpha_classes(graphs, use_packed=False))
        assert set(beta_classes(graphs)) == set(beta_classes(graphs, use_packed=False))


@pytest.mark.parametrize("with_duplicates", [False, True])
def test_alpha_diameter_packed_equals_reference(with_duplicates):
    for graphs in _models(with_duplicates):
        assert alpha_diameter(graphs) == alpha_diameter(graphs, use_packed=False)


_SUBMODEL_BASES = (list(crash_model(4, 1)), list(all_rooted_model(3)))


@settings(max_examples=60)
@given(
    base=st.sampled_from(_SUBMODEL_BASES),
    data=st.data(),
    extra=st.integers(0, 3),
    duplicates=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_bucketed_classifier_equals_reference_on_random_submodels(
    base, data, extra, duplicates, seed
):
    picks = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=12))
    rng = np.random.default_rng(seed)
    graphs = [base[i] for i in picks]
    graphs += [random_graph(graphs[0].n, rng, 0.4) for _ in range(extra)]
    graphs += graphs[:duplicates]
    assert alpha_step_graph(graphs) == alpha_step_graph(graphs, use_packed=False)
    assert set(alpha_classes(graphs)) == set(alpha_classes(graphs, use_packed=False))
    assert set(beta_classes(graphs)) == set(beta_classes(graphs, use_packed=False))
    assert alpha_diameter(graphs) == alpha_diameter(graphs, use_packed=False)
    packed_solvable = exact_consensus_solvable(graphs)
    with EngineConfig(use_packed=False):
        assert exact_consensus_solvable(graphs) == packed_solvable


def test_alpha_diameter_packed_disconnected_is_infinite():
    # Two isolated-in-neighborhood worlds that no witness connects: deaf
    # variants with *different* base graphs that never share in-neighborhoods.
    g1 = CommunicationGraph(4, edges=[(0, 1), (1, 2), (2, 3)], name="chain")
    g2 = complete_graph(4)
    value = alpha_diameter([g1, g2])
    assert value == alpha_diameter([g1, g2], use_packed=False)


def test_alpha_classes_psi32_vectorized_matches_reference():
    graphs = psi_family(32)
    assert set(alpha_classes(graphs)) == set(alpha_classes(graphs, use_packed=False))
    assert set(beta_classes(graphs)) == set(beta_classes(graphs, use_packed=False))
    assert alpha_diameter(graphs) == alpha_diameter(graphs, use_packed=False)


# --------------------------------------------------------------------------- #
# Sort-select masked reductions vs dense, byte for byte
# --------------------------------------------------------------------------- #


def _dense_min_max(adjacency, values):
    """The dense reference kernel on validated operands."""
    mask, lo_values, hi_values, _lead = _reduction_operands(adjacency, values, values)
    return _masked_extremes_dense(mask, lo_values, hi_values)


def _sorted_min_max(adjacency, values):
    """The sort-select kernel, called directly whatever the input size."""
    return _masked_extremes_sorted(*_reduction_operands(adjacency, values, values))


def _assert_pairs_equal(got, want):
    for got_side, want_side in zip(got, want):
        assert_same_bytes(got_side, want_side)


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Record which private kernel each public masked reduction ran."""
    calls = []
    for name in ("dense", "fold", "sorted"):
        original = getattr(reductions, f"_masked_extremes_{name}")

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(reductions, f"_masked_extremes_{name}", spy)
    return calls


@pytest.mark.parametrize("shape", [(5, 40, 1), (3, 33, 2), (7, 16, 3), (2, 3, 65, 1)])
def test_packed_masked_reduction_matches_dense(shape):
    *lead, n, d = shape
    rng = np.random.default_rng(sum(shape))
    values = rng.normal(size=(*lead, n, d))
    adjacency = rng.random((*lead, n, n)) < 0.3
    diag = np.arange(n)
    adjacency[..., diag, diag] = True
    _assert_pairs_equal(_sorted_min_max(adjacency, values), _dense_min_max(adjacency, values))


def test_packed_masked_reduction_handles_empty_in_neighborhoods():
    rng = np.random.default_rng(3)
    adjacency = np.zeros((4, 10, 10), dtype=bool)
    adjacency[:, 2, :] = True  # only agent 2 sends; most receivers hear one sender
    values = rng.normal(size=(4, 10, 1))
    _assert_pairs_equal(_sorted_min_max(adjacency, values), _dense_min_max(adjacency, values))


def test_packed_masked_reduction_nan_values_fall_back_to_dense(kernel_calls):
    # The second input is a stack sort-select would take, but NaNs need the
    # dense propagation semantics: the dispatcher must skip it.
    rng = np.random.default_rng(9)
    large = rng.normal(size=(70, 128, 1))
    large[3, 5, 0] = np.nan
    for values, adjacency in (
        (np.array([[[0.0], [np.nan], [2.0]]]), np.ones((1, 3, 3), dtype=bool)),
        (large, rng.random((70, 128, 128)) < 0.1),
    ):
        lo = masked_min(adjacency, values)
        assert_same_bytes(lo, _dense_min_max(adjacency, values)[0])
        assert np.isnan(lo).any()
    assert "sorted" not in kernel_calls


def test_packed_masked_reduction_auto_fires_on_large_stacks(kernel_calls):
    # Above the automatic threshold the per-lead sort-select path must still
    # be byte for byte.
    rng = np.random.default_rng(8)
    values = rng.normal(size=(48, 160, 1))
    adjacency = rng.random((48, 160, 160)) < 0.1
    diag = np.arange(160)
    adjacency[:, diag, diag] = True
    auto = masked_min_max(adjacency, values)
    assert kernel_calls == ["sorted"]
    _assert_pairs_equal(auto, _dense_min_max(adjacency, values))


#: Inputs that drive the dispatcher down each kernel: (adjacency shape,
#: values shape, expected kernel).  "auto" is a small everyday stack.
PATH_INPUTS = {
    "auto": ((3, 8, 8), (3, 8, 2), "dense"),
    # Exactly _AUTO_DENSE_ELEMENT_LIMIT elements: the largest dense input.
    "dense": ((4, 64, 64), (4, 64, 64), "dense"),
    "per-lead-over-limit": ((70, 128, 128), (70, 128, 1), "sorted"),
    "fold": ((90, 64, 64), (90, 64, 3), "fold"),
    # A few agents over many scenarios: the valency suffix's shape.
    "fold-small-n": ((400, 4, 4), (400, 4, 1), "fold"),
    # Shared values under 6144 dense elements stay dense; from 6144 they sort.
    "shared-small": ((4, 8, 8), (8, 2), "dense"),
    "shared": ((6, 32, 32), (32, 1), "sorted"),
}


@pytest.mark.parametrize("path", sorted(PATH_INPUTS))
def test_dispatcher_selects_kernel_from_input(kernel_calls, path):
    adjacency_shape, values_shape, expected = PATH_INPUTS[path]
    rng = np.random.default_rng(7)
    adjacency = rng.random(adjacency_shape) < 0.3
    values = rng.normal(size=values_shape)
    auto = masked_min_max(adjacency, values)
    assert kernel_calls == [expected]
    _assert_pairs_equal(auto, _dense_min_max(adjacency, values))


#: Signed-zero inputs on both sides of every dispatch threshold:
#: (adjacency lead, n, d, values shared by the stack, kernel picked).
SIGNED_ZERO_INPUTS = [
    ((4,), 4, 1, True, "dense"),
    ((3,), 34, 1, True, "dense"),  # d = 1, n >= 9: dense reduces in SIMD lanes
    ((5,), 32, 1, True, "dense"),  # 5120 dense elements
    ((6,), 32, 1, True, "sorted"),  # 6144 dense elements
    ((16,), 16, 3, True, "sorted"),
    ((63,), 8, 1, True, "dense"),  # 504 outputs < 64 n
    ((64,), 8, 1, True, "fold"),
    ((63,), 8, 1, False, "dense"),
    ((64,), 8, 2, False, "fold"),
    ((5,), 12, 1, False, "dense"),
    ((64,), 128, 1, False, "dense"),  # exactly the dense limit
    ((65,), 128, 1, False, "sorted"),
    ((22,), 128, 3, False, "fold"),  # over the limit at d = 3
]


@pytest.mark.parametrize("lead,n,d,shared,kernel", SIGNED_ZERO_INPUTS)
def test_masked_extremes_return_positive_zero(kernel_calls, lead, n, d, shared, kernel):
    # Every receiver hears every sender, and senders alternate 0.0 / -0.0:
    # each kernel resolves that tie its own way, and every public masked
    # extreme must still return +0.0.
    adjacency = np.ones(lead + (n, n), dtype=bool)
    value_lead = () if shared else lead
    signs = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)[:, None]
    evens_negative = np.broadcast_to(signs * 0.0, value_lead + (n, d)).copy()
    odds_negative = -evens_negative
    for values in (evens_negative, odds_negative):
        other = odds_negative if values is evens_negative else evens_negative
        results = [
            masked_min(adjacency, values),
            masked_max(adjacency, values),
            *masked_min_max(adjacency, values),
            *masked_extreme_pair(adjacency, values, other),
            *masked_extreme_pair(adjacency, values, None),
            *masked_extreme_pair(adjacency, None, other),
        ]
        for extreme in results:
            if extreme is not None:
                assert_no_negative_zero(extreme)
                assert not extreme.any()
    assert set(kernel_calls) == {kernel}


# --------------------------------------------------------------------------- #
# Bitset-resident adjacency cache + vectorized packed column gather
# --------------------------------------------------------------------------- #


def test_packed_receive_rows_is_cached_and_correct():
    from repro.types import pack_bool_rows

    rng = np.random.default_rng(11)
    graph = random_graph(12, rng, 0.4)
    packed = graph.packed_receive_rows
    assert packed is graph.packed_receive_rows  # computed once, shared
    assert not packed.flags.writeable
    assert np.array_equal(packed, pack_bool_rows(graph.adjacency.T))


def test_packed_in_neighborhoods_matches_raw_stack_packing():
    from repro.graphs.packed import (
        graph_in_neighborhood_ids,
        packed_in_neighborhoods,
        pack_adjacency_rows,
    )

    rng = np.random.default_rng(12)
    graphs = [random_graph(10, rng, 0.5) for _ in range(4)]
    stack = stack_adjacencies(graphs)
    cached = packed_in_neighborhoods(graphs)
    raw = pack_adjacency_rows(stack.swapaxes(-1, -2))
    assert np.array_equal(cached, raw)
    assert np.array_equal(graph_in_neighborhood_ids(graphs), in_neighborhood_ids(stack))
    # The stacked rows come straight out of each graph's resident bitset.
    assert np.shares_memory(
        packed_in_neighborhoods([graphs[0]]), graphs[0].packed_receive_rows
    ) or np.array_equal(packed_in_neighborhoods([graphs[0]])[0], graphs[0].packed_receive_rows)


def test_packed_in_neighborhoods_rejects_mixed_sizes():
    from repro.graphs.packed import packed_in_neighborhoods

    with pytest.raises(GraphError):
        packed_in_neighborhoods([complete_graph(4), complete_graph(5)])
    with pytest.raises(GraphError):
        packed_in_neighborhoods([])


def test_alpha_machinery_uses_graph_bitset_caches():
    # The default (non-union) witness tensor must produce identical
    # partitions while reading packed rows from the graphs' caches.
    rng = np.random.default_rng(13)
    graphs = [random_graph(7, rng, 0.4) for _ in range(5)]
    packed_classes = alpha_classes(graphs, use_packed=True)
    reference_classes = alpha_classes(graphs, use_packed=False)
    assert packed_classes == reference_classes
    for graph in graphs:
        assert graph._packed_receive is not None  # cache was populated


def test_packed_gather_on_graph_adjacency_bit_for_bit():
    # Regression for the per-scenario column gather: a single-graph
    # adjacency broadcast over a value ensemble must equal the dense path.
    rng = np.random.default_rng(14)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 3))
        lead = int(rng.integers(2, 8))
        graph = random_graph(n, rng, float(rng.uniform(0.1, 0.9)))
        values = rng.uniform(-4.0, 4.0, size=(lead, n, d))
        _assert_pairs_equal(
            _sorted_min_max(graph.adjacency, values), _dense_min_max(graph.adjacency, values)
        )


def test_packed_gather_on_memoized_stacks_matches_dense():
    from repro.execution.engine import _AdjacencyCache

    rng = np.random.default_rng(15)
    graphs = tuple(random_graph(24, rng, 0.3) for _ in range(5))
    stacked = _AdjacencyCache().stacked(graphs)
    values = rng.uniform(-1.0, 1.0, size=(5, 24, 2))
    _assert_pairs_equal(_sorted_min_max(stacked, values), _dense_min_max(stacked, values))


def test_packed_gather_handles_isolated_receivers():
    # Receivers with no in-neighbors at all (no self-loop in the raw mask)
    # must keep the +/-inf sentinel semantics of the dense path.
    values = np.array([[[0.5], [1.5], [-2.0]], [[3.0], [0.0], [1.0]]])
    adjacency = np.zeros((2, 3, 3), dtype=bool)
    adjacency[0, 0, 1] = True  # 1 hears 0 in scenario 0; everyone else deaf
    lo_sorted, hi_sorted = _sorted_min_max(adjacency, values)
    _assert_pairs_equal((lo_sorted, hi_sorted), _dense_min_max(adjacency, values))
    assert lo_sorted[0, 0, 0] == np.inf and hi_sorted[0, 0, 0] == -np.inf


class TestFusedMaskResolutionCount:
    """Callers wanting both extremes must pay for one mask resolution, not two.

    ``masked_min_max`` / ``masked_extreme_pair`` fuse the min and max
    reductions over a single :func:`receive_mask` call on every
    kernel (dense, fold, sort-select); the amortized
    midpoint's vectorized transition rides that kernel, so each round
    resolves its adjacency exactly once.  The ``path`` parameter picks an
    input the dispatcher sends down that kernel (see ``PATH_INPUTS``).
    """

    @pytest.fixture()
    def count_mask_resolutions(self, monkeypatch):
        import repro.algorithms.base as base_module

        counter = {"calls": 0}
        original = base_module.receive_mask

        def counting(adjacency):
            counter["calls"] += 1
            return original(adjacency)

        monkeypatch.setattr(base_module, "receive_mask", counting)
        return counter

    @pytest.mark.parametrize("path", sorted(PATH_INPUTS))
    def test_masked_min_max_resolves_once(self, count_mask_resolutions, path):
        adjacency_shape, values_shape, _kernel = PATH_INPUTS[path]
        rng = np.random.default_rng(40)
        values = rng.uniform(-1.0, 1.0, size=values_shape)
        adjacency = rng.random(adjacency_shape) < 0.5
        lo, hi = masked_min_max(adjacency, values)
        assert count_mask_resolutions["calls"] == 1
        # Sanity: still equal to two separate (twice-resolving) reductions.
        assert_same_bytes(lo, masked_min(adjacency, values))
        assert_same_bytes(hi, masked_max(adjacency, values))
        assert count_mask_resolutions["calls"] == 3

    @pytest.mark.parametrize("path", sorted(PATH_INPUTS))
    def test_extreme_pair_on_distinct_tensors_resolves_once(
        self, count_mask_resolutions, path
    ):
        adjacency_shape, values_shape, _kernel = PATH_INPUTS[path]
        rng = np.random.default_rng(41)
        mins = rng.uniform(-1.0, 1.0, size=values_shape)
        maxs = rng.uniform(-1.0, 1.0, size=values_shape)
        adjacency = rng.random(adjacency_shape) < 0.4
        masked_extreme_pair(adjacency, mins, maxs)
        assert count_mask_resolutions["calls"] == 1

    def test_amortized_midpoint_round_resolves_once(self, count_mask_resolutions):
        from repro.algorithms import AmortizedMidpointAlgorithm

        rng = np.random.default_rng(42)
        algorithm = AmortizedMidpointAlgorithm()
        state = algorithm.batch_initial(rng.uniform(0.0, 1.0, size=(4, 6, 1)))
        adjacency = np.broadcast_to(
            complete_graph(6).adjacency, (4, 6, 6)
        ).copy()
        for round_number in range(1, 4):
            algorithm.batch_transition(state, adjacency, round_number)
            assert count_mask_resolutions["calls"] == round_number
