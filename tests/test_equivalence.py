"""Scalar-vs-vectorized equivalence: the two execution paths must agree.

Property-style tests over random graphs, dimensions d ∈ {1, 3} and every
fast-path algorithm, asserting that ``combine_all``/``batch_transition``
matches the per-agent ``combine``/``transition`` path:

* **bit-for-bit** for the order-independent min/max family (midpoint,
  amortized midpoint, two-agent thirds) — these use exactly the same
  floating-point operations on both paths;
* up to last-ulp summation-order differences (atol 1e-12) for the averaging
  family (mean, Hegselmann–Krause, self-weighted, callable weights), whose
  per-agent path sums values in dict order while the vectorized path uses
  masked reductions.
"""

import numpy as np
import pytest

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    CallableWeightAveraging,
    HegselmannKrauseAlgorithm,
    MeanAlgorithm,
    MidpointAlgorithm,
    SelfWeightedAveraging,
    TwoAgentThirdsAlgorithm,
)
from repro.algorithms.base import receive_mask
from repro.execution import run_execution
from repro.graphs.generators import random_nonsplit_graph, random_rooted_graph
from repro.models.patterns import PeriodicPattern

EXACT_ALGORITHMS = [
    MidpointAlgorithm,
    AmortizedMidpointAlgorithm,
]

AVERAGING_ALGORITHMS = [
    MeanAlgorithm,
    lambda: HegselmannKrauseAlgorithm(1.5),
    lambda: SelfWeightedAveraging(0.3),
]


def _random_graphs(n, seed, count=4):
    rng = np.random.default_rng(seed)
    graphs = []
    for k in range(count):
        if k % 2 == 0:
            graphs.append(random_nonsplit_graph(n, rng))
        else:
            graphs.append(random_rooted_graph(n, rng))
    return graphs


def _run_both(algorithm_factory, n, d, seed, rounds=9):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-2.0, 2.0, size=(n, d))
    pattern = PeriodicPattern(_random_graphs(n, seed))
    slow = run_execution(algorithm_factory(), values, pattern, rounds, use_fast_path=False)
    fast = run_execution(algorithm_factory(), values, pattern, rounds, use_fast_path=True)
    return slow, fast


@pytest.mark.parametrize("algorithm_factory", EXACT_ALGORITHMS)
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n,seed", [(4, 11), (7, 23), (12, 47)])
def test_minmax_family_is_bit_for_bit_identical(algorithm_factory, d, n, seed):
    slow, fast = _run_both(algorithm_factory, n, d, seed)
    assert len(slow.configurations) == len(fast.configurations)
    for a, b in zip(slow.configurations, fast.configurations):
        assert a.round_number == b.round_number
        np.testing.assert_array_equal(a.outputs, b.outputs)


@pytest.mark.parametrize("algorithm_factory", AVERAGING_ALGORITHMS)
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n,seed", [(4, 5), (9, 17), (13, 31)])
def test_averaging_family_matches_to_last_ulp(algorithm_factory, d, n, seed):
    slow, fast = _run_both(algorithm_factory, n, d, seed)
    for a, b in zip(slow.configurations, fast.configurations):
        np.testing.assert_allclose(a.outputs, b.outputs, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 3])
def test_two_agent_thirds_is_bit_for_bit_identical(d):
    rng = np.random.default_rng(3)
    values = rng.uniform(-1.0, 1.0, size=(2, d))
    from repro.graphs.families import two_agent_graphs

    pattern = PeriodicPattern(list(two_agent_graphs()))
    slow = run_execution(TwoAgentThirdsAlgorithm(), values, pattern, 9, use_fast_path=False)
    fast = run_execution(TwoAgentThirdsAlgorithm(), values, pattern, 9, use_fast_path=True)
    for a, b in zip(slow.configurations, fast.configurations):
        np.testing.assert_array_equal(a.outputs, b.outputs)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_combine_all_matches_combine_directly(d, seed):
    """Single-round check: combine_all row j equals combine for receiver j."""
    n = 6
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, size=(n, d))
    graph = random_nonsplit_graph(n, rng)
    for algorithm in [MidpointAlgorithm(), MeanAlgorithm(), HegselmannKrauseAlgorithm(1.0),
                      SelfWeightedAveraging(0.7)]:
        batched = algorithm.combine_all(graph.adjacency, values, 1)
        assert batched is not None and batched.shape == (n, d)
        for j in range(n):
            received = {i: values[i] for i in sorted(graph.in_neighbors(j))}
            expected = algorithm.combine(j, received, 1)
            np.testing.assert_allclose(batched[j], expected, rtol=0.0, atol=1e-12)


def test_callable_weights_fast_path_matches_scalar_weights():
    """The matrix weight function enables the fast path for callable weights."""
    n = 5

    def scalar_weights(agent_id, received):
        senders = sorted(received)
        return {sender: 1.0 / len(senders) for sender in senders}

    def matrix_weights(adjacency, values, round_number):
        mask = receive_mask(adjacency).astype(float)
        return mask / mask.sum(axis=-1, keepdims=True)

    slow_algo = CallableWeightAveraging(scalar_weights)
    fast_algo = CallableWeightAveraging(scalar_weights, matrix_weight_function=matrix_weights)
    assert not slow_algo.supports_batch()
    assert fast_algo.supports_batch()

    rng = np.random.default_rng(9)
    values = rng.uniform(size=(n, 2))
    pattern = PeriodicPattern(_random_graphs(n, seed=77))
    slow = run_execution(slow_algo, values, pattern, 6, use_fast_path=False)
    fast = run_execution(fast_algo, values, pattern, 6, use_fast_path=True)
    for a, b in zip(slow.configurations, fast.configurations):
        np.testing.assert_allclose(a.outputs, b.outputs, rtol=0.0, atol=1e-12)


def test_validate_flag_is_honored_on_the_fast_path():
    class Breaking(MidpointAlgorithm):
        def combine_all(self, adjacency, values, round_number):
            return super().combine_all(adjacency, values, round_number) + 100.0

    from repro.exceptions import AlgorithmError
    from repro.graphs.families import complete_graph
    from repro.models.patterns import ConstantPattern

    algorithm = Breaking(validate=True)
    with pytest.raises(AlgorithmError):
        run_execution(
            algorithm, [0.0, 1.0, 2.0], ConstantPattern(complete_graph(3)), 1, use_fast_path=True
        )


def test_batched_ensemble_transition_matches_per_scenario():
    """combine_all broadcasts over stacked (B, n, d) values and (B, n, n) masks."""
    batch, n, d = 5, 6, 2
    rng = np.random.default_rng(21)
    values = rng.uniform(size=(batch, n, d))
    graphs = [random_nonsplit_graph(n, rng) for _ in range(batch)]
    adjacency = np.stack([g.adjacency for g in graphs])
    for algorithm in [MidpointAlgorithm(), MeanAlgorithm(), HegselmannKrauseAlgorithm(0.8)]:
        batched = algorithm.combine_all(adjacency, values, 1)
        for b in range(batch):
            single = algorithm.combine_all(graphs[b].adjacency, values[b], 1)
            np.testing.assert_array_equal(batched[b], single)


def test_two_agent_thirds_moves_exactly_where_both_senders_are_heard():
    """All 16 bool 2x2 masks, cleared self-loops included: bytes of the sum rule."""
    masks = np.array(
        [[[k & 8, k & 4], [k & 2, k & 1]] for k in range(16)], dtype=bool
    )
    values = np.random.default_rng(4).uniform(-1.0, 1.0, size=(16, 2, 3))
    moved = values / 3.0 + 2.0 * values[..., ::-1, :] / 3.0
    heard_other = receive_mask(masks).sum(axis=-1) > 1
    expected = np.where(heard_other[..., None], moved, values)
    batched = TwoAgentThirdsAlgorithm().combine_all(masks, values, 1)
    assert batched.dtype == expected.dtype and batched.tobytes() == expected.tobytes()
