"""Tests for the batched adversarial search engine and the chunked reductions.

Three properties are enforced:

* batched candidate evaluation makes *identical* choices to the per-graph
  reference loops on the Theorem 1 / Theorem 3 reference executions (and on
  generic greedy/lookahead runs), on both execution paths;
* :func:`repro.execution.run_adversarial_ensemble` commits the same graph
  sequences and outputs as independent per-scenario runs;
* the chunked masked reductions are bit-for-bit equal to the dense ones for
  every block size, including chunk=1 and chunk > B, and the automatic block
  sizes keep every block's intermediate under the dense element limit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    MeanAlgorithm,
    MidpointAlgorithm,
    TwoAgentThirdsAlgorithm,
)
from repro.algorithms.base import (
    _AUTO_DENSE_ELEMENT_LIMIT,
    ConvexCombinationAlgorithm,
    _masked_extremes_chunked,
    _masked_extremes_dense,
    _reduction_operands,
    _resolve_chunks,
    masked_max,
    masked_min,
    masked_min_max,
)
from repro.core.adversary import (
    GreedyDiameterAdversary,
    LookaheadDiameterAdversary,
    PsiBlockAdversary,
    TwoAgentAdversary,
)
from repro.config import EngineConfig
from repro.exceptions import ExecutionError
from repro.execution import run_adversarial_ensemble, run_execution
from repro.execution.batch import _batch_diameters
from repro.execution.engine import _AdjacencyCache
from repro.execution.schedule import round_adjacency as _round_adjacency
from repro.graphs.families import complete_graph, cycle_graph, psi_graph
from repro.models.standard import deaf_model, two_agent_model
from repro.types import pairwise_diameters, running_argmax


class _SlowMidpoint(ConvexCombinationAlgorithm):
    """Midpoint clone without batch hooks, to exercise the fallback paths."""

    def combine(self, agent_id, received, round_number):
        values = np.vstack(list(received.values()))
        return (values.min(axis=0) + values.max(axis=0)) / 2.0


def _values(batch, n, d=1, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(batch, n, d))


# --------------------------------------------------------------------------- #
# Batched vs per-graph adversary choices (single executions)
# --------------------------------------------------------------------------- #


class TestBatchedAdversaryChoices:
    CASES = [
        # (adversary factory, algorithm factory, n, rounds)
        (lambda: GreedyDiameterAdversary(deaf_model(n=4)), MidpointAlgorithm, 4, 8),
        (lambda: LookaheadDiameterAdversary(deaf_model(n=3), 2), MidpointAlgorithm, 3, 6),
        (TwoAgentAdversary, TwoAgentThirdsAlgorithm, 2, 12),
        (lambda: PsiBlockAdversary(5), MidpointAlgorithm, 5, 10),
        (lambda: PsiBlockAdversary(5), AmortizedMidpointAlgorithm, 5, 9),
        (lambda: GreedyDiameterAdversary(deaf_model(n=4)), MeanAlgorithm, 4, 7),
        (
            lambda: GreedyDiameterAdversary(deaf_model(n=4), avoid_repeat=True),
            MidpointAlgorithm, 4, 8,
        ),
    ]

    @pytest.mark.parametrize("use_fast_path", [True, False, None])
    @pytest.mark.parametrize("case_index", range(len(CASES)))
    def test_batched_matches_reference_loop(self, use_fast_path, case_index):
        make_adversary, make_algorithm, n, rounds = self.CASES[case_index]
        values = list(np.linspace(0.0, 1.0, n) + np.arange(n) % 3)
        batched = run_execution(
            make_algorithm(), values, make_adversary(), rounds,
            use_fast_path=use_fast_path,
        )
        with EngineConfig(use_batch=False):
            reference = run_execution(
                make_algorithm(), values, make_adversary(), rounds,
                use_fast_path=use_fast_path,
            )
        assert batched.graphs == reference.graphs
        for lhs, rhs in zip(batched.configurations, reference.configurations):
            np.testing.assert_array_equal(lhs.outputs, rhs.outputs)

    def test_theorem_1_reference_execution(self):
        # The Theorem 1 adversary must still realize contraction rate 1/3
        # against Algorithm 1 with batched candidate evaluation.
        from repro.execution.metrics import empirical_contraction_rate

        execution = run_execution(
            TwoAgentThirdsAlgorithm(), [0.0, 1.0], TwoAgentAdversary(), 25
        )
        assert empirical_contraction_rate(execution) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_theorem_3_reference_execution(self):
        # The Theorem 3 adversary plays sigma blocks; batched and reference
        # block picks must agree including the recorded deaf-agent choices.
        n, rounds = 5, 12
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        batched = run_execution(MidpointAlgorithm(), values, PsiBlockAdversary(n), rounds)
        with EngineConfig(use_batch=False):
            reference = run_execution(
                MidpointAlgorithm(), values, PsiBlockAdversary(n), rounds
            )
        assert batched.graphs == reference.graphs

        def block_choices(execution):
            # The deaf agent of each block's Psi graph; every round of a
            # block plays the same graph.
            blocks = [
                execution.graphs[start:start + n - 2]
                for start in range(0, rounds, n - 2)
            ]
            assert all(len(set(block)) == 1 for block in blocks)
            return [
                next(i for i in (0, 1, 2) if block[0] == psi_graph(n, i))
                for block in blocks
            ]

        assert block_choices(batched) == block_choices(reference)
        assert len(block_choices(batched)) == 4

    def test_simulate_outputs_batch_matches_per_graph(self):
        captured = {}

        class Probe(GreedyDiameterAdversary):
            def choose(self, context):
                graphs = list(self.model)
                batched = context.simulate_sequences_batch([[g] for g in graphs])
                stacked = np.stack(
                    [np.asarray(context.simulate_outputs(g), dtype=float) for g in graphs]
                )
                captured.setdefault("pairs", []).append((batched, stacked))
                return super().choose(context)

        for fast in (True, False):
            captured.clear()
            run_execution(
                MidpointAlgorithm(), [0.0, 1.0, 2.0], Probe(deaf_model(n=3)), 4,
                use_fast_path=fast,
            )
            assert captured["pairs"]
            for batched, stacked in captured["pairs"]:
                np.testing.assert_array_equal(batched, stacked)

    def test_simulate_sequences_batch_rejects_mixed_lengths(self):
        class Probe(GreedyDiameterAdversary):
            def choose(self, context):
                graphs = list(self.model)
                with pytest.raises(ExecutionError):
                    context.simulate_sequences_batch([[graphs[0]], [graphs[0]] * 2])
                return super().choose(context)

        run_execution(MidpointAlgorithm(), [0.0, 1.0, 2.0], Probe(deaf_model(n=3)), 1)


# --------------------------------------------------------------------------- #
# Batched adversarial ensembles
# --------------------------------------------------------------------------- #


class TestRunAdversarialEnsemble:
    @pytest.mark.parametrize(
        "make_algorithm,make_adversary,n,rounds",
        [
            (MidpointAlgorithm, lambda: GreedyDiameterAdversary(deaf_model(n=5)), 5, 7),
            (MidpointAlgorithm, lambda: LookaheadDiameterAdversary(deaf_model(n=4), 2), 4, 5),
            (MidpointAlgorithm, lambda: PsiBlockAdversary(5), 5, 10),
            (AmortizedMidpointAlgorithm, lambda: PsiBlockAdversary(5), 5, 8),
            (TwoAgentThirdsAlgorithm, TwoAgentAdversary, 2, 12),
            (_SlowMidpoint, lambda: GreedyDiameterAdversary(deaf_model(n=4)), 4, 5),
            # Zero rounds resolve no plan: TwoAgentAdversary on n = 3 returns
            # the initial configurations, as run_execution does.
            (MidpointAlgorithm, TwoAgentAdversary, 3, 0),
            # History-dependent candidate sets: per-scenario ensemble plans.
            (
                MidpointAlgorithm,
                lambda: GreedyDiameterAdversary(deaf_model(n=5), avoid_repeat=True),
                5,
                9,
            ),
            (
                AmortizedMidpointAlgorithm,
                lambda: GreedyDiameterAdversary(deaf_model(n=5), avoid_repeat=True),
                5,
                8,
            ),
        ],
    )
    def test_matches_per_scenario_runs(self, make_algorithm, make_adversary, n, rounds):
        batch = 4
        values = _values(batch, n, seed=11)
        ensemble = run_adversarial_ensemble(
            make_algorithm(), values, make_adversary(), rounds
        )
        assert ensemble.rounds == rounds
        for scenario in range(batch):
            single = run_execution(
                make_algorithm(), values[scenario], make_adversary(), rounds
            )
            assert ensemble.scenario_graphs(scenario) == single.graphs
            np.testing.assert_array_equal(
                ensemble.final_outputs[scenario], single.final_configuration.outputs
            )

    def test_multidimensional_values(self):
        batch, n, rounds = 3, 4, 6
        values = _values(batch, n, d=3, seed=2)
        ensemble = run_adversarial_ensemble(
            MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=n)), rounds
        )
        for scenario in range(batch):
            single = run_execution(
                MidpointAlgorithm(), values[scenario],
                GreedyDiameterAdversary(deaf_model(n=n)), rounds,
            )
            assert ensemble.scenario_graphs(scenario) == single.graphs
            np.testing.assert_array_equal(
                ensemble.final_outputs[scenario], single.final_configuration.outputs
            )

    def test_record_every(self):
        values = _values(2, 4, seed=5)
        ensemble = run_adversarial_ensemble(
            MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=4)), 7,
            record_every=3,
        )
        assert ensemble.recorded_rounds == [0, 3, 6, 7]
        assert len(ensemble.round_choices) == 7

    def test_zero_rounds(self):
        values = _values(2, 4, seed=6)
        ensemble = run_adversarial_ensemble(
            MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=4)), 0
        )
        assert ensemble.recorded_rounds == [0]
        assert ensemble.round_choices == []

    def test_rejects_non_adversarial_pattern(self):
        from repro.models.patterns import ConstantPattern

        with pytest.raises(ExecutionError):
            run_adversarial_ensemble(
                MidpointAlgorithm(), _values(2, 3), ConstantPattern(complete_graph(3)), 2
            )

    def test_two_agent_plan_rejects_wrong_n(self):
        with pytest.raises(ExecutionError):
            run_adversarial_ensemble(
                MidpointAlgorithm(), _values(2, 3), TwoAgentAdversary(), 2
            )

    @pytest.mark.parametrize("route", ["ensemble", "single"])
    def test_plan_model_size_mismatch_same_error_on_both_routes(self, route):
        values = _values(2, 6)
        with pytest.raises(
            ExecutionError, match="PsiBlockAdversary was built for n=5 agents, the system has n=6"
        ):
            if route == "ensemble":
                run_adversarial_ensemble(MidpointAlgorithm(), values, PsiBlockAdversary(5), 3)
            else:
                run_execution(MidpointAlgorithm(), values[0], PsiBlockAdversary(5), 3)

    def test_scenario_labels(self):
        values = _values(3, 4, seed=8)
        labels = ["a", "b", "c"]
        ensemble = run_adversarial_ensemble(
            MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=4)), 3,
            scenario_labels=labels,
        )
        assert ensemble.scenario_labels == labels
        with pytest.raises(ExecutionError):
            run_adversarial_ensemble(
                MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=4)), 3,
                scenario_labels=["too", "few"],
            )


# --------------------------------------------------------------------------- #
# History-dependent adversaries (per-scenario plan API)
# --------------------------------------------------------------------------- #


class TestHistoryDependentAdversary:
    def test_single_run_batched_matches_reference(self):
        model = deaf_model(n=5)
        values = list(np.linspace(0.0, 1.0, 5))
        batched = run_execution(
            MidpointAlgorithm(), values,
            GreedyDiameterAdversary(model, avoid_repeat=True), 10,
        )
        with EngineConfig(use_batch=False):
            reference = run_execution(
                MidpointAlgorithm(), values,
                GreedyDiameterAdversary(model, avoid_repeat=True), 10,
                use_fast_path=False,
            )
        assert batched.graphs == reference.graphs
        np.testing.assert_array_equal(
            batched.final_configuration.outputs, reference.final_configuration.outputs
        )

    def test_never_repeats_previous_graph(self):
        model = deaf_model(n=4)
        execution = run_execution(
            MidpointAlgorithm(), np.linspace(0.0, 1.0, 4),
            GreedyDiameterAdversary(model, avoid_repeat=True), 12,
        )
        for previous, current in zip(execution.graphs, execution.graphs[1:]):
            assert current is not previous

    def test_ensemble_diverging_histories_match_per_scenario_runs(self):
        # Scenario histories diverge (different initial values pick different
        # first graphs), so the shared-plan API cannot express the candidate
        # sets; the per-scenario plan path must still match choice-for-choice.
        model = deaf_model(n=5)
        values = _values(6, 5, seed=21)
        ensemble = run_adversarial_ensemble(
            MidpointAlgorithm(), values,
            GreedyDiameterAdversary(model, avoid_repeat=True), 10,
        )
        assert ensemble.batched is True
        committed_first = {ensemble.scenario_graphs(b)[0] for b in range(6)}
        for scenario in range(6):
            single = run_execution(
                MidpointAlgorithm(), values[scenario],
                GreedyDiameterAdversary(model, avoid_repeat=True), 10,
            )
            assert ensemble.scenario_graphs(scenario) == single.graphs
            np.testing.assert_array_equal(
                ensemble.final_outputs[scenario], single.final_configuration.outputs
            )
            for previous, current in zip(single.graphs, single.graphs[1:]):
                assert current is not previous
        assert len(committed_first) >= 1  # sanity: the sweep actually ran

    def test_uniform_plan_validation(self):
        from repro.exceptions import EnsembleShapeError
        from repro.models.patterns import AdversarialPattern, EnsemblePlan

        model = deaf_model(n=4)
        graphs = list(model)

        class _RaggedPlans(AdversarialPattern):
            def choose(self, context):
                return graphs[0]

            def ensemble_plans(self, round_number, n, histories):
                # Scenario 0 sees two candidates, scenario 1 only one.
                return (
                    EnsemblePlan(candidates=((graphs[0],), (graphs[1],)), commit_rounds=1),
                    EnsemblePlan(candidates=((graphs[0],),), commit_rounds=1),
                )

        with pytest.raises(EnsembleShapeError):
            run_adversarial_ensemble(MidpointAlgorithm(), _values(2, 4), _RaggedPlans(), 3)

    def test_wrong_plan_count_rejected(self):
        from repro.exceptions import EnsembleShapeError
        from repro.models.patterns import AdversarialPattern, EnsemblePlan

        model = deaf_model(n=4)
        graphs = list(model)

        class _WrongCount(AdversarialPattern):
            def choose(self, context):
                return graphs[0]

            def ensemble_plans(self, round_number, n, histories):
                return (
                    EnsemblePlan(candidates=((graphs[0],),), commit_rounds=1),
                )

        # threads=1 pins the serial route: the parallel backend validates the
        # plan count per shard, where a constant-count adversary may happen
        # to match a shard's size.
        with pytest.raises(EnsembleShapeError):
            run_adversarial_ensemble(
                MidpointAlgorithm(), _values(3, 4), _WrongCount(), 2, threads=1
            )


# --------------------------------------------------------------------------- #
# Chunked masked reductions
# --------------------------------------------------------------------------- #


def _dense_masked_min(adjacency, values):
    mask = np.swapaxes(np.asarray(adjacency, dtype=bool), -1, -2)[..., None]
    return np.where(mask, values[..., None, :, :], np.inf).min(axis=-2)


def _chunked_min_max(adjacency, values, batch_chunk, receiver_chunk):
    """The chunked kernel with explicit block sizes (min-only, max-only, both)."""
    mask, lo_values, hi_values, lead = _reduction_operands(adjacency, values, values)
    blocks = (lead, batch_chunk, receiver_chunk)
    lo = _masked_extremes_chunked(mask, lo_values, None, *blocks)[0]
    hi = _masked_extremes_chunked(mask, None, hi_values, *blocks)[1]
    return lo, hi, _masked_extremes_chunked(mask, lo_values, hi_values, *blocks)


def _block_size(setting, axis_length, automatic):
    """A test block setting: an int, the whole axis, or the automatic choice."""
    if setting == "dense":
        return axis_length
    if setting == "auto":
        return automatic
    return setting


class TestChunkedReductions:
    SHAPES = [
        ((6, 6), (6, 2)),          # single graph, single scenario
        ((5, 6, 6), (5, 6, 2)),    # per-scenario graphs
        ((3, 6, 6), (5, 1, 6, 2)), # candidate axis crossed with scenarios
        ((6, 6), (5, 6, 1)),       # shared graph over an ensemble
        ((4, 6, 6), (6, 3)),       # stacked candidates, shared values (scan path)
    ]

    @pytest.mark.parametrize("batch_chunk", [1, 2, 3, 7, 100, "dense", "auto"])
    @pytest.mark.parametrize("receiver_chunk", [1, 2, 4, 100, "dense", "auto"])
    def test_bitwise_equal_to_dense(self, batch_chunk, receiver_chunk):
        rng = np.random.default_rng(0)
        for adjacency_shape, values_shape in self.SHAPES:
            n = adjacency_shape[-1]
            adjacency = rng.random(adjacency_shape) < 0.4
            adjacency[..., np.arange(n), np.arange(n)] = True
            values = rng.normal(size=values_shape)
            expected_lo = _dense_masked_min(adjacency, values)
            expected_hi = -_dense_masked_min(adjacency, -values)
            np.testing.assert_array_equal(masked_min(adjacency, values), expected_lo)
            np.testing.assert_array_equal(masked_max(adjacency, values), expected_hi)
            lo, hi = masked_min_max(adjacency, values)
            np.testing.assert_array_equal(lo, expected_lo)
            np.testing.assert_array_equal(hi, expected_hi)

            lead = expected_lo.shape[:-2]
            lead0 = lead[0] if lead else 1
            automatic = _resolve_chunks(
                int(np.prod(lead)), lead0, n, n, values_shape[-1]
            ) or (lead0, n)
            blocks = (
                _block_size(batch_chunk, lead0, automatic[0]),
                _block_size(receiver_chunk, n, automatic[1]),
            )
            lo, hi, (pair_lo, pair_hi) = _chunked_min_max(adjacency, values, *blocks)
            for got, want in ((lo, expected_lo), (pair_lo, expected_lo),
                              (hi, expected_hi), (pair_hi, expected_hi)):
                np.testing.assert_array_equal(got, want)

    def test_chunk_one_and_chunk_larger_than_batch(self):
        rng = np.random.default_rng(1)
        batch = 3
        adjacency = rng.random((batch, 5, 5)) < 0.5
        adjacency[..., np.arange(5), np.arange(5)] = True
        values = rng.normal(size=(batch, 5, 4))
        expected = _dense_masked_min(adjacency, values)
        for chunk in (1, batch + 10):
            lo, _hi, _pair = _chunked_min_max(adjacency, values, chunk, chunk)
            np.testing.assert_array_equal(lo, expected)

    def test_rows_without_neighbors_fill(self):
        adjacency = np.zeros((2, 3, 3), dtype=bool)  # not even self-loops
        values = np.ones((3, 2))
        assert np.all(masked_min(adjacency, values) == np.inf)
        assert np.all(masked_max(adjacency, values) == -np.inf)

    def test_executions_identical_across_chunkings(self):
        # Above the dense limit with d = 3 the ensemble's reductions take the
        # chunked kernel; halves of the ensemble fit and take the dense one.
        batch, n, d = 256, 40, 3
        assert _resolve_chunks(batch, batch, n, n, d) is not None
        assert _resolve_chunks(batch // 2, batch // 2, n, n, d) is None
        values = _values(batch, n, d, seed=9)
        pattern_graphs = [complete_graph(n), cycle_graph(n)]
        from repro.execution import run_pattern_ensemble
        from repro.models.patterns import PeriodicPattern

        def run(part):
            return run_pattern_ensemble(
                MidpointAlgorithm(), part, PeriodicPattern(pattern_graphs), 9
            ).recorded_outputs

        chunked = run(values)
        halves = np.concatenate(
            [run(values[: batch // 2]), run(values[batch // 2 :])], axis=1
        )
        np.testing.assert_array_equal(chunked, halves)


@settings(max_examples=300)
@given(
    lead0=st.integers(0, 4096),
    rest=st.integers(1, 64),
    n_receivers=st.integers(1, 512),
    n=st.integers(1, 512),
    d=st.integers(1, 8),
)
def test_automatic_blocks_fit_the_dense_limit(lead0, rest, n_receivers, n, d):
    lead_count = lead0 * rest
    chunks = _resolve_chunks(lead_count, lead0, n_receivers, n, d)
    full = lead_count * n_receivers * n * d
    assert (chunks is None) == (full <= _AUTO_DENSE_ELEMENT_LIMIT)
    if chunks is None:
        return
    block_lead, block_receivers = chunks
    assert 1 <= block_lead <= lead0 and 1 <= block_receivers <= n_receivers
    per_lead = rest * n * d
    assert (
        block_lead * per_lead * block_receivers <= _AUTO_DENSE_ELEMENT_LIMIT
        or (block_lead, block_receivers) == (1, 1)
    )
    # Receivers shrink first: the leading axis is only split at one receiver.
    assert block_lead == lead0 or block_receivers == 1


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.lists(st.integers(1, 4), max_size=2).map(tuple),
    shared_graph=st.booleans(),
    n=st.integers(1, 7),
    d=st.integers(1, 4),
    batch_chunk=st.integers(1, 9),
    receiver_chunk=st.integers(1, 9),
    density=st.floats(0.0, 1.0),
)
@example(seed=1, lead=(3,), shared_graph=False, n=5, d=4,
         batch_chunk=1, receiver_chunk=1, density=0.5)  # chunk = 1
@example(seed=1, lead=(3,), shared_graph=False, n=5, d=4,
         batch_chunk=13, receiver_chunk=13, density=0.5)  # chunk > B
@example(seed=2, lead=(2,), shared_graph=False, n=3, d=2,
         batch_chunk=1, receiver_chunk=2, density=0.0)  # empty in-neighborhoods
def test_chunked_kernel_equals_dense(
    seed, lead, shared_graph, n, d, batch_chunk, receiver_chunk, density
):
    rng = np.random.default_rng(seed)
    adjacency = rng.random((n, n) if shared_graph else lead + (n, n)) < density
    values = rng.normal(size=lead + (n, d))
    mask, lo_values, hi_values, lead_shape = _reduction_operands(adjacency, values, values)
    want_lo, want_hi = _masked_extremes_dense(mask, lo_values, hi_values)
    got_lo, got_hi = _masked_extremes_chunked(
        mask, lo_values, hi_values, lead_shape, batch_chunk, receiver_chunk
    )
    np.testing.assert_array_equal(got_lo, want_lo)
    np.testing.assert_array_equal(got_hi, want_hi)


# --------------------------------------------------------------------------- #
# Selection helpers
# --------------------------------------------------------------------------- #


class TestSelectionHelpers:
    def test_pairwise_diameters_d1_matches_dense(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(6, 9, 1))
        diffs = points[..., :, None, :] - points[..., None, :, :]
        dense = np.sqrt(np.sum(diffs * diffs, axis=-1)).max(axis=(-1, -2))
        np.testing.assert_array_equal(pairwise_diameters(points), dense)

    def test_pairwise_diameters_matches_scalar_diameter(self):
        from repro.types import diameter

        rng = np.random.default_rng(5)
        stacked = rng.normal(size=(4, 5, 3))
        batched = pairwise_diameters(stacked)
        for index in range(4):
            assert batched[index] == diameter(stacked[index])

    def test_running_argmax_tie_breaking(self):
        assert running_argmax([1.0, 1.0, 1.0]) == 0
        assert running_argmax([0.5, 1.0, 1.0]) == 1
        assert running_argmax([0.0, 0.0, 0.5]) == 2
        # improvements below the tolerance do not move the pick
        assert running_argmax([1.0, 1.0 + 5e-16]) == 0

    def test_batch_diameters_d1_and_pruned(self):
        rng = np.random.default_rng(6)
        for shape in [(5, 8, 1), (4, 12, 3), (3, 2, 2), (2, 1, 4)]:
            outputs = rng.normal(size=shape)
            diffs = outputs[:, :, None, :] - outputs[:, None, :, :]
            dense = np.sqrt((diffs * diffs).sum(axis=-1)).max(axis=(-1, -2))
            if shape[1] < 2:
                dense = np.zeros(shape[0])
            np.testing.assert_allclose(
                _batch_diameters(outputs), dense, rtol=1e-12, atol=1e-14
            )


# --------------------------------------------------------------------------- #
# Adjacency caching
# --------------------------------------------------------------------------- #


class TestAdjacencyCache:
    def test_repeated_graph_lists_reuse_the_stacked_tensor(self):
        cache = _AdjacencyCache()
        graphs = (complete_graph(4), cycle_graph(4), complete_graph(4))
        first = cache.stacked(graphs)
        second = cache.stacked(graphs)
        assert first is second
        np.testing.assert_array_equal(
            first, np.stack([graph.adjacency for graph in graphs])
        )

    def test_uniform_round_broadcasts_without_stacking(self):
        graph = complete_graph(3)
        adjacency = _round_adjacency([graph, graph, graph])
        assert adjacency.shape == (3, 3)
        assert adjacency is graph.adjacency

    def test_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(_AdjacencyCache, "MAX_ENTRIES", 1)
        cache = _AdjacencyCache()
        graphs = (complete_graph(3), cycle_graph(3))
        first = cache.stacked(graphs)
        # A different list does not evict the first entry (insert-only cap)
        # and, past the cap, is not cached itself.
        other = (cycle_graph(3), complete_graph(3))
        assert cache.stacked(other) is not cache.stacked(other)
        assert cache.stacked(graphs) is first
