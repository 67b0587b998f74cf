"""Tests for the batched adversarial search engine and the sender-fold reductions.

Three properties are enforced:

* batched candidate evaluation makes *identical* choices to the per-graph
  reference loops on the Theorem 1 / Theorem 3 reference executions (and on
  generic greedy/lookahead runs), on both execution paths;
* :func:`repro.execution.run_adversarial_ensemble` commits the same graph
  sequences and outputs as independent per-scenario runs;
* the sender-fold masked reductions are byte-for-byte equal to the dense
  ones once zeros are ``+0.0`` (NaN positions included) on every
  leading-axis layout, and the dispatcher picks among the dense, fold and
  sort-select kernels from ``n``, the output count and value sharing.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    MeanAlgorithm,
    MidpointAlgorithm,
    TwoAgentThirdsAlgorithm,
)
import repro.algorithms.base as base_module
from repro.algorithms.base import (
    _AUTO_DENSE_ELEMENT_LIMIT,
    ConvexCombinationAlgorithm,
    _masked_extremes_dense,
    _masked_extremes_fold,
    _reduction_operands,
    masked_extreme_pair,
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
import repro.execution.batch as batch_module
from repro.execution.batch import _batch_diameters
from repro.execution.schedule import round_adjacency as _round_adjacency
from repro.execution.state import _states_equal
from repro.graphs.families import complete_graph, cycle_graph, psi_graph
from repro.models.standard import deaf_model, two_agent_model
from repro.types import pairwise_diameters, running_argmax
from tests.kernel_bytes import assert_no_negative_zero, assert_same_bytes


class _SlowMidpoint(ConvexCombinationAlgorithm):
    """Midpoint clone without batch hooks, to exercise the fallback paths."""

    def combine(self, agent_id, received, round_number):
        values = np.vstack(list(received.values()))
        return (values.min(axis=0) + values.max(axis=0)) / 2.0


def _record_outputs_bytes(ensemble):
    """The recorded rounds and the raw bytes of the recorded outputs."""
    outputs = np.ascontiguousarray(ensemble.recorded_outputs)
    return ensemble.recorded_rounds, outputs.dtype.str, outputs.shape, outputs.tobytes()


def _configuration_bytes(configurations):
    """Each configuration's round and the raw bytes of its outputs."""
    return [
        (c.round_number, c.outputs.dtype.str, c.outputs.shape, c.outputs.tobytes())
        for c in configurations
    ]


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

    @pytest.mark.parametrize("case_index", range(len(CASES)))
    def test_run_execution_is_scenario_zero_of_the_ensemble(self, case_index):
        # The fast path hands plan adversaries to the one-scenario ensemble;
        # graphs and configuration bytes equal that scenario and the
        # per-candidate reference loop, at every recorded round.
        make_adversary, make_algorithm, n, rounds = self.CASES[case_index]
        values = np.linspace(0.0, 1.0, n)[:, None] + (np.arange(n) % 3)[:, None]
        with mock.patch.object(
            batch_module, "run_adversarial_ensemble", wraps=run_adversarial_ensemble
        ) as handed_off:
            single = run_execution(
                make_algorithm(), values, make_adversary(), rounds, record_every=2
            )
        handed_off.assert_called_once()
        ensemble = run_adversarial_ensemble(
            make_algorithm(), values[None], make_adversary(), rounds,
            record_every=2, record_states=True,
        )
        with EngineConfig(use_batch=False):
            reference = run_execution(
                make_algorithm(), values, make_adversary(), rounds, record_every=2
            )
        for graphs, configurations in (
            (ensemble.scenario_graphs(0), ensemble.scenario_configurations(0)),
            (reference.graphs, reference.configurations),
        ):
            assert single.graphs == graphs
            assert _configuration_bytes(single.configurations) == _configuration_bytes(
                configurations
            )
            for mine, theirs in zip(single.configurations, configurations):
                assert all(map(_states_equal, mine.states, theirs.states))

    def test_choose_override_keeps_the_round_loop(self):
        # An adversary that overrides choose is not a plan: the fast path
        # still asks it every round.
        rounds_asked = []

        class Probe(GreedyDiameterAdversary):
            def choose(self, context):
                rounds_asked.append(context.round_number)
                return super().choose(context)

        values = [0.0, 1.0, 2.0, 3.0]
        probed = run_execution(
            MidpointAlgorithm(), values, Probe(deaf_model(n=4)), 5, use_fast_path=True
        )
        assert rounds_asked == [1, 2, 3, 4, 5]
        planned = run_execution(
            MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=4)), 5
        )
        assert probed.graphs == planned.graphs

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

    @pytest.mark.parametrize(
        "make_algorithm,make_adversary,n,rounds,horizon,commit",
        [
            (MidpointAlgorithm, lambda: GreedyDiameterAdversary(deaf_model(n=4)), 4, 5, 1, 1),
            (
                MidpointAlgorithm,
                lambda: LookaheadDiameterAdversary(deaf_model(n=3), 2),
                3, 5, 2, 1,
            ),
            (TwoAgentThirdsAlgorithm, TwoAgentAdversary, 2, 6, 1, 1),
            (AmortizedMidpointAlgorithm, lambda: PsiBlockAdversary(5), 5, 8, 3, 3),
            (MeanAlgorithm, lambda: GreedyDiameterAdversary(deaf_model(n=4)), 4, 5, 1, 1),
        ],
        ids=["greedy", "lookahead", "two-agent", "psi-block", "greedy-mean"],
    )
    def test_commits_reuse_the_candidate_pass(
        self, monkeypatch, make_algorithm, make_adversary, n, rounds, horizon, commit
    ):
        # Every batch_transition call is a candidate pass, whose state carries
        # the (B, C) leading axes; committed states are the winners' states.
        values = _values(3, n, seed=13)
        calls = []
        cls = make_algorithm
        original = cls.batch_transition

        def spy(self, batch_state, adjacency, round_number):
            new_state = original(self, batch_state, adjacency, round_number)
            calls.append(np.ndim(self.batch_outputs(new_state)))
            return new_state

        monkeypatch.setattr(cls, "batch_transition", spy)
        ensemble = run_adversarial_ensemble(
            make_algorithm(), values, make_adversary(), rounds, threads=1
        )
        assert calls == [4] * (-(-rounds // commit) * horizon)
        monkeypatch.undo()
        fallback = run_adversarial_ensemble(
            make_algorithm(), values, make_adversary(), rounds, use_batch=False
        )
        assert ensemble.batched and not fallback.batched
        assert ensemble.round_choices == fallback.round_choices
        assert _record_outputs_bytes(ensemble) == _record_outputs_bytes(fallback)

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
# Sender-fold masked reductions
# --------------------------------------------------------------------------- #


def _dense_masked_min(adjacency, values):
    mask = np.swapaxes(np.asarray(adjacency, dtype=bool), -1, -2)[..., None]
    return np.where(mask, values[..., None, :, :], np.inf).min(axis=-2)


def _fold_min_max(adjacency, values):
    """The fold kernel called directly (min-only, max-only, both)."""
    mask, lo_values, hi_values, _lead = _reduction_operands(adjacency, values, values)
    lo = _masked_extremes_fold(mask, lo_values, None)[0]
    hi = _masked_extremes_fold(mask, None, hi_values)[1]
    return lo, hi, _masked_extremes_fold(mask, lo_values, hi_values)


def _dense_and_fold(adjacency, min_values, max_values):
    mask, lo_values, hi_values, _lead = _reduction_operands(adjacency, min_values, max_values)
    return (
        _masked_extremes_dense(mask, lo_values, hi_values),
        _masked_extremes_fold(mask, lo_values, hi_values),
    )


class TestFoldReductions:
    #: (adjacency lead, values lead): the leading-axis layouts callers use.
    LAYOUTS = {
        "single": ((), ()),                  # single graph, single scenario
        "per-scenario": ((5,), (5,)),        # per-scenario graphs
        "crossed": ((3,), (5, 1)),           # candidate axis crossed with scenarios
        "shared-graph": ((), (5,)),          # shared graph over an ensemble
        "shared-values": ((4,), ()),         # stacked candidates, shared values
    }

    @pytest.mark.parametrize("sides", ["min", "max", "both"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n", [1, 4, 9])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_bitwise_equal_to_dense(self, layout, n, d, sides):
        adjacency_lead, values_lead = self.LAYOUTS[layout]
        rng = np.random.default_rng(n * 10 + d)
        adjacency = rng.random(adjacency_lead + (n, n)) < 0.4
        adjacency[..., np.arange(n), np.arange(n)] = True
        min_values = rng.normal(size=values_lead + (n, d)) if sides != "max" else None
        max_values = rng.normal(size=values_lead + (n, d)) if sides != "min" else None
        dense, fold = _dense_and_fold(adjacency, min_values, max_values)
        for got, want in zip(fold, dense):
            assert_same_bytes(got, want)
        if min_values is not None:
            assert_same_bytes(masked_min(adjacency, min_values), dense[0])
        if max_values is not None:
            assert_same_bytes(masked_max(adjacency, max_values), dense[1])

    def test_shared_tensor_equals_separate_sides(self):
        rng = np.random.default_rng(1)
        adjacency = rng.random((3, 5, 5)) < 0.5
        adjacency[..., np.arange(5), np.arange(5)] = True
        values = rng.normal(size=(3, 5, 4))
        lo, hi, (pair_lo, pair_hi) = _fold_min_max(adjacency, values)
        expected = _dense_masked_min(adjacency, values)
        for got, want in ((lo, expected), (pair_lo, expected),
                          (hi, -_dense_masked_min(adjacency, -values)), (pair_hi, hi)):
            np.testing.assert_array_equal(got, want)

    def test_rows_without_neighbors_fill(self):
        adjacency = np.zeros((2, 3, 3), dtype=bool)  # not even self-loops
        values = np.ones((3, 2))
        assert np.all(masked_min(adjacency, values) == np.inf)
        assert np.all(masked_max(adjacency, values) == -np.inf)
        lo, hi, _pair = _fold_min_max(adjacency, np.ones((2, 3, 2)))
        assert np.all(lo == np.inf) and np.all(hi == -np.inf)

    def test_executions_identical_across_the_dense_limit(self):
        # Above the dense limit with d = 3 the ensemble's reductions take the
        # fold kernel; halves of the ensemble fit and take the dense one.
        batch, n, d = 256, 40, 3
        assert batch * n * n * d > _AUTO_DENSE_ELEMENT_LIMIT >= (batch // 2) * n * n * d
        values = _values(batch, n, d, seed=9)
        pattern_graphs = [complete_graph(n), cycle_graph(n)]
        from repro.execution import run_pattern_ensemble
        from repro.models.patterns import PeriodicPattern

        def run(part):
            return run_pattern_ensemble(
                MidpointAlgorithm(), part, PeriodicPattern(pattern_graphs), 9
            ).recorded_outputs

        folded = run(values)
        halves = np.concatenate(
            [run(values[: batch // 2]), run(values[batch // 2 :])], axis=1
        )
        np.testing.assert_array_equal(folded, halves)


def _expected_kernel(lead_count, n, d, shared):
    """The dispatch rule of ``_masked_extremes_pair``, restated."""
    outputs = lead_count * n * d
    over_limit = outputs * n > _AUTO_DENSE_ELEMENT_LIMIT
    small_n = n <= 8 and outputs >= 64 * n
    if not small_n and lead_count > 1 and (
        (shared and d <= 8 and outputs * n >= 6144)
        or (d <= 2 and n >= 32 and over_limit)
    ):
        return "sorted"
    return "fold" if over_limit or small_n else "dense"


@settings(max_examples=150, deadline=None)
@given(
    lead=st.lists(st.integers(1, 24), max_size=2).map(tuple),
    n=st.integers(1, 40),
    d=st.integers(1, 3),
    shared=st.booleans(),
)
def test_dispatch_rule_depends_on_n_and_output_count(lead, n, d, shared):
    # Fold runs for n <= 8 with lead · R · d >= 64 n; sort-select for values
    # shared by a stack with >= 6144 dense elements (and per-lead values
    # over the dense limit, out of reach here); dense otherwise.
    rng = np.random.default_rng(n)
    adjacency = rng.random(lead + (n, n)) < 0.5
    values = rng.normal(size=(n, d) if shared else lead + (n, d))
    spies = {}
    with ExitStack() as stack:
        for name in ("dense", "fold", "sorted"):
            kernel = f"_masked_extremes_{name}"
            spies[name] = stack.enter_context(
                mock.patch.object(base_module, kernel, wraps=getattr(base_module, kernel))
            )
        masked_min_max(adjacency, values)
    ran = [name for name, spy in spies.items() if spy.called]
    assert ran == [_expected_kernel(int(np.prod(lead)), n, d, shared)]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.lists(st.integers(1, 4), max_size=2).map(tuple),
    shared_graph=st.booleans(),
    n=st.integers(1, 9),
    d=st.integers(1, 4),
    density=st.floats(0.0, 1.0),
)
@example(seed=1, lead=(3,), shared_graph=False, n=1, d=4, density=0.5)  # one sender
@example(seed=2, lead=(2,), shared_graph=False, n=3, d=2,
         density=0.0)  # empty in-neighborhoods
def test_fold_kernel_equals_dense(seed, lead, shared_graph, n, d, density):
    rng = np.random.default_rng(seed)
    adjacency = rng.random((n, n) if shared_graph else lead + (n, n)) < density
    values = rng.normal(size=lead + (n, d))
    dense, fold = _dense_and_fold(adjacency, values, values)
    for got, want in zip(fold, dense):
        assert_same_bytes(got, want)


_SPECIAL_VALUES = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    lead=st.lists(st.integers(1, 4), max_size=2).map(tuple),
    n=st.integers(1, 8),
    d=st.integers(1, 3),
    shared=st.booleans(),
)
def test_fold_matches_dense_on_signed_zeros_and_nan(data, lead, n, d, shared):
    # Ties between +0.0 and -0.0 resolve by sender order and are made +0.0
    # by the dispatcher, so the fold and the public pair must equal dense
    # byte for byte under that rule.  Masks are unconstrained: rows may hear
    # nobody, not even themselves.
    values = arrays(np.float64, lead + (n, d), elements=st.sampled_from(_SPECIAL_VALUES))
    adjacency = data.draw(arrays(np.bool_, lead + (n, n)))
    min_values = data.draw(values)
    max_values = min_values if shared else data.draw(values)
    dense, fold = _dense_and_fold(adjacency, min_values, max_values)
    public = masked_extreme_pair(adjacency, min_values, max_values)
    for got_fold, got_public, want in zip(fold, public, dense):
        assert_same_bytes(got_fold, want)
        assert_same_bytes(got_public, want)
        assert_no_negative_zero(got_public)


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
# Round adjacency
# --------------------------------------------------------------------------- #


class TestRoundAdjacency:
    def test_uniform_round_broadcasts_without_stacking(self):
        graph = complete_graph(3)
        adjacency = _round_adjacency([graph, graph, graph])
        assert adjacency.shape == (3, 3)
        assert adjacency is graph.adjacency

    def test_plans_own_their_candidate_stacks(self):
        # A fixed plan is built once, its stacks once per plan, and a Ψ-block
        # plan's offsets (one graph per candidate) share one stack; the
        # lookahead plan is built per decision, so its stacks go with it.
        adversary = PsiBlockAdversary(5)
        plan = adversary.ensemble_plan(1, 5)
        assert adversary.ensemble_plan(4, 5) is plan
        stacks = plan.adjacency_stacks
        assert plan.adjacency_stacks is stacks
        assert len(stacks) == plan.horizon
        assert all(stack is stacks[0] for stack in stacks)
        lookahead_adversary = LookaheadDiameterAdversary(deaf_model(n=3), 2)
        lookahead = lookahead_adversary.ensemble_plan(1, 3)
        assert lookahead_adversary.ensemble_plan(2, 3) is not lookahead
        for offset, stack in enumerate(lookahead.adjacency_stacks):
            assert not stack.flags.writeable
            np.testing.assert_array_equal(
                stack, np.stack([c[offset].adjacency for c in lookahead.candidates])
            )
        # avoid_repeat builds each scenario's plan without its last commit.
        greedy = GreedyDiameterAdversary(deaf_model(n=4), avoid_repeat=True)
        graphs = greedy.model.graphs
        plans = greedy.ensemble_plans(2, 4, [[graphs[1]], []])
        assert [c for (c,) in plans[0].candidates] == [g for g in graphs if g is not graphs[1]]
        assert [c for (c,) in plans[1].candidates] == list(graphs)
