"""Negative paths: EnsembleShapeError messages must name the offending shapes.

A mis-shaped ensemble input must fail at the entry point with an
:class:`~repro.exceptions.EnsembleShapeError` whose message *names the
offending shapes or counts* — not surface later as an opaque NumPy broadcast
error.  Covered entry points: the ensemble runners, the masked reductions,
the facade's scale detection, and the new certify-ensemble paths.
"""

import numpy as np
import pytest

from repro.algorithms import MidpointAlgorithm
from repro.algorithms.base import masked_min, masked_min_max
from repro.api import Study
from repro.core.valency import ValencyEstimator
from repro.exceptions import EnsembleShapeError, ExecutionError
from repro.execution import (
    run_adversarial_ensemble,
    run_ensemble,
    run_pattern_ensemble,
    stack_initial_values,
)
from repro.graphs.families import complete_graph
from repro.models.patterns import AdversarialPattern, EnsemblePlan
from repro.models.standard import deaf_model


def _values(batch_size, n, d=1):
    return np.random.default_rng(0).uniform(0.0, 1.0, size=(batch_size, n, d))


class TestRunnerShapeErrors:
    def test_four_dimensional_values_name_their_shape(self):
        with pytest.raises(EnsembleShapeError, match=r"\(2, 3, 4, 1\)"):
            run_ensemble(MidpointAlgorithm(), np.zeros((2, 3, 4, 1)), [])

    def test_mismatched_scenario_shapes_name_both(self):
        with pytest.raises(EnsembleShapeError, match=r"\(3, 1\), expected \(4, 1\)"):
            stack_initial_values([np.zeros((4, 1)), np.zeros((3, 1))])

    def test_empty_ensemble_is_named(self):
        with pytest.raises(EnsembleShapeError, match="at least one scenario"):
            stack_initial_values([])

    def test_degenerate_axis_names_the_tuple(self):
        with pytest.raises(EnsembleShapeError, match=r"\(0, 4, 1\)"):
            run_ensemble(MidpointAlgorithm(), np.zeros((0, 4, 1)), [])

    # use_batch=False pins the per-scenario fallback: a malformed schedule
    # must raise the same error there as on the batched path.
    @pytest.mark.parametrize("use_batch", [None, False])
    def test_graph_agent_mismatch_names_both_counts(self, use_batch):
        with pytest.raises(EnsembleShapeError, match="5 agents, scenarios have 4"):
            run_ensemble(
                MidpointAlgorithm(), _values(2, 4), [complete_graph(5)], use_batch=use_batch
            )

    @pytest.mark.parametrize("use_batch", [None, False])
    @pytest.mark.parametrize("count", [2, 4])
    def test_per_scenario_graph_count_mismatch(self, use_batch, count):
        graph = complete_graph(4)
        with pytest.raises(EnsembleShapeError, match=f"needs 3 graphs, got {count}"):
            run_ensemble(
                MidpointAlgorithm(), _values(3, 4), [[graph] * count], use_batch=use_batch
            )

    @pytest.mark.parametrize("use_batch", [None, False])
    def test_non_graph_round_entry_names_type(self, use_batch):
        with pytest.raises(EnsembleShapeError, match="got int"):
            run_ensemble(MidpointAlgorithm(), _values(2, 4), [7], use_batch=use_batch)

    def test_pattern_ensemble_propagates_value_shape_errors(self):
        with pytest.raises(EnsembleShapeError, match=r"\(2, 2, 3, 1\)"):
            run_pattern_ensemble(
                MidpointAlgorithm(),
                np.zeros((2, 2, 3, 1)),
                _constant_pattern(3),
                rounds=2,
            )


def _constant_pattern(n):
    from repro.models.patterns import ConstantPattern

    return ConstantPattern(complete_graph(n))


class _RaggedPlanAdversary(AdversarialPattern):
    """Returns per-scenario plans with inconsistent candidate counts."""

    def __init__(self, n):
        self._graph = complete_graph(n)

    def choose(self, context):
        return self._graph

    def ensemble_plans(self, round_number, n, histories):
        one = EnsemblePlan(candidates=((self._graph,),), commit_rounds=1)
        two = EnsemblePlan(candidates=((self._graph,), (self._graph,)), commit_rounds=1)
        return [one] + [two] * (len(histories) - 1)


class _WrongCountPlanAdversary(_RaggedPlanAdversary):
    def ensemble_plans(self, round_number, n, histories):
        return [EnsemblePlan(candidates=((self._graph,),), commit_rounds=1)]


class TestAdversarialRunnerShapeErrors:
    # threads=1 pins the serial route: the parallel backend validates plan
    # counts per shard (each shard's adversary copy only ever sees its own
    # slice of histories), so the full-ensemble counts in these messages are
    # a serial-engine guarantee.

    def test_ragged_per_scenario_plans_name_the_counts(self):
        with pytest.raises(EnsembleShapeError, match=r"counts \[1, 2\]"):
            run_adversarial_ensemble(
                MidpointAlgorithm(), _values(3, 4), _RaggedPlanAdversary(4),
                rounds=2, threads=1,
            )

    def test_wrong_plan_count_names_expected_and_got(self):
        with pytest.raises(EnsembleShapeError, match=r"\(3\), got 1"):
            run_adversarial_ensemble(
                MidpointAlgorithm(), _values(3, 4), _WrongCountPlanAdversary(4),
                rounds=2, threads=1,
            )

    def test_candidate_graph_size_mismatch_names_both(self):
        class WrongSizeAdversary(AdversarialPattern):
            def choose(self, context):
                return complete_graph(4)

            def ensemble_plan(self, round_number, n):
                return EnsemblePlan(candidates=((complete_graph(5),),), commit_rounds=1)

        with pytest.raises(EnsembleShapeError, match="5 agents, scenarios have 4"):
            run_adversarial_ensemble(
                MidpointAlgorithm(), _values(2, 4), WrongSizeAdversary(), rounds=1
            )


class TestMaskedReductionShapeErrors:
    def test_non_square_adjacency_names_shape(self):
        with pytest.raises(EnsembleShapeError, match=r"\(2, 4, 3\)"):
            masked_min(np.ones((2, 4, 3), dtype=bool), np.zeros((2, 4, 1)))

    def test_agent_count_mismatch_names_both_tensors(self):
        with pytest.raises(EnsembleShapeError, match="4 vs 5"):
            masked_min(np.ones((4, 4), dtype=bool), np.zeros((5, 1)))

    def test_incompatible_lead_axes_name_both_shapes(self):
        with pytest.raises(
            EnsembleShapeError, match=r"\(3, 4, 4\).*\(2, 4, 1\)"
        ):
            masked_min_max(np.ones((3, 4, 4), dtype=bool), np.zeros((2, 4, 1)))

    def test_scalar_values_are_rejected_with_shape(self):
        with pytest.raises(EnsembleShapeError, match=r"\(4,\)"):
            masked_min(np.ones((4, 4), dtype=bool), np.zeros(4))


class TestCertifyEnsembleShapeErrors:
    def test_model_agent_mismatch_names_model_and_ensemble_shapes(self):
        ensemble = run_pattern_ensemble(
            MidpointAlgorithm(), _values(2, 4), _constant_pattern(4), 2,
            record_states=True,
        )
        estimator = ValencyEstimator(
            MidpointAlgorithm(), deaf_model(n=5), suffix_rounds=5
        )
        with pytest.raises(
            EnsembleShapeError, match="5 agents, ensemble scenarios have 4"
        ):
            estimator.certify_ensemble(ensemble)

    def test_study_certify_ensemble_with_bad_values_names_shape(self):
        with pytest.raises(EnsembleShapeError, match="1-D/2-D.*3-D"):
            Study(
                algorithm=MidpointAlgorithm(),
                initial_values=np.zeros((2, 2, 3, 1)),
                pattern=_constant_pattern(3),
                rounds=2,
                model=deaf_model(n=3),
                certify=True,
            ).run()

    def test_mixed_round_batch_state_stacking_is_rejected(self):
        # Internal invariant of the stacked batch-state path: configurations
        # of an algorithm that reads the round number must share one round.
        from repro.algorithms import AmortizedMidpointAlgorithm, DecidingAlgorithm
        from repro.execution.engine import initial_configuration, apply_graph
        from repro.models.standard import psi_model

        algorithm = DecidingAlgorithm(AmortizedMidpointAlgorithm(), decision_round=3)
        assert not algorithm.round_invariant()
        config0 = initial_configuration(algorithm, np.linspace(0, 1, 4))
        config1 = apply_graph(algorithm, config0, complete_graph(4))
        estimator = ValencyEstimator(algorithm, psi_model(4), suffix_rounds=5)
        base = algorithm.batch_state_stack(
            [algorithm.batch_state_from_states(c.states) for c in (config0, config1)]
        )
        with pytest.raises(ExecutionError, match=r"rounds \[0, 1\]"):
            estimator._limit_estimates_batch_state(base, [0, 1], 0)
