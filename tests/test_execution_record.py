"""One execution record: a single run is the one-scenario view of ``EnsembleExecution``.

* **Accessors read by round number** — with ``record_every > 1`` the
  outputs, configurations and facade accessors of a single execution name
  the recorded rounds, and an unrecorded round raises.
* **Per-round rates** — certified rate intervals do not depend on how often
  the run was recorded.
* **Configurations only when read** — the batched producers hand their
  record over unchanged; per-agent states are split off only when
  ``configurations`` is read, and certification never builds or restores
  them; a decoded execution, which carries per-agent states, certifies
  alike.
* **The facade's documented example runs** as a doctest.
"""

import doctest
from unittest import mock

import numpy as np
import pytest

import repro.api
import repro.execution.batch as batch_module
import repro.execution.execution as record_module
from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    MidpointAlgorithm,
    TwoAgentThirdsAlgorithm,
)
from repro.api import Study
from repro.core.adversary import PsiBlockAdversary, TwoAgentAdversary
from repro.core.valency import ValencyEstimator
from repro.exceptions import ExecutionError
from repro.execution import run_execution
from repro.graphs.families import complete_graph, cycle_graph
from repro.models.patterns import ConstantPattern, PeriodicPattern
from repro.models.standard import psi_model, two_agent_model
from repro.service.serialization import decode_execution, encode_execution


def _spy(algorithm, hook):
    """Wrap one of ``algorithm``'s hooks in a call-counting mock."""
    spy = mock.Mock(wraps=getattr(algorithm, hook))
    setattr(algorithm, hook, spy)
    return spy


class TestRecordModule:
    def test_records_live_in_the_record_module(self):
        for name in ("RecordedStates", "EnsembleExecution", "AdversarialEnsembleExecution"):
            assert getattr(batch_module, name) is getattr(record_module, name)


class TestRecordEveryAccessors:
    @pytest.mark.parametrize("use_fast_path", [True, False])
    def test_single_execution_reads_recorded_rounds(self, use_fast_path):
        execution = run_execution(
            MidpointAlgorithm(),
            np.linspace(0.0, 1.0, 4),
            ConstantPattern(complete_graph(4)),
            8,
            record_every=4,
            use_fast_path=use_fast_path,
        )
        assert execution.recorded_rounds == [0, 4, 8]
        assert [c.round_number for c in execution.configurations] == [0, 4, 8]
        np.testing.assert_array_equal(execution.outputs(), execution.configurations[-1].outputs)
        np.testing.assert_array_equal(execution.outputs(4), execution.configurations[1].outputs)
        assert execution.configuration(8).round_number == 8
        assert execution.configuration(0).round_number == 0
        assert execution.output_history().shape == (3, 4, 1)
        assert execution.diameters().shape == (3,)
        with pytest.raises(ExecutionError, match="round 2 was not recorded"):
            execution.outputs(2)
        with pytest.raises(ExecutionError, match="round 5 was not recorded"):
            execution.configuration(5)

    def test_single_study_accessors(self):
        values = np.linspace(0.0, 1.0, 4)
        result = Study(
            MidpointAlgorithm(),
            initial_values=values,
            pattern=ConstantPattern(complete_graph(4)),
            rounds=8,
            record_every=4,
        ).run()
        assert result.final_outputs.shape == (4, 1)
        np.testing.assert_array_equal(result.final_outputs, np.full((4, 1), 0.5))
        assert result.final_diameters().shape == ()
        assert float(result.final_diameters()) == 0.0
        assert int(result.decision_rounds(1e-9)) == 4


class TestPerRoundRates:
    @pytest.mark.parametrize("ensemble", [False, True])
    def test_rate_interval_does_not_depend_on_record_every(self, ensemble):
        values = np.array([[0.0], [1.0]])
        if ensemble:
            values = np.stack([values, values + 1.0])
        intervals = []
        for record_every in (1, 2, 4):
            certificates = Study(
                TwoAgentThirdsAlgorithm(),
                initial_values=values,
                adversary=TwoAgentAdversary(),
                rounds=16,
                model=two_agent_model(),
                certify=True,
                record_every=record_every,
            ).run().certificates
            if ensemble:
                intervals.append([c.rate_interval for c in certificates])
            else:
                intervals.append(certificates.rate_interval)
        assert intervals[0] == intervals[1] == intervals[2]
        lower, upper = intervals[0][0] if ensemble else intervals[0]
        assert lower == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert upper == pytest.approx(1.0 / 3.0, abs=1e-6)


class TestConfigurationsOnlyWhenRead:
    def test_plan_adversary_splits_states_only_when_read(self):
        algorithm = AmortizedMidpointAlgorithm()
        split = _spy(algorithm, "batch_states")
        execution = run_execution(algorithm, np.linspace(0.0, 1.0, 5), PsiBlockAdversary(5), 9)
        assert split.call_count == 0
        assert isinstance(execution.record, record_module.AdversarialEnsembleExecution)
        configurations = execution.configurations
        assert split.call_count == len(configurations) == 10
        assert execution.configurations is configurations

    @pytest.mark.parametrize("make_algorithm", [MidpointAlgorithm, AmortizedMidpointAlgorithm])
    @pytest.mark.parametrize("source", ["adversary", "pattern"])
    def test_certified_single_study_never_splits_or_restores(self, make_algorithm, source):
        n = 5
        algorithm = make_algorithm()
        split = _spy(algorithm, "batch_states")
        restore = _spy(algorithm, "batch_state_from_states")
        model = psi_model(n)
        scenario = (
            {"adversary": PsiBlockAdversary(n)}
            if source == "adversary"
            else {"pattern": PeriodicPattern(list(model))}
        )
        result = Study(
            algorithm,
            initial_values=np.linspace(0.0, 1.0, n),
            rounds=6,
            model=model,
            certify=True,
            **scenario,
        ).run()
        assert result.certificates.valency_trace
        assert split.call_count == 0
        assert restore.call_count == 0

    def test_decoded_execution_certifies_like_the_live_one(self):
        # The wire payload names the algorithm but does not carry it, so
        # the decoded record's states are restored with the estimator's.
        n = 5
        execution = run_execution(
            AmortizedMidpointAlgorithm(), np.linspace(0.0, 1.0, n), PsiBlockAdversary(n), 6
        )
        decoded = decode_execution(encode_execution(execution))
        assert decoded.record.recorded_states.algorithm is None
        estimator = ValencyEstimator(AmortizedMidpointAlgorithm(), psi_model(n))
        live = estimator.certify_ensemble(execution.record)[:, 0]
        restored = estimator.certify_ensemble(decoded.record)[:, 0]
        assert restored.limits.tobytes() == live.limits.tobytes()
        assert restored.lower_diameter.tobytes() == live.lower_diameter.tobytes()


class _Boxed:
    def __init__(self, values):
        self.values = values


class _BoxedMidpoint(MidpointAlgorithm):
    """Midpoint with a structured batch state that ``batch_map`` cannot slice."""

    def batch_initial(self, values):
        return _Boxed(super().batch_initial(values))

    def batch_transition(self, batch_state, adjacency, round_number):
        return _Boxed(super().batch_transition(batch_state.values, adjacency, round_number))

    def batch_outputs(self, batch_state):
        return batch_state.values

    def batch_states(self, batch_state):
        return super().batch_states(batch_state.values)


class TestFastPathRecordForms:
    def test_unsliceable_batch_state_is_recorded_per_agent(self):
        values = np.linspace(0.0, 1.0, 4)
        pattern = PeriodicPattern([complete_graph(4), cycle_graph(4)])
        boxed = run_execution(_BoxedMidpoint(), values, pattern, 7, record_every=3, use_fast_path=True)
        plain = run_execution(MidpointAlgorithm(), values, pattern, 7, record_every=3, use_fast_path=True)
        assert boxed.record.recorded_states.per_agent is not None
        assert plain.record.recorded_states.stacked is not None
        assert boxed.recorded_rounds == plain.recorded_rounds == [0, 3, 6, 7]
        for mine, theirs in zip(boxed.configurations, plain.configurations):
            assert mine.outputs.tobytes() == theirs.outputs.tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(mine.states, theirs.states))


class TestFacadeDoctest:
    def test_api_module_example_runs(self):
        outcome = doctest.testmod(repro.api, optionflags=doctest.ELLIPSIS)
        assert outcome.failed == 0
        assert outcome.attempted >= 4
