"""The repro.api facade, EngineConfig semantics, and shape validation.

Three contracts are enforced:

* **Config-route equivalence** — every `Study` configuration (fast path ×
  packed kernels × seed × threads × batch on/off) is bit-for-bit identical
  to the direct engine call it compiles to, executed under the same
  `EngineConfig`.
* **EngineConfig semantics** — exception-safe restore, nesting (innermost
  wins), thread-local isolation, and validation errors; entering a config
  never warns.
* **Shape validation** — mismatched `(B, n, d)` / `(C, n, n)` inputs raise
  `EnsembleShapeError` with named shapes instead of NumPy broadcast errors.
"""

import dataclasses
import pickle
import threading

import numpy as np
import pytest

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    MidpointAlgorithm,
)
from repro.algorithms.base import (
    masked_min,
    masked_min_max,
)
from repro.api import CertifySpec, EngineConfig, ScenarioSpec, Study, StudyResult
from repro.config import current_engine_config, resolve_seed, resolve_use_batch
from repro.core.adversary import GreedyDiameterAdversary, PsiBlockAdversary
from repro.core.valency import ValencyEstimator
from repro.exceptions import (
    ConfigError,
    EnsembleShapeError,
    ExecutionError,
    NonFiniteValueError,
)
from repro.execution import (
    run_adversarial_ensemble,
    run_ensemble,
    run_execution,
    run_pattern_ensemble,
)
from repro.graphs.families import complete_graph, cycle_graph, directed_star_graph
from repro.models.patterns import PeriodicPattern, SequencePattern
from repro.models.standard import deaf_model, psi_model
from tests.valency_records import record_bytes


def _pattern(n):
    return PeriodicPattern([complete_graph(n), cycle_graph(n), directed_star_graph(n)])


def _single_values(n, d=1, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, d))


def _ensemble_values(batch, n, d=1, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(batch, n, d))


# --------------------------------------------------------------------------- #
# EngineConfig semantics
# --------------------------------------------------------------------------- #


class TestEngineConfig:
    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with EngineConfig(use_batch=False, seed=2):
                assert resolve_use_batch() is False
                assert resolve_seed() == 2
                raise RuntimeError("boom")
        assert resolve_use_batch() is True
        assert resolve_seed() == 0

    def test_nesting_innermost_wins(self):
        with EngineConfig(use_fast_path=False, use_batch=False):
            with EngineConfig(use_batch=True):
                merged = current_engine_config()
                assert merged.use_fast_path is False  # inherited from outer
                assert merged.use_batch is True  # overridden by inner
            merged = current_engine_config()
            assert merged.use_batch is False
        assert current_engine_config().use_batch is None

    def test_shared_instance_across_threads_restores_correctly(self):
        # One EngineConfig object entered concurrently from two threads must
        # pop each thread's own activation (the stack is thread-local, not
        # state on the shared instance).
        shared = EngineConfig(seed=5)
        inside = threading.Event()
        release = threading.Event()
        observed = {}

        def holder():
            with shared:
                inside.set()
                release.wait(timeout=5)
            observed["holder_after"] = resolve_seed()

        thread = threading.Thread(target=holder)
        thread.start()
        inside.wait(timeout=5)
        with EngineConfig(seed=3):
            with shared:
                assert resolve_seed() == 5
            # Exiting the shared instance here must restore THIS thread's
            # outer value, not the holder thread's.
            assert resolve_seed() == 3
        release.set()
        thread.join()
        assert observed["holder_after"] == 0
        assert resolve_seed() == 0

    def test_thread_local_isolation(self):
        seen = {}

        def worker():
            # The main thread's active config must not leak into this thread.
            seen["config"] = current_engine_config().use_fast_path
            seen["seed"] = resolve_seed()

        with EngineConfig(use_fast_path=False, seed=4):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["config"] is None
        assert seen["seed"] == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig(use_fast_path="yes")
        with pytest.raises(ConfigError):
            EngineConfig(scenario_chunk=-1)

    def test_use_fast_path_routes_engine(self):
        values = _single_values(4)
        pattern = _pattern(4)
        with EngineConfig(use_fast_path=False):
            slow = run_execution(MidpointAlgorithm(), values, pattern, 5)
        fast = run_execution(MidpointAlgorithm(), values, pattern, 5)
        np.testing.assert_array_equal(slow.output_history(), fast.output_history())

    def test_use_batch_false_routes_valency_reference(self):
        # One predicate routes stateless and stateful algorithms alike.
        from repro.algorithms import AmortizedMidpointAlgorithm

        for algorithm in (MidpointAlgorithm(), AmortizedMidpointAlgorithm()):
            with EngineConfig(use_batch=False):
                estimator = ValencyEstimator(algorithm, deaf_model(n=4))
                assert not estimator._batchable()
            estimator = ValencyEstimator(algorithm, deaf_model(n=4))
            assert estimator._batchable()


class TestDeprecationShims:
    @staticmethod
    def _deprecations_emitted(callable_):
        import warnings

        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            callable_()
        return [w for w in record if issubclass(w.category, DeprecationWarning)]

    def test_context_managers_do_not_warn(self):
        def exercise():
            with EngineConfig(use_batch=False, seed=2):
                pass

        assert self._deprecations_emitted(exercise) == []


# --------------------------------------------------------------------------- #
# Config-route equivalence matrix
# --------------------------------------------------------------------------- #


CONFIG_MATRIX = [
    EngineConfig(),
    EngineConfig(use_fast_path=True),
    EngineConfig(use_fast_path=False),
    EngineConfig(use_packed=False),
    EngineConfig(seed=3),
    EngineConfig(threads=2),
    EngineConfig(use_fast_path=True, use_packed=False, seed=1),
    EngineConfig(use_batch=False),
    EngineConfig(use_batch=True),
    EngineConfig(use_batch=False, use_fast_path=False, use_packed=False),
]


def _config_copy(config):
    return dataclasses.replace(config)


class TestStudyRouteEquivalence:
    @pytest.mark.parametrize("config_index", range(len(CONFIG_MATRIX)))
    def test_single_scenario_pattern_route(self, config_index):
        config = CONFIG_MATRIX[config_index]
        values = _single_values(5, seed=1)
        result = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=values,
            pattern=_pattern(5),
            rounds=8,
            config=_config_copy(config),
        ).run()
        with _config_copy(config):
            direct = run_execution(MidpointAlgorithm(), values, _pattern(5), 8)
        np.testing.assert_array_equal(
            result.execution.output_history(), direct.output_history()
        )
        assert result.provenance.route == "run_execution"
        if config.use_fast_path is not None:
            assert result.provenance.fast_path == config.use_fast_path

    @pytest.mark.parametrize("config_index", range(len(CONFIG_MATRIX)))
    def test_pattern_ensemble_route(self, config_index):
        config = CONFIG_MATRIX[config_index]
        values = _ensemble_values(4, 5, seed=2)
        result = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=values,
            pattern=_pattern(5),
            rounds=8,
            config=_config_copy(config),
        ).run()
        with _config_copy(config):
            direct = run_pattern_ensemble(MidpointAlgorithm(), values, _pattern(5), 8)
        np.testing.assert_array_equal(
            result.execution.recorded_outputs, direct.recorded_outputs
        )
        assert result.provenance.route == "run_pattern_ensemble"
        assert result.provenance.batched == direct.batched
        if config.use_batch is not None:
            assert result.provenance.batched == config.use_batch

    @pytest.mark.parametrize("config_index", range(len(CONFIG_MATRIX)))
    def test_adversarial_ensemble_route(self, config_index):
        config = CONFIG_MATRIX[config_index]
        values = _ensemble_values(3, 4, seed=3)
        result = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=values,
            adversary=GreedyDiameterAdversary(deaf_model(n=4)),
            rounds=6,
            config=_config_copy(config),
        ).run()
        with _config_copy(config):
            direct = run_adversarial_ensemble(
                MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=4)), 6
            )
        np.testing.assert_array_equal(
            result.execution.recorded_outputs, direct.recorded_outputs
        )
        for scenario in range(3):
            assert result.execution.scenario_graphs(scenario) == direct.scenario_graphs(
                scenario
            )
        assert result.provenance.route == "run_adversarial_ensemble"
        assert result.provenance.batched == direct.batched

    def test_explicit_graphs_ensemble_route(self):
        values = _ensemble_values(3, 4, seed=4)
        graphs = [complete_graph(4), cycle_graph(4), complete_graph(4)]
        result = Study(
            algorithm=MidpointAlgorithm(), initial_values=values, graphs=graphs
        ).run()
        direct = run_ensemble(MidpointAlgorithm(), values, graphs)
        np.testing.assert_array_equal(
            result.execution.recorded_outputs, direct.recorded_outputs
        )
        assert result.provenance.route == "run_ensemble"
        assert result.rounds == 3

    def test_explicit_graphs_single_route(self):
        values = _single_values(4, seed=5)
        graphs = [complete_graph(4), cycle_graph(4)]
        result = Study(
            algorithm=MidpointAlgorithm(), initial_values=values, graphs=graphs
        ).run()
        direct = run_execution(MidpointAlgorithm(), values, SequencePattern(graphs), 2)
        np.testing.assert_array_equal(
            result.execution.output_history(), direct.output_history()
        )
        assert result.execution.graphs == graphs

    @pytest.mark.parametrize("use_batch", [True, False])
    def test_certification_route(self, use_batch):
        model = deaf_model(n=4)
        values = _single_values(4, seed=6)
        config = EngineConfig(use_batch=use_batch)
        result = Study(
            algorithm=MidpointAlgorithm(),
            model=model,
            initial_values=values,
            adversary=GreedyDiameterAdversary(model),
            rounds=6,
            certify=CertifySpec(suffix_rounds=25, exploration_depth=1),
            config=config,
        ).run()
        with EngineConfig(use_batch=use_batch):
            direct = run_execution(
                MidpointAlgorithm(), values, GreedyDiameterAdversary(model), 6
            )
            estimator = ValencyEstimator(
                MidpointAlgorithm(), model, suffix_rounds=25, exploration_depth=1
            )
            estimates = estimator.trace(direct.configurations)
        assert result.certificates is not None
        assert result.certificates.valency_trace == estimates.lower_diameter.tolist()
        assert record_bytes(result.valency) == record_bytes(estimates)
        assert result.certificates.estimate is result.valency
        lower, upper = result.certificates.rate_interval
        assert lower <= upper + 1e-12

    def test_stateful_certification_covers_amortized_midpoint(self):
        # Acceptance: the certified study of the stateful algorithm routes
        # through the batch_state valency path and matches the reference.
        model = psi_model(4)
        values = np.linspace(0.0, 1.0, 4)
        batched = Study(
            algorithm=AmortizedMidpointAlgorithm(),
            model=model,
            initial_values=values,
            adversary=PsiBlockAdversary(4),
            rounds=6,
            certify=CertifySpec(suffix_rounds=20),
        ).run()
        reference = Study(
            algorithm=AmortizedMidpointAlgorithm(),
            model=model,
            initial_values=values,
            adversary=PsiBlockAdversary(4),
            rounds=6,
            certify=CertifySpec(suffix_rounds=20, use_batch=False),
        ).run()
        assert batched.certificates.valency_trace == reference.certificates.valency_trace


# --------------------------------------------------------------------------- #
# Study declaration and result surface
# --------------------------------------------------------------------------- #


class TestStudyDeclaration:
    def test_requires_exactly_one_communication_source(self):
        with pytest.raises(ConfigError):
            Study(algorithm=MidpointAlgorithm(), initial_values=[0.0, 1.0], rounds=3)
        with pytest.raises(ConfigError):
            Study(
                algorithm=MidpointAlgorithm(),
                initial_values=[0.0, 1.0],
                rounds=3,
                pattern=_pattern(2),
                adversary=GreedyDiameterAdversary(deaf_model(n=2)),
            )

    def test_adaptive_pattern_is_treated_as_adversary(self):
        spec = ScenarioSpec(
            initial_values=[0.0, 1.0], rounds=3,
            pattern=GreedyDiameterAdversary(deaf_model(n=2)),
        )
        assert spec.adversary is not None and spec.pattern is None

    def test_rounds_derived_from_graphs(self):
        spec = ScenarioSpec(
            initial_values=[0.0, 1.0], graphs=[complete_graph(2)] * 4
        )
        assert spec.rounds == 4
        with pytest.raises(ConfigError):
            ScenarioSpec(
                initial_values=[0.0, 1.0], rounds=3, graphs=[complete_graph(2)] * 4
            )

    def test_certify_needs_model(self):
        with pytest.raises(ConfigError):
            Study(
                algorithm=MidpointAlgorithm(),
                initial_values=[0.0, 1.0],
                pattern=_pattern(2),
                rounds=3,
                certify=True,
            )

    def test_certify_ensembles_returns_per_scenario_certificates(self):
        result = Study(
            algorithm=MidpointAlgorithm(),
            model=deaf_model(n=4),
            initial_values=_ensemble_values(2, 4),
            pattern=_pattern(4),
            rounds=3,
            certify=True,
        ).run()
        assert isinstance(result.certificates, list)
        assert len(result.certificates) == 2
        assert all(len(c.valency_trace) == 4 for c in result.certificates)

    def test_scenario_and_inline_fields_are_exclusive(self):
        spec = ScenarioSpec(initial_values=[0.0, 1.0], rounds=3, pattern=_pattern(2))
        with pytest.raises(ConfigError):
            Study(algorithm=MidpointAlgorithm(), scenario=spec, initial_values=[0.0, 1.0])
        # rounds/record_every/scenario_labels must not be silently ignored.
        with pytest.raises(ConfigError):
            Study(algorithm=MidpointAlgorithm(), scenario=spec, rounds=50)
        with pytest.raises(ConfigError):
            Study(algorithm=MidpointAlgorithm(), scenario=spec, record_every=2)
        with pytest.raises(ConfigError):
            Study(algorithm=MidpointAlgorithm(), scenario=spec, scenario_labels=["a"])

    def test_result_surface(self):
        result = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=_ensemble_values(3, 4, seed=7),
            adversary=GreedyDiameterAdversary(deaf_model(n=4)),
            rounds=5,
        ).run()
        assert isinstance(result, StudyResult)
        assert result.is_ensemble
        assert result.final_outputs.shape == (3, 4, 1)
        assert result.diameters().shape[1] == 3
        assert result.final_diameters().shape == (3,)
        assert result.decision_rounds(10.0).shape == (3,)
        assert len(result.round_choices()) == 5
        single = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=_single_values(4, seed=8),
            pattern=_pattern(4),
            rounds=5,
        ).run()
        assert not single.is_ensemble
        assert single.final_outputs.shape == (4, 1)
        assert single.decision_rounds(10.0) == 0


# --------------------------------------------------------------------------- #
# Shape validation
# --------------------------------------------------------------------------- #


class TestShapeValidation:
    def test_rejects_wrong_rank_initial_values(self):
        with pytest.raises(EnsembleShapeError):
            run_ensemble(
                MidpointAlgorithm(),
                np.zeros((2, 2, 2, 2)),
                [complete_graph(2)],
            )
        with pytest.raises(EnsembleShapeError):
            Study(
                algorithm=MidpointAlgorithm(),
                initial_values=np.zeros((2, 2, 2, 2)),
                pattern=_pattern(2),
                rounds=1,
            ).run()

    def test_rejects_empty_ensemble(self):
        with pytest.raises(EnsembleShapeError):
            run_ensemble(MidpointAlgorithm(), np.zeros((0, 3, 1)), [complete_graph(3)])

    def test_rejects_non_graph_round_entries(self):
        values = _ensemble_values(2, 3)
        with pytest.raises(EnsembleShapeError):
            run_ensemble(
                MidpointAlgorithm(), values, [np.ones((3, 3), dtype=bool)]
            )
        with pytest.raises(EnsembleShapeError):
            run_ensemble(
                MidpointAlgorithm(), values, [[complete_graph(3), "nope"]]
            )

    def test_masked_reduction_names_agent_mismatch(self):
        adjacency = np.ones((4, 5, 5), dtype=bool)
        values = np.zeros((4, 3, 1))
        with pytest.raises(EnsembleShapeError) as excinfo:
            masked_min(adjacency, values)
        assert "agents" in str(excinfo.value)

    def test_masked_reduction_names_lead_mismatch(self):
        adjacency = np.ones((4, 3, 3), dtype=bool)
        values = np.zeros((5, 3, 1))
        with pytest.raises(EnsembleShapeError) as excinfo:
            masked_min_max(adjacency, values)
        assert "leading" in str(excinfo.value)

    def test_masked_reduction_rejects_non_square_adjacency(self):
        with pytest.raises(EnsembleShapeError):
            masked_min(np.ones((3, 4), dtype=bool), np.zeros((4, 1)))

    def test_error_is_execution_error_subclass(self):
        # Backwards compatibility: callers catching ExecutionError keep working.
        assert issubclass(EnsembleShapeError, ExecutionError)


# --------------------------------------------------------------------------- #
# Boundary validation of initial values
# --------------------------------------------------------------------------- #


class TestNonFiniteInitialValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ensemble_names_first_offending_scenario_agent_coordinate(self, bad):
        values = _ensemble_values(4, 5, d=2)
        values[3, 0, 0] = bad  # later in scan order than the first one
        values[1, 2, 1] = bad
        with pytest.raises(NonFiniteValueError) as excinfo:
            Study(
                algorithm=MidpointAlgorithm(),
                initial_values=values,
                rounds=3,
                pattern=_pattern(5),
            )
        error = excinfo.value
        assert isinstance(error, ConfigError)
        assert (error.scenario, error.agent, error.coordinate) == (1, 2, 1)
        assert "scenario 1, agent 2, coordinate 1" in str(error)
        back = pickle.loads(pickle.dumps(error))
        assert (back.scenario, back.agent, back.coordinate) == (1, 2, 1)

    def test_single_scenario_and_prebuilt_spec(self):
        with pytest.raises(NonFiniteValueError) as excinfo:
            Study(
                algorithm=MidpointAlgorithm(),
                initial_values=[0.0, 1.0, np.nan],
                rounds=2,
                pattern=_pattern(3),
            )
        error = excinfo.value
        assert (error.scenario, error.agent, error.coordinate) == (None, 2, 0)
        spec = ScenarioSpec(
            initial_values=np.full((2, 3, 1), np.inf), rounds=2, pattern=_pattern(3)
        )
        with pytest.raises(NonFiniteValueError) as excinfo:
            Study(algorithm=MidpointAlgorithm(), scenario=spec)
        assert excinfo.value.scenario == 0

    def test_service_rejects_before_spawning_a_worker(self, monkeypatch, tmp_path):
        from repro.service import orchestrator, run_study_service

        def no_slot(*args, **kwargs):
            raise AssertionError("a worker slot was used for invalid input")

        monkeypatch.setattr(orchestrator._SlotPool, "acquire", no_slot)
        monkeypatch.setattr(orchestrator._SlotPool, "_start", no_slot)
        values = _ensemble_values(4, 5)
        values[2, 4, 0] = np.nan
        journal = tmp_path / "journal.jsonl"
        with pytest.raises(NonFiniteValueError) as excinfo:
            run_study_service(
                MidpointAlgorithm(),
                initial_values=values,
                rounds=3,
                pattern=_pattern(5),
                workers=2,
                journal=journal,
            )
        assert (excinfo.value.scenario, excinfo.value.agent) == (2, 4)
        assert not journal.exists()
