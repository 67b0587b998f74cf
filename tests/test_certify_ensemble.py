"""Ensemble-scale certification: stacked passes vs independent runs.

The acceptance bar of the ensemble certification engine: certifying a whole
``(B, n, d)`` ensemble — through ``ValencyEstimator.certify_ensemble``, the
``valency_contraction_trace_ensemble`` helper, or ``Study(certify=...)`` —
must be **bit-for-bit identical** to ``B`` independent single-scenario
certifications, for stateless (convex-combination) and stateful
(batch-state) algorithms alike, on the batched and reference paths.  Also
covered: the per-scenario configuration snapshots of ``EnsembleExecution``,
the ``batch_state_stack`` hook, the state-level fixpoint hook
(``Algorithm.batch_state_fixpoint``) that extends active-set retiring to
stateful algorithms, and the back-off of its checks on the constant suffix.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    DecidingAlgorithm,
    MeanAlgorithm,
    MidpointAlgorithm,
    TwoAgentThirdsAlgorithm,
)
from repro.algorithms.amortized_midpoint import AmortizedMidpointBatchState
from repro.algorithms.base import Algorithm, ConvexCombinationAlgorithm
from repro.api import CertifySpec, EngineConfig, Study
from repro.core.adversary import (
    GreedyDiameterAdversary,
    PsiBlockAdversary,
    TwoAgentAdversary,
)
from repro.core.contraction import (
    valency_contraction_trace,
    valency_contraction_trace_ensemble,
)
from repro.core.valency import ValencyEstimator
from repro.exceptions import ExecutionError
from repro.execution import (
    run_adversarial_ensemble,
    run_ensemble,
    run_execution,
    run_pattern_ensemble,
)
from repro.graphs.families import complete_graph, cycle_graph, directed_star_graph
from repro.models.patterns import PeriodicPattern, SequencePattern
from repro.models.standard import deaf_model, psi_model, two_agent_model
from tests.valency_records import record_bytes, stacked


def _values(batch_size, n, d=1, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(batch_size, n, d))


def _pattern(n):
    return PeriodicPattern([complete_graph(n), cycle_graph(n), directed_star_graph(n)])


def _scenario_traces(estimator, ensemble):
    """The per-scenario ``trace`` reference of an ensemble, stacked to ``(R, B)``."""
    return stacked(
        estimator.trace(ensemble.scenario_configurations(scenario))
        for scenario in range(ensemble.batch_size)
    )


class TestScenarioSnapshots:
    def test_batched_snapshots_match_single_scenario_runs(self):
        algorithm = MidpointAlgorithm()
        n, batch_size, rounds = 5, 3, 6
        values = _values(batch_size, n)
        ensemble = run_pattern_ensemble(
            algorithm, values, _pattern(n), rounds, record_every=2, record_states=True
        )
        assert ensemble.batched is True
        assert ensemble.has_recorded_states
        for scenario in range(batch_size):
            solo = run_execution(
                algorithm, values[scenario], _pattern(n), rounds, record_every=2
            )
            configs = ensemble.scenario_configurations(scenario)
            assert [c.round_number for c in configs] == [
                c.round_number for c in solo.configurations
            ]
            for config_ens, config_solo in zip(configs, solo.configurations):
                assert np.array_equal(config_ens.outputs, config_solo.outputs)
                for state_ens, state_solo in zip(config_ens.states, config_solo.states):
                    assert np.array_equal(
                        np.asarray(state_ens), np.asarray(state_solo)
                    )

    def test_stateful_snapshots_roundtrip_through_batch_state(self):
        algorithm = AmortizedMidpointAlgorithm()
        n, batch_size, rounds = 5, 2, 7  # rounds not a phase multiple: mid-phase snapshot
        values = _values(batch_size, n, seed=3)
        ensemble = run_pattern_ensemble(
            algorithm, values, _pattern(n), rounds, record_states=True
        )
        for scenario in range(batch_size):
            solo = run_execution(algorithm, values[scenario], _pattern(n), rounds)
            for config_ens, config_solo in zip(
                ensemble.scenario_configurations(scenario), solo.configurations
            ):
                for state_ens, state_solo in zip(config_ens.states, config_solo.states):
                    assert np.array_equal(state_ens.value, state_solo.value)
                    assert np.array_equal(state_ens.phase_min, state_solo.phase_min)
                    assert np.array_equal(state_ens.phase_max, state_solo.phase_max)
                    assert state_ens.rounds_into_phase == state_solo.rounds_into_phase

    def test_snapshots_off_by_default_and_error_is_actionable(self):
        ensemble = run_pattern_ensemble(
            MidpointAlgorithm(), _values(2, 4), _pattern(4), 3
        )
        assert not ensemble.has_recorded_states
        with pytest.raises(ExecutionError, match="record_states=True"):
            ensemble.scenario_configurations(0)

    def test_slow_path_records_snapshots_too(self):
        algorithm = MidpointAlgorithm()
        values = _values(2, 4, seed=5)
        batched = run_pattern_ensemble(
            algorithm, values, _pattern(4), 4, record_states=True, use_batch=True
        )
        loop = run_pattern_ensemble(
            algorithm, values, _pattern(4), 4, record_states=True, use_batch=False
        )
        assert loop.batched is False
        for scenario in range(2):
            for config_a, config_b in zip(
                batched.scenario_configurations(scenario),
                loop.scenario_configurations(scenario),
            ):
                assert np.array_equal(config_a.outputs, config_b.outputs)


class TestBatchStateStack:
    def test_array_states_stack(self):
        algorithm = MidpointAlgorithm()
        states = [np.full((3, 1), float(i)) for i in range(4)]
        stacked = algorithm.batch_state_stack(states)
        assert stacked.shape == (4, 3, 1)
        assert np.array_equal(stacked[2], states[2])

    def test_structured_states_stack_leafwise(self):
        algorithm = AmortizedMidpointAlgorithm()
        values = _values(3, 4, seed=7)
        singles = [algorithm.batch_initial(values[b]) for b in range(3)]
        # Uniform phase positions keep the scalar position.
        uniform = algorithm.batch_state_stack(singles)
        assert uniform.value.shape == (3, 4, 1)
        assert np.array_equal(uniform.phase_min[1], singles[1].phase_min)
        assert uniform.rounds_into_phase == 0
        # Mixed phase positions stack into a per-scenario position array.
        singles[2] = algorithm.batch_transition(
            singles[2], complete_graph(4).adjacency, 1
        )
        mixed = algorithm.batch_state_stack(singles)
        assert np.array_equal(mixed.phase_max[2], singles[2].phase_max)
        assert mixed.rounds_into_phase.tolist() == [0, 0, 1]

    def test_structured_states_must_be_in_lockstep(self):
        # Phase positions may differ across a stack; phase lengths may not.
        values = _values(2, 4, seed=8)
        one = AmortizedMidpointAlgorithm().batch_initial(values[0])
        other = AmortizedMidpointAlgorithm(phase_length=2).batch_initial(values[1])
        from repro.exceptions import AlgorithmError

        with pytest.raises(AlgorithmError, match="phase length"):
            AmortizedMidpointAlgorithm().batch_state_stack([one, other])

    def test_stack_rejects_empty(self):
        from repro.exceptions import AlgorithmError

        with pytest.raises(AlgorithmError):
            MidpointAlgorithm().batch_state_stack([])


class TestCertifyEnsemble:
    @pytest.mark.parametrize("use_batch", [True, False])
    def test_stateless_matches_independent_traces(self, use_batch):
        algorithm = MidpointAlgorithm()
        n, batch_size, rounds = 5, 4, 6
        model = deaf_model(n=n)
        values = _values(batch_size, n, seed=11)
        ensemble = run_pattern_ensemble(
            algorithm, values, _pattern(n), rounds, record_every=2, record_states=True
        )
        estimator = ValencyEstimator(
            algorithm, model, suffix_rounds=15, exploration_depth=1, use_batch=use_batch
        )
        record = estimator.certify_ensemble(ensemble)
        assert record.lower_diameter.shape == (len(ensemble.recorded_rounds), batch_size)
        assert record_bytes(record) == record_bytes(_scenario_traces(estimator, ensemble))

    @pytest.mark.parametrize("use_batch", [True, False])
    def test_stateful_matches_independent_traces(self, use_batch):
        algorithm = AmortizedMidpointAlgorithm()
        n, batch_size, rounds = 5, 3, 7
        model = psi_model(n)
        values = _values(batch_size, n, seed=13)
        ensemble = run_pattern_ensemble(
            algorithm, values, _pattern(n), rounds, record_states=True
        )
        estimator = ValencyEstimator(
            algorithm, model, suffix_rounds=12, use_batch=use_batch
        )
        record = estimator.certify_ensemble(ensemble)
        assert record.upper_diameter is None
        assert record_bytes(record) == record_bytes(_scenario_traces(estimator, ensemble))

    def test_non_round_invariant_mean_groups_by_round(self):
        # MeanAlgorithm is round-invariant; force the same-round grouping path
        # through a wrapper that hides round invariance.
        class RoundShyMean(MeanAlgorithm):
            def round_invariant(self):
                return False

        algorithm = RoundShyMean()
        n, batch_size = 4, 3
        model = deaf_model(n=n)
        values = _values(batch_size, n, seed=17)
        ensemble = run_pattern_ensemble(
            algorithm, values, _pattern(n), 4, record_states=True
        )
        estimator = ValencyEstimator(algorithm, model, suffix_rounds=10)
        assert record_bytes(estimator.certify_ensemble(ensemble)) == record_bytes(
            _scenario_traces(estimator, ensemble)
        )

    def test_requires_recorded_states(self):
        ensemble = run_pattern_ensemble(MidpointAlgorithm(), _values(2, 4), _pattern(4), 3)
        estimator = ValencyEstimator(MidpointAlgorithm(), deaf_model(n=4), suffix_rounds=5)
        with pytest.raises(ExecutionError, match="record_states=True"):
            estimator.certify_ensemble(ensemble)

    def test_rejects_non_ensemble_inputs(self):
        estimator = ValencyEstimator(MidpointAlgorithm(), deaf_model(n=4), suffix_rounds=5)
        with pytest.raises(ExecutionError, match="EnsembleExecution"):
            estimator.certify_ensemble(object())


class TestTraceEnsemble:
    def test_trace_rows_match_single_scenario_traces(self):
        algorithm = MidpointAlgorithm()
        n, batch_size, rounds = 4, 3, 5
        model = deaf_model(n=n)
        values = _values(batch_size, n, seed=19)
        traces = valency_contraction_trace_ensemble(
            algorithm, model, _pattern(n), values, rounds, suffix_rounds=12
        )
        assert traces.shape == (batch_size, rounds + 1)
        for scenario in range(batch_size):
            solo = valency_contraction_trace(
                algorithm,
                model,
                SequencePattern(
                    [_pattern(n).graph_at(t) for t in range(1, rounds + 1)]
                ),
                values[scenario],
                rounds,
                suffix_rounds=12,
            )
            assert traces[scenario].tolist() == solo

    def test_per_scenario_patterns(self):
        algorithm = MidpointAlgorithm()
        n, batch_size = 4, 2
        model = deaf_model(n=n)
        patterns = [
            PeriodicPattern([complete_graph(n), cycle_graph(n)]),
            PeriodicPattern([directed_star_graph(n)]),
        ]
        traces = valency_contraction_trace_ensemble(
            algorithm, model, patterns, _values(batch_size, n, seed=23), 4,
            suffix_rounds=10,
        )
        assert traces.shape == (batch_size, 5)


class TestStudyEnsembleCertification:
    @pytest.mark.parametrize(
        "algorithm_factory,adversary_factory,model_factory,n",
        [
            (
                MidpointAlgorithm,
                lambda model, n: GreedyDiameterAdversary(model),
                lambda n: deaf_model(n=n),
                5,
            ),
            (
                AmortizedMidpointAlgorithm,
                lambda model, n: PsiBlockAdversary(n),
                psi_model,
                5,
            ),
        ],
    )
    def test_adversarial_ensemble_certificates_match_independent_studies(
        self, algorithm_factory, adversary_factory, model_factory, n
    ):
        model = model_factory(n)
        batch_size, rounds = 3, 8
        values = _values(batch_size, n, seed=29)
        certify = CertifySpec(suffix_rounds=10)
        result = Study(
            algorithm=algorithm_factory(),
            initial_values=values,
            adversary=adversary_factory(model, n),
            rounds=rounds,
            model=model,
            certify=certify,
        ).run()
        assert isinstance(result.certificates, list)
        assert len(result.certificates) == batch_size
        for scenario in range(batch_size):
            solo = Study(
                algorithm=algorithm_factory(),
                initial_values=values[scenario],
                adversary=adversary_factory(model, n),
                rounds=rounds,
                model=model,
                certify=certify,
            ).run()
            ensemble_cert = result.certificates[scenario]
            assert ensemble_cert.valency_trace == solo.certificates.valency_trace
            assert ensemble_cert.output_rate == solo.certificates.output_rate
            assert ensemble_cert.rate_interval == solo.certificates.rate_interval
            assert record_bytes(ensemble_cert.estimate) == record_bytes(
                solo.certificates.estimate
            )

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "algorithm_factory",
        [
            MidpointAlgorithm,
            AmortizedMidpointAlgorithm,
            lambda: DecidingAlgorithm(AmortizedMidpointAlgorithm(), decision_round=5),
        ],
        ids=["midpoint", "amortized-midpoint", "deciding"],
    )
    def test_certified_batched_study_builds_no_per_agent_states(
        self, monkeypatch, algorithm_factory, threads
    ):
        # The recorded batch states go to the certifier as stacked leaves:
        # no split into per-agent objects, no restore from them.
        calls = []
        for cls in (
            Algorithm,
            ConvexCombinationAlgorithm,
            AmortizedMidpointAlgorithm,
            DecidingAlgorithm,
        ):
            for name in ("batch_states", "batch_state_from_states"):
                if name in vars(cls):
                    original = vars(cls)[name]

                    def spy(self, *args, _original=original, _name=name, **kwargs):
                        calls.append(_name)
                        return _original(self, *args, **kwargs)

                    monkeypatch.setattr(cls, name, spy)
        n = 5
        result = Study(
            algorithm=algorithm_factory(),
            initial_values=_values(4, n, seed=41),
            pattern=_pattern(n),
            rounds=8,
            record_every=2,
            model=psi_model(n),
            certify=CertifySpec(suffix_rounds=10),
            config=EngineConfig(threads=threads),
        ).run()
        assert result.provenance.batched is True
        assert len(result.certificates) == 4
        assert calls == []
        # The spies are live: building configurations splits the states.
        result.execution.scenario_configurations(0)
        assert "batch_states" in calls

    def test_pattern_and_graph_routes_certify(self):
        n = 4
        model = deaf_model(n=n)
        values = _values(2, n, seed=31)
        by_pattern = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=values,
            pattern=_pattern(n),
            rounds=4,
            model=model,
            certify=CertifySpec(suffix_rounds=8),
        ).run()
        graphs = [_pattern(n).graph_at(t) for t in range(1, 5)]
        by_graphs = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=values,
            graphs=graphs,
            model=model,
            certify=CertifySpec(suffix_rounds=8),
        ).run()
        assert by_pattern.provenance.route == "run_pattern_ensemble"
        assert by_graphs.provenance.route == "run_ensemble"
        assert [c.valency_trace for c in by_pattern.certificates] == [
            c.valency_trace for c in by_graphs.certificates
        ]

    def test_uncertified_ensembles_skip_snapshots(self):
        result = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=_values(2, 4, seed=37),
            pattern=_pattern(4),
            rounds=3,
        ).run()
        assert result.certificates is None
        assert not result.execution.has_recorded_states


class TestStateFixpointHook:
    def test_convex_hook_matches_output_fixpoints(self):
        algorithm = MidpointAlgorithm()
        previous = np.array([[[0.5], [0.5]], [[0.1], [0.9]]])
        new = np.array([[[0.5], [0.5]], [[0.5], [0.5]]])
        fixed = algorithm.batch_state_fixpoint(previous, new)
        assert fixed.tolist() == [True, False]

    def test_round_dependent_rules_answer_none(self):
        class RoundShyMean(MeanAlgorithm):
            def round_invariant(self):
                return False

        assert RoundShyMean().batch_state_fixpoint(np.zeros((1, 2, 1)), np.zeros((1, 2, 1))) is None

    def test_amortized_hook_detects_collapsed_states(self):
        algorithm = AmortizedMidpointAlgorithm()
        # All agents agree: the state is an exact fixpoint of every graph.
        agreed = algorithm.batch_initial(np.full((2, 4, 1), 0.25))
        graph = complete_graph(4)
        stepped = algorithm.batch_transition(agreed, graph.adjacency, 1)
        fixed = algorithm.batch_state_fixpoint(agreed, stepped)
        assert fixed.tolist() == [True, True]
        # Disagreeing agents under a connecting graph are not fixpoints.
        mixed = algorithm.batch_initial(
            np.stack([np.full((4, 1), 0.25), np.linspace(0, 1, 4).reshape(4, 1)])
        )
        stepped = algorithm.batch_transition(mixed, graph.adjacency, 1)
        fixed = algorithm.batch_state_fixpoint(mixed, stepped)
        assert fixed.tolist() == [True, False]

    def test_amortized_hook_claims_nothing_on_reset_rounds(self):
        algorithm = AmortizedMidpointAlgorithm(phase_length=1)
        agreed = algorithm.batch_initial(np.full((1, 3, 1), 0.5))
        stepped = algorithm.batch_transition(agreed, complete_graph(3).adjacency, 1)
        assert stepped.rounds_into_phase == 0
        assert algorithm.batch_state_fixpoint(agreed, stepped).tolist() == [False]

    def test_stateful_retiring_is_bit_for_bit(self):
        # Scenarios that collapse to agreement retire from the constant
        # suffix early; the estimate must equal the full reference loop.
        algorithm = AmortizedMidpointAlgorithm()
        n = 4
        model = psi_model(n)
        # One agreed scenario (retires immediately), one generic scenario.
        values = np.stack(
            [np.full((n, 1), 0.5), np.linspace(0.0, 1.0, n).reshape(n, 1)]
        )
        ensemble = run_ensemble(
            algorithm,
            values,
            [complete_graph(n)] * 3,
            record_states=True,
        )
        batched = ValencyEstimator(algorithm, model, suffix_rounds=25, use_batch=True)
        reference = ValencyEstimator(algorithm, model, suffix_rounds=25, use_batch=False)
        assert record_bytes(batched.certify_ensemble(ensemble)) == record_bytes(
            _scenario_traces(reference, ensemble)
        )


# Values with frequent ties, so the hook's equalities hold often; doubling
# 2**1023 overflows, so the phase-end halving does not reproduce it.
_TIED = st.sampled_from((0.0, 0.5, 2.0**1023, np.inf, np.nan))
_LEAF = arrays(np.float64, (4, 3, 1), elements=_TIED)
_HUGE = np.full((4, 3, 1), 2.0**1023)


@settings(max_examples=300, deadline=None)
@given(
    leaves=st.tuples(*[_LEAF] * 6),
    copies=st.tuples(*[st.booleans()] * 5),
    positions=st.one_of(st.integers(0, 2), arrays(np.int64, (4,), elements=st.integers(0, 2))),
)
@example(leaves=(_HUGE,) * 6, copies=(True,) * 5, positions=1)  # fails the halving only
@example(leaves=(_HUGE * 0,) * 6, copies=(True,) * 5, positions=1)  # an exact fixpoint
def test_amortized_fixpoint_equals_three_reduction_form(leaves, copies, positions):
    value, phase_min, phase_max, new_value, new_min, new_max = leaves
    # Copied leaves make collapsed and unchanged states common.
    previous = AmortizedMidpointBatchState(
        value=value,
        phase_min=value.copy() if copies[0] else phase_min,
        phase_max=value.copy() if copies[1] else phase_max,
        rounds_into_phase=0,
        phase_length=3,
    )
    new = AmortizedMidpointBatchState(
        value=value.copy() if copies[2] else new_value,
        phase_min=value.copy() if copies[3] else new_min,
        phase_max=value.copy() if copies[4] else new_max,
        rounds_into_phase=positions,
        phase_length=3,
    )
    with np.errstate(over="ignore"):
        collapsed_before = (
            (previous.phase_min == previous.value) & (previous.phase_max == previous.value)
        ).all(axis=(-2, -1))
        unchanged = (
            (new.value == previous.value)
            & (new.phase_min == previous.value)
            & (new.phase_max == previous.value)
        ).all(axis=(-2, -1))
        halving_exact = ((new.value + new.value) * 0.5 == new.value).all(axis=(-2, -1))
        reset = np.asarray(new.rounds_into_phase) == 0
        expected = collapsed_before & unchanged & halving_exact & ~reset
        got = AmortizedMidpointAlgorithm().batch_state_fixpoint(previous, new)
    assert np.array_equal(np.broadcast_to(got, (4,)), expected)


def _first_fixpoint_rounds(algorithm, state, adjacency, start_round, rounds):
    """Per future, the first suffix round whose transition the hook certifies (0: none)."""
    first = np.zeros(adjacency.shape[0], dtype=int)
    for offset in range(rounds):
        new = algorithm.batch_transition(state, adjacency, start_round + 1 + offset)
        fixed = algorithm.batch_state_fixpoint(state, new)
        if fixed is not None:
            first[(first == 0) & fixed] = offset + 1
        state = new
    return first


class TestSuffixBackoff:
    """Fixpoint checks back off on the constant suffix without changing a bit."""

    ROWS = {
        "thm1": (TwoAgentThirdsAlgorithm, two_agent_model, TwoAgentAdversary, 2),
        "thm2": (
            MidpointAlgorithm,
            lambda: deaf_model(n=4),
            lambda: GreedyDiameterAdversary(deaf_model(n=4)),
            4,
        ),
        "thm3": (AmortizedMidpointAlgorithm, lambda: psi_model(4), lambda: PsiBlockAdversary(4), 4),
    }

    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_records_match_reference(self, monkeypatch, row):
        make_algorithm, make_model, make_adversary, n = self.ROWS[row]
        algorithm, model = make_algorithm(), make_model()
        # Scenario 0 has agreed: all its futures retire at suffix round 1.
        values = _values(4, n, seed=7)
        values[0] = 0.5
        ensemble = run_adversarial_ensemble(
            algorithm, values, make_adversary(), 8, record_states=True
        )
        suffixes = []
        original = ValencyEstimator._run_constant_suffix_state

        def spy(self, state, adjacency, start_round):
            suffixes.append((state, adjacency, start_round))
            return original(self, state, adjacency, start_round)

        monkeypatch.setattr(ValencyEstimator, "_run_constant_suffix_state", spy)
        batched = ValencyEstimator(algorithm, model, suffix_rounds=40, threads=1)
        reference = ValencyEstimator(algorithm, model, suffix_rounds=40, use_batch=False)
        record = batched.certify_ensemble(ensemble)
        assert suffixes
        assert record_bytes(record) == record_bytes(reference.certify_ensemble(ensemble))
        first = np.concatenate(
            [
                _first_fixpoint_rounds(algorithm, state, adjacency, start, 40)
                for state, adjacency, start in suffixes
            ]
        )
        assert (first == 1).any()
        if row == "thm1":
            # Futures that converge to an exact fixpoint late in the suffix.
            assert (first > 3).any()

    @pytest.mark.parametrize("agreed", [2, 4])
    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_bulk_retirement_equals_running_every_future(self, monkeypatch, row, agreed):
        # Compaction waits until half of the alive futures are fixed; the
        # finals must equal a suffix that never retires anything.
        make_algorithm, make_model, make_adversary, n = self.ROWS[row]
        algorithm, model = make_algorithm(), make_model()
        values = _values(6, n, seed=11)
        values[:agreed] = 0.5  # agreed scenarios: fixed futures from suffix round 1
        ensemble = run_adversarial_ensemble(
            algorithm, values, make_adversary(), 8, record_states=True
        )
        suffixes = []
        original = ValencyEstimator._run_constant_suffix_state

        def spy(self, state, adjacency, start_round):
            suffixes.append((state, adjacency, start_round))
            return original(self, state, adjacency, start_round)

        monkeypatch.setattr(ValencyEstimator, "_run_constant_suffix_state", spy)
        estimator = ValencyEstimator(algorithm, model, suffix_rounds=40, threads=1)
        estimator.certify_ensemble(ensemble)
        monkeypatch.setattr(ValencyEstimator, "_run_constant_suffix_state", original)
        fixed_shares = []
        hook = type(algorithm).batch_state_fixpoint

        def counting(self, previous, new):
            fixed = hook(self, previous, new)
            fixed_shares.append((int(np.count_nonzero(fixed)), fixed.size))
            return fixed

        monkeypatch.setattr(type(algorithm), "batch_state_fixpoint", counting)
        bulk = [estimator._run_constant_suffix_state(*suffix) for suffix in suffixes]
        monkeypatch.setattr(type(algorithm), "batch_state_fixpoint", lambda *_: None)
        full = [estimator._run_constant_suffix_state(*suffix) for suffix in suffixes]
        for got, want in zip(bulk, full):
            assert got.tobytes() == want.tobytes()
        if agreed == 2:
            # A third of the futures are fixed: left alive, not compacted.
            assert any(0 < fixed < size / 2 for fixed, size in fixed_shares)
        else:
            assert any(2 * fixed >= size for fixed, size in fixed_shares)

    def test_checks_double_their_gap_until_one_retires(self, monkeypatch):
        algorithm = MidpointAlgorithm()
        n = 4
        # Scenario 0 has agreed and retires at the first check; scenario 1
        # never reaches an exact fixpoint in 12 rounds of the cycle.
        values = np.stack([np.full((n, 1), 0.5), np.linspace(0.0, 1.0, n).reshape(n, 1)])
        adjacency = np.stack([cycle_graph(n).adjacency] * 2)
        checked = []
        original = MidpointAlgorithm.batch_state_fixpoint

        def spy(self, previous, new):
            checked.append(np.shape(new)[0])
            return original(self, previous, new)

        monkeypatch.setattr(MidpointAlgorithm, "batch_state_fixpoint", spy)
        estimator = ValencyEstimator(algorithm, deaf_model(n=n), suffix_rounds=12)
        finals = estimator._run_constant_suffix_state(values, adjacency, 0)
        # Checks after suffix rounds 1, 2, 4 and 8: the first retires
        # scenario 0, so the gaps are 1, 2 and 4; the next would be round 16.
        assert checked == [2, 1, 1, 1]
        state = values
        for t in range(1, 13):
            state = algorithm.batch_transition(state, adjacency, t)
        assert np.array_equal(finals, state)



def test_rate_interval_is_two_separate_estimates():
    # The lower end fits the valency trace from its first to its last
    # positive entry, the upper end the output diameters from round 0,
    # first round's drop included.  Over these different spans the lower
    # end exceeds the upper for midpoint under the greedy adversary on
    # crash_model(4, 1): the interval is documented as two estimates, and
    # this pins that choice.
    from repro.core.contraction import fit_trace_rate
    from repro.execution.metrics import rate_from_diameters
    from repro.models.standard import crash_model

    model = crash_model(4, 1)
    values = np.random.default_rng(0).uniform(0.0, 1.0, size=(4, 4, 1))
    result = Study(
        algorithm=MidpointAlgorithm(),
        initial_values=values,
        adversary=GreedyDiameterAdversary(model),
        rounds=10,
        model=model,
        certify=CertifySpec(suffix_rounds=40, exploration_depth=0),
    ).run()
    diameters = result.execution.diameters()
    for scenario, certificate in enumerate(result.certificates):
        lower, upper = certificate.rate_interval
        assert lower == fit_trace_rate(certificate.valency_trace)
        assert upper == certificate.output_rate == rate_from_diameters(diameters[:, scenario])
        assert lower > upper
    assert tuple(round(end, 3) for end in result.certificates[2].rate_interval) == (0.5, 0.483)
