"""Round-trip tests for the service serialization layer.

Property-style: every spec, plan, config and result codec is driven over a
seeded grid of randomized instances, each pushed through an actual
``json.dumps``/``json.loads`` cycle (not just ``to_dict``/``from_dict``) so
the payloads are proven JSON-transportable.  Arrays must come back
bit-for-bit; the structured exceptions must survive pickling with their
diagnostic fields intact (the orchestrator ships worker errors across
process boundaries).
"""

import json
import pickle

import numpy as np
import pytest

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    FloodingExactConsensus,
    HegselmannKrauseAlgorithm,
    MassSplittingAlgorithm,
    MidpointAlgorithm,
    SelfWeightedAveraging,
    TwoAgentThirdsAlgorithm,
)
from repro.algorithms.approximate import DecidingAlgorithm
from repro.api import CertifySpec, ScenarioSpec, Study, StudyResult
from repro.config import EngineConfig
from repro.exceptions import (
    AsynchronyError,
    EnsembleShapeError,
    FaultModelError,
    SerializationError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.faults import CrashSpec, FaultPlan, FaultSpec, JoinSpec
from repro.models.patterns import (
    ConstantPattern,
    PeriodicPattern,
    RandomPattern,
    SequencePattern,
    SigmaBlockPattern,
)
from repro.models.standard import deaf_model, psi_model, two_agent_model
from repro.service.serialization import (
    canonical_json,
    decode_algorithm,
    decode_array,
    decode_graph,
    decode_model,
    decode_pattern,
    encode_algorithm,
    encode_array,
    encode_graph,
    encode_model,
    encode_pattern,
)
from tests.valency_records import record_bytes


def roundtrip(payload):
    """Force an actual JSON wire cycle, not just a dict copy."""
    return json.loads(json.dumps(payload))


# --------------------------------------------------------------------- #
# Arrays and primitives
# --------------------------------------------------------------------- #


def test_array_roundtrip_bit_for_bit():
    rng = np.random.default_rng(7)
    arrays = [
        rng.uniform(-1, 1, (3, 4, 5)),
        rng.integers(-100, 100, (6,), dtype=np.int64),
        rng.uniform(0, 1, (2, 3)) < 0.5,
        np.array([np.nan, np.inf, -np.inf, -0.0]),
        np.array([], dtype=float),
        np.float64(0.1) * np.ones((1, 1, 1, 1)),
    ]
    for array in arrays:
        back = decode_array(roundtrip(encode_array(array)))
        assert back.dtype == array.dtype
        assert back.shape == array.shape
        assert np.array_equal(back, array, equal_nan=True)
        # bit-for-bit, not just value-equal
        assert back.tobytes() == array.tobytes()


def _bool_payload_claiming_more_bits():
    payload = encode_array(np.array([True, False, True]))
    payload["shape"] = [100]
    return payload


def _float_payload(**overrides):
    payload = encode_array(np.arange(3.0))
    payload.update(overrides)
    return payload


def _state_payload_missing_a_field():
    from repro.algorithms.amortized_midpoint import AmortizedMidpointState
    from repro.service.serialization import encode_value

    value = np.array([0.5])
    payload = encode_value(
        AmortizedMidpointState(value, value, value, rounds_into_phase=1, phase_length=3)
    )
    del payload["fields"]["phase_max"]
    return payload


@pytest.mark.parametrize(
    "payload",
    [
        _float_payload(shape=[-1]),
        _bool_payload_claiming_more_bits(),
        _float_payload(shape=[4]),
        _float_payload(dtype="not-a-dtype"),
        _float_payload(dtype="|O"),
        _state_payload_missing_a_field(),
    ],
    ids=[
        "negative-shape",
        "bool-shape-beyond-packed-bits",
        "byte-count-mismatch",
        "unknown-dtype",
        "object-dtype",
        "state-missing-field",
    ],
)
def test_malformed_value_payloads_raise_serialization_error(payload):
    from repro.service.serialization import decode_value

    with pytest.raises(SerializationError):
        decode_value(roundtrip(payload))


@pytest.mark.parametrize(
    "decoder,payload,record_type",
    [
        ("decode_value", {"__type__": "tuple"}, "tuple"),
        ("decode_value", {"__type__": "dict", "items": [1]}, "dict"),
        ("decode_value", {"__type__": "list", "items": 5}, "list"),
        ("decode_execution", {"__type__": "EnsembleExecution", "version": 2}, "EnsembleExecution"),
        ("decode_study_result", {"__type__": "StudyResult", "version": 2}, "StudyResult"),
    ],
    ids=["tuple-without-items", "dict-items-not-a-mapping", "list-items-not-a-list",
         "ensemble-without-fields", "study-result-without-fields"],
)
def test_malformed_record_payloads_name_the_record_type(decoder, payload, record_type):
    from repro.service import serialization

    with pytest.raises(SerializationError, match=f"malformed {record_type} payload"):
        getattr(serialization, decoder)(roundtrip(payload))


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = canonical_json({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b


# --------------------------------------------------------------------- #
# Graphs, models, patterns, algorithms
# --------------------------------------------------------------------- #


def test_graph_and_model_roundtrip():
    model = deaf_model(n=5)
    for graph in model:
        back = decode_graph(roundtrip(encode_graph(graph)))
        assert back.n == graph.n
        assert np.array_equal(back.adjacency, graph.adjacency)
    back_model = decode_model(roundtrip(encode_model(model)))
    assert back_model.name == model.name
    assert list(back_model) == list(model)


PATTERNS = [
    lambda model: ConstantPattern(list(model)[0]),
    lambda model: PeriodicPattern(list(model)[:3]),
    lambda model: SequencePattern(list(model)[:2]),
    lambda model: SequencePattern(list(model)[:2], ConstantPattern(list(model)[1])),
    lambda model: RandomPattern(list(model), seed=11),
    lambda model: SigmaBlockPattern(5, seed=3),
]


@pytest.mark.parametrize("factory", PATTERNS)
def test_pattern_roundtrip_emits_identical_graphs(factory):
    model = deaf_model(n=5)
    pattern = factory(model)
    back = decode_pattern(roundtrip(encode_pattern(pattern)))
    assert type(back) is type(pattern)
    for t in range(1, 13):
        assert back.graph_at(t) == pattern.graph_at(t)


ALGORITHMS = [
    MidpointAlgorithm(),
    TwoAgentThirdsAlgorithm(),
    AmortizedMidpointAlgorithm(),
    AmortizedMidpointAlgorithm(phase_length=4),
    HegselmannKrauseAlgorithm(confidence=0.4),
    SelfWeightedAveraging(self_weight=0.7),
    FloodingExactConsensus(horizon=6),
    DecidingAlgorithm(MidpointAlgorithm(), 3),
    DecidingAlgorithm(AmortizedMidpointAlgorithm(), 0),
]


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
def test_algorithm_roundtrip_behaves_identically(algorithm):
    back = decode_algorithm(roundtrip(encode_algorithm(algorithm)))
    assert type(back) is type(algorithm)
    assert back.name == algorithm.name
    if isinstance(algorithm, TwoAgentThirdsAlgorithm):
        model = two_agent_model()
        values = np.array([0.0, 1.0])
    else:
        model = deaf_model(n=5)
        values = np.linspace(0.0, 1.0, 5)
    pattern = RandomPattern(list(model), seed=5)
    from repro.execution import run_execution

    original = run_execution(algorithm, values, pattern, 6)
    decoded = run_execution(back, values, pattern, 6)
    assert np.array_equal(original.outputs(), decoded.outputs())


def test_mass_splitting_roundtrip():
    from repro.graphs import complete_graph

    algorithm = MassSplittingAlgorithm(complete_graph(4))
    back = decode_algorithm(roundtrip(encode_algorithm(algorithm)))
    assert back.graph == algorithm.graph


def test_unregistered_algorithm_is_rejected():
    class Custom(MidpointAlgorithm):
        pass

    with pytest.raises(SerializationError):
        encode_algorithm(Custom())


# --------------------------------------------------------------------- #
# Fault plans and specs
# --------------------------------------------------------------------- #


def fault_plan_grid():
    rng = np.random.default_rng(23)
    plans = []
    for _ in range(12):
        crash_agents = rng.choice(5, size=int(rng.integers(0, 3)), replace=False)
        crashes = tuple(
            CrashSpec(
                agent=int(agent),
                round=int(rng.integers(1, 8)),
                final_recipients=(
                    None
                    if rng.random() < 0.5
                    else frozenset(
                        int(a) for a in rng.choice(5, size=2, replace=False)
                    )
                ),
                recovery_round=(
                    None if rng.random() < 0.5 else int(rng.integers(8, 12))
                ),
            )
            for agent in crash_agents
        )
        join_agents = rng.choice(5, size=int(rng.integers(0, 2)), replace=False)
        joins = tuple(
            JoinSpec(agent=int(agent), round=int(rng.integers(1, 6)))
            for agent in join_agents
        )
        plans.append(
            FaultPlan(
                drop=float(rng.uniform(0, 0.4)),
                duplicate=float(rng.uniform(0, 0.2)),
                jitter=float(rng.uniform(0, 0.3)),
                crashes=crashes,
                joins=joins,
                f=None if rng.random() < 0.5 else int(rng.integers(1, 4)),
                seed=int(rng.integers(0, 1000)),
                enforce_model=bool(rng.integers(0, 2)),
                scenario_base=int(rng.integers(0, 16)),
            )
        )
    return plans


@pytest.mark.parametrize("plan", fault_plan_grid(), ids=range(12))
def test_fault_plan_roundtrip_samples_identically(plan):
    back = FaultPlan.from_dict(roundtrip(plan.to_dict()))
    assert back == plan
    # The decoded plan must draw the identical masks — the sharded service
    # depends on this to reproduce a shard's faults in a worker process.
    for round_number in (1, 3):
        assert np.array_equal(
            back.batch_round_masks(round_number, 4, 5),
            plan.batch_round_masks(round_number, 4, 5),
        )


def test_fault_spec_roundtrip_and_zero_normalization():
    spec = FaultSpec(drop=0.1, crashes=(CrashSpec(agent=1, round=2),), seed=5)
    back = FaultSpec.from_dict(roundtrip(spec.to_dict()))
    assert back.compile() == spec.compile()
    # A zero spec round-trips to a zero spec; Study normalizes it away.
    zero = FaultSpec()
    zero_back = FaultSpec.from_dict(roundtrip(zero.to_dict()))
    assert zero_back.compile().is_zero()
    study = Study(
        algorithm=MidpointAlgorithm(),
        initial_values=np.linspace(0, 1, 4),
        pattern=ConstantPattern(list(deaf_model(n=4))[0]),
        rounds=3,
        faults=zero_back,
    )
    assert study.run().provenance.faulted is False


def test_fault_plan_version_gate():
    payload = FaultPlan(drop=0.1, seed=1).to_dict()
    payload["version"] = 99
    with pytest.raises(SerializationError):
        FaultPlan.from_dict(payload)


# --------------------------------------------------------------------- #
# Configs and specs
# --------------------------------------------------------------------- #


def test_engine_config_roundtrip():
    configs = [
        EngineConfig(),
        EngineConfig(use_fast_path=True, seed=7),
        EngineConfig(
            use_batch=False,
            use_packed=False,
            scenario_chunk=64,
            threads=2,
        ),
    ]
    for config in configs:
        assert EngineConfig.from_dict(roundtrip(config.to_dict())) == config


def test_engine_config_v2_roundtrip_carries_the_six_fields():
    config = EngineConfig(
        use_fast_path=False, use_batch=True, use_packed=False,
        scenario_chunk=8, seed=3, threads=4,
    )
    payload = roundtrip(config.to_dict())
    assert payload == {
        "__type__": "EngineConfig", "version": 2,
        "use_fast_path": False, "use_batch": True, "use_packed": False,
        "scenario_chunk": 8, "seed": 3, "threads": 4,
    }
    assert EngineConfig.from_dict(payload) == config


def test_engine_config_rejects_version_1_payloads():
    # Version 1 also carried the three masked-reduction override keys, which
    # no longer exist; old job bodies must fail loudly, not run differently.
    payload = EngineConfig(use_batch=False).to_dict()
    payload["version"] = 1
    with pytest.raises(SerializationError, match="version 1 is not supported"):
        EngineConfig.from_dict(payload)


def test_engine_config_bad_payloads():
    with pytest.raises(SerializationError):
        EngineConfig.from_dict({"__type__": "Nope", "version": 2})
    payload = EngineConfig().to_dict()
    payload["version"] = 3
    with pytest.raises(SerializationError):
        EngineConfig.from_dict(payload)


def scenario_spec_grid():
    model = deaf_model(n=5)
    graphs = list(model)
    rng = np.random.default_rng(3)
    single = rng.uniform(0, 1, (5,))
    matrix = rng.uniform(0, 1, (5, 2))
    ensemble = rng.uniform(0, 1, (4, 5, 1))
    return [
        ScenarioSpec(initial_values=single, rounds=6, pattern=ConstantPattern(graphs[0])),
        ScenarioSpec(initial_values=matrix, rounds=4, pattern=RandomPattern(graphs, seed=2)),
        ScenarioSpec(initial_values=single, graphs=graphs[:3]),
        ScenarioSpec(
            initial_values=ensemble,
            rounds=5,
            pattern=[ConstantPattern(graphs[i % len(graphs)]) for i in range(4)],
            scenario_labels=["a", "b", "c", "d"],
            record_every=2,
        ),
        ScenarioSpec(
            initial_values=ensemble,
            graphs=[graphs[0], [graphs[i % len(graphs)] for i in range(4)], graphs[1]],
        ),
    ]


@pytest.mark.parametrize("spec", scenario_spec_grid(), ids=range(5))
def test_scenario_spec_roundtrip(spec):
    back = ScenarioSpec.from_dict(roundtrip(spec.to_dict()))
    assert back.rounds == spec.rounds
    assert back.record_every == spec.record_every
    assert back.scenario_labels == spec.scenario_labels
    assert back.is_ensemble() == spec.is_ensemble()
    assert np.array_equal(
        np.asarray(back.initial_values, dtype=float),
        np.asarray(spec.initial_values, dtype=float),
    )
    # The decoded spec must drive a Study to the identical trajectory.
    direct = Study(algorithm=MidpointAlgorithm(), scenario=spec).run()
    decoded = Study(algorithm=MidpointAlgorithm(), scenario=back).run()
    assert np.array_equal(direct.final_outputs, decoded.final_outputs)


def test_adversarial_spec_is_rejected():
    from repro.core.adversary import TwoAgentAdversary

    spec = ScenarioSpec(
        initial_values=[0.0, 1.0], rounds=4, adversary=TwoAgentAdversary()
    )
    with pytest.raises(SerializationError):
        spec.to_dict()


def test_certify_spec_roundtrip_nested_in_study_payload():
    certify = CertifySpec(suffix_rounds=20, exploration_depth=1, use_batch=False)
    back = CertifySpec.from_dict(roundtrip(certify.to_dict()))
    assert back == certify
    # Nested inside a certified study result the spec's effect (the
    # estimates) round-trips bit-for-bit.
    model = two_agent_model()
    result = Study(
        algorithm=TwoAgentThirdsAlgorithm(),
        initial_values=[0.0, 1.0],
        pattern=ConstantPattern(list(model)[0]),
        rounds=6,
        model=model,
        certify=CertifySpec(suffix_rounds=10),
    ).run()
    decoded = StudyResult.from_dict(roundtrip(result.to_dict()))
    assert decoded.certificates.rate_interval == result.certificates.rate_interval
    assert decoded.certificates.valency_trace == result.certificates.valency_trace
    assert record_bytes(decoded.certificates.estimate) == record_bytes(
        result.certificates.estimate
    )


def test_study_result_roundtrip_certified_faulted_ensemble():
    model = deaf_model(n=5)
    values = np.random.default_rng(0).uniform(0, 1, (4, 5, 1))
    result = Study(
        algorithm=MidpointAlgorithm(),
        initial_values=values,
        rounds=6,
        pattern=RandomPattern(list(model), seed=3),
        model=model,
        certify=CertifySpec(suffix_rounds=10),
        faults=FaultSpec(drop=0.15, seed=9, enforce_model=False),
    ).run()
    back = StudyResult.from_dict(roundtrip(result.to_dict()))
    assert np.array_equal(
        back.execution.recorded_outputs, result.execution.recorded_outputs
    )
    assert back.execution.recorded_outputs.tobytes() == (
        result.execution.recorded_outputs.tobytes()
    )
    assert back.provenance == result.provenance
    assert back.execution.fault_plan == result.execution.fault_plan
    assert record_bytes(back.valency) == record_bytes(result.valency)
    assert len(back.certificates) == len(result.certificates)
    for mine, theirs in zip(back.certificates, result.certificates):
        assert mine.rate_interval == theirs.rate_interval
        assert mine.valency_trace == theirs.valency_trace
    # recorded per-scenario configurations survive (states included)
    assert back.execution.has_recorded_states
    from repro.execution.state import _states_equal

    for b in range(result.execution.batch_size):
        mine_configs = back.execution.scenario_configurations(b)
        their_configs = result.execution.scenario_configurations(b)
        for r in range(len(result.execution.recorded_rounds)):
            mine = mine_configs[r]
            theirs = their_configs[r]
            assert mine.round_number == theirs.round_number
            assert np.array_equal(mine.outputs, theirs.outputs)
            assert _states_equal(mine.states, theirs.states)


def _rooted_amortized_study(scenarios=24, agents=12, rounds=24, seed=0):
    from repro.graphs.generators import random_rooted_graph

    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, (scenarios, agents, 1))
    graphs = [
        [random_rooted_graph(agents, rng, 0.1) for _ in range(scenarios)]
        for _ in range(rounds)
    ]
    return Study(
        algorithm=AmortizedMidpointAlgorithm(),
        initial_values=values,
        graphs=graphs,
        record_every=4,
        model=psi_model(agents),
        certify=CertifySpec(suffix_rounds=16),
    )


def test_certified_rooted_study_payload_stays_columnar():
    # B=24, n=12, 24 rounds, record_every=4: per-agent state objects made
    # this payload ~905 KB; one stacked state per recorded round keeps it
    # well below 200 KB.
    result = _rooted_amortized_study().run()
    assert len(canonical_json(result.to_dict())) <= 200_000


@pytest.mark.parametrize("use_batch", [True, False])
@pytest.mark.parametrize("adversarial", [False, True])
def test_ensemble_v2_roundtrip_rebuilds_configurations(use_batch, adversarial):
    from repro.core.adversary import GreedyDiameterAdversary
    from repro.execution.state import _states_equal
    from repro.service.serialization import decode_execution, encode_execution

    model = deaf_model(n=4)
    source = (
        dict(adversary=GreedyDiameterAdversary(model), rounds=5)
        if adversarial
        else dict(pattern=RandomPattern(list(model), seed=1), rounds=5)
    )
    execution = Study(
        algorithm=DecidingAlgorithm(AmortizedMidpointAlgorithm(), decision_round=3),
        initial_values=np.random.default_rng(3).uniform(0, 1, (3, 4, 1)),
        record_every=2,
        model=model,
        certify=CertifySpec(suffix_rounds=8),
        config=EngineConfig(use_batch=use_batch),
        **source,
    ).run().execution
    assert execution.batched is use_batch
    payload = roundtrip(encode_execution(execution))
    assert payload["version"] == 2
    back = decode_execution(payload)
    assert type(back) is type(execution)
    for b in range(execution.batch_size):
        for mine, theirs in zip(
            back.scenario_configurations(b), execution.scenario_configurations(b)
        ):
            assert mine.round_number == theirs.round_number
            assert mine.outputs.tobytes() == theirs.outputs.tobytes()
            assert _states_equal(mine.states, theirs.states)


@pytest.mark.parametrize("adversarial", [False, True])
def test_ensemble_v1_payloads_are_rejected_naming_the_record(adversarial):
    from repro.core.adversary import GreedyDiameterAdversary
    from repro.service.serialization import decode_execution, encode_execution

    model = deaf_model(n=4)
    source = (
        dict(adversary=GreedyDiameterAdversary(model))
        if adversarial
        else dict(pattern=RandomPattern(list(model), seed=1))
    )
    execution = Study(
        algorithm=MidpointAlgorithm(),
        initial_values=np.zeros((2, 4, 1)),
        rounds=2,
        **source,
    ).run().execution
    payload = encode_execution(execution)
    payload["version"] = 1
    record = "AdversarialEnsembleExecution" if adversarial else "EnsembleExecution"
    with pytest.raises(SerializationError, match=f"{record} payload version 1"):
        decode_execution(payload)


def test_study_result_v2_payload_carries_only_the_record():
    model = deaf_model(n=4)
    result = Study(
        algorithm=MidpointAlgorithm(),
        initial_values=np.random.default_rng(2).uniform(0, 1, (3, 4, 1)),
        pattern=RandomPattern(list(model), seed=2),
        rounds=4,
        model=model,
        certify=CertifySpec(suffix_rounds=6),
    ).run()
    payload = roundtrip(result.to_dict())
    assert payload["version"] == 2
    assert set(payload) == {"__type__", "version", "execution", "provenance", "valency"}
    assert set(payload["valency"]) == {"limits", "lower_diameter", "upper_diameter"}
    # The certificates are derived on decode, equal to the sender's.
    back = StudyResult.from_dict(payload)
    for mine, theirs in zip(back.certificates, result.certificates):
        assert record_bytes(mine.estimate) == record_bytes(theirs.estimate)
        assert mine.valency_trace == theirs.valency_trace
        assert mine.output_rate == theirs.output_rate


@pytest.mark.parametrize("field", ["limits", "lower_diameter", "upper_diameter"])
def test_study_result_record_must_match_the_execution_axes(field):
    model = deaf_model(n=4)
    result = Study(
        algorithm=MidpointAlgorithm(),
        initial_values=np.random.default_rng(4).uniform(0, 1, (3, 4, 1)),
        pattern=RandomPattern(list(model), seed=4),
        rounds=2,
        model=model,
        certify=CertifySpec(suffix_rounds=4),
    ).run()
    payload = result.to_dict()
    # One scenario too few in one of the record's arrays.
    payload["valency"][field] = encode_array(getattr(result.valency, field)[:, :2])
    with pytest.raises(SerializationError, match=r"recorded axes \(3, 3\)"):
        StudyResult.from_dict(roundtrip(payload))


def test_study_result_v1_payloads_are_rejected_naming_the_record():
    model = two_agent_model()
    result = Study(
        algorithm=TwoAgentThirdsAlgorithm(),
        initial_values=[0.0, 1.0],
        pattern=ConstantPattern(list(model)[0]),
        rounds=3,
        model=model,
        certify=CertifySpec(suffix_rounds=6),
    ).run()
    # The v1 layout: one certificates entry per scenario, estimates per cell.
    payload = result.to_dict()
    del payload["valency"]
    payload["version"] = 1
    payload["certificates"] = {"kind": "single", "items": [{"estimates": []}]}
    with pytest.raises(SerializationError, match="StudyResult payload version 1"):
        StudyResult.from_dict(roundtrip(payload))


# --------------------------------------------------------------------- #
# Exception pickling
# --------------------------------------------------------------------- #


def test_fault_model_error_pickles_with_fields():
    error = FaultModelError(
        "boom", scenario=3, round_number=2, agent=1, in_degree=1, required=4
    )
    back = pickle.loads(pickle.dumps(error))
    assert isinstance(back, FaultModelError)
    assert str(back) == "boom"
    assert (back.scenario, back.round_number, back.agent) == (3, 2, 1)
    assert (back.in_degree, back.required) == (1, 4)


def test_ensemble_shape_error_pickles_with_fields():
    error = EnsembleShapeError("bad shape", expected="(B, n, d)", actual=(3, 2))
    back = pickle.loads(pickle.dumps(error))
    assert isinstance(back, EnsembleShapeError)
    assert str(back) == "bad shape"
    assert back.expected == "(B, n, d)"
    assert back.actual == (3, 2)


def test_asynchrony_error_pickles_with_fields():
    error = AsynchronyError("starved", agent=2, round_number=5, time=1.25)
    back = pickle.loads(pickle.dumps(error))
    assert isinstance(back, AsynchronyError)
    assert (back.agent, back.round_number, back.time) == (2, 5, 1.25)


def test_service_errors_pickle_with_fields():
    crash = pickle.loads(pickle.dumps(WorkerCrashError("died", exitcode=-9)))
    assert crash.exitcode == -9
    timeout = pickle.loads(
        pickle.dumps(ShardTimeoutError("slow", elapsed=2.5, kind="heartbeat"))
    )
    assert timeout.elapsed == 2.5
    assert timeout.kind == "heartbeat"


def test_raised_exceptions_pickle_from_real_raise_sites():
    # EnsembleShapeError from the ensemble stacker
    with pytest.raises(EnsembleShapeError) as info:
        Study(
            algorithm=MidpointAlgorithm(),
            initial_values=np.zeros((2, 2, 2, 2)),
            rounds=2,
            pattern=ConstantPattern(list(deaf_model(n=4))[0]),
        ).run()
    back = pickle.loads(pickle.dumps(info.value))
    assert back.actual == (2, 2, 2, 2)
    # FaultModelError from the crash-model check
    with pytest.raises(FaultModelError) as info:
        Study(
            algorithm=MidpointAlgorithm(),
            initial_values=np.random.default_rng(0).uniform(0, 1, (2, 5, 1)),
            rounds=4,
            pattern=ConstantPattern(list(deaf_model(n=5))[0]),
            faults=FaultSpec(drop=0.95, seed=3),
        ).run()
    back = pickle.loads(pickle.dumps(info.value))
    assert back.scenario is not None
    assert back.round_number is not None
    assert back.required is not None


# --------------------------------------------------------------------- #
# Remote service wire records
# --------------------------------------------------------------------- #


def remote_record_grid():
    from repro.service.remote.protocol import (
        CacheHitRecord,
        JobRecord,
        LeaseRecord,
        TelemetryRecord,
    )

    return [
        JobRecord(key="a" * 64, kind="study_shard", body={"kind": "study_shard"}),
        JobRecord(key="b" * 64, kind="sweep_row", body={"row": {"n": 4}}),
        LeaseRecord(
            key="a" * 64,
            lease_id="deadbeef",
            worker="w0",
            attempt=2,
            heartbeat_interval=0.2,
            expires_in=30.0,
        ),
        TelemetryRecord(seq=1, event="enqueued", key="a" * 64),
        TelemetryRecord(
            seq=7,
            event="retried",
            key="b" * 64,
            kind="study_shard",
            worker="w1",
            attempt=1,
            elapsed=1.25,
            error_type="ShardTimeoutError",
            message="lease expired",
            timestamp=123.5,
        ),
        CacheHitRecord(key="c" * 64, kind="study_shard", source="journal"),
    ]


def test_remote_records_roundtrip():
    for record in remote_record_grid():
        assert type(record).from_dict(roundtrip(record.to_dict())) == record


def test_remote_records_reject_unknown_type():
    for record in remote_record_grid():
        payload = record.to_dict()
        payload["__type__"] = "Nope"
        with pytest.raises(SerializationError):
            type(record).from_dict(payload)


def test_remote_records_reject_newer_version():
    from repro.exceptions import UnsupportedVersionError

    for record in remote_record_grid():
        payload = record.to_dict()
        payload["version"] = 99
        with pytest.raises(UnsupportedVersionError) as info:
            type(record).from_dict(payload)
        # The structured error names the record type and both versions.
        assert info.value.record_type == record.to_dict()["__type__"]
        assert info.value.version == 99
        assert info.value.supported == 1
        assert isinstance(info.value, SerializationError)
        back = pickle.loads(pickle.dumps(info.value))
        assert back.record_type == info.value.record_type
        assert back.version == 99
        assert back.supported == 1


def test_checkpoint_journal_rejects_newer_record_version(tmp_path):
    from repro.exceptions import UnsupportedVersionError
    from repro.service.checkpoint import CheckpointJournal

    path = tmp_path / "journal.jsonl"
    with CheckpointJournal(path) as journal:
        journal.put("k1", {"x": 1})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {"key": "k2", "kind": "shard", "version": 2, "result": {"x": 2}}
            )
            + "\n"
        )
    with pytest.raises(UnsupportedVersionError) as info:
        CheckpointJournal(path)
    assert info.value.record_type == "shard"
    assert info.value.version == 2
    assert info.value.supported == 1


def test_checkpoint_journal_rejects_newer_header_version(tmp_path):
    from repro.exceptions import UnsupportedVersionError
    from repro.service.checkpoint import CheckpointJournal

    path = tmp_path / "journal.jsonl"
    path.write_text(json.dumps({"journal": "repro-service-journal", "version": 9}) + "\n")
    with pytest.raises(UnsupportedVersionError) as info:
        CheckpointJournal(path)
    assert info.value.record_type == "repro-service-journal"
    assert info.value.version == 9
