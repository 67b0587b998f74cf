"""Versioned JSON codecs for specs, plans, configs and results.

Everything the orchestrator ships to a worker process — and everything a
worker journals back — crosses the boundary as JSON produced here.  The
encodings are

* **bit-for-bit faithful**: float arrays travel as base64-encoded raw
  bytes (dtype and shape alongside), scalar floats rely on Python's
  shortest-repr round-trip, so a decoded :class:`~repro.api.StudyResult`
  is array-for-array identical to the one the worker computed;
* **versioned**: every payload carries ``__type__`` and ``version``
  headers, and decoding a payload written by a newer schema raises
  :class:`~repro.exceptions.SerializationError` instead of guessing; and
* **canonical**: a given object always encodes to the same payload
  (sorted recipient sets, registry-named algorithms), which is what lets
  the checkpoint journal content-hash ``(spec, config, shard)`` and
  deduplicate identical shards across studies.

Not everything is serializable by design: adversary-routed studies carry
an adaptive :class:`~repro.models.patterns.AdversarialPattern` whose
decision procedure is arbitrary code — replay its committed schedules as
a ``graphs=`` study instead — and algorithms built from arbitrary
callables (``CallableWeightAveraging``) are likewise rejected with a
clear error.
"""

from __future__ import annotations

import base64
import functools
import json
import math
from typing import Any, Callable, Dict, Optional, Tuple, Type

import numpy as np

from repro.exceptions import SerializationError, UnsupportedVersionError

_ARRAY = "ndarray"


def canonical_json(payload: Any) -> str:
    """The canonical JSON text of a payload (stable key order, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)


def _check_header(
    payload: Any, expected: str, max_version: int = 1, min_version: int = 1
) -> None:
    if not isinstance(payload, dict):
        raise SerializationError(
            f"expected a dict payload for {expected}, got {type(payload).__name__}"
        )
    found = payload.get("__type__")
    if found != expected:
        raise SerializationError(f"expected a {expected} payload, got __type__={found!r}")
    version = payload.get("version")
    if not isinstance(version, int) or version < min_version:
        raise SerializationError(
            f"{expected} payload version {version!r} is not supported "
            f"(this library reads versions {min_version}..{max_version})"
        )
    if version > max_version:
        raise UnsupportedVersionError(
            f"{expected} record version {version} is newer than supported "
            f"(this library reads versions {min_version}..{max_version}); refusing to decode",
            record_type=expected,
            version=version,
            supported=max_version,
        )


def _names_malformed(decode: Callable) -> Callable:
    """Make ``decode`` report a malformed payload as a ``SerializationError``.

    Decoders read fields by plain indexing; the bare ``KeyError``,
    ``TypeError``, ``AttributeError`` or ``IndexError`` a missing or mistyped
    field raises becomes an error naming the payload's record type.
    """

    @functools.wraps(decode)
    def checked(payload: Any) -> Any:
        try:
            return decode(payload)
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            record_type = payload.get("__type__") if isinstance(payload, dict) else None
            raise SerializationError(
                f"malformed {record_type} payload: {type(exc).__name__}: {exc}"
            ) from exc

    return checked


# ---------------------------------------------------------------------- #
# Arrays and opaque state values
# ---------------------------------------------------------------------- #


def encode_array(array: np.ndarray) -> dict:
    """Encode an ndarray as raw little-endian bytes (bit-for-bit)."""
    array = np.ascontiguousarray(array)
    if array.dtype == bool:
        dtype = "bool"
        data = np.packbits(array.reshape(-1))
    else:
        dtype = array.dtype.str
        data = array
    return {
        "__type__": _ARRAY,
        "version": 1,
        "dtype": dtype,
        "shape": list(array.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def decode_array(payload: dict) -> np.ndarray:
    """Invert :func:`encode_array`; a malformed payload raises ``SerializationError``."""
    _check_header(payload, _ARRAY)
    shape, name = payload.get("shape"), payload.get("dtype")
    if not isinstance(shape, list) or not all(type(dim) is int and dim >= 0 for dim in shape):
        raise SerializationError(f"ndarray payload shape {shape!r} is not a list of sizes")
    try:
        dtype = np.dtype(np.uint8 if name == "bool" else name)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"ndarray payload has unknown dtype {name!r}") from exc
    if not isinstance(name, str) or dtype.hasobject or dtype.itemsize == 0:
        raise SerializationError(f"ndarray payload dtype {name!r} cannot travel as raw bytes")
    count = math.prod(shape)
    try:
        raw = base64.b64decode(payload["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError("ndarray payload data is not base64 text") from exc
    expected = (count + 7) // 8 if name == "bool" else count * dtype.itemsize
    if len(raw) != expected:
        raise SerializationError(
            f"ndarray payload of shape {tuple(shape)} needs {expected} bytes, got {len(raw)}"
        )
    if name == "bool":
        flat = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count)
        return flat.astype(bool).reshape(shape)
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


#: Registered dataclass state types, by payload name.  Agent states recorded
#: in configurations are opaque to the engines; the codec handles any
#: dataclass registered here whose fields are themselves encodable values.
_STATE_TYPES: Dict[str, Type] = {}


def register_state_type(cls: Type, name: Optional[str] = None) -> Type:
    """Register a dataclass agent-state type with the value codec."""
    _STATE_TYPES[name or cls.__name__] = cls
    return cls


def _state_name(cls: Type) -> Optional[str]:
    for name, registered in _STATE_TYPES.items():
        if registered is cls:
            return name
    return None


def encode_value(value: Any) -> Any:
    """Encode an arbitrary (state-like) value tree as JSON.

    Handles JSON natives, numpy arrays and scalars, tuples vs lists
    (distinguished — configuration-state equality is type-sensitive),
    frozensets, string-keyed dicts, and registered dataclass state types.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    if isinstance(value, (np.bool_,)):
        return {"__type__": "npscalar", "kind": "bool", "value": bool(value)}
    if isinstance(value, np.integer):
        return {"__type__": "npscalar", "kind": "int", "value": int(value)}
    if isinstance(value, np.floating):
        # Encode through the array codec so NaN payloads and signed zeros
        # survive bit-for-bit.
        return {
            "__type__": "npscalar",
            "kind": "float",
            "value": encode_array(np.asarray(value)),
        }
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, tuple):
        return {"__type__": "tuple", "items": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"__type__": "list", "items": [encode_value(item) for item in value]}
    if isinstance(value, frozenset):
        items = [encode_value(item) for item in value]
        items.sort(key=canonical_json)
        return {"__type__": "frozenset", "items": items}
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise SerializationError(
                "only string-keyed dicts are JSON-serializable; got keys "
                f"{sorted(map(repr, value))[:3]}"
            )
        return {
            "__type__": "dict",
            "items": {key: encode_value(item) for key, item in value.items()},
        }
    name = _state_name(type(value))
    if name is not None and hasattr(value, "__dataclass_fields__"):
        return {
            "__type__": "state",
            "version": 1,
            "state_type": name,
            "fields": {
                field: encode_value(getattr(value, field))
                for field in value.__dataclass_fields__
            },
        }
    raise SerializationError(
        f"cannot serialize a value of type {type(value).__name__}; register "
        "dataclass state types with repro.service.serialization.register_state_type"
    )


@_names_malformed
def decode_value(payload: Any) -> Any:
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if not isinstance(payload, dict):
        raise SerializationError(f"cannot decode value payload {payload!r}")
    kind = payload.get("__type__")
    if kind == _ARRAY:
        return decode_array(payload)
    if kind == "npscalar":
        if payload["kind"] == "bool":
            return np.bool_(payload["value"])
        if payload["kind"] == "int":
            return np.int64(payload["value"])
        return decode_array(payload["value"])[()]
    if kind == "tuple":
        return tuple(decode_value(item) for item in payload["items"])
    if kind == "list":
        return [decode_value(item) for item in payload["items"]]
    if kind == "frozenset":
        return frozenset(decode_value(item) for item in payload["items"])
    if kind == "dict":
        return {key: decode_value(item) for key, item in payload["items"].items()}
    if kind == "state":
        _check_header(payload, "state")
        name = payload["state_type"]
        cls = _STATE_TYPES.get(name)
        if cls is None:
            raise SerializationError(f"unknown registered state type {name!r}")
        fields = payload.get("fields")
        if not isinstance(fields, dict) or set(fields) != set(cls.__dataclass_fields__):
            raise SerializationError(
                f"state payload for {name!r} must carry exactly the fields "
                f"{sorted(cls.__dataclass_fields__)}"
            )
        return cls(**{field: decode_value(item) for field, item in fields.items()})
    raise SerializationError(f"cannot decode value payload of type {kind!r}")


# ---------------------------------------------------------------------- #
# Graphs, models, patterns
# ---------------------------------------------------------------------- #


def encode_graph(graph) -> dict:
    from repro.graphs.digraph import CommunicationGraph

    if not isinstance(graph, CommunicationGraph):
        raise SerializationError(
            f"expected a CommunicationGraph, got {type(graph).__name__}"
        )
    return {
        "__type__": "CommunicationGraph",
        "version": 1,
        "n": graph.n,
        "adjacency": encode_array(graph.adjacency),
        "name": graph.name,
    }


@_names_malformed
def decode_graph(payload: dict):
    from repro.graphs.digraph import CommunicationGraph

    _check_header(payload, "CommunicationGraph")
    return CommunicationGraph(
        payload["n"], adjacency=decode_array(payload["adjacency"]), name=payload["name"]
    )


def encode_model(model) -> dict:
    from repro.models.network_model import NetworkModel

    if not isinstance(model, NetworkModel):
        raise SerializationError(f"expected a NetworkModel, got {type(model).__name__}")
    return {
        "__type__": "NetworkModel",
        "version": 1,
        "graphs": [encode_graph(graph) for graph in model.graphs],
        "name": model.name,
    }


@_names_malformed
def decode_model(payload: dict):
    from repro.models.network_model import NetworkModel

    _check_header(payload, "NetworkModel")
    return NetworkModel(
        [decode_graph(item) for item in payload["graphs"]], name=payload["name"]
    )


#: Oblivious pattern codecs, by payload name: (class, encode, decode).
_PATTERN_CODECS: Dict[str, Tuple[Type, Callable, Callable]] = {}


def _register_patterns() -> None:
    if _PATTERN_CODECS:
        return
    from repro.models.patterns import (
        ConstantPattern,
        PeriodicPattern,
        RandomPattern,
        SequencePattern,
        SigmaBlockPattern,
    )

    _PATTERN_CODECS.update(
        {
            "constant": (
                ConstantPattern,
                lambda p: {"graph": encode_graph(p._graph)},
                lambda body: ConstantPattern(decode_graph(body["graph"])),
            ),
            "periodic": (
                PeriodicPattern,
                lambda p: {"graphs": [encode_graph(g) for g in p._graphs]},
                lambda body: PeriodicPattern(
                    [decode_graph(g) for g in body["graphs"]]
                ),
            ),
            "sequence": (
                SequencePattern,
                lambda p: {
                    "prefix": [encode_graph(g) for g in p._prefix],
                    "suffix": encode_pattern(p._suffix),
                },
                lambda body: SequencePattern(
                    [decode_graph(g) for g in body["prefix"]],
                    suffix=decode_pattern(body["suffix"]),
                ),
            ),
            "random": (
                RandomPattern,
                lambda p: {
                    "graphs": [encode_graph(g) for g in p._graphs],
                    "seed": p._seed,
                },
                lambda body: RandomPattern(
                    [decode_graph(g) for g in body["graphs"]], seed=body["seed"]
                ),
            ),
            "sigma-block": (
                SigmaBlockPattern,
                lambda p: {
                    "n": p._n,
                    "choices": list(p._choices) if p._choices is not None else None,
                    "seed": p._seed,
                },
                lambda body: SigmaBlockPattern(
                    body["n"], choices=body["choices"], seed=body["seed"]
                ),
            ),
        }
    )


def encode_pattern(pattern) -> dict:
    from repro.models.patterns import AdversarialPattern

    _register_patterns()
    if isinstance(pattern, AdversarialPattern):
        raise SerializationError(
            "adversarial patterns are not serializable: their decision procedure "
            "is arbitrary code; run the adversary fault-free and replay its "
            "committed schedules as a graphs= study instead"
        )
    for name, (cls, encode, _decode) in _PATTERN_CODECS.items():
        if type(pattern) is cls:
            body = encode(pattern)
            return {"__type__": "pattern", "version": 1, "pattern": name, **body}
    raise SerializationError(
        f"no pattern codec is registered for {type(pattern).__name__}; "
        "serializable patterns: " + ", ".join(sorted(_PATTERN_CODECS))
    )


@_names_malformed
def decode_pattern(payload: dict):
    _register_patterns()
    _check_header(payload, "pattern")
    name = payload["pattern"]
    codec = _PATTERN_CODECS.get(name)
    if codec is None:
        raise SerializationError(f"unknown pattern codec {name!r}")
    return codec[2](payload)


# ---------------------------------------------------------------------- #
# Algorithms
# ---------------------------------------------------------------------- #

#: Algorithm codecs, by payload name: (class, encode params, decode).
_ALGORITHM_CODECS: Dict[str, Tuple[Type, Callable, Callable]] = {}


def register_algorithm_codec(
    name: str, cls: Type, encode: Callable, decode: Callable
) -> None:
    """Register a codec for an :class:`~repro.algorithms.base.Algorithm` type.

    ``encode(algorithm)`` returns a JSON-safe constructor-parameter dict;
    ``decode(params)`` rebuilds an equivalent instance.  New algorithms
    become service-shardable by registering here.
    """
    _ALGORITHM_CODECS[name] = (cls, encode, decode)


def _register_algorithms() -> None:
    if _ALGORITHM_CODECS:
        return
    from repro.algorithms import (
        AmortizedMidpointAlgorithm,
        DecidingAlgorithm,
        FloodingExactConsensus,
        HegselmannKrauseAlgorithm,
        MassSplittingAlgorithm,
        MeanAlgorithm,
        MidpointAlgorithm,
        SelfWeightedAveraging,
        TwoAgentThirdsAlgorithm,
    )
    from repro.asynchrony import MinRelaySyncAlgorithm

    register_algorithm_codec(
        "midpoint", MidpointAlgorithm, lambda a: {}, lambda p: MidpointAlgorithm()
    )
    register_algorithm_codec(
        "mean", MeanAlgorithm, lambda a: {}, lambda p: MeanAlgorithm()
    )
    register_algorithm_codec(
        "two-agent-thirds",
        TwoAgentThirdsAlgorithm,
        lambda a: {},
        lambda p: TwoAgentThirdsAlgorithm(),
    )
    register_algorithm_codec(
        "amortized-midpoint",
        AmortizedMidpointAlgorithm,
        lambda a: {"phase_length": a._phase_length_override},
        lambda p: AmortizedMidpointAlgorithm(phase_length=p["phase_length"]),
    )
    register_algorithm_codec(
        "hegselmann-krause",
        HegselmannKrauseAlgorithm,
        lambda a: {"confidence": a.confidence, "validate": a._validate},
        lambda p: HegselmannKrauseAlgorithm(p["confidence"], validate=p["validate"]),
    )
    register_algorithm_codec(
        "self-weighted",
        SelfWeightedAveraging,
        lambda a: {"self_weight": a._self_weight, "validate": a._validate},
        lambda p: SelfWeightedAveraging(p["self_weight"], validate=p["validate"]),
    )
    register_algorithm_codec(
        "flooding-exact",
        FloodingExactConsensus,
        lambda a: {"horizon": a.horizon},
        lambda p: FloodingExactConsensus(p["horizon"]),
    )
    register_algorithm_codec(
        "mass-splitting",
        MassSplittingAlgorithm,
        lambda a: {"graph": encode_graph(a.graph)},
        lambda p: MassSplittingAlgorithm(decode_graph(p["graph"])),
    )
    register_algorithm_codec(
        "min-relay-sync",
        MinRelaySyncAlgorithm,
        lambda a: {},
        lambda p: MinRelaySyncAlgorithm(),
    )
    register_algorithm_codec(
        "deciding",
        DecidingAlgorithm,
        lambda a: {
            "inner": encode_algorithm(a.inner),
            "decision_round": a.decision_round,
        },
        lambda p: DecidingAlgorithm(
            decode_algorithm(p["inner"]), p["decision_round"]
        ),
    )


def encode_algorithm(algorithm) -> dict:
    _register_algorithms()
    for name, (cls, encode, _decode) in _ALGORITHM_CODECS.items():
        if type(algorithm) is cls:
            return {
                "__type__": "algorithm",
                "version": 1,
                "algorithm": name,
                "params": encode(algorithm),
            }
    raise SerializationError(
        f"no algorithm codec is registered for {type(algorithm).__name__}; "
        "register one with repro.service.serialization.register_algorithm_codec "
        "(algorithms built from arbitrary callables cannot cross process "
        "boundaries)"
    )


@_names_malformed
def decode_algorithm(payload: dict):
    _register_algorithms()
    _check_header(payload, "algorithm")
    name = payload["algorithm"]
    codec = _ALGORITHM_CODECS.get(name)
    if codec is None:
        raise SerializationError(f"unknown algorithm codec {name!r}")
    return codec[2](payload["params"])


def registered_algorithm_names() -> Tuple[str, ...]:
    """The names of every registered algorithm codec, sorted.

    This is the authoritative list of serializable algorithms — the campaign
    registry audit (:func:`repro.campaign.registry.audit_registry`) compares
    it against the fuzz registry so every algorithm that can cross a process
    boundary is also differentially fuzzed.
    """
    _register_algorithms()
    return tuple(sorted(_ALGORITHM_CODECS))


# ---------------------------------------------------------------------- #
# Scenario and certify specs
# ---------------------------------------------------------------------- #


def encode_scenario_spec(spec) -> dict:
    from repro.api import ScenarioSpec
    from repro.execution.schedule import encode_schedule

    if not isinstance(spec, ScenarioSpec):
        raise SerializationError(f"expected a ScenarioSpec, got {type(spec).__name__}")
    if spec.adversary is not None:
        raise SerializationError(
            "adversary-routed scenarios are not serializable (the adversary's "
            "decision procedure is arbitrary code); replay its committed "
            "schedules as a graphs= scenario instead"
        )
    # One pattern payload, or a list of per-scenario ones.
    pattern = spec.pattern
    if isinstance(pattern, (list, tuple)):
        pattern = [encode_pattern(p) for p in pattern]
    elif pattern is not None:
        pattern = encode_pattern(pattern)
    values = np.asarray(spec.initial_values, dtype=float)
    graphs = None if spec.graphs is None else encode_schedule(spec.graphs, *_schedule_shape(values))
    return {
        "__type__": "ScenarioSpec",
        "version": 2,
        "initial_values": encode_array(values),
        "rounds": spec.rounds,
        "pattern": pattern,
        "graphs": graphs,
        "record_every": spec.record_every,
        "scenario_labels": (
            None
            if spec.scenario_labels is None
            else [encode_value(label) for label in spec.scenario_labels]
        ),
    }


def _schedule_shape(values: np.ndarray) -> Tuple[int, int]:
    """The ``(B, n)`` a scenario's graph schedule must fit (one scenario is B = 1)."""
    if values.ndim not in (1, 2, 3):
        raise SerializationError(f"initial values of shape {values.shape} cannot carry graphs")
    return values.shape[:2] if values.ndim == 3 else (1, len(values))


@_names_malformed
def decode_scenario_spec(payload: dict):
    from repro.api import ScenarioSpec
    from repro.execution.schedule import decode_schedule

    _check_header(payload, "ScenarioSpec", max_version=2, min_version=2)
    # Every field but the adversary, which never travels.
    keys = {"__type__", "version", *ScenarioSpec.__dataclass_fields__} - {"adversary"}
    if set(payload) != keys:
        raise SerializationError(
            f"ScenarioSpec payload must carry exactly the keys {sorted(keys)}, "
            f"got {sorted(payload)}"
        )
    values = decode_array(payload["initial_values"])
    pattern = payload["pattern"]
    if isinstance(pattern, list):
        pattern = [decode_pattern(p) for p in pattern]
    elif pattern is not None:
        pattern = decode_pattern(pattern)
    graphs = None
    if payload["graphs"] is not None:
        graphs = decode_schedule(payload["graphs"], *_schedule_shape(values))
    labels = payload["scenario_labels"]
    return ScenarioSpec(
        initial_values=values,
        rounds=None if graphs is not None else payload["rounds"],
        pattern=pattern,
        graphs=graphs,
        record_every=payload["record_every"],
        scenario_labels=(
            None if labels is None else [decode_value(label) for label in labels]
        ),
    )


def encode_certify_spec(spec) -> dict:
    from repro.api import CertifySpec

    if not isinstance(spec, CertifySpec):
        raise SerializationError(f"expected a CertifySpec, got {type(spec).__name__}")
    return {
        "__type__": "CertifySpec",
        "version": 1,
        "suffix_rounds": spec.suffix_rounds,
        "exploration_depth": spec.exploration_depth,
        "use_batch": spec.use_batch,
        "scenario_chunk": spec.scenario_chunk,
    }


@_names_malformed
def decode_certify_spec(payload: dict):
    from repro.api import CertifySpec

    _check_header(payload, "CertifySpec")
    return CertifySpec(
        suffix_rounds=payload["suffix_rounds"],
        exploration_depth=payload["exploration_depth"],
        use_batch=payload["use_batch"],
        scenario_chunk=payload["scenario_chunk"],
    )


# ---------------------------------------------------------------------- #
# Executions and results
# ---------------------------------------------------------------------- #


def _encode_configuration(configuration) -> dict:
    return {
        "round_number": configuration.round_number,
        "outputs": encode_array(configuration.outputs),
        "states": [encode_value(state) for state in configuration.states],
    }


def _decode_configuration(payload: dict):
    from repro.execution.state import Configuration

    return Configuration(
        states=tuple(decode_value(state) for state in payload["states"]),
        outputs=decode_array(payload["outputs"]),
        round_number=payload["round_number"],
    )


#: Payload version of ``EnsembleExecution``/``AdversarialEnsembleExecution``.
#: Version 2 records one stacked batch state per recorded round; version 1
#: (per-scenario configuration objects) is rejected.
ENSEMBLE_VERSION = 2


def encode_execution(execution) -> dict:
    from repro.execution.execution import (
        AdversarialEnsembleExecution,
        EnsembleExecution,
        Execution,
    )

    if isinstance(execution, EnsembleExecution):
        payload = {
            "__type__": "EnsembleExecution",
            "version": ENSEMBLE_VERSION,
            "algorithm_name": execution.algorithm_name,
            "recorded_rounds": list(execution.recorded_rounds),
            "recorded_outputs": encode_array(execution.recorded_outputs),
            "scenario_labels": (
                None
                if execution.scenario_labels is None
                else [encode_value(label) for label in execution.scenario_labels]
            ),
            "batched": execution.batched,
            "recorded_states": (
                None
                if execution.recorded_states is None
                else execution.recorded_states.to_dict()
            ),
            "fault_plan": (
                None if execution.fault_plan is None else execution.fault_plan.to_dict()
            ),
        }
        if isinstance(execution, AdversarialEnsembleExecution):
            payload["__type__"] = "AdversarialEnsembleExecution"
            payload["round_choices"] = [
                [encode_graph(graph) for graph in choices]
                for choices in execution.round_choices
            ]
        return payload
    if isinstance(execution, Execution):
        return {
            "__type__": "Execution",
            "version": 1,
            "algorithm_name": execution.algorithm_name,
            "configurations": [
                _encode_configuration(c) for c in execution.configurations
            ],
            "graphs": [encode_graph(graph) for graph in execution.graphs],
        }
    raise SerializationError(
        f"expected an Execution or EnsembleExecution, got {type(execution).__name__}"
    )


@_names_malformed
def decode_execution(payload: dict):
    from repro.execution.execution import (
        AdversarialEnsembleExecution,
        EnsembleExecution,
        Execution,
        RecordedStates,
        _per_scenario_fields,
    )
    from repro.faults import FaultPlan

    kind = payload.get("__type__") if isinstance(payload, dict) else None
    if kind == "Execution":
        _check_header(payload, "Execution")
        # The payload names its algorithm but does not carry it.
        configurations = [_decode_configuration(c) for c in payload["configurations"]]
        fields = _per_scenario_fields(None, [configurations], None, True)
        fields["algorithm_name"] = payload["algorithm_name"]
        graphs = [decode_graph(graph) for graph in payload["graphs"]]
        return Execution(record=EnsembleExecution(**fields), graphs=graphs)
    if kind in ("EnsembleExecution", "AdversarialEnsembleExecution"):
        _check_header(payload, kind, ENSEMBLE_VERSION, min_version=ENSEMBLE_VERSION)
        labels = payload["scenario_labels"]
        recorded = payload["recorded_states"]
        common = dict(
            algorithm_name=payload["algorithm_name"],
            recorded_rounds=list(payload["recorded_rounds"]),
            recorded_outputs=decode_array(payload["recorded_outputs"]),
            scenario_labels=(
                None if labels is None else [decode_value(label) for label in labels]
            ),
            batched=payload["batched"],
            recorded_states=(
                None if recorded is None else RecordedStates.from_dict(recorded)
            ),
            fault_plan=(
                None
                if payload["fault_plan"] is None
                else FaultPlan.from_dict(payload["fault_plan"])
            ),
        )
        if kind == "AdversarialEnsembleExecution":
            return AdversarialEnsembleExecution(
                **common,
                round_choices=[
                    [decode_graph(graph) for graph in choices]
                    for choices in payload["round_choices"]
                ],
            )
        return EnsembleExecution(**common)
    raise SerializationError(f"cannot decode execution payload of type {kind!r}")


def encode_provenance(provenance) -> dict:
    return {
        "__type__": "StudyProvenance",
        "version": 1,
        "route": provenance.route,
        "fast_path": provenance.fast_path,
        "batched": provenance.batched,
        "config": provenance.config.to_dict(),
        "faulted": provenance.faulted,
    }


@_names_malformed
def decode_provenance(payload: dict):
    from repro.api import StudyProvenance
    from repro.config import EngineConfig

    _check_header(payload, "StudyProvenance")
    return StudyProvenance(
        route=payload["route"],
        fast_path=payload["fast_path"],
        batched=payload["batched"],
        config=EngineConfig.from_dict(payload["config"]),
        faulted=payload["faulted"],
    )


#: Payload version of ``StudyResult``.  Version 2 carries the certified
#: study's one valency record as three arrays, and the certificates derived
#: from it are rebuilt on decode; version 1 (per-estimate objects) is rejected.
STUDY_RESULT_VERSION = 2


def encode_study_result(result) -> dict:
    from repro.api import StudyResult

    if not isinstance(result, StudyResult):
        raise SerializationError(f"expected a StudyResult, got {type(result).__name__}")
    record = result.valency
    return {
        "__type__": "StudyResult",
        "version": STUDY_RESULT_VERSION,
        "execution": encode_execution(result.execution),
        "provenance": encode_provenance(result.provenance),
        "valency": None if record is None else {
            "limits": encode_array(record.limits),
            "lower_diameter": encode_array(record.lower_diameter),
            "upper_diameter": (
                None if record.upper_diameter is None else encode_array(record.upper_diameter)
            ),
        },
    }


@_names_malformed
def decode_study_result(payload: dict):
    from repro.api import StudyResult
    from repro.core.valency import ValencyEstimate

    _check_header(payload, "StudyResult", STUDY_RESULT_VERSION, STUDY_RESULT_VERSION)
    record = payload["valency"]
    valency = None
    if record is not None:
        upper = record["upper_diameter"]
        valency = ValencyEstimate(
            limits=decode_array(record["limits"]),
            lower_diameter=decode_array(record["lower_diameter"]),
            upper_diameter=None if upper is None else decode_array(upper),
        )
    result = StudyResult(
        execution=decode_execution(payload["execution"]),
        provenance=decode_provenance(payload["provenance"]),
        valency=valency,
    )
    if valency is not None:
        # The record's leading axes must be the execution's (R,) or (R, B).
        execution = result.execution
        axes = execution.recorded_outputs.shape[: 2 if result.is_ensemble else 1]
        shapes = {valency.limits.shape[:-2], valency.lower_diameter.shape}
        if valency.upper_diameter is not None:
            shapes.add(valency.upper_diameter.shape)
        if valency.limits.ndim != len(axes) + 2 or shapes != {axes}:
            raise SerializationError(
                f"StudyResult valency record shapes {sorted(shapes)} do not match "
                f"the execution's recorded axes {axes}"
            )
    return result


def _register_default_states() -> None:
    from repro.algorithms.amortized_midpoint import (
        AmortizedMidpointBatchState,
        AmortizedMidpointState,
    )
    from repro.algorithms.approximate import DecidingBatchState, DecidingState

    for cls in (
        AmortizedMidpointState,
        AmortizedMidpointBatchState,
        DecidingState,
        DecidingBatchState,
    ):
        if _state_name(cls) is None:
            register_state_type(cls)


_register_default_states()
