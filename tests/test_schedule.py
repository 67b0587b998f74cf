"""Per-round graph schedules: wire codec, slicing and malformed payloads.

* Property: a schedule mixing shared and per-scenario rounds survives the
  JSON wire round trip with every round's form and graph intact, and the
  slices over ``shard_bounds(B, k)`` put every scenario's graph sequence
  back together.
* A perfbench-shaped ``ScenarioSpec`` (B=24, n=12, 24 per-scenario rooted
  rounds) packs into one bool array per round.
* Malformed ``ScenarioSpec`` and ``campaign-case`` payloads fail with
  ``SerializationError`` / ``CampaignError``, and the worker's error for a
  malformed ``study_shard`` body is never retried.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import MidpointAlgorithm
from repro.api import ScenarioSpec
from repro.campaign.targets import CaseSpec, build_case
from repro.config import EngineConfig
from repro.exceptions import CampaignError, SerializationError
from repro.execution.parallel import shard_bounds
from repro.execution.schedule import (
    decode_schedule,
    encode_schedule,
    is_shared,
    scenario_graphs,
    slice_schedule,
    validate_schedule,
)
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.generators import random_graph, random_rooted_graph
from repro.service import RetryPolicy
from repro.service.serialization import canonical_json, encode_algorithm, encode_array
from repro.service.worker import _run_job, error_from_descriptor


@st.composite
def schedules(draw):
    batch = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))

    def graph():
        bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        return CommunicationGraph(n, adjacency=np.array(bits).reshape(n, n))

    schedule = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            schedule.append(graph())
        else:
            schedule.append([graph() for _ in range(batch)])
    return batch, n, schedule


@settings(max_examples=60)
@given(schedules())
def test_wire_round_trip_keeps_every_round(case):
    batch, n, schedule = case
    wire = json.loads(canonical_json(encode_schedule(schedule, batch, n)))
    decoded = decode_schedule(wire, batch, n)
    assert len(decoded) == len(schedule)
    for original, back in zip(schedule, decoded):
        assert is_shared(back) == is_shared(original)
        assert back == original if is_shared(back) else list(back) == list(original)


@settings(max_examples=60)
@given(schedules(), st.integers(1, 6))
def test_shard_slices_reassemble_every_scenario(case, parts):
    batch, n, schedule = case
    reassembled = [
        scenario_graphs(slice_schedule(validate_schedule(schedule, batch, n), start, stop), local)
        for start, stop in shard_bounds(batch, parts)
        for local in range(stop - start)
    ]
    assert reassembled == [scenario_graphs(schedule, b) for b in range(batch)]


def test_rooted_study_spec_packs_one_array_per_round():
    rng = np.random.default_rng(0)
    scenarios, agents, rounds = 24, 12, 24
    values = rng.uniform(-1.0, 1.0, (scenarios, agents, 1))
    graphs = [
        [random_rooted_graph(agents, rng, 0.1) for _ in range(scenarios)]
        for _ in range(rounds)
    ]
    spec = ScenarioSpec(initial_values=values, graphs=graphs, record_every=4)
    payload = spec.to_dict()
    # One CommunicationGraph payload per scenario and round made this
    # ~112 KB; one packed bool array per round keeps it near 19 KB.
    assert len(canonical_json(payload)) <= 25_000
    back = ScenarioSpec.from_dict(json.loads(canonical_json(payload)))
    assert back.graphs == graphs
    # Display names are not part of graph identity and do not travel.
    assert back.graphs[0][0].name is None


# --------------------------------------------------------------------------- #
# Malformed payloads fail fast
# --------------------------------------------------------------------------- #


def _scenario_payload():
    rng = np.random.default_rng(1)
    batch, n = 3, 4
    spec = ScenarioSpec(
        initial_values=rng.uniform(0, 1, (batch, n, 1)),
        graphs=[
            random_graph(n, rng, 0.5),
            [random_graph(n, rng, 0.5) for _ in range(batch)],
        ],
    )
    return spec.to_dict(), batch, n


def _case_payload():
    spec = build_case("batch_vs_loop", 0)
    return spec.to_dict(), spec.batch, spec.n


def _pop(key):
    def mutate(payload, batch, n):
        del payload[key]

    return mutate


def _round(shape, dtype=bool):
    def mutate(payload, batch, n):
        payload["graphs"][0] = encode_array(np.ones(shape(batch, n), dtype=dtype))

    return mutate


def _drop_round_data(payload, batch, n):
    del payload["graphs"][0]["data"]


def _set(key, value):
    def mutate(payload, batch, n):
        payload[key] = value

    return mutate


MALFORMED = {
    "missing-record_every": _pop("record_every"),
    "missing-graphs": _pop("graphs"),
    "extra-key": _set("kind", "per-scenario"),
    "graphs-not-a-list": _set("graphs", {"kind": "shared"}),
    "empty-per-scenario-round": _round(lambda batch, n: (0, n, n)),
    "rank-1": _round(lambda batch, n: (n,)),
    "rank-4": _round(lambda batch, n: (1, batch, n, n)),
    "not-square": _round(lambda batch, n: (n, n + 1)),
    "wrong-n": _round(lambda batch, n: (n + 1, n + 1)),
    "wrong-B": _round(lambda batch, n: (batch + 1, n, n)),
    "not-bool": _round(lambda batch, n: (n, n), dtype=np.uint8),
    "round-without-data": _drop_round_data,
    "v1": _set("version", 1),
}


@pytest.mark.parametrize("record", ["ScenarioSpec", "campaign-case"])
@pytest.mark.parametrize("defect", sorted(MALFORMED))
def test_malformed_payload_fails_fast(record, defect):
    payload, batch, n = _scenario_payload() if record == "ScenarioSpec" else _case_payload()
    payload = copy.deepcopy(payload)
    MALFORMED[defect](payload, batch, n)
    match = record if defect == "v1" else None
    if record == "campaign-case":
        with pytest.raises(CampaignError, match=match) as info:
            CaseSpec.from_dict(payload)
        assert RetryPolicy().should_retry(info.value, 1) is False
        return
    with pytest.raises(SerializationError, match=match):
        ScenarioSpec.from_dict(payload)
    body = {
        "kind": "study_shard",
        "algorithm": encode_algorithm(MidpointAlgorithm()),
        "scenario": payload,
        "model": None,
        "certify": None,
        "faults": None,
        "config": EngineConfig().to_dict(),
    }
    status, descriptor = _run_job("study_shard", body, 60.0, lambda: True)
    assert status == "error"
    error = error_from_descriptor(descriptor)
    assert isinstance(error, SerializationError), descriptor["message"]
    assert RetryPolicy().should_retry(error, 1) is False
