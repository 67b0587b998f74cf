"""The benchmark's workloads: what one operation builds, runs and checks.

Every operation is one study a user of the library runs end to end, built
from a seeded generator so the same ``--seed`` gives the same inputs:

``rooted_ensemble``
    Builds a ``(B, n, 1)`` ensemble whose every scenario sees fresh random
    rooted graphs each round, then runs the amortized midpoint algorithm on
    it through :class:`repro.api.Study` and certifies every scenario against
    the paper's rooted model ``Psi(n)``.  Scenario build dominates here.
``table1_certify``
    Certifies the Table 1 rows of Theorems 1-3 (two-agent thirds, midpoint
    on ``deaf(K_n)``, amortized midpoint on ``Psi(n)``) on perturbed
    ensembles against each row's proof adversary.  Adversarial rounds and
    valency certification dominate here.
``sharded_service``
    The ``rooted_ensemble`` study, run as journaled shard jobs on two worker
    processes through :func:`repro.service.run_study_service`.  Process
    dispatch, the wire codec, the journal and the merge dominate here.

Checks (outside the timed operation) hold each result to the paper:
outputs stay in the hull of the inputs, the amortized midpoint halves the
diameter every ``n - 1`` rounds on rooted graphs, certified valency
diameters never exceed output diameters, no realized rate beats its
Table 1 lower bound, and the batched, single-scenario and sharded routes
agree bit for bit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    MidpointAlgorithm,
    TwoAgentThirdsAlgorithm,
)
from repro.analysis.experiments import certification_sweep_rows, run_certification_row
from repro.api import CertifySpec, Study
from repro.core.lower_bounds import (
    amortized_midpoint_upper_bound,
    deaf_graphs_lower_bound,
    psi_lower_bound,
    two_agent_lower_bound,
)
from repro.core.valency import ValencyEstimator
from repro.execution import run_execution
from repro.graphs.generators import random_rooted_graph
from repro.models.patterns import SequencePattern
from repro.models.standard import psi_model
from repro.service import run_study_service

# Rooted-graph ensemble shape, shared by rooted_ensemble and sharded_service.
SCENARIOS = 24
AGENTS = 12
ROUNDS = 24
RECORD_EVERY = 4
SUFFIX_ROUNDS = 16
# Sparse extra edges keep the planted arborescence the main carrier, so the
# diameter contracts over several phases instead of collapsing in one.
EDGE_PROBABILITY = 0.1
SERVICE_WORKERS = 2

# Table 1 rows certified per operation.
TABLE1_SIZES = (4,)
TABLE1_ROUNDS = 24
TABLE1_SUFFIX_ROUNDS = 40
TABLE1_ENSEMBLE = 4

# Float slack for rates fitted on float64 diameters.
RATE_SLACK = 1e-6
DIAMETER_SLACK = 1e-12

WORK_DIR = Path(__file__).resolve().parent / ".work"


class CheckFailed(Exception):
    """An operation's result contradicts the paper or the reference route."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def layer_targets():
    """``(owner, attribute, span)`` entry points wrapped in traced runs."""
    return [
        (Study, "run", "study"),
        (ValencyEstimator, "certify_ensemble", "certify"),
        (AmortizedMidpointAlgorithm, "batch_transition", "transition"),
        (MidpointAlgorithm, "batch_transition", "transition"),
        (TwoAgentThirdsAlgorithm, "batch_transition", "transition"),
    ]


# --------------------------------------------------------------------- #
# Rooted-graph ensembles
# --------------------------------------------------------------------- #


def _build_rooted(rng):
    values = rng.uniform(-1.0, 1.0, size=(SCENARIOS, AGENTS, 1))
    graphs = [
        [random_rooted_graph(AGENTS, rng, EDGE_PROBABILITY) for _ in range(SCENARIOS)]
        for _ in range(ROUNDS)
    ]
    return values, graphs


def _rooted_study_fields(model, values, graphs) -> dict:
    return dict(
        initial_values=values,
        graphs=graphs,
        record_every=RECORD_EVERY,
        model=model,
        certify=CertifySpec(suffix_rounds=SUFFIX_ROUNDS),
    )


def _rooted_fingerprint(result):
    return (
        np.asarray(result.execution.recorded_outputs).tobytes(),
        [certificate.valency_trace for certificate in result.certificates],
    )


def _check_rooted_semantics(values, result) -> None:
    execution = result.execution
    rounds = np.asarray(execution.recorded_rounds)
    require(rounds[-1] == ROUNDS, f"last recorded round {rounds[-1]}, expected {ROUNDS}")
    outputs = np.asarray(execution.recorded_outputs)
    require(np.isfinite(outputs).all(), "non-finite outputs")
    low = values.min(axis=1)[None, :, None, :]
    high = values.max(axis=1)[None, :, None, :]
    require(
        ((outputs >= low) & (outputs <= high)).all(),
        "validity: an output left the hull of its scenario's inputs",
    )
    # n - 1 rooted rounds compose to a non-split graph, so every completed
    # phase of the amortized midpoint at least halves the diameter.
    diameters = result.diameters()
    phases = rounds // (AGENTS - 1)
    bound = diameters[0][None, :] * 0.5 ** phases[:, None]
    require(
        (diameters <= bound + DIAMETER_SLACK).all(),
        "amortized midpoint missed its per-phase halving on rooted graphs",
    )
    certificates = result.certificates
    require(len(certificates) == SCENARIOS, f"{len(certificates)} certificates")
    traces = np.array([certificate.valency_trace for certificate in certificates]).T
    require(traces.shape == diameters.shape, f"valency trace shape {traces.shape}")
    require(
        (traces <= diameters + DIAMETER_SLACK).all(),
        "a certified valency diameter exceeds its output diameter",
    )


def _check_rooted(model, values, graphs, result, scenario: int) -> None:
    _check_rooted_semantics(values, result)
    # One scenario, replayed alone on the per-agent reference engine and
    # certified alone, must match the ensemble bit for bit.
    own_graphs = [graphs[t][scenario] for t in range(ROUNDS)]
    single = run_execution(
        AmortizedMidpointAlgorithm(),
        values[scenario],
        SequencePattern(own_graphs),
        ROUNDS,
        record_every=RECORD_EVERY,
        use_fast_path=False,
    )
    require(
        np.array_equal(single.configurations[-1].outputs, result.final_outputs[scenario]),
        f"scenario {scenario}: ensemble and per-agent reference outputs differ",
    )
    alone = Study(
        algorithm=AmortizedMidpointAlgorithm(),
        **_rooted_study_fields(model, values[scenario], own_graphs),
    ).run()
    require(
        alone.certificates.valency_trace == result.certificates[scenario].valency_trace,
        f"scenario {scenario}: ensemble and single-scenario certificates differ",
    )


class RootedEnsemble:
    name = "rooted_ensemble"
    pool = 16
    fingerprint = staticmethod(_rooted_fingerprint)

    def __init__(self) -> None:
        self.model = psi_model(AGENTS)
        self.algorithm = AmortizedMidpointAlgorithm()

    def build(self, rng):
        return _build_rooted(rng)

    def run(self, inputs):
        values, graphs = inputs
        return Study(
            algorithm=self.algorithm, **_rooted_study_fields(self.model, values, graphs)
        ).run()

    def scenarios(self, inputs) -> int:
        return SCENARIOS

    def check(self, inputs, result, tracer, index: int) -> None:
        _check_rooted(self.model, *inputs, result, index % SCENARIOS)


class ShardedService:
    name = "sharded_service"
    pool = 8
    fingerprint = staticmethod(_rooted_fingerprint)

    def __init__(self) -> None:
        self.model = psi_model(AGENTS)
        WORK_DIR.mkdir(exist_ok=True)
        self.journal = WORK_DIR / f"journal-{os.getpid()}.jsonl"

    def build(self, rng):
        return _build_rooted(rng)

    def run(self, inputs):
        values, graphs = inputs
        self.journal.unlink(missing_ok=True)
        try:
            return run_study_service(
                AmortizedMidpointAlgorithm(),
                **_rooted_study_fields(self.model, values, graphs),
                workers=SERVICE_WORKERS,
                journal=self.journal,
            )
        finally:
            self.journal.unlink(missing_ok=True)

    def scenarios(self, inputs) -> int:
        return SCENARIOS

    def check(self, inputs, result, tracer, index: int) -> None:
        values, graphs = inputs
        _check_rooted(self.model, values, graphs, result, index % SCENARIOS)
        # The sharded study's layers run in worker processes; a traced run
        # attributes them through this in-process reference run instead.
        with tracer.recording():
            reference = Study(
                algorithm=AmortizedMidpointAlgorithm(),
                **_rooted_study_fields(self.model, values, graphs),
            ).run()
        require(
            _rooted_fingerprint(result) == _rooted_fingerprint(reference),
            "sharded and in-process results differ",
        )


# --------------------------------------------------------------------- #
# Table 1 certification
# --------------------------------------------------------------------- #


def _paper_bound(descriptor) -> float:
    theorem = descriptor["theorem"]
    if theorem == "thm1":
        return two_agent_lower_bound()
    if theorem == "thm2":
        return deaf_graphs_lower_bound()
    return psi_lower_bound(descriptor["n"])


class Table1Certify:
    name = "table1_certify"
    pool = 16

    @staticmethod
    def fingerprint(rows):
        return json.dumps(rows, sort_keys=True)

    def build(self, rng):
        return certification_sweep_rows(
            sizes=TABLE1_SIZES,
            rounds=TABLE1_ROUNDS,
            suffix_rounds=TABLE1_SUFFIX_ROUNDS,
            ensemble_size=TABLE1_ENSEMBLE,
            seed=int(rng.integers(2**31)),
        )

    def run(self, descriptors):
        return [run_certification_row(descriptor) for descriptor in descriptors]

    def scenarios(self, descriptors) -> int:
        return TABLE1_ENSEMBLE * len(descriptors)

    def check(self, descriptors, rows, tracer, index: int) -> None:
        require(len(rows) == len(descriptors), f"{len(rows)} rows")
        for descriptor, row in zip(descriptors, rows):
            label = f"{descriptor['theorem']} n={descriptor['n']}"
            bound = _paper_bound(descriptor)
            require(row["paper"] == bound, f"{label}: paper bound {row['paper']}")
            require(row["ensemble_B"] == TABLE1_ENSEMBLE, f"{label}: ensemble size")
            require(row["certified"] is True, f"{label}: not certified")
            require(
                row["measured"] >= bound - RATE_SLACK,
                f"{label}: realized rate {row['measured']} beats the lower bound {bound}",
            )
            if descriptor["theorem"] == "thm3":
                require(
                    row["measured"]
                    <= amortized_midpoint_upper_bound(descriptor["n"]) + RATE_SLACK,
                    f"{label}: amortized midpoint missed its upper bound",
                )


WORKLOADS = {
    workload.name: workload
    for workload in (RootedEnsemble, Table1Certify, ShardedService)
}
