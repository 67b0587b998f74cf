"""Stacked valency passes across recorded rounds.

Round-invariant algorithms — the stateful amortized midpoint included —
certify the futures of configurations recorded at *different* rounds in one
constant-suffix pass, in ``scenario_chunk``-bounded groups.  These tests pin
the three properties that make this safe and fast:

* the stacked passes equal the per-future reference path bit for bit;
* no pass stacks more than ``scenario_chunk`` scenarios, for ``trace`` as
  for ``certify_ensemble``;
* the number of batched transitions scales with the number of groups, not
  with the number of recorded rounds.
"""

from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms import AmortizedMidpointAlgorithm, MidpointAlgorithm
from repro.api import CertifySpec, Study
from repro.core.adversary import PsiBlockAdversary
from repro.core.valency import ValencyEstimator
from repro.execution import run_execution, run_pattern_ensemble
from repro.graphs.families import complete_graph, cycle_graph, directed_star_graph
from repro.models.patterns import PeriodicPattern, SequencePattern
from repro.models.standard import deaf_model, psi_model


def _spy_transitions(monkeypatch, algorithm):
    """Record the leading scenario shape of every ``batch_transition`` call."""
    shapes = []
    cls = type(algorithm)
    original = cls.batch_transition

    def spy(self, batch_state, adjacency, round_number):
        shapes.append(np.shape(self.batch_outputs(batch_state))[:-2])
        return original(self, batch_state, adjacency, round_number)

    monkeypatch.setattr(cls, "batch_transition", spy)
    return shapes


def _assert_same_estimates(batched, reference):
    assert len(batched) == len(reference)
    for estimate_b, estimate_r in zip(batched, reference):
        assert np.array_equal(estimate_b.limits, estimate_r.limits)
        assert estimate_b.lower_diameter == estimate_r.lower_diameter
        assert estimate_b.upper_diameter == estimate_r.upper_diameter


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**16),
    n=st.sampled_from([4, 5]),
    shortened_phase=st.booleans(),
    record_every=st.sampled_from([1, 3, 5]),
    rounds=st.integers(3, 9),
    batch_size=st.integers(1, 3),
    depth=st.sampled_from([0, 1]),
    threads=st.sampled_from([1, 2]),
    scenario_chunk=st.sampled_from([4, 4096]),
)
def test_amortized_midpoint_stacked_certification_matches_reference(
    seed, n, shortened_phase, record_every, rounds, batch_size, depth, threads, scenario_chunk
):
    # Default phase n - 1 or the Theorem 3 probe n - 2, sampled at a record
    # stride coprime to it, so recorded configurations sit at mixed phase
    # positions and their stacked futures reset on different rounds.
    phase_length = n - 2 if shortened_phase else n - 1
    assume(gcd(record_every, phase_length) == 1)
    algorithm = AmortizedMidpointAlgorithm(phase_length if shortened_phase else None)
    model = psi_model(n)
    rng = np.random.default_rng(seed)
    graphs = list(model)
    patterns = [
        SequencePattern([graphs[int(rng.integers(len(graphs)))] for _ in range(rounds)])
        for _ in range(batch_size)
    ]
    values = rng.uniform(-1.0, 1.0, size=(batch_size, n, 1))
    ensemble = run_pattern_ensemble(
        algorithm, values, patterns, rounds, record_every=record_every, record_states=True
    )
    settings_ = dict(suffix_rounds=8, exploration_depth=depth, threads=threads)
    batched = ValencyEstimator(
        algorithm, model, use_batch=True, scenario_chunk=scenario_chunk, **settings_
    )
    reference = ValencyEstimator(algorithm, model, use_batch=False, **settings_)

    per_batched = batched.certify_ensemble(ensemble)
    per_reference = reference.certify_ensemble(ensemble)
    for scenario in range(batch_size):
        _assert_same_estimates(per_batched[scenario], per_reference[scenario])
    configurations = ensemble.scenario_configurations(0)
    _assert_same_estimates(batched.trace(configurations), reference.trace(configurations))


@pytest.mark.parametrize(
    "algorithm", [MidpointAlgorithm(), AmortizedMidpointAlgorithm()], ids=lambda a: a.name
)
def test_trace_passes_respect_scenario_chunk(monkeypatch, algorithm):
    n, scenario_chunk = 4, 4
    model = deaf_model(n=n)
    pattern = PeriodicPattern([cycle_graph(n), directed_star_graph(n), complete_graph(n)])
    execution = run_execution(algorithm, np.linspace(0.0, 1.0, n), pattern, 30)
    configurations = execution.configurations
    assert len(configurations) == 31
    estimator = ValencyEstimator(
        algorithm, model, suffix_rounds=5, scenario_chunk=scenario_chunk
    )
    shapes = _spy_transitions(monkeypatch, algorithm)
    estimates = estimator.trace(configurations)
    assert len(estimates) == 31
    assert shapes
    assert all(len(shape) == 1 and shape[0] <= scenario_chunk for shape in shapes), shapes


@pytest.mark.parametrize("scenario_chunk", [4096, 30])
def test_thm3_certification_transitions_scale_with_groups(monkeypatch, scenario_chunk):
    # The Theorem 3 row's shape: B = 4 amortized-midpoint scenarios on
    # Psi(4) against the Psi block adversary (so no scenario reaches an
    # exact fixpoint and retires early), 25 recorded rounds, 40-round
    # constant suffixes.
    algorithm = AmortizedMidpointAlgorithm()
    n, batch_size, rounds, suffix_rounds = 4, 4, 24, 40
    model = psi_model(n)
    values = np.random.default_rng(0).uniform(0.0, 1.0, size=(batch_size, n, 1))
    ensemble = Study(
        algorithm=algorithm,
        initial_values=values,
        adversary=PsiBlockAdversary(n),
        rounds=rounds,
        model=model,
        certify=CertifySpec(suffix_rounds=suffix_rounds),
    ).run().execution
    assert (ensemble.diameters()[-1] > 0).all()
    recorded_rounds = len(ensemble.recorded_rounds)
    assert recorded_rounds == rounds + 1
    # One thread: scenario-axis sharding multiplies the passes by the shards.
    estimator = ValencyEstimator(
        algorithm, model, suffix_rounds=suffix_rounds, scenario_chunk=scenario_chunk,
        threads=1,
    )
    config_group = max(1, scenario_chunk // len(model))
    groups = -(-(recorded_rounds * batch_size) // config_group)
    assert groups < recorded_rounds
    shapes = _spy_transitions(monkeypatch, algorithm)
    estimator.certify_ensemble(ensemble)
    assert 0 < len(shapes) <= suffix_rounds * groups
