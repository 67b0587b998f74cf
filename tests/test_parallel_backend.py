"""Cross-backend differential matrix for the parallel (B-axis sharded) engine.

``EngineConfig(threads=k)`` promises that sharding the scenario axis across a
worker pool is *invisible in the results*: for every route — graph-sequence
ensembles, pattern ensembles, adversarial ensembles, faulted ensembles and
``ValencyEstimator.certify_ensemble`` — the merged record is **bit-for-bit
identical** to the serial run.  This suite pins that promise with a
differential matrix over ``threads ∈ {1, 2, 7}``:

* odd ``B`` that none of the worker counts divides evenly,
* ``B`` smaller than the worker count (shards clamp, never go empty),
* stateless (midpoint) and stateful (amortized-midpoint) algorithms,
* the batched and reference (``use_batch=False``) engine paths,
* counter-based fault draws sliced through ``FaultPlan.scenario_base``,
* per-shard deep-copied adversaries with merged ``round_choices``, and
* the thread count arriving via keyword, config scope, and ``REPRO_THREADS``.

Plus unit coverage of :func:`repro.execution.parallel.shard_bounds` and of
:func:`repro.execution.batch.merge_ensemble_executions` on adversarial
shard lists.
"""

import numpy as np
import pytest

from repro.algorithms import AmortizedMidpointAlgorithm, MidpointAlgorithm
from repro.config import EngineConfig
from repro.core.adversary import GreedyDiameterAdversary, PsiBlockAdversary
from repro.core.valency import ValencyEstimator
from repro.exceptions import ExecutionError
from repro.execution import (
    run_adversarial_ensemble,
    run_ensemble,
    run_pattern_ensemble,
)
from repro.execution.batch import merge_ensemble_executions
from repro.execution.parallel import shard_bounds
from repro.execution.state import _states_equal
from repro.faults import FaultSpec
from repro.graphs.generators import random_graph
from repro.models.patterns import PeriodicPattern, SequencePattern
from repro.models.standard import deaf_model, psi_model
from tests.valency_records import record_bytes, stacked

#: 1 is the serial baseline; 2 and 7 both leave remainders on B=13 and 7
#: exceeds the small-B cases, exercising shard clamping.
THREAD_COUNTS = (1, 2, 7)

ALGORITHMS = {
    "midpoint": MidpointAlgorithm,
    "amortized": AmortizedMidpointAlgorithm,
}


def _values(batch_size, n, d=1, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(batch_size, n, d))


def _graph_rounds(n, batch_size, rounds, seed=0):
    """A schedule mixing shared rounds and per-scenario graph lists."""
    rng = np.random.default_rng(seed)
    schedule = []
    for round_index in range(rounds):
        if round_index % 2 == 0:
            schedule.append(random_graph(n, rng, 0.6))
        else:
            schedule.append([random_graph(n, rng, 0.6) for _ in range(batch_size)])
    return schedule


def _ensemble_fingerprint(ensemble):
    """Everything observable about an ensemble record, byte-exact."""
    return (
        ensemble.recorded_rounds,
        ensemble.batch_size,
        ensemble.recorded_outputs.tobytes(),
        ensemble.recorded_outputs.shape,
        np.asarray(ensemble.diameters()).tobytes(),
    )


def _assert_matches_serial(run, threads_values=THREAD_COUNTS):
    """Run ``run(threads)`` for every count and demand byte-identity with serial."""
    baseline = run(1)
    want = _ensemble_fingerprint(baseline)
    for threads in threads_values:
        for route, sharded in (
            ("keyword", run(threads)),
            ("config", _run_under_config(run, threads)),
        ):
            got = _ensemble_fingerprint(sharded)
            assert got == want, (
                f"threads={threads} via {route} diverged from the serial run"
            )
    return baseline


def _run_under_config(run, threads):
    with EngineConfig(threads=threads):
        return run(None)


class TestGraphsRoute:
    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("use_batch", [None, False])
    def test_odd_batch_matches_serial(self, algorithm_name, use_batch):
        n, batch_size, rounds = 5, 13, 6
        values = _values(batch_size, n, d=2, seed=3)
        graphs = _graph_rounds(n, batch_size, rounds, seed=4)
        algorithm = ALGORITHMS[algorithm_name]()

        def run(threads):
            return run_ensemble(
                algorithm, values, graphs,
                record_every=2, use_batch=use_batch,
                record_states=True, threads=threads,
            )

        baseline = _assert_matches_serial(run)
        # Per-scenario states survive the shard merge too.
        sharded = run(7)
        for scenario in (0, 6, 12):
            solo = sharded.scenario_configurations(scenario)
            for config_sharded, config_serial in zip(
                solo, baseline.scenario_configurations(scenario)
            ):
                assert config_sharded.round_number == config_serial.round_number
                assert np.array_equal(config_sharded.outputs, config_serial.outputs)
                assert _states_equal(config_sharded.states, config_serial.states)

    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    def test_batch_smaller_than_thread_count(self, algorithm_name):
        n, batch_size, rounds = 4, 3, 5
        values = _values(batch_size, n, seed=11)
        graphs = _graph_rounds(n, batch_size, rounds, seed=12)
        algorithm = ALGORITHMS[algorithm_name]()

        def run(threads):
            return run_ensemble(
                algorithm, values, graphs, record_every=1, threads=threads,
            )

        _assert_matches_serial(run)

    def test_single_scenario_stays_on_serial_path(self):
        n = 4
        values = _values(1, n, seed=21)
        graphs = _graph_rounds(n, 1, 4, seed=22)

        def run(threads):
            return run_ensemble(MidpointAlgorithm(), values, graphs, threads=threads)

        _assert_matches_serial(run)

    def test_scenario_labels_survive_the_merge(self):
        n, batch_size = 4, 13
        labels = [f"scenario-{i}" for i in range(batch_size)]
        values = _values(batch_size, n, seed=31)
        graphs = _graph_rounds(n, batch_size, 4, seed=32)
        serial = run_ensemble(
            MidpointAlgorithm(), values, graphs, scenario_labels=labels, threads=1
        )
        sharded = run_ensemble(
            MidpointAlgorithm(), values, graphs, scenario_labels=labels, threads=7
        )
        assert list(sharded.scenario_labels) == list(serial.scenario_labels) == labels


class TestFaultedRoute:
    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("use_batch", [None, False])
    def test_fault_draws_slice_exactly(self, algorithm_name, use_batch):
        # Counter-based draws: shard b sees the same per-scenario randomness
        # the unsharded plan would give scenario b (FaultPlan.scenario_base).
        n, batch_size, rounds = 5, 13, 6
        values = _values(batch_size, n, seed=41)
        graphs = _graph_rounds(n, batch_size, rounds, seed=42)
        plan = FaultSpec(drop=0.3, seed=7, enforce_model=False)
        algorithm = ALGORITHMS[algorithm_name]()

        def run(threads):
            return run_ensemble(
                algorithm, values, graphs,
                record_every=2, use_batch=use_batch,
                fault_plan=plan, threads=threads,
            )

        _assert_matches_serial(run)


class TestPatternRoute:
    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    def test_shared_pattern_matches_serial(self, algorithm_name):
        n, batch_size, rounds = 5, 13, 7
        values = _values(batch_size, n, seed=51)
        rng = np.random.default_rng(52)
        pattern = PeriodicPattern([random_graph(n, rng, 0.6) for _ in range(3)])
        algorithm = ALGORITHMS[algorithm_name]()

        def run(threads):
            return run_pattern_ensemble(
                algorithm, values, pattern, rounds, record_every=2, threads=threads,
            )

        _assert_matches_serial(run)

    def test_per_scenario_patterns_match_serial(self):
        # Patterns are materialized on the caller thread before sharding, so
        # per-scenario (stateful) patterns cannot race across workers.
        n, batch_size, rounds = 4, 7, 5
        values = _values(batch_size, n, seed=61)
        rng = np.random.default_rng(62)
        patterns = [
            SequencePattern([random_graph(n, rng, 0.7) for _ in range(rounds)])
            for _ in range(batch_size)
        ]

        def run(threads):
            return run_pattern_ensemble(
                MidpointAlgorithm(), values, patterns, rounds, threads=threads,
            )

        _assert_matches_serial(run)


class TestAdversarialRoute:
    @pytest.mark.parametrize(
        "algorithm, adversary_factory, n",
        [
            (MidpointAlgorithm(), lambda: GreedyDiameterAdversary(deaf_model(n=4)), 4),
            (AmortizedMidpointAlgorithm(), lambda: PsiBlockAdversary(5), 5),
        ],
        ids=["greedy-midpoint", "psi-amortized"],
    )
    @pytest.mark.parametrize("use_batch", [None, False])
    def test_outputs_and_choices_match_serial(
        self, algorithm, adversary_factory, n, use_batch
    ):
        batch_size, rounds = 11, 6
        values = _values(batch_size, n, seed=71)

        def run(threads):
            # A fresh adversary per run: adversaries are stateful.
            return run_adversarial_ensemble(
                algorithm, values, adversary_factory(), rounds,
                record_every=2, use_batch=use_batch, record_states=True,
                threads=threads,
            )

        baseline = run(1)
        assert baseline.batched is (use_batch is None)
        for threads in THREAD_COUNTS:
            sharded = run(threads)
            assert _ensemble_fingerprint(sharded) == _ensemble_fingerprint(baseline)
            assert sharded.batched == baseline.batched
            # Every scenario's recorded states survive the shard merge.
            for scenario in range(batch_size):
                for config_sharded, config_serial in zip(
                    sharded.scenario_configurations(scenario),
                    baseline.scenario_configurations(scenario),
                    strict=True,
                ):
                    assert config_sharded.round_number == config_serial.round_number
                    assert np.array_equal(config_sharded.outputs, config_serial.outputs)
                    assert _states_equal(config_sharded.states, config_serial.states)
            # The committed graph choices merge back in scenario order.
            assert len(sharded.round_choices) == len(baseline.round_choices)
            for round_serial, round_sharded in zip(
                baseline.round_choices, sharded.round_choices
            ):
                assert len(round_sharded) == len(round_serial) == batch_size
                for choice_serial, choice_sharded in zip(round_serial, round_sharded):
                    assert np.array_equal(
                        choice_sharded.adjacency, choice_serial.adjacency
                    )

    def test_config_scope_applies_to_adversarial_route(self):
        n, batch_size, rounds = 4, 5, 4
        values = _values(batch_size, n, seed=81)
        serial = run_adversarial_ensemble(
            MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=n)),
            rounds, threads=1,
        )
        with EngineConfig(threads=7):
            sharded = run_adversarial_ensemble(
                MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=n)),
                rounds,
            )
        assert _ensemble_fingerprint(sharded) == _ensemble_fingerprint(serial)


class TestCertifyRoute:
    @pytest.mark.parametrize(
        "algorithm, model_factory, n",
        [
            (MidpointAlgorithm(), lambda n: deaf_model(n=n), 4),
            (AmortizedMidpointAlgorithm(), psi_model, 5),
        ],
        ids=["midpoint-deaf", "amortized-psi"],
    )
    def test_certificates_match_serial(self, algorithm, model_factory, n):
        batch_size, rounds = 13, 4
        values = _values(batch_size, n, seed=91)
        graphs = _graph_rounds(n, batch_size, rounds, seed=92)
        ensemble = run_ensemble(
            algorithm, values, graphs, record_every=2, record_states=True
        )
        model = model_factory(n)

        def certify(threads):
            estimator = ValencyEstimator(
                algorithm, model, suffix_rounds=12, threads=threads
            )
            return estimator.certify_ensemble(ensemble)

        baseline = certify(1)
        assert baseline.lower_diameter.shape == (len(ensemble.recorded_rounds), batch_size)
        # The serial record equals the per-scenario trace reference.
        reference = ValencyEstimator(algorithm, model, suffix_rounds=12, threads=1)
        assert record_bytes(baseline) == record_bytes(
            stacked(
                reference.trace(ensemble.scenario_configurations(scenario))
                for scenario in range(batch_size)
            )
        )
        for threads in THREAD_COUNTS:
            for record in (certify(threads), _certify_under_config(
                algorithm, model, ensemble, threads
            )):
                assert record_bytes(record) == record_bytes(baseline)


def _certify_under_config(algorithm, model, ensemble, threads):
    with EngineConfig(threads=threads):
        estimator = ValencyEstimator(algorithm, model, suffix_rounds=12)
        return estimator.certify_ensemble(ensemble)


class TestEnvironmentDefault:
    def test_repro_threads_env_matches_serial(self, monkeypatch):
        n, batch_size = 4, 13
        values = _values(batch_size, n, seed=101)
        graphs = _graph_rounds(n, batch_size, 5, seed=102)
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        serial = run_ensemble(MidpointAlgorithm(), values, graphs)
        monkeypatch.setenv("REPRO_THREADS", "4")
        sharded = run_ensemble(MidpointAlgorithm(), values, graphs)
        assert _ensemble_fingerprint(sharded) == _ensemble_fingerprint(serial)

    def test_bad_repro_threads_raises(self, monkeypatch):
        from repro.config import resolve_threads
        from repro.exceptions import ConfigError

        for bad in ("zero", "0", "-2"):
            monkeypatch.setenv("REPRO_THREADS", bad)
            with pytest.raises(ConfigError):
                resolve_threads(None)


class TestAdversarialMerge:
    def test_adversarial_shards_merge_to_the_full_run(self):
        n, batch_size, rounds = 4, 7, 5
        values = _values(batch_size, n, seed=111)
        full = run_adversarial_ensemble(
            MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=n)),
            rounds, threads=1,
        )
        shards = [
            run_adversarial_ensemble(
                MidpointAlgorithm(), values[start:stop],
                GreedyDiameterAdversary(deaf_model(n=n)), rounds, threads=1,
            )
            for start, stop in shard_bounds(batch_size, 3)
        ]
        merged = merge_ensemble_executions(shards)
        assert _ensemble_fingerprint(merged) == _ensemble_fingerprint(full)
        for round_full, round_merged in zip(full.round_choices, merged.round_choices):
            assert len(round_merged) == len(round_full) == batch_size
            for choice_full, choice_merged in zip(round_full, round_merged):
                assert np.array_equal(choice_merged.adjacency, choice_full.adjacency)

    def test_mixed_adversarial_and_plain_shards_are_rejected(self):
        n = 4
        values = _values(4, n, seed=121)
        graphs = _graph_rounds(n, 4, 3, seed=122)
        plain = run_ensemble(MidpointAlgorithm(), values, graphs, threads=1)
        adversarial = run_adversarial_ensemble(
            MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=n)),
            3, threads=1,
        )
        with pytest.raises(ExecutionError, match="different routes"):
            merge_ensemble_executions([plain, adversarial])


class TestShardBounds:
    def test_balanced_partition_covers_the_range(self):
        for total in range(0, 40):
            for parts in range(1, 12):
                bounds = shard_bounds(total, parts)
                assert len(bounds) == min(parts, total)
                # Contiguous cover, longer shards first, sizes differ by <= 1.
                cursor = 0
                sizes = []
                for start, stop in bounds:
                    assert start == cursor
                    assert stop > start
                    sizes.append(stop - start)
                    cursor = stop
                assert cursor == total
                if sizes:
                    assert max(sizes) - min(sizes) <= 1
                    assert sizes == sorted(sizes, reverse=True)

    def test_known_splits(self):
        assert shard_bounds(7, 3) == [(0, 3), (3, 5), (5, 7)]
        assert shard_bounds(2, 7) == [(0, 1), (1, 2)]
        assert shard_bounds(0, 4) == []
        assert shard_bounds(12, 4) == [(0, 3), (3, 6), (6, 9), (9, 12)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)
        with pytest.raises(ValueError):
            shard_bounds(5, 0)
