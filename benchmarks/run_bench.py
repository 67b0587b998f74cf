"""Benchmark harness: per-agent path vs vectorized fast path vs batched ensembles.

Times the synchronous engine's two execution paths on an ``(n, rounds)``
grid, the batched ensemble runner against an equivalent loop of single
executions on a ``(B, n, rounds)`` grid, whole adversarial runs on the
batched route against the per-candidate reference loop, the batched
adversarial ensemble runner, the certification engine (batched valency
estimation, contraction traces and packed α-class computation against their
per-sequence / per-pair reference loops, plus a tracemalloc assertion that
the streamed prefix enumeration stays below the materialized pass), the time
and peak memory (tracemalloc) of the dense, sender-fold, sort-select and
gather masked reductions and the planned gather against the unplanned
dispatch at the valency suffixes' shapes, and the per-call cost of building
random graph schedules (generator, constructor, round stacking), then writes
the results to ``BENCH_engine.json`` so the performance trajectory is
tracked across changes.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/run_bench.py            # full grid
    PYTHONPATH=src python benchmarks/run_bench.py --smoke    # tiny CI grid
    PYTHONPATH=src python benchmarks/run_bench.py --out path/to.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms import MeanAlgorithm, MidpointAlgorithm
from repro.algorithms.base import (
    GatherPlan,
    _masked_extremes_dense,
    _masked_extremes_fold,
    _masked_extremes_gather,
    _masked_extremes_sorted,
    _reduction_operands,
    masked_extreme_pair,
    masked_max,
    masked_min,
)
from repro.api import Study
from repro.core.adversary import GreedyDiameterAdversary
from repro.core.contraction import valency_contraction_trace
from repro.core.valency import ValencyEstimator
from repro.execution import (
    run_adversarial_ensemble,
    run_execution,
    run_pattern_ensemble,
)
from repro.faults import CrashSpec, FaultPlan
from repro.execution.engine import initial_configuration
from repro.execution.schedule import round_adjacency
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.families import (
    complete_graph,
    cycle_graph,
    deaf_variant,
    directed_star_graph,
    psi_family,
)
from repro.graphs.generators import random_rooted_graph
from repro.graphs.relations import alpha_classes, alpha_diameter, beta_classes
from repro.models.network_model import NetworkModel
from repro.models.patterns import PeriodicPattern
from repro.models.standard import crash_model, deaf_model, psi_model


def _best_of(callable_, repeats: int) -> float:
    """Wall-clock seconds of the fastest of ``repeats`` invocations."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _best_of_pair(callable_a, callable_b, repeats: int):
    """Interleaved best-of timings of two callables.

    Alternating a/b within each repeat exposes both measurements to the same
    machine conditions, so slow drift (CPU frequency, background load)
    cancels out of the ratio — essential for tight ratio gates, where
    sequential windows can drift apart by more than the gate.
    """
    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        callable_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def _median_pair(callable_a, callable_b, repeats: int):
    """The two timings of the repeat whose b/a ratio is the median.

    Each repeat times ``a`` and ``b`` back to back, alternating which runs
    first, so both see the same machine conditions and a load burst scales
    both.  The ratio of one such pair cancels the burst; the median over
    the repeats discards the pairs a burst split.  On a shared 2-vCPU
    machine the best-of-9 facade/direct ratio of a ~4 ms call ranged
    0.94-1.09 over ten runs; the median of 21 or more pairs ranged
    0.99-1.05.
    """
    pairs = []
    for index in range(repeats):
        timings = {}
        order = (("a", callable_a), ("b", callable_b))
        for name, callable_ in order if index % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            callable_()
            timings[name] = time.perf_counter() - start
        pairs.append((timings["a"], timings["b"]))
    pairs.sort(key=lambda pair: pair[1] / pair[0])
    return pairs[len(pairs) // 2]


def _peak_bytes(callable_) -> int:
    """tracemalloc peak allocation of one invocation, in bytes."""
    tracemalloc.start()
    try:
        callable_()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def _pattern(n: int) -> PeriodicPattern:
    return PeriodicPattern([complete_graph(n), cycle_graph(n), directed_star_graph(n)])


def _initial_values(n: int, d: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, d))


def bench_engine(grid, d: int, repeats: int) -> list:
    """Old (per-agent) vs new (vectorized) ``run_execution`` timings."""
    results = []
    for algorithm_factory in (MidpointAlgorithm, MeanAlgorithm):
        for n, rounds in grid:
            algorithm = algorithm_factory()
            values = _initial_values(n, d)
            pattern = _pattern(n)
            old_s = _best_of(
                lambda: run_execution(algorithm, values, pattern, rounds, use_fast_path=False),
                repeats,
            )
            new_s = _best_of(
                lambda: run_execution(algorithm, values, pattern, rounds, use_fast_path=True),
                repeats,
            )
            entry = {
                "benchmark": "run_execution",
                "algorithm": algorithm.name,
                "n": n,
                "rounds": rounds,
                "d": d,
                "old_s": old_s,
                "new_s": new_s,
                "speedup": old_s / new_s if new_s > 0 else float("inf"),
            }
            results.append(entry)
            print(
                f"run_execution {algorithm.name:10s} n={n:4d} rounds={rounds:4d} d={d} "
                f"old={old_s * 1e3:9.2f}ms new={new_s * 1e3:9.2f}ms speedup={entry['speedup']:7.1f}x"
            )
    return results


def bench_ensemble(grid, d: int, repeats: int) -> list:
    """Batched ensemble vs an equivalent loop of fast-path single executions."""
    results = []
    algorithm = MidpointAlgorithm()
    for batch_size, n, rounds in grid:
        values = np.stack([_initial_values(n, d, seed=b) for b in range(batch_size)])
        pattern = _pattern(n)
        loop_s = _best_of(
            lambda: [
                run_execution(algorithm, values[b], pattern, rounds, record_every=rounds or 1)
                for b in range(batch_size)
            ],
            repeats,
        )
        batch_s = _best_of(
            lambda: run_pattern_ensemble(
                algorithm, values, pattern, rounds, record_every=rounds or 1
            ),
            repeats,
        )
        peak_mem = _peak_bytes(
            lambda: run_pattern_ensemble(
                algorithm, values, pattern, rounds, record_every=rounds or 1
            )
        )
        entry = {
            "benchmark": "ensemble",
            "algorithm": algorithm.name,
            "B": batch_size,
            "n": n,
            "rounds": rounds,
            "d": d,
            "loop_s": loop_s,
            "batched_s": batch_s,
            "speedup": loop_s / batch_s if batch_s > 0 else float("inf"),
            "peak_mem_bytes": peak_mem,
        }
        results.append(entry)
        print(
            f"ensemble      {algorithm.name:10s} B={batch_size:4d} n={n:4d} rounds={rounds:4d} "
            f"loop={loop_s * 1e3:9.2f}ms batched={batch_s * 1e3:9.2f}ms "
            f"speedup={entry['speedup']:7.1f}x peak={peak_mem / 1e6:7.1f}MB"
        )
    return results


def bench_faulted_ensemble(grid, d: int, repeats: int) -> list:
    """Vectorized fault-mask ensemble vs the per-scenario faulted loop.

    Both toggles consume the same seed-deterministic :class:`FaultPlan`
    (message drops plus an unclean crash), so the masked adjacencies — and
    the recorded outputs — are bit-for-bit identical
    (tests/test_fuzz_equivalence.py); only the execution strategy differs.
    ``batched_s`` applies the ``(B, n, n)`` fault masks to the whole stacked
    adjacency per round, ``loop_s`` masks and runs one scenario at a time.
    """
    results = []
    algorithm = MidpointAlgorithm()
    plan = FaultPlan(
        drop=0.15,
        crashes=(CrashSpec(agent=0, round=3, final_recipients=frozenset({1})),),
        f=2,
        seed=7,
        enforce_model=False,
    )
    for batch_size, n, rounds in grid:
        values = np.stack([_initial_values(n, d, seed=b) for b in range(batch_size)])
        pattern = _pattern(n)
        loop_s = _best_of(
            lambda: run_pattern_ensemble(
                algorithm, values, pattern, rounds,
                record_every=rounds or 1, use_batch=False, fault_plan=plan,
            ),
            repeats,
        )
        batch_s = _best_of(
            lambda: run_pattern_ensemble(
                algorithm, values, pattern, rounds,
                record_every=rounds or 1, use_batch=True, fault_plan=plan,
            ),
            repeats,
        )
        entry = {
            "benchmark": "faulted_ensemble",
            "algorithm": algorithm.name,
            "B": batch_size,
            "n": n,
            "rounds": rounds,
            "d": d,
            "drop": plan.drop,
            "crashes": len(plan.crashes),
            "loop_s": loop_s,
            "batched_s": batch_s,
            "speedup": loop_s / batch_s if batch_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"faulted-ens   {algorithm.name:10s} B={batch_size:4d} n={n:4d} rounds={rounds:4d} "
            f"loop={loop_s * 1e3:9.2f}ms batched={batch_s * 1e3:9.2f}ms "
            f"speedup={entry['speedup']:7.1f}x"
        )
    return results


def bench_parallel_ensemble(grid, d: int, repeats: int) -> list:
    """Serial vs B-axis-sharded ensemble (the ``threads`` backend).

    Both runs execute the identical stacked array program — sharding only
    slices the scenario axis across a worker pool — so the entry records the
    machine's ``cpu_count`` next to the speedup: ``check_bench.py`` enforces
    the >=2x @ 4-thread gate only where ``cpu_count`` >= 4, letting 1-core
    dev boxes record honest (~1x) numbers without failing the gate.
    """
    from repro.config import EngineConfig

    results = []
    algorithm = MidpointAlgorithm()
    cpu_count = os.cpu_count() or 1
    for batch_size, n, rounds, threads in grid:
        values = np.stack([_initial_values(n, d, seed=b) for b in range(batch_size)])
        pattern = _pattern(n)

        def serial():
            return run_pattern_ensemble(
                algorithm, values, pattern, rounds, record_every=rounds or 1
            )

        def parallel():
            with EngineConfig(threads=threads):
                return run_pattern_ensemble(
                    algorithm, values, pattern, rounds, record_every=rounds or 1
                )

        serial_s, parallel_s = _best_of_pair(serial, parallel, repeats)
        entry = {
            "benchmark": "parallel_ensemble",
            "algorithm": algorithm.name,
            "B": batch_size,
            "n": n,
            "rounds": rounds,
            "d": d,
            "threads": threads,
            "cpu_count": cpu_count,
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"parallel-ens  {algorithm.name:10s} B={batch_size:4d} n={n:4d} rounds={rounds:4d} "
            f"threads={threads} cpus={cpu_count} "
            f"serial={serial_s * 1e3:9.2f}ms parallel={parallel_s * 1e3:9.2f}ms "
            f"speedup={entry['speedup']:5.2f}x"
        )
    return results


def _kernel_call(impl: str, adjacency, min_values, max_values):
    """One masked reduction through the named kernel on validated operands.

    ``"auto"`` is the public dispatcher (the kernel the input selects); the
    other names call that private kernel directly, whatever the input size
    (``"gather"`` needs a planned stack, see :class:`GatherPlan`).
    """
    if impl == "auto":
        if min_values is None:
            return masked_max(adjacency, max_values)
        if max_values is None:
            return masked_min(adjacency, min_values)
        return masked_extreme_pair(adjacency, min_values, max_values)
    if impl == "gather":
        return _masked_extremes_gather(adjacency.plan, min_values, max_values)
    mask, min_arr, max_arr, lead = _reduction_operands(adjacency, min_values, max_values)
    if impl == "sorted":
        return _masked_extremes_sorted(mask, min_arr, max_arr, lead)
    kernel = {"dense": _masked_extremes_dense, "fold": _masked_extremes_fold}[impl]
    return kernel(mask, min_arr, max_arr)


def bench_fused_reduction(grid, repeats: int) -> list:
    """Fused ``masked_extreme_pair`` vs two independent masked reductions.

    The fused call resolves the receive mask once for min-on-A / max-on-B
    (the amortized midpoint's per-round pattern) and shares each mask block;
    the separate timing pays two resolutions.  Each grid point names the
    kernels it measures (see :func:`_kernel_call`) and whether its entries
    are gated: the small ``auto`` point is microsecond-scale, recorded to
    show where the fused call wins but too noisy to gate.
    """
    results = []
    for batch_size, n, d, impls, gated in grid:
        rng = np.random.default_rng(5)
        mins = rng.uniform(-1.0, 1.0, size=(batch_size, n, d))
        maxs = rng.uniform(-1.0, 1.0, size=(batch_size, n, d))
        adjacency = rng.random((batch_size, n, n)) < 0.3
        adjacency[..., np.arange(n), np.arange(n)] = True
        for impl in impls:
            separate_s, fused_s = _best_of_pair(
                lambda: (
                    _kernel_call(impl, adjacency, mins, None),
                    _kernel_call(impl, adjacency, None, maxs),
                ),
                lambda: _kernel_call(impl, adjacency, mins, maxs),
                repeats,
            )
            entry = {
                "benchmark": "fused_reduction",
                "impl": impl,
                "B": batch_size,
                "n": n,
                "d": d,
                "separate_s": separate_s,
                "fused_s": fused_s,
                "speedup": separate_s / fused_s if fused_s > 0 else float("inf"),
            }
            if not gated:
                entry["gated"] = False
            results.append(entry)
            print(
                f"fused-reduce  {impl:10s} B={batch_size:4d} n={n:4d} d={d} "
                f"separate={separate_s * 1e3:9.2f}ms fused={fused_s * 1e3:9.2f}ms "
                f"speedup={entry['speedup']:5.2f}x"
            )
    return results


def bench_scenario_build(sizes, round_shape, calls: int, repeats: int) -> list:
    """Microseconds per call of the graph-schedule build layer.

    Times ``random_rooted_graph(n, rng, 0.1)`` and
    ``CommunicationGraph(n, adjacency=...)`` at each ``n`` of ``sizes``, and
    ``round_adjacency`` of one per-scenario round of ``round_shape = (B, n)``
    distinct rooted graphs: the per-graph and per-round work every
    random-schedule study pays before its first transition.  Each figure is
    the best of ``repeats`` loops of ``calls`` calls.  Not gated: a
    microsecond figure on a shared runner moves with the machine, not the code.
    """

    def per_call_us(call) -> float:
        return _best_of(lambda: [call() for _ in range(calls)], repeats) / calls * 1e6

    rng = np.random.default_rng(7)
    cases = []
    for n in sizes:
        adjacency = rng.random((n, n)) < 0.1
        cases += [
            ({"call": "random_rooted_graph", "n": n}, lambda n=n: random_rooted_graph(n, rng, 0.1)),
            (
                {"call": "CommunicationGraph", "n": n},
                lambda n=n, adjacency=adjacency: CommunicationGraph(n, adjacency=adjacency),
            ),
        ]
    batch_size, n = round_shape
    round_graphs = [random_rooted_graph(n, rng, 0.1) for _ in range(batch_size)]
    cases.append(
        ({"call": "round_adjacency", "B": batch_size, "n": n}, lambda: round_adjacency(round_graphs))
    )
    results = []
    for fields, run in cases:
        entry = {
            "benchmark": "scenario_build", **fields, "per_call_us": per_call_us(run), "gated": False
        }
        results.append(entry)
        shape = " ".join(f"{key}={fields[key]}" for key in ("B", "n") if key in fields)
        print(f"scenario-build {fields['call']:20s} {shape:12s} {entry['per_call_us']:8.2f}us/call")
    return results


def _deaf_submodel(n: int, model_size: int) -> NetworkModel:
    """The first ``model_size`` deaf variants of ``K_n`` (a worst-case model)."""
    base = complete_graph(n)
    return NetworkModel(
        [deaf_variant(base, agent) for agent in range(model_size)],
        name=f"deaf{model_size}(K_{n})",
    )


def _timed_run(algorithm, values, adversary, rounds, reference: bool, repeats) -> float:
    """Best-of-``repeats`` seconds of one whole adversarial ``run_execution``.

    ``reference=True`` runs under ``EngineConfig(use_batch=False)``: the
    round loop, whose ``AdversarialPattern.choose`` replays one candidate at
    a time.  ``False`` runs under the default config, where ``run_execution``
    hands the plan adversary to a one-scenario ``run_adversarial_ensemble``.
    """
    from repro.config import EngineConfig

    def run():
        if reference:
            with EngineConfig(use_batch=False):
                run_execution(algorithm, values, adversary, rounds)
        else:
            run_execution(algorithm, values, adversary, rounds)

    return _best_of(run, repeats)


def bench_adversary(grid, repeats: int) -> list:
    """Batched vs per-candidate runs of the greedy adversary.

    Both time a whole ``run_execution`` on the fast path and make identical
    graph choices: ``old_s`` is the per-candidate reference loop
    (``EngineConfig(use_batch=False)``), ``new_s`` the default route, which
    evaluates all ``|N|`` candidates of a decision as one stacked
    ``(C, n, n)`` adjacency pass.
    """
    results = []
    algorithm = MidpointAlgorithm()
    for n, model_size, rounds in grid:
        adversary = GreedyDiameterAdversary(_deaf_submodel(n, model_size))
        values = _initial_values(n, 1)
        old_s = _timed_run(algorithm, values, adversary, rounds, True, repeats)
        new_s = _timed_run(algorithm, values, adversary, rounds, False, repeats)
        entry = {
            "benchmark": "greedy_adversary",
            "algorithm": algorithm.name,
            "n": n,
            "model_size": model_size,
            "rounds": rounds,
            "d": 1,
            "old_s": old_s,
            "new_s": new_s,
            "speedup": old_s / new_s if new_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"greedy-adv    {algorithm.name:10s} n={n:4d} |N|={model_size:3d} rounds={rounds:4d} "
            f"old={old_s * 1e3:9.2f}ms new={new_s * 1e3:8.2f}ms speedup={entry['speedup']:7.1f}x"
        )
    return results


def bench_psi_adversary(grid, repeats: int) -> list:
    """Batched vs per-sequence runs of the Theorem 3 adversary.

    The amortized midpoint carries state beyond its outputs, so the
    reference loop (``old_s``) replays each candidate ``σ`` block through
    ``run_from_configuration`` on the per-agent path, while the default
    route (``new_s``) rolls all three blocks forward as stacked adjacency
    passes.  Both time a whole ``run_execution``.
    """
    from repro.algorithms import AmortizedMidpointAlgorithm
    from repro.core.adversary import PsiBlockAdversary

    results = []
    for n, rounds in grid:
        algorithm = AmortizedMidpointAlgorithm()
        adversary = PsiBlockAdversary(n)
        values = _initial_values(n, 1)
        old_s = _timed_run(algorithm, values, adversary, rounds, True, repeats)
        new_s = _timed_run(algorithm, values, adversary, rounds, False, repeats)
        entry = {
            "benchmark": "psi_adversary",
            "algorithm": algorithm.name,
            "n": n,
            "rounds": rounds,
            "d": 1,
            "old_s": old_s,
            "new_s": new_s,
            "speedup": old_s / new_s if new_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"psi-adv       {algorithm.name:18s} n={n:4d} rounds={rounds:4d} "
            f"old={old_s * 1e3:9.2f}ms new={new_s * 1e3:9.2f}ms speedup={entry['speedup']:7.1f}x"
        )
    return results


def bench_adversarial_ensemble(grid, repeats: int) -> list:
    """Batched adversarial ensemble vs a loop of per-scenario adversarial runs."""
    results = []
    algorithm = MidpointAlgorithm()
    for batch_size, n, model_size, rounds in grid:
        model = _deaf_submodel(n, model_size)
        values = np.stack([_initial_values(n, 1, seed=b) for b in range(batch_size)])
        loop_s = _best_of(
            lambda: [
                run_execution(
                    algorithm, values[b], GreedyDiameterAdversary(model), rounds,
                    record_every=rounds or 1,
                )
                for b in range(batch_size)
            ],
            repeats,
        )
        batch_s = _best_of(
            lambda: run_adversarial_ensemble(
                algorithm, values, GreedyDiameterAdversary(model), rounds,
                record_every=rounds or 1,
            ),
            repeats,
        )
        entry = {
            "benchmark": "adversarial_ensemble",
            "algorithm": algorithm.name,
            "B": batch_size,
            "n": n,
            "model_size": model_size,
            "rounds": rounds,
            "d": 1,
            "loop_s": loop_s,
            "batched_s": batch_s,
            "speedup": loop_s / batch_s if batch_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"adv-ensemble  {algorithm.name:10s} B={batch_size:4d} n={n:4d} |N|={model_size:3d} "
            f"rounds={rounds:4d} loop={loop_s * 1e3:9.2f}ms batched={batch_s * 1e3:9.2f}ms "
            f"speedup={entry['speedup']:7.1f}x"
        )
    return results


def bench_valency(grid, repeats: int) -> list:
    """Batched valency estimation vs the per-sequence reference loop.

    ``old_s`` runs one ``run_from_configuration`` per sampled future (the
    pre-certification-engine behaviour); ``new_s`` stacks all futures of each
    exploration depth into one scenario ensemble.  Both produce bit-for-bit
    identical ``(F, d)`` limit arrays (tests/test_valency_batch.py).
    """
    results = []
    algorithm = MidpointAlgorithm()
    for n, depth, suffix_rounds in grid:
        model = deaf_model(n=n)
        configuration = initial_configuration(algorithm, np.linspace(0.0, 1.0, n))
        reference = ValencyEstimator(
            algorithm, model, suffix_rounds=suffix_rounds, exploration_depth=depth,
            use_batch=False,
        )
        batched = ValencyEstimator(
            algorithm, model, suffix_rounds=suffix_rounds, exploration_depth=depth,
        )
        old_s = _best_of(lambda: reference.limit_estimates(configuration), repeats)
        new_s = _best_of(lambda: batched.limit_estimates(configuration), repeats)
        futures = sum(len(model) ** level for level in range(depth + 1)) * len(model)
        entry = {
            "benchmark": "valency_estimation",
            "algorithm": algorithm.name,
            "n": n,
            "depth": depth,
            "suffix_rounds": suffix_rounds,
            "futures": futures,
            "d": 1,
            "old_s": old_s,
            "new_s": new_s,
            "speedup": old_s / new_s if new_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"valency       {algorithm.name:10s} n={n:4d} depth={depth} K={futures:5d} "
            f"old={old_s * 1e3:9.2f}ms new={new_s * 1e3:9.2f}ms speedup={entry['speedup']:7.1f}x"
        )
    return results


def bench_valency_memory(n: int, depth: int, suffix_rounds: int) -> list:
    """Peak memory of the streamed prefix enumeration vs one materialized pass.

    Asserts (tracemalloc) that streaming the exhaustive ``|N|^depth`` prefix
    product in bounded chunks keeps peak allocation strictly below the
    single-pass run that stacks every future at once — the whole point of the
    chunked enumeration.  The assertion runs at ``depth`` and at
    ``depth + 1``: at ``depth`` the two peaks are close enough that the
    masked-reduction kernel each pass's size selects can decide the
    comparison, while the ``|N|``-fold larger materialized pass at
    ``depth + 1`` outweighs any kernel's intermediate.
    """
    algorithm = MidpointAlgorithm()
    model = deaf_model(n=n)
    configuration = initial_configuration(algorithm, np.linspace(0.0, 1.0, n))
    results = []
    for case_depth in (depth, depth + 1):
        futures = sum(len(model) ** level for level in range(case_depth + 1)) * len(model)
        streamed = ValencyEstimator(
            algorithm, model, suffix_rounds=suffix_rounds, exploration_depth=case_depth,
            scenario_chunk=128,
        )
        materialized = ValencyEstimator(
            algorithm, model, suffix_rounds=suffix_rounds, exploration_depth=case_depth,
            scenario_chunk=max(futures, 128),
        )
        streamed_peak = _peak_bytes(lambda: streamed.limit_estimates(configuration))
        materialized_peak = _peak_bytes(lambda: materialized.limit_estimates(configuration))
        assert streamed_peak < materialized_peak, (
            f"streamed prefix enumeration (depth {case_depth}) peaked at {streamed_peak} "
            f"bytes, not below the materialized pass ({materialized_peak} bytes)"
        )
        entry = {
            "benchmark": "valency_streaming_memory",
            "algorithm": algorithm.name,
            "n": n,
            "depth": case_depth,
            "suffix_rounds": suffix_rounds,
            "futures": futures,
            "streamed_peak_bytes": streamed_peak,
            "materialized_peak_bytes": materialized_peak,
            "memory_ratio": materialized_peak / streamed_peak if streamed_peak else float("inf"),
        }
        results.append(entry)
        print(
            f"valency-mem   {algorithm.name:10s} n={n:4d} depth={case_depth} K={futures:5d} "
            f"streamed={streamed_peak / 1e6:7.2f}MB "
            f"materialized={materialized_peak / 1e6:7.2f}MB ratio={entry['memory_ratio']:5.1f}x"
        )
    return results


def bench_certify_ensemble(grid, repeats: int) -> list:
    """Ensemble-scale certification vs a loop of per-scenario valency traces.

    ``loop_s`` certifies a recorded ``(B, n, d)`` ensemble one scenario at a
    time — ``ValencyEstimator.trace`` per scenario, each trace itself
    batched and returning one ``(R,)`` ``ValencyEstimate`` record — while
    ``batched_s`` stacks all ``B`` scenarios' sampled futures into single
    ensemble passes through ``ValencyEstimator.certify_ensemble``, which
    returns one ``(R, B)`` record.  Its scenario-``b`` slice ``[:, b]`` is
    bit-for-bit the loop's ``b``-th trace (tests/test_certify_ensemble.py).

    The workload is the stateful batch-state restore path (amortized
    midpoint over a deaf sub-model).  The amortized midpoint is
    round-invariant, so both sides stack recorded rounds: a per-scenario
    trace runs narrow ``(R·P·M, n, n)`` passes over its R recorded
    configurations, the ensemble pass ``(R·B·P·M, n, n)`` ones.  With the
    grid's two recorded rounds per scenario the per-scenario passes stay
    narrow, so stacking ``B`` scenarios per pass removes genuine per-pass
    overhead and ``check_bench.py`` gates the speedup at >= 5x.  (Once a
    per-scenario trace saturates the vectorized width — many recorded rounds
    or deep exploration — the ensemble path's win is API-level, not
    wall-clock.)
    """
    from repro.algorithms import AmortizedMidpointAlgorithm

    results = []
    algorithm = AmortizedMidpointAlgorithm()
    for batch_size, n, model_size, depth, suffix_rounds, rounds, record_every in grid:
        model = _deaf_submodel(n, model_size)
        values = np.stack([_initial_values(n, 1, seed=b) for b in range(batch_size)])
        ensemble = run_pattern_ensemble(
            algorithm, values, _pattern(n), rounds,
            record_every=record_every, record_states=True,
        )
        estimator = ValencyEstimator(
            algorithm, model, suffix_rounds=suffix_rounds, exploration_depth=depth
        )
        loop_s = _best_of(
            lambda: [
                estimator.trace(ensemble.scenario_configurations(b))
                for b in range(batch_size)
            ],
            repeats,
        )
        batch_s = _best_of(lambda: estimator.certify_ensemble(ensemble), repeats)
        futures = sum(len(model) ** level for level in range(depth + 1)) * len(model)
        entry = {
            "benchmark": "certify_ensemble",
            "algorithm": algorithm.name,
            "B": batch_size,
            "n": n,
            "model_size": model_size,
            "depth": depth,
            "suffix_rounds": suffix_rounds,
            "rounds": rounds,
            "futures_per_config": futures,
            "d": 1,
            "loop_s": loop_s,
            "batched_s": batch_s,
            "speedup": loop_s / batch_s if batch_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"certify-ens   {algorithm.name:18s} B={batch_size:4d} n={n:4d} |N|={model_size} "
            f"depth={depth} K={futures:5d} loop={loop_s * 1e3:9.2f}ms "
            f"batched={batch_s * 1e3:9.2f}ms speedup={entry['speedup']:7.1f}x"
        )
    return results


def bench_contraction_trace(grid, repeats: int) -> list:
    """Batched vs reference valency-diameter traces along adversarial executions."""
    results = []
    algorithm = MidpointAlgorithm()
    for n, rounds, suffix_rounds in grid:
        model = deaf_model(n=n)
        values = np.linspace(0.0, 1.0, n)

        def trace(use_batch):
            return valency_contraction_trace(
                algorithm, model, GreedyDiameterAdversary(model), values, rounds,
                suffix_rounds=suffix_rounds, use_batch=use_batch,
            )

        old_s = _best_of(lambda: trace(False), repeats)
        new_s = _best_of(lambda: trace(True), repeats)
        entry = {
            "benchmark": "contraction_trace",
            "algorithm": algorithm.name,
            "n": n,
            "rounds": rounds,
            "suffix_rounds": suffix_rounds,
            "d": 1,
            "old_s": old_s,
            "new_s": new_s,
            "speedup": old_s / new_s if new_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"contraction   {algorithm.name:10s} n={n:4d} rounds={rounds:4d} "
            f"old={old_s * 1e3:9.2f}ms new={new_s * 1e3:9.2f}ms speedup={entry['speedup']:7.1f}x"
        )
    return results


def bench_alpha_classes(grid, repeats: int) -> list:
    """Packed α/β-class and α-diameter computation vs the per-pair reference."""
    results = []
    for family, n in grid:
        if family == "psi":
            graphs = psi_family(n)
        elif family == "crash":
            graphs = list(crash_model(n, 1))
        else:
            graphs = [deaf_variant(complete_graph(n), agent) for agent in range(n)]

        def analyses(use_packed):
            alpha_classes(graphs, use_packed=use_packed)
            beta_classes(graphs, use_packed=use_packed)
            alpha_diameter(graphs, use_packed=use_packed)

        old_s = _best_of(lambda: analyses(False), repeats)
        new_s = _best_of(lambda: analyses(True), repeats)
        entry = {
            "benchmark": "alpha_classes",
            "family": family,
            "n": n,
            "model_size": len(graphs),
            "old_s": old_s,
            "new_s": new_s,
            "speedup": old_s / new_s if new_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"alpha-classes {family:10s} n={n:4d} |N|={len(graphs):3d} "
            f"old={old_s * 1e3:9.2f}ms new={new_s * 1e3:9.2f}ms speedup={entry['speedup']:7.1f}x"
        )
    return results


def bench_masked_reduction(batch_size: int, n: int, d: int, repeats: int) -> list:
    """Time and peak memory of one midpoint round's masked min/max per kernel.

    Each kernel (dense, sender-fold, sort-select, gather) is called directly
    on per-scenario values and deaf-variant masks, so the entry isolates the
    kernels from the dispatcher; ``sorted_shared_values_s`` times
    sort-select on one value matrix shared by the whole mask stack (the
    adversaries' candidate evaluation).  The gather's peak shows why the
    dispatcher caps it at ``_AUTO_DENSE_ELEMENT_LIMIT``: at ``n = 256``
    nearly every receiver hears all senders, so its ``(k, B · n, d)`` rows
    are as large as the dense intermediate.  The timings are deliberately
    not gated: memory-for-time tradeoffs at millisecond scale flake on CI.
    """
    rng = np.random.default_rng(0)
    values = rng.uniform(-1.0, 1.0, size=(batch_size, n, d))
    base = complete_graph(n)
    adjacency = np.stack(
        [deaf_variant(base, b % n).adjacency for b in range(batch_size)]
    )
    adjacency = GatherPlan(adjacency).stack(np.arange(batch_size))
    shared_values = values[:1]
    entry = {"benchmark": "masked_reduction", "B": batch_size, "n": n, "d": d}
    for impl in ("dense", "fold", "sorted", "gather"):
        def round_():
            _kernel_call(impl, adjacency, values, values)

        entry[f"{impl}_s"] = _best_of(round_, repeats)
        entry[f"{impl}_peak_bytes"] = _peak_bytes(round_)
    entry["sorted_shared_values_s"] = _best_of(
        lambda: _kernel_call("sorted", adjacency, shared_values, shared_values), repeats
    )
    print(
        f"masked-reduce midpoint   B={batch_size:4d} n={n:4d} d={d} "
        + " ".join(
            f"{impl}={entry[f'{impl}_s'] * 1e3:.2f}ms/{entry[f'{impl}_peak_bytes'] / 1e6:.1f}MB"
            for impl in ("dense", "fold", "sorted", "gather")
        )
        + f" sorted(shared)={entry['sorted_shared_values_s'] * 1e3:.2f}ms"
    )
    return [entry]


def bench_planned_reduction(cases, repeats: int) -> list:
    """Reused stacks vs the plain-array dispatch at valency-suffix and candidate shapes.

    A ``"suffix"`` case is one constant-suffix round of a Table 1 row: the
    stack of ``F`` model graphs that :class:`~repro.core.valency.ValencyEstimator`
    builds (the ``|N|`` graphs tiled over the stacked configurations) and
    the algorithm's call on it, the amortized midpoint's two tensors on
    Ψ(n), the midpoint's one on deaf(K_n).  ``planned_s`` is the public
    masked extreme on the planned stack (gather plan and kernel memo).  A
    ``"candidates"`` case is one candidate pass of an adversarial decision:
    the greedy adversary's memoized ``(C, n, n)`` plan stack against
    ``(B, 1, n, 1)`` scenario values, where the memo skips the dispatch.
    ``unplanned_s`` is the same call on the stack as a plain array, where
    the dispatcher validates and picks dense, fold or sort-select on every
    call.  Microsecond calls, so the pair is the median of ``repeats``
    interleaved pairs (:func:`_median_pair`); ``check_bench.py`` requires
    the reused stack to win by 1.2x.
    """
    results = []
    for name, model, layout, size, two_tensors in cases:
        rng = np.random.default_rng(1)
        if layout == "suffix":
            graphs = np.stack([graph.adjacency for graph in model])
            planned = GatherPlan(graphs).stack(np.arange(size) % len(graphs))
            value_shape = (size, model.n, 1)
        else:
            plan = GreedyDiameterAdversary(model).ensemble_plan(1, model.n)
            (planned,) = plan.adjacency_stacks
            value_shape = (size, 1, model.n, 1)
        plain = np.asarray(planned)
        mins = rng.uniform(-1.0, 1.0, size=value_shape)
        maxs = rng.uniform(-1.0, 1.0, size=value_shape) if two_tensors else mins
        unplanned_s, planned_s = _median_pair(
            lambda: _kernel_call("auto", plain, mins, maxs),
            lambda: _kernel_call("auto", planned, mins, maxs),
            repeats,
        )
        entry = {
            "benchmark": "masked_reduction",
            "model": name,
            "layout": layout,
            "F": plain.shape[0],
            "n": model.n,
            "d": 1,
            "unplanned_s": unplanned_s,
            "planned_s": planned_s,
            "speedup": unplanned_s / planned_s if planned_s > 0 else float("inf"),
        }
        if layout == "suffix":
            entry["k"] = planned.plan.shape[0]
        else:
            entry["B"] = size
        results.append(entry)
        print(
            f"masked-reduce {name:10s} {layout:10s} F={entry['F']:4d} n={model.n:4d} "
            f"unplanned={unplanned_s * 1e6:7.1f}us planned={planned_s * 1e6:7.1f}us "
            f"speedup={entry['speedup']:5.2f}x"
        )
    return results


def bench_facade(single_grid, ensemble_grid, repeats: int) -> list:
    """Dispatch overhead of the repro.api Study facade over direct engine calls.

    Every Study compiles to exactly one engine call, so the facade must cost
    no more than spec validation plus an EngineConfig context entry —
    ``check_bench.py`` gates ``facade_s`` within 5% of ``direct_s``.  The
    workloads are sized so one engine call dominates the timing (dispatch is
    ~microseconds against milliseconds of round execution).  Each entry
    reports the median-ratio pair of interleaved repeats (``_median_pair``),
    so a load burst on a shared machine does not move the ratio.
    """
    results = []
    algorithm = MidpointAlgorithm()
    for n, rounds in single_grid:
        values = _initial_values(n, 1)
        pattern = _pattern(n)
        direct_s, facade_s = _median_pair(
            lambda: run_execution(algorithm, values, pattern, rounds),
            lambda: Study(
                algorithm=algorithm, initial_values=values, pattern=pattern, rounds=rounds
            ).run(),
            repeats,
        )
        entry = {
            "benchmark": "facade_overhead",
            "route": "run_execution",
            "algorithm": algorithm.name,
            "n": n,
            "rounds": rounds,
            "d": 1,
            "direct_s": direct_s,
            "facade_s": facade_s,
            "overhead": facade_s / direct_s if direct_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"facade        run_execution        n={n:4d} rounds={rounds:4d} "
            f"direct={direct_s * 1e3:8.2f}ms facade={facade_s * 1e3:8.2f}ms "
            f"overhead={entry['overhead']:6.3f}x"
        )
    for batch_size, n, rounds in ensemble_grid:
        values = np.stack([_initial_values(n, 1, seed=b) for b in range(batch_size)])
        pattern = _pattern(n)
        direct_s, facade_s = _median_pair(
            lambda: run_pattern_ensemble(algorithm, values, pattern, rounds),
            lambda: Study(
                algorithm=algorithm, initial_values=values, pattern=pattern, rounds=rounds
            ).run(),
            repeats,
        )
        entry = {
            "benchmark": "facade_overhead",
            "route": "run_pattern_ensemble",
            "algorithm": algorithm.name,
            "B": batch_size,
            "n": n,
            "rounds": rounds,
            "d": 1,
            "direct_s": direct_s,
            "facade_s": facade_s,
            "overhead": facade_s / direct_s if direct_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"facade        run_pattern_ensemble B={batch_size:3d} n={n:4d} rounds={rounds:4d} "
            f"direct={direct_s * 1e3:8.2f}ms facade={facade_s * 1e3:8.2f}ms "
            f"overhead={entry['overhead']:6.3f}x"
        )
    return results


def bench_service(grid, repeats: int) -> list:
    """Dispatch cost of the sharded study service over a direct Study run.

    Three timings per workload: the single-process ``Study(...).run()``
    baseline, the sharded ``run_study_service`` run (IPC to the pool's
    worker slots + journal appends), and a journal replay of the same run
    (every shard served from the checkpoint, no slot used).  The worker
    slots persist across studies, so the best-of timing measures warm
    dispatch: only the first repeat starts slot processes.
    ``check_bench.py`` gates ``service_s`` against ``direct_s`` with a
    relative limit plus a fixed allowance for the constant per-study IPC
    and journal cost that dwarfs tiny smoke workloads.
    """
    import tempfile

    from repro.service import run_study_service

    results = []
    algorithm = MidpointAlgorithm()
    for batch_size, n, rounds, workers, shard_size in grid:
        values = np.stack([_initial_values(n, 1, seed=b) for b in range(batch_size)])
        pattern = _pattern(n)
        kwargs = dict(
            algorithm=algorithm,
            initial_values=values,
            rounds=rounds,
            pattern=pattern,
        )
        direct_s = _best_of(lambda: Study(**kwargs).run(), repeats)
        service_s = _best_of(
            lambda: run_study_service(**kwargs, workers=workers, shard_size=shard_size),
            repeats,
        )
        with tempfile.TemporaryDirectory() as tmp:
            journal = str(Path(tmp) / "journal.jsonl")
            run_study_service(
                **kwargs, workers=workers, shard_size=shard_size, journal=journal
            )
            replay_s = _best_of(
                lambda: run_study_service(
                    **kwargs, workers=workers, shard_size=shard_size, journal=journal
                ),
                repeats,
            )
        entry = {
            "benchmark": "service_overhead",
            "route": "run_study_service",
            "algorithm": algorithm.name,
            "B": batch_size,
            "n": n,
            "rounds": rounds,
            "d": 1,
            "workers": workers,
            "shard_size": shard_size,
            "direct_s": direct_s,
            "service_s": service_s,
            "replay_s": replay_s,
            "overhead": service_s / direct_s if direct_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"service       run_study_service    B={batch_size:3d} n={n:4d} rounds={rounds:4d} "
            f"workers={workers} direct={direct_s * 1e3:8.2f}ms "
            f"service={service_s * 1e3:8.2f}ms replay={replay_s * 1e3:8.2f}ms"
        )
    return results


def bench_remote_service(grid, repeats: int) -> list:
    """Remote-route dispatch cost over the local multiprocessing route.

    Each workload runs the identical sharded study twice: through the
    multiprocessing scheduler (``mp_service_s``) and through a loopback
    :class:`~repro.service.remote.JobQueueServer` with in-process worker
    threads (``remote_s``) — paying HTTP round-trips, lease bookkeeping,
    SSE telemetry and the shared result cache instead of pipes and process
    spawn.  ``check_bench.py`` gates ``remote_s`` against ``mp_service_s``
    with a relative limit plus a fixed allowance, the same shape as the
    ``service_overhead`` gate.
    """
    import threading

    from repro.service import run_study_service
    from repro.service.remote import JobQueueServer, RemoteConfig
    from repro.service.remote.worker import run_worker

    results = []
    algorithm = MidpointAlgorithm()
    for batch_size, n, rounds, workers, shard_size in grid:
        values = np.stack([_initial_values(n, 1, seed=b) for b in range(batch_size)])
        pattern = _pattern(n)
        kwargs = dict(
            algorithm=algorithm,
            initial_values=values,
            rounds=rounds,
            pattern=pattern,
        )
        mp_service_s = _best_of(
            lambda: run_study_service(**kwargs, workers=workers, shard_size=shard_size),
            repeats,
        )

        def remote_once():
            with JobQueueServer() as server:
                stop = threading.Event()
                for index in range(workers):
                    threading.Thread(
                        target=run_worker,
                        args=(server.url,),
                        kwargs=dict(
                            worker_id=f"bench-w{index}",
                            poll_interval=0.02,
                            stop_event=stop,
                        ),
                        daemon=True,
                    ).start()
                try:
                    run_study_service(
                        **kwargs,
                        shard_size=shard_size,
                        remote=RemoteConfig(
                            url=server.url, poll_interval=0.5, job_timeout=300.0
                        ),
                    )
                finally:
                    stop.set()

        remote_s = _best_of(remote_once, repeats)
        entry = {
            "benchmark": "remote_service",
            "route": "run_study_service[remote]",
            "algorithm": algorithm.name,
            "B": batch_size,
            "n": n,
            "rounds": rounds,
            "d": 1,
            "workers": workers,
            "shard_size": shard_size,
            "mp_service_s": mp_service_s,
            "remote_s": remote_s,
            "overhead": remote_s / mp_service_s if mp_service_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"remote        run_study_service    B={batch_size:3d} n={n:4d} rounds={rounds:4d} "
            f"workers={workers} mp={mp_service_s * 1e3:8.2f}ms "
            f"remote={remote_s * 1e3:8.2f}ms overhead={entry['overhead']:6.2f}x"
        )
    return results


def bench_campaign(grid, repeats: int) -> list:
    """Campaign-loop overhead over a raw loop of the same differential cases.

    A single-round campaign over an empty corpus plans exactly the fresh
    generator draws of its planner, so both timings execute the identical
    case specs: ``harness_s`` runs them back to back with no persistence,
    ``campaign_s`` runs ``run_campaign`` into fresh corpus/journal
    directories — paying planning, novelty scoring, content-keyed corpus
    writes and the fsync-ed journal append on top.  ``check_bench.py``
    gates ``campaign_s`` against ``harness_s`` with a relative limit plus a
    fixed allowance for the constant persistence cost.
    """
    import tempfile

    from repro.campaign import build_case, execute_case, run_campaign
    from repro.campaign.campaign import _CAMPAIGN_NAMESPACE
    from repro.campaign.targets import TARGETS

    results = []
    targets = tuple(TARGETS)
    for seed, budget in grid:
        # Reconstruct the round's fresh draws (an empty corpus plans no
        # mutations), so the harness loop executes the campaign's cases.
        rng = np.random.default_rng((_CAMPAIGN_NAMESPACE, seed, 0))
        specs = [
            build_case(
                targets[int(rng.integers(len(targets)))],
                (seed * 1_000_003) * 10_000 + slot,
            )
            for slot in range(budget)
        ]
        harness_s = _best_of(lambda: [execute_case(spec) for spec in specs], repeats)

        def campaign_once():
            with tempfile.TemporaryDirectory() as tmp:
                run_campaign(
                    seed, budget, Path(tmp) / "corpus",
                    Path(tmp) / "journal.jsonl", batch_size=budget,
                )

        campaign_s = _best_of(campaign_once, repeats)
        entry = {
            "benchmark": "campaign_round",
            "seed": seed,
            "budget": budget,
            "harness_s": harness_s,
            "campaign_s": campaign_s,
            "overhead": campaign_s / harness_s if harness_s > 0 else float("inf"),
        }
        results.append(entry)
        print(
            f"campaign      round      seed={seed:4d} budget={budget:4d} "
            f"harness={harness_s * 1e3:9.2f}ms campaign={campaign_s * 1e3:9.2f}ms "
            f"overhead={entry['overhead']:6.2f}x"
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny grid for CI smoke runs")
    parser.add_argument("--out", default="BENCH_engine.json", help="output JSON path")
    args = parser.parse_args()

    if args.smoke:
        engine_grid = [(8, 10)]
        ensemble_grid = [(8, 8, 10)]
        # Large enough that the per-round mask application amortizes over the
        # batch; the >=3x gate has real margin on the per-scenario loop.
        faulted_ensemble_grid = [(96, 16, 10)]
        adversary_grid = [(8, 4, 5)]
        psi_grid = [(8, 12)]
        adversarial_ensemble_grid = [(4, 8, 4, 5)]
        valency_grid = [(6, 1, 20)]
        valency_memory_case = (6, 2, 10)
        # n=8 depth-2, small model: the per-scenario loop runs narrow
        # stateful passes, so the >=5x gate has real margin (~10x measured).
        certify_ensemble_grid = [(48, 8, 2, 2, 20, 6, 6)]
        contraction_grid = [(5, 4, 15)]
        alpha_grid = [("psi", 16), ("deaf", 12)]
        # Above the dense limit (24*256*256 > 2^20 elements): per-scenario
        # values there take sort-select, and d = 3 would take the fold.
        masked_reduction_case = (24, 256, 1)
        # Suffix rounds of the Table 1 rows, (name, model, "suffix", F, two
        # tensors), and the Theorem 2 row's candidate pass, (..., B, ...).
        planned_cases = [
            ("psi(12)", psi_model(12), "suffix", 504, True),
            ("deaf(K_4)", deaf_model(n=4), "suffix", 400, False),
            ("deaf(K_4)", deaf_model(n=4), "candidates", 4, False),
        ]
        # Facade dispatch is ~microseconds; size the workloads so the engine
        # call dominates and the 5% gate measures dispatch, not noise.
        facade_single_grid = [(48, 120)]
        facade_ensemble_grid = [(8, 48, 100)]
        # 31 interleaved pairs on the ~ms smoke workloads keep the tight 5%
        # facade gate from flaking on noisy CI runners.
        facade_repeats = 31
        # One mid-size ensemble split across 2 workers: big enough that the
        # rounds dominate a shard, small enough for a CI runner.
        service_grid = [(16, 48, 60, 2, 8)]
        # Same workload through a loopback queue server with worker threads.
        remote_grid = [(16, 48, 60, 2, 8)]
        # One single-round campaign; the fixed allowance in check_bench.py
        # absorbs the corpus/journal fsyncs that dominate a tiny budget.
        campaign_grid = [(0, 8)]
        # The ISSUE acceptance workload shape: B=256 split over 4 workers.
        # Rounds are few so the whole smoke family stays ~ms-scale.
        parallel_grid = [(256, 16, 10, 4)]
        # (B, n, d, kernels, gated); the small point is the rooted ensemble's
        # per-round shape, where the dispatcher runs the dense kernel.
        fused_grid = [(24, 256, 1, ("dense", "sorted"), True), (24, 12, 1, ("auto",), False)]
        # (calls per loop, loops): ~40 ms in all.
        scenario_build_timing = (200, 3)
        repeats = 1
    else:
        engine_grid = [(16, 100), (64, 100), (64, 500), (256, 100)]
        ensemble_grid = [(16, 64, 100), (64, 64, 100), (256, 16, 100)]
        faulted_ensemble_grid = [(16, 64, 100), (64, 32, 100), (256, 16, 100)]
        adversary_grid = [(64, 8, 10), (64, 16, 10), (128, 8, 5)]
        psi_grid = [(34, 64), (66, 64)]
        adversarial_ensemble_grid = [(16, 32, 8, 20), (64, 32, 8, 20)]
        # The (8, 2, 60) case is the ISSUE 3 acceptance workload: n=8,
        # depth-2 exhaustive sampling, default suffix length.
        valency_grid = [(8, 2, 60), (16, 1, 60), (32, 0, 60)]
        valency_memory_case = (8, 3, 30)
        # The (96, 8, 3, 2, ...) case is the ISSUE 5 acceptance workload:
        # n=8, depth-2 exhaustive sampling, batched >= 5x the per-scenario
        # loop (~8x measured).
        certify_ensemble_grid = [(96, 8, 3, 2, 40, 12, 12), (48, 8, 2, 2, 60, 12, 12)]
        contraction_grid = [(8, 12, 40), (16, 12, 40)]
        # crash(3, 1) has many distinct root sets; its reference takes ~0.5 s.
        alpha_grid = [("psi", 32), ("psi", 64), ("deaf", 32), ("deaf", 48), ("crash", 3)]
        masked_reduction_case = (64, 256, 1)
        planned_cases = [
            ("psi(12)", psi_model(12), "suffix", 504, True),
            ("psi(12)", psi_model(12), "suffix", 144, True),
            ("deaf(K_4)", deaf_model(n=4), "suffix", 400, False),
            ("deaf(K_4)", deaf_model(n=4), "candidates", 4, False),
        ]
        facade_single_grid = [(64, 100)]
        facade_ensemble_grid = [(16, 64, 100)]
        facade_repeats = 31
        service_grid = [(32, 64, 100, 4, 8), (64, 32, 100, 4, 8)]
        remote_grid = [(32, 64, 100, 4, 8)]
        campaign_grid = [(0, 16), (1, 32)]
        parallel_grid = [(256, 32, 50, 4), (256, 64, 20, 4)]
        fused_grid = [(64, 256, 1, ("dense", "sorted"), True), (24, 12, 1, ("auto",), False)]
        scenario_build_timing = (2000, 5)
        repeats = 3

    results = []
    results += bench_engine(engine_grid, d=1, repeats=repeats)
    if not args.smoke:
        results += bench_engine([(64, 100)], d=3, repeats=repeats)
    results += bench_ensemble(ensemble_grid, d=1, repeats=repeats)
    results += bench_faulted_ensemble(faulted_ensemble_grid, d=1, repeats=repeats)
    results += bench_parallel_ensemble(parallel_grid, d=1, repeats=repeats)
    results += bench_fused_reduction(fused_grid, repeats=repeats)
    # The rooted_ensemble benchmark's graphs: n = 12, rounds of B = 24.
    results += bench_scenario_build((12, 64), (24, 12), *scenario_build_timing)
    results += bench_adversary(adversary_grid, repeats=repeats)
    results += bench_psi_adversary(psi_grid, repeats=repeats)
    results += bench_adversarial_ensemble(adversarial_ensemble_grid, repeats=repeats)
    results += bench_valency(valency_grid, repeats=repeats)
    results += bench_valency_memory(*valency_memory_case)
    results += bench_certify_ensemble(certify_ensemble_grid, repeats=repeats)
    results += bench_contraction_trace(contraction_grid, repeats=repeats)
    results += bench_alpha_classes(alpha_grid, repeats=repeats)
    results += bench_masked_reduction(*masked_reduction_case, repeats=repeats)
    results += bench_planned_reduction(planned_cases, repeats=41)
    results += bench_facade(facade_single_grid, facade_ensemble_grid, repeats=facade_repeats)
    results += bench_service(service_grid, repeats=repeats)
    results += bench_remote_service(remote_grid, repeats=repeats)
    results += bench_campaign(campaign_grid, repeats=repeats)

    payload = {
        "schema": "bench-engine/v1",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path} ({len(results)} entries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
