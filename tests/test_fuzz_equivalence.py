"""Differential scenario fuzzing: generated cases, not hand-enumerated ones.

Four engines, two toggle dimensions (``use_fast_path`` / ``use_batch``) and
the masked-reduction kernels all promise bit-for-bit (or, for the
summation-order-sensitive averaging rules, last-ulp) equivalence.  Rather
than enumerating cases by hand, a seeded generator draws random scenarios —
graphs, graph sequences, adversary patterns, and algorithm/knob combinations
from a registry — and differentially checks

* **fast vs reference** (``run_execution`` with ``use_fast_path`` on/off),
* **batch vs loop** (``run_ensemble`` / ``run_pattern_ensemble`` with
  ``use_batch`` on/off, plus per-scenario state snapshots),
* **adversarial batch vs loop** (``run_adversarial_ensemble`` vs per-scenario
  adversary runs, choices and outputs),
* **sorted vs dense** masked extremes: the sort-select and fold kernels,
  called directly, and every public masked extreme, byte for byte under
  the ``+0.0`` rule, on ±0, ±1, ±inf and NaN values with deaf rows,
* **facade vs direct** (``Study`` vs the engine call it compiles to),
* **faulted batch vs loop** (the vectorized fault-mask path vs the
  per-scenario reference loop under randomized ``FaultPlan``s, including
  both paths raising :class:`~repro.exceptions.FaultModelError` together),
  and
* **zero-fault vs none** (``FaultPlan()`` / ``FaultSpec()`` must be
  bit-for-bit invisible on the batch, facade and event-simulator routes),
* **parallel vs serial** (``threads`` — keyword or ``EngineConfig`` scope —
  shards the B axis without changing a single byte, faulted runs included),
* **fused vs separate reductions** (``masked_extreme_pair`` /
  ``masked_min_max`` against independent ``masked_min`` + ``masked_max``
  calls through the dispatcher and through the dense and sort-select
  kernels),

each over ``CASES_PER_PAIR`` (200+) generated cases under one fixed master
seed.  Everything is deterministic — cases derive from
``np.random.default_rng((MASTER_SEED, case_seed))`` and nothing reads clocks
or global RNG state — so a failure message's repro snippet replays the exact
failing case:

    from tests.test_fuzz_equivalence import run_case
    run_case("fast_vs_reference", 123)
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms.base import (
    _masked_extremes_dense,
    _masked_extremes_fold,
    _masked_extremes_sorted,
    _reduction_operands,
    masked_extreme_pair,
    masked_max,
    masked_min,
    masked_min_max,
)
from repro.api import Study
from repro.asynchrony import AsynchronousSimulator, RoundBasedAsyncAlgorithm
from repro.campaign.registry import ORDERED_ENTRIES
from repro.config import EngineConfig
from repro.campaign.repro import repro_snippet as _repro_snippet
from repro.core.adversary import GreedyDiameterAdversary
from repro.exceptions import FaultModelError
from repro.execution import (
    run_adversarial_ensemble,
    run_ensemble,
    run_execution,
    run_pattern_ensemble,
)
from repro.faults import CrashSpec, FaultMaskingPattern, FaultPlan, FaultSpec, JoinSpec
from repro.graphs.generators import random_graph, random_strongly_connected_graph
from repro.models.network_model import NetworkModel
from repro.models.patterns import PeriodicPattern, SequencePattern
from tests.kernel_bytes import assert_no_negative_zero, assert_same_bytes

MASTER_SEED = 20260728
CASES_PER_PAIR = 200

#: The generator draws algorithms from the shared fuzz registry
#: (:mod:`repro.campaign.registry`), the same one the counterexample
#: campaign and the registry audit consume: registering an algorithm there
#: is sufficient for this suite to fuzz it.  ``entry.exact`` marks the
#: order-independent min/max family whose two execution paths agree
#: bit-for-bit; the averaging family sums received values in different
#: orders on the two paths and is compared to the last ulp instead
#: (mirroring tests/test_equivalence.py).
ALGORITHMS = ORDERED_ENTRIES


def _case_rng(case_seed):
    return np.random.default_rng((MASTER_SEED, case_seed))


def build_scenario(case_seed):
    """Deterministically generate one random scenario from its seed.

    Returns a dict with an algorithm drawn from the fuzz registry, stacked
    ``(B, n, d)`` initial values, a random per-round graph schedule (mixing
    shared and per-scenario rounds; one fixed strongly connected graph for
    graph-pinned entries), and the raw rng for further draws.
    """
    rng = _case_rng(case_seed)
    entry = ALGORITHMS[int(rng.integers(len(ALGORITHMS)))]
    n = entry.fixed_n if entry.fixed_n is not None else int(rng.integers(3, 9))
    d = int(rng.integers(1, 3))
    batch_size = int(rng.integers(1, 5))
    rounds = int(rng.integers(1, 8))
    edge_probability = float(rng.uniform(0.15, 0.95))
    graph_rounds = []
    fixed_graph = None
    if entry.needs_fixed_graph:
        fixed_graph = random_strongly_connected_graph(n, rng, edge_probability)
        graph_rounds = [fixed_graph] * rounds
    algorithm = entry.build(entry.draw_params(rng), n, fixed_graph)
    values = rng.uniform(-2.0, 2.0, size=(batch_size, n, d))
    if not entry.needs_fixed_graph:
        for _ in range(rounds):
            if rng.random() < 0.5:
                graph_rounds.append(random_graph(n, rng, edge_probability))
            else:
                graph_rounds.append(
                    [random_graph(n, rng, edge_probability) for _ in range(batch_size)]
                )
    record_every = int(rng.integers(1, 4))
    return {
        "key": entry.key,
        "exact": entry.exact,
        "entry": entry,
        "algorithm": algorithm,
        "n": n,
        "d": d,
        "batch_size": batch_size,
        "rounds": rounds,
        "values": values,
        "graph_rounds": graph_rounds,
        "record_every": record_every,
        "rng": rng,
    }


def _assert_outputs_match(pair, case_seed, label, got, want, exact):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if exact:
        ok = np.array_equal(got, want)
    else:
        ok = got.shape == want.shape and np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert ok, (
        f"{label}: outputs differ (max abs diff "
        f"{np.abs(got - want).max() if got.shape == want.shape else 'shape mismatch'})"
        + _repro_snippet(pair, case_seed)
    )


def _scenario_graphs(case, scenario):
    return [
        graphs if not isinstance(graphs, list) else graphs[scenario]
        for graphs in case["graph_rounds"]
    ]


# --------------------------------------------------------------------------- #
# Per-pair case runners (also the repro entry points)
# --------------------------------------------------------------------------- #


def _case_fast_vs_reference(case_seed):
    case = build_scenario(case_seed)
    if not case["algorithm"].supports_batch():
        return  # forcing use_fast_path=True would (correctly) raise
    pattern = SequencePattern(_scenario_graphs(case, 0)) if case["rounds"] else None
    if pattern is None:
        return
    fast = run_execution(
        case["algorithm"], case["values"][0], pattern, case["rounds"],
        record_every=case["record_every"], use_fast_path=True,
    )
    reference = run_execution(
        case["algorithm"], case["values"][0], pattern, case["rounds"],
        record_every=case["record_every"], use_fast_path=False,
    )
    assert [c.round_number for c in fast.configurations] == [
        c.round_number for c in reference.configurations
    ], "recorded rounds differ" + _repro_snippet("fast_vs_reference", case_seed)
    for config_fast, config_ref in zip(fast.configurations, reference.configurations):
        _assert_outputs_match(
            "fast_vs_reference",
            case_seed,
            f"{case['key']} round {config_fast.round_number}",
            config_fast.outputs,
            config_ref.outputs,
            case["exact"],
        )
    _assert_outputs_match(
        "fast_vs_reference", case_seed, f"{case['key']} diameters",
        fast.diameters(), reference.diameters(), case["exact"],
    )


def _case_batch_vs_loop(case_seed):
    case = build_scenario(case_seed)
    batched = run_ensemble(
        case["algorithm"], case["values"], case["graph_rounds"],
        record_every=case["record_every"], use_batch=True, record_states=True,
    ) if case["algorithm"].supports_batch() else None
    loop = run_ensemble(
        case["algorithm"], case["values"], case["graph_rounds"],
        record_every=case["record_every"], use_batch=False, record_states=True,
    )
    if batched is None:
        return
    assert batched.recorded_rounds == loop.recorded_rounds, (
        "recorded rounds differ" + _repro_snippet("batch_vs_loop", case_seed)
    )
    # The ensemble path and the per-scenario loop are bit-for-bit identical
    # for every algorithm: both run the vectorized transition per scenario.
    _assert_outputs_match(
        "batch_vs_loop", case_seed, f"{case['key']} recorded outputs",
        batched.recorded_outputs, loop.recorded_outputs, True,
    )
    _assert_outputs_match(
        "batch_vs_loop", case_seed, f"{case['key']} diameters",
        batched.diameters(), loop.diameters(), True,
    )
    # Per-scenario snapshots must agree with single-scenario fast-path runs.
    scenario = int(case["rng"].integers(case["batch_size"]))
    solo = run_execution(
        case["algorithm"], case["values"][scenario],
        SequencePattern(_scenario_graphs(case, scenario)) if case["rounds"] else None,
        case["rounds"], record_every=case["record_every"],
    ) if case["rounds"] else None
    if solo is not None:
        for config_batch, config_solo in zip(
            batched.scenario_configurations(scenario), solo.configurations
        ):
            _assert_outputs_match(
                "batch_vs_loop", case_seed,
                f"{case['key']} scenario {scenario} snapshot round "
                f"{config_batch.round_number}",
                config_batch.outputs, config_solo.outputs, True,
            )


def _case_adversarial_batch_vs_loop(case_seed):
    case = build_scenario(case_seed)
    if not case["algorithm"].supports_batch():
        return  # forcing use_batch=True would (correctly) raise
    rng = case["rng"]
    n = case["n"]
    model_size = int(rng.integers(2, 5))
    edge_probability = float(rng.uniform(0.3, 0.9))
    model = NetworkModel(
        [random_graph(n, rng, edge_probability) for _ in range(model_size)]
    )
    rounds = int(rng.integers(1, 6))
    avoid_repeat = bool(rng.random() < 0.3)
    batched = run_adversarial_ensemble(
        case["algorithm"], case["values"],
        GreedyDiameterAdversary(model, avoid_repeat=avoid_repeat),
        rounds, use_batch=True, record_states=True,
    )
    loop = run_adversarial_ensemble(
        case["algorithm"], case["values"],
        GreedyDiameterAdversary(model, avoid_repeat=avoid_repeat),
        rounds, use_batch=False, record_states=True,
    )
    _assert_outputs_match(
        "adversarial_batch_vs_loop", case_seed, f"{case['key']} recorded outputs",
        batched.recorded_outputs, loop.recorded_outputs, True,
    )
    for scenario in range(case["batch_size"]):
        assert batched.scenario_graphs(scenario) == loop.scenario_graphs(scenario), (
            f"{case['key']} scenario {scenario}: committed graph choices differ"
            + _repro_snippet("adversarial_batch_vs_loop", case_seed)
        )


_SPECIAL_VALUES = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])


def _case_sorted_vs_dense(case_seed):
    """Both other kernels and every public masked extreme vs dense, byte for byte."""
    rng = _case_rng(case_seed)
    n = int(rng.integers(2, 48))
    d = int(rng.integers(1, 4))
    lead = int(rng.integers(1, 7))
    shared = bool(rng.random() < 0.3)
    value_shape = (n, d) if shared else (lead, n, d)
    if rng.random() < 0.5:
        pool = _SPECIAL_VALUES if rng.random() < 0.5 else _SPECIAL_VALUES[:-1]
        draw = lambda: rng.choice(pool, size=value_shape)  # noqa: E731
    else:
        draw = lambda: rng.uniform(-3.0, 3.0, size=value_shape)  # noqa: E731
    min_values = draw()
    max_values = min_values if rng.random() < 0.4 else draw()
    if rng.random() < 0.3:
        # Shared registered graph adjacency broadcast over the value ensemble
        # (exercises the bitset-resident CommunicationGraph cache).
        adjacency = random_graph(n, rng, float(rng.uniform(0.1, 0.9))).adjacency
    else:
        adjacency = (rng.random((lead, n, n)) < rng.uniform(0.1, 0.9)).copy()
        for i in range(n):
            adjacency[..., i, i] = bool(rng.random() < 0.9)
        if rng.random() < 0.3:
            adjacency[..., :, int(rng.integers(n))] = False  # a deaf receiver
    sides = ("min", "max", "both")[int(rng.integers(3))]
    lo_side = min_values if sides != "max" else None
    hi_side = max_values if sides != "min" else None
    mask, lo_arr, hi_arr, lead_shape = _reduction_operands(adjacency, lo_side, hi_side)
    want = _masked_extremes_dense(mask, lo_arr, hi_arr)
    public = masked_extreme_pair(adjacency, lo_side, hi_side)
    results = {
        "fold": _masked_extremes_fold(mask, lo_arr, hi_arr),
        "masked_extreme_pair": public,
        "masked_min/masked_max": (
            masked_min(adjacency, lo_side) if lo_side is not None else None,
            masked_max(adjacency, hi_side) if hi_side is not None else None,
        ),
    }
    if lo_side is not None and lo_side is hi_side:
        results["masked_min_max"] = masked_min_max(adjacency, lo_side)
    if not np.isnan(min_values).any() and not np.isnan(max_values).any():
        results["sorted"] = _masked_extremes_sorted(mask, lo_arr, hi_arr, lead_shape)
    detail = f"(n={n}, d={d}, lead={lead}, shared={shared}, sides={sides})"
    for label, pair in results.items():
        for side, got, expected in zip(("min", "max"), pair, want):
            assert_same_bytes(
                got, expected,
                f"{label} {side} differs from the dense kernel {detail}"
                + _repro_snippet("sorted_vs_dense", case_seed),
            )
    for extreme in public:
        assert_no_negative_zero(
            extreme, f"a public masked extreme returned -0.0 {detail}"
            + _repro_snippet("sorted_vs_dense", case_seed),
        )


def _case_facade_vs_direct(case_seed):
    case = build_scenario(case_seed)
    rng = case["rng"]
    pattern = PeriodicPattern(_scenario_graphs(case, 0)) if case["rounds"] else None
    if pattern is None:
        return
    if rng.random() < 0.5:
        # Single-scenario route.
        direct = run_execution(
            case["algorithm"], case["values"][0], pattern, case["rounds"],
            record_every=case["record_every"],
        )
        facade = Study(
            algorithm=case["algorithm"], initial_values=case["values"][0],
            pattern=pattern, rounds=case["rounds"], record_every=case["record_every"],
        ).run()
        assert facade.provenance.route == "run_execution"
        direct_outputs = np.stack([c.outputs for c in direct.configurations])
        facade_outputs = np.stack([c.outputs for c in facade.execution.configurations])
    else:
        direct = run_pattern_ensemble(
            case["algorithm"], case["values"], pattern, case["rounds"],
            record_every=case["record_every"],
        )
        facade = Study(
            algorithm=case["algorithm"], initial_values=case["values"],
            pattern=pattern, rounds=case["rounds"], record_every=case["record_every"],
        ).run()
        assert facade.provenance.route == "run_pattern_ensemble"
        direct_outputs = direct.recorded_outputs
        facade_outputs = facade.execution.recorded_outputs
    _assert_outputs_match(
        "facade_vs_direct", case_seed, f"{case['key']} outputs",
        facade_outputs, direct_outputs, True,
    )
    _assert_outputs_match(
        "facade_vs_direct", case_seed, f"{case['key']} final diameters",
        np.asarray(facade.final_diameters()), np.asarray(
            direct.final_diameter() if hasattr(direct, "final_diameter")
            else direct.final_diameters()
        ), True,
    )


def _random_fault_plan(rng, n, rounds):
    """Draw a deterministic random :class:`FaultPlan` from the case rng.

    ``enforce_model=False`` by default — random drops legitimately leave
    ``N_A`` and the output-equivalence half of the pair wants runs that
    complete; the invariant half flips enforcement back on.
    """
    drop = float(rng.uniform(0.05, 0.35)) if rng.random() < 0.7 else 0.0
    crashes, joins = [], []
    agents = [int(a) for a in rng.permutation(n)]
    for agent in agents[: int(rng.integers(0, min(2, n - 1) + 1))]:
        if rng.random() < 0.6:
            crash_round = int(rng.integers(1, rounds + 1))
            recipients = None
            if rng.random() < 0.4:
                recipients = frozenset(
                    int(a) for a in rng.permutation(n)[: int(rng.integers(0, n))]
                )
            recovery = None
            if rng.random() < 0.3:
                recovery = crash_round + int(rng.integers(1, 4))
            crashes.append(
                CrashSpec(
                    agent,
                    crash_round,
                    final_recipients=recipients,
                    recovery_round=recovery,
                )
            )
        else:
            joins.append(JoinSpec(agent, int(rng.integers(1, rounds + 2))))
    return FaultPlan(
        drop=drop,
        crashes=tuple(crashes),
        joins=tuple(joins),
        seed=int(rng.integers(0, 2**31)),
        enforce_model=False,
    )


def _case_faulted_batch_vs_loop(case_seed):
    case = build_scenario(case_seed)
    if not case["algorithm"].supports_batch():
        return  # forcing use_batch=True would (correctly) raise
    rng = case["rng"]
    plan = _random_fault_plan(rng, case["n"], case["rounds"])
    if plan.is_zero():
        plan = replace(plan, drop=0.2)
    if rng.random() < 0.35:
        # The invariant half: both paths must trip (or not trip) together.
        plan = replace(plan, enforce_model=True)

    def run(toggle):
        try:
            return (
                run_ensemble(
                    case["algorithm"], case["values"], case["graph_rounds"],
                    record_every=case["record_every"], use_batch=toggle,
                    record_states=True, fault_plan=plan,
                ),
                None,
            )
        except FaultModelError as error:
            return None, error

    batched, batch_error = run(True)
    loop, loop_error = run(False)
    assert (batch_error is None) == (loop_error is None), (
        f"{case['key']}: FaultModelError on one path only "
        f"(batch={batch_error!r}, loop={loop_error!r})"
        + _repro_snippet("faulted_batch_vs_loop", case_seed)
    )
    if batch_error is not None:
        # With a single scenario there is no processing-order ambiguity: the
        # two paths must blame the identical (scenario, round, agent).
        if case["batch_size"] == 1:
            assert (
                batch_error.scenario, batch_error.round_number, batch_error.agent
            ) == (loop_error.scenario, loop_error.round_number, loop_error.agent), (
                f"{case['key']}: FaultModelError attributes differ"
                + _repro_snippet("faulted_batch_vs_loop", case_seed)
            )
        return
    assert batched.recorded_rounds == loop.recorded_rounds, (
        "recorded rounds differ" + _repro_snippet("faulted_batch_vs_loop", case_seed)
    )
    _assert_outputs_match(
        "faulted_batch_vs_loop", case_seed, f"{case['key']} recorded outputs",
        batched.recorded_outputs, loop.recorded_outputs, True,
    )
    _assert_outputs_match(
        "faulted_batch_vs_loop", case_seed, f"{case['key']} diameters",
        batched.diameters(), loop.diameters(), True,
    )
    # A per-scenario snapshot must match a single-scenario run whose pattern
    # is masked by the same plan at the same scenario index.
    if case["rounds"]:
        scenario = int(rng.integers(case["batch_size"]))
        solo = run_execution(
            case["algorithm"], case["values"][scenario],
            FaultMaskingPattern(
                SequencePattern(_scenario_graphs(case, scenario)), plan, scenario=scenario
            ),
            case["rounds"], record_every=case["record_every"],
        )
        for config_batch, config_solo in zip(
            batched.scenario_configurations(scenario), solo.configurations
        ):
            _assert_outputs_match(
                "faulted_batch_vs_loop", case_seed,
                f"{case['key']} scenario {scenario} snapshot round "
                f"{config_batch.round_number}",
                config_batch.outputs, config_solo.outputs, True,
            )


def _case_zero_fault_vs_none(case_seed):
    case = build_scenario(case_seed)
    rng = case["rng"]
    zero = FaultPlan() if rng.random() < 0.5 else FaultSpec()

    # Batch engine, both toggles: the zero plan must be bit-for-bit invisible.
    for toggle in (True, False):
        if toggle and not case["algorithm"].supports_batch():
            continue
        bare = run_ensemble(
            case["algorithm"], case["values"], case["graph_rounds"],
            record_every=case["record_every"], use_batch=toggle,
        )
        zeroed = run_ensemble(
            case["algorithm"], case["values"], case["graph_rounds"],
            record_every=case["record_every"], use_batch=toggle, fault_plan=zero,
        )
        _assert_outputs_match(
            "zero_fault_vs_none", case_seed,
            f"{case['key']} use_batch={toggle} recorded outputs",
            zeroed.recorded_outputs, bare.recorded_outputs, True,
        )

    # Facade route (ensemble graphs).
    bare_study = Study(
        algorithm=case["algorithm"], initial_values=case["values"],
        graphs=case["graph_rounds"], record_every=case["record_every"],
    ).run()
    zero_study = Study(
        algorithm=case["algorithm"], initial_values=case["values"],
        graphs=case["graph_rounds"], record_every=case["record_every"], faults=zero,
    ).run()
    assert not zero_study.provenance.faulted, (
        "a zero plan must not mark the study as faulted"
        + _repro_snippet("zero_fault_vs_none", case_seed)
    )
    _assert_outputs_match(
        "zero_fault_vs_none", case_seed, f"{case['key']} facade outputs",
        zero_study.execution.recorded_outputs, bare_study.execution.recorded_outputs,
        True,
    )

    # Event-driven simulator route (skipped for entries the round-based
    # complete-graph route cannot represent, e.g. graph-pinned algorithms).
    if not case["entry"].supports_simulator:
        return
    wrapped = RoundBasedAsyncAlgorithm(case["algorithm"])
    runs = []
    for fault_plan in (None, zero):
        execution = AsynchronousSimulator(
            wrapped, case["values"][0], f=0, fault_plan=fault_plan, max_time=4.0,
        ).run()
        runs.append(execution)
    bare_sim, zero_sim = runs
    assert len(bare_sim.samples) == len(zero_sim.samples), (
        f"{case['key']}: simulator sample counts differ"
        + _repro_snippet("zero_fault_vs_none", case_seed)
    )
    for sample_bare, sample_zero in zip(bare_sim.samples, zero_sim.samples):
        assert (
            sample_zero.time == sample_bare.time
            and sample_zero.agent == sample_bare.agent
            and np.array_equal(sample_zero.value, sample_bare.value)
        ), (
            f"{case['key']}: simulator samples diverge under the zero plan"
            + _repro_snippet("zero_fault_vs_none", case_seed)
        )
    _assert_outputs_match(
        "zero_fault_vs_none", case_seed, f"{case['key']} simulator final outputs",
        zero_sim.final_outputs, bare_sim.final_outputs, True,
    )


def _case_parallel_vs_serial(case_seed):
    """B-axis sharding must be bit-for-bit invisible on every ensemble route."""
    case = build_scenario(case_seed)
    rng = case["rng"]
    threads = int(rng.integers(2, 8))
    use_batch = None if rng.random() < 0.7 else False
    plan = None
    draw_plan = rng.random() < 0.4  # consumed unconditionally: keeps draws aligned
    if draw_plan and case["rounds"] and not case["entry"].needs_fixed_graph:
        # Graph-pinned algorithms reject dropped edges by design; everything
        # else must shard identically under randomized fault plans too.
        plan = _random_fault_plan(rng, case["n"], case["rounds"])
    via_config = bool(rng.random() < 0.5)

    def run(thread_count, via):
        kwargs = dict(
            record_every=case["record_every"], use_batch=use_batch,
            record_states=True, fault_plan=plan,
        )
        if via:
            with EngineConfig(threads=thread_count):
                return run_ensemble(
                    case["algorithm"], case["values"], case["graph_rounds"], **kwargs
                )
        return run_ensemble(
            case["algorithm"], case["values"], case["graph_rounds"],
            threads=thread_count, **kwargs,
        )

    serial = run(1, False)
    sharded = run(threads, via_config)
    assert sharded.recorded_rounds == serial.recorded_rounds, (
        "recorded rounds differ" + _repro_snippet("parallel_vs_serial", case_seed)
    )
    # Sharding + merging must commute with every round update bit-for-bit —
    # exact for the averaging family too, since both runs use the same
    # per-scenario summation order.
    _assert_outputs_match(
        "parallel_vs_serial", case_seed,
        f"{case['key']} threads={threads} recorded outputs",
        sharded.recorded_outputs, serial.recorded_outputs, True,
    )
    _assert_outputs_match(
        "parallel_vs_serial", case_seed, f"{case['key']} diameters",
        sharded.diameters(), serial.diameters(), True,
    )
    if case["batch_size"] > 1:
        scenario = int(rng.integers(case["batch_size"]))
        for config_sharded, config_serial in zip(
            sharded.scenario_configurations(scenario),
            serial.scenario_configurations(scenario),
        ):
            _assert_outputs_match(
                "parallel_vs_serial", case_seed,
                f"{case['key']} scenario {scenario} snapshot round "
                f"{config_sharded.round_number}",
                config_sharded.outputs, config_serial.outputs, True,
            )


def _case_fused_vs_separate_reduction(case_seed):
    """One fused mask resolution must equal two independent reductions."""
    rng = _case_rng(case_seed)
    n = int(rng.integers(2, 48))
    d = int(rng.integers(1, 4))
    lead = int(rng.integers(1, 7))
    min_values = rng.uniform(-3.0, 3.0, size=(lead, n, d))
    shared = bool(rng.random() < 0.4)
    max_values = min_values if shared else rng.uniform(-3.0, 3.0, size=(lead, n, d))
    if rng.random() < 0.3:
        adjacency = random_graph(n, rng, float(rng.uniform(0.1, 0.9))).adjacency
    else:
        adjacency = (rng.random((lead, n, n)) < rng.uniform(0.1, 0.9)).copy()
        for i in range(n):
            adjacency[..., i, i] = bool(rng.random() < 0.9)
    impl = ("auto", "dense", "sorted")[int(rng.integers(3))]
    if impl == "auto":
        fused_min, fused_max = masked_extreme_pair(adjacency, min_values, max_values)
        separate_min = masked_min(adjacency, min_values)
        separate_max = masked_max(adjacency, max_values)
        if shared:
            pair_min, pair_max = masked_min_max(adjacency, min_values)
        else:
            pair_min, pair_max = fused_min, fused_max
    else:
        # The kernel called directly, whatever the input size.
        def kernel(lo_side, hi_side):
            mask, lo_arr, hi_arr, lead_shape = _reduction_operands(adjacency, lo_side, hi_side)
            if impl == "dense":
                return _masked_extremes_dense(mask, lo_arr, hi_arr)
            return _masked_extremes_sorted(mask, lo_arr, hi_arr, lead_shape)

        fused_min, fused_max = kernel(min_values, max_values)
        separate_min = kernel(min_values, None)[0]
        separate_max = kernel(None, max_values)[1]
        pair_min, pair_max = kernel(min_values, min_values) if shared else (fused_min, fused_max)
    for label, got, want in (
        ("fused min", fused_min, separate_min),
        ("fused max", fused_max, separate_max),
        ("min_max min", pair_min, separate_min),
        ("min_max max", pair_max, separate_max),
    ):
        assert_same_bytes(
            got, want,
            f"{label} differs between the fused and separate reductions "
            f"(impl={impl}, shared={shared}, n={n}, d={d}, lead={lead})"
            + _repro_snippet("fused_vs_separate_reduction", case_seed),
        )


_PAIRS = {
    "fast_vs_reference": _case_fast_vs_reference,
    "batch_vs_loop": _case_batch_vs_loop,
    "adversarial_batch_vs_loop": _case_adversarial_batch_vs_loop,
    "sorted_vs_dense": _case_sorted_vs_dense,
    "facade_vs_direct": _case_facade_vs_direct,
    "faulted_batch_vs_loop": _case_faulted_batch_vs_loop,
    "zero_fault_vs_none": _case_zero_fault_vs_none,
    "parallel_vs_serial": _case_parallel_vs_serial,
    "fused_vs_separate_reduction": _case_fused_vs_separate_reduction,
}


def run_case(pair, case_seed):
    """Replay one generated case of one toggle pair (the repro entry point)."""
    _PAIRS[pair](case_seed)


@pytest.mark.parametrize("pair", sorted(_PAIRS))
def test_fuzz_pair(pair):
    for case_seed in range(CASES_PER_PAIR):
        run_case(pair, case_seed)


def test_generator_is_deterministic():
    first = build_scenario(7)
    second = build_scenario(7)
    assert first["key"] == second["key"]
    assert np.array_equal(first["values"], second["values"])
    assert [
        g.adjacency.tobytes() if not isinstance(g, list) else
        tuple(h.adjacency.tobytes() for h in g)
        for g in first["graph_rounds"]
    ] == [
        g.adjacency.tobytes() if not isinstance(g, list) else
        tuple(h.adjacency.tobytes() for h in g)
        for g in second["graph_rounds"]
    ]


def test_repro_snippet_names_pair_and_seed():
    snippet = _repro_snippet("batch_vs_loop", 42)
    assert "run_case('batch_vs_loop', 42)" in snippet
    assert "tests.test_fuzz_equivalence" in snippet
