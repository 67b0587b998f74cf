"""Self-contained experiments: paper values versus measured values.

Each function runs one measurement from the paper's result set and returns a
plain dictionary with (at least) ``name``, ``paper`` and ``measured`` keys,
which the benchmarks and EXPERIMENTS.md render as tables via
:func:`repro.analysis.reporting.format_table`.  The experiments run on the
engine's vectorized fast path wherever the algorithm supports it.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    MidpointAlgorithm,
    TwoAgentThirdsAlgorithm,
)
from repro.asynchrony import (
    AsynchronousSimulator,
    MinRelayAlgorithm,
    RoundBasedAsyncAlgorithm,
    staggered_crash_schedule,
)
from repro.config import EngineConfig
from repro.core.adversary import GreedyDiameterAdversary, PsiBlockAdversary, TwoAgentAdversary
from repro.core.decision_times import midpoint_decision_round
from repro.core.lower_bounds import (
    alpha_diameter_lower_bound,
    amortized_midpoint_upper_bound,
    deaf_graphs_lower_bound,
    psi_lower_bound,
    round_based_crash_lower_bound,
    round_based_crash_upper_bound,
    two_agent_lower_bound,
)
from repro.exceptions import ConfigError
from repro.execution import run_execution
from repro.execution.metrics import convergence_round, empirical_contraction_rate
from repro.faults import FaultPlan, FaultSpec, as_fault_plan
from repro.graphs.relations import alpha_diameter
from repro.models.standard import deaf_model, psi_model, two_agent_model


def experiment_two_agent(rounds: int = 25) -> Dict[str, object]:
    """Theorem 1: the two-agent adversary forces contraction rate 1/3.

    The default horizon keeps the final diameter well above the float64
    granularity of the limit point; longer horizons stall at ~1e-16 relative
    and bias the fitted rate upward.
    """
    execution = run_execution(TwoAgentThirdsAlgorithm(), [0.0, 1.0], TwoAgentAdversary(), rounds)
    return {
        "name": "two-agent thirds vs adversary",
        "paper": two_agent_lower_bound(),
        "measured": empirical_contraction_rate(execution),
        "rounds": rounds,
    }


def experiment_nonsplit(n: int = 5, rounds: int = 30) -> Dict[str, object]:
    """Theorem 2: the deaf-family adversary halves the midpoint range per round."""
    execution = run_execution(
        MidpointAlgorithm(),
        np.linspace(0.0, 1.0, n),
        GreedyDiameterAdversary(deaf_model(n=n)),
        rounds,
    )
    return {
        "name": f"midpoint vs deaf(K_{n})",
        "paper": deaf_graphs_lower_bound(),
        "measured": empirical_contraction_rate(execution),
        "rounds": rounds,
    }


def experiment_psi_rooted(n: int = 6, phases: int = 12) -> Dict[str, object]:
    """Theorem 3 vs the amortized midpoint upper bound in the Ψ model.

    The measured rate is evaluated at phase boundaries (the algorithm's
    diameter only drops at the end of each ``n - 1`` round phase).
    """
    phase_length = n - 1
    rounds = phases * phase_length
    execution = run_execution(
        AmortizedMidpointAlgorithm(),
        np.linspace(0.0, 1.0, n),
        PsiBlockAdversary(n),
        rounds,
    )
    diameters = execution.diameters()
    start, end = float(diameters[0]), float(diameters[-1])
    measured = (end / start) ** (1.0 / rounds) if start > 0 and end > 0 else 0.0
    return {
        "name": f"amortized midpoint vs Psi(n={n})",
        "paper": psi_lower_bound(n),
        "measured": measured,
        "upper_bound": amortized_midpoint_upper_bound(n),
        "rounds": rounds,
    }


def experiment_alpha_diameter(n: int = 5) -> Dict[str, object]:
    """Theorem 5: the 1/(D+1) bound from the Ψ model's α-diameter."""
    model = psi_model(n)
    diameter_value = alpha_diameter(list(model))
    return {
        "name": f"alpha-diameter of Psi(n={n})",
        "paper": alpha_diameter_lower_bound(diameter_value),
        "measured": diameter_value,
        "note": "measured = D; paper = 1/(D+1) bound",
    }


def experiment_round_based_crashes(
    n: int = 6, f: int = 2, max_time: float = 20.0
) -> Dict[str, object]:
    """Theorem 6 context: async round-based midpoint under staggered crashes."""
    schedule = staggered_crash_schedule(list(range(f)), first_crash_time=0.5)
    simulator = AsynchronousSimulator(
        RoundBasedAsyncAlgorithm(MidpointAlgorithm()),
        np.linspace(0.0, 1.0, n),
        f=f,
        crash_schedule=schedule,
        max_time=max_time,
    )
    execution = simulator.run()
    return {
        "name": f"async rounds midpoint (n={n}, f={f})",
        "paper": round_based_crash_lower_bound(n, f),
        "measured": execution.correct_diameter_at(execution.final_time),
        "upper_bound": round_based_crash_upper_bound(n, f),
        "agreement_time": execution.agreement_time(1e-9),
        "note": "measured = final correct diameter (starts at 1)",
    }


def experiment_minrelay(n: int = 5, f: int = 2, max_time: float = 20.0) -> Dict[str, object]:
    """Theorem 7: MinRelay agrees by time f + 1 despite worst-case crashes."""
    schedule = staggered_crash_schedule(list(range(f)), first_crash_time=0.0)
    simulator = AsynchronousSimulator(
        MinRelayAlgorithm(), np.linspace(0.0, 1.0, n), f=f,
        crash_schedule=schedule, max_time=max_time,
    )
    execution = simulator.run()
    agreement = execution.agreement_time(1e-12)
    return {
        "name": f"MinRelay (n={n}, f={f})",
        "paper": float(f + 1),
        "measured": float("inf") if agreement is None else agreement,
        "note": "agreement time; paper value is the f+1 upper bound",
    }


def experiment_decision_times(
    delta: float = 1.0, epsilon: float = 1e-3, n: int = 4
) -> Dict[str, object]:
    """Decision times: midpoint reaches ε-agreement in ceil(log2(Δ/ε)) rounds."""
    paper_round = midpoint_decision_round(delta, epsilon)
    execution = run_execution(
        MidpointAlgorithm(),
        np.linspace(0.0, delta, n),
        GreedyDiameterAdversary(deaf_model(n=n)),
        rounds=paper_round + 2,
    )
    measured: Optional[int] = convergence_round(execution, epsilon)
    return {
        "name": f"midpoint decision round (delta={delta:g}, eps={epsilon:g})",
        "paper": paper_round,
        "measured": -1 if measured is None else measured,
    }


#: Finite-horizon slack on the fitted rates of the certification sweep.
_SWEEP_TOLERANCE = 0.15


def _plain(value: object) -> object:
    """Coerce numpy scalars to JSON-native Python scalars."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _json_row(row: Dict[str, object]) -> Dict[str, object]:
    return {key: _plain(value) for key, value in row.items()}


def certification_sweep_rows(
    sizes: Sequence[int] = (4, 6),
    rounds: int = 24,
    suffix_rounds: int = 40,
    exploration_depth: int = 0,
    use_batch: Optional[bool] = None,
    ensemble_size: Optional[int] = None,
    ensemble_spread: float = 0.05,
    seed: int = 0,
    faults: Union[FaultSpec, FaultPlan, None] = None,
) -> List[Dict[str, object]]:
    """JSON-safe descriptors of the certification sweep's grid rows.

    Each descriptor is a self-contained, serializable job description:
    :func:`run_certification_row` reconstructs the row's algorithm, model
    and proof adversary from it and executes the measurement, so the
    service layer can dispatch rows to worker processes and journal them
    by content hash.  ``run_certification_sweep(...)`` is exactly
    ``[run_certification_row(r) for r in certification_sweep_rows(...)]``.

    The fault plan is normalized here — resolved under the ambient
    :class:`~repro.config.EngineConfig` seed and, as in the sweep, relaxed
    to ``enforce_model=False`` (the committed schedules are minimal
    ``N_A`` members already, so replayed drops legitimately leave the
    model) — and embedded in its serialized form.
    """
    fault_plan = as_fault_plan(faults)
    if fault_plan is not None:
        fault_plan = _dc_replace(fault_plan, enforce_model=False)
    common = {
        "suffix_rounds": int(suffix_rounds),
        "exploration_depth": int(exploration_depth),
        "use_batch": use_batch,
        "ensemble_size": None if ensemble_size is None else int(ensemble_size),
        "ensemble_spread": float(ensemble_spread),
        "seed": int(seed),
        "faults": None if fault_plan is None else fault_plan.to_dict(),
    }
    rows: List[Dict[str, object]] = [
        {"theorem": "thm1", "n": 2, "rounds": int(rounds), **common}
    ]
    for n in sizes:
        rows.append({"theorem": "thm2", "n": int(n), "rounds": int(rounds), **common})
    for n in sizes:
        if n < 4:
            continue
        phase_rounds = max(rounds, 2 * (n - 1))
        rows.append(
            {"theorem": "thm3", "n": int(n), "rounds": int(phase_rounds), **common}
        )
    return rows


def _certify_faulted_replay(
    row: Dict[str, object],
    algorithm,
    model,
    initial_values,
    round_graphs,
    descriptor: Dict[str, object],
    fault_plan: FaultPlan,
) -> None:
    """Replay a committed schedule under ``fault_plan`` and extend ``row``.

    ``round_graphs`` is round-major: entry ``t`` is either one graph
    (single scenario) or the length-``B`` per-scenario graphs of round
    ``t + 1`` — exactly the two shapes :class:`repro.api.Study` accepts
    for ``graphs=``.
    """
    from repro.api import CertifySpec, Study

    result = Study(
        algorithm=algorithm,
        initial_values=initial_values,
        graphs=round_graphs,
        model=model,
        certify=CertifySpec(
            suffix_rounds=descriptor["suffix_rounds"],
            exploration_depth=descriptor["exploration_depth"],
            use_batch=descriptor["use_batch"],
        ),
        faults=fault_plan,
    ).run()
    row["faulted"] = True
    if result.is_ensemble:
        lower = [c.rate_interval[0] for c in result.certificates]
        upper = [c.rate_interval[1] for c in result.certificates]
        row["faulted_output_rate_max"] = max(upper)
        row["faulted_valency_lower_rate_min"] = min(lower)
    else:
        lower_rate, upper_rate = result.certificates.rate_interval
        row["faulted_output_rate"] = upper_rate
        row["faulted_valency_lower_rate"] = lower_rate


def _certify_single_row(
    descriptor: Dict[str, object],
    name: str,
    algorithm,
    model,
    adversary,
    initial_values,
    bound: float,
    n: int,
    total_rounds: int,
    fault_plan: Optional[FaultPlan],
) -> Dict[str, object]:
    from repro.core.contraction import certified_rate_interval, measure_contraction_rate
    from repro.core.valency import ValencyEstimator

    measurement = measure_contraction_rate(
        algorithm, model, adversary, initial_values, total_rounds
    )
    estimator = ValencyEstimator(
        algorithm,
        model,
        suffix_rounds=descriptor["suffix_rounds"],
        exploration_depth=descriptor["exploration_depth"],
        use_batch=descriptor["use_batch"],
    )
    trace = estimator.certify_ensemble(measurement.execution.record).lower_diameter[:, 0].tolist()
    lower_rate, upper_rate = certified_rate_interval(measurement, trace)
    row = {
        "name": name,
        "n": n,
        "rounds": total_rounds,
        "paper": bound,
        "output_rate": upper_rate,
        "valency_lower_rate": lower_rate,
        "measured": upper_rate,
        "certified": lower_rate <= bound + _SWEEP_TOLERANCE
        and upper_rate >= bound - _SWEEP_TOLERANCE,
    }
    if fault_plan is not None:
        _certify_faulted_replay(
            row,
            algorithm,
            model,
            initial_values,
            list(measurement.execution.graphs),
            descriptor,
            fault_plan,
        )
    return row


def _certify_ensemble_row(
    descriptor: Dict[str, object],
    name: str,
    algorithm,
    model,
    adversary,
    initial_values,
    bound: float,
    n: int,
    total_rounds: int,
    fault_plan: Optional[FaultPlan],
) -> Dict[str, object]:
    from repro.api import CertifySpec, Study

    ensemble_size = descriptor["ensemble_size"]
    base = np.asarray(initial_values, dtype=float).reshape(n, -1)
    rng = np.random.default_rng(descriptor["seed"])
    scale = descriptor["ensemble_spread"] * max(float(base.max() - base.min()), 1.0)
    stacked = np.stack(
        [base] + [
            base + rng.uniform(-scale, scale, size=base.shape)
            for _ in range(ensemble_size - 1)
        ]
    )
    result = Study(
        algorithm=algorithm,
        initial_values=stacked,
        adversary=adversary,
        rounds=total_rounds,
        model=model,
        certify=CertifySpec(
            suffix_rounds=descriptor["suffix_rounds"],
            exploration_depth=descriptor["exploration_depth"],
            use_batch=descriptor["use_batch"],
        ),
    ).run()
    lower_rates = [c.rate_interval[0] for c in result.certificates]
    upper_rates = [c.rate_interval[1] for c in result.certificates]
    certified = all(
        lower <= bound + _SWEEP_TOLERANCE and upper >= bound - _SWEEP_TOLERANCE
        for lower, upper in zip(lower_rates, upper_rates)
    )
    row = {
        "name": name,
        "n": n,
        "rounds": total_rounds,
        "ensemble_B": ensemble_size,
        "paper": bound,
        "output_rate": upper_rates[0],
        "output_rate_max": max(upper_rates),
        "valency_lower_rate": lower_rates[0],
        "valency_lower_rate_min": min(lower_rates),
        "measured": max(upper_rates),
        "certified": certified,
    }
    if fault_plan is not None:
        _certify_faulted_replay(
            row,
            algorithm,
            model,
            stacked,
            result.execution.round_choices,
            descriptor,
            fault_plan,
        )
    return row


def run_certification_row(descriptor: Dict[str, object]) -> Dict[str, object]:
    """Execute one :func:`certification_sweep_rows` descriptor.

    Rebuilds the row's algorithm, model and proof adversary from the
    descriptor's theorem tag, runs the contraction measurement and the
    valency certification (single execution or perturbed ensemble), and
    returns the sweep's row dictionary with every value JSON-native — the
    unit of work :func:`repro.service.orchestrator.run_certification_sweep_service`
    dispatches to workers and journals.
    """
    theorem = descriptor["theorem"]
    n = descriptor["n"]
    total_rounds = descriptor["rounds"]
    fault_plan = (
        None
        if descriptor["faults"] is None
        else FaultPlan.from_dict(descriptor["faults"])
    )
    if theorem == "thm1":
        name = "thm1: two-agent thirds vs {H0,H1,H2}"
        algorithm = TwoAgentThirdsAlgorithm()
        model = two_agent_model()
        adversary = TwoAgentAdversary()
        initial_values = [0.0, 1.0]
        bound = two_agent_lower_bound()
    elif theorem == "thm2":
        name = f"thm2: midpoint vs deaf(K_{n})"
        algorithm = MidpointAlgorithm()
        model = deaf_model(n=n)
        adversary = GreedyDiameterAdversary(model)
        initial_values = np.linspace(0.0, 1.0, n)
        bound = deaf_graphs_lower_bound()
    elif theorem == "thm3":
        name = f"thm3: amortized midpoint vs Psi(n={n})"
        algorithm = AmortizedMidpointAlgorithm()
        model = psi_model(n)
        adversary = PsiBlockAdversary(n)
        initial_values = np.linspace(0.0, 1.0, n)
        bound = psi_lower_bound(n)
    else:
        raise ConfigError(f"unknown sweep-row theorem tag {theorem!r}")
    certify = (
        _certify_single_row
        if descriptor["ensemble_size"] is None
        else _certify_ensemble_row
    )
    row = certify(
        descriptor,
        name,
        algorithm,
        model,
        adversary,
        initial_values,
        bound,
        n,
        total_rounds,
        fault_plan,
    )
    if theorem == "thm3":
        row["alpha_diameter"] = model.alpha_diameter()
        row["upper_bound"] = amortized_midpoint_upper_bound(n)
    return _json_row(row)


def run_certification_sweep(
    sizes: Sequence[int] = (4, 6),
    rounds: int = 24,
    suffix_rounds: int = 40,
    exploration_depth: int = 0,
    use_batch: Optional[bool] = None,
    config: Optional[EngineConfig] = None,
    ensemble_size: Optional[int] = None,
    ensemble_spread: float = 0.05,
    seed: int = 0,
    faults: Union[FaultSpec, FaultPlan, None] = None,
) -> List[Dict[str, object]]:
    """Tightness certificates for Theorems 1–3 over a grid of system sizes.

    For every (algorithm, adversarial model) pair of the paper's headline
    results the sweep runs the proof adversary, fits the output-diameter
    contraction rate, estimates the valency-diameter trace through the
    batched :class:`~repro.core.valency.ValencyEstimator`, and reports the
    certified rate interval next to the paper's bound — the executable
    counterpart of the Table-1 tightness claims.  Grid rows:

    * **Theorem 1** — two-agent thirds vs the ``{H0, H1, H2}`` adversary
      (fixed ``n = 2``, bound 1/3);
    * **Theorem 2** — midpoint vs the greedy ``deaf(K_n)`` adversary for each
      ``n`` in ``sizes`` (bound 1/2); and
    * **Theorem 3** — amortized midpoint vs the Ψ-block adversary for each
      ``n >= 4`` in ``sizes`` (bound computed per ``n``), with the α-diameter
      of the Ψ model (packed relation kernel) recorded alongside.

    Each row carries ``paper`` (the lower bound), ``output_rate`` (measured
    upper estimate), ``valency_lower_rate`` (the fitted decay of the valency
    trace, a certified lower estimate), and ``certified`` (whether the
    interval brackets the bound up to the tolerance).  ``use_batch=False``
    forces every estimate through the per-sequence reference loops (used by
    the equivalence tests; bit-for-bit identical results).  ``config``
    scopes the whole sweep inside an
    :class:`~repro.config.EngineConfig` block, consolidating all engine
    knobs in one place.

    With ``ensemble_size=B`` every grid row certifies a whole ``(B, n, d)``
    *ensemble* in one call instead of a single execution: ``B`` perturbed
    initial-value scenarios (deterministic ``seed``, relative spread
    ``ensemble_spread``) run against the row's proof adversary through
    :class:`repro.api.Study` with per-scenario configuration snapshots, and
    the certification engine stacks all scenarios' sampled futures into
    single ensemble passes.  Rows then carry ``ensemble_B``, the per-scenario
    rate extremes (``output_rate_max``, ``valency_lower_rate_min``) and
    ``certified`` = every scenario's interval brackets the bound.

    With ``faults=`` each row additionally certifies the same contest *under
    the fault plan*: the adversary runs fault-free (adversaries and fault
    plans cannot adapt to each other — see
    :func:`repro.execution.batch.run_adversarial_ensemble`), its committed
    per-round graph schedule is then **replayed** as a faulted graphs-route
    :class:`~repro.api.Study` with ``enforce_model=False`` (the committed
    graphs are already minimal ``N_A`` members, so extra message drops
    legitimately leave the model — the point of the robustness measurement),
    and the faulted certificates land in ``faulted_output_rate`` /
    ``faulted_valency_lower_rate`` (ensembles: ``..._max`` / ``..._min``)
    next to the fault-free ones.

    The sweep factors into serializable units: it is literally
    ``[run_certification_row(r) for r in certification_sweep_rows(...)]``,
    which is what lets
    :func:`repro.service.orchestrator.run_certification_sweep_service`
    dispatch the identical rows as crash-safe worker jobs.
    """
    if config is not None:
        with config:
            return run_certification_sweep(
                sizes=sizes,
                rounds=rounds,
                suffix_rounds=suffix_rounds,
                exploration_depth=exploration_depth,
                use_batch=use_batch,
                config=None,
                ensemble_size=ensemble_size,
                ensemble_spread=ensemble_spread,
                seed=seed,
                faults=faults,
            )
    descriptors = certification_sweep_rows(
        sizes=sizes,
        rounds=rounds,
        suffix_rounds=suffix_rounds,
        exploration_depth=exploration_depth,
        use_batch=use_batch,
        ensemble_size=ensemble_size,
        ensemble_spread=ensemble_spread,
        seed=seed,
        faults=faults,
    )
    return [run_certification_row(descriptor) for descriptor in descriptors]


def experiment_solvability() -> Dict[str, object]:
    """Solvability checks on the standard models (asymptotic yes, exact no)."""
    models = [two_agent_model(), deaf_model(n=4), psi_model(5)]
    asymptotic = [model.asymptotic_consensus_solvable() for model in models]
    exact = [model.exact_consensus_solvable() for model in models]
    return {
        "name": "solvability of standard models",
        "paper": True,
        "measured": all(asymptotic) and not any(exact),
        "note": "asymptotic solvable in all three, exact in none",
    }
