"""Contraction-rate measurement.

Section 3 defines the contraction rate of algorithm ``A`` in network model
``N`` as ``sup_E limsup_t (δ_N(C_t))^(1/t)``.  This module measures two
empirical counterparts on finite executions:

* the **output-diameter rate** — the geometric decay of ``Δ(y(t))``, which
  upper-bounds the valency diameter for convex-combination algorithms and is
  the quantity the matching upper-bound proofs in [9] control; and
* the **valency-diameter trace** — lower estimates of ``δ_N(C_t)`` along an
  execution obtained by suffix sampling (:class:`~repro.core.valency.ValencyEstimator`),
  which is the quantity the lower-bound proofs control.

Used together under the proof adversaries they certify tightness: the
measured output rate of the optimal algorithm matches the theoretical lower
bound and the measured valency trace never decays faster than the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.algorithms.base import Algorithm
from repro.core.valency import ValencyEstimator
from repro.execution.batch import run_pattern_ensemble
from repro.execution.engine import run_execution
from repro.execution.execution import Execution
from repro.execution.metrics import empirical_contraction_rate
from repro.models.network_model import NetworkModel
from repro.models.patterns import CommunicationPattern
from repro.types import ValuesLike


@dataclass
class ContractionMeasurement:
    """Result of measuring an algorithm's contraction behaviour on one execution.

    Attributes
    ----------
    algorithm_name / model_name:
        Identification of the measured combination.
    rounds:
        Number of executed rounds.
    output_rate:
        Fitted geometric decay rate of the output diameter ``Δ(y(t))``.
    per_round_factors:
        The individual factors ``Δ(y(t)) / Δ(y(t-1))``.
    execution:
        The underlying execution record (for further analysis or plotting).
    """

    algorithm_name: str
    model_name: str
    rounds: int
    output_rate: float
    per_round_factors: np.ndarray
    execution: Execution

    @property
    def worst_round_factor(self) -> float:
        """The largest single-round contraction factor observed."""
        finite = self.per_round_factors[~np.isnan(self.per_round_factors)]
        return float(finite.max()) if finite.size else float("nan")


def measure_contraction_rate(
    algorithm: Algorithm,
    model: NetworkModel,
    pattern: CommunicationPattern,
    initial_values: ValuesLike,
    rounds: int,
    skip_rounds: int = 0,
) -> ContractionMeasurement:
    """Run ``algorithm`` under ``pattern`` and fit its output-diameter contraction rate.

    ``skip_rounds`` ignores an initial transient (useful for phase-based
    algorithms whose diameter only drops at phase boundaries).
    """
    execution = run_execution(algorithm, initial_values, pattern, rounds)
    diameters = execution.diameters()
    factors = np.full(len(diameters) - 1, np.nan)
    for t in range(1, len(diameters)):
        if diameters[t - 1] > 0:
            factors[t - 1] = diameters[t] / diameters[t - 1]
    rate = empirical_contraction_rate(execution, skip_rounds=skip_rounds)
    return ContractionMeasurement(
        algorithm_name=algorithm.name,
        model_name=model.name or repr(model),
        rounds=rounds,
        output_rate=rate,
        per_round_factors=factors,
        execution=execution,
    )


def valency_contraction_trace(
    algorithm: Algorithm,
    model: NetworkModel,
    pattern: CommunicationPattern,
    initial_values: ValuesLike,
    rounds: int,
    suffix_rounds: int = 60,
    exploration_depth: int = 0,
    estimator: Optional[ValencyEstimator] = None,
    use_batch: Optional[bool] = None,
) -> List[float]:
    """Lower estimates of ``δ_N(C_t)`` for ``t = 0 .. rounds`` along one execution.

    This is the executable counterpart of the quantity the lower-bound proofs
    track: under the proof adversaries the returned sequence decays no faster
    than ``bound^t · δ_N(C_0)``.

    With ``use_batch`` (``None`` resolves through the active
    :class:`~repro.config.EngineConfig`, batched by default) the per-round
    valency estimates run through the estimator's stacked-ensemble path —
    for round-invariant algorithms (the stateful amortized midpoint
    included) the futures of *every* recorded configuration are evaluated
    as one ensemble per exploration depth, in ``scenario_chunk``-bounded
    groups — and are bit-for-bit equal to the ``use_batch=False`` reference
    loop.
    """
    execution = run_execution(algorithm, initial_values, pattern, rounds)
    estimator = estimator or ValencyEstimator(
        algorithm,
        model,
        suffix_rounds=suffix_rounds,
        exploration_depth=exploration_depth,
        use_batch=use_batch,
    )
    return estimator.trace(execution.configurations).lower_diameter.tolist()


def valency_contraction_trace_ensemble(
    algorithm: Algorithm,
    model: NetworkModel,
    patterns: Union[CommunicationPattern, Sequence[CommunicationPattern]],
    initial_values: Union[np.ndarray, Sequence[ValuesLike]],
    rounds: int,
    suffix_rounds: int = 60,
    exploration_depth: int = 0,
    estimator: Optional[ValencyEstimator] = None,
    use_batch: Optional[bool] = None,
    record_every: int = 1,
) -> np.ndarray:
    """Per-scenario valency-diameter traces along a whole ``(B, n, d)`` ensemble.

    The ensemble-scale counterpart of :func:`valency_contraction_trace`: runs
    ``B`` scenarios (stacked initial values against one shared pattern or one
    pattern per scenario) with recorded states (``record_states=True``), then
    estimates every scenario's ``δ_N(C_t)`` trace through
    :meth:`~repro.core.valency.ValencyEstimator.certify_ensemble` — all
    scenarios' sampled futures stacked into single ensemble passes.  Returns
    a ``(B, R)`` array (one row per scenario, one column per recorded round),
    with each row bit-for-bit identical to the single-scenario
    :func:`valency_contraction_trace` of that scenario.
    """
    ensemble = run_pattern_ensemble(
        algorithm,
        initial_values,
        patterns,
        rounds,
        record_every=record_every,
        record_states=True,
    )
    estimator = estimator or ValencyEstimator(
        algorithm,
        model,
        suffix_rounds=suffix_rounds,
        exploration_depth=exploration_depth,
        use_batch=use_batch,
    )
    return np.ascontiguousarray(estimator.certify_ensemble(ensemble).lower_diameter.T)


def fit_trace_rate(valency_trace: List[float]) -> float:
    """Geometric decay rate fitted to a valency-diameter trace.

    Fits ``(trace[last] / trace[first]) ** (1 / span)`` over the positive
    span of the trace — the certified *lower* estimate of the contraction
    rate, since the trace under-approximates ``δ_N(C_t)``.  Returns 0.0 when
    fewer than two positive entries exist.
    """
    trace = np.asarray(valency_trace, dtype=float)
    positive = trace > 0
    if positive.sum() < 2:
        return 0.0
    first = int(np.argmax(positive))
    last = int(len(trace) - 1 - np.argmax(positive[::-1]))
    span = last - first
    return float((trace[last] / trace[first]) ** (1.0 / span)) if span > 0 else 0.0


def certified_rate_interval(
    measurement: ContractionMeasurement,
    valency_trace: List[float],
) -> tuple:
    """A (lower, upper) pair of contraction-rate estimates for this execution.

    The lower end fits the valency-diameter trace (which under-approximates
    ``δ_N(C_t)``), the upper end is the output-diameter rate (which
    over-approximates it for convex-combination algorithms).  They are two
    separate estimates over different spans, not a well-ordered interval:
    :func:`fit_trace_rate` spans the trace's first to last positive entry,
    the output rate the output diameters from the first recorded round to
    the last, so it includes the first round's drop.  The lower end can
    exceed the upper: midpoint under the greedy adversary on
    ``crash_model(4, 1)`` gives ``(0.500, 0.483)``.
    """
    return (fit_trace_rate(valency_trace), measurement.output_rate)
