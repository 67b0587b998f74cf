"""Convergence metrics on executions.

The quantities defined in Section 3 are all derived from the per-round output
diameters ``Δ(y(t))``:

* :func:`diameter_history` — the sequence ``Δ(y(0)), Δ(y(1)), ...``;
* :func:`empirical_contraction_rate` — a geometric-decay fit, i.e. the
  empirical counterpart of the contraction rate
  ``sup_E limsup_t (δ(C_t))^(1/t)``;
* :func:`convergence_round` — the first round where the diameter drops below
  a tolerance (the decision time of the induced approximate consensus
  algorithm);
* :func:`is_valid_execution` — checks the Validity clause.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.execution.execution import Execution


def diameter_history(execution: Execution) -> np.ndarray:
    """``Δ(y(t))`` for every recorded configuration of the execution."""
    return execution.diameters()


def empirical_contraction_rate(
    execution: Execution,
    skip_rounds: int = 0,
    floor: float = 1e-300,
) -> float:
    """Geometric contraction rate fitted from the execution's diameter history.

    Returns ``(Δ(y(T)) / Δ(y(s)))^(1/(T - s))`` where ``s = skip_rounds``;
    this equals the exact per-round factor when the decay is geometric (as it
    is for the optimal algorithms under the proof adversaries) and is the
    natural estimator of ``limsup_t (δ(C_t))^(1/t)`` otherwise.

    Returns 0.0 when the final diameter is (numerically) zero, matching the
    convention that exact agreement corresponds to contraction rate 0.
    """
    return rate_from_diameters(execution.diameters(), skip_rounds, floor)


def rate_from_diameters(
    diameters: Sequence[float], skip_rounds: int = 0, floor: float = 1e-300
) -> float:
    """:func:`empirical_contraction_rate` of a recorded diameter history."""
    if len(diameters) <= skip_rounds + 1:
        raise ValueError("execution is too short to estimate a contraction rate")
    start = float(diameters[skip_rounds])
    end = float(diameters[-1])
    horizon = len(diameters) - 1 - skip_rounds
    if start <= floor:
        return 0.0
    if end <= floor:
        return 0.0
    return float((end / start) ** (1.0 / horizon))


def per_round_contraction_factors(execution: Execution) -> np.ndarray:
    """The round-by-round factors ``Δ(y(t)) / Δ(y(t-1))`` (NaN where undefined)."""
    diameters = execution.diameters()
    factors = np.full(len(diameters) - 1, np.nan)
    for t in range(1, len(diameters)):
        if diameters[t - 1] > 0:
            factors[t - 1] = diameters[t] / diameters[t - 1]
    return factors


def convergence_round(execution: Execution, tolerance: float) -> Optional[int]:
    """First recorded round ``t`` with ``Δ(y(t)) <= tolerance``, or None.

    This is the earliest round at which all agents could decide while
    satisfying ε-Agreement with ``ε = tolerance`` (given Validity of the
    outputs), i.e. the decision time of the induced approximate consensus
    algorithm.
    """
    for config in execution.configurations:
        if config.output_diameter() <= tolerance:
            return config.round_number
    return None


def is_valid_execution(execution: Execution, tol: float = 1e-9) -> bool:
    """Whether all outputs stay within the bounding box of the initial values."""
    return execution.validity_holds(tol=tol)


def agreement_error(execution: Execution) -> float:
    """The final output diameter (how far from agreement the execution ended)."""
    return execution.final_diameter()
