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

    Returns ``(Δ(y(T)) / Δ(y(s)))^(1/(T - s))`` where ``s`` is the first
    recorded round at or after ``skip_rounds``; this equals the exact
    per-round factor when the decay is geometric (as it is for the optimal
    algorithms under the proof adversaries) and is the natural estimator of
    ``limsup_t (δ(C_t))^(1/t)`` otherwise.

    Returns 0.0 when the final diameter is (numerically) zero, matching the
    convention that exact agreement corresponds to contraction rate 0.
    """
    return rate_from_diameters(
        execution.diameters(), skip_rounds, floor, recorded_rounds=execution.recorded_rounds
    )


def rate_from_diameters(
    diameters: Sequence[float],
    skip_rounds: int = 0,
    floor: float = 1e-300,
    recorded_rounds: Optional[Sequence[int]] = None,
) -> float:
    """:func:`empirical_contraction_rate` of a recorded diameter history.

    ``recorded_rounds`` are the entries' round numbers (default ``0, 1, 2,
    ...``).  The exponent is one over the rounds spanned, not the entries,
    so a record kept every ``k`` rounds fits the same per-round rate.
    """
    rounds = np.arange(len(diameters)) if recorded_rounds is None else np.asarray(recorded_rounds)
    first = int(np.searchsorted(rounds, skip_rounds))
    if len(diameters) <= first + 1:
        raise ValueError("execution is too short to estimate a contraction rate")
    start, end = float(diameters[first]), float(diameters[-1])
    if start <= floor or end <= floor:
        return 0.0
    return float((end / start) ** (1.0 / int(rounds[-1] - rounds[first])))


def convergence_round(execution: Execution, tolerance: float) -> Optional[int]:
    """First recorded round ``t`` with ``Δ(y(t)) <= tolerance``, or None.

    This is the earliest round at which all agents could decide while
    satisfying ε-Agreement with ``ε = tolerance`` (given Validity of the
    outputs), i.e. the decision time of the induced approximate consensus
    algorithm.
    """
    hit = int(execution.record.convergence_rounds(tolerance)[0])
    return None if hit < 0 else hit


def is_valid_execution(execution: Execution, tol: float = 1e-9) -> bool:
    """Whether all outputs stay within the bounding box of the initial values."""
    return execution.validity_holds(tol=tol)
