"""Decision-time bounds for approximate consensus (Section 9).

Theorems 8–11 translate the contraction-rate lower bounds into lower bounds
on the number of rounds any approximate consensus algorithm needs before all
agents may decide, as a function of the initial diameter bound ``Δ`` and the
tolerance ``ε``:

* ``n = 2``, model ⊇ {H0, H1, H2}:       ``log_3(Δ/ε)``            (Theorem 8)
* ``n ≥ 3``, model ⊇ deaf(G):            ``log_2(Δ/ε)``            (Theorem 9)
* ``n ≥ 4``, model ⊇ {Ψ_i}:              ``(n-2)·log_2(Δ/ε)``      (Theorem 10)
* exact consensus unsolvable, α-diam D:  ``log_{D+1}(Δ/(εn))``     (Theorem 11)

The module also provides the matching *decision rounds* of the deciding
versions of the optimal algorithms of [Charron-Bost et al., ICALP'16]
(Algorithm 1, midpoint, amortized midpoint), which the Section 9 discussion
shows to be optimal (up to the factor ``(n-1)/(n-2)`` in the rooted case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ModelError
from repro.models.network_model import NetworkModel

#: Guard against floating-point round-off when Δ/ε is an exact power of the base.
_CEIL_SLACK = 1e-12


def _ratio(delta: float, epsilon: float) -> float:
    if delta <= 0:
        raise ModelError(f"the initial diameter bound Δ must be positive, got {delta}")
    if epsilon <= 0:
        raise ModelError(f"the tolerance ε must be positive, got {epsilon}")
    return delta / epsilon


def _ceil_log(value: float, base: float) -> int:
    if value <= 1.0:
        return 0
    return max(0, math.ceil(math.log(value) / math.log(base) - _CEIL_SLACK))


# --------------------------------------------------------------------------- #
# Lower bounds (Theorems 8–11)
# --------------------------------------------------------------------------- #

def two_agent_decision_time_lower_bound(delta: float, epsilon: float) -> float:
    """Theorem 8: any approximate consensus algorithm for n = 2 needs ≥ log_3(Δ/ε) rounds."""
    return math.log(_ratio(delta, epsilon)) / math.log(3.0)


def deaf_decision_time_lower_bound(delta: float, epsilon: float) -> float:
    """Theorem 9: models containing deaf(G) need ≥ log_2(Δ/ε) rounds (n ≥ 3)."""
    return math.log2(_ratio(delta, epsilon))


def psi_decision_time_lower_bound(n: int, delta: float, epsilon: float) -> float:
    """Theorem 10: models containing the Ψ graphs need ≥ (n-2)·log_2(Δ/ε) rounds (n ≥ 4)."""
    if n < 4:
        raise ModelError(f"Theorem 10 requires n >= 4 agents, got n={n}")
    return (n - 2) * math.log2(_ratio(delta, epsilon))


def general_decision_time_lower_bound(
    n: int, alpha_diameter_value: float, delta: float, epsilon: float
) -> float:
    """Theorem 11: with α-diameter D, any algorithm needs ≥ log_{D+1}(Δ/(εn)) rounds."""
    if alpha_diameter_value == float("inf"):
        return 0.0
    ratio = delta / (epsilon * n)
    if ratio <= 1.0:
        return 0.0
    return math.log(ratio) / math.log(alpha_diameter_value + 1.0)


# --------------------------------------------------------------------------- #
# Matching decision rounds of the optimal algorithms
# --------------------------------------------------------------------------- #

def two_agent_decision_round(delta: float, epsilon: float) -> int:
    """Rounds after which Algorithm 1 may decide: ⌈log_3(Δ/ε)⌉ (optimal by Theorem 8)."""
    return _ceil_log(_ratio(delta, epsilon), 3.0)


def midpoint_decision_round(delta: float, epsilon: float) -> int:
    """Rounds after which the midpoint algorithm may decide in non-split models: ⌈log_2(Δ/ε)⌉."""
    return _ceil_log(_ratio(delta, epsilon), 2.0)


def amortized_midpoint_decision_round(n: int, delta: float, epsilon: float) -> int:
    """Rounds after which the amortized midpoint algorithm may decide in rooted models.

    One phase of ``n - 1`` rounds halves the range, so
    ``(n-1)·⌈log_2(Δ/ε)⌉`` rounds suffice — within a multiplicative factor of
    ``(n-1)/(n-2)`` of the Theorem 10 lower bound.
    """
    if n < 2:
        raise ModelError(f"need n >= 2 agents, got n={n}")
    return (n - 1) * _ceil_log(_ratio(delta, epsilon), 2.0)


# --------------------------------------------------------------------------- #
# Dispatcher
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class DecisionTimeBound:
    """A decision-time lower bound together with its provenance."""

    rounds: float
    theorem: str
    reason: str


def decision_time_lower_bound(
    model: NetworkModel, delta: float, epsilon: float
) -> DecisionTimeBound:
    """The strongest applicable decision-time lower bound for ``model``.

    Mirrors :func:`repro.core.lower_bounds.contraction_rate_lower_bound`,
    returning the bound in *rounds* for the given ``Δ`` and ``ε``.
    """
    from repro.core.lower_bounds import contraction_rate_lower_bound  # avoid import cycle

    bound = contraction_rate_lower_bound(model)
    if bound.value <= 0.0:
        return DecisionTimeBound(
            rounds=0.0,
            theorem=bound.theorem,
            reason="no positive contraction-rate bound applies, so no decision-time bound follows",
        )
    if bound.theorem == "Theorem 1":
        return DecisionTimeBound(
            rounds=two_agent_decision_time_lower_bound(delta, epsilon),
            theorem="Theorem 8",
            reason="n = 2 and the model contains H0, H1, H2",
        )
    if bound.theorem == "Theorem 2":
        return DecisionTimeBound(
            rounds=deaf_decision_time_lower_bound(delta, epsilon),
            theorem="Theorem 9",
            reason="the model contains a deaf family",
        )
    if bound.theorem == "Theorem 3":
        return DecisionTimeBound(
            rounds=psi_decision_time_lower_bound(model.n, delta, epsilon),
            theorem="Theorem 10",
            reason="the model contains the Ψ graphs",
        )
    # Theorem 5 → Theorem 11: recover D from the bound value 1/(D+1).
    alpha_diameter_value = 1.0 / bound.value - 1.0
    return DecisionTimeBound(
        rounds=general_decision_time_lower_bound(model.n, alpha_diameter_value, delta, epsilon),
        theorem="Theorem 11",
        reason=bound.reason,
    )


def optimal_decision_round(
    model: NetworkModel, delta: float, epsilon: float
) -> Optional[int]:
    """The decision round of the best known algorithm for ``model``, if one applies.

    Returns ``None`` when none of the paper's algorithms matches the model
    family (the caller should then pick an algorithm and a round manually).
    """
    model_set = set(model.graphs)
    from repro.graphs.families import psi_family, two_agent_graphs  # local to avoid heavy import

    if model.n == 2 and all(h in model_set for h in two_agent_graphs()):
        return two_agent_decision_round(delta, epsilon)
    if model.is_nonsplit_model():
        return midpoint_decision_round(delta, epsilon)
    if model.n >= 4 and all(psi in model_set for psi in psi_family(model.n)):
        return amortized_midpoint_decision_round(model.n, delta, epsilon)
    if model.is_rooted_model():
        return amortized_midpoint_decision_round(model.n, delta, epsilon)
    return None
