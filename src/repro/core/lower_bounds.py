"""Closed-form contraction-rate bounds (Table 1) and the model classifier.

The module collects every lower bound proved in the paper and every matching
upper bound quoted from [Charron-Bost et al., ICALP'16]:

===============================  =====================  ==========================
network model                    lower bound            upper bound (algorithm)
===============================  =====================  ==========================
n = 2, ⊇ {H0, H1, H2}            1/3 (Theorem 1)        1/3 (Algorithm 1)
n ≥ 3, ⊇ deaf(G)                 1/2 (Theorem 2)        1/2 (midpoint, non-split)
n ≥ 4, ⊇ {Ψ_0, Ψ_1, Ψ_2}         (1/2)^(1/(n-2)) (T.3)  (1/2)^(1/(n-1)) (amortized)
exact consensus unsolvable       1/(D+1) (Theorem 5)    —
async rounds, f < n/2 crashes    1/(⌈n/f⌉+1) (T.6)      1/(⌈n/f⌉-1) (Fekete)
async, not round-based           0 (trivial)            0 (MinRelay, Theorem 7)
===============================  =====================  ==========================

:func:`contraction_rate_lower_bound` classifies an arbitrary
:class:`~repro.models.network_model.NetworkModel` and returns the strongest
applicable bound together with the theorem that provides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exceptions import ModelError
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.families import deaf_family, psi_family, two_agent_graphs
from repro.graphs.relations import alpha_diameter
from repro.models.network_model import NetworkModel


# --------------------------------------------------------------------------- #
# Closed-form bounds
# --------------------------------------------------------------------------- #

def two_agent_lower_bound() -> float:
    """Theorem 1: contraction rate ≥ 1/3 for any algorithm when n = 2 and N ⊇ {H0, H1, H2}."""
    return 1.0 / 3.0


def two_agent_upper_bound() -> float:
    """Algorithm 1 achieves contraction rate 1/3 for n = 2 (matching Theorem 1)."""
    return 1.0 / 3.0


def deaf_graphs_lower_bound() -> float:
    """Theorem 2: contraction rate ≥ 1/2 for n ≥ 3 when N contains deaf(G) for some G."""
    return 0.5


def midpoint_upper_bound() -> float:
    """The midpoint algorithm achieves contraction rate 1/2 in non-split models."""
    return 0.5


def psi_lower_bound(n: int) -> float:
    """Theorem 3: contraction rate ≥ (1/2)^(1/(n-2)) when N contains the Ψ graphs (n ≥ 4)."""
    if n < 4:
        raise ModelError(f"the Ψ lower bound requires n >= 4 agents, got n={n}")
    return 0.5 ** (1.0 / (n - 2))


def amortized_midpoint_upper_bound(n: int) -> float:
    """The amortized midpoint algorithm achieves (1/2)^(1/(n-1)) in rooted models (n ≥ 2)."""
    if n < 2:
        raise ModelError(f"need n >= 2 agents, got n={n}")
    return 0.5 ** (1.0 / (n - 1))


def alpha_diameter_lower_bound(alpha_diameter_value: float) -> float:
    """Theorem 5: contraction rate ≥ 1/(D+1) where D is the α-diameter.

    ``D = inf`` yields the trivial bound 0.
    """
    if alpha_diameter_value == float("inf"):
        return 0.0
    if alpha_diameter_value < 1:
        raise ModelError(f"the α-diameter is at least 1, got {alpha_diameter_value}")
    return 1.0 / (alpha_diameter_value + 1.0)


def round_based_crash_lower_bound(n: int, f: int) -> float:
    """Theorem 6: asynchronous round-based algorithms with f < n/2 crashes: ≥ 1/(⌈n/f⌉+1)."""
    _check_crash_parameters(n, f, require_minority=True)
    return 1.0 / (math.ceil(n / f) + 1)


def round_based_crash_upper_bound(n: int, f: int) -> float:
    """Fekete's asynchronous algorithm achieves ≤ 1/(⌈n/f⌉-1) (Table 1, right column)."""
    _check_crash_parameters(n, f, require_minority=True)
    return 1.0 / (math.ceil(n / f) - 1)


def general_async_contraction_rate() -> float:
    """Theorem 7: MinRelay (not round-based) achieves contraction rate 0 for any f < n."""
    return 0.0


def _check_crash_parameters(n: int, f: int, require_minority: bool) -> None:
    if n < 3:
        raise ModelError(f"the crash bounds are stated for n >= 3 agents, got n={n}")
    if f < 1:
        raise ModelError(f"need at least one possible crash, got f={f}")
    if require_minority and not f < n / 2:
        raise ModelError(f"the round-based bounds require f < n/2, got n={n}, f={f}")


# --------------------------------------------------------------------------- #
# Model classifier
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class LowerBound:
    """A contraction-rate lower bound together with its provenance.

    Attributes
    ----------
    value:
        The numerical bound (in ``[0, 1)``).
    theorem:
        The paper theorem providing the bound (e.g. ``"Theorem 2"``).
    reason:
        A human-readable explanation of why the theorem applies.
    """

    value: float
    theorem: str
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value:.6g} ({self.theorem}: {self.reason})"


def _union_graph(model: NetworkModel) -> CommunicationGraph:
    """The edge-wise union of all graphs of the model."""
    adjacency = np.zeros((model.n, model.n), dtype=bool)
    for graph in model:
        adjacency |= graph.adjacency
    return CommunicationGraph(model.n, adjacency=adjacency, name="union")


def _contains_deaf_family(model: NetworkModel) -> Optional[CommunicationGraph]:
    """A base graph ``G`` with ``deaf(G) ⊆ model``, or None.

    Candidates tried: every model graph and the edge-wise union of the model
    (the union recovers the base graph when the model *is* ``deaf(G)``, and
    equals ``K_n`` for the all-non-split model).  ``deaf(G)`` makes every
    agent deaf in some graph, so a model in which some agent is never deaf
    holds no such family and no candidate family is built.
    """
    if not model.every_agent_can_be_deaf():
        return None
    model_set = set(model.graphs)
    candidates = [_union_graph(model)] + list(model.graphs)
    for base in candidates:
        family = deaf_family(base)
        if all(member in model_set for member in family):
            return base
    return None


def contraction_rate_lower_bound(model: NetworkModel) -> LowerBound:
    """The strongest applicable contraction-rate lower bound for ``model``.

    The classifier applies, in order: solvability of exact consensus
    (bound 0), Theorem 1 (n = 2), Theorem 2 (deaf families), Theorem 3
    (Ψ graphs), and Theorem 5 / Corollary 23 (α-diameter of a
    source-incompatible β-class); the maximum of the applicable bounds is
    returned.
    """
    if model.exact_consensus_solvable():
        return LowerBound(
            value=0.0,
            theorem="exact consensus solvable",
            reason="an exact consensus algorithm yields contraction rate 0 by deciding and stopping",
        )

    candidates: List[LowerBound] = []
    n = model.n
    model_set = set(model.graphs)

    if n == 2 and all(h in model_set for h in two_agent_graphs()):
        candidates.append(
            LowerBound(
                value=two_agent_lower_bound(),
                theorem="Theorem 1",
                reason="n = 2 and the model contains H0, H1, H2",
            )
        )

    if n >= 3:
        base = _contains_deaf_family(model)
        if base is not None:
            candidates.append(
                LowerBound(
                    value=deaf_graphs_lower_bound(),
                    theorem="Theorem 2",
                    reason=f"the model contains deaf({base.name or 'G'})",
                )
            )

    if n >= 4 and all(psi in model_set for psi in psi_family(n)):
        candidates.append(
            LowerBound(
                value=psi_lower_bound(n),
                theorem="Theorem 3",
                reason="the model contains the graphs Ψ_0, Ψ_1, Ψ_2",
            )
        )

    best_diameter = float("inf")
    for beta_class in model.unsolvable_beta_classes():
        diameter_value = alpha_diameter(beta_class)
        best_diameter = min(best_diameter, diameter_value)
    if best_diameter < float("inf"):
        candidates.append(
            LowerBound(
                value=alpha_diameter_lower_bound(best_diameter),
                theorem="Theorem 5 / Corollary 23",
                reason=(
                    "exact consensus is unsolvable and a source-incompatible β-class has "
                    f"α-diameter {best_diameter:g}"
                ),
            )
        )

    if not candidates:
        return LowerBound(
            value=0.0,
            theorem="none",
            reason="no theorem of the paper applies to this model with the implemented checks",
        )
    return max(candidates, key=lambda bound: bound.value)
