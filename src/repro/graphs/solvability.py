"""Solvability characterizations for consensus problems in dynamic networks.

Two characterizations are used throughout the paper:

* **Asymptotic consensus** is solvable in a network model ``N`` iff every
  graph of ``N`` is rooted (Theorem 1 of [Charron-Bost et al., ICALP'15],
  quoted in Section 2.2).
* **Exact consensus** is solvable in ``N`` iff no ``β_N``-class is
  source-incompatible (Theorem 19, the generalization of
  [Coulouma et al., TCS 2015] Theorem 4.10).

When exact consensus *is* solvable the optimal contraction rate is 0 (decide
then stop), so the paper's lower bounds only kick in on models where exact
consensus is unsolvable; :func:`unsolvable_beta_classes` exposes the
witnessing classes, which Theorem 5 / Corollary 23 then feed into the
α-diameter bound.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.graphs.digraph import CommunicationGraph
from repro.graphs.properties import is_rooted
from repro.graphs.relations import beta_classes, is_source_incompatible


def asymptotic_consensus_solvable(graphs: Sequence[CommunicationGraph]) -> bool:
    """True iff asymptotic consensus is solvable in the model (all graphs rooted)."""
    graphs = list(graphs)
    return bool(graphs) and all(is_rooted(g) for g in graphs)


def exact_consensus_solvable(graphs: Sequence[CommunicationGraph]) -> bool:
    """True iff exact consensus is solvable in the model.

    By Theorem 19, exact consensus is solvable iff every ``β_N``-class has a
    common root (i.e. no class is source-incompatible).
    """
    return not unsolvable_beta_classes(graphs)


def unsolvable_beta_classes(graphs: Sequence[CommunicationGraph]) -> List[List[CommunicationGraph]]:
    """The source-incompatible ``β_N``-classes (empty iff exact consensus is solvable).

    These are exactly the sub-models to which Theorem 5 can be applied via
    Corollary 23 to obtain a strictly positive contraction-rate lower bound.
    """
    classes = [list(cls) for cls in beta_classes(graphs)]
    return [members for members in classes if is_source_incompatible(members)]
