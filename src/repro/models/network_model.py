"""The :class:`NetworkModel` container.

A network model is the set ``N`` of communication graphs from which the
adversary may pick one graph per round (Section 2).  The class is an
immutable, hashable collection that caches the structural analyses the rest
of the library needs repeatedly (rootedness, non-splitness, α-diameter,
solvability of exact/asymptotic consensus).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ModelError
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.properties import is_nonsplit, is_rooted
from repro.graphs.relations import alpha_diameter, beta_classes
from repro.graphs.solvability import (
    asymptotic_consensus_solvable,
    unsolvable_beta_classes,
)


class NetworkModel:
    """An immutable set of communication graphs on a common agent set.

    Parameters
    ----------
    graphs:
        The communication graphs of the model.  All must have the same number
        of agents; duplicates are removed.
    name:
        Optional display name used in reports (e.g. ``"deaf(K_4)"``).

    Examples
    --------
    >>> from repro.graphs import two_agent_graphs
    >>> model = NetworkModel(two_agent_graphs(), name="{H0,H1,H2}")
    >>> model.n, len(model)
    (2, 3)
    >>> model.is_rooted_model(), model.exact_consensus_solvable()
    (True, False)
    """

    __slots__ = ("_graphs", "_name", "_n", "_cache")

    def __init__(self, graphs: Iterable[CommunicationGraph], name: Optional[str] = None) -> None:
        unique: List[CommunicationGraph] = []
        seen = set()
        for g in graphs:
            if not isinstance(g, CommunicationGraph):
                raise ModelError(f"network models contain CommunicationGraph objects, got {type(g)!r}")
            if g not in seen:
                seen.add(g)
                unique.append(g)
        if not unique:
            raise ModelError("a network model must contain at least one communication graph")
        n = unique[0].n
        for g in unique:
            if g.n != n:
                raise ModelError(
                    f"all graphs must have the same number of agents; got {g.n} and {n}"
                )
        self._graphs: Tuple[CommunicationGraph, ...] = tuple(unique)
        self._name = name
        self._n = n
        self._cache: dict = {}

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of agents of every graph in the model."""
        return self._n

    @property
    def name(self) -> Optional[str]:
        """Optional display name."""
        return self._name

    @property
    def graphs(self) -> Tuple[CommunicationGraph, ...]:
        """The graphs of the model, in insertion order with duplicates removed."""
        return self._graphs

    def __iter__(self) -> Iterator[CommunicationGraph]:
        return iter(self._graphs)

    def __len__(self) -> int:
        return len(self._graphs)

    def __contains__(self, graph: object) -> bool:
        return graph in set(self._graphs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkModel):
            return NotImplemented
        return set(self._graphs) == set(other._graphs)

    def __hash__(self) -> int:
        return hash(frozenset(self._graphs))

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"NetworkModel(n={self._n}{label}, graphs={len(self._graphs)})"

    # ------------------------------------------------------------------ #
    # Set operations
    # ------------------------------------------------------------------ #

    def union(self, other: "NetworkModel", name: Optional[str] = None) -> "NetworkModel":
        """The model containing the graphs of both models."""
        if other.n != self._n:
            raise ModelError("cannot union models with different numbers of agents")
        return NetworkModel(self._graphs + other._graphs, name=name)

    def with_graphs(self, extra: Iterable[CommunicationGraph], name: Optional[str] = None) -> "NetworkModel":
        """A new model with additional graphs included."""
        return NetworkModel(list(self._graphs) + list(extra), name=name or self._name)

    def is_submodel_of(self, other: "NetworkModel") -> bool:
        """True iff every graph of this model belongs to ``other`` (``N' ⊆ N``)."""
        return set(self._graphs) <= set(other._graphs)

    # ------------------------------------------------------------------ #
    # Cached structural analyses
    # ------------------------------------------------------------------ #

    def is_rooted_model(self) -> bool:
        """True iff every graph of the model is rooted.

        By the solvability characterization, this is equivalent to asymptotic
        consensus being solvable in the model.
        """
        return self._cached("rooted", lambda: all(is_rooted(g) for g in self._graphs))

    def is_nonsplit_model(self) -> bool:
        """True iff every graph of the model is non-split."""
        return self._cached("nonsplit", lambda: all(is_nonsplit(g) for g in self._graphs))

    def asymptotic_consensus_solvable(self) -> bool:
        """True iff asymptotic consensus is solvable in the model (rooted model)."""
        return self._cached(
            "asymptotic", lambda: asymptotic_consensus_solvable(self._graphs)
        )

    def exact_consensus_solvable(self) -> bool:
        """True iff exact consensus is solvable in the model (Theorem 19)."""
        return not self.unsolvable_beta_classes()

    def alpha_diameter(self) -> float:
        """The α-diameter ``D`` of the model (Definition 22); ``inf`` if undefined."""
        return self._cached("alpha_diameter", lambda: alpha_diameter(self._graphs))

    def beta_classes(self) -> List[FrozenSet[CommunicationGraph]]:
        """The β-classes of the model (Definition 16)."""
        return self._cached("beta_classes", lambda: beta_classes(self._graphs))

    def unsolvable_beta_classes(self) -> List[List[CommunicationGraph]]:
        """The source-incompatible β-classes (witnesses of exact-consensus unsolvability)."""
        return self._cached(
            "unsolvable_beta", lambda: unsolvable_beta_classes(self._graphs)
        )

    def deaf_graph_for(self, agent: int) -> Optional[CommunicationGraph]:
        """Some graph of the model in which ``agent`` is deaf, or None.

        Lemma 8 requires, for each agent, a graph of the model in which that
        agent is deaf; this accessor is used by the valency machinery.
        """
        for g in self._graphs:
            if g.is_deaf(agent):
                return g
        return None

    def every_agent_can_be_deaf(self) -> bool:
        """True iff for every agent there is a model graph in which it is deaf (Lemma 8)."""
        return all(self.deaf_graph_for(i) is not None for i in range(self._n))

    def describe(self) -> str:
        """A multi-line report of the model's structural properties."""
        lines = [repr(self)]
        lines.append(f"  rooted model:        {self.is_rooted_model()}")
        lines.append(f"  non-split model:     {self.is_nonsplit_model()}")
        lines.append(f"  asymptotic solvable: {self.asymptotic_consensus_solvable()}")
        lines.append(f"  exact solvable:      {self.exact_consensus_solvable()}")
        lines.append(f"  alpha-diameter:      {self.alpha_diameter()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _cached(self, key: str, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]
