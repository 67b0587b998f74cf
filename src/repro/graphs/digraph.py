"""Immutable directed communication graphs with self-loops.

A communication graph models the communications of a single round
(Section 2 of the paper): nodes are agents, and an edge ``(i, j)`` means that
agent ``j`` receives agent ``i``'s round-``t`` message.  Every agent can
always "communicate with itself instantaneously", so every communication
graph contains a self-loop at each node; the constructor enforces this.

The class is immutable and hashable, so graphs can be collected into sets
(network models) and used as dictionary keys (e.g. when memoizing valencies
per successor graph).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.types import pack_bool_rows

Edge = Tuple[int, int]


class CommunicationGraph:
    """A directed graph on agents ``0 .. n-1`` with a self-loop at every node.

    Parameters
    ----------
    n:
        Number of agents.  Must be at least 1.
    edges:
        Iterable of ``(i, j)`` pairs meaning *i sends to j* (``j`` receives
        from ``i``).  Self-loops are added automatically and need not be
        listed.  Mutually exclusive with ``adjacency``.
    adjacency:
        Boolean ``(n, n)`` matrix with ``adjacency[i, j]`` true iff there is
        an edge ``i -> j``.  The diagonal is forced to ``True``.
    name:
        Optional human-readable name (e.g. ``"H1"`` or ``"Psi_2"``), used in
        ``repr`` and reports; it does not participate in equality or hashing.

    The adjacency is copied once on construction and is read-only; the
    hash is computed on the first ``hash()`` call and then kept.  Copies
    and pickles are rebuilt through the constructor.

    Examples
    --------
    >>> g = CommunicationGraph(2, edges=[(0, 1)], name="H1")
    >>> sorted(g.in_neighbors(1))
    [0, 1]
    >>> sorted(g.in_neighbors(0))
    [0]
    """

    __slots__ = ("_n", "_adj", "_name", "_hash", "_in_cache", "_out_cache", "_packed_receive")

    def __init__(
        self,
        n: int,
        edges: Optional[Iterable[Edge]] = None,
        adjacency: Optional[np.ndarray] = None,
        name: Optional[str] = None,
    ) -> None:
        if n < 1:
            raise GraphError(f"a communication graph needs at least one agent, got n={n}")
        if edges is not None and adjacency is not None:
            raise GraphError("pass either edges or adjacency, not both")

        if adjacency is not None:
            # One C-ordered copy: the graph never shares the caller's buffer,
            # and the flat diagonal stride below needs C order.
            adj = np.array(adjacency, dtype=bool, order="C")
            if adj.shape != (n, n):
                raise GraphError(
                    f"adjacency must have shape ({n}, {n}), got {adj.shape}"
                )
        else:
            adj = np.zeros((n, n), dtype=bool)
            for edge in edges or ():
                try:
                    i, j = edge
                except (TypeError, ValueError) as exc:
                    raise GraphError(f"edges must be (i, j) pairs, got {edge!r}") from exc
                if not (0 <= i < n and 0 <= j < n):
                    raise GraphError(
                        f"edge {edge!r} out of range for n={n} agents (agents are 0-based)"
                    )
                adj[i, j] = True

        adj.ravel()[:: n + 1] = True
        adj.setflags(write=False)
        self._n = n
        self._adj = adj
        self._name = name
        # Computed on the first __hash__ call: most graphs of a random
        # schedule are never hashed.
        self._hash: Optional[int] = None
        # Lazily built per-agent neighborhood caches.  The graph is immutable,
        # so the frozensets are computed once and shared by every caller
        # (in_neighbors/out_neighbors are hit per agent per round in the
        # per-agent execution path and throughout graphs/relations.py).
        self._in_cache: Optional[Tuple[FrozenSet[int], ...]] = None
        self._out_cache: Optional[Tuple[FrozenSet[int], ...]] = None
        # Bitset-resident adjacency cache, built on first access (see
        # packed_receive_rows).
        self._packed_receive: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of agents."""
        return self._n

    @property
    def name(self) -> Optional[str]:
        """Optional display name (not part of graph identity)."""
        return self._name

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix (``adj[i, j]`` iff edge i -> j)."""
        return self._adj

    @property
    def packed_receive_rows(self) -> np.ndarray:
        """The receive mask as bitset-packed rows, ``(n, ceil(n/8))`` uint8.

        Row ``j`` packs the in-neighborhood indicator of agent ``j`` (bit
        ``i`` set iff ``j`` receives from ``i``, ``np.packbits`` big-bit
        order).  Computed once per graph and shared: the α-relation kernels
        (:func:`repro.graphs.packed.packed_in_neighborhoods`) consume it
        instead of re-packing every graph's in-neighborhoods on every
        ``alpha_classes`` / ``beta_classes`` / ``alpha_diameter`` call.
        """
        if self._packed_receive is None:
            packed = pack_bool_rows(self._adj.T)
            packed.setflags(write=False)
            self._packed_receive = packed
        return self._packed_receive

    def agents(self) -> range:
        """The agent identifiers ``0 .. n-1``."""
        return range(self._n)

    def has_edge(self, i: int, j: int) -> bool:
        """True iff ``j`` receives from ``i`` in this graph."""
        self._check_agent(i)
        self._check_agent(j)
        return bool(self._adj[i, j])

    def edges(self, include_self_loops: bool = True) -> Iterator[Edge]:
        """Iterate over edges as ``(sender, receiver)`` pairs."""
        senders, receivers = np.nonzero(self._adj)
        for i, j in zip(senders.tolist(), receivers.tolist()):
            if include_self_loops or i != j:
                yield (i, j)

    def edge_count(self, include_self_loops: bool = True) -> int:
        """Number of edges (self-loops included by default)."""
        total = int(self._adj.sum())
        return total if include_self_loops else total - self._n

    def in_neighbors(self, j: int) -> FrozenSet[int]:
        """``In_j(G)``: agents whose round message ``j`` receives (includes ``j``)."""
        self._check_agent(j)
        if self._in_cache is None:
            self._in_cache = tuple(
                frozenset(np.nonzero(self._adj[:, column])[0].tolist())
                for column in range(self._n)
            )
        return self._in_cache[j]

    def out_neighbors(self, i: int) -> FrozenSet[int]:
        """``Out_i(G)``: agents that receive ``i``'s round message (includes ``i``)."""
        self._check_agent(i)
        if self._out_cache is None:
            self._out_cache = tuple(
                frozenset(np.nonzero(self._adj[row, :])[0].tolist())
                for row in range(self._n)
            )
        return self._out_cache[i]

    def in_degree(self, j: int) -> int:
        """Number of in-neighbors of ``j`` (self-loop included)."""
        self._check_agent(j)
        return int(self._adj[:, j].sum())

    def out_degree(self, i: int) -> int:
        """Number of out-neighbors of ``i`` (self-loop included)."""
        self._check_agent(i)
        return int(self._adj[i, :].sum())

    def is_deaf(self, i: int) -> bool:
        """True iff agent ``i`` is *deaf* in this graph (its only in-neighbor is itself)."""
        return self.in_neighbors(i) == frozenset({i})

    def deaf_agents(self) -> FrozenSet[int]:
        """The set of agents that are deaf in this graph."""
        return frozenset(i for i in self.agents() if self.is_deaf(i))

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def with_name(self, name: Optional[str]) -> "CommunicationGraph":
        """Return the same graph carrying a different display name."""
        return CommunicationGraph(self._n, adjacency=self._adj, name=name)

    def make_deaf(self, i: int) -> "CommunicationGraph":
        """Return the graph obtained by removing all incoming edges of ``i`` except its self-loop.

        This is the ``F_i`` construction of Section 5:
        ``F_i = G \\ {(j, i) : j != i}``.
        """
        self._check_agent(i)
        adj = self._adj.copy()
        adj[:, i] = False
        adj[i, i] = True
        base = self._name or "G"
        return CommunicationGraph(self._n, adjacency=adj, name=f"deaf({base},{i})")

    def remove_edge(self, i: int, j: int) -> "CommunicationGraph":
        """Return a copy without the edge ``i -> j`` (self-loops cannot be removed)."""
        self._check_agent(i)
        self._check_agent(j)
        if i == j:
            raise GraphError("self-loops are mandatory and cannot be removed")
        adj = self._adj.copy()
        adj[i, j] = False
        return CommunicationGraph(self._n, adjacency=adj, name=self._name)

    def add_edge(self, i: int, j: int) -> "CommunicationGraph":
        """Return a copy with the edge ``i -> j`` added."""
        self._check_agent(i)
        self._check_agent(j)
        adj = self._adj.copy()
        adj[i, j] = True
        return CommunicationGraph(self._n, adjacency=adj, name=self._name)

    def transpose(self) -> "CommunicationGraph":
        """Return the graph with all edges reversed."""
        return CommunicationGraph(self._n, adjacency=self._adj.T, name=self._name)

    def restricted_to(self, agents: Sequence[int]) -> "CommunicationGraph":
        """Return the subgraph induced by ``agents`` (relabelled ``0..len(agents)-1``)."""
        agents = list(agents)
        for a in agents:
            self._check_agent(a)
        idx = np.asarray(agents, dtype=int)
        sub = self._adj[np.ix_(idx, idx)]
        return CommunicationGraph(len(agents), adjacency=sub, name=self._name)

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunicationGraph):
            return NotImplemented
        return self._n == other._n and bool(np.array_equal(self._adj, other._adj))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._n, self._adj.tobytes()))
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: the copy gets a read-only
        # adjacency and computes its hash in the process that uses it.
        return (CommunicationGraph, (self._n, None, self._adj, self._name))

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        non_loop = self.edge_count(include_self_loops=False)
        return f"CommunicationGraph(n={self._n}{label}, edges={non_loop}+self-loops)"

    def describe(self) -> str:
        """Multi-line human-readable description listing in-neighborhoods."""
        lines = [repr(self)]
        for j in self.agents():
            ins = ", ".join(str(i) for i in sorted(self.in_neighbors(j)))
            lines.append(f"  In_{j} = {{{ins}}}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _check_agent(self, i: int) -> None:
        if not (0 <= i < self._n):
            raise GraphError(f"agent {i} out of range for n={self._n} (agents are 0-based)")

    def _check_same_size(self, other: "CommunicationGraph") -> None:
        if self._n != other._n:
            raise GraphError(
                f"graphs act on different agent sets (n={self._n} vs n={other._n})"
            )
