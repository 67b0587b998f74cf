"""The α and β relations of Coulouma, Godard and Peters, and the α-diameter.

Section 7 of the paper imports the machinery of [Coulouma et al., TCS 2015]:

* ``G α_{N,K} H`` holds when the agents in ``R(K)`` (the roots of ``K``)
  cannot distinguish a round with graph ``G`` from a round with graph ``H``:
  ``In_i(G) = In_i(H)`` for every root ``i`` of ``K`` (:func:`alpha_related`).
  Definition 15 writes the condition as equality of the *union*
  ``In_{R(K)}(G) = In_{R(K)}(H)``, but the lower-bound proofs (Lemma 20 and
  Lemma 24) need the per-root condition: only then can no root of ``K`` tell
  the two rounds apart.  The per-root form is therefore the only one
  implemented.

* ``α*_N`` is the transitive closure of the union over ``K`` of ``α_{N,K}``.

* ``β_N`` is the coarsest equivalence relation included in ``α*_N`` that
  satisfies the closure property of Definition 16.  It is computed here by
  partition refinement: starting from the α*-classes, each class is repeatedly
  split into the connected components of the α relation *restricted to
  witnesses K inside the class*, until a fixpoint is reached.

* The **α-diameter** (Definition 22) of ``N`` is the smallest ``D >= 1`` such
  that any two graphs of ``N`` are connected by an α-chain of length at most
  ``D``; it drives the general lower bound 1/(D+1) of Theorem 5.

The default path never compares graphs pairwise.  ``α_{N,K}`` reads the
witness ``K`` only through its root set, so a model has at most ``2^n - 1``
distinct witnesses however many graphs it holds.  For each distinct root set
``r`` one sort of the in-neighborhood ids of the agents in ``r`` puts every
graph in a *bucket*: two graphs share a bucket iff they are
α-related under every witness with root set ``r``.  The α- and β-classes
are connected components of shared buckets, and the α-diameter is a
breadth-first search through them.  ``use_packed=False`` keeps the per-pair
reference loop, the oracle the bucketed path is tested against.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config import resolve_use_packed
from repro.exceptions import ModelError
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.packed import graph_in_neighborhood_ids, roots_stack, stack_adjacencies
from repro.graphs.properties import roots
from repro.types import packed_row_ids

#: Size in bytes of the largest array the bucketed path may allocate: the
#: ``(R, G)`` bucket table, the ``(G, G)`` step matrix or the ``(G, ⌈G/8⌉)``
#: all-sources frontier of the α-diameter (a few arrays of that size are live
#: at once).  A model over it raises :class:`ModelError` instead of
#: exhausting memory.
_BUCKET_BYTE_BUDGET = 64 << 20


def _check_model(graphs: Sequence[CommunicationGraph]) -> List[CommunicationGraph]:
    graphs = list(graphs)
    if not graphs:
        raise ModelError("a network model must contain at least one graph")
    n = graphs[0].n
    for g in graphs:
        if g.n != n:
            raise ModelError("all graphs of a network model must have the same number of agents")
    return graphs


def alpha_related(
    graph_g: CommunicationGraph,
    graph_h: CommunicationGraph,
    witness: CommunicationGraph,
) -> bool:
    """Per-root α relation: ``In_i(G) = In_i(H)`` for every root ``i`` of ``witness``.

    This is the condition actually used in the indistinguishability arguments
    (Lemma 20): if it holds, the roots of ``witness`` cannot tell a ``G``
    round from an ``H`` round, and running ``witness`` forever afterwards
    forces the two executions to the same limit.
    """
    graph_g._check_same_size(graph_h)
    graph_g._check_same_size(witness)
    witness_roots = roots(witness)
    if not witness_roots:
        return False
    return all(graph_g.in_neighbors(i) == graph_h.in_neighbors(i) for i in witness_roots)


def _unique_graphs(graphs: Sequence[CommunicationGraph]) -> List[CommunicationGraph]:
    """First occurrences of the graphs, matching the reference code's dict keying."""
    return list(dict.fromkeys(graphs))


def _reserve(graph_count: int, nbytes: int, what: str) -> None:
    """Refuse an array over :data:`_BUCKET_BYTE_BUDGET` before allocating it."""
    if nbytes > _BUCKET_BYTE_BUDGET:
        raise ModelError(
            f"the α classifier needs {nbytes:,} bytes for the {what} of a model with "
            f"G={graph_count:,} graphs, over its budget of {_BUCKET_BYTE_BUDGET:,} bytes"
        )


def _root_set_buckets(
    graphs: Sequence[CommunicationGraph], witnesses: Sequence[CommunicationGraph]
) -> Tuple[np.ndarray, np.ndarray]:
    """Buckets of ``graphs`` under the distinct non-empty root sets of ``witnesses``.

    Returns ``(buckets, witness_root_set)``.  ``buckets[k, g]`` is the bucket
    of graph ``g`` under the ``k``-th root set ``r_k``: two graphs share it
    iff every agent of ``r_k`` has the same in-neighbors in both.  Buckets
    are numbered ``0..B-1`` over the whole table, so buckets of different
    root sets never share a number.  ``witness_root_set[w]`` is the ``k`` of
    witness ``w``'s root set, or ``-1`` for a rootless witness (which
    relates nothing).
    """
    root_mask = roots_stack(stack_adjacencies(witnesses))
    # Distinct root sets in lexicographic order, so an empty one comes first.
    root_set_of = packed_row_ids(root_mask)
    root_sets = np.zeros((int(root_set_of.max()) + 1, root_mask.shape[1]), dtype=bool)
    root_sets[root_set_of] = root_mask
    rootless = int(not root_sets[0].any())
    root_sets = root_sets[rootless:]
    ids = graph_in_neighborhood_ids(graphs)
    _reserve(len(graphs), ids.nbytes * len(root_sets), "root-set bucket table")
    # Row (k, g) holds g's in-neighborhood ids on r_k and -1 off it, so equal
    # rows mean the same root set and the same in-neighborhoods on it.
    keyed = np.where(root_sets[:, None, :], ids[None, :, :], -1)
    return packed_row_ids(keyed), root_set_of - rootless


def _shared_key_components(count: int, member: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Connected components of ``count`` graphs linked by shared keys.

    Graph ``member[e]`` holds key ``key[e]``; graphs holding a common key are
    adjacent.  Min-label propagation with pointer jumping: each graph's label
    is the smallest graph index known to be in its component, lowered every
    round to the smallest label among its keys' holders and then to its
    label's label.  Labels only fall and never leave the component, so at
    the fixpoint every graph carries its component's first member.  Returns
    component ids ``0..C-1`` numbered in order of first member.
    """
    label = np.arange(count)
    if key.size:
        _, slot = np.unique(key, return_inverse=True)
        by_slot = np.argsort(slot, kind="stable")
        starts = np.flatnonzero(np.diff(slot[by_slot], prepend=-1))
        holders = member[by_slot]
        while True:
            lowest = np.minimum.reduceat(label[holders], starts)
            lowered = label.copy()
            np.minimum.at(lowered, member, lowest[slot])
            lowered = lowered[lowered]
            if np.array_equal(lowered, label):
                break
            label = lowered
    return np.unique(label, return_inverse=True)[1].reshape(-1)


def _refine(buckets: np.ndarray, witness_root_set: np.ndarray, partition: np.ndarray) -> np.ndarray:
    """Split each class of ``partition`` into its α components under its own witnesses.

    ``partition[g]`` is the class of graph ``g``, which is also witness ``g``.
    Two graphs of one class are adjacent iff they share a bucket of a root
    set that some witness *of that class* has.  Starting from one class this
    yields the α*-classes; iterating it to a fixpoint yields the β-classes.
    """
    class_count = int(partition.max()) + 1
    usable = np.zeros((class_count, buckets.shape[0]), dtype=bool)
    rooted = witness_root_set >= 0
    usable[partition[rooted], witness_root_set[rooted]] = True
    root_set, member = np.nonzero(usable[partition].T)
    key = buckets[root_set, member] * class_count + partition[member]
    return _shared_key_components(len(partition), member, key)


def _classes(
    graphs: Sequence[CommunicationGraph], partition: np.ndarray
) -> List[FrozenSet[CommunicationGraph]]:
    """The classes of ``partition`` as frozensets, in order of first member."""
    order = np.argsort(partition, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(partition[order])) + 1)
    return [frozenset(graphs[i] for i in group) for group in groups]


def alpha_step_graph(
    graphs: Sequence[CommunicationGraph],
    witnesses: Optional[Sequence[CommunicationGraph]] = None,
    use_packed: Optional[bool] = None,
) -> Dict[CommunicationGraph, Set[CommunicationGraph]]:
    """The one-step α relation on ``graphs`` as an adjacency mapping.

    ``result[G]`` contains every ``H`` such that ``G α_{N,K} H`` for some
    witness ``K`` (witnesses default to ``graphs`` themselves, i.e. the
    network model).  The relation is symmetric, and reflexive on every graph
    for which some witness exists.  ``use_packed`` (the default) relates the
    graphs sharing a root-set bucket; ``use_packed=False`` keeps the
    per-pair reference loop.
    """
    graphs = _check_model(graphs)
    use_packed = resolve_use_packed(use_packed)
    witnesses = list(witnesses) if witnesses is not None else graphs
    adjacency: Dict[CommunicationGraph, Set[CommunicationGraph]] = {g: set() for g in graphs}
    if use_packed:
        if not witnesses:
            return adjacency
        if any(witness.n != graphs[0].n for witness in witnesses):
            raise ModelError("witnesses must have the same number of agents as the model")
        buckets, _ = _root_set_buckets(graphs, witnesses)
        _reserve(len(graphs), len(graphs) ** 2, "step-relation matrix")
        related = np.zeros((len(graphs), len(graphs)), dtype=bool)
        for row in buckets:
            related |= row[:, None] == row[None, :]
        for idx_g, idx_h in zip(*np.nonzero(related)):
            adjacency[graphs[idx_g]].add(graphs[idx_h])
        return adjacency
    for idx_g, g in enumerate(graphs):
        for h in graphs[idx_g:]:
            if any(alpha_related(g, h, k) for k in witnesses):
                adjacency[g].add(h)
                adjacency[h].add(g)
    return adjacency


def alpha_star_related(
    graphs: Sequence[CommunicationGraph],
    graph_g: CommunicationGraph,
    graph_h: CommunicationGraph,
    use_packed: Optional[bool] = None,
) -> bool:
    """Whether ``G α*_N H`` (transitive closure of the one-step α relation)."""
    classes = alpha_classes(graphs, use_packed=use_packed)
    for cls in classes:
        if graph_g in cls and graph_h in cls:
            return True
    return False


def alpha_classes(
    graphs: Sequence[CommunicationGraph],
    use_packed: Optional[bool] = None,
) -> List[FrozenSet[CommunicationGraph]]:
    """The equivalence classes of ``α*_N`` (connected components of the α step graph).

    The default path links the graphs sharing a root-set bucket and labels
    the components by propagation; ``use_packed=False`` keeps the reference
    per-pair BFS.
    """
    graphs = _check_model(graphs)
    use_packed = resolve_use_packed(use_packed)
    if use_packed:
        unique = _unique_graphs(graphs)
        buckets, witness_root_set = _root_set_buckets(unique, unique)
        trivial = np.zeros(len(unique), dtype=np.int64)
        return _classes(unique, _refine(buckets, witness_root_set, trivial))
    adjacency = alpha_step_graph(graphs, use_packed=False)
    return _connected_components(graphs, adjacency)


def beta_classes(
    graphs: Sequence[CommunicationGraph],
    use_packed: Optional[bool] = None,
) -> List[FrozenSet[CommunicationGraph]]:
    """The β_N-classes of Definition 16, via partition refinement.

    Starting from the α*-classes, each class ``Q`` is split into the connected
    components of the α relation restricted to witnesses ``K ∈ Q``; this is
    iterated until no class splits.  At the fixpoint every class satisfies the
    closure property (any two members are α-chain connected through members
    and witnesses of the same class), and since splits only happen when the
    closure property fails, the fixpoint is the coarsest such refinement.

    On the default path the root-set buckets are computed once and every
    refinement step only restricts which root sets each class may use.
    """
    graphs = _check_model(graphs)
    use_packed = resolve_use_packed(use_packed)
    if use_packed:
        unique = _unique_graphs(graphs)
        buckets, witness_root_set = _root_set_buckets(unique, unique)
        partition = np.zeros(len(unique), dtype=np.int64)
        while True:
            refined = _refine(buckets, witness_root_set, partition)
            # Refinement only splits classes, so an equal count is the fixpoint.
            if refined.max() == partition.max():
                return _classes(unique, refined)
            partition = refined
    partition: List[List[CommunicationGraph]] = [
        list(cls) for cls in alpha_classes(graphs, use_packed=False)
    ]
    changed = True
    while changed:
        changed = False
        refined: List[List[CommunicationGraph]] = []
        for cls in partition:
            adjacency = alpha_step_graph(cls, witnesses=cls, use_packed=False)
            components = _connected_components(cls, adjacency)
            if len(components) > 1:
                changed = True
            refined.extend([list(c) for c in components])
        partition = refined
    return [frozenset(cls) for cls in partition]


def is_source_incompatible(graphs: Sequence[CommunicationGraph]) -> bool:
    """Definition 18: no agent is a root of *every* graph of the model."""
    graphs = _check_model(graphs)
    return not roots_stack(stack_adjacencies(graphs)).all(axis=0).any()


def alpha_diameter(
    graphs: Sequence[CommunicationGraph],
    use_packed: Optional[bool] = None,
) -> float:
    """The α-diameter ``D`` of a network model (Definition 22).

    ``D`` is the smallest integer such that any two graphs of the model are
    connected by a chain of at most ``D`` α-steps (each step witnessed by some
    graph of the model).  Returns ``float('inf')`` when the α step graph is
    disconnected.  Models with a single graph have diameter 1 when the graph
    is α-related to itself (which holds whenever the model has a rooted
    witness) — matching the paper's convention ``D >= 1``.

    The default path runs the breadth-first search from every source at
    once: row ``g`` of the frontier packs, one bit per source, the sources
    that first reach ``g`` at the current distance, and one step ORs the
    rows of every bucket holding at least two graphs.
    """
    graphs = _check_model(graphs)
    use_packed = resolve_use_packed(use_packed)
    if use_packed:
        return _bucketed_diameter(_unique_graphs(graphs))
    adjacency = alpha_step_graph(graphs, use_packed=False)
    diameter = 1  # Definition 22 requires D >= 1.
    for source in graphs:
        distances = _bfs_distances(source, graphs, adjacency)
        for target in graphs:
            dist = distances.get(target)
            if dist is None:
                return float("inf")
            diameter = max(diameter, dist)
    return float(diameter)


def _bucketed_diameter(graphs: List[CommunicationGraph]) -> float:
    count = len(graphs)
    buckets, _ = _root_set_buckets(graphs, graphs)
    width = (count + 7) // 8
    _reserve(count, count * width, "all-sources frontier")
    # Per root set: the graphs of its buckets holding two or more (a bucket
    # of one only relates its graph to itself) sorted by bucket, where each
    # bucket's run starts, and the run of each listed graph.
    sizes = np.bincount(buckets.ravel())
    steps = []
    for row in buckets:
        shared = np.flatnonzero(sizes[row] >= 2)
        if shared.size:
            shared = shared[np.argsort(row[shared], kind="stable")]
            run_start = np.diff(row[shared], prepend=-1) != 0
            steps.append((shared, np.flatnonzero(run_start), np.cumsum(run_start) - 1))
    sources = np.arange(count)
    reached = np.zeros((count, width), dtype=np.uint8)
    reached[sources, sources // 8] = 0x80 >> (sources % 8)  # np.packbits bit order
    frontier = reached.copy()
    distance = 0
    while True:
        expanded = np.zeros_like(frontier)
        for shared, starts, run in steps:
            expanded[shared] |= np.bitwise_or.reduceat(frontier[shared], starts)[run]
        frontier = expanded & ~reached
        if not frontier.any():
            break
        distance += 1
        reached |= frontier
    if not (reached == np.packbits(np.ones(count, dtype=bool))).all():
        return float("inf")
    return float(max(distance, 1))  # Definition 22 requires D >= 1.


def alpha_chain(
    graphs: Sequence[CommunicationGraph],
    graph_g: CommunicationGraph,
    graph_h: CommunicationGraph,
) -> Optional[List[CommunicationGraph]]:
    """A shortest α-chain ``G = H_0, ..., H_q = H`` within the model, or None.

    The chain witnesses ``G α*_N H`` and its length (number of steps ``q``) is
    at most the α-diameter of the model.
    """
    graphs = _check_model(graphs)
    adjacency = alpha_step_graph(graphs)
    if graph_g == graph_h:
        return [graph_g]
    predecessors: Dict[CommunicationGraph, CommunicationGraph] = {}
    queue = deque([graph_g])
    seen = {graph_g}
    while queue:
        current = queue.popleft()
        for neighbor in adjacency.get(current, ()):  # pragma: no branch
            if neighbor in seen:
                continue
            seen.add(neighbor)
            predecessors[neighbor] = current
            if neighbor == graph_h:
                chain = [neighbor]
                while chain[-1] != graph_g:
                    chain.append(predecessors[chain[-1]])
                return list(reversed(chain))
            queue.append(neighbor)
    return None


# --------------------------------------------------------------------------- #
# Internal helpers
# --------------------------------------------------------------------------- #

def _connected_components(
    graphs: Sequence[CommunicationGraph],
    adjacency: Dict[CommunicationGraph, Set[CommunicationGraph]],
) -> List[FrozenSet[CommunicationGraph]]:
    remaining = list(graphs)
    seen: Set[CommunicationGraph] = set()
    components: List[FrozenSet[CommunicationGraph]] = []
    for start in remaining:
        if start in seen:
            continue
        component = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            current = queue.popleft()
            for neighbor in adjacency.get(current, ()):  # pragma: no branch
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    queue.append(neighbor)
        components.append(frozenset(component))
    return components


def _bfs_distances(
    source: CommunicationGraph,
    graphs: Sequence[CommunicationGraph],
    adjacency: Dict[CommunicationGraph, Set[CommunicationGraph]],
) -> Dict[CommunicationGraph, int]:
    distances: Dict[CommunicationGraph, int] = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in adjacency.get(current, ()):  # pragma: no branch
            if neighbor not in distances:
                distances[neighbor] = distances[current] + 1
                queue.append(neighbor)
    del graphs  # only needed for the signature symmetry with callers
    return distances
