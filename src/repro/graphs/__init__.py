"""Communication-graph substrate.

This package implements the graph-theoretic objects of the paper's dynamic
system model (Section 2): directed communication graphs with self-loops,
their structural properties (roots, rooted, non-split), graph products,
the specific graph families used in the lower-bound proofs (H0/H1/H2,
deaf(G), the Ψ graphs), random generators, the α/β relations of Coulouma et
al. used in Section 7, and solvability characterizations.
"""

from repro.graphs.digraph import CommunicationGraph
from repro.graphs.families import (
    complete_graph,
    crash_tolerant_graphs,
    cycle_graph,
    deaf_family,
    deaf_variant,
    directed_path_graph,
    directed_star_graph,
    psi_family,
    psi_graph,
    two_agent_graphs,
)
from repro.graphs.generators import (
    random_graph,
    random_nonsplit_graph,
    random_rooted_graph,
    random_strongly_connected_graph,
)
from repro.graphs.packed import (
    in_neighborhood_ids,
    is_nonsplit_stack,
    is_rooted_stack,
    is_strongly_connected_stack,
    pack_adjacency_rows,
    product_sequence_stack,
    product_stack,
    reachability_stack,
    roots_stack,
    stack_adjacencies,
)
from repro.graphs.products import power, product, product_sequence, product_sequence_batch
from repro.graphs.properties import (
    is_complete,
    is_nonsplit,
    is_rooted,
    is_strongly_connected,
    reachable_set,
    roots,
)
from repro.graphs.relations import (
    alpha_classes,
    alpha_diameter,
    alpha_related,
    alpha_star_related,
    beta_classes,
    is_source_incompatible,
)
from repro.graphs.solvability import (
    asymptotic_consensus_solvable,
    exact_consensus_solvable,
    unsolvable_beta_classes,
)

__all__ = [
    "CommunicationGraph",
    "complete_graph",
    "crash_tolerant_graphs",
    "cycle_graph",
    "deaf_family",
    "deaf_variant",
    "directed_path_graph",
    "directed_star_graph",
    "psi_family",
    "psi_graph",
    "two_agent_graphs",
    "random_graph",
    "random_nonsplit_graph",
    "random_rooted_graph",
    "random_strongly_connected_graph",
    "power",
    "product",
    "product_sequence",
    "product_sequence_batch",
    "stack_adjacencies",
    "pack_adjacency_rows",
    "in_neighborhood_ids",
    "product_stack",
    "product_sequence_stack",
    "reachability_stack",
    "roots_stack",
    "is_rooted_stack",
    "is_nonsplit_stack",
    "is_strongly_connected_stack",
    "is_complete",
    "is_nonsplit",
    "is_rooted",
    "is_strongly_connected",
    "reachable_set",
    "roots",
    "alpha_classes",
    "alpha_diameter",
    "alpha_related",
    "alpha_star_related",
    "beta_classes",
    "is_source_incompatible",
    "asymptotic_consensus_solvable",
    "exact_consensus_solvable",
    "unsolvable_beta_classes",
]
