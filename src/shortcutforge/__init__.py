"""Diameter-reducing shortcut sets and hop-bounded distance preservers.

Given a digraph G, a shortcut set H is a set of transitive-closure edges
whose addition collapses the hop diameter; a (beta, eps) hopset plays the
same role for weighted distances, guaranteeing that beta-hop paths in
G ∪ H already come within a (1+eps) factor of the true distances.
"""

__version__ = "0.1.0"

from .chain_decomp import ChainDecomposition, decompose
from .generators import FAMILIES, GenSpec, generate, subdivide
from .graph_core import (
    Digraph,
    LoadReport,
    WeightedDigraph,
    apsp,
    bounded_reachability,
    check_acyclic,
    condense,
    dump_edge_list,
    load_edge_list,
    load_edge_rows,
    scc_star_edges,
    transitive_closure,
    transitive_reduction,
)
from .hopset_algos import (
    HopsetEdges,
    HopsetParams,
    as_eps,
    build_hopset,
    geometric_ladder,
    hopset_large_hop,
    hopset_small_hop,
    partition_subpaths,
)
from .line_shortcut import PathShortcut, shortcut_path
from .oracles import (
    Check,
    VerificationReport,
    verify_hopset,
    verify_shortcut,
)
from .shortcut_algos import (
    ShortcutParams,
    ShortcutSet,
    build_shortcuts,
    first_incoming_edge,
    folklore,
    shortcut_large_d,
    shortcut_small_diam,
    small_diam_limit,
    tc_spanner,
)

__all__ = [
    "__version__",
    "ChainDecomposition",
    "decompose",
    "FAMILIES",
    "GenSpec",
    "generate",
    "subdivide",
    "Digraph",
    "LoadReport",
    "WeightedDigraph",
    "apsp",
    "bounded_reachability",
    "check_acyclic",
    "condense",
    "dump_edge_list",
    "load_edge_list",
    "load_edge_rows",
    "scc_star_edges",
    "transitive_closure",
    "transitive_reduction",
    "HopsetEdges",
    "HopsetParams",
    "as_eps",
    "build_hopset",
    "geometric_ladder",
    "hopset_large_hop",
    "hopset_small_hop",
    "partition_subpaths",
    "PathShortcut",
    "shortcut_path",
    "Check",
    "VerificationReport",
    "verify_hopset",
    "verify_shortcut",
    "ShortcutParams",
    "ShortcutSet",
    "build_shortcuts",
    "first_incoming_edge",
    "folklore",
    "shortcut_large_d",
    "shortcut_small_diam",
    "small_diam_limit",
    "tc_spanner",
]
