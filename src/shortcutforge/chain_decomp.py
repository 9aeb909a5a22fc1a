"""Chain/antichain decomposition of a DAG.

Greedily peel a longest path (by vertex count) until either the budget of
``ell`` chains is spent or no remaining path has ceil(2n/ell) vertices, then
split the residue into antichains by Mirsky levels.  Peeled chains each carry
at least the threshold's worth of vertices, so the peeling provably stops
well inside the budget and the residue has fewer than ceil(2n/ell) levels.

Each peel is one level sweep: Kahn rounds over the alive vertices, one array
row sum per round, give every vertex its level, the vertex count of the
longest alive path ending there.  The chain is walked back from the
smallest-id vertex on the top level, taking the smallest-id predecessor one
level down at each step; the residue's levels are its antichains.

Callers that want chains of the reachability order rather than of the raw
edge set pass the closure itself as a ReachabilityMatrix; its rows, unpacked
with the diagonal cleared, then serve as the edges.  Antichain independence
is always relative to the edges of whatever was passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import Digraph, ReachabilityMatrix, check_acyclic, transitive_closure


@dataclass(frozen=True)
class ChainDecomposition:
    chains: tuple[tuple[int, ...], ...]
    antichains: tuple[frozenset[int], ...]

    def covered(self) -> list[int]:
        """All vertices listed once per appearance (for cover checks)."""
        out = [v for chain in self.chains for v in chain]
        out.extend(v for anti in self.antichains for v in sorted(anti))
        return out


def _levels(adj: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Vertices on the longest alive path ending at each alive vertex, else 0.

    Kahn rounds over the alive vertices: round k takes every vertex whose
    alive predecessors were all taken in earlier rounds, which is level k.
    """
    level = np.zeros(len(alive), dtype=np.int64)
    indeg = adj[alive].sum(axis=0, dtype=np.int32)
    indeg[~alive] = -1
    frontier = np.flatnonzero(indeg == 0)
    depth = 0
    while frontier.size:
        depth += 1
        level[frontier] = depth
        indeg[frontier] = -1
        indeg -= adj[frontier].sum(axis=0, dtype=np.int32)
        frontier = np.flatnonzero(indeg == 0)
    return level


def decompose(dag: Digraph | ReachabilityMatrix, ell: int) -> ChainDecomposition:
    """(ell, 2n/ell)-decomposition: <= ell chains, <= ceil(2n/ell) antichains.

    A ReachabilityMatrix must be a transitive closure (reflexive and
    transitive); it is then used as the closure without recomputing it.
    """
    n = dag.n
    if not 1 <= ell <= n:
        raise ValueError(f"ell={ell} outside [1, n={n}]")
    if isinstance(dag, ReachabilityMatrix):
        check_acyclic(dag)
        adj = dag.rows()
        np.fill_diagonal(adj, False)
    else:
        check_acyclic(transitive_closure(dag))
        adj = dag.adjacency

    threshold = -(-2 * n // ell)
    alive = np.ones(n, dtype=bool)
    chains: list[tuple[int, ...]] = []
    level = _levels(adj, alive)
    while len(chains) < ell and level.max() >= threshold:
        # Smallest-id end on the top level, then smallest-id predecessor one
        # level down at each step back.
        rev = [int(np.argmax(level))]
        for lvl in range(int(level[rev[0]]) - 1, 0, -1):
            rev.append(int(np.argmax(adj[:, rev[-1]] & (level == lvl))))
        chains.append(tuple(reversed(rev)))
        alive[rev] = False
        level = _levels(adj, alive)

    antichains = tuple(
        frozenset(np.flatnonzero(level == lvl).tolist())
        for lvl in range(1, int(level.max()) + 1)
    )
    return ChainDecomposition(tuple(chains), antichains)
