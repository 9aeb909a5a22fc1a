"""Chain/antichain decomposition of a DAG.

Greedily peel a longest path (by vertex count) until either the budget of
``ell`` chains is spent or no remaining path has ceil(2n/ell) vertices, then
split the residue into antichains by Mirsky levels.  Peeled chains each carry
at least the threshold's worth of vertices, so the peeling provably stops
well inside the budget and the residue has fewer than ceil(2n/ell) levels.

A vertex is alive until peeled; its level is the alive-vertex count of the
best DAG path ending there.  The DAG's topological generations are computed
once, and each generation's levels are one ``np.maximum.reduceat`` over its
in-edges: ``alive + max(pred levels)`` when chains follow the closure (peeled
vertices pass levels through), ``alive * (1 + max(pred levels))`` when they
follow the edges (peeled vertices block).  After a peel only the generations
from the chain's first vertex on are redone.  The chain is walked back from
the smallest-id vertex on the top alive level, taking the smallest-id alive
predecessor one level down at each step: a closure ancestor, read from the
closure's unpacked rows, or an in-neighbour, read from the sorted in-edges;
the residue's alive levels are its antichains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import Digraph, ReachabilityMatrix, check_acyclic
from .graph_core import transitive_closure  # noqa: F401  not called; perfbench/spans.py wraps it


@dataclass(frozen=True)
class ChainDecomposition:
    chains: tuple[tuple[int, ...], ...]
    antichains: tuple[frozenset[int], ...]

    def covered(self) -> list[int]:
        """All vertices listed once per appearance (for cover checks)."""
        out = [v for chain in self.chains for v in chain]
        out.extend(v for anti in self.antichains for v in sorted(anti))
        return out


def _generations(dag: Digraph) -> np.ndarray:
    """Edges on the longest path ending at each vertex of an acyclic dag.

    Kahn's rounds; each round gathers the frontier's out-edges, the ranges
    dst[ptr[v]:ptr[v + 1]] of the (u, v)-sorted rows, with one index array.
    """
    src, dst = dag.array.T
    ptr = np.searchsorted(src, np.arange(dag.n + 1))
    indeg = np.bincount(dst, minlength=dag.n)
    gen = np.zeros(dag.n, dtype=np.int64)
    frontier, depth = np.flatnonzero(indeg == 0), 0
    while frontier.size:
        gen[frontier] = depth
        indeg[frontier] = -1
        starts, counts = ptr[frontier], ptr[frontier + 1] - ptr[frontier]
        out = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        indeg -= np.bincount(dst[out], minlength=dag.n)
        frontier, depth = np.flatnonzero(indeg == 0), depth + 1
    return gen


def decompose(
    dag: Digraph, ell: int, closure: ReachabilityMatrix | None = None
) -> ChainDecomposition:
    """(ell, 2n/ell)-decomposition: <= ell chains, <= ceil(2n/ell) antichains.

    ``closure``, if given, must be ``dag``'s own transitive closure; chains
    then follow the reachability order instead of the DAG's edges.
    """
    n = dag.n
    if not 1 <= ell <= n:
        raise ValueError(f"ell={ell} outside [1, n={n}]")
    passes = closure is not None  # peeled vertices pass levels through
    check_acyclic(dag)
    if passes:  # closure ancestors, read by the walk back
        pred = closure.rows()
        np.fill_diagonal(pred, False)

    # Per generation: its vertices, their in-edges' sources, each one's first in-edge.
    gen = _generations(dag)
    src, dst = dag.array[np.lexsort((dag.array[:, 1], gen[dag.array[:, 1]]))].T
    # Each vertex's in-edges, a run of dst with ascending sources: src[lo[v]:hi[v]].
    firsts = np.flatnonzero(np.diff(dst, prepend=-1))
    lo, hi = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    lo[dst[firsts]], hi[dst[firsts]] = firsts, np.append(firsts[1:], len(dst))
    steps = [(np.flatnonzero(gen == 0), src[:0], None)]
    cuts = np.searchsorted(gen[dst], np.arange(2, gen.max() + 1))
    for srcs, dsts in zip(np.split(src, cuts), np.split(dst, cuts)):
        starts = np.flatnonzero(np.diff(dsts, prepend=-1))
        steps.append((dsts[starts], srcs, starts))

    alive = np.ones(n, dtype=np.int64)
    level = np.zeros(n, dtype=np.int64)

    def sweep(start: int) -> np.ndarray:
        for verts, srcs, starts in steps[start:]:
            best = np.maximum.reduceat(level[srcs], starts) if srcs.size else 0
            level[verts] = alive[verts] + best if passes else alive[verts] * (best + 1)
        return level * alive

    threshold = -(-2 * n // ell)
    chains: list[tuple[int, ...]] = []
    alive_level = sweep(0)
    while len(chains) < ell and alive_level.max() >= threshold:
        rev = [int(np.argmax(alive_level))]
        for lvl in range(int(alive_level[rev[0]]) - 1, 0, -1):
            if passes:
                rev.append(int(np.argmax(pred[:, rev[-1]] & (alive_level == lvl))))
            else:
                ins = src[lo[rev[-1]]:hi[rev[-1]]]
                rev.append(int(ins[np.argmax(alive_level[ins] == lvl)]))
        chains.append(tuple(reversed(rev)))
        alive[rev] = 0
        alive_level = sweep(int(gen[rev[-1]]))

    antichains = tuple(
        frozenset(np.flatnonzero(alive_level == lvl).tolist())
        for lvl in range(1, int(alive_level.max()) + 1)
    )
    return ChainDecomposition(tuple(chains), antichains)
