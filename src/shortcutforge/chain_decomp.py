"""Chain/antichain decomposition of a DAG.

Greedily peel a longest path (by vertex count) until either the budget of
``ell`` chains is spent or no remaining path has ceil(2n/ell) vertices, then
split the residue into antichains by Mirsky levels.  Peeled chains each carry
at least the threshold's worth of vertices, so the peeling provably stops
well inside the budget and the residue has fewer than ceil(2n/ell) levels.

Callers that want chains of the reachability order rather than of the raw
edge set pass the closure itself as a ReachabilityMatrix, whose off-diagonal
bits then serve as the edges; antichain independence is always relative to
the edges of whatever was passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import Digraph, ReachabilityMatrix, check_acyclic, transitive_closure


@dataclass(frozen=True)
class ChainDecomposition:
    chains: tuple[tuple[int, ...], ...]
    antichains: tuple[frozenset[int], ...]
    target_ell: int

    def covered(self) -> list[int]:
        """All vertices listed once per appearance (for cover checks)."""
        out = [v for chain in self.chains for v in chain]
        out.extend(v for anti in self.antichains for v in sorted(anti))
        return out


def _longest_path_dp(
    adj: np.ndarray, ids: np.ndarray, topo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """dp[i] = max vertices on a path ending at ids[i]; parent for rebuild."""
    m = len(ids)
    dp = np.ones(m, dtype=np.int64)
    parent = np.full(m, -1, dtype=np.int64)
    for pos in topo:
        preds = np.flatnonzero(adj[:, pos])
        if preds.size:
            best = preds[np.argmax(dp[preds])]
            dp[pos] = dp[best] + 1
            parent[pos] = best
    return dp, parent


def decompose(dag: Digraph | ReachabilityMatrix, ell: int) -> ChainDecomposition:
    """(ell, 2n/ell)-decomposition: <= ell chains, <= ceil(2n/ell) antichains.

    A ReachabilityMatrix must be a transitive closure (reflexive and
    transitive); it is then used as the closure without recomputing it.
    """
    n = dag.n
    if not 1 <= ell <= n:
        raise ValueError(f"ell={ell} outside [1, n={n}]")
    if isinstance(dag, ReachabilityMatrix):
        closure = dag
        adj_full = closure.bits.copy()
        np.fill_diagonal(adj_full, False)
    else:
        closure = transitive_closure(dag)
        adj_full = dag.adjacency
    check_acyclic(closure)

    threshold = -(-2 * n // ell)
    # Ancestor counts grow strictly along any edge, so sorting by them is a
    # topological order of every induced subgraph.
    anc = closure.bits.sum(axis=0)
    alive = np.ones(n, dtype=bool)
    chains: list[tuple[int, ...]] = []

    for _ in range(ell):
        ids = np.flatnonzero(alive)
        if ids.size == 0:
            break
        adj = adj_full[np.ix_(ids, ids)]
        topo = np.argsort(anc[ids], kind="stable")
        dp, parent = _longest_path_dp(adj, ids, topo)
        if dp.max() < threshold:
            break
        end = int(np.argmax(dp))  # first maximum = smallest end-vertex id
        rev = [end]
        while parent[rev[-1]] != -1:
            rev.append(int(parent[rev[-1]]))
        chain = tuple(int(ids[i]) for i in reversed(rev))
        chains.append(chain)
        alive[list(chain)] = False

    ids = np.flatnonzero(alive)
    antichains: list[frozenset[int]] = []
    if ids.size:
        adj = adj_full[np.ix_(ids, ids)]
        topo = np.argsort(anc[ids], kind="stable")
        levels, _ = _longest_path_dp(adj, ids, topo)
        for lvl in range(1, int(levels.max()) + 1):
            members = ids[levels == lvl]
            antichains.append(frozenset(int(v) for v in members))
    return ChainDecomposition(tuple(chains), tuple(antichains), ell)
