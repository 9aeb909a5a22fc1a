"""Test-only references: checkers and helpers that no package call path reaches.

Each is kept verbatim from the package, where it lived before the public
surface was cut to what the CLI and the constructions call:

- ``verify_nice`` re-checks a nice-path collection's properties N1-N6, the
  last two by exponential enumeration (``_hop_exact_pairs``) on instances
  of at most ``ENUMERATION_VERTEX_CAP`` vertices;
- ``nice_collection`` is the greedy extraction on a graph, as the small-hop
  construction runs it on a distance matrix;
- ``ladder_size_limit`` bounds one geometric ladder's rungs;
- ``path_size_bound`` bounds one path's midpoint-recursion shortcut;
- ``weighted_closure`` builds a weighted graph.

``hop_counts`` is not from the package: the tests count hops with scipy's
BFS rather than with the package's hop-limited DP.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from shortcutforge.graph_core import Digraph, WeightedDigraph, apsp
from shortcutforge.hopset_algos import _dist_and_most_hops, _extract_nice_paths, check_hop_budget
from shortcutforge.oracles import Check, VerificationReport
from shortcutforge.oracles import apsp as oracle_apsp

ENUMERATION_VERTEX_CAP = 60


def nice_collection(
    g: WeightedDigraph, beta: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Greedily extract minimum-length hop-exact shortest paths.

    Works on the weighted closure (edge (u,v) weighs dist(u,v)); extraction
    deletes path vertices, and remaining closure edges keep their weights
    since each is a direct edge.  Stops when no residual pair has a shortest
    path of exactly h = beta // 12 hops; then none has more, as the first h
    hops of a longer one would be such a path.  At h >= 2 one hop-counting
    Dijkstra (``apsp_hops``) gives the distances and, per pair, the most
    hops on a shortest path; at h = 1 ``apsp`` alone does.  Vertices only
    die, so a pair without such a path never gains one (monotonicity), and
    every vertex of such a path lies on its endpoints' alive shortest-path
    interval (interval locality).  Together they let ``_extract_nice_paths``
    test each pair at most once, on that interval, and still pick what the
    greedy picks.  Returns the paths and, per path, its edge weights.
    """
    check_hop_budget(beta)
    return _extract_nice_paths(*_dist_and_most_hops(g, beta), beta)


def _hop_exact_pairs(
    dist: np.ndarray, ids: Sequence[int], hops: int
) -> dict[tuple[int, int], int]:
    """Enumerate pairs joined by an exactly-``hops``-hop shortest closure path.

    Pure DFS over vertex tuples; exponential, callers guard the size.
    """
    found: dict[tuple[int, int], int] = {}
    idlist = [int(v) for v in ids]

    def extend(prefix: list[int], cost: int) -> None:
        if len(prefix) == hops + 1:
            a, b = prefix[0], prefix[-1]
            if cost == dist[a, b]:
                key = (a, b)
                if key not in found or cost < found[key]:
                    found[key] = cost
            return
        last = prefix[-1]
        for nxt in idlist:
            if nxt in prefix:
                continue
            step = dist[last, nxt]
            # A prefix that is not itself shortest can never complete into a
            # shortest path, so prune on the running cost.
            if np.isfinite(step) and cost + int(step) == dist[prefix[0], nxt]:
                extend(prefix + [nxt], cost + int(step))

    for start in idlist:
        extend([start], 0)
    return found


def verify_nice(
    g: WeightedDigraph,
    paths: Sequence[Sequence[int]],
    weights: Sequence[Sequence[int]],
    beta: int,
    instance: str = "",
) -> VerificationReport:
    """Re-check the nice-path collection properties N1 through N6.

    ``weights[i]`` are the edge weights of ``paths[i]``; a path's length is
    their sum.
    """
    hops = beta // 12
    paths = [tuple(int(v) for v in p) for p in paths]
    weights = [tuple(int(w) for w in ws) for ws in weights]
    lengths = [sum(ws) for ws in weights]
    dg = oracle_apsp(g)
    checks: list[Check] = []

    seen: set[int] = set()
    overlap = None
    for p in paths:
        for v in p:
            if v in seen:
                overlap = (v,)
            seen.add(v)
    closure_bad = next(
        (
            (p[i], p[i + 1])
            for p, ws in zip(paths, weights)
            for i in range(len(p) - 1)
            if not np.isfinite(dg[p[i], p[i + 1]])
            or ws[i] != int(dg[p[i], p[i + 1]])
        ),
        None,
    )
    n1 = overlap or closure_bad
    checks.append(Check("n1_disjoint_closure_paths", "fail" if n1 else "pass", witness=n1))

    n2 = next(
        (tuple(p) for p in paths if len(p) != hops + 1 or len(set(p)) != len(p)), None
    )
    checks.append(Check("n2_exact_hop_count", "fail" if n2 else "pass", witness=n2))

    n3 = next(
        (
            (p[0], p[-1])
            for p, total in zip(paths, lengths)
            if not np.isfinite(dg[p[0], p[-1]]) or total != int(dg[p[0], p[-1]])
        ),
        None,
    )
    checks.append(Check("n3_length_is_distance", "fail" if n3 else "pass", witness=n3))

    n4 = next(
        (
            (i, lengths[i], lengths[i + 1])
            for i in range(len(lengths) - 1)
            if lengths[i] > lengths[i + 1]
        ),
        None,
    )
    checks.append(Check("n4_lengths_nondecreasing", "fail" if n4 else "pass", witness=n4))

    if g.n > ENUMERATION_VERTEX_CAP:
        checks.append(Check("n5_locally_minimal", "skip", detail="enumeration cap"))
        checks.append(Check("n6_no_long_residual_path", "skip", detail="enumeration cap"))
        return VerificationReport(instance, tuple(checks))

    alive = set(range(g.n))
    n5 = None
    for p, total in zip(paths, lengths):
        candidates = _hop_exact_pairs(dg, sorted(alive), hops)
        best = min(candidates.values(), default=None)
        if best is None or total != best:
            n5 = (p[0], p[-1], total, best)
            break
        alive -= set(p)
    checks.append(Check("n5_locally_minimal", "fail" if n5 else "pass", witness=n5))

    if n5 is None:
        alive = set(range(g.n)) - seen
        leftover = _hop_exact_pairs(dg, sorted(alive), hops)
        n6 = min(leftover.items(), key=lambda kv: kv[1])[0] if leftover else None
        checks.append(
            Check("n6_no_long_residual_path", "fail" if n6 else "pass", witness=n6)
        )
    else:
        checks.append(Check("n6_no_long_residual_path", "skip", detail="n5 failed"))
    return VerificationReport(instance, tuple(checks))


def ladder_size_limit(n: int, max_weight: int, eps: Fraction) -> int:
    """ceil(log_{1+eps}(n*W)) + 1, computed with exact integer powers."""
    target = max(2, n * max_weight)
    num, den = eps.numerator, eps.denominator
    k = 0
    hi, lo = 1, 1  # (1+eps)^k as hi/lo
    while hi < target * lo:
        hi *= den + num
        lo *= den
        k += 1
    return k + 1


def path_size_bound(k: int) -> int:
    """The |P| * ceil(log2 |P|) budget ``shortcut_path`` stays within on k vertices."""
    return k * max(1, (k - 1).bit_length()) if k > 1 else 0


def weighted_closure(g: WeightedDigraph) -> WeightedDigraph:
    """Edge (u, v, dist(u, v)) for every finite reachable pair u != v."""
    d = apsp(g)
    mask = np.isfinite(d)
    np.fill_diagonal(mask, False)
    return WeightedDigraph(
        g.n, np.column_stack([np.argwhere(mask), d[mask].astype(np.int64)])
    )


def hop_counts(g: Digraph) -> np.ndarray:
    """Fewest edges from u to v per pair, by BFS; 0 on the diagonal, inf if unreachable."""
    adj = csr_matrix((np.ones(g.m), (g.array[:, 0], g.array[:, 1])), shape=(g.n, g.n))
    return csgraph.shortest_path(adj, unweighted=True)
