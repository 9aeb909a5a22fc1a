"""Bounded-hop distance-preserving edge sets for weighted digraphs.

Every emitted edge carries the exact source-graph distance of its endpoints,
so added edges can never undercut a true distance; the hop budget beta and
the stretch knob eps only govern the upper side of the contract.  Stretch
comparisons are exact: eps is a rational p/q and every threshold test is an
integer cross-multiplication.

The small-hop construction extracts a collection of hop-bounded shortest
paths (the "nice" collection), fully interconnects each path's vertex set at
exact distances, cuts paths into short subpaths, and attaches sampled
vertices to sampled subpaths through geometric distance ladders.  The
large-hop construction subsamples, keeps sampled pairs whose distance is
achieved within a bounded hop radius, and runs the small-hop construction
on that graph; when the sample is all of V, on G's own distances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, compress
from typing import Sequence

import numpy as np

from ._intmath import ceil_root, floor_root
from ._seeds import SITE_GROUP_SAMPLE, SITE_VERTEX_SAMPLE, child_seed, sample_mask, site_rng
from .graph_core import TaggedEdges, WeightedDigraph, apsp, apsp_hops
from .graph_core import hop_limited_dist  # noqa: F401  not called; perfbench/spans.py wraps it

MIN_HOPBOUND = 12


def as_eps(eps: Fraction | str) -> Fraction:
    """Normalize the stretch knob to an exact Fraction in (0, 1)."""
    if isinstance(eps, float):
        raise TypeError("eps must be an exact rational (Fraction or 'p/q' string)")
    try:
        frac = Fraction(eps)
    except ZeroDivisionError:
        raise ValueError(f"eps {eps!r} has a zero denominator") from None
    if not 0 < frac < 1:
        raise ValueError(f"eps must lie in (0, 1), got {frac}")
    return frac


def check_hop_budget(beta: int) -> None:
    """Raise ValueError for a hop budget below MIN_HOPBOUND."""
    if beta < MIN_HOPBOUND:
        raise ValueError(f"hop budget must be >= {MIN_HOPBOUND}, got {beta}")


def check_large_hop_budget(n: int, beta: int) -> None:
    """Raise ValueError for a large-hop budget below max(MIN_HOPBOUND, floor(n^(1/4)))."""
    if beta < MIN_HOPBOUND or beta < floor_root(n, 4):
        raise ValueError(f"hop budget {beta} below max({MIN_HOPBOUND}, floor(n^(1/4)))")


class HopsetEdges(TaggedEdges):
    """Tagged weighted rows (u, v, w, tag), w the exact distance of (u, v) in G."""

    WIDTH = 3
    TAGS = ("induced_closure", "geometric_ladder")


def _chain_lengths(sub: np.ndarray, end: int) -> tuple[np.ndarray, np.ndarray]:
    """Tight steps and longest tight chains into ``end``, on one interval.

    ``sub`` is the distance matrix of a shortest-path interval.  A step
    a -> b, b != a, is tight when d(a, b) + d(b, end) = d(a, end); returns
    the tight mask and, per vertex, the most tight steps that reach ``end``.
    Weights are >= 1, so each step lowers d(., end): vertices are settled in
    rising d(., end), those at one distance together, each taking one more
    than the longest chain among its tight steps.  O(|I|^2) in all.
    """
    to_end = sub[:, end]
    tight = sub + to_end == to_end[:, None]
    np.fill_diagonal(tight, False)
    chain = np.zeros(len(sub), np.int64)
    order = np.argsort(to_end, kind="stable")
    starts = np.flatnonzero(np.diff(to_end[order])) + 1
    for group in np.split(order, starts)[1:]:  # the first group is end alone
        chain[group] = (tight[group] * (chain + 1)).max(axis=1)
    return tight, chain


def _extract_nice_paths(
    d: np.ndarray, most_hops: np.ndarray | None, beta: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Greedy h-hop tight paths, h = beta // 12, least (dist, i, j) first.

    A pair is tight when some walk of exactly h closure edges through alive
    vertices weighs dist(i, j); the greedy takes the least tight pair, walks
    back along smallest-id next vertices, kills the walk and repeats.  Such
    a walk splits a shortest path of G into h pieces, so with every vertex
    alive a pair is tight iff one of its shortest paths has >= h edges, that
    is ``most_hops`` >= h; at h = 1 every finite pair is, and ``most_hops``
    is unused.  Candidates are those pairs, taken in (dist, i, j) order.
    Two facts make that exact:

    - Monotonicity: vertices only die, so a pair that fails the test never
      passes later.  When a pair with both endpoints alive is reached, every
      lesser pair is dead, failed or extracted; it is tested once and, if it
      passes, it is the pair the greedy picks.
    - Interval locality: weights are >= 1, so every vertex of a tight walk
      from i to j lies on I(i, j) = {k alive : d(i,k) + d(k,j) = d(i,j)}, and
      so does every tight walk from a vertex of I(i, j) to j.  The test and
      the walk back give the same answer on I(i, j) as on all alive vertices.

    At h >= 2 the test is ``_chain_lengths`` on I(i, j): the pair is tight
    iff its longest tight chain has >= h steps, as a longer chain merges
    into one of exactly h.  The walk back takes the smallest-id tight step
    whose own chain is still long enough.  At h = 1 an alive finite pair is
    always tight and is its own path.
    """
    h = beta // MIN_HOPBOUND
    paths: list[tuple[int, ...]] = []
    weights: list[tuple[int, ...]] = []
    if len(d) < h + 1:
        return paths, weights
    if h == 1:
        cand = np.isfinite(d)
        np.fill_diagonal(cand, False)
    else:
        cand = most_hops >= h
    ii, jj = np.nonzero(cand)
    order = np.argsort(d[ii, jj], kind="stable")  # nonzero is (i, j)-sorted

    alive = np.ones(len(d), dtype=bool)
    for i, j in zip(ii[order].tolist(), jj[order].tolist()):
        if not (alive[i] and alive[j]):
            continue
        verts: tuple[int, ...] = (i, j)
        if h > 1:
            ids = np.flatnonzero(alive & (d[i] + d[:, j] == d[i, j]))
            cur, end = np.searchsorted(ids, (i, j))
            tight, chain = _chain_lengths(d[np.ix_(ids, ids)], end)
            if chain[cur] < h:
                continue
            seq = [cur]
            for level in range(h - 1, 0, -1):
                cur = int(np.flatnonzero(tight[cur] & (chain >= level))[0])
                seq.append(cur)
            seq.append(end)
            assert len(set(seq)) == h + 1, "shortest-path walk revisited a vertex"
            verts = tuple(ids[seq].tolist())
        paths.append(verts)
        weights.append(tuple(d[verts[:-1], verts[1:]].astype(np.int64).tolist()))
        alive[list(verts)] = False
    return paths, weights


def _dist_and_most_hops(g: WeightedDigraph, beta: int) -> tuple[np.ndarray, np.ndarray | None]:
    """G's distances, and the most hops on each pair's shortest paths when h >= 2."""
    if beta // MIN_HOPBOUND == 1:
        return apsp(g), None
    return apsp_hops(g, most=True)


def partition_subpaths(
    paths: Sequence[tuple[int, ...]], weights: Sequence[Sequence[int]], eps: Fraction | str
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per path, greedy prefix cuts: longest prefix of weight <= eps * len, bridge dropped.

    ``weights[i]`` are the edge weights of ``paths[i]``, whose length is their sum.
    """
    frac = as_eps(eps)
    num, den = frac.numerator, frac.denominator
    per_path: list[tuple[tuple[int, ...], ...]] = []
    for verts, ws in zip(paths, weights):
        csum = [0, *accumulate(ws)]
        total = csum[-1]
        pieces: list[tuple[int, ...]] = []
        s = 0
        while s < len(verts):
            t = s
            while t + 1 < len(verts) and (csum[t + 1] - csum[s]) * den <= num * total:
                t += 1
            pieces.append(verts[s : t + 1])
            s = t + 1
        per_path.append(tuple(pieces))
    return tuple(per_path)


def geometric_ladder(
    dist: np.ndarray,
    sources: Sequence[int],
    subpaths: Sequence[Sequence[int]],
    eps: Fraction | str,
) -> np.ndarray:
    """(k, 3) rows (v, u, dist(v, u)): each source's ladder into each subpath.

    Scanning a subpath, v takes the first vertex u != v it reaches, then each
    (1+eps) drop below the last rung.  One step per subpath position across
    all (source, subpath) pairs; the drop test is exact, in Python ints where
    int64 could overflow.  Rows are grouped by source, subpath, path order.
    """
    frac = as_eps(eps)
    num, den = frac.numerator, frac.denominator
    sources = np.asarray(sources, dtype=np.int64)
    lens = np.fromiter(map(len, subpaths), np.int64, len(subpaths))
    cols = np.full((len(lens), lens.max(initial=0)), -1, dtype=np.int64)  # -1 pads
    cols[np.arange(cols.shape[1]) < lens[:, None]] = np.fromiter(chain(*subpaths), np.int64)
    top = int(dist[np.isfinite(dist)].max(initial=1))
    # the last rung's distance; 0 until the first, as u != v lie >= 1 apart
    cur = np.zeros((len(sources), len(lens)), np.int64 if (den + num) * top < 2**63 else object)
    hits = [np.empty((0, 4), dtype=np.int64)]
    for u in cols.T:
        d = dist[np.ix_(sources, u)]
        ok = (u >= 0) & (u != sources[:, None]) & np.isfinite(d)
        d = np.where(ok, d, 0).astype(np.int64)
        ok &= (cur == 0) | ((den + num) * d.astype(cur.dtype) < den * cur)
        cur[ok] = d[ok]
        s, p = np.nonzero(ok)
        hits.append(np.column_stack([s, p, u[p], d[ok]]))
    s, p, u, w = np.concatenate(hits).T
    return np.column_stack([sources[s], u, w])[np.lexsort((p, s))]  # stable: path order kept


def _small_hop_rows(
    dist: np.ndarray,
    most_hops: np.ndarray | None,
    beta: int,
    half: Fraction,
    c: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The small-hop construction's rows, from distances alone.

    Reads ``dist``, the n x n distance matrix of a graph on n >= 2 vertices
    (+inf where unreachable), and at h = beta // 12 >= 2 ``most_hops``, the
    most hops on each pair's shortest paths (None at h = 1, where it is
    unused); ``half`` is the internal stretch knob eps/2.  Returns (k, 3) int
    rows (u, v, dist(u, v)), the induced closures, then the ladders, and one
    tag name per row.  A pair may appear twice, with one weight;
    ``HopsetEdges`` keeps its first row.
    """
    n = len(dist)
    paths, weights = _extract_nice_paths(dist, most_hops, beta)

    path_of = np.full(n, -1, dtype=np.int64)  # -1: on no nice path
    path_of[np.fromiter(chain(*paths), np.int64)] = np.repeat(
        np.arange(len(paths)), beta // MIN_HOPBOUND + 1
    )
    same = (path_of[:, None] == path_of) & (path_of >= 0)[:, None] & np.isfinite(dist)
    np.fill_diagonal(same, False)
    closure = np.column_stack([np.argwhere(same), dist[same].astype(np.int64)])

    subpaths = [*chain(*partition_subpaths(paths, weights, half))]
    p_samp = min(1.0, c * math.log(n) / beta)
    v_mask = sample_mask(seed, SITE_VERTEX_SAMPLE, n, p_samp)
    s_mask = sample_mask(seed, SITE_GROUP_SAMPLE, len(subpaths), p_samp)
    ladders = geometric_ladder(dist, np.flatnonzero(v_mask), [*compress(subpaths, s_mask)], half)
    tags = np.repeat(["induced_closure", "geometric_ladder"], [len(closure), len(ladders)])
    return np.concatenate([closure, ladders]), tags


def hopset_small_hop(
    g: WeightedDigraph,
    beta: int,
    eps: Fraction | str,
    c: float = 3.0,
    *,
    seed: int,
) -> HopsetEdges:
    """Nice-path construction for hop budgets up to n^(1/4).

    Runs with eps' = eps/2 internally: the per-path induced closures are
    exact, the ladders lose (1+eps') twice along a detour, and the halved
    knob keeps the end-to-end stretch within (1+eps).
    """
    frac = as_eps(eps)
    check_hop_budget(beta)
    if g.n <= 1:
        return HopsetEdges(g.n, (), ())
    rows, tags = _small_hop_rows(*_dist_and_most_hops(g, beta), beta, frac / 2, c, seed)
    return HopsetEdges(g.n, rows, tags)


def hopset_large_hop(
    g: WeightedDigraph,
    beta: int,
    eps: Fraction | str,
    c: float = 3.0,
    *,
    seed: int,
) -> HopsetEdges:
    """Sampling construction for hop budgets of at least n^(1/4).

    Samples ceil(c*(n/beta)^(4/3)*ln n) vertices and keeps the sampled pairs
    whose true distance is already achieved within hop radius r (least r
    with r^3*n >= beta^4): one hop-counting Dijkstra, ``apsp_hops``, gives
    each pair's distance and the fewest hops on its shortest paths.  It
    runs the small-hop construction on the kept pairs with hop budget
    beta_sub = max(12, floor(size^(1/4) / ln n)), which is 12 for every
    n <= MAX_VERTICES, so the inner nice paths have one hop.  Returned
    edges are re-expressed with exact distances of the original graph and
    keep the tag the inner construction gave them.

    When the sample is all of V, the kept pairs have exactly G's distances,
    so the inner construction reads ``apsp_hops``'s matrix and no kept-pair
    graph is built.  Every kept edge weighs a true distance, so inner
    distances are >= G's; every edge of a shortest path of G is a 1-hop pair
    with w = d, so it is kept, and inner distances are <= G's.  The same two
    facts give equal most-hop counts, the inner h >= 2 input.  A partial
    sample keeps the kept-pair graph, whose distances can exceed G's.
    """
    frac = as_eps(eps)
    check_large_hop_budget(g.n, beta)
    n = g.n
    if n <= 1:
        return HopsetEdges(n, (), ())

    size = min(n, math.ceil(c * (n / beta) ** (4.0 / 3.0) * math.log(n)))
    rng = site_rng(seed, SITE_VERTEX_SAMPLE)
    sampled = np.sort(rng.choice(n, size=size, replace=False))
    if len(sampled) <= 1:
        return HopsetEdges(n, (), ())

    full, fewest_hops = apsp_hops(g)
    beta_sub = max(MIN_HOPBOUND, int(len(sampled) ** 0.25 / math.log(n)))
    if size == n:  # sampled is arange(n)
        dist = full
        most_hops = None if beta_sub < 2 * MIN_HOPBOUND else apsp_hops(g, most=True)[1]
    else:
        r = max(1, ceil_root(-(-(beta**4) // n), 3))
        ix = np.ix_(sampled, sampled)
        keep = np.isfinite(full[ix]) & (fewest_hops[ix] <= r)
        np.fill_diagonal(keep, False)
        sub_w = full[ix][keep].astype(np.int64)
        sub = WeightedDigraph(len(sampled), np.column_stack([np.argwhere(keep), sub_w]))
        dist, most_hops = _dist_and_most_hops(sub, beta_sub)
    rows, tags = _small_hop_rows(dist, most_hops, beta_sub, frac / 2, c, child_seed(seed))
    # sampled is sorted, so mapped rows keep their pair order and first-row winners
    a, b = sampled[rows[:, :2].T]
    rows = np.column_stack([a, b, full[a, b].astype(np.int64)])
    return HopsetEdges(n, rows, tags)


def build_hopset(
    g: WeightedDigraph,
    beta: int,
    eps: Fraction | str,
    c: float = 3.0,
    *,
    seed: int,
) -> HopsetEdges:
    """Dispatch on beta vs n^(1/4) between the two constructions."""
    check_hop_budget(beta)
    if beta <= ceil_root(g.n, 4):
        return hopset_small_hop(g, beta, eps, c, seed=seed)
    return hopset_large_hop(g, beta, eps, c, seed=seed)
