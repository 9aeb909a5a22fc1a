"""Digraph types and the matrix kernels every construction reads.

Vertices are dense 0-based ids.  All types are immutable after construction
and every operation is a pure function, so concurrent callers are safe.  The
dense numpy kernels cap instances at MAX_VERTICES; unreachable distances are
IEEE +inf, which is strictly greater than any n*W path weight and saturates
under addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph

MAX_VERTICES = 4096

INF = math.inf


def _check_vertex_count(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"vertex count must be a non-negative int, got {n!r}")
    if n > MAX_VERTICES:
        raise ValueError(
            f"vertex count {n} exceeds the supported ceiling of {MAX_VERTICES}"
        )


@dataclass(frozen=True)
class Digraph:
    """Unweighted digraph; no self-loops, no duplicate edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        _check_vertex_count(n)
        es = frozenset((int(u), int(v)) for u, v in edges)
        for u, v in es:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", es)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean n x n adjacency matrix."""
        a = np.zeros((self.n, self.n), dtype=bool)
        if self.edges:
            arr = np.array(sorted(self.edges), dtype=np.intp)
            a[arr[:, 0], arr[:, 1]] = True
        a.setflags(write=False)
        return a

    def union(self, extra: Iterable[tuple[int, int]]) -> "Digraph":
        return Digraph(self.n, set(self.edges) | {(int(u), int(v)) for u, v in extra})


@dataclass(frozen=True)
class WeightedDigraph:
    """Digraph with integer weights >= 1; at most one weight per (u, v)."""

    n: int
    edges: frozenset[tuple[int, int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]] = ()) -> None:
        _check_vertex_count(n)
        es = frozenset((int(u), int(v), int(w)) for u, v, w in edges)
        seen: set[tuple[int, int]] = set()
        for u, v, w in sorted(es):
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if w < 1:
                raise ValueError(f"edge ({u}, {v}) has weight {w} < 1")
            if (u, v) in seen:
                raise ValueError(f"duplicate weights for edge pair ({u}, {v})")
            seen.add((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", es)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def max_weight(self) -> int:
        return max((w for _, _, w in self.edges), default=1)

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Read-only float64 matrix: w(u, v), +inf where no edge."""
        a = np.full((self.n, self.n), np.inf)
        for u, v, w in self.edges:
            a[u, v] = w
        a.setflags(write=False)
        return a

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, tgt, weight) arrays sorted by (tgt, src) for relaxation kernels."""
        if not self.edges:
            z = np.zeros(0, dtype=np.intp)
            return z, z, np.zeros(0)
        rows = sorted((v, u, w) for u, v, w in self.edges)
        arr = np.array(rows, dtype=np.int64)
        return (
            arr[:, 1].astype(np.intp),
            arr[:, 0].astype(np.intp),
            arr[:, 2].astype(np.float64),
        )

    def union_min(self, extra: Iterable[tuple[int, int, int]]) -> "WeightedDigraph":
        """Union keeping the smaller weight when a pair appears on both sides."""
        best: dict[tuple[int, int], int] = {(u, v): w for u, v, w in self.edges}
        for u, v, w in extra:
            key = (int(u), int(v))
            w = int(w)
            if key not in best or w < best[key]:
                best[key] = w
        return WeightedDigraph(self.n, {(u, v, w) for (u, v), w in best.items()})


@dataclass(frozen=True)
class TaggedEdges:
    """Provenance-tagged edge rows, (u, v, tag) or weighted (u, v, w, tag).

    Rows are deduplicated by pair, the first row winning, and sorted.
    Subclasses fix the tag vocabulary in TAGS.
    """

    n: int
    tagged: tuple[tuple, ...]
    params: object

    TAGS: ClassVar[tuple[str, ...]] = ()

    def __init__(self, n: int, tagged: Iterable[tuple], params: object) -> None:
        # Keyed by u*n + v: int keys hash and sort faster than pairs, and
        # sort in the same (u, v) order.
        kept: dict[int, tuple] = {}
        tags = self.TAGS
        for row in tagged:
            u, v, tag = int(row[0]), int(row[1]), row[-1]
            if tag not in tags:
                raise ValueError(f"unknown provenance tag {tag!r}")
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad {type(self).__name__} edge ({u}, {v}) for n={n}")
            if len(row) == 4:
                w = int(row[2])
                if w < 1:
                    raise ValueError(f"edge ({u}, {v}) has weight {w} < 1")
                row = (u, v, w, tag)
            else:
                row = (u, v, tag)
            kept.setdefault(u * n + v, row)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tagged", tuple(kept[k] for k in sorted(kept)))
        object.__setattr__(self, "params", params)

    @cached_property
    def edges(self) -> frozenset[tuple[int, ...]]:
        """(u, v) pairs, or (u, v, w) triples for weighted rows."""
        return frozenset(row[:-1] for row in self.tagged)

    @property
    def tag_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(self.TAGS, 0)
        for row in self.tagged:
            counts[row[-1]] += 1
        return counts

    def __len__(self) -> int:
        return len(self.tagged)


@dataclass(frozen=True, eq=False)
class ReachabilityMatrix:
    """bits[u][v] = u reaches v; reflexive by convention (bits[u][u] true)."""

    n: int
    bits: np.ndarray

    def has(self, u: int, v: int) -> bool:
        return bool(self.bits[u, v])

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Off-diagonal reachable pairs in lexicographic order."""
        mask = self.bits.copy()
        np.fill_diagonal(mask, False)
        for u, v in np.argwhere(mask):
            yield int(u), int(v)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Exact distances; +inf marks unreachable, every finite entry is integral."""

    n: int
    dist: np.ndarray

    def entry(self, u: int, v: int) -> int | float:
        d = self.dist[u, v]
        return INF if np.isinf(d) else int(d)


@dataclass(frozen=True)
class Condensation:
    """SCC contraction; component ids form a topological numbering of dag."""

    dag: Digraph
    component_of: tuple[int, ...]
    representatives: tuple[tuple[int, ...], ...]


def _bool_square_fixpoint(mat: np.ndarray) -> np.ndarray:
    # float32 matmul is exact here: inner products are counts <= n < 2^24.
    cur = mat
    while True:
        nxt = (cur.astype(np.float32) @ cur.astype(np.float32)) > 0
        if np.array_equal(nxt, cur):
            return cur
        cur = nxt


def transitive_closure(g: Digraph) -> ReachabilityMatrix:
    """Reachability by boolean repeated squaring of (A | I) to a fixpoint."""
    m = g.adjacency.copy()
    np.fill_diagonal(m, True)
    bits = _bool_square_fixpoint(m)
    bits = bits.copy()
    bits.setflags(write=False)
    return ReachabilityMatrix(g.n, bits)


def closure_digraph(reach: ReachabilityMatrix) -> Digraph:
    """The closure as a plain digraph (off-diagonal reachable pairs)."""
    return Digraph(reach.n, reach.pairs())


def bounded_reachability(g: Digraph, hops: int) -> ReachabilityMatrix:
    """Pairs joined by a path of at most ``hops`` edges: (A | I)^hops.

    Binary exponentiation, so ~2*log2(hops) boolean matrix products.
    """
    if hops < 0:
        raise ValueError("hop bound must be >= 0")
    base = g.adjacency.copy()
    np.fill_diagonal(base, True)
    acc = np.eye(g.n, dtype=bool)
    k = hops
    while k:
        if k & 1:
            acc = (acc.astype(np.float32) @ base.astype(np.float32)) > 0
        k >>= 1
        if k:
            base = (base.astype(np.float32) @ base.astype(np.float32)) > 0
    acc.setflags(write=False)
    return ReachabilityMatrix(g.n, acc)


def check_acyclic(reach: ReachabilityMatrix) -> None:
    """Raise ValueError naming two vertices that reach each other, if any."""
    both = reach.bits & reach.bits.T
    np.fill_diagonal(both, False)
    if both.any():
        u, v = map(int, np.argwhere(both)[0])
        raise ValueError(f"input must be acyclic; {u} and {v} lie on a cycle")


def is_acyclic(g: Digraph) -> bool:
    try:
        check_acyclic(transitive_closure(g))
    except ValueError:
        return False
    return True


def condense(g: Digraph) -> Condensation:
    """Tarjan SCCs, relabelled so component ids are topologically sorted."""
    n = g.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(g.edges):
        adj[u].append(v)

    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    n_comps = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ptr < len(adj[v]):
                w = adj[v][ptr]
                ptr += 1
                if index[w] == -1:
                    work[-1] = (v, ptr)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comps
                    if w == v:
                        break
                n_comps += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    # Tarjan completes SCCs in reverse topological order; flip the ids.
    comp = [n_comps - 1 - c for c in comp]
    members: list[list[int]] = [[] for _ in range(n_comps)]
    for v in range(n):
        members[comp[v]].append(v)
    dag_edges = {(comp[u], comp[v]) for u, v in g.edges if comp[u] != comp[v]}
    return Condensation(
        dag=Digraph(n_comps, dag_edges),
        component_of=tuple(comp),
        representatives=tuple(tuple(ms) for ms in members),
    )


def scc_star_edges(g: Digraph, c: Condensation) -> frozenset[tuple[int, int]]:
    """Two-way star through each SCC's representative (its smallest member).

    Edges already present in g are skipped; at most 2*(n - #SCCs) edges.
    """
    out: set[tuple[int, int]] = set()
    for ms in c.representatives:
        rep = ms[0]
        for v in ms[1:]:
            for e in ((v, rep), (rep, v)):
                if e not in g.edges:
                    out.add(e)
    return frozenset(out)


def apsp(g: WeightedDigraph) -> DistanceMatrix:
    """Exact all-pairs shortest-path weights (Dijkstra from every source)."""
    n = g.n
    if n == 0:
        d = np.zeros((0, 0))
    elif not g.edges:
        d = np.full((n, n), np.inf)
        np.fill_diagonal(d, 0.0)
    else:
        src, tgt, w = g.edge_arrays
        mat = csr_matrix((w, (src, tgt)), shape=(n, n))
        d = csgraph.dijkstra(mat)
    d = np.asarray(d, dtype=np.float64)
    d.setflags(write=False)
    return DistanceMatrix(n, d)


def hop_limited_dist(g: WeightedDigraph, beta: int) -> DistanceMatrix:
    """Shortest distance over paths of at most ``beta`` edges, per source.

    Synchronous relaxation rounds (a DP over hop count), vectorized across
    sources; a round that changes nothing ends early since every remaining
    round would be a no-op.
    """
    if beta < 0:
        raise ValueError("hop bound must be >= 0")
    n = g.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    if beta == 0 or not g.edges or n == 0:
        dist.setflags(write=False)
        return DistanceMatrix(n, dist)

    src, tgt, w = g.edge_arrays
    tgt_unique, starts = np.unique(tgt, return_index=True)
    # Source rows are independent; chunk them so the (rows x m) candidate
    # buffer stays modest.
    chunk = max(1, min(n, 8_000_000 // max(len(src), 1)))
    for lo in range(0, n, chunk):
        block = dist[lo : lo + chunk].copy()
        for _ in range(beta):
            cand = block[:, src] + w
            reduced = np.minimum.reduceat(cand, starts, axis=1)
            new = block.copy()
            new[:, tgt_unique] = np.minimum(new[:, tgt_unique], reduced)
            if np.array_equal(new, block):
                break
            block = new
        dist[lo : lo + chunk] = block
    dist.setflags(write=False)
    return DistanceMatrix(n, dist)


def weighted_closure(g: WeightedDigraph) -> WeightedDigraph:
    """Edge (u, v, dist(u, v)) for every finite reachable pair u != v."""
    d = apsp(g).dist
    mask = np.isfinite(d)
    np.fill_diagonal(mask, False)
    return WeightedDigraph(
        g.n, ((int(u), int(v), int(d[u, v])) for u, v in np.argwhere(mask))
    )


def unit_weights(g: Digraph) -> WeightedDigraph:
    return WeightedDigraph(g.n, ((u, v, 1) for u, v in g.edges))


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m" (unweighted) or "n m W" (weighted),
# then "u v" / "u v w" rows; '#' starts a comment.


@dataclass(frozen=True)
class LoadReport:
    graph: Digraph | WeightedDigraph
    id_map: dict[int, int] | None  # original id -> dense id; None if kept as-is
    dropped_self_loops: int
    dropped_duplicates: int
    declared_n: int  # vertex count from the header, before any re-indexing


def _tokenize(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def load_edge_list(text: str) -> LoadReport:
    """Parse the edge-list format; see the module docstring for re-indexing."""
    lines = _tokenize(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ValueError("empty edge-list input") from None
    if len(header) not in (2, 3):
        raise ValueError(f"line {lineno}: header must be 'n m' or 'n m W'")
    try:
        nums = [int(t) for t in header]
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer header field") from None
    weighted = len(nums) == 3
    declared_n = n = nums[0]
    m = nums[1]
    w_cap = nums[2] if weighted else None
    _check_vertex_count(n)
    if m < 0 or (weighted and w_cap < 1):
        raise ValueError(f"line {lineno}: bad header values")

    rows: list[tuple[int, ...]] = []
    want = 3 if weighted else 2
    for lineno, toks in lines:
        if len(toks) != want:
            raise ValueError(f"line {lineno}: expected {want} fields, got {len(toks)}")
        try:
            vals = tuple(int(t) for t in toks)
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field") from None
        if weighted and not 1 <= vals[2] <= w_cap:
            raise ValueError(f"line {lineno}: weight {vals[2]} outside [1, {w_cap}]")
        rows.append(vals)
    if len(rows) != m:
        raise ValueError(f"header declares m={m} edges but file has {len(rows)}")

    ids = {r[0] for r in rows} | {r[1] for r in rows}
    id_map: dict[int, int] | None = None
    if ids and not all(0 <= i < n for i in ids):
        id_map = {orig: new for new, orig in enumerate(sorted(ids))}
        rows = [(id_map[r[0]], id_map[r[1]], *r[2:]) for r in rows]
        n = len(id_map)

    self_loops = 0
    dupes = 0
    seen: set[tuple[int, int]] = set()
    kept: list[tuple[int, ...]] = []
    for r in rows:
        if r[0] == r[1]:
            self_loops += 1
            continue
        if (r[0], r[1]) in seen:
            dupes += 1
            continue
        seen.add((r[0], r[1]))
        kept.append(r)

    graph: Digraph | WeightedDigraph
    if weighted:
        graph = WeightedDigraph(n, kept)  # type: ignore[arg-type]
    else:
        graph = Digraph(n, kept)  # type: ignore[arg-type]
    return LoadReport(graph, id_map, self_loops, dupes, declared_n)


def dump_edge_list(
    g: Digraph | WeightedDigraph, comments: Sequence[str] = ()
) -> str:
    """Serialize a graph in the edge-list format (rows sorted, deterministic)."""
    out = [f"# {c}" for c in comments]
    if isinstance(g, WeightedDigraph):
        out.append(f"{g.n} {g.m} {g.max_weight}")
        out.extend(f"{u} {v} {w}" for u, v, w in sorted(g.edges))
    else:
        out.append(f"{g.n} {g.m}")
        out.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(out) + "\n"
