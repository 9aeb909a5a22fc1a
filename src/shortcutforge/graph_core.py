"""Digraph types and the matrix kernels every construction reads.

Vertices are dense 0-based ids.  All types are immutable after construction
and every operation is a pure function, so concurrent callers are safe.  The
dense numpy kernels cap instances at MAX_VERTICES; unreachable distances are
IEEE +inf, which is strictly greater than any n*W path weight and saturates
under addition.

Edge storage is decided here alone: Digraph, WeightedDigraph and TaggedEdges
each hold one read-only int64 ``array`` sorted by (u, v), of shape (m, 2) or
(m, 3) with the weight last; TaggedEdges adds ``codes``, indices into TAGS.
``edges`` (a frozenset of tuples) and ``tagged`` (row tuples ending in the tag
name) are views built on first access; kernels read the arrays.  The edge
file formats, tagged or not, and the bit layout of a ReachabilityMatrix (row u
is vertex u's, and bit v of a row is vertex v) are also decided here alone;
other modules read the bits through rows() and has().
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph

MAX_VERTICES = 4096


def check_vertex_count(n: int) -> None:
    """Raise ValueError unless n is an int in [0, MAX_VERTICES]."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"vertex count must be a non-negative int, got {n!r}")
    if n > MAX_VERTICES:
        raise ValueError(
            f"vertex count {n} exceeds the supported ceiling of {MAX_VERTICES}"
        )


def _int64(values: object) -> np.ndarray:
    try:
        return np.asarray(values, np.int64)
    except OverflowError:
        raise ValueError("integer field outside the int64 range") from None


def _int_rows(edges: Iterable[Sequence[int]] | np.ndarray, width: int) -> np.ndarray:
    """Rows of ``edges`` as an (m, width) int64 array."""
    arr = _int64(edges if isinstance(edges, np.ndarray) else list(edges))
    if arr.size == 0:
        return arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"edge rows must have {width} fields")
    return arr


def _kept_rows(n: int, rows: np.ndarray, first_wins: bool = False) -> np.ndarray:
    """Indices of the rows to keep, one per (u, v) pair, in (u, v) order.

    Rows are (u, v) or (u, v, w).  Self-loops, ids outside [0, n) and
    weights below 1 are errors naming the first bad row, checked before the
    rows are keyed by u * n + v, since an id out of range can share a key
    with a valid pair.  Identical rows collapse.  Two weights for one pair
    are an error naming the pair, the one with the smallest key if several
    clash, unless ``first_wins``: then the earliest row wins.  The stable
    key sort is a timsort, which merges presorted runs, so sorted rows cost
    a merge; the kept indices are ``np.unique(key, return_index=True)[1]``.
    """
    u, v = rows[:, 0], rows[:, 1]
    bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        a, b = rows[np.argmax(bad), :2].tolist()
        if a == b:
            raise ValueError(f"self-loop ({a}, {b}) not allowed")
        raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
    if rows.shape[1] == 3:
        light = rows[:, 2] < 1
        if light.any():
            a, b, w = rows[np.argmax(light)].tolist()
            raise ValueError(f"edge ({a}, {b}) has weight {w} < 1")
    key = u * n + v
    order = np.argsort(key, kind="stable")
    head = np.diff(key[order], prepend=-1) != 0
    if rows.shape[1] == 3 and not first_wins:
        w = rows[order, 2]
        clash = np.flatnonzero((w[1:] != w[:-1]) & ~head[1:])
        if clash.size:
            a, b = rows[order[clash[0]], :2].tolist()
            raise ValueError(f"duplicate weights for edge pair ({a}, {b})")
    return order[head]


class _EdgeArray:
    """Immutable edge rows: one read-only int64 array sorted by (u, v).

    ``array`` has shape (m, WIDTH): (u, v), or (u, v, w) with weights.
    Equality and hashing are by value.
    """

    n: int
    array: np.ndarray

    WIDTH: ClassVar[int] = 2

    def __init__(self, n: int, edges: Iterable[Sequence[int]] | np.ndarray = ()) -> None:
        check_vertex_count(n)
        rows = _int_rows(edges, self.WIDTH)
        self._store(n, rows[_kept_rows(n, rows)])

    def _store(self, n: int, rows: np.ndarray, **extra: object) -> None:
        rows.setflags(write=False)
        for name, value in {"n": n, "array": rows, **extra}.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def m(self) -> int:
        return len(self.array)

    @cached_property
    def edges(self) -> frozenset[tuple[int, ...]]:
        """View: (u, v) pairs, or (u, v, w) triples for weighted rows."""
        return frozenset(map(tuple, self.array.tolist()))

    def has_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Mask of the (u, v) rows of ``pairs`` that are edges; ids in [0, n)."""
        n = self.n
        return np.isin(pairs[:, 0] * n + pairs[:, 1], self.array[:, 0] * n + self.array[:, 1])

    def _key(self) -> tuple:
        return (self.n, self.array.tobytes())

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class Digraph(_EdgeArray):
    """Unweighted digraph; no self-loops, no duplicate edges."""


class WeightedDigraph(_EdgeArray):
    """Digraph with integer weights >= 1; at most one weight per (u, v)."""

    WIDTH = 3

    @property
    def max_weight(self) -> int:
        return int(self.array[:, 2].max()) if self.m else 1

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, tgt, weight) arrays sorted by (tgt, src) for the hop-limited DP."""
        u, v, w = self.array.T
        order = np.lexsort((u, v))
        return u[order], v[order], w[order].astype(np.float64)


class TaggedEdges(_EdgeArray):
    """Provenance-tagged edge rows: (u, v) or, with WIDTH 3, weighted (u, v, w).

    ``rows`` are int rows of the subclass's WIDTH; ``tags`` is one tag name
    for every row or one name per row.  Rows are deduplicated by pair, the
    first row winning, and sorted.  They are stored as ``array`` plus
    ``codes``, each row's index into TAGS; ``tagged`` is a view.  Subclasses
    fix the width and the tag vocabulary in TAGS.
    """

    params: object
    codes: np.ndarray

    TAGS: ClassVar[tuple[str, ...]] = ()

    def __init__(
        self,
        n: int,
        rows: Iterable[Sequence[int]] | np.ndarray,
        tags: str | Sequence[str] | np.ndarray,
        params: object,
    ) -> None:
        check_vertex_count(n)
        rows = _int_rows(rows, self.WIDTH)
        names = np.asarray(tags)
        if names.ndim and len(names) != len(rows):
            raise ValueError(f"{len(names)} tags for {len(rows)} rows")
        codes = np.full(names.shape, -1, dtype=np.int8)
        for code, tag in enumerate(self.TAGS):
            codes[names == tag] = code
        if (codes < 0).any():
            bad = names.ravel().tolist()[np.argmax(codes < 0)]
            raise ValueError(f"unknown provenance tag {bad!r}")
        keep = _kept_rows(n, rows, first_wins=True)
        codes = np.broadcast_to(codes, len(rows))[keep]
        codes.setflags(write=False)
        self._store(n, rows[keep], codes=codes, params=params)

    @property
    def tags(self) -> np.ndarray:
        """Each row's tag name, as an object array of str."""
        return np.array(self.TAGS, dtype=object)[self.codes]

    @cached_property
    def tagged(self) -> tuple[tuple, ...]:
        """View: the rows as tuples of ints ending in the tag name."""
        return tuple(zip(*self.array.T.tolist(), self.tags.tolist()))

    @property
    def tag_counts(self) -> dict[str, int]:
        counts = np.bincount(self.codes, minlength=len(self.TAGS))
        return dict(zip(self.TAGS, counts.tolist()))

    def _key(self) -> tuple:
        return (*super()._key(), self.codes.tobytes(), self.params)

    def __len__(self) -> int:
        return self.m


@dataclass(frozen=True, eq=False)
class ReachabilityMatrix:
    """Reachability as packed rows: u reaches v iff bit v of packed[u].

    ``packed``: read-only uint8, one row per vertex (row u is vertex u's) and
    one bit per vertex, little-endian, ceil(n/8) bytes a row.  Reflexive by
    convention.
    """

    n: int
    packed: np.ndarray

    def __post_init__(self) -> None:
        self.packed.setflags(write=False)

    def rows(
        self, vertices: np.ndarray | slice = slice(None), columns: np.ndarray | None = None
    ) -> np.ndarray:
        """New C-contiguous bool array: row i says which vertices vertices[i] reaches.

        With ``columns``, entry (i, k) says whether vertices[i] reaches
        columns[k]; the bits are read straight into that one matrix.
        """
        if columns is None:
            bits = np.unpackbits(self.packed[vertices], axis=1, count=self.n, bitorder="little")
            return bits.view(bool)
        bits = self.packed[np.arange(self.n)[vertices][:, None], columns >> 3]
        bits >>= (columns & 7).astype(np.uint8)
        bits &= 1
        return bits.view(bool)

    def has(self, u: int, v: int) -> bool:
        return bool(self.packed[u, v >> 3] >> (v & 7) & 1)


@dataclass(frozen=True, eq=False)
class Condensation:
    """SCC contraction; component ids form a topological numbering of dag.

    ``component_of``: each vertex's component; ``rep``: each component's
    smallest vertex, its representative.  Both are read-only int64 arrays.
    """

    dag: Digraph
    component_of: np.ndarray
    rep: np.ndarray


def transitive_closure(g: Digraph) -> ReachabilityMatrix:
    """Reachability via the condensation, whose ids are topologically sorted.

    When every edge runs from a smaller id to a larger one the ids already
    are such an order and each vertex is its own component, so no SCC pass
    runs and the component rows are the vertex rows; otherwise each vertex
    copies its component's row at the end.  Each component's row starts as
    its members' bits and ORs in the finished rows of its successors, last id
    first; numpy byte ops only, no BLAS call, and no n x n matrix is built.
    """
    ids = np.arange(g.n)
    if _forward_ids(g):
        dag, component_of = g, ids
    else:
        cond = condense(g)
        dag, component_of = cond.dag, cond.component_of
    rows = np.zeros((dag.n, -(-g.n // 8)), dtype=np.uint8)
    np.bitwise_or.at(rows, (component_of, ids >> 3), np.left_shift(1, ids & 7).astype(np.uint8))
    succ = np.split(dag.array[:, 1], np.searchsorted(dag.array[:, 0], ids[1 : dag.n]))
    for c in range(dag.n - 1, -1, -1):
        if succ[c].size:
            rows[c] |= np.bitwise_or.reduce(rows[succ[c]], axis=0)
    return ReachabilityMatrix(g.n, rows if dag is g else rows[component_of])


def closure_digraph(reach: np.ndarray) -> Digraph:
    """The off-diagonal pairs of a square bool relation, as a plain digraph."""
    mask = np.array(reach, dtype=bool)
    np.fill_diagonal(mask, False)
    return Digraph(len(mask), np.argwhere(mask))


def bounded_reachability(g: Digraph, hops: int) -> np.ndarray:
    """Read-only n x n bool matrix: u reaches v by a path of at most ``hops`` edges.

    One hop-limited breadth-first search per source in scipy's C code; no
    BLAS call, so no thread pool is left running.
    """
    if hops < 0:
        raise ValueError("hop bound must be >= 0")
    adj = csr_matrix((np.ones(g.m), (g.array[:, 0], g.array[:, 1])), shape=(g.n, g.n))
    reach = np.isfinite(csgraph.dijkstra(adj, unweighted=True, limit=hops))
    reach.setflags(write=False)
    return reach


def _forward_ids(g: Digraph) -> bool:
    """Every edge runs from a smaller id to a larger one, so g is acyclic."""
    return bool((g.array[:, 0] < g.array[:, 1]).all())


def check_acyclic(g: Digraph) -> None:
    """Raise ValueError naming two vertices of one SCC, if g has any.

    The pair is the smallest vertex on a cycle and the next vertex of its
    SCC.  Forward ids answer at once; otherwise one SCC pass, and no closure.
    """
    if _forward_ids(g):
        return
    comp = condense(g).component_of
    shared = np.flatnonzero(np.bincount(comp)[comp] > 1)
    if shared.size:
        u, v = map(int, shared[comp[shared] == comp[shared[0]]][:2])
        raise ValueError(f"input must be acyclic; {u} and {v} lie on a cycle")


def transitive_reduction(dag: Digraph) -> Digraph:
    """Unique minimal subgraph of a DAG with the same closure.

    An edge (u, v) survives iff no other successor of u reaches v.  Each
    vertex's detour row is the OR of its successors' packed closure rows,
    each without its own bit; an edge survives iff its bit there is clear.
    """
    check_acyclic(dag)
    ids = np.arange(dag.n)
    strict = transitive_closure(dag).packed.copy()
    strict[ids, ids >> 3] ^= np.left_shift(1, ids & 7).astype(np.uint8)
    detour = np.zeros_like(strict)
    u, v = dag.array.T
    for x, succ in enumerate(np.split(v, np.searchsorted(u, ids[1:]))):
        if succ.size:
            detour[x] = np.bitwise_or.reduce(strict[succ], axis=0)
    hit = detour[u, v >> 3] >> (v & 7) & 1
    return Digraph(dag.n, dag.array[hit == 0])


def condense(g: Digraph) -> Condensation:
    """Tarjan SCCs, relabelled so component ids are topologically sorted.

    scipy's strong-components search is Pearce's (2005) iterative Tarjan: it
    takes roots in ascending id order, numbers components as they complete,
    and expands the last target it pushed first.  Each CSR row therefore
    lists its targets in descending order, so the walk visits them
    ascending, as a recursive Tarjan over ``g.array`` does; the ids are then
    the same.  This rests on scipy's traversal order, not on a documented
    guarantee: ``TestCondense.test_ids_match_tarjan`` checks it against a
    Python Tarjan kept in the tests.  Building the matrix from (row, col)
    pairs or sorting its indices would put the targets back in ascending
    order.
    """
    n = g.n
    u, v = g.array.T
    adj = csr_matrix(
        (np.ones(g.m), v[np.lexsort((-v, u))], np.searchsorted(u, np.arange(n + 1))),
        shape=(n, n),
    )
    n_comps, labels = csgraph.connected_components(adj, connection="strong")
    # Tarjan completes SCCs in reverse topological order; flip the ids.
    component_of = n_comps - 1 - labels.astype(np.int64)
    rep = np.unique(component_of, return_index=True)[1]
    component_of.setflags(write=False)
    rep.setflags(write=False)
    cu, cv = component_of[g.array.T]
    cross = cu != cv
    dag = Digraph(n_comps, np.column_stack([cu[cross], cv[cross]]))
    return Condensation(dag, component_of, rep)


def scc_star_edges(g: Digraph, c: Condensation) -> np.ndarray:
    """Two-way star through each SCC's representative (its smallest member).

    Edges already present in g are skipped; at most 2*(n - #SCCs) rows of
    an (m, 2) int array.
    """
    rep = c.rep[c.component_of]
    v = np.flatnonzero(rep != np.arange(g.n))
    star = np.concatenate([np.column_stack([v, rep[v]]), np.column_stack([rep[v], v])])
    return star[~g.has_pairs(star)]


def apsp(g: WeightedDigraph) -> np.ndarray:
    """Exact all-pairs shortest-path weights (Dijkstra from every source).

    A read-only float64 n x n array; +inf marks unreachable pairs.
    """
    n = g.n
    u, v, w = g.array.T
    d = csgraph.dijkstra(csr_matrix((w.astype(np.float64), (u, v)), shape=(n, n)))
    d.setflags(write=False)
    return d


def apsp_hops(g: WeightedDigraph, most: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``apsp(g)`` and, per pair, the fewest edges on a shortest path (the most with ``most``).

    One Dijkstra from every source on the weights n*w + 1 (n*w - 1 with
    ``most``): a simple path of weight d and k <= n - 1 edges scores n*d + k
    (n*d - k), so the least score has the least d and, among its paths, the
    fewest (most) edges.  Scores are split back into d and k in int64, in
    place, so three n x n matrices are live at the peak.  The hop matrix is
    int64, 0 on unreachable pairs and the diagonal.

    Float64 holds every score exactly only while n*((n-1)*W + 1) < 2**53,
    W the largest weight; a ValueError is raised otherwise.
    """
    n = g.n
    top = n * ((n - 1) * g.max_weight + 1)
    if top >= 2**53:
        raise ValueError(
            f"hop-counting Dijkstra needs n*((n-1)*W + 1) < 2**53 to stay exact;"
            f" n={n}, W={g.max_weight} give {top}"
        )
    u, v, w = g.array.T
    scaled = (w * n + (-1 if most else 1)).astype(np.float64)
    scores = csgraph.dijkstra(csr_matrix((scaled, (u, v)), shape=(n, n)))
    unreached = np.isinf(scores)
    scores[unreached] = 0
    dist = scores.astype(np.int64)
    if most:
        dist += n - 1  # n*d - k + (n - 1) = n*d + (n - 1 - k)
    hops = dist % n
    dist //= n
    if most:
        np.subtract(n - 1, hops, out=hops)
    scores[:] = dist
    scores[unreached] = np.inf
    scores.setflags(write=False)
    hops.setflags(write=False)
    return scores, hops


def hop_limited_dist(g: WeightedDigraph, beta: int) -> np.ndarray:
    """Shortest distance over paths of at most ``beta`` edges, per source.

    Synchronous relaxation rounds (a DP over hop count), vectorized across
    sources.  A source's round reads only its own row, and a row that a
    round leaves unchanged stays unchanged in every later round, so each
    round relaxes only the rows the previous round changed, in place.
    """
    if beta < 0:
        raise ValueError("hop bound must be >= 0")
    n = g.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    src, tgt, w = g.edge_arrays
    tgt_unique, starts = np.unique(tgt, return_index=True)
    # Source rows are independent; chunk them so the (rows x m) candidate
    # buffer stays modest.
    chunk = max(1, min(n, 8_000_000 // max(len(src), 1)))
    for lo in range(0, n, chunk):
        block = dist[lo : lo + chunk]
        live = np.arange(len(block))[:, None]
        for _ in range(beta):
            reduced = np.minimum.reduceat(block[live, src] + w, starts, axis=1)
            old = block[live, tgt_unique]
            better = reduced < old
            changed = better.any(axis=1)
            if not changed.any():
                break
            live = live[changed]
            block[live, tgt_unique] = np.where(better[changed], reduced[changed], old[changed])
    dist.setflags(write=False)
    return dist


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m" (unweighted) or "n m W" (weighted),
# then "u v" / "u v w" rows; '#' starts a comment.  Tagged edge files have an
# "n m" header and end each row with its tag.


@dataclass(frozen=True)
class LoadReport:
    graph: Digraph | WeightedDigraph
    original_ids: tuple[int, ...] | None  # original id of each new id; None if kept as-is
    dropped_self_loops: int
    dropped_duplicates: int
    declared_n: int  # vertex count from the header, before any re-indexing


def _ascii_char(match: re.Match) -> str:
    """A non-ASCII character as an ASCII one of its kind: digit, space or other."""
    c = match[0]
    return str(int(c)) if c.isdecimal() else " " if c.isspace() else "?"


def _parse_edge_text(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split an edge file into fields once, '#' comments and blank lines dropped.

    Per line left, the header first: its number, its field count, how many of
    its leading fields int() reads, and those fields, at most three, in a
    (lines, 3) array padded with 0; the array is int64 unless one of them is
    longer than 18 characters, and then holds Python ints.
    """
    body = text
    if not body.isascii() or any(c in body for c in "\r\x0b\x0c\x1c\x1d\x1e"):
        body = "\n".join(body.splitlines())  # every other line break as \n
    body = re.sub("#.*", "", body)
    if not body.isascii():  # the same fields and int values, in ASCII
        body = re.sub(r"[^\x00-\x7f]", _ascii_char, body)
    raw = "".join((" " * 18, body, " ")).encode()  # 18: room for the int reads below
    del body
    b = np.frombuffer(raw, np.uint8)
    pos = np.int32 if len(b) < 2**31 else np.int64  # byte offsets and field edges
    space = b == ord("\n")
    newlines = np.flatnonzero(space).astype(pos)
    for c in b" \t\x1f":  # with \n, all str.split() splits at once lines are joined
        space |= b == c
    edges = np.flatnonzero(space[:-1] != space[1:]).astype(pos) + 1
    starts, ends = edges[0::2], edges[1::2]  # text is padded with spaces, so they alternate
    # int() reads decimal digits with single underscores between them, after
    # at most one sign, and no more digits than sys.get_int_max_str_digits().
    digit = (b - ord("0")) < 10
    ok = space | digit
    del space
    ok[starts[np.isin(b[starts], list(b"+-"))]] = True
    odd = np.zeros(len(starts), bool)  # fields with an underscore after a digit
    if b"_" in raw:
        bars = np.flatnonzero(b == ord("_"))
        bars = bars[digit[bars - 1]]  # only those may stand in an int
        ok[bars] = True
        odd[np.searchsorted(starts, bars, "right") - 1] = True
    is_int = np.logical_and.reduceat(ok, starts) & digit[ends - 1]
    del ok
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or len(b)  # 0 before 3.10.7
    overlong = np.flatnonzero(is_int & (ends - starts > limit))
    is_int[overlong] = [np.count_nonzero(digit[starts[i] : ends[i]]) <= limit for i in overlong]
    del digit  # a byte per character; what follows is per field

    line = np.searchsorted(newlines, starts) + 1
    first = np.flatnonzero(np.diff(line, prepend=0))  # each line's first field
    count = np.diff(first, append=len(starts))
    lines = line[first]
    del line  # per-field arrays set the peak memory, so each goes once used
    # A line's leading int fields end at the next other field, or at its end.
    next_other = np.minimum.accumulate(
        np.where(is_int, len(starts), np.arange(len(starts)))[::-1]
    )[::-1]
    ints = np.minimum(next_other[first], first + count) - first
    del next_other, is_int
    taken = np.arange(3) < np.minimum(ints, 3)[:, None]
    fields = (first[:, None] + np.arange(3))[taken]
    s, e, odd = starts[fields], ends[fields], odd[fields]
    del edges, starts, ends, fields
    # Fields of up to 18 characters fit int64.  They are read together, one
    # Horner step per byte, over as many bytes before each field's end as the
    # longest has: a non-digit byte, the sign or a byte before the field,
    # resets the sum, so it ends as the field's digits.  Longer fields, as
    # ids past int64 are, and fields with underscores go through int() one
    # by one.
    size = e - s
    odd |= size > 18
    fast = ~odd
    fast_end = e[fast]
    acc = np.zeros(len(fast_end), np.int64)
    for back in range(int(size[fast].max(initial=0)), 0, -1):
        column = b[fast_end - back] - ord("0")
        acc *= 10
        acc += column
        acc *= column < 10
    np.negative(acc, out=acc, where=b[s[fast]] == ord("-"))
    picked = np.zeros(len(s), np.int64 if (size <= 18).all() else object)
    picked[fast] = acc
    picked[odd] = [int(raw[i:j]) for i, j in zip(s[odd].tolist(), e[odd].tolist())]
    del s, e, size, fast_end, acc
    values = np.zeros(taken.shape, picked.dtype)
    values[taken] = picked
    return lines, count, ints, values


def load_edge_list(text: str) -> LoadReport:
    """Parse the edge-list format; see the module docstring for re-indexing."""
    lines, fields, ints, values = _parse_edge_text(text)
    if not len(lines):
        raise ValueError("empty edge-list input")
    if fields[0] not in (2, 3):
        raise ValueError(f"line {lines[0]}: header must be 'n m' or 'n m W'")
    if ints[0] < fields[0]:
        raise ValueError(f"line {lines[0]}: non-integer header field")
    want = int(fields[0])
    n, m, w_cap = values[0].tolist()
    declared_n = n
    check_vertex_count(n)
    if m < 0 or (want == 3 and w_cap < 1):
        raise ValueError(f"line {lines[0]}: bad header values")

    lines, fields, ints, values = lines[1:], fields[1:], ints[1:], values[1:]
    w = values[:, 2]
    bad = (fields != want) | (ints < want) | ((want == 3) & ((w < 1) | (w > w_cap)))
    if bad.any():
        i = int(np.argmax(bad))
        if fields[i] != want:
            raise ValueError(f"line {lines[i]}: expected {want} fields, got {fields[i]}")
        if ints[i] < want:
            raise ValueError(f"line {lines[i]}: non-integer field")
        raise ValueError(f"line {lines[i]}: weight {w[i]} outside [1, {w_cap}]")
    if len(lines) != m:
        raise ValueError(f"header declares m={m} edges but file has {len(lines)}")

    uv = values[:, :2]
    original_ids: tuple[int, ...] | None = None
    if ((uv < 0) | (uv >= n)).any():
        ids, new_ids = np.unique(uv, return_inverse=True)
        uv = new_ids.reshape(uv.shape)  # numpy 1.x returns it flat
        original_ids = tuple(ids.tolist())
        n = len(ids)

    arr = _int64(np.column_stack([uv, values[:, 2:want]]))
    loops = arr[:, 0] == arr[:, 1]
    arr = arr[~loops]
    kept = arr[_kept_rows(n, arr, first_wins=True)]
    graph = (WeightedDigraph if want == 3 else Digraph)(n, kept)
    return LoadReport(graph, original_ids, int(loops.sum()), len(arr) - len(kept), declared_n)


def load_edge_rows(text: str) -> tuple[int, np.ndarray]:
    """Parse an edge file as the shortcut and hopset subcommands write it.

    Rows are "u v tag" or "u v w tag"; the tag column is optional so plain
    edge lists read too.  Returns n and the header's m rows as an (m, 2) or
    (m, 3) int array; every row has as many integer fields as the first.
    """
    lines, fields, ints, values = _parse_edge_text(text)
    if not len(lines):
        raise ValueError("empty edge file")
    if fields[0] < 2:
        raise ValueError(f"line {lines[0]}: header must start with 'n m'")
    if ints[0] < 2:
        raise ValueError(f"line {lines[0]}: non-integer header field")
    n, m = values[0, :2].tolist()
    lines, ints = lines[1:], ints[1:]
    width = ints[0] if len(ints) else 2
    bad = (ints < 2) | (ints > 3) | (ints != width)
    if bad.any():
        i = int(np.argmax(bad))
        if 2 <= ints[i] <= 3:
            raise ValueError(f"line {lines[i]}: expected {width} integers, as on the first row")
        raise ValueError(f"line {lines[i]}: expected 'u v [w] [tag]'")
    rows = _int64(values[1:, :width])
    if len(rows) != m:
        raise ValueError(f"header declares m={m} edges but file has {len(rows)}")
    return n, rows


def _rows_text(array: np.ndarray, codes: np.ndarray, names: Sequence[str]) -> str:
    """Each row's values in decimal, one space apart, then names[code] and "\\n".

    Every stored value is >= 0, as containers reject negative ids and weights
    below 1.  So the rows are written as bytes into one buffer: each value's
    digit count comes from comparisons with powers of ten, each row's place
    from a cumsum, and each column is written right to left, all rows at a
    time.  A value with fewer digits than its column's longest writes its
    spare steps into the byte before it, which a later step rewrites.
    """
    lengths = np.ones(array.shape, np.int64)
    for p in range(1, len(str(array.max(initial=0)))):
        lengths += array >= 10**p
    tails = [name.encode("ascii") for name in names]
    row_sizes = lengths.sum(1) + array.shape[1] + np.array([len(t) for t in tails])[codes]
    row_ends = np.cumsum(row_sizes)  # where each row's newline goes
    buf = np.empty(1 + int(row_sizes.sum()), np.uint8)  # buf[0] takes the first row's spill
    at = row_ends - row_sizes  # the byte before each row
    for value, length in zip(array.T, lengths.T):
        before = at
        at = at + length  # each value's last digit
        for step in range(int(length.max(initial=0))):
            buf[np.maximum(at - step, before)] = value % 10 + ord("0")
            value = value // 10
        buf[before] = ord(" ")  # before the first column: the previous row's newline
        at = at + 1
    for code, tail in enumerate(tails):
        spots = at[codes == code]
        for byte in tail:
            buf[spots] = byte
            spots += 1
    buf[row_ends] = ord("\n")
    return buf[1:].tobytes().decode("ascii")


def dump_edge_list(
    g: Digraph | WeightedDigraph | TaggedEdges, comments: Sequence[str] = ()
) -> str:
    """Serialize edges in the edge-list format (rows sorted, deterministic).

    A TaggedEdges gets an "n m" header and its tag names as the last column.
    """
    out = [f"# {c}" for c in comments]
    if isinstance(g, WeightedDigraph):
        out.append(f"{g.n} {g.m} {g.max_weight}")
    else:
        out.append(f"{g.n} {g.m}")
    codes, names = np.zeros(g.m, np.int8), [""]
    if isinstance(g, TaggedEdges):
        codes, names = g.codes, [" " + tag for tag in g.TAGS]
    return "\n".join(out) + "\n" + _rows_text(g.array, codes, names)
