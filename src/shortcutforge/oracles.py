"""Ground-truth checkers, kept algorithm-free.

Everything here is BFS, Dijkstra or min-plus matrix powers over the
instance itself.  No function is shared with the construction modules: this
module imports only the two graph types from ``graph_core``, builds its own
sparse and dense matrices from their edge rows and its own union G ∪ H, so
a bug in a construction kernel cannot hide itself by recurring in its
check.  Edge sets are duck typed (an edge container or a plain iterable of
rows) for the same reason.

``verify_shortcut`` works on packed bit rows, ceil(n/64) little-endian
uint64 words per vertex, through two kernels.  ``_reach_rows`` is G's
reflexive reachability: a DP over the DAG of scipy's strong components,
finished one generation at a time, sinks first.  It shares no code with
``graph_core.transitive_closure`` but follows the same idea and calls the
same scipy routine; the test suite cross-checks it against networkx.
``_hop_levels`` is a frontier BFS of the union from every source at once:
a row's level-(k+1) bits are its successors' level-k bits that it lacks.
Both OR successor rows through ``_grouped_or``, in blocks of bounded size,
so neither builds an n x n matrix of numbers: at n = 4096 a bit matrix
takes 2 MiB, and a float64 one 128 MiB.

The hop-limited kernel is (min, +) squaring whose products recompute only
the entries still above their floor, the union's exact all-hops distance,
and which stops once none is left.  The constructions count hops with a
different algorithm, a Dijkstra on scaled weights (``graph_core.apsp_hops``).
``verify_hopset`` builds the union G ∪ H itself (``_union_min`` keeps each
pair's least weight) and hands it to the kernel as a ``WeightedDigraph``.
It passes G's distances as the floor when no union row weighs less than
them (the two are then equal); otherwise the kernel runs ``apsp`` on the
union.  ``apsp`` is not independent: it and ``graph_core.apsp`` both call
scipy's Dijkstra on a CSR matrix.  The test suite cross-checks it against
networkx's Dijkstra.

Distances are float64 with +inf for unreachable pairs.  They are exact when
every weight is an integer and every finite walk weight that a kernel adds
up stays below 2**53, where float64 still holds every integer.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph

from .graph_core import Digraph, WeightedDigraph


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "pass" | "fail" | "skip"
    witness: tuple | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "skip"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "fail" and self.witness is None:
            raise ValueError(f"failing check {self.name!r} must carry a witness")


@dataclass(frozen=True)
class VerificationReport:
    instance: str
    checks: tuple[Check, ...] = field(default_factory=tuple)
    achieved_diameter: int | None = None
    achieved_stretch: Fraction | None = None
    achieved_hops: int | None = None

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if c.status == "fail")

    def to_dict(self) -> dict:
        """The fields in order, with ``ok`` after ``instance`` and the stretch as a str.

        ``checks`` and each witness stay tuples; ``json.dumps`` writes them as lists.
        """
        out = {"instance": self.instance, "ok": self.ok, **asdict(self)}
        if self.achieved_stretch is not None:
            out["achieved_stretch"] = str(self.achieved_stretch)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _edge_array(h, width: int) -> np.ndarray:
    """Rows of h as an (m, width) int array, in h's order.

    h is an edge container (its ``array``) or a plain iterable or array of rows.
    """
    items = getattr(h, "array", h)
    rows = np.asarray(
        items if isinstance(items, np.ndarray) else list(items), dtype=np.int64
    )
    if rows.size == 0:
        return rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"expected edge rows of {width} fields")
    return rows


def _first_row(rows: np.ndarray, mask: np.ndarray) -> tuple | None:
    """The lexicographically least row where mask holds, or None."""
    bad = rows[mask]
    return tuple(bad[np.lexsort(bad.T[::-1])[0]].tolist()) if len(bad) else None


def _union_min(g: WeightedDigraph, rows: np.ndarray) -> WeightedDigraph:
    """G plus ``rows``, keeping each pair's least weight, from either side or repeated rows.

    ``rows`` are int (u, v, w) rows with ids in [0, n), u != v and w >= 1.
    One stable sort of the pair keys u * n + v, a merge when ``rows`` is
    sorted by (u, v) as a container's array is, then each key run's least
    weight.
    """
    rows = np.concatenate([g.array, rows])
    key = rows[:, 0] * g.n + rows[:, 1]
    order = np.argsort(key, kind="stable")
    heads = np.flatnonzero(np.diff(key[order], prepend=-1))
    union = rows[order[heads]]
    union[:, 2] = np.minimum.reduceat(rows[order, 2], heads)
    return WeightedDigraph(g.n, union)


def apsp(g: WeightedDigraph) -> np.ndarray:
    """Exact all-pairs distances: scipy Dijkstra from every source."""
    n = g.n
    u, v, w = g.array.T
    mat = csr_matrix((w.astype(np.float64), (u, v)), shape=(n, n))
    return csgraph.dijkstra(mat)


def _min_plus(a: np.ndarray, b: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """a (min, +) b for powers of one zero-diagonal matrix, above ``floor`` only.

    Starts from min(a, b).  Row i's open columns V_i (above ``floor``) take
    the min over the finite columns K_i of a[i], read as whole rows of b
    (K_i) or of b's transpose (V_i), whichever are fewer: numpy adds whole
    rows about 3x faster per entry than it gathers a |K_i| x |V_i| block.
    """
    out = np.minimum(a, b)
    open_ = out > floor
    b_t = np.ascontiguousarray(b.T)
    for i in np.flatnonzero(open_.any(axis=1)):
        cols = np.flatnonzero(open_[i])
        ks = np.flatnonzero(np.isfinite(a[i]))
        if len(ks) < len(cols):
            via = (a[i, ks, None] + b[ks]).min(axis=0)[cols]
        else:
            via = (b_t[cols] + a[i]).min(axis=1)
        out[i, cols] = np.minimum(out[i, cols], via)
    return out


def hop_limited_dist(
    g: WeightedDigraph, beta: int, floor: np.ndarray | None = None
) -> np.ndarray:
    """Exact distances over walks of at most ``beta`` edges, all pairs.

    P is the weight matrix with a zero diagonal, so its (min, +) power P^j
    holds the least weight of a walk of at most j edges and falls with j,
    down to D, the all-hops distances, which ``floor`` must hold (``apsp(g)``
    if not given).  The result is P^beta by binary exponentiation.  An entry
    equal to D keeps it in every later power and product, so products skip
    it, pairs with D = inf included; and once P^(2^i) = D at the top of a
    round, where beta >= 2^i, the answer is D with no further product.

    Cost: at most floor(log2 beta) + popcount(beta) - 1 products, each
    n * min(|K_i|, |V_i|) summed over rows i (K_i: finite entries of the left
    factor's row, V_i: entries still above D), so at most n^3 and far less
    on sparse early and settled late powers.  Memory: power, result and
    floor, plus a product's output, the right factor's transpose, a bool
    mask and one block of at most n^2 floats.  The round-by-round DP costs
    O(beta n m), so on a sparse union far from D it can still win (ROADMAP
    item 6).
    """
    if beta < 0:
        raise ValueError("hop bound must be >= 0")
    n = g.n
    if floor is None:
        floor = apsp(g)
    power = np.full((n, n), np.inf)
    u, v, w = g.array.T
    power[u, v] = w
    np.fill_diagonal(power, 0.0)
    result = None
    bits = beta
    while bits:
        if (power == floor).all():
            return power
        if bits & 1:
            result = power if result is None else _min_plus(result, power, floor)
        bits >>= 1
        if bits:
            power = _min_plus(power, power, floor)
    return result if result is not None else np.where(np.eye(n, dtype=bool), 0.0, np.inf)


_BLOCK_BYTES = 1 << 22  # bytes of bit rows that _grouped_or gathers at once


def _bit(ids: np.ndarray) -> np.ndarray:
    """Each id's bit within its little-endian uint64 word."""
    return np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The indices of the ranges [starts[i], ends[i]), concatenated in order."""
    counts = ends - starts
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an array of ints >= 0, ascending.

    A sort and a mask: numpy 2's ``np.unique`` goes through a hash table
    first, about 25x slower on 150k int64 keys.
    """
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _grouped_or(
    rows: np.ndarray, src: np.ndarray, tgt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(s, out): s is the distinct values of the sorted ``src``; out[i] is the
    OR of rows[tgt[j]] over every j with src[j] == s[i].

    Each group is padded to a power-of-two width by repeating its last
    target (OR is idempotent), and the groups of one width are gathered as
    a (groups, width, words) block and reduced over the middle axis: numpy
    ORs such a block several times faster than ``reduceat`` ORs the ragged
    groups.  A block holds at most _BLOCK_BYTES of rows, or one group if
    that is wider: under 2n rows, as the callers' groups hold distinct
    targets.
    """
    starts = np.flatnonzero(np.diff(src, prepend=-1))
    counts = np.diff(starts, append=len(src))
    out = np.empty((len(starts), rows.shape[1]), dtype=rows.dtype)
    cap = max(1, _BLOCK_BYTES // max(1, rows.shape[1] * rows.itemsize))
    exp = np.frexp(counts - 1)[1]  # width 2**exp >= count
    for e in np.flatnonzero(np.bincount(exp)):
        grp = np.flatnonzero(exp == e)
        width = 1 << int(e)
        idx = tgt[starts[grp, None] + np.minimum(np.arange(width), counts[grp, None] - 1)]
        step = max(1, cap // width)
        for a in range(0, len(grp), step):
            out[grp[a : a + step]] = np.bitwise_or.reduce(rows[idx[a : a + step]], axis=1)
    return src[starts], out


def _reach_rows(n: int, edges: np.ndarray) -> np.ndarray:
    """Reflexive reachability as packed bit rows: bit v of row u is set iff u reaches v.

    Each strong component's row starts as its members' bits.  The
    component DAG is then peeled sinks first, one generation at a time, and
    each row of a generation ORs in its successors' finished rows.  A
    vertex's row is its component's.
    """
    adj = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    k, comp = csgraph.connected_components(adj, connection="strong")
    comp = comp.astype(np.int64)
    ids = np.arange(n)
    rows = np.zeros((k, -(-n // 64)), dtype="<u8")
    np.bitwise_or.at(rows, (comp, ids >> 6), _bit(ids))
    cu, cv = comp[edges.T]
    cross = cu != cv
    cu, cv = np.divmod(_distinct(cu[cross] * k + cv[cross]), k)
    out_ptr = np.searchsorted(cu, np.arange(k + 1))
    by_tgt = np.argsort(cv, kind="stable")
    in_ptr = np.searchsorted(cv[by_tgt], np.arange(k + 1))
    left = np.diff(out_ptr)
    front = np.flatnonzero(left == 0)
    while front.size:
        e = _ranges(out_ptr[front], out_ptr[front + 1])
        src, acc = _grouped_or(rows, cu[e], cv[e])
        rows[src] |= acc
        e = by_tgt[_ranges(in_ptr[front], in_ptr[front + 1])]
        pred, count = np.unique(cu[e], return_counts=True)
        left[pred] -= count
        front = pred[left[pred] == 0]
    return rows[comp]


def _first_bit(rows: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first set bit of packed rows in row-major order, or None."""
    nonzero = rows.ravel() != 0
    if not nonzero.any():
        return None
    r, j = divmod(int(nonzero.argmax()), rows.shape[1])
    word = int(rows[r, j])
    return r, 64 * j + (word & -word).bit_length() - 1


def _hop_levels(
    n: int, edges: np.ndarray, reach: np.ndarray
) -> tuple[np.ndarray, int, tuple[int, int] | None]:
    """Frontier BFS of all sources at once: (seen, last, pair).

    ``seen`` is the digraph's reflexive reachability as packed rows.  Level
    1 is one scatter of each row's successor bits, cheaper than gathering
    one-bit rows.  The level-(k+1) new bits of row u are the OR of its
    successors' level-k new bits, minus the bits u already has; only rows
    with new bits stay in the frontier.  ``last`` is the last level that brings a new bit also set in
    ``reach`` (0 if none does), and ``pair`` that level's first such bit in
    row-major order.
    """
    u, v = np.divmod(_distinct(edges[:, 0] * n + edges[:, 1]), n)
    ids = np.arange(n)
    seen = np.zeros((n, -(-n // 64)), dtype="<u8")
    seen[ids, ids >> 6] = _bit(ids)
    new = np.zeros_like(seen)
    np.bitwise_or.at(new, (u, v >> 6), _bit(v))
    front, new = ids, new & ~seen
    pos = np.full(n, -1)
    level, last, far = 0, 0, None
    while True:
        live = new.any(axis=1)
        front, new = front[live], new[live]
        if not front.size:
            break
        level += 1
        seen[front] |= new
        hit = new & reach[front]
        if hit.any():
            last, far = level, (front, hit)
        pos[front] = np.arange(len(front))
        at = pos[v]
        pos[front] = -1
        live = at >= 0
        front, new = _grouped_or(new, u[live], at[live])
        new &= ~seen[front]
    if far is None:
        return seen, last, None
    r, col = _first_bit(far[1])
    return seen, last, (int(far[0][r]), col)


def verify_shortcut(g: Digraph, h, d: int, instance: str = "") -> VerificationReport:
    """Closure membership, closure preservation, and hop diameter vs d."""
    if d < 0:
        raise ValueError(f"diameter target must be >= 0, got {d}")
    edges = _edge_array(h, 2)
    g_edges = _edge_array(g, 2)
    reach = _reach_rows(g.n, g_edges)
    checks: list[Check] = []

    u, v = edges.T
    in_range = (u >= 0) & (u < g.n) & (v >= 0) & (v < g.n)
    member = in_range & (u != v)
    mu, mv = u[member], v[member]
    member[member] = reach[mu, mv >> 6] & _bit(mv) != 0
    bad = _first_row(edges, ~member)
    checks.append(
        Check("closure_membership", "fail" if bad else "pass", witness=bad)
    )

    union = np.concatenate([g_edges, edges[in_range]])
    seen, achieved, pair = _hop_levels(g.n, union, reach)
    diff = _first_bit(seen ^ reach)
    checks.append(
        Check("closure_preserved", "fail" if diff else "pass", witness=diff)
    )
    checks.append(
        Check(
            "diameter_at_most_target",
            "pass" if achieved <= d else "fail",
            witness=pair if achieved > d else None,
            detail=f"achieved {achieved} vs target {d}",
        )
    )
    return VerificationReport(instance, tuple(checks), achieved_diameter=achieved)


def _as_fraction(eps) -> Fraction:
    if isinstance(eps, float):
        raise TypeError("eps must be an exact rational")
    try:
        frac = Fraction(eps)
    except ZeroDivisionError:
        raise ValueError(f"eps {eps!r} has a zero denominator") from None
    if not 0 < frac < 1:
        raise ValueError(f"eps must lie in (0, 1), got {frac}")
    return frac


def verify_hopset(
    g: WeightedDigraph, h, beta: int, eps, instance: str = ""
) -> VerificationReport:
    """Weight exactness plus both sides of the (beta, eps) sandwich."""
    frac = _as_fraction(eps)
    if beta < 0:
        raise ValueError("hop bound must be >= 0")
    num, den = frac.numerator, frac.denominator
    triples = _edge_array(h, 3)
    dg = apsp(g)
    checks: list[Check] = []

    u, v, w = triples.T
    pair_ok = (u >= 0) & (u < g.n) & (v >= 0) & (v < g.n) & (u != v)
    exact = pair_ok.copy()
    dist = dg[u[pair_ok], v[pair_ok]]
    exact[pair_ok] = np.isfinite(dist) & (w[pair_ok] == dist)
    bad = _first_row(triples, ~exact)
    checks.append(Check("weight_exactness", "fail" if bad else "pass", witness=bad))

    union = _union_min(g, triples[pair_ok & (w >= 1)])
    uu, uv, uw = union.array.T  # dg is the union's distances unless a row undercuts it
    dh = hop_limited_dist(union, beta, dg if (uw >= dg[uu, uv]).all() else None)

    lower_bad = np.argwhere(dh < dg)
    checks.append(
        Check(
            "lower_side_exact",
            "fail" if len(lower_bad) else "pass",
            witness=tuple(map(int, lower_bad[0])) if len(lower_bad) else None,
        )
    )

    finite = np.isfinite(dg)
    np.fill_diagonal(finite, False)
    upper_bad = finite & (~np.isfinite(dh) | (den * dh > (den + num) * dg))
    viol = np.argwhere(upper_bad)
    checks.append(
        Check(
            "upper_side_within_stretch",
            "fail" if len(viol) else "pass",
            witness=tuple(map(int, viol[0])) if len(viol) else None,
            detail=f"hop budget {beta}, stretch bound 1+{frac}",
        )
    )

    stretch: Fraction | None = None
    both = finite & np.isfinite(dh)
    if both.any():
        ratios = np.divide(
            dh, np.maximum(dg, 1), out=np.zeros_like(dh), where=both
        )
        flat = int(np.argmax(ratios))
        u, v = flat // g.n, flat % g.n
        stretch = Fraction(int(dh[u, v]), int(dg[u, v]))
    return VerificationReport(
        instance,
        tuple(checks),
        achieved_stretch=stretch,
        achieved_hops=beta,
    )
