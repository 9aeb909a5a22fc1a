"""Core graph kernels checked against slow, obviously-correct oracles."""

from __future__ import annotations

import re
import tracemalloc
from typing import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from references import hop_counts, weighted_closure
from shortcutforge import graph_core
from shortcutforge.cli import main as cli_main
from shortcutforge.generators import GenSpec, generate, subdivide
from shortcutforge.graph_core import (
    MAX_VERTICES,
    Condensation,
    Digraph,
    WeightedDigraph,
    apsp,
    apsp_hops,
    bounded_reachability,
    check_acyclic,
    check_vertex_count,
    closure_digraph,
    condense,
    dump_edge_list,
    hop_limited_dist,
    load_edge_list,
    load_edge_rows,
    scc_star_edges,
    transitive_closure,
)
from shortcutforge.graph_core import (  # the old reader's and writer's helpers, for the references
    LoadReport,
    TaggedEdges,
    _int64,
    _int_rows,
    _kept_rows,
)
from shortcutforge.hopset_algos import HopsetEdges
from shortcutforge.shortcut_algos import ShortcutSet


def dense_adjacency(g: Digraph) -> np.ndarray:
    """Boolean n x n adjacency matrix of g."""
    a = np.zeros((g.n, g.n), dtype=bool)
    a[g.array[:, 0], g.array[:, 1]] = True
    return a


def bounded_reachability_by_powers(g: Digraph, hops: int) -> np.ndarray:
    """(A | I)^hops by binary exponentiation: the float32 BLAS kernel
    bounded_reachability used before it became a hop-limited search."""
    base = dense_adjacency(g)
    np.fill_diagonal(base, True)
    acc = np.eye(g.n, dtype=bool)
    k = hops
    while k:
        if k & 1:
            acc = (acc.astype(np.float32) @ base.astype(np.float32)) > 0
        k >>= 1
        if k:
            base = (base.astype(np.float32) @ base.astype(np.float32)) > 0
    return acc


def check_acyclic_by_bits(bits: np.ndarray) -> None:
    """check_acyclic before the closure kept packed rows: a scan of the
    unpacked n x n matrix ANDed with its transpose."""
    both = bits & bits.T
    np.fill_diagonal(both, False)
    if both.any():
        u, v = map(int, np.argwhere(both)[0])
        raise ValueError(f"input must be acyclic; {u} and {v} lie on a cycle")


def cycle_message(check, arg) -> str | None:
    try:
        check(arg)
    except ValueError as err:
        return str(err)
    return None


def closure_oracle(g: Digraph) -> np.ndarray:
    """Reflexive-transitive closure by per-vertex DFS over adjacency lists."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
    out = np.zeros((g.n, g.n), dtype=bool)
    for s in range(g.n):
        stack = [s]
        seen = {s}
        while stack:
            u = stack.pop()
            out[s, u] = True
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return out


def condense_by_tarjan(g: Digraph) -> Condensation:
    """condense before it called scipy: an iterative Tarjan in Python that
    takes roots and each vertex's targets in ascending id order."""
    n = g.n
    # The out-neighbours of v are targets[start[v] : start[v + 1]].
    targets = g.array[:, 1].tolist()
    start = np.searchsorted(g.array[:, 0], np.arange(n + 1)).tolist()

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
        work: list[tuple[int, int]] = [(root, start[root])]
        while work:
            v, ptr = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ptr < start[v + 1]:
                w = targets[ptr]
                ptr += 1
                if index[w] == -1:
                    work[-1] = (v, ptr)
                    work.append((w, start[w]))
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
    component_of = n_comps - 1 - np.array(comp, dtype=np.int64)
    rep = np.unique(component_of, return_index=True)[1]
    component_of.setflags(write=False)
    rep.setflags(write=False)
    cu, cv = component_of[g.array.T]
    cross = cu != cv
    dag = Digraph(n_comps, np.column_stack([cu[cross], cv[cross]]))
    return Condensation(dag, component_of, rep)


def bellman_ford_oracle(g: WeightedDigraph) -> np.ndarray:
    dist = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for _ in range(max(0, g.n - 1)):
        for u, v, w in g.edges:
            dist[:, v] = np.minimum(dist[:, v], dist[:, u] + w)
    return dist


def hop_dp_oracle(g: WeightedDigraph, beta: int) -> np.ndarray:
    """dist with at most beta edges, by the textbook per-round relaxation."""
    dist = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for _ in range(beta):
        nxt = dist.copy()
        for u, v, w in g.edges:
            nxt[:, v] = np.minimum(nxt[:, v], dist[:, u] + w)
        dist = nxt
    return dist


def hop_limited_dist_by_full_rounds(g: WeightedDigraph, beta: int) -> np.ndarray:
    """hop_limited_dist before it relaxed only the rows the last round
    changed: every round copied and compared the whole block."""
    if beta < 0:
        raise ValueError("hop bound must be >= 0")
    n = g.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    if beta == 0 or not g.m or n == 0:
        dist.setflags(write=False)
        return dist

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
    return dist


def _tokenize(text: str) -> Iterator[tuple[int, list[str]]]:
    """The readers' tokenizer before they shared one parser."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def load_edge_list_by_lines(text: str) -> LoadReport:
    """load_edge_list before one parser served both readers: a loop over
    _tokenize's lines with one int() call per field."""
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
    check_vertex_count(n)
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
    original_ids: tuple[int, ...] | None = None
    if ids and not all(0 <= i < n for i in ids):
        original_ids = tuple(sorted(ids))
        id_map = {orig: new for new, orig in enumerate(original_ids)}
        rows = [(id_map[r[0]], id_map[r[1]], *r[2:]) for r in rows]
        n = len(id_map)

    arr = _int_rows(rows, want)
    loops = arr[:, 0] == arr[:, 1]
    arr = arr[~loops]
    kept = arr[_kept_rows(n, arr, first_wins=True)]
    graph = (WeightedDigraph if weighted else Digraph)(n, kept)
    return LoadReport(graph, original_ids, int(loops.sum()), len(arr) - len(kept), declared_n)


def load_edge_rows_by_lines(text: str) -> tuple[int, np.ndarray]:
    """load_edge_rows before one parser served both readers.

    Parse an edge file as the shortcut and hopset subcommands write it.

    Rows are "u v tag" or "u v w tag"; the tag column is optional so plain
    edge lists read too.  Returns n and the header's m rows as an (m, 2) or
    (m, 3) int array; every row has as many integer fields as the first.
    """
    lines = _tokenize(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ValueError("empty edge file") from None
    if len(header) < 2:
        raise ValueError(f"line {lineno}: header must start with 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer header field") from None
    flat: list[int] = []
    width = 0
    for lineno, toks in lines:
        ints = []
        for t in toks:
            if t.isidentifier():  # a tag; cheaper to spot than a failed int()
                break
            try:
                ints.append(int(t))
            except ValueError:
                break
        if len(ints) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [w] [tag]'")
        if width and len(ints) != width:
            raise ValueError(f"line {lineno}: expected {width} integers, as on the first row")
        width = len(ints)
        flat.extend(ints)
    rows = _int64(flat).reshape(-1, width or 2)
    if len(rows) != m:
        raise ValueError(f"header declares m={m} edges but file has {len(rows)}")
    return n, rows


def dump_edge_list_by_format(
    g: Digraph | WeightedDigraph | TaggedEdges, comments: Sequence[str] = ()
) -> str:
    """dump_edge_list before it wrote rows into one byte buffer: a
    str.format call per row.

    Serialize edges in the edge-list format (rows sorted, deterministic).

    A TaggedEdges gets an "n m" header and its tag names as the last column.
    """
    out = [f"# {c}" for c in comments]
    if isinstance(g, WeightedDigraph):
        out.append(f"{g.n} {g.m} {g.max_weight}")
    else:
        out.append(f"{g.n} {g.m}")
    columns = g.array.T.tolist()
    if isinstance(g, TaggedEdges):
        columns.append(g.tags.tolist())
    out.extend(map(" ".join(["{}"] * len(columns)).format, *columns))
    return "\n".join(out) + "\n"


def random_digraph(n: int, p: float, rng: np.random.Generator) -> Digraph:
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    return Digraph(n, ((int(u), int(v)) for u, v in np.argwhere(mask)))


def random_weighted(n: int, p: float, w_max: int, rng: np.random.Generator) -> WeightedDigraph:
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    pairs = np.argwhere(mask)
    weights = rng.integers(1, w_max + 1, size=len(pairs))
    return WeightedDigraph(
        n, ((int(u), int(v), int(w)) for (u, v), w in zip(pairs, weights))
    )


def small_weighted_rows(n: int, max_size: int) -> st.SearchStrategy:
    """Lists of rows (u, v, w), u != v in [0, n) and w in [1, 4]: pairs and weights repeat."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    row = st.tuples(pair, st.integers(1, 4)).map(lambda r: (*r[0], r[1]))
    return st.lists(row, max_size=max_size)


class TestContainers:
    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: Digraph(3, [(0, 1), (2, 2)]), "self-loop"),
            (lambda: Digraph(3, [(0, 3)]), "out of range"),
            (lambda: Digraph(3, [(-1, 0)]), "out of range"),
            (lambda: WeightedDigraph(3, [(1, 1, 4)]), "self-loop"),
            (lambda: WeightedDigraph(3, [(0, 5, 4)]), "out of range"),
            (lambda: WeightedDigraph(3, [(0, 1, 0)]), r"weight 0 < 1"),
            (lambda: WeightedDigraph(3, [(0, 1, 2), (0, 1, 3)]), "duplicate weights"),
        ],
    )
    def test_bad_edges_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_duplicates_collapse(self):
        g = Digraph(3, [(0, 1), (1, 2), (0, 1)])
        assert g.m == 2 and g.edges == {(0, 1), (1, 2)}
        w = WeightedDigraph(3, [(0, 1, 4), (1, 2, 1), (0, 1, 4)])
        assert w.m == 2 and w.edges == {(0, 1, 4), (1, 2, 1)}

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), small_weighted_rows(n, 20))))
    @example((3, [(2, 0, 1), (0, 1, 2), (2, 0, 3), (0, 1, 1), (0, 1, 2)]))
    def test_kept_rows_are_uniques_first_rows(self, case):
        n, rows = case
        rows = np.array(rows, np.int64).reshape(-1, 3)
        first = np.unique(rows[:, 0] * n + rows[:, 1], return_index=True)[1]
        assert np.array_equal(_kept_rows(n, rows[:, :2]), first)
        assert np.array_equal(_kept_rows(n, rows, first_wins=True), first)
        weights: dict[tuple[int, int], set[int]] = {}
        for u, v, w in rows.tolist():
            weights.setdefault((u, v), set()).add(w)
        clashing = sorted(p for p, ws in weights.items() if len(ws) > 1)
        if clashing:  # the pair with the smallest key is named
            message = f"duplicate weights for edge pair {clashing[0]}"
            with pytest.raises(ValueError, match=re.escape(message)):
                _kept_rows(n, rows)
        else:
            assert np.array_equal(_kept_rows(n, rows), first)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ([(0, 1, 1), (2, 2, 3)], "self-loop (2, 2) not allowed"),
            ([(-1, 2, 1)], "edge (-1, 2) out of range for n=3"),
            ([(1, 3, 1)], "edge (1, 3) out of range for n=3"),  # key 1*3 + 3 is (2, 0)'s
            ([(0, 2, 4), (1, 2, 0)], "edge (1, 2) has weight 0 < 1"),
        ],
    )
    def test_bad_rows_named_before_keying(self, extra, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightedDigraph(3, [(0, 1, 2), (2, 0, 5), *extra])

    @pytest.mark.parametrize(
        "cls, rows",
        [
            (Digraph, [(2, 0), (0, 1), (1, 3)]),
            (WeightedDigraph, [(2, 0, 5), (0, 1, 1), (1, 3, 2)]),
        ],
    )
    def test_equal_whatever_the_row_source(self, cls, rows):
        built = [
            cls(4, rows),
            cls(4, (r for r in rows)),
            cls(4, np.array(rows, dtype=np.int64)),
            cls(4, reversed(rows)),
        ]
        for g in built[1:]:
            assert g == built[0] and hash(g) == hash(built[0])
        assert cls(4, rows[:2]) != built[0]
        assert cls(5, rows) != built[0]


class TestClosure:
    def test_against_dfs_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            g = random_digraph(32, float(rng.uniform(0.02, 0.3)), rng)
            got = transitive_closure(g).rows()
            assert np.array_equal(got, closure_oracle(g))

    def test_row_byte_boundaries_against_dfs_oracle(self):
        # Rows are bitsets packed 8 vertices to a byte: cover sizes on and
        # around byte boundaries, DAGs and graphs with nontrivial SCCs.
        rng = np.random.default_rng(103)
        for n in (0, 1, 7, 8, 9, 33, 70):
            for p in (0.0, 0.05, 0.3, 1.0):
                upper = np.triu(rng.random((n, n)) < p, k=1)
                order = rng.permutation(n)
                dag = Digraph(n, order[np.argwhere(upper)])
                back = order[np.argwhere(upper.T & (rng.random((n, n)) < 0.02))]
                for g in (dag, Digraph(n, np.concatenate([dag.array, back]))):
                    reach = transitive_closure(g)
                    assert reach.packed.dtype == np.uint8 and not reach.packed.flags.writeable
                    got = reach.rows()
                    assert got.dtype == bool and got.flags.c_contiguous
                    assert np.array_equal(got, closure_oracle(g))

    def test_rows_against_dfs_oracle(self):
        # Vertex subsets in any order, repeats included; each call a new
        # C-contiguous array the caller may write to.
        rng = np.random.default_rng(107)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            g = random_digraph(n, float(rng.uniform(0.0, 0.2)), rng)
            want = closure_oracle(g)
            reach = transitive_closure(g)
            for vs in (rng.permutation(n), rng.integers(0, n, size=7), np.array([], int)):
                got = reach.rows(vs)
                assert got.flags.c_contiguous and got.flags.writeable
                assert np.array_equal(got, want[vs])
            cols = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))
            for vs in (rng.permutation(n), np.array([], int)):
                got = reach.rows(vs, cols)
                assert got.dtype == bool and got.flags.c_contiguous and got.flags.writeable
                assert np.array_equal(got, want[np.ix_(vs, cols)])
            assert np.array_equal(reach.rows(columns=cols), reach.rows()[:, cols])
            got[...] = False
            assert np.array_equal(reach.rows(), want)
            for u in range(n):
                for v in range(n):
                    assert reach.rows(np.array([u]), np.array([v]))[0, 0] == want[u, v]

    def test_rows_of_half_the_vertices_is_one_unpack(self):
        # 2048 rows of 4096 bits: 8 MiB of bools plus their 1 MiB of packed
        # rows; a column gather would add a second 8 MiB array.
        g = generate(GenSpec("random_dag", 4096, density=2.0, seed=1))
        reach = transitive_closure(g)
        vs = np.arange(0, 4096, 2)
        tracemalloc.start()
        try:
            got = reach.rows(vs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (2048, 4096) and got[np.arange(2048), vs].all()
        assert peak <= 10 * 2**20, peak

    def test_forward_ids_skip_condense(self, monkeypatch):
        # Every edge runs from a smaller id to a larger one: the ids already
        # are a topological order, so no SCC pass may run.
        def refuse(g):
            raise AssertionError("condense called on a forward-id graph")

        rng = np.random.default_rng(109)
        graphs = [
            Digraph(n, np.argwhere(np.triu(rng.random((n, n)) < 0.1, k=1)))
            for n in (0, 1, 9, 40)
        ]
        graphs += [generate(GenSpec("grid_dag", 100)), generate(GenSpec("path", 17))]
        wants = [closure_oracle(g) for g in graphs]
        monkeypatch.setattr(graph_core, "condense", refuse)
        for g, want in zip(graphs, wants):
            check_acyclic(g)
            assert np.array_equal(transitive_closure(g).rows(), want)
        with pytest.raises(AssertionError, match="forward-id"):
            transitive_closure(Digraph(2, [(1, 0)]))

    def test_cycle_witness_matches_matrix_scan(self):
        # Several SCCs, on permuted ids: the condensation check names the
        # same pair as the scan of bits & bits.T it replaced.
        rng = np.random.default_rng(113)
        named = 0
        for _ in range(60):
            n = int(rng.integers(1, 48))
            g = random_digraph(n, float(rng.uniform(0.0, 0.12)), rng)
            want = cycle_message(check_acyclic_by_bits, closure_oracle(g))
            assert cycle_message(check_acyclic, g) == want
            named += want is not None
        assert named > 20

    def test_check_acyclic_builds_no_closure(self, monkeypatch):
        def refuse(g):
            raise AssertionError("closure built")

        monkeypatch.setattr(graph_core, "transitive_closure", refuse)
        check_acyclic(generate(GenSpec("random_dag", 50, p=0.2, seed=1)))
        with pytest.raises(ValueError, match="^input must be acyclic; 0 and 1 lie on a cycle$"):
            check_acyclic(Digraph(3, [(0, 1), (1, 2), (2, 0)]))

    def test_empty_and_single(self):
        assert transitive_closure(Digraph(1, [])).rows().tolist() == [[True]]
        g = Digraph(2, [(0, 1)])
        assert transitive_closure(g).rows().tolist() == [[True, True], [False, True]]

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        g = random_digraph(24, 0.1, rng)
        bits = transitive_closure(g).rows()
        pairs = [(int(u), int(v)) for u, v in np.argwhere(bits) if u != v]
        again = transitive_closure(Digraph(g.n, pairs)).rows()
        assert np.array_equal(bits, again)

    def test_bounded_reachability_matches_bfs_levels(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_digraph(20, 0.12, rng)
            hops = hop_counts(g)
            for r in (1, 2, 3, 7):
                got = bounded_reachability(g, r)
                want = hops <= r
                assert np.array_equal(got, want), f"radius {r}"

    def test_bounded_reachability_matches_matrix_powers(self):
        # DAGs with real hop depth, as the large-D route passes, and digraphs
        # with cycles; hops from 0 to past the depth
        graphs = [
            subdivide(generate(GenSpec("random_dag", 60, p=0.08, seed=3)), 3)[0],
            generate(GenSpec("grid_dag", 100, seed=0)),
            random_digraph(40, 0.06, np.random.default_rng(5)),
            Digraph(3, []),
        ]
        for g in graphs:
            for r in range(0, 41):
                want = bounded_reachability_by_powers(g, r)
                got = bounded_reachability(g, r)
                assert type(got) is np.ndarray and got.dtype == bool, (g, r)
                assert got.shape == (g.n, g.n) and not got.flags.writeable, (g, r)
                assert np.array_equal(got, want), (g, r)
        with pytest.raises(ValueError, match="hop bound must be >= 0"):
            bounded_reachability(graphs[0], -1)

    def test_bounded_reachability_monotone_in_radius(self):
        g = random_digraph(25, 0.08, np.random.default_rng(3))
        prev = bounded_reachability(g, 1)
        for r in (2, 4, 9):
            cur = bounded_reachability(g, r)
            assert (prev <= cur).all()
            prev = cur


def test_closure_digraph_keeps_exactly_the_off_diagonal_pairs():
    # A non-transitive relation: no closure is taken, and the input is
    # left as it was.
    rel = np.zeros((5, 5), dtype=bool)
    for u, v in [(0, 1), (1, 2), (2, 0), (3, 3), (4, 1), (0, 0)]:
        rel[u, v] = True
    rel.setflags(write=False)
    g = closure_digraph(rel)
    assert g.n == 5
    assert g.array.tolist() == [[0, 1], [1, 2], [2, 0], [4, 1]]
    assert rel[0, 0] and rel[3, 3]
    assert closure_digraph(np.zeros((0, 0), dtype=bool)) == Digraph(0)


class TestCondense:
    def test_dag_is_fixed_point(self):
        rng = np.random.default_rng(5)
        order = rng.permutation(18)
        edges = [
            (int(order[i]), int(order[j]))
            for i in range(18)
            for j in range(i + 1, 18)
            if rng.random() < 0.2
        ]
        g = Digraph(18, edges)
        cond = condense(g)
        assert cond.dag.n == g.n
        assert (np.bincount(cond.component_of) == 1).all()
        # dag ids are topological: every edge goes low -> high
        assert all(a < b for a, b in cond.dag.edges)

    def test_components_match_closure_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            g = random_digraph(20, 0.12, rng)
            reach = closure_oracle(g)
            same = reach & reach.T
            cond = condense(g)
            for u in range(g.n):
                for v in range(g.n):
                    assert (cond.component_of[u] == cond.component_of[v]) == bool(
                        same[u, v]
                    )

    def test_arrays_are_read_only_with_least_representatives(self):
        rng = np.random.default_rng(29)
        for n in (0, 1, 2, 15, 30):
            for p in (0.0, 0.05, 0.15):
                g = random_digraph(n, p, rng)
                cond = condense(g)
                comp, rep = cond.component_of, cond.rep
                for arr in (comp, rep):
                    assert arr.dtype == np.int64 and not arr.flags.writeable
                assert comp.shape == (n,) and rep.shape == (cond.dag.n,)
                assert np.array_equal(comp[rep], np.arange(cond.dag.n))
                for c in range(cond.dag.n):
                    assert rep[c] == np.flatnonzero(comp == c).min()

    def test_two_cycles_and_bridge(self):
        # 0-1-2 cycle -> 3 -> 4-5-6 cycle
        g = Digraph(
            7,
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)],
        )
        cond = condense(g)
        assert cond.dag.n == 3
        stars = scc_star_edges(g, cond)
        assert len(stars) <= 2 * (g.n - cond.dag.n)
        check_acyclic(cond.dag)

    @staticmethod
    def assert_same_as_tarjan(g: Digraph) -> None:
        got, want = condense(g), condense_by_tarjan(g)
        assert np.array_equal(got.component_of, want.component_of)
        assert np.array_equal(got.rep, want.rep)
        assert got.dag == want.dag

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=70),
        p=st.floats(min_value=0.0, max_value=0.3),
        family=st.sampled_from(["cyclic", "dag", "edgeless"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=0, p=0.3, family="cyclic", seed=0)
    @example(n=1, p=0.3, family="cyclic", seed=0)
    @example(n=2, p=1.0, family="cyclic", seed=0)  # one 2-cycle
    def test_ids_match_tarjan(self, n, p, family, seed):
        rng = np.random.default_rng(seed)
        if family == "cyclic":
            g = random_digraph(n, p, rng)
        elif family == "dag":  # forward pairs under a random relabelling
            perm = rng.permutation(n)
            g = Digraph(n, perm[np.argwhere(np.triu(rng.random((n, n)) < p, 1))])
        else:
            g = Digraph(n)
        self.assert_same_as_tarjan(g)

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec("random_digraph", 4096, density=1.5, seed=1),
            GenSpec("random_digraph", 4096, density=3.0, seed=1),
            GenSpec("random_dag", 4096, density=2.0, seed=1),
            GenSpec("layered", 4096, p=0.05, seed=1),
            GenSpec("grid_dag", 4096, seed=1),
        ],
        ids=["digraph-1.5", "digraph-3", "dag", "layered", "grid"],
    )
    def test_ids_match_tarjan_at_the_ceiling(self, spec):
        self.assert_same_as_tarjan(generate(spec))


class TestDistances:
    def test_apsp_against_bellman_ford(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            g = random_weighted(40, 0.1, 10, rng)
            assert np.array_equal(apsp(g), bellman_ford_oracle(g))

    @pytest.mark.parametrize(
        "n, p", [(0, 0.0), (9, 0.0), (30, 0.15)], ids=["empty", "edgeless", "weighted"]
    )
    def test_apsp_returns_read_only_float_array(self, n, p):
        g = random_weighted(n, p, 7, np.random.default_rng(71))
        dist = apsp(g)
        assert type(dist) is np.ndarray and dist.dtype == np.float64
        assert dist.shape == (n, n) and not dist.flags.writeable
        assert np.array_equal(dist, bellman_ford_oracle(g))

    def test_zero_hops_reach_only_self(self):
        g = random_weighted(10, 0.3, 5, np.random.default_rng(73))
        assert g.m
        dist = hop_limited_dist(g, 0)
        want = np.full((10, 10), np.inf)
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(dist, want) and not dist.flags.writeable

    def test_hop_limited_against_dp(self):
        rng = np.random.default_rng(43)
        for _ in range(12):
            g = random_weighted(16, 0.2, 9, rng)
            for beta in (1, 2, 3, 5):
                got = hop_limited_dist(g, beta)
                assert np.array_equal(got, hop_dp_oracle(g, beta)), f"beta={beta}"

    def test_hop_limit_converges_to_apsp(self):
        g = random_weighted(30, 0.15, 7, np.random.default_rng(47))
        assert np.array_equal(hop_limited_dist(g, g.n), apsp(g))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=40),
        p=st.floats(min_value=0.0, max_value=0.5),
        w_max=st.sampled_from([1, 9, 10**6]),
        beta=st.integers(min_value=0, max_value=50),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=0, p=0.3, w_max=9, beta=5, seed=0)
    @example(n=12, p=0.0, w_max=9, beta=5, seed=0)  # edgeless
    def test_hop_limited_matches_full_rounds(self, n, p, w_max, beta, seed):
        g = random_weighted(n, p, w_max, np.random.default_rng(seed))
        got = hop_limited_dist(g, beta)
        assert np.array_equal(got, hop_limited_dist_by_full_rounds(g, beta))
        assert not got.flags.writeable

    def test_hop_limited_matches_full_rounds_across_chunks(self):
        # 300 sources over ~31,000 edges run as two chunks of source rows.
        g = random_weighted(300, 0.35, 10**6, np.random.default_rng(59))
        assert 8_000_000 // g.m < g.n
        for beta in (1, 3, 8):
            got = hop_limited_dist(g, beta)
            assert np.array_equal(got, hop_limited_dist_by_full_rounds(g, beta))

    def test_weighted_closure_weights_are_distances(self):
        g = random_weighted(20, 0.15, 6, np.random.default_rng(53))
        wc = weighted_closure(g)
        dist = apsp(g)
        for u, v, w in wc.edges:
            assert w == dist[u, v]

@st.composite
def hop_test_graphs(draw, max_n: int) -> WeightedDigraph:
    """Weighted digraphs with n from 0, cycles, unreachable pairs, and
    weights all 1 or in [1, 2] (many ties) as well as spread out."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    p = draw(st.sampled_from([0.0, 0.15, 0.3, 0.6]))
    w_max = draw(st.sampled_from([1, 2, 9, 10**6]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_weighted(n, p, w_max, np.random.default_rng(seed))


def shortest_path_hops_by_enumeration(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray]:
    """Fewest and most edges over the shortest simple paths of every pair,
    from every simple path; 0 where unreachable."""
    succ: dict[int, list[tuple[int, int]]] = {u: [] for u in range(g.n)}
    for u, v, w in g.edges:
        succ[u].append((v, w))
    best = {(s, s): (0, 0, 0) for s in range(g.n)}  # (weight, fewest, most)
    for s in range(g.n):
        stack = [(s, 0, 0, frozenset([s]))]
        while stack:
            u, weight, hops, seen = stack.pop()
            for v, w in succ[u]:
                if v in seen:
                    continue
                key, cand = (s, v), (weight + w, hops + 1)
                old = best.get(key)
                if old is None or cand[0] < old[0]:
                    best[key] = (cand[0], cand[1], cand[1])
                elif cand[0] == old[0]:
                    best[key] = (old[0], min(old[1], cand[1]), max(old[2], cand[1]))
                stack.append((v, *cand, seen | {v}))
    fewest = np.zeros((g.n, g.n), np.int64)
    most = np.zeros((g.n, g.n), np.int64)
    for (s, t), (_, lo, hi) in best.items():
        fewest[s, t], most[s, t] = lo, hi
    return fewest, most


class TestHopCounts:
    """``apsp_hops``: distances with the fewest or most hops on a shortest path."""

    @settings(max_examples=120, deadline=None)
    @given(g=hop_test_graphs(max_n=7))
    @example(g=WeightedDigraph(0, []))
    @example(g=WeightedDigraph(1, []))
    @example(g=WeightedDigraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 2), (2, 3, 1), (3, 0, 1)]))
    def test_hop_counts_match_path_enumeration(self, g):
        fewest, most = shortest_path_hops_by_enumeration(g)
        for flag, want in ((False, fewest), (True, most)):
            dist, hops = apsp_hops(g, most=flag)
            assert np.array_equal(dist, apsp(g))
            assert np.array_equal(hops, want)
            assert hops.dtype == np.int64 and dist.dtype == np.float64
            assert not dist.flags.writeable and not hops.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(g=hop_test_graphs(max_n=24))
    @example(g=WeightedDigraph(0, []))
    @example(g=WeightedDigraph(1, []))
    def test_fewest_hops_mask_matches_hop_limited_dist(self, g):
        dist, fewest = apsp_hops(g)
        reached = np.isfinite(dist)
        for r in range(g.n + 1):
            want = reached & (hop_limited_dist(g, r) == apsp(g))
            assert np.array_equal(reached & (fewest <= r), want), f"r={r}"

    @pytest.mark.parametrize("n", [2, 3, 40, 300])
    def test_exactness_bound(self, n):
        w = ((2**53 - 1) // n - 1) // (n - 1)  # the largest w with n*((n-1)*w + 1) < 2**53
        assert n * ((n - 1) * w + 1) < 2**53 <= n * ((n - 1) * (w + 1) + 1)

        def heavy_path(weight: int) -> WeightedDigraph:
            # the longest shortest path there is: n - 1 edges of the largest weight
            return WeightedDigraph(n, [(i, i + 1, weight) for i in range(n - 1)])

        for most in (False, True):
            dist, hops = apsp_hops(heavy_path(w), most)
            assert dist[0, n - 1] == (n - 1) * w and hops[0, n - 1] == n - 1
            with pytest.raises(ValueError, match=re.escape("n*((n-1)*W + 1) < 2**53")):
                apsp_hops(heavy_path(w + 1), most)


# Fields as int() reads them: signs, underscores, leading zeros, non-ASCII
# digits, and values past int64.
INT_FIELDS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from([
        "+1", "-0", "007", "1_0", "+2_2", "\u0663", "\uff11", "9223372036854775807",
        "9223372036854775808", "-9223372036854775809", "100000000000000000000",
    ]),
)
# Fields int() does not read: tags, and near misses of an int.
OTHER_FIELDS = st.sampled_from([
    "baseline", "tag", "_1", "1_", "1__0", "+", "-", "+-1", "1.5", "0x1", "\u00b2", "\ud800",
])
SPACES = st.sampled_from([" ", " ", "  ", "\t", "\xa0", "\x1f", "\u3000"])
LINE_ENDS = st.sampled_from([
    "\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x85", "\u2028",
    "\x0c", "\x1c", "\x1d", "\x1e", "\r\r\n",
])


@st.composite
def edge_file_texts(draw) -> str:
    """Edge files from random fields: headers right and wrong, rows of 2 or 3
    ints with and without tags and trailing fields, bad rows, comments and
    blank lines."""
    width = draw(st.sampled_from([2, 3]))
    small = st.integers(0, 9).map(str)
    good = st.lists(st.one_of(small, small, small, INT_FIELDS), min_size=width, max_size=width)
    row = st.one_of(
        good,
        good,
        st.tuples(good, st.lists(OTHER_FIELDS, max_size=1)).map(lambda p: p[0] + p[1]),
        st.tuples(good, st.lists(st.one_of(OTHER_FIELDS, INT_FIELDS), max_size=2)).map(
            lambda p: p[0] + p[1]
        ),
        st.lists(st.one_of(INT_FIELDS, OTHER_FIELDS), max_size=5),
    )
    rows = draw(st.lists(row, max_size=7))
    if draw(st.integers(0, 3)):
        n = draw(st.sampled_from(["3", "5", "9", "9", "0", "-1", "5000"]))
        m = str(len(rows) + draw(st.sampled_from([0, 0, 0, 0, 1, -1])))
        w_cap = draw(st.sampled_from(["9", "9", "5", "0", "x"]))
        header = [n, m] + ([w_cap] if width == 3 else []) + draw(st.sampled_from([[]] * 5 + [["tag"]]))
    else:
        header = draw(st.lists(st.one_of(INT_FIELDS, OTHER_FIELDS), max_size=4))
    text = ""
    for fields in [header, *rows]:
        for _ in range(draw(st.integers(0, 1))):
            text += draw(st.sampled_from(["", "  ", "# note", " # 1 2"])) + draw(LINE_ENDS)
        text += draw(st.sampled_from(["", " "])) + draw(SPACES).join(fields)
        text += draw(st.sampled_from(["", "", " ", "# c", " #1 2 3"])) + draw(LINE_ENDS)
    return text


def outcome(read, text: str):
    """What ``read`` returns for ``text``, or the type and message it raises."""
    try:
        got = read(text)
    except Exception as err:  # noqa: BLE001  (compared, not handled)
        return type(err), str(err)
    if isinstance(got, tuple):  # load_edge_rows: n and an int64 array
        return got[0], got[1].dtype, got[1].shape, got[1].tolist()
    return got


class TestEdgeListIO:
    def test_roundtrip_unweighted(self):
        g = random_digraph(12, 0.25, np.random.default_rng(61))
        text = dump_edge_list(g, comments=["roundtrip check"])
        report = load_edge_list(text)
        assert report.graph.edges == g.edges
        assert report.original_ids is None

    def test_roundtrip_weighted(self):
        g = random_weighted(10, 0.3, 8, np.random.default_rng(67))
        report = load_edge_list(dump_edge_list(g))
        assert report.graph.edges == g.edges

    def test_reindexes_sparse_ids(self):
        report = load_edge_list("3 2\n10 20\n20 30\n")
        assert report.original_ids == (10, 20, 30)
        assert report.graph.edges == frozenset({(0, 1), (1, 2)})

    def test_drops_self_loops_and_duplicates(self):
        report = load_edge_list("3 4\n0 1\n0 1\n1 1\n1 2\n")
        assert report.dropped_duplicates == 1
        assert report.dropped_self_loops == 1
        assert report.graph.m == 2

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "empty"),
            ("2\n", "header"),
            ("2 1\n0 x\n", "line 2"),
            ("2 2\n0 1\n", "m=2"),
            ("2 1 5\n0 1 9\n", "weight"),
            ("2 1 100000000000000000000000\n0 1 99999999999999999999\n", "int64"),
        ],
    )
    def test_errors_carry_line_context(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            load_edge_list(text)

    @settings(max_examples=400, deadline=None)
    @given(edge_file_texts())
    @example("")
    @example("# only comments\n\n")
    @example("3 2 5\n0 1 5\n1 2 1\n")  # weights at both ends of [1, W]
    @example("3 2 5\n0 1 0\n1 x\n0 1 2 3\n")  # several faults: the first line's is reported
    @example("3 2\n0 1 tag 9\n0 1 2 tag\n1 x\n")
    @example("2 1 100000000000000000000000\n0 1 99999999999999999999\n")
    @example("2 9\n0 99999999999999999999 tag\n")
    @example("4 3\n0 99999999999999999999\n99999999999999999999 -5\n-5 0\n")
    @example("2 1\n0 " + "1" * 5000 + "\n")  # past int()'s limit on digits
    @example("2 1\n0 1 " + "1" * 5000 + "\n")
    @example("2 1\n\u0660 \u0661\u00a0tag\u2028")
    @example("5 3\n0 1 tag\n1 2 tag\n2 4 tag\n")  # neither '#' nor '_'
    @example("9 3\n+3 -0\n-7 +3\n-0 -7\n")  # signed ids
    @example("9 2 5\n+3 -0 +5\n-7 3 -1\n")
    def test_readers_agree_with_line_loops(self, text):
        assert outcome(load_edge_list, text) == outcome(load_edge_list_by_lines, text)
        assert outcome(load_edge_rows, text) == outcome(load_edge_rows_by_lines, text)

    def test_readers_agree_on_a_cli_written_folklore_file(self, tmp_path):
        graph, edges = tmp_path / "dag.txt", tmp_path / "folklore.txt"
        assert cli_main(["gen", "--family", "random_dag", "--n", "1000", "--density", "5",
                         "--seed", "1", "--out", str(graph)]) == 0
        assert cli_main(["shortcut", "--input", str(graph), "--diameter", "8", "--seed", "1",
                         "--mode", "folklore", "--out", str(edges)]) == 0
        text = edges.read_text()
        n, dtype, shape, rows = outcome(load_edge_rows, text)
        assert (n, dtype, shape, rows) == outcome(load_edge_rows_by_lines, text)
        assert n == 1000 and shape[0] > 100_000  # the whole closure, as "u v baseline" rows

    def test_reader_peak_memory_per_input_character(self):
        # The parser holds byte offsets as int32 and drops each byte mask and
        # per-field array once it is used: its traced peak on "u v tag" rows
        # is about 6 bytes per input character.
        rng = np.random.default_rng(79)
        uv = rng.integers(0, 4000, (20_000, 2)).tolist()
        tags = rng.choice(["baseline", "chain_shortcut", "sampled_wiring"], 20_000).tolist()
        text = "4000 20000\n" + "".join(f"{u} {v} {t}\n" for (u, v), t in zip(uv, tags))
        tracemalloc.start()
        try:
            n, rows = load_edge_rows(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 4000 and rows.tolist() == uv
        assert peak < 11 * len(text)

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            Digraph(MAX_VERTICES + 1, [])


class TestTaggedEdges:
    @pytest.mark.parametrize(
        "cls, rows, tags",
        [
            (ShortcutSet, [(2, 0), (0, 1), (1, 3), (2, 0)],
             ["baseline", "lifted", "path_shortcut", "lifted"]),
            (HopsetEdges, [(2, 0, 5), (0, 1, 1), (1, 3, 2), (2, 0, 9)],
             ["geometric_ladder", "induced_closure", "induced_closure", "induced_closure"]),
        ],
    )
    def test_equal_whatever_the_row_source(self, cls, rows, tags):
        arr = np.array(rows, dtype=np.int64)
        built = [
            cls(4, arr, tags),
            cls(4, list(arr), tags),  # 1-D row arrays
            cls(4, rows, tags),
            cls(4, (r for r in rows), tags),
            cls(4, arr, np.array(tags, dtype=object)),
        ]
        for h in built[1:]:
            assert h == built[0] and hash(h) == hash(built[0])
        assert built[0].m == 3
        assert built[0].tagged[2] == (*rows[0], tags[0])  # the first row wins
        assert cls(4, arr[::-1], tags[::-1]) != built[0]

    @pytest.mark.parametrize(
        "cls, rows",
        [
            (ShortcutSet, [(2, 0), (0, 1)]),
            (HopsetEdges, [(2, 0, 5), (0, 1, 1)]),
        ],
    )
    def test_one_tag_name_for_every_row(self, cls, rows):
        tag = cls.TAGS[-1]
        h = cls(3, rows, tag)
        assert h == cls(3, rows, [tag] * len(rows))
        assert h.tag_counts[tag] == len(rows)
        assert cls(3, (), tag) == cls(3, (), ())

    @pytest.mark.parametrize(
        "cls, rows, tags, match",
        [
            (ShortcutSet, [(0, 1), (1, 2)], ["baseline", "x"],
             "unknown provenance tag 'x'"),
            (ShortcutSet, [(0, 1, 4)], "baseline", "2 fields"),
            (ShortcutSet, [(0, 1)], ["baseline"] * 2, "2 tags for 1 rows"),
            (HopsetEdges, [(0, 1)], "induced_closure", "3 fields"),
            (HopsetEdges, [(0, 1, 2**70)], "induced_closure", "int64"),
        ],
    )
    def test_bad_rows_rejected(self, cls, rows, tags, match):
        with pytest.raises(ValueError, match=match):
            cls(3, rows, tags)

    def test_dump_writes_tags_under_an_n_m_header(self):
        h = HopsetEdges(
            4, [(2, 0, 5), (0, 1, 1)], ["geometric_ladder", "induced_closure"]
        )
        text = dump_edge_list(h, ["made by hand"])
        assert text == "# made by hand\n4 2\n0 1 1 induced_closure\n2 0 5 geometric_ladder\n"
        n, rows = load_edge_rows(text)
        assert n == 4 and np.array_equal(rows, h.array)


# Values at every digit-count boundary an int64 has, and some between.
BOUNDARY_VALUES = [0, 1, 9, 10, 99, 100, 999, 1000, 10**9, 10**18 - 1, 10**18, 2**63 - 1]


@st.composite
def edge_containers(draw) -> Digraph | WeightedDigraph | TaggedEdges:
    """Digraph, WeightedDigraph, ShortcutSet or HopsetEdges, n = 0 to 4096,
    with ids and weights drawn at digit boundaries as often as between them."""
    cls = draw(st.sampled_from([Digraph, WeightedDigraph, ShortcutSet, HopsetEdges]))
    n = draw(st.sampled_from([0, 1, 2, 11, 101, 1001, MAX_VERTICES]))
    ids = st.one_of(st.sampled_from([v for v in BOUNDARY_VALUES if v < n]), st.integers(0, n - 1))
    weights = st.one_of(st.sampled_from(BOUNDARY_VALUES[1:]), st.integers(1, 2**63 - 1))
    width = 3 if cls in (WeightedDigraph, HopsetEdges) else 2
    rows = []
    if n > 1:
        pairs = st.tuples(ids, ids).filter(lambda p: p[0] != p[1])
        rows = [(*p, *draw(st.lists(weights, min_size=width - 2, max_size=width - 2)))
                for p in draw(st.lists(pairs, max_size=12, unique=True))]
    if cls in (Digraph, WeightedDigraph):
        return cls(n, np.array(rows, np.int64).reshape(-1, width))
    tags = draw(st.lists(st.sampled_from(cls.TAGS), min_size=len(rows), max_size=len(rows)))
    return cls(n, np.array(rows, np.int64).reshape(-1, width), tags)


class TestEdgeListWriter:
    @settings(max_examples=300, deadline=None)
    @given(edge_containers(), st.lists(st.text(max_size=8), max_size=2))
    @example(
        WeightedDigraph(101, [(0, 9, 10**18 - 1), (9, 10, 10**18), (99, 100, 2**63 - 1),
                              (100, 0, 9), (10, 99, 99), (0, 100, 100)]),
        ["digit boundaries"],
    )
    @example(HopsetEdges(101, [(0, 9, 10**18), (100, 99, 2**63 - 1), (10, 0, 1)],
                         "geometric_ladder"), [])
    @example(Digraph(0), [])
    @example(ShortcutSet(7, (), "baseline"), ["no rows"])
    def test_agrees_with_format_calls(self, g, comments):
        assert dump_edge_list(g) == dump_edge_list_by_format(g)
        assert dump_edge_list(g, comments) == dump_edge_list_by_format(g, comments)

    @pytest.mark.parametrize("cls", [ShortcutSet, HopsetEdges])
    def test_writer_peak_memory_per_output_character(self, cls):
        # 20k rows, the hopset's with 9-digit weights: the row buffer, its
        # bytes and the decoded text, plus a few int arrays per row.
        rng = np.random.default_rng(83)
        u = rng.integers(0, 4000, 20_000)
        rows = np.column_stack([u, (u + rng.integers(1, 4000, 20_000)) % 4000])
        if cls is HopsetEdges:
            rows = np.column_stack([rows, rng.integers(10**8, 10**9, 20_000)])
        h = cls(4000, rows, rng.choice(cls.TAGS, 20_000))
        tracemalloc.start()
        try:
            text = dump_edge_list(h, ["memory check"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == h.m + 2 and h.m > 19_900
        assert peak < 11 * len(text)
