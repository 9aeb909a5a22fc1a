"""The verifiers themselves: do they catch planted faults and stay quiet on
clean inputs?"""

from __future__ import annotations

import ast
import inspect
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_matrix

from references import ENUMERATION_VERTEX_CAP, nice_collection, verify_nice, weighted_closure
from shortcutforge import graph_core, oracles
from shortcutforge.generators import GenSpec, generate, subdivide
from shortcutforge.graph_core import Digraph, WeightedDigraph
from shortcutforge.hopset_algos import build_hopset, hopset_small_hop
from shortcutforge.oracles import (
    Check,
    VerificationReport,
    _edge_array,
    _first_row,
    verify_hopset,
    verify_shortcut,
)
from shortcutforge.shortcut_algos import build_shortcuts

EPS14 = Fraction(1, 4)


def status_of(report, name: str) -> str:
    return {c.name: c.status for c in report.checks}[name]


class TestReportPlumbing:
    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            Check("anything", "fail")

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            Check("anything", "meh")

    def test_json_round_trips(self):
        g = Digraph(4, [(0, 1), (1, 2), (2, 3)])
        report = verify_shortcut(g, frozenset({(0, 2)}), 2, instance="toy")
        data = json.loads(report.to_json())
        assert data["instance"] == "toy"
        assert data["ok"] is True
        assert data["achieved_diameter"] == 2
        assert all(c["status"] == "pass" for c in data["checks"])


class TestVerifyShortcut:
    def test_clean_pass(self):
        g = Digraph(5, [(i, i + 1) for i in range(4)])
        h = frozenset({(0, 2), (0, 4), (2, 4)})
        report = verify_shortcut(g, h, 2)
        assert report.ok
        assert report.achieved_diameter == 2

    def test_non_closure_edge_caught(self):
        g = Digraph(4, [(0, 1), (2, 3)])
        report = verify_shortcut(g, frozenset({(1, 2)}), 4)
        assert status_of(report, "closure_membership") == "fail"
        assert status_of(report, "closure_preserved") == "fail"
        bad = next(c for c in report.checks if c.status == "fail")
        assert bad.witness is not None

    def test_diameter_miss_reported(self):
        g = Digraph(9, [(i, i + 1) for i in range(8)])
        report = verify_shortcut(g, frozenset(), 3)
        assert status_of(report, "diameter_at_most_target") == "fail"
        assert report.achieved_diameter == 8

    def test_witness_is_least_faulty_row(self):
        g = Digraph(4, [(0, 1), (2, 3)])
        report = verify_shortcut(g, [(2, 1), (0, 1), (3, 0), (1, 0), (0, 3)], 4)
        bad = next(c for c in report.checks if c.name == "closure_membership")
        assert bad.witness == (0, 3)

    def test_negative_target_rejected(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"^diameter target must be >= 0, got -5$"):
            verify_shortcut(g, frozenset(), -5)
        assert verify_shortcut(Digraph(1, []), frozenset(), 0).ok
        assert status_of(verify_shortcut(g, frozenset(), 0), "diameter_at_most_target") == "fail"


class TestVerifyHopset:
    def test_clean_pass(self):
        g = WeightedDigraph(4, [(0, 1, 2), (1, 2, 3), (2, 3, 1)])
        h = frozenset({(0, 2, 5), (0, 3, 6), (1, 3, 4)})
        report = verify_hopset(g, h, 12, EPS14)
        assert report.ok
        assert report.achieved_stretch == 1
        assert report.achieved_hops == 12

    def test_wrong_weight_caught(self):
        g = WeightedDigraph(3, [(0, 1, 2), (1, 2, 3)])
        report = verify_hopset(g, frozenset({(0, 2, 7)}), 12, EPS14)
        assert status_of(report, "weight_exactness") == "fail"

    def test_short_weight_breaks_lower_side(self):
        g = WeightedDigraph(3, [(0, 1, 2), (1, 2, 3)])
        report = verify_hopset(g, frozenset({(0, 2, 4)}), 12, EPS14)
        assert status_of(report, "weight_exactness") == "fail"
        assert status_of(report, "lower_side_exact") == "fail"

    def test_witness_is_least_faulty_row(self):
        g = WeightedDigraph(3, [(0, 1, 2), (1, 2, 3)])
        report = verify_hopset(g, [(1, 2, 9), (0, 2, 5), (0, 1, 7), (2, 0, 1)], 12, EPS14)
        bad = next(c for c in report.checks if c.name == "weight_exactness")
        assert bad.witness == (0, 1, 7)

    def test_hop_starved_union_breaks_upper_side(self):
        n = 40
        g = WeightedDigraph(n, [(i, i + 1, 1) for i in range(n - 1)])
        report = verify_hopset(g, frozenset(), 12, EPS14)
        assert status_of(report, "upper_side_within_stretch") == "fail"
        assert not report.ok

    def test_kernel_gets_the_union_as_a_graph(self, monkeypatch):
        # the traced benchmark reads .m of hop_limited_dist's first argument
        g = generate(GenSpec("weighted_random", 60, density=2.2, W=20, seed=1))
        h = build_hopset(g, 12, EPS14, seed=1).array
        lowered = h[h[:, 2] > 1][::7] - [0, 0, 1]  # a lighter second row for some pairs
        unions = []
        real = oracles.hop_limited_dist
        monkeypatch.setattr(
            oracles, "hop_limited_dist", lambda union, *a: unions.append(union) or real(union, *a)
        )
        for rows in (h, np.concatenate([h, lowered])):
            verify_hopset(g, rows, 12, EPS14)
            [union] = unions
            unions.clear()
            assert type(union) is WeightedDigraph and union.n == g.n
            assert union.m == len({(u, v) for u, v, _ in np.concatenate([g.array, rows]).tolist()})
        assert set(map(tuple, lowered.tolist())) <= set(map(tuple, union.array.tolist()))

    def test_zero_denominator_eps_rejected(self):
        g = WeightedDigraph(3, [(0, 1, 2), (1, 2, 3)])
        with pytest.raises(ValueError, match="zero denominator"):
            verify_hopset(g, frozenset(), 12, "1/0")

    def test_negative_hop_bound_rejected_before_apsp(self, monkeypatch):
        def no_apsp(g):
            raise AssertionError("apsp ran")

        monkeypatch.setattr(oracles, "apsp", no_apsp)
        g = WeightedDigraph(3, [(0, 1, 2), (1, 2, 3)])
        with pytest.raises(ValueError, match=r"^hop bound must be >= 0$"):
            verify_hopset(g, frozenset(), -3, EPS14)


class TestVerifyNice:
    def unit_path(self, n: int) -> WeightedDigraph:
        return WeightedDigraph(n, [(i, i + 1, 1) for i in range(n - 1)])

    def test_clean_pass(self):
        g = self.unit_path(25)
        report = verify_nice(g, *nice_collection(g, 24), 24)
        assert report.ok

    def test_overlapping_paths_fail_n1(self):
        g = self.unit_path(25)
        report = verify_nice(g, [(0, 1, 2), (2, 3, 4)], [(1, 1), (1, 1)], 24)
        assert status_of(report, "n1_disjoint_closure_paths") == "fail"

    def test_wrong_hop_count_fails_n2(self):
        g = self.unit_path(25)
        report = verify_nice(g, [(0, 1)], [(1,)], 24)
        assert status_of(report, "n2_exact_hop_count") == "fail"

    def test_wrong_length_fails_n3(self):
        g = self.unit_path(25)
        # weights forged to sum to 3 while the true distance is 2
        report = verify_nice(g, [(0, 1, 2)], [(1, 2)], 24)
        assert status_of(report, "n1_disjoint_closure_paths") == "fail"
        assert status_of(report, "n3_length_is_distance") == "fail"

    def test_decreasing_lengths_fail_n4(self):
        g = WeightedDigraph(
            6, [(0, 1, 2), (1, 2, 2), (3, 4, 1), (4, 5, 1)]
        )
        report = verify_nice(g, [(0, 1, 2), (3, 4, 5)], [(2, 2), (1, 1)], 24)
        assert status_of(report, "n4_lengths_nondecreasing") == "fail"

    def test_skipping_cheaper_path_fails_n5(self):
        g = WeightedDigraph(
            6, [(0, 1, 2), (1, 2, 2), (3, 4, 1), (4, 5, 1)]
        )
        # (3,4,5) of length 2 exists, starting with (0,1,2) is not minimal
        report = verify_nice(g, [(0, 1, 2), (3, 4, 5)], [(2, 2), (1, 1)], 24)
        assert status_of(report, "n5_locally_minimal") == "fail"

    def test_stopping_early_fails_n6(self):
        g = self.unit_path(25)
        paths, weights = nice_collection(g, 24)
        report = verify_nice(g, paths[:-1], weights[:-1], 24)
        assert status_of(report, "n5_locally_minimal") == "pass"
        assert status_of(report, "n6_no_long_residual_path") == "fail"

    def test_large_instance_skips_enumeration(self):
        g = self.unit_path(ENUMERATION_VERTEX_CAP + 5)
        report = verify_nice(g, *nice_collection(g, 24), 24)
        assert status_of(report, "n5_locally_minimal") == "skip"
        assert status_of(report, "n6_no_long_residual_path") == "skip"
        assert report.ok  # skips are not failures


def random_weighted(n: int, p: float, w_max: int, seed: int) -> WeightedDigraph:
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    pairs = np.argwhere(mask)
    weights = rng.integers(1, w_max + 1, size=len(pairs))
    return WeightedDigraph(n, np.column_stack([pairs, weights]))


def hop_bellman_ford(n: int, triples, beta: int) -> list[list[float]]:
    """Pure-Python Bellman-Ford cut after beta rounds, each reading the last."""
    dist = [[0.0 if s == t else float("inf") for t in range(n)] for s in range(n)]
    for _ in range(beta):
        nxt = [row[:] for row in dist]
        for u, v, w in triples:
            for s in range(n):
                if dist[s][u] + w < nxt[s][v]:
                    nxt[s][v] = dist[s][u] + w
        dist = nxt
    return dist


def weighted_rows(n: int, max_size: int) -> st.SearchStrategy:
    """Lists of rows (u, v, w), u != v in [0, n) and w in [1, 4]: pairs and weights repeat."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    row = st.tuples(pair, st.integers(1, 4)).map(lambda r: (*r[0], r[1]))
    return st.lists(row, max_size=max_size)


@st.composite
def union_cases(draw) -> tuple[int, dict[tuple[int, int], int], list[tuple[int, int, int]]]:
    """n, G's weight per pair and unsorted extra rows."""
    n = draw(st.integers(2, 6))
    base = {(u, v): w for u, v, w in draw(weighted_rows(n, 12))}
    return n, base, draw(weighted_rows(n, 16))


class TestOracleKernels:
    def test_kernels_are_the_oracles_own(self):
        for kernel in (oracles.apsp, oracles.hop_limited_dist, oracles._reach_rows,
                       oracles._hop_levels, oracles._grouped_or, oracles._union_min):
            assert kernel.__module__ == "shortcutforge.oracles", kernel.__name__
        tree = ast.parse(inspect.getsource(oracles))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").rsplit(".", 1)[-1] == "graph_core"
            for alias in node.names
        }
        assert imported == {"Digraph", "WeightedDigraph"}

    @given(union_cases())
    @example((3, {}, [(1, 0, 2), (0, 1, 3), (1, 0, 1)]))  # empty G; a pair twice in extra
    @example((3, {(1, 2): 5, (0, 1): 2}, []))  # empty extra
    @example((3, {(0, 1): 2, (2, 0): 1}, [(2, 0, 3), (0, 1, 2), (0, 1, 2), (0, 1, 1)]))
    def test_union_min_keeps_each_pairs_least_weight(self, case):
        n, base, extra = case
        g = WeightedDigraph(n, [(u, v, w) for (u, v), w in base.items()])
        least = dict(base)
        for u, v, w in extra:
            least[u, v] = min(w, least.get((u, v), w))
        want = sorted([u, v, w] for (u, v), w in least.items())
        for rows in (extra, sorted(extra)):
            union = oracles._union_min(g, np.array(rows, np.int64).reshape(-1, 3))
            assert type(union) is WeightedDigraph and union.n == n
            assert union.array.tolist() == want

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=40),
        p=st.floats(min_value=0.0, max_value=0.5),
        w_max=st.sampled_from([1, 9, 10**6]),
        beta=st.integers(min_value=0, max_value=50),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=0, p=0.3, w_max=9, beta=5, seed=0)
    @example(n=1, p=0.3, w_max=9, beta=5, seed=0)
    @example(n=12, p=0.0, w_max=9, beta=5, seed=0)  # edgeless
    def test_hop_limited_matches_construction_kernel(self, n, p, w_max, beta, seed):
        g = random_weighted(n, p, w_max, seed)
        got = oracles.hop_limited_dist(g, beta)
        assert np.array_equal(got, graph_core.hop_limited_dist(g, beta))

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=0, max_value=12),
        beta=st.integers(min_value=0, max_value=14),
    )
    def test_hop_limited_matches_brute_force(self, data, n, beta):
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]
        )
        weights = data.draw(
            st.dictionaries(pairs, st.integers(1, 10**6), max_size=40) if n > 1
            else st.just({})
        )
        triples = [(u, v, w) for (u, v), w in weights.items()]
        g = WeightedDigraph(n, triples)
        expect = np.array(hop_bellman_ford(n, triples, beta)).reshape(n, n)
        assert np.array_equal(oracles.hop_limited_dist(g, beta), expect)

    def test_negative_hop_bound_rejected(self):
        with pytest.raises(ValueError):
            oracles.hop_limited_dist(WeightedDigraph(3, [(0, 1, 1)]), -1)

    @pytest.mark.parametrize("n, p, seed", [(0, 0.0, 0), (1, 0.0, 0), (15, 0.0, 1),
                                            (30, 0.1, 2), (60, 0.05, 3)])
    def test_apsp_matches_networkx(self, n, p, seed):
        nx = pytest.importorskip("networkx")
        g = random_weighted(n, p, 10**6, seed)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.add_weighted_edges_from(g.array.tolist())
        expect = np.full((n, n), np.inf)
        for s, lengths in nx.all_pairs_dijkstra_path_length(ref):
            for t, d in lengths.items():
                expect[s, t] = d
        assert np.array_equal(oracles.apsp(g), expect)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=150),
        p=st.floats(min_value=0.0, max_value=0.08),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=0, p=0.0, seed=0)
    @example(n=1, p=0.0, seed=0)
    @example(n=129, p=0.0, seed=0)  # edgeless, three words per row
    @example(n=130, p=0.05, seed=1)  # one large strong component
    def test_reach_rows_match_networkx(self, n, p, seed):
        nx = pytest.importorskip("networkx")
        g = random_digraph(n, p, seed)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.array.tolist())
        expect = np.zeros((n, n), dtype=bool)
        for u in range(n):
            expect[u, [u, *nx.descendants(ref, u)]] = True
        rows = oracles._reach_rows(n, g.array)
        assert rows.dtype == np.dtype("<u8") and rows.shape == (n, -(-n // 64))
        bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little").view(bool)
        assert np.array_equal(bits[:, :n], expect)
        assert not bits[:, n:].any()  # no bit past the last vertex


def random_digraph(n: int, p: float, seed: int) -> Digraph:
    """Each ordered pair of distinct vertices an edge with probability p: cycles allowed."""
    mask = np.random.default_rng(seed).random((n, n)) < p
    np.fill_diagonal(mask, False)
    return Digraph(n, np.argwhere(mask))


def reference_bfs_hops(n: int, edges: np.ndarray) -> np.ndarray:
    mat = csr_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)
    )
    return csgraph.shortest_path(mat, method="D", unweighted=True)


def verify_shortcut_by_bfs(g: Digraph, h, d: int, instance: str = "") -> VerificationReport:
    """The verifier on two all-pairs BFS hop matrices, G's and the union's."""
    edges = _edge_array(h, 2)
    g_edges = _edge_array(g, 2)
    base = reference_bfs_hops(g.n, g_edges)
    reach = np.isfinite(base)
    checks: list[Check] = []

    u, v = edges.T
    in_range = (u >= 0) & (u < g.n) & (v >= 0) & (v < g.n)
    member = in_range & (u != v)
    member[member] = reach[u[member], v[member]]
    bad = _first_row(edges, ~member)
    checks.append(
        Check("closure_membership", "fail" if bad else "pass", witness=bad)
    )

    union = reference_bfs_hops(g.n, np.concatenate([g_edges, edges[in_range]]))
    diff = np.argwhere(np.isfinite(union) != reach)
    checks.append(
        Check(
            "closure_preserved",
            "fail" if len(diff) else "pass",
            witness=tuple(map(int, diff[0])) if len(diff) else None,
        )
    )

    mask = reach.copy()
    np.fill_diagonal(mask, False)
    if mask.any():
        vals = np.where(mask, union, -np.inf)
        flat = int(np.argmax(vals))
        pair = (flat // g.n, flat % g.n)
        achieved = int(vals[pair])
    else:
        pair = None
        achieved = 0
    checks.append(
        Check(
            "diameter_at_most_target",
            "pass" if achieved <= d else "fail",
            witness=pair if achieved > d else None,
            detail=f"achieved {achieved} vs target {d}",
        )
    )
    return VerificationReport(instance, tuple(checks), achieved_diameter=achieved)


def shortcut_instances(seed: int) -> list[tuple[str, Digraph, int]]:
    """(label, graph, D): the benchmark's four random DAGs and two hop-deep graphs."""
    split, _ = subdivide(generate(GenSpec("random_dag", 300, density=2.0, seed=seed)), 3)
    return [
        *(
            (f"random_dag#{i}",
             generate(GenSpec("random_dag", 800, density=3.0, seed=4 * seed + i)), 8)
            for i in range(4)
        ),
        ("grid_dag", generate(GenSpec("grid_dag", 1225)), 11),
        ("subdivide", split, 16),
    ]


def shortcut_variants(g: Digraph, h: np.ndarray) -> dict[str, np.ndarray]:
    """The construction's rows, and copies with planted faults of each kind."""
    n = g.n
    rng = np.random.default_rng(n)
    pick = h[rng.choice(len(h), size=min(len(h), 5), replace=False)]
    return {
        "outside_closure": np.concatenate([h, pick[:, ::-1]]),
        "negative": np.concatenate([h, [[-1, 0], [0, -n]]]),
        "beyond_n": np.concatenate([[[n, 0], [1, n + 7]], h]),
        "self_loops": np.concatenate([h, np.repeat(pick[:, :1], 2, axis=1)]),
        "duplicates": np.concatenate([h, pick, g.array[::3], h[::2]]),
    }


def assert_same_reports(g: Digraph, h, d: int) -> dict:
    got = verify_shortcut(g, h, d).to_dict()
    assert got == verify_shortcut_by_bfs(g, h, d).to_dict()
    return got


class TestVerifyShortcutAgainstBFS:
    """Reports equal those of the all-pairs BFS verifier, failing ones included."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_shapes(self, seed):
        for label, g, d in shortcut_instances(seed):
            h = build_shortcuts(g, d, seed=seed).array
            assert assert_same_reports(g, h, d)["ok"], label
            empty = assert_same_reports(g, h[:0], d)
            if label == "grid_dag":  # 68 hops against D = 11: the witness path runs
                assert empty["achieved_diameter"] == 68 and not empty["ok"]

    def test_planted_faults(self):
        failing = set()
        for label, g, d in shortcut_instances(0)[3:]:
            h = build_shortcuts(g, d, seed=0).array
            for name, rows in shortcut_variants(g, h).items():
                report = assert_same_reports(g, rows, d)
                for check in report["checks"]:
                    if check["status"] == "fail":
                        failing.add((name, check["name"]))
        assert {
            ("outside_closure", "closure_membership"),
            ("outside_closure", "closure_preserved"),
            ("negative", "closure_membership"),
            ("beyond_n", "closure_membership"),
            ("self_loops", "closure_membership"),
        } <= failing
        assert not any(name == "duplicates" for name, _ in failing)

    @pytest.mark.parametrize("n, density, seed", [(60, 1.5, 0), (200, 1.2, 1), (300, 3.0, 2)])
    def test_cyclic_inputs(self, n, density, seed):
        g = generate(GenSpec("random_digraph", n, density=density, seed=seed))
        with pytest.raises(ValueError):
            graph_core.check_acyclic(g)
        h = build_shortcuts(g, 4, seed=seed).array
        for rows in [h, h[:0], *shortcut_variants(g, h).values()]:
            for d in (1, 4, n):
                assert_same_reports(g, rows, d)

    @pytest.mark.parametrize("rows", [[], [(0, 0)], [(0, 1)], [(-1, 0)], [(0, 0), (0, 0)]])
    def test_zero_and_one_vertex(self, rows):
        for n in (0, 1):
            for d in (0, 1):
                assert_same_reports(Digraph(n, []), np.array(rows, dtype=np.int64), d)

    def test_reports_do_not_depend_on_the_block_size(self, monkeypatch):
        g = generate(GenSpec("random_digraph", 150, density=2.0, seed=3))
        h = build_shortcuts(g, 3, seed=3).array
        want = verify_shortcut_by_bfs(g, h, 3).to_dict()
        for block in (1, 64, 4096):  # one row, and then a few groups, per block
            monkeypatch.setattr(oracles, "_BLOCK_BYTES", block)
            assert verify_shortcut(g, h, 3).to_dict() == want

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=0, max_value=70),
        p=st.floats(min_value=0.0, max_value=0.15),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_instances(self, data, n, p, seed):
        g = random_digraph(n, p, seed)
        h = data.draw(
            st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)), max_size=60)
        )
        rows = np.array(h, dtype=np.int64).reshape(-1, 2)
        achieved = assert_same_reports(g, rows, n)["achieved_diameter"]
        for d in {max(achieved - 1, 0), achieved // 2, achieved + 1}:
            assert_same_reports(g, rows, d)


class TestVerifyShortcutMemory:
    """tracemalloc peak of verify_shortcut at the 4096-vertex ceiling."""

    CASES = {
        "random_dag_d16": (GenSpec("random_dag", 4096, density=2.0, seed=1), 16, True),
        "grid_empty": (GenSpec("grid_dag", 4096), 64, False),
        "grid_d64": (GenSpec("grid_dag", 4096), 64, True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_peak_at_most_64_mib(self, case):
        spec, d, build = self.CASES[case]
        g = generate(spec)
        h = build_shortcuts(g, d, seed=1).array if build else np.empty((0, 2), np.int64)
        tracemalloc.start()
        try:
            report = verify_shortcut(g, h, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two n x n float64 hop matrices alone are 256 MiB
        assert peak <= 64 * 2**20, peak
        assert report.ok is build
        if case == "grid_d64":
            assert len(h) == 139_096 and report.achieved_diameter == 3
        if case == "grid_empty":
            assert report.achieved_diameter == 126


def reference_min_plus(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out <- a (min, +) b, as one rank-1 update per intermediate vertex k.

    Every argument is n x n; tmp is scratch.  Where fewer than a quarter of
    column k of a is finite, the update touches only those rows.  Below that
    share a gathered update costs at most about half of a full one (the two
    break even near a half), and on the forward-id DAG unions of hop-deep
    graphs many columns are that sparse.
    """
    n = len(a)
    out.fill(np.inf)
    finite = np.isfinite(a)
    sparse = finite.sum(axis=0) * 4 < n
    for k in range(n):
        if sparse[k]:
            rows = np.flatnonzero(finite[:, k])
            out[rows] = np.minimum(out[rows], a[rows, k, None] + b[k])
        else:
            np.add(a[:, k, None], b[k], out=tmp)
            np.minimum(out, tmp, out=out)


def reference_hop_limited_dist(g: WeightedDigraph, beta: int) -> np.ndarray:
    """The oracle's kernel before its products skipped settled entries:
    full products, stopped when a squaring leaves the power unchanged."""
    if beta < 0:
        raise ValueError("hop bound must be >= 0")
    n = g.n
    power = np.full((n, n), np.inf)
    u, v, w = g.array.T
    power[u, v] = w
    np.fill_diagonal(power, 0.0)
    result = None
    out, tmp = np.empty((n, n)), np.empty((n, n))
    bits = beta
    while bits:
        if bits & 1:
            if result is None:
                result = power.copy()
            else:
                reference_min_plus(result, power, out, tmp)
                result, out = out, result
        bits >>= 1
        if bits:
            reference_min_plus(power, power, out, tmp)
            if np.array_equal(out, power):
                return power
            power, out = out, power
    if result is None:
        result = np.full((n, n), np.inf)
        np.fill_diagonal(result, 0.0)
    return result


class TestHopLimitedAgainstReference:
    """The floor-bounded products against the full ones, exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=40),
        p=st.floats(min_value=0.0, max_value=0.5),
        w_max=st.sampled_from([1, 9, 10**6]),
        beta=st.integers(min_value=0, max_value=50),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        given_floor=st.booleans(),
    )
    @example(n=0, p=0.3, w_max=9, beta=5, seed=0, given_floor=True)
    @example(n=1, p=0.3, w_max=9, beta=5, seed=0, given_floor=False)
    @example(n=12, p=0.0, w_max=9, beta=5, seed=0, given_floor=True)  # edgeless
    @example(n=40, p=0.03, w_max=10**6, beta=50, seed=3, given_floor=False)
    def test_matches_full_products(self, n, p, w_max, beta, seed, given_floor):
        g = random_weighted(n, p, w_max, seed)
        expect = reference_hop_limited_dist(g, beta)
        # any walk shortens to a path of at most n - 1 edges
        floor = reference_hop_limited_dist(g, max(n - 1, 1)) if given_floor else None
        assert np.array_equal(oracles.hop_limited_dist(g, beta, floor), expect)


def hopset_instances() -> list[tuple[WeightedDigraph, np.ndarray, int]]:
    """(graph, construction's rows, beta): a shallow and a hop-deep union."""
    shallow = generate(GenSpec("weighted_random", 100, density=2.2, W=100, seed=4))
    grid = generate(GenSpec("grid_dag", 100)).array
    ws = np.random.default_rng(5).integers(1, 1001, size=len(grid))
    deep = WeightedDigraph(100, np.column_stack([grid, ws]))
    return [
        (shallow, build_hopset(shallow, 12, EPS14, seed=1).array, 12),
        (deep, hopset_small_hop(deep, 24, EPS14, seed=1).array, 24),
    ]


def hopset_variants(g: WeightedDigraph, h: np.ndarray) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    lowered = h.copy()
    lowered[np.argmax(lowered[:, 2]), 2] -= 1
    raised = h.copy()
    raised[rng.choice(len(h), size=5, replace=False), 2] += 7
    repeats = np.concatenate([h, g.array[::2]])
    return {
        "construction": h,
        "empty": h[:0],
        "lowered": lowered,
        "raised": raised,
        "repeats_g": repeats,
        "repeats_g_lowered": np.concatenate([lowered, g.array[::2]]),
    }


class TestVerifyHopsetAgainstReference:
    """Reports equal those of the full-product kernel, failing ones included."""

    def test_reports_match(self, monkeypatch):
        floors = []
        real = oracles.hop_limited_dist

        def spy(union, beta, floor=None):
            floors.append(floor is None)
            return real(union, beta, floor)

        def reference(union, beta, floor=None):
            return reference_hop_limited_dist(union, beta)

        failing = set()
        for i, (g, h, beta) in enumerate(hopset_instances()):
            for name, rows in hopset_variants(g, h).items():
                monkeypatch.setattr(oracles, "hop_limited_dist", spy)
                got = verify_hopset(g, rows, beta, EPS14).to_dict()
                monkeypatch.setattr(oracles, "hop_limited_dist", reference)
                assert got == verify_hopset(g, rows, beta, EPS14).to_dict(), (i, name)
                # the kernel computes its own floor exactly when a row undercuts dg
                assert floors.pop() == name.endswith("lowered"), (i, name)
                if not got["ok"]:
                    failing.add(name)
        assert {"empty", "lowered", "raised", "repeats_g_lowered"} <= failing


class TestHopLimitedProductCount:
    """Binary exponentiation with the floor stop, counted by product."""

    def count_products(self, monkeypatch, g: WeightedDigraph, beta: int) -> int:
        calls = []
        real = oracles._min_plus

        def spy(a, b, floor):
            calls.append(1)
            return real(a, b, floor)

        monkeypatch.setattr(oracles, "_min_plus", spy)
        got = oracles.hop_limited_dist(g, beta)
        assert np.array_equal(got, graph_core.hop_limited_dist(g, beta))
        return len(calls)

    @pytest.mark.parametrize("beta", [2, 12, 80, 1000])
    def test_hop_diameter_one_stops_at_once(self, monkeypatch, beta):
        g = weighted_closure(random_weighted(30, 0.1, 9, 7))
        assert self.count_products(monkeypatch, g, beta) == 0

    @pytest.mark.parametrize("beta", [48, 63])
    def test_path_takes_log_plus_popcount(self, monkeypatch, beta):
        g = WeightedDigraph(65, [(i, i + 1, 1 + i % 5) for i in range(64)])
        expect = beta.bit_length() - 1 + bin(beta).count("1") - 1
        assert expect == {48: 6, 63: 10}[beta]
        assert self.count_products(monkeypatch, g, beta) == expect
