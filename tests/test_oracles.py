"""The verifiers themselves: do they catch planted faults and stay quiet on
clean inputs?"""

from __future__ import annotations

import ast
import inspect
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shortcutforge import graph_core, oracles
from shortcutforge.generators import GenSpec, generate
from shortcutforge.graph_core import Digraph, WeightedDigraph, weighted_closure
from shortcutforge.hopset_algos import (
    NicePathCollection,
    build_hopset,
    hopset_small_hop,
    nice_collection,
)
from shortcutforge.oracles import (
    ENUMERATION_VERTEX_CAP,
    Check,
    verify_hopset,
    verify_nice,
    verify_shortcut,
)

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

    def test_zero_denominator_eps_rejected(self):
        g = WeightedDigraph(3, [(0, 1, 2), (1, 2, 3)])
        with pytest.raises(ValueError, match="zero denominator"):
            verify_hopset(g, frozenset(), 12, "1/0")


class TestVerifyNice:
    def unit_path(self, n: int) -> WeightedDigraph:
        return WeightedDigraph(n, [(i, i + 1, 1) for i in range(n - 1)])

    def test_clean_pass(self):
        g = self.unit_path(25)
        report = verify_nice(g, nice_collection(g, 24))
        assert report.ok

    def test_overlapping_paths_fail_n1(self):
        g = self.unit_path(25)
        q = NicePathCollection([(0, 1, 2), (2, 3, 4)], [(1, 1), (1, 1)], 24)
        report = verify_nice(g, q)
        assert status_of(report, "n1_disjoint_closure_paths") == "fail"

    def test_wrong_hop_count_fails_n2(self):
        g = self.unit_path(25)
        q = NicePathCollection([(0, 1)], [(1,)], 24)
        report = verify_nice(g, q)
        assert status_of(report, "n2_exact_hop_count") == "fail"

    def test_wrong_length_fails_n3(self):
        g = self.unit_path(25)
        # weights forged to sum to 3 while the true distance is 2
        q = NicePathCollection([(0, 1, 2)], [(1, 2)], 24)
        report = verify_nice(g, q)
        assert status_of(report, "n1_disjoint_closure_paths") == "fail"
        assert status_of(report, "n3_length_is_distance") == "fail"

    def test_decreasing_lengths_fail_n4(self):
        g = WeightedDigraph(
            6, [(0, 1, 2), (1, 2, 2), (3, 4, 1), (4, 5, 1)]
        )
        q = NicePathCollection(
            [(0, 1, 2), (3, 4, 5)], [(2, 2), (1, 1)], 24
        )
        report = verify_nice(g, q)
        assert status_of(report, "n4_lengths_nondecreasing") == "fail"

    def test_skipping_cheaper_path_fails_n5(self):
        g = WeightedDigraph(
            6, [(0, 1, 2), (1, 2, 2), (3, 4, 1), (4, 5, 1)]
        )
        # (3,4,5) of length 2 exists, starting with (0,1,2) is not minimal
        q = NicePathCollection(
            [(0, 1, 2), (3, 4, 5)], [(2, 2), (1, 1)], 24
        )
        report = verify_nice(g, q)
        assert status_of(report, "n5_locally_minimal") == "fail"

    def test_stopping_early_fails_n6(self):
        g = self.unit_path(25)
        full = nice_collection(g, 24)
        partial = NicePathCollection(
            full.paths[:-1], full.edge_weights[:-1], 24
        )
        report = verify_nice(g, partial)
        assert status_of(report, "n5_locally_minimal") == "pass"
        assert status_of(report, "n6_no_long_residual_path") == "fail"

    def test_large_instance_skips_enumeration(self):
        g = self.unit_path(ENUMERATION_VERTEX_CAP + 5)
        report = verify_nice(g, nice_collection(g, 24))
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


class TestOracleKernels:
    def test_kernels_are_the_oracles_own(self):
        assert oracles.apsp.__module__ == "shortcutforge.oracles"
        assert oracles.hop_limited_dist.__module__ == "shortcutforge.oracles"
        tree = ast.parse(inspect.getsource(oracles))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").rsplit(".", 1)[-1] == "graph_core"
            for alias in node.names
        }
        assert imported == {"Digraph", "WeightedDigraph"}

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
