"""Shortcut constructions: baseline, both diameter regimes, dispatch, spanner."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from references import hop_counts, path_size_bound
from shortcutforge import graph_core, shortcut_algos
from shortcutforge._intmath import ceil_root, floor_root
from shortcutforge.chain_decomp import decompose
from shortcutforge.generators import GenSpec, generate
from shortcutforge.graph_core import (
    Digraph,
    check_acyclic,
    condense,
    transitive_closure,
    transitive_reduction,
)
from shortcutforge.oracles import verify_shortcut
from shortcutforge.shortcut_algos import (
    ShortcutSet,
    build_shortcuts,
    first_incoming_edge,
    folklore,
    shortcut_large_d,
    shortcut_small_diam,
    small_diam_limit,
    tc_spanner,
)


def random_dag(n: int, p: float, seed: int) -> Digraph:
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    idx = np.triu_indices(n, k=1)
    mask = rng.random(len(idx[0])) < p
    return Digraph(
        n,
        ((int(order[a]), int(order[b])) for a, b in zip(idx[0][mask], idx[1][mask])),
    )


def path_graph(n: int) -> Digraph:
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


def hop_diameter(g: Digraph, extra) -> int:
    union = Digraph(g.n, set(g.edges) | set(extra))
    hops = hop_counts(union)
    finite = np.isfinite(hops)
    np.fill_diagonal(finite, False)
    return int(hops[finite].max()) if finite.any() else 0


def transitive_reduction_by_product(dag: Digraph) -> Digraph:
    """transitive_reduction before it ORed packed rows: 2-hop detours from a
    float32 BLAS product of the strict closure with itself."""
    check_acyclic(dag)
    direct = transitive_closure(dag).rows()
    np.fill_diagonal(direct, False)
    detour = (direct.astype(np.float32) @ direct.astype(np.float32)) > 0
    keep = direct & ~detour
    return Digraph(dag.n, np.argwhere(keep))


def tc_spanner_parts(g: Digraph, k: int, c: float, seed: int) -> tuple[Digraph, ShortcutSet]:
    """tc_spanner's backbone and its shortcut set, as tc_spanner built them
    when it returned their union as a Digraph."""
    if k < 3:
        raise ValueError(f"hop target must be >= 3, got {k}")
    cond = condense(g)
    members_of: list[list[int]] = [[] for _ in range(cond.dag.n)]
    for v, comp in enumerate(cond.component_of.tolist()):
        members_of[comp].append(v)
    reps = np.array([members[0] for members in members_of], np.int64)
    parts = [reps[transitive_reduction(cond.dag).array]]
    for members in members_of:  # each is sorted; close it into a ring
        if len(members) >= 2:
            parts.append(np.column_stack([members, np.roll(members, -1)]))
    base = Digraph(g.n, np.concatenate(parts))
    return base, build_shortcuts(base, k, c, seed=seed)


def closure_pairs(g: Digraph) -> set[tuple[int, int]]:
    bits = transitive_closure(g).rows()
    np.fill_diagonal(bits, False)
    return {(int(u), int(v)) for u, v in np.argwhere(bits)}


class TestShortcutSet:
    def test_dedupe_keeps_first_tag(self):
        hs = ShortcutSet(3, [(0, 1), (0, 1)], ["path_shortcut", "sampled_pair"])
        assert hs.tagged == ((0, 1, "path_shortcut"),)
        assert hs.tag_counts["path_shortcut"] == 1

    @pytest.mark.parametrize(
        "rows",
        [
            ([(0, 0)], "baseline"),
            ([(0, 3)], "baseline"),
            ([(0, 1)], "mystery"),
        ],
    )
    def test_rejects_bad_rows(self, rows):
        with pytest.raises(ValueError):
            ShortcutSet(3, *rows)


class TestFirstIncoming:
    def test_matches_linear_scan(self):
        g = random_dag(64, 0.08, seed=11)
        closure = transitive_closure(g)
        chains = decompose(g, 16, closure).chains
        bits = closure.rows()
        want = set()
        for v in range(g.n):
            for chain in chains:
                for u in chain:
                    if u != v and bits[v, u]:
                        want.add((v, u))
                        break
        got = first_incoming_edge(closure, np.arange(g.n), chains)
        assert got.shape == (len(want), 2)
        assert {(int(s), int(t)) for s, t in got} == want

    def test_vertex_on_chain_gets_next_position(self):
        g = path_graph(6)
        closure = transitive_closure(g)
        chain = (0, 1, 2, 3, 4, 5)
        got = first_incoming_edge(closure, np.array([2, 5]), [chain])
        assert got.tolist() == [[2, 3]]

    def test_unreachable_returns_none(self):
        g = Digraph(4, [(0, 1)])
        closure = transitive_closure(g)
        assert first_incoming_edge(closure, np.array([3]), [(0, 1)]).shape == (0, 2)
        assert first_incoming_edge(closure, np.array([1]), [(0,)]).shape == (0, 2)

    def test_no_chains_gives_no_rows(self):
        closure = transitive_closure(path_graph(4))
        assert first_incoming_edge(closure, np.arange(4), []).shape == (0, 2)


class TestFolklore:
    def test_empty_sample_gives_empty_set(self):
        # D >= n pushes p to ~0.03; seed 0 happens to sample nothing
        hs = folklore(path_graph(8), 64, 1.0, seed=0)
        assert len(hs) == 0

    def test_capped_probability_gives_full_closure(self):
        g = path_graph(8)
        hs = folklore(g, 3, 64.0, seed=0)
        assert hs.edges == frozenset(closure_pairs(g))

    def test_capped_probability_peak_memory(self):
        # p caps at 1, so every vertex is sampled: the sampled block is one
        # n x n bool matrix (16 MiB), next to the closure's 2 MiB of packed rows.
        g = generate(GenSpec("random_dag", 4096, density=2.0, seed=1))
        tracemalloc.start()
        try:
            hs = folklore(g, 16, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(hs) == 56_232
        assert peak <= 19 * 2**20, peak

    def test_statistical_three_d(self):
        hits = 0
        for seed in range(100):
            g = random_dag(128, 0.02, seed=seed)
            hs = folklore(g, 12, 2.0, seed=seed)
            assert hs.edges <= closure_pairs(g)
            if hop_diameter(g, hs.edges) <= 36:
                hits += 1
        assert hits >= 95, f"3D bound held in only {hits}/100 seeds"


class TestSmallDiam:
    def test_single_path_two_hops_left(self):
        g = path_graph(64)
        hs = shortcut_small_diam(g, 4, 3.0, seed=5)
        assert hop_diameter(g, hs.edges) <= 4
        # one chain covers everything, so plenty of path shortcuts
        assert hs.tag_counts["path_shortcut"] > 0

    def test_edgeless_empty(self):
        hs = shortcut_small_diam(Digraph(27, []), 3, 3.0, seed=1)
        assert len(hs) == 0

    def test_rejects_out_of_range_and_cyclic(self):
        with pytest.raises(ValueError):
            shortcut_small_diam(path_graph(64), 2, seed=0)
        with pytest.raises(ValueError):
            shortcut_small_diam(path_graph(64), small_diam_limit(64) + 1, seed=0)
        with pytest.raises(ValueError, match="cycle"):
            shortcut_small_diam(Digraph(3, [(0, 1), (1, 2), (2, 0)]), 3, seed=0)

    def test_chain_restricted_hops_le_2(self):
        # the per-chain shortcuts alone give 2-hop reach along each chain
        g = random_dag(125, 0.05, seed=17)
        d = 5
        hs = shortcut_small_diam(g, d, 3.0, seed=17)
        ell = min(g.n, -(-16 * g.n // d))
        chains = decompose(g, ell, transitive_closure(g)).chains
        edge_set = set(hs.edges)
        for chain in chains:
            on_chain = set(chain)
            sub = [
                (u, v) for u, v in edge_set if u in on_chain and v in on_chain
            ]
            relabel = {v: i for i, v in enumerate(sorted(on_chain))}
            sub_g = Digraph(len(on_chain), [(relabel[u], relabel[v]) for u, v in sub])
            hops = hop_counts(sub_g)
            for i, u in enumerate(chain):
                for v in chain[i + 1 :]:
                    assert hops[relabel[u], relabel[v]] <= 2

    def test_path_rows_within_size_bound(self):
        for seed in range(5):
            g = random_dag(125, 0.05, seed=seed)
            d = 5
            hs = shortcut_small_diam(g, d, 3.0, seed=seed)
            ell = min(g.n, -(-16 * g.n // d))
            chains = decompose(g, ell, transitive_closure(g)).chains
            assert chains
            bound = sum(len(c) - 1 + path_size_bound(len(c)) for c in chains)
            assert 0 < hs.tag_counts["path_shortcut"] <= bound

    def test_soundness_and_target_sample(self):
        reached = 0
        for seed in range(10):
            g = random_dag(216, 0.05, seed=seed)
            hs = shortcut_small_diam(g, 6, 3.0, seed=seed)
            assert hs.edges <= closure_pairs(g)
            if hop_diameter(g, hs.edges) <= 6:
                reached += 1
        assert reached >= 8


class TestLargeD:
    def test_empty_sample_gives_empty_set(self):
        hs = shortcut_large_d(path_graph(16), 256, 3.0, seed=0)
        assert len(hs) == 0

    def test_path_measured_constant(self):
        g = path_graph(512)
        hs = shortcut_large_d(g, 64, 3.0, seed=3)
        assert hs.edges <= closure_pairs(g)
        achieved = hop_diameter(g, hs.edges)
        # the contract promises O(D); report the measured multiple
        print(f"path n=512 D=64: achieved {achieved} = {achieved / 64:.2f} * D")
        assert achieved <= 8 * 64

    def test_rejects_small_targets(self):
        with pytest.raises(ValueError):
            shortcut_large_d(random_dag(512, 0.1, 1), 4, seed=0)

    def test_soundness_sample(self):
        for seed in range(5):
            g = random_dag(512, 0.1, seed=seed)
            hs = shortcut_large_d(g, 64, 3.0, seed=seed)
            assert hs.edges <= closure_pairs(g)
            assert hop_diameter(g, hs.edges) <= 4 * 64

    @pytest.mark.parametrize("power, k", [(3, 2), (4, 3)])
    def test_radius_rule_matches_the_search_loop(self, power, k):
        # The least r >= 1 with r^k * n >= x, for x = d^3 (shortcut_large_d,
        # k = 2) and x = beta^4 (hopset_large_hop, k = 3).  The loop is the
        # rule both used before they called ceil_root once.
        for n in range(1, 4097, 7):
            for d in range(1, 301):
                x = d**power
                r = max(1, floor_root(x // n, k))
                while r**k * n < x:
                    r += 1
                assert max(1, ceil_root(-(-x // n), k)) == r, (n, d)

    @given(st.integers(1, 5), st.integers(-3, 10**18), st.integers(0, 10**6), st.integers(-1, 1))
    @example(3, 27, 3, 0)  # 27 ** (1/3) is 3.0000000000000004
    def test_ceil_root_is_the_least_root(self, k, n, base, step):
        # the smallest t >= 0 with t^k >= x, at any x and next to exact powers
        for x in (n, base**k + step):
            t = ceil_root(x, k)
            assert t >= 0 and t**k >= x and (t == 0 or (t - 1) ** k < x), (x, k)

    def test_forward_ids_skip_condense(self, monkeypatch):
        # the condensation build_shortcuts hands over has forward ids, so
        # the acyclicity test must not run a second SCC pass on it
        g = generate(GenSpec("grid_dag", 400))
        want = shortcut_large_d(g, 20, 3.0, seed=5)

        def refuse(g):
            raise AssertionError("condense called on a forward-id graph")

        monkeypatch.setattr(graph_core, "condense", refuse)
        monkeypatch.setattr(shortcut_algos, "condense", refuse)
        check_acyclic(g)
        got = shortcut_large_d(g, 20, 3.0, seed=5)
        assert len(got) > 0 and got == want

    def test_rejects_cyclic_input(self):
        ring = Digraph(27, [(i, (i + 1) % 27) for i in range(27)])
        with pytest.raises(ValueError, match="^input must be acyclic; 0 and 1 lie on a cycle$"):
            shortcut_large_d(ring, 9, seed=0)


class TestBuildShortcuts:
    def test_small_route_end_to_end(self):
        g = random_dag(216, 0.05, seed=42)
        hs = build_shortcuts(g, 6, 3.0, seed=42)
        assert hs.edges <= closure_pairs(g)
        assert hop_diameter(g, hs.edges) <= 6

    def test_large_route_end_to_end(self):
        g = random_dag(512, 0.1, seed=43)
        hs = build_shortcuts(g, 64, 3.0, seed=43)
        assert hs.edges <= closure_pairs(g)
        assert hop_diameter(g, hs.edges) <= 4 * 64

    def test_cyclic_input_condenses(self):
        # two 5-cycles bridged into a path plus random DAG tail
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        edges += [(2, 7), (8, 10)] + [(10 + i, 11 + i) for i in range(20)]
        g = Digraph(31, edges)
        hs = build_shortcuts(g, 3, 3.0, seed=44)
        assert hs.tag_counts["lifted"] > 0
        base = transitive_closure(g).rows()
        union = Digraph(g.n, set(g.edges) | set(hs.edges))
        assert np.array_equal(transitive_closure(union).rows(), base)
        # every new pair must already be reachable
        assert hs.edges <= closure_pairs(g)

    @pytest.mark.parametrize(
        "g",
        [
            # 0-1-2 cycle -> 3 -> 4-5-6 cycle
            Digraph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]),
            generate(GenSpec("random_digraph", 60, p=0.025, seed=3)),
        ],
        ids=["two_cycles", "random_digraph"],
    )
    def test_lifted_set_bounds_and_diameter(self, g):
        # |H| <= |h+| + 2(n - #SCC), closure kept, and
        # diameter(g u H) <= 3 * diameter(dag u h+) + 4.
        cond = condense(g)
        h_plus = shortcut_small_diam(cond.dag, 3, seed=5)
        hs = build_shortcuts(g, 3, seed=5, mode="small")
        assert len(hs) <= len(h_plus) + 2 * (g.n - cond.dag.n)
        union = Digraph(g.n, set(g.edges) | set(hs.edges))
        assert np.array_equal(transitive_closure(union).rows(), transitive_closure(g).rows())
        assert hop_diameter(g, hs.edges) <= 3 * hop_diameter(cond.dag, h_plus.edges) + 4

    @pytest.mark.parametrize("n", [60, 150, 300])
    @pytest.mark.parametrize("density", [1.0, 1.5, 2.0])
    def test_cyclic_lifted_diameter_within_3h_plus_2(self, n, density):
        # h: the hop diameter of the condensation and its shortcuts, built
        # with the regime and seed that build_shortcuts picks.
        for seed in range(10):
            g = generate(GenSpec("random_digraph", n, density=density, seed=seed))
            dag = condense(g).dag
            for d in (3, 4, 8, 16):
                h = 0
                if dag.n > 1:
                    route = shortcut_small_diam if d <= small_diam_limit(dag.n) else shortcut_large_d
                    inner = route(dag, d, seed=seed)
                    h = verify_shortcut(dag, inner.array, d).achieved_diameter
                lifted = verify_shortcut(g, build_shortcuts(g, d, seed=seed).array, d)
                assert lifted.achieved_diameter <= 3 * h + 2, (seed, d, h)

    def test_rejects_tiny_diameter_and_bad_mode(self):
        with pytest.raises(ValueError):
            build_shortcuts(path_graph(8), 2, seed=0)
        with pytest.raises(ValueError):
            build_shortcuts(path_graph(8), 3, seed=0, mode="medium")

    def test_deterministic(self):
        g = random_dag(100, 0.08, seed=9)
        a = build_shortcuts(g, 4, 3.0, seed=77)
        b = build_shortcuts(g, 4, 3.0, seed=77)
        assert a.tagged == b.tagged


class TestTransitiveReduction:
    def test_diamond_drops_transitive_edge(self):
        g = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
        red = transitive_reduction(g)
        assert red.edges == frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})

    def test_total_order_becomes_hamiltonian_path(self):
        n = 6
        g = Digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        red = transitive_reduction(g)
        assert red.edges == frozenset((i, i + 1) for i in range(n - 1))

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
    def test_matches_float32_product(self, n):
        # Packed rows cross byte boundaries at 8 and 64; permuted ids and
        # forward ids, sparse to dense.
        for seed, p in enumerate((0.05, 0.2, 0.6, 1.0)):
            g = random_dag(n, p, seed=100 * n + seed)
            forward = Digraph(n, np.sort(g.array, axis=1))
            for dag in (g, forward):
                assert transitive_reduction(dag) == transitive_reduction_by_product(dag)

    def test_random_dags_match_float32_product(self):
        rng = np.random.default_rng(17)
        for seed in range(40):
            dag = random_dag(int(rng.integers(2, 90)), float(rng.uniform(0, 0.4)), seed=seed)
            assert transitive_reduction(dag) == transitive_reduction_by_product(dag)

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="1 and 2 lie on a cycle"):
            transitive_reduction(Digraph(4, [(0, 1), (1, 2), (2, 1), (2, 3)]))

    def test_preserves_closure(self):
        g = random_dag(40, 0.15, seed=4)
        red = transitive_reduction(g)
        assert closure_pairs(red) == closure_pairs(g)
        assert red.m <= g.m


class TestTcSpanner:
    def test_path_within_k(self):
        g = path_graph(33)
        union = tc_spanner(g, 4, 3.0, seed=2)
        assert isinstance(union, ShortcutSet) and union.n == g.n
        hops = hop_counts(union)
        for u, v in closure_pairs(g):
            assert hops[u, v] <= 4

    def test_complete_order_reduction_is_hamiltonian(self):
        n = 16
        g = Digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        union = tc_spanner(g, 3, 3.0, seed=6)
        ham = {(i, i + 1) for i in range(n - 1)}
        assert ham <= union.edges
        hops = hop_counts(union)
        for u, v in closure_pairs(g):
            assert hops[u, v] <= 3

    def test_random_dag_closure_equality_and_hops(self):
        g = random_dag(128, 0.06, seed=8)
        union = tc_spanner(g, 5, 3.0, seed=8)
        assert closure_pairs(union) == closure_pairs(g)
        hops = hop_counts(union)
        worst = max(hops[u, v] for u, v in closure_pairs(g))
        assert worst <= 5

    def test_cycle_chain_within_k_plus_2(self):
        # eight 4-cycles bridged through non-representative members
        k, rings = 4, 8
        edges = []
        for i in range(rings):
            base = 4 * i
            edges += [(base + j, base + (j + 1) % 4) for j in range(4)]
            if i + 1 < rings:
                edges.append((base + 2, base + 5))
        g = Digraph(4 * rings, edges)
        union = tc_spanner(g, k, 3.0, seed=5)
        assert closure_pairs(union) == closure_pairs(g)
        hops = hop_counts(union)
        for u, v in closure_pairs(g):
            limit = 2 if u // 4 == v // 4 else k + 2
            assert hops[u, v] <= limit

    @pytest.mark.parametrize(
        "g, k, seed",
        [
            (random_dag(96, 0.08, seed=3), 4, 3),
            (generate(GenSpec("random_digraph", 60, 0.025, None, None, 3)), 4, 1),
        ],
        ids=["dag", "cyclic"],
    )
    def test_union_and_backbone_tags(self, g, k, seed):
        got = tc_spanner(g, k, 3.0, seed=seed)
        base, h = tc_spanner_parts(g, k, 3.0, seed)
        assert Digraph(g.n, got.array) == Digraph(g.n, np.concatenate([base.array, h.array]))
        on_base = base.has_pairs(got.array)
        assert on_base.sum() == base.m and set(got.tags[on_base]) == {"baseline"}
        tag_of = {(u, v): t for u, v, t in h.tagged}
        assert all(tag_of[u, v] == t for (u, v, t), b in zip(got.tagged, on_base) if not b)
