"""Hopset constructions: nice paths, partitions, ladders, both hop regimes."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from references import ladder_size_limit, nice_collection, verify_nice
from shortcutforge import hopset_algos
from shortcutforge._intmath import ceil_root
from shortcutforge._seeds import (
    SITE_GROUP_SAMPLE,
    SITE_VERTEX_SAMPLE,
    child_seed,
    sample_mask,
    site_rng,
)
from shortcutforge.generators import GenSpec, generate
from shortcutforge.graph_core import (
    WeightedDigraph,
    apsp,
    apsp_hops,
    hop_limited_dist,
)
from shortcutforge.hopset_algos import (
    MIN_HOPBOUND,
    HopsetEdges,
    _extract_nice_paths,
    as_eps,
    build_hopset,
    geometric_ladder,
    hopset_large_hop,
    hopset_small_hop,
    partition_subpaths,
)
from shortcutforge.oracles import verify_hopset

EPS14 = Fraction(1, 4)


def unit_path(n: int) -> WeightedDigraph:
    return WeightedDigraph(n, [(i, i + 1, 1) for i in range(n - 1)])


def random_weighted(n: int, p: float, w_max: int, seed: int) -> WeightedDigraph:
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    pairs = np.argwhere(mask)
    ws = rng.integers(1, w_max + 1, size=len(pairs))
    return WeightedDigraph(
        n, ((int(u), int(v), int(w)) for (u, v), w in zip(pairs, ws))
    )


def weighted_grid(n: int, w_max: int, seed: int) -> WeightedDigraph:
    """grid_dag with seeded weights in [1, w_max]."""
    grid = generate(GenSpec("grid_dag", n)).array
    ws = np.random.default_rng(seed).integers(1, w_max + 1, size=len(grid))
    return WeightedDigraph(n, np.column_stack([grid, ws]))


def union_with(g: WeightedDigraph, h: HopsetEdges) -> WeightedDigraph:
    """G ∪ H keeping each pair's least weight."""
    least: dict[tuple[int, int], int] = {}
    for u, v, w in [*g.array.tolist(), *h.array.tolist()]:
        least[u, v] = min(w, least.get((u, v), w))
    return WeightedDigraph(g.n, [(u, v, w) for (u, v), w in least.items()])


class TestEps:
    def test_string_and_fraction_accepted(self):
        assert as_eps("1/4") == EPS14
        assert as_eps(Fraction(2, 8)) == EPS14

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_eps(0.25)

    @pytest.mark.parametrize("bad", ["0", "1", "5/4", "-1/2", "1/0"])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            as_eps(bad)


class TestHopsetEdges:
    def test_dedupe_first_wins(self):
        h = HopsetEdges(3, [(0, 1, 5), (0, 1, 7)], ["induced_closure", "geometric_ladder"])
        assert h.tagged == ((0, 1, 5, "induced_closure"),)

    @pytest.mark.parametrize(
        "row",
        [
            ((0, 0, 1), "induced_closure"),
            ((0, 1, 0), "induced_closure"),
            ((0, 1, 1), "nope"),
            ((0, 1, 1), "recursive"),
        ],
    )
    def test_rejects_bad_rows(self, row):
        with pytest.raises(ValueError):
            HopsetEdges(2, [row[0]], row[1])


class TestNiceCollection:
    def test_rejects_small_beta(self):
        with pytest.raises(ValueError):
            nice_collection(unit_path(10), 11)

    def test_unit_path_pairs_off_in_triples(self):
        paths, weights = nice_collection(unit_path(25), 24)
        assert {len(p) - 1 for p in paths} == {2}
        assert paths == [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(8)]
        assert all(ws == (1, 1) for ws in weights)
        assert [sum(ws) for ws in weights] == [2] * 8

    def test_direct_edges_beat_detours_gives_empty(self):
        # all-ones complete DAG: every 2-hop route costs 2 > 1
        n = 10
        g = WeightedDigraph(
            n, [(i, j, 1) for i in range(n) for j in range(i + 1, n)]
        )
        assert nice_collection(g, 24) == ([], [])

    def test_random_instances_verify(self):
        for seed in range(8):
            g = random_weighted(40, 0.12, 8, seed)
            rep = verify_nice(g, *nice_collection(g, 24), 24)
            assert rep.ok, rep.failures()

    def test_paths_are_vertex_disjoint(self):
        g = random_weighted(50, 0.1, 9, 123)
        paths, _ = nice_collection(g, 36)
        seen: set[int] = set()
        for p in paths:
            assert not (seen & set(p))
            seen.update(p)


class TestExtractCost:
    """At h >= 2 one most-hops kernel call per extraction, and each re-check
    a chain DP on its interval; at h = 1 neither runs."""

    @staticmethod
    def spy(monkeypatch) -> tuple[list[int], list[bool]]:
        """Sizes of the intervals the chain DP runs on, and each kernel call's ``most``."""
        sizes: list[int] = []
        kernels: list[bool] = []
        real_dp, real_kernel = hopset_algos._chain_lengths, hopset_algos.apsp_hops

        def dp(sub, end):
            sizes.append(len(sub))
            return real_dp(sub, end)

        def kernel(g, most=False):
            kernels.append(most)
            return real_kernel(g, most)

        monkeypatch.setattr(hopset_algos, "_chain_lengths", dp)
        monkeypatch.setattr(hopset_algos, "apsp_hops", kernel)
        return sizes, kernels

    def test_unit_path_one_kernel_call(self, monkeypatch):
        sizes, kernels = self.spy(monkeypatch)
        assert len(nice_collection(unit_path(25), 24)[0]) == 8
        # one kernel call, then one DP per path on its interval {3i, 3i+1, 3i+2}
        assert kernels == [True] and sizes == [3] * 8

    @pytest.mark.parametrize("beta", [24, 36, 48])
    def test_dp_runs_on_intervals(self, monkeypatch, beta):
        sizes, kernels = self.spy(monkeypatch)
        assert len(nice_collection(weighted_grid(100, 3, 7), beta)[0]) >= 2
        assert kernels == [True]
        # every re-check runs on a shortest-path interval, not the residual graph
        assert sizes and max(sizes) < 50

    @pytest.mark.parametrize(
        "build",
        [
            lambda g, beta: nice_collection(g, beta)[0],
            lambda g, beta: hopset_small_hop(g, beta, EPS14, seed=1),
        ],
        ids=["nice_collection", "hopset_small_hop"],
    )
    def test_one_hop_runs_no_kernel_and_no_dp(self, monkeypatch, build):
        sizes, kernels = self.spy(monkeypatch)
        assert len(build(weighted_grid(100, 3, 7), 12))
        assert kernels == [] and sizes == []

    def test_large_hop_one_fewest_hops_call(self, monkeypatch):
        sizes, kernels = self.spy(monkeypatch)
        g = random_weighted(80, 0.08, 9, 3)
        assert len(hopset_large_hop(g, 12, EPS14, seed=1))
        # the inner small-hop build runs at h = 1
        assert kernels == [False] and sizes == []

    @pytest.mark.parametrize(
        "g, beta",
        [
            (WeightedDigraph(0, []), 24),
            (unit_path(3), 36),  # 3 hops need 4 vertices
            (unit_path(4), 60),
        ],
    )
    def test_too_few_vertices_is_empty_without_dp(self, monkeypatch, g, beta):
        sizes, _ = self.spy(monkeypatch)
        assert _extract_nice_paths(*apsp_hops(g, most=True), beta) == ([], [])
        assert sizes == []

    @pytest.mark.parametrize(
        "g",
        [
            WeightedDigraph(6, []),
            # all-ones complete DAG: every 2-hop route costs 2 > 1
            WeightedDigraph(8, [(i, j, 1) for i in range(8) for j in range(i + 1, 8)]),
        ],
    )
    def test_no_candidate_pair_is_empty_without_dp(self, monkeypatch, g):
        sizes, _ = self.spy(monkeypatch)
        assert _extract_nice_paths(*apsp_hops(g, most=True), 24) == ([], [])
        assert sizes == []


class TestPartition:
    def test_two_unit_edges_split_at_half(self):
        g = unit_path(25)
        paths, weights = nice_collection(g, 24)  # paths of weights (1, 1)
        parts = partition_subpaths(paths, weights, "1/2")
        first = parts[0]
        assert first == ((0, 1), (2,))

    def test_one_tuple_of_pieces_per_path(self):
        paths, weights = nice_collection(random_weighted(48, 0.12, 7, 3), 36)
        parts = partition_subpaths(paths, weights, EPS14)
        assert type(parts) is tuple and len(parts) == len(paths) > 0
        for pieces in parts:
            assert type(pieces) is tuple and all(type(p) is tuple for p in pieces)
        empty = nice_collection(WeightedDigraph(3, []), 36)
        assert partition_subpaths(*empty, EPS14) == ()

    def test_piece_budget(self):
        for seed in range(6):
            g = random_weighted(48, 0.12, 7, seed)
            paths, weights = nice_collection(g, 36)
            for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
                parts = partition_subpaths(paths, weights, eps)
                limit = -(-2 * eps.denominator // eps.numerator) + 1
                for path, pieces in zip(paths, parts):
                    assert 1 <= len(pieces) <= limit
                    # pieces are contiguous runs covering the path
                    assert tuple(v for piece in pieces for v in piece) == path

    def test_piece_weight_within_budget(self):
        g = random_weighted(48, 0.15, 9, 11)
        paths, weights = nice_collection(g, 24)
        parts = partition_subpaths(paths, weights, EPS14)
        for verts, ws, pieces in zip(paths, weights, parts):
            total = sum(ws)
            offsets = {v: i for i, v in enumerate(verts)}
            for piece in pieces:
                s, t = offsets[piece[0]], offsets[piece[-1]]
                assert sum(ws[s:t]) * 4 <= total


def ladder_rows(arr: np.ndarray) -> list[tuple[int, int, int]]:
    assert arr.dtype == np.int64 and arr.shape[1:] == (3,)
    return [tuple(r) for r in arr.tolist()]


class TestLadder:
    def test_ladder_on_unit_path(self):
        g = unit_path(20)
        dist = apsp(g)
        rungs = geometric_ladder(dist, [0], [list(range(1, 20))], "1/2")
        # first hit 1, then strict (3/2)-factor drops while scanning forward,
        # and distances only grow forward, so just the first vertex remains
        assert ladder_rows(rungs) == [(0, 1, 1)]

    def test_reverse_order_probes_descend(self):
        g = unit_path(20)
        dist = apsp(g)
        rungs = geometric_ladder(dist, [0], [list(range(19, 0, -1))], "1/2")
        dists = rungs[:, 2].tolist()
        assert dists[0] == 19
        for a, b in zip(dists, dists[1:]):
            assert 3 * b < 2 * a

    def test_unreachable_vertices_skipped(self):
        g = WeightedDigraph(4, [(0, 1, 2)])
        dist = apsp(g)
        assert ladder_rows(geometric_ladder(dist, [0], [[3, 2, 1]], EPS14)) == [(0, 1, 2)]
        assert ladder_rows(geometric_ladder(dist, [2], [[0, 1, 3]], EPS14)) == []
        assert ladder_rows(geometric_ladder(dist, [0, 2], [[3, 2, 1], [0, 1, 3]], EPS14)) == [
            (0, 1, 2),
            (0, 1, 2),
        ]

    def test_size_bound(self):
        for seed in range(5):
            g = random_weighted(40, 0.25, 12, seed)
            dist = apsp(g)
            limit = ladder_size_limit(40, 12, EPS14)
            order = list(np.random.default_rng(seed).permutation(40))
            rungs = geometric_ladder(dist, range(40), [order], EPS14)
            counts = np.bincount(rungs[:, 0], minlength=40)
            assert counts.any() and counts.max() <= limit

    def test_limit_matches_log(self):
        # ceil(log_1.25(2000)) = 35
        assert ladder_size_limit(100, 20, EPS14) == 35 + 1

    def test_construction_ladders_within_limit(self, monkeypatch):
        # every (source, subpath) ladder hopset_small_hop asks for stays
        # within the bound for the eps/2 it runs with
        calls = []
        real = hopset_algos.geometric_ladder

        def spy(dist, sources, subpaths, eps):
            out = real(dist, sources, subpaths, eps)
            calls.append((list(subpaths), eps, out))
            return out

        monkeypatch.setattr(hopset_algos, "geometric_ladder", spy)
        longest = 0
        for seed in range(6):
            for n, beta, w_max in ((60, 12, 15), (80, 24, 10**6)):
                g = random_weighted(n, 0.1, w_max, seed)
                calls.clear()
                hopset_small_hop(g, beta, EPS14, seed=seed)
                assert len(calls) == 1
                subpaths, eps, rungs = calls[0]
                assert eps == EPS14 / 2
                piece = {u: i for i, sp in enumerate(subpaths) for u in sp}
                keys = [(v, piece[u]) for v, u, _ in rungs.tolist()]
                sizes = np.unique(np.array(keys).reshape(-1, 2), axis=0, return_counts=True)[1]
                limit = ladder_size_limit(n, g.max_weight, eps)
                assert sizes.max(initial=0) <= limit
                longest = max(longest, int(sizes.max(initial=0)))
        assert longest >= 2


class TestSmallHop:
    def test_trivial_single_vertex(self):
        h = hopset_small_hop(WeightedDigraph(1, []), 12, EPS14, seed=0)
        assert len(h) == 0

    def test_rejects_small_beta(self):
        with pytest.raises(ValueError):
            hopset_small_hop(unit_path(10), 6, EPS14, seed=0)

    def test_path_sandwich_is_exact(self):
        # sampling probability saturates at 1, so the result is seed-free
        g = unit_path(300)
        h = hopset_small_hop(g, 12, EPS14, 3.0, seed=99)
        dist = apsp(g)
        capped = hop_limited_dist(union_with(g, h), 12)
        finite = np.isfinite(dist)
        assert np.array_equal(capped[finite], dist[finite])

    def test_seed_free_when_probability_saturates(self):
        g = unit_path(60)
        a = hopset_small_hop(g, 12, EPS14, 3.0, seed=1)
        b = hopset_small_hop(g, 12, EPS14, 3.0, seed=2)
        assert a.tagged == b.tagged

    def test_weights_always_exact(self):
        for seed in range(6):
            g = random_weighted(60, 0.1, 15, seed)
            h = hopset_small_hop(g, 12, EPS14, seed=seed)
            dist = apsp(g)
            for u, v, w, _ in h.tagged:
                assert w == dist[u, v]

    def test_induced_closure_joins_path_pairs(self):
        for seed in range(4):
            g = random_weighted(80, 0.08, 10, seed)
            h = hopset_small_hop(g, 24, EPS14, seed=seed)
            paths, _ = nice_collection(g, 24)
            dist = apsp(g)
            edge_set = {(u, v) for u, v, _, _ in h.tagged}
            for path in paths:
                for a in path:
                    for b in path:
                        if a != b and np.isfinite(dist[a, b]):
                            assert (a, b) in edge_set

    def test_statistical_sample(self):
        good = 0
        for seed in range(10):
            g = random_weighted(120, 0.08, 50, seed)
            h = hopset_small_hop(g, 12, EPS14, 3.0, seed=seed)
            good += verify_hopset(g, h, 12, EPS14).ok
        assert good >= 9


class TestLargeHop:
    @staticmethod
    def spy(monkeypatch) -> dict[str, list]:
        """The vertex count of each kernel and container call, by callee."""
        calls: dict[str, list] = {
            name: [] for name in ("apsp_hops", "apsp", "WeightedDigraph", "HopsetEdges")
        }

        def wrap(name):
            real = getattr(hopset_algos, name)

            def spied(*args, **kwargs):
                calls[name].append(args[0] if isinstance(args[0], int) else args[0].n)
                return real(*args, **kwargs)

            monkeypatch.setattr(hopset_algos, name, spied)

        for name in calls:
            wrap(name)
        return calls

    def test_full_sample_reuses_g_distances(self, monkeypatch):
        calls = self.spy(monkeypatch)
        g = random_weighted(80, 0.08, 9, 3)  # c = 3 samples all 80 vertices
        assert len(hopset_large_hop(g, 12, EPS14, seed=1))
        assert calls == {
            "apsp_hops": [80], "apsp": [], "WeightedDigraph": [], "HopsetEdges": [80]
        }

    def test_partial_sample_builds_kept_pair_graph(self, monkeypatch):
        calls = self.spy(monkeypatch)
        g = random_weighted(120, 0.05, 9, 3)
        assert len(hopset_large_hop(g, 40, EPS14, 1.0, seed=1))  # samples 21 of 120
        assert calls == {
            "apsp_hops": [120], "apsp": [21], "WeightedDigraph": [21], "HopsetEdges": [120]
        }

    def test_rejects_low_beta(self):
        with pytest.raises(ValueError):
            hopset_large_hop(unit_path(10), 11, EPS14, seed=0)

    def test_unit_path_exact_at_budget(self):
        g = unit_path(625)
        h = hopset_large_hop(g, 125, EPS14, 3.0, seed=1)
        rep = verify_hopset(g, h, 125, EPS14)
        assert rep.ok, rep.failures()
        assert rep.achieved_stretch == 1

    def test_recursive_weights_exact(self):
        g = random_weighted(400, 0.03, 20, 7)
        h = hopset_large_hop(g, 80, EPS14, seed=7)
        dist = apsp(g)
        for u, v, w, _ in h.tagged:
            assert w == dist[u, v]
        counts = h.tag_counts
        assert counts["induced_closure"] > 0 and counts["geometric_ladder"] > 0
        assert sum(counts.values()) == len(h)


class TestBuildHopset:
    def test_dispatches_to_large(self):
        g = unit_path(625)
        via_build = build_hopset(g, 125, EPS14, 3.0, seed=5)
        direct = hopset_large_hop(g, 125, EPS14, 3.0, seed=5)
        assert via_build.tagged == direct.tagged

    def test_small_dispatch_needs_huge_n(self):
        # the small route runs when beta <= ceil(n^(1/4)); with the minimum
        # budget of 12 that means n >= 12^4, past the vertex cap, so every
        # desk-scale build takes the large route
        g = random_weighted(60, 0.1, 9, 3)
        via_build = build_hopset(g, 12, EPS14, seed=3)
        direct = hopset_large_hop(g, 12, EPS14, seed=3)
        assert via_build.tagged == direct.tagged

    def test_rejects_low_beta(self):
        with pytest.raises(ValueError):
            build_hopset(unit_path(16), 4, EPS14, seed=0)

    def test_end_to_end_three_seeds(self):
        for seed in (0, 1, 2):
            g = random_weighted(90, 0.09, 12, seed)
            h = build_hopset(g, 12, EPS14, 3.0, seed=seed)
            rep = verify_hopset(g, h, 12, EPS14)
            names = {c.name: c.status for c in rep.checks}
            assert names["weight_exactness"] == "pass"
            assert names["lower_side_exact"] == "pass"


# ---------------------------------------------------------------------------
# Per-row references: the per-vertex ladder and the tuple-row small-hop
# construction, kept verbatim from before both were batched.


def _reference_ladder(
    dist: np.ndarray, v: int, p: Sequence[int], eps: Fraction | str
) -> tuple[tuple[int, int, int], ...]:
    """Edges from v into p: the first reachable vertex, then each (1+eps) drop."""
    frac = as_eps(eps)
    num, den = frac.numerator, frac.denominator
    out: list[tuple[int, int, int]] = []
    cur: int | None = None
    for u in p:
        u = int(u)
        if u == v:
            continue
        d = dist[v, u]
        if not np.isfinite(d):
            continue
        d = int(d)
        if cur is None or (den + num) * d < den * cur:
            out.append((v, u, d))
            cur = d
    return tuple(out)


def _reference_small_hop(
    g: WeightedDigraph,
    beta: int,
    eps: Fraction | str,
    c: float = 3.0,
    *,
    seed: int,
) -> HopsetEdges:
    frac = as_eps(eps)
    if beta < MIN_HOPBOUND:
        raise ValueError(f"hop budget must be >= {MIN_HOPBOUND}, got {beta}")
    n = g.n
    if n <= 1:
        return HopsetEdges(n, (), ())

    half = frac / 2
    dist = apsp(g)
    paths, weights = _extract_nice_paths(dist, apsp_hops(g, most=True)[1], beta)

    rows: list[tuple[int, int, int, str]] = []
    for verts in paths:
        for a in verts:
            for b in verts:
                if a != b and np.isfinite(dist[a, b]):
                    rows.append((a, b, int(dist[a, b]), "induced_closure"))

    subpaths = [piece for pieces in partition_subpaths(paths, weights, half) for piece in pieces]
    p_samp = min(1.0, c * math.log(n) / beta)
    v_mask = sample_mask(seed, SITE_VERTEX_SAMPLE, n, p_samp)
    s_mask = sample_mask(seed, SITE_GROUP_SAMPLE, len(subpaths), p_samp)
    picked = [sp for sp, hit in zip(subpaths, s_mask) if hit]
    for v in map(int, np.flatnonzero(v_mask)):
        for sp in picked:
            for src, tgt, wt in _reference_ladder(dist, v, sp, half):
                rows.append((src, tgt, wt, "geometric_ladder"))
    return HopsetEdges(n, [r[:3] for r in rows], [r[3] for r in rows])


# eps = 1/2^61 with weights up to 10^6 puts (1+eps)*dist past 2^63, and
# 1/2^64 has a denominator past it.
EPS_CHOICES = st.sampled_from(
    [
        Fraction(1, 2),
        EPS14,
        Fraction(3, 7),
        Fraction(1, 2**61),
        Fraction(2**61 - 1, 2**61),
        Fraction(1, 2**64),
    ]
)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    p=st.floats(min_value=0.02, max_value=0.4),
    w_max=st.sampled_from([1, 9, 10**6]),
    beta=st.sampled_from([12, 24, 36]),
    eps=EPS_CHOICES,
    c=st.sampled_from([1.0, 3.0]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_small_hop_matches_per_row_reference(n, p, w_max, beta, eps, c, seed):
    g = random_weighted(n, p, w_max, seed)
    got = hopset_small_hop(g, beta, eps, c, seed=seed)
    want = _reference_small_hop(g, beta, eps, c, seed=seed)
    assert got.tagged == want.tagged
    assert got == want


def _reference_large_hop(
    g: WeightedDigraph,
    beta: int,
    eps: Fraction | str,
    c: float = 3.0,
    *,
    seed: int,
) -> HopsetEdges:
    """The large-hop construction as it was before the hop-counting
    Dijkstra: a sampled pair is kept when ``hop_limited_dist`` at radius r
    already meets ``apsp``."""
    frac = as_eps(eps)
    n = g.n
    if n <= 1:
        return HopsetEdges(n, (), ())

    size = min(n, math.ceil(c * (n / beta) ** (4.0 / 3.0) * math.log(n)))
    rng = site_rng(seed, SITE_VERTEX_SAMPLE)
    sampled = np.sort(rng.choice(n, size=size, replace=False))
    if len(sampled) <= 1:
        return HopsetEdges(n, (), ())

    r = max(1, ceil_root(-(-(beta**4) // n), 3))
    full = apsp(g)
    capped = hop_limited_dist(g, r)
    ix = np.ix_(sampled, sampled)
    keep = np.isfinite(full[ix]) & (capped[ix] == full[ix])
    np.fill_diagonal(keep, False)
    sub_w = full[ix][keep].astype(np.int64)
    sub = WeightedDigraph(len(sampled), np.column_stack([np.argwhere(keep), sub_w]))

    beta_sub = max(MIN_HOPBOUND, int(len(sampled) ** 0.25 / math.log(n)))
    inner = hopset_small_hop(sub, beta_sub, frac, c, seed=child_seed(seed))
    a, b = sampled[inner.array[:, :2].T]
    rows = np.column_stack([a, b, full[a, b].astype(np.int64)])
    return HopsetEdges(n, rows, inner.tags)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=60),
    # sparse graphs have pairs whose fewest hops are exactly the radius r
    p=st.sampled_from([0.0, 0.02, 0.03, 0.05, 0.1, 0.3]),
    w_max=st.sampled_from([1, 2, 9, 10**6]),
    beta=st.sampled_from([12, 16, 24, 48]),
    eps=EPS_CHOICES,
    c=st.sampled_from([1.0, 3.0, 8.0]),
    seed=st.integers(min_value=0, max_value=10**6),
)
@example(n=1, p=0.0, w_max=1, beta=12, eps=EPS14, c=3.0, seed=0)
@example(n=40, p=0.1, w_max=1, beta=12, eps=EPS14, c=8.0, seed=1)  # all weights 1: ties
# a kept pair at exactly r = 8 hops whose path runs through unsampled vertices
@example(n=45, p=0.03, w_max=1, beta=12, eps=EPS14, c=1.0, seed=4)
# full sample (all 60 vertices), large weights: the inner build reads G's distances
@example(n=60, p=0.05, w_max=10**6, beta=16, eps=Fraction(3, 7), c=3.0, seed=7)
# partial sample (14 of 60), both tags: the inner build runs on the kept-pair graph
@example(n=60, p=0.1, w_max=9, beta=24, eps=EPS14, c=1.0, seed=11)
def test_large_hop_matches_hop_dp_reference(n, p, w_max, beta, eps, c, seed):
    g = random_weighted(n, p, w_max, seed)
    got = hopset_large_hop(g, beta, eps, c, seed=seed)
    want = _reference_large_hop(g, beta, eps, c, seed=seed)
    assert got.tagged == want.tagged
    assert got == want


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    p=st.floats(min_value=0.0, max_value=0.5),
    w_max=st.sampled_from([1, 9, 10**6]),
    eps=EPS_CHOICES,
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_ladder_matches_per_vertex_reference(n, p, w_max, eps, seed, data):
    dist = apsp(random_weighted(n, p, w_max, seed))
    vertex = st.integers(min_value=0, max_value=n - 1)
    sources = data.draw(st.lists(vertex, max_size=8))
    subpaths = data.draw(st.lists(st.lists(vertex, min_size=1, max_size=6), max_size=6))
    got = geometric_ladder(dist, sources, subpaths, eps)
    want = [row for v in sources for sp in subpaths for row in _reference_ladder(dist, v, sp, eps)]
    assert ladder_rows(got) == want


# ---------------------------------------------------------------------------
# Nice-path extraction: the per-path loop that recomputed the h-hop powers of
# the whole residual matrix for every extracted path, kept verbatim (with its
# min-plus helper) from before extraction became one powers pass plus
# interval re-checks.


def _reference_min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    step = max(1, 4_000_000 // max(1, a.shape[1] ** 2))
    for lo in range(0, a.shape[0], step):
        out[lo : lo + step] = (a[lo : lo + step, :, None] + b[None, :, :]).min(axis=1)
    return out


def _reference_extract_nice_paths(
    dist: np.ndarray, beta: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    h = beta // MIN_HOPBOUND
    base = dist.copy()
    np.fill_diagonal(base, np.inf)

    alive = np.ones(len(dist), dtype=bool)
    paths: list[tuple[int, ...]] = []
    weights: list[tuple[int, ...]] = []
    while True:
        ids = np.flatnonzero(alive)
        if ids.size < h + 1:
            break
        sub = base[np.ix_(ids, ids)]
        powers = [sub]
        for _ in range(h - 1):
            powers.append(_reference_min_plus(powers[-1], sub))
        # A pair qualifies when some shortest path between it has exactly h
        # hops, i.e. the h-hop minimum meets the distance itself.
        cand = np.isfinite(sub) & (powers[-1] == sub)
        if not cand.any():
            break
        scores = np.where(cand, sub, np.inf)
        flat = int(np.argmin(scores))  # first minimum = lexicographic (i, j)
        i, j = divmod(flat, ids.size)

        seq = [i]
        cur = i
        for level in range(h, 1, -1):
            targets = sub[cur] + powers[level - 2][:, j]
            wanted = powers[level - 1][cur, j]
            nxt = int(np.flatnonzero(targets == wanted)[0])
            seq.append(nxt)
            cur = nxt
        seq.append(j)
        assert len(set(seq)) == h + 1, "shortest-path walk revisited a vertex"

        verts = tuple(int(ids[s]) for s in seq)
        paths.append(verts)
        weights.append(tuple(int(sub[a, b]) for a, b in zip(seq, seq[1:])))
        alive[list(verts)] = False
    return paths, weights


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["random", "grid"]),
    n=st.integers(min_value=0, max_value=40),
    p=st.floats(min_value=0.02, max_value=0.5),
    w_max=st.sampled_from([1, 3, 10**6]),
    beta=st.sampled_from([12, 24, 36, 48]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_nice_paths_match_per_path_reference(family, n, p, w_max, beta, seed):
    if family == "grid" and n:
        g = weighted_grid(n, w_max, seed)
    else:
        g = random_weighted(n, p, w_max, seed)
    dist, most_hops = apsp_hops(g, most=True)
    assert _extract_nice_paths(dist, most_hops, beta) == _reference_extract_nice_paths(dist, beta)
