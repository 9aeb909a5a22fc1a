"""Instance factories and the vertex-to-path subdivision transform."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from shortcutforge.generators import GenSpec, _edge_prob, generate, subdivide
from shortcutforge.graph_core import (
    Digraph,
    WeightedDigraph,
    check_acyclic,
    transitive_closure,
)


def layered_by_vertex(spec: GenSpec) -> Digraph:
    """generate's layered family before it drew one coin block per layer
    pair: one draw per left vertex and one tuple per edge."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    n = spec.n
    p = _edge_prob(spec, max(1.0, n / max(1, int(np.ceil(np.sqrt(n))))))
    layer_count = int(np.ceil(np.sqrt(n)))
    bounds = np.linspace(0, n, layer_count + 1).astype(int)
    edges = []
    for k in range(layer_count - 1):
        left = range(bounds[k], bounds[k + 1])
        right = range(bounds[k + 1], bounds[k + 2])
        for u in left:
            hits = rng.random(len(right)) < p
            edges.extend((u, bounds[k + 1] + int(t)) for t in np.flatnonzero(hits))
    return Digraph(n, edges)


class TestGenerate:
    def test_path_family(self):
        g = generate(GenSpec("path", 5))
        assert g.edges == frozenset((i, i + 1) for i in range(4))
        assert generate(GenSpec("path", 1)) == Digraph(1)

    def test_zero_probability_is_edgeless(self):
        g = generate(GenSpec("random_dag", 12, p=0.0, seed=4))
        assert g.m == 0

    def test_full_probability_is_complete_dag(self):
        g = generate(GenSpec("random_dag", 6, p=1.0, seed=4))
        assert g.m == 15
        check_acyclic(g)

    def test_random_dag_always_acyclic(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            spec = GenSpec(
                "random_dag",
                int(rng.integers(2, 80)),
                p=float(rng.uniform(0, 0.5)),
                seed=int(rng.integers(0, 10**6)),
            )
            check_acyclic(generate(spec))

    def test_weighted_range(self):
        g = generate(GenSpec("weighted_random", 30, p=0.3, W=7, seed=2))
        assert isinstance(g, WeightedDigraph)
        assert all(1 <= w <= 7 for _, _, w in g.edges)

    def test_density_translates_to_probability(self):
        g = generate(GenSpec("random_digraph", 100, density=3.0, seed=8))
        # about 3 outgoing edges per vertex
        assert 150 < g.m < 500

    def test_grid_and_layered_are_dags(self):
        check_acyclic(generate(GenSpec("grid_dag", 36)))
        check_acyclic(generate(GenSpec("layered", 50, p=0.4, seed=1)))

    def test_deterministic_under_seed(self):
        spec = GenSpec("random_digraph", 40, p=0.2, seed=31)
        assert generate(spec).edges == generate(spec).edges

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec("mystery", 5),
            GenSpec("random_dag", 0, p=0.5),
            GenSpec("random_dag", 5),  # needs p or density
            GenSpec("random_dag", 5, p=0.5, density=1.0),
            GenSpec("random_dag", 5, p=1.5),
            GenSpec("random_dag", 5, density=-1.0),
            GenSpec("random_dag", 5, density=float("nan")),  # would read as p = 1
            GenSpec("path", 5, p=0.5),
            GenSpec("weighted_random", 5, p=0.5),  # missing W
            GenSpec("random_dag", 5, p=0.5, W=3),  # W on unweighted family
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            generate(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec("random_dag", 10**6, p=1e-6),
            GenSpec("random_digraph", 10**6, p=1e-6),
            GenSpec("path", 10**6),
            GenSpec("layered", 10**6, p=1e-6),
            GenSpec("grid_dag", 10**6),
            GenSpec("weighted_random", 10**6, p=1e-6, W=5),
        ],
        ids=lambda spec: spec.family,
    )
    def test_vertex_ceiling_checked_before_any_array(self, spec):
        # Each family's arrays are O(n) or O(n^2) in n; at n = 10^6 the
        # quadratic ones would ask for hundreds of GiB.
        with pytest.raises(ValueError, match="^vertex count 1000000 exceeds the supported"):
            generate(spec)

    @pytest.mark.parametrize("family", ["random_dag", "random_digraph", "weighted_random"])
    def test_block_draws_equal_one_draw_over_all_pairs(self, family):
        # n = 1500 takes three blocks of rows; the one-shot draw is the
        # generator's former code.
        n, p, seed = 1500, 0.002, 5
        spec = GenSpec(family, n, p=p, W=7 if family == "weighted_random" else None, seed=seed)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        if family == "random_dag":
            perm = rng.permutation(n)
            idx = np.triu_indices(n, k=1)
            mask = rng.random(len(idx[0])) < p
            want = np.column_stack([perm[idx[0][mask]], perm[idx[1][mask]]])
        else:
            src, tgt = np.where(~np.eye(n, dtype=bool))
            mask = rng.random(len(src)) < p
            want = np.column_stack([src[mask], tgt[mask]])
            if family == "weighted_random":
                want = np.column_stack([want, rng.integers(1, 8, size=len(want))])
        assert generate(spec).edges == frozenset(map(tuple, want.tolist()))

    def test_layered_block_draws_equal_per_vertex_draws(self):
        specs = [
            GenSpec("layered", n, p=p, seed=seed)
            for n in [*range(1, 60), 300, 1000, 4096]
            for p in (0.0, 0.05, 0.3, 1.0)
            for seed in range(3)
        ]
        specs.append(GenSpec("layered", 500, density=2.5, seed=4))
        for spec in specs:
            assert generate(spec) == layered_by_vertex(spec), spec

    def test_all_pairs_draw_peak_memory(self):
        # One draw over all n(n-1) ordered pairs peaked at 400 MiB here.
        tracemalloc.start()
        try:
            g = generate(GenSpec("random_digraph", 4096, p=0.0005, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m > 0 and peak < 64 * 2**20


class TestSubdivide:
    def test_single_edge_k1(self):
        g = Digraph(2, [(0, 1)])
        gk, placement = subdivide(g, 1)
        assert gk.n == 4
        assert gk.edges == frozenset({(0, 1), (2, 3), (1, 2)})
        assert placement == {0: (0, 1), 1: (2, 3)}

    def test_path_stays_a_path(self):
        d, k = 6, 3
        g = Digraph(d + 1, [(i, i + 1) for i in range(d)])
        gk, placement = subdivide(g, k)
        assert gk.n == (d + 1) * (k + 1)
        assert gk.m == (k + 1) * (d + 1) - 1
        # endpoint distance spans every edge of the unique chain
        reach = transitive_closure(gk).rows()
        head0 = placement[0][0]
        tail_last = placement[d][1]
        assert reach[head0, tail_last]
        assert all(deg <= 1 for deg in np.bincount([u for u, _ in gk.edges]))

    def test_vertex_count_scales(self):
        rng = np.random.default_rng(9)
        for k in (1, 2, 5):
            n = int(rng.integers(2, 40))
            g = generate(GenSpec("random_dag", n, p=0.2, seed=int(rng.integers(10**6))))
            gk, _ = subdivide(g, k)
            assert gk.n == n * (k + 1)

    def test_reachability_preserved_both_ways(self):
        g = generate(GenSpec("random_dag", 32, p=0.12, seed=3))
        gk, placement = subdivide(g, 3)
        base = transitive_closure(g).rows()
        lifted = transitive_closure(gk).rows()
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                head_u = placement[u][0]
                tail_v = placement[v][1]
                assert base[u, v] == lifted[head_u, tail_v]

    def test_scaled_paths_satisfy_checker(self):
        d, k = 5, 4
        g = Digraph(d + 1, [(i, i + 1) for i in range(d)])
        gk, placement = subdivide(g, k)
        full_path = []
        for v in range(d + 1):
            head, tail = placement[v]
            full_path.extend(range(head, tail + 1))
        full = np.array(full_path)
        assert gk.has_pairs(np.column_stack([full[:-1], full[1:]])).all()
        assert len(np.unique(full)) == len(full)
        assert len(full) - 1 >= k * d

    def test_vertex_ceiling_checked_before_any_array(self):
        path = Digraph(10, [(i, i + 1) for i in range(9)])
        with pytest.raises(ValueError, match="^vertex count 10000000000010 exceeds the supported"):
            subdivide(path, 10**12)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            subdivide(Digraph(2, [(0, 1)]), 0)
