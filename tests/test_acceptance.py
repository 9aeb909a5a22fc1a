"""Acceptance suite: eleven checks covering soundness, size bounds, decomposition
invariants, statistical diameter/stretch targets, the vertex-split transform,
end-to-end determinism, and a hop-deep hopset that the empty set cannot pass.
Each test prints one pass/fail line."""

from __future__ import annotations

import statistics
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from references import nice_collection, verify_nice, weighted_closure
from shortcutforge.chain_decomp import decompose
from shortcutforge.cli import main
from shortcutforge.generators import GenSpec, generate, subdivide
from shortcutforge.graph_core import (
    Digraph,
    WeightedDigraph,
    transitive_closure,
)
from shortcutforge.hopset_algos import (
    build_hopset,
    hopset_large_hop,
    hopset_small_hop,
)
from shortcutforge.line_shortcut import shortcut_path
from shortcutforge.oracles import (
    verify_hopset,
    verify_shortcut,
)
from shortcutforge.shortcut_algos import build_shortcuts, folklore

EPS = Fraction(1, 4)


def emit(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'pass' if ok else 'FAIL'} ({detail})")


def check_status(report, name: str) -> str:
    return next(c.status for c in report.checks if c.name == name)


def test_criterion_01_soundness_suite():
    t0 = time.perf_counter()
    shortcut_cases = [
        (GenSpec("random_dag", 512, p=0.02, seed=1), 8, "auto"),
        (GenSpec("random_dag", 512, p=0.1, seed=2), 64, "auto"),
        (GenSpec("random_digraph", 200, p=0.03, seed=3), 6, "auto"),
    ]
    bad = []
    for spec, d, mode in shortcut_cases:
        g = generate(spec)
        hs = build_shortcuts(g, d, seed=spec.seed, mode=mode)
        rep = verify_shortcut(g, hs, d)
        for name in ("closure_membership", "closure_preserved"):
            if check_status(rep, name) != "pass":
                bad.append((spec.family, spec.n, name))
    g = generate(GenSpec("random_dag", 128, p=0.05, seed=4))
    rep = verify_shortcut(g, folklore(g, 8, seed=4), 8)
    for name in ("closure_membership", "closure_preserved"):
        if check_status(rep, name) != "pass":
            bad.append(("folklore", 128, name))
    hopset_cases = [
        GenSpec("weighted_random", 150, p=0.05, W=30, seed=5),
        GenSpec("weighted_random", 120, p=0.08, W=50, seed=6),
    ]
    for spec in hopset_cases:
        g = generate(spec)
        h = build_hopset(g, 12, EPS, seed=spec.seed)
        rep = verify_hopset(g, h, 12, EPS)
        for name in ("weight_exactness", "lower_side_exact"):
            if check_status(rep, name) != "pass":
                bad.append((spec.family, spec.n, name))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    emit(1, ok, f"6 instances, exact membership/weights/distances, {elapsed:.1f}s")
    assert not bad, f"soundness check failures: {bad}"
    assert elapsed < 30.0, f"soundness suite took {elapsed:.1f}s"


def test_criterion_02_path_shortcut_bounds():
    rng = np.random.default_rng(20240214)
    sizes = sorted(int(s) for s in rng.choice(np.arange(1, 1025), 50, replace=False))
    bad = []
    for s in sizes:
        ps = shortcut_path(range(s))
        bound = s * (s - 1).bit_length() if s > 1 else 0
        if len(ps.edges) > bound:
            bad.append((s, "size"))
            continue
        succ = [0] * s
        for i in range(s - 1):
            succ[i] |= 1 << (i + 1)
        for u, v in ps.edges:
            succ[u] |= 1 << v
        full = (1 << s) - 1
        for i in range(s):
            two_hop = succ[i]
            rest = succ[i]
            while rest:
                k = (rest & -rest).bit_length() - 1
                two_hop |= succ[k]
                rest &= rest - 1
            want = full ^ ((1 << (i + 1)) - 1)
            if two_hop & want != want:
                bad.append((s, i))
                break
    emit(2, not bad, f"50 sizes in 1..1024, 2-hop diameter and size bound exact")
    assert not bad, f"violations: {bad[:5]}"


def test_criterion_03_decomposition_invariants():
    rng = np.random.default_rng(77)
    n, ell = 64, 16
    threshold = -(-2 * n // ell)
    good = 0
    for trial in range(100):
        p = float(rng.uniform(0.02, 0.35))
        g = generate(GenSpec("random_dag", n, p=p, seed=int(rng.integers(10**6))))
        d = decompose(g, ell)
        flat = d.covered()
        edges = set(g.edges)
        holds = (
            sorted(flat) == list(range(n))
            and len(d.chains) <= ell
            and len(d.antichains) <= threshold
            and all(
                (u, v) not in edges and (v, u) not in edges
                for anti in d.antichains
                for u in anti
                for v in anti
                if u < v
            )
        )
        good += holds
    emit(3, good == 100, f"{good}/100 DAGs n=64 ell=16 hold all invariants")
    assert good == 100


def test_criterion_04_small_diameter_statistics():
    t0 = time.perf_counter()
    d, hits, ours, folk = 6, 0, [], []
    for seed in range(100):
        g = generate(GenSpec("random_dag", 216, p=0.05, seed=seed))
        hs = build_shortcuts(g, d, c=3.0, seed=seed)
        rep = verify_shortcut(g, hs, d)
        hits += rep.achieved_diameter is not None and rep.achieved_diameter <= d
        ours.append(len(hs))
        folk.append(len(folklore(g, d, c=3.0, seed=seed)))
    med, med_folk = statistics.median(ours), statistics.median(folk)
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and med < med_folk and elapsed < 60.0
    emit(4, ok, f"{hits}/100 within diameter 6, median |H| {med} vs "
                f"{med_folk} folklore, {elapsed:.1f}s")
    assert hits >= 95
    assert med < med_folk
    assert elapsed < 60.0


def test_criterion_05_large_diameter_statistics():
    d, hits, ours, folk = 64, 0, [], []
    for seed in range(100):
        g = generate(GenSpec("random_dag", 512, p=0.1, seed=seed))
        hs = build_shortcuts(g, d, c=3.0, seed=seed)
        rep = verify_shortcut(g, hs, 4 * d)
        hits += rep.achieved_diameter is not None and rep.achieved_diameter <= 4 * d
        ours.append(len(hs))
        folk.append(len(folklore(g, d, c=3.0, seed=seed)))
    med, med_folk = statistics.median(ours), statistics.median(folk)
    ok = hits >= 95 and med <= med_folk
    emit(5, ok, f"{hits}/100 within 4*64 hops, median |H| {med} vs "
                f"{med_folk} folklore at the same target")
    assert hits >= 95
    assert med <= med_folk


def test_criterion_06_nice_collections():
    rng = np.random.default_rng(606)
    good = 0
    for _ in range(50):
        n = int(rng.integers(8, 61))
        w = int(rng.integers(1, 21))
        g = generate(GenSpec("weighted_random", n, p=0.15, W=w,
                             seed=int(rng.integers(10**6))))
        good += verify_nice(g, *nice_collection(g, 12), 12).ok
    emit(6, good == 50, f"{good}/50 collections pass all six path properties")
    assert good == 50


def test_criterion_07_small_hop_statistics():
    beta, sandwich, lower = 12, 0, 0
    for seed in range(100):
        g = generate(GenSpec("weighted_random", 120, p=0.08, W=50, seed=seed))
        h = hopset_small_hop(g, beta, EPS, c=3.0, seed=seed)
        rep = verify_hopset(g, h, beta, EPS)
        sandwich += rep.ok
        lower += check_status(rep, "lower_side_exact") == "pass"
    ok = sandwich >= 95 and lower == 100
    emit(7, ok, f"{sandwich}/100 sandwiched at 12 hops, lower side {lower}/100")
    assert sandwich >= 95
    assert lower == 100


def test_criterion_08_large_hop_statistics():
    beta, factors = 80, []
    for seed in range(100):
        g = generate(GenSpec("weighted_random", 400, p=0.03, W=20, seed=seed))
        h = hopset_large_hop(g, beta, EPS, c=3.0, seed=seed)
        found = 0
        for factor in (1, 2, 3, 4):
            if verify_hopset(g, h, factor * beta, EPS).ok:
                found = factor
                break
        factors.append(found)
    hits = sum(1 for f in factors if f)
    counts = dict(sorted(Counter(factors).items()))
    ok = hits >= 95
    emit(8, ok, f"{hits}/100 reach stretch 1.25 by C*80 hops with C<=4, "
                f"C histogram {counts}")
    print("C per seed:", "".join(str(f) for f in factors))
    assert hits >= 95


def test_criterion_09_vertex_split_transform():
    rng = np.random.default_rng(909)
    good = 0
    for trial in range(20):
        k = (1, 2, 5)[trial % 3]
        n = int(rng.integers(6, 37))
        g = generate(GenSpec("random_digraph", n, p=0.15,
                             seed=int(rng.integers(10**6))))
        gk, placement = subdivide(g, k)
        if gk.n != n * (k + 1):
            continue
        base = transitive_closure(g)
        lifted = transitive_closure(gk)
        good += all(
            base.has(u, v) == lifted.has(placement[u][0], placement[v][1])
            for u in range(n)
            for v in range(n)
            if u != v
        )
    d = 6
    path_ok = True
    for k in (1, 2, 5):
        g = Digraph(d + 1, [(i, i + 1) for i in range(d)])
        gk, placement = subdivide(g, k)
        full = np.array([u for v in range(d + 1)
                         for u in range(placement[v][0], placement[v][1] + 1)])
        # a simple path of gk with at least k*d hops
        path_ok &= bool(gk.has_pairs(np.column_stack([full[:-1], full[1:]])).all()
                        and len(np.unique(full)) == len(full)
                        and len(full) - 1 >= k * d)
    ok = good == 20 and path_ok
    emit(9, ok, f"{good}/20 graphs keep reachability and n*(k+1) vertices, "
                f"scaled paths accepted: {path_ok}")
    assert good == 20
    assert path_ok


def test_criterion_10_pipeline_determinism(tmp_path):
    def run_once(root):
        root.mkdir()
        for seed in (1, 2, 3, 4, 5):
            g = root / f"g{seed}.txt"
            h = root / f"h{seed}.txt"
            rep = root / f"r{seed}.json"
            w = root / f"w{seed}.txt"
            hh = root / f"hh{seed}.txt"
            assert main(["gen", "--family", "random_dag", "--n", "96",
                         "--p", "0.1", "--seed", str(seed), "--out", str(g)]) == 0
            assert main(["shortcut", "--input", str(g), "--diameter", "4",
                         "--seed", str(seed), "--out", str(h)]) == 0
            assert main(["verify", "--graph", str(g), "--edges", str(h),
                         "--mode", "shortcut", "--diameter", "4",
                         "--json", str(rep)]) == 0
            assert main(["gen", "--family", "weighted_random", "--n", "40",
                         "--p", "0.15", "--W", "9", "--seed", str(seed),
                         "--out", str(w)]) == 0
            assert main(["hopset", "--input", str(w), "--beta", "12",
                         "--eps", "1/4", "--seed", str(seed),
                         "--out", str(hh)]) == 0

    root = tmp_path / "run"
    run_once(root)
    first = {p.name: p.read_bytes() for p in root.iterdir()}
    for p in root.iterdir():
        p.unlink()
    root.rmdir()
    run_once(root)
    second = {p.name: p.read_bytes() for p in root.iterdir()}
    same = first == second
    emit(10, same, f"{len(first)} files byte-identical across two runs of 5 seeds")
    assert same


def test_criterion_11_hop_deep_hopset():
    # A 12 x 25 grid DAG with seeded weights in [1, 1000]: hop-deep, so the
    # empty set misses the (24, 1/4) target, and its weighted closure is far
    # larger than a hopset needs.  generate() takes no W for grid_dag, so
    # the weights are drawn here.
    beta, passed, empty_failed, sizes = 24, 0, 0, []
    grid = generate(GenSpec("grid_dag", 300))
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(seed))
        weights = rng.integers(1, 1001, size=grid.m)
        g = WeightedDigraph(grid.n, np.column_stack([grid.array, weights]))
        h = hopset_small_hop(g, beta, EPS, c=3.0, seed=seed)
        passed += verify_hopset(g, h, beta, EPS).ok
        empty_failed += not verify_hopset(g, (), beta, EPS).ok
        sizes.append((len(h), weighted_closure(g).m))
    small = all(size < closure for size, closure in sizes)
    ok = passed == 5 and empty_failed == 5 and small
    emit(11, ok, f"{passed}/5 sandwiched at 24 hops, empty set fails {empty_failed}/5, "
                 f"|H| vs closure {sizes}")
    assert passed == 5
    assert empty_failed == 5
    assert small
