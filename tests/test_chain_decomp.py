"""Chain/antichain decompositions of DAGs under a chain budget."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shortcutforge import chain_decomp, graph_core
from shortcutforge.chain_decomp import ChainDecomposition, decompose
from shortcutforge.generators import GenSpec, generate
from shortcutforge.graph_core import (
    Digraph,
    ReachabilityMatrix,
    check_acyclic,
    closure_digraph,
    transitive_closure,
)


def random_dag(n: int, p: float, rng: np.random.Generator) -> Digraph:
    order = rng.permutation(n)
    edges = [
        (int(order[i]), int(order[j]))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Digraph(n, edges)


def dense_adjacency(g: Digraph) -> np.ndarray:
    """Boolean n x n adjacency matrix of g."""
    a = np.zeros((g.n, g.n), dtype=bool)
    a[g.array[:, 0], g.array[:, 1]] = True
    return a


def assert_valid(dag: Digraph, ell: int, decomp) -> None:
    """Invariants: disjoint exact cover, budgets, chains are edge paths,
    and no input edge joins two members of one antichain."""
    n = dag.n
    threshold = -(-2 * n // ell)
    parts = [set(c) for c in decomp.chains] + [set(a) for a in decomp.antichains]
    flat = [v for part in parts for v in part]
    assert len(flat) == n, "parts must cover every vertex"
    assert len(set(flat)) == n, "parts must be disjoint"
    assert len(decomp.chains) <= ell
    assert len(decomp.antichains) <= threshold
    edges = set(dag.edges)
    for chain in decomp.chains:
        assert len(chain) >= threshold
        for a, b in zip(chain, chain[1:]):
            assert (a, b) in edges
    for anti in decomp.antichains:
        members = sorted(anti)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                assert (u, v) not in edges and (v, u) not in edges


def test_path_is_one_chain():
    g = Digraph(16, [(i, i + 1) for i in range(15)])
    d = decompose(g, 4)
    assert len(d.chains) == 1
    assert d.chains[0] == tuple(range(16))
    assert d.antichains == ()


def test_edgeless_is_one_antichain():
    d = decompose(Digraph(10, []), 5)
    assert d.chains == ()
    assert len(d.antichains) == 1
    assert d.antichains[0] == frozenset(range(10))


def test_hundred_random_dags_hold_invariants():
    rng = np.random.default_rng(2021)
    for trial in range(100):
        g = random_dag(64, float(rng.uniform(0.02, 0.25)), rng)
        d = decompose(g, 16)
        assert_valid(g, 16, d)


def test_closure_input_gives_order_independent_antichains():
    # When the caller hands over the closure graph, edge independence
    # within an antichain is exactly incomparability in the original DAG.
    rng = np.random.default_rng(404)
    for _ in range(20):
        g = random_dag(48, float(rng.uniform(0.03, 0.2)), rng)
        reach = transitive_closure(g)
        d = decompose(g, 12, reach)
        assert_valid(closure_digraph(reach.rows()), 12, d)
        for anti in d.antichains:
            members = sorted(anti)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert not reach.has(u, v) and not reach.has(v, u)


CYCLE_MESSAGE = "^input must be acyclic; 1 and 2 lie on a cycle$"  # both modes
CYCLIC = Digraph(5, [(3, 0), (0, 1), (1, 4), (4, 2), (2, 1)])


def test_cyclic_input_rejected():
    with pytest.raises(ValueError, match=CYCLE_MESSAGE):
        decompose(CYCLIC, 2)


def test_raw_mode_builds_no_closure(monkeypatch):
    # Raw mode tests acyclicity on the condensation alone, also on permuted ids.
    def refuse(g):
        raise AssertionError("closure built")

    g = random_dag(120, 0.05, np.random.default_rng(406))
    assert (g.array[:, 0] > g.array[:, 1]).any()
    want = reference_decompose(g, 12)
    monkeypatch.setattr(graph_core, "transitive_closure", refuse)
    monkeypatch.setattr(chain_decomp, "transitive_closure", refuse)
    assert decompose(g, 12) == want
    with pytest.raises(ValueError, match=CYCLE_MESSAGE):
        decompose(CYCLIC, 2)


def test_closure_matrix_matches_closure_graph():
    rng = np.random.default_rng(405)
    for _ in range(20):
        g = random_dag(48, float(rng.uniform(0.03, 0.2)), rng)
        reach = transitive_closure(g)
        for ell in (1, 5, 12, 48):
            assert decompose(g, ell, reach) == decompose(closure_digraph(reach.rows()), ell)


def test_cyclic_closure_matrix_rejected():
    with pytest.raises(ValueError, match=CYCLE_MESSAGE):
        decompose(CYCLIC, 2, transitive_closure(CYCLIC))


# 4 reaches 5 only through 1, which the first chain (0, 1, 2, 3) peels.
THROUGH_PEELED = Digraph(6, [(0, 1), (1, 2), (2, 3), (4, 1), (1, 5)])


def test_closure_chains_pass_through_peeled_vertices():
    g = THROUGH_PEELED
    both = decompose(g, 6, transitive_closure(g))
    assert both.chains == ((0, 1, 2, 3), (4, 5)) and both.antichains == ()
    raw = decompose(g, 6)
    assert raw.chains == ((0, 1, 2, 3),) and raw.antichains == (frozenset({4, 5}),)
    # ell=3: threshold 4 stops after one chain, and 5 is one level above 4
    # only when the peeled 1 passes its level through
    assert decompose(g, 3, transitive_closure(g)).antichains == (
        frozenset({4}),
        frozenset({5}),
    )
    assert decompose(g, 3).antichains == (frozenset({4, 5}),)


def test_raw_walk_back_reads_in_edges_not_a_dense_matrix():
    # No closure is built; an n x n bool adjacency read by the walk back
    # would add 16 MiB.
    g = generate(GenSpec("random_dag", 4096, density=2.0, seed=1))
    tracemalloc.start()
    try:
        d = decompose(g, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(d.chains) == 57
    assert_valid(g, 1024, d)
    assert peak < 4 * 2**20


def test_closure_walk_back_unpacks_the_closure_once():
    # The walk back reads one n x n bool matrix of closure ancestors (16 MiB),
    # unpacked straight from the closure's rows; a gathered copy of those
    # rows (2 MiB) or a second n x n copy, such as a column gather, would
    # break the bound.
    g = generate(GenSpec("random_dag", 4096, density=2.0, seed=1))
    closure = transitive_closure(g)
    tracemalloc.start()
    try:
        d = decompose(g, 1024, closure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(d.covered()) == list(range(g.n))
    assert all(closure.has(a, b) for chain in d.chains for a, b in zip(chain, chain[1:]))
    assert len(d.chains) <= 1024 and len(d.antichains) <= 8  # ceil(2n / ell)
    assert peak <= 17 * 2**20, peak


@pytest.mark.parametrize("ell", [0, -1, 11])
def test_ell_out_of_range(ell):
    with pytest.raises(ValueError):
        decompose(Digraph(10, []), ell)


def test_deterministic():
    g = random_dag(40, 0.1, np.random.default_rng(77))
    assert decompose(g, 8) == decompose(g, 8)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=48),
    p=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_fuzz_invariants(n, p, seed, data):
    g = random_dag(n, p, np.random.default_rng(seed))
    ell = data.draw(st.integers(min_value=1, max_value=n))
    assert_valid(g, ell, decompose(g, ell))


# Reference: the per-vertex longest-path peeling that the level sweep in
# ``decompose`` replaced, kept verbatim as a differential oracle.
def _longest_path_dp(
    adj: np.ndarray, ids: np.ndarray, topo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """dp[i] = max vertices on a path ending at ids[i]; parent for rebuild."""
    m = len(ids)
    dp = np.ones(m, dtype=np.int64)
    parent = np.full(m, -1, dtype=np.int64)
    for pos in topo:
        preds = np.flatnonzero(adj[:, pos])
        if preds.size:
            best = preds[np.argmax(dp[preds])]
            dp[pos] = dp[best] + 1
            parent[pos] = best
    return dp, parent


def reference_decompose(dag: Digraph | ReachabilityMatrix, ell: int) -> ChainDecomposition:
    n = dag.n
    if not 1 <= ell <= n:
        raise ValueError(f"ell={ell} outside [1, n={n}]")
    if isinstance(dag, ReachabilityMatrix):
        closure = dag
        adj_full = closure.rows()
        np.fill_diagonal(adj_full, False)
        both = adj_full & adj_full.T  # a scan for two vertices reaching each other
        if both.any():
            u, v = map(int, np.argwhere(both)[0])
            raise ValueError(f"input must be acyclic; {u} and {v} lie on a cycle")
    else:
        check_acyclic(dag)
        closure = transitive_closure(dag)
        adj_full = dense_adjacency(dag)

    threshold = -(-2 * n // ell)
    anc = closure.rows().sum(axis=0)
    alive = np.ones(n, dtype=bool)
    chains: list[tuple[int, ...]] = []

    for _ in range(ell):
        ids = np.flatnonzero(alive)
        if ids.size == 0:
            break
        adj = adj_full[np.ix_(ids, ids)]
        topo = np.argsort(anc[ids], kind="stable")
        dp, parent = _longest_path_dp(adj, ids, topo)
        if dp.max() < threshold:
            break
        end = int(np.argmax(dp))  # first maximum = smallest end-vertex id
        rev = [end]
        while parent[rev[-1]] != -1:
            rev.append(int(parent[rev[-1]]))
        chain = tuple(int(ids[i]) for i in reversed(rev))
        chains.append(chain)
        alive[list(chain)] = False

    ids = np.flatnonzero(alive)
    antichains: list[frozenset[int]] = []
    if ids.size:
        adj = adj_full[np.ix_(ids, ids)]
        topo = np.argsort(anc[ids], kind="stable")
        levels, _ = _longest_path_dp(adj, ids, topo)
        for lvl in range(1, int(levels.max()) + 1):
            members = ids[levels == lvl]
            antichains.append(frozenset(int(v) for v in members))
    return ChainDecomposition(tuple(chains), tuple(antichains))


@st.composite
def dags_with_ell(draw) -> tuple[Digraph, int]:
    n = draw(st.integers(min_value=1, max_value=40))
    p = draw(st.floats(min_value=0.0, max_value=0.5))
    g = random_dag(n, p, np.random.default_rng(draw(st.integers(0, 10**6))))
    return g, draw(st.integers(min_value=1, max_value=n))


@settings(max_examples=60, deadline=None)
@given(case=dags_with_ell())
@example(case=(THROUGH_PEELED, 6))  # closure chain (4, 5) passes through 1
@example(case=(THROUGH_PEELED, 3))  # raw residue keeps 4 and 5 on one level
def test_matches_per_vertex_reference(case):
    g, ell = case
    reach = transitive_closure(g)
    assert decompose(g, ell) == reference_decompose(g, ell)
    assert decompose(g, ell, reach) == reference_decompose(reach, ell)
