"""Shortcut-set constructions for reducing directed hop diameter.

All constructions emit closure pairs only, so reachability is never changed;
they differ in how the sampling budget scales with the diameter target.  The
small-diameter route decomposes the closure into chains and antichains, makes
every chain 2-hop via midpoint shortcuts, and wires sampled vertices into
sampled chains.  The large-diameter route subsamples vertices, connects
samples that are within a bounded hop radius, and recurses with the
small-diameter construction on that contracted graph.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ._intmath import ceil_root, floor_root
from ._seeds import SITE_GROUP_SAMPLE, SITE_VERTEX_SAMPLE, child_seed, sample_mask
from .chain_decomp import decompose
from .graph_core import (
    Digraph,
    ReachabilityMatrix,
    TaggedEdges,
    bounded_reachability,
    check_acyclic,
    closure_digraph,
    condense,
    scc_star_edges,
    transitive_closure,
    transitive_reduction,
)
from .line_shortcut import shortcut_path


class ShortcutSet(TaggedEdges):
    """Tagged shortcut rows (u, v, tag), each a transitive-closure pair."""

    TAGS = ("path_shortcut", "sampled_pair", "baseline", "lifted")


def check_folklore(d: int) -> None:
    """Raise ValueError for a folklore diameter target below 1."""
    if d < 1:
        raise ValueError(f"diameter target must be >= 1, got {d}")


def folklore(g: Digraph, d: int, c: float = 3.0, *, seed: int) -> ShortcutSet:
    """Baseline: all closure pairs between vertices sampled at c*ln(n)/d."""
    check_folklore(d)
    if g.n <= 1:
        return ShortcutSet(g.n, (), ())
    p = min(1.0, c * math.log(g.n) / d)
    sampled = np.flatnonzero(sample_mask(seed, SITE_VERTEX_SAMPLE, g.n, p))
    bits = transitive_closure(g).rows(sampled, sampled)
    np.fill_diagonal(bits, False)
    pairs = sampled[np.argwhere(bits)]
    del bits  # at most n x n bytes, not needed while the set is built
    return ShortcutSet(g.n, pairs, "baseline")


def first_incoming_edge(
    closure: ReachabilityMatrix, sources: np.ndarray, chains: Sequence[Sequence[int]]
) -> np.ndarray:
    """(k, 2) rows (s, t), t the first vertex of a chain other than s that s reaches.

    Reachability into a chain is suffix-closed, so the first reachable
    position is the first True of the source's row over the chain; clearing
    each source's own bit first moves a source on the chain to the next
    position.  A (source, chain) pair with no such vertex gives no row.
    """
    sources = np.asarray(sources, dtype=np.int64)
    reach = closure.rows(sources)
    reach[np.arange(len(sources)), sources] = False
    hits = [np.empty((0, 2), dtype=np.int64)]
    for chain in chains:
        chain = np.asarray(chain, dtype=np.int64)
        block = reach[:, chain]
        first = block.argmax(axis=1)
        hit = np.flatnonzero(block[np.arange(len(sources)), first])
        hits.append(np.column_stack([sources[hit], chain[first[hit]]]))
    return np.concatenate(hits)


def small_diam_limit(n: int) -> int:
    """Largest diameter target the small-diameter construction accepts."""
    return max(3, ceil_root(n, 3))


def check_small_diam(n: int, d: int) -> None:
    """Raise ValueError for a small-diameter target outside [3, small_diam_limit(n)]."""
    if not 3 <= d <= small_diam_limit(n):
        raise ValueError(f"diameter target {d} outside [3, {small_diam_limit(n)}]")


def check_large_d(n: int, d: int) -> None:
    """Raise ValueError for a large-diameter target below max(1, floor(n^(1/3)))."""
    if d < 1 or d < floor_root(n, 3):
        raise ValueError(f"diameter target {d} below floor(n^(1/3)) = {floor_root(n, 3)}")


def shortcut_small_diam(
    g: Digraph, d: int, c: float = 3.0, *, seed: int
) -> ShortcutSet:
    """Chain-decomposition construction for diameter targets up to n^(1/3).

    Decomposes the closure with ell = ceil(16n/d) (clamped to n), adds each
    chain's edges plus its midpoint shortcuts, then the first-incoming edge
    from every sampled vertex into every sampled chain.
    """
    n = g.n
    if n == 0:
        return ShortcutSet(0, (), ())
    check_small_diam(n, d)
    closure = transitive_closure(g)
    ell = min(n, -(-16 * n // d))
    decomp = decompose(g, ell, closure)

    pairs: list[tuple[int, int]] = []
    for chain in decomp.chains:
        pairs.extend(zip(chain, chain[1:]))
        pairs.extend(shortcut_path(chain).edges)

    p = min(1.0, c * math.log(n) / d) if n > 1 else 1.0
    v_mask = sample_mask(seed, SITE_VERTEX_SAMPLE, n, p)
    c_mask = sample_mask(seed, SITE_GROUP_SAMPLE, len(decomp.chains), p)
    sampled = [decomp.chains[i] for i in np.flatnonzero(c_mask)]
    hits = first_incoming_edge(closure, np.flatnonzero(v_mask), sampled)
    rows = np.concatenate([np.array(pairs, dtype=np.int64).reshape(-1, 2), hits])
    tags = np.repeat(["path_shortcut", "sampled_pair"], [len(pairs), len(hits)])
    return ShortcutSet(n, rows, tags)


def shortcut_large_d(
    g: Digraph, d: int, c: float = 3.0, *, seed: int
) -> ShortcutSet:
    """Sampling construction for diameter targets of at least n^(1/3).

    Samples vertices at c*sqrt(n)*ln(n)/d^(3/2), joins samples within hop
    radius r (the least r with r*r*n >= d^3), and runs the small-diameter
    construction on that graph; its output maps straight back since every
    edge of the sampled graph is itself a closure pair of g.
    """
    n = g.n
    check_large_d(n, d)
    if n <= 1:
        return ShortcutSet(n, (), ())
    check_acyclic(g)

    p = min(1.0, c * math.sqrt(n) * math.log(n) / d**1.5)
    sampled = np.flatnonzero(sample_mask(seed, SITE_VERTEX_SAMPLE, n, p))
    n_sub = len(sampled)
    if n_sub <= 1:
        return ShortcutSet(n, (), ())

    r = max(1, ceil_root(-(-(d**3) // n), 2))
    sub = closure_digraph(bounded_reachability(g, r)[np.ix_(sampled, sampled)])

    d_sub = max(3, int(n_sub ** (1.0 / 3.0) / math.log(n)))
    inner = shortcut_small_diam(sub, d_sub, c, seed=child_seed(seed))
    return ShortcutSet(n, sampled[inner.array], inner.tags)


def shortcut_regime(
    n: int, d: int, mode: str = "auto"
) -> Callable[..., ShortcutSet] | None:
    """The construction ``build_shortcuts`` runs on an n-vertex condensation.

    ``shortcut_small_diam`` or ``shortcut_large_d``, or None when n <= 1 and
    none runs.  Raises the ValueError of an unknown mode, of d < 3 or of the
    chosen construction's own range check.
    """
    if mode not in ("auto", "small", "large"):
        raise ValueError(f"unknown mode {mode!r}")
    if d < 3:
        raise ValueError(f"diameter target must be >= 3, got {d}")
    if n <= 1:
        return None
    if mode == "small" or (mode == "auto" and d <= small_diam_limit(n)):
        check_small_diam(n, d)
        return shortcut_small_diam
    check_large_d(n, d)
    return shortcut_large_d


def build_shortcuts(
    g: Digraph, d: int, c: float = 3.0, *, seed: int, mode: str = "auto"
) -> ShortcutSet:
    """Condense, run the regime picked by d vs n^(1/3), and lift the result.

    Lifted output = condensation-level shortcuts mapped through each
    component's representative, ``rep`` (keeping their tags), plus the
    two-way representative stars, tagged "lifted".  The target d holds at
    the condensation level only: if its union has hop diameter h, each hop
    lifts to at most 3 in g (star, edge, star) and each end adds one star
    hop, so g's union has hop diameter at most 3h + 2.
    """
    cond = condense(g)
    dag = cond.dag
    construct = shortcut_regime(dag.n, d, mode)

    rows, tags = [], []
    if construct is not None:
        inner = construct(dag, d, c, seed=seed)
        lifted = cond.rep[inner.array]
        fresh = ~g.has_pairs(lifted)
        rows.append(lifted[fresh])
        tags.append(inner.tags[fresh])
    stars = scc_star_edges(g, cond)
    rows.append(stars)
    tags.append(np.full(len(stars), "lifted"))
    return ShortcutSet(g.n, np.concatenate(rows), np.concatenate(tags))


def tc_spanner(g: Digraph, k: int, c: float = 3.0, *, seed: int) -> ShortcutSet:
    """Reachability-preserving subgraph of the closure with hop bound k.

    Per-SCC cycle covers plus the condensation's transitive reduction form
    the backbone, tagged "baseline"; build_shortcuts on that backbone
    supplies the hop bound, and its rows keep their tags.  Acyclic inputs
    reach every closure pair within k hops; inputs with cycles may take up
    to k + 2, one representative-star hop at each end.
    """
    if k < 3:
        raise ValueError(f"hop target must be >= 3, got {k}")
    cond = condense(g)
    parts = [cond.rep[transitive_reduction(cond.dag).array]]
    order = np.argsort(cond.component_of, kind="stable")  # each SCC's members, sorted
    for members in np.split(order, np.flatnonzero(np.diff(cond.component_of[order])) + 1):
        if len(members) >= 2:  # close them into a ring
            parts.append(np.column_stack([members, np.roll(members, -1)]))
    base = Digraph(g.n, np.concatenate(parts))
    h = build_shortcuts(base, k, c, seed=seed)
    tags = np.concatenate([np.full(base.m, "baseline"), h.tags])
    return ShortcutSet(g.n, np.concatenate([base.array, h.array]), tags)
