"""Instance factories for tests, benchmarks, and the CLI.

All families are deterministic under their seed.  ``random_dag`` draws a
random vertex permutation and flips one coin per forward pair, so it is
acyclic by construction; ``density`` is the target average out-degree and is
translated into the matching edge probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import Digraph, WeightedDigraph, check_vertex_count

FAMILIES = (
    "random_dag",
    "random_digraph",
    "path",
    "layered",
    "grid_dag",
    "weighted_random",
)

_NEEDS_PROB = ("random_dag", "random_digraph", "layered", "weighted_random")


@dataclass(frozen=True)
class GenSpec:
    family: str
    n: int
    p: float | None = None
    density: float | None = None
    W: int | None = None
    seed: int = 0


def check_spec(spec: GenSpec) -> None:
    """Raise the ValueError ``generate`` raises for ``spec``, without drawing anything."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.n < 1:
        raise ValueError(f"n must be >= 1, got {spec.n}")
    check_vertex_count(spec.n)
    if spec.family not in _NEEDS_PROB and (spec.p is not None or spec.density is not None):
        raise ValueError(f"family {spec.family!r} takes no edge probability")
    if spec.family == "weighted_random":
        if spec.W is None or spec.W < 1:
            raise ValueError("weighted_random needs W >= 1")
    elif spec.W is not None:
        raise ValueError(f"family {spec.family!r} takes no weight bound")
    if spec.family in _NEEDS_PROB:
        if (spec.p is None) == (spec.density is None):
            raise ValueError("exactly one of p and density must be set for this family")
        if spec.p is not None and not 0.0 <= spec.p <= 1.0:
            raise ValueError(f"edge probability {spec.p} outside [0, 1]")
        if spec.density is not None and not spec.density >= 0:  # NaN too
            raise ValueError(f"density {spec.density} must be >= 0")


def _edge_prob(spec: GenSpec, pair_count_per_vertex: float) -> float:
    if spec.p is not None:
        return spec.p
    if pair_count_per_vertex <= 0:
        return 0.0
    return min(1.0, spec.density / pair_count_per_vertex)


def _coin_pairs(rng: np.random.Generator, n: int, p: float, forward: bool) -> np.ndarray:
    """Row-major (u, v) pairs whose coin falls below p: u < v if forward, else u != v.

    Coins are drawn about 2**20 pairs at a time; successive draws continue one
    stream, so the result equals one draw over all pairs, in a fraction of the memory.
    """
    ids, step, blocks = np.arange(n), max(1, 2**20 // n), []
    for lo in range(0, n, step):
        rows = ids[lo : lo + step, None]
        u, v = np.nonzero(ids > rows if forward else ids != rows)
        hit = rng.random(len(u)) < p
        blocks.append(np.column_stack([u[hit] + lo, v[hit]]))
    return np.concatenate(blocks)


def generate(spec: GenSpec) -> Digraph | WeightedDigraph:
    check_spec(spec)  # before any O(n^2) draw
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    n = spec.n

    if spec.family == "path":
        ids = np.arange(n - 1)
        return Digraph(n, np.column_stack([ids, ids + 1]))

    if spec.family == "grid_dag":
        rows = int(np.sqrt(n))
        while rows > 1 and n % rows:
            rows -= 1
        ids = np.arange(n).reshape(rows, n // rows)
        right = np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
        down = np.column_stack([ids[:-1].ravel(), ids[1:].ravel()])
        return Digraph(n, np.concatenate([right, down]))

    if spec.family == "random_dag":
        p = _edge_prob(spec, (n - 1) / 2)
        perm = rng.permutation(n)
        return Digraph(n, perm[_coin_pairs(rng, n, p, forward=True)])

    if spec.family == "layered":
        p = _edge_prob(spec, max(1.0, n / max(1, int(np.ceil(np.sqrt(n))))))
        layer_count = int(np.ceil(np.sqrt(n)))
        bounds = np.linspace(0, n, layer_count + 1).astype(int)
        edges = [np.empty((0, 2), np.int64)]
        for a, b, c in zip(bounds, bounds[1:], bounds[2:]):  # one coin block per layer pair
            u, v = np.nonzero(rng.random((b - a, c - b)) < p)
            edges.append(np.column_stack([u + a, v + b]))
        return Digraph(n, np.concatenate(edges))

    # random_digraph and weighted_random share the all-ordered-pairs model.
    pairs = _coin_pairs(rng, n, _edge_prob(spec, float(n - 1)), forward=False)
    if spec.family == "random_digraph":
        return Digraph(n, pairs)
    weights = rng.integers(1, spec.W + 1, size=len(pairs))
    return WeightedDigraph(n, np.column_stack([pairs, weights]))


def subdivide(g: Digraph, k: int) -> tuple[Digraph, dict[int, tuple[int, int]]]:
    """Replace each vertex by a directed path of k edges.

    Copy j of vertex v gets id v*(k+1)+j; each original edge (u, v) becomes
    an edge from u's last copy to v's first.  Returns the new graph and the
    map original vertex -> (head copy, tail copy).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stride = k + 1
    check_vertex_count(g.n * stride)
    placement = {v: (v * stride, v * stride + k) for v in range(g.n)}
    inner = (np.arange(g.n)[:, None] * stride + np.arange(k)).ravel()
    cross = g.array * stride + [k, 0]
    edges = np.concatenate([np.column_stack([inner, inner + 1]), cross])
    return Digraph(g.n * stride, edges), placement
