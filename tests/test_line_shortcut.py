"""Midpoint-recursion path shortcuts: 2-hop diameter at n log n size."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import path_size_bound, unit_weights
from shortcutforge.graph_core import Digraph, hop_limited_dist
from shortcutforge.line_shortcut import shortcut_path


def hop_diameter_along(path: list[int], extra: frozenset) -> int:
    edges = set(zip(path, path[1:])) | set(extra)
    g = Digraph(max(path) + 1, edges)
    hops = hop_limited_dist(unit_weights(g), len(path))
    worst = 0
    for i, u in enumerate(path):
        for v in path[i + 1 :]:
            worst = max(worst, int(hops[u, v]))
    return worst


@pytest.mark.parametrize("size", [1, 2, 3])
def test_tiny_paths_need_nothing(size):
    assert shortcut_path(range(size)).edges == frozenset()


def test_four_vertices_single_midpoint_edge():
    assert shortcut_path([4, 5, 6, 7]).edges == frozenset({(5, 7)})


def test_rejects_repeated_vertices():
    with pytest.raises(ValueError):
        shortcut_path([0, 1, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=600))
def test_two_hop_diameter_and_size_bound(n):
    path = list(range(n))
    hs = shortcut_path(path)
    if n >= 2:
        assert hop_diameter_along(path, hs.edges) <= 2
    bound = n * max(1, math.ceil(math.log2(n))) if n > 1 else 0
    assert len(hs.edges) <= bound
    assert path_size_bound(len(hs.path)) >= len(hs.edges)


@given(st.integers(min_value=4, max_value=200))
@settings(max_examples=30, deadline=None)
def test_no_duplicates_of_path_edges(n):
    path = list(range(0, 2 * n, 2))  # non-contiguous labels
    hs = shortcut_path(path)
    consecutive = set(zip(path, path[1:]))
    assert not (hs.edges & consecutive)
    # all shortcut endpoints live on the path and point forward
    pos = {v: i for i, v in enumerate(path)}
    for u, v in hs.edges:
        assert pos[u] < pos[v]


def test_deterministic():
    a = shortcut_path(range(257)).edges
    b = shortcut_path(range(257)).edges
    assert a == b


def test_shuffled_labels_follow_positions():
    rng = np.random.default_rng(9)
    path = [int(v) for v in rng.permutation(50)]
    pos = {v: i for i, v in enumerate(path)}
    for u, v in shortcut_path(path).edges:
        assert pos[u] + 2 <= pos[v]
