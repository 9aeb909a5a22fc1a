"""Shortcut edges that bring a single directed path to hop-diameter 2.

The classic midpoint recursion: connect every vertex of the current segment
to (or from) the segment midpoint, then recurse on both halves.  Any ordered
pair then meets at the midpoint of the first segment that separates them.
Edges to immediate path neighbours are skipped since the path already has
them, which is why paths of up to 3 vertices need no shortcut at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class PathShortcut:
    """Shortcut edges for one path; vertices keep their graph-level ids."""

    edges: frozenset[tuple[int, int]]


def shortcut_path(path: Sequence[int]) -> PathShortcut:
    """Edges making every ordered pair of ``path`` reachable in <= 2 hops.

    ``path`` lists distinct vertex ids in path order; the returned edges are
    disjoint from the path's own edges.
    """
    p = tuple(int(v) for v in path)
    if len(set(p)) != len(p):
        raise ValueError("path vertices must be distinct")

    edges: set[tuple[int, int]] = set()
    segments = [(0, len(p) - 1)] if p else []
    while segments:
        lo, hi = segments.pop()
        if hi - lo < 3:
            continue
        mid = (lo + hi) // 2
        for i in range(lo, mid - 1):
            edges.add((p[i], p[mid]))
        for j in range(mid + 2, hi + 1):
            edges.add((p[mid], p[j]))
        segments.append((lo, mid - 1))
        segments.append((mid + 1, hi))
    return PathShortcut(frozenset(edges))
