"""Exact integer root helpers.

Float roots land on the wrong side of exact powers (27 ** (1/3) is
3.0000000000000004), so thresholds that feed preconditions are computed with
integer arithmetic: a float seed, then an adjustment loop.
"""

from __future__ import annotations


def ceil_root(n: int, k: int) -> int:
    """Smallest t >= 0 with t**k >= n."""
    return 0 if n <= 0 else floor_root(n - 1, k) + 1


def floor_root(n: int, k: int) -> int:
    """Largest t >= 0 with t**k <= n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    t = max(1, round(n ** (1.0 / k)))
    while t**k > n:
        t -= 1
    while (t + 1) ** k <= n:
        t += 1
    return t
