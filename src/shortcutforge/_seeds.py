"""Deterministic RNG derivation shared by the randomized constructions.

Every random draw comes from a Generator derived from (seed, site), so the
same seed always replays the same run and distinct decision sites never share
a stream.  Recursive calls get a child seed drawn from its own site.
"""

from __future__ import annotations

import numpy as np

SITE_VERTEX_SAMPLE = 0
SITE_GROUP_SAMPLE = 1
SITE_CHILD_SEED = 2


def site_rng(seed: int, site: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(site),))
    return np.random.Generator(np.random.PCG64(ss))


def child_seed(seed: int) -> int:
    return int(site_rng(seed, SITE_CHILD_SEED).integers(0, 2**63 - 1))


def sample_mask(seed: int, site: int, count: int, prob: float) -> np.ndarray:
    """Keep each of ``count`` items with probability ``prob``, drawn from (seed, site)."""
    if count == 0:
        return np.zeros(0, dtype=bool)
    if prob >= 1.0:
        return np.ones(count, dtype=bool)
    return site_rng(seed, site).random(count) < prob
