"""Pair lists of the benchmark workloads and the seed-recorded split flags.

A pair (k, l) stands for `crtk kunneth O<k+1> O<l+1>`.  The workloads put
the cost in different stages of the pipeline, so that a later change to
one stage has a workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import random
from math import gcd


def _grid_light() -> list[tuple[int, int]]:
    """2 <= k, l <= 12 with gcd(k, l) <= 3, without the gcd-2 pairs that
    have a factor divisible by 4 (those cost seconds each, like (2,4))."""
    return [(k, l) for k in range(2, 13) for l in range(2, 13)
            if gcd(k, l) <= 3 and not (gcd(k, l) == 2 and (k % 4 == 0 or l % 4 == 0))]


WORKLOADS: dict[str, list[tuple[int, int]]] = {
    # The paper's non-split example: 128 raw middles in one class, so the
    # operation search, the per-solution final checks and the dedup dominate.
    "nonsplit_4_4": [(4, 4)],
    # Slot-extension enumeration dominates; 5 raw solutions per pair and a
    # positive isomorphism search against the split model.
    "ext_gcd5": [(5, 5), (5, 10), (10, 5)],
    # Many distinct small groups, each touched once: resolution, tensor/Tor
    # and small searches share the time.
    "grid_light": _grid_light(),
}

# Split flags of the middles as computed at the commit that introduced the
# benchmark; every pair of the workloads that is not listed here splits.
NONSPLIT = frozenset({(4, 4), (2, 2), (2, 6), (2, 10), (6, 2), (6, 10), (10, 2), (10, 6)})

# Pairs left out because one run takes minutes (wall seconds on a 2-core
# Intel Xeon, Python 3.11, at the commit that introduced the benchmark).
EXCLUDED = {
    (7, 7): "55 s",
    (9, 9): "162 s",
    (10, 10): "170 s",
    (8, 8): "about 180 s",
    (12, 12): "does not finish",
}


def split_flag(k: int, l: int) -> bool:
    return (k, l) not in NONSPLIT


def pairs_for(workload: str, seed: int) -> list[tuple[int, int]]:
    """The workload's pairs in an order fixed by the seed."""
    pairs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(pairs)
    return pairs
