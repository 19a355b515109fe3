"""Check-every-copy Kunneth search, the oracle for deduplication on arrival.

The solver drops a raw middle that is CRT-isomorphic to a class it has
already kept, before any check, and checks relations and acyclicity only
for the first middle of each class.  This module keeps the older path:
every raw middle the search reaches runs both checks, and the survivors
are deduplicated pairwise up to CRT-isomorphism afterwards.
"""

from __future__ import annotations

from crtk.crt_core import (
    OP_NAMES,
    PARTS,
    crt_isomorphic,
    is_acyclic,
    make_module,
    verify_relations,
)
from crtk.kunneth import KunnethProblem, KunnethSolution, _Search, split_check


class CheckEveryCopy(_Search):
    """The solver's search with every raw middle checked and kept."""

    def _finish(self, ops: dict):
        groups = {p: [self._k_group(p, n) for n in range(8)] for p in PARTS}
        mats = {name: [ops[(name, n)].matrix for n in range(8)] for name in OP_NAMES}
        try:
            middle = make_module(groups, mats)
        except ValueError:
            return
        if not verify_relations(middle).ok():
            return
        if not is_acyclic(middle, check_relations=False).ok():
            return
        alpha = {(p, n): self._alpha(p, n) for p in PARTS for n in range(8)}
        beta = {(p, n): self._beta(p, n) for p in PARTS for n in range(8)}
        self.solutions.append(KunnethSolution(middle, alpha, beta))


def solve_middle_oracle(p: KunnethProblem, budget: int = 5_000_000):
    """(raw, kept): every checked raw middle, then one per class with split flags."""
    raw = CheckEveryCopy(p, budget).run()
    kept: list[KunnethSolution] = []
    for sol in raw:
        if any(crt_isomorphic(sol.middle, other.middle) is not None for other in kept):
            continue
        kept.append(sol)
    for sol in kept:
        sol.split = split_check(sol, p)
    return raw, kept
