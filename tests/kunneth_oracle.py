"""Unreduced, check-every-copy Kunneth search: the oracle for the solver's shortcuts.

The solver visits one operation assignment per gauge orbit, prunes with
every entry of crt_core.CHECKS and runs no final suite, and drops a raw
middle that is CRT-isomorphic to a class it has already kept.  This
module keeps the older path: the operation search visits every
candidate (pruned by the same schedule), every raw middle it reaches
runs the full relation and acyclicity suites, and the survivors are
deduplicated pairwise up to CRT-isomorphism afterwards.
"""

from __future__ import annotations

from crtk.crt_core import (
    OP_NAMES,
    OP_SPECS,
    PARTS,
    crt_isomorphic,
    is_acyclic,
    make_module,
    slot_of,
    verify_relations,
)
from crtk.kunneth import (
    _OP_ORDER,
    _SCHEDULE,
    KunnethProblem,
    KunnethSolution,
    _Assigned,
    _Search,
    split_check,
)
from crtk.zlinalg import GroupHom, IntMatrix, hom_compose, hom_preimage


class CheckEveryCopy(_Search):
    """The solver's search without gauge fixing, with every raw middle checked and kept."""

    def _op_stage(self):
        ops = {}
        view = _Assigned(ops, self._k_group)
        cand = {key: self._instance_candidates(*key) for key in _OP_ORDER}
        if any(not v for v in cand.values()):
            return

        def rec(i):
            if i == len(_OP_ORDER):
                yield ops
                return
            key = _OP_ORDER[i]
            for h in cand[key]:
                self._tick("operation")
                ops[key] = h
                if key[0] == "eps":
                    psiT = self._derive_psiT(ops, key[1])
                    if psiT is None:
                        continue
                    ops[("psiT", key[1])] = psiT
                if all(chk.holds(view, n) for chk, n in _SCHEDULE[key]):
                    yield from rec(i + 1)
            ops.pop(key, None)
            ops.pop(("psiT", key[1]), None)

        for full in rec(0):
            self._finish(full)

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


def conjugate(M, twist):
    """M transported along a family of slot automorphisms: op -> u_tgt . op . u_src^-1.

    `twist` maps each slot of `crt_core.SLOTS` to an automorphism of M's
    group there; inverses are found generator by generator with
    `hom_preimage`, independently of the solver's gauge formulas.
    """
    inverse = {}
    for slot, u in twist.items():
        G = u.domain
        cols = [hom_preimage(u, tuple(int(i == j) for i in range(G.ngens))) for j in range(G.ngens)]
        inverse[slot] = GroupHom(G, G, IntMatrix.from_cols(cols, rows=G.ngens))
    groups = {p: [M.group(p, n) for n in range(8)] for p in PARTS}
    mats = {}
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        mats[name] = [hom_compose(twist[slot_of(tgt, n + shift)],
                                  hom_compose(M.op(name, n), inverse[slot_of(src, n)])).matrix
                      for n in range(8)]
    return make_module(groups, mats)
