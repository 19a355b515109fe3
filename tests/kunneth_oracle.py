"""Unreduced and enumerated Kunneth searches: the oracles for the solver's shortcuts.

The solver visits one operation assignment per gauge orbit, prunes with
every entry of crt_core.CHECKS and runs no final suite, and drops a raw
middle that is CRT-isomorphic to a class it has already kept.  This
module keeps the older path: the operation search visits every
candidate (pruned by the same schedule, each check decided on every
visit rather than once per operand set), every raw middle it reaches
runs the full relation and acyclicity suites, and the survivors are
deduplicated pairwise up to CRT-isomorphism afterwards.

EnumeratedGauge keeps the gauge fixing as it was first written: the
gauge group is a list of index tuples into the per-slot automorphism
lists of _slot_gauge, and each candidate filters the stabilizer of the
operations before it element by element.  gauge_table_oracle keeps the
table that came next: a stabilizer chain, one kernel_lattice per
operation, and the visited candidate indices listed.  The solver reads
the same verdicts from the bounds of one echelon form per problem
(kunneth._gauge_table) and builds only the candidates inside them;
gauge_table_rows_oracle keeps that table's rows as first assembled, one
commutation_rows per slot, and the dense echelon_mod.

instance_candidates_oracle keeps the operation candidates as first
written: one unknown per entry of the operation matrix, explicit
well-definedness equations and oracles.solve_matrix_system, then every
element of Hom(tor, tensor) listed.  The solver solves in the
hom_coords of the operation instead (zlinalg.commutation_rows).
solved_candidates_oracle keeps that solve without the solver's shortcut
for an instance with a trivial middle group, whose only candidate is the
zero map.

TwoStageSearch keeps the search as it was before slots and operations
shared one key order: a slot stage chooses all 14 slot extensions, pruned
as soon as an instance a slot completes has no candidate, and for each
full slot choice an operation stage backtracks over _OP_ORDER, a fixed
order of the 56 instances, with its own gauge table and check schedule.
"""

from __future__ import annotations

import itertools
from typing import Optional

from crtk.crt_core import (
    CHECKS,
    OP_NAMES,
    OP_SPECS,
    PARTS,
    SLOT_OPS,
    SLOTS,
    backtrack,
    crt_isomorphic,
    is_acyclic,
    make_module,
    place,
    slot_of,
    verify_relations,
)
from crtk.kunneth import (
    _KEYS,
    _OPS,
    _SCHEDULE,
    KunnethProblem,
    KunnethSolution,
    _Assigned,
    _Search,
    split_check,
)
from crtk.zlinalg import (FinAbGroup, GroupHom, IntMatrix, commutation_rows, echelon_mod, hom_compose,
                          hom_coords, hom_matrix, identity_hom, kernel_lattice, solve_int)

from oracles import echelon_mod_dense, hom_group_elements, hom_preimage, solve_matrix_system


def full_boxes(p: KunnethProblem) -> dict[tuple[str, int], list[int]]:
    """Each hom_coord of each key's W at its order: the box that holds every candidate."""
    return {(name, n): [order for *_, order in hom_coords(p.tor.op(name, n - 1).domain,
                                                         p.tensor.op(name, n).codomain)]
            for name, n in _OPS}


def gauge_table_oracle(p: KunnethProblem) -> dict[tuple[str, int], Optional[frozenset[int]]]:
    """For each operation key of _KEYS, the candidate indices the orderly search visits.

    L spans the stabilizer of the keys before in gauge coordinates (the
    hom_coords of each slot's Hom(quot, sub)).  Candidate j is visited iff
    W_j is least (index order is lexicographic) in W_j + D(L), where
    D(h) = h_t.Q - P.h_s: iff each coordinate of W_j is below the pivot of
    echelon_mod(D(L)) there.  None if D(L) = 0, so all are visited.
    """
    homs = {slot: (p.quot(*slot), p.sub(*slot)) for slot in SLOTS}
    zero = {slot: [0] * len(hom_coords(*homs[slot])) for slot in SLOTS}
    gauge = [c for slot in SLOTS for c in hom_coords(*homs[slot])]
    L = IntMatrix.identity(len(gauge))
    table = dict.fromkeys(_OPS)
    for name, n in _OPS:
        src, tgt, shift = OP_SPECS[name]
        s, t = slot_of(src, n), slot_of(tgt, n + shift)
        P, Q = p.tensor.op(name, n), p.tor.op(name, n - 1)
        coords = hom_coords(Q.domain, P.codomain)
        orders = [order for *_, order in coords]
        # M = D.L, D in gauge coordinates (zero off slots s and t) read at the hom_coords
        # of the product D(h), a hom: its entry at a coordinate is a multiple of the step.
        D = {slot: commutation_rows(*homs[slot], Q.matrix if slot == t else None,
                                    P.matrix if slot == s else None) for slot in {s, t}}
        M = IntMatrix.from_rows(
            [[x // st for slot in SLOTS
              for x in (D[slot][r * Q.domain.ngens + c] if slot in D else zero[slot])]
             for r, c, st, _ in coords], cols=len(gauge)) * L

        pivots = [v[i] for i, v in enumerate(echelon_mod(M.columns(), orders))]
        if pivots == orders:
            continue
        table[(name, n)] = frozenset(j for j, w in enumerate(itertools.product(*map(range, orders)))
                                     if all(map(int.__lt__, w, pivots)))
        K = kernel_lattice(M.hstack(IntMatrix.diag(orders)))
        L = L * IntMatrix.from_rows(K.entries[:L.cols], cols=K.cols)
        # Entries modulo the gauge orders: D kills those multiples, and L stays small.
        L = IntMatrix.from_rows([[x % c[3] for x in row] for row, c in zip(L.entries, gauge)],
                                cols=L.cols)
    return table


class CheckEveryCopy(_Search):
    """The solver's search without gauge fixing, with every raw middle checked and kept."""

    def __init__(self, p: KunnethProblem, budget: int):
        super().__init__(p, budget)
        self._set_bounds(full_boxes(p))  # no gauge fixing: every candidate is built and tried

    def _holds(self, chk, n, view):
        return chk.holds(view, n)  # every visit decides its checks anew: no per-search verdicts

    def _finish(self, ops: dict):
        groups = {p: [self._k_group(p, n) for n in range(8)] for p in PARTS}
        mats = {name: [ops[(name, n)].matrix for n in range(8)] for name in OP_NAMES}
        try:
            middle = make_module(groups, mats)
        except ValueError:
            return
        if not verify_relations(middle).ok():
            return
        if not is_acyclic(middle).ok():
            return
        alpha = {(p, n): self._option(p, n)[1] for p in PARTS for n in range(8)}
        beta = {(p, n): self._option(p, n)[2] for p in PARTS for n in range(8)}
        self.solutions.append(KunnethSolution(middle, alpha, beta))


def instance_candidates_oracle(search: _Search, name: str, n: int) -> list[GroupHom]:
    """All candidates of the instance (name, n) under search's slot choice, from a matrix system."""
    src, tgt, shift = OP_SPECS[name]
    m = (n + shift) % 8
    Ks, a_s, b_s = search._option(src, n)
    Kt, a_t, b_t = search._option(tgt, m)
    P = search.p.tensor.op(name, n)
    Q = search.p.tor.op(name, n - 1)
    eqs = []
    rows, cols = Kt.ngens, Ks.ngens
    # well-definedness
    for i, e in enumerate(Kt.invariants):
        for j, d in enumerate(Ks.invariants):
            eqs.append(({(i, j): d}, 0, e))
    # theta . alpha_s = alpha_t . P
    B = a_t.matrix * P.matrix
    A = a_s.matrix
    for i, e in enumerate(Kt.invariants):
        for j in range(P.matrix.cols):
            coeffs = {(i, q): A.entries[q][j] for q in range(cols) if A.entries[q][j]}
            eqs.append((coeffs, B.entries[i][j], e))
    # beta_t . theta = Q . beta_s
    C = b_t.matrix
    D = Q.matrix * b_s.matrix
    for i, f in enumerate(search.p.tor.group(tgt, m - 1).invariants):
        for j in range(cols):
            coeffs = {(q, j): C.entries[i][q] for q in range(rows) if C.entries[i][q]}
            eqs.append((coeffs, D.entries[i][j], f))
    theta0 = solve_matrix_system(rows, cols, eqs)
    if theta0 is None:
        return []
    return [GroupHom(Ks, Kt, theta0 + a_t.matrix * W.matrix * b_s.matrix)
            for W in hom_group_elements(search.p.tor.group(src, n - 1), search.p.tensor.group(tgt, m))]


def solved_candidates_oracle(search: _Search, name: str, n: int) -> list[GroupHom]:
    """_Search._instance_candidates by its hom_coords solve alone, on every instance."""
    src, tgt, shift = OP_SPECS[name]
    Ks, a_s, b_s = search._option(src, n)
    Kt, a_t, b_t = search._option(tgt, n + shift)
    P, Q = search.p.tensor.op(name, n), search.p.tor.op(name, n - 1)
    ncoords = len(hom_coords(Ks, Kt))
    A = IntMatrix.from_rows(commutation_rows(Ks, Kt, right=a_s.matrix)
                            + commutation_rows(Ks, Kt, left=-b_t.matrix), cols=ncoords)
    A = A.hstack(IntMatrix.diag([e for e in Kt.invariants for _ in range(P.matrix.cols)]
                                + [f for f in b_t.codomain.invariants for _ in range(Ks.ngens)]))
    x0 = solve_int(A, [x for rhs in (a_t.matrix * P.matrix, Q.matrix * b_s.matrix)
                       for row in rhs.entries for x in row])
    if x0 is None:
        return []
    theta0, quot, sub = hom_matrix(Ks, Kt, x0[:ncoords]), Q.domain, P.codomain
    return [GroupHom(Ks, Kt, theta0 + a_t.matrix * hom_matrix(quot, sub, w) * b_s.matrix)
            for w in itertools.product(*(range(order) for *_, order in hom_coords(quot, sub)))]


def _slot_gauge(option, sub: FinAbGroup, quot: FinAbGroup) -> list[tuple[GroupHom, GroupHom]]:
    """(u, u^-1) for the automorphisms u = 1 + alpha.h.beta of K, h in Hom(quot, sub).

    u fixes alpha and beta, and u^-1 = 1 - alpha.h.beta because beta.alpha = 0.
    Index i is the i-th element of hom_group_elements(quot, sub); index 0 is the identity.
    """
    K, alpha, beta = option
    one = identity_hom(K)
    out = [(one, one)]
    for h in hom_group_elements(quot, sub)[1:]:
        d = hom_compose(alpha, hom_compose(h, beta))
        out.append((one + d, one - d))
    return out


class EnumeratedGauge(_Search):
    """The solver with its gauge group listed and each stabilizer filtered element by element.

    It runs over _KEYS as the solver does.  Every candidate is built and
    ticked; skipped counts those not first in their gauge orbit.  The
    gauge group is a list of index tuples, one index per slot into
    hom_group_elements(quot, sub), whose length does not depend on the
    slot's option; an element acts on an instance through _slot_gauge of
    the options of its two slots, both chosen before it.
    """

    def __init__(self, p: KunnethProblem, budget: int):
        super().__init__(p, budget)
        self._set_bounds(full_boxes(p))
        self.skipped = 0

    def run(self):
        ops = self._choice
        view = _Assigned(ops, self._k_group)
        slot_index = {slot: i for i, slot in enumerate(SLOTS)}
        gauges, index, images = {}, {}, {}

        def gauge(slot):
            option = ops[slot]
            if id(option) not in gauges:
                gauges[id(option)] = _slot_gauge(option, self.p.sub(*slot), self.p.quot(*slot))
            return gauges[id(option)]

        def stabilizer(key, cand, j, H):
            """The g in H fixing candidate j, or None if some g in H maps it to a smaller index."""
            name, n = key
            src, tgt, shift = OP_SPECS[name]
            s_slot, t_slot = slot_of(src, n), slot_of(tgt, n + shift)
            s, t = slot_index[s_slot], slot_index[t_slot]
            u_s, u_t = gauge(s_slot), gauge(t_slot)
            where = index.setdefault(id(cand), {h.matrix.entries: i for i, h in enumerate(cand)})
            fixed = []
            for g in H:
                img = images.get((id(cand), j, g[s], g[t]))
                if img is None:
                    moved = hom_compose(u_t[g[t]][0], hom_compose(cand[j], u_s[g[s]][1]))
                    img = where.get(moved.matrix.entries)
                    if img is None:
                        raise RuntimeError(f"gauge image of a {name}_{n} candidate is not a candidate")
                    images[(id(cand), j, g[s], g[t])] = img
                if img < j:
                    return None
                if img == j:
                    fixed.append(g)
            return fixed

        def rec(i, H):
            if i == len(_KEYS):
                yield ops
                return
            key = _KEYS[i]
            if key in self.slot_options:
                for option in self.slot_options[key]:
                    self._tick(key)
                    ops[key] = option
                    yield from rec(i + 1, H)
                ops.pop(key, None)
                return
            cand = self._instance_candidates(*key)
            for j, h in enumerate(cand):
                self._tick(key)
                H_next = H if len(H) == 1 else stabilizer(key, cand, j, H)
                if H_next is None:
                    self.skipped += 1
                    continue
                ops[key] = h
                if key[0] == "eps":
                    ops[("psiT", key[1])] = self._derive_psiT(ops, key[1])
                if all(chk.holds(view, n) for chk, n in _SCHEDULE[key]):
                    yield from rec(i + 1, H_next)
            ops.pop(key, None)

        orders = [len(hom_group_elements(self.p.quot(*slot), self.p.sub(*slot))) for slot in SLOTS]
        for full in rec(0, list(itertools.product(*map(range, orders)))):
            self._finish(full)
        return self.solutions


# The operation order of TwoStageSearch; psiT is derived from eps.r.zeta - 1.
_OP_ORDER = [(name, n) for name in ("zeta", "gamma", "psiU", "c", "r", "tau", "eps")
             for n in range(8)]
# Each (check, degree) of crt_core.CHECKS at the operation of _OP_ORDER that completes it.
_OP_SCHEDULE = place(_OP_ORDER, (((chk, n), [("eps" if name == "psiT" else name, (n + off) % 8)
                                             for name, off in chk.reads])
                                 for chk in CHECKS if chk.name != "eps.r.zeta=1+psiT" for n in range(8)))


def gauge_table_rows_oracle(p: KunnethProblem, keys) -> dict[tuple[str, int], list[int]]:
    """kunneth._gauge_table over the operation keys given, its rows assembled as first written.

    Each key's rows are the commutation_rows of its two slots' gauge
    coordinates, read at the hom_coords of the key's W and divided by
    their steps, instead of crt_core.commutation_map's image.
    """
    homs = {slot: (p.quot(*slot), p.sub(*slot)) for slot in SLOTS}
    zero = {slot: [0] * len(hom_coords(*homs[slot])) for slot in SLOTS}
    rows, orders, sizes = [], [], []
    for name, n in keys:
        src, tgt, shift = OP_SPECS[name]
        s, t = slot_of(src, n), slot_of(tgt, n + shift)
        P, Q = p.tensor.op(name, n), p.tor.op(name, n - 1)
        coords = hom_coords(Q.domain, P.codomain)
        D = {slot: commutation_rows(*homs[slot], Q.matrix if slot == t else None,
                                    P.matrix if slot == s else None) for slot in {s, t}}
        rows += [[x // st for slot in SLOTS
                  for x in (D[slot][r * Q.domain.ngens + c] if slot in D else zero[slot])]
                 for r, c, st, _ in coords]
        orders += [order for *_, order in coords]
        sizes.append(len(coords))
    pivots = iter([v[i] for i, v in enumerate(echelon_mod_dense(list(zip(*rows)), orders))])
    return {key: list(itertools.islice(pivots, size)) for key, size in zip(keys, sizes)}


class TwoStageSearch(_Search):
    """The Kunneth search as two nested backtracks: all slots first, then the operations.

    The slot stage prunes a slot choice as soon as some operation instance
    between assigned slots has no candidate (SLOT_OPS); every instance of
    a full choice thus has one.  The operation stage assigns each key of
    _OP_ORDER its candidates, inside the box gauge_table_rows_oracle gives
    over _OP_ORDER, and prunes with the checks _OP_SCHEDULE places there.
    """

    def __init__(self, p: KunnethProblem, budget: int):
        super().__init__(p, budget)
        self._set_bounds(gauge_table_rows_oracle(p, _OP_ORDER))

    def run(self):
        # A slot fits when every instance it completes has a candidate (psiT is derived, not searched).
        for _ in backtrack(SLOTS, self.slot_options.__getitem__,
                           lambda slot: all(name == "psiT" or self._instance_candidates(name, n)
                                            for name, n in SLOT_OPS[slot]),
                           self._choice, self._tick):
            self._op_stage()
        return self.solutions

    def _op_stage(self):
        ops: dict[tuple[str, int], GroupHom] = {}
        view = _Assigned(ops, self._k_group)
        cand = {key: self._instance_candidates(*key) for key in _OP_ORDER}

        def fits(key) -> bool:
            name, n = key
            if name == "eps":  # a psiT_n left by backtracking is never read: its checks come at eps_n or later
                triple = (id(ops[key]), id(ops[("r", n)]), id(ops[("zeta", n)]))
                if (psiT := self._psiT.get(triple)) is None:
                    psiT = self._psiT[triple] = self._derive_psiT(ops, n)
                ops[("psiT", n)] = psiT
            return all(self._holds(chk, m, view) for chk, m in _OP_SCHEDULE[key])

        for full in backtrack(_OP_ORDER, cand.__getitem__, fits, ops, self._tick):
            self._finish(full)


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
