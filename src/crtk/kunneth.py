"""The Kunneth extension problem.

Given the tensor and Tor of a pair, the middle module K fits degreewise
extensions 0 -> tensor_n -> K_n -> tor_{n-1} -> 0 where the injection is
a CRT-morphism and the surjection a CRT-morphism of degree -1, and K must
satisfy the relations and be acyclic.  The solver writes down the
extensions of each slot (one slot per stored period: 8 real, 2 complex,
4 self-conjugate) directly, one per class of Ext^1(tor_{n-1}, tensor_n),
each with its extension maps, and backtracks over them and the
operation matrices together.  For each operation instance the
intertwining conditions are affine congruences in the hom_coords of the
operation (written by zlinalg.commutation_rows, as are the gauge
table's and crt_core's isomorphism systems): one particular solution is
found by exact linear algebra, and the ambiguity is exactly
alpha . W . beta for W ranging over the finite group
Hom(tor_{n-1}, tensor_m), listed by its own hom_coords, so the
aggregate search space is small.  An instance whose
source or target slot has a trivial middle group K needs no algebra: its
only candidate is the zero map, which intertwines (both sides of each
condition pass through the trivial group).  The search is pruned
further by every relation and exactness node of crt_core.CHECKS, each
in each degree, at the operation that completes it; a full assignment
therefore is an acyclic CRT-module, and no final suite runs on it.
The search is one crt_core.backtrack, the engine of the isomorphism
search too, over one key order (_KEYS): each slot, then the operation
instances that one rule (crt_core.place) puts at the later of their two
slots, so an instance is searched as soon as both its slots are chosen.
The same rule puts each check at the last operation it reads.  An
instance with no candidate has no options, so it prunes the slot
options before it by itself.  A search lists the candidates of
an instance once per pair of slot options and decides each check once
for each degree and set of operands, options and operands keyed by
identity (every one lives for the whole search).

The operation search is gauge-fixed.  For a slot with extension maps
alpha, beta, the automorphisms u = 1 + alpha.h.beta of K (h in
Hom(tor_{n-1}, tensor_n)) fix both maps, so their product G over the
slots maps middles to CRT-isomorphic middles, and every pruning check
gives the same answer on a candidate and on its image.  As beta.alpha = 0,
u_t.theta.u_s^-1 moves the candidate at W to the one at W + h_t.Q - P.h_s
(P, Q the tensor and Tor operations) for every slot choice.  These moves
form one subgroup D(G) of the W coordinates of all operation instances,
the same for every slot choice, and one echelon form of it
(_gauge_table) bounds each coordinate: the W below every bound are
exactly those first in their orbit under the stabilizer of the
operations before.  The search builds only the candidates in that box
("orderly" search), so it reaches the first copy of each G-orbit, and
every node is a candidate it tries.

All consistent middles are returned, deduplicated up to CRT-isomorphism
as they arrive; the dedup still catches isomorphisms outside G.  Each
distinct problem is solved once per process (solve_middle).
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, replace
from math import gcd
from typing import Callable, Optional

from .crt_core import (
    CHECKS,
    BudgetExceeded,
    CRTModule,
    Check,
    Morphism,
    OP_NAMES,
    OP_SPECS,
    PARTS,
    SLOTS,
    SLOT_OPS,
    backtrack,
    crt_isomorphic,
    direct_sum,
    make_module,
    module_to_json,
    place,
    slot_of,
    suspend,
    verify_relations,
)
from .zlinalg import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    Zmod,
    commutation_rows,
    echelon_mod,
    fin_ab_tensor,
    fin_ab_tor,
    hom_compose,
    hom_coords,
    hom_matrix,
    identity_hom,
    layout,
    solve_int,
)

log = logging.getLogger("crtk")


@dataclass(eq=False)
class KunnethProblem:
    """K_n is an extension of tor_{n-1} by tensor_n, degreewise."""

    tensor: CRTModule
    tor: CRTModule

    def __post_init__(self):
        if not (self.tensor.all_finite() and self.tor.all_finite()):
            raise ValueError("the extension solver requires finite parts")
        for name, M in (("tensor", self.tensor), ("Tor", self.tor)):
            if not (rep := verify_relations(M)).ok():  # run once per module value
                raise ValueError(f"{name} fails relations: {rep}")

    def sub(self, part: str, n: int) -> FinAbGroup:
        return self.tensor.group(part, n)

    def quot(self, part: str, n: int) -> FinAbGroup:
        return self.tor.group(part, n - 1)


@dataclass(eq=False)
class KunnethSolution:
    middle: CRTModule
    alpha: Morphism
    beta: Morphism
    split: Optional[bool] = None


def _extension_options(sub: FinAbGroup, quot: FinAbGroup):
    """One (K, alpha, beta) per class of Ext^1(quot, sub); both groups finite.

    With sub = (+) Z_{s_j} and quot = (+) Z_{q_i}, Ext^1 is (+) Z_{gcd(q_i, s_j)}.
    The class c is realised by generators e_j, f_i with relations
    s_j e_j = 0 and q_i f_i + sum_j c_{ji} e_j = 0, i.e. K is the cokernel
    of [[diag s, C], [0, diag q]]; alpha reads off the e_j and beta the f_i.
    Equivalent extensions (related by an automorphism of K fixing both
    ends) are the same class, so the options are distinct up to Aut(K).
    """
    s, q = sub.torsion, quot.torsion
    ns, n = len(s), len(s) + len(q)
    options = []
    for c in itertools.product(*(range(gcd(qi, sj)) for sj in s for qi in q)):
        rels = [[0] * n for _ in range(n)]
        for j, sj in enumerate(s):
            rels[j][j] = sj
        for i, qi in enumerate(q):
            rels[ns + i][ns + i] = qi
            for j in range(ns):
                rels[j][ns + i] = c[j * len(q) + i]
        lay = layout(IntMatrix.from_rows(rels, cols=n))
        K = lay.group
        alpha = GroupHom(sub, K, IntMatrix.from_rows([row[:ns] for row in lay.proj.entries], cols=ns))
        beta = GroupHom(K, quot, IntMatrix.from_rows(lay.reps.entries[ns:], cols=K.ngens))
        options.append((K, alpha, beta))
    return options


# The search order: each slot, then the operation instances SLOT_OPS puts there.  psiT_n is
# derived when eps_n is assigned (r_n and zeta_n come before it), so it is not a key.
_KEYS = [key for slot in SLOTS for key in [slot, *(op for op in SLOT_OPS[slot] if op[0] != "psiT")]]
_OPS = [key for key in _KEYS if key[0] in OP_SPECS]
# Each (check, degree) of crt_core.CHECKS at the operation that completes it; a read of
# psiT_n counts as eps_n.  _derive_psiT defines psiT_n as eps_n.r_n.zeta_n - 1, so
# eps.r.zeta=1+psiT always holds and is left out.
_SCHEDULE = place(_KEYS, (((chk, n), [("eps" if name == "psiT" else name, (n + off) % 8)
                                      for name, off in chk.reads])
                          for chk in CHECKS if chk.name != "eps.r.zeta=1+psiT" for n in range(8)))


class _Assigned:
    """A partial operation assignment seen through the two methods CHECKS use."""

    def __init__(self, ops: dict[tuple[str, int], GroupHom], group: Callable[[str, int], FinAbGroup]):
        self._ops = ops
        self.group = group

    def op(self, name: str, n: int) -> GroupHom:
        try:
            return self._ops[(name, n % 8)]
        except KeyError:
            raise LookupError(f"{name}_{n % 8} is not assigned yet") from None


def _gauge_table(p: KunnethProblem) -> dict[tuple[str, int], list[int]]:
    """For each operation key of _KEYS, the bound of each hom_coord of its W: the box the search visits.

    The gauge group, the hom_coords of each slot's Hom(quot, sub), moves
    the W coordinates of all operation keys at once, in _KEYS order, by
    D(h) = h_t.Q - P.h_s.  W of a key is least (lexicographically) in its
    orbit under the stabilizer of the keys before iff each coordinate is
    below the pivot of echelon_mod(D) there: the elements of D's image
    that vanish before a coordinate take exactly the multiples of its pivot.
    """
    homs = {slot: (p.quot(*slot), p.sub(*slot)) for slot in SLOTS}
    zero = {slot: [0] * len(hom_coords(*homs[slot])) for slot in SLOTS}
    rows, orders, sizes = [], [], []
    for name, n in _OPS:
        src, tgt, shift = OP_SPECS[name]
        s, t = slot_of(src, n), slot_of(tgt, n + shift)
        P, Q = p.tensor.op(name, n), p.tor.op(name, n - 1)
        coords = hom_coords(Q.domain, P.codomain)
        # D in gauge coordinates (zero off slots s and t) read at the hom_coords of the
        # product D(h), a hom: its entry at a coordinate is a multiple of the step.
        D = {slot: commutation_rows(*homs[slot], Q.matrix if slot == t else None,
                                    P.matrix if slot == s else None) for slot in {s, t}}
        rows += [[x // st for slot in SLOTS
                  for x in (D[slot][r * Q.domain.ngens + c] if slot in D else zero[slot])]
                 for r, c, st, _ in coords]
        orders += [order for *_, order in coords]
        sizes.append(len(coords))
    pivots = iter([v[i] for i, v in enumerate(echelon_mod(list(zip(*rows)), orders))])
    return {key: list(itertools.islice(pivots, size)) for key, size in zip(_OPS, sizes)}


class _Search:
    """One Kunneth solve: one crt_core.backtrack over _KEYS, counting its nodes against the budget.

    A slot key takes the slot's extension options, an operation key the
    candidates of the instance under its two slots' options (an empty list
    when there are none); the checks _SCHEDULE places at an operation
    prune there.  Only the candidates in the gauge table's box are ever
    built, so a node is a candidate the search tries.
    """

    def __init__(self, p: KunnethProblem, budget: int):
        self.p = p
        self.budget = budget
        self.nodes = 0
        self.raw = 0        # middles reaching _finish
        self.solutions: list[KunnethSolution] = []
        self._choice: dict = {}  # slot -> (K, alpha, beta); instance -> operation matrix
        self._cand_cache: dict[tuple, list[GroupHom]] = {}
        # Per-search memos keyed by ids (slot_options keeps every option alive, _cand_cache and
        # _psiT every operand): candidates per (instance, slot options), psiT per (eps, r, zeta),
        # and each verdict per (check, degree, operands).
        self._psiT: dict[tuple[int, int, int], GroupHom] = {}
        self._verdicts: dict[tuple, bool] = {}
        self.bounds = _gauge_table(p)  # the gauge box: per key, a bound on each hom_coord of W
        self.slot_options = {slot: _extension_options(p.sub(*slot), p.quot(*slot))
                             for slot in SLOTS}

    def run(self):
        choice = self._choice
        view = _Assigned(choice, self._k_group)

        def options(key):
            return self.slot_options[key] if key in self.slot_options else self._instance_candidates(*key)

        def fits(key) -> bool:
            name, n = key
            if name == "eps":  # a psiT_n left by backtracking is never read: its checks come at eps_n or later
                triple = (id(choice[key]), id(choice[("r", n)]), id(choice[("zeta", n)]))
                if (psiT := self._psiT.get(triple)) is None:
                    psiT = self._psiT[triple] = self._derive_psiT(choice, n)
                choice[("psiT", n)] = psiT
            return all(self._holds(chk, m, view) for chk, m in _SCHEDULE[key])

        for full in backtrack(_KEYS, options, fits, choice, self._tick):
            self._finish(full)
        return self.solutions

    def _tick(self, key):
        self.nodes += 1
        if self.nodes > self.budget:
            stage = "slot" if key in self.slot_options else "operation"
            raise BudgetExceeded(
                f"Kunneth search budget exceeded in the {stage} stage after "
                f"{self.nodes} nodes ({self.raw} raw middles, "
                f"{len(self.solutions)} classes kept)")

    def _option(self, part, n) -> tuple[FinAbGroup, GroupHom, GroupHom]:
        """(K, alpha, beta) of the chosen extension at (part, n)."""
        return self._choice[slot_of(part, n)]

    def _k_group(self, part, n) -> FinAbGroup:
        return self._option(part, n)[0]

    def _instance_candidates(self, name: str, n: int) -> list[GroupHom]:
        """The operation matrices satisfying the intertwining constraints, inside the gauge box.

        theta0 solves theta.alpha_s = alpha_t.P and beta_t.theta = Q.beta_s in
        the hom_coords of Hom(Ks, Kt); the candidates are theta0 + alpha_t.W.beta_s
        for the W of Hom(quot, sub) whose hom_coords lie below self.bounds, in
        lexicographic order of those coordinates.  No W outside the box is built.
        """
        src, tgt, shift = OP_SPECS[name]
        opt_s, opt_t = self._option(src, n), self._option(tgt, n + shift)
        cache_key = (name, n, id(opt_s), id(opt_t))
        hit = self._cand_cache.get(cache_key)
        if hit is not None:
            return hit
        (Ks, a_s, b_s), (Kt, a_t, b_t) = opt_s, opt_t
        P = self.p.tensor.op(name, n)
        Q = self.p.tor.op(name, n - 1)
        if Ks.is_trivial() or Kt.is_trivial():
            # Hom(Ks, Kt) is the zero map alone, and every square through a trivial group commutes.
            out = self._cand_cache[cache_key] = [GroupHom(Ks, Kt, IntMatrix.zeros(Kt.ngens, Ks.ngens))]
            return out
        # Rows mod Kt's invariants, then mod Tor's; the hom_coords parametrise Hom(Ks, Kt) exactly.
        ncoords = len(hom_coords(Ks, Kt))
        A = IntMatrix.from_rows(commutation_rows(Ks, Kt, right=a_s.matrix)
                                + commutation_rows(Ks, Kt, left=-b_t.matrix), cols=ncoords)
        A = A.hstack(IntMatrix.diag([e for e in Kt.invariants for _ in range(P.matrix.cols)]
                                    + [f for f in b_t.codomain.invariants for _ in range(Ks.ngens)]))
        x0 = solve_int(A, [x for rhs in (a_t.matrix * P.matrix, Q.matrix * b_s.matrix)
                           for row in rhs.entries for x in row])
        out = []
        if x0 is not None:
            # W -> alpha_t.W.beta_s is injective (alpha_t is, and beta_s is onto): no repeats.
            theta0, quot, sub = hom_matrix(Ks, Kt, x0[:ncoords]), Q.domain, P.codomain
            out = [GroupHom(Ks, Kt, theta0 + a_t.matrix * hom_matrix(quot, sub, w) * b_s.matrix)
                   for w in itertools.product(*map(range, self.bounds[(name, n)]))]
        self._cand_cache[cache_key] = out
        return out

    def _holds(self, chk: Check, n: int, view: _Assigned) -> bool:
        """chk.holds(view, n), decided once per search for each set of operands; errors are not stored."""
        key = (chk, n, *(id(view.op(name, n + off)) for name, off in chk.reads))
        if (verdict := self._verdicts.get(key)) is None:
            verdict = self._verdicts[key] = chk.holds(view, n)
        return verdict

    def _derive_psiT(self, ops, n: int) -> GroupHom:
        """psiT_n = eps_n r_n zeta_n - 1; it intertwines as eps, r, zeta do (KunnethProblem checks the relation)."""
        h = hom_compose(ops[("eps", n)], hom_compose(ops[("r", n)], ops[("zeta", n)]))
        return h - identity_hom(self._k_group("T", n))

    def _finish(self, ops: dict):
        self.raw += 1
        groups = {p: [self._k_group(p, n) for n in range(8)] for p in PARTS}
        mats = {name: [ops[(name, n)].matrix for n in range(8)] for name in OP_NAMES}
        middle = make_module(groups, mats)
        if any(crt_isomorphic(middle, sol.middle) is not None for sol in self.solutions):
            return
        alpha = {(p, n): self._option(p, n)[1] for p in PARTS for n in range(8)}
        beta = {(p, n): self._option(p, n)[2] for p in PARTS for n in range(8)}
        self.solutions.append(KunnethSolution(middle, alpha, beta))


# Kept solutions with their split flags, by (tensor, tor, budget); filled by solve_middle.
_SOLVED: dict[tuple[CRTModule, CRTModule, int], list[KunnethSolution]] = {}


def solve_middle(p: KunnethProblem, budget: int = 5_000_000) -> list[KunnethSolution]:
    """All middles K for the extension problem, up to CRT-isomorphism.

    The operation search builds and tries only the first copy of each
    gauge orbit, the candidates in the problem's gauge box (module
    docstring), and keeps the first middle of each class in arrival
    order.  Raises BudgetExceeded when the node budget runs out; an empty
    result for a pair the tables cover signals a transcription error
    upstream.

    The search is a deterministic function of (p.tensor, p.tor, budget),
    so it runs once per distinct value of these in a process; a repeat
    reuses its result.  Every call returns fresh KunnethSolution objects
    and logs one DEBUG record.  BudgetExceeded is raised, never stored.
    """
    key = (p.tensor, p.tor, budget)
    kept = _SOLVED.get(key)
    if kept is None:
        search = _Search(p, budget)
        kept = search.run()
        for sol in kept:
            sol.split = split_check(sol, p)
        _SOLVED[key] = kept
        log.debug("Kunneth search: %d nodes, %d raw middles, %d kept",
                  search.nodes, search.raw, len(kept))
    else:
        log.debug("Kunneth search: reused the solve of an equal problem, %d kept", len(kept))
    return [replace(sol, alpha=dict(sol.alpha), beta=dict(sol.beta)) for sol in kept]


def split_model(p: KunnethProblem) -> CRTModule:
    """The split candidate: tensor ⊕ (tor shifted up one degree)."""
    return direct_sum(p.tensor, suspend(p.tor, 1))


def split_check(sol: KunnethSolution, p: KunnethProblem) -> bool:
    """Does the middle agree with tensor ⊕ shifted Tor up to isomorphism?"""
    return crt_isomorphic(sol.middle, split_model(p)) is not None


def classical_complex_kunneth(k: int, l: int) -> list[FinAbGroup]:
    """KU of the product of two Cuntz modules by the classical cyclic formula.

    Independent of the CRT machinery: the complex parts are Z_k and Z_l in
    even degrees, so even degrees carry the tensor and odd degrees the Tor
    of cyclic groups.
    """
    out = []
    for n in range(8):
        if n % 2 == 0:
            out.append(fin_ab_tensor(Zmod(k), Zmod(l)))
        else:
            out.append(fin_ab_tor(Zmod(k), Zmod(l)))
    return out


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


class MultipleMiddles(RuntimeError):
    """More than one class of middles survives for a table-covered pair.

    middles holds one middle per class; the message lists them as module JSON.
    """

    def __init__(self, middles: tuple[CRTModule, ...]):
        payload = json.dumps([module_to_json(M) for M in middles], indent=1)
        super().__init__(
            "multiple non-isomorphic middles survive for a table-covered pair; "
            "this contradicts the printed determination and needs review:\n" + payload)
        self.middles = middles


@dataclass(eq=False)
class KunnethReport:
    name_a: str
    name_b: str
    k: int
    l: int
    tensor: CRTModule
    tor: CRTModule
    solutions: list[KunnethSolution]
    expected: Optional[CRTModule]
    matches_expected: list[bool]
    split: Optional[bool]

    def ok(self) -> bool:
        if not self.solutions:
            return False
        if self.expected is not None and not all(self.matches_expected):
            return False
        return True


def kunneth_pipeline(name_a: str, name_b: str, budget: int = 5_000_000) -> KunnethReport:
    """Catalog pair -> resolution -> tensor/Tor -> middle solutions -> report."""
    from .catalog import catalog_entry, cuntz_module, cuntz_parameter, expected_product
    from .tensor import tensor_and_tor

    ent_a = catalog_entry(name_a)
    l = cuntz_parameter(name_b)
    if ent_a.resolution is None:
        raise ValueError(f"{name_a} has no resolution in the catalog")
    k = ent_a.params["k"]
    if l is None:
        raise ValueError(f"{name_b} is not a Cuntz entry")
    tp = tensor_and_tor(ent_a.resolution, cuntz_module(l))
    problem = KunnethProblem(tp.tensor, tp.tor)
    solutions = solve_middle(problem, budget=budget)
    if len(solutions) > 1:
        raise MultipleMiddles(tuple(s.middle for s in solutions))
    expected = expected_product(k, l)
    matches = [crt_isomorphic(s.middle, expected) is not None for s in solutions]
    split = solutions[0].split if solutions else None
    return KunnethReport(name_a, name_b, k, l, tp.tensor, tp.tor,
                         solutions, expected, matches, split)
