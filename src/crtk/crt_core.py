"""CRT-modules: three periodic graded groups with eight operations.

A CRT-module is stored over the common degree window 0..7 with the Bott
elements acting as the identity: the real part repeats with period 8, the
complex part with period 2 and the self-conjugate part with period 4.
Under this convention every defining relation, including the four
Bott-commutation constraints, becomes a finite matrix identity between
stored operation matrices, and the three long exact sequences become 72
concrete exactness checks.  One table, CHECKS, holds the 21 relations and
the 9 exactness nodes, each instantiated in the eight stored degrees:
verify_relations and is_acyclic iterate it, and the Kunneth search prunes
with it.  Each suite runs once per distinct module value in a process
(failures cached by module and suite); every call gets a fresh report.

Operation families (domain part, codomain part, degree shift):

    c: O->U    r: U->O    eps: O->T     zeta: T->U
    psiU: U->U             psiT: T->T
    gamma: U->T, degree -1            tau: T->O, degree +1
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .zlinalg import (
    CompositionError,
    FinAbGroup,
    GroupHom,
    IntMatrix,
    ZERO_GROUP,
    _quotient_data,
    checked_entries,
    echelon_mod,
    hom_compose,
    hom_coords,
    hom_scale,
    identity_hom,
    is_automorphism,
    is_exact_at,
    kernel_lattice,
    solve_int,
)

PARTS = ("O", "U", "T")
PART_PERIOD = {"O": 8, "U": 2, "T": 4}
# One stored degree per period of each part: 2 complex, 4 self-conjugate, 8 real.
SLOTS = [(p, n) for p in ("U", "T", "O") for n in range(PART_PERIOD[p])]


def slot_of(part: str, n: int) -> tuple[str, int]:
    return (part, n % PART_PERIOD[part])


# name -> (source part, target part, degree shift of the target)
OP_SPECS: dict[str, tuple[str, str, int]] = {
    "c": ("O", "U", 0),
    "r": ("U", "O", 0),
    "eps": ("O", "T", 0),
    "zeta": ("T", "U", 0),
    "psiU": ("U", "U", 0),
    "psiT": ("T", "T", 0),
    "gamma": ("U", "T", -1),
    "tau": ("T", "O", 1),
}
OP_NAMES = tuple(OP_SPECS)
_OP_INDEX = {name: i for i, name in enumerate(OP_NAMES)}
_PART_FIELD = {"O": "MO", "U": "MU", "T": "MT"}


def _slot_ops() -> dict[tuple[str, int], list[tuple[str, int]]]:
    """Each (op, degree) instance at the later, in SLOTS order, of its two endpoint slots."""
    out: dict[tuple[str, int], list[tuple[str, int]]] = {slot: [] for slot in SLOTS}
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for n in range(8):
            out[max(slot_of(src, n), slot_of(tgt, n + shift), key=SLOTS.index)].append((name, n))
    return out


SLOT_OPS = _slot_ops()


def search_slots(options: Callable[[tuple[str, int]], Iterable], fits: Callable[[str, int], bool],
                 choice: dict, tick: Callable[[], None]) -> Iterator[dict]:
    """Backtrack over SLOTS, assigning choice[slot] from options(slot) in order.

    tick() runs once per candidate tried.  The search descends past a slot
    only when fits(name, n) holds for every instance of SLOT_OPS[slot], so
    fits may read choice at both endpoint slots.  The generator yields
    choice itself, once per full assignment.
    """
    def rec(k: int) -> Iterator[dict]:
        if k == len(SLOTS):
            yield choice
            return
        slot = SLOTS[k]
        for opt in options(slot):
            tick()
            choice[slot] = opt
            if all(fits(name, n) for name, n in SLOT_OPS[slot]):
                yield from rec(k + 1)
        choice.pop(slot, None)

    return rec(0)


class BudgetExceeded(RuntimeError):
    """A bounded search ran out of its node budget."""


@dataclass(frozen=True)
class GradedPart:
    """Eight stored groups with groups[n] == groups[n mod period]."""

    period: int
    groups: tuple[FinAbGroup, ...]

    def __post_init__(self):
        if self.period not in (8, 2, 4):
            raise ValueError("period must be 8, 2 or 4")
        if len(self.groups) != 8:
            raise ValueError("a graded part stores exactly 8 groups")
        for n in range(8):
            if self.groups[n] != self.groups[n % self.period]:
                raise ValueError(f"periodicity violated at degree {n}")

    def group(self, n: int) -> FinAbGroup:
        return self.groups[n % 8]


@dataclass(frozen=True)
class CRTModule:
    """Immutable CRT-module over the 0..7 window."""

    MO: GradedPart
    MU: GradedPart
    MT: GradedPart
    ops: tuple[tuple[GroupHom, ...], ...]  # indexed by OP_NAMES order, then degree

    def __post_init__(self):
        if (self.MO.period, self.MU.period, self.MT.period) != (8, 2, 4):
            raise ValueError("parts must have periods (8, 2, 4)")
        if len(self.ops) != len(OP_NAMES):
            raise ValueError("expected one family per operation")
        for name, fam in zip(OP_NAMES, self.ops):
            if len(fam) != 8:
                raise ValueError(f"operation {name} needs 8 degrees")
            src, tgt, shift = OP_SPECS[name]
            for n, h in enumerate(fam):
                G = self.group(src, n)
                if h.domain is not G and h.domain != G:
                    raise ValueError(f"{name}_{n} domain mismatch")
                G = self.group(tgt, n + shift)
                if h.codomain is not G and h.codomain != G:
                    raise ValueError(f"{name}_{n} codomain mismatch")

    def part(self, part: str) -> GradedPart:
        return getattr(self, _PART_FIELD[part])

    def group(self, part: str, n: int) -> FinAbGroup:
        return getattr(self, _PART_FIELD[part]).groups[n % 8]

    def op(self, name: str, n: int) -> GroupHom:
        return self.ops[_OP_INDEX[name]][n % 8]

    def is_zero(self) -> bool:
        return all(self.group(p, n).is_trivial() for p in PARTS for n in range(8))

    def all_finite(self) -> bool:
        return all(self.group(p, n).is_finite() for p in PARTS for n in range(8))

    def __hash__(self) -> int:  # the value is frozen: hash its fields once
        if (h := self.__dict__.get("_hash")) is None:
            h = self.__dict__["_hash"] = hash((self.MO, self.MU, self.MT, self.ops))
        return h


def make_module(groups: Mapping[str, Sequence[FinAbGroup]],
                op_matrices: Mapping[str, Sequence[IntMatrix]]) -> CRTModule:
    """Assemble a module from groups per part and raw operation matrices."""
    parts = {p: GradedPart(PART_PERIOD[p], tuple(groups[p])) for p in PARTS}
    fams = []
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        fam = []
        for n in range(8):
            dom = parts[src].group(n)
            cod = parts[tgt].group(n + shift)
            fam.append(GroupHom(dom, cod, op_matrices[name][n]))
        fams.append(tuple(fam))
    return CRTModule(parts["O"], parts["U"], parts["T"], tuple(fams))


def zero_module() -> CRTModule:
    g = {p: [ZERO_GROUP] * 8 for p in PARTS}
    m = {name: [IntMatrix.zeros(0, 0)] * 8 for name in OP_NAMES}
    return make_module(g, m)


# ---------------------------------------------------------------------------
# Derived maps (computed, never stored)
# ---------------------------------------------------------------------------


def eta_O(M: CRTModule, n: int) -> GroupHom:
    """tau . eps : MO_n -> MO_{n+1}."""
    return hom_compose(M.op("tau", n), M.op("eps", n))


def eta_O_sq(M: CRTModule, n: int) -> GroupHom:
    return hom_compose(eta_O(M, n + 1), eta_O(M, n))


def eta_T(M: CRTModule, n: int) -> GroupHom:
    """gamma . betaU . zeta : MT_n -> MT_{n+1} (betaU is the window shift)."""
    return hom_compose(M.op("gamma", n + 2), M.op("zeta", n))


def xi(M: CRTModule, n: int) -> GroupHom:
    """r . betaU^2 . c : MO_n -> MO_{n+4}."""
    return hom_compose(M.op("r", n + 4), M.op("c", n))


def omega(M: CRTModule, n: int) -> GroupHom:
    """betaT . gamma . zeta : MT_n -> MT_{n+3} (stored target at n-1)."""
    return hom_compose(M.op("gamma", n), M.op("zeta", n))


def one_minus_psiU(M: CRTModule, n: int) -> GroupHom:
    return identity_hom(M.group("U", n)) - M.op("psiU", n)


# ---------------------------------------------------------------------------
# The relation table: every defining relation and every exactness node
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of a relation or exactness suite; empty failures = pass."""

    failures: list[tuple[str, int]] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        if self.ok():
            return "pass"
        return "; ".join(f"{name}@{n}" for name, n in self.failures)


@dataclass(frozen=True)
class Check:
    """One relation or exactness node, instantiated at each window degree n.

    holds(M, n) reads the operations (name, n + offset) listed in reads
    through M.op, and groups through M.group, and nothing else; the
    Kunneth search therefore evaluates it on a partial assignment too.
    A failure is reported at degree n + at, unreduced.
    """

    name: str
    reads: tuple[tuple[str, int], ...]
    holds: Callable[[CRTModule, int], bool]
    at: int = 0
    node: bool = False  # an exactness node of a long exact sequence


def _node_ok(f: GroupHom, g: GroupHom) -> bool:
    try:
        return is_exact_at(f, g)
    except ValueError:
        return False


def _node(name: str, at: int, reads, maps: Callable[[CRTModule, int], tuple[GroupHom, GroupHom]]) -> Check:
    """Exactness at the middle of the pair of maps (f, g) = maps(M, n)."""
    return Check(name, reads, lambda M, n: _node_ok(*maps(M, n)), at, node=True)


# Relations first, then the nodes of the three sequences, each in report order.
CHECKS: tuple[Check, ...] = (
    Check("rc=2", (("r", 0), ("c", 0)),
          lambda M, n: hom_compose(M.op("r", n), M.op("c", n)) == hom_scale(identity_hom(M.group("O", n)), 2)),
    Check("cr=1+psiU", (("c", 0), ("r", 0), ("psiU", 0)),
          lambda M, n: hom_compose(M.op("c", n), M.op("r", n))
          == identity_hom(M.group("U", n)) + M.op("psiU", n)),
    Check("r=tau.gamma", (("r", 0), ("tau", -1), ("gamma", 0)),
          lambda M, n: M.op("r", n) == hom_compose(M.op("tau", n - 1), M.op("gamma", n))),
    Check("c=zeta.eps", (("c", 0), ("zeta", 0), ("eps", 0)),
          lambda M, n: M.op("c", n) == hom_compose(M.op("zeta", n), M.op("eps", n))),
    Check("psiU^2=1", (("psiU", 0),),
          lambda M, n: hom_compose(M.op("psiU", n), M.op("psiU", n)) == identity_hom(M.group("U", n))),
    Check("psiT^2=1", (("psiT", 0),),
          lambda M, n: hom_compose(M.op("psiT", n), M.op("psiT", n)) == identity_hom(M.group("T", n))),
    Check("psiT.eps=eps", (("psiT", 0), ("eps", 0)),
          lambda M, n: hom_compose(M.op("psiT", n), M.op("eps", n)) == M.op("eps", n)),
    Check("zeta.gamma=0", (("zeta", -1), ("gamma", 0)),
          lambda M, n: hom_compose(M.op("zeta", n - 1), M.op("gamma", n)).is_zero_map()),
    Check("psiU.zeta=zeta", (("psiU", 0), ("zeta", 0)),
          lambda M, n: hom_compose(M.op("psiU", n), M.op("zeta", n)) == M.op("zeta", n)),
    Check("gamma.psiU=gamma", (("gamma", 0), ("psiU", 0)),
          lambda M, n: hom_compose(M.op("gamma", n), M.op("psiU", n)) == M.op("gamma", n)),
    # Bott commutation under the identity-Bott storage convention.
    Check("psiU.betaU=-betaU.psiU", (("psiU", 2), ("psiU", 0)),
          lambda M, n: M.op("psiU", n + 2) == -M.op("psiU", n)),
    Check("psiT.betaT=betaT.psiT", (("psiT", 4), ("psiT", 0)),
          lambda M, n: M.op("psiT", n + 4) == M.op("psiT", n)),
    Check("zeta.betaT=betaU^2.zeta", (("zeta", 4), ("zeta", 0)),
          lambda M, n: M.op("zeta", n + 4) == M.op("zeta", n)),
    Check("gamma.betaU^2=betaT.gamma", (("gamma", 4), ("gamma", 0)),
          lambda M, n: M.op("gamma", n + 4) == M.op("gamma", n)),
    Check("eps.r.zeta=1+psiT", (("eps", 0), ("r", 0), ("zeta", 0), ("psiT", 0)),
          lambda M, n: hom_compose(M.op("eps", n), hom_compose(M.op("r", n), M.op("zeta", n)))
          == identity_hom(M.group("T", n)) + M.op("psiT", n)),
    Check("gamma.c.tau=1-psiT", (("gamma", 1), ("c", 1), ("tau", 0), ("psiT", 0)),
          lambda M, n: hom_compose(M.op("gamma", n + 1), hom_compose(M.op("c", n + 1), M.op("tau", n)))
          == identity_hom(M.group("T", n)) - M.op("psiT", n)),
    Check("tau.psiT=-tau", (("tau", 0), ("psiT", 0)),
          lambda M, n: hom_compose(M.op("tau", n), M.op("psiT", n)) == -M.op("tau", n)),
    Check("tau.betaT.eps=0", (("tau", 4), ("eps", 0)),
          lambda M, n: hom_compose(M.op("tau", n + 4), M.op("eps", n)).is_zero_map()),
    Check("eps.xi=2betaT.eps", (("eps", 4), ("r", 4), ("c", 0), ("eps", 0)),
          lambda M, n: hom_compose(M.op("eps", n + 4), xi(M, n)) == hom_scale(M.op("eps", n), 2)),
    Check("xi.tau=2tau.betaT", (("r", 5), ("c", 1), ("tau", 0), ("tau", 4)),
          lambda M, n: hom_compose(xi(M, n + 1), M.op("tau", n)) == hom_scale(M.op("tau", n + 4), 2)),
    Check("betaT.eps.tau=eps.tau.betaT+etaT.betaT",
          (("eps", 1), ("tau", 0), ("eps", 5), ("tau", 4), ("gamma", 6), ("zeta", 4)),
          lambda M, n: hom_compose(M.op("eps", n + 1), M.op("tau", n))
          == hom_compose(M.op("eps", n + 5), M.op("tau", n + 4)) + eta_T(M, n + 4)),
    # Sequence 1:  MU_{n+1} --gamma--> MT_n --zeta--> MU_n --1-psiU--> MU_n
    _node("seq1@T", 0, (("gamma", 1), ("zeta", 0)),
          lambda M, n: (M.op("gamma", n + 1), M.op("zeta", n))),
    _node("seq1@U.ker(1-psiU)", 0, (("zeta", 0), ("psiU", 0)),
          lambda M, n: (M.op("zeta", n), one_minus_psiU(M, n))),
    _node("seq1@U.ker(gamma)", 0, (("psiU", 0), ("gamma", 0)),
          lambda M, n: (one_minus_psiU(M, n), M.op("gamma", n))),
    # Sequence 2:  MO_n --etaO--> MO_{n+1} --c--> MU_{n+1} --r.betaU^-1--> MO_{n-1}
    # (r.betaU^-1 is the stored r at n-1).
    _node("seq2@O", 1, (("tau", 0), ("eps", 0), ("c", 1)),
          lambda M, n: (eta_O(M, n), M.op("c", n + 1))),
    _node("seq2@U", 1, (("c", 1), ("r", -1)),
          lambda M, n: (M.op("c", n + 1), M.op("r", n - 1))),
    _node("seq2@O.ker(etaO)", -1, (("r", -1), ("tau", -1), ("eps", -1)),
          lambda M, n: (M.op("r", n - 1), eta_O(M, n - 1))),
    # Sequence 3:  MO_n --etaO^2--> MO_{n+2} --eps--> MT_{n+2} --tau.betaT^-1--> MO_{n-1}
    # (tau.betaT^-1 is the stored tau at n+6 = n-2).
    _node("seq3@O", 2, (("tau", 1), ("eps", 1), ("tau", 0), ("eps", 0), ("eps", 2)),
          lambda M, n: (eta_O_sq(M, n), M.op("eps", n + 2))),
    _node("seq3@T", 2, (("eps", 2), ("tau", 6)),
          lambda M, n: (M.op("eps", n + 2), M.op("tau", n + 6))),
    _node("seq3@O.ker(etaO^2)", -1, (("tau", 6), ("tau", 0), ("eps", 0), ("tau", -1), ("eps", -1)),
          lambda M, n: (M.op("tau", n + 6), eta_O_sq(M, n - 1))),
)
_SUITES = {"relations": tuple(chk for chk in CHECKS if not chk.node),
           "nodes": tuple(chk for chk in CHECKS if chk.node)}


def _report(M: CRTModule, checks: Sequence[Check]) -> tuple[tuple[str, int], ...]:
    """Every check in every stored degree, failures in (degree, table) order."""
    return tuple((chk.name, n + chk.at) for n in range(8) for chk in checks if not chk.holds(M, n))


@functools.cache
def _failures(M: CRTModule, suite: str) -> tuple[tuple[str, int], ...]:
    """The failures of one suite on M, run once per distinct module value."""
    return _report(M, _SUITES[suite])


def verify_relations(M: CRTModule) -> CheckReport:
    """Check every defining relation in all eight stored degrees.

    All failures are collected rather than failing fast; the report lists
    (relation, degree) pairs.  Each call returns a fresh report.
    """
    return CheckReport(list(_failures(M, "relations")))


def is_acyclic(M: CRTModule, check_relations: bool = True) -> CheckReport:
    """Exactness of the U/T, O/U and O/T sequences at every node (see CHECKS)."""
    if check_relations:
        rel = verify_relations(M)
        if not rel.ok():
            raise ValueError(f"relations fail: {rel}")
    return CheckReport(list(_failures(M, "nodes")))


def is_free(M: CRTModule) -> bool:
    """Free iff acyclic with torsion-free complex part."""
    if any(M.group("U", n).torsion for n in range(8)):
        return False
    if not verify_relations(M).ok():
        return False
    return is_acyclic(M, check_relations=False).ok()


# ---------------------------------------------------------------------------
# Direct sum, suspension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumLayout:
    """Canonicalization of a degreewise direct sum.

    Raw coordinates are the concatenated generators of the components;
    proj maps raw to canonical coordinates and reps lifts canonical
    generators back to raw coordinates.
    """

    group: FinAbGroup
    proj: IntMatrix
    reps: IntMatrix
    offsets: tuple[int, ...]
    widths: tuple[int, ...]


def sum_layout(components: Sequence[FinAbGroup]) -> SumLayout:
    invs = []
    offsets = []
    widths = []
    for G in components:
        offsets.append(len(invs))
        widths.append(G.ngens)
        invs.extend(G.invariants)
    group, proj, reps = _quotient_data(len(invs), IntMatrix.diag(invs))
    return SumLayout(group, proj, reps, tuple(offsets), tuple(widths))


def _block_diag(blocks: Sequence[IntMatrix]) -> IntMatrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            for j, x in enumerate(row):
                out[r0 + i][c0 + j] = x
        r0 += b.rows
        c0 += b.cols
    return IntMatrix.from_rows(out, cols=cols)


def direct_sum_with_layout(modules: Sequence[CRTModule]) -> tuple[CRTModule, dict]:
    """Degreewise block sum, canonicalized; layouts keyed by (part, degree)."""
    layouts = {}
    groups = {}
    for p in PARTS:
        groups[p] = []
        for n in range(8):
            lay = sum_layout([m.group(p, n) for m in modules])
            layouts[(p, n)] = lay
            groups[p].append(lay.group)
    mats = {}
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        fam = []
        for n in range(8):
            raw = _block_diag([m.op(name, n).matrix for m in modules])
            lay_s = layouts[(src, n)]
            lay_t = layouts[(tgt, (n + shift) % 8)]
            fam.append(lay_t.proj * raw * lay_s.reps)
        mats[name] = fam
    return make_module(groups, mats), layouts


def direct_sum(*modules: CRTModule) -> CRTModule:
    if not modules:
        return zero_module()
    return direct_sum_with_layout(list(modules))[0]


def suspend(M: CRTModule, s: int) -> CRTModule:
    """Shift every group and operation up by s window degrees.

    suspend(M, s) at degree k is M at degree k - s; suspend(M, 8) == M.
    """
    groups = {p: [M.group(p, (k - s) % 8) for k in range(8)] for p in PARTS}
    mats = {name: [M.op(name, (k - s) % 8).matrix for k in range(8)] for name in OP_NAMES}
    return make_module(groups, mats)


# ---------------------------------------------------------------------------
# CRT-morphisms
# ---------------------------------------------------------------------------

Morphism = dict[tuple[str, int], GroupHom]


def _product_entries(g: GroupHom, f: GroupHom) -> tuple:
    """The checked entries of g after f, as hom_compose(g, f) would hold them."""
    if f.codomain is not g.domain and f.codomain != g.domain:
        raise CompositionError(f"cannot compose: {f.codomain} != {g.domain}")
    return checked_entries(g.matrix * f.matrix, f.domain, g.codomain)


def morphism_commutes(M: CRTModule, N: CRTModule, phi: Morphism) -> bool:
    """Does the degreewise family commute with all eight operations?

    Each square phi_t.M_op = N_op.phi_s compares the checked entries of
    its two products and their endpoints, as hom_compose's composites
    would compare, without building them.
    """
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for n in range(8):
            M_op, N_op = M.op(name, n), N.op(name, n)
            phi_s, phi_t = phi[(src, n)], phi[(tgt, (n + shift) % 8)]
            left = _product_entries(phi_t, M_op)
            right = _product_entries(N_op, phi_s)
            if left != right or M_op.domain != phi_s.domain or phi_t.codomain != N_op.codomain:
                return False
    return True


def _slot_candidates(M: CRTModule, N: CRTModule, slot: tuple[str, int]) -> Callable[[dict], Iterator[GroupHom]]:
    """The automorphisms phi of the slot group that commute with every instance of SLOT_OPS[slot].

    Each instance asks phi_t.M_op = N_op.phi_s, its other endpoint assigned:
    congruences A.x = b mod the target's invariants in the hom_coords x of
    phi.  A and the echelon of its homogeneous solutions are built once; the
    returned generator reads b off the choice, solves for one x0 and yields
    the invertible maps of x0 + (homogeneous solutions) lazily.
    """
    G = M.group(*slot)
    coords = hom_coords(G, G)
    orders = [o for *_, o in coords]
    rows, mods, terms = [], [], []
    for name, n in SLOT_OPS[slot]:
        src, tgt, shift = OP_SPECS[name]
        s, t = slot_of(src, n), slot_of(tgt, n + shift)
        P, Q = M.op(name, n).matrix, N.op(name, n).matrix
        for i, e in enumerate(M.group(*t).invariants):
            for j in range(P.cols):
                rows.append([(step * P.entries[col][j] if t == slot and r == i else 0)
                             - (step * Q.entries[i][r] if s == slot and col == j else 0)
                             for r, col, step, _ in coords])
                mods.append(e)
        terms.append((s, t, P, Q))
    A = IntMatrix.from_rows(rows, cols=len(coords)).hstack(IntMatrix.diag(mods))
    basis = echelon_mod([v[:len(coords)] for v in kernel_lattice(A).columns()], orders)
    ranges = [range(o // v[i]) for i, (v, o) in enumerate(zip(basis, orders))]

    def candidates(choice: dict) -> Iterator[GroupHom]:
        b = []
        for s, t, P, Q in terms:
            known = (-(choice[t].matrix * P) if t != slot else
                     Q * choice[s].matrix if s != slot else IntMatrix.zeros(P.rows, P.cols))
            b.extend(x for row in known.entries for x in row)
        x0 = solve_int(A, b)
        if x0 is None:
            return
        for a in itertools.product(*ranges):
            phi = [[0] * G.ngens for _ in range(G.ngens)]
            for c, (r, col, step, o) in enumerate(coords):
                phi[r][col] = (x0[c] + sum(ai * v[c] for ai, v in zip(a, basis))) % o * step
            if is_automorphism(G, phi):
                yield GroupHom(G, G, IntMatrix.from_rows(phi, cols=G.ngens))

    return candidates


def crt_isomorphic(M: CRTModule, N: CRTModule, budget: int = 2_000_000) -> Optional[Morphism]:
    """Search for a CRT-isomorphism between modules with finite parts.

    An isomorphism in our storage convention repeats with the period of
    each part, so it is one automorphism of each of the 14 slot groups.
    search_slots assigns them in SLOTS order from candidates built by
    linear algebra (_slot_candidates): the automorphisms of the slot that
    commute with every operation to or from the slots before it.  One
    node is one candidate tried, counted against budget; a search that
    never backtracks takes 14 nodes.

    The search runs once per distinct (M, N, budget) in a process; every
    call returns a fresh dict.  BudgetExceeded is raised, never stored.
    """
    phi = _isomorphism(M, N, budget)
    return None if phi is None else dict(phi)


@functools.cache
def _isomorphism(M: CRTModule, N: CRTModule, budget: int) -> Optional[Morphism]:
    if not (M.all_finite() and N.all_finite()):
        raise ValueError("crt_isomorphic requires finite parts")
    for p, n in SLOTS:
        if M.group(p, n) != N.group(p, n):
            return None
    nodes = 0

    def tick():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("isomorphism search budget exceeded")

    system = functools.cache(lambda slot: _slot_candidates(M, N, slot))  # built on first visit
    choice: dict[tuple[str, int], GroupHom] = {}
    found = search_slots(lambda slot: system(slot)(choice), lambda name, n: True, choice, tick)
    if next(found, None) is None:
        return None
    return {(p, n): choice[slot_of(p, n)] for p in PARTS for n in range(8)}


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def group_to_json(G: FinAbGroup) -> dict:
    return {"torsion": list(G.torsion), "rank": G.free_rank}


def group_from_json(obj: dict) -> FinAbGroup:
    return FinAbGroup(tuple(obj["torsion"]), obj["rank"])


def hom_to_json(h: GroupHom) -> dict:
    return {"dom": group_to_json(h.domain), "cod": group_to_json(h.codomain),
            "matrix": [list(row) for row in h.matrix.entries]}


def hom_from_json(obj: dict) -> GroupHom:
    dom = group_from_json(obj["dom"])
    cod = group_from_json(obj["cod"])
    return GroupHom(dom, cod, IntMatrix.from_rows(obj["matrix"], cols=dom.ngens))


def module_to_json(M: CRTModule) -> dict:
    return {
        "MO": [group_to_json(M.group("O", n)) for n in range(8)],
        "MU": [group_to_json(M.group("U", n)) for n in range(8)],
        "MT": [group_to_json(M.group("T", n)) for n in range(8)],
        "ops": {name: [hom_to_json(M.op(name, n)) for n in range(8)] for name in OP_NAMES},
    }


def module_from_json(obj: dict) -> CRTModule:
    groups = {
        "O": [group_from_json(g) for g in obj["MO"]],
        "U": [group_from_json(g) for g in obj["MU"]],
        "T": [group_from_json(g) for g in obj["MT"]],
    }
    mats = {}
    for name in OP_NAMES:
        homs = [hom_from_json(h) for h in obj["ops"][name]]
        mats[name] = [h.matrix for h in homs]
    return make_module(groups, mats)
