"""CRT-modules: three periodic graded groups with eight operations.

A CRT-module is stored over the common degree window 0..7 with the Bott
elements acting as the identity: the real part repeats with period 8, the
complex part with period 2 and the self-conjugate part with period 4.
Under this convention every defining relation, including the four
Bott-commutation constraints, becomes a finite matrix identity between
stored operation matrices, and the three long exact sequences become 72
concrete exactness checks.

Operation families (domain part, codomain part, degree shift):

    c: O->U    r: U->O    eps: O->T     zeta: T->U
    psiU: U->U             psiT: T->T
    gamma: U->T, degree -1            tau: T->O, degree +1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .zlinalg import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    ZERO_GROUP,
    _quotient_data,
    automorphisms,
    hom_compose,
    hom_scale,
    identity_hom,
    is_exact_at,
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
                if h.domain != self.group(src, n):
                    raise ValueError(f"{name}_{n} domain mismatch")
                if h.codomain != self.group(tgt, n + shift):
                    raise ValueError(f"{name}_{n} codomain mismatch")

    def part(self, part: str) -> GradedPart:
        return {"O": self.MO, "U": self.MU, "T": self.MT}[part]

    def group(self, part: str, n: int) -> FinAbGroup:
        return self.part(part).group(n)

    def op(self, name: str, n: int) -> GroupHom:
        return self.ops[OP_NAMES.index(name)][n % 8]

    def is_zero(self) -> bool:
        return all(self.group(p, n).is_trivial() for p in PARTS for n in range(8))

    def all_finite(self) -> bool:
        return all(self.group(p, n).is_finite() for p in PARTS for n in range(8))


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
# Relation verification
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of a relation or exactness suite; empty failures = pass."""

    failures: list[tuple[str, int]] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures

    def add(self, name: str, degree: int):
        self.failures.append((name, degree))

    def __str__(self) -> str:
        if self.ok():
            return "pass"
        return "; ".join(f"{name}@{n}" for name, n in self.failures)


def _two_id(G: FinAbGroup) -> GroupHom:
    return hom_scale(identity_hom(G), 2)


def verify_relations(M: CRTModule) -> CheckReport:
    """Check every defining relation in all eight stored degrees.

    All failures are collected rather than failing fast; the report lists
    (relation, degree) pairs.
    """
    rep = CheckReport()
    for n in range(8):
        c, r = M.op("c", n), M.op("r", n)
        eps, zeta = M.op("eps", n), M.op("zeta", n)
        psiU, psiT = M.op("psiU", n), M.op("psiT", n)
        gamma, tau = M.op("gamma", n), M.op("tau", n)

        if hom_compose(r, c) != _two_id(M.group("O", n)):
            rep.add("rc=2", n)
        if hom_compose(c, r) != identity_hom(M.group("U", n)) + psiU:
            rep.add("cr=1+psiU", n)
        if r != hom_compose(M.op("tau", n - 1), gamma):
            rep.add("r=tau.gamma", n)
        if c != hom_compose(zeta, eps):
            rep.add("c=zeta.eps", n)
        if hom_compose(psiU, psiU) != identity_hom(M.group("U", n)):
            rep.add("psiU^2=1", n)
        if hom_compose(psiT, psiT) != identity_hom(M.group("T", n)):
            rep.add("psiT^2=1", n)
        if hom_compose(psiT, eps) != eps:
            rep.add("psiT.eps=eps", n)
        if not hom_compose(M.op("zeta", n - 1), gamma).is_zero_map():
            rep.add("zeta.gamma=0", n)
        if hom_compose(psiU, zeta) != zeta:
            rep.add("psiU.zeta=zeta", n)
        if hom_compose(gamma, psiU) != gamma:
            rep.add("gamma.psiU=gamma", n)

        # Bott commutation under the identity-Bott storage convention.
        if M.op("psiU", n + 2) != -psiU:
            rep.add("psiU.betaU=-betaU.psiU", n)
        if M.op("psiT", n + 4) != psiT:
            rep.add("psiT.betaT=betaT.psiT", n)
        if M.op("zeta", n + 4) != zeta:
            rep.add("zeta.betaT=betaU^2.zeta", n)
        if M.op("gamma", n + 4) != gamma:
            rep.add("gamma.betaU^2=betaT.gamma", n)

        if hom_compose(eps, hom_compose(r, zeta)) != identity_hom(M.group("T", n)) + psiT:
            rep.add("eps.r.zeta=1+psiT", n)
        if hom_compose(M.op("gamma", n + 1), hom_compose(M.op("c", n + 1), tau)) != \
                identity_hom(M.group("T", n)) - psiT:
            rep.add("gamma.c.tau=1-psiT", n)
        if hom_compose(tau, psiT) != -tau:
            rep.add("tau.psiT=-tau", n)
        if not hom_compose(M.op("tau", n + 4), eps).is_zero_map():
            rep.add("tau.betaT.eps=0", n)
        if hom_compose(M.op("eps", n + 4), xi(M, n)) != hom_scale(eps, 2):
            rep.add("eps.xi=2betaT.eps", n)
        if hom_compose(xi(M, n + 1), tau) != hom_scale(M.op("tau", n + 4), 2):
            rep.add("xi.tau=2tau.betaT", n)
        lhs = hom_compose(M.op("eps", n + 1), tau)
        rhs = hom_compose(M.op("eps", n + 5), M.op("tau", n + 4)) + eta_T(M, n + 4)
        if lhs != rhs:
            rep.add("betaT.eps.tau=eps.tau.betaT+etaT.betaT", n)
    return rep


# ---------------------------------------------------------------------------
# Acyclicity: the three long exact sequences
# ---------------------------------------------------------------------------


def _node_ok(f: GroupHom, g: GroupHom) -> bool:
    try:
        return is_exact_at(f, g)
    except ValueError:
        return False


def is_acyclic(M: CRTModule, check_relations: bool = True) -> CheckReport:
    """Exactness of the U/T, O/U and O/T sequences at every node.

    Sequence 1:  MU_{n+1} --gamma--> MT_n --zeta--> MU_n --1-psiU--> MU_n
    Sequence 2:  MO_n --etaO--> MO_{n+1} --c--> MU_{n+1} --r.betaU^-1--> MO_{n-1}
    Sequence 3:  MO_n --etaO^2--> MO_{n+2} --eps--> MT_{n+2} --tau.betaT^-1--> MO_{n-1}
    """
    if check_relations:
        rel = verify_relations(M)
        if not rel.ok():
            raise ValueError(f"relations fail: {rel}")
    rep = CheckReport()
    for n in range(8):
        # Sequence 1.
        if not _node_ok(M.op("gamma", n + 1), M.op("zeta", n)):
            rep.add("seq1@T", n)
        if not _node_ok(M.op("zeta", n), one_minus_psiU(M, n)):
            rep.add("seq1@U.ker(1-psiU)", n)
        if not _node_ok(one_minus_psiU(M, n), M.op("gamma", n)):
            rep.add("seq1@U.ker(gamma)", n)
        # Sequence 2 (r.betaU^-1 is the stored r at n-1).
        if not _node_ok(eta_O(M, n), M.op("c", n + 1)):
            rep.add("seq2@O", n + 1)
        if not _node_ok(M.op("c", n + 1), M.op("r", n - 1)):
            rep.add("seq2@U", n + 1)
        if not _node_ok(M.op("r", n - 1), eta_O(M, n - 1)):
            rep.add("seq2@O.ker(etaO)", n - 1)
        # Sequence 3 (tau.betaT^-1 is the stored tau at n+6 = n-2).
        if not _node_ok(eta_O_sq(M, n), M.op("eps", n + 2)):
            rep.add("seq3@O", n + 2)
        if not _node_ok(M.op("eps", n + 2), M.op("tau", n + 6)):
            rep.add("seq3@T", n + 2)
        if not _node_ok(M.op("tau", n + 6), eta_O_sq(M, n - 1)):
            rep.add("seq3@O.ker(etaO^2)", n - 1)
    return rep


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


def morphism_commutes(M: CRTModule, N: CRTModule, phi: Morphism) -> bool:
    """Does the degreewise family commute with all eight operations?"""
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for n in range(8):
            left = hom_compose(phi[(tgt, (n + shift) % 8)], M.op(name, n))
            right = hom_compose(N.op(name, n), phi[(src, n)])
            if left != right:
                return False
    return True


def morphism_is_iso(phi: Morphism) -> bool:
    from .zlinalg import hom_cokernel, hom_kernel
    for h in phi.values():
        if hom_kernel(h)[0] != ZERO_GROUP or hom_cokernel(h)[0] != ZERO_GROUP:
            return False
    return True


def crt_isomorphic(M: CRTModule, N: CRTModule, budget: int = 2_000_000) -> Optional[Morphism]:
    """Search for a CRT-isomorphism between modules with finite parts.

    Backtracking over degreewise group automorphisms; an isomorphism in
    our storage convention repeats with the period of each part, so there
    are 14 free slots (8 real, 2 complex, 4 self-conjugate).  Operation
    commutation is checked as soon as both endpoint slots are assigned.
    """
    if not (M.all_finite() and N.all_finite()):
        raise ValueError("crt_isomorphic requires finite parts")
    for p, n in SLOTS:
        if M.group(p, n) != N.group(p, n):
            return None

    # (op, degree) checks become available once their two slots are known.
    checks_by_slot: dict[tuple[str, int], list[tuple[str, int, tuple[str, int]]]] = {s: [] for s in SLOTS}
    slot_index = {s: i for i, s in enumerate(SLOTS)}

    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for n in range(8):
            s_src = slot_of(src, n)
            s_tgt = slot_of(tgt, n + shift)
            later = s_src if slot_index[s_src] >= slot_index[s_tgt] else s_tgt
            other = s_tgt if later == s_src else s_src
            checks_by_slot[later].append((name, n, other))

    assignment: dict[tuple[str, int], GroupHom] = {}
    nodes = 0

    def ok_after(slot) -> bool:
        part, _ = slot
        for name, n, _other in checks_by_slot[slot]:
            src, tgt, shift = OP_SPECS[name]
            pu = assignment.get(slot_of(src, n))
            pv = assignment.get(slot_of(tgt, n + shift))
            if pu is None or pv is None:
                continue
            if hom_compose(pv, M.op(name, n)) != hom_compose(N.op(name, n), pu):
                return False
        return True

    def rec(k: int) -> bool:
        nonlocal nodes
        if k == len(SLOTS):
            return True
        slot = SLOTS[k]
        G = M.group(*slot)
        for u in automorphisms(G):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded("isomorphism search budget exceeded")
            assignment[slot] = u
            if ok_after(slot) and rec(k + 1):
                return True
            del assignment[slot]
        return False

    if not rec(0):
        return None
    phi = {(p, n): assignment[slot_of(p, n)] for p in PARTS for n in range(8)}
    return phi


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
