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
with it.  Every check is data, two sides that sum integer multiples of
operation words, each word typed by part and degree where it is parsed
(_parse_side), and one evaluator reads them all by multiplying rows of
reduced entries.  It runs the endpoint tests of hom_compose and of a sum
at every step and reduces each value modulo its codomain, but runs no
shape or well-definedness test: the operands are a module's homs,
checked where the module was assembled, and their composites and
integer combinations are well defined.  A relation compares its sides,
and a node runs is_exact_at on them.  Each suite
runs once per distinct module value in a process (failures cached by
module and suite); every call gets a fresh report.

Direct sums, free tensors, cokernels and the printed tables are presented
modules (presented_module): at each part and degree, raw coordinates
modulo relations read through a zlinalg.Layout, and each raw operation
carried into canonical coordinates by between_sums.  A morphism is one
hom per slot; commutation_map writes its squares as one map modulo the
group orders, whose kernel crt_isomorphic searches.

Operation families (domain part, codomain part, degree shift):

    c: O->U    r: U->O    eps: O->T     zeta: T->U
    psiU: U->U             psiT: T->T
    gamma: U->T, degree -1            tau: T->O, degree +1
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .zlinalg import (
    CompositionError,
    FinAbGroup,
    GroupHom,
    IntMatrix,
    Layout,
    ZERO_GROUP,
    _hom,
    _reduced_rows,
    checked_entries,
    echelon_mod,
    hom_coords,
    hom_matrix,
    identity_hom,
    is_automorphism,
    is_exact_at,
    layout,
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


def place(order: Sequence, items: Iterable[tuple[object, Iterable]]) -> dict[object, list]:
    """Each item, in the order given, at the last of its keys in order: where a search first has them all."""
    index = {key: i for i, key in enumerate(order)}
    out: dict[object, list] = {key: [] for key in order}
    for item, keys in items:
        out[max(keys, key=index.__getitem__)].append(item)
    return out


# Each (op, degree) instance at the later, in SLOTS order, of its two endpoint slots.
SLOT_OPS = place(SLOTS, (((name, n), (slot_of(src, n), slot_of(tgt, n + shift)))
                         for name, (src, tgt, shift) in OP_SPECS.items() for n in range(8)))


def backtrack(keys: Sequence, options: Callable[[object], Iterable], fits: Callable[[object], bool],
              choice: dict, tick: Callable[[object], None]) -> Iterator[dict]:
    """Assign choice[key] from options(key) for each key in order, depth first.

    tick(key) runs once per candidate tried, before it is assigned to key.
    The search descends past a key only when fits(key) holds, so fits may
    read choice at that key and at every key before it.  The generator
    yields choice itself, once per full assignment, and pops a key when its
    options run out.  It yields rather than calls back, so the caller's
    work runs off the frames of this recursion (70 deep in the Kunneth
    search): CPython 3.11 allocates and frees a frame-stack chunk per call
    in a loop that straddles a chunk edge.
    """
    def rec(k: int) -> Iterator[dict]:
        if k == len(keys):
            yield choice
            return
        key = keys[k]
        for opt in options(key):
            tick(key)
            choice[key] = opt
            if fits(key):
                yield from rec(k + 1)
        choice.pop(key, None)

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

    def group(self, part: str, n: int) -> FinAbGroup:
        return getattr(self, _PART_FIELD[part]).groups[n % 8]

    def op(self, name: str, n: int) -> GroupHom:
        return self.ops[_OP_INDEX[name]][n % 8]

    def is_zero(self) -> bool:
        return all(self.group(p, n).is_trivial() for p in PARTS for n in range(8))

    def all_finite(self) -> bool:
        return all(self.group(p, n).is_finite() for p in PARTS for n in range(8))

    def order(self) -> Optional[int]:
        """The product of the orders of the 24 window groups; None if one is infinite."""
        n = 1
        for p in PARTS:
            for d in range(8):
                if (o := self.group(p, d).order()) is None:
                    return None
                n *= o
        return n

    def __hash__(self) -> int:  # the value is frozen: hash its fields once
        if (h := self.__dict__.get("_hash")) is None:
            h = self.__dict__["_hash"] = hash((self.MO, self.MU, self.MT, self.ops))
        return h


def make_module(groups: Mapping[str, Sequence[FinAbGroup]],
                op_matrices: Mapping[str, Sequence[IntMatrix]]) -> CRTModule:
    """Assemble a module from groups per part and raw operation matrices.

    Each distinct input is assembled and checked once per process, so
    equal inputs return the same module object; an error is raised on
    every call and never stored.
    """
    return _assemble(tuple(tuple(groups[p]) for p in PARTS),
                     tuple(tuple(op_matrices[name]) for name in OP_NAMES))


@functools.cache
def _assemble(groups: tuple[tuple[FinAbGroup, ...], ...],
              op_matrices: tuple[tuple[IntMatrix, ...], ...]) -> CRTModule:
    parts = {p: GradedPart(PART_PERIOD[p], gs) for p, gs in zip(PARTS, groups)}
    fams = []
    for name, mats in zip(OP_NAMES, op_matrices):
        src, tgt, shift = OP_SPECS[name]
        fam = []
        for n in range(8):
            dom = parts[src].group(n)
            cod = parts[tgt].group(n + shift)
            fam.append(GroupHom(dom, cod, mats[n]))
        fams.append(tuple(fam))
    return CRTModule(parts["O"], parts["U"], parts["T"], tuple(fams))


def zero_module() -> CRTModule:
    """The empty direct sum, assembled from trivial groups and empty matrices with no layout."""
    return make_module({p: [ZERO_GROUP] * 8 for p in PARTS},
                       {name: [IntMatrix.zeros(0, 0)] * 8 for name in OP_NAMES})


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


def _parse_side(text: str) -> tuple:
    """One side of a relation: terms (coefficient, word), '' being the zero map.

    A word lists the factors (name, degree offset) of a composite, applied
    right to left; "O", "U" or "T" is the identity of that part's group.
    'U - 2psiU+2.c' -> ((1, (('U', 0),)), (-2, (('psiU', 2), ('c', 0))))
    Every word must chain and every term share the side's endpoints
    (_side_ends), so a mistyped word fails here, not where it is read.
    """
    terms = re.findall(r"(-?)(\d*)(\S+)", text.replace(" + ", " ").replace(" - ", " -"))
    side = tuple((int(f"{sign}{coef or 1}"), tuple((name, int(off or 0)) for name, off in
                                                   re.findall(r"([A-Za-z]+)([+-]\d+)?", word)))
                 for sign, coef, word in terms)
    _side_ends(side, text)
    return side


def _factor_ends(name: str, off: int, text: str) -> tuple[tuple[str, int], tuple[str, int]]:
    """(source, target) of one factor as (part, degree offset modulo the part's period)."""
    if name not in OP_SPECS and name not in PART_PERIOD:
        raise ValueError(f"unknown factor {name!r} in {text!r}")
    src, tgt, shift = OP_SPECS.get(name, (name, name, 0))
    return (src, off % PART_PERIOD[src]), (tgt, (off + shift) % PART_PERIOD[tgt])


def _side_ends(side: tuple, text: str) -> Optional[tuple[tuple[str, int], tuple[str, int]]]:
    """(source, target) of a parsed side, None for zero; CompositionError if a word does
    not chain (a factor's source is not its right neighbour's target) or two terms differ."""
    ends = set()
    for _, word in side:
        factors = [_factor_ends(name, off, text) for name, off in reversed(word)]
        for (_, reached), (source, _) in zip(factors, factors[1:]):
            if reached != source:
                raise CompositionError(f"{text!r} does not chain: a factor from {source} after one into {reached}")
        ends.add((factors[0][0], factors[-1][1]))
    if len(ends) > 1:
        raise CompositionError(f"terms of {text!r} have different endpoints: {sorted(ends)}")
    return ends.pop() if ends else None


def _with_ends(side: tuple, text: str, source: tuple[str, int], target: tuple[str, int], entry) -> tuple:
    """side, parsed from text, if it runs from source to target, each (part, degree offset) compared
    modulo the part's period; otherwise a CompositionError names the table entry: a word that chains
    but sits in the wrong entry fails where its table is built."""
    want = tuple((part, off % PART_PERIOD[part]) for part, off in (source, target))
    if (got := _side_ends(side, text)) != want:
        raise CompositionError(f"{entry}: {text!r} runs from {got[0]} to {got[1]}, not from {want[0]} to {want[1]}")
    return side


def _triple(h: GroupHom) -> tuple:
    return h.domain, h.codomain, h.matrix.entries


@functools.cache
def _identity(G: FinAbGroup) -> tuple:
    """The identity of G as a triple, checked as identity_hom checks it, once per group."""
    return _triple(identity_hom(G))


def _checked(domain: FinAbGroup, codomain: FinAbGroup, rows: list) -> tuple:
    """The triple (domain, codomain, reduced rows) after GroupHom's shape and well-definedness tests."""
    return domain, codomain, checked_entries(rows, domain.ngens, domain, codomain)


def _product(g: tuple, f: tuple) -> tuple:
    """g after f on (domain, codomain, reduced rows) triples, with hom_compose's endpoint test.

    The rows are reduced modulo the codomain invariants and nothing else:
    a composite of well-defined homs is well defined, with the shape by
    construction.  Through a trivial domain, middle or codomain the
    composite is the zero map, returned without multiplying.
    """
    if f[1] is not g[0] and f[1] != g[0]:
        raise CompositionError(f"cannot compose: {f[1]} != {g[0]}")
    if not (f[0].ngens and g[0].ngens and g[1].ngens):
        return f[0], g[1], IntMatrix.zeros(g[1].ngens, f[0].ngens).entries
    cols = tuple(zip(*f[2]))
    return f[0], g[1], _reduced_rows([[sum(map(mul, row, col)) for col in cols] for row in g[2]], g[1].invariants)


def _side_value(M, n: int, side: tuple) -> Optional[tuple]:
    """The side at degree n as a (domain, codomain, reduced rows) triple; None if it is zero.

    Composites are _product's; a multiple or a sum of terms is reduced
    modulo the codomain invariants, after GroupHom.__add__'s endpoint test
    for a sum.  The operands are the module's homs, checked where the
    module was assembled, so no shape or well-definedness test runs here.
    """
    total = None
    for coef, word in side:
        val = None
        for name, off in reversed(word):
            h = _identity(M.group(name, n + off)) if name in PART_PERIOD else _triple(M.op(name, n + off))
            val = h if val is None else _product(h, val)
        if coef != 1:
            val = val[0], val[1], _reduced_rows([[coef * x for x in row] for row in val[2]], val[1].invariants)
        if total is not None:
            if total[:2] != val[:2]:
                raise CompositionError("sum of homs with different endpoints")
            val = val[0], val[1], _reduced_rows([map(add, a, b) for a, b in zip(total[2], val[2])], val[1].invariants)
        total = val
    return total


def _side_hom(M, n: int, side: tuple) -> GroupHom:
    """The side at degree n as a GroupHom, built as hom_compose builds a composite."""
    return _hom(*_side_value(M, n, side))


@dataclass(frozen=True, eq=False)
class Check:
    """One relation or exactness node, instantiated at each window degree n.

    holds(M, n) reads the operations (name, n + offset) listed in reads
    through M.op, and groups through M.group, and nothing else; the
    Kunneth search therefore evaluates it on a partial assignment too.
    A relation compares its two sides (_side_value) as GroupHom.__eq__
    would; a node runs is_exact_at on its sides (f, g) as GroupHoms.  A
    failure is reported at degree n + at, unreduced.
    """

    name: str
    reads: tuple[tuple[str, int], ...]
    sides: tuple  # (left, right) of a relation, (f, g) of a node, as _parse_side gives them
    at: int = 0
    node: bool = False  # an exactness node of a long exact sequence

    def holds(self, M: CRTModule, n: int) -> bool:
        if self.node:
            f, g = _side_hom(M, n, self.sides[0]), _side_hom(M, n, self.sides[1])
            try:
                return is_exact_at(f, g)
            except ValueError:
                return False
        left, right = _side_value(M, n, self.sides[0]), _side_value(M, n, self.sides[1])
        return not any(map(any, left[2])) if right is None else left == right


def _check(name: str, left: str, right: str, at: int = 0, node: bool = False) -> Check:
    """A table entry, typed: a relation's two sides share endpoints (zero fits any),
    and a node's f ends where its g starts."""
    sides = (_parse_side(left), _parse_side(right))
    ends = (_side_ends(sides[0], left), _side_ends(sides[1], right))
    if node:
        if ends[0][1] != ends[1][0]:
            raise CompositionError(f"{name}: {left!r} ends at {ends[0][1]}, {right!r} starts at {ends[1][0]}")
    elif None not in ends and ends[0] != ends[1]:
        raise CompositionError(f"{name}: sides {left!r} and {right!r} have different endpoints")
    reads = dict.fromkeys(f for side in sides for _, word in side for f in word if f[0] in OP_SPECS)
    return Check(name, tuple(reads), sides, at, node)


# Relations first, then the nodes of the three sequences, each in report order,
# written in _parse_side's notation: "tau-1" is tau at degree n - 1, "2eps" twice
# eps, "T" the identity of MT_n, "" zero.  A relation is (name, left, right).
CHECKS: tuple[Check, ...] = tuple(_check(*rel) for rel in (
    ("rc=2", "r.c", "2O"),
    ("cr=1+psiU", "c.r", "U + psiU"),
    ("r=tau.gamma", "r", "tau-1.gamma"),
    ("c=zeta.eps", "c", "zeta.eps"),
    ("psiU^2=1", "psiU.psiU", "U"),
    ("psiT^2=1", "psiT.psiT", "T"),
    ("psiT.eps=eps", "psiT.eps", "eps"),
    ("zeta.gamma=0", "zeta-1.gamma", ""),
    ("psiU.zeta=zeta", "psiU.zeta", "zeta"),
    ("gamma.psiU=gamma", "gamma.psiU", "gamma"),
    # Bott commutation under the identity-Bott storage convention.
    ("psiU.betaU=-betaU.psiU", "psiU+2", "-psiU"),
    ("psiT.betaT=betaT.psiT", "psiT+4", "psiT"),
    ("zeta.betaT=betaU^2.zeta", "zeta+4", "zeta"),
    ("gamma.betaU^2=betaT.gamma", "gamma+4", "gamma"),
    ("eps.r.zeta=1+psiT", "eps.r.zeta", "T + psiT"),
    ("gamma.c.tau=1-psiT", "gamma+1.c+1.tau", "T - psiT"),
    ("tau.psiT=-tau", "tau.psiT", "-tau"),
    ("tau.betaT.eps=0", "tau+4.eps", ""),
    ("eps.xi=2betaT.eps", "eps+4.r+4.c", "2eps"),
    ("xi.tau=2tau.betaT", "r+5.c+1.tau", "2tau+4"),
    ("betaT.eps.tau=eps.tau.betaT+etaT.betaT", "eps+1.tau", "eps+5.tau+4 + gamma+6.zeta+4"),
)) + tuple(_check(*node, node=True) for node in (  # (name, f, g, at): exactness at the middle of f, g
    # Sequence 1:  MU_{n+1} --gamma--> MT_n --zeta--> MU_n --1-psiU--> MU_n
    ("seq1@T", "gamma+1", "zeta", 0),
    ("seq1@U.ker(1-psiU)", "zeta", "U - psiU", 0),
    ("seq1@U.ker(gamma)", "U - psiU", "gamma", 0),
    # Sequence 2:  MO_n --etaO--> MO_{n+1} --c--> MU_{n+1} --r.betaU^-1--> MO_{n-1}
    # (etaO = tau.eps; r.betaU^-1 is the stored r at n-1).
    ("seq2@O", "tau.eps", "c+1", 1),
    ("seq2@U", "c+1", "r-1", 1),
    ("seq2@O.ker(etaO)", "r-1", "tau-1.eps-1", -1),
    # Sequence 3:  MO_n --etaO^2--> MO_{n+2} --eps--> MT_{n+2} --tau.betaT^-1--> MO_{n-1}
    # (tau.betaT^-1 is the stored tau at n+6 = n-2).
    ("seq3@O", "tau+1.eps+1.tau.eps", "eps+2", 2),
    ("seq3@T", "eps+2", "tau+6", 2),
    ("seq3@O.ker(etaO^2)", "tau+6", "tau.eps.tau-1.eps-1", -1),
))
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


def is_acyclic(M: CRTModule) -> CheckReport:
    """Exactness of the U/T, O/U and O/T sequences at every node (see CHECKS).

    Failing relations raise ValueError; a repeat of verify_relations is a cache hit.
    """
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
    return is_acyclic(M).ok()


# ---------------------------------------------------------------------------
# Direct sum, suspension
# ---------------------------------------------------------------------------


def sum_layout(components: Sequence[FinAbGroup]) -> Layout:
    """The layout of the direct sum of components: their invariants listed in order."""
    return layout(tuple(i for G in components for i in G.invariants))


def between_sums(lay_t: Layout, raw: IntMatrix, lay_s: Layout) -> IntMatrix:
    """lay_t.proj * raw * lay_s.reps: a map of raw coordinates in canonical ones.

    A product with an identity layout is skipped, so between two identity
    layouts the raw matrix itself is returned.
    """
    if not lay_t.identity:
        raw = lay_t.proj * raw
    return raw if lay_s.identity else raw * lay_s.reps


def presented_module(layouts: Mapping[tuple[str, int], Layout],
                     raw_op: Callable[[str, int], IntMatrix]) -> CRTModule:
    """The module whose group at (part, degree) is layouts[(part, degree)].group.

    raw_op(name, n) is operation name at degree n in raw coordinates, and
    it is carried into canonical ones by between_sums.  Direct sums, free
    tensors, cokernels and the printed tables are all built this way.
    """
    groups = {p: [layouts[(p, n)].group for n in range(8)] for p in PARTS}
    mats = {}
    for name, (src, tgt, shift) in OP_SPECS.items():
        mats[name] = [between_sums(layouts[(tgt, (n + shift) % 8)], raw_op(name, n), layouts[(src, n)])
                      for n in range(8)]
    return make_module(groups, mats)


def _block_diag(blocks: Sequence[IntMatrix]) -> IntMatrix:
    if len(blocks) == 1:
        return blocks[0]
    cols, c0, rows = sum(b.cols for b in blocks), 0, []
    for b in blocks:
        rows += [(0,) * c0 + row + (0,) * (cols - c0 - b.cols) for row in b.entries]
        c0 += b.cols
    return IntMatrix(len(rows), cols, tuple(rows))


def direct_sum_with_layout(modules: Sequence[CRTModule]) -> tuple[CRTModule, dict]:
    """Degreewise block sum, canonicalized; layouts keyed by (part, degree)."""
    layouts = {(p, n): sum_layout([m.group(p, n) for m in modules]) for p in PARTS for n in range(8)}
    module = presented_module(layouts, lambda name, n: _block_diag([m.op(name, n).matrix for m in modules]))
    return module, layouts


def direct_sum(*modules: CRTModule) -> CRTModule:
    return direct_sum_with_layout(modules)[0]


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
    """Does the degreewise family commute with all eight operations?

    Each square phi_t.M_op = N_op.phi_s compares its two products as
    hom_compose's composites would compare, endpoints included, without
    building them (_product).
    """
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for n in range(8):
            M_op, N_op = M.op(name, n), N.op(name, n)
            phi_s, phi_t = phi[(src, n)], phi[(tgt, (n + shift) % 8)]
            if _product(_triple(phi_t), _triple(M_op)) != _product(_triple(N_op), _triple(phi_s)):
                return False
    return True


def commutation_map(M: CRTModule, N: CRTModule, instances: Iterable[tuple[str, int]]
                    ) -> tuple[list[tuple[int, ...]], list[list[int]], list[list[int]]]:
    """phi -> phi_t.M_op - N_op.phi_s at each operation instance, on families of slot homs.

    The unknowns are the hom_coords of each Hom(M_slot, N_slot), in SLOTS
    order; the values of an instance from slot s to slot t are the
    hom_coords of Hom(M_s, N_t), each entry of the product divided by its
    step (both products are homs).  Returns (images, value orders per
    instance, unknown orders per slot): images[j], the image of unknown
    j, lists the values of the instances in the order given.
    """
    unknown = {slot: hom_coords(M.group(*slot), N.group(*slot)) for slot in SLOTS}
    at = dict(zip(SLOTS, itertools.accumulate((len(unknown[slot]) for slot in SLOTS), initial=0)))
    width = sum(map(len, unknown.values()))
    rows, value_orders = [], []
    for name, n in instances:
        src, tgt, shift = OP_SPECS[name]
        s, t = slot_of(src, n), slot_of(tgt, n + shift)
        P, Q = M.op(name, n), N.op(name, n)
        coords = hom_coords(P.domain, Q.codomain)
        for r, c, step, _ in coords:
            row = [0] * width
            for j, (row_t, col, st, _) in enumerate(unknown[t], at[t]):
                if row_t == r:
                    row[j] += st * P.matrix.entries[col][c]
            for j, (row_s, col, st, _) in enumerate(unknown[s], at[s]):
                if col == c:
                    row[j] -= Q.matrix.entries[r][row_s] * st
            rows.append([x // step for x in row])
        value_orders.append([order for *_, order in coords])
    images = list(zip(*rows)) if rows else [()] * width
    return images, value_orders, [[order for *_, order in unknown[slot]] for slot in SLOTS]


def crt_isomorphic(M: CRTModule, N: CRTModule, budget: int = 2_000_000) -> Optional[Morphism]:
    """Search for a CRT-isomorphism between modules with finite parts.

    An isomorphism in our storage convention repeats with the period of
    each part, so it is an automorphism of each of the 14 slot groups, and
    the families that commute with all 64 operation instances form
    Hom_CRT(M, N), the kernel of commutation_map L.  One echelon_mod of
    the graph {(L.e_j, e_j)}, values first, gives echelon generators of
    the kernel.  backtrack assigns the slots in SLOTS order, each by the
    coefficients of the pivots in its coordinates: every prefix extends to
    a homomorphism, so is_automorphism is the only test that can fail.
    One node is one coefficient choice, counted against budget; the first
    at a slot is all zeros.  Equal modules need no search: the
    answer is the identity family, charged one node per slot, so a budget
    below 14 raises BudgetExceeded for them too.  Its message names the
    slot being tried and the nodes counted, the one over budget included.

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

    def tick(slot):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"isomorphism search budget exceeded at slot {slot[0]}_{slot[1]} "
                                 f"after {nodes} nodes")

    if M == N:
        for slot in SLOTS:
            tick(slot)
        return {(p, n): identity_hom(M.group(p, n)) for p in PARTS for n in range(8)}

    images, value_orders, unknown_orders = commutation_map(M, N, itertools.product(OP_NAMES, range(8)))
    values, unknowns = ([o for orders in listed for o in orders] for listed in (value_orders, unknown_orders))
    graph = [image + (0,) * j + (1,) + (0,) * (len(unknowns) - j - 1) for j, image in enumerate(images)]
    hom = [v[len(values):] for v in echelon_mod(graph, values + unknowns)[len(values):]]
    ends = dict(zip(SLOTS, itertools.pairwise(itertools.accumulate(map(len, unknown_orders), initial=0))))
    choice: dict[tuple[str, int], tuple[tuple[int, ...], GroupHom]] = {}  # slot -> (coefficients, map)

    def options(slot) -> Iterator[tuple[tuple[int, ...], GroupHom]]:
        (lo, hi), G = ends[slot], M.group(*slot)
        before = [a for prior in SLOTS[:SLOTS.index(slot)] for a in choice[prior][0]]
        for coeffs in itertools.product(*(range(unknowns[j] // hom[j][j]) for j in range(lo, hi))):
            xs = [sum(ai * v[c] for ai, v in zip(before + list(coeffs), hom)) for c in range(lo, hi)]
            yield coeffs, GroupHom(G, G, hom_matrix(G, G, xs))

    found = backtrack(SLOTS, options, lambda slot: is_automorphism(M.group(*slot), choice[slot][1].matrix.entries),
                      choice, tick)
    if next(found, None) is None:
        return None
    return {(p, n): choice[slot_of(p, n)][1] for p in PARTS for n in range(8)}


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def group_to_json(G: FinAbGroup) -> dict:
    return {"torsion": list(G.torsion), "rank": G.free_rank}


_JSON_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def _typed(value, kind: type, field: str, length: Optional[int] = None):
    """value, if its type is kind itself (no bool or float passes for an int) and it has length entries.

    Otherwise a ValueError names field: JSON input is checked where it enters.
    """
    if type(value) is not kind:
        raise ValueError(f"{field} must be {_JSON_KINDS[kind]}, not {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ValueError(f"{field} must have {length} entries, not {len(value)}")
    return value


def group_from_json(obj: dict, field: str = "group") -> FinAbGroup:
    _typed(obj, dict, field)
    torsion = _typed(obj["torsion"], list, f"{field}.torsion")
    return FinAbGroup(tuple(_typed(t, int, f"{field}.torsion[{i}]") for i, t in enumerate(torsion)),
                      _typed(obj["rank"], int, f"{field}.rank"))


def hom_to_json(h: GroupHom) -> dict:
    return {"dom": group_to_json(h.domain), "cod": group_to_json(h.codomain),
            "matrix": [list(row) for row in h.matrix.entries]}


def hom_from_json(obj: dict, field: str = "hom") -> GroupHom:
    _typed(obj, dict, field)
    dom = group_from_json(obj["dom"], f"{field}.dom")
    cod = group_from_json(obj["cod"], f"{field}.cod")
    rows = [[_typed(x, int, f"{field}.matrix[{i}][{j}]") for j, x in enumerate(_typed(row, list, f"{field}.matrix[{i}]"))]
            for i, row in enumerate(_typed(obj["matrix"], list, f"{field}.matrix"))]
    return GroupHom(dom, cod, IntMatrix.from_rows(rows, cols=dom.ngens))


def module_to_json(M: CRTModule) -> dict:
    return {
        "MO": [group_to_json(M.group("O", n)) for n in range(8)],
        "MU": [group_to_json(M.group("U", n)) for n in range(8)],
        "MT": [group_to_json(M.group("T", n)) for n in range(8)],
        "ops": {name: [hom_to_json(M.op(name, n)) for n in range(8)] for name in OP_NAMES},
    }


def module_from_json(obj: dict) -> CRTModule:
    """The module of a JSON object; a ValueError or KeyError names what is malformed or missing."""
    _typed(obj, dict, "module")
    groups = {p: [group_from_json(g, f"{key}[{n}]") for n, g in enumerate(_typed(obj[key], list, key, 8))]
              for p, key in _PART_FIELD.items()}
    ops = _typed(obj["ops"], dict, "ops")
    mats = {}
    for name, (src, tgt, shift) in OP_SPECS.items():
        mats[name] = []
        for n, h in enumerate(_typed(ops[name], list, f"ops.{name}", 8)):
            h = hom_from_json(h, f"ops.{name}[{n}]")
            want = groups[src][n], groups[tgt][(n + shift) % 8]
            if (h.domain, h.codomain) != want:
                raise ValueError(f"ops.{name}[{n}] maps {h.domain} -> {h.codomain}, not {want[0]} -> {want[1]}")
            mats[name].append(h.matrix)
    return make_module(groups, mats)
