"""Tensor product and Tor in the CRT category.

Tensoring a free module F against an arbitrary module N follows the
pairing axioms of the monogenic modules R, C and T.  They are data, three
tables in the word notation of crt_core.CHECKS, and every word is read by
its evaluator (crt_core._side_value):

- _SLOTS: each part of (summand ⊗ N) is a direct sum of N's groups, one
  per provenance slot, whose generators are operation words applied to
  pure tensors;
- _BLOCKS: each raw operation of (summand ⊗ N) is a block matrix over
  the slots, every block a sign times a word in N's operations;
- _EXPANSION: a basis vector of F tensored with n, in slot coordinates,
  is a sum of signs times words in N's operations applied to n.

A sign is 1, -1, s or -s, where s = (-1)^g for the summand's generator
degree g: the axioms for gamma and tau across a product carry
(-1)^degree factors, and window degrees preserve parity.  The assembled
module is validated by the relation suite on construction and every
induced map mu ⊗ 1 is checked natural, so a wrong rule cannot survive
silently.

What the structure fixes is not recomputed.  A raw matrix between
identity layouts (zlinalg.Layout.identity) is already canonical, so
R(0) ⊗ N has N's own groups and matrices.

Tor and the tensor of a resolved module are the degreewise kernel and
cokernel of the induced map of a length-one free resolution; the cokernel,
like the tensor of a free module, is a crt_core.presented_module.  Tor's
operations are solved in one linear system per target degree, and an
operation that leaves the kernel is a fatal error.  When the resolved
module and N are finite and share no prime, both are the zero module,
read off their orders: each order annihilates the tensor and Tor, and
coprime orders leave only zero.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .crt_core import (
    CRTModule,
    Morphism,
    OP_NAMES,
    OP_SPECS,
    PART_PERIOD,
    PARTS,
    _checked,
    _parse_side,
    _product,
    _side_hom,
    _side_value,
    make_module,
    morphism_commutes,
    presented_module,
    sum_layout,
    verify_relations,
    zero_module,
)
from .free_crt import (
    FreeCRT,
    FreeMorphism,
    MonogenicKind,
    _words_for,
    morphism_realize,
)
from .zlinalg import (
    GroupHom,
    IntMatrix,
    cokernel_data,
    cokernel_layout,
    hom_kernel,
    is_exact_at,
    solve_int,
)

# A sign by the parity of the generator degree g: s = (-1)^g.
_SIGN = {1: (1, 1), -1: (-1, -1), "s": (1, -1), "-s": (-1, 1)}


def _signed(sign, word: str) -> tuple:
    """(the sign's values for even and odd g, the parsed word)."""
    return _SIGN[sign], _parse_side(word)


def _slot(label: str, n_part: str, offset: int, pre: str, post: str, n_word: str) -> tuple:
    """A slot with its words parsed; a part's identity ("O", "U", "T") is None, and nothing is applied."""
    return (label, n_part, offset, *(None if word in PARTS else _parse_side(word) for word in (pre, post, n_word)))


# Provenance slots per summand kind and part: (label, N part, degree offset,
# pre, post, n-word).  A slot at window m of a summand with generator degree g
# holds N^{N part}_{m - g + offset}, and n there stands for the element
# post(pre(b) ⊗ n-word(n)) of the tensor, b the summand's generator: pre is
# read on the free module at b's degree, n-word on N at n's degree, and post
# on the tensor at the window of the pure tensor, whose part is the N part.
_SLOTS = {
    "R": {
        "O": (_slot("b~", "O", 0, "O", "O", "O"),),
        "U": (_slot("cb~", "U", 0, "c", "U", "U"),),
        "T": (_slot("eb~", "T", 0, "eps", "T", "T"),),
    },
    "C": {
        "O": (_slot("r(b~)", "U", 0, "U", "r", "U"),),
        "U": (_slot("b~", "U", 0, "U", "U", "U"), _slot("psiU.b~", "U", 0, "U", "psiU", "psiU")),
        "T": (_slot("gamma(b~)", "U", 1, "U", "gamma", "U"), _slot("eps.r(b~)", "U", 0, "U", "eps.r", "U")),
    },
    "T": {
        "O": (_slot("tau(b~)", "T", -1, "T", "tau", "T"),),
        "U": (_slot("zb~", "U", 0, "zeta", "U", "U"), _slot("ctb~", "U", -1, "c+1.tau", "U", "U")),
        "T": (_slot("b~", "T", 0, "T", "T", "T"), _slot("etb~", "T", -1, "eps+1.tau", "T", "T")),
    },
}

# The raw operations of (summand ⊗ N) per kind: {(target slot, source slot):
# (sign, word)}, slots numbered as in _SLOTS, words read on N at o = m - g for
# the source window m.  A missing block is zero.
_BLOCKS = {kind: {name: {key: _signed(*value) for key, value in blocks.items()} for name, blocks in ops.items()}
           for kind, ops in {
    # A real summand pairs each operation with N's own, twisted by s across a degree shift.
    "R": {name: {(0, 0): ("s" if shift else 1, name)} for name, (_, _, shift) in OP_SPECS.items()},
    "C": {
        "c": {(0, 0): (1, "U"), (1, 0): (1, "psiU")},
        "r": {(0, 0): (1, "U"), (0, 1): (1, "psiU")},
        "eps": {(1, 0): (1, "U")},
        "zeta": {(0, 1): (1, "U"), (1, 1): (1, "psiU")},
        "psiU": {(0, 1): (1, "psiU"), (1, 0): (1, "psiU")},
        "psiT": {(0, 0): (-1, "U+1"), (1, 1): (1, "U")},
        "gamma": {(0, 0): (1, "U"), (0, 1): (1, "psiU")},
        "tau": {(0, 0): (1, "U+1")},
    },
    "T": {
        "c": {(0, 0): ("s", "c.tau-1"), (1, 0): (1, "zeta-1")},
        "r": {(0, 0): ("s", "gamma"), (0, 1): (1, "eps-1.r-1")},
        "eps": {(0, 0): ("s", "eps.tau-1 + gamma+1.zeta-1"), (1, 0): (1, "T-1")},
        "zeta": {(0, 0): (1, "zeta"), (1, 1): (1, "zeta-1")},
        "psiU": {(0, 0): (1, "psiU"), (1, 1): (1, "psiU-1")},
        "psiT": {(0, 0): (1, "psiT"), (1, 0): ("s", "gamma.zeta"), (1, 1): (1, "psiT-1")},
        "gamma": {(0, 0): ("s", "gamma"), (1, 1): ("-s", "gamma-1")},
        "tau": {(0, 0): (1, "T"), (0, 1): ("-s", "eps.tau-1")},
    },
}.items()}

# (basis vector of a summand) ⊗ n in the summand's slots: keyed by (kind,
# part, offset of the basis vector from the generator degree modulo the part's
# period, position of its word in that offset's list in _tables.BASIS_WORDS),
# a sum of terms (slot, sign, word), the word read on N at n's degree.  The
# words of both tables share crt_core._parse_side's notation: e.g. R's basis
# word "r+4.c" moves onto n as the same word.
_EXPANSION = {key: tuple((slot, *_signed(sign, word)) for slot, sign, word in terms) for key, terms in {
    ("R", "O", 0, 0): [(0, 1, "O")],
    ("R", "O", 1, 0): [(0, "s", "tau.eps")],
    ("R", "O", 2, 0): [(0, 1, "tau+1.eps+1.tau.eps")],
    ("R", "O", 4, 0): [(0, 1, "r+4.c")],
    ("R", "U", 0, 0): [(0, 1, "U")],
    ("R", "T", 0, 0): [(0, 1, "T")],
    ("R", "T", 1, 0): [(0, "s", "gamma+2.zeta")],
    ("R", "T", 3, 0): [(0, "s", "gamma.zeta")],
    ("C", "O", 0, 0): [(0, 1, "c")],
    ("C", "O", 2, 0): [(0, -1, "c")],
    ("C", "O", 4, 0): [(0, 1, "c")],
    ("C", "O", 6, 0): [(0, -1, "c")],
    ("C", "U", 0, 0): [(0, 1, "U")],
    ("C", "U", 0, 1): [(1, 1, "U")],
    ("C", "T", 0, 0): [(0, "s", "c+1.tau"), (1, 1, "zeta")],
    ("C", "T", 1, 0): [(0, 1, "zeta")],
    ("C", "T", 2, 0): [(0, "s", "c+1.tau"), (1, 1, "zeta")],
    ("C", "T", 3, 0): [(0, 1, "zeta")],
    ("T", "O", 0, 0): [(0, "-s", "gamma.zeta.eps")],
    ("T", "O", 1, 0): [(0, 1, "eps")],
    ("T", "O", 2, 0): [(0, "-s", "eps+1.tau.eps")],
    ("T", "O", 4, 0): [(0, "-s", "gamma.zeta.eps")],
    ("T", "O", 5, 0): [(0, 1, "eps")],
    ("T", "O", 6, 0): [(0, "-s", "eps+1.tau.eps")],
    ("T", "U", 0, 0): [(0, -1, "U")],
    ("T", "U", 1, 0): [(1, 1, "U")],
    ("T", "T", 0, 0): [(0, -1, "T")],
    ("T", "T", 0, 1): [(1, "-s", "gamma.zeta")],
    ("T", "T", 1, 0): [(0, "s", "gamma+2.zeta")],
    ("T", "T", 1, 1): [(1, 1, "T")],
    ("T", "T", 2, 0): [(1, "-s", "gamma+2.zeta")],
    ("T", "T", 3, 0): [(0, "-s", "gamma.zeta")],
}.items()}


@dataclass(eq=False)
class TensorSlot:
    summand: int
    label: str
    n_part: str
    n_degree: int
    offset: int
    width: int


@dataclass(eq=False)
class TensorModule:
    """tensor_free(F, N): canonical module plus provenance bookkeeping."""

    module: CRTModule
    free: FreeCRT
    factor: CRTModule
    slots: dict
    layouts: dict
    raw_ops: dict


def tensor_free(F: FreeCRT, N: CRTModule) -> TensorModule:
    """Tensor a free module with N over the provenance slot construction.

    F is read only through its summands, so the result is built and
    validated once per distinct (F.summands, N) in a process; a repeat
    carries the caller's F and N and shares the module, slots, layouts
    and raw operations, which nothing mutates.
    """
    module, slots, layouts, raw_ops = _tensor_parts(F.summands, N)
    return TensorModule(module, F, N, slots, layouts, raw_ops)


@functools.cache
def _tensor_parts(summands: tuple[MonogenicKind, ...], N: CRTModule) -> tuple:
    """(module, slots, layouts, raw operations) of tensor_free, validated."""
    slots: dict = {}
    layouts: dict = {}
    for p in PARTS:
        for m in range(8):
            lst, offset = [], 0
            for i, smd in enumerate(summands):
                for label, npart, rel, *_ in _SLOTS[smd.kind][p]:
                    d = (m - smd.generator_degree + rel) % 8
                    width = N.group(npart, d).ngens
                    lst.append(TensorSlot(i, label, npart, d, offset, width))
                    offset += width
            slots[(p, m)] = lst
            layouts[(p, m)] = sum_layout([N.group(sl.n_part, sl.n_degree) for sl in lst])
    first = {p: _first_slots(summands, p) for p in PARTS}
    raw_ops = {(name, m): _raw_op(summands, N, slots, first, name, m) for name in OP_NAMES for m in range(8)}
    module = presented_module(layouts, lambda name, m: raw_ops[(name, m)])
    rep = verify_relations(module)
    if not rep.ok():
        raise ValueError(f"assembled tensor fails relations: {rep}")
    return module, slots, layouts, raw_ops


def _first_slots(summands: Sequence[MonogenicKind], part: str) -> list[int]:
    """The index of each summand's first slot in a slot list of part, the same at every window."""
    return list(itertools.accumulate((len(_SLOTS[smd.kind][part]) for smd in summands), initial=0))


def _raw_op(summands: tuple[MonogenicKind, ...], N: CRTModule, slots: dict, first: dict,
            name: str, m: int) -> IntMatrix:
    """Operation name at window m in raw slot coordinates: each summand's _BLOCKS in place."""
    src, tgt, shift = OP_SPECS[name]
    targets, sources = slots[(tgt, (m + shift) % 8)], slots[(src, m)]
    rows, cols = sum([sl.width for sl in targets]), sum([sl.width for sl in sources])
    if not (rows and cols):  # a map to or from a trivial group: nothing to place
        return IntMatrix.zeros(rows, cols)
    out = [[0] * cols for _ in range(rows)]
    for smd, t, s in zip(summands, first[tgt], first[src]):
        g = smd.generator_degree
        for (a, b), (sign, word) in _BLOCKS[smd.kind][name].items():
            k, lo = sign[g % 2], sources[s + b].offset
            for i, row in enumerate(_side_value(N, m - g, word)[2], targets[t + a].offset):
                out[i][lo:lo + len(row)] = row if k == 1 else [k * x for x in row]
    return IntMatrix(rows, cols, tuple(map(tuple, out)))


def _shift(word: tuple) -> int:
    """The degree shift of a one-term operation word: its last operation's offset and shift."""
    ((_, ((name, off), *_)),) = word
    return off + OP_SPECS[name][2]


def _expansion(F: FreeCRT, part: str, e: int, y: Sequence[int]) -> list[tuple]:
    """y ⊗ n for y in F's group at (part, e), as terms (slot index, coefficient, word read on n).

    Each raw coordinate of y is a basis vector of a summand, and it adds its
    _EXPANSION terms in that summand's slots; a slot's index in the slot
    list is the same at every window.
    """
    terms = []
    coefs = iter(F.layouts[(part, e % 8)].reps.apply(y))
    for smd, first in zip(F.summands, _first_slots(F.summands, part)):
        g = smd.generator_degree
        off = (e - g) % 8
        for idx in range(len(_words_for(smd.kind, part, off))):
            coef = next(coefs)
            if coef:
                key = (smd.kind, part, off % PART_PERIOD[part], idx)
                terms += [(first + k, coef * sign[g % 2], word) for k, sign, word in _EXPANSION[key]]
    return terms


def _pure_tensors(TT: TensorModule, part: str, m: int, terms: list[tuple], d: int) -> tuple:
    """n -> y ⊗ n from N^part_d to TT's group at (part, m), for y ⊗ n as _expansion terms.

    The raw sum is read in canonical coordinates and returned as a checked
    (domain, codomain, rows) triple.
    """
    N = TT.factor
    dom, lay, slots = N.group(part, d), TT.layouts[(part, m)], TT.slots[(part, m)]
    raw = [[0] * dom.ngens for _ in range(lay.proj.cols)]
    for index, c, word in terms:
        for row, add in zip(raw[slots[index].offset:], _side_value(N, d, word)[2]):
            row[:] = [x + c * v for x, v in zip(row, add)]
    if not lay.identity:
        raw = (lay.proj * IntMatrix(len(raw), dom.ngens, tuple(map(tuple, raw)))).entries
    return _checked(dom, lay.group, raw)


# ---------------------------------------------------------------------------
# Induced maps of tensors along free morphisms
# ---------------------------------------------------------------------------


def induced_tensor_map(mor: FreeMorphism, N: CRTModule) -> Morphism:
    """The degreewise family of (mor ⊗ 1) on the provenance construction, checked natural.

    By functoriality mor's generator images fix the family.  The slot of a
    summand with generator b sends n to post(pre(b) ⊗ n-word(n))
    (_SLOTS), so mor ⊗ 1 sends it to post(pre(x) ⊗ n-word(n)), x = mor(b):
    pre is read on mor's target, the pure tensors of pre(x) on the target
    tensor's slots (_pure_tensors), post on its module and n-word on N.
    """
    src, tgt = tensor_free(mor.source, N), tensor_free(mor.target, N)
    fam: Morphism = {}
    for part in PARTS:
        # per slot, in slot order: the degree of pre(x), the expansion of pre(x) ⊗ n, post, n-word
        rules = []
        for smd, x in zip(mor.source.summands, mor.images):
            for _, n_part, _, pre, post, n_word in _SLOTS[smd.kind][part]:
                e, y = x.degree, x.vec
                if pre is not None:
                    e, y = e + _shift(pre), _side_hom(mor.target.realized, e, pre).apply(y)
                rules.append((e, _expansion(mor.target, n_part, e, y), post, n_word))
        for m in range(8):
            H = tgt.module.group(part, m)
            rows = [[] for _ in range(H.ngens)]
            for sl, (e, terms, post, n_word) in zip(src.slots[(part, m)], rules):
                if not sl.width:  # a slot over a trivial group has no generators
                    continue
                m1 = e + sl.n_degree
                image = _pure_tensors(tgt, sl.n_part, m1 % 8, terms, sl.n_degree)
                if post is not None:
                    image = _product(_side_value(tgt.module, m1, post), image)
                if n_word is not None:
                    image = _product(image, _side_value(N, sl.n_degree, n_word))
                for row, piece in zip(rows, image[2]):
                    row.extend(piece)
            lay = src.layouts[(part, m)]
            raw = IntMatrix(H.ngens, lay.proj.cols, tuple(map(tuple, rows)))
            fam[(part, m)] = GroupHom(src.module.group(part, m), H, raw if lay.identity else raw * lay.reps)
    if not morphism_commutes(src.module, tgt.module, fam):
        raise ValueError("induced tensor map fails naturality")
    return fam


# ---------------------------------------------------------------------------
# Resolutions, tensor, Tor
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FreeResolution:
    """0 -> F1 --mu1--> F0 --mu0--> target -> 0, exact degreewise."""

    F1: FreeCRT
    mu1: FreeMorphism
    F0: FreeCRT
    target: CRTModule
    mu0: Morphism

    def __post_init__(self):
        fam1 = morphism_realize(self.mu1)
        for p in PARTS:
            for nn in range(8):
                f1 = fam1[(p, nn)]
                f0 = self.mu0[(p, nn)]
                K, _ = hom_kernel(f1)
                if not K.is_trivial():
                    raise ValueError(f"mu1 not injective at ({p},{nn})")
                C, _ = cokernel_data(f0)[:2]
                if not C.is_trivial():
                    raise ValueError(f"mu0 not surjective at ({p},{nn})")
                if not is_exact_at(f1, f0):
                    raise ValueError(f"resolution not exact at ({p},{nn})")


def restrict_to_kernels(M: CRTModule, fam: Morphism) -> tuple[CRTModule, Morphism]:
    """The degreewise kernel of a morphism out of M, with operations restricted.

    Each column of op·incl_s is solved in [incl_t | relations], one system
    per target degree built on first use, and reduced modulo K_t.  A column
    with no solution is fatal (the family was not a CRT-morphism), also when
    K_t is trivial; only an operation out of a trivial K_s is skipped.
    """
    kern = {key: hom_kernel(f) for key, f in fam.items()}
    groups = {p: [kern[(p, n)][0] for n in range(8)] for p in PARTS}
    systems: dict = {}
    mats = {name: [] for name in OP_NAMES}
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for n in range(8):
            K_s, incl_s = kern[(src, n)]
            key_t = (tgt, (n + shift) % 8)
            K_t, incl_t = kern[key_t]
            if not K_s.ngens:
                mats[name].append(IntMatrix.zeros(K_t.ngens, 0))
                continue
            if (A := systems.get(key_t)) is None:
                A = systems[key_t] = incl_t.matrix.hstack(incl_t.codomain.relation_matrix())
            cols = []
            for y in (M.op(name, n).matrix * incl_s.matrix).columns():
                c = solve_int(A, y)
                if c is None:
                    raise ValueError(f"kernel not closed under {name} at degree {n}")
                cols.append(K_t.reduce(c[:K_t.ngens]))
            mats[name].append(IntMatrix.from_cols(cols, rows=K_t.ngens))
    return make_module(groups, mats), {key: kern[key][1] for key in kern}


def quotient_by_image(M: CRTModule, fam: Morphism) -> CRTModule:
    """The degreewise cokernel of a morphism into M, with induced operations."""
    return presented_module({key: cokernel_layout(f) for key, f in fam.items()},
                            lambda name, n: M.op(name, n).matrix)


@dataclass(eq=False)
class TorPair:
    """Cokernel (tensor) and kernel (Tor) of mu1 ⊗ 1."""

    tensor: CRTModule
    tor: CRTModule


def tensor_and_tor(res: FreeResolution, N: CRTModule) -> TorPair:
    """Tensor and Tor of the resolved module with N.

    The tensor is the degreewise cokernel of mu1 ⊗ 1 with operations
    induced on the quotients; Tor is the degreewise kernel with operations
    restricted.  Both results are validated against the relation suite,
    once per distinct value (verify_relations caches its failures).

    When A = res.target and N are finite of coprime orders (CRTModule.order),
    both are the zero module and nothing is built.  Tensor and Tor are
    additive in each variable: m·id_A lifts to m·id on the resolution, so
    it induces multiplication by m on A ⊗ N and Tor(A, N), and likewise
    for N.  Hence |A| and |N| both annihilate them, and u|A| + v|N| = 1
    makes each identity map zero.
    """
    a, n = res.target.order(), N.order()
    if a is not None and n is not None and gcd(a, n) == 1:
        return TorPair(zero_module(), zero_module())
    ind = induced_tensor_map(res.mu1, N)
    tensor_mod = quotient_by_image(tensor_free(res.F0, N).module, ind)
    tor_mod, _ = restrict_to_kernels(tensor_free(res.F1, N).module, ind)
    rep = verify_relations(tensor_mod)
    if not rep.ok():
        raise ValueError(f"tensor fails relations: {rep}")
    rep = verify_relations(tor_mod)
    if not rep.ok():
        raise ValueError(f"Tor fails relations: {rep}")
    return TorPair(tensor_mod, tor_mod)
