"""Tensor product and Tor in the CRT category.

Tensoring a free module F against an arbitrary module N follows the
pairing axioms of the monogenic modules R, C and T.  They are data, three
tables in the word notation of crt_core.CHECKS (_tables.SLOT_WORDS,
BLOCK_WORDS and EXPANSION_WORDS), typed here at import: each word must
run between the groups its entry joins, so a word that chains but sits in
the wrong entry fails at import.  Every word is read by crt_core's
evaluator (crt_core._side_value):

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

from . import _tables
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
    _with_ends,
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


def _signed(sign, word: str, source: tuple[str, int], target: tuple[str, int], entry) -> tuple:
    """(the sign's values for even and odd g, the word parsed), the word typed to run from source to target."""
    return _SIGN[sign], _with_ends(_parse_side(word), word, source, target, entry)


def _slot(kind: str, part: str, label: str, n_part: str, offset: int, pre: str, post: str, n_word: str) -> tuple:
    """A slot of _tables.SLOT_WORDS with its words parsed, and typed against the slot.

    pre runs from the generator (its part, offset 0) into the N part, post
    from there into the slot's part, and the two shift the degree by
    -offset; n-word runs in the N part with no shift.  A part's identity
    ("O", "U", "T") is None afterwards, and nothing is applied.
    """
    entry = f"slot {label} of {kind}, part {part}"
    pre_side, post_side, n_side = map(_parse_side, (pre, post, n_word))
    shift = _shift(pre_side)
    _with_ends(pre_side, pre, (_tables.GENERATOR[kind][0], 0), (n_part, shift), entry)
    _with_ends(post_side, post, (n_part, 0), (part, -offset - shift), entry)
    _with_ends(n_side, n_word, (n_part, 0), (n_part, 0), entry)
    return (label, n_part, offset, *(None if word in PARTS else side
                                     for word, side in ((pre, pre_side), (post, post_side), (n_word, n_side))))


def _shift(word: tuple) -> int:
    """The degree shift of a one-term word: its last factor's offset and shift (none for an identity)."""
    ((_, ((name, off), *_)),) = word
    return off + OP_SPECS.get(name, (name, name, 0))[2]


# The slots per kind and part, each typed (_slot).
_SLOTS = {kind: {part: tuple(_slot(kind, part, *slot) for slot in slots) for part, slots in parts.items()}
          for kind, parts in _tables.SLOT_WORDS.items()}


def _block(kind: str, name: str, a: int, b: int, sign, word: str) -> tuple:
    """Block (a, b) of _tables.BLOCK_WORDS, typed: from source slot b's N group to target slot a's."""
    src, tgt, shift = OP_SPECS[name]
    _, source_part, source_offset, *_ = _SLOTS[kind][src][b]
    _, target_part, target_offset, *_ = _SLOTS[kind][tgt][a]
    return _signed(sign, word, (source_part, source_offset), (target_part, shift + target_offset),
                   f"block {(a, b)} of {name} on {kind}")


def _term(key: tuple, slot: int, sign, word: str) -> tuple:
    """A term of _tables.EXPANSION_WORDS, typed: from n to the slot's N group at the basis vector's offset."""
    kind, part, offset, _ = key
    _, n_part, slot_offset, *_ = _SLOTS[kind][part][slot]
    return (slot, *_signed(sign, word, (part, 0), (n_part, offset + slot_offset), f"expansion {key}"))


# The raw operations of (summand ⊗ N) per kind, name and (target slot, source slot), each typed (_block).
_BLOCKS = {kind: {name: {(a, b): _block(kind, name, a, b, *value) for (a, b), value in blocks.items()}
                  for name, blocks in ops.items()}
           for kind, ops in _tables.BLOCK_WORDS.items()}
# (basis vector of a summand) ⊗ n as terms (slot, sign, word), each typed (_term).
_EXPANSION = {key: tuple(_term(key, *term) for term in terms) for key, terms in _tables.EXPANSION_WORDS.items()}


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
