"""Tensor product and Tor in the CRT category.

Tensoring a free module against an arbitrary module N is computed from
the pairing axioms: every part of the result is a direct sum of copies of
N's parts indexed by provenance slots (pure tensors decorated by
operations), and the eight operations are assembled from N's stored
matrices by mechanically crossing operation words over the tensor sign.
The assembled module is validated by the relation suite on construction,
so a wrong crossing rule cannot survive silently.

Sign bookkeeping: the axioms for gamma and tau across a product carry
(-1)^degree factors; window degrees preserve parity, so the signs below
depend only on the generator degree parity and fixed offsets.

Tor and the tensor of a resolved module are the degreewise kernel and
cokernel of the induced map of a length-one free resolution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from .crt_core import (
    CRTModule,
    Morphism,
    OP_NAMES,
    OP_SPECS,
    PARTS,
    _block_diag,
    eta_O,
    eta_T,
    make_module,
    morphism_commutes,
    omega,
    sum_layout,
    verify_relations,
    xi,
)
from .free_crt import Element, FreeCRT, FreeMorphism, MonogenicKind, _words_for, act, morphism_realize
from .zlinalg import (
    GroupHom,
    IntMatrix,
    cokernel_data,
    hom_compose,
    hom_kernel,
    hom_preimage,
    is_exact_at,
)

# Provenance slots per summand kind: (slot label, N part, degree offset).
# A slot at window m of a summand with generator degree g holds the group
# N^{part}_{m - g + rel}.
_SLOTS = {
    "R": {
        "O": (("b~", "O", 0),),
        "U": (("cb~", "U", 0),),
        "T": (("eb~", "T", 0),),
    },
    "C": {
        "O": (("r(b~)", "U", 0),),
        "U": (("b~", "U", 0), ("psiU.b~", "U", 0)),
        "T": (("gamma(b~)", "U", 1), ("eps.r(b~)", "U", 0)),
    },
    "T": {
        "O": (("tau(b~)", "T", -1),),
        "U": (("zb~", "U", 0), ("ctb~", "U", -1)),
        "T": (("b~", "T", 0), ("etb~", "T", -1)),
    },
}


def _summand_raw_op(kind: str, g: int, N: CRTModule, name: str, m: int) -> IntMatrix:
    """Raw matrix of one operation on (summand ⊗ N) at window m."""
    o = m - g
    s = -1 if g % 2 else 1

    def blocks(rows):
        widths = [b.cols for b in rows[0]]
        out = []
        for row in rows:
            height = row[0].rows
            ro = [[0] * sum(widths) for _ in range(height)]
            c0 = 0
            for j, b in enumerate(row):
                for ii, r in enumerate(b.entries):
                    for jj, x in enumerate(r):
                        ro[ii][c0 + jj] = x
                c0 += widths[j]
            out.extend(ro)
        return IntMatrix.from_rows(out, cols=sum(widths))

    def op(nm, d):
        return N.op(nm, d).matrix

    def ident(part, d):
        return IntMatrix.identity(N.group(part, d % 8).ngens)

    if kind == "R":
        twist = s if name in ("gamma", "tau") else 1
        return N.op(name, o % 8).matrix.scale(twist)

    if kind == "C":
        psi = op("psiU", o)
        I = ident("U", o)
        if name == "c":
            return blocks([[I], [psi]])
        if name == "r":
            return blocks([[I, psi]])
        if name == "eps":
            return blocks([[IntMatrix.zeros(N.group("U", (o + 1) % 8).ngens, I.cols)], [I]])
        if name == "zeta":
            z = IntMatrix.zeros(I.rows, N.group("U", (o + 1) % 8).ngens)
            return blocks([[z, I], [z, psi]])
        if name == "psiU":
            z = IntMatrix.zeros(I.rows, I.cols)
            return blocks([[z, psi], [psi, z]])
        if name == "psiT":
            I1 = ident("U", o + 1)
            return blocks([[-I1, IntMatrix.zeros(I1.rows, I.cols)],
                           [IntMatrix.zeros(I.rows, I1.cols), I]])
        if name == "gamma":
            # lands in slots (gamma: N^U_o, eps.r: N^U_{o-1}) of window m-1
            zw = IntMatrix.zeros(N.group("U", (o - 1) % 8).ngens, 2 * I.cols)
            top = blocks([[I, psi]])
            return blocks([[top], [zw]])
        if name == "tau":
            I1 = ident("U", o + 1)
            return blocks([[I1, IntMatrix.zeros(I1.rows, I.cols)]])

    if kind == "T":
        if name == "c":
            a = hom_compose(N.op("c", o), N.op("tau", o - 1)).matrix.scale(s)
            return blocks([[a], [op("zeta", o - 1)]])
        if name == "r":
            b = hom_compose(N.op("eps", o - 1), N.op("r", o - 1)).matrix
            return blocks([[op("gamma", o).scale(s), b]])
        if name == "eps":
            top = (hom_compose(N.op("eps", o), N.op("tau", o - 1)) + eta_T(N, o - 1)).matrix.scale(s)
            return blocks([[top], [ident("T", o - 1)]])
        if name == "zeta":
            z1 = IntMatrix.zeros(N.group("U", o % 8).ngens, N.group("T", (o - 1) % 8).ngens)
            z2 = IntMatrix.zeros(N.group("U", (o - 1) % 8).ngens, N.group("T", o % 8).ngens)
            return blocks([[op("zeta", o), z1], [z2, op("zeta", o - 1)]])
        if name == "psiU":
            z1 = IntMatrix.zeros(N.group("U", o % 8).ngens, N.group("U", (o - 1) % 8).ngens)
            z2 = z1.transpose()
            return blocks([[op("psiU", o), z1], [z2, op("psiU", o - 1)]])
        if name == "psiT":
            z = IntMatrix.zeros(N.group("T", o % 8).ngens, N.group("T", (o - 1) % 8).ngens)
            low = hom_compose(N.op("gamma", o), N.op("zeta", o)).matrix.scale(s)
            return blocks([[op("psiT", o), z], [low, op("psiT", o - 1)]])
        if name == "gamma":
            z1 = IntMatrix.zeros(N.group("T", (o - 1) % 8).ngens, N.group("U", (o - 1) % 8).ngens)
            z2 = IntMatrix.zeros(N.group("T", (o - 2) % 8).ngens, N.group("U", o % 8).ngens)
            return blocks([[op("gamma", o).scale(s), z1],
                           [z2, op("gamma", o - 1).scale(-s)]])
        if name == "tau":
            b = hom_compose(N.op("eps", o), N.op("tau", o - 1)).matrix.scale(-s)
            return blocks([[ident("T", o), b]])

    raise AssertionError(f"no rule for {kind}/{name}")


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
    groups = {p: [] for p in PARTS}
    for p in PARTS:
        for m in range(8):
            lst = []
            offset = 0
            comps = []
            for i, smd in enumerate(summands):
                g = smd.generator_degree
                for label, npart, rel in _SLOTS[smd.kind][p]:
                    d = (m - g + rel) % 8
                    grp = N.group(npart, d)
                    lst.append(TensorSlot(i, label, npart, d, offset, grp.ngens))
                    comps.append(grp)
                    offset += grp.ngens
            slots[(p, m)] = lst
            lay = sum_layout(comps)
            layouts[(p, m)] = lay
            groups[p].append(lay.group)
    raw_ops: dict = {}
    mats: dict = {name: [] for name in OP_NAMES}
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for m in range(8):
            blocks = [_summand_raw_op(s.kind, s.generator_degree, N, name, m)
                      for s in summands]
            raw = _block_diag(blocks)
            raw_ops[(name, m)] = raw
            lay_s = layouts[(src, m)]
            lay_t = layouts[(tgt, (m + shift) % 8)]
            mats[name].append(lay_t.proj * raw * lay_s.reps)
    module = make_module(groups, mats)
    rep = verify_relations(module)
    if not rep.ok():
        raise ValueError(f"assembled tensor fails relations: {rep}")
    return module, slots, layouts, raw_ops


# ---------------------------------------------------------------------------
# Pure tensor expansion: basis vector of F (x) element of N, in slot coords
# ---------------------------------------------------------------------------


def _expand_basis(kind: str, off: int, idx: int, g: int, part: str,
                  N: CRTModule, d2: int):
    """Expansion of (basis vector idx at generator offset off) ⊗ n.

    Returns a list of (slot label, GroupHom applied to the N-element); the
    homomorphism source is N^{part}_{d2}.  Derived from the pairing axioms
    and the basis words; any error here is caught by the naturality checks.
    """
    s = -1 if g % 2 else 1
    off %= 8

    def derived(fn, d):
        return fn(N, d % 8)

    if kind == "R":
        if part == "O":
            rules = {0: (1, None), 1: (s, lambda: derived(eta_O, d2)),
                     2: (1, lambda: hom_compose(eta_O(N, d2 + 1), eta_O(N, d2))),
                     4: (1, lambda: derived(xi, d2))}
            sign, h = rules[off]
            return [("b~", sign, None if h is None else h())]
        if part == "U":
            return [("cb~", 1, None)]
        rules = {0: (1, None), 1: (s, lambda: derived(eta_T, d2)),
                 3: (s, lambda: derived(omega, d2))}
        sign, h = rules[off % 4]
        return [("eb~", sign, None if h is None else h())]

    if kind == "C":
        if part == "U":
            return [("b~" if idx == 0 else "psiU.b~", 1, None)]
        if part == "O":
            sigma = 1 if off % 4 == 0 else -1
            return [("r(b~)", sigma, N.op("c", d2))]
        if off % 2 == 1:
            return [("gamma(b~)", 1, N.op("zeta", d2))]
        return [("gamma(b~)", s, hom_compose(N.op("c", d2 + 1), N.op("tau", d2))),
                ("eps.r(b~)", 1, N.op("zeta", d2))]

    # kind == "T"
    if part == "U":
        if off % 2 == 0:
            return [("zb~", -1, None)]
        return [("ctb~", 1, None)]
    if part == "O":
        c = off % 4
        if c == 1:
            return [("tau(b~)", 1, N.op("eps", d2))]
        if c == 2:
            return [("tau(b~)", -s, hom_compose(N.op("eps", d2 + 1), eta_O(N, d2)))]
        if c == 0:
            return [("tau(b~)", -s, hom_compose(omega(N, d2), N.op("eps", d2)))]
        raise AssertionError("zero group offset")
    c = off % 4
    if c == 0:
        if idx == 0:
            return [("b~", -1, None)]
        return [("etb~", -s, derived(omega, d2))]
    if c == 1:
        if idx == 0:
            return [("b~", s, derived(eta_T, d2))]
        return [("etb~", 1, None)]
    if c == 2:
        return [("etb~", -s, derived(eta_T, d2))]
    return [("b~", -s, derived(omega, d2))]


def _expand_pure(TT: TensorModule, part: str, y: Element, d2: int,
                 nvec: Sequence[int]) -> tuple[int, list[int]]:
    """(window, raw coords) of the pure tensor y ⊗ n in TT's slot layout.

    y is an element of TT.free.realized in the given part; n lives in
    N^{part}_{d2}.
    """
    F, N = TT.free, TT.factor
    m = (y.degree + d2) % 8
    lay_free = F.layouts[(part, y.degree)]
    raw_y = lay_free.reps.apply(y.vec)
    out = [0] * sum(sl.width for sl in TT.slots[(part, m)])
    pos = 0
    for i, smd in enumerate(F.summands):
        g = smd.generator_degree
        off = (y.degree - g) % 8
        words = _words_for(smd.kind, part, off)
        for idx in range(len(words)):
            coef = raw_y[pos]
            pos += 1
            if coef == 0:
                continue
            for label, sign, h in _expand_basis(smd.kind, off, idx, g, part, N, d2):
                vec = tuple(nvec) if h is None else h.apply(nvec)
                slot = _find_slot(TT, part, m, i, label)
                for j, v in enumerate(vec):
                    out[slot.offset + j] += coef * sign * v
    return m, out


def _find_slot(TT: TensorModule, part: str, m: int, summand: int, label: str) -> TensorSlot:
    for sl in TT.slots[(part, m)]:
        if sl.summand == summand and sl.label == label:
            return sl
    raise ValueError(f"no slot {label!r} for summand {summand} at ({part},{m})")


# ---------------------------------------------------------------------------
# Induced maps of tensors along free morphisms
# ---------------------------------------------------------------------------


def induced_tensor_map(mor: FreeMorphism, N: CRTModule,
                       src: Optional[TensorModule] = None,
                       tgt: Optional[TensorModule] = None) -> Morphism:
    """The degreewise family of (mor ⊗ 1) on the provenance construction.

    Each slot generator is an operation word applied to a pure tensor, so
    its image is the same word applied (through the target's raw
    operations) to the expansion of (generator image) ⊗ n.
    """
    if src is None:
        src = tensor_free(mor.source, N)
    if tgt is None:
        tgt = tensor_free(mor.target, N)
    fam: Morphism = {}
    for part in PARTS:
        for m in range(8):
            cols = []
            for i, smd in enumerate(mor.source.summands):
                x = mor.images[i]
                for sl in src.slots[(part, m)]:
                    if sl.summand != i:
                        continue
                    for col in _slot_generator_images(tgt, mor, smd.kind, x, sl, part, m):
                        cols.append(col)
            lay_s = src.layouts[(part, m)]
            lay_t = tgt.layouts[(part, m)]
            raw = IntMatrix.from_cols(cols, rows=sum(s.width for s in tgt.slots[(part, m)]))
            fam[(part, m)] = GroupHom(src.module.group(part, m), tgt.module.group(part, m),
                                      lay_t.proj * raw * lay_s.reps)
    if not morphism_commutes(src.module, tgt.module, fam):
        raise ValueError("induced tensor map fails naturality")
    return fam


def _slot_generator_images(tgt: TensorModule, mor: FreeMorphism, kind: str,
                           x: Element, sl: TensorSlot, part: str, m: int) -> list[list[int]]:
    """Raw-coordinate images of each generator of one source slot."""
    N = tgt.factor
    T = mor.target.realized
    grp = N.group(sl.n_part, sl.n_degree)
    outs = []
    for k in range(grp.ngens):
        n = tuple(1 if j == k else 0 for j in range(grp.ngens))
        outs.append(_slot_image(tgt, kind, x, sl, n, T))
    return outs


def _raw_apply(TT: TensorModule, name: str, m: int, vec: Sequence[int]) -> tuple[int, list[int]]:
    _, _, shift = OP_SPECS[name]
    return (m + shift) % 8, list(TT.raw_ops[(name, m)].apply(vec))


def _slot_image(TT: TensorModule, kind: str, x: Element, sl: TensorSlot,
                n: Sequence[int], target_free: CRTModule) -> list[int]:
    d2 = sl.n_degree
    if kind == "R":
        if sl.label == "b~":
            return _expand_pure(TT, "O", x, d2, n)[1]
        if sl.label == "cb~":
            return _expand_pure(TT, "U", act(target_free, ["c"], x), d2, n)[1]
        return _expand_pure(TT, "T", act(target_free, ["eps"], x), d2, n)[1]
    if kind == "C":
        if sl.label == "r(b~)":
            m1, raw = _expand_pure(TT, "U", x, d2, n)
            return _raw_apply(TT, "r", m1, raw)[1]
        if sl.label == "b~":
            return _expand_pure(TT, "U", x, d2, n)[1]
        if sl.label == "psiU.b~":
            psin = TT.factor.op("psiU", d2).apply(n)
            m1, raw = _expand_pure(TT, "U", x, d2, psin)
            return _raw_apply(TT, "psiU", m1, raw)[1]
        if sl.label == "gamma(b~)":
            m1, raw = _expand_pure(TT, "U", x, d2, n)
            return _raw_apply(TT, "gamma", m1, raw)[1]
        # eps.r(b~)
        m1, raw = _expand_pure(TT, "U", x, d2, n)
        m2, raw = _raw_apply(TT, "r", m1, raw)
        return _raw_apply(TT, "eps", m2, raw)[1]
    # kind == "T"
    if sl.label == "tau(b~)":
        m1, raw = _expand_pure(TT, "T", x, d2, n)
        return _raw_apply(TT, "tau", m1, raw)[1]
    if sl.label == "zb~":
        return _expand_pure(TT, "U", act(target_free, ["zeta"], x), d2, n)[1]
    if sl.label == "ctb~":
        return _expand_pure(TT, "U", act(target_free, ["c", "tau"], x), d2, n)[1]
    if sl.label == "b~":
        return _expand_pure(TT, "T", x, d2, n)[1]
    return _expand_pure(TT, "T", act(target_free, ["eps", "tau"], x), d2, n)[1]


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

    The restricted operations are re-coordinatized along the kernel
    inclusions; failure to close is a fatal diagnostic (the family was not
    a CRT-morphism).
    """
    kern = {key: hom_kernel(f) for key, f in fam.items()}
    groups = {p: [kern[(p, n)][0] for n in range(8)] for p in PARTS}
    mats = {name: [] for name in OP_NAMES}
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for n in range(8):
            op = M.op(name, n)
            K_s, incl_s = kern[(src, n)]
            K_t, incl_t = kern[(tgt, (n + shift) % 8)]
            cols = []
            for k in range(K_s.ngens):
                v = incl_s.apply(tuple(1 if j == k else 0 for j in range(K_s.ngens)))
                c = hom_preimage(incl_t, op.apply(v))
                if c is None:
                    raise ValueError(f"kernel not closed under {name} at degree {n}")
                cols.append(list(c))
            mats[name].append(IntMatrix.from_cols(cols, rows=K_t.ngens))
    module = make_module(groups, mats)
    incl_fam = {key: kern[key][1] for key in kern}
    return module, incl_fam


def quotient_by_image(M: CRTModule, fam: Morphism) -> tuple[CRTModule, Morphism]:
    """The degreewise cokernel of a morphism into M, with induced operations."""
    coker = {key: cokernel_data(f) for key, f in fam.items()}
    groups = {p: [coker[(p, n)][0] for n in range(8)] for p in PARTS}
    mats = {name: [] for name in OP_NAMES}
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for n in range(8):
            op = M.op(name, n)
            _, _, reps_s = coker[(src, n)]
            _, proj_t, _ = coker[(tgt, (n + shift) % 8)]
            mats[name].append(proj_t.matrix * op.matrix * reps_s)
    module = make_module(groups, mats)
    proj_fam = {key: coker[key][1] for key in coker}
    return module, proj_fam


@dataclass(eq=False)
class TorPair:
    """Cokernel (tensor) and kernel (Tor) of mu1 ⊗ 1, with the maps."""

    tensor: CRTModule
    tor: CRTModule
    proj: Morphism
    incl: Morphism
    t0: TensorModule
    t1: TensorModule


def tensor_and_tor(res: FreeResolution, N: CRTModule) -> TorPair:
    """Tensor and Tor of the resolved module with N.

    The tensor is the degreewise cokernel of mu1 ⊗ 1 with operations
    induced on the quotients; Tor is the degreewise kernel with operations
    restricted.  Both results are validated against the relation suite,
    once per distinct value (verify_relations caches its failures).
    """
    t1 = tensor_free(res.F1, N)
    t0 = tensor_free(res.F0, N)
    ind = induced_tensor_map(res.mu1, N, src=t1, tgt=t0)
    tensor_mod, proj_fam = quotient_by_image(t0.module, ind)
    tor_mod, incl_fam = restrict_to_kernels(t1.module, ind)
    rep = verify_relations(tensor_mod)
    if not rep.ok():
        raise ValueError(f"tensor fails relations: {rep}")
    rep = verify_relations(tor_mod)
    if not rep.ok():
        raise ValueError(f"Tor fails relations: {rep}")
    return TorPair(tensor_mod, tor_mod, proj_fam, incl_fam, t0, t1)
