"""Free CRT-modules: monogenic building blocks, elements, and morphisms.

A free module is a direct sum of suspended monogenic modules; its elements
are integer vectors in the preferred generators and a morphism out of it
is determined by the images of the summand generators.  Realizing a
morphism pushes every basis word through the target's stored operation
matrices, so a transcription error in any table surfaces as a naturality
failure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from . import _tables
from .crt_core import (
    CRTModule,
    Morphism,
    OP_NAMES,
    OP_SPECS,
    PARTS,
    direct_sum_with_layout,
    eta_O,
    eta_T,
    make_module,
    morphism_commutes,
    omega,
    suspend,
    xi,
)
from .zlinalg import FinAbGroup, GroupHom, IntMatrix

KINDS = ("R", "C", "T")

# Degree of the free generator relative to the declared shift: the
# self-conjugate table's generator sits one degree below its shift.
GEN_OFFSET = {"R": 0, "C": 0, "T": -1}
GEN_PART = {"R": "O", "C": "U", "T": "T"}


@dataclass(frozen=True)
class Element:
    """An element of one part of a CRT-module at a window degree."""

    part: str
    degree: int
    vec: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degree", self.degree % 8)
        object.__setattr__(self, "vec", tuple(self.vec))


# Window shifts of the Bott tokens; coordinates are unchanged.
_BETA_TOKENS = {
    "betaU": ("U", 2), "betaU_inv": ("U", -2),
    "betaT": ("T", 4), "betaT_inv": ("T", -4),
    "betaO": ("O", 8), "betaO_inv": ("O", -8),
}
_DERIVED_TOKENS = {
    "etaO": (eta_O, "O", 1),
    "etaT": (eta_T, "T", 1),
    "omega": (omega, "T", 3),
    "xi": (xi, "O", 4),
}


def act(M: CRTModule, word: Sequence[str], x: Element) -> Element:
    """Apply an operation word (composition order, rightmost first).

    Tokens are the eight operation names, Bott shifts (betaU, betaT, betaO
    and their inverses) and the derived ring elements etaO, etaT, omega,
    xi acting through their defining composites.
    """
    for tok in reversed(list(word)):
        if tok in OP_SPECS:
            src, tgt, shift = OP_SPECS[tok]
            if x.part != src:
                raise ValueError(f"cannot apply {tok} to a {x.part}-part element")
            h = M.op(tok, x.degree)
            x = Element(tgt, x.degree + shift, h.apply(x.vec))
        elif tok in _BETA_TOKENS:
            part, shift = _BETA_TOKENS[tok]
            if x.part != part:
                raise ValueError(f"cannot apply {tok} to a {x.part}-part element")
            x = Element(part, x.degree + shift, x.vec)
        elif tok in _DERIVED_TOKENS:
            fn, part, shift = _DERIVED_TOKENS[tok]
            if x.part != part:
                raise ValueError(f"cannot apply {tok} to a {x.part}-part element")
            x = Element(part, x.degree + shift, fn(M, x.degree).apply(x.vec))
        else:
            raise ValueError(f"unknown operation token {tok!r}")
    return x


def scale_element(x: Element, k: int) -> Element:
    return Element(x.part, x.degree, tuple(k * v for v in x.vec))


def add_elements(M: CRTModule, x: Element, y: Element) -> Element:
    if (x.part, x.degree) != (y.part, y.degree):
        raise ValueError("cannot add elements in different degrees")
    G = M.group(x.part, x.degree)
    return Element(x.part, x.degree, G.reduce(tuple(a + b for a, b in zip(x.vec, y.vec))))


# ---------------------------------------------------------------------------
# Monogenic modules and free modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonogenicKind:
    """One monogenic summand: kind R/C/T and a window shift."""

    kind: str
    shift: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "shift", self.shift % 8)

    @property
    def generator_part(self) -> str:
        return GEN_PART[self.kind]

    @property
    def generator_degree(self) -> int:
        return (self.shift + GEN_OFFSET[self.kind]) % 8


def _canonical_perm(invs: Sequence[int]) -> dict[int, int]:
    """Canonical slot of each kept listed generator (invariant-1 slots drop)."""
    kept = [i for i in range(len(invs)) if invs[i] != 1]
    order = sorted(kept, key=lambda i: (invs[i] == 0, invs[i], i))
    return {i: k for k, i in enumerate(order)}


def table_group(invs: Sequence[int]) -> FinAbGroup:
    """Canonical group for a listed invariant sequence (1 entries vanish)."""
    return FinAbGroup(tuple(sorted(t for t in invs if t >= 2)), list(invs).count(0))


def table_matrix(value, dom_invs: Sequence[int], cod_invs: Sequence[int]) -> IntMatrix:
    """Read a table entry into canonical generator order.

    Tables list generators in the source's printed order (e.g. Z + Z_2 with
    the free generator first); canonical groups put torsion first, so rows
    and columns are permuted accordingly.  Generators whose instantiated
    invariant is 1 are dropped together with their rows and columns, which
    realizes the Z_1 = 0 convention for parameterized tables.
    """
    raw = _shape(value, len(cod_invs), len(dom_invs))
    pr, pc = _canonical_perm(cod_invs), _canonical_perm(dom_invs)
    out = [[0] * len(pc) for _ in range(len(pr))]
    for i, row in enumerate(raw.entries):
        if i not in pr:
            continue
        for j, x in enumerate(row):
            if j in pc:
                out[pr[i]][pc[j]] = x
    return IntMatrix.from_rows(out, cols=len(pc))


def table_module(groups_listed: dict, ops_listed: dict) -> CRTModule:
    """A module from listed invariants per part and raw table entries per operation."""
    groups = {p: [table_group(invs) for invs in groups_listed[p]] for p in PARTS}
    mats = {}
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        mats[name] = [table_matrix(ops_listed[name][n], groups_listed[src][n],
                                   groups_listed[tgt][(n + shift) % 8]) for n in range(8)]
    return make_module(groups, mats)


@functools.cache
def base_module(kind: str) -> CRTModule:
    """The monogenic module of kind R, C or T, read from _tables.BASE_TABLES."""
    table = _tables.BASE_TABLES[kind]
    return table_module(table["groups"], table["ops"])


def _shape(value, rows: int, cols: int) -> IntMatrix:
    """Normalize a table entry to a rows x cols matrix.

    A scalar means multiplication by that number (v times the identity on a
    square shape, the zero map otherwise); lists are read as rows.
    """
    if isinstance(value, int):
        if value == 0:
            return IntMatrix.zeros(rows, cols)
        if rows == cols:
            return IntMatrix.identity(rows).scale(value)
        raise ValueError(f"scalar {value} for a {rows}x{cols} entry")
    return IntMatrix.from_rows(value, cols=cols)


@dataclass(frozen=True, eq=False)
class BasisLabel:
    summand: int
    sign: int
    word: tuple[str, ...]

    def __str__(self) -> str:
        s = "-" if self.sign < 0 else ""
        if not self.word:
            return f"{s}b{self.summand}"
        return f"{s}{'.'.join(self.word)}(b{self.summand})"


@dataclass(eq=False)
class FreeCRT:
    """A direct sum of monogenic summands with its realized module."""

    summands: tuple[MonogenicKind, ...]
    realized: CRTModule
    layouts: dict

    def basis(self, part: str, n: int) -> list[BasisLabel]:
        """Raw-slot basis labels at (part, window degree)."""
        out = []
        for i, s in enumerate(self.summands):
            off = (n - s.generator_degree) % 8
            for sign, word in _words_for(s.kind, part, off):
                out.append(BasisLabel(i, sign, word))
        return out

    def generator(self, i: int) -> Element:
        """The i-th summand generator as an element of the realized module."""
        s = self.summands[i]
        part = s.generator_part
        deg = s.generator_degree
        _, _, coords = _tables.GENERATOR[s.kind]
        lay = self.layouts[(part, deg)]
        raw = [0] * sum(lay.widths)
        for j, v in enumerate(coords):
            raw[lay.offsets[i] + j] = v
        G = self.realized.group(part, deg)
        return Element(part, deg, G.reduce(lay.proj.apply(raw)))


def _words_for(kind: str, part: str, offset: int) -> list[tuple[int, tuple[str, ...]]]:
    return _tables.BASIS_WORDS[kind][part].get(offset % 8, [])


def monogenic(kind: str, n: int = 0) -> FreeCRT:
    """The free module on one generator of the given kind, shifted by n."""
    return free_module([MonogenicKind(kind, n)])


def free_module(summands: Sequence[MonogenicKind]) -> FreeCRT:
    """The direct sum of the suspended monogenic summands.

    It is built once per distinct summands in a process; every call
    returns a fresh FreeCRT sharing the module and the layouts, which
    nothing mutates.
    """
    summands = tuple(summands)
    return FreeCRT(summands, *_free_parts(summands))


@functools.cache
def _free_parts(summands: tuple[MonogenicKind, ...]) -> tuple[CRTModule, dict]:
    return direct_sum_with_layout([suspend(base_module(s.kind), s.shift) for s in summands])


# ---------------------------------------------------------------------------
# Morphisms out of a free module
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FreeMorphism:
    """Generator images determine a CRT-morphism of free modules."""

    source: FreeCRT
    target: FreeCRT
    images: tuple[Element, ...]

    def __post_init__(self):
        self.images = tuple(self.images)
        if len(self.images) != len(self.source.summands):
            raise ValueError("one image per source summand")
        for s, x in zip(self.source.summands, self.images):
            if x.part != s.generator_part or x.degree != s.generator_degree:
                raise ValueError(
                    f"image for a {s.kind}-summand must live in part "
                    f"{s.generator_part} degree {s.generator_degree}")


def realize_morphism(source: FreeCRT, target_module: CRTModule,
                     images: Sequence[Element]) -> Morphism:
    """Degreewise homomorphism family sending each basis word w(b_i) to w(image_i).

    The target may be any CRT-module.  The family is verified to commute
    with all eight operations; a failure signals a transcription error in
    the tables or an invalid image.
    """
    fam: Morphism = {}
    for part in PARTS:
        for n in range(8):
            src_group = source.realized.group(part, n)
            tgt_group = target_module.group(part, n)
            cols = []
            for i, s in enumerate(source.summands):
                off = (n - s.generator_degree) % 8
                for sign, word in _words_for(s.kind, part, off):
                    y = act(target_module, word, images[i])
                    cols.append([sign * v for v in y.vec])
            raw = IntMatrix.from_cols(cols, rows=tgt_group.ngens)
            lay = source.layouts[(part, n)]
            fam[(part, n)] = GroupHom(src_group, tgt_group, raw * lay.reps)
    if not morphism_commutes(source.realized, target_module, fam):
        raise ValueError("realized family does not commute with the operations")
    return fam


def morphism_realize(m: FreeMorphism) -> Morphism:
    return realize_morphism(m.source, m.target.realized, m.images)
