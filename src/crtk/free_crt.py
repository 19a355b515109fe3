"""Free CRT-modules: monogenic building blocks, elements, and morphisms.

A free module is a direct sum of suspended monogenic modules; its elements
are integer vectors in the preferred generators and a morphism out of it
is determined by the images of the summand generators.  Realizing a
morphism pushes every basis word through the target's stored operation
matrices, so a transcription error in any table surfaces as a naturality
failure.  The base modules R, C and T, like every printed table, are read
as presentations (table_module): a listed group is Z^n modulo its listed
invariants.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from . import _tables
from .crt_core import (
    CRTModule,
    Morphism,
    OP_SPECS,
    PARTS,
    _parse_side,
    _side_value,
    direct_sum_with_layout,
    morphism_commutes,
    presented_module,
    suspend,
)
from .zlinalg import GroupHom, IntMatrix, layout

KINDS = ("R", "C", "T")


@dataclass(frozen=True)
class Element:
    """An element of one part of a CRT-module at a window degree."""

    part: str
    degree: int
    vec: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degree", self.degree % 8)
        object.__setattr__(self, "vec", tuple(self.vec))


def scale_element(x: Element, k: int) -> Element:
    return Element(x.part, x.degree, tuple(k * v for v in x.vec))


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
        return _tables.GENERATOR[self.kind][0]

    @property
    def generator_degree(self) -> int:
        """The self-conjugate table's generator sits one degree below its shift."""
        return (self.shift + _tables.GENERATOR[self.kind][1]) % 8


def table_module(groups_listed: dict, ops_listed: dict) -> CRTModule:
    """A module from listed invariants per part and raw table entries per operation.

    A listed group is Z^n modulo its listed invariants (zlinalg.layout), so
    a generator listed with invariant 1 vanishes and torsion comes first.
    """
    layouts = {(p, n): layout(tuple(groups_listed[p][n])) for p in PARTS for n in range(8)}

    def raw_op(name: str, n: int) -> IntMatrix:
        src, tgt, shift = OP_SPECS[name]
        return _shape(ops_listed[name][n], len(groups_listed[tgt][(n + shift) % 8]),
                      len(groups_listed[src][n]))

    return presented_module(layouts, raw_op)


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


@dataclass(eq=False)
class FreeCRT:
    """A direct sum of monogenic summands with its realized module."""

    summands: tuple[MonogenicKind, ...]
    realized: CRTModule
    layouts: dict

    def generator(self, i: int) -> Element:
        """The i-th summand generator as an element of the realized module."""
        s = self.summands[i]
        part = s.generator_part
        deg = s.generator_degree
        _, _, coords = _tables.GENERATOR[s.kind]
        lay = self.layouts[(part, deg)]
        raw = [0] * lay.proj.cols
        offset = sum(base_module(t.kind).group(part, deg - t.shift).ngens for t in self.summands[:i])
        raw[offset:offset + len(coords)] = coords
        G = self.realized.group(part, deg)
        return Element(part, deg, G.reduce(lay.proj.apply(raw)))


# _tables.BASIS_WORDS parsed once: (kind, part, offset) -> one side per basis vector.
_BASIS_SIDES = {(kind, part, off): tuple(map(_parse_side, words))
                for kind, parts in _tables.BASIS_WORDS.items()
                for part, offsets in parts.items() for off, words in offsets.items()}


def _words_for(kind: str, part: str, offset: int) -> tuple[tuple, ...]:
    """The basis words of a base module at a part and offset from the generator degree."""
    return _BASIS_SIDES.get((kind, part, offset % 8), ())


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
            for s, x in zip(source.summands, images):
                for word in _words_for(s.kind, part, n - s.generator_degree):
                    rows = _side_value(target_module, x.degree, word)[2]
                    cols.append([sum(map(mul, row, x.vec)) for row in rows])
            raw = IntMatrix.from_cols(cols, rows=tgt_group.ngens)
            lay = source.layouts[(part, n)]
            fam[(part, n)] = GroupHom(src_group, tgt_group, raw if lay.identity else raw * lay.reps)
    if not morphism_commutes(source.realized, target_module, fam):
        raise ValueError("realized family does not commute with the operations")
    return fam


def morphism_realize(m: FreeMorphism) -> Morphism:
    return realize_morphism(m.source, m.target.realized, m.images)
