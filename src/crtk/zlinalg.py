"""Exact integer linear algebra for finitely generated abelian groups.

Everything downstream (graded modules, tensor products, the extension
solver) reduces to computations with integer matrices: Smith normal form,
kernels, images, cokernels and exactness of maps between finitely
generated abelian groups in invariant-factor form.  All arithmetic is
exact; intermediate Smith-form entries can blow up, so plain Python
integers (arbitrary precision) are mandatory.

Groups are always kept canonical: torsion coefficients >= 2 in ascending
divisibility order, followed by the free rank.  Two groups are equal iff
their fields are equal, and two homomorphisms are equal iff their reduced
matrices are equal.

Values are frozen, so the primitives are memoised by value for the life
of the process (functools.cache): the Smith form of each matrix, and the
kernel, image, cokernel, preimages and exactness verdicts of each map,
are computed once per distinct argument.  Errors, such as is_exact_at's
nonzero composite, are raised on every call and never stored.

>>> group_from_presentation(IntMatrix.diag([2, 3]))
FinAbGroup(torsion=(6,), free_rank=0)
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Iterator, Optional, Sequence

Vec = tuple[int, ...]


class CompositionError(ValueError):
    """Raised when homomorphisms are combined along mismatched groups."""


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular integer matrix; rows*cols may be zero."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        cols = self.cols
        for row in self.entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = [tuple(int(x) for x in row) for row in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return IntMatrix(len(rows), cols, tuple(rows))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return _zeros(rows, cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def diag(values: Sequence[int], rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        values = list(values)
        if rows is None:
            rows = len(values)
        if cols is None:
            cols = len(values)
        return IntMatrix(
            rows, cols,
            tuple(tuple(values[i] if i == j and i < len(values) else 0 for j in range(cols)) for i in range(rows)),
        )

    @staticmethod
    def from_cols(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        cols = [tuple(c) for c in cols]
        if rows is None:
            rows = len(cols[0]) if cols else 0
        return IntMatrix(rows, len(cols), tuple(tuple(c[i] for c in cols) for i in range(rows)))

    def col(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[Vec]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        if self.rows == 0:
            return IntMatrix(self.cols, 0, tuple(() for _ in range(self.cols)))
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if other.rows == 0:
            return IntMatrix.zeros(self.rows, other.cols)
        ot = tuple(zip(*other.entries))
        return IntMatrix(
            self.rows, other.cols,
            tuple(tuple([sum(map(mul, row, col)) for col in ot]) for row in self.entries),
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            self.rows, self.cols,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(k * x for x in row) for row in self.entries))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def apply(self, v: Sequence[int]) -> Vec:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def det(self) -> int:
        """Determinant by fraction-free Gaussian elimination (Bareiss)."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


@functools.cache
def _zeros(rows: int, cols: int) -> IntMatrix:
    """The rows x cols zero matrix, one shared value per shape."""
    return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    invariant_factors: tuple[int, ...]


class _SnfWorker:
    """Mutable Smith-form computation tracking U, U^-1, V, V^-1."""

    def __init__(self, A: IntMatrix):
        self.m, self.n = A.rows, A.cols
        self.M = [list(row) for row in A.entries]
        self.U = [[1 if i == j else 0 for j in range(self.m)] for i in range(self.m)]
        self.Ui = [[1 if i == j else 0 for j in range(self.m)] for i in range(self.m)]
        self.V = [[1 if i == j else 0 for j in range(self.n)] for i in range(self.n)]
        self.Vi = [[1 if i == j else 0 for j in range(self.n)] for i in range(self.n)]

    # Row operations act on the left; mirrored in U, inverted in Ui columns.
    def swap_rows(self, i, j):
        if i == j:
            return
        self.M[i], self.M[j] = self.M[j], self.M[i]
        self.U[i], self.U[j] = self.U[j], self.U[i]
        for r in self.Ui:
            r[i], r[j] = r[j], r[i]

    def negate_row(self, i):
        self.M[i] = [-x for x in self.M[i]]
        self.U[i] = [-x for x in self.U[i]]
        for r in self.Ui:
            r[i] = -r[i]

    def addmul_row(self, i, j, q):
        # row_i += q * row_j
        if q == 0:
            return
        self.M[i] = [a + q * b for a, b in zip(self.M[i], self.M[j])]
        self.U[i] = [a + q * b for a, b in zip(self.U[i], self.U[j])]
        for r in self.Ui:
            r[j] -= q * r[i]

    # Column operations act on the right; mirrored in V, inverted in Vi rows.
    def swap_cols(self, i, j):
        if i == j:
            return
        for r in self.M:
            r[i], r[j] = r[j], r[i]
        for r in self.V:
            r[i], r[j] = r[j], r[i]
        self.Vi[i], self.Vi[j] = self.Vi[j], self.Vi[i]

    def addmul_col(self, i, j, q):
        # col_i += q * col_j
        if q == 0:
            return
        for r in self.M:
            r[i] += q * r[j]
        for r in self.V:
            r[i] += q * r[j]
        self.Vi[j] = [a - q * b for a, b in zip(self.Vi[j], self.Vi[i])]

    def _pivot(self, t):
        """Smallest nonzero absolute value; ties broken by row then column."""
        best = None
        for i in range(t, self.m):
            row = self.M[i]
            for j in range(t, self.n):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        return best[1], best[2]
        return (best[1], best[2]) if best else None

    def _eliminate(self, start):
        """Diagonalize the submatrix at rows/cols >= start."""
        t = start
        while self._pivot(t) is not None:
            # Re-selecting the minimal pivot after every reduction pass keeps
            # the multipliers small; swapping remainders in mid-pass makes
            # intermediate entries explode.
            while True:
                i, j = self._pivot(t)
                self.swap_rows(t, i)
                self.swap_cols(t, j)
                if self.M[t][t] < 0:
                    self.negate_row(t)
                p = self.M[t][t]
                for i in range(t + 1, self.m):
                    q = self.M[i][t] // p
                    if q:
                        self.addmul_row(i, t, -q)
                for j in range(t + 1, self.n):
                    q = self.M[t][j] // p
                    if q:
                        self.addmul_col(j, t, -q)
                if (all(self.M[i][t] == 0 for i in range(t + 1, self.m))
                        and all(self.M[t][j] == 0 for j in range(t + 1, self.n))):
                    break
            t += 1

    def run(self):
        self._eliminate(0)
        k = min(self.m, self.n)
        while True:
            for i in range(k):
                if self.M[i][i] < 0:
                    self.negate_row(i)
            bad = None
            for i in range(k - 1):
                a, b = self.M[i][i], self.M[i + 1][i + 1]
                if a != 0 and b != 0 and b % a != 0:
                    bad = i
                    break
            if bad is None:
                break
            # Merge the 2x2 block and re-diagonalize from that index.
            self.addmul_col(bad, bad + 1, 1)
            self._eliminate(bad)


@functools.cache
def _snf_full(A: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """(U, Uinv, D, V, Vinv) with U*A*V = D; deterministic, computed once per matrix."""
    w = _SnfWorker(A)
    w.run()
    return (
        IntMatrix.from_rows(w.U, cols=A.rows),
        IntMatrix.from_rows(w.Ui, cols=A.rows),
        IntMatrix.from_rows(w.M, cols=A.cols),
        IntMatrix.from_rows(w.V, cols=A.cols),
        IntMatrix.from_rows(w.Vi, cols=A.cols),
    )


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form U*A*V = D.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).invariant_factors
    (2, 4)
    """
    U, _, D, V, _ = _snf_full(A)
    diag = [D.entries[i][i] for i in range(min(A.rows, A.cols))]
    inv = tuple(d for d in diag if d != 0)
    return SmithDecomposition(U, D, V, inv)


def _diag_of(A: IntMatrix, k: int) -> list[int]:
    return [A.entries[i][i] if i < min(A.rows, A.cols) else 0 for i in range(k)]


# ---------------------------------------------------------------------------
# Linear solving over Z
# ---------------------------------------------------------------------------


def solve_int(A: IntMatrix, b: Sequence[int]) -> Optional[Vec]:
    """One integer solution of A x = b, or None."""
    U, _, D, V, _ = _snf_full(A)
    c = U.apply(b)
    y = [0] * A.cols
    d = _diag_of(D, max(A.rows, A.cols))
    for i in range(A.rows):
        di = d[i]
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return V.apply(y)


def kernel_lattice(A: IntMatrix) -> IntMatrix:
    """Columns generate {x : A x = 0} as a lattice."""
    _, _, D, V, _ = _snf_full(A)
    d = _diag_of(D, A.cols)
    cols = [V.col(j) for j in range(A.cols) if d[j] == 0]
    return IntMatrix.from_cols(cols, rows=A.cols)


def lattice_basis(L: IntMatrix) -> IntMatrix:
    """A Z-basis (as columns) of the column span of L."""
    _, Ui, D, _, _ = _snf_full(L)
    d = _diag_of(D, min(L.rows, L.cols))
    cols = [tuple(d[i] * x for x in Ui.col(i)) for i in range(len(d)) if d[i] != 0]
    return IntMatrix.from_cols(cols, rows=L.rows)


def lattice_contains(L: IntMatrix, x: Sequence[int]) -> bool:
    return solve_int(L, x) is not None


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinAbGroup:
    """Canonical form: torsion t1 | t2 | ... (each >= 2), then free rank.

    invariants (one per generator, 0 marking a free generator) and ngens
    are stored on construction; they are not fields, so ==, hash and repr
    see only torsion and free_rank.
    """

    torsion: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for t in self.torsion:
            if t < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")
        invariants = self.torsion + (0,) * self.free_rank
        object.__setattr__(self, "invariants", invariants)
        object.__setattr__(self, "ngens", len(invariants))

    def order(self) -> Optional[int]:
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def is_trivial(self) -> bool:
        return self.ngens == 0

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def reduce(self, v: Sequence[int]) -> Vec:
        if len(v) != self.ngens:
            raise ValueError("element length mismatch")
        return tuple(x % t if t else x for x, t in zip(v, self.invariants))

    def zero(self) -> Vec:
        return (0,) * self.ngens

    def elements(self) -> Iterator[Vec]:
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        yield from itertools.product(*(range(t) for t in self.torsion))

    def relation_matrix(self) -> IntMatrix:
        """Columns t_j * e_j for the torsion generators (one shared matrix per group)."""
        return _relation_matrix(self.torsion, self.free_rank)

    def __str__(self) -> str:
        if self.is_trivial():
            return "0"
        parts = [f"Z_{t}" for t in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return "+".join(parts)


ZERO_GROUP = FinAbGroup()
Z = FinAbGroup(free_rank=1)


def Zmod(n: int) -> FinAbGroup:
    """Cyclic group of order n, with the convention Z_1 = 0."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    return ZERO_GROUP if n == 1 else FinAbGroup((n,))


def group_from_invariants(values: Sequence[int]) -> FinAbGroup:
    """Canonical form of a direct sum of Z_{n_i} (n_i = 0 meaning Z)."""
    return _quotient_data(len(values), IntMatrix.diag(list(values)))[0]


# ---------------------------------------------------------------------------
# Presentations and subquotients
# ---------------------------------------------------------------------------


def _quotient_data(n: int, rels: IntMatrix) -> tuple[FinAbGroup, IntMatrix, IntMatrix]:
    """Z^n modulo the column span of rels.

    Returns (group, proj, reps): proj maps ambient coordinates to canonical
    generator coordinates, reps lifts canonical generators back to Z^n, and
    proj * reps is the identity on the group.
    """
    if rels.rows != n:
        raise ValueError("relation matrix has wrong number of rows")
    U, Ui, D, _, _ = _snf_full(rels)
    d = _diag_of(D, n)
    keep = [i for i in range(n) if d[i] != 1]
    torsion = tuple(d[i] for i in keep if d[i] >= 2)
    free = sum(1 for i in keep if d[i] == 0)
    group = FinAbGroup(torsion, free)
    proj_rows = [tuple(x % d[i] if d[i] else x for x in U.entries[i]) for i in keep]
    proj = IntMatrix.from_rows(proj_rows, cols=n)
    reps = IntMatrix.from_cols([Ui.col(i) for i in keep], rows=n)
    return group, proj, reps


def group_from_presentation(relations: IntMatrix) -> FinAbGroup:
    """Z^m / (column span of relations); m = relations.rows.

    >>> group_from_presentation(IntMatrix.from_rows([[4]]))
    FinAbGroup(torsion=(4,), free_rank=0)
    """
    return _quotient_data(relations.rows, relations)[0]


@functools.cache
def _relation_matrix(torsion: tuple[int, ...], free_rank: int) -> IntMatrix:
    n = len(torsion) + free_rank
    cols = [tuple(t if i == j else 0 for i in range(n)) for j, t in enumerate(torsion)]
    return IntMatrix.from_cols(cols, rows=n)


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


@functools.cache
def _hom_cells(dom_inv: Vec, cod_inv: Vec) -> tuple[tuple[int, int, int, int], ...]:
    """The cells (i, j, d, e) of a hom matrix that need a well-definedness test, row-major.

    x*d vanishes mod e for every x when d = 0 or e | d; every other cell
    (d != 0, and e = 0 or e does not divide d) is listed.
    """
    return tuple((i, j, d, e) for i, e in enumerate(cod_inv)
                 for j, d in enumerate(dom_inv) if d and (e == 0 or d % e))


def checked_entries(m: IntMatrix, domain: FinAbGroup, codomain: FinAbGroup) -> tuple[Vec, ...]:
    """The rows of m reduced as a hom domain -> codomain, after its shape and well-definedness tests.

    Rows are reduced modulo the codomain invariants, free rows unreduced.
    A ValueError names the first ill-defined entry in row-major order.

    >>> checked_entries(IntMatrix.from_rows([[6, 5], [0, -1]]), FinAbGroup((2,), 1), FinAbGroup((4,), 1))
    ((2, 1), (0, -1))
    >>> checked_entries(IntMatrix.from_rows([[1]]), Zmod(2), Zmod(4))
    Traceback (most recent call last):
    ...
    ValueError: entry (0,0)=1 not well-defined mod 4
    """
    cod_inv = codomain.invariants
    if m.rows != len(cod_inv) or m.cols != domain.ngens:
        raise ValueError(f"matrix shape {m.rows}x{m.cols} does not match {len(cod_inv)}x{domain.ngens}")
    rows = m.entries
    for i, j, d, e in _hom_cells(domain.invariants, cod_inv):
        x = rows[i][j]
        if e == 0:
            if x:
                raise ValueError(f"entry ({i},{j}) not well-defined: torsion into free")
        elif (x * d) % e:
            raise ValueError(f"entry ({i},{j})={x} not well-defined mod {e}")
    return tuple([tuple([x % e for x in row]) if e else tuple(row) for row, e in zip(rows, cod_inv)])


@dataclass(frozen=True)
class GroupHom:
    """Matrix of a homomorphism, codomain generators x domain generators.

    Entries are stored reduced modulo the codomain invariants (free rows
    unreduced), so equality of maps is equality of fields.  Construction
    fails unless the matrix is well-defined on the domain relations
    (checked_entries); a matrix given already reduced is kept as it is.
    """

    domain: FinAbGroup
    codomain: FinAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        m = self.matrix
        entries = checked_entries(m, self.domain, self.codomain)
        if entries != m.entries:
            object.__setattr__(self, "matrix", IntMatrix(m.rows, m.cols, entries))

    def apply(self, v: Sequence[int]) -> Vec:
        return self.codomain.reduce(self.matrix.apply(v))

    def is_zero_map(self) -> bool:
        return self.matrix.is_zero()

    def __neg__(self) -> "GroupHom":
        return GroupHom(self.domain, self.codomain, -self.matrix)

    def __add__(self, other: "GroupHom") -> "GroupHom":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise CompositionError("sum of homs with different endpoints")
        return GroupHom(self.domain, self.codomain, self.matrix + other.matrix)

    def __sub__(self, other: "GroupHom") -> "GroupHom":
        return self + (-other)


def identity_hom(G: FinAbGroup) -> GroupHom:
    return GroupHom(G, G, IntMatrix.identity(G.ngens))


def hom_compose(g: GroupHom, f: GroupHom) -> GroupHom:
    """g after f."""
    if f.codomain is not g.domain and f.codomain != g.domain:
        raise CompositionError(f"cannot compose: {f.codomain} != {g.domain}")
    return GroupHom(f.domain, g.codomain, g.matrix * f.matrix)


def hom_scale(f: GroupHom, k: int) -> GroupHom:
    return GroupHom(f.domain, f.codomain, f.matrix.scale(k))


@functools.cache
def hom_kernel(f: GroupHom) -> tuple[FinAbGroup, GroupHom]:
    """Kernel subgroup K with its inclusion into the domain."""
    n = f.domain.ngens
    A = f.matrix.hstack(f.codomain.relation_matrix())
    ker = kernel_lattice(A)
    xs = IntMatrix.from_rows([ker.entries[i] for i in range(n)], cols=ker.cols)
    # The solution lattice always contains the domain relations.
    L = xs.hstack(f.domain.relation_matrix())
    return _subquotient(L, f.domain)


@functools.cache
def hom_image(f: GroupHom) -> tuple[FinAbGroup, GroupHom]:
    """Image subgroup with its inclusion into the codomain."""
    L = f.matrix.hstack(f.codomain.relation_matrix())
    return _subquotient(L, f.codomain)


def hom_cokernel(f: GroupHom) -> tuple[FinAbGroup, GroupHom]:
    """Cokernel with the projection from the codomain."""
    return cokernel_data(f)[:2]


@functools.cache
def cokernel_data(f: GroupHom) -> tuple[FinAbGroup, GroupHom, IntMatrix]:
    """Cokernel, projection, and a lift matrix for the canonical generators."""
    rels = f.matrix.hstack(f.codomain.relation_matrix())
    Q, proj, reps = _quotient_data(f.codomain.ngens, rels)
    return Q, GroupHom(f.codomain, Q, proj), reps


def _subquotient(L: IntMatrix, ambient: FinAbGroup) -> tuple[FinAbGroup, GroupHom]:
    """(span of L columns)/(ambient relations) as a subgroup of ambient.

    L's span must contain the ambient relation lattice.  Returns the
    canonical group K together with the inclusion K -> ambient.
    """
    B = lattice_basis(L)
    R = ambient.relation_matrix()
    coeffs = []
    for j in range(R.cols):
        sol = solve_int(B, R.col(j))
        if sol is None:
            raise ValueError("subquotient: relations not inside the lattice")
        coeffs.append(sol)
    C = IntMatrix.from_cols(coeffs, rows=B.cols)
    K, _, reps = _quotient_data(B.cols, C)
    incl = GroupHom(K, ambient, B * reps)
    return K, incl


def hom_preimage(f: GroupHom, y: Sequence[int]) -> Optional[Vec]:
    """Some x with f(x) = y, or None."""
    return _preimage(f, tuple(y))


@functools.cache
def _preimage(f: GroupHom, y: Vec) -> Optional[Vec]:
    A = f.matrix.hstack(f.codomain.relation_matrix())
    sol = solve_int(A, y)
    if sol is None:
        return None
    return f.domain.reduce(sol[: f.domain.ngens])


def subgroups_equal(incl_a: GroupHom, incl_b: GroupHom) -> bool:
    """Mutual membership of two subgroups of the same ambient group."""
    if incl_a.codomain != incl_b.codomain:
        raise CompositionError("subgroups of different ambient groups")
    amb = incl_a.codomain
    La = incl_a.matrix.hstack(amb.relation_matrix())
    Lb = incl_b.matrix.hstack(amb.relation_matrix())
    return (all(lattice_contains(Lb, incl_a.matrix.col(j)) for j in range(incl_a.matrix.cols))
            and all(lattice_contains(La, incl_b.matrix.col(j)) for j in range(incl_b.matrix.cols)))


@functools.cache
def is_exact_at(f: GroupHom, g: GroupHom) -> bool:
    """Exactness at the middle of  . --f--> . --g--> .

    Requires g∘f = 0; image(f) and kernel(g) are compared as subgroups
    (mutual membership, not just isomorphism).
    """
    if f.codomain != g.domain:
        raise CompositionError("maps are not composable")
    if not hom_compose(g, f).is_zero_map():
        raise ValueError("composite g∘f is nonzero")
    _, im = hom_image(f)
    _, ker = hom_kernel(g)
    return subgroups_equal(im, ker)


# ---------------------------------------------------------------------------
# Hom groups, their subgroups, and the automorphism test
# ---------------------------------------------------------------------------


def _prime_divisors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def is_automorphism(G: FinAbGroup, rows: Sequence[Sequence[int]]) -> bool:
    """Is the endomorphism of the finite group G with matrix rows invertible?

    An endomorphism is onto iff it is onto G/pG for every prime p (the
    Burnside basis theorem on each Sylow subgroup).  G/pG is free over
    Z/p on the generators with p | t_i, so the test is a determinant mod p
    of the matrix block on those generators.
    """
    return all(IntMatrix.from_rows([[rows[i][j] for j in idx] for i in idx]).det() % p
               for p in _prime_divisors(max(G.torsion, default=1))
               for idx in [[i for i, t in enumerate(G.torsion) if t % p == 0]])


def echelon_mod(gens: Sequence[Sequence[int]], orders: Sequence[int]) -> list[Vec]:
    """Echelon generators v_0, v_1, ... of the subgroup S of (+) Z/orders[i] spanned by gens.

    v_i is zero before coordinate i, and v_i[i] = p_i divides orders[i]:
    the elements of S that vanish before i take exactly the multiples of
    p_i there.  So the sums of a_i * v_i with 0 <= a_i < orders[i] // p_i
    list S once each, and w (entries in 0..orders[i]-1) is lexicographically
    least in its coset w + S iff w[i] < p_i for every i.
    """
    vecs = [[x % o for x, o in zip(v, orders)] for v in gens]
    out = []
    for i, o in enumerate(orders):
        pivot, rest = [o if j == i else 0 for j in range(len(orders))], []
        for v in vecs:
            if v[i]:  # pivot, v := x.pivot + y.v = gcd at i, b.pivot - a.v = 0 at i (unimodular)
                g = gcd(pivot[i], v[i])
                a, b, x = pivot[i] // g, v[i] // g, pow(pivot[i] // g, -1, v[i] // g)
                y = (g - x * pivot[i]) // v[i]
                pivot, v = [x * s + y * t for s, t in zip(pivot, v)], [b * s - a * t for s, t in zip(pivot, v)]
            rest.append(v)
        out.append(tuple(s % q if j > i else s for j, (s, q) in enumerate(zip(pivot, orders))))
        vecs = [w for w in ([x % q for x, q in zip(v, orders)] for v in rest) if any(w)]
    return out


def hom_coords(A: FinAbGroup, B: FinAbGroup) -> list[tuple[int, int, int, int]]:
    """Coordinates (row, col, step, order) of Hom(A, B), A and B finite, column-major.

    Entry (row, col) of a hom is x * step with 0 <= x < order = gcd of the invariants.
    """
    if not (A.is_finite() and B.is_finite()):
        raise ValueError("hom enumeration requires finite groups")
    return [(row, col, t // gcd(d, t), gcd(d, t)) for col, d in enumerate(A.torsion)
            for row, t in enumerate(B.torsion) if gcd(d, t) > 1]


def hom_group_elements(A: FinAbGroup, B: FinAbGroup) -> list[GroupHom]:
    """All homomorphisms A -> B, in lexicographic order of their hom_coords."""
    coords = hom_coords(A, B)
    out = []
    for xs in itertools.product(*(range(order) for *_, order in coords)):
        rows = [[0] * A.ngens for _ in range(B.ngens)]
        for (row, col, step, _), x in zip(coords, xs):
            rows[row][col] = x * step
        out.append(GroupHom(A, B, IntMatrix.from_rows(rows, cols=A.ngens)))
    return out


# ---------------------------------------------------------------------------
# Tensor and Tor of plain abelian groups
# ---------------------------------------------------------------------------


def fin_ab_tensor(A: FinAbGroup, B: FinAbGroup) -> FinAbGroup:
    """A ⊗_Z B in canonical form."""
    invs = []
    for a in A.invariants:
        for b in B.invariants:
            if a == 0:
                invs.append(b)
            elif b == 0:
                invs.append(a)
            else:
                invs.append(gcd(a, b))
    return group_from_invariants(invs)


def fin_ab_tor(A: FinAbGroup, B: FinAbGroup) -> FinAbGroup:
    """Tor_1^Z(A, B): pairwise gcd of the torsion parts."""
    return group_from_invariants([gcd(a, b) for a in A.torsion for b in B.torsion])


# ---------------------------------------------------------------------------
# Linear systems with modular rows (used by the extension solver)
# ---------------------------------------------------------------------------


def solve_matrix_system(
    nrows: int,
    ncols: int,
    equations: list[tuple[dict[tuple[int, int], int], int, int]],
) -> Optional[IntMatrix]:
    """Solve for an integer nrows x ncols matrix X.

    Each equation is (coeffs, rhs, modulus): sum of coeffs[(i,j)] * X[i][j]
    ≡ rhs (mod modulus), with modulus 0 meaning equality over Z.
    """
    nvars = nrows * ncols
    mod_rows = [k for k, (_, _, m) in enumerate(equations) if m != 0]
    slack = {k: t for t, k in enumerate(mod_rows)}
    total = nvars + len(mod_rows)
    rows, rhs = [], []
    for k, (coeffs, r, m) in enumerate(equations):
        row = [0] * total
        for (i, j), c in coeffs.items():
            row[i * ncols + j] += c
        if m != 0:
            row[nvars + slack[k]] = m
        rows.append(row)
        rhs.append(r)
    A = IntMatrix.from_rows(rows, cols=total)
    sol = solve_int(A, rhs)
    if sol is None:
        return None
    return IntMatrix.from_rows(
        [[sol[i * ncols + j] for j in range(ncols)] for i in range(nrows)], cols=ncols)
