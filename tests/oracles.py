"""Brute-force oracles and test-only helpers for zlinalg, crt_core, free_crt, tensor, catalog and cli.

Nothing in the package calls these; the tests use them to cross-check
the package's own constructions by independent, simpler routes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd
from operator import add, mul
from typing import Callable, Iterator, Optional, Sequence

from crtk.catalog import cuntz_module
from crtk.cli import _fmt_matrix
from crtk.crt_core import (
    CHECKS,
    BudgetExceeded,
    CRTModule,
    Check,
    Morphism,
    OP_NAMES,
    OP_SPECS,
    PART_PERIOD,
    PARTS,
    SLOT_OPS,
    SLOTS,
    _triple,
    backtrack,
    crt_isomorphic,
    is_free,
    make_module,
    morphism_commutes,
    slot_of,
    sum_layout,
    verify_relations,
)
from crtk.free_crt import (
    Element,
    FreeCRT,
    FreeMorphism,
    MonogenicKind,
    _shape,
    _words_for,
    free_module,
    monogenic,
    realize_morphism,
)
from crtk.tensor import (
    FreeResolution,
    TensorModule,
    TensorSlot,
    induced_tensor_map,
    quotient_by_image,
    restrict_to_kernels,
    tensor_and_tor,
    tensor_free,
)
from crtk.zlinalg import (
    CompositionError,
    FinAbGroup,
    GroupHom,
    IntMatrix,
    Vec,
    ZERO_GROUP,
    checked_entries,
    cokernel_data,
    commutation_rows,
    fin_ab_tensor,
    fin_ab_tor,
    group_from_invariants,
    hom_cokernel,
    hom_compose,
    hom_coords,
    hom_image,
    hom_kernel,
    hom_matrix,
    hom_scale,
    identity_hom,
    is_automorphism,
    is_exact_at,
    kernel_lattice,
    solve_int,
)

# ---------------------------------------------------------------------------
# zlinalg
# ---------------------------------------------------------------------------

ORACLE_BOUND = 4096


def well_defined_matrix(m: IntMatrix, dom: FinAbGroup, cod: FinAbGroup) -> IntMatrix:
    """m with each entry scaled onto a well-defined value, left unreduced."""
    return IntMatrix.from_rows(
        [[0 if e == 0 and d else x * (e // gcd(e, d)) if e and d else x
          for x, d in zip(row, dom.invariants)]
         for row, e in zip(m.entries, cod.invariants)], cols=dom.ngens)


def hom_from_cols(domain: FinAbGroup, codomain: FinAbGroup, cols: Sequence[Sequence[int]]) -> GroupHom:
    return GroupHom(domain, codomain, IntMatrix.from_cols(cols, rows=codomain.ngens))


def matmul_via_transpose(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """A*B through a validated transpose of B: the product before the zip kernel."""
    if A.cols != B.rows:
        raise ValueError(f"cannot multiply {A.rows}x{A.cols} by {B.rows}x{B.cols}")
    bt = B.transpose().entries
    return IntMatrix(
        A.rows, B.cols,
        tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in A.entries),
    )


def product_oracle(g: tuple, f: tuple) -> tuple:
    """crt_core._product without its zero shortcut: every composite multiplied, then checked."""
    if f[1] is not g[0] and f[1] != g[0]:
        raise CompositionError(f"cannot compose: {f[1]} != {g[0]}")
    cols = tuple(zip(*f[2])) if f[2] else ((),) * f[0].ngens
    rows = [tuple([sum(map(mul, row, col)) for col in cols]) for row in g[2]]
    return f[0], g[1], checked_entries(rows, f[0].ngens, f[0], g[1])


def reduce_hom_matrix(domain: FinAbGroup, codomain: FinAbGroup, m: IntMatrix) -> IntMatrix:
    """GroupHom's reduction entry by entry, testing every entry for well-definedness."""
    dom_inv = domain.invariants
    cod_inv = codomain.invariants
    reduced = []
    for i, row in enumerate(m.entries):
        e = cod_inv[i]
        new_row = []
        for j, x in enumerate(row):
            d = dom_inv[j]
            if e == 0:
                if x * d != 0:
                    raise ValueError(f"entry ({i},{j}) not well-defined: torsion into free")
                new_row.append(x)
            else:
                if (x * d) % e != 0:
                    raise ValueError(f"entry ({i},{j})={x} not well-defined mod {e}")
                new_row.append(x % e)
        reduced.append(tuple(new_row))
    return IntMatrix(m.rows, m.cols, tuple(reduced))


def oracle_enumerate(f: GroupHom) -> tuple[list[Vec], list[Vec]]:
    """Exhaustive (kernel elements, image elements) for small finite groups."""
    od, oc = f.domain.order(), f.codomain.order()
    if od is None or oc is None:
        raise ValueError("oracle requires finite groups")
    if od > ORACLE_BOUND or oc > ORACLE_BOUND:
        raise ValueError(f"oracle bound {ORACLE_BOUND} exceeded")
    kernel = []
    image = set()
    for v in f.domain.elements():
        w = tuple(sum(row[j] * v[j] for j in range(len(v))) % t
                  for row, t in zip(f.matrix.entries, f.codomain.invariants))
        image.add(w)
        if all(x == 0 for x in w):
            kernel.append(v)
    return kernel, sorted(image)


def lattice_contains(L: IntMatrix, x: Sequence[int]) -> bool:
    return solve_int(L, x) is not None


def subgroups_equal(incl_a: GroupHom, incl_b: GroupHom) -> bool:
    """Mutual membership of two subgroups of the same ambient group."""
    if incl_a.codomain != incl_b.codomain:
        raise CompositionError("subgroups of different ambient groups")
    amb = incl_a.codomain
    La = incl_a.matrix.hstack(amb.relation_matrix())
    Lb = incl_b.matrix.hstack(amb.relation_matrix())
    return (all(lattice_contains(Lb, incl_a.matrix.col(j)) for j in range(incl_a.matrix.cols))
            and all(lattice_contains(La, incl_b.matrix.col(j)) for j in range(incl_b.matrix.cols)))


def is_exact_at_oracle(f: GroupHom, g: GroupHom) -> bool:
    """zlinalg.is_exact_at by comparing im f and ker g as subgroups (mutual membership)."""
    if f.codomain != g.domain:
        raise CompositionError("maps are not composable")
    if not hom_compose(g, f).is_zero_map():
        raise ValueError("composite g∘f is nonzero")
    return subgroups_equal(hom_image(f)[1], hom_kernel(g)[1])


def subgroup_contains(incl: GroupHom, x: Sequence[int]) -> bool:
    """Is x (in ambient coordinates) inside the image of the inclusion?"""
    L = incl.matrix.hstack(incl.codomain.relation_matrix())
    return lattice_contains(L, x)


def hom_preimage(f: GroupHom, y: Sequence[int]) -> Optional[Vec]:
    """Some x with f(x) = y, reduced in f's domain, or None: one solve in [f | codomain relations]."""
    sol = solve_int(f.matrix.hstack(f.codomain.relation_matrix()), tuple(y))
    if sol is None:
        return None
    return f.domain.reduce(sol[: f.domain.ngens])


def zero_hom(domain: FinAbGroup, codomain: FinAbGroup) -> GroupHom:
    return GroupHom(domain, codomain, IntMatrix.zeros(codomain.ngens, domain.ngens))


def _annihilated_elements(G: FinAbGroup, d: int) -> list[Vec]:
    """Elements x of a finite group with d*x = 0."""
    return [x for x in G.elements() if all((d * xi) % t == 0 for xi, t in zip(x, G.torsion))]


@functools.cache
def automorphisms(G: FinAbGroup) -> list[GroupHom]:
    """All automorphisms of a finite group, in the order of their column tuples.

    Every tuple of columns with t_i * column_i = 0 is an endomorphism;
    zlinalg.is_automorphism keeps the invertible ones.  Enumerated once
    per group in a process.
    """
    if not G.is_finite():
        raise ValueError("automorphism enumeration requires a finite group")
    pools = [_annihilated_elements(G, t) for t in G.torsion]
    return [hom_from_cols(G, G, [list(c) for c in cols]) for cols in itertools.product(*pools)
            if is_automorphism(G, [[c[i] for c in cols] for i in range(G.ngens)])]


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


def solve_matrix_system(
    nrows: int,
    ncols: int,
    equations: list[tuple[dict[tuple[int, int], int], int, int]],
) -> Optional[IntMatrix]:
    """Solve for an integer nrows x ncols matrix X, one variable per entry.

    Each equation is (coeffs, rhs, modulus): sum of coeffs[(i,j)] * X[i][j]
    ≡ rhs (mod modulus), with modulus 0 meaning equality over Z; each
    modular equation gets a slack column of its own.
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


# ---------------------------------------------------------------------------
# crt_core
# ---------------------------------------------------------------------------


def morphism_commutes_oracle(M: CRTModule, N: CRTModule, phi: Morphism) -> bool:
    """crt_core.morphism_commutes through hom_compose's composite GroupHoms."""
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for n in range(8):
            left = hom_compose(phi[(tgt, (n + shift) % 8)], M.op(name, n))
            right = hom_compose(N.op(name, n), phi[(src, n)])
            if left != right:
                return False
    return True


def _exact(f: GroupHom, g: GroupHom) -> bool:
    try:
        return is_exact_at(f, g)
    except ValueError:
        return False


# The checked evaluator of crt_core.CHECKS: every composite, multiple and sum of a
# side gets the tests of GroupHom's constructor, as the package once ran them.


def _checked_triple(domain: FinAbGroup, codomain: FinAbGroup, rows: list) -> tuple:
    """The triple (domain, codomain, reduced rows) after GroupHom's shape and well-definedness tests."""
    return domain, codomain, checked_entries(rows, domain.ngens, domain, codomain)


def checked_product_oracle(g: tuple, f: tuple) -> tuple:
    """g after f on (domain, codomain, reduced rows) triples, with hom_compose's endpoint test
    and GroupHom's shape and well-definedness tests; through a trivial group the zero map."""
    if f[1] is not g[0] and f[1] != g[0]:
        raise CompositionError(f"cannot compose: {f[1]} != {g[0]}")
    if not (f[0].ngens and g[0].ngens and g[1].ngens):
        return f[0], g[1], IntMatrix.zeros(g[1].ngens, f[0].ngens).entries
    cols = tuple(zip(*f[2]))
    rows = [tuple([sum(map(mul, row, col)) for col in cols]) for row in g[2]]
    return _checked_triple(f[0], g[1], rows)


def checked_side_value_oracle(M, n: int, side: tuple) -> Optional[tuple]:
    """crt_core._side_value with every composite, multiple and sum checked; None for zero."""
    total = None
    for coef, word in side:
        val = None
        for name, off in reversed(word):
            h = _triple(identity_hom(M.group(name, n + off)) if name in PART_PERIOD else M.op(name, n + off))
            val = h if val is None else checked_product_oracle(h, val)
        if coef != 1:
            val = _checked_triple(*val[:2], [tuple([coef * x for x in row]) for row in val[2]])
        if total is not None:
            if total[:2] != val[:2]:
                raise CompositionError("sum of homs with different endpoints")
            val = _checked_triple(*val[:2], [tuple(map(add, a, b)) for a, b in zip(total[2], val[2])])
        total = val
    return total


def checked_holds_oracle(chk: Check, M: CRTModule, n: int) -> bool:
    """Check.holds on the checked evaluator: a node's sides go through GroupHom's constructor."""
    if chk.node:
        f, g = (GroupHom(dom, cod, IntMatrix(len(rows), dom.ngens, rows))
                for dom, cod, rows in (checked_side_value_oracle(M, n, side) for side in chk.sides))
        return _exact(f, g)
    left, right = (checked_side_value_oracle(M, n, side) for side in chk.sides)
    return not any(map(any, left[2])) if right is None else left == right


# The derived ring elements as composites of stored operations, as the package
# first computed them; its words now read them in crt_core._parse_side's notation.


def eta_O(M: CRTModule, n: int) -> GroupHom:
    """tau . eps : MO_n -> MO_{n+1}."""
    return hom_compose(M.op("tau", n), M.op("eps", n))


def eta_T(M: CRTModule, n: int) -> GroupHom:
    """gamma . betaU . zeta : MT_n -> MT_{n+1} (betaU is the window shift)."""
    return hom_compose(M.op("gamma", n + 2), M.op("zeta", n))


def xi(M: CRTModule, n: int) -> GroupHom:
    """r . betaU^2 . c : MO_n -> MO_{n+4}."""
    return hom_compose(M.op("r", n + 4), M.op("c", n))


def omega(M: CRTModule, n: int) -> GroupHom:
    """betaT . gamma . zeta : MT_n -> MT_{n+3} (stored target at n-1)."""
    return hom_compose(M.op("gamma", n), M.op("zeta", n))


def _eta_O_sq(M: CRTModule, n: int) -> GroupHom:
    return hom_compose(eta_O(M, n + 1), eta_O(M, n))


def _one_minus_psiU(M: CRTModule, n: int) -> GroupHom:
    return identity_hom(M.group("U", n)) - M.op("psiU", n)


# The 30 entries of crt_core.CHECKS as GroupHom expressions, as first written: each
# composite, sum, negation and multiple a checked GroupHom, a relation compared by
# GroupHom.__eq__ and a node decided by is_exact_at.  The package decides the same
# checks from their words (crt_core._side_value, crt_core._side_hom).
CHECK_ORACLE: dict[str, Callable[[CRTModule, int], bool]] = {
    "rc=2": lambda M, n: hom_compose(M.op("r", n), M.op("c", n)) == hom_scale(identity_hom(M.group("O", n)), 2),
    "cr=1+psiU": lambda M, n: hom_compose(M.op("c", n), M.op("r", n))
    == identity_hom(M.group("U", n)) + M.op("psiU", n),
    "r=tau.gamma": lambda M, n: M.op("r", n) == hom_compose(M.op("tau", n - 1), M.op("gamma", n)),
    "c=zeta.eps": lambda M, n: M.op("c", n) == hom_compose(M.op("zeta", n), M.op("eps", n)),
    "psiU^2=1": lambda M, n: hom_compose(M.op("psiU", n), M.op("psiU", n)) == identity_hom(M.group("U", n)),
    "psiT^2=1": lambda M, n: hom_compose(M.op("psiT", n), M.op("psiT", n)) == identity_hom(M.group("T", n)),
    "psiT.eps=eps": lambda M, n: hom_compose(M.op("psiT", n), M.op("eps", n)) == M.op("eps", n),
    "zeta.gamma=0": lambda M, n: hom_compose(M.op("zeta", n - 1), M.op("gamma", n)).is_zero_map(),
    "psiU.zeta=zeta": lambda M, n: hom_compose(M.op("psiU", n), M.op("zeta", n)) == M.op("zeta", n),
    "gamma.psiU=gamma": lambda M, n: hom_compose(M.op("gamma", n), M.op("psiU", n)) == M.op("gamma", n),
    "psiU.betaU=-betaU.psiU": lambda M, n: M.op("psiU", n + 2) == -M.op("psiU", n),
    "psiT.betaT=betaT.psiT": lambda M, n: M.op("psiT", n + 4) == M.op("psiT", n),
    "zeta.betaT=betaU^2.zeta": lambda M, n: M.op("zeta", n + 4) == M.op("zeta", n),
    "gamma.betaU^2=betaT.gamma": lambda M, n: M.op("gamma", n + 4) == M.op("gamma", n),
    "eps.r.zeta=1+psiT": lambda M, n: hom_compose(M.op("eps", n), hom_compose(M.op("r", n), M.op("zeta", n)))
    == identity_hom(M.group("T", n)) + M.op("psiT", n),
    "gamma.c.tau=1-psiT": lambda M, n: hom_compose(M.op("gamma", n + 1), hom_compose(M.op("c", n + 1), M.op("tau", n)))
    == identity_hom(M.group("T", n)) - M.op("psiT", n),
    "tau.psiT=-tau": lambda M, n: hom_compose(M.op("tau", n), M.op("psiT", n)) == -M.op("tau", n),
    "tau.betaT.eps=0": lambda M, n: hom_compose(M.op("tau", n + 4), M.op("eps", n)).is_zero_map(),
    "eps.xi=2betaT.eps": lambda M, n: hom_compose(M.op("eps", n + 4), xi(M, n)) == hom_scale(M.op("eps", n), 2),
    "xi.tau=2tau.betaT": lambda M, n: hom_compose(xi(M, n + 1), M.op("tau", n)) == hom_scale(M.op("tau", n + 4), 2),
    "betaT.eps.tau=eps.tau.betaT+etaT.betaT": lambda M, n: hom_compose(M.op("eps", n + 1), M.op("tau", n))
    == hom_compose(M.op("eps", n + 5), M.op("tau", n + 4)) + eta_T(M, n + 4),
    "seq1@T": lambda M, n: _exact(M.op("gamma", n + 1), M.op("zeta", n)),
    "seq1@U.ker(1-psiU)": lambda M, n: _exact(M.op("zeta", n), _one_minus_psiU(M, n)),
    "seq1@U.ker(gamma)": lambda M, n: _exact(_one_minus_psiU(M, n), M.op("gamma", n)),
    "seq2@O": lambda M, n: _exact(eta_O(M, n), M.op("c", n + 1)),
    "seq2@U": lambda M, n: _exact(M.op("c", n + 1), M.op("r", n - 1)),
    "seq2@O.ker(etaO)": lambda M, n: _exact(M.op("r", n - 1), eta_O(M, n - 1)),
    "seq3@O": lambda M, n: _exact(_eta_O_sq(M, n), M.op("eps", n + 2)),
    "seq3@T": lambda M, n: _exact(M.op("eps", n + 2), M.op("tau", n + 6)),
    "seq3@O.ker(etaO^2)": lambda M, n: _exact(M.op("tau", n + 6), _eta_O_sq(M, n - 1)),
}


def morphism_is_iso(phi: Morphism) -> bool:
    """Is every map of the degreewise family bijective (trivial kernel and cokernel)?"""
    for h in phi.values():
        if hom_kernel(h)[0] != ZERO_GROUP or hom_cokernel(h)[0] != ZERO_GROUP:
            return False
    return True


def crt_isomorphic_oracle(M: CRTModule, N: CRTModule, budget: int = 2_000_000) -> Optional[Morphism]:
    """crt_core.crt_isomorphic by enumeration, with its own recursion and check schedule.

    Backtracking over the complete automorphism list of each of the 14
    slots (automorphisms); operation commutation is checked as soon as
    both endpoint slots are assigned, built independently of SLOT_OPS.
    Every automorphism tried is a node, so it agrees with the package on
    existence, not on the map found or the node count.
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
    return {(p, n): assignment[slot_of(p, n)] for p in PARTS for n in range(8)}


def echelon_mod_dense(gens: Sequence[Sequence[int]], orders: Sequence[int]) -> list[Vec]:
    """zlinalg.echelon_mod as first written: dense vectors, every one reduced again at every step."""
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


def slot_candidates_oracle(M: CRTModule, N: CRTModule, slot: tuple[str, int]) -> Callable[[dict], Iterator[GroupHom]]:
    """The automorphisms phi of the slot group that commute with every instance of SLOT_OPS[slot].

    Each instance asks phi_t.M_op = N_op.phi_s, its other endpoint assigned:
    congruences A.x = b in the hom_coords x of phi, whose rows
    (zlinalg.commutation_rows) write phi -> phi.M_op - N_op.phi with the
    terms where phi sits.  A and the echelon of its homogeneous solutions
    (kernel_lattice) are built once; the returned generator reads b off the
    choice, solves for one x0 (solve_int) and yields the invertible maps of
    x0 + (homogeneous solutions) lazily.  On a trivial slot group the only
    candidate is its identity, which commutes with every instance, so no
    system is built.
    """
    G = M.group(*slot)
    if G.is_trivial():
        identity = identity_hom(G)
        return lambda choice: iter((identity,))
    orders = [o for *_, o in hom_coords(G, G)]
    rows, mods, terms = [], [], []
    for name, n in SLOT_OPS[slot]:
        src, tgt, shift = OP_SPECS[name]
        s, t = slot_of(src, n), slot_of(tgt, n + shift)
        P, Q = M.op(name, n).matrix, N.op(name, n).matrix
        rows += commutation_rows(G, G, P if t == slot else None, Q if s == slot else None)
        mods += [e for e in M.group(*t).invariants for _ in range(P.cols)]
        terms.append((s, t, P, Q))
    A = IntMatrix.from_rows(rows, cols=len(orders)).hstack(IntMatrix.diag(mods))
    basis = echelon_mod_dense([v[:len(orders)] for v in kernel_lattice(A).columns()], orders)
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
            phi = hom_matrix(G, G, [x + sum(ai * v[c] for ai, v in zip(a, basis))
                                    for c, x in enumerate(x0[:len(orders)])])
            if is_automorphism(G, phi.entries):
                yield GroupHom(G, G, phi)

    return candidates


def slot_search_oracle(M: CRTModule, N: CRTModule, budget: int = 2_000_000) -> Optional[Morphism]:
    """crt_core.crt_isomorphic as a search slot by slot, each slot's system solved on its own.

    backtrack assigns the 14 slots in SLOTS order from slot_candidates_oracle:
    the automorphisms of the slot that commute with every operation to or
    from the slots before it.  One node is one candidate tried; equal
    modules are searched like any others.  BudgetExceeded names the slot
    and the nodes counted, as the package's does.
    """
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

    system = functools.cache(lambda slot: slot_candidates_oracle(M, N, slot))  # built on first visit
    choice: dict[tuple[str, int], GroupHom] = {}
    found = backtrack(SLOTS, lambda slot: system(slot)(choice), lambda slot: True, choice, tick)
    if next(found, None) is None:
        return None
    return {(p, n): choice[slot_of(p, n)] for p in PARTS for n in range(8)}


# ---------------------------------------------------------------------------
# Where each search checks each constraint, as first written
# ---------------------------------------------------------------------------


def slot_ops_oracle() -> dict[tuple[str, int], list[tuple[str, int]]]:
    """crt_core.SLOT_OPS: each (op, degree) instance at the later, in SLOTS order, of its two endpoint slots."""
    out: dict[tuple[str, int], list[tuple[str, int]]] = {slot: [] for slot in SLOTS}
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for n in range(8):
            out[max(slot_of(src, n), slot_of(tgt, n + shift), key=SLOTS.index)].append((name, n))
    return out


def search_order_oracle() -> list[tuple[str, int]]:
    """kunneth._KEYS: each slot, then the operation instances placed there but psiT, derived at eps."""
    at = slot_ops_oracle()
    return [key for slot in SLOTS for key in [slot] + [op for op in at[slot] if op[0] != "psiT"]]


def schedule_oracle() -> dict[tuple[str, int], list[tuple[Check, int]]]:
    """kunneth._SCHEDULE: each (check, degree) of crt_core.CHECKS at the operation that completes it.

    psiT_n is derived when eps_n is assigned, so a read of psiT_n counts as eps_n.
    """
    order = search_order_oracle()
    order_index = {key: i for i, key in enumerate(order)}
    reg: dict[tuple[str, int], list[tuple[Check, int]]] = {key: [] for key in order}
    for chk in CHECKS:
        if chk.name == "eps.r.zeta=1+psiT":
            continue  # _derive_psiT defines psiT_n as eps_n.r_n.zeta_n - 1, so it always holds
        for n in range(8):
            keys = [("eps" if name == "psiT" else name, (n + off) % 8) for name, off in chk.reads]
            reg[max(keys, key=order_index.__getitem__)].append((chk, n))
    return reg


# ---------------------------------------------------------------------------
# free_crt
# ---------------------------------------------------------------------------


# Basis vectors of each base module as token words applied to the
# generator, keyed by part and window offset from the generator degree, as
# the package first wrote them.  Each entry is a list (one per basis vector)
# of (sign, tokens); tokens compose right to left and are read by act.  The
# package reads _tables.BASIS_WORDS, the same vectors in crt_core._parse_side's
# notation, with crt_core's relation evaluator.
BASIS_TOKENS = {
    "R": {
        "O": {
            0: [(1, ())],
            1: [(1, ("etaO",))],
            2: [(1, ("etaO", "etaO"))],
            4: [(1, ("xi",))],
        },
        "U": {
            0: [(1, ("c",))],
            2: [(1, ("betaU", "c"))],
            4: [(1, ("betaU", "betaU", "c"))],
            6: [(1, ("betaU", "betaU", "betaU", "c"))],
        },
        "T": {
            0: [(1, ("eps",))],
            1: [(1, ("etaT", "eps"))],
            3: [(1, ("omega", "eps"))],
            4: [(1, ("betaT", "eps"))],
            5: [(1, ("betaT", "etaT", "eps"))],
            7: [(1, ("betaT", "omega", "eps"))],
        },
    },
    "C": {
        "O": {
            0: [(1, ("r",))],
            2: [(-1, ("r", "betaU"))],
            4: [(1, ("r", "betaU", "betaU"))],
            6: [(-1, ("r", "betaU", "betaU", "betaU"))],
        },
        "U": {
            0: [(1, ()), (1, ("psiU",))],
            2: [(1, ("betaU",)), (1, ("betaU", "psiU"))],
            4: [(1, ("betaU", "betaU")), (1, ("betaU", "betaU", "psiU"))],
            6: [(1, ("betaU", "betaU", "betaU")), (1, ("betaU", "betaU", "betaU", "psiU"))],
        },
        "T": {
            0: [(1, ("eps", "r"))],
            1: [(1, ("gamma", "betaU"))],
            2: [(1, ("eps", "r", "betaU"))],
            3: [(1, ("gamma", "betaU", "betaU"))],
            4: [(1, ("eps", "r", "betaU", "betaU"))],
            5: [(1, ("gamma", "betaU", "betaU", "betaU"))],
            6: [(1, ("eps", "r", "betaU", "betaU", "betaU"))],
            7: [(1, ("gamma", "betaU", "betaU", "betaU", "betaU"))],
        },
    },
    "T": {
        "O": {
            0: [(-1, ("tau", "betaT", "omega"))],
            1: [(1, ("tau",))],
            2: [(1, ("etaO", "tau"))],
            4: [(-1, ("tau", "omega"))],
            5: [(1, ("tau", "betaT"))],
            6: [(1, ("etaO", "tau", "betaT"))],
        },
        "U": {
            0: [(-1, ("zeta",))],
            1: [(1, ("c", "tau"))],
            2: [(-1, ("betaU", "zeta"))],
            3: [(1, ("betaU", "c", "tau"))],
            4: [(-1, ("betaU", "betaU", "zeta"))],
            5: [(1, ("betaU", "betaU", "c", "tau"))],
            6: [(-1, ("betaU", "betaU", "betaU", "zeta"))],
            7: [(1, ("betaU", "betaU", "betaU", "c", "tau"))],
        },
        "T": {
            # canonical generator order puts the torsion generator first,
            # so the etaT-word precedes the eps.tau-word at offsets 1 and 5
            0: [(-1, ()), (1, ("betaT", "gamma", "betaU", "betaU", "c", "tau"))],
            1: [(1, ("etaT",)), (1, ("eps", "tau"))],
            2: [(1, ("etaT", "eps", "tau"))],
            3: [(-1, ("omega",))],
            4: [(-1, ("betaT",)), (1, ("gamma", "betaU", "betaU", "c", "tau"))],
            5: [(1, ("betaT", "etaT")), (1, ("betaT", "eps", "tau"))],
            6: [(1, ("betaT", "etaT", "eps", "tau"))],
            7: [(-1, ("betaT", "omega"))],
        },
    },
}


# Window shifts of the Bott tokens; coordinates are unchanged.
_BETA_TOKENS = {"betaU": ("U", 2), "betaU_inv": ("U", -2), "betaT": ("T", 4)}
_DERIVED_TOKENS = {
    "etaO": (eta_O, "O", 1),
    "etaT": (eta_T, "T", 1),
    "omega": (omega, "T", 3),
    "xi": (xi, "O", 4),
}


def act(M: CRTModule, word: Sequence[str], x: Element) -> Element:
    """Apply an operation word (composition order, rightmost first).

    Tokens are the eight operation names, the Bott shifts betaU, betaU_inv
    and betaT, and the derived ring elements etaO, etaT, omega, xi acting
    through their defining composites.
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


def token_words_for(kind: str, part: str, offset: int) -> list[tuple[int, tuple[str, ...]]]:
    return BASIS_TOKENS[kind][part].get(offset % 8, [])


def realize_morphism_by_tokens(source: FreeCRT, target_module: CRTModule,
                               images: Sequence[Element]) -> Morphism:
    """free_crt.realize_morphism as first written: each basis token word through act."""
    fam: Morphism = {}
    for part in PARTS:
        for n in range(8):
            src_group = source.realized.group(part, n)
            tgt_group = target_module.group(part, n)
            cols = []
            for i, s in enumerate(source.summands):
                off = (n - s.generator_degree) % 8
                for sign, word in token_words_for(s.kind, part, off):
                    y = act(target_module, word, images[i])
                    cols.append([sign * v for v in y.vec])
            raw = IntMatrix.from_cols(cols, rows=tgt_group.ngens)
            lay = source.layouts[(part, n)]
            fam[(part, n)] = GroupHom(src_group, tgt_group, raw if lay.identity else raw * lay.reps)
    if not morphism_commutes(source.realized, target_module, fam):
        raise ValueError("realized family does not commute with the operations")
    return fam


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


def basis(F: FreeCRT, part: str, n: int) -> list[BasisLabel]:
    """Raw-slot basis labels of F at (part, window degree)."""
    out = []
    for i, s in enumerate(F.summands):
        off = (n - s.generator_degree) % 8
        for sign, word in token_words_for(s.kind, part, off):
            out.append(BasisLabel(i, sign, word))
    return out


def compose_morphisms(g: Morphism, f: Morphism) -> Morphism:
    return {(part, n): hom_compose(g[(part, n)], f[(part, n)]) for part in PARTS for n in range(8)}


def find_free_isomorphism(F: FreeCRT, M: CRTModule, bound: int = 2) -> Optional[Morphism]:
    """Search for an isomorphism from a free module onto M.

    A morphism out of F is a choice of generator images, so candidates are
    enumerated over small coordinate boxes; this covers modules with free
    parts, which the generic finite-group isomorphism search refuses.
    """
    for p in PARTS:
        for n in range(8):
            if F.realized.group(p, n) != M.group(p, n):
                return None
    boxes = []
    for s in F.summands:
        G = M.group(s.generator_part, s.generator_degree)
        rng = sorted(range(-bound, bound + 1), key=abs)
        boxes.append([G.reduce(v) for v in itertools.product(rng, repeat=G.ngens)])
    for combo in itertools.product(*boxes):
        images = [Element(s.generator_part, s.generator_degree, v)
                  for s, v in zip(F.summands, combo)]
        try:
            fam = realize_morphism(F, M, images)
        except ValueError:
            continue
        if morphism_is_iso(fam):
            return fam
    return None


def _canonical_perm(invs: Sequence[int]) -> dict[int, int]:
    """Canonical slot of each kept listed generator (invariant-1 slots drop)."""
    kept = [i for i in range(len(invs)) if invs[i] != 1]
    order = sorted(kept, key=lambda i: (invs[i] == 0, invs[i], i))
    return {i: k for k, i in enumerate(order)}


def table_group_oracle(invs: Sequence[int]) -> FinAbGroup:
    """Canonical group for a listed invariant sequence (1 entries vanish)."""
    return FinAbGroup(tuple(sorted(t for t in invs if t >= 2)), list(invs).count(0))


def table_matrix_oracle(value, dom_invs: Sequence[int], cod_invs: Sequence[int]) -> IntMatrix:
    """A table entry read into canonical generator order by permutation.

    Rows and columns are permuted from the listed order to torsion first,
    ascending, then free generators in listed order; generators listed with
    invariant 1 are dropped with their rows and columns (Z_1 = 0).
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


def table_module_oracle(groups_listed: dict, ops_listed: dict) -> CRTModule:
    """free_crt.table_module by the permutation reader."""
    groups = {p: [table_group_oracle(invs) for invs in groups_listed[p]] for p in PARTS}
    mats = {}
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        mats[name] = [table_matrix_oracle(ops_listed[name][n], groups_listed[src][n],
                                          groups_listed[tgt][(n + shift) % 8]) for n in range(8)]
    return make_module(groups, mats)


def free_to_json(F: FreeCRT) -> dict:
    """Summand list; the realized module is reconstructed on load."""
    return {"summands": [[s.kind, s.shift] for s in F.summands]}


def free_from_json(obj: dict) -> FreeCRT:
    return free_module([MonogenicKind(k, s) for k, s in obj["summands"]])


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


# The pairing rules as Python branches, the reference for crtk.tensor's
# tables of words (_SLOTS, _BLOCKS, _EXPANSION): one branch per rule,
# derived maps composed by hom_compose, and each slot generator's image
# expanded one unit vector at a time.

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
        out = tuple(sum(parts, ()) for row in rows for parts in zip(*(b.entries for b in row)))
        return IntMatrix(len(out), sum(b.cols for b in rows[0]), out)

    def op(nm, d):
        return N.op(nm, d).matrix

    def ident(part, d):
        return IntMatrix.identity(N.group(part, d % 8).ngens)

    if kind == "R":
        twist = s if name in ("gamma", "tau") else 1
        mat = N.op(name, o % 8).matrix
        return mat if twist == 1 else mat.scale(twist)

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


def tensor_monogenic(kind: str, k: int, N: CRTModule) -> TensorModule:
    return tensor_free(monogenic(kind, k), N)


def _block_diag_oracle(blocks: Sequence[IntMatrix]) -> IntMatrix:
    """The block diagonal matrix, built entry by entry also for one block."""
    cols = sum(b.cols for b in blocks)
    out = []
    c0 = 0
    for b in blocks:
        out.extend((0,) * c0 + row + (0,) * (cols - c0 - b.cols) for row in b.entries)
        c0 += b.cols
    return IntMatrix(len(out), cols, tuple(out))


def _summand_raw_op_oracle(kind: str, g: int, N: CRTModule, name: str, m: int) -> IntMatrix:
    """_summand_raw_op with every real block a scaled copy of N's matrix, twist 1 included."""
    if kind == "R":
        twist = (-1 if g % 2 else 1) if name in ("gamma", "tau") else 1
        return N.op(name, (m - g) % 8).matrix.scale(twist)
    return _summand_raw_op(kind, g, N, name, m)


@functools.cache
def tensor_free_oracle(summands: tuple[MonogenicKind, ...], N: CRTModule) -> TensorModule:
    """tensor.tensor_free by the generic path.

    Every operation is the raw block sum wrapped as proj * raw * reps, also
    where the layouts are identities; real blocks are scaled copies.
    """
    slots: dict = {}
    layouts: dict = {}
    groups = {p: [] for p in PARTS}
    for p in PARTS:
        for m in range(8):
            lst, comps, offset = [], [], 0
            for i, smd in enumerate(summands):
                for label, npart, rel in _SLOTS[smd.kind][p]:
                    d = (m - smd.generator_degree + rel) % 8
                    grp = N.group(npart, d)
                    lst.append(TensorSlot(i, label, npart, d, offset, grp.ngens))
                    comps.append(grp)
                    offset += grp.ngens
            slots[(p, m)] = lst
            layouts[(p, m)] = sum_layout(comps)
            groups[p].append(layouts[(p, m)].group)
    raw_ops: dict = {}
    mats: dict = {name: [] for name in OP_NAMES}
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for m in range(8):
            raw = _block_diag_oracle([_summand_raw_op_oracle(s.kind, s.generator_degree, N, name, m)
                                      for s in summands])
            raw_ops[(name, m)] = raw
            mats[name].append(layouts[(tgt, (m + shift) % 8)].proj * raw * layouts[(src, m)].reps)
    module = make_module(groups, mats)
    if not verify_relations(module).ok():
        raise ValueError("assembled tensor fails relations")
    return TensorModule(module, free_module(summands), N, slots, layouts, raw_ops)


def expand_induced_map_oracle(mor: FreeMorphism, src: TensorModule, tgt: TensorModule) -> Morphism:
    """The family of (mor ⊗ 1) expanded unit vector by unit vector, every degree wrapped as proj * raw * reps."""
    fam: Morphism = {}
    for part in PARTS:
        for m in range(8):
            cols = [col for i, smd in enumerate(mor.source.summands)
                    for sl in src.slots[(part, m)] if sl.summand == i
                    for col in _slot_generator_images(tgt, mor, smd.kind, mor.images[i], sl, part, m)]
            raw = IntMatrix.from_cols(cols, rows=sum(s.width for s in tgt.slots[(part, m)]))
            fam[(part, m)] = GroupHom(src.module.group(part, m), tgt.module.group(part, m),
                                      tgt.layouts[(part, m)].proj * raw * src.layouts[(part, m)].reps)
    return fam


def induced_tensor_map_oracle(mor: FreeMorphism, N: CRTModule) -> Morphism:
    """tensor.induced_tensor_map by the per-pair path.

    The slot expansion of mor's own generator images over the generic
    tensors, by the pairing rules written as branches, then the
    naturality check on the whole family.
    """
    src = tensor_free_oracle(mor.source.summands, N)
    tgt = tensor_free_oracle(mor.target.summands, N)
    fam = expand_induced_map_oracle(mor, src, tgt)
    if not morphism_commutes(src.module, tgt.module, fam):
        raise ValueError("induced tensor map fails naturality")
    return fam


def restrict_to_kernels_oracle(M: CRTModule, fam: Morphism) -> tuple[CRTModule, Morphism]:
    """tensor.restrict_to_kernels column by column.

    Each kernel generator is pushed through its inclusion and the
    operation as a reduced element, and pulled back by its own
    hom_preimage along the target inclusion; no shared system per degree
    and no operation skipped.
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
    return module, {key: kern[key][1] for key in kern}


def quotient_by_image_oracle(M: CRTModule, fam: Morphism) -> CRTModule:
    """tensor.quotient_by_image by cokernel_data, degree by degree.

    Each operation is proj_t * op * reps_s, with the zero matrix wherever
    either cokernel is trivial; no identity read off the structure.
    """
    coker = {key: cokernel_data(f) for key, f in fam.items()}
    groups = {p: [coker[(p, n)][0] for n in range(8)] for p in PARTS}
    mats = {name: [] for name in OP_NAMES}
    for name in OP_NAMES:
        src, tgt, shift = OP_SPECS[name]
        for n in range(8):
            Q_s, _, reps_s = coker[(src, n)]
            Q_t, proj_t, _ = coker[(tgt, (n + shift) % 8)]
            if Q_s.ngens and Q_t.ngens:
                mats[name].append(proj_t.matrix * M.op(name, n).matrix * reps_s)
            else:
                mats[name].append(IntMatrix.zeros(Q_t.ngens, Q_s.ngens))
    return make_module(groups, mats)


def tensor_and_tor_oracle(res: FreeResolution, N: CRTModule) -> tuple[CRTModule, CRTModule]:
    """tensor.tensor_and_tor without the coprime-order shortcut: (tensor, Tor).

    The cokernel and kernel of mu1 ⊗ 1 are built for every pair, also when
    the orders of res.target and N are coprime, and both are validated.
    """
    ind = induced_tensor_map(res.mu1, N)
    tensor_mod = quotient_by_image(tensor_free(res.F0, N).module, ind)
    tor_mod, _ = restrict_to_kernels(tensor_free(res.F1, N).module, ind)
    for M in (tensor_mod, tor_mod):
        if not (rep := verify_relations(M)).ok():
            raise ValueError(f"fails relations: {rep}")
    return tensor_mod, tor_mod


def tensor_symmetric_check(res_m: FreeResolution, res_n: FreeResolution,
                           budget: int = 2_000_000) -> bool:
    """tensor(M, N) isomorphic to tensor(N, M) for resolved M, N."""
    mn = tensor_and_tor(res_m, res_n.target)
    nm = tensor_and_tor(res_n, res_m.target)
    if mn.tensor.is_zero() and nm.tensor.is_zero():
        return True
    return crt_isomorphic(mn.tensor, nm.tensor, budget=budget) is not None


def complex_tensor_groups(M: CRTModule, N: CRTModule) -> list[FinAbGroup]:
    """(M^U ⊗ N^U)_n over the Laurent coefficient ring, per window degree."""
    out = []
    for n in range(8):
        parts = [fin_ab_tensor(M.group("U", 0), N.group("U", n)),
                 fin_ab_tensor(M.group("U", 1), N.group("U", n - 1))]
        out.append(group_from_invariants([i for G in parts for i in G.invariants]))
    return out


def complex_tor_groups(M: CRTModule, N: CRTModule) -> list[FinAbGroup]:
    """Tor of the complex parts over the Laurent ring, per window degree."""
    out = []
    for n in range(8):
        parts = [fin_ab_tor(M.group("U", 0), N.group("U", n)),
                 fin_ab_tor(M.group("U", 1), N.group("U", n - 1))]
        out.append(group_from_invariants([i for G in parts for i in G.invariants]))
    return out


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def cuntz_resolution_by_search(k: int, bound: int = 3) -> FreeResolution:
    """The resolution of the even Cuntz module k, its generator image found by search.

    The kernel of mu0 is restricted to a CRT-module, checked free, and its
    complex part in degree 0 is searched over coefficient vectors with
    entries in -bound..bound, smallest absolute values first; the first
    image that FreeResolution accepts wins.  For every even k this is the
    image catalog.cuntz_resolution writes in closed form.
    """
    if k % 2:
        raise ValueError("the search covers even k only")
    target = cuntz_module(k)
    F0 = free_module([MonogenicKind("R", 0), MonogenicKind("R", 2)])
    x2 = Element("O", 2, (1,) if k % 4 == 2 else (0, 1))
    mu0 = realize_morphism(F0, target, [Element("O", 0, (1,)), x2])
    F1 = monogenic("C", 0)
    ker_mod, incl = restrict_to_kernels(F0.realized, mu0)
    if not is_free(ker_mod):
        raise ValueError(f"kernel of mu0 is not free for k={k}")
    K = ker_mod.group("U", 0)
    emb = incl[("U", 0)]
    rng = sorted(range(-bound, bound + 1), key=abs)
    for coeffs in itertools.product(rng, repeat=K.ngens):
        y = Element("U", 0, emb.apply(K.reduce(coeffs)))
        try:
            return FreeResolution(F1, FreeMorphism(F1, F0, [y]), F0, target, mu0)
        except ValueError:
            continue
    raise ValueError(f"no free generator found in ker(mu0) for k={k}; kernel U-part {K}")


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def render_module_oracle(M: CRTModule, window: int = 8) -> str:
    """cli.render_module as first written: the table rendered on every call, with no cache."""
    cols = list(range(window + 1))
    rows = []
    rows.append(["n"] + [str(n) for n in cols])
    for part, label in (("O", "KO_n"), ("U", "KU_n"), ("T", "KT_n")):
        rows.append([label] + [str(M.group(part, n % 8)) for n in cols])
    for name in OP_NAMES:
        rows.append([f"{name}_n"] + [_fmt_matrix(M.op(name, n % 8)) for n in cols])
    widths = [max(len(r[i]) for r in rows) for i in range(len(cols) + 1)]
    lines = []
    for i, r in enumerate(rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        if i in (0, 3):
            lines.append("-" * len(lines[-1]))
    return "\n".join(lines)
