"""Brute-force oracles and test-only helpers for zlinalg, crt_core, free_crt and tensor.

Nothing in the package calls these; the tests use them to cross-check
the package's own constructions by independent, simpler routes.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd
from typing import Optional, Sequence

from crtk.catalog import cuntz_module
from crtk.crt_core import (
    BudgetExceeded,
    CRTModule,
    Morphism,
    OP_NAMES,
    OP_SPECS,
    PARTS,
    SLOTS,
    crt_isomorphic,
    is_free,
    slot_of,
)
from crtk.free_crt import (
    Element,
    FreeCRT,
    FreeMorphism,
    MonogenicKind,
    free_module,
    monogenic,
    realize_morphism,
)
from crtk.tensor import FreeResolution, TensorModule, restrict_to_kernels, tensor_and_tor, tensor_free
from crtk.zlinalg import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    Vec,
    ZERO_GROUP,
    fin_ab_tensor,
    fin_ab_tor,
    group_from_invariants,
    hom_cokernel,
    hom_compose,
    hom_kernel,
    is_automorphism,
    lattice_contains,
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


def subgroup_contains(incl: GroupHom, x: Sequence[int]) -> bool:
    """Is x (in ambient coordinates) inside the image of the inclusion?"""
    L = incl.matrix.hstack(incl.codomain.relation_matrix())
    return lattice_contains(L, x)


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


# ---------------------------------------------------------------------------
# free_crt
# ---------------------------------------------------------------------------


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


def free_to_json(F: FreeCRT) -> dict:
    """Summand list; the realized module is reconstructed on load."""
    return {"summands": [[s.kind, s.shift] for s in F.summands]}


def free_from_json(obj: dict) -> FreeCRT:
    return free_module([MonogenicKind(k, s) for k, s in obj["summands"]])


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def tensor_monogenic(kind: str, k: int, N: CRTModule) -> TensorModule:
    return tensor_free(monogenic(kind, k), N)


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
