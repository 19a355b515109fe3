"""Acceptance criteria, one test per criterion, with stated time budgets.

Every check here is an exact algebraic identity; the only tolerances are
the wall-clock budgets, pinned to the stated limits.  Each criterion
prints a single pass line with its timing (run with -s to see them).
"""

import random
import time

import pytest

from crtk.catalog import (
    cuntz_module,
    cuntz_resolution,
    expected_product,
    expected_tensor,
    expected_tor,
)
from crtk.crt_core import (
    OP_NAMES,
    PARTS,
    crt_isomorphic,
    is_acyclic,
    is_free,
    verify_relations,
)
from crtk.free_crt import MonogenicKind, free_module, monogenic
from crtk.kunneth import KunnethProblem, classical_complex_kunneth, solve_middle, split_model
from crtk.tensor import tensor_and_tor, tensor_free
from crtk.zlinalg import (
    FinAbGroup,
    IntMatrix,
    Zmod,
    hom_cokernel,
    hom_image,
    hom_kernel,
    smith_normal_form,
)

from extension_oracle import abelian_groups_of_order
from oracles import hom_from_cols, oracle_enumerate, tensor_monogenic

_SOLVED = {}


def solved(k, l, budget=5_000_000):
    """Cache the full solve for a pair across criteria."""
    if (k, l) not in _SOLVED:
        tp = tensor_and_tor(cuntz_resolution(k), cuntz_module(l))
        problem = KunnethProblem(tp.tensor, tp.tor)
        _SOLVED[(k, l)] = (problem, solve_middle(problem, budget=budget))
    return _SOLVED[(k, l)]


def report(num, label, t0, limit):
    elapsed = time.time() - t0
    print(f"criterion {num} ({label}): PASS in {elapsed:.2f}s (limit {limit}s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def groups_equal(A, B):
    return all(A.group(p, n) == B.group(p, n) for p in PARTS for n in range(8))


def test_criterion_1_transcription_integrity():
    t0 = time.time()
    base = {name: monogenic(name, 0).realized for name in ("R", "C", "T")}
    for name, M in base.items():
        assert verify_relations(M).ok(), name
        assert is_acyclic(M).ok(), name
        assert is_free(M), name
    for k in range(1, 13):
        M = cuntz_module(k)
        assert verify_relations(M).ok(), k
        assert is_acyclic(M).ok(), k
    report(1, "tables 1-6 fixtures", t0, 5)


def _random_matrix(rng):
    r, c = rng.randint(0, 6), rng.randint(0, 6)
    return IntMatrix.from_rows(
        [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c)


def _random_group(rng, max_order=64):
    n = rng.randint(1, max_order)
    G = rng.choice(abelian_groups_of_order(n))
    return G


def _random_hom(rng, A, B):
    cols = []
    for d in A.invariants:
        pool = [x for x in B.elements() if all((d * xi) % t == 0 for xi, t in zip(x, B.torsion))]
        cols.append(list(rng.choice(pool)))
    return hom_from_cols(A, B, cols)


def test_criterion_2_snf_and_oracle_property_suite():
    t0 = time.time()
    rng = random.Random(20260810)
    for _ in range(1000):
        A = _random_matrix(rng)
        s = smith_normal_form(A)
        assert s.U * A * s.V == s.D
        assert abs(s.U.det()) == 1 and abs(s.V.det()) == 1
        diag = [s.D.entries[i][i] for i in range(min(A.rows, A.cols))]
        nz = [d for d in diag if d != 0]
        assert all(d > 0 for d in nz)
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
        assert all(x == 0 for i, row in enumerate(s.D.entries)
                   for j, x in enumerate(row) if i != j)
    failures = 0
    for _ in range(500):
        A, B = _random_group(rng), _random_group(rng)
        f = _random_hom(rng, A, B)
        ker_elts, im_elts = oracle_enumerate(f)
        K, _ = hom_kernel(f)
        I, _ = hom_image(f)
        Q, _ = hom_cokernel(f)
        if K.order() != len(ker_elts) or I.order() != len(im_elts):
            failures += 1
        if A.order() != K.order() * I.order() or Q.order() * I.order() != B.order():
            failures += 1
    assert failures == 0
    report(2, "1000 SNF + 500 hom/oracle checks", t0, 30)


def test_criterion_3_unit_law():
    t0 = time.time()
    cases = {
        "R": monogenic("R", 0).realized,
        "C": monogenic("C", 0).realized,
        "T": monogenic("T", 0).realized,
        "O3": cuntz_module(2),
        "O4": cuntz_module(3),
        "O5": cuntz_module(4),
    }
    for name, N in cases.items():
        TT = tensor_monogenic("R", 0, N)
        assert groups_equal(TT.module, N), name
        assert all(TT.module.op(nm, n) == N.op(nm, n)
                   for nm in OP_NAMES for n in range(8)), name
        if N.all_finite() and not N.is_zero():
            assert crt_isomorphic(TT.module, N) is not None, name
    report(3, "unit law for the real monogenic factor", t0, 10)


@pytest.mark.parametrize("pair", [(3, 5), (3, 6)])
def test_criterion_4_odd_pipeline(pair):
    t0 = time.time()
    k, l = pair
    tp = tensor_and_tor(cuntz_resolution(k), cuntz_module(l))
    Et, Er = expected_tensor(k, l), expected_tor(k, l)
    assert groups_equal(tp.tensor, Et)
    assert groups_equal(tp.tor, Er)
    problem, sols = solved(k, l)
    assert sols, "no middle found"
    expected = expected_product(k, l)
    for sol in sols:
        assert crt_isomorphic(sol.middle, expected) is not None
        assert sol.split is True
    report(4, f"odd pipeline {pair}", t0, 60)


def test_criterion_5_table_9_11_12_pipeline():
    t0 = time.time()
    tp = tensor_and_tor(cuntz_resolution(4), cuntz_module(4))
    Et, Er = expected_tensor(4, 4), expected_tor(4, 4)
    assert groups_equal(tp.tensor, Et)
    assert groups_equal(tp.tor, Er)
    assert [tp.tor.group("O", n) for n in range(8)] == [
        Zmod(4), FinAbGroup(), Zmod(2), FinAbGroup(),
        Zmod(2), FinAbGroup(), FinAbGroup(), FinAbGroup()]
    problem, sols = solved(4, 4)
    assert sols, "no middle found"
    expected = expected_product(4, 4)
    for sol in sols:
        assert crt_isomorphic(sol.middle, expected) is not None
        assert sol.middle.group("T", 0) == FinAbGroup((4, 4))
        assert sol.middle.group("O", 5) == Zmod(4)
        assert sol.split is False
    assert split_model(problem).group("T", 0) == FinAbGroup((2, 2, 4))
    report(5, "(4,4) tensor/Tor/middle, non-split", t0, 600)


def test_criterion_6_rigidity_example():
    t0 = time.time()
    p22, s22 = solved(2, 2)
    p24, s24 = solved(2, 4)
    assert len(s22) == 1 and len(s24) == 1
    m22, m24 = s22[0].middle, s24[0].middle
    assert crt_isomorphic(m22, expected_product(2, 2)) is not None
    assert crt_isomorphic(m24, expected_product(2, 4)) is not None
    assert all(m22.group("U", n) == m24.group("U", n) for n in range(8))
    assert m22.group("O", 2) == FinAbGroup((2, 2))
    assert m24.group("O", 2) == FinAbGroup((2, 4))
    assert crt_isomorphic(m22, m24) is None
    report(6, "O3xO3 vs O3xO5 distinguished", t0, 300)


def test_criterion_7_acyclic_flat_grid():
    t0 = time.time()
    factors = {
        "O3": cuntz_module(2),
        "O4": cuntz_module(3),
        "O5": cuntz_module(4),
        "T": monogenic("T", 0).realized,
    }
    for kind in ("R", "C", "T"):
        for s in range(8):
            F = free_module([MonogenicKind(kind, s)])
            for name, N in factors.items():
                TT = tensor_free(F, N)
                assert is_acyclic(TT.module).ok(), (kind, s, name)
    report(7, "96 free x acyclic tensor products", t0, 120)


def test_criterion_8_complex_kunneth_cross_check():
    t0 = time.time()
    for (k, l) in [(3, 5), (3, 6), (2, 2), (2, 4), (4, 4)]:
        problem, sols = solved(k, l)
        classical = classical_complex_kunneth(k, l)
        for sol in sols:
            for n in range(8):
                assert sol.middle.group("U", n) == classical[n], (k, l, n)
    report(8, "complex parts match the cyclic formula", t0, 30)
