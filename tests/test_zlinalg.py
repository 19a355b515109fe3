"""Unit and property tests for the exact integer linear algebra layer."""

import itertools
import operator
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtk import zlinalg
from crtk.crt_core import _product, _triple
from crtk.zlinalg import (
    CompositionError,
    FinAbGroup,
    GroupHom,
    IntMatrix,
    Z,
    ZERO_GROUP,
    Zmod,
    checked_entries,
    cokernel_data,
    commutation_rows,
    echelon_mod,
    fin_ab_tensor,
    fin_ab_tor,
    group_from_invariants,
    group_from_presentation,
    hom_cokernel,
    hom_compose,
    hom_coords,
    hom_image,
    hom_kernel,
    hom_matrix,
    hom_scale,
    identity_hom,
    is_exact_at,
    kernel_lattice,
    smith_normal_form,
    solve_int,
)

from cold_path import clear_caches
from extension_oracle import abelian_groups_of_order, extension_candidates
from oracles import (automorphisms, echelon_mod_dense, hom_from_cols, hom_group_elements, hom_preimage,
                     is_exact_at_oracle, matmul_via_transpose, oracle_enumerate, product_oracle,
                     reduce_hom_matrix, solve_matrix_system, subgroup_contains, well_defined_matrix,
                     zero_hom)


def minors_gcd(A, k):
    """gcd of all k x k minors; the classical Smith-form oracle."""
    g = 0
    for rows in itertools.combinations(range(A.rows), k):
        for cols in itertools.combinations(range(A.cols), k):
            sub = IntMatrix.from_rows([[A.entries[i][j] for j in cols] for i in rows], cols=k)
            g = gcd(g, sub.det())
    return g


def random_matrix(rng, max_dim=6, max_entry=9):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-max_entry, max_entry) for _ in range(c)] for _ in range(r)], cols=c)


def check_snf(A):
    s = smith_normal_form(A)
    assert s.U * A * s.V == s.D
    assert abs(s.U.det()) == 1
    assert abs(s.V.det()) == 1
    diag = [s.D.entries[i][i] for i in range(min(A.rows, A.cols))]
    for i, row in enumerate(s.D.entries):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    nz = [d for d in diag if d != 0]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # Trailing zeros last.
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero
    assert s.invariant_factors == tuple(nz)
    # gcd-of-minors oracle pins the invariant factors independently.
    acc = 1
    for k, d in enumerate(nz, start=1):
        g = minors_gcd(A, k)
        assert g == acc * d
        acc = g


class TestSmithNormalForm:
    def test_identity(self):
        s = smith_normal_form(IntMatrix.identity(2))
        assert s.D == IntMatrix.identity(2)
        assert s.U == IntMatrix.identity(2)
        assert s.V == IntMatrix.identity(2)
        assert s.invariant_factors == (1, 1)

    def test_zero(self):
        s = smith_normal_form(IntMatrix.zeros(2, 3))
        assert s.D == IntMatrix.zeros(2, 3)
        assert s.invariant_factors == ()

    def test_2468(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        A = IntMatrix.from_rows([[2, 4], [6, 8]])
        s = smith_normal_form(A)
        assert s.invariant_factors == (2, 4)
        check_snf(A)

    def test_empty(self):
        s = smith_normal_form(IntMatrix.zeros(0, 0))
        assert s.invariant_factors == ()
        check_snf(IntMatrix.zeros(0, 3))
        check_snf(IntMatrix.zeros(3, 0))

    def test_deterministic(self):
        A = IntMatrix.from_rows([[3, 1, -2], [0, 5, 4]])
        assert smith_normal_form(A) == smith_normal_form(A)

    def test_random_small_batch(self):
        rng = random.Random(7)
        for _ in range(60):
            check_snf(random_matrix(rng))

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=5), min_size=1, max_size=5)
           .filter(lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=80, deadline=None)
    def test_snf_properties(self, rows):
        check_snf(IntMatrix.from_rows(rows))


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def int_matrices(rows, cols):
    return st.lists(st.lists(st.integers(-12, 12), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda r: IntMatrix.from_rows(r, cols=cols))


@st.composite
def mixed_groups(draw):
    """Torsion chains (possibly empty) followed by a free rank of 0, 1 or 2."""
    torsion = []
    for step in draw(st.lists(st.sampled_from([1, 2, 3, 4]), max_size=3)):
        torsion.append(torsion[-1] * step if torsion else step + 1)
    return FinAbGroup(tuple(torsion), draw(st.integers(0, 2)))


def finite_groups():
    return mixed_groups().map(lambda G: FinAbGroup(G.torsion))


@st.composite
def group_homs(draw, dom, cod):
    return GroupHom(dom, cod, well_defined_matrix(draw(int_matrices(cod.ngens, dom.ngens)), dom, cod))


class TestKernelsVsOracle:
    """The matrix product and GroupHom's reduction against their earlier, plainer forms."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_product_matches_transpose_product(self, data):
        r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
        inner = data.draw(st.sampled_from([k, k, k, k + 1]))
        A = data.draw(int_matrices(r, k))
        B = data.draw(int_matrices(inner, c))
        assert outcome(A.__mul__, B) == outcome(matmul_via_transpose, A, B)

    def test_product_with_empty_inner_dimension(self):
        for r, c in [(0, 0), (0, 3), (2, 0), (2, 3)]:
            A, B = IntMatrix.zeros(r, 0), IntMatrix.zeros(0, c)
            assert A * B == matmul_via_transpose(A, B) == IntMatrix.zeros(r, c)

    @given(mixed_groups(), mixed_groups(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_reduction_matches_entrywise_reduction(self, dom, cod, data):
        m = data.draw(int_matrices(cod.ngens, dom.ngens))
        if data.draw(st.booleans()):
            m = well_defined_matrix(m, dom, cod)
        want = outcome(reduce_hom_matrix, dom, cod, m)
        assert outcome(lambda: GroupHom(dom, cod, m).matrix) == want
        assert outcome(lambda: IntMatrix(m.rows, m.cols, checked_entries(m.entries, m.cols, dom, cod))) == want

    def test_ill_defined_entries_raise_like_the_oracle(self):
        dom, cod = FinAbGroup((2, 4)), FinAbGroup((8,), 1)
        cases = [
            (Zmod(2), Z, [[1]], "entry (0,0) not well-defined: torsion into free"),
            (Zmod(2), Zmod(4), [[1]], "entry (0,0)=1 not well-defined mod 4"),
            # Offenders at (0,1) and (1,0): the first in row-major order is reported.
            (dom, cod, [[0, 1], [1, 0]], "entry (0,1)=1 not well-defined mod 8"),
            (dom, cod, [[4, 2], [1, 0]], "entry (1,0) not well-defined: torsion into free"),
        ]
        for dom_, cod_, rows, message in cases:
            m = IntMatrix.from_rows(rows, cols=dom_.ngens)
            with pytest.raises(ValueError) as exc:
                GroupHom(dom_, cod_, m)
            assert str(exc.value) == message
            assert outcome(checked_entries, m.entries, m.cols, dom_, cod_) == (ValueError, message)
            assert outcome(reduce_hom_matrix, dom_, cod_, m) == (ValueError, message)

    def test_shape_is_checked_first(self):
        m = IntMatrix.from_rows([[1, 0]])
        message = "matrix shape 1x2 does not match 1x1"
        assert outcome(GroupHom, Zmod(2), Zmod(4), m) == (ValueError, message)
        assert outcome(checked_entries, m.entries, m.cols, Zmod(2), Zmod(4)) == (ValueError, message)

    def test_a_reduced_matrix_is_kept(self):
        G = FinAbGroup((4,), 1)
        reduced, unreduced = IntMatrix.from_rows([[3, 1], [0, -2]]), IntMatrix.from_rows([[7, 1], [0, -2]])
        assert GroupHom(G, G, reduced).matrix is reduced
        assert GroupHom(G, G, unreduced).matrix == reduced


class TestZeroComposites:
    """Composites through a trivial group are returned as the zero map without multiplying."""

    @given(mixed_groups(), mixed_groups(), mixed_groups(), st.sampled_from(["domain", "middle", "codomain"]),
           st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_agree_with_the_multiplying_path(self, A, B, C, trivial, mismatched, data):
        A, B, C = (ZERO_GROUP if trivial == which else G
                   for which, G in (("domain", A), ("middle", B), ("codomain", C)))
        f = data.draw(group_homs(A, B))
        D = data.draw(mixed_groups().filter(lambda G: G != B)) if mismatched else B
        g = data.draw(group_homs(D, C))
        want = outcome(product_oracle, _triple(g), _triple(f))
        assert outcome(_product, _triple(g), _triple(f)) == want
        assert outcome(lambda: _triple(hom_compose(g, f))) == want
        assert outcome(lambda: g.matrix * f.matrix) == outcome(matmul_via_transpose, g.matrix, f.matrix)
        if mismatched:
            assert want == (CompositionError, f"cannot compose: {B} != {D}")
        else:
            assert want == (A, C, IntMatrix.zeros(C.ngens, A.ngens).entries)


class TestReduceOnlyHoms:
    """hom_compose, +, - and hom_scale only reduce (zlinalg._hom); each equals GroupHom's checked constructor."""

    @given(mixed_groups(), mixed_groups(), mixed_groups(), st.integers(-30, 30), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equal_the_checked_constructor(self, A, B, C, k, data):
        f, f2, g = data.draw(group_homs(A, B)), data.draw(group_homs(A, B)), data.draw(group_homs(B, C))
        assert hom_compose(g, f) == GroupHom(A, C, g.matrix * f.matrix)
        assert f + f2 == GroupHom(A, B, f.matrix + f2.matrix)
        assert f - f2 == GroupHom(A, B, f.matrix - f2.matrix)
        assert -f == GroupHom(A, B, -f.matrix)
        assert hom_scale(f, k) == GroupHom(A, B, f.matrix.scale(k))

    def test_endpoints_are_still_tested(self):
        f, g = identity_hom(Zmod(2)), identity_hom(Zmod(4))
        with pytest.raises(CompositionError, match="^cannot compose: Z_2 != Z_4$"):
            hom_compose(g, f)
        for combine in (operator.add, operator.sub):
            with pytest.raises(CompositionError, match="^sum of homs with different endpoints$"):
                combine(f, g)


class TestSolve:
    def test_solve_int(self):
        A = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert A.apply(solve_int(A, (4, 9))) == (4, 9)
        assert solve_int(A, (1, 0)) is None

    def test_kernel_lattice(self):
        A = IntMatrix.from_rows([[1, 1, 1]])
        K = kernel_lattice(A)
        assert K.cols == 2
        for j in range(K.cols):
            assert A.apply(K.col(j)) == (0,)


def subgroup_closure(gens, orders):
    """Oracle: every element of the subgroup of (+) Z/orders[i] that gens span, by closure."""
    def add(a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, orders))
    S = {(0,) * len(orders)}
    for v in gens:
        while (more := {add(w, v) for w in S}) - S:
            S |= more
    return S, add


class TestEchelonMod:
    @given(st.lists(st.sampled_from([2, 3, 4, 6, 9]), min_size=1, max_size=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_lists_the_subgroup_once_and_finds_least_coset_elements(self, orders, data):
        vec = st.lists(st.integers(-20, 20), min_size=len(orders), max_size=len(orders))
        gens = data.draw(st.lists(vec, max_size=3), label="gens")
        S, add = subgroup_closure(gens, orders)
        basis = echelon_mod(gens, orders)
        for i, v in enumerate(basis):
            assert all(x == 0 for x in v[:i]) and orders[i] % v[i] == 0
        listed = [tuple(sum(a * v[c] for a, v in zip(coeffs, basis)) % o for c, o in enumerate(orders))
                  for coeffs in itertools.product(*(range(o // v[i]) for i, (v, o) in enumerate(zip(basis, orders))))]
        assert len(listed) == len(S) and set(listed) == S
        for w in itertools.product(*map(range, orders)):
            least = min(add(w, s) for s in S) == w
            assert least == all(x < v[i] for i, (x, v) in enumerate(zip(w, basis)))


    @given(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), max_size=12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_dense_elimination(self, orders, data):
        """The same generators as oracles.echelon_mod_dense, on sparse and dense systems alike."""
        entry = st.one_of(st.just(0), st.integers(-40, 40))
        gens = data.draw(st.lists(st.lists(entry, min_size=len(orders), max_size=len(orders)), max_size=10),
                         label="gens")
        assert echelon_mod(gens, orders) == echelon_mod_dense(gens, orders)


class TestGroups:
    def test_presentation_cyclic(self):
        assert group_from_presentation(IntMatrix.from_rows([[5]])) == Zmod(5)
        assert group_from_presentation(IntMatrix.from_rows([[1]])) == ZERO_GROUP

    def test_presentation_diag_2_3(self):
        G = group_from_presentation(IntMatrix.diag([2, 3]))
        assert G == Zmod(6)
        # element-count oracle: Z^2 / <2e1, 3e2> has 6 cosets
        cosets = {(a % 2, b % 3) for a in range(6) for b in range(6)}
        assert len(cosets) == G.order()

    def test_presentation_idempotent(self):
        for G in [Zmod(4), FinAbGroup((2, 4), 1), FinAbGroup((2, 2, 6))]:
            rels = IntMatrix.diag(list(G.invariants), G.ngens, G.ngens)
            assert group_from_presentation(rels) == G

    @given(mixed_groups())
    @settings(max_examples=50, deadline=None)
    def test_stored_invariants_are_not_fields(self, G):
        assert G.invariants == G.torsion + (0,) * G.free_rank
        assert G.ngens == len(G.torsion) + G.free_rank
        H = FinAbGroup(G.torsion, G.free_rank)
        object.__setattr__(H, "invariants", (1,))
        object.__setattr__(H, "ngens", -1)
        assert H == G and hash(H) == hash(G) and repr(H) == repr(G)
        assert repr(G) == f"FinAbGroup(torsion={G.torsion!r}, free_rank={G.free_rank!r})"

    def test_invalid_canonical_forms(self):
        with pytest.raises(ValueError):
            FinAbGroup((1,))
        with pytest.raises(ValueError):
            FinAbGroup((4, 2))
        with pytest.raises(ValueError):
            FinAbGroup((2, 3))

    def test_group_from_invariants(self):
        assert group_from_invariants([2, 4, 2]) == FinAbGroup((2, 2, 4))
        assert group_from_invariants([1, 1]) == ZERO_GROUP
        assert group_from_invariants([0, 6, 0]) == FinAbGroup((6,), 2)


class TestHoms:
    def test_well_definedness(self):
        # Z_4 -> Z_2 by 1 is fine; Z_4 -> Z_8 by 1 is not.
        GroupHom(Zmod(4), Zmod(2), IntMatrix.from_rows([[1]]))
        with pytest.raises(ValueError):
            GroupHom(Zmod(4), Zmod(8), IntMatrix.from_rows([[1]]))
        with pytest.raises(ValueError):
            GroupHom(Zmod(2), Z, IntMatrix.from_rows([[1]]))

    def test_entry_reduction(self):
        f = GroupHom(Z, Zmod(4), IntMatrix.from_rows([[7]]))
        assert f.matrix.entries == ((3,),)

    def test_compose_identity(self):
        f = GroupHom(Z, Zmod(4), IntMatrix.from_rows([[1]]))
        assert hom_compose(identity_hom(Zmod(4)), f) == f

    def test_compose_reduction(self):
        f = GroupHom(Z, Zmod(4), IntMatrix.from_rows([[1]]))
        g = GroupHom(Zmod(4), Zmod(2), IntMatrix.from_rows([[1]]))
        gf = hom_compose(g, f)
        assert gf == GroupHom(Z, Zmod(2), IntMatrix.from_rows([[1]]))

    def test_compose_mismatch(self):
        f = identity_hom(Zmod(2))
        g = identity_hom(Zmod(4))
        with pytest.raises(CompositionError):
            hom_compose(g, f)

    def test_kernel_identity(self):
        K, incl = hom_kernel(identity_hom(Zmod(6)))
        assert K == ZERO_GROUP
        assert incl.domain == ZERO_GROUP

    def test_kernel_times2_on_Z4(self):
        f = GroupHom(Zmod(4), Zmod(4), IntMatrix.from_rows([[2]]))
        K, incl = hom_kernel(f)
        assert K == Zmod(2)
        # frozen from enumerating the 4 elements: kernel = {0, 2}
        gen = incl.apply((1,))
        assert gen == (2,)

    def test_kernel_multiplication_on_Z(self):
        for k in (1, 2, 5):
            K, _ = hom_kernel(GroupHom(Z, Z, IntMatrix.from_rows([[k]])))
            assert K == ZERO_GROUP

    def test_cokernel_times_k(self):
        for k in (1, 2, 6):
            C, proj = hom_cokernel(GroupHom(Z, Z, IntMatrix.from_rows([[k]])))
            assert C == Zmod(k)
            assert hom_compose(proj, GroupHom(Z, Z, IntMatrix.from_rows([[k]]))).is_zero_map()

    def test_cokernel_identity(self):
        C, _ = hom_cokernel(identity_hom(Zmod(6)))
        assert C == ZERO_GROUP

    def test_cokernel_times2_on_Z4(self):
        # frozen from coset enumeration: {0,2} and {1,3}
        C, _ = hom_cokernel(GroupHom(Zmod(4), Zmod(4), IntMatrix.from_rows([[2]])))
        assert C == Zmod(2)

    def test_image_zero(self):
        I, _ = hom_image(zero_hom(Zmod(4), Zmod(8)))
        assert I == ZERO_GROUP

    def test_image_doubling_on_Z(self):
        I, incl = hom_image(GroupHom(Z, Z, IntMatrix.from_rows([[2]])))
        assert I == Z
        assert incl.apply((1,)) == (2,)

    def test_image_times2_on_Z4(self):
        I, _ = hom_image(GroupHom(Zmod(4), Zmod(4), IntMatrix.from_rows([[2]])))
        assert I == Zmod(2)

    def test_preimage(self):
        f = GroupHom(Z, Zmod(4), IntMatrix.from_rows([[2]]))
        assert f.apply(hom_preimage(f, (2,))) == (2,)
        assert hom_preimage(f, (1,)) is None


    def test_hom_group_elements_in_column_pool_order(self):
        """Hom(A, B) is listed as the product of its columns, each in element order of B."""
        groups = [(), (2,), (4,), (2, 2), (2, 4), (6,), (3, 9)]
        for a, b in itertools.product(groups, repeat=2):
            A, B = FinAbGroup(a), FinAbGroup(b)
            pools = [[x for x in B.elements() if all((d * xi) % t == 0 for xi, t in zip(x, B.torsion))]
                     for d in A.torsion]
            want = [hom_from_cols(A, B, [list(c) for c in cols]) for cols in itertools.product(*pools)]
            assert hom_group_elements(A, B) == want, (a, b)
            assert prod(order for *_, order in hom_coords(A, B)) == len(want), (a, b)
            assert [GroupHom(A, B, hom_matrix(A, B, xs)) for xs in itertools.product(
                *(range(order) for *_, order in hom_coords(A, B)))] == want, (a, b)

    @given(finite_groups(), finite_groups(), finite_groups(), st.sampled_from(["right", "left", "both"]),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_commutation_rows_give_the_product_entries(self, A, B, C, terms, data):
        """The rows applied to h's coordinates are the entries of h.right - left.h, mod its codomain."""
        xs = data.draw(st.lists(st.integers(-20, 20), min_size=len(hom_coords(A, B)),
                                max_size=len(hom_coords(A, B))), label="xs")
        h = GroupHom(A, B, hom_matrix(A, B, xs))
        assert h.matrix == hom_matrix(A, B, xs)  # already reduced
        X, Y = (A, B) if terms == "both" else (C, C)
        # Unreduced matrices: the rows use them as given.
        right = left = None
        if terms != "left":
            right = well_defined_matrix(data.draw(int_matrices(A.ngens, X.ngens)), X, A)
        if terms != "right":
            left = well_defined_matrix(data.draw(int_matrices(Y.ngens, B.ngens)), B, Y)
        if terms == "right":
            product = hom_compose(h, GroupHom(X, A, right))
        elif terms == "left":
            product = -hom_compose(GroupHom(B, Y, left), h)
        else:
            product = hom_compose(h, GroupHom(X, A, right)) - hom_compose(GroupHom(B, Y, left), h)
        rows = commutation_rows(A, B, right, left)
        mods = [e for e in product.codomain.invariants for _ in range(product.domain.ngens)]
        entries = [x for row in product.matrix.entries for x in row]
        assert len(rows) == len(entries)
        for row, mod, x in zip(rows, mods, entries):
            assert (sum(map(operator.mul, row, xs)) - x) % mod == 0


class TestExactness:
    def test_exact_identity(self):
        f = zero_hom(ZERO_GROUP, Z)
        g = identity_hom(Z)
        assert is_exact_at(f, g)

    def test_exact_mod2(self):
        f = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
        g = GroupHom(Z, Zmod(2), IntMatrix.from_rows([[1]]))
        assert is_exact_at(f, g)

    def test_not_exact_mod2_times4(self):
        f = GroupHom(Z, Z, IntMatrix.from_rows([[4]]))
        g = GroupHom(Z, Zmod(2), IntMatrix.from_rows([[1]]))
        assert not is_exact_at(f, g)

    def test_nonzero_composite_rejected(self):
        f = identity_hom(Z)
        g = GroupHom(Z, Zmod(2), IntMatrix.from_rows([[1]]))
        with pytest.raises(ValueError):
            is_exact_at(f, g)

    @pytest.mark.parametrize("C", [Z, ZERO_GROUP, Zmod(3)], ids=str)
    def test_isomorphic_image_and_kernel_not_exact(self, C):
        # im f = 2Z and ker g = Z are isomorphic groups but different subgroups of Z.
        f = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
        g = zero_hom(Z, C)
        assert hom_image(f)[0] == hom_kernel(g)[0] == Z
        assert not is_exact_at(f, g)
        assert not is_exact_at_oracle(f, g)

    @given(mixed_groups(), mixed_groups(), mixed_groups(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_subgroup_oracle(self, A, B, C, data):
        g = data.draw(group_homs(B, C))
        _, incl = hom_kernel(g)
        shape = data.draw(st.sampled_from(["any", "into kernel", "kernel"]))
        if shape == "kernel":
            f = incl
        elif shape == "into kernel":
            f = hom_compose(incl, data.draw(group_homs(A, incl.domain)))
        else:
            f = data.draw(group_homs(A, B))
        assert outcome(is_exact_at, f, g) == outcome(is_exact_at_oracle, f, g)


class TestCachedPrimitives:
    """The memoised primitives against their uncached bodies (__wrapped__), cold and warm."""

    @given(mixed_groups(), mixed_groups(), mixed_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_cached_equals_uncached(self, A, B, C, data):
        clear_caches()
        f = data.draw(group_homs(A, B))
        g = data.draw(group_homs(B, C))
        if data.draw(st.booleans()):
            g = GroupHom(B, C, IntMatrix.zeros(C.ngens, B.ngens))  # a composable pair
        calls = [
            (zlinalg._snf_full, (f.matrix,)),
            (hom_kernel, (f,)),
            (hom_image, (f,)),
            (cokernel_data, (f,)),
            (is_exact_at, (f, g)),
        ]
        for fn, args in calls:
            expected = outcome(fn.__wrapped__, *args)
            cold = outcome(fn, *args)
            # An equal but distinct argument reaches the stored value.
            warm = outcome(fn, *(GroupHom(a.domain, a.codomain, a.matrix) if isinstance(a, GroupHom)
                                 else a for a in args))
            assert cold == warm == expected, fn.__name__
        assert hom_cokernel(f) == cokernel_data.__wrapped__(f)[:2]

    def test_equal_arguments_share_one_computation(self):
        f = GroupHom(Zmod(4), Zmod(8), IntMatrix.from_rows([[2]]))
        twin = GroupHom(Zmod(4), Zmod(8), IntMatrix.from_rows([[10]]))
        assert twin == f and twin is not f
        assert hom_kernel(twin) is hom_kernel(f)
        assert hom_cokernel(twin)[1] is cokernel_data(f)[1]

    def test_nonzero_composite_raises_on_every_call(self):
        f = identity_hom(Z)
        g = GroupHom(Z, Zmod(2), IntMatrix.from_rows([[1]]))
        for _ in range(2):
            with pytest.raises(ValueError, match="nonzero"):
                is_exact_at(f, g)
        with pytest.raises(CompositionError):
            is_exact_at(g, g)
        assert is_exact_at.cache_info().currsize == 0


class TestOracle:
    def test_identity_Z2(self):
        k, im = oracle_enumerate(identity_hom(Zmod(2)))
        assert k == [(0,)]
        assert im == [(0,), (1,)]

    def test_zero_on_Z3(self):
        k, im = oracle_enumerate(zero_hom(Zmod(3), Zmod(3)))
        assert sorted(k) == [(0,), (1,), (2,)]
        assert im == [(0,)]

    def test_times2_on_Z6(self):
        f = GroupHom(Zmod(6), Zmod(6), IntMatrix.from_rows([[2]]))
        k, im = oracle_enumerate(f)
        assert sorted(k) == [(0,), (3,)]
        assert im == [(0,), (2,), (4,)]

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            oracle_enumerate(identity_hom(Z))


def random_group(rng, max_order=64):
    while True:
        n = rng.randint(1, max_order)
        groups = abelian_groups_of_order(n)
        G = rng.choice(groups)
        if G.order() <= max_order:
            return G


def random_hom(rng, A, B):
    pools = []
    for d in A.invariants:
        pool = [x for x in B.elements() if all((d * xi) % t == 0 for xi, t in zip(x, B.torsion))]
        pools.append(rng.choice(pool))
    return hom_from_cols(A, B, [list(c) for c in pools])


class TestHomVsOracle:
    def test_random_agreement(self):
        rng = random.Random(2024)
        for _ in range(60):
            A = random_group(rng)
            B = random_group(rng)
            f = random_hom(rng, A, B)
            ker_elts, im_elts = oracle_enumerate(f)
            K, k_incl = hom_kernel(f)
            I, i_incl = hom_image(f)
            C, _ = hom_cokernel(f)
            assert K.order() == len(ker_elts)
            assert I.order() == len(im_elts)
            assert A.order() == K.order() * I.order()
            assert C.order() * I.order() == B.order()
            # inclusion images land inside the enumerated sets
            for v in itertools.islice(K.elements(), 8):
                assert k_incl.apply(v) in set(ker_elts) or f.apply(k_incl.apply(v)) == B.zero()
            for v in itertools.islice(I.elements(), 8):
                assert i_incl.apply(v) in set(im_elts)

    def test_exactness_vs_oracle(self):
        rng = random.Random(99)
        for _ in range(40):
            A, B, C = (random_group(rng, 32) for _ in range(3))
            f = random_hom(rng, A, B)
            g = random_hom(rng, B, C)
            if not hom_compose(g, f).is_zero_map():
                continue
            ker_g = {v for v in B.elements() if g.apply(v) == C.zero()}
            im_f = {f.apply(v) for v in A.elements()}
            assert is_exact_at(f, g) == (ker_g == im_f)


class TestSubgroups:
    def test_subgroup_contains(self):
        f = GroupHom(Z, Zmod(8), IntMatrix.from_rows([[2]]))
        _, incl = hom_image(f)
        assert subgroup_contains(incl, (4,))
        assert not subgroup_contains(incl, (3,))


class TestExtensions:
    def test_z2_by_z2(self):
        got = extension_candidates(Zmod(2), Zmod(2))
        assert got == [Zmod(4), FinAbGroup((2, 2))]

    def test_trivial_sub(self):
        G = FinAbGroup((2, 4))
        assert extension_candidates(ZERO_GROUP, G) == [G]
        assert extension_candidates(G, ZERO_GROUP) == [G]

    def test_z2z4_by_z2(self):
        got = extension_candidates(FinAbGroup((2, 4)), Zmod(2))
        assert FinAbGroup((4, 4)) in got
        # every candidate has the right order
        assert all(G.order() == 16 for G in got)

    def test_all_candidates_admit_extension(self):
        # cross-check (Z2, Z4): candidates are Z8 and Z2+Z4 but not Z2^3
        got = extension_candidates(Zmod(2), Zmod(4))
        assert Zmod(8) in got
        assert FinAbGroup((2, 4)) in got
        assert FinAbGroup((2, 2, 2)) not in got


def automorphisms_by_elements(G):
    """Oracle: the candidate column tuples of `automorphisms` whose map is onto G."""
    out = []
    pools = [[x for x in G.elements() if G.reduce(tuple(t * xi for xi in x)) == G.zero()]
             for t in G.torsion]
    for cols in itertools.product(*pools):
        f = hom_from_cols(G, G, [list(c) for c in cols])
        if len({f.apply(v) for v in G.elements()}) == G.order():
            out.append(f)
    return out


class TestMisc:
    def test_abelian_groups_of_order_8(self):
        got = abelian_groups_of_order(8)
        assert set(got) == {Zmod(8), FinAbGroup((2, 4)), FinAbGroup((2, 2, 2))}

    def test_abelian_groups_of_order_12(self):
        got = abelian_groups_of_order(12)
        assert set(got) == {Zmod(12), FinAbGroup((2, 6))}

    def test_automorphisms_z4(self):
        assert len(automorphisms(Zmod(4))) == 2

    def test_automorphisms_z2_z2(self):
        assert len(automorphisms(FinAbGroup((2, 2)))) == 6

    @pytest.mark.parametrize("torsion", [(2,), (2, 2), (2, 2, 2), (3, 3), (4, 4), (2, 4), (2, 12),
                                         (3, 9), (5, 5), (6, 6)], ids=str)
    def test_automorphisms_match_element_images(self, torsion):
        G = FinAbGroup(torsion)
        assert automorphisms(G) == automorphisms_by_elements(G)

    def test_tensor_and_tor(self):
        assert fin_ab_tensor(Zmod(4), Zmod(6)) == Zmod(2)
        assert fin_ab_tensor(Z, Zmod(5)) == Zmod(5)
        assert fin_ab_tor(Zmod(4), Zmod(6)) == Zmod(2)
        assert fin_ab_tor(Z, Zmod(5)) == ZERO_GROUP

    def test_solve_matrix_system(self):
        # X 2x1 with X[0][0] = 3 (mod 5) and X[1][0] = 1 exactly
        X = solve_matrix_system(2, 1, [
            ({(0, 0): 1}, 3, 5),
            ({(1, 0): 1}, 1, 0),
        ])
        assert X.entries[0][0] % 5 == 3
        assert X.entries[1][0] == 1
        assert solve_matrix_system(1, 1, [({(0, 0): 2}, 1, 4)]) is None


@given(st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_groups_of_order_have_right_order(n):
    for G in abelian_groups_of_order(n):
        assert G.order() == n
