"""Tensor products, induced maps, Tor, and the structural cross-checks."""

import functools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtk import tensor
from crtk.catalog import (
    catalog_entry,
    cuntz_module,
    cuntz_resolution,
    expected_tensor,
    expected_tor,
)
from crtk.crt_core import (
    OP_NAMES,
    PART_PERIOD,
    PARTS,
    _side_hom,
    crt_isomorphic,
    direct_sum,
    is_acyclic,
    morphism_commutes,
    suspend,
    zero_module,
)
from crtk.free_crt import (
    Element,
    FreeMorphism,
    MonogenicKind,
    _words_for,
    free_module,
    monogenic,
    scale_element,
)
from crtk.kunneth import KunnethProblem, solve_middle
from crtk.tensor import (
    induced_tensor_map,
    quotient_by_image,
    restrict_to_kernels,
    tensor_and_tor,
    tensor_free,
)
from crtk.zlinalg import GroupHom, IntMatrix, hom_scale, identity_hom

import oracles
from cold_path import clear_caches
from oracles import (
    complex_tensor_groups,
    complex_tor_groups,
    expand_induced_map_oracle,
    find_free_isomorphism,
    induced_tensor_map_oracle,
    quotient_by_image_oracle,
    restrict_to_kernels_oracle,
    tensor_and_tor_oracle,
    tensor_free_oracle,
    tensor_monogenic,
    tensor_symmetric_check,
    zero_hom,
    _expand_basis,
    _summand_raw_op,
)

R = monogenic("R", 0).realized
C = monogenic("C", 0).realized
T = monogenic("T", 0).realized


def modules_equal(A, B):
    return (all(A.group(p, n) == B.group(p, n) for p in PARTS for n in range(8))
            and all(A.op(nm, n) == B.op(nm, n) for nm in OP_NAMES for n in range(8)))


class TestUnitLaw:
    @pytest.mark.parametrize("N", [R, C, T, cuntz_module(2), cuntz_module(3), cuntz_module(4)],
                             ids=["R", "C", "T", "O3", "O4", "O5"])
    def test_real_unit(self, N):
        # R(0) (x) N is assembled from N's own matrices over identity layouts.
        TT = tensor_monogenic("R", 0, N)
        assert modules_equal(TT.module, N)
        assert all(lay.identity for lay in TT.layouts.values())


class TestMonogenicTensors:
    def test_complex_against_real_is_table_2(self):
        TT = tensor_monogenic("C", 0, R)
        M = TT.module
        assert [M.group("O", n) for n in range(8)] == [C.group("O", n) for n in range(8)]
        assert [M.group("U", n) for n in range(8)] == [C.group("U", n) for n in range(8)]
        assert [M.group("T", n) for n in range(8)] == [C.group("T", n) for n in range(8)]
        assert find_free_isomorphism(monogenic("C", 0), M) is not None

    def test_zero_factor(self):
        assert tensor_monogenic("T", 0, zero_module()).module.is_zero()

    def test_part_shapes_self_conjugate_kind(self):
        # generator sits one degree below the shift; the real part of the
        # product is the self-conjugate part of the factor, degree for degree
        TT = tensor_monogenic("T", 0, cuntz_module(4))
        N = cuntz_module(4)
        for n in range(8):
            assert TT.module.group("O", n) == N.group("T", n)

    @pytest.mark.parametrize("kind", ["R", "C", "T"])
    @pytest.mark.parametrize("N", [R, C, T], ids=["R", "C", "T"])
    def test_acyclic_factors_small(self, kind, N):
        TT = tensor_monogenic(kind, 0, N)
        assert is_acyclic(TT.module).ok()


class TestTensorFree:
    def test_empty(self):
        F = free_module([])
        assert tensor_free(F, cuntz_module(3)).module.is_zero()

    def test_equal_inputs_share_one_checked_build(self, monkeypatch):
        import crtk.tensor as tensor
        calls = []
        def counted(M, _fn=tensor.verify_relations):
            calls.append(M)
            return _fn(M)
        monkeypatch.setattr(tensor, "verify_relations", counted)
        F, G = monogenic("C", 0), monogenic("C", 0)
        a, b = tensor_free(F, cuntz_module(4)), tensor_free(G, cuntz_module(4))
        assert a.free is F and b.free is G
        assert a.module is b.module and a.raw_ops is b.raw_ops
        assert len(calls) == 1

    def test_block_sum_squares_groups(self):
        N = cuntz_module(3)
        F = free_module([MonogenicKind("R", 0), MonogenicKind("R", 0)])
        TT = tensor_free(F, N)
        for p in PARTS:
            for n in range(8):
                single = N.group(p, n)
                doubled = TT.module.group(p, n)
                assert doubled.order() == single.order() ** 2

    def test_suspension_compatibility(self):
        # odd shifts flip the provenance signs, so the comparison is up to
        # isomorphism; even shifts agree on the nose for the real kind
        N = cuntz_module(4)
        for kind in ("R", "C", "T"):
            base = tensor_free(free_module([MonogenicKind(kind, 0)]), N).module
            for s in (1, 2, 3):
                A = tensor_free(free_module([MonogenicKind(kind, s)]), N).module
                B = suspend(base, s)
                for p in PARTS:
                    for n in range(8):
                        assert A.group(p, n) == B.group(p, n)
                assert crt_isomorphic(A, B) is not None
        assert modules_equal(
            tensor_free(free_module([MonogenicKind("R", 2)]), N).module,
            suspend(tensor_free(free_module([MonogenicKind("R", 0)]), N).module, 2))


class TestInducedMaps:
    def test_identity_and_scalars(self):
        F = monogenic("C", 0)
        N = cuntz_module(3)
        TT = tensor_free(F, N)
        gen = F.generator(0)
        fam = induced_tensor_map(FreeMorphism(F, F, [gen]), N)
        for p in PARTS:
            for n in range(8):
                assert fam[(p, n)] == identity_hom(TT.module.group(p, n))
        fam5 = induced_tensor_map(FreeMorphism(F, F, [scale_element(gen, 5)]), N)
        for p in PARTS:
            for n in range(8):
                assert fam5[(p, n)] == hom_scale(identity_hom(TT.module.group(p, n)), 5)

    def test_functoriality_through_a_resolution_map(self):
        # compose the even resolution map with multiplication by 3
        from oracles import compose_morphisms
        res = cuntz_resolution(4)
        N = cuntz_module(4)
        f = res.mu1
        F0 = res.F0
        g = FreeMorphism(F0, F0, [scale_element(F0.generator(0), 3),
                                  scale_element(F0.generator(1), 3)])
        comp = FreeMorphism(f.source, F0, [scale_element(f.images[0], 3)])
        left = induced_tensor_map(comp, N)
        right = compose_morphisms(induced_tensor_map(g, N), induced_tensor_map(f, N))
        assert left == right


@st.composite
def free_morphisms(draw):
    """A FreeMorphism between free modules of 1-2 summands of kinds R, C, T.

    Each image is zero or random coordinates (torsion ones included) in the
    target group at the source generator's part and degree.
    """
    def summands():
        return [MonogenicKind(draw(st.sampled_from("RCT")), draw(st.integers(0, 7)))
                for _ in range(draw(st.integers(1, 2)))]
    F, G = free_module(summands()), free_module(summands())
    images = []
    for s in F.summands:
        part, deg = s.generator_part, s.generator_degree
        width = G.realized.group(part, deg).ngens
        vec = draw(st.one_of(st.just((0,) * width),
                             st.tuples(*[st.integers(-3, 3)] * width)))
        images.append(Element(part, deg, vec))
    return FreeMorphism(F, G, images)


class TestInducedMapBySums:
    """induced_tensor_map expands mor's own images once and checks the family; the per-pair path is the oracle."""

    def test_agrees_with_the_per_pair_path_on_the_grid(self):
        for k in range(2, 13):
            mu1 = cuntz_resolution(k).mu1
            for l in range(2, 13):
                N = cuntz_module(l)
                assert induced_tensor_map(mu1, N) == induced_tensor_map_oracle(mu1, N), (k, l)

    @given(free_morphisms(), st.sampled_from(["R", "C", "T", "O3", "O4", "O5", "O6", "O7"]))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_per_pair_path_on_random_morphisms(self, mor, name):
        N = catalog_entry(name).module
        assert induced_tensor_map(mor, N) == induced_tensor_map_oracle(mor, N)

    def test_naturality_is_still_enforced(self, monkeypatch):
        # Negate the pure tensor b~ (x) n of a real summand: the (R, O, 0) entry of
        # the expansion table, and the same rule of the oracle's branches.  Against O5
        # it negates the real part and not the complex part, and c is not 2-torsion
        # there.  Both paths expand mor's own images and check the whole family, so
        # the flip fails on R(0) -> R(0) + R(0), generator to the first generator,
        # and on 3 id, the mu1 of O4's own resolution.  O5 (x) O5 cannot show a sign
        # change: all its expansions are a real summand's one U rule, and C (x) O5
        # splits by the degree of n, so any signs give an automorphism of a natural
        # family.
        key = ("R", "O", 0, 0)
        ((slot, sign, word),) = tensor._EXPANSION[key]
        expand = oracles._expand_basis

        def flipped(kind, off, idx, g, part, N, d2):
            terms = expand(kind, off, idx, g, part, N, d2)
            if (kind, part, off % 8) == key[:3]:
                (label, sign, h), *rest = terms
                terms = [(label, -sign, h), *rest]
            return terms

        F = monogenic("R", 0)
        mor = FreeMorphism(F, free_module([MonogenicKind("R", 0)] * 2), [Element("O", 0, (1, 0))])
        clear_caches()
        monkeypatch.setitem(tensor._EXPANSION, key, ((slot, tuple(-x for x in sign), word),))
        monkeypatch.setattr(oracles, "_expand_basis", flipped)
        try:
            with pytest.raises(ValueError, match="fails naturality"):
                induced_tensor_map(mor, cuntz_module(4))
            for induced in (induced_tensor_map, induced_tensor_map_oracle):
                with pytest.raises(ValueError, match="fails naturality"):
                    induced(cuntz_resolution(3).mu1, cuntz_module(4))
        finally:
            clear_caches()


def unit_morphisms(F):
    """F -> F sending the generator to each basis element of its group, then to 3 times itself."""
    s = F.summands[0]
    part, deg = s.generator_part, s.generator_degree
    width = F.realized.group(part, deg).ngens
    for j in range(width):
        yield FreeMorphism(F, F, [Element(part, deg, tuple(int(t == j) for t in range(width)))])
    yield FreeMorphism(F, F, [scale_element(F.generator(0), 3)])


class TestStructuralShortcuts:
    """Identity layouts, real summands as N and the unit morphisms of F against the generic path."""

    @staticmethod
    def factors():
        yield from (catalog_entry(name).module for name in ["R", "C", "T"] + [f"O{m}" for m in range(2, 14)])
        yield solver_middle(4, 4)

    @pytest.mark.parametrize("deg", range(4))
    @pytest.mark.parametrize("kind", ["R", "C", "T"])
    def test_agrees_with_the_generic_path(self, kind, deg):
        F = monogenic(kind, deg)
        for N in self.factors():
            got, want = tensor_free(F, N), tensor_free_oracle(F.summands, N)
            assert modules_equal(got.module, want.module)
            assert got.layouts == want.layouts and got.raw_ops == want.raw_ops
            assert ({key: [vars(sl) for sl in lst] for key, lst in got.slots.items()}
                    == {key: [vars(sl) for sl in lst] for key, lst in want.slots.items()})
            for mor in unit_morphisms(F):
                assert induced_tensor_map(mor, N) == induced_tensor_map_oracle(mor, N)

    @pytest.mark.parametrize("kind", ["R", "C", "T"])
    def test_generic_identity_is_natural(self, kind):
        for deg in range(4):
            F = monogenic(kind, deg)
            for N in self.factors():
                TT = tensor_free_oracle(F.summands, N)
                fam = expand_induced_map_oracle(FreeMorphism(F, F, [F.generator(0)]), TT, TT)
                assert morphism_commutes(TT.module, TT.module, fam)
                assert fam == {key: identity_hom(TT.module.group(*key)) for key in fam}


class TestPairingTables:
    """The tables of words against the pairing rules written as branches (oracles._summand_raw_op, _expand_basis)."""

    @pytest.mark.parametrize("kind", ["R", "C", "T"])
    def test_raw_operations(self, kind):
        for shift in range(8):
            F = monogenic(kind, shift)
            g = F.summands[0].generator_degree
            for N in TestStructuralShortcuts.factors():
                raw_ops = tensor_free(F, N).raw_ops
                for name in OP_NAMES:
                    for m in range(8):
                        assert raw_ops[(name, m)] == _summand_raw_op(kind, g, N, name, m), (g, name, m)

    @pytest.mark.parametrize("kind", ["R", "C", "T"])
    def test_expansion(self, kind):
        read = set()
        for N in TestStructuralShortcuts.factors():
            for part in PARTS:
                for off in range(8):
                    for idx in range(len(_words_for(kind, part, off))):
                        key = (kind, part, off % PART_PERIOD[part], idx)
                        read.add(key)
                        for g in range(8):
                            for d2 in range(8):
                                got = [(tensor._SLOTS[kind][part][slot][0], sign[g % 2], _side_hom(N, d2, word))
                                       for slot, sign, word in tensor._EXPANSION[key]]
                                want = [(label, sign, identity_hom(N.group(part, d2)) if h is None else h)
                                        for label, sign, h in _expand_basis(kind, off, idx, g, part, N, d2)]
                                assert got == want, (key, g, d2)
        assert read == {key for key in tensor._EXPANSION if key[0] == kind}


@functools.cache
def solver_middle(l, m):
    """The solver's middle for O_{l+1} (x) O_{m+1}: a factor that is not a Cuntz module."""
    tp = tensor_and_tor(cuntz_resolution(l), cuntz_module(m))
    (sol,) = solve_middle(KunnethProblem(tp.tensor, tp.tor))
    return sol.middle


MIDDLES = [(2, 2), (2, 4), (3, 3), (4, 4), (4, 6), (5, 5)]


def assert_restriction_agrees(M, fam):
    """restrict_to_kernels(M, fam) gives the oracle's module and inclusions."""
    module, incl = restrict_to_kernels(M, fam)
    want, want_incl = restrict_to_kernels_oracle(M, fam)
    assert modules_equal(module, want) and incl == want_incl


def assert_tor_agrees(k, N):
    """The kernel of mu1 (x) 1 of O_{k+1} against N, restricted as by the oracle."""
    res = cuntz_resolution(k)
    assert_restriction_agrees(tensor_free(res.F1, N).module, induced_tensor_map(res.mu1, N))


class TestRestrictToKernels:
    """One kernel system per degree against the per-column oracle, and the closure check."""

    def test_agrees_with_the_per_column_path_on_the_grid(self):
        for k in range(2, 13):
            res = cuntz_resolution(k)
            assert_restriction_agrees(res.F0.realized, res.mu0)  # a kernel outside the tensor layer
            for l in range(2, 13):
                assert_tor_agrees(k, cuntz_module(l))

    @given(st.integers(2, 12),
           st.one_of(st.integers(2, 12).map(cuntz_module),
                     st.sampled_from(MIDDLES).map(lambda lm: solver_middle(*lm))))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_per_column_path_on_other_factors(self, k, N):
        assert_tor_agrees(k, N)

    @staticmethod
    def family(M, maps):
        """maps at the keys it names, the zero endomorphism of M's group at every other key."""
        return {(p, n): maps.get((p, n)) or zero_hom(M.group(p, n), M.group(p, n))
                for p in PARTS for n in range(8)}

    def test_a_trivial_target_kernel_still_checks_closure(self):
        # The identity at U_0 of R has a trivial kernel; c_0 sends the generator of
        # O_0 = Z, all in the kernel of the zero map there, to 1.
        fam = self.family(R, {("U", 0): identity_hom(R.group("U", 0))})
        for restrict in (restrict_to_kernels, restrict_to_kernels_oracle):
            with pytest.raises(ValueError, match="kernel not closed"):
                restrict(R, fam)

    def test_a_nontrivial_target_kernel_checks_closure(self):
        # At U_0 = Z^2 of R + R the kernel of the first projection is the second
        # summand, and c_0 sends the first generator of O_0 = Z^2 outside it.
        M = direct_sum(R, R)
        U0 = M.group("U", 0)
        proj = GroupHom(U0, R.group("U", 0), IntMatrix.from_rows([[1, 0]]))
        fam = self.family(M, {("U", 0): proj})
        for restrict in (restrict_to_kernels, restrict_to_kernels_oracle):
            with pytest.raises(ValueError, match="kernel not closed"):
                restrict(M, fam)


class TestQuotientByImage:
    """One cokernel layout per degree against the explicit cokernel loop."""

    def test_agrees_with_the_cokernel_loop_on_the_grid(self):
        for k in range(2, 13):
            res = cuntz_resolution(k)
            # mu0 is onto: every cokernel is trivial.
            assert modules_equal(quotient_by_image(res.target, res.mu0),
                                 quotient_by_image_oracle(res.target, res.mu0))
            for l in range(2, 13):
                N = cuntz_module(l)
                M, fam = tensor_free(res.F0, N).module, induced_tensor_map(res.mu1, N)
                assert modules_equal(quotient_by_image(M, fam), quotient_by_image_oracle(M, fam)), (k, l)


class TestTensorAndTor:
    def test_odd_case_matches_table(self):
        res = cuntz_resolution(3)
        tp = tensor_and_tor(res, cuntz_module(6))
        Et, Er = expected_tensor(3, 6), expected_tor(3, 6)
        assert modules_equal(tp.tensor, Et) or crt_isomorphic(tp.tensor, Et) is not None
        assert crt_isomorphic(tp.tor, Er) is not None

    def test_free_factor_has_no_tor(self):
        res = cuntz_resolution(3)
        tp = tensor_and_tor(res, R)
        assert tp.tor.is_zero()

    def test_0mod4_case_matches_tables(self):
        res = cuntz_resolution(4)
        tp = tensor_and_tor(res, cuntz_module(4))
        Et, Er = expected_tensor(4, 4), expected_tor(4, 4)
        for p in PARTS:
            for n in range(8):
                assert tp.tensor.group(p, n) == Et.group(p, n)
                assert tp.tor.group(p, n) == Er.group(p, n)
        assert crt_isomorphic(tp.tensor, Et) is not None
        assert crt_isomorphic(tp.tor, Er) is not None

    def test_euler_order_balance(self):
        for (k, l) in [(4, 4), (2, 4)]:
            res = cuntz_resolution(k)
            N = cuntz_module(l)
            tp = tensor_and_tor(res, N)
            t0, t1 = tensor_free(res.F0, N).module, tensor_free(res.F1, N).module
            for p in PARTS:
                for n in range(8):
                    lhs = tp.tor.group(p, n).order() * t0.group(p, n).order()
                    rhs = tp.tensor.group(p, n).order() * t1.group(p, n).order()
                    assert lhs == rhs

    def test_complex_part_shortcut(self):
        for (k, l) in [(3, 6), (4, 4), (2, 4)]:
            res = cuntz_resolution(k)
            N = cuntz_module(l)
            tp = tensor_and_tor(res, N)
            M = cuntz_module(k)
            tens = complex_tensor_groups(M, N)
            tor = complex_tor_groups(M, N)
            for n in range(8):
                assert tp.tensor.group("U", n) == tens[n]
                assert tp.tor.group("U", n) == tor[n]

    def test_symmetry(self):
        assert tensor_symmetric_check(cuntz_resolution(3), cuntz_resolution(5))
        assert tensor_symmetric_check(cuntz_resolution(4), cuntz_resolution(4))
        assert tensor_symmetric_check(cuntz_resolution(2), cuntz_resolution(1))
        # (3, 5) and (2, 1) are coprime, so both sides are the zero module.
        assert tensor_symmetric_check(cuntz_resolution(3), cuntz_resolution(6))
        assert tensor_symmetric_check(cuntz_resolution(2), cuntz_resolution(6))
        assert tensor_symmetric_check(cuntz_resolution(4), cuntz_resolution(6))


class TestCoprimeOrders:
    """Coprime finite orders give zero tensor and Tor without the construction, as the oracle finds."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The N of each induced map tensor_and_tor builds, in call order."""
        calls = []

        def spy(mor, N):
            calls.append(N)
            return induced_tensor_map(mor, N)

        monkeypatch.setattr(tensor, "induced_tensor_map", spy)
        return calls

    def assert_agrees(self, k, N):
        tp = tensor_and_tor(cuntz_resolution(k), N)
        want_tensor, want_tor = tensor_and_tor_oracle(cuntz_resolution(k), N)
        assert modules_equal(tp.tensor, want_tensor) and modules_equal(tp.tor, want_tor)
        return tp

    def test_order(self):
        assert zero_module().order() == 1 and cuntz_module(1).order() == 1
        assert R.order() is None and T.order() is None
        for k in range(2, 13):
            assert [p for p in (2, 3, 5, 7, 11) if cuntz_module(k).order() % p == 0] == \
                [p for p in (2, 3, 5, 7, 11) if k % p == 0], k

    def test_coprime_grid_pairs(self, built):
        pairs = [(k, l) for k in range(2, 13) for l in range(2, 13) if gcd(k, l) == 1]
        assert len(pairs) == 68
        for k, l in pairs:
            tp = self.assert_agrees(k, cuntz_module(l))
            assert tp.tensor.is_zero() and tp.tor.is_zero(), (k, l)
        assert built == []

    @pytest.mark.parametrize("k, middle", [(k, (2, 2)) for k in (3, 5, 9)] + [(k, (4, 4)) for k in (3, 5, 9)]
                             + [(k, (3, 3)) for k in (2, 4, 8)], ids=str)
    def test_solver_middles(self, k, middle, built):
        N = solver_middle(*middle)
        built.clear()  # the middle's own solve may have built one
        tp = self.assert_agrees(k, N)
        assert tp.tensor.is_zero() and tp.tor.is_zero()
        assert built == []

    @pytest.mark.parametrize("k, N", [(3, R), (3, T), (3, cuntz_module(6))], ids=["R", "T", "O7"])
    def test_other_factors_take_the_full_path(self, k, N, built):
        tp = self.assert_agrees(k, N)
        assert not tp.tensor.is_zero()
        assert built == [N]
