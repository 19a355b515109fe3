"""Monogenic tables, basis words, elements, and morphism realization."""

from operator import mul

import pytest

from crtk import _tables
from crtk.crt_core import (
    OP_NAMES,
    OP_SPECS,
    PART_PERIOD,
    PARTS,
    _parse_side,
    _side_value,
    between_sums,
    is_acyclic,
    is_free,
    verify_relations,
)
from crtk.free_crt import (
    KINDS,
    Element,
    FreeMorphism,
    MonogenicKind,
    _shape,
    _words_for,
    base_module,
    free_module,
    monogenic,
    morphism_realize,
    realize_morphism,
    scale_element,
)
from crtk.zlinalg import CompositionError, FinAbGroup, IntMatrix, hom_scale, identity_hom, layout

from oracles import (
    act,
    basis,
    compose_morphisms,
    find_free_isomorphism,
    realize_morphism_by_tokens,
    table_module_oracle,
    token_words_for,
)


def apply_word(M, word, x: Element) -> Element:
    """A one-term word (text or parsed side) on x, read at x's degree, as an element."""
    side = _parse_side(word) if isinstance(word, str) else word
    ((_, ((name, off), *_)),) = side
    part, shift = (name, 0) if name in PARTS else OP_SPECS[name][1:]
    degree = x.degree + off + shift
    rows = _side_value(M, x.degree, side)[2]
    return Element(part, degree, M.group(part, degree).reduce(tuple(sum(map(mul, row, x.vec)) for row in rows)))

# Degree-8 column of each source table: it must restate degree 0 under the
# periodicity identification (an independent transcription checksum).
DEGREE8 = {
    "R": {"groups": {"O": [0], "U": [0], "T": [0]},
          "ops": {"c": 1, "r": 2, "eps": 1, "zeta": 1, "psiU": 1, "psiT": 1,
                  "gamma": 1, "tau": 1}},
    "C": {"groups": {"O": [0], "U": [0, 0], "T": [0]},
          "ops": {"c": [[1], [1]], "r": [[1, 1]], "eps": 1, "zeta": [[1], [1]],
                  "psiU": [[0, 1], [1, 0]], "psiT": 1, "gamma": [[1, 1]], "tau": 0}},
    "T": {"groups": {"O": [0], "U": [0], "T": [0, 2]},
          "ops": {"c": 1, "r": 2, "eps": [[1], [0]], "zeta": [[1, 0]],
                  "psiU": 1, "psiT": [[1, 0], [0, 1]], "gamma": [[0], [1]],
                  "tau": [[1, 1]]}},
}


class TestTables:
    @pytest.mark.parametrize("kind", ["R", "C", "T"])
    def test_degree8_column_matches_degree0(self, kind):
        M = monogenic(kind, 0).realized
        data = DEGREE8[kind]
        listed = _tables.BASE_TABLES[kind]["groups"]
        for p in PARTS:
            assert layout(tuple(data["groups"][p])).group == M.group(p, 0)
        for name in OP_NAMES:
            src, tgt, shift = OP_SPECS[name]
            dom, cod = listed[src][0], listed[tgt][shift % 8]
            got = between_sums(layout(tuple(cod)), _shape(data["ops"][name], len(cod), len(dom)),
                               layout(tuple(dom)))
            assert M.op(name, 0).matrix == got, name

    @pytest.mark.parametrize("kind", KINDS)
    def test_base_table_agrees_with_the_permutation_reader(self, kind):
        table = _tables.BASE_TABLES[kind]
        assert base_module(kind) == table_module_oracle(table["groups"], table["ops"])

    @pytest.mark.parametrize("kind", ["R", "C", "T"])
    @pytest.mark.parametrize("shift", range(8))
    def test_monogenic_relations_acyclic_free(self, kind, shift):
        M = monogenic(kind, shift).realized
        assert verify_relations(M).ok()
        assert is_acyclic(M).ok()
        assert is_free(M)

    @pytest.mark.parametrize("kind", ["R", "C", "T"])
    def test_basis_words_hit_stored_basis(self, kind):
        for shift in range(8):
            F = monogenic(kind, shift)
            M = F.realized
            gen = F.generator(0)
            s = F.summands[0]
            for part in PARTS:
                period = PART_PERIOD[part]
                for n in range(8):
                    G = M.group(part, n)
                    words = _words_for(kind, part, n - s.generator_degree)
                    assert len(words) == G.ngens
                    for i, w in enumerate(words):
                        y = apply_word(M, w, gen)
                        assert (y.part, y.degree % period) == (part, n % period)
                        assert y.vec == G.reduce(tuple(int(j == i) for j in range(G.ngens)))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shift", range(8))
    def test_words_agree_with_the_token_words(self, kind, shift):
        F = monogenic(kind, shift)
        M = F.realized
        gen = F.generator(0)
        for part in PARTS:
            for off in range(8):
                words = _words_for(kind, part, off)
                tokens = token_words_for(kind, part, off)
                assert len(words) == len(tokens)
                for word, (sign, token_word) in zip(words, tokens):
                    old, new = act(M, token_word, gen), apply_word(M, word, gen)
                    G = M.group(new.part, new.degree)
                    assert (new.part, new.degree % PART_PERIOD[part]) == (old.part, old.degree % PART_PERIOD[part])
                    assert new.vec == G.reduce(tuple(sign * v for v in old.vec)), (part, off, word)

    def test_table2_complex_rank(self):
        M = monogenic("C", 0).realized
        for n in (0, 2, 4, 6):
            assert M.group("U", n) == FinAbGroup(free_rank=2)
        for n in (1, 3, 5, 7):
            assert M.group("U", n).is_trivial()


class TestAct:
    """Operation words in crt_core._parse_side's notation acting on elements."""

    def test_tau_eps_gives_eta(self):
        F = monogenic("R", 0)
        one = F.generator(0)
        y = apply_word(F.realized, "tau.eps", one)
        assert y == Element("O", 1, (1,))  # the order-2 generator in degree 1

    def test_zeta_on_self_conjugate_generator(self):
        F = monogenic("T", 0)
        chi = F.generator(0)
        assert chi.degree == 7  # stored window for degree -1
        y = apply_word(F.realized, "zeta", chi)
        assert y == Element("U", 7, (-1,))

    def test_empty_word(self):
        F = monogenic("C", 0)
        x = F.generator(0)
        assert apply_word(F.realized, "U", x) == x

    def test_part_mismatch(self):
        # c lands in the complex part, which zeta does not read from: MU_0 = Z, MT_0 = Z + Z_2
        with pytest.raises(CompositionError):
            _side_value(monogenic("T", 1).realized, 0, _parse_side("zeta.c"))

    def test_word_composition(self):
        F = monogenic("T", 0)
        chi = F.generator(0)
        via_word = apply_word(F.realized, "c+1.tau", chi)
        stepwise = apply_word(F.realized, "c", apply_word(F.realized, "tau", chi))
        assert via_word == stepwise


class TestFreeModules:
    def test_empty_sum_is_zero(self):
        assert free_module([]).realized.is_zero()

    def test_shifted_real_pair(self):
        F = free_module([MonogenicKind("R", 0), MonogenicKind("R", 2)])
        # degree 2 of the real part: eta^2 from the first summand, the
        # generator of the second
        assert F.realized.group("O", 2) == FinAbGroup((2,), 1)
        assert is_free(F.realized)
        labels = [str(b) for b in basis(F, "O", 2)]
        assert labels == ["etaO.etaO(b0)", "b1"]

    def test_double_complex_rank(self):
        F = free_module([MonogenicKind("C", 0), MonogenicKind("C", 0)])
        assert F.realized.group("U", 0) == FinAbGroup(free_rank=4)

    def test_basis_counts_match_ranks(self):
        F = free_module([MonogenicKind("R", 1), MonogenicKind("T", 3)])
        for p in PARTS:
            for n in range(8):
                assert len(basis(F, p, n)) == F.realized.group(p, n).ngens


class TestMorphisms:
    def test_identity(self):
        F = monogenic("C", 0)
        fam = morphism_realize(FreeMorphism(F, F, [F.generator(0)]))
        for p in PARTS:
            for n in range(8):
                assert fam[(p, n)] == identity_hom(F.realized.group(p, n))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_multiplication(self, k):
        F = monogenic("R", 0)
        fam = morphism_realize(FreeMorphism(F, F, [scale_element(F.generator(0), k)]))
        for p in PARTS:
            for n in range(8):
                assert fam[(p, n)] == hom_scale(identity_hom(F.realized.group(p, n)), k)

    def test_composition(self):
        F = monogenic("R", 0)
        f = FreeMorphism(F, F, [scale_element(F.generator(0), 2)])
        g = FreeMorphism(F, F, [scale_element(F.generator(0), 3)])
        comp = FreeMorphism(F, F, [scale_element(F.generator(0), 6)])
        assert morphism_realize(comp) == compose_morphisms(morphism_realize(g),
                                                           morphism_realize(f))

    def test_image_degree_validation(self):
        F = monogenic("R", 0)
        with pytest.raises(ValueError):
            FreeMorphism(F, F, [Element("O", 1, (1,))])
        with pytest.raises(ValueError):
            FreeMorphism(F, F, [Element("U", 0, (1,))])

    def test_even_resolution_map_by_hand(self):
        # complex generator -> (k/2) c(b0) - betaU^{-1} c(b1); expanding the
        # two complex basis vectors by hand gives the columns below (the
        # second row, from the b1 summand, carries the minus sign)
        from crtk.catalog import cuntz_resolution
        k = 4
        res = cuntz_resolution(k)
        fam = morphism_realize(res.mu1)
        u0 = fam[("U", 0)]
        assert u0.matrix == IntMatrix.from_rows([[2, 2], [-1, 1]])
        # the real part of the target at degree 0 comes from the first
        # summand only, and r(c(b0)) = 2 b0 picks up the k/2 multiplier
        o0 = fam[("O", 0)]
        assert o0.matrix == IntMatrix.from_rows([[4]])

    @pytest.mark.parametrize("k", range(1, 25))
    def test_resolution_maps_agree_with_the_token_reader(self, k):
        from crtk.catalog import cuntz_resolution
        res = cuntz_resolution(k)
        F0, M0 = res.F0, res.F0.realized
        images = [Element(g.part, g.degree, res.mu0[(g.part, g.degree)].apply(g.vec))
                  for g in map(F0.generator, range(len(F0.summands)))]
        assert realize_morphism(F0, res.target, images) == res.mu0
        assert realize_morphism_by_tokens(F0, res.target, images) == res.mu0
        mu1 = res.mu1
        assert morphism_realize(mu1) == realize_morphism_by_tokens(mu1.source, M0, mu1.images)
        if k % 2 == 0:
            # the image as first built: (k/2)·c(b0) - betaU^-1·c(b2) through the token reader
            c0, c2 = act(M0, ["c"], F0.generator(0)), act(M0, ["betaU_inv", "c"], F0.generator(1))
            assert c2.degree == 0
            assert mu1.images[0].vec == tuple(k // 2 * u - v for u, v in zip(c0.vec, c2.vec))

    def test_find_free_isomorphism_identity(self):
        F = monogenic("C", 2)
        fam = find_free_isomorphism(F, F.realized)
        assert fam is not None


class TestSerialization:
    def test_free_module_round_trip(self):
        F = free_module([MonogenicKind("R", 0), MonogenicKind("C", 2), MonogenicKind("T", 5)])
        from oracles import free_from_json, free_to_json
        G = free_from_json(free_to_json(F))
        assert G.summands == F.summands
        assert G.realized == F.realized
