"""Fixture integrity: the Cuntz family, resolutions, and golden tables."""

from collections import Counter

import pytest

from crtk import catalog
from crtk.catalog import (
    _params,
    catalog_entry,
    catalog_names,
    cuntz_module,
    cuntz_parameter,
    cuntz_resolution,
    expected_product,
    expected_tensor,
    expected_tor,
)
from crtk.crt_core import OP_NAMES, PARTS, is_acyclic, verify_relations
from crtk.free_crt import monogenic, morphism_realize
from crtk.zlinalg import FinAbGroup, Zmod, hom_image

from oracles import cuntz_resolution_by_search, subgroups_equal, table_module_oracle

ZERO = FinAbGroup()


class TestCuntzModules:
    def test_k2_real_row(self):
        M = cuntz_module(2)
        assert [M.group("O", n) for n in range(8)] == [
            Zmod(2), Zmod(2), Zmod(4), Zmod(2), Zmod(2), ZERO, ZERO, ZERO]

    def test_k5_real_row(self):
        M = cuntz_module(5)
        assert [M.group("O", n) for n in range(8)] == [
            Zmod(5), ZERO, ZERO, ZERO, Zmod(5), ZERO, ZERO, ZERO]

    def test_k1_trivial(self):
        assert cuntz_module(1).is_zero()

    def test_k4_extension_class(self):
        # two order-2 generators, not a single order-4 one
        assert cuntz_module(4).group("O", 2) == FinAbGroup((2, 2))
        assert cuntz_module(2).group("O", 2) == Zmod(4)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_complex_row(self, k):
        M = cuntz_module(k)
        for n in range(8):
            expect = Zmod(k) if n % 2 == 0 else ZERO
            assert M.group("U", n) == expect

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            cuntz_module(0)


class TestResolutions:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_constructs_and_validates(self, k):
        res = cuntz_resolution(k)
        kinds = {s.kind for s in res.F1.summands}
        assert kinds == ({"R"} if k % 2 else {"C"})

    def test_odd_is_multiplication(self):
        res = cuntz_resolution(3)
        fam = morphism_realize(res.mu1)
        assert fam[("O", 0)].matrix.entries == ((3,),)

    @pytest.mark.parametrize("k", range(2, 31, 2))
    def test_closed_form_matches_kernel_search(self, k):
        """The even generator image in closed form against the search of ker(mu0).

        The search finds the closed form's image (k/2, -1) itself for every
        even k, and the two mu1 have equal images degreewise.
        """
        res, found = cuntz_resolution(k), cuntz_resolution_by_search(k)
        assert [x.vec for x in res.mu1.images] == [(k // 2, -1)]
        assert res.mu1.images == found.mu1.images
        fam, fam_found = morphism_realize(res.mu1), morphism_realize(found.mu1)
        for key, f in fam.items():
            assert subgroups_equal(hom_image(f)[1], hom_image(fam_found[key])[1]), key


class TestExpectedTables:
    def test_product_coprime_odd_is_zero(self):
        assert expected_product(3, 5).is_zero()

    def test_tor_4_4_real_row(self):
        M = expected_tor(4, 4)
        assert [M.group("O", n) for n in range(8)] == [
            Zmod(4), ZERO, Zmod(2), ZERO, Zmod(2), ZERO, ZERO, ZERO]

    def test_product_2_4_row(self):
        M = expected_product(2, 4)
        assert M.group("O", 2) == FinAbGroup((2, 4))

    def test_product_symmetric_in_arguments(self):
        A = expected_product(4, 2)
        B = expected_product(2, 4)
        for p in PARTS:
            for n in range(8):
                assert A.group(p, n) == B.group(p, n)

    def test_odd_tensor_equals_tor(self):
        for (k, l) in [(3, 6), (3, 5), (9, 3)]:
            A, B = expected_tensor(k, l), expected_tor(k, l)
            assert all(A.group(p, n) == B.group(p, n) for p in PARTS for n in range(8))
            assert all(A.op(nm, n) == B.op(nm, n) for nm in OP_NAMES for n in range(8))

    def test_uncovered_cases_error(self):
        with pytest.raises(ValueError):
            expected_tensor(2, 2)
        with pytest.raises(ValueError):
            expected_tor(2, 4)

    @pytest.mark.parametrize("pair", [(3, 6), (2, 2), (2, 6), (4, 4), (4, 8),
                                      (2, 4), (6, 8), (12, 4)])
    def test_products_acyclic(self, pair):
        M = expected_product(*pair)
        assert verify_relations(M).ok()
        assert is_acyclic(M).ok()

    def test_parity_parameters(self):
        assert _params(4, 4) == {"k": 4, "l": 4, "g": 4, "kp": 1, "lp": 1}
        assert _params(4, 8)["kp"] == 1
        assert _params(4, 8)["lp"] == 0
        assert _params(12, 8) == {"k": 12, "l": 8, "g": 4, "kp": 1, "lp": 0}


class TestTableReader:
    """Every printed table, read as a presentation, against the permutation reader."""

    def test_every_table_agrees_with_the_permutation_reader(self, monkeypatch):
        read = []

        def checked(groups_listed, ops_listed, _fn=catalog.table_module):
            M = _fn(groups_listed, ops_listed)
            assert M == table_module_oracle(groups_listed, ops_listed), groups_listed
            read.append(M)
            return M

        monkeypatch.setattr(catalog, "table_module", checked)
        for k in range(1, 41):
            cuntz_module(k)
        for k in range(1, 25):
            for l in range(1, 25):
                expected_product(k, l)
                if k % 2 or l % 2 or (k % 4 == 0 and l % 4 == 0):
                    expected_tensor(k, l)
                    expected_tor(k, l)
        assert len(read) > 40


class TestEntriesAndData:
    def test_catalog_names(self):
        names = catalog_names()
        for expected in ("R", "C", "T", "zero", "O3"):
            assert expected in names

    def test_entry_lookup(self):
        ent = catalog_entry("O4")
        assert ent.params == {"k": 3}
        assert ent.resolution is not None
        assert verify_relations(ent.module).ok()
        with pytest.raises(KeyError):
            catalog_entry("X9")

    def test_cuntz_parameter(self):
        assert [cuntz_parameter(n) for n in ("O2", "O5", "O13", "R", "zero")] == \
            [1, 4, 12, None, None]
        for bad in ("O1", "O", "Ox", "O-3", "X9"):
            with pytest.raises(KeyError):
                cuntz_parameter(bad)

    def test_work_built_once(self, monkeypatch):
        import crtk.catalog as catalog
        from crtk.kunneth import kunneth_pipeline
        calls = Counter()
        for name in ("cuntz_module", "cuntz_resolution"):
            def counted(*args, _fn=getattr(catalog, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(catalog, name, counted)
        catalog_entry("O4")
        assert calls == {"cuntz_module": 1, "cuntz_resolution": 1}
        calls.clear()
        # B needs its module only, not a resolution
        kunneth_pipeline("O3", "O3")
        assert calls == {"cuntz_module": 2, "cuntz_resolution": 1}

    def test_fixtures_built_and_checked_once(self, monkeypatch):
        import crtk.catalog as catalog
        calls = Counter()
        def counted(M, _fn=catalog.verify_relations):
            calls["verify_relations"] += 1
            return _fn(M)
        monkeypatch.setattr(catalog, "verify_relations", counted)
        assert cuntz_resolution(6) is cuntz_resolution(6)
        assert cuntz_module(6) is cuntz_resolution(6).target
        assert expected_product(6, 10) is expected_product(10, 6)
        assert calls == {"verify_relations": 2}  # the module and the product table
        a, b = catalog_entry("O7"), catalog_entry("O7")
        assert a is not b and a.resolution is b.resolution

    @pytest.mark.parametrize("name", ["R", "C", "T"])
    def test_shipped_fixture_matches_tables(self, name):
        M = catalog_entry(name).module
        assert M == monogenic(name, 0).realized
        assert verify_relations(M).ok()
        assert is_acyclic(M).ok()
