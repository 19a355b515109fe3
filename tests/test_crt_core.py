"""Structure, relations, acyclicity, sums, suspension, isomorphism search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtk import crt_core
from crtk.catalog import catalog_entry, catalog_names, cuntz_module, expected_product
from crtk.crt_core import (
    BudgetExceeded,
    CHECKS,
    GradedPart,
    OP_NAMES,
    OP_SPECS,
    PARTS,
    SLOTS,
    SLOT_OPS,
    crt_isomorphic,
    direct_sum,
    eta_O,
    is_acyclic,
    is_free,
    make_module,
    module_from_json,
    module_to_json,
    morphism_commutes,
    slot_of,
    suspend,
    verify_relations,
    zero_module,
)
from crtk.free_crt import monogenic
from crtk.kunneth import KunnethProblem, kunneth_pipeline, split_model
from crtk.zlinalg import (
    CompositionError,
    FinAbGroup,
    GroupHom,
    IntMatrix,
    ZERO_GROUP,
    Zmod,
    hom_cokernel,
    hom_compose,
    hom_kernel,
    hom_scale,
    identity_hom,
)

from cold_path import clear_caches
from kunneth_oracle import conjugate
from oracles import (automorphisms, crt_isomorphic_oracle, morphism_commutes_oracle, morphism_is_iso,
                     well_defined_matrix)

R = monogenic("R", 0).realized
C = monogenic("C", 0).realized
T = monogenic("T", 0).realized


def test_graded_part_periodicity_enforced():
    with pytest.raises(ValueError):
        GradedPart(2, (Zmod(2),) + (ZERO_GROUP,) * 7)


class TestCatalogFixtures:
    @pytest.mark.parametrize("M", [R, C, T], ids=["R", "C", "T"])
    def test_base_modules(self, M):
        assert verify_relations(M).ok()
        assert is_acyclic(M, check_relations=False).ok()
        assert is_free(M)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_cuntz_modules(self, k):
        M = cuntz_module(k)
        assert verify_relations(M).ok()
        assert is_acyclic(M, check_relations=False).ok()
        # torsion complex part: free only in the degenerate case
        assert is_free(M) == (k == 1)

    def test_rc_equals_2_on_table_1(self):
        lhs = hom_compose(R.op("r", 0), R.op("c", 0))
        assert lhs == hom_scale(identity_hom(R.group("O", 0)), 2)

    def test_involutions_square_to_identity(self):
        for M in (R, C, T, cuntz_module(4)):
            for n in range(8):
                psiU, psiT = M.op("psiU", n), M.op("psiT", n)
                assert hom_compose(psiU, psiU) == identity_hom(M.group("U", n))
                assert hom_compose(psiT, psiT) == identity_hom(M.group("T", n))


class TestRelationFailures:
    def test_negated_psiU_fails_cr(self):
        groups = {p: [R.group(p, n) for n in range(8)] for p in PARTS}
        mats = {name: [R.op(name, n).matrix for n in range(8)] for name in OP_NAMES}
        mats["psiU"] = [(-m if n == 0 else m) for n, m in enumerate(mats["psiU"])]
        M = make_module(groups, mats)
        rep = verify_relations(M)
        assert ("cr=1+psiU", 0) in rep.failures

    def test_zero_module_passes_everything(self):
        Z = zero_module()
        assert verify_relations(Z).ok()
        assert is_acyclic(Z).ok()
        assert is_free(Z)

    def test_reports_pin_names_degrees_and_order(self):
        groups = {p: [R.group(p, n) for n in range(8)] for p in PARTS}
        mats = {name: [R.op(name, n).matrix for n in range(8)] for name in OP_NAMES}
        mats["psiU"] = [(-m if n == 0 else m) for n, m in enumerate(mats["psiU"])]
        assert verify_relations(make_module(groups, mats)).failures == [
            ("cr=1+psiU", 0), ("psiU.zeta=zeta", 0), ("gamma.psiU=gamma", 0),
            ("psiU.betaU=-betaU.psiU", 0), ("psiU.betaU=-betaU.psiU", 6)]
        # Exactness nodes report at their node's degree, unreduced (8, not 0).
        assert is_acyclic(lone_O_module(), check_relations=False).failures == [
            ("seq2@O.ker(etaO)", 0), ("seq3@O.ker(etaO^2)", 0), ("seq3@O", 8), ("seq2@O", 8)]
        M = cuntz_module(2)
        groups = {p: [M.group(p, n) for n in range(8)] for p in PARTS}
        mats = {name: [M.op(name, n).matrix for n in range(8)] for name in OP_NAMES}
        mats["eps"] = [(IntMatrix.zeros(m.rows, m.cols) if n == 1 else m)
                       for n, m in enumerate(mats["eps"])]
        assert verify_relations(make_module(groups, mats)).failures == [
            ("betaT.eps.tau=eps.tau.betaT+etaT.betaT", 0),
            ("betaT.eps.tau=eps.tau.betaT+etaT.betaT", 4)]

    def test_is_acyclic_requires_relations(self):
        groups = {p: [R.group(p, n) for n in range(8)] for p in PARTS}
        mats = {name: [R.op(name, n).matrix for n in range(8)] for name in OP_NAMES}
        mats["psiU"] = [(-m if n == 0 else m) for n, m in enumerate(mats["psiU"])]
        M = make_module(groups, mats)
        with pytest.raises(ValueError):
            is_acyclic(M)


class TestSuiteCache:
    """Each suite runs once per distinct module value; every call gets a fresh report."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """(module, suite) of every suite that actually runs."""
        runs = []

        def counted(M, checks, _fn=crt_core._report):
            runs.append((M, "nodes" if checks is crt_core._SUITES["nodes"] else "relations"))
            return _fn(M, checks)
        monkeypatch.setattr(crt_core, "_report", counted)
        return runs

    def test_equal_copy_runs_each_suite_once(self, runs):
        M = expected_product(4, 4)
        copy = module_from_json(module_to_json(M))
        assert copy == M and copy is not M
        clear_caches()
        runs.clear()
        for N in (M, copy):
            assert verify_relations(N).ok()
            assert is_acyclic(N).ok()
        assert [suite for _, suite in runs] == ["relations", "nodes"]

    def test_pinned_reports_same_warm_and_cold(self, runs):
        pinned = TestRelationFailures().test_reports_pin_names_degrees_and_order
        pinned()
        cold = len(runs)
        assert cold >= 3
        pinned()  # rebuilds equal modules: every suite is a cache hit
        assert len(runs) == cold
        clear_caches()
        pinned()
        assert len(runs) == 2 * cold

    def test_reports_are_fresh(self):
        Z = zero_module()
        for check in (verify_relations, lambda M: is_acyclic(M, check_relations=False)):
            check(Z).failures.append(("tampered", 0))
            assert check(Z).failures == []

    def test_zero_module_checked_once_across_pairs(self, runs):
        # gcd 1: tensor and Tor of both pairs are the zero module (five suite runs uncached).
        kunneth_pipeline("O3", "O4")
        kunneth_pipeline("O3", "O6")
        assert [suite for M, suite in runs if M.is_zero()] == ["relations"]


class _RecordingView:
    """A module seen through op and group, recording the operations read."""

    def __init__(self, M):
        self.M = M
        self.read = set()

    def op(self, name, n):
        self.read.add((name, n % 8))
        return self.M.op(name, n)

    def group(self, part, n):
        return self.M.group(part, n)


class TestCheckTable:
    def test_thirty_uniquely_named_entries(self):
        assert len({chk.name for chk in CHECKS}) == len(CHECKS) == 30
        assert sum(chk.node for chk in CHECKS) == 9

    def test_each_check_reads_exactly_its_declared_keys(self):
        M = expected_product(4, 4)
        for chk in CHECKS:
            for n in range(8):
                view = _RecordingView(M)
                assert chk.holds(view, n), (chk.name, n)
                assert view.read == {(name, (n + off) % 8) for name, off in chk.reads}, (chk.name, n)


def lone_O_module():
    groups = {p: [ZERO_GROUP] * 8 for p in PARTS}
    groups["O"] = [Zmod(2)] + [ZERO_GROUP] * 7
    mats = {}
    for name in OP_NAMES:
        from crtk.crt_core import OP_SPECS
        src, tgt, shift = OP_SPECS[name]
        fam = []
        for n in range(8):
            dom = groups[src][n]
            cod = groups[tgt][(n + shift) % 8]
            fam.append(IntMatrix.zeros(cod.ngens, dom.ngens))
        mats[name] = fam
    return make_module(groups, mats)


class TestAcyclicity:
    def test_lone_real_part_not_acyclic(self):
        M = lone_O_module()
        assert verify_relations(M).ok()
        rep = is_acyclic(M, check_relations=False)
        assert not rep.ok()

    def test_acyclic_vanishing(self):
        # any module with trivial complex part is acyclic only if totally trivial
        M = lone_O_module()
        assert all(M.group("U", n).is_trivial() for n in range(8))
        assert not is_acyclic(M, check_relations=False).ok()
        assert is_acyclic(zero_module()).ok()


class TestSumsAndSuspension:
    def test_suspend_zero_and_full_period(self):
        assert suspend(R, 0) == R
        assert suspend(R, 8) == R

    def test_suspend_additivity(self):
        for a, b in [(1, 2), (3, 7), (5, 5)]:
            assert suspend(suspend(C, a), b) == suspend(C, a + b)

    def test_suspended_modules_stay_valid(self):
        for s in range(8):
            M = suspend(T, s)
            assert verify_relations(M).ok()
            assert is_acyclic(M, check_relations=False).ok()

    def test_direct_sum_with_zero(self):
        M = cuntz_module(3)
        assert direct_sum(M, zero_module()) == M

    def test_direct_sum_associative_up_to_iso(self):
        A, B, Cc = cuntz_module(2), cuntz_module(3), cuntz_module(4)
        left = direct_sum(direct_sum(A, B), Cc)
        right = direct_sum(A, direct_sum(B, Cc))
        for p in PARTS:
            for n in range(8):
                assert left.group(p, n) == right.group(p, n)
        assert crt_isomorphic(left, right) is not None

    def test_direct_sum_verifies(self):
        M = direct_sum(cuntz_module(2), cuntz_module(4))
        assert verify_relations(M).ok()
        assert is_acyclic(M, check_relations=False).ok()


class TestIsomorphism:
    def test_self_isomorphic_identity(self):
        M = cuntz_module(3)
        phi = crt_isomorphic(M, M)
        assert phi is not None
        assert morphism_commutes(M, M, phi)
        assert morphism_is_iso(phi)

    def test_permuted_copy_found(self):
        M = cuntz_module(3)
        rng = random.Random(5)
        M2 = conjugate(M, {slot: rng.choice(automorphisms(M.group(*slot))) for slot in SLOTS})
        assert verify_relations(M2).ok()
        assert crt_isomorphic(M2, M) is not None

    @given(st.sampled_from([(2, 2), (2, 4), (3, 6), (4, 4), (5, 5)]), st.data())
    @settings(max_examples=15, deadline=None)
    def test_conjugated_product_is_isomorphic(self, pair, data):
        M = expected_product(*pair)
        twist = {}
        for slot in SLOTS:
            auts = automorphisms(M.group(*slot))
            twist[slot] = auts[data.draw(st.integers(0, len(auts) - 1), label=str(slot))]
        N = conjugate(M, twist)
        assert verify_relations(N).ok()
        assert is_acyclic(N, check_relations=False).ok()
        assert crt_isomorphic(N, M) is not None

    def test_distinguished_products(self):
        # same complexification, different real structure
        A = expected_product(2, 2)
        B = expected_product(2, 4)
        assert all(A.group("U", n) == B.group("U", n) for n in range(8))
        assert crt_isomorphic(A, B) is None

    def test_refuses_infinite(self):
        with pytest.raises(ValueError):
            crt_isomorphic(R, R)


class TestNaturality:
    """morphism_commutes against its hom_compose oracle: the same value or the same exception type."""

    KEYS = [(p, n) for p in PARTS for n in range(8)]

    @staticmethod
    def outcome(fn, M, N, phi):
        try:
            return fn(M, N, phi)
        except Exception as exc:  # the type is the outcome
            return type(exc)

    def family(self, kind, M, N, key, xs):
        """(source, target, family) of one kind.

        identity: the identity of M; perturbed: that family plus an
        endomorphism drawn from xs at key; swapped: the zero family M -> N
        with N_key -> M_key at key; domain: the zero family with a foreign
        domain at key.
        """
        if kind == "identity":
            return M, M, {k: identity_hom(M.group(*k)) for k in self.KEYS}
        if kind == "perturbed":
            phi = {k: identity_hom(M.group(*k)) for k in self.KEYS}
            G = M.group(*key)
            m = IntMatrix.from_rows([xs[i * G.ngens:(i + 1) * G.ngens] for i in range(G.ngens)], cols=G.ngens)
            phi[key] = phi[key] + GroupHom(G, G, well_defined_matrix(m, G, G))
            return M, M, phi
        phi = {k: GroupHom(M.group(*k), N.group(*k), IntMatrix.zeros(N.group(*k).ngens, M.group(*k).ngens))
               for k in self.KEYS}
        G = N.group(*key) if kind == "swapped" else FinAbGroup((12,), 1)
        H = M.group(*key) if kind == "swapped" else N.group(*key)
        phi[key] = GroupHom(G, H, IntMatrix.zeros(H.ngens, G.ngens))
        return M, N, phi

    @given(st.sampled_from(catalog_names()[:9]), st.sampled_from(catalog_names()[:9]),
           st.sampled_from(["identity", "perturbed", "swapped", "domain"]), st.sampled_from(KEYS),
           st.lists(st.integers(-6, 6), min_size=16, max_size=16))
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_the_oracle(self, a, b, kind, key, xs):
        M, N, phi = self.family(kind, catalog_entry(a).module, catalog_entry(b).module, key, xs)
        got = self.outcome(morphism_commutes, M, N, phi)
        assert got == self.outcome(morphism_commutes_oracle, M, N, phi)
        if kind == "identity":
            assert got is True

    def test_false_verdicts_and_the_endpoint_error(self):
        M, N = cuntz_module(3), cuntz_module(4)
        for kind, want in {"perturbed": False, "swapped": CompositionError, "domain": False}.items():
            M_, N_, phi = self.family(kind, M, N, ("O", 0), [1] * 16)
            assert self.outcome(morphism_commutes, M_, N_, phi) == want, kind
            assert self.outcome(morphism_commutes_oracle, M_, N_, phi) == want, kind


def _zeroed(M, name, n):
    """M with the single operation instance name_n replaced by the zero map."""
    groups = {p: [M.group(p, d) for d in range(8)] for p in PARTS}
    mats = {o: [M.op(o, d).matrix for d in range(8)] for o in OP_NAMES}
    mats[name][n] = IntMatrix.zeros(mats[name][n].rows, mats[name][n].cols)
    return make_module(groups, mats)


def _twisted(M, seed):
    rng = random.Random(seed)
    return conjugate(M, {slot: rng.choice(automorphisms(M.group(*slot))) for slot in SLOTS})


class TestSlotEngine:
    """crt_isomorphic's built candidates against the enumerating oracle in tests/oracles.py."""

    @staticmethod
    def outcome(search, M, N, budget=2_000_000):
        try:
            return search(M, N, budget=budget)
        except BudgetExceeded:
            return "budget exceeded"

    def agree(self, M, N):
        """Both searches agree on existence; a map found is a CRT-isomorphism M -> N."""
        got = crt_isomorphic(M, N)
        assert (got is None) == (crt_isomorphic_oracle(M, N) is None)
        if got is not None:
            assert morphism_commutes(M, N, got)
            assert morphism_is_iso(got)
        return got

    def test_slot_ops_pins_each_instance_at_its_later_slot(self):
        listed = [inst for slot in SLOTS for inst in SLOT_OPS[slot]]
        assert sorted(listed) == sorted((name, n) for name in OP_NAMES for n in range(8))
        assert len(listed) == 64
        for slot in SLOTS:
            for name, n in SLOT_OPS[slot]:
                src, tgt, shift = OP_SPECS[name]
                ends = (slot_of(src, n), slot_of(tgt, n + shift))
                assert slot == max(ends, key=SLOTS.index)
            assert SLOT_OPS[slot] == sorted(SLOT_OPS[slot], key=lambda i: (OP_NAMES.index(i[0]), i[1]))

    def test_self_and_conjugated(self):
        M = cuntz_module(3)
        assert self.agree(M, M) is not None
        assert self.agree(_twisted(M, 5), M) is not None
        for seed, pair in enumerate([(2, 2), (2, 4), (3, 6), (4, 4), (5, 5)]):
            P = expected_product(*pair)
            assert self.agree(_twisted(P, seed), P) is not None

    @pytest.mark.parametrize("k,l", [(2, 4), (3, 6), (4, 6)])
    def test_swapped_pair_middles(self, k, l):
        a = kunneth_pipeline(f"O{k + 1}", f"O{l + 1}").solutions[0].middle
        b = kunneth_pipeline(f"O{l + 1}", f"O{k + 1}").solutions[0].middle
        assert self.agree(a, b) is not None

    @staticmethod
    def split_pair(k):
        """The solver's middle for (k, k) and the split model it is compared with."""
        rep = kunneth_pipeline(f"O{k + 1}", f"O{k + 1}")
        return rep.solutions[0].middle, split_model(KunnethProblem(rep.tensor, rep.tor))

    @pytest.mark.parametrize("k", [13, 15])
    def test_odd_diagonal_split_check(self, k):
        assert self.agree(*self.split_pair(k)) is not None

    def test_split_check_needs_one_node_per_slot(self):
        # crt_isomorphic_oracle, which enumerates each slot's automorphisms, tries 10^3 to 10^4 here.
        M, S = self.split_pair(13)
        assert crt_isomorphic(M, S, budget=100) is not None
        assert self.outcome(crt_isomorphic, M, S, budget=len(SLOTS)) is not None
        assert self.outcome(crt_isomorphic, M, S, budget=len(SLOTS) - 1) == "budget exceeded"

    @pytest.mark.parametrize("a,b", [((2, 2), (2, 4)), ((6, 6), (6, 12))])
    def test_distinguished_products(self, a, b):
        assert self.agree(expected_product(*a), expected_product(*b)) is None

    def test_exhausted_search_and_budget(self):
        # Same groups as the product, so the search runs until every branch is pruned.
        M = expected_product(4, 4)
        Z = _zeroed(M, "c", 1)
        assert self.agree(Z, M) is None
        # 158 built candidates (crt_isomorphic_oracle tries 1190 automorphisms).
        assert self.outcome(crt_isomorphic, Z, M, budget=158) is None
        assert self.outcome(crt_isomorphic, Z, M, budget=157) == "budget exceeded"
        assert self.outcome(crt_isomorphic, _twisted(M, 3), M, budget=3) == "budget exceeded"


class TestIsomorphismCache:
    """crt_isomorphic searches once per (M, N, budget); every call gets its own map."""

    @given(st.sampled_from([(2, 2), (2, 4), (3, 6), (4, 4)]), st.integers(0, 3),
           st.sampled_from([3, 40, 2_000_000]), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_cached_equals_uncached(self, pair, seed, budget, other):
        clear_caches()
        M = expected_product(*pair)
        N = expected_product(2, 2 if pair == (2, 4) else 4) if other else _twisted(M, seed)
        expected = TestSlotEngine.outcome(crt_core._isomorphism.__wrapped__, N, M, budget)
        for _ in range(2):  # cold, then warm
            assert TestSlotEngine.outcome(crt_isomorphic, N, M, budget) == expected

    def test_mutating_a_result_leaves_the_next_unchanged(self):
        M = expected_product(4, 4)
        N = _twisted(M, 3)
        phi = crt_isomorphic(N, M)
        kept = dict(phi)
        phi.clear()
        again = crt_isomorphic(N, M)
        assert again == kept and again is not phi
        assert crt_core._isomorphism.cache_info().hits == 1

    def test_budget_exceeded_is_never_stored(self):
        M = expected_product(4, 4)
        N = _twisted(M, 3)
        assert crt_isomorphic(N, M) is not None
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                crt_isomorphic(N, M, budget=3)
        assert crt_core._isomorphism.cache_info().currsize == 1


class TestRigidity:
    def test_scalar_endomorphisms(self):
        # a morphism of acyclic modules with invertible complex part is
        # invertible in the other two parts as well
        for k in (2, 3, 4, 6):
            M = cuntz_module(k)
            for a in range(1, 13):
                phi = {(p, n): hom_scale(identity_hom(M.group(p, n)), a)
                       for p in PARTS for n in range(8)}
                assert morphism_commutes(M, M, phi)
                u_iso = all(
                    hom_kernel(phi[("U", n)])[0].is_trivial()
                    and hom_cokernel(phi[("U", n)])[0].is_trivial()
                    for n in range(8))
                if u_iso:
                    assert morphism_is_iso(phi)


class TestJson:
    @pytest.mark.parametrize("M", [R, C, T, cuntz_module(4), zero_module()],
                             ids=["R", "C", "T", "O5", "zero"])
    def test_round_trip(self, M):
        assert module_from_json(module_to_json(M)) == M

    def test_eta_O_is_tau_eps(self):
        for n in range(8):
            assert eta_O(R, n) == hom_compose(R.op("tau", n), R.op("eps", n))
