"""Structure, relations, acyclicity, sums, suspension, isomorphism search."""

import importlib.util
import itertools
import random
import re
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crtk
from crtk import _tables, crt_core, free_crt, tensor
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
    backtrack,
    crt_isomorphic,
    direct_sum,
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
from oracles import (CHECK_ORACLE, automorphisms, checked_holds_oracle, checked_side_value_oracle,
                     crt_isomorphic_oracle, eta_O, morphism_commutes_oracle, morphism_is_iso, slot_ops_oracle,
                     slot_search_oracle, well_defined_matrix)

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
        assert is_acyclic(M).ok()
        assert is_free(M)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_cuntz_modules(self, k):
        M = cuntz_module(k)
        assert verify_relations(M).ok()
        assert is_acyclic(M).ok()
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
        assert is_acyclic(lone_O_module()).failures == [
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
        for check in (verify_relations, is_acyclic):
            check(Z).failures.append(("tampered", 0))
            assert check(Z).failures == []

    def test_zero_module_checked_once_across_pairs(self, runs):
        # gcd 1: tensor and Tor of both pairs are the zero module (five suite runs uncached).
        kunneth_pipeline("O3", "O4")
        kunneth_pipeline("O3", "O6")
        assert [suite for M, suite in runs if M.is_zero()] == ["relations"]


class TestMakeModuleByValue:
    """make_module assembles and checks each distinct input once per process."""

    @staticmethod
    def inputs(M):
        groups = {p: [M.group(p, n) for n in range(8)] for p in PARTS}
        mats = {name: [M.op(name, n).matrix for n in range(8)] for name in OP_NAMES}
        return groups, mats

    def test_equal_inputs_give_the_same_object(self):
        groups, mats = self.inputs(cuntz_module(4))
        M = make_module(groups, mats)
        again = make_module({p: list(gs) for p, gs in groups.items()},
                            {name: list(ms) for name, ms in mats.items()})
        assert again is M
        assert zero_module() is zero_module()
        assert zero_module() is direct_sum()

    def test_ill_defined_op_raises_on_every_call(self):
        groups, mats = self.inputs(R)
        mats["c"][2] = IntMatrix.from_rows([[1]])  # c_2 : Z_2 -> Z cannot send the generator to 1
        stored = crt_core._assemble.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="torsion into free"):
                make_module(groups, mats)
        assert crt_core._assemble.cache_info().currsize == stored

    def test_a_cold_call_builds_a_new_object(self):
        groups, mats = self.inputs(cuntz_module(4))
        M = make_module(groups, mats)
        clear_caches()
        fresh = make_module(groups, mats)
        assert fresh == M and fresh is not M
        assert make_module(groups, mats) is fresh


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


class _SwappedView:
    """M seen through op and group, with the operation `name` taken from `other` in every degree."""

    def __init__(self, M, other, name):
        self.M, self.other, self.name = M, other, name

    def op(self, name, n):
        return (self.other if name == self.name else self.M).op(name, n)

    def group(self, part, n):
        return self.M.group(part, n)


def _movable_cells(h):
    """(row, col, step, order) of each entry of h that a well-defined change moves; order 0: unbounded."""
    cells = []
    for i, e in enumerate(h.codomain.invariants):
        for j, d in enumerate(h.domain.invariants):
            order = (0 if d == 0 else 1) if e == 0 else gcd(d, e) if d else e
            if order != 1:
                cells.append((i, j, e // order if e else 1, order))
    return cells


def _verdict(fn, M, n):
    """fn(M, n), or the type of the exception it raised."""
    try:
        return fn(M, n)
    except Exception as exc:  # the type is the outcome
        return type(exc)


class TestCheckWords:
    """Each check decided from its words agrees with its GroupHom expression (CHECK_ORACLE)."""

    SOURCES = catalog_names() + [(k, l) for k in range(2, 13) for l in range(k, 13)]

    def test_thirty_checks_with_reads_from_their_words(self):
        assert [chk.name for chk in CHECKS] == list(CHECK_ORACLE)
        M = expected_product(4, 4)
        for chk in CHECKS:
            assert chk.reads and all(name in OP_NAMES for name, _ in chk.reads)
            for n in range(8):
                assert chk.holds(M, n) is CHECK_ORACLE[chk.name](M, n) is True, (chk.name, n)

    def test_verdicts_agree_on_tables_and_changed_copies(self):
        """R, C, T, zero, O2-O13, the printed products, and copies with one entry moved."""
        seen = {False: set(), True: set()}

        @given(st.data())
        @settings(max_examples=250, deadline=None)
        def agree(data):
            source = data.draw(st.sampled_from(self.SOURCES))
            M = catalog_entry(source).module if isinstance(source, str) else expected_product(*source)
            cells = [(name, n, cell) for name in OP_NAMES for n in range(8)
                     for cell in _movable_cells(M.op(name, n))]
            if cells and data.draw(st.booleans()):
                name, n, (i, j, step, order) = data.draw(st.sampled_from(cells))
                shift = step * data.draw(st.integers(1, order - 1 if order else 3))
                groups = {p: [M.group(p, d) for d in range(8)] for p in PARTS}
                mats = {op: [M.op(op, d).matrix for d in range(8)] for op in OP_NAMES}
                rows = [list(row) for row in mats[name][n].entries]
                rows[i][j] += shift
                mats[name][n] = IntMatrix.from_rows(rows, cols=mats[name][n].cols)
                M = make_module(groups, mats)
            for chk in CHECKS:
                for n in range(8):
                    got = chk.holds(M, n)
                    assert got is CHECK_ORACLE[chk.name](M, n), (source, chk.name, n)
                    seen[chk.node].add(got)

        agree()
        assert seen == {False: {True, False}, True: {True, False}}

    def test_mismatched_endpoints_raise_on_both_paths(self):
        """O5 with one operation taken from O3: composites and sums across the two raise CompositionError."""
        raised = set()
        for name in OP_NAMES:
            view = _SwappedView(cuntz_module(4), cuntz_module(2), name)
            for chk in CHECKS:
                for n in range(8):
                    got = _verdict(chk.holds, view, n)
                    assert got == _verdict(CHECK_ORACLE[chk.name], view, n), (name, chk.name, n)
                    if got is CompositionError:
                        raised.add((name, chk.name))
        # A composite (r after c), a sum (1 + psiU) and a node's composite (tau after eps) among them.
        assert {("r", "rc=2"), ("psiU", "cr=1+psiU"), ("eps", "seq2@O")} <= raised


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
        rep = is_acyclic(M)
        assert not rep.ok()

    def test_acyclic_vanishing(self):
        # any module with trivial complex part is acyclic only if totally trivial
        M = lone_O_module()
        assert all(M.group("U", n).is_trivial() for n in range(8))
        assert not is_acyclic(M).ok()
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
            assert is_acyclic(M).ok()

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
        assert is_acyclic(M).ok()


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
        assert is_acyclic(N).ok()
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
    """crt_isomorphic against the enumerating oracle and the slot-by-slot search in tests/oracles.py."""

    @staticmethod
    def outcome(search, M, N, budget=2_000_000):
        try:
            return search(M, N, budget=budget)
        except BudgetExceeded:
            return "budget exceeded"

    def agree(self, M, N):
        """The three searches agree on existence; a map found is a CRT-isomorphism M -> N."""
        got = crt_isomorphic(M, N)
        assert (got is None) == (crt_isomorphic_oracle(M, N) is None) == (slot_search_oracle(M, N) is None)
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

    def test_slot_ops_agree_with_oracle(self):
        """The placement rule gives the table as first written, list order included."""
        assert SLOT_OPS == slot_ops_oracle()
        assert list(SLOT_OPS) == SLOTS

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
        """A _twisted copy of the solver's middle for (k, k), and the split model it is compared with.

        The middle itself equals the split model, which crt_isomorphic
        answers without a search; the copy differs from both, so backtrack runs.
        """
        rep = kunneth_pipeline(f"O{k + 1}", f"O{k + 1}")
        M, S = rep.solutions[0].middle, split_model(KunnethProblem(rep.tensor, rep.tor))
        twisted = _twisted(M, k)
        assert M == S and twisted != M
        return twisted, S

    @pytest.mark.parametrize("k", [13, 15])
    def test_odd_diagonal_split_check(self, k):
        M, S = self.split_pair(k)
        assert self.agree(M, S) is not None
        assert self.outcome(crt_isomorphic, M, S, budget=len(SLOTS) + 2) is not None
        assert self.outcome(crt_isomorphic, M, S, budget=len(SLOTS) + 1) == "budget exceeded"

    def test_split_check_needs_one_node_per_slot(self):
        # One node per slot, and one more at U_0 and at U_1, where the zero map is tried first.
        # crt_isomorphic_oracle, which enumerates each slot's automorphisms, tries 10^3 to 10^4 here.
        M, S = self.split_pair(13)
        assert crt_isomorphic(M, S, budget=100) is not None
        assert self.outcome(crt_isomorphic, M, S, budget=len(SLOTS) + 2) is not None
        assert self.outcome(crt_isomorphic, M, S, budget=len(SLOTS) + 1) == "budget exceeded"

    @pytest.mark.parametrize("a,b", [((2, 2), (2, 4)), ((6, 6), (6, 12))])
    def test_distinguished_products(self, a, b):
        assert self.agree(expected_product(*a), expected_product(*b)) is None

    def test_exhausted_search_and_budget(self):
        # Same groups as the product, so the search runs until every branch is pruned.
        M = expected_product(4, 4)
        Z = _zeroed(M, "c", 1)
        assert self.agree(Z, M) is None
        # 6 coefficient choices; the slot-by-slot search builds 158 candidates, and
        # crt_isomorphic_oracle tries 1190 automorphisms.
        assert self.outcome(crt_isomorphic, Z, M, budget=6) is None
        assert self.outcome(crt_isomorphic, Z, M, budget=5) == "budget exceeded"
        assert self.outcome(slot_search_oracle, Z, M, budget=158) is None
        assert self.outcome(slot_search_oracle, Z, M, budget=157) == "budget exceeded"
        assert self.outcome(crt_isomorphic, _twisted(M, 3), M, budget=3) == "budget exceeded"

    def test_budget_message_names_slot_and_nodes(self):
        M = expected_product(4, 4)
        # The first choice at U_0 is the zero map, which is not invertible: the second is node 2.
        with pytest.raises(BudgetExceeded, match=r"^isomorphism search budget exceeded at slot U_0 after 2 nodes$"):
            crt_isomorphic(_zeroed(M, "c", 1), M, budget=1)
        with pytest.raises(BudgetExceeded, match=r"^isomorphism search budget exceeded at slot T_3 after 158 nodes$"):
            slot_search_oracle(_zeroed(M, "c", 1), M, budget=157)
        # Equal modules are charged one node per slot, in SLOTS order.
        with pytest.raises(BudgetExceeded, match=r"^isomorphism search budget exceeded at slot O_7 after 14 nodes$"):
            crt_isomorphic(M, M, budget=len(SLOTS) - 1)


class TestKernelSearch:
    """crt_isomorphic against the slot-by-slot search it replaced, on the grid k, l in 2..12."""

    @staticmethod
    def agree(M, N):
        got = crt_isomorphic(M, N)
        assert (got is None) == (slot_search_oracle(M, N) is None)
        if got is not None:
            assert morphism_commutes(M, N, got) and morphism_is_iso(got)
        return got is not None

    @pytest.fixture(scope="class")
    def grid(self):
        return [kunneth_pipeline(f"O{k + 1}", f"O{l + 1}") for k in range(2, 13) for l in range(2, 13)]

    def test_middles_against_table_and_split_model(self, grid):
        for rep in grid:
            M = rep.solutions[0].middle
            assert self.agree(M, rep.expected)
            assert self.agree(M, split_model(KunnethProblem(rep.tensor, rep.tor))) == rep.solutions[0].split

    def test_middles_with_equal_groups(self, grid):
        groups = {}
        for rep in grid:
            M = rep.solutions[0].middle
            groups.setdefault(tuple(M.group(*slot) for slot in SLOTS), set()).add(M)
        pairs = [pair for same in groups.values() for pair in itertools.product(same, repeat=2)]
        assert len(pairs) == 81 and len(groups) == 14  # 27 of them compare a middle with itself
        # On the grid, middles with equal groups are CRT-isomorphic.
        assert all(self.agree(M, N) for M, N in pairs)


class TestReduceOnlyEvaluator:
    """_side_value and Check.holds, which only reduce, against the checked evaluator in tests/oracles.py.

    The corpus: the tensors, Tors, middles and split models of the grid
    k, l in 2..12, the catalog entries, and a _twisted copy of each finite
    one; copies with c_1 zeroed add failing verdicts.
    """

    @pytest.fixture(scope="class")
    def corpus(self):
        modules = [catalog_entry(name).module for name in catalog_names()]
        for k in range(2, 13):
            for l in range(2, 13):
                rep = kunneth_pipeline(f"O{k + 1}", f"O{l + 1}")
                modules += [rep.tensor, rep.tor, rep.solutions[0].middle,
                            split_model(KunnethProblem(rep.tensor, rep.tor))]
        modules = list(dict.fromkeys(modules))
        finite = [M for M in modules if M.all_finite()]
        return modules + [_twisted(M, seed) for seed, M in enumerate(finite)] + [_zeroed(M, "c", 1) for M in finite]

    def test_triples_and_verdicts_agree(self, corpus):
        verdicts = set()
        for M in corpus:
            for chk in CHECKS:
                for n in range(8):
                    for side in chk.sides:
                        assert crt_core._side_value(M, n, side) == checked_side_value_oracle(M, n, side), (chk.name, n)
                    verdict = chk.holds(M, n)
                    assert verdict == checked_holds_oracle(chk, M, n), (chk.name, n)
                    verdicts.add((chk.node, verdict))
        assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


class TestBacktrack:
    """crt_core.backtrack's contract on hand-made keys and options."""

    KEYS = ["a", "b", "c"]
    OPTIONS = {"a": [1, 2], "b": [10, 20, 30], "c": [100, 200]}

    def search(self, events=None, fits=lambda key, choice: True, tick=lambda key: None, choice=None):
        """backtrack over KEYS, logging each option offered, tick and fits call in events."""
        events = [] if events is None else events
        choice = {} if choice is None else choice

        def options(key):
            for opt in self.OPTIONS[key]:
                events.append(("option", key, opt))
                yield opt

        def ticked(key):
            events.append(("tick", key))
            tick(key)

        def fitting(key):
            events.append(("fits", key, choice[key]))
            return fits(key, choice)

        return backtrack(self.KEYS, options, fitting, choice, ticked)

    @staticmethod
    def no_twenty(key, choice):
        return choice[key] != 20

    def test_tick_runs_once_per_candidate_rejected_ones_included(self):
        events = []
        list(self.search(events, fits=self.no_twenty))
        offered = [e for e in events if e[0] == "option"]
        # a: 2; per a, b: 3, and c only under b = 10 and b = 30: 2 + 2 * (3 + 2 * 2).
        assert len(offered) == len([e for e in events if e[0] == "tick"]) == 16
        for i, e in enumerate(events):
            if e[0] == "option":  # tick is passed the key the candidate is tried at
                assert events[i + 1:i + 3] == [("tick", e[1]), ("fits", e[1], e[2])]

    def test_yields_the_same_dict_once_per_full_assignment_in_option_order(self):
        choice = {}
        got = [(full is choice, dict(full)) for full in self.search(fits=self.no_twenty, choice=choice)]
        want = [{"a": a, "b": b, "c": c} for a in (1, 2) for b in (10, 30) for c in (100, 200)]
        assert got == [(True, w) for w in want]

    def test_choice_is_empty_after_exhaustion(self):
        choice = {}
        assert len(list(self.search(choice=choice))) == 12
        assert choice == {}
        self.OPTIONS = {**self.OPTIONS, "c": []}  # no full assignment at all
        assert list(self.search(choice=choice)) == [] and choice == {}

    def test_errors_from_tick_and_fits_propagate(self):
        ticks = []

        def tick(key):
            ticks.append(key)
            if len(ticks) == 5:
                raise BudgetExceeded(f"out of nodes at {key}")

        with pytest.raises(BudgetExceeded, match="out of nodes at b"):
            list(self.search(tick=tick))
        assert ticks == ["a", "b", "c", "c", "b"]

        def fits(key, choice):
            if choice == {"a": 1, "b": 20}:
                raise RuntimeError("check failed to run")
            return True

        found = self.search(fits=fits)
        assert next(found) == {"a": 1, "b": 10, "c": 100}
        with pytest.raises(RuntimeError, match="check failed to run"):
            list(found)


class TestEqualModules:
    """Equal modules skip the search: the identity family, charged one node per slot."""

    @pytest.mark.parametrize("M", [cuntz_module(4), expected_product(4, 4), expected_product(5, 5),
                                   zero_module()], ids=["O5", "(4,4)", "(5,5)", "zero"])
    def test_identity_family(self, M):
        crt_core._assemble.cache_clear()  # the round trip then builds a new, equal module
        N = module_from_json(module_to_json(M))
        assert N == M and N is not M
        for other in (M, N):
            phi = crt_isomorphic(M, other)
            assert phi == {(p, n): identity_hom(M.group(p, n)) for p in PARTS for n in range(8)}
            assert morphism_commutes(M, other, phi) and morphism_is_iso(phi)

    def test_budget_of_one_node_per_slot(self):
        M = expected_product(4, 4)
        assert TestSlotEngine.outcome(crt_isomorphic, M, M, budget=len(SLOTS)) is not None
        assert TestSlotEngine.outcome(crt_isomorphic, M, M, budget=len(SLOTS) - 1) == "budget exceeded"

    def test_infinite_parts_still_refused(self):
        with pytest.raises(ValueError, match="finite parts"):
            crt_isomorphic(R, R, budget=1)

    def test_trivial_slot_candidate_is_the_identity(self):
        """A trivial slot has one coefficient choice, the empty map, which is invertible."""
        M = expected_product(5, 10)
        trivial = [slot for slot in SLOTS if M.group(*slot).is_trivial()]
        assert trivial
        for seed in range(3):
            phi = crt_isomorphic(_twisted(M, seed), M)
            for slot in trivial:
                assert phi[slot] == automorphisms(M.group(*slot))[0] == identity_hom(ZERO_GROUP)


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
            assert crt_core._side_hom(R, n, crt_core._parse_side("tau.eps")) == eta_O(R, n)


class TestWordTypes:
    """Every word is typed where it is parsed: factors chain by part and degree
    (modulo the part's period), the terms of a side share endpoints, a relation's
    sides agree and a node's f ends where its g starts."""

    def test_zeta_c_fails_at_parse(self):
        # c lands in the complex part, which zeta does not read from, although on R
        # at degree 0 both groups are Z.
        assert R.group("U", 0) == R.group("T", 0)
        with pytest.raises(CompositionError, match="does not chain"):
            crt_core._parse_side("zeta.c")

    def test_unknown_factor_fails_at_parse(self):
        with pytest.raises(ValueError, match="unknown factor 'xi'"):
            crt_core._parse_side("eps.xi")

    # One mistyped word from the vocabulary of each table, through that table's builder.
    @pytest.mark.parametrize("build, message", [
        # CHECKS: "xi.tau=2tau.betaT" with the Bott shift dropped from the right side.
        (lambda: crt_core._check("xi.tau=2tau.betaT", "r+5.c+1.tau", "2tau"), "different endpoints"),
        # CHECKS: seq2@O with c read a degree too low.
        (lambda: crt_core._check("seq2@O", "tau.eps", "c", 1, node=True), "starts at"),
        # _tables.BASIS_WORDS, as free_crt._BASIS_SIDES parses it: R's "gamma+2.zeta.eps" off by one.
        (lambda: crt_core._parse_side("gamma+1.zeta.eps"), "does not chain"),
        # tensor._SLOTS: T's slot "ctb~" with c read at tau's source degree.
        (lambda: tensor._slot("T", "U", "ctb~", "U", -1, "c.tau", "U", "U"), "does not chain"),
        # tensor._BLOCKS: T's eps block with the second term read two degrees high.
        (lambda: tensor._block("T", "eps", 0, 0, "s", "eps.tau-1 + gamma+1.zeta+1"), "different endpoints"),
        # tensor._EXPANSION: R's "tau+1.eps+1.tau.eps" with its first shift dropped.
        (lambda: tensor._term(("R", "O", 2, 0), 0, 1, "tau.eps+1.tau.eps"), "does not chain"),
    ], ids=["relation", "node", "basis", "slot", "block", "expansion"])
    def test_a_mistyped_table_word_fails_at_parse(self, build, message):
        with pytest.raises(CompositionError, match=message):
            build()

    @staticmethod
    def import_anew(monkeypatch, name):
        """Run the code of crtk.<name> again as a new module, crtk.<name>_anew: what importing it runs."""
        spec = importlib.util.spec_from_file_location(f"crtk.{name}_anew", Path(crtk.__file__).with_name(f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up there
        spec.loader.exec_module(module)

    # Per table, a word that chains but sits in an entry whose endpoints it does not have.
    @pytest.mark.parametrize("module, table, key, word, message", [
        # R's basis vector at U_0 is c(b), from O into U; eps runs into T.
        ("free_crt", lambda: _tables.BASIS_WORDS["R"]["U"], 0, ["eps"],
         "basis word of R at U+0: 'eps' runs from ('O', 0) to ('T', 0), not from ('O', 0) to ('U', 0)"),
        # R's slot cb~ with the pre-word of T's slot zb~: zeta starts in T, not at R's generator in O.
        ("tensor", lambda: _tables.SLOT_WORDS["R"], "U", [("cb~", "U", 0, "zeta", "U", "U")],
         "slot cb~ of R, part U: 'zeta' runs from ('T', 0) to ('U', 0), not from ('O', 0) to ('U', 0)"),
        # C's gamma block from slot psiU.b~ with T's zeta block, which starts in T, not in U.
        ("tensor", lambda: _tables.BLOCK_WORDS["C"]["gamma"], (0, 1), (1, "zeta"),
         "block (0, 1) of gamma on C: 'zeta' runs from ('T', 0) to ('U', 0), not from ('U', 0) to ('U', 0)"),
        # C's T_1 expansion term moved from slot gamma(b~) to slot eps.r(b~), whose group is a degree lower.
        ("tensor", lambda: _tables.EXPANSION_WORDS, ("C", "T", 1, 0), [(1, 1, "zeta")],
         "expansion ('C', 'T', 1, 0): 'zeta' runs from ('T', 0) to ('U', 0), not from ('T', 0) to ('U', 1)"),
    ], ids=["basis", "slot", "block", "expansion"])
    def test_a_word_in_the_wrong_entry_fails_at_import(self, monkeypatch, module, table, key, word, message):
        self.import_anew(monkeypatch, module)  # the tables as they stand import
        monkeypatch.setitem(table(), key, word)
        with pytest.raises(CompositionError, match=f"^{re.escape(message)}$"):
            self.import_anew(monkeypatch, module)

    def test_every_table_word_is_typed(self):
        sides = [side for chk in CHECKS for side in chk.sides]
        sides += [side for words in free_crt._BASIS_SIDES.values() for side in words]
        sides += [side for parts in tensor._SLOTS.values() for slots in parts.values()
                  for slot in slots for side in slot[3:] if side is not None]
        sides += [word for ops in tensor._BLOCKS.values() for blocks in ops.values()
                  for _, word in blocks.values()]
        sides += [word for terms in tensor._EXPANSION.values() for _, _, word in terms]
        # 209 terms, and only the zero right sides of zeta.gamma=0 and tau.betaT.eps=0 have no endpoints.
        assert sum(len(side) for side in sides) == 209
        assert [crt_core._side_ends(side, "") for side in sides].count(None) == 2
