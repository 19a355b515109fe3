"""The extension solver, split detection, and the pipeline."""

import hashlib
import itertools
import json
import logging
import re
import tracemalloc
from collections import Counter
from math import gcd, prod

import pytest

from crtk import kunneth
from crtk.catalog import cuntz_module, cuntz_resolution, expected_product
from crtk.crt_core import (
    CHECKS,
    Check,
    OP_NAMES,
    OP_SPECS,
    PART_PERIOD,
    PARTS,
    SLOT_OPS,
    SLOTS,
    BudgetExceeded,
    _factor_ends,
    crt_isomorphic,
    is_acyclic,
    make_module,
    module_to_json,
    slot_of,
    verify_relations,
)
from crtk.cli import main
from crtk.free_crt import monogenic
from crtk.kunneth import (
    _KEYS,
    _OPS,
    _SCHEDULE,
    _SOLVED,
    KunnethProblem,
    MultipleMiddles,
    _Assigned,
    _extension_options,
    _gauge_table,
    _Search,
    classical_complex_kunneth,
    kunneth_pipeline,
    solve_middle,
    split_check,
    split_model,
)
from crtk.tensor import tensor_and_tor
from crtk.zlinalg import (
    FinAbGroup,
    GroupHom,
    Zmod,
    hom_cokernel,
    hom_compose,
    hom_coords,
    hom_kernel,
    identity_hom,
    is_exact_at,
)

from cold_path import clear_caches
from extension_oracle import extension_options, same_extension
from kunneth_oracle import (CheckEveryCopy, EnumeratedGauge, TwoStageSearch, _slot_gauge, conjugate,
                            full_boxes, gauge_table_oracle, gauge_table_rows_oracle, instance_candidates_oracle,
                            solve_middle_oracle, solved_candidates_oracle)
from oracles import hom_group_elements, schedule_oracle, search_order_oracle

# _derive_psiT defines psiT_n as eps_n.r_n.zeta_n - 1, so this check cannot fail in the
# search and is not scheduled there; it stays in CHECKS and so in the relation suite.
TAUTOLOGY = "eps.r.zeta=1+psiT"


def make_problem(k, l):
    tp = tensor_and_tor(cuntz_resolution(k), cuntz_module(l))
    return KunnethProblem(tp.tensor, tp.tor)


def solve(k, l, **kw):
    problem = make_problem(k, l)
    return problem, solve_middle(problem, **kw)


def check_solution_contract(problem, sol):
    """Exactness, commutation of alpha and beta, and order balance."""
    for p in PARTS:
        for n in range(8):
            a, b = sol.alpha[(p, n)], sol.beta[(p, n)]
            assert hom_kernel(a)[0].is_trivial()
            assert hom_cokernel(b)[0].is_trivial()
            assert is_exact_at(a, b)
            assert sol.middle.group(p, n).order() == \
                problem.tensor.group(p, n).order() * problem.tor.group(p, n - 1).order()
    for name, (src, tgt, shift) in OP_SPECS.items():
        for n in range(8):
            m = (n + shift) % 8
            a_s, a_t = sol.alpha[(src, n)], sol.alpha[(tgt, m)]
            b_s, b_t = sol.beta[(src, n)], sol.beta[(tgt, m)]
            opK = sol.middle.op(name, n)
            assert hom_compose(opK, a_s) == hom_compose(a_t, problem.tensor.op(name, n))
            assert hom_compose(b_t, opK) == hom_compose(problem.tor.op(name, n - 1), b_s)


def _distinct_slots(pairs):
    slots = set()
    for k, l in pairs:
        tp = tensor_and_tor(cuntz_resolution(k), cuntz_module(l))
        problem = KunnethProblem(tp.tensor, tp.tor)
        slots.update((problem.sub(*slot), problem.quot(*slot)) for slot in SLOTS)
    return sorted(slots, key=lambda sq: (sq[0].torsion, sq[1].torsion))


class TestExtensionOptions:
    @pytest.mark.parametrize("sub, quot", _distinct_slots(
        [(2, 2), (2, 4), (4, 4), (3, 6), (6, 6), (4, 8), (5, 5)]), ids=str)
    def test_matches_brute_force(self, sub, quot):
        got = _extension_options(sub, quot)
        want = extension_options(sub, quot)
        assert len(got) == prod(gcd(q, s) for s in sub.torsion for q in quot.torsion)
        for option in got:
            K, alpha, beta = option
            assert hom_kernel(alpha)[0].is_trivial()
            assert hom_cokernel(beta)[0].is_trivial()
            assert is_exact_at(alpha, beta)
            assert sum(same_extension(option, other) for other in want) == 1
        for other in want:
            assert sum(same_extension(option, other) for option in got) == 1


class TestDedupOnArrival:
    @pytest.mark.parametrize("k, l", [(2, 2), (2, 4), (2, 6), (2, 10), (3, 3), (3, 6), (4, 6),
                                      (5, 5), (6, 10)])
    def test_agrees_with_check_every_copy(self, k, l):
        problem, kept = solve(k, l)
        raw, want = solve_middle_oracle(problem)
        assert [module_to_json(s.middle) for s in kept] == \
            [module_to_json(s.middle) for s in want]
        assert [s.split for s in kept] == [s.split for s in want]
        for copy in raw:
            assert verify_relations(copy.middle).ok()
            assert is_acyclic(copy.middle).ok()
            assert any(crt_isomorphic(copy.middle, s.middle) is not None for s in kept)

    def test_runs_no_final_suite(self, monkeypatch):
        """The search prunes with every check, so each raw middle already passes the suite."""
        import crtk.crt_core as crt_core
        import crtk.kunneth as kunneth
        for k, l in [(2, 2), (2, 6), (6, 10)]:
            problem = make_problem(k, l)
            suites, middles = Counter(), []

            def recorded(*args, _fn=kunneth.make_module):
                middles.append(_fn(*args))
                return middles[-1]
            with monkeypatch.context() as m:
                m.setattr(crt_core, "_report", lambda *args: suites.update(["suite"]))
                m.setattr(kunneth, "make_module", recorded)
                kept = solve_middle(problem)
            assert suites == {}, (k, l)
            assert len(middles) == len(kept) == 1, (k, l)
            for middle in middles:
                assert verify_relations(middle).ok(), (k, l)
                assert is_acyclic(middle).ok(), (k, l)

    def test_budget_message_names_stage_and_progress(self):
        """The stage is the kind of key being tried: the 6th node of (2,4) is slot U_1."""
        problem = make_problem(2, 4)
        with pytest.raises(BudgetExceeded, match=r"in the slot stage after 6 nodes "
                           r"\(0 raw middles, 0 classes kept\)"):
            solve_middle(problem, budget=5)
        with pytest.raises(BudgetExceeded, match=r"in the operation stage after 2 nodes "
                           r"\(0 raw middles, 0 classes kept\)"):
            solve_middle(problem, budget=1)
        with pytest.raises(BudgetExceeded, match=r"in the operation stage after 281 nodes "
                           r"\(1 raw middles, 1 classes kept\)"):
            solve_middle(problem, budget=280)

    def test_one_debug_record_per_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="crtk"):
            solve(2, 4)
        assert [r.getMessage() for r in caplog.records] == [
            "Kunneth search: 281 nodes, 1 raw middles, 1 kept"]


def _count_searches(monkeypatch) -> Counter:
    """Count the Kunneth searches the solver runs."""
    calls = Counter()

    def counted(self, _fn=_Search.run):
        calls["search"] += 1
        return _fn(self)
    monkeypatch.setattr(_Search, "run", counted)
    return calls


class TestReuse:
    """Warm caches against the cold path (caches emptied before each pair)."""

    # Six problems: (3,5), (3,7) and (5,3) all pose the zero one.  Swapped pairs
    # such as (5,10) and (10,5) resolve different factors and pose different ones.
    PAIRS = [(3, 5), (3, 7), (5, 3), (5, 10), (10, 5), (2, 6), (6, 2), (6, 10)]

    @staticmethod
    def outcome(k, l):
        rep = kunneth_pipeline(f"O{k + 1}", f"O{l + 1}")
        return (module_to_json(rep.tensor), module_to_json(rep.tor),
                [module_to_json(s.middle) for s in rep.solutions],
                [s.split for s in rep.solutions])

    def test_warm_agrees_with_cold(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="crtk"):
            warm = [self.outcome(k, l) for k, l in self.PAIRS]
        reused = [r for r in caplog.records if "reused" in r.getMessage()]
        assert (len(_SOLVED), len(reused)) == (6, 2)
        cold = []
        for k, l in self.PAIRS:
            clear_caches()
            cold.append(self.outcome(k, l))
        assert warm == cold

    def test_warm_repeat_checks_nothing_and_returns_fresh_solutions(self, monkeypatch):
        first = kunneth_pipeline("O3", "O5")
        calls = _count_searches(monkeypatch)
        second = kunneth_pipeline("O3", "O5")
        assert calls == {}
        assert second.solutions[0] is not first.solutions[0]
        want = (second.solutions[0].split, dict(second.solutions[0].alpha))
        second.solutions[0].split = not second.solutions[0].split
        second.solutions[0].alpha.clear()
        third = kunneth_pipeline("O3", "O5")
        assert (third.solutions[0].split, third.solutions[0].alpha) == want
        assert calls == {}

    def test_equal_problem_is_reused_but_smaller_budget_still_raises(self, monkeypatch):
        solve(2, 4)
        calls = _count_searches(monkeypatch)
        solve(2, 4)  # a new problem object, equal by value
        assert calls == {}
        with pytest.raises(BudgetExceeded, match=r"in the operation stage after 281 nodes "
                           r"\(1 raw middles, 1 classes kept\)"):
            solve_middle(make_problem(2, 4), budget=280)
        with pytest.raises(BudgetExceeded, match=r"after 281 nodes"):
            solve_middle(make_problem(2, 4), budget=280)

    def test_one_debug_record_per_call(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="crtk"):
            kunneth_pipeline("O3", "O5")
            kunneth_pipeline("O3", "O5")
        assert [r.getMessage() for r in caplog.records] == [
            "Kunneth search: 281 nodes, 1 raw middles, 1 kept",
            "Kunneth search: reused the solve of an equal problem, 1 kept"]


class TestSearchOrder:
    def test_each_instance_follows_both_its_slots(self):
        order = {key: i for i, key in enumerate(_KEYS)}
        assert len(_KEYS) == len(set(_KEYS)) == len(SLOTS) + 7 * 8
        assert [key for key in _KEYS if key in SLOT_OPS] == SLOTS
        assert _OPS == [key for key in _KEYS if key not in SLOT_OPS]
        for name, n in _OPS:
            src, tgt, shift = OP_SPECS[name]
            assert order[slot_of(src, n)] < order[(name, n)] > order[slot_of(tgt, n + shift)], (name, n)
        # psiT_n is derived at eps_n from r_n and zeta_n, and is no key.
        for n in range(8):
            assert ("psiT", n) not in order
            assert order[("r", n)] < order[("eps", n)] > order[("zeta", n)], n

    def test_agrees_with_oracle(self):
        assert _KEYS == search_order_oracle()


class TestCheckSchedule:
    def test_every_check_is_registered_once_where_it_completes(self):
        order = {key: i for i, key in enumerate(_KEYS)}
        registered = Counter()
        for key, entries in _SCHEDULE.items():
            for chk, n in entries:
                registered[(chk.name, n)] += 1
                # psiT_n is derived when eps_n is assigned.
                reads = {("eps" if name == "psiT" else name, (n + off) % 8) for name, off in chk.reads}
                assert key in reads, (chk.name, n, key)
                assert all(order[read] <= order[key] for read in reads), (chk.name, n, key)
        assert len(CHECKS) == 30
        assert registered == Counter({(chk.name, n): 1 for chk in CHECKS for n in range(8)
                                      if chk.name != TAUTOLOGY})

    def test_agrees_with_oracle(self):
        """The placement rule gives the schedule as first written, list order included."""
        assert _SCHEDULE == schedule_oracle()
        assert list(_SCHEDULE) == _KEYS

    def test_derived_psiT_relation_is_not_scheduled(self):
        assert TAUTOLOGY in {chk.name for chk in CHECKS}
        assert all(chk.name != TAUTOLOGY for entries in _SCHEDULE.values() for chk, _ in entries)


class TestPerSearchVerdicts:
    """_Search decides each (check, operands) once; the oracles decide on every visit."""

    def test_every_group_a_check_reads_is_an_operand_endpoint(self):
        """Why the verdict key holds no degree: each identity factor's (part, offset) is the domain
        or codomain of an operation factor the check reads, so equal operands read equal groups."""
        identities = 0
        for entries in _SCHEDULE.values():
            for chk, _ in entries:
                ends = {end for name, off in chk.reads for end in _factor_ends(name, off, chk.name)}
                for side in chk.sides:
                    for _, word in side:
                        for name, off in word:
                            if name in PART_PERIOD:
                                identities += 1
                                assert (name, off % PART_PERIOD[name]) in ends, (chk.name, name, off)
        assert identities == 8 * 7  # "2O", "U + psiU", "U", "T", "T - psiT" and "U - psiU" twice, per degree

    @staticmethod
    def counting(monkeypatch, cls, name):
        """Count the calls of cls.name; Check.holds only on a search's partial assignment (_Assigned)."""
        calls = Counter()
        original = getattr(cls, name)

        def counted(self, *args):
            if name != "holds" or isinstance(args[0], _Assigned):  # not a suite run on a whole module
                calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)
        return calls

    def test_4_4_decides_each_operand_set_once(self, monkeypatch, caplog):
        problem = make_problem(4, 4)
        decided = self.counting(monkeypatch, Check, "holds")
        looked_up = self.counting(monkeypatch, _Search, "_holds")
        derived = self.counting(monkeypatch, _Search, "_derive_psiT")
        search = _Search(problem, 5_000_000)
        search.run()
        assert (looked_up["_holds"], decided["holds"]) == (661, 334)
        # A dict key is stored once, so no (check, operands) is decided twice.
        assert len(search._verdicts) == 334
        assert derived["_derive_psiT"] == len(search._psiT)
        assert (search.nodes, search.raw) == (312, 1)
        with caplog.at_level(logging.DEBUG, logger="crtk"):
            solve_middle(problem)
        assert [r.getMessage() for r in caplog.records] == [
            "Kunneth search: 312 nodes, 1 raw middles, 1 kept"]

    def test_triple_solve_pins(self, monkeypatch):
        """O3 x middle(O3 x O5): a search that runs at scale."""
        problem = triple_problem(2, 2, 4)
        decided = self.counting(monkeypatch, Check, "holds")
        looked_up = self.counting(monkeypatch, _Search, "_holds")
        search = _Search(problem, 5_000_000)
        kept = search.run()
        assert (search.nodes, search.raw, len(kept)) == (77_870, 4, 1)
        assert (looked_up["_holds"], decided["holds"]) == (106_068, 1181)

    @pytest.mark.slow
    def test_triple_4_4_4_solves_within_the_default_budget(self):
        """O5 x middle(O5 x O5), the costliest triple solve with 2 <= k <= l <= m <= 6 that finishes."""
        search = _Search(triple_problem(4, 4, 4), 5_000_000)
        kept = search.run()
        assert (search.nodes, search.raw, len(kept)) == (634_840, 8, 4)

    def test_oracles_decide_every_lookup(self, monkeypatch):
        problem = make_problem(4, 4)
        decided = self.counting(monkeypatch, Check, "holds")
        EnumeratedGauge(problem, 5_000_000).run()
        assert decided["holds"] == 661
        decided.clear()
        looked_up = self.counting(monkeypatch, CheckEveryCopy, "_holds")
        unreduced = CheckEveryCopy(problem, 5_000_000)
        unreduced.run()
        assert decided["holds"] == looked_up["_holds"] > 661  # no gauge fixing: more visits
        assert unreduced._verdicts == {}

    def test_an_error_is_not_stored(self, monkeypatch):
        problem = make_problem(4, 4)
        holds = Check.holds
        calls = Counter()

        def failing(chk, M, n):
            calls["holds"] += 1
            if calls["holds"] == 10:
                raise RuntimeError("check failed to run")
            return holds(chk, M, n)

        monkeypatch.setattr(Check, "holds", failing)
        search = _Search(problem, 5_000_000)
        with pytest.raises(RuntimeError, match="check failed to run"):
            search.run()
        assert len(search._verdicts) == 9


class TestGaugeFixing:
    @pytest.mark.parametrize("k, l", [(2, 4), (5, 5)])
    def test_one_raw_middle_per_class(self, k, l):
        search = _Search(make_problem(k, l), budget=5_000_000)
        kept = search.run()
        assert search.raw == len(kept) == 1

    @pytest.mark.parametrize("k, l, order", [(2, 4, 32), (4, 4, 256)])
    def test_gauge_maps_kept_middle_into_candidates(self, k, l, order):
        """u = 1 + alpha.h.beta moves the candidate at W to the one at W + h_t.Q - P.h_s."""
        problem = make_problem(k, l)
        (sol,) = solve_middle(problem)
        search = CheckEveryCopy(problem, budget=1)  # lists every candidate, not just the gauge box
        search._choice = {slot: (sol.middle.group(*slot), sol.alpha[slot], sol.beta[slot])
                          for slot in SLOTS}
        gauge = [_slot_gauge(search._choice[slot], problem.sub(*slot), problem.quot(*slot))
                 for slot in SLOTS]
        hs = {slot: hom_group_elements(problem.quot(*slot), problem.sub(*slot)) for slot in SLOTS}
        assert prod(len(g) for g in gauge) == order
        cand = {key: search._instance_candidates(*key) for key in _OPS}
        instance = {}  # key -> (W of every candidate, W of the kept middle's op, P, Q, slots)
        for key, v in cand.items():
            assert len({h.matrix.entries for h in v}) == len(v), key
            name, n = key
            src, tgt, shift = OP_SPECS[name]
            Ws = hom_group_elements(problem.tor.group(src, n - 1), problem.tensor.group(tgt, n + shift))
            assert len(Ws) == len(v), key
            instance[key] = (Ws, Ws[v.index(sol.middle.op(*key))], problem.tensor.op(name, n),
                             problem.tor.op(name, n - 1), SLOTS.index(slot_of(src, n)),
                             SLOTS.index(slot_of(tgt, n + shift)))
        seen = {sol.middle}
        for g in itertools.islice(itertools.product(*(range(len(x)) for x in gauge)), 1, None):
            moved = conjugate(sol.middle, {slot: gauge[i][g[i]][0] for i, slot in enumerate(SLOTS)})
            for key in _OPS:
                Ws, W, P, Q, s, t = instance[key]
                h_s, h_t = hs[SLOTS[s]][g[s]], hs[SLOTS[t]][g[t]]
                shifted = W + hom_compose(h_t, Q) - hom_compose(P, h_s)
                assert moved.op(*key) == cand[key][Ws.index(shifted)], key
            if moved not in seen:
                seen.add(moved)
                assert verify_relations(moved).ok()
                assert is_acyclic(moved).ok()
        assert len(seen) > 1

    @staticmethod
    def nodes_by_kind(search) -> Counter:
        """Count the nodes search ticks, slot and operation apart."""
        kinds, tick = Counter(), search._tick

        def counted(key):
            kinds["slot" if key in search.slot_options else "operation"] += 1
            tick(key)
        search._tick = counted
        return kinds

    @pytest.mark.parametrize("k, l", [(2, 4), (4, 4), (5, 5), (6, 6), (4, 8)])
    def test_table_agrees_with_enumerated_gauge(self, k, l):
        problem = make_problem(k, l)
        got, want = _Search(problem, 5_000_000), EnumeratedGauge(problem, 5_000_000)
        got_kinds, want_kinds = self.nodes_by_kind(got), self.nodes_by_kind(want)
        assert [s.middle for s in got.run()] == [s.middle for s in want.run()]
        # The solver never builds the candidates the enumerated gauge ticks and skips.
        assert (got_kinds["operation"], got.raw) == (want_kinds["operation"] - want.skipped, want.raw)
        # A slot node is counted once per prefix, and both searches reach the same prefixes.
        assert got_kinds["slot"] == want_kinds["slot"]
        assert got.nodes == want.nodes - want.skipped
        assert want.skipped > 0

    def test_triple_table_builds(self):
        """O5 x O5 x O5: the gauge group has order 2^43, far past any list of its elements."""
        (sol,) = solve_middle(make_problem(4, 4))
        tp = tensor_and_tor(cuntz_resolution(4), sol.middle)
        problem = KunnethProblem(tp.tensor, tp.tor)
        orders = [c[3] for slot in SLOTS for c in hom_coords(problem.quot(*slot), problem.sub(*slot))]
        assert prod(orders) == 2 ** 43
        tracemalloc.start()
        try:
            table = _gauge_table(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full = full_boxes(problem)
        assert list(table) == _OPS
        assert all(len(table[key]) == len(full[key]) for key in _OPS)
        assert any(b < order for key in _OPS for b, order in zip(table[key], full[key]))
        assert peak < 20 * 2 ** 20, peak

    def test_table_equals_the_row_assembly_on_the_grid(self):
        """The echelon of commutation_map's image bounds each W as the rows assembled slot by slot did."""
        for k, l in itertools.product(range(2, 13), repeat=2):
            problem = make_problem(k, l)
            assert _gauge_table(problem) == gauge_table_rows_oracle(problem, _OPS), (k, l)

    @pytest.mark.slow
    def test_boxes_select_the_oracle_visits(self):
        """Each key's box holds exactly the candidate indices the stabilizer chain visits."""
        problems = {}
        for k, l in itertools.product(range(2, 13), repeat=2):
            tp = tensor_and_tor(cuntz_resolution(k), cuntz_module(l))
            problems.setdefault((tp.tensor, tp.tor), KunnethProblem(tp.tensor, tp.tor))
        assert len(problems) == 27
        triples = [triple_problem(*factors) for factors in [(2, 2, 4), (4, 4, 4), (2, 4, 4)]]
        for problem in [*problems.values(), *triples]:
            table, want, full = _gauge_table(problem), gauge_table_oracle(problem), full_boxes(problem)
            for key in _OPS:
                boxed = {j for j, w in enumerate(itertools.product(*map(range, full[key])))
                         if all(map(int.__lt__, w, table[key]))}
                assert boxed == (set(range(prod(full[key]))) if want[key] is None else want[key]), key


def triple_problem(k, l, m):
    """O_{k+1} x (the solver's middle for O_{l+1} x O_{m+1})."""
    (sol,) = solve_middle(make_problem(l, m))
    tp = tensor_and_tor(cuntz_resolution(k), sol.middle)
    return KunnethProblem(tp.tensor, tp.tor)


def count_raw(search):
    """search with _finish replaced by a count of raw middles: none is built or deduplicated."""
    def finish(ops):
        search.raw += 1
    search._finish = finish
    return search


class TestTwoStageOracle:
    """One backtrack over _KEYS against the two nested backtracks it replaced (TwoStageSearch)."""

    def test_grid_agrees(self):
        problems = {}
        for k, l in itertools.product(range(2, 13), repeat=2):
            tp = tensor_and_tor(cuntz_resolution(k), cuntz_module(l))
            problems.setdefault((tp.tensor, tp.tor), KunnethProblem(tp.tensor, tp.tor))
        assert len(problems) == 27
        nodes = Counter()
        for problem in problems.values():
            got, want = _Search(problem, 5_000_000), TwoStageSearch(problem, 5_000_000)
            assert [s.middle for s in got.run()] == [s.middle for s in want.run()]
            assert got.raw == want.raw
            nodes["one"] += got.nodes
            nodes["two"] += want.nodes
        assert nodes == {"one": 6_378, "two": 9_291}

    @pytest.mark.parametrize("factors", [(2, 2, 2), (3, 3, 3), (2, 2, 4)], ids=str)
    def test_triples_agree_up_to_isomorphism(self, factors):
        problem = triple_problem(*factors)
        got, want = _Search(problem, 5_000_000), TwoStageSearch(problem, 5_000_000)
        kept, other = got.run(), want.run()
        assert got.raw == want.raw
        assert len(kept) == len(other)
        for sol in kept:
            assert sum(crt_isomorphic(sol.middle, o.middle) is not None for o in other) == 1

    def test_a_triple_whose_search_grows(self):
        """O3 x middle(O5 x O5): one of four triples with 2 <= k, l, m <= 6 that take more nodes.

        The others are O5 x middle(O3 x O5), O5 x middle(O5 x O7) and O7 x
        middle(O5 x O5), with the same counts.  Only raw middles are counted
        here; test_the_grown_triple_keeps_one_class runs the dedup too.
        """
        problem = triple_problem(2, 4, 4)
        got = count_raw(_Search(problem, 5_000_000))
        want = count_raw(TwoStageSearch(problem, 5_000_000))
        got.run()
        want.run()
        assert (got.nodes, got.raw) == (157_422, 4)
        assert (want.nodes, want.raw) == (76_814, 4)

    def test_the_grown_triple_keeps_one_class(self):
        """O3 x middle(O5 x O5) with the dedup on: its 4 raw middles are CRT-isomorphic."""
        search = _Search(triple_problem(2, 4, 4), 5_000_000)
        kept = search.run()
        assert (search.nodes, search.raw, len(kept)) == (157_422, 4, 1)


class ComparedCandidates(_Search):
    """The solver's search, checking each instance it solves against the matrix-system oracle.

    The oracle lists every candidate, from its own particular solution.  The
    solver's first candidate (W = 0) is one of them, so the oracle's list is
    also that candidate plus alpha_t.W.beta_s for every W, and restricted to
    the W in the gauge box it must be the solver's list, in the same order.
    """

    def __init__(self, p, budget):
        super().__init__(p, budget)
        self.solvable = Counter()

    def _instance_candidates(self, name, n):
        before = len(self._cand_cache)
        got = super()._instance_candidates(name, n)
        if len(self._cand_cache) > before:
            want = instance_candidates_oracle(self, name, n)
            assert bool(got) == bool(want), (name, n)
            if got:
                src, tgt, shift = OP_SPECS[name]
                (Ks, _, b_s), (Kt, a_t, _) = self._option(src, n), self._option(tgt, n + shift)
                quot, sub = self.p.tor.group(src, n - 1), self.p.tensor.group(tgt, n + shift)
                coords = hom_coords(quot, sub)
                # Each oracle candidate by the hom_coords of its W relative to the solver's theta0.
                by_w = {tuple(W.matrix.entries[r][c] // step for r, c, step, _ in coords):
                        GroupHom(Ks, Kt, got[0].matrix + a_t.matrix * W.matrix * b_s.matrix)
                        for W in hom_group_elements(quot, sub)}
                assert set(by_w.values()) == set(want), (name, n)
                box = itertools.product(*map(range, self.bounds[(name, n)]))
                assert got == [by_w[w] for w in box], (name, n)
            self.solvable[bool(got)] += 1
        return got


class TestInstanceCandidates:
    @pytest.mark.parametrize("factors", [(2, 4), (4, 4), (5, 5), (6, 10), (2, 2, 2)], ids=str)
    def test_agrees_with_matrix_system_oracle(self, factors):
        """Solvable exactly when the oracle is, with the same candidates (theta0 may differ)."""
        problem = make_problem(*factors) if len(factors) == 2 else triple_problem(*factors)
        search = ComparedCandidates(problem, 5_000_000)
        assert search.run()
        assert search.solvable[True] > 0 and search.solvable[False] > 0, search.solvable


class TrivialCandidates(_Search):
    """The solver's search, checking each instance it solves with a trivial Ks or Kt."""

    def __init__(self, p, budget):
        super().__init__(p, budget)
        self.trivial = 0

    def _instance_candidates(self, name, n):
        before = len(self._cand_cache)
        got = super()._instance_candidates(name, n)
        src, tgt, shift = OP_SPECS[name]
        if len(self._cand_cache) > before and (self._k_group(src, n).is_trivial()
                                               or self._k_group(tgt, n + shift).is_trivial()):
            assert got == solved_candidates_oracle(self, name, n) == instance_candidates_oracle(self, name, n)
            assert len(got) == 1 and got[0].is_zero_map(), (name, n)
            self.trivial += 1
        return got


class TestTrivialCandidates:
    @pytest.mark.parametrize("factors", [(3, 5), (2, 4), (4, 4), (5, 5), (5, 10)], ids=str)
    def test_zero_map_agrees_with_the_solve(self, factors):
        search = TrivialCandidates(make_problem(*factors), 5_000_000)
        assert search.run()
        assert search.trivial > 0


class TestSolver:
    def test_zero_tor_gives_tensor_back(self):
        # T is free, so Tor vanishes and the tensor does not; but T is
        # infinite and the solver needs finite parts.
        tp = tensor_and_tor(cuntz_resolution(3), monogenic("T", 0).realized)
        assert tp.tor.is_zero() and not tp.tensor.is_zero()
        # A finite zero-Tor case instead: the coprime odd pair.
        tp = tensor_and_tor(cuntz_resolution(3), cuntz_module(5))
        assert tp.tensor.is_zero() and tp.tor.is_zero()
        problem = KunnethProblem(tp.tensor, tp.tor)
        sols = solve_middle(problem)
        assert len(sols) == 1
        assert sols[0].middle.is_zero()
        assert sols[0].split is True

    def test_tor_zero_nontrivial_tensor(self):
        # N with free complex part is flat against the odd resolution
        res = cuntz_resolution(9)
        tp = tensor_and_tor(res, cuntz_module(3))
        problem = KunnethProblem(tp.tensor, tp.tor)
        sols = solve_middle(problem)
        for sol in sols:
            check_solution_contract(problem, sol)
        assert len(sols) == 1

    def test_odd_pair_splits(self):
        problem, sols = solve(3, 6)
        assert len(sols) == 1
        sol = sols[0]
        check_solution_contract(problem, sol)
        assert sol.split is True
        assert sol.middle.group("T", 0) == FinAbGroup((3, 3))
        assert crt_isomorphic(sol.middle, expected_product(3, 6)) is not None

    def test_4_4_does_not_split(self):
        problem, sols = solve(4, 4)
        assert len(sols) == 1
        sol = sols[0]
        check_solution_contract(problem, sol)
        assert sol.middle.group("T", 0) == FinAbGroup((4, 4))
        assert sol.middle.group("O", 5) == Zmod(4)
        assert sol.split is False
        assert crt_isomorphic(sol.middle, expected_product(4, 4)) is not None
        # the group-level witness: the split model has a different KT_0
        assert split_model(problem).group("T", 0) == FinAbGroup((2, 2, 4))

    def test_split_check_on_expected(self):
        problem, sols = solve(3, 6)
        assert split_check(sols[0], problem) is True

    def test_rejects_a_tor_with_a_broken_psiT(self):
        # psiT of the (4,4) Tor replaced by 1 - psiT in degrees 0 and 4 (psiT is betaT-periodic).
        tp = tensor_and_tor(cuntz_resolution(4), cuntz_module(4))
        groups = {p: [tp.tor.group(p, n) for n in range(8)] for p in PARTS}
        mats = {name: [tp.tor.op(name, n).matrix for n in range(8)] for name in OP_NAMES}
        for n in (0, 4):
            mats["psiT"][n] = (identity_hom(tp.tor.group("T", n)) - tp.tor.op("psiT", n)).matrix
        with pytest.raises(ValueError, match=r"^Tor fails relations: .*eps\.r\.zeta=1\+psiT@0"):
            KunnethProblem(tp.tensor, make_module(groups, mats))


class TestPipeline:
    def test_O3_O3(self):
        rep = kunneth_pipeline("O3", "O3")
        assert rep.ok()
        assert len(rep.solutions) == 1
        mid = rep.solutions[0].middle
        assert [mid.group("O", n) for n in range(8)] == [
            Zmod(2), Zmod(4), FinAbGroup((2, 2)), FinAbGroup((2, 2)),
            Zmod(4), Zmod(2), FinAbGroup(), FinAbGroup()]

    def test_O3_O5_differs(self):
        rep24 = kunneth_pipeline("O3", "O5")
        assert rep24.ok()
        mid24 = rep24.solutions[0].middle
        assert mid24.group("O", 2) == FinAbGroup((2, 4))
        rep22 = kunneth_pipeline("O3", "O3")
        mid22 = rep22.solutions[0].middle
        assert mid22.group("O", 2) == FinAbGroup((2, 2))
        assert all(mid22.group("U", n) == mid24.group("U", n) for n in range(8))
        assert crt_isomorphic(mid22, mid24) is None

    def test_trivial_pair(self):
        rep = kunneth_pipeline("O2", "O2")
        assert rep.ok()
        assert rep.solutions[0].middle.is_zero()

    def test_classical_complex_part(self):
        for (a, b, k, l) in [("O3", "O3", 2, 2), ("O3", "O5", 2, 4)]:
            rep = kunneth_pipeline(a, b)
            classical = classical_complex_kunneth(k, l)
            mid = rep.solutions[0].middle
            for n in range(8):
                assert mid.group("U", n) == classical[n]

    @pytest.mark.parametrize("a, b, k, l", [("O6", "O6", 5, 5), ("O8", "O8", 7, 7)])
    def test_odd_prime_gcd_pairs(self, a, b, k, l):
        rep = kunneth_pipeline(a, b)
        assert rep.ok()
        mid = rep.solutions[0].middle
        assert crt_isomorphic(mid, expected_product(k, l)) is not None
        classical = classical_complex_kunneth(k, l)
        assert [mid.group("U", n) for n in range(8)] == classical
        assert rep.split is True

    @pytest.mark.slow
    def test_full_grid(self, caplog):
        """Every k, l in 2..12 against the tables and table-independent invariants."""
        caplog.set_level(logging.DEBUG, logger="crtk")
        (tautology,) = [chk for chk in CHECKS if chk.name == TAUTOLOGY]
        digest = hashlib.sha256()
        for k, l in itertools.product(range(2, 13), repeat=2):
            rep = kunneth_pipeline(f"O{k + 1}", f"O{l + 1}")
            assert rep.ok() and len(rep.solutions) == 1, (k, l)
            sol = rep.solutions[0]
            mid = sol.middle
            digest.update(json.dumps([module_to_json(mid), sol.split]).encode())
            assert all(tautology.holds(mid, n) for n in range(8)), (k, l)
            assert [mid.group("U", n) for n in range(8)] == classical_complex_kunneth(k, l), (k, l)
            for p in PARTS:
                for n in range(8):
                    assert mid.group(p, n).order() == \
                        rep.tensor.group(p, n).order() * rep.tor.group(p, n - 1).order(), (k, l, p, n)
            problem = KunnethProblem(rep.tensor, rep.tor)
            assert sol.split == (crt_isomorphic(rep.expected, split_model(problem)) is not None), (k, l)
        # The 121 pairs pose 27 distinct problems; no solve reaches a middle it then drops.
        solves = [re.fullmatch(r"Kunneth search: \d+ nodes, (\d+) raw middles, (\d+) kept",
                               r.getMessage()) for r in caplog.records]
        counts = [m.groups() for m in solves if m]
        assert len(counts) == 27
        assert all(raw == kept for raw, kept in counts), counts
        # The middles, split flags and DEBUG records (search nodes included), pinned.
        digest.update("\n".join(r.getMessage() for r in caplog.records if r.name == "crtk").encode())
        assert digest.hexdigest() == "1912c95eee585f07a481bd8d8655587757ce84deccfb1379550575f0f3fdb129"

    def test_rejects_entries_without_resolution(self):
        with pytest.raises(ValueError):
            kunneth_pipeline("R", "O3")


class TestMultipleMiddles:
    """Two surviving classes for a table-covered pair: a typed failure, exit code 1 on the CLI."""

    @pytest.fixture
    def two_classes(self, monkeypatch):
        # O3 (x) O3 answered with its own middle and O3 (x) O5's, which is not isomorphic.
        (own,) = solve(2, 2)[1]
        (other,) = solve(2, 4)[1]
        assert crt_isomorphic(own.middle, other.middle) is None
        monkeypatch.setattr(kunneth, "solve_middle", lambda problem, budget: [own, other])
        return own.middle, other.middle

    def test_pipeline_raises_with_the_middles(self, two_classes):
        with pytest.raises(MultipleMiddles, match="^multiple non-isomorphic middles survive") as exc:
            kunneth_pipeline("O3", "O3")
        assert isinstance(exc.value, RuntimeError)
        assert exc.value.middles == two_classes
        payload = str(exc.value).split("\n", 1)[1]
        assert json.loads(payload) == [module_to_json(M) for M in two_classes]

    def test_cli_exits_1(self, two_classes, capsys):
        assert main(["kunneth", "O3", "O3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("computation failed: multiple non-isomorphic middles survive")
