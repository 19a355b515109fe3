"""Command-line behaviour: verbs, exit codes, JSON round-trips."""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from crtk import catalog, crt_core
from crtk.catalog import catalog_entry, catalog_names, expected_product
from crtk.cli import main, render_module
from crtk.crt_core import (OP_NAMES, PARTS, crt_isomorphic, make_module, module_from_json, module_to_json,
                           zero_module)
from crtk.free_crt import monogenic
from crtk.kunneth import kunneth_pipeline
from crtk.zlinalg import IntMatrix

from oracles import render_module_oracle


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerbs:
    def test_verify_T(self, capsys):
        code, out, _ = run(["verify", "catalog:T"], capsys)
        assert code == 0
        assert "relations: pass, acyclic: pass, free: pass" in out

    def test_verify_cuntz_not_free(self, capsys):
        code, out, _ = run(["verify", "O4"], capsys)
        assert code == 0
        assert "free: no" in out

    def test_catalog_list(self, capsys):
        code, out, _ = run(["catalog", "list"], capsys)
        assert code == 0
        for name in ("R", "C", "T", "zero", "O3"):
            assert name in out.split()

    def test_tensor_zero(self, capsys):
        code, out, _ = run(["tensor", "catalog:zero", "catalog:R"], capsys)
        assert code == 0
        assert render_module(zero_module()) in out

    def test_kunneth_matches_table(self, tmp_path, capsys):
        out_json = tmp_path / "out.json"
        code, out, _ = run(["kunneth", "O3", "O3", "--json", str(out_json)], capsys)
        assert code == 0
        assert "split: False" in out
        with open(out_json) as fh:
            M = module_from_json(json.load(fh))
        assert crt_isomorphic(M, expected_product(2, 2)) is not None

    def test_kunneth_mismatch_with_equal_groups_explains_itself(self, monkeypatch, capsys):
        # The (3, 3) middle with c zeroed has the table's groups but is not CRT-isomorphic to it.
        M = expected_product(3, 3)
        mats = {name: [M.op(name, n).matrix for n in range(8)] for name in OP_NAMES}
        mats["c"] = [IntMatrix.zeros(m.rows, m.cols) for m in mats["c"]]
        table = make_module({p: [M.group(p, n) for n in range(8)] for p in PARTS}, mats)
        real = catalog.expected_product
        monkeypatch.setattr(catalog, "expected_product", lambda k, l: table if (k, l) == (3, 3) else real(k, l))
        code, out, _ = run(["kunneth", "O4", "O4"], capsys)
        assert code == 1
        assert "matches printed product table: False\n  same groups but not CRT-isomorphic\n" in out

    def test_compare_identical(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        with open(path, "w") as fh:
            json.dump(module_to_json(monogenic("R", 0).realized), fh)
        code, out, _ = run(["compare", str(path), "R"], capsys)
        assert code == 0

    def test_compare_mismatch(self, capsys):
        code, out, _ = run(["compare", "O3", "O5"], capsys)
        assert code == 1
        assert "discrepanc" in out

    def test_tor_odd_pair(self, capsys):
        code, out, _ = run(["tor", "O4", "O7"], capsys)
        assert code == 0
        assert "Z_3" in out


def _write(tmp_path, obj) -> Path:
    path = tmp_path / "module.json"
    path.write_text(json.dumps(obj))
    return path


def _file_of(where: tuple, value):
    """A writer of R's module JSON with value put at where, a path of keys and indices."""
    def write(tmp_path) -> Path:
        obj = module_to_json(monogenic("R", 0).realized)
        *path, last = where
        inner = obj
        for key in path:
            inner = inner[key]
        inner[last] = value
        return _write(tmp_path, obj)
    return write


class TestExitCodes:
    def test_unknown_verb_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file(self, capsys):
        code, _, err = run(["verify", "/nonexistent/mod.json"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [["kunneth", "O3", "X9"], ["kunneth", "X9", "O3"],
                                      ["kunneth", "O3", "O1"], ["catalog", "show", "X9"]])
    def test_bad_catalog_name_is_usage_error(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("window", ["-3", "-1", "x"])
    def test_bad_period_window_is_usage_error(self, window, capsys):
        code, out, err = run(["catalog", "show", "O5", "--period-window", window], capsys)
        assert code == 2
        assert out == "" and "--period-window" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_non_positive_budget_is_usage_error(self, budget, capsys):
        code, out, err = run(["kunneth", "O5", "O5", "--budget", budget], capsys)
        assert code == 2
        assert out == "" and "--budget" in err and "must be >= 1" in err

    def test_zero_period_window_renders_degree_zero(self, capsys):
        code, out, _ = run(["catalog", "show", "O5", "--period-window", "0"], capsys)
        assert code == 0
        assert ["n", "0"] in [line.split() for line in out.splitlines()]

    def test_kunneth_non_cuntz_factor(self, capsys):
        code, _, err = run(["kunneth", "O3", "R"], capsys)
        assert code == 1
        assert "R is not a Cuntz entry" in err

    @pytest.mark.parametrize("argv", [["catalog", "show", "O5"], ["kunneth", "O3", "O3"]],
                             ids=["catalog-show", "kunneth"])
    @pytest.mark.parametrize("where", [lambda tmp_path: tmp_path, lambda tmp_path: tmp_path / "missing" / "out.json"],
                             ids=["directory", "missing-directory"])
    def test_unwritable_json_path_is_usage_error(self, argv, where, tmp_path, capsys):
        code, _, err = run([*argv, "--json", str(where(tmp_path))], capsys)
        assert code == 2
        assert err.startswith("error: cannot write ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_json_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{\"not\": \"a module\"}")
        code, _, err = run(["verify", str(p)], capsys)
        assert code == 2

    @pytest.mark.parametrize("write, message", [
        (_file_of(("ops", "c", 0, "matrix", 0, 0), 1.7), "ops.c[0].matrix[0][0] must be an integer, not float"),
        (_file_of(("MO", 1, "torsion", 0), 3.0), "MO[1].torsion[0] must be an integer, not float"),
        (_file_of(("MU", 0, "rank"), True), "MU[0].rank must be an integer, not bool"),
        (_file_of(("ops", "c", 0, "matrix", 0), 1), "ops.c[0].matrix[0] must be a list, not int"),
        (_file_of(("ops", "tau"), []), "ops.tau must have 8 entries, not 0"),
        (_file_of(("ops", "c", 1, "dom"), {"torsion": [4], "rank": 0}), "ops.c[1] maps Z_4 -> 0, not Z_2 -> 0"),
        (lambda tmp_path: _write(tmp_path, {"MO": 5}), "MO must be a list, not int"),
        (lambda tmp_path: _write(tmp_path, []), "module must be an object, not list"),
        (lambda tmp_path: tmp_path, "not a catalog name or file"),
    ], ids=["float-entry", "float-torsion", "bool-rank", "int-row", "no-degrees", "other-domain",
            "int-part", "list-module", "directory"])
    def test_malformed_module_file(self, write, message, tmp_path, capsys):
        path = str(write(tmp_path))
        code, out, err = run(["verify", path], capsys)
        assert code == 2 and out == ""
        assert ("cannot parse module file" in err or "not a catalog name or file" in err) and message in err
        assert "Traceback" not in err


def _reproduce_tables():
    """scripts/reproduce_tables.py as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"
    spec = importlib.util.spec_from_file_location("reproduce_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReproduceTablesScript:
    @pytest.mark.parametrize("argv,message", [(["3", "5", "7"], "expected pairs k l, got 3 integers"),
                                              (["3", "x"], "not an integer: 'x'"),
                                              (["0", "3"], "must be >= 1: 0")])
    def test_bad_arguments_are_usage_errors(self, argv, message, capsys):
        code = _reproduce_tables().main(argv)
        out = capsys.readouterr()
        assert code == 2
        assert out.out == "" and message in out.err and "Traceback" not in out.err

    def test_explicit_pair(self, capsys):
        assert _reproduce_tables().main(["3", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== (k, l) = (3, 5)") and out.count("== (k, l)") == 1
        assert out.endswith("all pairs reproduce their tables\n")


class TestDeterminism:
    def test_json_output_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["tensor", "O4", "O7", "--json", str(a)], capsys)[0] == 0
        assert run(["tensor", "O4", "O7", "--json", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_kunneth_json_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["kunneth", "O6", "O6", "--json", str(a)], capsys)[0] == 0
        assert run(["kunneth", "O6", "O6", "--json", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_catalog_modules(self):
        for name in ("R", "C", "T", "O3", "O5"):
            M = catalog_entry(name).module
            assert module_from_json(module_to_json(M)) == M


class TestRenderReuse:
    """render_module renders each (module value, window) once, as the uncached oracle would."""

    WINDOWS = (0, 3, 8, 16)

    def test_matches_the_oracle(self):
        modules = [catalog_entry(name).module for name in catalog_names()]
        for k, l in itertools.product(range(2, 13), repeat=2):
            rep = kunneth_pipeline(f"O{k + 1}", f"O{l + 1}")
            modules += [rep.tensor, rep.tor, rep.solutions[0].middle]
        for M in modules:
            for window in self.WINDOWS:
                assert render_module(M, window) == render_module_oracle(M, window)
        assert render_module.cache_info().currsize < len(modules) * len(self.WINDOWS)

    def test_equal_modules_share_one_entry(self):
        M = kunneth_pipeline("O5", "O5").tensor
        text = render_module(M)
        crt_core._assemble.cache_clear()  # so that the rebuilt module is a new object
        twin = module_from_json(module_to_json(M))
        assert twin is not M and twin == M
        assert render_module(twin) is text
        assert render_module.cache_info().currsize == 1
