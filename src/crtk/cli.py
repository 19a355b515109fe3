"""Command-line front end.

Verbs: catalog, verify, tensor, tor, kunneth, compare.  Module arguments
are catalog names (R, C, T, zero, O3, ... — a `catalog:` prefix is
accepted) or paths to module JSON files.  Tables are rendered in the
source layout, degrees 0 through 8 with degree 8 repeating degree 0.

Exit codes: 0 success, 1 mathematical failure (verification failure,
fixture mismatch, empty solution set), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import catalog_entry, catalog_names, cuntz_parameter, cuntz_resolution
from .crt_core import (
    CRTModule,
    OP_NAMES,
    PARTS,
    crt_isomorphic,
    is_acyclic,
    is_free,
    module_from_json,
    module_to_json,
    verify_relations,
    zero_module,
)
from .free_crt import monogenic
from .kunneth import kunneth_pipeline
from .tensor import tensor_and_tor, tensor_free
from .zlinalg import GroupHom

class UsageError(Exception):
    pass


def _catalog_name(source: str) -> str:
    """The catalog name in source; UsageError if the catalog has no such name."""
    name = source.removeprefix("catalog:")
    try:
        cuntz_parameter(name)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    return name


def _load_module(source: str) -> CRTModule:
    name = source.removeprefix("catalog:")
    try:
        return catalog_entry(name).module
    except KeyError:
        pass
    try:
        with open(source) as fh:
            return module_from_json(json.load(fh))
    except OSError:  # no such file, a directory, no permission
        raise UsageError(f"not a catalog name or file: {source!r}") from None
    except (KeyError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise UsageError(f"cannot parse module file {source!r}: {exc}") from None


def _fmt_matrix(h: GroupHom) -> str:
    m = h.matrix
    if m.rows == 0 or m.cols == 0 or m.is_zero():
        return "0"
    if m.rows == 1 and m.cols == 1:
        return str(m.entries[0][0])
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in m.entries) + "]"


@functools.cache
def render_module(M: CRTModule, window: int = 8) -> str:
    """M's table in degrees 0..window, degree n showing stored degree n mod 8.

    Rendered once per distinct (module value, window) in a process: equal
    modules render to identical text, and a family of pairs prints few
    distinct modules (the 86 grid_light pairs print 258 tables of 12).
    """
    cols = list(range(window + 1))
    rows = []
    rows.append(["n"] + [str(n) for n in cols])
    for part, label in (("O", "KO_n"), ("U", "KU_n"), ("T", "KT_n")):
        rows.append([label] + [str(M.group(part, n % 8)) for n in cols])
    for name in OP_NAMES:
        rows.append([f"{name}_n"] + [_fmt_matrix(M.op(name, n % 8)) for n in cols])
    widths = [max(len(r[i]) for r in rows) for i in range(len(cols) + 1)]
    lines = []
    for i, r in enumerate(rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        if i in (0, 3):
            lines.append("-" * len(lines[-1]))
    return "\n".join(lines)


def _write_json(obj, path: str):
    try:
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:  # a directory, a missing directory, no permission
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog_names():
            print(name)
        return 0
    ent = catalog_entry(_catalog_name(args.name))
    if args.json:
        _write_json(module_to_json(ent.module), args.json)
    print(f"catalog entry {ent.name}")
    print(render_module(ent.module, args.period_window))
    return 0


def cmd_verify(args) -> int:
    M = _load_module(args.module)
    rel = verify_relations(M)
    if not rel.ok():
        print(f"relations: FAIL ({rel})")
        return 1
    acy = is_acyclic(M)
    free = is_free(M) if acy.ok() else False
    print(f"relations: pass, acyclic: {'pass' if acy.ok() else 'FAIL (' + str(acy) + ')'}, "
          f"free: {'pass' if free else 'no'}")
    return 0 if acy.ok() else 1


def _tensor_tor(args) -> tuple[CRTModule, CRTModule]:
    a = _catalog_name(args.a)
    B = _load_module(args.b)
    k = cuntz_parameter(a)
    if k is not None:
        tp = tensor_and_tor(cuntz_resolution(k), B)
        return tp.tensor, tp.tor
    if a == "zero":
        return zero_module(), zero_module()
    return tensor_free(monogenic(a, 0), B).module, zero_module()


def cmd_tensor_or_tor(args) -> int:
    M = _tensor_tor(args)[args.verb == "tor"]
    if args.json:
        _write_json(module_to_json(M), args.json)
    print(render_module(M, args.period_window))
    return 0


def _group_diffs(A: CRTModule, B: CRTModule) -> list[tuple]:
    """(part, degree, A's group, B's group) at each window degree where the groups differ."""
    return [(part, n, A.group(part, n), B.group(part, n)) for part in PARTS for n in range(8)
            if A.group(part, n) != B.group(part, n)]


def cmd_kunneth(args) -> int:
    a, b = _catalog_name(args.a), _catalog_name(args.b)
    report = kunneth_pipeline(a, b, budget=args.budget)
    print(f"pair ({a}, {b}): k={report.k}, l={report.l}")
    print("tensor part:")
    print(render_module(report.tensor, args.period_window))
    print("\nTor part:")
    print(render_module(report.tor, args.period_window))
    if not report.solutions:
        print("\nno consistent middle found (transcription error upstream?)")
        return 1
    sol = report.solutions[0]
    print(f"\nmiddle ({len(report.solutions)} solution class):")
    print(render_module(sol.middle, args.period_window))
    print(f"\nsplit: {sol.split}")
    if args.json:
        _write_json(module_to_json(sol.middle), args.json)
    if report.expected is not None:
        ok = all(report.matches_expected)
        print(f"matches printed product table: {ok}")
        if not ok:
            diffs = _group_diffs(sol.middle, report.expected)
            for part, n, ga, gb in diffs:
                print(f"  {part}-part degree {n}: computed {ga}, table {gb}")
            if not diffs:
                print("  same groups but not CRT-isomorphic")
        return 0 if ok else 1
    return 0


def cmd_compare(args) -> int:
    A = _load_module(args.a)
    B = _load_module(args.b)
    if diffs := _group_diffs(A, B):
        print("group discrepancies:")
        for part, n, ga, gb in diffs:
            print(f"  {part}-part degree {n}: {ga} vs {gb}")
        return 1
    if A.all_finite() and B.all_finite():
        iso = crt_isomorphic(A, B)
        print("isomorphic" if iso else "same groups but not CRT-isomorphic")
        return 0 if iso else 1
    same_ops = all(A.op(nm, n) == B.op(nm, n) for nm in OP_NAMES for n in range(8))
    print("identical tables" if same_ops
          else "same groups; operation tables differ (infinite parts compared by field equality)")
    return 0 if same_ops else 1


def _at_least(minimum: int):
    """argparse type: an integer >= minimum."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}: {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="crtk", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--json", metavar="PATH", help="also write module JSON")
        p.add_argument("--period-window", type=_at_least(0), default=8,
                       help="last degree column to render (default 8)")

    p = sub.add_parser("catalog", help="list or show named fixtures")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", default="R")
    common(p)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("verify", help="relation/acyclicity/freeness report")
    p.add_argument("module")
    p.set_defaults(fn=cmd_verify)

    for verb in ("tensor", "tor"):
        p = sub.add_parser(verb, help=f"{verb} of a resolved catalog module with another module")
        p.add_argument("a")
        p.add_argument("b")
        common(p)
        p.set_defaults(fn=cmd_tensor_or_tor)

    p = sub.add_parser("kunneth", help="full pipeline: tensor, Tor, middle, split")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--budget", type=_at_least(1), default=5_000_000)
    common(p)
    p.set_defaults(fn=cmd_kunneth)

    p = sub.add_parser("compare", help="diff two modules up to isomorphism")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_compare)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
