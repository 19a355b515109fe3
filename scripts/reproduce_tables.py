#!/usr/bin/env python3
"""Recompute the product tables for a family of parameter pairs.

For each pair (k, l) the script resolves the first factor, computes the
tensor and Tor, solves the extension problem, checks the result against
the printed product table, and reports the split behaviour and the
wall time of all of it (perf_counter; the pairs share one process, so a
pair reuses what earlier pairs built).

    python3 scripts/reproduce_tables.py            # default pair list
    python3 scripts/reproduce_tables.py 4 4 2 6    # explicit pairs

Arguments come in pairs of integers k, l >= 1; an odd count or a
non-integer is a usage error (exit 2, message on stderr).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crtk.cli import _at_least, render_module
from crtk.kunneth import kunneth_pipeline

DEFAULT_PAIRS = [(3, 5), (3, 6), (2, 2), (2, 4), (4, 4), (2, 6), (4, 8)]


def run_pair(k: int, l: int) -> bool:
    """Solve one pair and match it with the table (kunneth_pipeline); the time covers both."""
    t0 = time.perf_counter()
    rep = kunneth_pipeline(f"O{k + 1}", f"O{l + 1}")
    sols, ok = rep.solutions, all(rep.matches_expected)
    elapsed = time.perf_counter() - t0
    print(f"== (k, l) = ({k}, {l})   [{elapsed:.2f}s]")
    if not sols:
        print("no consistent middle found")
        return False
    print(f"solutions: {len(sols)}   split: {sols[0].split}   matches table: {ok}")
    print(render_module(sols[0].middle))
    print()
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Recompute the product tables for pairs (k, l).")
    parser.add_argument("params", nargs="*", type=_at_least(1), metavar="K L",
                        help="pairs k l (default: the printed pairs)")
    try:
        args = parser.parse_args(argv).params
        if len(args) % 2:
            parser.error(f"expected pairs k l, got {len(args)} integers")
    except SystemExit as exc:  # a usage error, or --help
        return 2 if exc.code else 0
    pairs = list(zip(args[::2], args[1::2])) if args else DEFAULT_PAIRS
    bad = [p for p in pairs if not run_pair(*p)]
    if bad:
        print("MISMATCHED PAIRS:", bad)
        return 1
    print("all pairs reproduce their tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
