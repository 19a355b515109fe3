"""One workload repetition in a fresh interpreter.

    python3 perfbench/worker.py [--trace] [--setup-only] K,L [K,L ...]

Imports crtk from the checkout's `src/`, loads the base fixtures R, C, T
and prints `ready`; that is the set-up a CLI call pays.  Then runs, for
each pair in order, what `crtk kunneth O<k+1> O<l+1> --json` runs, and
prints one JSON line with the timings and the oracle's verdicts.  The
pairs share the process and its module-level caches, which start empty.
Times are raw: instants on the perf_counter clock, which the parent paces
(pace.py), and CPU and per-layer seconds.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_crtk():
    sys.path.insert(0, str(SRC))
    import crtk
    if Path(crtk.__file__).resolve().parent != SRC / "crtk":
        raise ImportError(f"crtk imported from {crtk.__file__}, not from {SRC}")
    from crtk import catalog, cli, kunneth
    return catalog, cli, kunneth


def run_pair(k, l, cli, kunneth, tracer):
    """The work of `crtk kunneth O<k+1> O<l+1> --json`, output discarded."""
    report = kunneth.kunneth_pipeline(f"O{k + 1}", f"O{l + 1}")
    with tracer.span("cli.render") if tracer else nullcontext():
        cli.render_module(report.tensor)
        cli.render_module(report.tor)
        if report.solutions:
            cli.render_module(report.solutions[0].middle)
            json.dumps(cli.module_to_json(report.solutions[0].middle), indent=1, sort_keys=True)
    return report


def main(argv: list[str]) -> int:
    trace = "--trace" in argv
    setup_only = "--setup-only" in argv
    pairs = [tuple(int(x) for x in a.split(",")) for a in argv if not a.startswith("--")]

    catalog, cli, kunneth = _import_crtk()
    for name in ("R", "C", "T"):
        catalog.catalog_entry(name)
    print("ready", flush=True)
    if setup_only:
        return 0

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer().install()

    outcomes, pair_t = [], []
    cpu0, t0 = process_time(), perf_counter()
    for k, l in pairs:
        p0 = perf_counter()
        try:
            outcomes.append(run_pair(k, l, cli, kunneth, tracer))
        except Exception as exc:  # a failing pair is counted; the run goes on
            traceback.print_exc()
            outcomes.append(exc)
        pair_t.append((p0, perf_counter()))
    t1 = perf_counter()
    cpu = process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers, absent = None, []
    if tracer:
        tracer.uninstall()
        kept = sum(len(o.solutions) for o in outcomes if not isinstance(o, BaseException))
        counts, seconds = tracer.layer_metrics(kept)
        layers, absent = {"counts": counts, "seconds": seconds}, tracer.absent

    from oracle import check_pair
    from workloads import split_flag
    failures = {}
    for (k, l), outcome in zip(pairs, outcomes):
        try:
            problems = check_pair(k, l, outcome, catalog.expected_product(k, l), split_flag(k, l))
        except Exception as exc:  # an oracle that cannot decide counts as a failure
            problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[f"{k},{l}"] = problems

    print(json.dumps({"t": (t0, t1), "cpu_s": cpu, "pair_t": pair_t,
                      "peak_rss_mb": peak_rss_mb, "failures": failures,
                      "layers": layers, "absent": absent}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
