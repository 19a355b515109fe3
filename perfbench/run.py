#!/usr/bin/env python3
"""Benchmark of the crtk Kunneth pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A closed loop with one caller: each
workload repetition runs the workload's pairs one after another in a fresh
interpreter (perfbench/worker.py), and repetitions follow each other until
the next one, as slow as the slowest so far, would end after S seconds;
there is always at least one, and a traced run always has one untraced
and one traced repetition.  The seed only fixes the order of the pairs.
Every pair is checked by the oracle.
All times are paced seconds (perfbench/pace.py): a pacer process on the
workers' CPU measures the host's speed while they run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics listed in
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.  The
line before it records the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from hashlib import sha256
from pathlib import Path
from time import perf_counter

from pace import PaceTrack
from workloads import WORKLOADS, pairs_for

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
PACER = Path(__file__).resolve().parent / "pace.py"

# Set-up samples per run, taken after one discarded warm-up.
SETUP_SAMPLES = 5
# Every child must end before the run reaches this many seconds.
HARD_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _child(args: list, **kwargs) -> subprocess.Popen:
    """Start a Python child on the benchmark's CPU: the pacer must measure
    the CPU the workers run on.  A fixed hash seed makes set and dict
    orders, and so the work, repeat."""
    cpu = min(os.sched_getaffinity(0))
    return subprocess.Popen([sys.executable, *map(str, args)], cwd=ROOT,
                            env={**os.environ, "PYTHONHASHSEED": "0"}, text=True,
                            preexec_fn=functools.partial(os.sched_setaffinity, 0, {cpu}),
                            **kwargs)


@contextmanager
def _pacer():
    """Run the pacer for the duration of the block; its samples are in the
    yielded list after the block."""
    proc = _child([PACER], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    samples: list = []
    try:
        yield samples
    finally:
        try:
            out, _ = proc.communicate(input="", timeout=10)
        except subprocess.TimeoutExpired:
            out = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if out is None or proc.returncode != 0:
            raise ChildFailed(f"pacer exited with code {proc.returncode}")
        samples.extend(json.loads(out))


def _spawn(args: list[str], timeout: float) -> tuple[tuple[float, float], str]:
    """Start a worker; return the instants of its start and of its set-up's
    end, and the rest of its output."""
    t0 = perf_counter()
    proc = _child([WORKER, *args], stdout=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        ready = perf_counter()
        rest, _ = proc.communicate(timeout=max(1.0, timeout - (perf_counter() - t0)))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker {args[:3]} did not finish in {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"worker {args[:3]} exited with code {proc.returncode}")
    return (t0, ready), rest


def run_repetition(pairs: list[tuple[int, int]], traced: bool,
                   timeout: float) -> tuple[tuple[float, float], dict]:
    """One repetition of the pair list in a fresh interpreter: (instants of
    its start and of its set-up's end, record with raw times)."""
    args = (["--trace"] if traced else []) + [f"{k},{l}" for k, l in pairs]
    setup, out = _spawn(args, timeout)
    rep = json.loads(out.strip().splitlines()[-1])
    rep["traced"] = traced
    return setup, rep


def _pace(rep: dict, track: PaceTrack) -> dict:
    """The repetition's times in paced seconds."""
    factor = track.factor(*rep["t"])
    layers = rep["layers"] and {
        "counts": rep["layers"]["counts"],
        "seconds": {k: v * factor for k, v in rep["layers"]["seconds"].items()}}
    return {**rep, "wall_s": track.paced(*rep["t"]), "cpu_s": rep["cpu_s"] * factor,
            "pair_s": [track.paced(a, b) for a, b in rep["pair_t"]],
            "raw_wall_s": rep["t"][1] - rep["t"][0], "layers": layers}


def _tail(samples: list[float]) -> float:
    """The highest sample with at least ten beyond it; the slowest of ten or fewer."""
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def _environment(args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "python": platform.python_version(),
            "commit": _git_head(), "source_sha256": source_digest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def source_digest() -> str:
    """SHA-256 over the paths and bytes of the files under src/crtk."""
    digest = sha256()
    for path in sorted((ROOT / "src" / "crtk").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_head() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(pairs: list[tuple[int, int]], seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the pair list; return the result object and the record of samples."""
    start = perf_counter()

    def left() -> float:
        return HARD_LIMIT_S - (perf_counter() - start)

    with _pacer() as pace_samples:
        _spawn(["--setup-only"], left())
        setups = [_spawn(["--setup-only"], left())[0] for _ in range(SETUP_SAMPLES)]
        reps, durations = [], []
        while True:
            r0 = perf_counter()
            setup, rep = run_repetition(pairs, traced=trace and bool(reps), timeout=left())
            durations.append(perf_counter() - r0)
            setups.append(setup)
            reps.append(rep)
            if trace and len(reps) < 2:
                continue
            if perf_counter() - start + max(durations) > seconds:
                break
    track = PaceTrack(pace_samples)
    reps = [_pace(rep, track) for rep in reps]
    setup_s = [track.paced(*setup) for setup in setups]

    attempted = len(pairs) * len(reps)
    failures = [f for rep in reps for f in rep["failures"].items()]
    plain = [r for r in reps if not r["traced"]]
    correct = not failures
    if trace:
        metrics, counts_agree = _layer_metrics([r for r in reps if r["traced"]], plain)
        correct = correct and counts_agree
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "pair_p50_s": statistics.median(statistics.median(r["pair_s"]) for r in plain),
            "pair_tail_s": statistics.median(_tail(r["pair_s"]) for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "pass_rate": 1 - len(failures) / attempted,
        }
    record = {"pairs": pairs, "repetitions": len(reps), "setup_samples": setup_s,
              "raw_setup_samples": [b - a for a, b in setups],
              "wall_samples": [r["wall_s"] for r in reps],
              "raw_wall_samples": [r["raw_wall_s"] for r in reps],
              "pace_samples": len(pace_samples),
              "pace_loop_median_s": statistics.median(d for _, _, d in pace_samples),
              "traced": [r["traced"] for r in reps],
              "failures": failures,
              "absent": sorted({a for r in reps for a in r["absent"]}),
              "elapsed_s": perf_counter() - start}
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}, record


def named_metrics(result: dict, trace: bool) -> dict:
    """The result with the metrics BENCHMARK.json lists for the mode, with units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    values = result["metrics"]
    return {**result, "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in listed}}


def _layer_metrics(traced: list[dict], plain: list[dict]) -> tuple[dict, bool]:
    """Counts of the first traced repetition, which the others must repeat
    exactly, and medians of times over the traced repetitions."""
    counts = [r["layers"]["counts"] for r in traced]
    agree = all(c == counts[0] for c in counts)
    if not agree:
        print("per-layer counts differ between traced repetitions", file=sys.stderr)
    out = dict(counts[0])
    for name in traced[0]["layers"]["seconds"]:
        out[name] = statistics.median(r["layers"]["seconds"][name] for r in traced)
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out, agree


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn termination into an exception, so that a running worker is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "crtk" / "__init__.py").is_file():
        print(f"error: no crtk sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result, record = measure(pairs_for(args.workload, args.seed), args.seconds,
                                 bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": _environment(args), "samples": record}))
    print(json.dumps(named_metrics(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
