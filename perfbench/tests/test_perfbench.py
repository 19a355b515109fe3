"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

The traced-count test runs the two heavy workloads twice each and takes
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from oracle import check_pair  # noqa: E402
from pace import NOMINAL_S, PaceTrack  # noqa: E402
from workloads import WORKLOADS, split_flag  # noqa: E402

from crtk.catalog import expected_product  # noqa: E402
from crtk.kunneth import kunneth_pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer counts at the commit that introduced the benchmark, identified
# by the digest of src/crtk that run.py records as source_sha256.
SEED_SOURCE = "48f26ca7e13f458d269c8322f2deb0cfb1f75b376f4718d49520c15f0b5b00ab"
SEED_COUNTS = {
    "nonsplit_4_4": {"kunneth.raw_solutions": 128, "kunneth.kept_solutions": 1},
    "ext_gcd5": {"kunneth.raw_solutions": 15, "kunneth.kept_solutions": 3},
}


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    result, _ = run.measure([(3, 5)], seconds=0, trace=trace)
    out = run.named_metrics(result, trace)
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_oracle_accepts_the_table_and_rejects_a_wrong_one():
    report = kunneth_pipeline("O3", "O3")
    assert check_pair(2, 2, report, expected_product(2, 2), split_flag(2, 2)) == []
    assert check_pair(2, 2, report, expected_product(2, 4), split_flag(2, 2))
    assert check_pair(2, 2, report, expected_product(2, 2), not split_flag(2, 2))
    assert check_pair(2, 2, RuntimeError("boom"), expected_product(2, 2), split_flag(2, 2))
    report.solutions = report.solutions * 2
    assert check_pair(2, 2, report, expected_product(2, 2), split_flag(2, 2))


def test_paced_time_leaves_out_the_pacer_and_follows_its_factor():
    # The pace loop ran at nominal speed at 0 s and at half speed at 1 s.
    track = PaceTrack([(1.0, 1.1, 2 * NOMINAL_S), (0.0, 0.1, NOMINAL_S)])
    assert track.paced(0.1, 1.0) == pytest.approx(0.9)
    assert track.paced(1.1, 2.1) == pytest.approx(0.5)
    assert track.paced(0.5, 1.6) == pytest.approx(0.5 + 0.25)
    assert track.factor(0.5, 1.6) == pytest.approx(0.75 / 1.0)
    assert track.paced(1.02, 1.08) == 0.0


def test_the_pacer_samples_until_stopped():
    with run._pacer() as samples:
        subprocess.run([sys.executable, "-c", "import time; time.sleep(0.5)"], check=True)
    assert len(samples) >= 3
    assert all(start < end and loop_s > 0 for start, end, loop_s in samples)


def test_a_removed_function_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.WRAPPED, "zlinalg",
                        tracing.WRAPPED["zlinalg"] + ("no_such_function",))
    tracer = tracing.Tracer().install()
    try:
        kunneth_pipeline("O4", "O6")
    finally:
        tracer.uninstall()
    assert tracer.absent == ["zlinalg.no_such_function"]
    counts, seconds = tracer.layer_metrics(kept_solutions=1)
    assert counts["kunneth.raw_solutions"] >= 1
    assert seconds["kunneth.solve_middle_s"] > 0


@pytest.mark.parametrize("workload", sorted(SEED_COUNTS))
def test_traced_counts_repeat(workload):
    pairs = WORKLOADS[workload]
    counts = [run.run_repetition(pairs, traced=True, timeout=170)[1]["layers"]["counts"]
              for _ in range(2)]
    assert counts[0] == counts[1]
    if run.source_digest() == SEED_SOURCE:
        for name, value in SEED_COUNTS[workload].items():
            assert counts[0][name] == value, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ext_gcd5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
