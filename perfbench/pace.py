"""Host-speed correction ("pacing") for timings on a shared host.

    python3 perfbench/pace.py      # the pacer; see pacer_main()

On a shared host the speed of a vCPU swings by up to 1.6x over periods of
seconds to minutes (other tenants contend for the core; steal time stays
near 0), so raw wall times of the same code spread by a quarter between
runs.  Pacing corrects for that.  A pacer process, pinned to the same CPU
as the program it paces, wakes every PERIOD_S seconds and times a fixed
pure-Python workload, the pace loop.  Between two of its samples the
program's time is converted to *paced seconds* at the speed factor
NOMINAL_S / (measured loop time) of the earlier sample; the time the pacer
itself runs is left out.  A paced second is the time the program would
take on a host where the pace loop takes NOMINAL_S.

The pace loop is the benchmark's own code and runs in its own process: a
change to crtk can make it neither faster nor slower, so pacing corrects
for the host only and leaves every change of the program's speed in the
paced times.  (Timing the loop inside the paced program, from a signal
handler, made its speed depend on what the program was doing when the
signal came.)
"""

from __future__ import annotations

import gc
import json
import select
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import gcd
from time import perf_counter

PERIOD_S = 0.05
# Time of one pace loop at the reference pace (about the usual pace of the
# 2-vCPU Intel Xeon host the benchmark was written on).
NOMINAL_S = 300e-6


@dataclass(frozen=True)
class _Matrix:
    """A small integer matrix in the style of crtk's: frozen, validated,
    tuples of tuples."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged matrix")

    def __mul__(self, other: "_Matrix") -> "_Matrix":
        cols = tuple(zip(*other.entries))
        return _Matrix(self.rows, other.cols,
                       tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                             for row in self.entries))


_BASE = _Matrix(4, 4, ((2, 0, 1, 3), (1, 4, 0, 2), (0, 1, 6, 1), (3, 2, 1, 4)))


def _pace_loop() -> int:
    """A fixed mix of the interpreter work crtk does: integer arithmetic in
    a loop, and products, reductions and hashing of small matrices."""
    s = 0
    for i in range(2000):
        s += (i * i) % 7
    m = _BASE
    for _ in range(6):
        m = m * _BASE
        m = _Matrix(4, 4, tuple(tuple(v % 101 for v in row) for row in m.entries))
    rows = [list(row) for row in m.entries]
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = rows[i][i], rows[j][i]
            g = gcd(a, b) or 1
            rows[j] = [(a // g) * u - (b // g) * v for u, v in zip(rows[j], rows[i])]
    seen: dict[tuple, int] = {}
    for row in rows:
        seen[tuple(row)] = seen.get(tuple(row), 0) + s
    return len(seen)


def pace_loop_seconds() -> float:
    """The faster of two timed pace loops; the slower one may have been hit
    by an interrupt or have started with cold caches."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        _pace_loop()
        best = min(best, perf_counter() - t0)
    return best


def pacer_main() -> int:
    """Sample the pace every PERIOD_S seconds until standard input closes,
    then print the samples as one JSON list of [start, end, loop seconds],
    with start and end on the perf_counter clock, which all processes of
    the host share."""
    gc.disable()                       # the loop's few objects die young
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        t0 = perf_counter()
        loop_s = pace_loop_seconds()
        samples.append((t0, perf_counter(), loop_s))
    json.dump(samples, sys.stdout)
    return 0


class PaceTrack:
    """Paced time of intervals on the perf_counter clock, from pacer samples."""

    def __init__(self, samples: list):
        if not samples:
            raise ValueError("no pace samples")
        samples = sorted(samples)
        self._starts = [s for s, _, _ in samples]
        self._ends = [e for _, e, _ in samples]
        self._factors = [NOMINAL_S / d for _, _, d in samples]
        # Program time between the end of sample i and the start of sample
        # i + 1, raw and paced; prefix sums give both clocks at each end.
        gaps = [max(0.0, s - e) for s, e in zip(self._starts[1:], self._ends)]
        self._raw_at = [0.0, *accumulate(gaps)]
        self._paced_at = [0.0, *accumulate(g * f for g, f in zip(gaps, self._factors))]

    def _clocks(self, t: float) -> tuple[float, float]:
        """(raw, paced) program time from the end of the first sample to t."""
        i = bisect_right(self._ends, t) - 1
        if i < 0:                      # before the first sample ends
            ran = min(0.0, t - self._starts[0])
            return ran, ran * self._factors[0]
        nxt = self._starts[i + 1] if i + 1 < len(self._starts) else float("inf")
        ran = min(t, nxt) - self._ends[i]
        return self._raw_at[i] + ran, self._paced_at[i] + ran * self._factors[i]

    def paced(self, a: float, b: float) -> float:
        """Paced seconds of program time in [a, b]."""
        return self._clocks(b)[1] - self._clocks(a)[1]

    def factor(self, a: float, b: float) -> float:
        """Mean speed factor of the program time in [a, b]."""
        (raw_a, paced_a), (raw_b, paced_b) = self._clocks(a), self._clocks(b)
        return (paced_b - paced_a) / (raw_b - raw_a)


if __name__ == "__main__":
    sys.exit(pacer_main())
