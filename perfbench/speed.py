"""Host-speed calibration: durations scaled to a reference speed.

The benchmark runs on a few cores of a shared host, which runs in slow and
fast stretches lasting seconds to minutes. In a slow stretch all code slows,
its CPU time as much as its wall time, by up to 2x; a run's median moves
with the stretches it happens to meet. So the benchmark times a fixed
calibration loop between blocks of measured work and reports every
end-to-end duration scaled to reference speed: ``duration * REFERENCE_NS /
loop time``, with the loop time the mean of the timings just before and just
after the block. A slower program is slower at any host speed; a slow
stretch slows the loop as well and drops out of the ratio.

The host does not slow all code alike. Over 15-second stretches whose
wall-clock medians had a quartile spread of 20-40%, scaling by integer
arithmetic in the interpreter loop alone, or by work on short strings in a
dict alone, left some of rootsearch's calls with a spread of 2% and others
with 12%. The loop does half of each, which left every one of them (whole
run-eval processes and each engine call) within 7%.

The loop takes about ``REFERENCE_NS`` on a 2-vCPU sandbox of a shared host
in its fast stretches, so scaled times read close to wall-clock times there.
The raw wall-clock figures go into the run metadata beside the scaled ones.
"""
from __future__ import annotations

from time import perf_counter_ns as clock

REFERENCE_NS = 1_000_000
REPEATS = 3


def calibration_loop() -> int:
    total = 0
    for i in range(6_000):
        total += i * i % 7
    table: dict[str, int] = {}
    for i in range(1_200):
        key = str(i * 7919 % 10007)
        table[key] = table.get(key, 0) + i
    return total + sum(len(key) for key in sorted(table, key=len)[::3])


def time_loop() -> int:
    """Fastest of ``REPEATS`` timings of the loop, in ns: an interrupt
    lengthens one timing, a slow stretch all of them."""
    best = 0
    for _ in range(REPEATS):
        start = clock()
        calibration_loop()
        elapsed = clock() - start
        best = elapsed if not best else min(best, elapsed)
    return best


class Calibration:
    """Loop timings taken between blocks of measured work.

    ``close()`` after a block times the loop again; ``factor()`` then scales
    the block's durations to reference speed, from the mean of the timings
    before and after the block.
    """

    def __init__(self) -> None:
        self.timings: list[int] = [time_loop()]

    def close(self) -> None:
        """End a block: time the loop again."""
        self.timings.append(time_loop())

    def factor(self) -> float:
        """Scale of the block just closed."""
        before, after = self.timings[-2:]
        return 2 * REFERENCE_NS / (before + after)
