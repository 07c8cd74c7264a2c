"""Wall times scaled to a fixed reference speed.

On a shared virtual machine the speed of the processor drifts: the same work
runs up to 1.5x slower for seconds to minutes at a time, when other guests
are busy. A median over one run cannot average that out, so raw wall times
of two runs of the same code can differ by more than any useful bound.

The benchmark therefore runs a fixed reference loop a few times just before
and just after every timed step, and scales the step's wall time by how fast
the loop ran there:

    scaled = wall * NOMINAL_S / median(LOOPS loops before, LOOPS loops after)

The median, not the mean, because a single 40-ms loop is sometimes stalled
for tens of milliseconds; a step of a second absorbs such stalls, a loop
does not.

``NOMINAL_S`` is a constant: the loop's typical time on the machine the
benchmark was written on (a 2-vCPU Intel Xeon at 2.1 GHz). A scaled time is
thus the step's time in seconds at that machine's typical speed. The loop is
benchmark code, so a change to emodel moves the scaled time exactly as much
as it moves the work itself. The loop is plain Python with dicts, floats and
a sort, plus one numpy reduction, like the mix of work in emodel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.045
ITEMS = 80_000
LOOPS = 3
WARM_UP = 5


def reference_work() -> float:
    table = {}
    for i in range(ITEMS):
        table[(i % 977, i)] = i * 1.0001
    values = sorted(table.values(), reverse=True)
    return float(np.asarray(values).sum()) + sum(values[::3])


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class ReferenceClock:
    """Scales each timed step by the reference loops run on either side of it.

    Call ``mark`` right before a step that does not directly follow a scaled
    one, and ``scale`` right after every step; the loops run by ``scale``
    also serve as the "before" of the next step.
    """

    def __init__(self) -> None:
        for _ in range(WARM_UP):  # the first loops of a process run slow
            reference_work()
        self.references: list[float] = []
        self.mark()

    def mark(self) -> None:
        self._last = [reference_seconds() for _ in range(LOOPS)]
        self.references += self._last

    def scale(self, seconds: float) -> float:
        before = self._last
        self.mark()
        return seconds * NOMINAL_S / statistics.median(before + self._last)
