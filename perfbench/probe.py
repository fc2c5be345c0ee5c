"""Machine-speed probe that converts raw times to nominal times.

On a shared VM the interpreter's speed swings by up to 1.9x, on scales
from tens of milliseconds to minutes, and every raw time swings with it.
While a run measures, an interval timer interrupts the process every
PROBE_EVERY_S seconds of wall time, and the handler times a small fixed
pure-Python computation that calls nothing in leecodes.  The handler
runs between bytecodes, so it samples the speed during a long library
call as well as between calls.  An operation's time, minus the probe
time spent inside it, is converted with the median probe time around it:

    nominal = (raw - probe time inside) x NOMINAL_PROBE_NS / median probe time

NOMINAL_PROBE_NS is the probe's typical time on the 2-vCPU VM the
benchmark was built on (CPython 3.11.7), so nominal and raw times agree
there on a quiet minute.

The probe shares the process with leecodes, so a change to leecodes
could move it through the garbage collector or the caches.  The
collector is switched off while the probe runs, so no collection that
leecodes' objects call for lands in a probe, and the median keeps a
probe that stalled once from scaling an operation.  perfbench/README.md
gives control runs in which leecodes was made slower, and its heap and
working set larger, and nominal times moved by the same ratio as raw
ones.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from array import array

PROBE_EVERY_S = 0.01
NOMINAL_PROBE_NS = 300_000
MIN_PROBES = 5  # a short operation is converted with at least this many probes

_RNG = random.Random(7)
_COLUMNS = tuple(tuple(_RNG.randrange(1000) for _ in range(200)) for _ in range(4))
_WORD = tuple(_RNG.randrange(-500, 500) for _ in range(200))


def _reference():
    acc = 0
    for _ in range(3):
        acc += sum(sum(x * g for x, g in zip(_WORD, col)) % 997 for col in _COLUMNS)
        seen = {}
        for i, x in enumerate(_WORD):
            seen[x] = seen.get(x, 0) + i
        acc += len(seen)
    return acc


class Probe:
    def __init__(self):
        self.at = array("q")  # start of each probe, ns
        self.took = array("q")  # duration of each probe, ns
        self.spent = 0  # total ns spent probing

    def _tick(self, _signum, _frame):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter_ns()
        _reference()
        took = time.perf_counter_ns() - start
        if enabled:
            gc.enable()
        self.at.append(start)
        self.took.append(took)
        self.spent += took

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def median_around(self, start, end):
        """Median probe time in [start, end], widened to hold MIN_PROBES probes."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.at))
        return statistics.median(self.took[lo:hi])

    def nominal(self, raw, start, end):
        return raw * NOMINAL_PROBE_NS / self.median_around(start, end)

    def scale(self):
        """Run-wide raw-to-nominal factor."""
        return NOMINAL_PROBE_NS / statistics.median(self.took)
