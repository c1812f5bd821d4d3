"""A fixed piece of interpreter work that measures how fast the host runs now.

The benchmark's host is a shared virtual machine whose speed drifts by up to
1.6x, for a second or for tens of seconds at a time, in wall time and in
process CPU time alike. `chunk` is a fixed amount of work that does not touch
the package: pure-Python dict, list and integer work plus small numpy
products, the mix the package's code runs. A `Pacer` interrupts a round
every `TICK_S` with a timer signal and runs as many chunks as keep them at
`SHARE` of the round time, so that they sample the host's speed all through
the run; `run.py` scales the rounds' wall time, chunks excluded, by
``REFERENCE_CHUNK_S`` over the chunks' mean time. A slow spell of the host
slows the chunks as much as the rounds and cancels out, while a change to
the package moves the rounds and not the chunks.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

# Wall seconds of one chunk on the host the benchmark was tuned on (2-vCPU
# Intel Xeon guest, Python 3.11.7, numpy 2.4.6) at its usual speed. Scaled
# times are seconds of that host.
REFERENCE_CHUNK_S = 0.0035
SHARE = 0.08               # calibration time over round time
TICK_S = 0.05              # timer period of a `Pacer` during a round
WARM_UP = 500              # loop passes of the untimed chunk run first

_MATRIX = np.full((8, 8), 1 / 8)
_MASKS = (np.ones(8), np.full(8, 0.5))
_TABLE: dict[int, int] = {}
_ROWS = [0] * 6000


def chunk(n: int = len(_ROWS)) -> float:
    """One chunk: dict probes and updates, list writes, a sort and small
    numpy products over preallocated ints, with the cyclic garbage collector
    off, so that its time does not depend on the heap of the code it
    interrupts."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        table, rows = _TABLE, _ROWS
        v = _MASKS[0]
        acc = 0.0
        for i in range(n):
            key = i % 97 * 13 + i % 13
            table[key] = table.get(key, 0) + 1
            rows[i] = i * 7919 % 1000
            if i % 40 == 0:
                v = (v @ _MATRIX) * _MASKS[i // 40 % 2]
                acc += float(v.sum())
        rows.sort()
        return acc + len(table) + rows[n // 2]
    finally:
        if collecting:
            gc.enable()


class Pacer:
    """Splits a run's time into round time and calibration chunks.

    `start` opens a round and, with `timer`, arms a SIGALRM every `TICK_S`;
    the handler runs between two bytecodes of the round, wherever it is. Each
    tick, and `stop` at the end of the round, adds the time since the last
    one to `work` and then runs chunks until they make up `SHARE` of all the
    work so far. A round that waits on a subprocess runs without the timer,
    so that the chunks do not take a core from the child."""

    def __init__(self):
        self.work = 0.0        # wall seconds of the rounds, chunks excluded
        self.cal = 0.0         # wall seconds of the chunks
        self.chunks = 0
        self._mark: float | None = None
        self._busy = False
        signal.signal(signal.SIGALRM, lambda signum, frame: self._pace())

    def start(self, timer: bool):
        self._mark = time.perf_counter()
        if timer:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._pace()
        self._mark = None

    def _pace(self):
        if self._mark is None or self._busy:
            return
        self._busy = True
        self.work += time.perf_counter() - self._mark
        if self.cal < SHARE * self.work:
            chunk(WARM_UP)
        while self.cal < SHARE * self.work:
            start = time.perf_counter()
            chunk()
            self.cal += time.perf_counter() - start
            self.chunks += 1
        self._mark = time.perf_counter()
        self._busy = False

    def scale(self) -> float:
        """Factor from wall seconds to seconds of the host at its usual speed."""
        return REFERENCE_CHUNK_S * self.chunks / self.cal
