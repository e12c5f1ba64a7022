"""Operation timing scaled by the host's speed, measured next to each operation.

On a shared host the CPU runs at full speed for a while and then, for seconds
to minutes, at about half of it; a run can lie wholly in a slow spell.  So
the benchmark times a fixed reference kernel, which does not use gmspec,
before and after the operations it measures, and reports each operation's
time scaled by REF_S over the mean of the two reference times around it:

    scaled = measured * REF_S / mean(reference before, reference after)

REF_S is the reference kernel's time when the host runs at full speed, so a
scaled time is the operation's wall time at that speed.  A change to gmspec
changes the measured time and not the reference, and shows in full.
"""

from __future__ import annotations

import gc
import time

# Seconds the reference kernel takes on the host the benchmark was written
# on (Intel Xeon, 2 vCPUs, CPython 3.11.7) at full speed: the fastest of
# several hundred calls.
REF_S = 0.0034

# Operations shorter than this share the reference times around them.
INTERVAL_S = 0.05


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds gmspec does: multi-limb integer
    arithmetic, dict updates, str conversion, sorting."""
    x, acc = 3, 0
    table: dict[int, int] = {}
    for i in range(1, 3600):
        x = (x * x + i) % (1 << 192)
        q, r = divmod(x, 2 * i + 1)
        g = (q ^ r) & 0xFFFF
        table[g % 211] = table.get(g % 211, 0) + i
        acc += len(str(r))
    return acc + sum(sorted(table.values())[:50])


def reference_time() -> float:
    """Seconds one reference kernel call takes now.  The collector is off
    while it runs, so the size of gmspec's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(measured: float, before: float, after: float) -> float:
    return measured * REF_S * 2 / (before + after)


class Meter:
    """Times the operations of one pass.

    `time(fn)` runs one operation and records its duration.  With
    `calibrate`, a reference time is taken when the pass starts, after any
    operation that ends INTERVAL_S or more after the last one, and when the
    pass ends; `latencies()` then gives each operation scaled by the
    reference times around it.  Without it (traced runs, whose self times
    must add up to the pass time) the raw durations are returned.
    """

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self._raw: list[float] = []
        self._ref_index: list[int] = []  # reference taken before each operation
        self._refs: list[float] = []
        self._last = 0.0
        if calibrate:
            self._reference()

    def _reference(self) -> None:
        self._refs.append(reference_time())
        self._last = time.perf_counter()

    def time(self, fn, *args):
        clock = time.perf_counter
        t0 = clock()
        try:
            return fn(*args)
        finally:
            t1 = clock()
            self._raw.append(t1 - t0)
            self._ref_index.append(len(self._refs) - 1)
            if self.calibrate and t1 - self._last >= INTERVAL_S:
                self._reference()

    def latencies(self) -> list[float]:
        """Per operation, in order: scaled seconds, or raw without calibration."""
        if not self.calibrate:
            return list(self._raw)
        if self._ref_index and self._ref_index[-1] == len(self._refs) - 1:
            self._reference()
        refs = self._refs
        return [scale(dt, refs[i], refs[i + 1]) for dt, i in zip(self._raw, self._ref_index)]
