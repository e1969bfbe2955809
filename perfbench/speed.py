"""Host-speed calibration: report times at a fixed reference speed.

On a shared host the CPU's speed drifts, by up to 2x over seconds to minutes,
and every timing taken during a slow spell is longer.  Drift that slow moves
the median of a whole run, so no estimator over one run's raw timings can
remove it.  The benchmark therefore runs a fixed reference kernel (pure
Python dict and string work, JSON parsing and small numpy products, the mix
desksearch's own code is made of) from a SIGALRM handler every INTERVAL_S of
the run, in the middle of the work it measures, and rescales each measured
interval by how long the kernel took during and around it:

    scaled time = (wall time - kernel time inside it) * REFERENCE_MS
                  / (median kernel time near the interval)

A scaled time is the time the work would take on a host where the kernel
takes REFERENCE_MS.  The kernel is benchmark code: no change to desksearch
changes how long it takes, unless the change keeps the CPU busy outside the
calls that are timed.
"""

from __future__ import annotations

import bisect
import json
import random
import re
import signal
import statistics
import time

import numpy as np

# About the timed kernel's time in the middle of a run on a 2-core Intel Xeon
# host.  Any fixed value works; this one keeps scaled times near wall times.
REFERENCE_MS = 1.5
INTERVAL_S = 0.05  # one kernel sample this often
NEAR_S = 0.25  # kernel samples this close to an interval describe its speed
MIN_SAMPLES = 9  # else take the nearest this many

_rng = random.Random(0)
_WORDS = [f"w{n}" for n in range(500)]
_TEXT = " ".join(_rng.choices(_WORDS, k=500))
_TABLE = {f"t{n}x": n for n in range(2000)}
_LOOKUPS = _rng.choices(sorted(_TABLE), k=500)
_SCORES = [_rng.random() for _ in range(500)]
_BLOB = json.dumps({w: [n, n * 0.5, w] for n, w in enumerate(_WORDS)})
_TOKEN = re.compile(r"[^\W_]+")
_gen = np.random.default_rng(0)
_ROWS = _gen.standard_normal((500, 64))
_SEQ = _gen.standard_normal((12, 64))
_W = _gen.standard_normal((64, 64)) / 8
_EVICT = np.ones(4 * 2**20 // 8)  # 4 MB: twice a core's L2 cache


def kernel() -> None:
    """About 1 ms of fixed work on one thread, shaped like desksearch's:
    tokenising and counting, dict lookups, sorting scored pairs, JSON
    parsing, a row scan and small matrix products (einsum and products too
    small for the BLAS library to use threads).  Its data takes a few
    hundred KB."""
    counts: dict[str, int] = {}
    for token in _TOKEN.findall(_TEXT):
        counts[token] = counts.get(token, 0) + 1
    sum(_TABLE[key] for key in _LOOKUPS)
    sorted((-score, n) for n, score in enumerate(_SCORES))
    json.loads(_BLOB)
    np.einsum("ij,j->i", _ROWS, _SEQ[0])
    x = _SEQ
    for _ in range(2):
        x = np.tanh(x @ _W) @ _W.T + x
        x = x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True))


class SpeedMeter:
    """Kernel timings along the run, and the scale factor for any interval.

    Use it as a context manager: the timer runs inside the ``with`` block.
    Set ``paused`` to skip samples, for example while spans are recorded.
    """

    def __init__(self) -> None:
        self.mids: list[float] = []  # perf_counter at each sample's midpoint
        self.seconds: list[float] = []
        self.busy = 0.0  # wall time spent in the kernel so far
        self.paused = False
        self._previous_handler = None

    def __enter__(self) -> SpeedMeter:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _on_alarm(self, _signum, _frame) -> None:
        if not self.paused:
            self.paused = True  # no nested sample if the next alarm comes early
            try:
                self.sample()
            finally:
                self.paused = False

    def sample(self) -> None:
        """Time the kernel from the same cache state every time, whatever
        ran before it: one untimed run brings its data into the caches, and
        reading a 4 MB buffer then pushes it out of L2 into L3.  The timed
        run so measures the core and the shared L3, as desksearch's own work
        meets them, and not how much of the kernel's data desksearch's code
        happened to leave in cache."""
        begin = time.perf_counter()
        kernel()
        _EVICT.sum()
        start = time.perf_counter()
        kernel()
        stop = time.perf_counter()
        self.mids.append((start + stop) / 2)
        self.seconds.append(stop - start)
        self.busy += stop - begin

    def factor(self, start: float, stop: float) -> float:
        """REFERENCE_MS over the median kernel time near [start, stop]."""
        lo = bisect.bisect_left(self.mids, start - NEAR_S)
        hi = bisect.bisect_right(self.mids, stop + NEAR_S)
        if hi - lo < MIN_SAMPLES:
            centre = bisect.bisect_left(self.mids, (start + stop) / 2)
            lo = max(0, min(centre - MIN_SAMPLES // 2, len(self.mids) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REFERENCE_MS / 1e3 / statistics.median(self.seconds[lo:hi])

    def run_factor(self) -> float:
        """The factor for the whole run, for per-layer times."""
        return REFERENCE_MS / 1e3 / statistics.median(self.seconds)
