"""Drift-corrected timing in reference seconds.

On a shared 2-core x86_64 VM, CPU speed was measured to drift by up to 2x
within a fraction of a second, so a calibration loop run after an item does
not describe the item. ``Clock``
instead samples the speed *during* the timed work: a profiling timer
interrupts the work every ``SAMPLE_EVERY_S`` of CPU time and runs a small
numpy block, ``SAMPLE_WARM_OPS`` operations to refill the caches the work
evicted and then ``SAMPLE_OPS`` timed ones. The samples' whole time is taken
out of the measured time, and

    reference seconds = measured seconds x NOMINAL_CALIB_MS / calib_ms,

where ``calib_ms`` is the mean timed sample (dropping the fastest and
slowest tenth) scaled to a full calibration of ``CALIB_OPS`` operations.
Work too short to collect ``MIN_SAMPLES`` samples is corrected by a full
calibration run right after it.

In interleaved trials on single items, a calibration right after the item
left a quartile spread of 12-33 % (raw: 32-47 %); sampling without the
warm-up left 11-20 %, and sampling with it 3-12 %.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_CALIB_MS = 8.0   # reference duration of one calibration (CALIB_OPS operations)
CALIB_OPS = 640
SAMPLE_OPS = 20
SAMPLE_WARM_OPS = 10
SAMPLE_EVERY_S = 0.02
MIN_SAMPLES = 5

_X = np.linspace(0.1, 0.9, 3)
_M = np.array([[0.6, 0.8], [-0.8, 0.6]])


def _block(ops: int) -> float:
    acc = 0.0
    for _ in range(ops):
        v = np.cos(_X) * 0.5 + np.sin(_X)
        acc += float(np.trace(_M @ _M)) + float(v.sum())
    return acc


def calibrate() -> float:
    """One full calibration in ms: median of 8 blocks, scaled to CALIB_OPS."""
    times = []
    for _ in range(8):
        t0 = time.perf_counter()
        _block(CALIB_OPS // 8)
        times.append(time.perf_counter() - t0)
    return 1000.0 * 8 * statistics.median(times)


class Clock:
    """Context manager timing its body; sets ``raw_s``, ``calib_ms``, ``ref_s``.

    ``on_sample(seconds)`` is told the length of each sample, so that a tracer
    can keep sample time out of the span it interrupted.
    """

    def __init__(self, on_sample=None):
        self._on_sample = on_sample
        self.samples: list[float] = []
        self.sampled_s = 0.0
        self.raw_s = self.calib_ms = self.ref_s = float("nan")

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _block(SAMPLE_WARM_OPS)
        t1 = time.perf_counter()
        _block(SAMPLE_OPS)
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.sampled_s += t2 - t0
        if self._on_sample is not None:
            self._on_sample(t2 - t0)

    def __enter__(self):
        self.samples, self.sampled_s = [], 0.0
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self.raw_s = t1 - self._t0 - self.sampled_s
        if len(self.samples) >= MIN_SAMPLES:
            kept = sorted(self.samples)
            cut = len(kept) // 10
            kept = kept[cut:len(kept) - cut]
            self.calib_ms = 1000.0 * statistics.fmean(kept) * CALIB_OPS / SAMPLE_OPS
        else:
            self.calib_ms = calibrate()
        self.ref_s = self.raw_s * NOMINAL_CALIB_MS / self.calib_ms
        return False
