"""How fast the machine runs while a job is timed, from a fixed calibration kernel.

The host these benchmarks run on changes speed by up to 1.5x for seconds
to minutes at a time, for every kind of code alike. A ``Stopwatch`` times
a block and, while the block runs, samples the machine's speed: it runs
``calibrate`` (a fixed mix of interpreter, FFT, dense and small-array NumPy
work that calls nothing in bergex) once before and after the block and,
from a ``SIGALRM`` timer, every ``INTERVAL`` seconds inside it. The time
the samples take is subtracted from the block's time.

``seconds / speed`` is then the block's time in calibration units, which a
slow spell of the host moves much less than ``seconds``; times
``REFERENCE_S`` it reads as seconds on the reference machine. A change to
bergex moves the block's time and not the calibration, so it shows in full.

Sampling is off until ``enable`` is called, so a traced run's spans do not
contain calibration work.
"""

import signal
from time import perf_counter

import numpy as np

INTERVAL = 0.05      # seconds between samples inside a block
# ``calibrate`` on the reference machine (2 Xeon vCPUs under KVM, Python
# 3.11, NumPy 2.4, OpenBLAS on one thread) in a fast spell; a fixed scale.
REFERENCE_S = 0.002

_rng = np.random.default_rng(0)
_SIGNAL = _rng.standard_normal(2048) + 1j * _rng.standard_normal(2048)
_MATRIX = _rng.standard_normal((256, 256))
_VECTOR = _rng.standard_normal(256)
_SMALL = _rng.standard_normal(16)

_enabled = False
_active = None       # the Stopwatch whose block is running


def calibrate():
    """Seconds one fixed piece of work takes right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i
    for _ in range(4):
        np.fft.ifft(np.fft.fft(_SIGNAL) * np.fft.fft(_SIGNAL))
    for _ in range(6):
        # a rank-one update that leaves the matrix as it was
        v = _MATRIX @ _VECTOR
        _MATRIX[:] += np.outer(v, _VECTOR) * 0.0
    for _ in range(300):
        (_SMALL * _SMALL).sum()
    return perf_counter() - t0


def _sample(signum, frame):
    watch = _active
    if watch is None:
        return
    t0 = perf_counter()
    watch.samples.append(calibrate())
    watch.sampling += perf_counter() - t0


def enable():
    """Sample speed in every Stopwatch from now on."""
    global _enabled
    signal.signal(signal.SIGALRM, _sample)
    _enabled = True


class Stopwatch:
    """Times a block; ``seconds`` excludes the samples, ``speed`` is their mean.

    ``speed`` is None when sampling is off.
    """

    def __init__(self):
        self.seconds = None
        self.samples = []
        self.sampling = 0.0

    @property
    def speed(self):
        return sum(self.samples) / len(self.samples) if self.samples else None

    def __enter__(self):
        global _active
        if _enabled:
            self.samples.append(min(calibrate(), calibrate()))
            _active = self
        self._t0 = perf_counter()
        if _enabled:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        global _active
        if _enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.seconds = perf_counter() - self._t0 - self.sampling
        if _enabled:
            _active = None
            self.samples.append(min(calibrate(), calibrate()))
        return False
