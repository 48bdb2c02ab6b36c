"""Time a fixed piece of reference work, in a fresh interpreter of its own.

    python3 perfbench/calibrate.py

Prints the CPU seconds the work took (see ``calibrate``).  run.py runs this
before the first repetition of a run and after each one, with the same BLAS
pin, and scales the run's CPU times toward a reference speed by the median
of its readings (see run.scale_to_reference): on a shared host the machine's
speed drifts by tens of percent over minutes, and the readings follow it.  The work is a mix of the kinds of work the library
does: dense LAPACK at two sizes, a transcendental and a copy pass over
arrays larger than the cache, and interpreter work.  It runs in its own
process so that it leaves the repetitions' memory and allocator state alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def work(rng):
    a = rng.standard_normal((256, 256))
    a = a + a.T
    c = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    c = c + c.conj().T
    big = rng.standard_normal(2 << 20)
    start = time.process_time()
    for _ in range(7):
        np.linalg.eigh(a)
    for _ in range(70):
        np.linalg.eigh(c)
    for _ in range(2):
        np.cos(big)
    for _ in range(5):
        big = big[::-1] + 1.0
    acc = 0
    for i in range(350_000):
        acc += i * i % 7
    return time.process_time() - start


def calibrate():
    """Three times the median CPU seconds of three slices of the work.

    The median keeps one slice hit by a passing interruption from moving the
    reading.
    """
    rng = np.random.default_rng(20240317)
    work(rng)  # warm-up: first LAPACK calls, first large allocations
    return 3 * statistics.median(work(rng) for _ in range(3))


if __name__ == "__main__":
    print(repr(calibrate()))
