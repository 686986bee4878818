"""Calibrated CPU time.

Other tenants of a shared machine slow the benchmark's single thread by
up to 40 %, in stretches of seconds to minutes. CPU time does not leave
that out: it is contention for the core, its caches and the memory bus,
not time the hypervisor stole. So the benchmark runs a fixed kernel
between its timed sections, and scales the CPU seconds of each section
by the kernel's reference time over the kernel's CPU time just before
and just after the section. A slow stretch slows the kernel too, and
the ratio cancels most of it; a change to palmnmf cannot move the
kernel, which uses numpy but no palmnmf code.

The kernel mixes what palmnmf's own time is made of: a pure-Python loop
(interpreter overhead), numpy calls on small arrays (call overhead), a
matrix product (BLAS) and a pass over arrays larger than the per-core
caches (memory traffic).
"""

import statistics
import time

import numpy as np

# CPU seconds of one kernel run on the reference machine (a two-vCPU
# Xeon virtual machine at 2.0 GHz) at a quiet moment. Any fixed value
# would do; this one makes calibrated figures read as seconds there.
REFERENCE_S = 0.015

_rng = np.random.default_rng(0)
_SMALL = _rng.random((100, 5))
_SQUARE = _rng.random((160, 160)) / 160
_STREAM = _rng.random(500_000)
_STREAM_OUT = np.empty_like(_STREAM)


def kernel_s():
    """CPU seconds of one run of the calibration kernel."""
    start = time.process_time()
    acc = 0
    for i in range(80_000):
        acc += i * i
    x = _SMALL
    for _ in range(600):
        x = np.maximum(x - 1e-3, 0.0)
    y = _SQUARE
    for _ in range(24):
        y = _SQUARE @ y
    for _ in range(14):
        np.multiply(_STREAM, 0.5, out=_STREAM_OUT)
    return time.process_time() - start


def calibrated(seconds, kernel_runs):
    """CPU ``seconds`` of a section scaled to the reference speed, by the
    mean CPU seconds of the kernel runs just before, within and just
    after the section."""
    return seconds * REFERENCE_S / statistics.fmean(kernel_runs)
