"""A fixed reference workload that measures how fast the machine runs right now.

The development box shares its host: the same work runs up to twice as slow
for minutes at a time, whatever the program does. ``rep.py`` times this
loop before the first commands repetition and after each one, and
``run.py`` scales each repetition's host times by ``REFERENCE_S`` over the
mean of the two calibrations around it. A slow phase of the host then
lengthens both and cancels out, while a change to the program moves only
the repetition.

The loop mixes what the workloads spend their time on: the interpreter,
many numpy calls on tiny arrays (RK4 at N=40), a dense N×N product (the
N=600 loop) and float formatting (the writers). It lives here, not in
``src/``, so no change to the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

# ``calibration_s()`` on the development box (2-vCPU virtual machine,
# Python 3.11.7, numpy 2.4.6, one BLAS thread) in a quiet spell of its host:
# 0.29-0.31 s, against up to 0.6 s in slow ones. Scaled times read as host
# seconds on that box when its host is quiet.
REFERENCE_S = 0.30

_rng = np.random.default_rng(0)
_DENSE = _rng.random((600, 600))
_STATE = _rng.random((600, 4))
_SMALL = _rng.random((40, 40))
_SMALL_STATE = _rng.random((40, 4))
_FLOATS = _rng.random(200_000).tolist()


def calibration_s() -> float:
    """Host seconds the reference loop takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i * i
    y = _SMALL_STATE
    for _ in range(16_000):
        y = 0.5 * (_SMALL @ y) / 40.0 + 0.1 * _SMALL_STATE - 0.01 * y
    z = _STATE
    for _ in range(400):
        z = (_DENSE @ z) / 600.0
    ",".join("%.6f" % v for v in _FLOATS)
    return time.perf_counter() - started
