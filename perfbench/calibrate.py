"""Host-speed calibration for the end-to-end timings.

On shared hardware the speed of the benchmark host drifts, by up to 2x
over a few minutes, and every wall time moves with it.  The benchmark
times ``kernel_seconds`` (small numpy products and QRs in a Python loop,
the same mix as the gossipgap step loops, but no gossipgap code) right
before and after each measured stage, and reports the stage's time scaled
by ``REFERENCE_S / kernel time``: the time the stage would take on a host
where the kernel takes ``REFERENCE_S``.  Raw times are reported next to
the scaled ones.
"""

import time

REFERENCE_S = 0.025
ROUNDS = 1000


def kernel_seconds() -> float:
    import numpy as np      # imported late: the caller pins BLAS threads first
    a = np.full((5, 5), 0.2)
    v = np.ones((5, 2))
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(ROUNDS):
        v, r = np.linalg.qr(a @ v)
        acc += abs(float(r[0, 0])) + i % 7
    return time.perf_counter() - t0


def scaled(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s
