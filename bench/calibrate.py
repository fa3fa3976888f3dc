"""Host-speed calibration: fixed slices of work timed between operations.

The reference host is a VM on a shared machine whose speed drifts by up to
a factor of two over seconds to minutes (see README.md, "Noise").  A run
therefore times, next to every operation, a slice of fixed work that
belongs to the benchmark, not to compactdet, and scales the operation's
time by ``REFERENCE_S / slice time``: what the operation would have taken
on a host that runs the slices in ``REFERENCE_S``.  A change to compactdet
cannot move the slices, while a slower or faster host moves both.  A change
that alters the process itself, such as the BLAS thread count, would move
the numpy slice too; compare such a change by host time as well (printed
on every run).

Two kinds of slice, because the host slows interpreted code more than
BLAS-bound code: ``python`` (box overlaps, tuples, dicts and small calls, as
in NMS and the explorer) and ``numpy`` (a float32 matmul, elementwise ops
and strided slices, as in the forward pass).  Each workload names the kinds
its operations are made of; with two, the factor is the geometric mean of
the two kinds' factors.
"""

from __future__ import annotations

import time

# Round figures near the slices' times on the reference host (2 vCPUs, Intel
# Xeon, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 with 2 threads).  They
# fix the scale of a reference second; change them, or the slices, and
# figures from before and after the change can no longer be compared.
REFERENCE_S = {"python": 0.060, "numpy": 0.020}
PY_ITERATIONS = 40_000
NP_REPEATS = 20


def _overlap(a, b) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0.0 or h <= 0.0:
        return 0.0
    inter = w * h
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def python_slice() -> float:
    boxes = [(i * 0.5, i * 0.25, i * 0.5 + 3.0, i * 0.25 + 2.0) for i in range(256)]
    seen = {}
    total = 0.0
    start = time.perf_counter()
    for k in range(PY_ITERATIONS):
        total += _overlap(boxes[k & 255], boxes[(k * 7) & 255])
        seen[k & 1023] = total
    return time.perf_counter() - start


def numpy_slice() -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 52, 52), dtype=np.float32)
    w = rng.standard_normal((128, 64), dtype=np.float32)
    w @ x.reshape(64, -1)  # untimed: touch the arrays, start the BLAS threads
    start = time.perf_counter()
    for _ in range(NP_REPEATS):
        y = w @ x.reshape(64, -1)
        np.maximum(y, np.float32(0.1) * y)
        x[:, 1:-1, 1:-1] * np.float32(0.5) + x[:, :-2, 2:] * np.float32(0.25)
    return time.perf_counter() - start


SLICES = {"python": python_slice, "numpy": numpy_slice}


def take(kinds: tuple) -> tuple:
    """Time one slice of each kind."""
    return tuple(SLICES[kind]() for kind in kinds)


def factor(kinds: tuple, *takes: tuple) -> float:
    """Reference seconds per host second, from takes timed around some work.

    The geometric mean over kinds of reference time / mean slice time.
    """
    product = 1.0
    for k, kind in enumerate(kinds):
        product *= REFERENCE_S[kind] * len(takes) / sum(t[k] for t in takes)
    return product ** (1.0 / len(kinds))
