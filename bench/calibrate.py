"""A fixed reference kernel that measures how fast the machine runs right now.

The shared 2-core virtual machine this benchmark was written on changes
speed by up to a factor of two over seconds to minutes, and the changes
hit pure Python and small numpy operations alike.  The runner times this kernel next to the ops and
scales every time by ``REFERENCE_KERNEL_S / kernel time``.  That reports
each time as it would read on a machine where the kernel takes
``REFERENCE_KERNEL_S``, which cancels most of that drift.  The kernel is
modular Gaussian elimination on a fixed small matrix, the same mix of
Python loop and small numpy calls that dominates saalib, and it shares
no code with saalib, so no change to the library can move it.
"""

from __future__ import annotations

import random
from functools import lru_cache
from time import perf_counter

# Kernel time on the 2-core Intel Xeon where the benchmark was written, when
# that machine ran at its usual speed.  Scaled times read in that machine's units.
REFERENCE_KERNEL_S = 0.0035
P, ROWS, COLS, REPEATS = 3, 40, 24, 8


def _eliminate(np, a) -> int:
    rank = 0
    for c in range(COLS):
        nonzero = np.nonzero(a[rank:, c])[0]
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, P) % P
        col = a[:, c].copy()
        col[rank] = 0
        a -= np.outer(col, a[rank])
        a %= P
        rank += 1
    return rank


@lru_cache(maxsize=1)
def _reference_matrix():
    import numpy as np  # imported late so that set-up timing still pays for numpy

    rnd = random.Random(0)
    rows = [[rnd.randrange(P) for _ in range(COLS)] for _ in range(ROWS)]
    return np, np.array(rows, dtype=np.int64)


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    np, matrix = _reference_matrix()
    start = perf_counter()
    for _ in range(REPEATS):
        _eliminate(np, matrix.copy())
    return perf_counter() - start
