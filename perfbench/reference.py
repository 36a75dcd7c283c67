"""A fixed unit of work that measures how fast the machine is running right now.

On a small shared machine the same operation can take up to 1.6 times longer
for tens of seconds at a time because of other tenants, whatever the program
does, and interpreter-bound code slows more than LAPACK-bound code.  Timing a
fixed unit next to every operation lets the benchmark express operation
times at one nominal machine speed.  The unit mixes the kinds of work a
workload's operations do: interpreter bytecode, many small numpy calls, and
one symmetric eigendecomposition of the workload's matrix order (capped at
400, where LAPACK dominates), so that it slows the way they do.
"""

import time

import numpy as np

# bound at import, so that the unit never runs through tracing wrappers
from numpy.linalg import eigh, svd

MAX_ORDER = 400


class ReferenceUnit:
    """Callable returning the seconds one fixed unit of work takes now."""

    def __init__(self, order: int):
        rng = np.random.default_rng(20150113)
        sym = rng.standard_normal((min(order, MAX_ORDER),) * 2)
        self._sym = sym + sym.T
        self._tall = rng.standard_normal((50, 2))

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        for _ in range(40):
            u, _, vt = svd(self._tall, full_matrices=False)
            np.sqrt(np.sum((u @ vt) ** 2))
        eigh(self._sym)
        return time.perf_counter() - start
