"""Reference loops that measure how fast this process runs right now.

Shared hosts slow a process down by up to 2x for seconds at a time.  Each
timed operation is bracketed by a fixed reference loop, and its time is
reported as ``measured * nominal / reference``: seconds at the speed at which
the loop takes its nominal duration.  The nominal durations are the loops'
unloaded durations on the 2-core x86_64 machine the benchmark was defined on
(Python 3.11, numpy 2.4 with one BLAS thread).

Contention does not slow all code alike: interpreter-bound code (Python
arithmetic around small numpy calls) slows about twice as much as large
vectorised numpy passes.  So there are two loops, one of each kind, and each
workload is normalised by the loop of the kind of work that dominates it.
"""

from __future__ import annotations

import itertools
import time

import numpy as np


class Reference:
    """A fixed loop of one kind of work and its nominal duration."""

    NOMINAL_S = {"python": 0.0095, "array": 0.0102}

    def __init__(self, kind: str):
        if kind not in self.NOMINAL_S:
            raise ValueError(f"unknown reference kind {kind!r}")
        self.kind = kind
        self.nominal_s = self.NOMINAL_S[kind]
        if kind == "array":
            # the shape of the library's brute-force tracking at order 8
            self._perms = np.array(list(itertools.permutations(range(8))), dtype=np.int8)
            self._cost = np.linspace(0.0, 1.0, 64).reshape(8, 8)

    def _python(self) -> None:
        z = np.zeros(8, dtype=complex)
        for _ in range(4000):
            z = z * (1 + 1e-9j) + 0.5
            acc = 0.0
            for j in range(20):
                acc += j * 1.5

    def _array(self) -> None:
        rows = np.arange(8)[None, :]
        for _ in range(4):
            totals = self._cost[rows, self._perms].sum(axis=1)
            np.argsort(totals, kind="stable")

    def seconds(self) -> float:
        """Duration of one pass of the loop."""
        loop = self._python if self.kind == "python" else self._array
        t0 = time.perf_counter()
        loop()
        return time.perf_counter() - t0

    def scale(self, measure):
        """Run ``measure()`` between two reference passes.

        Returns its result and the factor ``nominal / reference`` that turns
        its measured seconds into seconds at nominal speed.
        """
        before = self.seconds()
        result = measure()
        return result, self.nominal_s / ((before + self.seconds()) / 2)
