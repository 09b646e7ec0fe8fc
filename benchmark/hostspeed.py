"""A fixed calibration kernel that tracks the host's current speed.

The benchmark runs on a few cores of a shared machine whose speed moves
by tens of percent over seconds to minutes as other tenants come and
go; the same item can take 0.4 s in one minute and 0.55 s in the next.
Each end-to-end run therefore also times this kernel, in short bursts
between its items and around its set-ups, and scales the times of each
phase (set-up, timed items) by

    REF_KERNEL_S / mean(kernel times during that phase)

which puts runs made at different host speeds on one scale: seconds at
the speed at which the kernel takes ``REF_KERNEL_S``.  A phase's time is
its work integrated over the host's varying speed, so the kernel's mean
time, sampled through the same stretch of the run, is the matching
estimate of how slow the host was.

How much a slow stretch slows code depends on the code: a tight loop or
one large BLAS call slows less than code that makes many small numpy
and scipy calls, which is what carlift mostly runs.  So the kernel does
the same kinds of work, in about equal shares: a Python-level RK4 over
small numpy arrays (as the reference samplers and oracles do), and
building a sparse matrix, taking a Kronecker product, multiplying and
solving a triangular system (as the lifting, assembly and solve layers
do).  It uses numpy and scipy only, never carlift, so no change to the
program moves it; its inputs are fixed, not seeded.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

# Mean kernel time on the reference host (2-core Intel Xeon VM, one BLAS
# thread, numpy 2 / scipy 1.x); only fixes the scale of the scaled seconds.
REF_KERNEL_S = 0.0075

RK4_STEPS = 150  # about half the kernel
SPARSE_N, SPARSE_PER_ROW = 3000, 5  # the other half


class HostKernel:
    """The calibration kernel and every time it has taken in this run."""

    def __init__(self):
        rng = np.random.default_rng(20250220)
        self.A = np.array([[-0.5, 0.2, 0.0], [0.1, -0.3, 0.05], [0.0, 0.2, -0.4]])
        self.rows = np.repeat(np.arange(SPARSE_N), SPARSE_PER_ROW)
        self.cols = (self.rows + rng.integers(0, 50, size=self.rows.size)) % SPARSE_N
        self.vals = rng.normal(size=self.rows.size)
        self.samples: list[float] = []

    def _rk4(self) -> None:
        A, h = self.A, 0.01
        y = np.ones(3)

        def f(y):
            return A @ y - 0.1 * y * y

        for _ in range(RK4_STEPS):
            k1 = f(y)
            k2 = f(y + h / 2 * k1)
            k3 = f(y + h / 2 * k2)
            k4 = f(y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    def _sparse(self) -> None:
        n = SPARSE_N
        M = sp.coo_matrix((self.vals, (self.rows, self.cols)), shape=(n, n)).tocsr()
        K = sp.kron(sp.identity(4, format="csr"), M, format="csr")
        K @ np.ones(K.shape[0])
        L = sp.tril(M, format="csr") + 10.0 * sp.identity(n, format="csr")
        spsolve_triangular(L, np.ones(n))

    def once(self) -> float:
        t0 = time.perf_counter()
        self._rk4()
        self._sparse()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def burst(self, share_of: float = 0.0, share: float = 0.05, at_least: int = 2) -> None:
        """Time the kernel ``at_least`` times, and until it has run for
        ``share`` of ``share_of`` seconds (the item it follows)."""
        spent, n = 0.0, 0
        while n < at_least or spent < share * share_of:
            spent += self.once()
            n += 1

    def scale(self, first: int = 0, stop: int | None = None) -> float:
        """REF_KERNEL_S over the mean of samples[first:stop]: multiply the
        raw seconds of the phase those samples were taken in by it."""
        return REF_KERNEL_S / statistics.fmean(self.samples[first:stop])
