"""Thread fan-out for the two independent loops of the lifted pipeline.

:func:`carlift.carleman.run_lifted` lifts its steps, and
:class:`carlift.system.TrajectoryOperator` walks the block rows of a
product with M, on one thread per CPU this process may run on.  Each
step or output row is computed whole by one thread, with the same
operations in the same order as the serial loop, so results do not
depend on the worker count.  Each loop's cutoff is on the entries of
one item (a step's top block row, a block row of M), since an item too
small to outweigh its thread hand-off is slower threaded at any count;
below it the serial loop runs and no executor is made.

An executor lives for one call and is shut down before the call
returns, so no pool thread outlives it: a process forked afterwards (a
sweep's worker pool) inherits no executor to hang on.

:func:`one_blas_thread` runs a block of LAPACK calls on one OpenBLAS
thread, for results whose rounding would follow OpenBLAS's own thread
count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import queue
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def worker_count(work: float, cutoff: float) -> int:
    """Threads for a loop of ``work`` units: 1 below ``cutoff``, else the
    number of CPUs in this process's affinity mask."""
    if work < cutoff:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(fn, items: list, workers: int) -> list:
    """``[fn(x) for x in items]``, on up to ``workers`` threads when that is 2 or more.

    The calling thread works too, beside ``workers - 1`` pool threads;
    each takes the next unclaimed item until none is left.
    """
    workers = min(workers, len(items))
    if workers < 2:
        return [fn(x) for x in items]
    results = [None] * len(items)
    unclaimed = queue.SimpleQueue()
    for i in range(len(items)):
        unclaimed.put(i)

    def work() -> None:
        while True:
            try:
                i = unclaimed.get_nowait()
            except queue.Empty:
                return
            results[i] = fn(items[i])

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        work()
    for helper in helpers:
        helper.result()  # re-raises a helper's exception
    return results


@functools.lru_cache(maxsize=1)
def _openblas_thread_setter():
    """``openblas_set_num_threads_local`` of the OpenBLAS bundled with numpy
    (it sets the count and returns the old one), or None without it."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the enclosed BLAS and LAPACK calls on one OpenBLAS thread, as
    under OPENBLAS_NUM_THREADS=1, and restore the old count afterwards.
    numpy's OpenBLAS uses its own threads, so the count holds for every
    thread of the process while the block runs.  A numpy built without
    the bundled OpenBLAS runs the calls unchanged."""
    setter = _openblas_thread_setter()
    if setter is None:
        yield
        return
    old = setter(1)
    try:
        yield
    finally:
        setter(old)
