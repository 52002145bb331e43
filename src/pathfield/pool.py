"""One pool of threads for the process. Independent work of one large call
runs through parallel on threads built once and shared, one per usable CPU
per BLAS thread: the head's activations (row_halves), the backward's matmul
pairs, predict's slot decodes and an evaluation's DTW batches. Each piece is
the numpy call a serial run makes, so its bits do not depend on the thread.
"""
from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np

# Cells (array elements; width x samples for a decoded block) from which parallel runs a call's pieces on
# the shared pool: on 2 CPUs, against serial, a finer wave took 0.96-1.11x the time at 2^14 cells and 0.76-0.83x
# at 2^15; its derivative 1.03-1.12x at 2^15 and 0.75-0.81x at 2^16; a backward matmul pair 1.5-1.9x at 2^15.
PARALLEL_CELLS = 1 << 15

__all__ = ["PARALLEL_CELLS", "parallel", "row_halves"]

_pool_thread = threading.local()  # .active: this thread is one of a shared pool's
BLAS_THREADS_SYMBOL = "scipy_openblas_get_num_threads64_"  # the bundled OpenBLAS's thread-count getter


@functools.cache
def _blas_thread_getter() -> Callable[[], int] | None:
    """numpy's bundled OpenBLAS's thread-count getter, found through ctypes in numpy.libs; None where it is missing."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            return getattr(ctypes.CDLL(path), BLAS_THREADS_SYMBOL)
        except (OSError, AttributeError):  # not loadable here, or another build
            continue
    return None


def _blas_threads() -> int:
    """The threads BLAS runs each call on, read and never set; 1 where numpy's OpenBLAS getter is missing."""
    getter = _blas_thread_getter()
    return 1 if getter is None else max(getter(), 1)


def _threads(count: int, cells: int) -> int:
    """The size of the pool parallel runs `count` calls of `cells` work on; below 2 is serially, on the caller.

    Serial below PARALLEL_CELLS cells (checked first, so small calls make no system call), for fewer
    than 2 calls, on a pool thread (no nested pools), and when usable CPUs // BLAS threads, the pool's
    size, is below 2, so that a pool never competes with BLAS's own threads.
    """
    if cells < PARALLEL_CELLS or count < 2 or getattr(_pool_thread, "active", False):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus // _blas_threads()


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """The process's one pool of `threads` threads, built on first use; each of its threads marks itself."""
    return ThreadPoolExecutor(threads, initializer=setattr, initargs=(_pool_thread, "active", True))


if hasattr(os, "register_at_fork"):  # a forked child inherits the pool but none of its threads; Windows has no fork
    os.register_at_fork(after_in_child=_pool.cache_clear)


def parallel(calls: Sequence[Callable[[], object]], cells: int) -> list:
    """The results of independent calls, in call order. With _threads(len(calls), cells) >= 2 the
    shared pool of that size runs every call while the caller waits; an exception in a call reaches
    the caller once every call has finished."""
    threads = _threads(len(calls), cells)
    if threads < 2:
        return [call() for call in calls]
    futures = [_pool(threads).submit(call) for call in calls]
    wait(futures)
    return [future.result() for future in futures]


def row_halves(fn: Callable[..., None], z: np.ndarray, out: np.ndarray, *args) -> None:
    """fn(z, out, *args) once, or over each half of the arrays' rows through parallel when it has 2 threads."""
    if _threads(2, z.size) < 2:
        fn(z, out, *args)
        return
    half = (len(z) + 1) // 2
    parallel([lambda: fn(z[:half], out[:half], *args), lambda: fn(z[half:], out[half:], *args)], z.size)
