"""Process settings and the worker pool: the allocator thresholds, numpy's
OpenBLAS thread count, the thread map that runs a row's k-samples, LAPACK's
tridiagonal eigensolver in the same OpenBLAS, and the manifest's record of
them.

Imports nothing from qge, and importing it sets nothing: cli.main applies
the allocator thresholds, and the OpenBLAS calls are looked up on first
use, once per process.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from functools import cache
from itertools import islice

import numpy as np

# glibc mallopt parameters (M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1) and
# the values main sets: a freed scratch array below 8 MiB goes back to the
# heap, and the heap keeps up to 16 MiB free at its top, so each k-sample
# reuses the pages of the last instead of faulting them in afresh.  Both are
# set, since setting either alone turns off glibc's dynamic thresholds.
_MALLOC_THRESHOLDS = {"M_MMAP_THRESHOLD": (-3, 8 << 20), "M_TRIM_THRESHOLD": (-1, 16 << 20)}
# the thread-count (setter, getter) of numpy's OpenBLAS: the names in the
# scipy-openblas build of the numpy wheels, then those of a plain OpenBLAS.
# openblas_set_num_threads_local is not used: in numpy 2.4.6's build a call
# from one thread changed the count that another thread reads back.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_malloc: dict | None = None  # the thresholds keep_freed_pages last applied


def keep_freed_pages() -> None:
    """Set _MALLOC_THRESHOLDS through the C library's mallopt, and record
    the values it accepted (None where it has no mallopt)."""
    global _malloc
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        _malloc = None
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    applied = {name: value for name, (param, value) in _MALLOC_THRESHOLDS.items() if mallopt(param, value) == 1}
    _malloc = applied or None


@cache
def _openblas() -> tuple:
    """The OpenBLAS libraries in this process, found by their paths in
    /proc/self/maps and opened, a copy under numpy's own directory first."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return ()
    libs = []
    for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):
        try:
            libs.append(ctypes.CDLL(path))
        except (OSError, TypeError):
            continue
    return tuple(libs)


@cache
def openblas_threads():
    """The thread-count (setter, getter) of the OpenBLAS that numpy loaded;
    None where no such library or call is found."""
    for lib in _openblas():
        for set_name, get_name in _OPENBLAS_THREAD_CALLS:
            try:
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
            except AttributeError:
                continue
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            getter.argtypes, getter.restype = (), ctypes.c_int
            return setter, getter
    return None


@cache
def lapacke_dstemr():
    """LAPACKE's dstemr (MRRR, Dhillon & Parlett 2004) in the OpenBLAS that
    numpy loaded: the ILP64 build of the numpy wheels, whose every integer,
    the tryrac flag included, is 64-bit.  None where it is not found."""
    for lib in _openblas():
        try:
            dstemr = lib.scipy_LAPACKE_dstemr64_
        except AttributeError:
            continue
        int64, double, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        # layout, jobz, range, n, d, e, vl, vu, il, iu, m, w, z, ldz, nzc, isuppz, tryrac
        dstemr.argtypes = (
            ctypes.c_int, ctypes.c_char, ctypes.c_char, int64, ptr, ptr, double, double,
            int64, int64, ptr, ptr, ptr, int64, int64, ptr, ptr,
        )
        dstemr.restype = int64
        return dstemr
    return None


def tridiagonal_extremes(d, e):
    """The lowest and highest eigenpair of the symmetric tridiagonal with
    diagonal d (length n >= 1) and off-diagonal e[:n-1], as
    ((theta_min, s_min), (theta_max, s_max)) with s the last entry of the
    unit eigenvector, from lapacke_dstemr; None where the routine is not
    found or either call fails (info != 0, or other than one eigenpair)."""
    dstemr = lapacke_dstemr()
    if dstemr is None:
        return None
    n = len(d)
    pairs = []
    for i in (1, n):
        # dstemr overwrites d and e (e[n-1] is its scratch) and, for any
        # range, writes up to n eigenvalues into w
        diag, off, w, z = np.zeros((4, n))
        diag[:] = d
        off[: n - 1] = e[: n - 1]
        m, isuppz, tryrac = np.zeros(1, np.int64), np.zeros(2, np.int64), np.ones(1, np.int64)
        # LAPACK_COL_MAJOR = 102, jobz 'V', range 'I' with il = iu = i
        info = dstemr(
            102, b"V", b"I", n, diag.ctypes.data, off.ctypes.data, 0.0, 0.0, i, i,
            m.ctypes.data, w.ctypes.data, z.ctypes.data, n, 1, isuppz.ctypes.data, tryrac.ctypes.data,
        )
        if info != 0 or m[0] != 1:
            return None
        pairs.append((float(w[0]), float(z[-1])))
    return tuple(pairs)


def pool_workers(items: int) -> int:
    """The workers of a pool of `items` k-samples: one per usable core, at
    most one per item; one, the serial loop at the library's own thread
    count, where no OpenBLAS setter is found."""
    return 1 if openblas_threads() is None else min(len(os.sched_getaffinity(0)), items)


@contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS to one thread, restoring the old count on
    exit; nothing where no setter is found."""
    blas = openblas_threads()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    old = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


def thread_map(fn, items) -> list:
    """[fn(x) for x in items], on pool_workers(len(items)) threads while
    numpy's OpenBLAS is held to one thread, so that no result depends on
    the worker count or on OPENBLAS_NUM_THREADS.  The calling thread only
    waits.

    Items are handed out in index order and the results come back in
    item order.  After the first exception no item is handed out; those
    taken run to completion, and the exception of the lowest failing
    index, the one the serial loop would raise, is raised.  Every thread
    is joined and the old BLAS count restored, on return and on raise.
    """
    results: list = [None] * len(items)
    failures: dict = {}
    lock, taken = threading.Lock(), iter(range(len(items)))

    def work(i):
        while i is not None:
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    failures[i] = exc
            with lock:
                i = None if failures else next(taken, None)

    # each thread is handed its first item before any starts
    threads = [threading.Thread(target=work, args=(i,)) for i in islice(taken, pool_workers(len(items)))]
    with one_blas_thread():
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        except BaseException as exc:  # a thread that would not start, or an interrupt
            with lock:
                failures[-1] = exc  # before every item: hand out no more
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def run_block(items: int | None = None) -> dict:
    """The manifest's record of this process, which the BLAS thread count
    and the Ritz route can change the last digits of: numpy's version, its
    BLAS, the routine that gives the Lanczos Ritz pairs (`ritz`, None where
    the dense eigh does), the thread variables and the allocator thresholds
    applied; for a pool of `items` k-samples also its workers and the BLAS
    threads of each item (None: the library's own count)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    dstemr = lapacke_dstemr()
    run = {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "ritz": None if dstemr is None else dstemr.__name__,
        **{name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "malloc": _malloc,
    }
    if items is not None:
        pinned = openblas_threads() is not None
        run.update(workers=pool_workers(items), blas_threads=1 if pinned else None)
    return run
