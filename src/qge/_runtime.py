"""Process settings and the worker pool: the allocator thresholds, the
machine's physical memory, numpy's OpenBLAS thread count, the thread map of
a row's k-samples (a ThreadPoolExecutor of at most `workers` threads,
started on demand), LAPACK's tridiagonal eigensolver in the same OpenBLAS,
and the manifest's record.

Imports nothing from qge, and importing it sets nothing: cli.main applies
the allocator thresholds, and the OpenBLAS calls are looked up on first
use, once per process.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import cache

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


def physical_memory() -> int | None:
    """The machine's physical memory in bytes, from os.sysconf; None where
    it is not available."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


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
    """[fn(x) for x in items] on the standard library's thread pool, with
    at most pool_workers(len(items)) workers, started on demand, while
    numpy's OpenBLAS is held to one thread: no result depends on the worker
    count or on OPENBLAS_NUM_THREADS.  The calling thread only waits.

    Items are submitted in index order.  One above the lowest index that
    has raised, and every one after an exception in the calling thread (an
    interrupt), returns without calling fn; the exception of the lowest
    failing index, the one the serial loop would raise, is raised.  Every
    thread is joined and the old BLAS count restored, on return and on raise.
    """
    if not len(items):
        return []
    # concurrent.futures imports logging, which importing qge does not need
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    failed = [len(items)]  # only appended to, and min reads it in one call: no lock

    def run(i):
        try:
            return fn(items[i]) if i < min(failed) else None
        except BaseException:
            failed.append(i)
            raise

    with one_blas_thread():
        pool = ThreadPoolExecutor(pool_workers(len(items)))
        try:
            futures = [pool.submit(run, i) for i in range(len(items))]
            wait(futures, return_when=FIRST_EXCEPTION)
        except BaseException:
            failed.append(-1)  # before every item: call fn no more
            raise
        finally:
            pool.shutdown(cancel_futures=True)
    return [future.result() for future in futures]


def run_block(items: int | None = None) -> dict:
    """The manifest's record of this process, which the BLAS thread count
    and the Ritz route can change the last digits of: numpy's version, its
    BLAS, the routine that gives the Lanczos Ritz pairs (`ritz`, None where
    the dense eigh does), the thread variables and the allocator thresholds
    applied; for a pool of `items` k-samples also the most workers that may
    start and the BLAS threads of each item (None: the library's own count)."""
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
