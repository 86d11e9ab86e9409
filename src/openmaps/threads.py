"""Thread-pool sizes, and the thread counts of the OpenBLAS libraries
that numpy and scipy each load, found at run time in the process's
memory map."""

import ctypes
import os
import threading
from contextlib import contextmanager
from functools import cache
from importlib.util import find_spec
from pathlib import Path

# held while any caller has set or read the counts, so that callers in
# other threads neither interleave their restores nor read a set count
_COUNTS = threading.RLock()
GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
           "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def pool_size():
    """Workers for a thread pool: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def openblas():
    """{file name: (get, set_local)} of every loaded OpenBLAS that can
    report its thread count and set it, returning the old one.  scipy's
    LAPACK is loaded first, not imported, so scipy's OpenBLAS is listed
    even in a process that imports scipy later."""
    linalg = Path(find_spec("scipy").origin).with_name("linalg")
    for lapack in linalg.glob("cython_lapack.*.so"):
        ctypes.CDLL(str(lapack))
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({Path(line.split()[-1]) for line in fh})
    except OSError:
        return {}
    libs = {}
    for path in (p for p in paths if "openblas" in p.name):
        lib = ctypes.CDLL(str(path))
        get = next((getattr(lib, name) for name in GETTERS if hasattr(lib, name)), None)
        set_local = getattr(lib, "openblas_set_num_threads_local", None)
        if get is not None and set_local is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_local.argtypes, set_local.restype = [ctypes.c_int], ctypes.c_int
            libs[path.name] = get, set_local
    return libs


@contextmanager
def blas_threads(count):
    """Every OpenBLAS of `openblas` on `count` threads inside the block;
    yields {file name: threads in effect} and restores the old counts
    on exit."""
    libs = openblas()
    with _COUNTS:
        old = {name: s(count) for name, (_, s) in libs.items()}
        try:
            yield {name: get() for name, (get, _) in libs.items()}
        finally:
            for name, threads in old.items():
                libs[name][1](threads)
