"""One OpenBLAS thread for setup decompositions.

A dense LAPACK call on a matrix of a few dozen rows (``eigh``, ``svd``,
``cholesky``, ``solve``, ``qr``) wakes the thread pool of numpy's OpenBLAS,
whose workers then spin for about a hundred milliseconds after the call
returns.  Lowering the thread count after such a call does not stop them;
lowering it before does, and at setup sizes the calls run no slower on one
thread.  ``one_blas_thread`` does that for the duration of a block and then
restores the caller's count.  Where numpy's BLAS offers no thread control
(another BLAS, or symbols under other names) it does nothing.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from typing import Optional

import numpy as np

# (getter, setter) spellings: numpy 2.x wheels (scipy-openblas, ILP64),
# numpy 1.x wheels (ILP64 OpenBLAS), then an unsuffixed system OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_lock = threading.Lock()
_depth = 0  # blocks currently inside one_blas_thread, over all threads
_saved = 1  # the thread count to restore when the outermost block ends
_UNSEARCHED = object()
_handle = _UNSEARCHED  # (get, set) functions, or None when none were found


def _libraries():
    """Paths whose symbol scope holds numpy's BLAS: the linalg extension
    (its dependencies are searched too where the loader does so), then the
    libraries bundled in numpy's wheel."""
    from numpy.linalg import _umath_linalg

    yield _umath_linalg.__file__
    root = os.path.dirname(np.__file__)
    for libs in (os.path.join(os.pardir, "numpy.libs"), ".dylibs"):
        yield from sorted(glob.glob(os.path.join(root, libs, "*openblas*")))


def _find_handle() -> Optional[tuple]:
    for path in _libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            try:
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


def blas_handle() -> Optional[tuple]:
    """numpy's OpenBLAS (get, set) thread-count functions, looked up once;
    None when they are not found."""
    global _handle
    with _lock:
        if _handle is _UNSEARCHED:
            _handle = _find_handle()
        return _handle


@contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    previous count.  Nested and concurrent blocks share one reference
    count: the first to enter lowers the count, the last to leave restores
    it.  Also usable as a decorator."""
    global _depth, _saved
    handle = blas_handle()
    if handle is None:
        yield
        return
    get, set_ = handle
    with _lock:
        if _depth == 0:
            _saved = get()
            if _saved != 1:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _saved != 1:
                set_(_saved)
