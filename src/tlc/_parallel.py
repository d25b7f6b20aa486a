"""Leading-axis parallel map for the windowed kernels, the module bodies
and the FeatureMap check.

An array of shape (N, ..., H, W) is split along axis 0 into one
contiguous slice per core the process may run on, and the slices run on
one shared thread pool. NumPy and SciPy release the interpreter lock
inside their loops, so the slices compute at the same time. Every slice
goes through exactly the arithmetic the whole-array call would give its
rows, so results are bit-identical to the single-thread run. BLAS
threading (``tensordot``) is not touched.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_WORKERS = len(os.sched_getaffinity(0))
# Arrays with fewer values stay on the caller's thread. Measured on 2
# cores with k=96: at 2**15 values the split is 1.2-1.6x slower than one
# thread, and from 2**17 up local_aggregate, local_max, GE and IN are
# all faster with it. But on a stream of 32-channel 48, 96 and 160
# square crops, splitting every map raised the peak RSS from 107 to
# 127 MB, and splitting from 2**19 values (the 160 crops only) to 128 MB:
# each thread allocates from its own malloc arena (with one arena
# forced, splitting every map peaked at 109 MB). At 2**20 all three stay
# on one thread and the peak stays at 107 MB.
_MIN_VALUES = 1 << 20

_pool = None
_pool_lock = threading.Lock()
_thread = threading.local()


def _mark_worker():
    _thread.is_worker = True


def _forget_pool():
    # A forked child has none of the parent's threads, so it must not
    # queue work on the parent's pool; it makes its own on first use.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _executor() -> ThreadPoolExecutor:
    # Created on first use, so importing tlc starts no thread.
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=_WORKERS, thread_name_prefix="tlc",
                initializer=_mark_worker,
            )
        return _pool


def leading_map(fn, *arrays, out=None):
    """Return fn(*arrays, out), computed one axis-0 slice per core.

    fn receives matching axis-0 slices of ``arrays`` and of ``out``, and
    writes its result into the out slice and returns it; given out=None
    it allocates and returns its own result. Split work writes into
    ``out``, allocated as float64 of arrays[0]'s shape when not given.

    The whole call runs once on the caller's thread, with out as given,
    when arrays[0] has fewer than three axes (axis 0 is then a row
    axis), has fewer values than the size floor or a single row along
    axis 0, when the process may use one core only, or when the caller
    is itself a pool worker: a worker never waits on its own pool.
    """
    lead = arrays[0]
    parts = min(_WORKERS, lead.shape[0])
    if (parts < 2 or lead.ndim < 3 or lead.size < _MIN_VALUES
            or getattr(_thread, "is_worker", False)):
        return fn(*arrays, out)
    if out is None:
        out = np.empty(lead.shape)
    n = lead.shape[0]
    bounds = [n * i // parts for i in range(parts + 1)]
    pool = _executor()
    futures = [
        pool.submit(fn, *(a[lo:hi] for a in arrays), out[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    wait(futures)
    for f in futures:
        f.result()  # re-raises a slice's exception
    return out
