"""Leading-axis blocked map for the windowed kernels, the module bodies,
the FeatureMap check and the TLCT payload conversion.

An array of shape (N, ..., H, W) of at least 2**20 values is cut along
axis 0 into contiguous blocks of whole rows of a few megabytes each,
and the blocks run in order on one shared thread pool with one thread
per core the process may run on. A block's temporaries are then a few
megabytes too, and are reused from one block to the next, where
full-size temporaries would stream every step through memory and fault
in fresh pages. NumPy and SciPy release the interpreter lock inside
their loops, so the blocks compute at the same time. Every block goes
through exactly the arithmetic the whole-array call would give its
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
# Most values in one block; a row of axis 0 larger than this is a block
# of its own. Measured on 2 cores with 2 MB of L2 each, as the sum of the
# best-of-5 times of the five local forwards (SE, CBAM, GN, IN, GE) on a
# 64x512x512 map at k=96, in 3 to 5 rounds: one slice per core
# 1556-1662 ms; blocks of 2**18 values (one 512x512 float64 channel)
# 1218-1240; 2**19 1282-1330; 2**20 1369-1429; 2**21 1508-1555, with 3 to
# 4 times the page faults of 2**19. 2**19 is within 5% of 2**18 and still
# cuts a map at the size floor (4x512x512) into one block per core, as
# the kernel call counts in tests/test_parallel.py expect.
_BLOCK_VALUES = 1 << 19

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
    """Return fn(*arrays, out), computed in axis-0 blocks on the pool.

    fn receives matching axis-0 blocks of ``arrays`` and of ``out``, and
    writes its result into the out block and returns it; given out=None
    it allocates and returns its own result. Blocked work writes into
    ``out``, allocated as float64 of arrays[0]'s shape when not given.

    A block holds as many whole rows as fit in the block size, at least
    one, and never so many that there are fewer blocks than workers.

    The whole call runs once on the caller's thread, with out as given,
    when arrays[0] has fewer than three axes (axis 0 is then a row
    axis), has fewer values than the size floor or a single row along
    axis 0, when the process may use one core only, or when the caller
    is itself a pool worker: a worker never waits on its own pool.
    """
    lead = arrays[0]
    n = lead.shape[0]
    if (min(_WORKERS, n) < 2 or lead.ndim < 3 or lead.size < _MIN_VALUES
            or getattr(_thread, "is_worker", False)):
        return fn(*arrays, out)
    if out is None:
        out = np.empty(lead.shape)
    rows = max(1, min(_BLOCK_VALUES // (lead.size // n), n // _WORKERS))
    pool = _executor()
    futures = [
        pool.submit(fn, *(a[lo:lo + rows] for a in arrays), out[lo:lo + rows])
        for lo in range(0, n, rows)
    ]
    wait(futures)
    for f in futures:
        f.result()  # re-raises a block's exception
    return out
