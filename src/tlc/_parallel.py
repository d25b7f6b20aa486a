"""Leading-axis blocked map for the windowed kernels, the module bodies,
the seam metric, the FeatureMap check and the TLCT writer's rounds, the
block size that TLCT I/O buffers share, the round size in which the TLCT
writer computes a payload it streams to disk (convert's outputs), and an
ordered map over independent tasks (the shift experiment's full maps).

One rule cuts every computed map into blocks: an array of shape
(N, ..., H, W) of at least 2**20 values is cut along axis 0 into
contiguous blocks of whole rows of a few megabytes each, never fewer
blocks than cores. The blocks run on one shared thread pool with one
thread per core the process may run on or, on one core and inside a
pool thread, in order on the calling thread. A block's temporaries are
then a few megabytes too, where full-size temporaries would stream
every step through memory and fault in fresh pages: on one core, a
64x512x512 convert peaked at 392 MB of RSS instead of 763 MB.

A body declares the temporaries it needs, and leading_map allocates
them on the calling thread, one set per block that can run at once,
each set sized for the largest block; a block borrows a free set, so
the bodies allocate nothing of a block's size on the pool. Memory that
a pool thread allocates and frees goes back to that thread's own
malloc arena, which keeps it: with the temporaries allocated in the
tasks, the fullres-convert benchmark peaked at 429.6 MB of RSS on 2
cores, and with them from the calling thread at 393.3 MB. The sets
live for one call only.

NumPy releases the interpreter lock inside its loops, so pooled blocks
compute at the same time. Every block goes through exactly the
arithmetic the whole-array call would give its rows, so results are
bit-identical to an unblocked run. BLAS threading (``tensordot``) is
not touched.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

import numpy as np

_WORKERS = len(os.sched_getaffinity(0))
# Arrays with fewer values are one call on the caller's thread. Measured on 2
# cores with k=96: at 2**15 values the split is 1.2-1.6x slower than one
# thread, and from 2**17 up local_aggregate, local_max, GE and IN are
# all faster with it. But on a stream of 32-channel 48, 96 and 160
# square crops (the crop-stream benchmark), splitting from 2**17 values
# raised the peak RSS from 86.8 to 107.3 MB while the bodies allocated
# their temporaries on the pool threads, each of which keeps what it
# frees in its own malloc arena. With the temporaries from the calling
# thread it peaked at 88.6-88.7 MB, but the stream was no faster in 3
# runs (178-216 ms a cycle against a median of 174 at 2**20).
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
# Most items ordered_map has in work at once, on any number of cores.
# Under tracemalloc, the shift experiment (n=8, 2x192x192 maps of 590 KB)
# peaks at 1.68 MB in its windowed maps whether 1 or 2 full maps are in
# work at once, at 1.94 MB with 3 and at 2.46 MB with 4.
_AT_ONCE = 2

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


def block_rows(shape) -> int:
    """Rows of axis 0 in one block of an array of this shape: as many
    whole rows as fit in the block size, at least one."""
    return max(1, _BLOCK_VALUES // math.prod(shape[1:]))


def round_rows(shape) -> int:
    """Rows of axis 0 in one round of a stream over an array of this
    shape, for the TLCT writer (``tensor._write_rows``), which computes
    a stream's rows a round at a time into reused scratch: a whole
    number of blocks, at least one per worker and at least the size
    floor (or the whole array), so that leading_map runs every round on
    all the workers."""
    rows = block_rows(shape)
    floor = min(_MIN_VALUES / math.prod(shape[1:]), shape[0])
    return rows * math.ceil(max(_WORKERS * rows, floor) / rows)


def leading_map(fn, *arrays, out=None, scratch=None):
    """Compute fn(*arrays, out) in axis-0 blocks and return out.

    fn receives matching axis-0 blocks of ``arrays`` and of ``out`` and
    writes its result into the out block; its return value is not used.
    out is allocated as float64 of arrays[0]'s shape when not given.

    scratch, when given, maps the shape of a block of arrays[0] to the
    (shape, dtype) of each temporary fn needs for that block, and fn
    then receives those temporaries after the out block: fn(*blocks,
    out, *temporaries). Their contents on entry are undefined. Every
    temporary of a blocked call has the block's rows along axis 0. They
    are allocated here, on the calling thread, one set for each block
    that can run at once, each sized for the largest block, and a block
    borrows a free set for as long as fn runs on it; so fn need
    allocate nothing of a block's size itself. The sets are freed when
    the call returns.

    An arrays[0] of at least three axes (axis 0 is otherwise a row
    axis) and at least the size floor of values is cut into blocks of
    block_rows(arrays[0].shape) rows, but never so many rows, beyond
    one, that there are fewer blocks than workers. The blocks run on
    the pool when the process may use two cores or more, there are two
    rows or more, and the caller is not itself a pool worker (a worker
    never waits on its own pool); otherwise they run in order on the
    caller's thread with one set of temporaries. A smaller array is one
    call on the caller's thread.
    """
    lead = arrays[0]
    if out is None:
        out = np.empty(lead.shape)
    if lead.ndim < 3 or lead.size < _MIN_VALUES:
        fn(*arrays, out, *_temporaries(scratch, lead.shape))
        return out
    n = lead.shape[0]
    rows = max(1, min(block_rows(lead.shape), n // _WORKERS))
    blocks = [[a[lo:lo + rows] for a in arrays + (out,)] for lo in range(0, n, rows)]
    pooled = min(_WORKERS, n) >= 2 and not getattr(_thread, "is_worker", False)
    sets = min(_WORKERS, len(blocks)) if pooled else 1
    # All sets of one temporary are one array, so that a large one is
    # given back to the operating system when it is freed.
    stacked = _temporaries(scratch, (rows,) + lead.shape[1:], (sets,))
    free = queue.SimpleQueue()
    for i in range(sets):
        free.put([t[i] for t in stacked])

    def run(*block):
        # A pool with more threads than sets makes a task wait for a set
        # that a running task gives back.
        borrowed = free.get()
        try:
            fn(*block, *(t[:len(block[0])] for t in borrowed))
        finally:
            free.put(borrowed)

    if not pooled:
        for block in blocks:
            run(*block)
        return out
    pool = _executor()
    futures = [pool.submit(run, *block) for block in blocks]
    wait(futures)
    for f in futures:
        f.result()  # re-raises a block's exception
    return out


def _temporaries(scratch, shape, sets=()) -> list:
    """The temporaries scratch declares for a block of this shape, each
    with the leading axes sets (one per set)."""
    if scratch is None:
        return []
    return [np.empty(sets + s, dtype=d) for s, d in scratch(shape)]


def ordered_map(fn, items) -> list:
    """Return [fn(item) for item in items], computed on the pool.

    At most _AT_ONCE items, and at most one per worker, are in work at
    once: that many tasks each take the next item of ``items``, under a
    lock and one at a time, compute fn of it and take the next, so only
    those items and the values fn builds from them are alive at once,
    however many items and cores there are. Results come back in the
    order of ``items``. If fn, or drawing an item, raises, no further
    item is taken, the items in work are finished, and the first
    exception in item order is raised: nothing of the call is still
    running when it returns or raises.

    Everything runs on the caller's thread, one item after another, when
    the process may use one core only, or when the caller is itself a
    pool worker: a worker never waits on its own pool.
    """
    width = min(_AT_ONCE, _WORKERS)
    if width < 2 or getattr(_thread, "is_worker", False):
        return [fn(item) for item in items]
    items = iter(items)
    end = object()
    lock = threading.Lock()
    stop = threading.Event()
    results = []
    errors = {}  # item index -> exception

    def drain():
        try:
            while not stop.is_set():
                with lock:
                    i = len(results)
                    item = next(items, end)
                    if item is end:
                        return
                    results.append(None)
                results[i] = fn(item)
        except BaseException as e:
            with lock:
                errors[i] = e
            stop.set()

    pool = _executor()
    futures = [pool.submit(drain) for _ in range(width)]
    try:
        # A task returns only once the items have run out or one failed.
        wait(futures, return_when=FIRST_COMPLETED)
    finally:
        stop.set()
        # A cancelled future counts as done for wait() only once a worker
        # has dequeued it, so wait on the ones that could not be cancelled.
        wait([f for f in futures if not f.cancel()])
    if errors:
        raise errors[min(errors)]
    return results
