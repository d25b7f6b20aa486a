"""The leading-axis split: bit-identical to one thread, no nested waits,
safe under concurrent callers.

Maps here are small, so the split is forced by lowering the size floor
and setting the worker count; a counting pool checks that it happened.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

import tlc.integral
from tlc import _parallel
from tlc.errors import NonFiniteValue
from tlc.integral import (
    PointwiseMap,
    build_integral,
    local_aggregate,
    local_max,
    local_mean_var,
    replicate_to_full,
    window_sums,
)
from tlc.modules import (
    NormParams,
    SeParams,
    cbam_channel_forward,
    ge_forward,
    norm_forward,
    se_forward,
)
from tlc.tensor import FeatureMap, WindowSpec

JOIN_TIMEOUT_S = 60


class CountingPool:
    """Stands in for the shared pool and counts the slices submitted."""

    def __init__(self, pool):
        self.pool = pool
        self.lock = threading.Lock()
        self.tasks = 0

    def submit(self, *args):
        with self.lock:
            self.tasks += 1
        return self.pool.submit(*args)


@pytest.fixture
def pool(monkeypatch):
    counting = CountingPool(_parallel._executor())
    monkeypatch.setattr(_parallel, "_executor", lambda: counting)
    return counting


def serial_then_split(monkeypatch, call, workers):
    """call() on one thread, then with every array split over workers."""
    monkeypatch.setattr(_parallel, "_MIN_VALUES", float("inf"))
    serial = call()
    monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    monkeypatch.setattr(_parallel, "_WORKERS", workers)
    return serial, call()


def assert_same(a, b):
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a.dtype == b.dtype and np.array_equal(a, b)


# (leading channels, workers): one channel, fewer channels than workers,
# and a count the workers do not divide.
SPLITS = [(1, 3), (2, 3), (7, 3), (6, 4)]
WINDOWS = [WindowSpec(1, 1), WindowSpec(4, 7), WindowSpec(6, 6), WindowSpec(50, 50)]

KERNELS = {
    "local_aggregate": lambda x, w: local_aggregate(x, PointwiseMap.IDENTITY, w),
    "local_aggregate_square": lambda x, w: local_aggregate(x, PointwiseMap.SQUARE, w),
    "local_max": local_max,
    "local_mean_var": local_mean_var,
}


def _map(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape) * 3.0 + 5.0


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("c,workers", SPLITS)
@pytest.mark.parametrize("w", WINDOWS, ids=str)
def test_split_kernel_equals_serial(monkeypatch, pool, name, c, workers, w):
    x = _map((c, 13, 17))
    serial, split = serial_then_split(monkeypatch, lambda: KERNELS[name](x, w), workers)
    assert_same(serial, split)
    # A 1 x 1 window is a copy, which local_aggregate makes before any split.
    copy_only = name != "local_max" and w == WindowSpec(1, 1)
    assert (pool.tasks > 0) == (c > 1 and not copy_only)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_split_kernel_equals_serial_on_4d_input(monkeypatch, pool, name):
    x = _map((5, 2, 13, 17))
    w = WindowSpec(4, 7)
    serial, split = serial_then_split(monkeypatch, lambda: KERNELS[name](x, w), 2)
    assert_same(serial, split)
    assert pool.tasks > 0


def _forwards(c):
    rng = np.random.default_rng(c)
    ratio = next(r for r in (3, 2, 1, c) if c % r == 0)
    se = SeParams(rng.standard_normal((c, c // ratio)),
                  rng.standard_normal((c // ratio, c)), ratio=ratio)
    gamma, beta = rng.uniform(0.5, 1.5, c), rng.uniform(-0.5, 0.5, c)
    groups = next(g for g in (3, 2, 1) if c % g == 0)
    return {
        "se": lambda x, w: se_forward(x, se, w),
        "cbam": lambda x, w: cbam_channel_forward(x, se, w),
        "gn": lambda x, w: norm_forward(x, NormParams(gamma, beta, groups=groups), w),
        "in": lambda x, w: norm_forward(x, NormParams(gamma, beta, groups=c), w),
        "ge": ge_forward,
    }


@pytest.mark.parametrize("module", ["se", "cbam", "gn", "in", "ge"])
@pytest.mark.parametrize("c,workers", SPLITS)
@pytest.mark.parametrize("w", [None] + WINDOWS, ids=str)
def test_split_module_equals_serial(monkeypatch, pool, module, c, workers, w):
    x = FeatureMap(_map((c, 13, 17)))
    forward = _forwards(c)[module]
    serial, split = serial_then_split(monkeypatch, lambda: forward(x, w).data, workers)
    assert_same(serial, split)
    assert (pool.tasks > 0) == (c > 1)


def test_nested_split_does_not_wait_on_its_own_pool(monkeypatch):
    # A fresh pool of exactly two threads: if each outer slice of
    # norm_forward split its own pooling again and waited, both threads
    # would wait on work that no free thread can run.
    monkeypatch.setattr(_parallel, "_pool", None)
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    x = FeatureMap(_map((8, 16, 16)))
    p = NormParams(np.ones(8), np.zeros(8), groups=8)
    done = []
    t = threading.Thread(target=lambda: done.append(norm_forward(x, p, WindowSpec(5, 5))),
                         daemon=True)
    try:
        t.start()
        t.join(JOIN_TIMEOUT_S)
        assert not t.is_alive() and len(done) == 1
    finally:
        if not t.is_alive():
            _parallel._pool.shutdown()


def test_concurrent_callers_get_identical_bytes(monkeypatch):
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    x = FeatureMap(_map((6, 40, 40)))
    forwards = _forwards(6)
    w = WindowSpec(9, 12)

    def convert():
        return [forwards[m](x, w).data.tobytes() for m in sorted(forwards)]

    want = convert()
    results, errors = [], []

    def caller():
        try:
            for _ in range(3):
                results.append(convert())
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 12 and all(r == want for r in results)


def _split_in_child(x, want):
    sys.exit(0 if np.array_equal(local_max(x, WindowSpec(5, 5)), want) else 1)


def test_forked_child_gets_a_pool_of_its_own(monkeypatch):
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    x = _map((4, 16, 16))
    want = local_max(x, WindowSpec(5, 5))  # the parent's pool now has threads
    child = multiprocessing.get_context("fork").Process(target=_split_in_child,
                                                         args=(x, want))
    child.start()
    child.join(JOIN_TIMEOUT_S)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_split_above_floor_calls_the_public_kernels(monkeypatch, pool):
    # Code that wraps the module-level kernels (as a tracer does) must
    # see them called when the work is split across threads.
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    calls = {"build_integral": [], "window_sums": [], "replicate_to_full": []}

    def counting(fn, seen):
        def wrapper(*args, **kwargs):
            seen.append(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for name, seen in calls.items():
        monkeypatch.setattr(tlc.integral, name, counting(getattr(tlc.integral, name), seen))
    x = _map((4, 512, 512))
    assert x.size >= _parallel._MIN_VALUES
    local_aggregate(x, PointwiseMap.IDENTITY, WindowSpec(96, 96))
    local_max(x, WindowSpec(96, 96))
    assert pool.tasks == 4
    assert {name: len(seen) for name, seen in calls.items()} == {
        "build_integral": 2, "window_sums": 2, "replicate_to_full": 4}


@pytest.mark.parametrize("shape", [(1, 23), (23, 1), (3, 1, 23), (3, 23, 1)])
@pytest.mark.parametrize("k", [1, 4, 5, 30])
def test_in_place_replication_matches_np_pad(shape, k):
    x = _map(shape)
    h, w = shape[-2:]
    k_h, k_w = min(k, h), min(k, w)
    interior = window_sums(build_integral(x), k_h, k_w)
    top, left = (k_h - 1) // 2, (k_w - 1) // 2
    pad = [(0, 0)] * (x.ndim - 2) + [(top, h - interior.shape[-2] - top),
                                     (left, w - interior.shape[-1] - left)]
    want = np.pad(interior, pad, mode="edge")
    # A separate interior, and one that already is out's centre.
    assert np.array_equal(replicate_to_full(interior, h, w, k_h, k_w), want)
    out = np.full(x.shape, np.nan)
    centre = out[..., top:top + interior.shape[-2], left:left + interior.shape[-1]]
    centre[...] = interior
    assert replicate_to_full(centre, h, w, k_h, k_w, out=out) is out
    assert np.array_equal(out, want)
    area = float(k_h * k_w)
    if k_h * k_w > 1:
        assert np.array_equal(local_aggregate(x, PointwiseMap.IDENTITY, WindowSpec(k, k)),
                              np.pad(interior / area, pad, mode="edge"))


@pytest.mark.parametrize("split", [False, True])
def test_single_nan_or_inf_anywhere_is_rejected(monkeypatch, split):
    if split:
        monkeypatch.setattr(_parallel, "_WORKERS", 2)
        monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    for channel, bad in ((-1, np.nan), (0, np.inf), (0, -np.inf), (-1, np.inf)):
        x = _map((5, 9, 11))
        x[channel, 4, 7] = bad
        with pytest.raises(NonFiniteValue):
            FeatureMap(x)
    FeatureMap(_map((5, 9, 11)))
