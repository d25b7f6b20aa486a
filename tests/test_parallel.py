"""The leading-axis split: bit-identical to one thread, no nested waits,
safe under concurrent callers.

Maps here are small, so the split is forced by lowering the size floor
and setting the worker count; a counting pool checks that it happened.
"""

import csv
import math
import multiprocessing
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tlc.integral
from tlc import _parallel, fusion, modules, tensor
from tlc.cli import main as cli_main
from tlc.errors import NonFiniteValue, TruncatedPayload
from tlc.integral import (
    build_integral,
    local_aggregate,
    local_max,
    local_mean_var,
    replicate_to_full,
    strided_local_mean,
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
from tlc.tensor import FeatureMap, WindowSpec, read_tensor, write_tensor

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


class PeakPool:
    """Runs each submitted task to completion, one at a time, on one
    marked worker thread and records the task's tracemalloc peak: the
    most it held beyond what was held when it started."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(max_workers=1, initializer=_parallel._mark_worker)
        self.peaks = []

    def submit(self, fn, *args):
        def measured():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                fn(*args)
            finally:
                self.peaks.append(tracemalloc.get_traced_memory()[1] - before)

        future = self.pool.submit(measured)
        future.exception()  # waits; leading_map re-raises it
        return future


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
    "local_aggregate": local_aggregate,
    # The windowed mean of the square, the second moment of a variance.
    "local_aggregate_square": lambda x, w: local_aggregate(x * x, w),
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
    copy_only = name.startswith("local_aggregate") and w == WindowSpec(1, 1)
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
    local_aggregate(x, WindowSpec(96, 96))
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
        assert np.array_equal(local_aggregate(x, WindowSpec(k, k)),
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


# --- blocks smaller than one worker's share ----------------------------------


class RecordingPool(CountingPool):
    """A counting pool that also records each block's row count."""

    def __init__(self, pool):
        super().__init__(pool)
        self.rows = []

    def submit(self, fn, *blocks):
        with self.lock:
            self.rows.append(blocks[-1].shape[0])  # the out block
        return super().submit(fn, *blocks)


@pytest.fixture
def recording(monkeypatch):
    recording = RecordingPool(_parallel._executor())
    monkeypatch.setattr(_parallel, "_executor", lambda: recording)
    return recording


def serial_then_blocked(monkeypatch, call, workers, block_values):
    """call() on one thread, then cut into blocks of at most block_values."""
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", block_values)
    return serial_then_split(monkeypatch, call, workers)


# (shape, workers, rows that fit the block size, blocks): rows that do
# not divide C, one row per block, a single channel (never cut), a block
# size above one worker's share (cut smaller, so every worker gets a
# block), and a 4-D map.
BLOCKINGS = [
    ((7, 13, 17), 2, 2, 4),
    ((7, 13, 17), 2, 1, 7),
    ((1, 13, 17), 2, 1, 0),
    ((7, 13, 17), 3, 100, 4),
    ((5, 2, 13, 17), 2, 2, 3),
]
# Calls of the map per kernel call: local_mean_var computes both
# statistics of a block in one call.
MAP_CALLS = {"local_aggregate": 1, "local_aggregate_square": 1, "local_max": 1,
             "local_mean_var": 1}


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("shape,workers,rows,blocks", BLOCKINGS, ids=str)
def test_blocked_kernel_equals_serial(monkeypatch, recording, name, shape, workers,
                                      rows, blocks):
    x = _map(shape)
    row_values = x[0].size
    serial, split = serial_then_blocked(monkeypatch, lambda: KERNELS[name](x, WindowSpec(4, 7)),
                                        workers, rows * row_values)
    assert_same(serial, split)
    assert recording.tasks == MAP_CALLS[name] * blocks
    if blocks:
        # The blocks tile axis 0 in order: full blocks, then the rest.
        per_call = recording.rows[:blocks]
        assert recording.rows == per_call * MAP_CALLS[name]
        assert sum(per_call) == shape[0] and len(set(per_call[:-1])) <= 1
        assert per_call[0] >= per_call[-1]


@pytest.mark.parametrize("shape", [(7, 13, 17), (5, 2, 13, 17)], ids=str)
@pytest.mark.parametrize("w", [WindowSpec(4, 7), WindowSpec(6, 6), WindowSpec(50, 50)], ids=str)
def test_blocked_strided_mean_equals_serial(monkeypatch, recording, shape, w):
    # The grid means run in local_aggregate's blocks, of two rows here.
    x = _map(shape)
    serial, split = serial_then_blocked(monkeypatch, lambda: strided_local_mean(x, w, 2),
                                        2, 2 * x[0, ..., ::2, ::2].size)
    assert_same(serial, split)
    assert recording.tasks > 0


@pytest.mark.parametrize("module", ["se", "cbam", "gn", "in", "ge"])
@pytest.mark.parametrize("shape,workers,rows,blocks", BLOCKINGS[:4], ids=str)
@pytest.mark.parametrize("w", [None, WindowSpec(1, 1), WindowSpec(4, 7), WindowSpec(50, 50)],
                         ids=str)
def test_blocked_module_equals_serial(monkeypatch, recording, module, shape, workers,
                                      rows, blocks, w):
    c = shape[0]
    x = FeatureMap(_map(shape))
    forward = _forwards(c)[module]
    serial, split = serial_then_blocked(monkeypatch, lambda: forward(x, w).data,
                                        workers, rows * x.data[0].size)
    assert_same(serial, split)
    assert (recording.tasks > 0) == (blocks > 0)


# --- TLCT payload conversion and the convert epilogue, in blocks --------------


@pytest.fixture
def blocks_of_two_channels(monkeypatch, recording):
    """Every map of more than one channel is cut into two-channel blocks."""
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", 2 * 9 * 11)
    return recording


@pytest.mark.parametrize("layout", ["c", "fortran", "transposed"])
def test_blocked_tlct_round_trip_is_bit_exact(tmp_path, blocks_of_two_channels, layout):
    values = _map((7, 9, 11)).astype(np.float32).astype(np.float64)
    arr = {"c": values, "fortran": np.asfortranarray(values),
           "transposed": values.transpose(0, 2, 1)}[layout]
    path = tmp_path / "t.tlct"
    write_tensor(FeatureMap(arr), path)
    assert path.read_bytes()[20:] == arr.astype("<f4").tobytes(order="C")
    back = read_tensor(path)
    assert back.data.dtype == np.float64 and np.array_equal(back.data, arr)
    assert blocks_of_two_channels.tasks > 0


def test_blocked_read_of_payload_truncated_mid_block(tmp_path, blocks_of_two_channels):
    path = tmp_path / "t.tlct"
    write_tensor(FeatureMap(_map((7, 9, 11))), path)
    # Cut the file inside the third two-channel block.
    path.write_bytes(path.read_bytes()[:20 + 4 * (5 * 9 * 11 - 3)])
    with pytest.raises(TruncatedPayload):
        read_tensor(path)


@pytest.mark.parametrize("channel,bad", [(-1, np.nan), (0, np.inf), (0, -np.inf)])
def test_blocked_read_rejects_non_finite_in_any_block(tmp_path, blocks_of_two_channels,
                                                       channel, bad):
    x = _map((7, 9, 11)).astype("<f4")
    x[channel, 8, 10] = bad
    path = tmp_path / "t.tlct"
    path.write_bytes(struct.pack("<4sIIII", b"TLCT", 1, *x.shape) + x.tobytes())
    with pytest.raises(NonFiniteValue):
        read_tensor(path)


def _report(path):
    with open(path) as fh:
        return {row[0]: row[1] for row in list(csv.reader(fh))[1:]}


@pytest.mark.parametrize("sign", [1, -1])
def test_blocked_convert_reports_the_max_of_the_written_absdiff(tmp_path,
                                                                 blocks_of_two_channels, sign):
    # IN without affine is odd in its input, so the largest
    # |global - local| is a negative difference for one sign and a
    # positive one for the other.
    for name, value in (("gamma", 1.0), ("beta", 0.0)):
        write_tensor(FeatureMap(np.full((7, 1, 1), value)), tmp_path / f"{name}.tlct")
    (tmp_path / "in.params").write_text("norm.gamma=gamma.tlct\nnorm.beta=beta.tlct\n")
    inp = tmp_path / "x.tlct"
    write_tensor(FeatureMap(sign * _map((7, 9, 11))), inp)
    outdir = tmp_path / "in"
    assert cli_main(["convert", "--module", "in", "--input", str(inp),
                     "--params", str(tmp_path / "in.params"),
                     "--outdir", str(outdir), "--k", "3", "4"]) == 0
    got, want = (read_tensor(outdir / f"{n}.tlct").data for n in ("global", "local"))
    absdiff = read_tensor(outdir / "absdiff.tlct").data
    reported = float(_report(outdir / "report.csv")["max_abs_diff"])
    assert reported > 0
    assert np.float32(reported) == absdiff.max()
    # The stored maps are float32, so their difference is within rounding.
    assert reported == pytest.approx(np.abs(got - want).max(), rel=1e-5)
    assert blocks_of_two_channels.tasks > 0


def _manifests(d, c):
    rng = np.random.default_rng(c)
    for name, arr in (("reduce", rng.standard_normal((c, c // 2, 1))),
                      ("expand", rng.standard_normal((c // 2, c, 1))),
                      ("gamma", rng.uniform(0.5, 1.5, (c, 1, 1))),
                      ("beta", rng.uniform(-0.5, 0.5, (c, 1, 1)))):
        write_tensor(FeatureMap(arr), d / f"{name}.tlct")
    (d / "se.params").write_text("se.reduce=reduce.tlct\nse.expand=expand.tlct\n")
    (d / "gn.params").write_text("norm.gamma=gamma.tlct\nnorm.beta=beta.tlct\nnorm.groups=2\n")
    (d / "in.params").write_text("norm.gamma=gamma.tlct\nnorm.beta=beta.tlct\n")


def _convert_all(d, outdir, k):
    """Every module's convert output files at window k, by name, as bytes."""
    files = {}
    for module, params in (("se", "se"), ("cbam", "se"), ("gn", "gn"), ("in", "in"),
                           ("ge", None)):
        argv = ["convert", "--module", module, "--input", str(d / "x.tlct"),
                "--outdir", str(outdir / module), "--k", *map(str, k)]
        if params:
            argv += ["--params", str(d / f"{params}.params")]
        assert cli_main(argv) == 0
        for path in sorted((outdir / module).iterdir()):
            files[f"{module}/{path.name}"] = path.read_bytes()
    return files


@pytest.mark.parametrize("k", [(4, 7), (19, 23)], ids=["local", "covering"])
def test_convert_outputs_are_byte_identical_serial_and_in_blocks(monkeypatch, tmp_path,
                                                                 recording, k):
    # One-channel blocks stream the 6 channels in 3 rounds of 2. With a
    # covering window local.tlct then comes from the apply step, and
    # absdiff.tlct from a zero-stride array.
    _manifests(tmp_path, 6)
    write_tensor(FeatureMap(_map((6, 19, 23))), tmp_path / "x.tlct")
    monkeypatch.setattr(_parallel, "_MIN_VALUES", float("inf"))
    serial = _convert_all(tmp_path, tmp_path / "serial", k)
    assert recording.tasks == 0
    monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", 19 * 23)
    blocked = _convert_all(tmp_path, tmp_path / "blocked", k)
    assert recording.tasks > 0
    assert len(serial) == 5 * 4 and blocked == serial
    if k == (19, 23):
        for module in ("se", "cbam", "gn", "in", "ge"):
            assert blocked[f"{module}/local.tlct"] == blocked[f"{module}/global.tlct"]
            absdiff = read_tensor(tmp_path / "blocked" / module / "absdiff.tlct").data
            assert not absdiff.any()


# --- global mode: coefficients, then the apply step in blocks ---------------


def _global_steps(c):
    """Each module's global coefficient step on a map, with the same
    parameters as _forwards(c)."""
    rng = np.random.default_rng(c)
    ratio = next(r for r in (3, 2, 1, c) if c % r == 0)
    se = SeParams(rng.standard_normal((c, c // ratio)),
                  rng.standard_normal((c // ratio, c)), ratio=ratio)
    gamma, beta = rng.uniform(0.5, 1.5, c), rng.uniform(-0.5, 0.5, c)
    groups = next(g for g in (3, 2, 1) if c % g == 0)
    return {
        "se": lambda x: modules._global_steps("se", x, se),
        "cbam": lambda x: modules._global_steps("cbam", x, se),
        "gn": lambda x: modules._global_steps("gn", x, NormParams(gamma, beta, groups=groups)),
        "in": lambda x: modules._global_steps("in", x, NormParams(gamma, beta, groups=c)),
        "ge": lambda x: modules._global_steps("ge", x, None),
    }


@pytest.mark.parametrize("module", ["se", "cbam", "gn", "in", "ge"])
@pytest.mark.parametrize("shape,workers,rows,blocks", BLOCKINGS[:4], ids=str)
def test_global_coefficients_and_blocked_apply_equal_the_forward(
        monkeypatch, recording, module, shape, workers, rows, blocks):
    x = FeatureMap(_map(shape))
    monkeypatch.setattr(_parallel, "_MIN_VALUES", float("inf"))
    want = _forwards(shape[0])[module](x, None).data
    monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    monkeypatch.setattr(_parallel, "_WORKERS", workers)
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", rows * x.data[0].size)
    apply, coefficients = _global_steps(shape[0])[module](x)
    assert all(a.shape == (shape[0], 1, 1) for a in coefficients)
    got = np.full(shape, np.nan)
    assert _parallel.leading_map(apply, x.data, *coefficients, out=got) is got
    assert np.array_equal(got, want)
    assert (recording.tasks > 0) == (blocks > 0)


# --- one block rule: blocks in order on the calling thread -------------------
#
# Above the size floor a map is cut into blocks whether or not the pool
# can run them. With one worker, or inside a pool task (a worker never
# waits on its own pool), the blocks run in order on the calling thread.


@pytest.fixture(params=["one worker", "in a pool task"])
def unpooled(request, monkeypatch, pool):
    """(run, workers): run(call) calls call() where leading_map may not use
    the pool; workers is the worker count leading_map sees there."""
    if request.param == "one worker":
        monkeypatch.setattr(_parallel, "_WORKERS", 1)
        return (lambda call: call()), 1
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    real = pool.pool  # the counting pool counts only leading_map's own submissions
    return (lambda call: real.submit(call).result()), 2


# (shape, rows that fit the block size, {workers: rows of each block}):
# rows that do not divide C, one row per block, a block size above one
# worker's share, a single row and a 4-D map.
IN_ORDER = [
    ((7, 13, 17), 2, {1: [2, 2, 2, 1], 2: [2, 2, 2, 1]}),
    ((7, 13, 17), 1, {1: [1] * 7, 2: [1] * 7}),
    ((7, 13, 17), 100, {1: [7], 2: [3, 3, 1]}),
    ((1, 13, 17), 1, {1: [1], 2: [1]}),
    ((5, 2, 13, 17), 2, {1: [2, 2, 1], 2: [2, 2, 1]}),
]


@pytest.mark.parametrize("shape,rows,blocks", IN_ORDER, ids=str)
def test_blocks_run_in_order_on_the_calling_thread(monkeypatch, pool, unpooled, shape, rows,
                                                   blocks):
    run, workers = unpooled
    monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", rows * math.prod(shape[1:]))
    # Each row holds its own index, so a block shows where it starts.
    x = np.broadcast_to(np.arange(shape[0], dtype=float).reshape((-1,) + (1,) * (len(shape) - 1)),
                        shape)
    seen = []

    def fn(xs, out):
        seen.append((int(xs.flat[0]), len(xs), len(out), threading.get_ident()))
        out[...] = xs

    def call():
        return threading.get_ident(), _parallel.leading_map(fn, x)

    caller, got = run(call)
    starts = np.cumsum([0] + blocks[workers][:-1]).tolist()
    assert seen == [(lo, n, n, caller) for lo, n in zip(starts, blocks[workers])]
    assert got.dtype == np.float64 and np.array_equal(got, x)
    assert pool.tasks == 0


@pytest.mark.parametrize("shape", [(7, 13, 17), (13, 17), (17,)], ids=str)
def test_map_under_the_floor_is_one_call_with_an_allocated_out(monkeypatch, pool, unpooled,
                                                              shape):
    run, _ = unpooled
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", 1)
    x = _map(shape)
    seen = []

    def fn(xs, out):
        seen.append((xs.shape, out.shape, out.dtype))
        np.negative(xs, out=out)

    got = run(lambda: _parallel.leading_map(fn, x))
    assert seen == [(shape, shape, np.float64)]
    assert np.array_equal(got, -x)
    assert pool.tasks == 0


def unblocked_then_in_order(monkeypatch, run, call, rows_of):
    """call() as one unblocked call, then through run with blocks of
    rows_of(...) rows, where leading_map may not use the pool."""
    monkeypatch.setattr(_parallel, "_MIN_VALUES", float("inf"))
    unblocked = call()
    monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", rows_of)
    return unblocked, run(call)


@pytest.mark.parametrize("name", sorted(KERNELS) + ["strided_local_mean"])
@pytest.mark.parametrize("shape", [(7, 13, 17), (5, 2, 13, 17)], ids=str)
@pytest.mark.parametrize("w", WINDOWS[1:], ids=str)
def test_in_order_kernel_equals_unblocked(monkeypatch, pool, unpooled, name, shape, w):
    run, _ = unpooled
    x = _map(shape)
    kernel = KERNELS.get(name, lambda x, w: strided_local_mean(x, w, 2))
    unblocked, blocked = unblocked_then_in_order(monkeypatch, run, lambda: kernel(x, w),
                                                 2 * 13 * 17)
    assert_same(unblocked, blocked)
    assert pool.tasks == 0


@pytest.mark.parametrize("module", ["se", "cbam", "gn", "in", "ge"])
@pytest.mark.parametrize("w", [None, WindowSpec(1, 1), WindowSpec(4, 7), WindowSpec(50, 50)],
                         ids=str)
def test_in_order_module_equals_unblocked(monkeypatch, pool, unpooled, module, w):
    run, _ = unpooled
    x = FeatureMap(_map((7, 13, 17)))
    forward = _forwards(7)[module]
    unblocked, blocked = unblocked_then_in_order(monkeypatch, run, lambda: forward(x, w).data,
                                                 13 * 17)
    assert_same(unblocked, blocked)
    assert pool.tasks == 0


def test_in_order_seam_metric_equals_unblocked(monkeypatch, pool, unpooled):
    run, _ = unpooled
    data = _map((7, 24, 31))
    data[::2, ::3] *= 4.0  # channels and rows of different scales
    x = FeatureMap(data)
    plan = fusion.plan_tiles(24, 31, (8, 10), (5, 7))
    unblocked, blocked = unblocked_then_in_order(monkeypatch, run,
                                                 lambda: fusion.seam_metric(x, plan), 24 * 31)
    assert np.float64(unblocked).tobytes() == np.float64(blocked).tobytes()
    assert pool.tasks == 0


@pytest.mark.parametrize("channel", [None, 0, 3, 6])
def test_in_order_feature_map_check_equals_unblocked(monkeypatch, pool, unpooled, channel):
    run, _ = unpooled
    x = _map((7, 9, 11))
    if channel is not None:
        x[channel, 4, 5] = np.nan

    def check():
        flags = _parallel.leading_map(tensor._finite_channels, x,
                                      out=np.empty(len(x), dtype=bool))
        try:
            FeatureMap(x)
            raised = False
        except NonFiniteValue:
            raised = True
        return flags, raised

    (want, want_raised), (got, got_raised) = unblocked_then_in_order(monkeypatch, run, check,
                                                                     2 * 9 * 11)
    assert got.tobytes() == want.tobytes()
    assert got_raised == want_raised == (channel is not None)
    assert pool.tasks == 0


@pytest.mark.parametrize("kernel", [local_aggregate, local_max], ids=lambda f: f.__name__)
def test_one_worker_kernel_holds_block_sized_temporaries(monkeypatch, kernel):
    # 32 x 256 x 256 is 16.8 MB, cut into four blocks of 8 channels; a
    # block's summed-area table or running-max scratch is 4.2 MB. Run as
    # one call, the table alone was a second map: the peak read 34.7 MB.
    monkeypatch.setattr(_parallel, "_WORKERS", 1)
    x = np.random.default_rng(3).standard_normal((32, 256, 256))
    tracemalloc.start()
    try:
        out = kernel(x, WindowSpec(32, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 6.0e6


# --- temporaries: one set per block in flight --------------------------------


def test_blocks_in_flight_never_share_a_set_of_temporaries(monkeypatch):
    # A fresh pool of 8 threads on calls that see 2 workers: each call
    # allocates 2 sets for its 7 one-row blocks, so most tasks wait for a
    # set. A set lent to two blocks at once would mix their rows.
    monkeypatch.setattr(_parallel, "_pool", None)
    monkeypatch.setattr(_parallel, "_WORKERS", 8)
    _parallel._executor()
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", 1)
    x = _map((7, 13, 17))

    def fn(xs, out, a, b):
        a[...] = xs
        b[...] = -xs
        for _ in range(50):  # switch threads while the set is held
            np.add(a, b, out=out)
        np.subtract(a, out, out=out)

    def call():
        return _parallel.leading_map(fn, x, scratch=lambda s: [(s, np.float64)] * 2)

    results, errors = [], []

    def caller():
        try:
            for _ in range(10):
                results.append(call())
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
        if not any(t.is_alive() for t in threads):
            _parallel._pool.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 40 and all(np.array_equal(r, x) for r in results)


# --- pool tasks allocate nothing of a channel's size -------------------------


def _task_calls():
    """Every leading_map body that runs on the pool, as calls on a
    16 x 256 x 256 map (the size floor, two blocks of 8 channels)."""
    x = _map((16, 256, 256))
    fmap = FeatureMap(x)
    w = WindowSpec(33, 17)
    rng = np.random.default_rng(5)
    se = SeParams(rng.standard_normal((16, 4)), rng.standard_normal((4, 16)), ratio=4)
    gamma, beta = rng.uniform(0.5, 1.5, 16), rng.uniform(-0.5, 0.5, 16)
    gn, norm_in = NormParams(gamma, beta, groups=4), NormParams(gamma, beta, groups=16)
    plan = fusion.plan_tiles(256, 256, (64, 64), (32, 32))
    return {
        "local_aggregate": lambda: local_aggregate(x, w),
        "local_max": lambda: local_max(x, w),
        "local_mean_var": lambda: local_mean_var(x, w),
        "FeatureMap": lambda: FeatureMap(x),
        "se": lambda: se_forward(fmap, se, w),
        "cbam": lambda: cbam_channel_forward(fmap, se, w),
        "gn": lambda: norm_forward(fmap, gn, w),
        "in": lambda: norm_forward(fmap, norm_in, w),
        "ge": lambda: ge_forward(fmap, w),
        "gn_global_step": lambda: modules._global_steps("gn", fmap, gn),
        "seam_metric": lambda: fusion.seam_metric(fmap, plan),
    }


@pytest.mark.parametrize("name", sorted(_task_calls()))
def test_pool_tasks_allocate_no_channel_sized_array(monkeypatch, name):
    # leading_map hands each block its temporaries from the calling
    # thread, so a task holds at most numpy's own buffers. Allocated in
    # the tasks, they held 513 KiB (a bool map, in FeatureMap, SE) to
    # 12.3 MiB (IN's mean, variance and table) each.
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    peaks = PeakPool()
    monkeypatch.setattr(_parallel, "_executor", lambda: peaks)
    call = _task_calls()[name]
    tracemalloc.start()
    try:
        call()
    finally:
        tracemalloc.stop()
        peaks.pool.shutdown()
    assert peaks.peaks
    assert max(peaks.peaks) < 256 * 256 * 8  # one float64 channel, 512 KiB



def _float32_task_calls():
    """The pool bodies of _task_calls on a float32 map, and the global
    steps that pool a float32 map (GE's mean, CBAM's max)."""
    x = _map((16, 256, 256)).astype(np.float32)
    fmap = FeatureMap(x)
    w = WindowSpec(33, 17)
    rng = np.random.default_rng(5)
    se = SeParams(rng.standard_normal((16, 4)), rng.standard_normal((4, 16)), ratio=4)
    gamma, beta = rng.uniform(0.5, 1.5, 16), rng.uniform(-0.5, 0.5, 16)
    gn, norm_in = NormParams(gamma, beta, groups=4), NormParams(gamma, beta, groups=16)
    plan = fusion.plan_tiles(256, 256, (64, 64), (32, 32))
    return {
        "local_aggregate": lambda: local_aggregate(x, w),
        "local_max": lambda: local_max(x, w),
        "local_mean_var": lambda: local_mean_var(x, w),
        "FeatureMap": lambda: FeatureMap(x),
        "se": lambda: se_forward(fmap, se, w),
        "cbam": lambda: cbam_channel_forward(fmap, se, w),
        "gn": lambda: norm_forward(fmap, gn, w),
        "in": lambda: norm_forward(fmap, norm_in, w),
        "ge": lambda: ge_forward(fmap, w),
        "gn_global_step": lambda: modules._global_steps("gn", fmap, gn),
        "ge_global_step": lambda: modules._global_steps("ge", fmap, None),
        "cbam_global_step": lambda: modules._global_steps("cbam", fmap, se),
        "seam_metric": lambda: fusion.seam_metric(fmap, plan),
    }


@pytest.mark.parametrize("name", sorted(_float32_task_calls()))
def test_float32_pool_tasks_allocate_no_channel_sized_array(monkeypatch, name):
    # A float32 block is widened into a float64 temporary that leading_map
    # allocates on the calling thread, or into the block's own table or
    # output, so a task holds no more than it does on a float64 map.
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    peaks = PeakPool()
    monkeypatch.setattr(_parallel, "_executor", lambda: peaks)
    call = _float32_task_calls()[name]
    tracemalloc.start()
    try:
        call()
    finally:
        tracemalloc.stop()
        peaks.pool.shutdown()
    assert peaks.peaks
    assert max(peaks.peaks) < 256 * 256 * 8  # one float64 channel, 512 KiB
