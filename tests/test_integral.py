import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import _parallel
from tlc.errors import EmptyWindowSample
from tlc.integral import (
    brute_force_local_mean,
    build_integral,
    local_aggregate,
    local_max,
    local_mean_var,
    replicate_to_full,
    strided_local_mean,
    window_sums,
)
from tlc.tensor import WindowSpec

from conftest import sliding_stats_oracle, strided_mean_oracle

X22 = np.array([[1.0, 2.0], [3.0, 4.0]])


def test_integral_single_element():
    assert np.array_equal(build_integral(np.array([[1.0]])), [[0, 0], [0, 1]])


def test_integral_total_sum():
    assert build_integral(X22)[2][2] == 10.0


def test_integral_all_binary_maps_exhaustive():
    # Every rectangle query of every binary map up to 3x3.
    for h in range(1, 4):
        for w in range(1, 4):
            for bits in itertools.product([0.0, 1.0], repeat=h * w):
                x = np.array(bits).reshape(h, w)
                table = build_integral(x)
                for a in range(h):
                    for b in range(a + 1, h + 1):
                        for c in range(w):
                            for d in range(c + 1, w + 1):
                                direct = x[a:b, c:d].sum()
                                got = (table[b][d] - table[a][d]
                                       - table[b][c] + table[a][c])
                                assert got == direct


def test_integral_zero_borders(rng):
    t = build_integral(rng.standard_normal((5, 7)))
    assert np.all(t[0, :] == 0) and np.all(t[:, 0] == 0)


@pytest.mark.parametrize("shape", [(1, 1), (5, 7), (3, 4, 6), (2, 3, 1, 9)], ids=str)
def test_integral_into_a_nan_filled_out_equals_a_fresh_table(rng, shape):
    x = rng.standard_normal(shape)
    want = build_integral(x)
    out = np.full(shape[:-2] + (shape[-2] + 1, shape[-1] + 1), np.nan)
    assert build_integral(x, out=out) is out
    assert out.tobytes() == want.tobytes()
    assert not out[..., 0, :].any() and not out[..., :, 0].any()


def test_window_sums_matches_direct(rng):
    x = rng.standard_normal((10, 12))
    t = build_integral(x)
    s = window_sums(t, 3, 4)
    for r in range(s.shape[0]):
        for c in range(s.shape[1]):
            assert s[r, c] == pytest.approx(x[r:r + 3, c:c + 4].sum(), abs=1e-10)


def test_local_aggregate_covering_window_is_global(rng):
    x = rng.standard_normal((6, 9))
    out = local_aggregate(x, WindowSpec(100, 100))
    assert np.max(np.abs(out - x.mean())) < 1e-12


def test_local_aggregate_constant_field():
    x = np.full((7, 5), 3.0)
    out = local_aggregate(x, WindowSpec(3, 3))
    assert np.allclose(out, 3.0, atol=1e-12)


def test_local_aggregate_identity_window(rng):
    x = rng.standard_normal((8, 8))
    out = local_aggregate(x, WindowSpec(1, 1))
    assert np.array_equal(out, x)
    assert not np.shares_memory(out, x)


def test_local_aggregate_vs_oracle(rng):
    x = rng.standard_normal((16, 16))
    got = local_aggregate(x, WindowSpec(5, 5))
    want = sliding_stats_oracle(x, WindowSpec(5, 5))[0]
    assert np.max(np.abs(got - want)) < 1e-9


def test_local_aggregate_even_window_vs_oracle(rng):
    x = rng.standard_normal((11, 13))
    got = local_aggregate(x, WindowSpec(4, 6))
    mean, _, _ = sliding_stats_oracle(x, WindowSpec(4, 6))
    assert np.max(np.abs(got - mean)) < 1e-9


def test_shift_equivariance_away_from_edges(rng):
    x = rng.standard_normal((20, 20))
    k = 5
    shifted = np.roll(x, (2, 3), axis=(0, 1))
    a = local_aggregate(x, WindowSpec(k, k))
    b = local_aggregate(shifted, WindowSpec(k, k))
    # Compare deep-interior values only (away from replication and wrap).
    assert np.allclose(a[6:12, 6:12], b[8:14, 9:15], atol=1e-12)


def test_local_mean_var_constant_is_zero_var():
    _, var = local_mean_var(np.full((9, 9), 2.5), WindowSpec(4, 4))
    assert np.all(var == 0.0)


def test_local_mean_var_global_reduction(rng):
    x = rng.standard_normal((8, 8))
    mean, var = local_mean_var(x, WindowSpec(50, 50))
    assert np.allclose(mean, x.mean(), atol=1e-12)
    assert np.allclose(var, x.var(), atol=1e-12)


def test_local_mean_var_vs_two_pass_oracle(rng):
    x = rng.standard_normal((32, 32))
    mean, var = local_mean_var(x, WindowSpec(7, 7))
    omean, ovar, _ = sliding_stats_oracle(x, WindowSpec(7, 7))
    assert np.max(np.abs(mean - omean)) < 1e-9
    assert np.max(np.abs(var - ovar)) < 1e-7


def test_variance_never_negative(rng):
    for _ in range(20):
        x = np.full((12, 12), 1e8) + rng.standard_normal((12, 12)) * 1e-4
        _, var = local_mean_var(x, WindowSpec(3, 3))
        assert np.all(var >= 0.0)


def test_local_max_constant():
    out = local_max(np.full((6, 6), -1.5), WindowSpec(3, 3))
    assert np.all(out == -1.5)


def test_local_max_covering_window(rng):
    x = rng.standard_normal((7, 9))
    assert np.all(local_max(x, WindowSpec(20, 20)) == x.max())


def test_local_max_vs_oracle_exact(rng):
    for k_h, k_w in [(5, 5), (1, 4), (3, 2), (16, 16)]:
        x = rng.standard_normal((16, 16))
        got = local_max(x, WindowSpec(k_h, k_w))
        want = sliding_stats_oracle(x, WindowSpec(k_h, k_w))[2]
        assert np.array_equal(got, want)


def _scipy_local_max(x, k_h, k_w):
    """local_max with scipy.ndimage's running max as the oracle: valid
    windows from a right-aligned maximum_filter, replicated by index
    clipping."""
    ndimage = pytest.importorskip("scipy.ndimage")
    lead = (1,) * (x.ndim - 2)
    valid = ndimage.maximum_filter(
        x, size=lead + (k_h, k_w), mode="nearest",
        origin=(0,) * len(lead) + ((k_h - 1) // 2, (k_w - 1) // 2),
    )[..., k_h - 1:, k_w - 1:]
    h, w = x.shape[-2:]
    rows = np.clip(np.arange(h) - (k_h - 1) // 2, 0, valid.shape[-2] - 1)
    cols = np.clip(np.arange(w) - (k_w - 1) // 2, 0, valid.shape[-1] - 1)
    return valid[..., rows[:, None], cols[None, :]]


def _tied_map(shape, seed=0):
    # Seven distinct integer values, so most windows hold tied maxima.
    return np.random.default_rng(seed).integers(-3, 4, size=shape).astype(np.float64)


@pytest.mark.parametrize("shape", [(3, 9, 11), (1, 13), (12, 1), (2, 3, 7, 6)], ids=str)
def test_local_max_equals_scipy_for_every_window(shape):
    x = _tied_map(shape)
    h, w = shape[-2:]
    for k_h, k_w in itertools.product(range(1, h + 1), range(1, w + 1)):
        want = _scipy_local_max(x, k_h, k_w)
        assert np.array_equal(local_max(x, WindowSpec(k_h, k_w)), want), (k_h, k_w)


@pytest.mark.parametrize("rows_per_block", [1, 2, 5])
def test_blocked_local_max_equals_scipy(monkeypatch, rows_per_block):
    x = _tied_map((7, 10, 12), seed=rows_per_block)
    monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", rows_per_block * 10 * 12)
    for k_h, k_w in [(1, 1), (2, 1), (1, 12), (3, 5), (8, 7), (10, 12)]:
        want = _scipy_local_max(x, k_h, k_w)
        assert np.array_equal(local_max(x, WindowSpec(k_h, k_w)), want), (k_h, k_w)


def test_strided_r1_bit_identical(rng):
    x = rng.standard_normal((17, 23))
    w = WindowSpec(5, 6)
    exact = local_aggregate(x, w)
    assert np.array_equal(strided_local_mean(x, w, 1), exact)


def test_strided_constant_exact():
    x = np.full((16, 16), 4.25)
    for r in (1, 2, 4):
        assert np.all(strided_local_mean(x, WindowSpec(8, 8), r) == 4.25)


def test_strided_ramp_error_bound():
    # A linear ramp: the strided mean is the sampled-centroid value, so
    # the error is bounded by the slope times the stride.
    jj = np.arange(64)[None, :].repeat(64, axis=0).astype(float)
    w = WindowSpec(16, 16)
    exact = local_aggregate(jj, w)
    approx = strided_local_mean(jj, w, 4)
    assert np.max(np.abs(approx - exact)) < 1.0 * 4


def test_strided_error_monotone_in_stride():
    ii = np.arange(64)[:, None].astype(float)
    x = ii + 0.5 * np.arange(64)[None, :]
    w = WindowSpec(16, 16)
    exact = local_aggregate(x, w)
    errs = [np.max(np.abs(strided_local_mean(x, w, r) - exact)) for r in (2, 4, 8)]
    assert errs[0] <= errs[1] <= errs[2]


def test_strided_empty_window_raises():
    x = np.zeros((16, 16))
    with pytest.raises(EmptyWindowSample):
        strided_local_mean(x, WindowSpec(2, 2), 8)


def test_brute_force_reference_agrees(rng):
    x = rng.standard_normal((16, 16))
    w = WindowSpec(5, 5)
    a = brute_force_local_mean(x, w)
    b = local_aggregate(x, w)
    assert np.max(np.abs(a - b)) < 1e-9


# --- (..., H, W) batching ----------------------------------------------------
#
# Every kernel called on a (C, H, W) stack must give, bit for bit, the
# stack of its calls on each 2-D channel.

BATCH_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                          max_examples=60)


def _window_side(dim):
    # k = 1, any k inside the map (even and odd), and k at or past the map.
    return st.one_of(st.just(1), st.integers(1, dim), st.integers(dim, dim + 5))


@st.composite
def batched_case(draw, max_c=4):
    c = draw(st.integers(1, max_c))
    h = draw(st.integers(1, 40))
    w = draw(st.integers(1, 40))
    offset = draw(st.floats(-1e3, 1e3))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).standard_normal((c, h, w)) + offset
    return x, WindowSpec(draw(_window_side(h)), draw(_window_side(w)))


def _effective(x, w):
    return w.effective(*x.shape[-2:])


def _replicate_corner(x, w):
    # The bottom-right valid-window-sized corner of x stands in for an interior.
    k_h, k_w = _effective(x, w)
    return replicate_to_full(x[..., k_h - 1:, k_w - 1:], *x.shape[-2:], k_h, k_w)


BATCHED_KERNELS = {
    "build_integral": lambda x, w: build_integral(x),
    "window_sums": lambda x, w: window_sums(x, *_effective(x, w)),
    "replicate_to_full": _replicate_corner,
    "local_aggregate": local_aggregate,
    "local_aggregate_square": lambda x, w: local_aggregate(x * x, w),
    "local_mean_var": local_mean_var,
    "local_max": local_max,
    "brute_force_local_mean": brute_force_local_mean,
}


@pytest.mark.parametrize("name", sorted(BATCHED_KERNELS))
@BATCH_SETTINGS
@given(case=batched_case())
def test_batched_kernel_equals_stacked_channel_calls(name, case):
    x, w = case
    kernel = BATCHED_KERNELS[name]
    got = kernel(x, w)
    per_channel = [kernel(ch, w) for ch in x]
    if isinstance(got, tuple):  # local_mean_var
        for i, part in enumerate(got):
            assert np.array_equal(part, np.stack([p[i] for p in per_channel]))
    else:
        assert np.array_equal(got, np.stack(per_channel))


def _outcome(call):
    try:
        return call()
    except EmptyWindowSample:
        return EmptyWindowSample


@BATCH_SETTINGS
@given(case=batched_case(), stride=st.integers(1, 3))
def test_batched_strided_mean_equals_stacked_channel_calls(case, stride):
    x, w = case
    got = _outcome(lambda: strided_local_mean(x, w, stride))
    per_channel = [_outcome(lambda: strided_local_mean(ch, w, stride)) for ch in x]
    if got is EmptyWindowSample:
        assert all(p is EmptyWindowSample for p in per_channel)
    else:
        assert np.array_equal(got, np.stack(per_channel))


# More examples than the other batched tests: a third of the draws raise,
# and only about one in twenty has r >= 2 dividing both window sides.
@settings(BATCH_SETTINGS, max_examples=200)
@given(case=batched_case(max_c=3), r=st.integers(1, 8))
def test_strided_mean_matches_loop_oracle(case, r):
    x, w = case
    oracles = [strided_mean_oracle(ch, w, r) for ch in x]
    # It raises exactly when some window holds no sample.
    if oracles[0] is None:
        with pytest.raises(EmptyWindowSample):
            strided_local_mean(x, w, r)
        return
    got = strided_local_mean(x, w, r)
    nearest = np.stack([o[0] for o in oracles])
    contained = np.stack([o[1] for o in oracles])
    tol = 1e-12 * (1.0 + np.abs(x).max())
    # The definition: the sample mean of the nearest grid window.
    assert np.max(np.abs(got - nearest)) <= tol
    # Where r divides both effective sides, that is the mean of the
    # samples each window contains.
    if all(k % r == 0 for k in w.effective(*x.shape[-2:])):
        assert np.max(np.abs(got - contained)) <= tol


# --- against a sliding_window_view reference ---------------------------------


@st.composite
def single_map_case(draw):
    # 1 x N and N x 1 maps are drawn as often as any other height or width.
    h = draw(st.one_of(st.just(1), st.integers(1, 40)))
    w = draw(st.one_of(st.just(1), st.integers(1, 40)))
    offset = draw(st.floats(-1e3, 1e3))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).standard_normal((h, w)) + offset
    return x, WindowSpec(draw(_window_side(h)), draw(_window_side(w)))


def _sliding_reference(x, w, reduce):
    # Reduce every valid window, then replicate by clipping indices onto
    # the interior, placing top-left t at the center t + (k-1)//2.
    h, wid = x.shape
    k_h, k_w = w.effective(h, wid)
    interior = reduce(np.lib.stride_tricks.sliding_window_view(x, (k_h, k_w)),
                      axis=(-2, -1))
    rows = np.clip(np.arange(h) - (k_h - 1) // 2, 0, interior.shape[0] - 1)
    cols = np.clip(np.arange(wid) - (k_w - 1) // 2, 0, interior.shape[1] - 1)
    return interior[np.ix_(rows, cols)]


@BATCH_SETTINGS
@given(case=single_map_case())
def test_local_aggregate_matches_sliding_window_mean(case):
    x, w = case
    k_h, k_w = _effective(x, w)
    got = local_aggregate(x, w)
    want = _sliding_reference(x, w, np.mean)
    # Each table entry sums at most H*W terms and carries at most (H+W)
    # roundings of a value no larger than sum |x|; a window reads four.
    tol = 4 * sum(x.shape) * np.finfo(np.float64).eps * np.abs(x).sum() / (k_h * k_w)
    assert np.max(np.abs(got - want)) <= tol


@BATCH_SETTINGS
@given(case=single_map_case())
def test_local_max_matches_sliding_window_max(case):
    x, w = case
    assert np.array_equal(local_max(x, w), _sliding_reference(x, w, np.max))


# --- mean and variance on large offsets --------------------------------------

SPREAD = 1e-2


def _two_pass_var(windows, axis):
    return np.mean((windows - windows.mean(axis=axis, keepdims=True)) ** 2, axis=axis)


@st.composite
def offset_map_case(draw):
    # Activations with a small spread on an offset of up to 1e4, the
    # regime where E[x^2] - mean^2 cancels.
    h = draw(st.one_of(st.just(1), st.integers(1, 40)))
    w = draw(st.one_of(st.just(1), st.integers(1, 40)))
    offset = draw(st.one_of(st.sampled_from([1e4, -1e4, 1e3]), st.floats(-1e4, 1e4)))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).standard_normal((h, w)) * SPREAD + offset
    return x, WindowSpec(draw(_window_side(h)), draw(_window_side(w)))


@BATCH_SETTINGS
@given(case=offset_map_case())
def test_local_mean_var_matches_two_pass_reference_on_large_offsets(case):
    x, w = case
    mean, var = local_mean_var(x, w)
    want_mean = _sliding_reference(x, w, np.mean)
    want_var = _sliding_reference(x, w, _two_pass_var)
    assert np.max(np.abs(mean - want_mean)) <= 1e-12 * (1.0 + np.abs(x).max())
    # 1e-9 of the spread's variance, at any offset.
    assert np.max(np.abs(var - want_var)) <= 1e-9 * SPREAD**2


def test_local_mean_var_relative_error_at_offset_1e4():
    x = np.random.default_rng(7).standard_normal((96, 96)) * SPREAD + 1e4
    k = 32
    _, var = local_mean_var(x, WindowSpec(k, k))
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k))
    want = _two_pass_var(windows, axis=(-2, -1))
    c = (k - 1) // 2
    got = var[c:c + want.shape[0], c:c + want.shape[1]]
    assert np.max(np.abs(got - want) / want) <= 1e-9


def test_local_mean_var_allocates_no_full_size_temporary():
    x = np.random.default_rng(0).standard_normal((16, 256, 256)) * SPREAD + 1e4
    w = WindowSpec(32, 32)
    local_mean_var(x[:4], w)  # starts the pool outside the measurement
    tracemalloc.start()
    try:
        local_mean_var(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The two outputs are 16.8 MB, and the blocks in flight hold at most
    # one summed-area table of the whole map between them (8.5 MB): the
    # unshifted formula peaked at 25.7-25.8 MB. A full-size shifted copy
    # of x would add 8.4 MB.
    assert peak <= 26.0e6
