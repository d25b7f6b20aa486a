import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc.errors import EmptyWindowSample
from tlc.integral import (
    PointwiseMap,
    brute_force_local_mean,
    build_integral,
    global_aggregate,
    local_aggregate,
    local_max,
    local_mean_var,
    replicate_to_full,
    strided_local_mean,
    window_sums,
)
from tlc.tensor import WindowSpec

from conftest import sliding_stats_oracle

X22 = np.array([[1.0, 2.0], [3.0, 4.0]])


def test_global_mean():
    assert global_aggregate(X22, PointwiseMap.IDENTITY) == pytest.approx(2.5)


def test_global_square():
    assert global_aggregate(X22, PointwiseMap.SQUARE) == pytest.approx(7.5)


def test_global_against_direct_loop(rng):
    x = rng.standard_normal((37, 53))
    acc = 0.0
    for i in range(37):
        for j in range(53):
            acc += x[i, j]
    assert abs(global_aggregate(x, PointwiseMap.IDENTITY) - acc / (37 * 53)) < 1e-10


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


def test_window_sums_matches_direct(rng):
    x = rng.standard_normal((10, 12))
    t = build_integral(x)
    s = window_sums(t, 3, 4)
    for r in range(s.shape[0]):
        for c in range(s.shape[1]):
            assert s[r, c] == pytest.approx(x[r:r + 3, c:c + 4].sum(), abs=1e-10)


def test_local_aggregate_covering_window_is_global(rng):
    x = rng.standard_normal((6, 9))
    out = local_aggregate(x, PointwiseMap.IDENTITY, WindowSpec(100, 100))
    g = global_aggregate(x, PointwiseMap.IDENTITY)
    assert np.max(np.abs(out - g)) < 1e-12


def test_local_aggregate_constant_field():
    x = np.full((7, 5), 3.0)
    out = local_aggregate(x, PointwiseMap.SQUARE, WindowSpec(3, 3))
    assert np.allclose(out, 9.0, atol=1e-12)


def test_local_aggregate_identity_window(rng):
    x = rng.standard_normal((8, 8))
    assert np.array_equal(local_aggregate(x, PointwiseMap.IDENTITY, WindowSpec(1, 1)), x)


def test_local_aggregate_vs_oracle(rng):
    x = rng.standard_normal((16, 16))
    got = local_aggregate(x, PointwiseMap.IDENTITY, WindowSpec(5, 5))
    want = sliding_stats_oracle(x, WindowSpec(5, 5))[0]
    assert np.max(np.abs(got - want)) < 1e-9


def test_local_aggregate_even_window_vs_oracle(rng):
    x = rng.standard_normal((11, 13))
    got = local_aggregate(x, PointwiseMap.SQUARE, WindowSpec(4, 6))
    mean, _, _ = sliding_stats_oracle(x * x, WindowSpec(4, 6))
    assert np.max(np.abs(got - mean)) < 1e-9


def test_shift_equivariance_away_from_edges(rng):
    x = rng.standard_normal((20, 20))
    k = 5
    shifted = np.roll(x, (2, 3), axis=(0, 1))
    a = local_aggregate(x, PointwiseMap.IDENTITY, WindowSpec(k, k))
    b = local_aggregate(shifted, PointwiseMap.IDENTITY, WindowSpec(k, k))
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


def test_strided_r1_bit_identical(rng):
    x = rng.standard_normal((17, 23))
    w = WindowSpec(5, 6)
    exact = local_aggregate(x, PointwiseMap.IDENTITY, w)
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
    exact = local_aggregate(jj, PointwiseMap.IDENTITY, w)
    approx = strided_local_mean(jj, w, 4)
    assert np.max(np.abs(approx - exact)) < 1.0 * 4


def test_strided_error_monotone_in_stride():
    ii = np.arange(64)[:, None].astype(float)
    x = ii + 0.5 * np.arange(64)[None, :]
    w = WindowSpec(16, 16)
    exact = local_aggregate(x, PointwiseMap.IDENTITY, w)
    errs = [np.max(np.abs(strided_local_mean(x, w, r) - exact)) for r in (2, 4, 8)]
    assert errs[0] <= errs[1] <= errs[2]


def test_strided_empty_window_raises():
    x = np.zeros((16, 16))
    with pytest.raises(EmptyWindowSample):
        strided_local_mean(x, WindowSpec(2, 2), 8)


def test_brute_force_reference_agrees(rng):
    x = rng.standard_normal((16, 16))
    w = WindowSpec(5, 5)
    a = brute_force_local_mean(x, PointwiseMap.IDENTITY, w)
    b = local_aggregate(x, PointwiseMap.IDENTITY, w)
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
def batched_case(draw):
    c = draw(st.integers(1, 4))
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
    "build_integral": lambda x, w: build_integral(x, PointwiseMap.SQUARE),
    "window_sums": lambda x, w: window_sums(x, *_effective(x, w)),
    "replicate_to_full": _replicate_corner,
    "local_aggregate": lambda x, w: local_aggregate(x, PointwiseMap.IDENTITY, w),
    "local_aggregate_square": lambda x, w: local_aggregate(x, PointwiseMap.SQUARE, w),
    "local_mean_var": local_mean_var,
    "local_max": local_max,
    "brute_force_local_mean": lambda x, w: brute_force_local_mean(
        x, PointwiseMap.SQUARE, w),
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
