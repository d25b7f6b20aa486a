"""Windowed aggregation kernels with O(HW) cost independent of window size.

Global aggregation is the mean of a pointwise function over a whole
channel; local aggregation restricts the mean to a k_h x k_w window
around each pixel. Window means come from a summed-area table (four
lookups per window), window maxima from a separable running-max filter,
so the cost is O(HW) regardless of the window. Edge pixels get the
replicated value of the nearest interior window center.

Every kernel works on the last two axes of an array of any rank, so a
(C, H, W) map is one call: leading axes are batch axes, and each slice
along them gives bit for bit what a call on that 2-D slice alone gives.
Accumulation is float64.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy.ndimage import maximum_filter1d

from .errors import EmptyWindowSample
from .tensor import WindowSpec


class PointwiseMap(Enum):
    """The pointwise function aggregated over each window."""

    IDENTITY = "identity"
    SQUARE = "square"

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self is PointwiseMap.IDENTITY:
            return x
        return x * x


def global_aggregate(x: np.ndarray, f: PointwiseMap = PointwiseMap.IDENTITY) -> float:
    """Mean of f over the entire H x W map."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.mean(f.apply(x)))


def build_integral(x: np.ndarray, f: PointwiseMap = PointwiseMap.IDENTITY) -> np.ndarray:
    """Summed-area table of f(x): shape (..., H+1, W+1), zero first row/col.

    table[..., p, q] = sum of f(x[..., :p, :q]); any rectangle sum is then
    four lookups. Accumulation is float64.
    """
    x = np.asarray(x, dtype=np.float64)
    h, w = x.shape[-2:]
    table = np.zeros(x.shape[:-2] + (h + 1, w + 1), dtype=np.float64)
    # f(x) and both passes are written into the table itself, so nothing
    # else of full size is allocated.
    interior = table[..., 1:, 1:]
    if f is PointwiseMap.SQUARE:
        x = np.multiply(x, x, out=interior)
    np.cumsum(x, axis=-2, out=interior)
    np.cumsum(interior, axis=-1, out=interior)
    return table


def window_sums(table: np.ndarray, k_h: int, k_w: int) -> np.ndarray:
    """Sums of every fully-inside k_h x k_w window, via four lookups each."""
    sums = table[..., k_h:, k_w:] - table[..., :-k_h, k_w:]
    sums -= table[..., k_h:, :-k_w]
    sums += table[..., :-k_h, :-k_w]
    return sums


def replicate_to_full(interior: np.ndarray, h: int, w: int, k_h: int, k_w: int) -> np.ndarray:
    """Pad the valid-window result back to h x w by edge replication.

    The interior value for top-left t lands on the window center
    t + (k-1)//2, so the padding splits as (k-1)//2 before and the
    remainder after. Leading axes are not padded.
    """
    top = (k_h - 1) // 2
    left = (k_w - 1) // 2
    bottom = h - interior.shape[-2] - top
    right = w - interior.shape[-1] - left
    pad = [(0, 0)] * (interior.ndim - 2) + [(top, bottom), (left, right)]
    return np.pad(interior, pad, mode="edge")


def local_aggregate(
    x: np.ndarray, f: PointwiseMap, w: WindowSpec
) -> np.ndarray:
    """Windowed mean of f around every pixel, O(HW) total.

    Windows are clamped to the map, so k >= map size reproduces the
    global mean at every pixel.
    """
    x = np.asarray(x, dtype=np.float64)
    h, wid = x.shape[-2:]
    k_h, k_w = w.effective(h, wid)
    if k_h == 1 and k_w == 1:
        # Identity window, exact. SQUARE already returns a new array.
        return x.copy() if f is PointwiseMap.IDENTITY else f.apply(x)
    table = build_integral(x, f)
    interior = window_sums(table, k_h, k_w)
    interior /= float(k_h * k_w)
    return replicate_to_full(interior, h, wid, k_h, k_w)


def local_mean_var(x: np.ndarray, w: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """Windowed mean and variance maps.

    var = E[x^2] - mean^2, clamped at zero: the subtraction can go
    slightly negative on near-constant windows.
    """
    mean = local_aggregate(x, PointwiseMap.IDENTITY, w)
    var = local_aggregate(x, PointwiseMap.SQUARE, w)
    var -= mean * mean
    np.maximum(var, 0.0, out=var)
    return mean, var


def _valid_running_max(x: np.ndarray, size: int, axis: int) -> np.ndarray:
    # Right-aligned running max, then slice to the valid range; O(n) per
    # line regardless of size.
    if size == 1:
        return x
    y = maximum_filter1d(x, size=size, axis=axis, mode="nearest",
                         origin=(size - 1) // 2)
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(size - 1, None)
    return y[tuple(sl)]


def local_max(x: np.ndarray, w: WindowSpec) -> np.ndarray:
    """Windowed maximum with the same placement/replication as local_aggregate."""
    x = np.asarray(x, dtype=np.float64)
    h, wid = x.shape[-2:]
    k_h, k_w = w.effective(h, wid)
    interior = _valid_running_max(x, k_w, axis=-1)
    interior = _valid_running_max(interior, k_h, axis=-2)
    return replicate_to_full(interior, h, wid, k_h, k_w)


def strided_local_mean(x: np.ndarray, w: WindowSpec, stride: int) -> np.ndarray:
    """Approximate windowed mean from a stride-r subsampled grid.

    The summed-area table is built over x[::r, ::r] (grid anchored at
    the origin); each window's value is the mean of the sampled points
    it contains. stride 1 reproduces local_aggregate bit-exactly.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if stride == 1:
        return local_aggregate(x, PointwiseMap.IDENTITY, w)
    x = np.asarray(x, dtype=np.float64)
    h, wid = x.shape[-2:]
    k_h, k_w = w.effective(h, wid)
    sampled = x[..., ::stride, ::stride]
    hs, ws = sampled.shape[-2:]
    table = build_integral(sampled, PointwiseMap.IDENTITY)

    # Sampled indices p with t <= p*stride < t+k, for every valid top-left t.
    def bounds(n_tops, k, limit):
        tops = np.arange(n_tops)
        lo = (tops + stride - 1) // stride
        hi = np.minimum((tops + k + stride - 1) // stride, limit)
        return lo, hi

    row_lo, row_hi = bounds(h - k_h + 1, k_h, hs)
    col_lo, col_hi = bounds(wid - k_w + 1, k_w, ws)
    counts = (row_hi - row_lo)[:, None] * (col_hi - col_lo)[None, :]
    if np.any(counts <= 0):
        raise EmptyWindowSample(
            f"stride {stride} leaves windows of size ({k_h}, {k_w}) empty"
        )
    sums = (
        table[..., row_hi[:, None], col_hi[None, :]]
        - table[..., row_lo[:, None], col_hi[None, :]]
        - table[..., row_hi[:, None], col_lo[None, :]]
        + table[..., row_lo[:, None], col_lo[None, :]]
    )
    interior = sums / counts
    return replicate_to_full(interior, h, wid, k_h, k_w)


def brute_force_local_mean(x: np.ndarray, f: PointwiseMap, w: WindowSpec) -> np.ndarray:
    """O(HW * K^2) reference path: accumulate one shifted copy per window
    offset. Used for differential testing and the complexity benchmark."""
    x = np.asarray(x, dtype=np.float64)
    h, wid = x.shape[-2:]
    k_h, k_w = w.effective(h, wid)
    fx = f.apply(x)
    acc = np.zeros(x.shape[:-2] + (h - k_h + 1, wid - k_w + 1), dtype=np.float64)
    n_h, n_w = acc.shape[-2:]
    for dy in range(k_h):
        for dx in range(k_w):
            acc += fx[..., dy:dy + n_h, dx:dx + n_w]
    return replicate_to_full(acc / float(k_h * k_w), h, wid, k_h, k_w)
