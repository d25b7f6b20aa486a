"""Windowed aggregation kernels: O(HW) means and O(HW log k) maxima.

Global aggregation is the mean over a whole channel; local aggregation
restricts the mean to a k_h x k_w window around each pixel. Window means
come from a summed-area table (four lookups per window), so their cost
is O(HW) regardless of the window.
Window maxima come from a running max by doubling, rows then columns:
each step takes m[i] = max(m[i], m[i + lag]) along one axis, and at
most floor(log2 k) + 1 steps per axis give every window of exactly k
values. Max is exact, so the result does not depend on the order of
the steps. Edge pixels get the replicated value of the
nearest interior window center.

Every kernel works on the last two axes of an array of any rank, so a
(C, H, W) map is one call: leading axes are batch axes, and each slice
along them gives bit for bit what a call on that 2-D slice alone gives.
Accumulation is float64.

Every mean and variance (``local_mean_var``, and IN/GN in
``tlc.modules``) comes from one private helper, which shifts each map or
group of maps by its own mean before any table is built, so that
E[x^2] - mean^2 does not cancel on a large offset.

``local_aggregate``, ``local_max`` and ``local_mean_var`` cut a map of
at least 2**20 values along axis 0 into blocks of whole rows, at most
2**19 values each unless one row is larger, and never fewer blocks than
cores (``_parallel.leading_map``). Each block writes its part of one
preallocated output, and builds its tables and scratch in a set of
block-sized temporaries that leading_map allocates on the calling
thread, one set per block in flight, so that the pool threads allocate
none. The blocks run on one thread per core the process may use or, on
one core and in calls made from those threads, in order on the calling
thread with one set; a smaller map is one call. Results are
bit-identical to an unblocked run. There is no setting for it, and BLAS
threading is not touched.
``strided_local_mean`` takes its window means from ``local_aggregate``
on the stride-r grid, so they run in the same blocks, and its gather
back to full size runs on the calling thread.
"""

from __future__ import annotations

import numpy as np

from ._parallel import leading_map
from .errors import EmptyWindowSample
from .tensor import WindowSpec


def build_integral(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Summed-area table of x: shape (..., H+1, W+1), zero first row/col.

    table[..., p, q] = sum of x[..., :p, :q]; any rectangle sum is then
    four lookups. Accumulation is float64. The table is built in ``out``
    when given, whatever it holds, else in a new array.
    """
    x = np.asarray(x, dtype=np.float64)
    h, w = x.shape[-2:]
    if out is None:
        table = np.zeros(x.shape[:-2] + (h + 1, w + 1), dtype=np.float64)
    else:
        table = out
        table[..., 0, :] = 0.0
        table[..., 1:, 0] = 0.0
    # Both passes are written into the table itself, so nothing else of
    # full size is allocated.
    interior = table[..., 1:, 1:]
    np.cumsum(x, axis=-2, out=interior)
    np.cumsum(interior, axis=-1, out=interior)
    return table


def _table_shape(shape) -> tuple:
    """The shape of the summed-area table of an array of this shape."""
    return shape[:-2] + (shape[-2] + 1, shape[-1] + 1)


def window_sums(
    table: np.ndarray, k_h: int, k_w: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Sums of every fully-inside k_h x k_w window, via four lookups each.

    They are written into ``out`` when given, else into a new array.
    """
    sums = np.subtract(table[..., k_h:, k_w:], table[..., :-k_h, k_w:], out=out)
    sums -= table[..., k_h:, :-k_w]
    sums += table[..., :-k_h, :-k_w]
    return sums


def replicate_to_full(
    interior: np.ndarray, h: int, w: int, k_h: int, k_w: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pad the valid-window result back to h x w by edge replication.

    The interior value for top-left t lands on the window center
    t + (k-1)//2, so the padding splits as (k-1)//2 before and the
    remainder after. Leading axes are not padded. The full map is built
    in ``out`` when given (shape (..., h, w)), else in a new array; an
    interior that already is out's centre (see ``_centre``) is not
    copied, and only the edges are filled in.
    """
    if out is None:
        out = np.empty(interior.shape[:-2] + (h, w), dtype=interior.dtype)
    n_h, n_w = interior.shape[-2:]
    top = (k_h - 1) // 2
    left = (k_w - 1) // 2
    centre = _centre(out, n_h, n_w, k_h, k_w)
    if not _same_view(centre, interior):
        centre[...] = interior
    # Rows first, over the centre's columns, then whole columns, which
    # fills the corners from the replicated rows.
    out[..., :top, left:left + n_w] = centre[..., :1, :]
    out[..., top + n_h:, left:left + n_w] = centre[..., -1:, :]
    out[..., :left] = out[..., left:left + 1]
    out[..., left + n_w:] = out[..., left + n_w - 1:left + n_w]
    return out


def _centre(full: np.ndarray, n_h: int, n_w: int, k_h: int, k_w: int) -> np.ndarray:
    """The view of a full map where replicate_to_full puts an n_h x n_w interior."""
    top = (k_h - 1) // 2
    left = (k_w - 1) // 2
    return full[..., top:top + n_h, left:left + n_w]


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
            and a.shape == b.shape and a.strides == b.strides)


def _aggregate(x: np.ndarray, k_h: int, k_w: int, out: np.ndarray,
               table: np.ndarray | None = None) -> np.ndarray:
    """Window means of x into out; the summed-area table is built in
    ``table`` when given."""
    h, w = x.shape[-2:]
    table = build_integral(x, out=table)
    # The window sums land in the centre of the output itself, so the
    # edge replication only fills in the border.
    centre = window_sums(table, k_h, k_w, out=_centre(out, h - k_h + 1, w - k_w + 1, k_h, k_w))
    centre /= float(k_h * k_w)
    return replicate_to_full(centre, h, w, k_h, k_w, out=out)


def local_aggregate(x: np.ndarray, w: WindowSpec) -> np.ndarray:
    """Windowed mean around every pixel, O(HW) total.

    Windows are clamped to the map, so k >= map size reproduces the
    global mean at every pixel.
    """
    x = np.asarray(x, dtype=np.float64)
    h, wid = x.shape[-2:]
    k_h, k_w = w.effective(h, wid)
    if k_h == 1 and k_w == 1:
        return x.copy()  # identity window, exact
    return leading_map(lambda xs, out, table: _aggregate(xs, k_h, k_w, out, table), x,
                       scratch=lambda s: [(_table_shape(s), np.float64)])


def local_mean_var(x: np.ndarray, w: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """Windowed mean and variance maps.

    Each map is shifted by its own mean (the pivot) before the tables
    are built: var = E[(x - pivot)^2] - (mean - pivot)^2, clamped at
    zero since it can go slightly negative on near-constant windows, and
    the pivot is added back to the mean. The variance does not change
    under the shift, so an offset of 1e4 on a spread of 1e-2 keeps a
    relative error of about 1e-13 against a two-pass reference, where
    the unshifted formula was off by more than 10%. Each block is
    shifted inside its part of the variance output.
    """
    x = np.asarray(x, dtype=np.float64)
    mean, var = np.empty(x.shape), np.empty(x.shape)

    def block(xs, ms, vs, table):
        # Each map is a group of one, and vs serves as the scratch.
        v = vs[..., None, :, :]
        return _mean_var(xs[..., None, :, :], w, v, ms[..., None, :, :], v,
                         table[..., None, :, :])

    leading_map(block, x, mean, out=var, scratch=lambda s: [(_table_shape(s), np.float64)])
    return mean, var


def _mean_var(x: np.ndarray, window: WindowSpec | None, scratch: np.ndarray,
              mean: np.ndarray | None = None, var: np.ndarray | None = None,
              temp: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of each group of maps along axis -3 of x: over
    the whole group (window None, shaped (..., 1, 1, 1)) or over the
    group's maps and the window around every pixel (shaped (..., 1, H, W)).

    The results are written into ``mean`` and ``var`` when given, else
    into new arrays. ``scratch``, of x's shape, receives x shifted by its
    group's mean and then that shift squared; it may be ``var`` when a
    group holds one map. ``temp``, when given, is the memory of
    _pool_group's temporary (a contiguous array at least the size of
    mean), and then of mean * mean.
    """
    shape = x.shape[:-3] + (1,) + ((1, 1) if window is None else x.shape[-2:])
    mean = np.empty(shape) if mean is None else mean
    var = np.empty(shape) if var is None else var
    # The variance does not change under a shift (Chan, Golub & LeVeque
    # 1983), and without one E[x^2] - mean^2 cancels on large offsets.
    pivot = x.mean(axis=(-3, -2, -1), keepdims=True)
    shifted = np.subtract(x, pivot, out=scratch)
    _pool_group(shifted, window, mean, temp)
    _pool_group(np.multiply(shifted, shifted, out=shifted), window, var, temp)
    # Both means are taken, so temp is free again.
    square = None if temp is None else temp.reshape(-1)[:mean.size].reshape(shape)
    var -= np.multiply(mean, mean, out=square)
    np.maximum(var, 0.0, out=var)
    mean += pivot
    return mean, var


def _pool_group(x: np.ndarray, window: WindowSpec | None, out: np.ndarray,
                temp: np.ndarray | None = None) -> np.ndarray:
    """Mean of x over axis -3, then over the whole map or every window,
    written into out (which may be x). The temporary, when given, is
    built in ``temp``: the channel mean of a group of several maps
    before a whole-map mean, or the summed-area table of a window mean."""
    if x.shape[-3] > 1:
        x = np.mean(x, axis=-3, keepdims=True, out=temp if window is None else out)
    if window is None:
        return np.mean(x, axis=(-2, -1), keepdims=True, out=out)
    k_h, k_w = window.effective(*x.shape[-2:])
    if k_h == 1 and k_w == 1:
        if x is not out:
            out[...] = x
        return out
    return _aggregate(x, k_h, k_w, out, temp)


def _max_lags(k: int) -> list[int]:
    """Lags of the steps m[i] = max(m[i], m[i + lag]) that widen a
    running max from 1 value to exactly k: doubling up to the largest
    power of two p <= k, then one step of k - p <= p, whose two windows
    overlap."""
    lags, width = [], 1
    while 2 * width <= k:
        lags.append(width)
        width *= 2
    if width < k:
        lags.append(k - width)
    return lags


def _max(x: np.ndarray, k_h: int, k_w: int, out: np.ndarray,
         scratch: np.ndarray | None = None) -> np.ndarray:
    h, w = x.shape[-2:]
    # Rows first: each of their steps is one np.maximum over whole rows,
    # and they shrink the map to its valid rows before the column steps.
    steps = [(lag, 0) for lag in _max_lags(k_h)] + [(0, lag) for lag in _max_lags(k_w)]
    # A step never writes over what it reads: the steps alternate between
    # out and scratch (of x's shape, needed from two steps on), and the
    # last writes the interior straight into out's centre, where
    # replicate_to_full leaves it.
    m = x
    for i, (d_h, d_w) in enumerate(steps):
        left = len(steps) - 1 - i  # steps after this one
        n_h, n_w = m.shape[-2] - d_h, m.shape[-1] - d_w
        if left == 0:
            dst = _centre(out, n_h, n_w, k_h, k_w)
        else:
            dst = (out if left % 2 == 0 else scratch)[..., :n_h, :n_w]
        m = np.maximum(m[..., :n_h, :n_w], m[..., d_h:, d_w:], out=dst)
    return replicate_to_full(m, h, w, k_h, k_w, out=out)


def local_max(x: np.ndarray, w: WindowSpec) -> np.ndarray:
    """Windowed maximum with the same placement/replication as local_aggregate."""
    x = np.asarray(x, dtype=np.float64)
    k_h, k_w = w.effective(*x.shape[-2:])
    stepped = len(_max_lags(k_h)) + len(_max_lags(k_w)) > 1
    return leading_map(lambda xs, out, *scratch: _max(xs, k_h, k_w, out, *scratch), x,
                       scratch=lambda s: [(s, np.float64)] if stepped else [])


def strided_local_mean(x: np.ndarray, w: WindowSpec, stride: int) -> np.ndarray:
    """Approximate windowed mean from the stride-r grid x[..., ::r, ::r].

    Per axis, a window of k pixels becomes one of c = ceil(k/r) grid
    samples, the most at spacing r that fit in k. local_aggregate takes
    the mean of every such window on the grid, and each pixel gets the
    one whose sample centroid is nearest the centre of its own (nearest
    interior) window, ties to the even first sample. Where r divides k
    that is the mean of the samples the window contains; an axis the
    window spans takes all its samples. stride 1 is local_aggregate.
    EmptyWindowSample: r > k on an axis the window does not span.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if stride == 1:
        return local_aggregate(x, w)
    x = np.asarray(x, dtype=np.float64)
    h, wid = x.shape[-2:]
    k_h, k_w = w.effective(h, wid)
    if (k_h < h and stride > k_h) or (k_w < wid and stride > k_w):
        raise EmptyWindowSample(f"stride {stride} leaves windows of size ({k_h}, {k_w}) empty")
    c_h, c_w = -(-k_h // stride), -(-k_w // stride)
    coarse = local_aggregate(x[..., ::stride, ::stride], WindowSpec(c_h, c_w))

    def nearest(n, k, c, n_coarse):
        # local_aggregate stores a grid window's mean at its first sample + (c-1)//2.
        tops = np.clip(np.arange(n) - (k - 1) // 2, 0, n - k)
        first = np.rint((tops + (k - 1) / 2) / stride - (c - 1) / 2).astype(np.intp)
        return np.clip(first, 0, n_coarse - c) + (c - 1) // 2

    rows = nearest(h, k_h, c_h, coarse.shape[-2])
    cols = nearest(wid, k_w, c_w, coarse.shape[-1])
    return np.take(np.take(coarse, rows, axis=-2), cols, axis=-1)


def brute_force_local_mean(x: np.ndarray, w: WindowSpec) -> np.ndarray:
    """O(HW * K^2) reference path: accumulate one shifted copy per window
    offset. Used for differential testing and the complexity benchmark."""
    x = np.asarray(x, dtype=np.float64)
    h, wid = x.shape[-2:]
    k_h, k_w = w.effective(h, wid)
    acc = np.zeros(x.shape[:-2] + (h - k_h + 1, wid - k_w + 1), dtype=np.float64)
    n_h, n_w = acc.shape[-2:]
    for dy in range(k_h):
        for dx in range(k_w):
            acc += x[..., dy:dy + n_h, dx:dx + n_w]
    return replicate_to_full(acc / float(k_h * k_w), h, wid, k_h, k_w)
