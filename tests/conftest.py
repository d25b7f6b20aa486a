"""Shared oracles and helpers.

The sliding-window oracles here are deliberately naive: one window per
valid top-left, summed directly, O(K^2) work per pixel. They share the
library's center/replication convention but none of its integral-table
code path.
"""

import numpy as np
import pytest

from tlc.tensor import FeatureMap, WindowSpec


def replicate_oracle(interior: np.ndarray, h: int, w: int, k_h: int, k_w: int) -> np.ndarray:
    """Replicate-pad by index clipping (independent of np.pad edge mode)."""
    top = (k_h - 1) // 2
    left = (k_w - 1) // 2
    out = np.empty((h, w))
    for i in range(h):
        for j in range(w):
            out[i, j] = interior[
                min(max(i - top, 0), interior.shape[0] - 1),
                min(max(j - left, 0), interior.shape[1] - 1),
            ]
    return out


def sliding_stats_oracle(x: np.ndarray, w: WindowSpec):
    """Brute-force window (mean, variance, max) maps, two-pass variance."""
    x = np.asarray(x, dtype=np.float64)
    h, wid = x.shape
    k_h, k_w = min(w.k_h, h), min(w.k_w, wid)
    mean = np.empty((h - k_h + 1, wid - k_w + 1))
    var = np.empty_like(mean)
    mx = np.empty_like(mean)
    for r in range(mean.shape[0]):
        for c in range(mean.shape[1]):
            win = x[r:r + k_h, c:c + k_w]
            m = win.sum() / win.size
            mean[r, c] = m
            var[r, c] = np.sum((win - m) ** 2) / win.size
            mx[r, c] = win.max()
    return (
        replicate_oracle(mean, h, wid, k_h, k_w),
        replicate_oracle(var, h, wid, k_h, k_w),
        replicate_oracle(mx, h, wid, k_h, k_w),
    )


def _nearest_first_sample(t: int, k: int, c: int, r: int, n_grid: int) -> int:
    """The first sample i of the c-sample grid window whose centroid
    (i + (c-1)/2)*r is nearest the centre t + (k-1)/2 of a k-window,
    ties to the even i (as np.rint). Distances are doubled to integers."""
    best = None
    for i in range(n_grid - c + 1):
        key = (abs((2 * i + c - 1) * r - (2 * t + k - 1)), i % 2)
        if best is None or key < best[0]:
            best = (key, i)
    return best[1]


def strided_mean_oracle(x: np.ndarray, w: WindowSpec, r: int):
    """Loop oracle of the strided mean of a 2-D map at stride r.

    Returns (nearest, contained), or None when some valid window holds
    no sample of the grid x[::r, ::r]. ``nearest`` is the definition:
    each pixel takes its nearest interior window, picks the grid window
    of c = ceil(k/r) samples per axis by nearest centroid, and averages
    its c_h x c_w samples. ``contained`` is the mean of the samples each
    window contains, replicated; the two agree where r divides both
    effective window sides.
    """
    x = np.asarray(x, dtype=np.float64)
    h, wid = x.shape
    k_h, k_w = min(w.k_h, h), min(w.k_w, wid)
    contained = np.empty((h - k_h + 1, wid - k_w + 1))
    for t in range(contained.shape[0]):
        for s in range(contained.shape[1]):
            rows = [i for i in range(t, t + k_h) if i % r == 0]
            cols = [j for j in range(s, s + k_w) if j % r == 0]
            if not rows or not cols:
                return None
            contained[t, s] = x[np.ix_(rows, cols)].sum() / (len(rows) * len(cols))
    grid = x[::r, ::r]
    c_h, c_w = -(-k_h // r), -(-k_w // r)

    def firsts(n, k, c, n_grid):
        return [_nearest_first_sample(min(max(p - (k - 1) // 2, 0), n - k), k, c, r, n_grid)
                for p in range(n)]

    col_firsts = firsts(wid, k_w, c_w, grid.shape[1])
    nearest = np.empty((h, wid))
    for p, i in enumerate(firsts(h, k_h, c_h, grid.shape[0])):
        for q, j in enumerate(col_firsts):
            nearest[p, q] = grid[i:i + c_h, j:j + c_w].sum() / (c_h * c_w)
    return nearest, replicate_oracle(contained, h, wid, k_h, k_w)


def random_map(rng, c=1, h=8, w=8) -> FeatureMap:
    return FeatureMap(rng.standard_normal((c, h, w)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
