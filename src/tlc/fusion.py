"""Overlapping-window slicing and overlap-averaging fusion.

This is the tile route to a local operator: slice the map into
overlapping windows, run the operator independently on each window,
and average the overlaps back together. Here it is the baseline route
for channel-wise transposed attention. (A seam-free route exists: the
windowed Gram matrix of the channels is a set of box sums of channel
products, so integral tables give every pixel the attention of its own
window; see the ROADMAP.) The seam metric measures the steps that
fusion leaves where tiles meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import leading_map
from .errors import OpShapeViolation, ShapeMismatch
from .tensor import FeatureMap


@dataclass(frozen=True)
class TilePlan:
    """Window size, stride, and the top-left placements covering a map.

    Placements sit at multiples of the stride; the final placement per
    axis is clamped so the last window ends exactly at the map edge, so
    coverage is total without padding.
    """

    window: tuple[int, int]
    stride: tuple[int, int]
    placements: tuple[tuple[int, int], ...]
    shape: tuple[int, int]  # (H, W) of the planned map


@dataclass(frozen=True)
class AttnParams:
    """Temperature of the channel-attention stand-in."""

    temperature: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be positive and finite, "
                             f"got {self.temperature}")


def _axis_starts(length: int, k: int, s: int) -> list[int]:
    starts = list(range(0, length - k + 1, s))
    if starts[-1] != length - k:
        starts.append(length - k)
    return starts


def plan_tiles(h: int, w: int, window: tuple[int, int], stride: tuple[int, int]) -> TilePlan:
    """Row-major overlapping-window placements with clamped final tiles."""
    k_h, k_w = min(window[0], h), min(window[1], w)
    s_h, s_w = stride
    if k_h < 1 or k_w < 1 or s_h < 1 or s_w < 1:
        raise ValueError("window and stride must be >= 1")
    s_h, s_w = min(s_h, k_h), min(s_w, k_w)
    rows = _axis_starts(h, k_h, s_h)
    cols = _axis_starts(w, k_w, s_w)
    placements = tuple((r, c) for r in rows for c in cols)
    return TilePlan(window=(k_h, k_w), stride=(s_h, s_w),
                    placements=placements, shape=(h, w))


def coverage_counts(plan: TilePlan) -> np.ndarray:
    """How many windows cover each pixel; always >= 1 by construction."""
    h, w = plan.shape
    k_h, k_w = plan.window
    counts = np.zeros((h, w), dtype=np.int64)
    for r, c in plan.placements:
        counts[r:r + k_h, c:c + k_w] += 1
    return counts


def apply_and_fuse(x: FeatureMap, plan: TilePlan, op) -> FeatureMap:
    """Run op on every window and average the overlaps.

    op maps a (C, k_h, k_w) array to a same-shape array. Windows are
    accumulated in plan order into one float64 sum buffer, so the result
    is deterministic; overlap averaging makes it order-independent up to
    float addition reordering.
    """
    if plan.shape != (x.height, x.width):
        raise ShapeMismatch(f"plan is for {plan.shape}, map is "
                            f"({x.height}, {x.width})")
    k_h, k_w = plan.window
    acc = np.zeros_like(x.data)
    for r, c in plan.placements:
        win = x.data[:, r:r + k_h, c:c + k_w]
        out = np.asarray(op(win), dtype=np.float64)
        if out.shape != win.shape:
            raise OpShapeViolation(f"op returned {out.shape}, expected {win.shape}")
        acc[:, r:r + k_h, c:c + k_w] += out
    acc /= coverage_counts(plan)[None, :, :]
    return FeatureMap(acc)


def transposed_attention(window: np.ndarray, p: AttnParams) -> np.ndarray:
    """Channels-as-tokens attention over one (C, k_h, k_w) window.

    Each channel's flattened spatial vector is query, key and value at
    once; queries and keys are L2-normalized, similarities scaled by the
    temperature, rows softmaxed, and the values mixed. A single channel
    therefore passes through unchanged. The cosine similarities come
    from the Gram matrix G = v vᵀ and its diagonal, the squared norms:
    G_ij / (n_i n_j), without a normalized copy of the window.
    """
    window = np.asarray(window, dtype=np.float64)
    c = window.shape[0]
    v = window.reshape(c, -1)
    g = v @ v.T
    norms = np.sqrt(np.diagonal(g))
    # t / (n_i n_j), left at 0 where a norm is 0: a zero-norm channel
    # has zero logits, so softmax is still defined.
    scale = np.outer(norms, norms)
    np.divide(p.temperature, scale, out=scale, where=scale > 0)
    logits = g * scale
    logits -= logits.max(axis=1, keepdims=True)
    a = np.exp(logits)
    a /= a.sum(axis=1, keepdims=True)
    return (a @ v).reshape(window.shape)


def seam_metric(x: FeatureMap, plan: TilePlan) -> float:
    """Mean |difference| across tile-boundary pixel pairs minus the mean
    over all other adjacent pairs; positive values flag seams."""
    if plan.shape != (x.height, x.width):
        raise ShapeMismatch(f"plan is for {plan.shape}, map is "
                            f"({x.height}, {x.width})")
    h, w = plan.shape
    k_h, k_w = plan.window
    # Interior tile edges: the gap between columns c-1 and c (rows r-1, r).
    edge_cols = np.zeros(w - 1, dtype=bool)
    edge_rows = np.zeros(h - 1, dtype=bool)
    for r, c in plan.placements:
        for b in (c, c + k_w):
            if 1 <= b <= w - 1:
                edge_cols[b - 1] = True
        for b in (r, r + k_h):
            if 1 <= b <= h - 1:
                edge_rows[b - 1] = True

    # Every pair across one column gap (row gap) is a seam pair or none
    # is, so per-gap sums of |diff| and per-gap pair counts give both
    # means without gathering the pairs.
    n_ch = x.channels
    sums = leading_map(_gap_sums, x.data, out=np.empty((n_ch, (w - 1) + (h - 1))),
                       scratch=lambda s: [(s, np.float64)]).sum(axis=0)
    col_sums, row_sums = sums[:w - 1], sums[w - 1:]
    n_seam_cols, n_seam_rows = int(edge_cols.sum()), int(edge_rows.sum())
    seam_n = n_ch * (h * n_seam_cols + w * n_seam_rows)
    other_n = n_ch * (h * (w - 1 - n_seam_cols) + w * (h - 1 - n_seam_rows))
    if seam_n == 0 or other_n == 0:
        return 0.0
    seam = col_sums[edge_cols].sum() + row_sums[edge_rows].sum()
    other = col_sums[~edge_cols].sum() + row_sums[~edge_rows].sum()
    return float(seam / seam_n - other / other_n)


def _gap_sums(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Per channel, the |diff| sum over each column gap, then over each
    row gap, into out of shape (C, (W-1) + (H-1)).

    seam_metric runs this through leading_map, so a map above the size
    floor arrives a block of channels at a time, on the pool or in order
    on one thread, and no full-size diff is held. Each diff is built in
    scratch, a contiguous array of x's shape.
    """
    w1 = x.shape[2] - 1
    _abs_diff_sum(_diff(x, 2, scratch), 2, out[:, :w1])  # pair (j, j+1) across column gap j
    _abs_diff_sum(_diff(x, 1, scratch), 1, out[:, w1:])


def _diff(x: np.ndarray, axis: int, scratch: np.ndarray) -> np.ndarray:
    # np.diff(x, axis=axis), built in the memory of scratch.
    before = (slice(None),) * axis
    later, earlier = x[before + (slice(1, None),)], x[before + (slice(None, -1),)]
    d = scratch.reshape(-1)[:later.size].reshape(later.shape)
    return np.subtract(later, earlier, out=d)


def _abs_diff_sum(d: np.ndarray, axis: int, out: np.ndarray) -> None:
    # Sum |d|, a (C, H, W) diff along axis, over the other spatial axis,
    # in d's own memory.
    np.abs(d, out=d).sum(axis=3 - axis, out=out)
