"""Convertible feature modules: SE, IN/GN, GE (gather-only), CBAM channel
attention.

Each forward pass runs in one of two modes sharing the same parameters:

* global (``window=None``): statistics pooled over the whole spatial
  extent, one gate or (mu, sigma) per channel/group -- the training-time
  semantics.
* local (``window=WindowSpec``): the pooled scalar becomes a per-pixel
  map of windowed statistics and the rest of the module is applied
  pointwise. No parameter changes, no retraining.

For every pixel whose window lies fully inside the map, the local output
equals the global module applied to the window-sized crop centered there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import leading_map
from .errors import InvalidGroupCount, ShapeMismatch
from .integral import PointwiseMap, _mean_var, local_aggregate, local_max
from .tensor import FeatureMap, WindowSpec


def _gate(x: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x * sigmoid(z), where z is a gate the caller has just computed.

    Every step of 1 / (1 + exp(-z)) runs in z's own memory, and when the
    gate is full size (local mode) the product lands there too, unless
    ``out`` is given: on a full-resolution map each full-size temporary
    costs more than the arithmetic it holds. z must therefore be an
    array no one else sees; x is only read. The work runs per channel
    slice.
    """
    if out is None and z.shape == x.shape:
        out = z
    return leading_map(_sigmoid_times, x, z, out=out)


def _sigmoid_times(x: np.ndarray, z: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)
    return np.multiply(x, z, out=out)


@dataclass(frozen=True)
class SeParams:
    """Squeeze-excite MLP weights: C -> C/ratio -> C, ReLU then sigmoid."""

    reduce_weights: np.ndarray  # (C, C // ratio)
    expand_weights: np.ndarray  # (C // ratio, C)
    ratio: int

    def __post_init__(self):
        r = np.asarray(self.reduce_weights, dtype=np.float64)
        e = np.asarray(self.expand_weights, dtype=np.float64)
        if r.ndim != 2 or e.ndim != 2:
            raise ShapeMismatch("SE weights must be 2-D matrices")
        c, hidden = r.shape
        if self.ratio < 1 or c % self.ratio != 0 or hidden != c // self.ratio:
            raise ShapeMismatch(
                f"reduce weights {r.shape} inconsistent with ratio {self.ratio}"
            )
        if e.shape != (hidden, c):
            raise ShapeMismatch(f"expand weights {e.shape}, expected {(hidden, c)}")
        object.__setattr__(self, "reduce_weights", r)
        object.__setattr__(self, "expand_weights", e)

    @property
    def channels(self) -> int:
        return self.reduce_weights.shape[0]


@dataclass(frozen=True)
class NormParams:
    """Per-channel affine plus group count: groups=C is instance norm,
    any other divisor of C is group norm."""

    gamma: np.ndarray  # (C,)
    beta: np.ndarray  # (C,)
    eps: float = 1e-5
    groups: int = 1

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64).reshape(-1)
        b = np.asarray(self.beta, dtype=np.float64).reshape(-1)
        if g.shape != b.shape:
            raise ShapeMismatch(f"gamma {g.shape} vs beta {b.shape}")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.groups < 1 or g.size % self.groups != 0:
            raise InvalidGroupCount(
                f"groups {self.groups} does not divide C={g.size}"
            )
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "beta", b)

    @property
    def channels(self) -> int:
        return self.gamma.size


def _check_channels(x: FeatureMap, c: int):
    if x.channels != c:
        raise ShapeMismatch(f"feature map has {x.channels} channels, params want {c}")


def _pool(x: np.ndarray, window: WindowSpec | None) -> np.ndarray:
    """Mean over the last two axes: the whole map (global mode,
    kept as 1 x 1 so it broadcasts) or the window around every pixel
    (local mode).

    Both are averages, so they commute with any linear map over the
    leading axes: pooling W.x equals W applied to the pooled x, up to
    float rounding. Callers therefore apply their linear step first and
    pool the fewer maps it yields.
    """
    if window is None:
        return x.mean(axis=(-2, -1), keepdims=True)
    return local_aggregate(x, PointwiseMap.IDENTITY, window)


def _pool_max(x: np.ndarray, window: WindowSpec | None) -> np.ndarray:
    """Maximum over the last two axes, globally or per window, as _pool."""
    if window is None:
        return x.max(axis=(-2, -1), keepdims=True)
    return local_max(x, window)


def se_forward(x: FeatureMap, p: SeParams, window: WindowSpec | None = None) -> FeatureMap:
    """Squeeze-and-excitation gating; local mode gates every pixel by the
    MLP of its windowed channel means."""
    _check_channels(x, p.channels)
    # tensordot over axis 0 applies (C_in, C_out) weights to (C_in, ...) maps.
    hidden = _pool(np.tensordot(p.reduce_weights, x.data, axes=(0, 0)), window)
    hidden = np.maximum(hidden, 0.0)
    gate = np.tensordot(p.expand_weights, hidden, axes=(0, 0))
    return FeatureMap(_gate(x.data, gate))


def norm_forward(x: FeatureMap, p: NormParams, window: WindowSpec | None = None) -> FeatureMap:
    """Instance/group normalization with affine.

    Group statistics are means over the group's channels and the whole
    map or the window (``integral._mean_var``), so groups=C gives IN.
    Groups are normalized one slice of groups per core.
    """
    _check_channels(x, p.channels)
    per_group = (p.groups, -1, 1, 1)
    grouped = x.data.reshape(p.groups, -1, x.height, x.width)

    def body(g, gamma, beta, out):
        out = np.empty(g.shape) if out is None else out
        # The output block is the statistics' scratch until it is written.
        mu, sd = _mean_var(g, window, out)
        # sd starts as the variance and becomes sqrt(var + eps) in place.
        sd += p.eps
        np.sqrt(sd, out=sd)
        normed = np.subtract(g, mu, out=out)
        normed /= sd
        normed *= gamma
        normed += beta
        return normed

    normed = leading_map(body, grouped, p.gamma.reshape(per_group),
                         p.beta.reshape(per_group))
    return FeatureMap(normed.reshape(x.data.shape))


def ge_forward(x: FeatureMap, window: WindowSpec | None = None) -> FeatureMap:
    """Parameter-free gather gate: sigmoid of the pooled channel mean,
    pooled and gated one slice of channels per core."""
    return FeatureMap(leading_map(lambda xs, out: _gate(xs, _pool(xs, window), out), x.data))


def cbam_channel_forward(
    x: FeatureMap, p: SeParams, window: WindowSpec | None = None
) -> FeatureMap:
    """CBAM channel branch: shared MLP over avg-pooled and max-pooled
    statistics, summed before the sigmoid."""
    _check_channels(x, p.channels)
    # Max does not commute with the projection, so that branch pools all C;
    # the shared expand is linear, so it runs once on the summed branches.
    avg = _pool(np.tensordot(p.reduce_weights, x.data, axes=(0, 0)), window)
    mx = np.tensordot(p.reduce_weights, _pool_max(x.data, window), axes=(0, 0))
    hidden = np.maximum(avg, 0.0) + np.maximum(mx, 0.0)
    gate = np.tensordot(p.expand_weights, hidden, axes=(0, 0))
    return FeatureMap(_gate(x.data, gate))


# --- multiply-accumulate accounting -----------------------------------------
#
# Convention: dense (MLP) multiply-adds and elementwise gating multiplies
# are counted; pooling accumulation, maxima and normalization statistics
# count as zero, as in the usual conv-net MAC counters. Overheads are
# reported against a host-network budget: a 4-stage UNet stand-in with
# two 3x3 convs per stage in the encoder and decoder, channels doubling
# as resolution halves, which costs 16 * 9 * C^2 * H * W MACs.

HOST_CONVS_PER_STAGE = 4
HOST_STAGES = 4


def host_macs(c: int, h: int, w: int) -> int:
    # Channel doubling cancels resolution quartering, so every conv costs
    # the same 9 * C^2 * H * W.
    return HOST_STAGES * HOST_CONVS_PER_STAGE * 9 * c * c * h * w


def module_macs(kind: str, c: int, h: int, w: int, ratio: int = 16) -> dict:
    """Global and local MAC counts for one module plus host-relative overhead."""
    hw = h * w
    gate = c * hw
    mlp = 2 * c * (c // ratio)
    if kind == "se":
        g, l = mlp + gate, mlp * hw + gate
    elif kind == "cbam":
        g, l = 2 * mlp + gate, 2 * mlp * hw + gate
    elif kind == "ge":
        g = l = gate
    elif kind in ("in", "gn"):
        g = l = 2 * c * hw
    else:
        raise ValueError(f"unknown module kind {kind!r}")
    host = host_macs(c, h, w)
    return {
        "global_macs": g,
        "local_macs": l,
        "host_macs": host,
        "overhead": (l - g) / (host + g),
    }
