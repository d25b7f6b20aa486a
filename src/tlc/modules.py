"""Convertible feature modules: SE, IN/GN, GE (gather-only), CBAM channel
attention.

Each forward pass runs in one of two modes sharing the same parameters:

* global (``window=None``): statistics pooled over the whole spatial
  extent, one gate or (mu, sigma) per channel/group -- the training-time
  semantics.
* local (``window=WindowSpec``): the pooled scalar becomes a per-pixel
  map of windowed statistics and the rest of the module is applied
  pointwise. No parameter changes, no retraining. A window that covers
  the whole map (``window.effective(H, W) == (H, W)``) is the global
  operator, so it runs global mode: no table or running max is built,
  and the output is bit for bit the global one.

For every pixel whose window lies fully inside the map, the local output
equals the global module applied to the window-sized crop centered there.

Each module kind is defined once, in one private dispatch that both
modes share. SE, CBAM and GE gate x by the sigmoid of their logits (one
table maps each of these kinds to its logits function); IN/GN normalizes
x by the group mean and sqrt(var + eps). Global mode is a coefficient
step (``_global_steps``), which reads the whole map and returns (C, 1, 1)
values (the gate, or the group statistics with gamma and beta), then an
apply step that writes any block of channels of the output from them.
``tlc convert`` runs the apply step per block and writes each block to
disk, so the global output never exists as a full map there. Local mode
gates x over whole-map logits, in their own memory; local IN/GN computes
its statistics one block of groups at a time.

A float32 map (``tlc convert``'s input) is never widened whole. Every
pooling step widens its block into float64 scratch, or into its own
table or output block, before it sums; CBAM's windowed max runs on
float32 and widens as it writes; the gates and the normalization take
float32 x against float64 coefficients, which numpy widens element by
element. SE and CBAM project the whole map with ``np.tensordot``, whose
product widens x into a transient float64 copy. Every step is
therefore exact arithmetic on the widened values, and a float32 map
gives bit for bit what its float64 widening gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import leading_map
from .errors import InvalidGroupCount, ShapeMismatch
from .integral import _mean_var, _table_shape, _widened, local_aggregate, local_max
from .tensor import FeatureMap, WindowSpec


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), every step in z's own memory."""
    np.negative(z, out=z)
    # Below z of about -709 exp(-z) overflows to inf, and the gate is
    # then exactly 0, as it should be.
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _sigmoid_times(x: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.multiply(x, _sigmoid(z), out=out)


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
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
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


def _per_map(reduce, x: np.ndarray) -> np.ndarray:
    """reduce (np.mean or np.max) over the last two axes of every map of
    x, kept as 1 x 1, one block of maps per core; a float32 block is
    widened into scratch first."""
    def body(xs, out, *wide):
        reduce(_widened(xs, *wide), axis=(-2, -1), keepdims=True, out=out)

    wide = None if x.dtype == np.float64 else (lambda s: [(s, np.float64)])
    return leading_map(body, x, out=np.empty(x.shape[:-2] + (1, 1)), scratch=wide)


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
        return _per_map(np.mean, x)
    return local_aggregate(x, window)


def _pool_max(x: np.ndarray, window: WindowSpec | None) -> np.ndarray:
    """Maximum over the last two axes, globally or per window, as _pool."""
    if window is None:
        return _per_map(np.max, x)
    return local_max(x, window)


def _se_logits(x: FeatureMap, p: SeParams, window: WindowSpec | None) -> np.ndarray:
    _check_channels(x, p.channels)
    # tensordot over axis 0 applies (C_in, C_out) weights to (C_in, ...) maps.
    hidden = _pool(np.tensordot(p.reduce_weights, x.data, axes=(0, 0)), window)
    hidden = np.maximum(hidden, 0.0)
    return np.tensordot(p.expand_weights, hidden, axes=(0, 0))


def _cbam_logits(x: FeatureMap, p: SeParams, window: WindowSpec | None) -> np.ndarray:
    _check_channels(x, p.channels)
    # Max does not commute with the projection, so that branch pools all C;
    # the shared expand is linear, so it runs once on the summed branches.
    # The projections take a float32 map as it is: np.dot widens it into
    # a transient float64 copy, which gives the float64 product bit for
    # bit, where a product blocked over pixels would not (BLAS blocking).
    avg = _pool(np.tensordot(p.reduce_weights, x.data, axes=(0, 0)), window)
    mx = np.tensordot(p.reduce_weights, _pool_max(x.data, window), axes=(0, 0))
    hidden = np.maximum(avg, 0.0) + np.maximum(mx, 0.0)
    return np.tensordot(p.expand_weights, hidden, axes=(0, 0))


def _group_stats(g: np.ndarray, window: WindowSpec | None, eps: float,
                 scratch: np.ndarray, mu: np.ndarray, sd: np.ndarray,
                 temp: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sqrt(var + eps) of each group of g (``integral._mean_var``)."""
    mu, sd = _mean_var(g, window, scratch, mu, sd, temp)
    # sd starts as the variance and becomes sqrt(var + eps) in place.
    sd += eps
    np.sqrt(sd, out=sd)
    return mu, sd


def _pooled(shape) -> tuple:
    """The shape of one map per group of grouped maps of this shape."""
    return shape[:-3] + (1,) + shape[-2:]


def _grouped(x: FeatureMap, p: NormParams) -> np.ndarray:
    """x as (groups, channels per group, H, W)."""
    _check_channels(x, p.channels)
    return x.data.reshape(p.groups, -1, x.height, x.width)


# --- both modes ---------------------------------------------------------------
#
# Apply steps of global mode: np.multiply by the gate for SE, CBAM and
# GE, _normalize for IN/GN. Each takes a block of channels of x, the same
# rows of the (C, 1, 1) coefficients, and the block's output (None
# allocates it), the protocol of leading_map.


def _normalize(x: np.ndarray, mu: np.ndarray, sd: np.ndarray, gamma: np.ndarray,
               beta: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    normed = np.subtract(x, mu, out=out)
    normed /= sd
    normed *= gamma
    normed += beta
    return normed


def _is_global(x: FeatureMap, window: WindowSpec | None) -> bool:
    """Whether a forward runs global mode: no window, or one that
    covers the whole map."""
    return window is None or window.effective(x.height, x.width) == (x.height, x.width)


# The gated modules: each gates x by the sigmoid of these logits, taken
# over the whole map (window None) or the window around every pixel.
_LOGITS = {
    "se": _se_logits,
    "cbam": _cbam_logits,
    "ge": lambda x, p, window: _pool(x.data, window),
}


def _global_steps(kind: str, x: FeatureMap, p):
    """The coefficient step of a module's global mode: it reads the whole
    map and returns the apply step and the (C, 1, 1) coefficients that
    step takes. kind is a ``tlc convert --module`` name; "in" and "gn"
    both run the group norm of p.groups."""
    if kind in _LOGITS:
        return np.multiply, (_sigmoid(_LOGITS[kind](x, p, None)),)
    # Each group's statistics, one block of groups per core, then
    # repeated for each channel of the group.
    grouped = _grouped(x, p)
    mu, sd = np.empty((2, p.groups, 1, 1, 1))

    def stats(g, m, out, shifted, *channel_mean):
        _group_stats(g, None, p.eps, shifted, m, out, *channel_mean)

    def scratch(s):
        # The shifted groups and, for groups of several channels, their
        # channel mean.
        return [(s, np.float64)] + ([(_pooled(s), np.float64)] if s[-3] > 1 else [])

    leading_map(stats, grouped, mu, out=sd, scratch=scratch)
    per_channel = grouped.shape[1]
    mu, sd = (np.repeat(a, per_channel, axis=0).reshape(-1, 1, 1) for a in (mu, sd))
    return _normalize, (mu, sd, p.gamma.reshape(-1, 1, 1), p.beta.reshape(-1, 1, 1))


def _forward(kind: str, x: FeatureMap, p, window: WindowSpec | None) -> FeatureMap:
    """The forward of every module kind (see _global_steps) in either mode."""
    if _is_global(x, window):
        apply, coefficients = _global_steps(kind, x, p)
        return FeatureMap(leading_map(apply, x.data, *coefficients))
    if kind in _LOGITS:
        # The sigmoid and the product run in the logits' own memory: on a
        # full-resolution map each full-size temporary costs more than its arithmetic.
        z = _LOGITS[kind](x, p, window)
        return FeatureMap(leading_map(_sigmoid_times, x.data, z, out=z))
    per_group = (p.groups, -1, 1, 1)

    def body(g, gamma, beta, out, mu, sd, table):
        # The output block is the statistics' scratch, a float32 block
        # widened into it first, until it is written.
        _group_stats(g, window, p.eps, out, mu, sd, table)
        _normalize(g, mu, sd, gamma, beta, out)

    normed = leading_map(body, _grouped(x, p), p.gamma.reshape(per_group),
                         p.beta.reshape(per_group),
                         scratch=lambda s: [(_pooled(s), np.float64)] * 2
                         + [(_table_shape(_pooled(s)), np.float64)])
    return FeatureMap(normed.reshape(x.data.shape))


# --- forwards -----------------------------------------------------------------


def se_forward(x: FeatureMap, p: SeParams, window: WindowSpec | None = None) -> FeatureMap:
    """Squeeze-and-excitation gating; local mode gates every pixel by the
    MLP of its windowed channel means."""
    return _forward("se", x, p, window)


def norm_forward(x: FeatureMap, p: NormParams, window: WindowSpec | None = None) -> FeatureMap:
    """Instance/group normalization with affine.

    Group statistics are means over the group's channels and the whole
    map or the window (``integral._mean_var``), so groups=C gives IN.
    In local mode groups are normalized one slice of groups per core.
    """
    return _forward("gn", x, p, window)


def ge_forward(x: FeatureMap, window: WindowSpec | None = None) -> FeatureMap:
    """Parameter-free gather gate: sigmoid of the pooled channel mean."""
    return _forward("ge", x, None, window)


def cbam_channel_forward(
    x: FeatureMap, p: SeParams, window: WindowSpec | None = None
) -> FeatureMap:
    """CBAM channel branch: shared MLP over avg-pooled and max-pooled
    statistics, summed before the sigmoid."""
    return _forward("cbam", x, p, window)


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
