"""Distribution-shift analysis and window-size calibration.

The statistical story: a pooled mean computed on small training patches
is spread out (each patch sees a different region), while the same mean
computed on a full test image concentrates. A model conditioned on the
patch-time distribution therefore sees out-of-distribution statistics at
test time. Windowed (local) pooling at patch scale restores the
patch-time distribution, which these tools quantify with a two-sample
Kolmogorov-Smirnov distance.

Window calibration records, per layer of a model graph, the spatial size
that layer would see for a chosen calibration input; that size becomes
the layer's local window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateScale, PatchTooLarge
from .integral import PointwiseMap, local_aggregate
from .tensor import FeatureMap, WindowSpec


class SampleLabel(Enum):
    TRAIN_PATCH = "TrainPatch"
    TEST_IMAGE = "TestImage"
    TEST_IMAGE_TLC = "TestImageTLC"


@dataclass(frozen=True)
class SampleSet:
    """A bag of pooled-mean samples from one population."""

    values: np.ndarray
    label: SampleLabel

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if v.size == 0:
            raise ValueError("sample set must be non-empty")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample set contains non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Layer:
    name: str
    scale: float
    has_global_op: bool = True

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"layer {self.name}: scale must be positive")


@dataclass(frozen=True)
class LayerGraph:
    layers: tuple[Layer, ...]

    def __post_init__(self):
        if not any(l.has_global_op for l in self.layers):
            raise ValueError("at least one layer must carry a global op")


def sample_pooled_stats(
    source,
    n: int,
    rng: np.random.Generator,
    patch: tuple[int, int] | None = None,
    window: WindowSpec | None = None,
    pixels_per_map: int = 64,
) -> SampleSet:
    """Draw n pooled-mean samples from maps produced by ``source(rng)``.

    patch given: each sample is the mean of a random patch (TrainPatch).
    window given: samples are windowed local means at random pixels of
    full maps, ``pixels_per_map`` per map (TestImageTLC).
    Neither: each sample is one full-map mean (TestImage).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if patch is not None and window is not None:
        raise ValueError("give at most one of patch and window")
    values = []
    if patch is not None:
        p_h, p_w = patch
        for _ in range(n):
            fmap = source(rng)
            if p_h > fmap.height or p_w > fmap.width:
                raise PatchTooLarge(
                    f"patch {patch} exceeds map ({fmap.height}, {fmap.width})"
                )
            r = int(rng.integers(0, fmap.height - p_h + 1))
            c = int(rng.integers(0, fmap.width - p_w + 1))
            values.append(float(fmap.data[:, r:r + p_h, c:c + p_w].mean()))
        return SampleSet(np.array(values), SampleLabel.TRAIN_PATCH)
    if window is not None:
        while len(values) < n:
            fmap = source(rng)
            # The windowed mean is linear: pooling the channel mean equals
            # averaging the per-channel pooled maps.
            pooled = local_aggregate(fmap.data.mean(axis=0), PointwiseMap.IDENTITY, window)
            take = min(pixels_per_map, n - len(values))
            rows = rng.integers(0, pooled.shape[0], size=take)
            cols = rng.integers(0, pooled.shape[1], size=take)
            values.extend(pooled[rows, cols].tolist())
        return SampleSet(np.array(values), SampleLabel.TEST_IMAGE_TLC)
    for _ in range(n):
        values.append(float(source(rng).data.mean()))
    return SampleSet(np.array(values), SampleLabel.TEST_IMAGE)


def ks_distance(a: SampleSet, b: SampleSet) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |ECDF_a - ECDF_b|."""
    xa = np.sort(a.values)
    xb = np.sort(b.values)
    grid = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, grid, side="right") / xa.size
    cdf_b = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def calibrate_windows(g: LayerGraph, calib_h: int, calib_w: int) -> dict[str, tuple[int, int]]:
    """Per-layer window sizes: the spatial size each flagged layer sees
    for a calib_h x calib_w input (round half up)."""
    if calib_h < 1 or calib_w < 1:
        raise ValueError("calibration dims must be >= 1")
    out = {}
    for layer in g.layers:
        if not layer.has_global_op:
            continue
        k_h = math.floor(calib_h * layer.scale + 0.5)
        k_w = math.floor(calib_w * layer.scale + 0.5)
        if k_h < 1 or k_w < 1:
            raise DegenerateScale(
                f"layer {layer.name}: scale {layer.scale} degenerates "
                f"({calib_h}, {calib_w})"
            )
        out[layer.name] = (k_h, k_w)
    return out


def histogram(s: SampleSet, bins: int) -> list[tuple[float, int]]:
    """Equal-width histogram over [min, max]; max falls in the last bin."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo = float(s.values.min())
    hi = float(s.values.max())
    if lo == hi:
        counts = [0] * bins
        counts[0] = s.values.size
        return [(lo + i, c) for i, c in enumerate(counts)]
    counts, edges = np.histogram(s.values, bins=bins, range=(lo, hi))
    return [(float(edges[i]), int(counts[i])) for i in range(bins)]


# --- synthetic shift experiment ----------------------------------------------


@dataclass(frozen=True)
class SurrogateStack:
    """Fixed random per-channel affine plus tanh, standing in for the
    feature extractor in front of a pooling layer."""

    scale: np.ndarray
    shift: np.ndarray

    @classmethod
    def from_seed(cls, seed: int, channels: int) -> "SurrogateStack":
        rng = np.random.default_rng(seed)
        return cls(
            scale=rng.uniform(0.5, 1.5, size=channels),
            shift=rng.uniform(-0.3, 0.3, size=channels),
        )

    def forward(self, fmap: FeatureMap) -> FeatureMap:
        out = np.tanh(self.scale[:, None, None] * fmap.data
                      + self.shift[:, None, None])
        return FeatureMap(out)


def nonstationary_source(channels=2, height=192, width=192, amplitude=0.8):
    """Maps whose mean drifts spatially: a per-image random-phase sine
    ridge plus unit white noise, so patch statistics depend on where the
    patch lands while full-map statistics concentrate."""

    def gen(rng: np.random.Generator) -> FeatureMap:
        phase = rng.uniform(0.0, 1.0)
        rows = np.sin(2.0 * np.pi * (np.arange(height) / height + phase))
        ridge = amplitude * rows[:, None]
        noise = rng.standard_normal((channels, height, width))
        return FeatureMap(noise + ridge[None, :, :])

    return gen


def white_noise_source(channels=1, height=256, width=256):
    def gen(rng: np.random.Generator) -> FeatureMap:
        return FeatureMap(rng.standard_normal((channels, height, width)))

    return gen


@dataclass(frozen=True)
class ShiftReport:
    train: SampleSet
    test: SampleSet
    test_tlc: SampleSet
    ks_train_test: float
    ks_train_tlc: float

    @property
    def shift_reduced(self) -> bool:
        return self.ks_train_tlc < self.ks_train_test


def run_shift_experiment(
    seed: int,
    n: int = 500,
    channels: int = 2,
    map_size: tuple[int, int] = (192, 192),
    patch: tuple[int, int] = (48, 48),
) -> ShiftReport:
    """The pooled-statistic distribution-shift experiment.

    Training-style patch means are compared against full-image means and
    against windowed local means with the window set to the patch size.
    All randomness flows from the one seed through PCG64.
    """
    h, w = map_size
    stack = SurrogateStack.from_seed(seed, channels)
    raw = nonstationary_source(channels, h, w)

    def source(rng):
        return stack.forward(raw(rng))

    rng = np.random.default_rng(seed)
    train = sample_pooled_stats(source, n, rng, patch=patch)
    test = sample_pooled_stats(source, n, rng)
    window = WindowSpec(patch[0], patch[1])
    tlc = sample_pooled_stats(source, n, rng, window=window)
    return ShiftReport(
        train=train,
        test=test,
        test_tlc=tlc,
        ks_train_test=ks_distance(train, test),
        ks_train_tlc=ks_distance(train, tlc),
    )
