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

from ._parallel import ordered_map
from .errors import DegenerateScale, NonFiniteValue, PatchTooLarge
from .integral import local_aggregate
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

    def __post_init__(self):
        if not self.name:
            raise ValueError("layer name must be non-empty")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"layer {self.name}: scale must be positive and finite")


@dataclass(frozen=True)
class LayerGraph:
    layers: tuple[Layer, ...]

    def __post_init__(self):
        names = [l.name for l in self.layers]
        if len(set(names)) < len(names):
            raise ValueError(f"layer names must be unique, got {names}")
        if not self.layers:
            raise ValueError("a layer graph needs at least one layer")


# Windowed-mean samples drawn from each full map (TestImageTLC).
_PIXELS_PER_MAP = 64


def sample_pooled_stats(
    source,
    n: int,
    rng: np.random.Generator,
    patch: tuple[int, int] | None = None,
    window: WindowSpec | None = None,
) -> SampleSet:
    """Draw n pooled-mean samples from ``source``.

    patch given: each sample is the mean of one patch drawn by
    ``source(rng, patch)``, which draws that patch of a map at a random
    place and nothing of the map around it (TrainPatch).
    window given: samples are windowed local means at random pixels of
    full maps drawn by ``source(rng)``, ``_PIXELS_PER_MAP`` per map
    (TestImageTLC).
    Neither: each sample is one full-map mean (TestImage). Map i is
    drawn by ``source(children[i])`` with ``children = rng.spawn(n)``,
    so the maps are independent of one another and are drawn on the
    pool, at most two at a time; the values do not depend on the core
    count, and rng's own stream is not advanced. rng must then be
    backed by a SeedSequence (as default_rng's is), and ``source`` must
    be safe to call from several threads at once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if patch is not None and window is not None:
        raise ValueError("give at most one of patch and window")
    values = []
    if patch is not None:
        for _ in range(n):
            values.append(float(source(rng, patch).data.mean()))
        return SampleSet(np.array(values), SampleLabel.TRAIN_PATCH)
    if window is not None:
        while len(values) < n:
            fmap = source(rng)
            # The windowed mean is linear: pooling the channel mean equals
            # averaging the per-channel pooled maps.
            pooled = local_aggregate(fmap.data.mean(axis=0), window)
            take = min(_PIXELS_PER_MAP, n - len(values))
            rows = rng.integers(0, pooled.shape[0], size=take)
            cols = rng.integers(0, pooled.shape[1], size=take)
            values.extend(pooled[rows, cols].tolist())
        return SampleSet(np.array(values), SampleLabel.TEST_IMAGE_TLC)
    # Spawned one at a time as ordered_map takes them, which gives the
    # children of one rng.spawn(n) without holding n generators.
    children = (rng.spawn(1)[0] for _ in range(n))
    values = ordered_map(lambda child: float(source(child).data.mean()), children)
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
    """Per-layer window sizes: the spatial size each layer sees for a
    calib_h x calib_w input (round half up)."""
    if calib_h < 1 or calib_w < 1:
        raise ValueError("calibration dims must be >= 1")
    out = {}
    for layer in g.layers:
        k_h = calib_h * layer.scale + 0.5
        k_w = calib_w * layer.scale + 0.5
        if not (math.isfinite(k_h) and math.isfinite(k_w)):
            raise ValueError(f"layer {layer.name}: scale {layer.scale} overflows the window")
        k_h, k_w = math.floor(k_h), math.floor(k_w)
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


def _shift_source(seed: int, channels: int, height: int, width: int):
    """The experiment's maps: a per-image random-phase sine ridge of
    amplitude 0.8 plus unit white noise, so the mean drifts spatially and
    patch statistics depend on where the patch lands while full-map
    statistics concentrate; then a fixed random per-channel affine and
    tanh, which stand in for the feature extractor in front of a pooling
    layer.

    ``gen(rng)`` draws a full map: the phase, then the noise.
    ``gen(rng, (p_h, p_w))`` draws one patch and nothing else: the phase,
    the patch's top-left (row, then column), then noise of the patch's
    shape, to which it adds ridge rows r .. r + p_h - 1. The noise is
    i.i.d. and the ridge depends on the row only, so the patch has exactly
    the law of the crop at (r, c) of a full map, at p_h p_w / (H W) of the
    draws.

    Each map or patch is drawn and transformed in the one array it is drawn
    into: fresh map-sized temporaries cost page faults on every map.
    """
    surrogate = np.random.default_rng(seed)
    scale = surrogate.uniform(0.5, 1.5, size=channels)[:, None, None]
    shift = surrogate.uniform(-0.3, 0.3, size=channels)[:, None, None]
    steps = np.arange(height) / height

    def gen(rng: np.random.Generator,
            patch: tuple[int, int] | None = None) -> FeatureMap:
        p_h, p_w = (height, width) if patch is None else patch
        if p_h > height or p_w > width:
            raise PatchTooLarge(f"patch {patch} exceeds map ({height}, {width})")
        phase = rng.uniform(0.0, 1.0)
        r = 0
        if patch is not None:
            r = int(rng.integers(0, height - p_h + 1))
            # The column places the patch but does not change its values.
            rng.integers(0, width - p_w + 1)
        x = rng.standard_normal((channels, p_h, p_w))
        # tanh maps +-inf to +-1, so check the drawn noise before it.
        if not np.isfinite(x).all():
            raise NonFiniteValue("drawn map contains NaN or Inf")
        x += 0.8 * np.sin(2.0 * np.pi * (steps[r:r + p_h] + phase))[:, None]
        x *= scale
        x += shift
        np.tanh(x, out=x)
        return FeatureMap(x)

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
    All randomness flows from the one seed through PCG64: the training
    patches and the TestImageTLC maps from its stream, each TestImage map
    from a child stream spawned from it.
    """
    source = _shift_source(seed, channels, *map_size)
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
