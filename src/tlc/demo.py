"""Denoising demo: global versus windowed statistics driving a Wiener gain.

The scene is a smooth 192 x 192 signal (PSNR peak 1) corrupted by
zero-mean noise whose standard deviation may vary across the image. The
restorer shrinks each pixel toward its windowed mean with gain
g = s2 / (s2 + n2), where s2 and n2 are signal and noise power estimates. The only difference between the
two variants is where the noise power comes from: one number for the
whole image (global statistics) or a per-pixel windowed estimate. When
the noise is spatially uniform the two agree; when it is not, the global
number is wrong everywhere at once and the local variant wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integral import local_aggregate, local_mean_var
from .tensor import FeatureMap, MetricReport, WindowSpec, psnr

# Residual from a 3x3 box mean has noise power (8/9) * sigma^2 for iid
# noise, hence the correction below. When the median residual power is
# tiny relative to the signal variance the channel is treated as
# noiseless outright, so both estimator variants pass it through
# unchanged instead of chasing curvature-level residuals.
_RESIDUAL_CORRECTION = 9.0 / 8.0
_NOISELESS_FRACTION = 1e-4
# Noise standard deviations of the two regions.
_SIGMA_LOW = 0.05
_SIGMA_HIGH = 0.5
_PEAK = 1.0


def make_scene(
    seed: int,
    height: int = 192,
    width: int = 192,
    noise: str = "two-region",
) -> tuple[FeatureMap, FeatureMap]:
    """Clean and noisy single-channel maps.

    noise: "none", "uniform" (the high sigma everywhere is too harsh for
    the control, so the mean of the two sigmas is used), or "two-region"
    (the low sigma on the left half, the high one on the right).
    """
    ii = np.arange(height)[:, None] / height
    jj = np.arange(width)[None, :] / width
    clean = (
        0.45 * np.sin(2 * np.pi * 3 * jj) * np.cos(2 * np.pi * 2 * ii)
        + 0.2 * np.sin(2 * np.pi * 5 * ii)
    )
    clean = clean + np.where(ii > 2.0 / 3.0, 0.25, 0.0)  # one step edge

    if noise == "none":
        sigma = np.zeros((height, width))
    elif noise == "uniform":
        sigma = np.full((height, width), 0.5 * (_SIGMA_LOW + _SIGMA_HIGH))
    elif noise == "two-region":
        sigma = np.where(jj < 0.5, _SIGMA_LOW, _SIGMA_HIGH)
        sigma = np.broadcast_to(sigma, (height, width))
    else:
        raise ValueError(f"unknown noise layout {noise!r}")

    rng = np.random.default_rng(seed)
    noisy = clean + sigma * rng.standard_normal((height, width))
    return FeatureMap(clean[None]), FeatureMap(noisy[None])


def wiener_restore(noisy: FeatureMap, window: WindowSpec, local_noise: bool) -> FeatureMap:
    """Shrink toward the windowed mean with a Wiener gain.

    local_noise=False estimates one noise power per channel for the whole
    image; True estimates it per pixel over the same window. Noiseless
    channels pass through unchanged.
    """
    y = noisy.data
    mean, total_var = local_mean_var(y, window)
    residual = y - local_aggregate(y, WindowSpec(3, 3))
    r2 = residual * residual
    noiseless = (np.median(r2, axis=(-2, -1), keepdims=True)
                 < _NOISELESS_FRACTION * y.var(axis=(-2, -1), keepdims=True))
    if local_noise:
        noise_var = _RESIDUAL_CORRECTION * local_aggregate(r2, window)
    else:
        noise_var = _RESIDUAL_CORRECTION * r2.mean(axis=(-2, -1), keepdims=True)
    signal_var = np.maximum(total_var - noise_var, 0.0)
    denom = signal_var + noise_var
    gain = np.divide(signal_var, denom, out=np.ones_like(y), where=denom > 0)
    return FeatureMap(np.where(noiseless, y, mean + gain * (y - mean)))


@dataclass(frozen=True)
class DemoResult:
    clean: FeatureMap
    noisy: FeatureMap
    restored_global: FeatureMap
    restored_local: FeatureMap
    psnr_noisy: MetricReport
    psnr_global: MetricReport
    psnr_local: MetricReport


def run_demo(
    seed: int,
    window: WindowSpec = WindowSpec(32, 32),
    noise: str = "two-region",
) -> DemoResult:
    clean, noisy = make_scene(seed, noise=noise)
    rg = wiener_restore(noisy, window, local_noise=False)
    rl = wiener_restore(noisy, window, local_noise=True)
    return DemoResult(
        clean=clean,
        noisy=noisy,
        restored_global=rg,
        restored_local=rl,
        psnr_noisy=psnr(clean, noisy, _PEAK),
        psnr_global=psnr(clean, rg, _PEAK),
        psnr_local=psnr(clean, rl, _PEAK),
    )
