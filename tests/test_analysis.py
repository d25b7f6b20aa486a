import tracemalloc

import numpy as np
import pytest

from tlc import analysis
from tlc.analysis import (
    Layer,
    LayerGraph,
    SampleLabel,
    SampleSet,
    calibrate_windows,
    histogram,
    ks_distance,
    run_shift_experiment,
    sample_pooled_stats,
)
from tlc.errors import DegenerateScale, NonFiniteValue, PatchTooLarge
from tlc.tensor import FeatureMap, WindowSpec


def white_noise_source(height, width):
    def gen(rng):
        return FeatureMap(rng.standard_normal((1, height, width)))
    return gen


def constant_source(value=1.5):
    def gen(rng):
        return FeatureMap(np.full((1, 32, 32), value))
    return gen


def test_constant_source_all_populations_identical():
    rng = np.random.default_rng(0)
    src = constant_source()
    a = sample_pooled_stats(src, 10, rng, patch=(8, 8))
    b = sample_pooled_stats(src, 10, rng)
    c = sample_pooled_stats(src, 10, rng, window=WindowSpec(8, 8))
    assert np.all(a.values == 1.5)
    assert ks_distance(a, b) == 0.0
    assert ks_distance(a, c) == 0.0


def test_full_size_patch_equals_image_statistic():
    # Degenerate patch: the patch mean IS the image mean, so the two
    # populations share a distribution (draws differ, so compare by KS).
    rng = np.random.default_rng(3)
    src = white_noise_source(height=16, width=16)
    a = sample_pooled_stats(src, 400, rng, patch=(16, 16))
    b = sample_pooled_stats(src, 400, rng)
    assert ks_distance(a, b) < 0.12


def test_patch_too_large():
    rng = np.random.default_rng(0)
    with pytest.raises(PatchTooLarge):
        sample_pooled_stats(white_noise_source(height=8, width=8), 3, rng,
                            patch=(16, 16))


def test_white_noise_concentration_clt():
    # Patch means of white noise have std ~ 1/64 for 64x64 patches; full
    # 256x256 image means have std ~ 1/256. Ratio ~ 4.
    rng = np.random.default_rng(42)
    src = white_noise_source(height=256, width=256)
    train = sample_pooled_stats(src, 1000, rng, patch=(64, 64))
    test = sample_pooled_stats(src, 1000, rng)
    assert test.values.std() < train.values.std()
    ratio = train.values.std() / test.values.std()
    assert 4.0 * 0.7 < ratio < 4.0 * 1.3


def test_ks_identical_sets_zero(rng):
    a = SampleSet(rng.standard_normal(40), SampleLabel.TRAIN_PATCH)
    b = SampleSet(a.values.copy(), SampleLabel.TEST_IMAGE)
    assert ks_distance(a, b) == 0.0


def test_ks_disjoint_supports_one():
    a = SampleSet(np.array([0.0, 1.0, 2.0]), SampleLabel.TRAIN_PATCH)
    b = SampleSet(np.array([5.0, 6.0]), SampleLabel.TEST_IMAGE)
    assert ks_distance(a, b) == 1.0


def test_ks_enumerated_example():
    a = SampleSet(np.array([1.0, 2.0, 3.0]), SampleLabel.TRAIN_PATCH)
    b = SampleSet(np.array([2.0, 3.0, 4.0]), SampleLabel.TEST_IMAGE)
    assert ks_distance(a, b) == pytest.approx(1.0 / 3.0)


def test_ks_pseudometric(rng):
    sets = [
        SampleSet(rng.standard_normal(30) + i, SampleLabel.TEST_IMAGE)
        for i in range(3)
    ]
    d01 = ks_distance(sets[0], sets[1])
    d10 = ks_distance(sets[1], sets[0])
    assert d01 == d10
    d02 = ks_distance(sets[0], sets[2])
    d12 = ks_distance(sets[1], sets[2])
    assert d02 <= d01 + d12 + 1e-12


def _graph(*scales):
    return LayerGraph(tuple(
        Layer(name=f"l{i}", scale=s) for i, s in enumerate(scales)
    ))


def test_calibrate_full_scale():
    assert calibrate_windows(_graph(1.0), 384, 384) == {"l0": (384, 384)}


def test_calibrate_half_scale():
    assert calibrate_windows(_graph(0.5), 384, 384)["l0"] == (192, 192)


def test_calibrate_quarter_scale_rect():
    assert calibrate_windows(_graph(0.25), 720, 1280)["l0"] == (180, 320)


def test_empty_layer_graph_is_rejected():
    with pytest.raises(ValueError, match="at least one layer"):
        LayerGraph(())


def test_calibrate_degenerate_scale():
    with pytest.raises(DegenerateScale):
        calibrate_windows(_graph(0.001), 16, 16)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
def test_layer_scale_must_be_positive_and_finite(scale):
    with pytest.raises(ValueError):
        Layer("a", scale)


def test_layer_name_must_be_non_empty():
    with pytest.raises(ValueError, match="non-empty"):
        Layer("", 0.5)


@pytest.mark.parametrize("names", [("a", "a"), ("a", "b", "a")])
def test_layer_graph_names_must_be_unique(names):
    with pytest.raises(ValueError, match="unique"):
        LayerGraph(tuple(Layer(n, 0.5) for n in names))


def test_calibrate_scale_overflowing_the_window_is_rejected():
    with pytest.raises(ValueError):
        calibrate_windows(_graph(1e308), 384, 384)


def test_calibrate_monotone_random(rng):
    for _ in range(100):
        scale = float(rng.uniform(0.05, 1.0))
        h1 = int(rng.integers(32, 512))
        h2 = h1 + int(rng.integers(0, 512))
        small = calibrate_windows(_graph(scale), h1, h1)["l0"]
        large = calibrate_windows(_graph(scale), h2, h2)["l0"]
        assert large[0] >= small[0] and large[1] >= small[1]


def test_histogram_single_value():
    s = SampleSet(np.full(7, 2.0), SampleLabel.TEST_IMAGE)
    bins = histogram(s, 4)
    counts = [c for _, c in bins]
    assert sum(counts) == 7
    assert sorted(counts) == [0, 0, 0, 7]


def test_histogram_two_values_two_bins():
    s = SampleSet(np.array([0.0, 1.0]), SampleLabel.TEST_IMAGE)
    assert [c for _, c in histogram(s, 2)] == [1, 1]


def test_histogram_uniform_sanity_band():
    rng = np.random.default_rng(42)
    s = SampleSet(rng.uniform(size=1000), SampleLabel.TEST_IMAGE)
    bins = histogram(s, 10)
    assert sum(c for _, c in bins) == 1000
    assert all(60 <= c <= 140 for _, c in bins)


# --- synthetic shift experiment ----------------------------------------------


def _reference_shift_experiment(seed, n, channels, map_size, patch):
    """The experiment with every map built through fresh arrays:
    tanh(scale * (noise + ridge) + shift), from the same rng calls in the
    same order (the surrogate's uniforms from their own generator; per
    map a uniform phase, then the noise; then the sampler's integers)."""
    h, w = map_size
    stack = np.random.default_rng(seed)
    scale = stack.uniform(0.5, 1.5, size=channels)[:, None, None]
    shift = stack.uniform(-0.3, 0.3, size=channels)[:, None, None]

    def source(rng):
        phase = rng.uniform(0.0, 1.0)
        ridge = 0.8 * np.sin(2.0 * np.pi * (np.arange(h) / h + phase))[:, None]
        noise = rng.standard_normal((channels, h, w))
        return FeatureMap(np.tanh(scale * (noise + ridge) + shift))

    rng = np.random.default_rng(seed)
    return (sample_pooled_stats(source, n, rng, patch=patch),
            sample_pooled_stats(source, n, rng),
            sample_pooled_stats(source, n, rng, window=WindowSpec(*patch)))


@pytest.mark.parametrize("seed,channels,map_size,patch", [
    (0, 3, (40, 56), (16, 24)),
    (7, 1, (56, 40), (24, 16)),
    (901, 2, (192, 192), (48, 48)),
])
@pytest.mark.parametrize("n", [1, 63, 65])
def test_shift_experiment_matches_fresh_array_reference(seed, channels, map_size, patch, n):
    report = run_shift_experiment(seed, n=n, channels=channels, map_size=map_size,
                                  patch=patch)
    ref = _reference_shift_experiment(seed, n, channels, map_size, patch)
    for got, want in zip((report.train, report.test, report.test_tlc), ref):
        assert got.label == want.label
        assert np.array_equal(got.values, want.values)


def test_shift_experiment_peak_memory_is_about_one_map():
    # A 2x192x192 float64 map is 590 KB. Built through fresh temporaries
    # (noise + ridge, scale * x, + shift, tanh) the peak was 2.36 MB;
    # built in the array it is drawn into, 1.68 MB.
    tracemalloc.start()
    try:
        run_shift_experiment(1, n=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8e6


class _InfiniteNoise:
    """A generator stand-in whose noise holds +-inf."""

    def uniform(self, low, high):
        return 0.25

    def standard_normal(self, shape):
        x = np.zeros(shape)
        x[0, 0, 0] = np.inf
        x[-1, -1, -1] = -np.inf
        return x


def test_shift_source_rejects_a_non_finite_draw_before_tanh():
    # tanh would turn +-inf into +-1, which the FeatureMap check passes.
    source = analysis._shift_source(3, 2, 8, 8)
    with pytest.raises(NonFiniteValue):
        source(_InfiniteNoise())
