import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from tlc import _parallel, analysis
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
from tlc.cli import main
from tlc.errors import DegenerateScale, NonFiniteValue, PatchTooLarge
from tlc.tensor import FeatureMap, WindowSpec


# A source draws a full map as ``source(rng)`` and only one patch of it
# as ``source(rng, patch)``. White noise and a constant have the same law
# at every place, so these two draw the patch without a top-left.


def white_noise_source(height, width):
    def gen(rng, patch=None):
        return FeatureMap(rng.standard_normal((1, *(patch or (height, width)))))
    return gen


def constant_source(value=1.5):
    def gen(rng, patch=None):
        return FeatureMap(np.full((1, *(patch or (32, 32))), value))
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


class _NoDraws:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew {name} before the patch check")


@pytest.mark.parametrize("patch", [(16, 16), (9, 8), (8, 9)])
def test_patch_too_large(patch):
    source = analysis._shift_source(0, 1, 8, 8)
    with pytest.raises(PatchTooLarge):
        sample_pooled_stats(source, 3, _NoDraws(), patch=patch)


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
    """The experiment with every map and patch built through fresh arrays:
    tanh(scale * (noise + ridge) + shift), from the same rng calls in the
    same order (the surrogate's uniforms from their own generator; per
    full map a uniform phase, then the noise; per patch a uniform phase,
    the top-left row and column, then the patch's noise; then the
    sampler's integers)."""
    h, w = map_size
    stack = np.random.default_rng(seed)
    scale = stack.uniform(0.5, 1.5, size=channels)[:, None, None]
    shift = stack.uniform(-0.3, 0.3, size=channels)[:, None, None]

    def source(rng, patch=None):
        phase = rng.uniform(0.0, 1.0)
        rows = np.arange(h)
        if patch is None:
            noise = rng.standard_normal((channels, h, w))
        else:
            r = rng.integers(0, h - patch[0] + 1)
            rng.integers(0, w - patch[1] + 1)
            rows = rows[r:r + patch[0]]
            noise = rng.standard_normal((channels, *patch))
        ridge = 0.8 * np.sin(2.0 * np.pi * (rows / h + phase))[:, None]
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

    def integers(self, low, high):
        return low

    def standard_normal(self, shape):
        x = np.zeros(shape)
        x[0, 0, 0] = np.inf
        x[-1, -1, -1] = -np.inf
        return x


@pytest.mark.parametrize("patch", [None, (4, 4)])
def test_shift_source_rejects_a_non_finite_draw_before_tanh(patch):
    # tanh would turn +-inf into +-1, which the FeatureMap check passes.
    source = analysis._shift_source(3, 2, 8, 8)
    with pytest.raises(NonFiniteValue):
        source(_InfiniteNoise(), patch)


class _FixedDraws:
    """A generator stand-in with a fixed phase, top-left and noise map.

    A noise draw returns the crop of the noise map at the fixed top-left,
    of the shape asked for. The bounds of each ``integers`` call are
    recorded."""

    def __init__(self, phase, top_left, noise):
        self.phase = phase
        self.top_left = top_left
        self.noise = noise
        self.bounds = []

    def uniform(self, low, high):
        return self.phase

    def integers(self, low, high):
        self.bounds.append((low, high))
        return self.top_left[len(self.bounds) - 1]

    def standard_normal(self, shape):
        r, c = self.top_left
        return self.noise[:, r:r + shape[1], c:c + shape[2]].copy()


@pytest.mark.parametrize("top_left", [(0, 0), (5, 17), (13, 3), (24, 32)])
def test_shift_patch_is_the_crop_of_the_full_map(top_left):
    # Ridge rows, per-channel scale and shift, and tanh must all line up:
    # the patch equals the same crop of the map from the same draws.
    channels, (h, w), (p_h, p_w) = 3, (40, 56), (16, 24)
    noise = np.random.default_rng(8).standard_normal((channels, h, w))
    source = analysis._shift_source(4, channels, h, w)
    full = source(_FixedDraws(0.37, (0, 0), noise)).data
    draws = _FixedDraws(0.37, top_left, noise)
    got = source(draws, (p_h, p_w)).data
    r, c = top_left
    assert draws.bounds == [(0, h - p_h + 1), (0, w - p_w + 1)]
    assert got.shape == (channels, p_h, p_w)
    assert np.array_equal(got, full[:, r:r + p_h, c:c + p_w])


class _CountingNormals:
    """A generator that counts the normals it is asked for."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.normals = 0

    def standard_normal(self, shape):
        self.normals += math.prod(shape)
        return self._rng.standard_normal(shape)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_train_patches_draw_only_the_patch():
    n, channels, patch = 25, 2, (48, 48)
    rng = _CountingNormals(0)
    sample_pooled_stats(analysis._shift_source(1, channels, 192, 192), n, rng,
                        patch=patch)
    assert rng.normals == n * channels * patch[0] * patch[1]


def test_drawn_patches_follow_the_law_of_full_map_crops():
    # Two samples of 1000 from one law exceed a KS distance of
    # 1.95 * sqrt(2 / 1000) = 0.087 with probability about 0.001.
    source = analysis._shift_source(5, 2, 64, 64)
    drawn = sample_pooled_stats(source, 1000, np.random.default_rng(11), patch=(16, 16))
    rng = np.random.default_rng(12)
    crops = []
    for _ in range(1000):
        x = source(rng).data
        r, c = rng.integers(0, 64 - 16 + 1, size=2)
        crops.append(x[:, r:r + 16, c:c + 16].mean())
    assert ks_distance(drawn, SampleSet(np.array(crops), SampleLabel.TRAIN_PATCH)) < 0.087


# --- TestImage maps on the pool ----------------------------------------------
#
# Each full TestImage map is drawn from its own child of rng.spawn(n), so
# the maps run on the pool in any order and on any number of cores and
# still give the same values.


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(_parallel, "_WORKERS", 2)


def _experiment():
    report = run_shift_experiment(3, n=65, channels=2, map_size=(40, 56), patch=(16, 24))
    return [s.values for s in (report.train, report.test, report.test_tlc)]


def test_shift_experiment_does_not_depend_on_the_worker_count(monkeypatch):
    monkeypatch.setattr(_parallel, "_WORKERS", 1)
    serial = _experiment()
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    monkeypatch.setattr(_parallel, "_pool", None)
    pool = _parallel._executor()
    try:
        pooled = _experiment()
        # One experiment on each worker of a fresh two-thread pool: were a
        # worker to queue its maps on the pool and wait, no thread would be
        # free to draw them.
        futures = [pool.submit(_experiment) for _ in range(2)]
        nested = [f.result(timeout=60) for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)
    for got in (pooled, *nested):
        assert all(np.array_equal(a, b) for a, b in zip(serial, got))


def test_test_image_values_are_means_over_spawned_children(two_workers):
    n = 37
    source = analysis._shift_source(6, 2, 24, 32)
    rng = np.random.default_rng(5)
    got = sample_pooled_stats(source, n, rng)
    want = [float(source(child).data.mean())
            for child in np.random.default_rng(5).spawn(n)]
    assert got.label is SampleLabel.TEST_IMAGE
    assert got.values.tolist() == want
    # Spawning does not advance rng's own stream.
    assert rng.random() == np.random.default_rng(5).random()


@pytest.fixture
def fresh_pool(monkeypatch):
    """Sets the worker count, then makes a pool of that many threads."""

    def make(workers):
        monkeypatch.setattr(_parallel, "_WORKERS", workers)
        monkeypatch.setattr(_parallel, "_pool", None)
        return _parallel._executor()

    yield make
    if _parallel._pool is not None:
        _parallel._pool.shutdown()


@pytest.mark.parametrize("workers", [4, 8])
def test_shift_experiment_peak_memory_does_not_grow_with_workers(fresh_pool, workers):
    # One TestImage map in work per worker would peak at 2.46 MB on 4.
    fresh_pool(workers)
    tracemalloc.start()
    try:
        run_shift_experiment(1, n=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8e6


class _Running:
    """Counts the map draws started, those not yet finished and the most
    unfinished at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.started = 0
        self.now = 0
        self.most = 0


def _poison_one_map(source, bad, running):
    """source, except that full map number ``bad`` is drawn with Inf noise,
    and every full map takes a few milliseconds, so that others are in
    flight when it fails."""

    def gen(rng, patch=None):
        if patch is not None:
            return source(rng, patch)
        with running.lock:
            running.started += 1
            running.now += 1
            running.most = max(running.most, running.now)
        try:
            time.sleep(0.003)
            if rng.bit_generator.seed_seq.spawn_key == (bad,):
                return source(_InfiniteNoise(), patch)
            return source(rng, patch)
        finally:
            with running.lock:
                running.now -= 1

    return gen


def _assert_nothing_runs_after_the_return(running, n):
    started = running.started
    assert running.now == 0
    time.sleep(0.05)
    assert running.started == started < n


def test_non_finite_map_surfaces_and_stops_the_other_maps(two_workers):
    running = _Running()
    source = _poison_one_map(analysis._shift_source(2, 2, 16, 16), 5, running)
    with pytest.raises(NonFiniteValue):
        sample_pooled_stats(source, 40, np.random.default_rng(0))
    _assert_nothing_runs_after_the_return(running, 40)


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_maps_at_once_do_not_grow_with_workers(fresh_pool, workers):
    fresh_pool(workers)
    running = _Running()
    source = _poison_one_map(analysis._shift_source(4, 2, 16, 16), -1, running)
    got = sample_pooled_stats(source, 24, np.random.default_rng(8))
    want = sample_pooled_stats(analysis._shift_source(4, 2, 16, 16), 24,
                               np.random.default_rng(8))
    assert got.values.tolist() == want.values.tolist()
    assert running.started == 24
    assert running.most == min(_parallel._AT_ONCE, workers)


def test_stats_with_a_non_finite_map_exits_3(two_workers, monkeypatch, tmp_path, capsys):
    running = _Running()
    shift_source = analysis._shift_source
    monkeypatch.setattr(analysis, "_shift_source",
                        lambda *args: _poison_one_map(shift_source(*args), 7, running))
    outdir = tmp_path / "stats"
    assert main(["stats", "--n", "40", "--outdir", str(outdir)]) == 3
    assert "NaN or Inf" in capsys.readouterr().err
    _assert_nothing_runs_after_the_return(running, 40)
    assert not outdir.exists()


def test_maps_in_flight_are_bounded(two_workers):
    def source(rng, patch=None):
        return FeatureMap(rng.standard_normal((1, 8, 8)))

    def peak(n):
        tracemalloc.start()
        try:
            sample_pooled_stats(source, n, np.random.default_rng(0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)  # starts the pool's threads
    # Only the returned samples may grow with n: a float in a list and in
    # an array is 40 bytes. Every map, child generator and future held at
    # once for the whole run would add about 1.6 KB per map.
    assert peak(2000) <= peak(200) + 1800 * 64
