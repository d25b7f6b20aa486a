import tracemalloc

import numpy as np
import pytest

from tlc import _parallel, fusion
from tlc.errors import OpShapeViolation
from tlc.fusion import (
    AttnParams,
    TilePlan,
    apply_and_fuse,
    coverage_counts,
    plan_tiles,
    seam_metric,
    transposed_attention,
)
from tlc.integral import local_aggregate
from tlc.tensor import FeatureMap, WindowSpec


def test_single_tile_plan():
    plan = plan_tiles(4, 4, (4, 4), (4, 4))
    assert plan.placements == ((0, 0),)


def test_dense_stride_coverage_counts():
    plan = plan_tiles(4, 1, (3, 1), (1, 1))
    rows = [r for r, _ in plan.placements]
    assert rows == [0, 1]
    counts = coverage_counts(plan)[:, 0]
    assert counts.tolist() == [1, 2, 2, 1]


def test_clamped_final_placement():
    plan = plan_tiles(5, 1, (3, 1), (2, 1))
    rows = [r for r, _ in plan.placements]
    assert rows == [0, 2]
    assert np.all(coverage_counts(plan) >= 1)


def test_plan_invariants_random(rng):
    for _ in range(50):
        h = int(rng.integers(1, 40))
        w = int(rng.integers(1, 40))
        k = (int(rng.integers(1, 50)), int(rng.integers(1, 50)))
        s = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        plan = plan_tiles(h, w, k, s)
        counts = coverage_counts(plan)
        assert np.all(counts >= 1)
        assert sorted(set(plan.placements)) == list(plan.placements)
        k_h, k_w = plan.window
        assert counts.sum() == len(plan.placements) * k_h * k_w


def test_identity_fusion_returns_input(rng):
    x = FeatureMap(rng.standard_normal((3, 17, 13)))
    plan = plan_tiles(17, 13, (6, 5), (3, 2))
    out = apply_and_fuse(x, plan, lambda win: win)
    assert np.max(np.abs(out.data - x.data)) <= 1e-12


def test_add_constant_fusion(rng):
    x = FeatureMap(rng.standard_normal((1, 9, 9)))
    plan = plan_tiles(9, 9, (4, 4), (2, 2))
    out = apply_and_fuse(x, plan, lambda win: win + 2.5)
    assert np.allclose(out.data, x.data + 2.5, atol=1e-12)


def test_mean_broadcast_blocks():
    ramp = np.arange(16, dtype=float).reshape(1, 4, 4)
    x = FeatureMap(ramp)
    plan = plan_tiles(4, 4, (2, 2), (2, 2))
    out = apply_and_fuse(
        x, plan, lambda w: np.broadcast_to(w.mean(axis=(1, 2), keepdims=True), w.shape)
    )
    # Four non-overlapping tiles, each replaced by its own mean.
    expect = np.array([
        [2.5, 2.5, 4.5, 4.5],
        [2.5, 2.5, 4.5, 4.5],
        [10.5, 10.5, 12.5, 12.5],
        [10.5, 10.5, 12.5, 12.5],
    ])
    assert np.allclose(out.data[0], expect, atol=1e-12)


def test_fusion_linearity(rng):
    x = FeatureMap(rng.standard_normal((2, 10, 10)))
    plan = plan_tiles(10, 10, (4, 4), (3, 3))
    op = lambda w: 0.5 * w + 0.25 * w[:, ::-1, :]  # linear in w
    a = apply_and_fuse(x, plan, lambda w: op(3.0 * w))
    b = apply_and_fuse(x, plan, lambda w: 3.0 * op(w))
    assert np.max(np.abs(a.data - b.data)) < 1e-12


def test_fusion_order_independence(rng):
    x = FeatureMap(rng.standard_normal((1, 12, 12)))
    plan = plan_tiles(12, 12, (5, 5), (3, 3))
    shuffled = TilePlan(
        window=plan.window,
        stride=plan.stride,
        placements=tuple(reversed(plan.placements)),
        shape=plan.shape,
    )
    op = lambda w: np.tanh(w)
    a = apply_and_fuse(x, plan, op)
    b = apply_and_fuse(x, shuffled, op)
    assert np.max(np.abs(a.data - b.data)) <= 1e-12


def test_fusion_bad_op_shape(rng):
    x = FeatureMap(rng.standard_normal((1, 8, 8)))
    plan = plan_tiles(8, 8, (4, 4), (4, 4))
    with pytest.raises(OpShapeViolation):
        apply_and_fuse(x, plan, lambda w: w[:, :2, :2])


# --- transposed attention ----------------------------------------------------


def test_attention_single_channel_identity(rng):
    win = rng.standard_normal((1, 3, 3))
    out = transposed_attention(win, AttnParams(2.0))
    assert np.allclose(out, win, atol=1e-12)


def test_attention_identical_channels(rng):
    ch = rng.standard_normal((4, 4))
    win = np.stack([ch, ch])
    out = transposed_attention(win, AttnParams(0.7))
    assert np.allclose(out[0], ch, atol=1e-12)
    assert np.allclose(out[1], ch, atol=1e-12)


def test_attention_dense_oracle():
    rng = np.random.default_rng(7)
    win = rng.standard_normal((2, 2, 2))
    out = transposed_attention(win, AttnParams(1.0))
    v = win.reshape(2, -1)
    q = v / np.linalg.norm(v, axis=1, keepdims=True)
    logits = q @ q.T
    a = np.exp(logits)
    a = a / a.sum(axis=1, keepdims=True)
    expect = (a @ v).reshape(2, 2, 2)
    assert np.max(np.abs(out - expect)) < 1e-9


def test_attention_rows_stochastic(rng):
    win = rng.standard_normal((5, 3, 4))
    v = win.reshape(5, -1)
    q = v / np.linalg.norm(v, axis=1, keepdims=True)
    logits = q @ q.T * 1.3
    logits -= logits.max(axis=1, keepdims=True)
    a = np.exp(logits)
    a /= a.sum(axis=1, keepdims=True)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-9)
    # Convexity along channels bounds each output by the largest input.
    out = transposed_attention(win, AttnParams(1.3))
    assert np.max(np.abs(out)) <= np.max(np.abs(win)) + 1e-12


@pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_attention_temperature_must_be_positive_and_finite(temperature):
    with pytest.raises(ValueError):
        AttnParams(temperature)


def test_attention_zero_channel_is_documented_noop(rng):
    win = np.zeros((3, 2, 2))
    win[0] = rng.standard_normal((2, 2))
    out = transposed_attention(win, AttnParams(1.0))
    assert np.all(np.isfinite(out))


def test_attention_full_window_equals_global(rng):
    x = FeatureMap(rng.standard_normal((3, 6, 6)))
    p = AttnParams(1.0)
    plan = plan_tiles(6, 6, (6, 6), (6, 6))
    fused = apply_and_fuse(x, plan, lambda w: transposed_attention(w, p))
    direct = transposed_attention(x.data, p)
    assert np.max(np.abs(fused.data - direct)) < 1e-12


# --- patch-inference baseline and seams --------------------------------------


def patch_inference_baseline(x: FeatureMap, plan: TilePlan, pipeline) -> FeatureMap:
    """The crop-and-stitch baseline: a whole-map pipeline on each tile, fused."""
    return apply_and_fuse(x, plan, lambda win: pipeline(FeatureMap(win)).data)


def test_patch_baseline_identity(rng):
    x = FeatureMap(rng.standard_normal((2, 10, 10)))
    plan = plan_tiles(10, 10, (5, 5), (3, 3))
    out = patch_inference_baseline(x, plan, lambda m: m)
    assert np.max(np.abs(out.data - x.data)) <= 1e-12


def test_patch_baseline_no_overlap_blockwise(rng):
    x = FeatureMap(rng.standard_normal((1, 8, 8)))
    plan = plan_tiles(8, 8, (4, 4), (4, 4))
    scale = lambda m: FeatureMap(2.0 * m.data)
    out = patch_inference_baseline(x, plan, scale)
    assert np.allclose(out.data, 2.0 * x.data, atol=1e-12)


def _global_mean_broadcast(m: FeatureMap) -> FeatureMap:
    mean = m.data.mean(axis=(1, 2), keepdims=True)
    return FeatureMap(np.broadcast_to(mean, m.data.shape).copy())


def test_baseline_seam_vs_local_smoothness():
    # Two-block image restored tile-by-tile with a global-mean pipeline
    # keeps a hard step at the tile boundary; the windowed local mean of
    # the same window size blends across it.
    w = 16
    img = np.zeros((1, 8, w))
    img[:, :, w // 2:] = 1.0
    x = FeatureMap(img)
    plan = plan_tiles(8, w, (8, w // 2), (8, w // 2))
    baseline = patch_inference_baseline(x, plan, _global_mean_broadcast)
    assert seam_metric(baseline, plan) > 0
    local = local_aggregate(img[0], WindowSpec(8, w // 2))
    local_seam = seam_metric(FeatureMap(local[None]), plan)
    assert local_seam < seam_metric(baseline, plan)


def test_seam_metric_smooth_ramp_is_zero():
    ramp = (np.arange(12)[None, :] * np.ones((12, 1)))[None]
    plan = plan_tiles(12, 12, (4, 4), (4, 4))
    assert abs(seam_metric(FeatureMap(ramp), plan)) < 1e-9


def test_seam_metric_constant_zero():
    plan = plan_tiles(10, 10, (5, 5), (5, 5))
    assert seam_metric(FeatureMap(np.ones((1, 10, 10))), plan) == 0.0


def test_seam_metric_block_constant_positive():
    img = np.zeros((1, 8, 8))
    img[:, :, 4:] = 3.0
    plan = plan_tiles(8, 8, (8, 4), (8, 4))
    assert seam_metric(FeatureMap(img), plan) > 0


def _seam_metric_concatenation_oracle(x: np.ndarray, plan: TilePlan) -> float:
    # Gathers every seam pair and every other pair, then takes both means.
    h, w = plan.shape
    k_h, k_w = plan.window
    edge_cols = np.zeros(max(w - 1, 0), dtype=bool)
    edge_rows = np.zeros(max(h - 1, 0), dtype=bool)
    for r, c in plan.placements:
        for b in (c, c + k_w):
            if 1 <= b <= w - 1:
                edge_cols[b - 1] = True
        for b in (r, r + k_h):
            if 1 <= b <= h - 1:
                edge_rows[b - 1] = True
    dh = np.abs(np.diff(x, axis=2))
    dv = np.abs(np.diff(x, axis=1))
    seam = np.concatenate([dh[:, :, edge_cols].ravel(), dv[:, edge_rows, :].ravel()])
    other = np.concatenate([dh[:, :, ~edge_cols].ravel(), dv[:, ~edge_rows, :].ravel()])
    if seam.size == 0 or other.size == 0:
        return 0.0
    return float(seam.mean() - other.mean())


SEAM_PLANS = [
    plan_tiles(24, 31, (8, 10), (5, 7)),
    plan_tiles(16, 16, (16, 16), (16, 16)),  # one tile: no seam pairs
    plan_tiles(6, 5, (1, 1), (1, 1)),  # every gap a seam: no other pairs
    plan_tiles(1, 12, (1, 4), (1, 3)),
    plan_tiles(12, 1, (4, 1), (3, 1)),
    # Hand-built, not a grid: tiles of one size at scattered placements.
    TilePlan(window=(6, 5), stride=(1, 1),
             placements=((0, 0), (3, 4), (7, 1), (11, 9), (2, 8)),
             shape=(17, 14)),
]


@pytest.mark.parametrize("plan", SEAM_PLANS)
@pytest.mark.parametrize("seed", range(4))
def test_seam_metric_matches_concatenation_oracle(plan, seed):
    data = np.random.default_rng(seed).standard_normal((3,) + plan.shape)
    data[:, ::2] *= 1.0 + seed  # give rows different scales
    got = seam_metric(FeatureMap(data), plan)
    want = _seam_metric_concatenation_oracle(data, plan)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


# --- the q-normalized attention oracle -----------------------------------------


def _q_normalized_attention(window: np.ndarray, temperature: float) -> np.ndarray:
    # The attention as first written: an L2-normalized copy q of the
    # channels, then q qᵀ, with zero-norm channels left as zero rows of q.
    window = np.asarray(window, dtype=np.float64)
    c = window.shape[0]
    v = window.reshape(c, -1)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    q = np.divide(v, norms, out=np.zeros_like(v), where=norms > 0)
    logits = (q @ q.T) * temperature
    logits -= logits.max(axis=1, keepdims=True)
    a = np.exp(logits)
    a /= a.sum(axis=1, keepdims=True)
    return (a @ v).reshape(window.shape)


@pytest.mark.parametrize("c", [1, 2, 8, 64])
@pytest.mark.parametrize("offset", [0.0, 1.0, 1e2, 1e4])
@pytest.mark.parametrize("zeros", [0, 1, 2])
@pytest.mark.parametrize("temperature", [0.1, 10.0])
def test_gram_attention_matches_q_normalized_oracle(c, offset, zeros, temperature):
    rng = np.random.default_rng([c, zeros, int(offset)])
    x = rng.standard_normal((c, 20, 21)) * rng.uniform(0.1, 3.0, (c, 1, 1)) + offset
    x[:zeros] = 0.0  # zero-norm channels (every channel when zeros >= c)
    win = x[:, 2:18, 3:19]  # a strided tile, as apply_and_fuse passes it
    got = transposed_attention(win, AttnParams(temperature))
    want = _q_normalized_attention(win, temperature)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# --- the seam metric in channel blocks ------------------------------------------


@pytest.mark.parametrize("plan", SEAM_PLANS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("workers", [1, 2])
def test_seam_metric_in_one_channel_blocks_matches_concatenation_oracle(monkeypatch, plan, seed,
                                                                         workers):
    # Two workers run the blocks through leading_map on the pool; with
    # one, leading_map runs them in order on the caller's thread.
    monkeypatch.setattr(_parallel, "_MIN_VALUES", 0)
    monkeypatch.setattr(_parallel, "_WORKERS", workers)
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", 1)
    channels = []
    abs_diff_sum = fusion._abs_diff_sum

    def recording(x, axis, out):
        channels.append(x.shape[0])
        abs_diff_sum(x, axis, out)

    monkeypatch.setattr(fusion, "_abs_diff_sum", recording)
    test_seam_metric_matches_concatenation_oracle(plan, seed)
    assert channels == [1] * 6  # three channels, two gap directions each


@pytest.mark.parametrize("workers,block_values", [(1, None), (2, 1 << 18)])
def test_seam_metric_never_holds_a_full_size_diff(monkeypatch, workers, block_values):
    # Blocks running on different threads are held at once, so on two
    # workers the blocks are set to a quarter of the map; on one, the
    # default blocks (half of it) are taken one after the other.
    monkeypatch.setattr(_parallel, "_WORKERS", workers)
    if block_values:
        monkeypatch.setattr(_parallel, "_BLOCK_VALUES", block_values)
    x = FeatureMap(np.random.default_rng(8).standard_normal((16, 256, 256)))
    assert x.data.size >= _parallel._MIN_VALUES
    plan = plan_tiles(256, 256, (64, 64), (32, 32))
    want = _seam_metric_concatenation_oracle(x.data, plan)
    full_diff = 16 * 256 * 255 * x.data.itemsize
    tracemalloc.start()
    try:
        got = seam_metric(x, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_diff
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
