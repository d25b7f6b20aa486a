import numpy as np
import pytest

from tlc.errors import InvalidGroupCount, ShapeMismatch
from tlc.modules import (
    NormParams,
    SeParams,
    cbam_channel_forward,
    ge_forward,
    host_macs,
    module_macs,
    norm_forward,
    se_forward,
)
from tlc.tensor import FeatureMap, WindowSpec


def make_se_params(rng, c=4, ratio=2) -> SeParams:
    hidden = c // ratio
    return SeParams(
        reduce_weights=rng.standard_normal((c, hidden)),
        expand_weights=rng.standard_normal((hidden, c)),
        ratio=ratio,
    )


def make_norm_params(rng, c=4, groups=4) -> NormParams:
    return NormParams(
        gamma=rng.uniform(0.5, 1.5, c),
        beta=rng.uniform(-0.5, 0.5, c),
        groups=groups,
    )


FORWARDS = {
    "se": lambda x, p, w: se_forward(x, p["se"], w),
    "in": lambda x, p, w: norm_forward(x, p["in"], w),
    "gn": lambda x, p, w: norm_forward(x, p["gn"], w),
    "ge": lambda x, p, w: ge_forward(x, w),
    "cbam": lambda x, p, w: cbam_channel_forward(x, p["se"], w),
}


@pytest.fixture
def params(rng):
    return {
        "se": make_se_params(rng),
        "in": make_norm_params(rng, groups=4),
        "gn": make_norm_params(rng, groups=2),
    }


# --- SE ----------------------------------------------------------------------


def test_se_constant_per_channel_local_equals_global(rng):
    p = make_se_params(rng)
    x = FeatureMap(np.arange(4, dtype=float)[:, None, None] * np.ones((4, 8, 8)))
    g = se_forward(x, p)
    l = se_forward(x, p, WindowSpec(3, 3))
    assert np.max(np.abs(g.data - l.data)) < 1e-12


def test_se_covering_window_equals_global(rng):
    p = make_se_params(rng)
    x = FeatureMap(rng.standard_normal((4, 10, 10)))
    g = se_forward(x, p)
    l = se_forward(x, p, WindowSpec(10, 10))
    assert np.max(np.abs(g.data - l.data)) < 1e-9


def test_se_interior_pixel_matches_crop_oracle(rng):
    p = make_se_params(rng)
    x = FeatureMap(rng.standard_normal((4, 16, 16)))
    local = se_forward(x, p, WindowSpec(5, 5))
    # Window centered at (8, 8): top-left (6, 6).
    crop = FeatureMap(x.data[:, 6:11, 6:11].copy())
    ref = se_forward(crop, p)
    assert np.max(np.abs(local.data[:, 8, 8] - ref.data[:, 2, 2])) < 1e-7


def test_se_channel_mismatch(rng):
    with pytest.raises(ShapeMismatch):
        se_forward(FeatureMap(np.zeros((3, 4, 4))), make_se_params(rng, c=4), None)


# --- norms ---------------------------------------------------------------


def test_norm_constant_input_is_beta():
    p = NormParams(gamma=np.ones(2), beta=np.zeros(2), groups=2)
    x = FeatureMap(np.full((2, 6, 6), 7.0))
    out = norm_forward(x, p)
    assert np.max(np.abs(out.data)) < 1e-12


def test_norm_covering_window_equals_global(rng):
    for groups in (1, 2, 4):
        p = make_norm_params(rng, groups=groups)
        x = FeatureMap(rng.standard_normal((4, 9, 9)))
        g = norm_forward(x, p)
        l = norm_forward(x, p, WindowSpec(9, 9))
        assert np.max(np.abs(g.data - l.data)) < 1e-7


def test_norm_interior_matches_crop_oracle(rng):
    p = make_norm_params(rng, groups=2)
    x = FeatureMap(rng.standard_normal((4, 12, 12)))
    local = norm_forward(x, p, WindowSpec(5, 5))
    crop = FeatureMap(x.data[:, 4:9, 4:9].copy())
    ref = norm_forward(crop, p)
    assert np.max(np.abs(local.data[:, 6, 6] - ref.data[:, 2, 2])) < 1e-6


def test_norm_global_standardizes_groups(rng):
    c, groups = 6, 3
    p = NormParams(gamma=np.ones(c), beta=np.zeros(c), groups=groups)
    x = FeatureMap(rng.standard_normal((c, 16, 16)) * 3 + 1)
    out = norm_forward(x, p).data.reshape(groups, -1)
    for g in range(groups):
        assert abs(out[g].mean()) < 1e-6
        assert out[g].var() == pytest.approx(1.0, abs=1e-3)


def test_norm_bad_groups():
    with pytest.raises(InvalidGroupCount):
        NormParams(gamma=np.ones(4), beta=np.zeros(4), groups=3)


def test_instance_norm_is_groups_equal_channels(rng):
    c = 4
    x = FeatureMap(rng.standard_normal((c, 8, 8)))
    p_in = NormParams(gamma=np.ones(c), beta=np.zeros(c), groups=c)
    out = norm_forward(x, p_in).data
    for ch in range(c):
        v = x.data[ch]
        expect = (v - v.mean()) / np.sqrt(v.var() + 1e-5)
        assert np.allclose(out[ch], expect, atol=1e-10)


# --- GE ------------------------------------------------------------------


def test_ge_zero_input_zero_output():
    x = FeatureMap(np.zeros((2, 5, 5)))
    assert np.all(ge_forward(x).data == 0.0)
    assert np.all(ge_forward(x, WindowSpec(3, 3)).data == 0.0)


def test_ge_covering_window_equals_global(rng):
    x = FeatureMap(rng.standard_normal((2, 8, 8)))
    g = ge_forward(x)
    l = ge_forward(x, WindowSpec(8, 8))
    assert np.max(np.abs(g.data - l.data)) < 1e-9


def test_ge_local_matches_direct_per_pixel_oracle(rng):
    x = FeatureMap(rng.standard_normal((2, 8, 8)))
    w = WindowSpec(3, 3)
    out = ge_forward(x, w)
    # Direct oracle at a fully interior pixel.
    for (i, j) in [(4, 4), (2, 5)]:
        for c in range(2):
            pooled = x.data[c, i - 1:i + 2, j - 1:j + 2].mean()
            gate = 1.0 / (1.0 + np.exp(-pooled))
            assert abs(out.data[c, i, j] - x.data[c, i, j] * gate) < 1e-9


# --- CBAM ----------------------------------------------------------------


def test_cbam_constant_per_channel(rng):
    p = make_se_params(rng)
    x = FeatureMap(np.linspace(-1, 1, 4)[:, None, None] * np.ones((4, 7, 7)))
    g = cbam_channel_forward(x, p)
    l = cbam_channel_forward(x, p, WindowSpec(3, 3))
    assert np.max(np.abs(g.data - l.data)) < 1e-12


def test_cbam_covering_window(rng):
    p = make_se_params(rng)
    x = FeatureMap(rng.standard_normal((4, 9, 9)))
    g = cbam_channel_forward(x, p)
    l = cbam_channel_forward(x, p, WindowSpec(9, 9))
    assert np.max(np.abs(g.data - l.data)) < 1e-7


def test_cbam_interior_matches_crop_oracle(rng):
    p = make_se_params(rng)
    x = FeatureMap(rng.standard_normal((4, 16, 16)))
    local = cbam_channel_forward(x, p, WindowSpec(5, 5))
    crop = FeatureMap(x.data[:, 5:10, 5:10].copy())
    ref = cbam_channel_forward(crop, p)
    assert np.max(np.abs(local.data[:, 7, 7] - ref.data[:, 2, 2])) < 1e-7


# --- shared properties -----------------------------------------------------


def test_parameter_objects_not_mutated(rng, params):
    x = FeatureMap(rng.standard_normal((4, 8, 8)))
    se_before = params["se"].reduce_weights.copy()
    gamma_before = params["in"].gamma.copy()
    for kind, fwd in FORWARDS.items():
        fwd(x, params, None)
        fwd(x, params, WindowSpec(3, 3))
    assert np.array_equal(params["se"].reduce_weights, se_before)
    assert np.array_equal(params["in"].gamma, gamma_before)


def test_gated_outputs_bounded_by_input(rng, params):
    x = FeatureMap(rng.standard_normal((4, 8, 8)))
    for kind in ("se", "ge", "cbam"):
        for w in (None, WindowSpec(3, 3)):
            out = FORWARDS[kind](x, params, w)
            assert np.all(np.abs(out.data) <= np.abs(x.data) + 1e-15)


# --- MAC accounting --------------------------------------------------------


def test_host_macs_formula():
    assert host_macs(2, 4, 4) == 16 * 9 * 4 * 16


def test_module_macs_se_counts():
    m = module_macs("se", c=16, h=4, w=4, ratio=16)
    hw = 16
    assert m["global_macs"] == 2 * 16 * 1 + 16 * hw
    assert m["local_macs"] == 2 * 16 * 1 * hw + 16 * hw


def test_se_and_cbam_overhead_below_half_percent_at_512():
    for kind in ("se", "cbam"):
        m = module_macs(kind, c=16, h=512, w=512, ratio=16)
        assert 0 < m["overhead"] < 0.002


def test_norm_and_ge_have_no_overhead():
    for kind in ("in", "gn", "ge"):
        m = module_macs(kind, c=8, h=64, w=64)
        assert m["overhead"] == 0.0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        module_macs("swish", 4, 4, 4)


@pytest.mark.parametrize("kind", sorted(FORWARDS))
@pytest.mark.parametrize("window", [None, WindowSpec(1, 1), WindowSpec(3, 4),
                                    WindowSpec(50, 50)])
def test_forward_leaves_caller_array_untouched(kind, window, rng, params):
    arr = rng.standard_normal((4, 9, 11))
    before = arr.tobytes()
    out = FORWARDS[kind](FeatureMap(arr), params, window)
    assert arr.flags.writeable
    assert arr.tobytes() == before
    assert not np.shares_memory(out.data, arr)
