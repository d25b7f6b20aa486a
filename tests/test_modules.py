import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import integral, modules
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


def _two_pass_norm(crop: np.ndarray, p: NormParams) -> np.ndarray:
    """Group norm of a whole crop with two-pass statistics, in numpy."""
    g = crop.reshape(p.groups, -1)
    centred = g - g.mean(axis=1, keepdims=True)
    var = np.mean(centred ** 2, axis=1, keepdims=True)
    normed = (centred / np.sqrt(var + p.eps)).reshape(crop.shape)
    return normed * p.gamma[:, None, None] + p.beta[:, None, None]


@pytest.mark.parametrize("groups", [4, 2], ids=["in", "gn"])
def test_norm_crop_law_at_offset_1e4(rng, groups):
    # A spread of 1e-2 on offsets of +-1e4, the same within each GN group.
    offsets = np.array([1e4, 1e4, -1e4, -1e4])[:, None, None]
    x = rng.standard_normal((4, 20, 22)) * 1e-2 + offsets
    p = make_norm_params(rng, groups=groups)
    got = norm_forward(FeatureMap(x), p).data
    assert np.max(np.abs(got - _two_pass_norm(x, p))) <= 1e-8
    k = 9
    local = norm_forward(FeatureMap(x), p, WindowSpec(k, k)).data
    c = (k - 1) // 2
    for r in range(x.shape[1] - k + 1):
        for q in range(x.shape[2] - k + 1):
            want = _two_pass_norm(x[:, r:r + k, q:q + k], p)[:, c, c]
            assert np.max(np.abs(local[:, r + c, q + c] - want)) <= 1e-8


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


@pytest.mark.parametrize("kind", ["se", "cbam", "ge"])
@pytest.mark.parametrize("window", [None, WindowSpec(3, 3)], ids=str)
def test_gate_far_below_zero_is_zero_without_a_warning(kind, window, rng):
    # Positive reduce and negative expand weights on a map at +1e4 (GE:
    # a map at -1e4) give logits near -8e4, where exp(-z) overflows.
    p = {"se": SeParams(np.ones((4, 2)), -np.ones((2, 4)), ratio=2)}
    offset = -1e4 if kind == "ge" else 1e4
    x = FeatureMap(rng.standard_normal((4, 16, 16)) + offset)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = FORWARDS[kind](x, p, window)
    assert np.all(out.data == 0.0)


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_norm_eps_must_be_positive_and_finite(eps):
    with pytest.raises(ValueError, match="eps"):
        NormParams(gamma=np.ones(2), beta=np.zeros(2), eps=eps)


# --- crop law, property-based ------------------------------------------------
#
# For every pixel, the local output equals the global module run on the
# window-sized crop whose centre is nearest to it (its own window, or
# the replicated edge window), at that pixel's place in the crop. The
# global module is itself checked against plain numpy formulas.

CROP_LAW_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                             max_examples=40)
MODULES = ("se", "cbam", "ge", "in", "gn")


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _window_side(dim):
    # k = 1, any k inside the map (even and odd), and k at or past the map.
    return st.one_of(st.just(1), st.integers(1, dim), st.integers(dim, dim + 5))


@st.composite
def crop_law_case(draw):
    c = draw(st.sampled_from([1, 2, 3, 4, 6]))
    h = draw(st.integers(1, 20))
    w = draw(st.integers(1, 20))
    window = WindowSpec(draw(_window_side(h)), draw(_window_side(w)))
    offset = draw(st.one_of(st.sampled_from([0.0, 1e4, -1e4]), st.floats(-1e4, 1e4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Channels of one GN group may sit on different offsets.
    x = rng.standard_normal((c, h, w)) + offset * rng.uniform(0.5, 1.0, (c, 1, 1))
    params = {
        "se": make_se_params(rng, c, ratio=draw(st.sampled_from(_divisors(c)))),
        "in": make_norm_params(rng, c, groups=c),
        "gn": make_norm_params(rng, c, groups=draw(st.sampled_from(_divisors(c)))),
    }
    pixels = draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(0, w - 1)),
                           min_size=1, max_size=5))
    corners = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]
    return FeatureMap(x), params, window, sorted(set(pixels + corners))


def _sigmoid(z):
    with np.errstate(over="ignore"):  # exp(-z) = inf gives a gate of 0
        return 1.0 / (1.0 + np.exp(-z))


def _plain_global(kind, x, params):
    """The global module in plain numpy, from per-channel means and maxima."""
    if kind in ("in", "gn"):
        return _two_pass_norm(x, params[kind])
    mean, peak = x.mean(axis=(1, 2)), x.max(axis=(1, 2))
    if kind == "ge":
        return x * _sigmoid(mean)[:, None, None]
    p = params["se"]
    hidden = np.maximum(p.reduce_weights.T @ mean, 0.0)
    if kind == "cbam":
        hidden += np.maximum(p.reduce_weights.T @ peak, 0.0)
    return x * _sigmoid(p.expand_weights.T @ hidden)[:, None, None]


def _tolerance(kind, x):
    # Gates scale x, whose offset sets the rounding of the pooled
    # statistics; norms give values of the order of gamma and beta.
    return 1e-10 if kind in ("in", "gn") else 1e-13 * (1.0 + np.abs(x).max())


@pytest.mark.parametrize("kind", MODULES)
@CROP_LAW_SETTINGS
@given(case=crop_law_case())
def test_crop_law_holds_for_every_module_in_both_modes(kind, case):
    x, params, window, pixels = case
    forward = FORWARDS[kind]
    tol = _tolerance(kind, x.data)
    glob = forward(x, params, None).data
    assert np.max(np.abs(glob - _plain_global(kind, x.data, params))) <= tol
    local = forward(x, params, window).data
    h, w = x.height, x.width
    k_h, k_w = window.effective(h, w)
    for i, j in pixels:
        top = min(max(i - (k_h - 1) // 2, 0), h - k_h)
        left = min(max(j - (k_w - 1) // 2, 0), w - k_w)
        crop = FeatureMap(x.data[:, top:top + k_h, left:left + k_w].copy())
        want = forward(crop, params, None).data[:, i - top, j - left]
        assert np.max(np.abs(local[:, i, j] - want)) <= tol
    if (k_h, k_w) == (h, w):  # one window covers the map: local is global
        assert np.max(np.abs(local - glob)) <= tol


# --- covering windows ---------------------------------------------------------
#
# A window at least as large as the map on both axes is the global
# operator, and the forwards run global mode for it. A window that
# covers one axis only is still local.


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of the table and running-max kernels, counted by name."""
    calls = []
    for owner, name in ((integral, "build_integral"), (integral, "window_sums"),
                        (integral, "_max"), (modules, "local_aggregate"),
                        (modules, "local_max")):
        def counting(*args, _f=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("kind", MODULES)
@pytest.mark.parametrize("window", [WindowSpec(9, 11), WindowSpec(9, 40),
                                    WindowSpec(30, 11), WindowSpec(64, 64)], ids=str)
def test_covering_window_is_global_mode_bit_for_bit(kind, window, rng, params,
                                                    kernel_calls):
    x = FeatureMap(rng.standard_normal((4, 9, 11)) + 3.0)
    glob = FORWARDS[kind](x, params, None).data
    assert np.array_equal(FORWARDS[kind](x, params, window).data, glob)
    assert kernel_calls == []


@pytest.mark.parametrize("kind", MODULES)
@pytest.mark.parametrize("window", [WindowSpec(9, 4), WindowSpec(3, 40)], ids=str)
def test_window_covering_one_axis_stays_local(kind, window, rng, params, kernel_calls):
    x = FeatureMap(rng.standard_normal((4, 9, 11)) + 3.0)
    local = FORWARDS[kind](x, params, window).data
    assert kernel_calls
    assert not np.array_equal(local, FORWARDS[kind](x, params, None).data)
    h, w = x.height, x.width
    k_h, k_w = window.effective(h, w)
    tol = _tolerance(kind, x.data)
    for i in range(h):
        for j in range(w):
            top = min(max(i - (k_h - 1) // 2, 0), h - k_h)
            left = min(max(j - (k_w - 1) // 2, 0), w - k_w)
            crop = FeatureMap(x.data[:, top:top + k_h, left:left + k_w].copy())
            want = FORWARDS[kind](crop, params, None).data[:, i - top, j - left]
            assert np.max(np.abs(local[:, i, j] - want)) <= tol
