"""Float32 storage, float64 arithmetic: a float32 map gives, bit for bit,
what the same values widened to float64 give, and a float64 map keeps
the float64 path, values that float32 cannot hold included.

Every property runs three ways: unblocked, in one-row blocks on the
pool, and in one-row blocks in order on one worker.
"""

import contextlib
import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sliding_stats_oracle
from tlc import _parallel, cli, fusion
from tlc.cli import main
from tlc.demo import wiener_restore
from tlc.errors import EmptyWindowSample, MalformedHeader, NonFiniteValue, TruncatedPayload
from tlc.integral import (
    build_integral,
    local_aggregate,
    local_max,
    local_mean_var,
    strided_local_mean,
)
from tlc.modules import (
    NormParams,
    SeParams,
    cbam_channel_forward,
    ge_forward,
    norm_forward,
    se_forward,
)
from tlc.tensor import FeatureMap, WindowSpec, psnr, read_tensor, write_tensor

PARITY = settings(derandomize=True, deadline=None, database=None, max_examples=40)
MODES = ["unblocked", "one-row blocks on the pool", "one-row blocks on one worker"]


@contextlib.contextmanager
def mode(name):
    with pytest.MonkeyPatch.context() as m:
        if name == "unblocked":
            m.setattr(_parallel, "_MIN_VALUES", float("inf"))
        else:
            m.setattr(_parallel, "_MIN_VALUES", 0)
            m.setattr(_parallel, "_BLOCK_VALUES", 1)
            m.setattr(_parallel, "_WORKERS", 2 if name.endswith("pool") else 1)
        yield


def assert_same(a, b):
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype == np.float64
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    else:
        assert a == b


def _outcome(call):
    try:
        return call()
    except EmptyWindowSample:
        return EmptyWindowSample


def _window_side(dim):
    # k = 1, any k inside the map, and k at or past the map (covering).
    return st.one_of(st.just(1), st.integers(1, dim), st.integers(dim, dim + 5))


@st.composite
def float32_case(draw, lead=((), (1,), (2,), (3,), (4,), (2, 3))):
    shape = draw(st.sampled_from(lead)) + (draw(st.integers(1, 24)), draw(st.integers(1, 24)))
    offset = draw(st.floats(-1e3, 1e3))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, "wide"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if scale == "wide":
        # Magnitudes from 1e-8 to 1e8: float64 sums of these float32
        # values round, so a changed summation order changes bits.
        scale = 10.0 ** rng.uniform(-8, 8, shape)
    x = rng.standard_normal(shape) * scale + offset
    window = WindowSpec(draw(_window_side(shape[-2])), draw(_window_side(shape[-1])))
    return x.astype(np.float32), window, seed


KERNELS = {
    "build_integral": lambda x, w, r: build_integral(x),
    "local_aggregate": lambda x, w, r: local_aggregate(x, w),
    "local_max": lambda x, w, r: local_max(x, w),
    "local_mean_var": lambda x, w, r: local_mean_var(x, w),
    "strided_local_mean": lambda x, w, r: _outcome(lambda: strided_local_mean(x, w, r)),
}


@pytest.mark.parametrize("how", MODES)
@pytest.mark.parametrize("name", sorted(KERNELS))
@PARITY
@given(case=float32_case(), stride=st.integers(1, 3))
def test_kernel_on_float32_equals_the_widened_array(how, name, case, stride):
    x, w, _ = case
    kernel = KERNELS[name]
    with mode(how):
        got = kernel(x, w, stride)
        want = kernel(x.astype(np.float64), w, stride)
    if want is EmptyWindowSample:
        assert got is EmptyWindowSample
    else:
        assert_same(got, want)


def _divisors(c):
    return [d for d in range(1, c + 1) if c % d == 0]


def _forward(module, c, seed, groups, hidden):
    rng = np.random.default_rng(seed)
    se = SeParams(rng.standard_normal((c, hidden)), rng.standard_normal((hidden, c)),
                  ratio=c // hidden)
    norm = NormParams(rng.uniform(0.5, 1.5, c), rng.uniform(-0.5, 0.5, c),
                      groups=c if module == "in" else groups)
    return {
        "se": lambda x, w: se_forward(x, se, w),
        "cbam": lambda x, w: cbam_channel_forward(x, se, w),
        "gn": lambda x, w: norm_forward(x, norm, w),
        "in": lambda x, w: norm_forward(x, norm, w),
        "ge": ge_forward,
    }[module]


@pytest.mark.parametrize("how", MODES)
@pytest.mark.parametrize("module", ["se", "cbam", "gn", "in", "ge"])
@PARITY
@given(case=float32_case(lead=((1,), (2,), (4,), (6,))), local=st.booleans(),
       data=st.data())
def test_forward_on_float32_equals_the_widened_map(how, module, case, local, data):
    x, w, seed = case
    c = x.shape[0]
    groups = data.draw(st.sampled_from(_divisors(c)))
    hidden = data.draw(st.sampled_from(_divisors(c)))
    forward = _forward(module, c, seed, groups, hidden)
    window = w if local else None  # local windows include covering ones
    with mode(how):
        fmap = FeatureMap(x)
        assert fmap.data.dtype == np.float32
        got = forward(fmap, window).data
        want = forward(FeatureMap(x.astype(np.float64)), window).data
    assert_same(got, want)


def _feature_map_calls(x, y, w):
    """Every other public function that takes a FeatureMap, as a value
    to compare; write_tensor as the bytes it writes."""
    h, wid = x.shape[-2:]
    plan = fusion.plan_tiles(h, wid, (w.k_h, w.k_w), (max(1, w.k_h // 2), max(1, w.k_w // 2)))

    def written(fmap):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.tlct"
            write_tensor(fmap, path)
            return path.read_bytes()

    return {
        "psnr": lambda a, b: psnr(a, b, peak=2.0),
        "apply_and_fuse": lambda a, b: fusion.apply_and_fuse(
            a, plan, lambda t: fusion.transposed_attention(t, fusion.AttnParams())).data,
        "seam_metric": lambda a, b: fusion.seam_metric(a, plan),
        "write_tensor": lambda a, b: written(a),
        "wiener_restore": lambda a, b: tuple(
            wiener_restore(FeatureMap(a.data[:1]), w, local_noise=flag).data
            for flag in (False, True)),
    }


@pytest.mark.parametrize("how", MODES)
@pytest.mark.parametrize("name", ["psnr", "apply_and_fuse", "seam_metric", "write_tensor",
                                  "wiener_restore"])
@PARITY
@given(case=float32_case(lead=((1,), (2,), (5,))), seed=st.integers(0, 2**32 - 1))
def test_feature_map_function_on_float32_equals_the_widened_map(how, name, case, seed):
    x, w, _ = case
    y = (x + np.random.default_rng(seed).standard_normal(x.shape)).astype(np.float32)
    call = _feature_map_calls(x, y, w)[name]
    with mode(how):
        got = call(FeatureMap(x), FeatureMap(y))
        want = call(FeatureMap(x.astype(np.float64)), FeatureMap(y.astype(np.float64)))
    assert_same(got, want)


@pytest.mark.parametrize("how", MODES)
def test_fuse_op_sees_the_float64_maps_window_layout(how):
    # A mean over a 200 x 300 window of a 320-wide map, of magnitudes
    # from 1e-8 to 1e8, differs in its last bits between a view of the
    # map and a contiguous copy.
    rng = np.random.default_rng(2)
    x = (rng.standard_normal((2, 300, 320))
         * 10.0 ** rng.uniform(-8, 8, (2, 300, 320))).astype(np.float32)
    plan = fusion.plan_tiles(300, 320, (200, 300), (100, 20))

    def op(t):
        return np.broadcast_to(t.mean(axis=(1, 2), keepdims=True), t.shape)

    with mode(how):
        got = fusion.apply_and_fuse(FeatureMap(x), plan, op).data
        want = fusion.apply_and_fuse(FeatureMap(x.astype(np.float64)), plan, op).data
    assert_same(got, want)


def test_feature_map_keeps_a_float32_array_and_widens_anything_else():
    x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    kept = FeatureMap(x)
    assert kept.data.dtype == np.float32 and np.shares_memory(kept.data, x)
    assert not kept.data.flags.writeable and x.flags.writeable
    for other in (x.astype(np.float16), x.astype(np.int32), x.astype(">f4"), x.tolist()):
        assert FeatureMap(other).data.dtype == np.float64
    with pytest.raises(NonFiniteValue):
        FeatureMap(np.full((1, 2, 2), np.inf, dtype=np.float32))


# --- float64 values that float32 cannot hold ----------------------------------

TINY = 1.0 + 2.0 ** -40  # rounds to 1.0 in float32
HUGE = 1e300  # beyond float32 range


def _float64_extremes():
    x = np.full((3, 9, 11), TINY)
    x[1] = 0.0
    x[1, 4, 5] = HUGE
    x[2, ::2] = -TINY
    return x


@pytest.mark.parametrize("how", MODES)
def test_local_max_keeps_float64_values(how):
    x = _float64_extremes()
    w = WindowSpec(4, 3)
    with mode(how):
        got = local_max(x, w)
    with np.errstate(over="ignore"):  # the oracle's variance of HUGE
        want = np.stack([sliding_stats_oracle(ch, w)[2] for ch in x])
    assert np.array_equal(got, want)
    assert HUGE in got and TINY in got


@pytest.mark.parametrize("how", MODES)
def test_windowed_means_keep_float64_values(how):
    # A map of TINY has exact window sums up to 2**12 values, so every
    # window mean is TINY and every variance 0; one HUGE value among
    # zeros makes each window that holds it HUGE / 16.
    x = _float64_extremes()
    w = WindowSpec(4, 4)
    with mode(how):
        mean = local_aggregate(x, w)
        mv = local_mean_var(x[:1], w)
        strided = strided_local_mean(x[:1], w, 2)
    assert np.all(mean[0] == TINY) and np.all(mv[0] == TINY) and np.all(mv[1] == 0.0)
    assert np.all(strided == TINY)
    with np.errstate(over="ignore"):
        assert np.array_equal(mean[1], sliding_stats_oracle(x[1], w)[0])
    assert set(np.unique(mean[1])) == {0.0, HUGE / 16}


@pytest.mark.parametrize("how", MODES)
@pytest.mark.parametrize("window", [None, WindowSpec(3, 5)], ids=["global", "local"])
def test_gates_keep_float64_values(how, window):
    # On a map of TINY every pooled mean is TINY exactly, so GE gates
    # each pixel by sigmoid(TINY) and psnr against 1.0 is 2**-80.
    x = FeatureMap(np.full((4, 9, 11), TINY))
    with mode(how):
        got = ge_forward(x, window).data
    gate = 1.0 / (np.exp(-TINY) + 1.0)
    assert np.all(got == TINY * gate)
    assert psnr(x, FeatureMap(np.ones((4, 9, 11))), 1.0).mse == 2.0 ** -80


# --- the float32 TLCT input --------------------------------------------------


def test_read_tensor_keeps_the_payload_bits_as_float32_and_checks_the_file(tmp_path):
    # Every finite float32 bit pattern class: normals of any exponent,
    # subnormals and both zeros.
    bits = np.random.default_rng(7).integers(0, 2**32, (5, 6, 7), dtype=np.uint32)
    bits[0, 0, :4] = [0x00000000, 0x80000000, 0x00000001, 0x807FFFFF]
    bits[(bits & 0x7F800000) == 0x7F800000] ^= 0x40000000  # no NaN or Inf
    payload = bits.astype("<u4").tobytes()
    path = tmp_path / "x.tlct"
    path.write_bytes(b"TLCT" + np.array([1, 5, 6, 7], dtype="<u4").tobytes() + payload)
    got = read_tensor(path)
    assert got.data.dtype == np.float32 and got.data.tobytes() == payload
    full = path.read_bytes()
    bad = [
        (full[:10], MalformedHeader),
        (b"XXXX" + full[4:], MalformedHeader),
        (full[:-4], TruncatedPayload),
        (full[:-4] + np.float32(np.nan).tobytes(), NonFiniteValue),
    ]
    for content, error in bad:
        path.write_bytes(content)
        with pytest.raises(error):
            read_tensor(path)


CLI_CASES = {
    "mean": ["aggregate", "--stat", "mean", "--k", "7", "11"],
    "mean-k1": ["aggregate", "--stat", "mean", "--k", "1", "1"],
    "mean-brute": ["aggregate", "--stat", "mean", "--k", "7", "11", "--brute-force"],
    "var": ["aggregate", "--stat", "var", "--k", "7", "11"],
    "var-brute": ["aggregate", "--stat", "var", "--k", "7", "11", "--brute-force"],
    "max": ["aggregate", "--stat", "max", "--k", "7", "11"],
    "max-covering": ["aggregate", "--stat", "max", "--k", "300", "300"],
    "strided-mean": ["aggregate", "--stat", "strided-mean", "--k", "7", "11"],
    "strided-mean-r3": ["aggregate", "--stat", "strided-mean", "--k", "7", "11", "--r", "3"],
    "identity": ["fuse", "--transform", "identity", "--k", "8", "12", "--stride", "5", "7"],
    "attention": ["fuse", "--transform", "attention", "--k", "8", "12", "--stride", "5", "7",
                  "--temperature", "0.5"],
    "mean-broadcast": ["fuse", "--transform", "mean-broadcast", "--k", "8", "12"],
}


@pytest.mark.parametrize("how", MODES)
@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_on_a_tlct_input_writes_what_its_float64_widening_writes(tmp_path, monkeypatch,
                                                                     how, case):
    x = np.random.default_rng(11).standard_normal((5, 37, 53)) * 3.0 + 50.0
    write_tensor(FeatureMap(x), tmp_path / "x.tlct")
    read, held = cli.read_tensor, []

    def reader(path, widen):
        fmap = read(path)
        held.append(fmap.data.dtype)
        return FeatureMap(fmap.data.astype(np.float64)) if widen else fmap

    outputs = []
    for widen in (False, True):
        out = tmp_path / f"widen-{widen}"
        out.mkdir()
        argv = CLI_CASES[case] + ["--input", str(tmp_path / "x.tlct")]
        argv += (["--output", str(out / "stat.tlct")] if argv[0] == "aggregate"
                 else ["--outdir", str(out)])
        monkeypatch.setattr(cli, "read_tensor", functools.partial(reader, widen=widen))
        with mode(how):
            assert main(argv) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert held == [np.float32, np.float32]
    assert len(outputs[0]) == 2 and outputs[0] == outputs[1]


@pytest.mark.parametrize("module", ["se", "cbam", "gn", "in", "ge"])
@pytest.mark.parametrize("k", [5, 40], ids=["local", "covering"])
def test_convert_writes_the_float64_forwards(tmp_path, module, k):
    rng = np.random.default_rng(3)
    c = 4
    x = rng.standard_normal((c, 19, 23)) * 2.0 + 50.0
    write_tensor(FeatureMap(x), tmp_path / "x.tlct")
    ref = FeatureMap(read_tensor(tmp_path / "x.tlct").data.astype(np.float64))
    # Parameters as the manifests store them, in float32.
    reduce_w, expand_w, gamma, beta = (
        a.astype(np.float32).astype(np.float64)
        for a in (rng.standard_normal((c, 2)), rng.standard_normal((2, c)),
                  rng.uniform(0.5, 1.5, c), rng.uniform(-0.5, 0.5, c)))
    params = {"se": SeParams(reduce_w, expand_w, ratio=2),
              "norm": NormParams(gamma, beta, groups=c if module == "in" else 2)}
    for name, value in [("se.reduce", reduce_w[:, :, None]), ("se.expand", expand_w[:, :, None]),
                        ("norm.gamma", gamma[:, None, None]), ("norm.beta", beta[:, None, None])]:
        write_tensor(FeatureMap(value), tmp_path / f"{name}.tlct")
    (tmp_path / "p.params").write_text(
        "se.reduce=se.reduce.tlct\nse.expand=se.expand.tlct\nnorm.gamma=norm.gamma.tlct\n"
        f"norm.beta=norm.beta.tlct\nnorm.groups={params['norm'].groups}\n")
    argv = ["convert", "--module", module, "--input", str(tmp_path / "x.tlct"),
            "--outdir", str(tmp_path / "out"), "--k", str(k), str(k)]
    assert main(argv + ([] if module == "ge" else ["--params", str(tmp_path / "p.params")])) == 0
    p = params["se" if module in ("se", "cbam") else "norm"]
    forward = {"se": lambda w: se_forward(ref, p, w),
               "cbam": lambda w: cbam_channel_forward(ref, p, w),
               "gn": lambda w: norm_forward(ref, p, w), "in": lambda w: norm_forward(ref, p, w),
               "ge": lambda w: ge_forward(ref, w)}[module]
    for name, window in [("global", None), ("local", WindowSpec(k, k))]:
        write_tensor(forward(window), tmp_path / f"{name}.want")
        got = (tmp_path / "out" / f"{name}.tlct").read_bytes()
        assert got == (tmp_path / f"{name}.want").read_bytes()
