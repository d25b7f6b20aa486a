import csv
import errno
import inspect
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tlc import _parallel, cli, modules, tensor
from tlc.cli import main
from tlc.errors import MalformedHeader
from tlc.integral import strided_local_mean
from tlc.tensor import FeatureMap, WindowSpec, read_tensor, write_tensor


def save_map(tmp_path, arr, name="in.tlct"):
    path = tmp_path / name
    write_tensor(FeatureMap(arr), path)
    return path


def read_report(path):
    with open(path) as fh:
        return {row[0]: row[1] for row in list(csv.reader(fh))[1:]}


def write_se_manifest(tmp_path, rng, c=4, ratio=2):
    hidden = c // ratio
    reduce_w = rng.standard_normal((c, hidden, 1))
    expand_w = rng.standard_normal((hidden, c, 1))
    write_tensor(FeatureMap(reduce_w), tmp_path / "reduce.tlct")
    write_tensor(FeatureMap(expand_w), tmp_path / "expand.tlct")
    manifest = tmp_path / "se.params"
    manifest.write_text("se.reduce=reduce.tlct\nse.expand=expand.tlct\n")
    return manifest


def write_norm_manifest(tmp_path, c=4, groups=2):
    gamma = np.ones((c, 1, 1))
    beta = np.zeros((c, 1, 1))
    write_tensor(FeatureMap(gamma), tmp_path / "gamma.tlct")
    write_tensor(FeatureMap(beta), tmp_path / "beta.tlct")
    manifest = tmp_path / "norm.params"
    manifest.write_text(
        "norm.gamma=gamma.tlct\nnorm.beta=beta.tlct\n"
        f"norm.eps=1e-5\nnorm.groups={groups}\n"
    )
    return manifest


def test_aggregate_k1_is_identity(tmp_path, rng):
    arr = rng.standard_normal((2, 8, 8))
    inp = save_map(tmp_path, arr)
    out = tmp_path / "out.tlct"
    assert main(["aggregate", "--input", str(inp), "--output", str(out),
                 "--stat", "mean", "--k", "1", "1"]) == 0
    got = read_tensor(out)
    assert np.allclose(got.data, arr.astype(np.float32), atol=1e-7)


def test_aggregate_huge_k_is_global_mean(tmp_path, rng):
    arr = rng.standard_normal((1, 64, 64))
    inp = save_map(tmp_path, arr)
    out = tmp_path / "out.tlct"
    assert main(["aggregate", "--input", str(inp), "--output", str(out),
                 "--stat", "mean", "--k", "9999", "9999"]) == 0
    got = read_tensor(out).data
    assert np.all(got == got.flat[0])
    assert got.flat[0] == pytest.approx(arr.astype(np.float32).mean(), abs=1e-7)


def test_aggregate_var_matches_brute_force(tmp_path, rng):
    arr = rng.standard_normal((1, 20, 20))
    inp = save_map(tmp_path, arr)
    fast, slow = tmp_path / "f.tlct", tmp_path / "s.tlct"
    base = ["aggregate", "--input", str(inp), "--stat", "var", "--k", "5", "5"]
    assert main(base + ["--output", str(fast)]) == 0
    assert main(base + ["--output", str(slow), "--brute-force"]) == 0
    a, b = read_tensor(fast).data, read_tensor(slow).data
    assert np.max(np.abs(a - b)) < 1e-7


def test_aggregate_summary_csv(tmp_path, rng):
    inp = save_map(tmp_path, rng.standard_normal((1, 8, 8)))
    out = tmp_path / "out.tlct"
    main(["aggregate", "--input", str(inp), "--output", str(out),
          "--stat", "max", "--k", "3", "3"])
    summary = read_report(tmp_path / "out.csv")
    assert set(summary) == {"min", "max", "mean"}


def test_convert_se_constant_input(tmp_path, rng):
    manifest = write_se_manifest(tmp_path, rng)
    arr = np.ones((4, 12, 12)) * np.arange(1, 5)[:, None, None]
    inp = save_map(tmp_path, arr)
    outdir = tmp_path / "conv"
    assert main(["convert", "--module", "se", "--input", str(inp),
                 "--params", str(manifest), "--outdir", str(outdir),
                 "--k", "5", "5"]) == 0
    report = read_report(outdir / "report.csv")
    assert float(report["max_abs_diff"]) < 1e-9


def test_convert_in_covering_window(tmp_path, rng):
    manifest = write_norm_manifest(tmp_path)
    inp = save_map(tmp_path, rng.standard_normal((4, 10, 10)))
    outdir = tmp_path / "conv"
    assert main(["convert", "--module", "in", "--input", str(inp),
                 "--params", str(manifest), "--outdir", str(outdir),
                 "--k", "64", "64"]) == 0
    report = read_report(outdir / "report.csv")
    assert float(report["max_abs_diff"]) < 1e-7


def test_convert_crop_checks_small(tmp_path, rng):
    manifest = write_se_manifest(tmp_path, rng)
    inp = save_map(tmp_path, rng.standard_normal((4, 16, 16)))
    outdir = tmp_path / "conv"
    assert main(["convert", "--module", "se", "--input", str(inp),
                 "--params", str(manifest), "--outdir", str(outdir),
                 "--k", "5", "5"]) == 0
    report = read_report(outdir / "report.csv")
    crop_errs = [float(v) for k, v in report.items() if k.startswith("crop_check")]
    assert crop_errs and max(crop_errs) < 1e-6
    assert (outdir / "global.tlct").exists()
    assert (outdir / "local.tlct").exists()
    assert (outdir / "absdiff.tlct").exists()


def test_stats_deterministic_and_passing(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["stats", "--seed", "7", "--n", "120", "--outdir", str(out1)]) == 0
    assert main(["stats", "--seed", "7", "--n", "120", "--outdir", str(out2)]) == 0
    for name in ("samples.csv", "ks.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_calibrate_csv_output(tmp_path):
    out = tmp_path / "cal.csv"
    assert main(["calibrate", "--calib", "384", "384",
                 "--layer", "a=1", "--layer", "b=0.5",
                 "--output", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [["a", "384", "384"], ["b", "192", "192"]]


def _calibrate(output, layers):
    argv = ["calibrate", "--calib", "384", "384", "--output", str(output)]
    return main(argv + [arg for name in layers for arg in ("--layer", f"{name}=1")])


@pytest.mark.parametrize("before", [["a", "b", "c"], ["a"], []],
                         ids=["longer", "as long", "shorter"])
def test_csv_rewritten_in_place_equals_a_fresh_write(tmp_path, before):
    # The rewrite keeps the old file: whether that is longer, as long or
    # shorter, the file must end where the new rows end.
    out, fresh = tmp_path / "cal.csv", tmp_path / "fresh.csv"
    if before:
        assert _calibrate(out, before) == 0
    else:
        out.write_bytes(b"x")
    assert _calibrate(out, ["a"]) == 0 and _calibrate(fresh, ["a"]) == 0
    assert out.read_bytes() == fresh.read_bytes() == b"layer,k_h,k_w\r\na,384,384\r\n"


def test_csv_to_a_pipe_is_written_without_seeking():
    code = ("import sys; from tlc.cli import main; sys.exit(main(['calibrate', '--calib', "
            "'384', '384', '--layer', 'a=1', '--output', '/dev/stdout']))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == b"layer,k_h,k_w\r\na,384,384\r\n"


def test_demo_zero_noise_passthrough(tmp_path):
    outdir = tmp_path / "demo"
    assert main(["demo", "--seed", "42", "--noise", "none",
                 "--outdir", str(outdir)]) == 0
    report = read_report(outdir / "psnr.csv")
    assert report["global"] == "inf"
    assert report["local"] == "inf"


def test_fuse_identity(tmp_path, rng):
    arr = rng.standard_normal((2, 12, 12))
    inp = save_map(tmp_path, arr)
    outdir = tmp_path / "fuse"
    assert main(["fuse", "--input", str(inp), "--transform", "identity",
                 "--k", "6", "6", "--outdir", str(outdir)]) == 0
    fused = read_tensor(outdir / "fused.tlct").data
    assert np.allclose(fused, arr.astype(np.float32), atol=1e-6)
    report = read_report(outdir / "seam.csv")
    assert abs(float(report["fused"]) - float(report["input"])) < 1e-6


def test_fuse_attention_single_channel_identity(tmp_path, rng):
    arr = rng.standard_normal((1, 10, 10))
    inp = save_map(tmp_path, arr)
    outdir = tmp_path / "fuse"
    assert main(["fuse", "--input", str(inp), "--transform", "attention",
                 "--k", "4", "4", "--stride", "2", "2",
                 "--outdir", str(outdir)]) == 0
    fused = read_tensor(outdir / "fused.tlct").data
    assert np.allclose(fused, arr.astype(np.float32), atol=1e-6)


def test_config_file_fills_defaults(tmp_path, rng):
    arr = rng.standard_normal((1, 8, 8))
    inp = save_map(tmp_path, arr)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# demo config\nk=1 1\nstat=mean\n")
    out = tmp_path / "out.tlct"
    assert main(["aggregate", "--input", str(inp), "--output", str(out),
                 "--config", str(cfg)]) == 0
    assert np.allclose(read_tensor(out).data, arr.astype(np.float32), atol=1e-7)


def test_config_flags_override_file(tmp_path, rng):
    arr = rng.standard_normal((1, 8, 8))
    inp = save_map(tmp_path, arr)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=9999 9999\nstat=mean\n")
    out = tmp_path / "out.tlct"
    assert main(["aggregate", "--input", str(inp), "--output", str(out),
                 "--k", "1", "1", "--config", str(cfg)]) == 0
    # Flag k=1 wins: identity, not a constant map.
    assert np.allclose(read_tensor(out).data, arr.astype(np.float32), atol=1e-7)


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--reps", "3", "--output", str(out)]) == 0
    with open(out) as fh:
        rows = {r[0]: r for r in list(csv.reader(fh))[1:]}
    assert float(rows["integral_max_over_min"][2]) < 1.5
    assert float(rows["brute_128_over_8"][2]) > 10


def test_exit_code_usage():
    assert main(["aggregate"]) == 1
    assert main(["not-a-command"]) == 1


def test_exit_code_io(tmp_path):
    assert main(["aggregate", "--input", str(tmp_path / "missing.tlct"),
                 "--output", str(tmp_path / "o.tlct"), "--stat", "mean"]) == 2


def test_exit_code_malformed_tensor(tmp_path):
    bad = tmp_path / "bad.tlct"
    bad.write_bytes(b"XXXX" + b"\x00" * 20)
    assert main(["aggregate", "--input", str(bad),
                 "--output", str(tmp_path / "o.tlct"), "--stat", "mean"]) == 2


def test_exit_code_data_shape(tmp_path, rng):
    # Params built for 4 channels, input has 2: a data error, exit 3.
    manifest = write_se_manifest(tmp_path, rng, c=4)
    inp = save_map(tmp_path, rng.standard_normal((2, 8, 8)))
    assert main(["convert", "--module", "se", "--input", str(inp),
                 "--params", str(manifest), "--outdir", str(tmp_path / "c"),
                 "--k", "3", "3"]) == 3


def test_input_files_not_mutated(tmp_path, rng):
    arr = rng.standard_normal((1, 8, 8))
    inp = save_map(tmp_path, arr)
    before = inp.read_bytes()
    main(["aggregate", "--input", str(inp), "--output", str(tmp_path / "o.tlct"),
          "--stat", "mean", "--k", "3", "3"])
    assert inp.read_bytes() == before


@pytest.mark.parametrize("stat", ["max", "strided-mean"])
def test_brute_force_without_a_brute_path_is_a_usage_error(tmp_path, rng, capsys, stat):
    inp = save_map(tmp_path, rng.standard_normal((1, 8, 8)))
    out = tmp_path / "o.tlct"
    assert main(["aggregate", "--input", str(inp), "--output", str(out),
                 "--stat", stat, "--k", "3", "3", "--brute-force"]) == 1
    assert "--brute-force" in capsys.readouterr().err
    assert not out.exists()


def test_output_beyond_float32_range_is_a_data_error(tmp_path, capsys):
    # The windowed variance of +-1e30 is about 1e60, beyond float32.
    arr = np.where(np.indices((1, 6, 6)).sum(axis=0) % 2, 1e30, -1e30)
    inp = save_map(tmp_path, arr)
    out = tmp_path / "o.tlct"
    assert main(["aggregate", "--input", str(inp), "--output", str(out),
                 "--stat", "var", "--k", "3", "3"]) == 3
    assert "float32" in capsys.readouterr().err
    assert main(["aggregate", "--input", str(out), "--output", str(tmp_path / "p.tlct"),
                 "--stat", "mean", "--k", "1", "1"]) == 2  # zeroed header


def test_config_brute_force_without_a_brute_path_is_a_usage_error(tmp_path, rng, capsys):
    inp = save_map(tmp_path, rng.standard_normal((1, 8, 8)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("brute-force=1\nstat=max\nk=3 3\n")
    out = tmp_path / "o.tlct"
    assert main(["aggregate", "--input", str(inp), "--output", str(out),
                 "--config", str(cfg)]) == 1
    assert "--brute-force" in capsys.readouterr().err
    assert not out.exists()


def test_config_brute_force_takes_the_brute_path(tmp_path, rng, monkeypatch):
    import tlc.cli

    inp = save_map(tmp_path, rng.standard_normal((2, 9, 8)))
    flag, cfg_out = tmp_path / "flag.tlct", tmp_path / "cfg.tlct"
    assert main(["aggregate", "--input", str(inp), "--output", str(flag),
                 "--stat", "mean", "--k", "3", "4", "--brute-force"]) == 0
    calls = []
    brute = tlc.cli.brute_force_local_mean
    monkeypatch.setattr(tlc.cli, "brute_force_local_mean",
                        lambda *a: (calls.append(a), brute(*a))[1])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("brute-force=1\nstat=mean\nk=3 4\n")
    assert main(["aggregate", "--input", str(inp), "--output", str(cfg_out),
                 "--config", str(cfg)]) == 0
    assert len(calls) == 1
    assert cfg_out.read_bytes() == flag.read_bytes()


def test_config_brute_force_value_must_be_a_switch(tmp_path, rng):
    inp = save_map(tmp_path, rng.standard_normal((1, 8, 8)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("brute-force=maybe\n")
    assert main(["aggregate", "--input", str(inp), "--output", str(tmp_path / "o.tlct"),
                 "--config", str(cfg)]) == 1


def test_aggregate_writes_to_a_pipe(tmp_path, rng):
    inp = save_map(tmp_path, rng.standard_normal((3, 8, 9)))
    ref = tmp_path / "ref.tlct"
    assert main(["aggregate", "--input", str(inp), "--output", str(ref),
                 "--stat", "var", "--k", "3", "3"]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["aggregate", "--input", str(inp), "--output", str(fifo),
                 "--stat", "var", "--k", "3", "3"]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [ref.read_bytes()]


@pytest.mark.parametrize("flags", [
    ["--stride", "0", "0"],
    ["--k", "0", "0"],
    ["--k", "-3", "4"],
    ["--transform", "attention", "--temperature", "0"],
    ["--transform", "attention", "--temperature", "-1"],
    ["--transform", "attention", "--temperature", "nan"],
    ["--transform", "attention", "--temperature", "inf"],
], ids=" ".join)
def test_fuse_bad_value_is_a_usage_error(tmp_path, rng, capsys, flags):
    inp = save_map(tmp_path, rng.standard_normal((2, 8, 8)))
    outdir = tmp_path / "fused"
    argv = ["fuse", "--input", str(inp), "--outdir", str(outdir)]
    if "--k" not in flags:
        argv += ["--k", "4", "4"]
    assert main(argv + flags) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not outdir.exists()


@pytest.mark.parametrize("k,r", [("3", "0"), ("3", "-2"), ("1", "2")],
                         ids=["0", "-2", "k1-r2"])
def test_strided_mean_bad_stride_is_a_usage_error(tmp_path, rng, capsys, k, r):
    # A stride larger than the window leaves windows without a sample.
    inp = save_map(tmp_path, rng.standard_normal((1, 8, 8)))
    out = tmp_path / "o.tlct"
    assert main(["aggregate", "--input", str(inp), "--output", str(out),
                 "--stat", "strided-mean", "--k", k, k, "--r", r]) == 1
    assert "stride" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".csv").exists()


def test_strided_mean_stride_past_a_spanning_window_runs(tmp_path, rng):
    # The 5-row window spans the rows, so every window holds a sample
    # row although r = 8 > 5; the 8-column window has a sample column.
    x = rng.standard_normal((1, 5, 9))
    inp = save_map(tmp_path, x)
    out = tmp_path / "o.tlct"
    assert main(["aggregate", "--input", str(inp), "--output", str(out),
                 "--stat", "strided-mean", "--k", "5", "8", "--r", "8"]) == 0
    want = strided_local_mean(read_tensor(inp).data, WindowSpec(5, 8), 8)
    assert np.array_equal(read_tensor(out).data, want.astype(np.float32))


def _sliding_two_pass_var(x, k):
    """Two-pass variance of every full k x k window of each channel."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(-2, -1))
    centred = windows - windows.mean(axis=(-2, -1), keepdims=True)
    return np.mean(centred ** 2, axis=(-2, -1))


@pytest.mark.parametrize("brute", [False, True], ids=["integral", "brute-force"])
def test_aggregate_var_at_offset_1e4_matches_two_pass_reference(tmp_path, rng, brute):
    inp = save_map(tmp_path, rng.standard_normal((2, 64, 64)) * 1e-2 + 1e4)
    out = tmp_path / "var.tlct"
    k = 16
    argv = ["aggregate", "--input", str(inp), "--output", str(out), "--stat", "var",
            "--k", str(k), str(k)]
    assert main(argv + ["--brute-force"] * brute) == 0
    want = _sliding_two_pass_var(read_tensor(inp).data.astype(np.float64), k)
    c = (k - 1) // 2
    got = read_tensor(out).data[:, c:c + want.shape[1], c:c + want.shape[2]]
    # The output is stored as float32.
    assert np.max(np.abs(got - want) / want) <= 1e-6


@pytest.mark.parametrize("command,flags,config", [
    ("fuse", [], "k = 5"),
    ("fuse", ["--k", "4", "4"], "stride = 4"),
    ("fuse", [], "k = 5 5 5"),
    ("calibrate", ["--layer", "a=0.5"], "calib = 64"),
    ("stats", ["--n", "0"], None),
    ("stats", ["--n", "8", "--bins", "0"], None),
    ("bench", ["--reps", "0"], None),
    ("calibrate", ["--calib", "0", "5", "--layer", "a=0.5"], None),
    ("calibrate", ["--layer", "a=nan"], None),
    ("calibrate", ["--layer", "a=inf"], None),
    ("calibrate", ["--layer", "a=1e308"], None),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_bad_number_is_a_usage_error(tmp_path, rng, capsys, command, flags, config):
    out = tmp_path / "out"
    argv = [command] + flags
    if command == "fuse":
        inp = save_map(tmp_path, rng.standard_normal((2, 8, 8)))
        argv += ["--input", str(inp), "--outdir", str(out)]
    elif command == "stats":
        argv += ["--outdir", str(out)]
    else:
        argv += ["--output", str(out)]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command,out_flag", [
    ("demo", "--outdir"),
    ("bench", "--output"),
    ("stats", "--outdir"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command, out_flag, source):
    out = tmp_path / "out"
    argv = [command, out_flag, str(out)]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("layers", [
    ["=0.5"],
    ["a=0.5", "a=0.25"],
    ["a=0.5", "b=1", "a=0.5"],
], ids=" ".join)
def test_calibrate_bad_layer_name_is_a_usage_error(tmp_path, capsys, layers):
    out = tmp_path / "cal.csv"
    argv = ["calibrate", "--output", str(out)]
    for spec in layers:
        argv += ["--layer", spec]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: layer name")
    assert not out.exists()


@pytest.mark.parametrize("entry", [
    "norm.eps=abc",
    "norm.eps=-1",
    "norm.eps=0",
    "norm.eps=1e-400",
    "norm.eps=nan",
    "norm.eps=inf",
    "norm.groups=x",
])
def test_bad_norm_param_is_a_data_error(tmp_path, rng, capsys, entry):
    manifest = write_norm_manifest(tmp_path)
    manifest.write_text(manifest.read_text() + entry + "\n")  # the last value wins
    inp = save_map(tmp_path, rng.standard_normal((4, 20, 20)))
    outdir = tmp_path / "conv"
    assert main(["convert", "--module", "gn", "--input", str(inp),
                 "--params", str(manifest), "--outdir", str(outdir),
                 "--k", "5", "5"]) == 3
    assert capsys.readouterr().err.startswith("data error: params manifest")
    assert not outdir.exists()


def _convert_inputs(d, shape):
    rng = np.random.default_rng(11)
    c = shape[0]
    write_tensor(FeatureMap(rng.standard_normal(shape)), d / "x.tlct")
    write_se_manifest(d, rng, c=c, ratio=4)
    write_norm_manifest(d, c=c, groups=4)
    return {"se": "se.params", "cbam": "se.params", "gn": "norm.params",
            "in": "norm.params", "ge": None}


def _convert_argv(d, module, params, outdir, k=32):
    argv = ["convert", "--module", module, "--input", str(d / "x.tlct"),
            "--outdir", str(outdir), "--k", str(k), str(k)]
    return argv + (["--params", str(d / params)] if params else [])


@pytest.fixture
def two_workers(monkeypatch):
    """A fresh pool of two threads, so that the blocks in flight do not
    depend on the machine's core count."""
    monkeypatch.setattr(_parallel, "_pool", None)
    monkeypatch.setattr(_parallel, "_WORKERS", 2)
    yield
    if _parallel._pool is not None:
        _parallel._pool.shutdown()


# Peak traced memory of one convert of a 32x256x256 map (16.8 MB a map)
# at k=32 on two workers. The input and the local output are 33.6 MB; the
# global output is written from one round of 16 channels (8.4 MB) at a
# time. A full-size global map read 57.2, 70.4, 57.2, 76.2 and 67.7 MB.
CONVERT_PEAK_MB = {"se": 48, "cbam": 57, "gn": 48, "in": 63, "ge": 54}


@pytest.mark.parametrize("module", sorted(CONVERT_PEAK_MB))
def test_convert_holds_no_full_size_global_output(tmp_path, two_workers, module):
    params = _convert_inputs(tmp_path, (32, 256, 256))[module]
    argv = _convert_argv(tmp_path, module, params, tmp_path / "out")
    assert main(argv) == 0  # starts the pool and creates the outputs
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CONVERT_PEAK_MB[module] * 1e6


def test_failed_global_stream_is_an_io_error_and_leaves_a_malformed_header(
        tmp_path, monkeypatch, capsys):
    params = _convert_inputs(tmp_path, (8, 19, 23))["se"]
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", 2 * 19 * 23)
    real_open = open
    writes = []

    class FailingFile:
        """Fails the write after the zeroed header and the first block."""

        def __init__(self, fh):
            self.fh = fh

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, data):
            writes.append(memoryview(data).nbytes)
            if len(writes) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

    def failing_open(path, mode, **kwargs):
        fh = real_open(path, mode, **kwargs)
        return FailingFile(fh) if str(path).endswith("global.tlct") else fh

    monkeypatch.setattr(tensor, "open", failing_open, raising=False)
    outdir = tmp_path / "out"
    assert main(_convert_argv(tmp_path, "se", params, outdir, k=5)) == 2
    assert capsys.readouterr().err.startswith("io error: cannot write")
    assert writes == [20, 4 * 2 * 19 * 23, 4 * 2 * 19 * 23]
    monkeypatch.undo()
    with pytest.raises(MalformedHeader):
        read_tensor(outdir / "global.tlct")


def test_importing_the_cli_leaves_scipy_unimported():
    code = "import sys, tlc.cli; sys.exit('scipy' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_main_runs_a_command_function_rebound_after_the_first_call(monkeypatch, tmp_path):
    assert main(["calibrate", "--layer", "a=1", "--output", str(tmp_path / "c.csv")]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_calibrate", lambda args: calls.append(args.layer) or 0)
    assert main(["calibrate", "--layer", "b=2"]) == 0
    assert calls == [["b=2"]]


@pytest.mark.parametrize("k,references", [(64, 1), (5, 3)])
def test_convert_runs_one_crop_reference_per_distinct_crop(tmp_path, rng, monkeypatch,
                                                           k, references):
    inp = save_map(tmp_path, rng.standard_normal((4, 10, 10)))
    crop_steps = []
    in_checks = False
    steps, checks = modules._global_steps, cli._crop_law_spot_checks

    def counting_steps(kind, x, params):
        if in_checks:
            crop_steps.append(x.data.shape)
        return steps(kind, x, params)

    def counting_checks(*args, **kwargs):
        nonlocal in_checks
        in_checks = True
        try:
            return checks(*args, **kwargs)
        finally:
            in_checks = False

    monkeypatch.setattr(modules, "_global_steps", counting_steps)
    monkeypatch.setattr(cli, "_crop_law_spot_checks", counting_checks)
    outdir = tmp_path / "conv"
    assert main(["convert", "--module", "ge", "--input", str(inp), "--outdir", str(outdir),
                 "--k", str(k), str(k)]) == 0
    assert len(crop_steps) == references
    with open(outdir / "report.csv") as fh:
        rows = list(csv.reader(fh))
    crop_rows = [row[0] for row in rows if row[0].startswith("crop_check")]
    assert len(crop_rows) == len(set(crop_rows)) == references


@pytest.mark.parametrize("k,window", [(3, ("3", "3")), (11, ("10", "11")),
                                      (64, ("10", "12"))])
def test_convert_reports_the_effective_window(tmp_path, k, window):
    params = _convert_inputs(tmp_path, (4, 10, 12))["ge"]
    outdir = tmp_path / "conv"
    assert main(_convert_argv(tmp_path, "ge", params, outdir, k)) == 0
    report = read_report(outdir / "report.csv")
    assert (report["window_h"], report["window_w"]) == window


@pytest.mark.parametrize("module", ["se", "cbam", "ge", "in", "gn"])
@pytest.mark.parametrize("k", [12, 64])
def test_convert_with_a_covering_window_writes_global_as_local(tmp_path, monkeypatch,
                                                               module, k):
    params = _convert_inputs(tmp_path, (4, 10, 12))[module]
    outdir = tmp_path / "conv"
    monkeypatch.setattr(cli, "_module_forward", None)  # the module runs once
    assert main(_convert_argv(tmp_path, module, params, outdir, k)) == 0
    assert (outdir / "local.tlct").read_bytes() == (outdir / "global.tlct").read_bytes()
    assert not read_tensor(outdir / "absdiff.tlct").data.any()
    report = read_report(outdir / "report.csv")
    checks = [float(v) for key, v in report.items() if key.startswith("crop_check")]
    assert float(report["max_abs_diff"]) == 0.0 and checks == [0.0]


FORWARDS = {"se": "se_forward", "cbam": "cbam_channel_forward", "ge": "ge_forward",
            "in": "norm_forward", "gn": "norm_forward"}


@pytest.mark.parametrize("module", ["se", "cbam", "ge", "in", "gn"])
@pytest.mark.parametrize("k,local", [(5, True), (12, False)], ids=["local", "covering"])
def test_convert_calls_the_public_forward_looked_up_at_call_time(tmp_path, monkeypatch,
                                                                 module, k, local):
    # A tracer sees the module calls by rebinding these attributes of
    # tlc.modules, so convert must look each forward up there per call.
    params = _convert_inputs(tmp_path, (4, 10, 12))[module]
    windows = {name: [] for name in set(FORWARDS.values())}
    for name in windows:
        forward = getattr(modules, name)
        signature = inspect.signature(forward)

        def counting(*args, forward=forward, signature=signature, name=name, **kwargs):
            windows[name].append(signature.bind(*args, **kwargs).arguments.get("window"))
            return forward(*args, **kwargs)

        monkeypatch.setattr(modules, name, counting)
    assert main(_convert_argv(tmp_path, module, params, tmp_path / "conv", k)) == 0
    want = {name: [] for name in windows}
    if local:
        want[FORWARDS[module]] = [WindowSpec(k, k)]
    assert windows == want


@pytest.mark.parametrize("kind", ["se", "cbam", "ge", "in", "gn"])
@pytest.mark.parametrize("window", [WindowSpec(5, 5), WindowSpec(4, 12), WindowSpec(1, 1)],
                         ids=str)
def test_one_pixel_crop_checks_equal_the_full_crop_forward(rng, kind, window):
    x = FeatureMap(rng.standard_normal((4, 10, 12)) * 3.0 + 50.0)
    se = modules.SeParams(rng.standard_normal((4, 2)), rng.standard_normal((2, 4)), ratio=2)
    gamma, beta = rng.uniform(0.5, 1.5, 4), rng.uniform(-1, 1, 4)
    params = {"se": se, "cbam": se, "ge": None,
              "in": modules.NormParams(gamma, beta, groups=4),
              "gn": modules.NormParams(gamma, beta, groups=2)}[kind]
    local = cli._module_forward(kind, x, params, window)
    rows = cli._crop_law_spot_checks(kind, x, params, window,
                                     lambda cy, cx: local.data[:, cy, cx])
    k_h, k_w = window.effective(x.height, x.width)
    want = []
    for t_r, t_c in dict.fromkeys(zip(np.linspace(0, x.height - k_h, 3, dtype=int).tolist(),
                                      np.linspace(0, x.width - k_w, 3, dtype=int).tolist())):
        cy, cx = t_r + (k_h - 1) // 2, t_c + (k_w - 1) // 2
        crop = FeatureMap(x.data[:, t_r:t_r + k_h, t_c:t_c + k_w].copy())
        ref = cli._module_forward(kind, crop, params, None).data[:, cy - t_r, cx - t_c]
        want.append((f"crop_check_{cy}_{cx}", float(np.max(np.abs(local.data[:, cy, cx] - ref)))))
    assert len(rows) == 3
    assert rows == want


@pytest.mark.parametrize("command,key", [
    ("aggregate", "stat"),
    ("convert", "module"),
    ("demo", "noise"),
    ("fuse", "transform"),
])
def test_config_value_outside_the_flag_choices_is_a_usage_error(tmp_path, rng, capsys,
                                                                command, key):
    inp = save_map(tmp_path, rng.standard_normal((4, 8, 8)))
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = foo\n")
    argv = [command, "--config", str(cfg)]
    if command != "demo":
        argv += ["--input", str(inp)]
    argv += ["--output" if command == "aggregate" else "--outdir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        f"error: config key {key!r}: argument --{key}: invalid choice")
    assert not out.exists()


@pytest.mark.parametrize("name,width", [("reduce", 3), ("expand", 5)])
def test_se_weights_wider_than_one_are_a_data_error(tmp_path, rng, capsys, name, width):
    manifest = write_se_manifest(tmp_path, rng)  # C = 4, hidden = 2
    matrix = (4, 2) if name == "reduce" else (2, 4)
    write_tensor(FeatureMap(rng.standard_normal(matrix + (width,))), tmp_path / f"{name}.tlct")
    inp = save_map(tmp_path, rng.standard_normal((4, 8, 8)))
    outdir = tmp_path / "conv"
    assert main(["convert", "--module", "se", "--input", str(inp),
                 "--params", str(manifest), "--outdir", str(outdir), "--k", "3", "3"]) == 3
    assert capsys.readouterr().err.startswith(f"data error: se.{name} must have width 1")
    assert not outdir.exists()


def _parsed(monkeypatch, command, argv):
    """The namespace main hands to cmd_<command>, without --config."""
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(vars(args)) or 0)
    assert main([command] + argv) == 0
    del seen[0]["config"]
    return seen[0]


# One case per flag of each command, as it is given on the command line
# and as a config entry.
FLAG_AND_CONFIG = [
    ("aggregate", ["--input", "in dir/x.tlct"], "input = in dir/x.tlct"),
    ("aggregate", ["--output", "out dir/o.tlct"], "output = out dir/o.tlct"),
    ("aggregate", ["--k", "5", "5"], "k = 5,5"),
    ("aggregate", ["--stat", "var"], "stat = var"),
    ("aggregate", ["--r", "2"], "r = 2"),
    ("aggregate", ["--brute-force"], "brute-force = 1"),
    ("aggregate", [], "brute-force = 0"),
    ("convert", ["--input", "x.tlct"], "input = x.tlct"),
    ("convert", ["--outdir", "out dir"], "outdir = out dir"),
    ("convert", ["--k", "4", "7"], "k = 4 7"),
    ("convert", ["--module", "gn"], "module = gn"),
    ("convert", ["--params", "p q.params"], "params = p q.params"),
    ("stats", ["--outdir", "o"], "outdir = o"),
    ("stats", ["--seed", "7"], "seed = 7"),
    ("stats", ["--n", "64"], "n = 64"),
    ("stats", ["--bins", "5"], "bins = 5"),
    ("calibrate", ["--output", "c.csv"], "output = c.csv"),
    ("calibrate", ["--calib", "64", "32"], "calib = 64, 32"),
    ("calibrate", ["--layer", "a=1"], "layer = a=1"),
    ("bench", ["--output", "b.csv"], "output = b.csv"),
    ("bench", ["--seed", "3"], "seed = 3"),
    ("bench", ["--reps", "2"], "reps = 2"),
    ("demo", ["--outdir", "d"], "outdir = d"),
    ("demo", ["--seed", "0"], "seed = 0"),
    ("demo", ["--k", "96", "96"], "k = 96 96"),
    ("demo", ["--noise", "none"], "noise = none"),
    ("fuse", ["--input", "x.tlct"], "input = x.tlct"),
    ("fuse", ["--outdir", "f"], "outdir = f"),
    ("fuse", ["--k", "1", "1"], "k = 1,1"),
    ("fuse", ["--stride", "2", "3"], "stride = 2 3"),
    ("fuse", ["--transform", "attention"], "transform = attention"),
    ("fuse", ["--temperature", "0.5"], "temperature = 0.5"),
]


@pytest.mark.parametrize("command,flags,entry", FLAG_AND_CONFIG,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_config_entry_parses_as_its_flag(tmp_path, monkeypatch, command, flags, entry):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entry + "\n")
    from_config = _parsed(monkeypatch, command, ["--config", str(cfg)])
    assert from_config == _parsed(monkeypatch, command, flags)
    if flags:  # the entry is read, not left at the default
        assert from_config != _parsed(monkeypatch, command, [])


def test_every_flag_has_a_config_case():
    parser = cli.build_parser()
    for command in ("aggregate", "convert", "stats", "calibrate", "bench", "demo", "fuse"):
        dests = set(vars(parser.parse_args([command]))) - {"command", "config"}
        covered = {flags[0][2:].replace("-", "_")
                   for cmd, flags, _ in FLAG_AND_CONFIG if cmd == command and flags}
        assert covered == dests, command


def test_config_layer_comes_before_the_command_line_layers(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("layer = enc1=1\n")
    assert main(["calibrate", "--config", str(cfg), "--layer", "dec1=0.5"]) == 0
    assert capsys.readouterr().out == "enc1,384,384\ndec1,192,192\n"


@pytest.mark.parametrize("command,flags,entry", [
    ("stats", ["--k", "5", "5"], "k = 5 5"),
    ("demo", ["--input", "x"], "input = x"),
    ("calibrate", ["--seed", "1"], "seed = 1"),
    ("convert", ["--output", "o"], "output = o"),
    ("fuse", ["--seed", "1"], "seed = 1"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, rng, capsys, command,
                                                        flags, entry, source):
    inp = save_map(tmp_path, rng.standard_normal((2, 8, 8)))
    out = str(tmp_path / "out")
    argv = {
        "stats": ["--n", "16", "--outdir", out],
        "demo": ["--outdir", out],
        "calibrate": ["--layer", "a=1", "--output", out],
        "convert": ["--module", "ge", "--input", str(inp), "--outdir", out, "--k", "3", "3"],
        "fuse": ["--input", str(inp), "--outdir", out, "--k", "4", "4"],
    }[command]
    if source == "flag":
        argv += flags
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n")
        argv += ["--config", str(cfg)]
    before = sorted(tmp_path.iterdir())
    assert main([command] + argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command,argv,flag,value", [
    ("convert", ["--module", "ge", "--k", "3", "3"], "params", "{d}/se.params"),
    ("aggregate", ["--stat", "mean"], "r", "2"),
    ("aggregate", ["--stat", "var"], "r", "1"),
    ("aggregate", ["--stat", "max"], "r", "2"),
    ("fuse", ["--transform", "identity"], "temperature", "0.5"),
    ("fuse", ["--transform", "mean-broadcast"], "temperature", "1"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_flag_the_other_flags_leave_unread_is_a_usage_error(tmp_path, capsys, command, argv,
                                                            flag, value, source):
    _convert_inputs(tmp_path, (4, 8, 8))  # x.tlct and a valid se.params
    inp, value = str(tmp_path / "x.tlct"), value.format(d=tmp_path)
    argv = argv + {
        "convert": ["--input", inp, "--outdir", str(tmp_path / "out")],
        "aggregate": ["--input", inp, "--output", str(tmp_path / "o.tlct"), "--k", "3", "3"],
        "fuse": ["--input", inp, "--outdir", str(tmp_path / "out"), "--k", "4", "4"],
    }[command]
    if source == "flag":
        argv += [f"--{flag}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        argv += ["--config", str(cfg)]
    before = sorted(tmp_path.iterdir())
    assert main([command] + argv) == 1
    assert capsys.readouterr().err.startswith(f"error: --{flag} is not read by ")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command,argv,flags", [
    ("aggregate", ["--stat", "strided-mean", "--k", "4", "4"], ["--r", "1"]),
    ("fuse", ["--transform", "attention", "--k", "4", "4", "--stride", "2", "2"],
     ["--temperature", "1.0"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_omitted_conditional_flag_reads_as_its_default(tmp_path, rng, command, argv, flags):
    inp = save_map(tmp_path, rng.standard_normal((3, 9, 11)))
    outputs = []
    for extra in ([], flags):
        out = tmp_path / f"out{len(outputs)}"
        dest = (["--output", str(out / "o.tlct")] if command == "aggregate"
                else ["--outdir", str(out)])
        out.mkdir()
        assert main([command, "--input", str(inp)] + dest + argv + extra) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] and outputs[0]


def test_config_naming_another_config_is_a_usage_error(tmp_path, capsys):
    other = tmp_path / "other.cfg"
    other.write_text("layer = b=2\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"config = {other}\n")
    out = tmp_path / "cal.csv"
    assert main(["calibrate", "--layer", "a=1", "--output", str(out),
                 "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: config key 'config'")
    assert not out.exists()


@pytest.mark.parametrize("command", ["aggregate", "convert", "stats", "calibrate",
                                     "bench", "demo", "fuse"])
def test_unwritable_csv_or_outdir_is_an_io_error(tmp_path, rng, capsys, monkeypatch,
                                                 command):
    inp = save_map(tmp_path, rng.standard_normal((4, 8, 8)))
    (tmp_path / "file").write_text("")
    bad = str(tmp_path / "file" / "sub")  # a directory below a regular file
    (tmp_path / "o.csv").mkdir()  # where aggregate writes its summary
    argv = {
        "aggregate": ["--input", str(inp), "--output", str(tmp_path / "o.tlct"),
                      "--k", "3", "3"],
        "convert": ["--module", "ge", "--input", str(inp), "--outdir", bad, "--k", "3", "3"],
        "stats": ["--n", "16", "--outdir", bad],
        "calibrate": ["--layer", "a=1", "--output", bad + "/c.csv"],
        "bench": ["--reps", "1", "--output", bad + "/b.csv"],
        "demo": ["--k", "4", "4", "--outdir", bad],
        "fuse": ["--input", str(inp), "--k", "4", "4", "--outdir", bad],
    }[command]
    # Only the CSV is under test: bench's timed kernels need not run.
    monkeypatch.setattr(cli, "local_aggregate", lambda x, w: x)
    monkeypatch.setattr(cli, "brute_force_local_mean", lambda x, w: x)
    assert main([command] + argv) == 2
    assert capsys.readouterr().err.startswith("io error: ")


def _tile_starts(n, k, s):
    starts = list(range(0, n - k + 1, s))
    return starts if starts[-1] == n - k else starts + [n - k]


def _brute_seam(x, tiles, k_h, k_w):
    """Mean |diff| over adjacent pairs across a tile edge minus the mean
    over all other adjacent pairs, pair by pair."""
    c, h, w = x.shape
    cut_cols = {b for _, col in tiles for b in (col, col + k_w) if 1 <= b <= w - 1}
    cut_rows = {b for row, _ in tiles for b in (row, row + k_h) if 1 <= b <= h - 1}
    seam, other = [], []
    for i in range(h):
        for j in range(w):
            if j + 1 < w:
                (seam if j + 1 in cut_cols else other).extend(abs(x[:, i, j + 1] - x[:, i, j]))
            if i + 1 < h:
                (seam if i + 1 in cut_rows else other).extend(abs(x[:, i + 1, j] - x[:, i, j]))
    return sum(seam) / len(seam) - sum(other) / len(other)


def test_fuse_mean_broadcast_is_the_overlap_average_of_tile_means(tmp_path, rng):
    arr = rng.standard_normal((3, 11, 13)) * rng.uniform(0.5, 2.0, (3, 1, 1)) + 4.0
    inp = save_map(tmp_path, arr)
    x = read_tensor(inp).data.astype(np.float64)
    outdir = tmp_path / "fuse"
    assert main(["fuse", "--input", str(inp), "--transform", "mean-broadcast",
                 "--k", "5", "6", "--stride", "3", "4", "--outdir", str(outdir)]) == 0
    tiles = [(r, c) for r in _tile_starts(11, 5, 3) for c in _tile_starts(13, 6, 4)]
    want = np.empty_like(x)
    for i in range(11):
        for j in range(13):
            means = [x[:, r:r + 5, c:c + 6].mean(axis=(1, 2)) for r, c in tiles
                     if r <= i < r + 5 and c <= j < c + 6]
            want[:, i, j] = np.mean(means, axis=0)
    fused = read_tensor(outdir / "fused.tlct").data
    assert np.max(np.abs(fused - want)) <= 1e-6 * np.abs(want).max()
    report = read_report(outdir / "seam.csv")
    assert list(report) == ["input", "fused"]
    assert float(report["input"]) == pytest.approx(_brute_seam(x, tiles, 5, 6), rel=1e-9)
    assert float(report["fused"]) == pytest.approx(_brute_seam(want, tiles, 5, 6), rel=1e-9)
    # Tile means are constant inside a tile, so the fused map changes
    # only across tile edges.
    assert float(report["fused"]) > 0


@pytest.mark.parametrize("module", sorted(CONVERT_PEAK_MB))
def test_convert_holds_its_input_as_float32(tmp_path, two_workers, module):
    # convert keeps the float32 payload as its input map, so its peak
    # sits at least one float32 input (8.4 MB) below CONVERT_PEAK_MB,
    # which a float64 input fills. Measured: SE, GN and GE 36.2 MB,
    # CBAM 38.1 and IN 50.9, against 44.6 to 59.3 with a float64 input.
    shape = (32, 256, 256)
    params = _convert_inputs(tmp_path, shape)[module]
    argv = _convert_argv(tmp_path, module, params, tmp_path / "out")
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CONVERT_PEAK_MB[module] * 1e6 - 4 * int(np.prod(shape))


# Traced peak bound of one aggregate or fuse of a 32x256x256 map on two
# workers, which a float64 input fills: mean, max and attention read
# 42.4 to 42.6 MB with one.
AGGREGATE_FUSE_PEAK_MB = 44


@pytest.mark.parametrize("argv", [
    ["aggregate", "--stat", "mean", "--k", "32", "32", "--output", "out.tlct"],
    ["aggregate", "--stat", "max", "--k", "32", "32", "--output", "out.tlct"],
    ["fuse", "--transform", "attention", "--k", "64", "64", "--stride", "32", "32",
     "--outdir", "out"],
], ids=["aggregate-mean", "aggregate-max", "fuse-attention"])
def test_aggregate_and_fuse_hold_their_input_as_float32(tmp_path, two_workers, argv):
    # read_tensor keeps the float32 payload as the input map, so the peak
    # sits at least one float32 input (8.4 MB) below the float64 bound.
    # Measured: 34.1, 33.9 and 34.0 MB.
    shape = (32, 256, 256)
    inp = save_map(tmp_path, np.random.default_rng(5).standard_normal(shape) * 2.0 + 3.0)
    argv = [str(tmp_path / a) if a.startswith("out") else a for a in argv]
    argv += ["--input", str(inp)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= AGGREGATE_FUSE_PEAK_MB * 1e6 - 4 * int(np.prod(shape))
