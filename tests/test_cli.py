import csv
import os
import threading

import numpy as np
import pytest

from tlc.cli import main
from tlc.tensor import FeatureMap, read_tensor, write_tensor


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
