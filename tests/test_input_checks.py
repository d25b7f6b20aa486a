"""Input checks: each bad input gets its typed error, or its documented
exit code and message at the command line."""

import struct

import numpy as np
import pytest

from tlc import analysis, cli
from tlc.cli import EXIT_DATA, EXIT_IO, EXIT_PROPERTY, EXIT_USAGE, main
from tlc.errors import MalformedHeader, ShapeMismatch
from tlc.fusion import apply_and_fuse, plan_tiles, seam_metric
from tlc.modules import NormParams, SeParams
from tlc.tensor import FeatureMap, WindowSpec, psnr, read_tensor, write_tensor


def save_map(path, arr):
    write_tensor(FeatureMap(arr), path)
    return path


# --- library types -----------------------------------------------------------


@pytest.mark.parametrize("shape", [(4,), (3, 4), (1, 2, 3, 4)], ids=str)
def test_feature_map_wants_three_axes(shape):
    with pytest.raises(ShapeMismatch, match="expected"):
        FeatureMap(np.zeros(shape))


@pytest.mark.parametrize("shape", [(0, 3, 4), (2, 0, 4), (2, 3, 0)], ids=str)
def test_feature_map_wants_positive_dims(shape):
    with pytest.raises(ShapeMismatch, match="positive"):
        FeatureMap(np.zeros(shape))


@pytest.mark.parametrize("size", [0, 7, 19])
def test_file_shorter_than_its_header_is_malformed(tmp_path, size):
    path = tmp_path / "t.tlct"
    path.write_bytes(struct.pack("<4sIIII", b"TLCT", 1, 1, 1, 1)[:size])
    with pytest.raises(MalformedHeader, match="shorter than header"):
        read_tensor(path)


@pytest.mark.parametrize("dims", [(0, 2, 2), (2, 0, 2), (2, 2, 0)], ids=str)
def test_header_with_a_zero_dimension_is_malformed(tmp_path, dims):
    path = tmp_path / "t.tlct"
    path.write_bytes(struct.pack("<4sIIII", b"TLCT", 1, *dims) + bytes(64))
    with pytest.raises(MalformedHeader, match="non-positive dims"):
        read_tensor(path)


@pytest.mark.parametrize("peak", [0.0, -1.0])
def test_psnr_wants_a_positive_peak(peak):
    x = FeatureMap(np.ones((1, 2, 2)))
    with pytest.raises(ValueError, match="peak must be positive"):
        psnr(x, x, peak)


@pytest.mark.parametrize("reduce_w,expand_w,ratio,match", [
    (np.ones(4), np.ones((2, 4)), 2, "2-D"),
    (np.ones((4, 2)), np.ones(8), 2, "2-D"),
    (np.ones((4, 2)), np.ones((2, 4)), 3, "inconsistent with ratio"),
    (np.ones((4, 2)), np.ones((2, 4)), 0, "inconsistent with ratio"),
    (np.ones((4, 3)), np.ones((3, 4)), 2, "inconsistent with ratio"),
    (np.ones((4, 2)), np.ones((4, 2)), 2, "expand weights"),
], ids=["1-D reduce", "1-D expand", "ratio not dividing C", "ratio 0",
        "hidden not C/ratio", "expand transposed"])
def test_se_params_reject_inconsistent_weights(reduce_w, expand_w, ratio, match):
    with pytest.raises(ShapeMismatch, match=match):
        SeParams(reduce_w, expand_w, ratio=ratio)


def test_norm_params_want_gamma_and_beta_of_one_shape():
    with pytest.raises(ShapeMismatch, match="gamma"):
        NormParams(np.ones(4), np.zeros(3))


@pytest.mark.parametrize("values", [[], [1.0, np.nan], [np.inf], [0.0, -np.inf]],
                         ids=["empty", "nan", "inf", "-inf"])
def test_sample_set_wants_finite_values(values):
    with pytest.raises(ValueError, match="non-empty|non-finite"):
        analysis.SampleSet(np.array(values), analysis.SampleLabel.TEST_IMAGE)


def test_pooled_stats_take_a_patch_or_a_window_not_both():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at most one"):
        analysis.sample_pooled_stats(lambda *a: None, 4, rng, patch=(2, 2),
                                     window=WindowSpec(2, 2))


@pytest.mark.parametrize("call", [
    lambda x, plan: apply_and_fuse(x, plan, lambda win: win),
    lambda x, plan: seam_metric(x, plan),
], ids=["apply_and_fuse", "seam_metric"])
@pytest.mark.parametrize("plan_shape", [(8, 9), (9, 8), (4, 4)], ids=str)
def test_tile_plan_for_another_shape_is_refused(call, plan_shape):
    x = FeatureMap(np.ones((2, 8, 8)))
    plan = plan_tiles(*plan_shape, (4, 4), (2, 2))
    with pytest.raises(ShapeMismatch, match="plan is for"):
        call(x, plan)


# --- the command line ----------------------------------------------------------


def test_zero_window_is_a_usage_error(tmp_path, capsys):
    inp = save_map(tmp_path / "x.tlct", np.ones((1, 4, 4)))
    argv = ["aggregate", "--input", str(inp), "--output", str(tmp_path / "o.tlct"),
            "--k", "0", "5"]
    assert main(argv) == EXIT_USAGE
    assert "window must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o.tlct").exists()


def test_unreadable_config_is_an_io_error(tmp_path, capsys):
    argv = ["stats", "--outdir", str(tmp_path / "o"), "--config", str(tmp_path / "missing")]
    assert main(argv) == EXIT_IO
    assert "cannot read config" in capsys.readouterr().err


def test_config_line_without_equals_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text("# a comment\nseed=3\nn 5\n")
    assert main(["stats", "--outdir", str(tmp_path / "o"), "--config", str(config)]) == EXIT_USAGE
    assert f"{config}:3: expected key=value" in capsys.readouterr().err


def _se_inputs(tmp_path, c, hidden, lines=None):
    rng = np.random.default_rng(c)
    save_map(tmp_path / "x.tlct", rng.standard_normal((c, 6, 6)))
    save_map(tmp_path / "reduce.tlct", rng.standard_normal((c, hidden, 1)))
    save_map(tmp_path / "expand.tlct", rng.standard_normal((hidden, c, 1)))
    manifest = tmp_path / "se.params"
    manifest.write_text(lines or "se.reduce=reduce.tlct\nse.expand=expand.tlct\n")
    return ["convert", "--module", "se", "--input", str(tmp_path / "x.tlct"),
            "--params", str(manifest), "--outdir", str(tmp_path / "o"), "--k", "3", "3"]


@pytest.mark.parametrize("lines,key", [
    ("se.reduce=reduce.tlct\n", "se.expand"),
    ("se.expand=expand.tlct\n", "se.reduce"),
])
def test_manifest_missing_a_key_is_a_data_error(tmp_path, capsys, lines, key):
    assert main(_se_inputs(tmp_path, 4, 2, lines)) == EXIT_DATA
    assert f"missing key {key!r}" in capsys.readouterr().err


def test_hidden_width_not_dividing_channels_is_a_data_error(tmp_path, capsys):
    assert main(_se_inputs(tmp_path, 6, 4)) == EXIT_DATA
    assert "hidden width 4 must divide channels 6" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["aggregate", "--output", "o.tlct"], "aggregate needs --input and --output"),
    (["aggregate", "--input", "x.tlct"], "aggregate needs --input and --output"),
    (["convert", "--outdir", "o", "--module", "ge"], "convert needs --input, --outdir"),
    (["convert", "--input", "x.tlct", "--module", "ge"], "convert needs --input, --outdir"),
    (["convert", "--input", "x.tlct", "--outdir", "o"], "convert needs --input, --outdir"),
    (["convert", "--input", "x.tlct", "--outdir", "o", "--module", "se"],
     "module 'se' needs --params"),
    (["stats"], "stats needs --outdir"),
    (["calibrate"], "calibrate needs at least one --layer"),
    (["calibrate", "--layer", "foo"], "--layer wants name=scale, got 'foo'"),
    (["bench"], "bench needs --output"),
    (["demo"], "demo needs --outdir"),
    (["fuse", "--outdir", "o"], "fuse needs --input and --outdir"),
    (["fuse", "--input", "x.tlct"], "fuse needs --input and --outdir"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_missing_required_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    save_map(tmp_path / "x.tlct", np.ones((2, 4, 4)))
    assert main(argv) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.tlct"]


def test_stats_without_a_reduced_shift_exits_4_after_writing(tmp_path, monkeypatch, capsys):
    train = analysis.SampleSet(np.array([0.0, 1.0]), analysis.SampleLabel.TRAIN_PATCH)
    test = analysis.SampleSet(np.array([0.5, 1.5]), analysis.SampleLabel.TEST_IMAGE)
    tlc = analysis.SampleSet(np.array([2.0, 3.0]), analysis.SampleLabel.TEST_IMAGE_TLC)
    report = analysis.ShiftReport(train, test, tlc, ks_train_test=0.5, ks_train_tlc=1.0)
    monkeypatch.setattr(analysis, "run_shift_experiment", lambda seed, n: report)
    outdir = tmp_path / "o"
    assert main(["stats", "--outdir", str(outdir), "--n", "2"]) == EXIT_PROPERTY
    assert "local pooling did not reduce the shift: 1.0 >= 0.5" in capsys.readouterr().err
    assert (outdir / "ks.csv").read_text().splitlines()[1:] == [
        "TrainPatch-TestImage,0.5", "TrainPatch-TestImageTLC,1"]
    assert cli.EXIT_PROPERTY == 4
