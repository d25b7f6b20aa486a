import math
import struct

import numpy as np
import pytest

from tlc.errors import (
    IoFailure,
    MalformedHeader,
    NonFiniteValue,
    ShapeMismatch,
    TruncatedPayload,
)
from tlc.tensor import FeatureMap, MetricReport, psnr, read_tensor, write_tensor


def test_roundtrip_small(tmp_path):
    m = FeatureMap(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    path = tmp_path / "t.tlct"
    write_tensor(m, path)
    back = read_tensor(path)
    assert back.data.shape == (1, 2, 2)
    assert np.array_equal(back.data, m.data)


def test_file_size_matches_format(tmp_path):
    path = tmp_path / "one.tlct"
    write_tensor(FeatureMap(np.zeros((1, 1, 1))), path)
    # 20-byte header (magic + version + C,H,W) + one f32 value
    assert path.stat().st_size == 20 + 4


def test_roundtrip_random_f32(tmp_path, rng):
    values = rng.standard_normal((8, 64, 64)).astype(np.float32)
    m = FeatureMap(values.astype(np.float64))
    path = tmp_path / "r.tlct"
    write_tensor(m, path)
    back = read_tensor(path)
    # f32 on disk: a map built from f32 values survives bit-exactly.
    assert np.array_equal(back.data, m.data)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.tlct"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(MalformedHeader):
        read_tensor(path)


def test_bad_version(tmp_path):
    path = tmp_path / "v9.tlct"
    path.write_bytes(struct.pack("<4sIIII", b"TLCT", 9, 1, 1, 1) + b"\x00" * 4)
    with pytest.raises(MalformedHeader):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.tlct"
    path.write_bytes(struct.pack("<4sIIII", b"TLCT", 1, 1, 2, 2) + b"\x00" * 8)
    with pytest.raises(TruncatedPayload):
        read_tensor(path)


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteValue):
        FeatureMap(np.array([[[np.nan]]]))
    with pytest.raises(NonFiniteValue):
        FeatureMap(np.array([[[np.inf]]]))


def test_nonfinite_file_rejected(tmp_path):
    payload = struct.pack("<4sIIII", b"TLCT", 1, 1, 1, 1) + struct.pack("<f", float("nan"))
    path = tmp_path / "nan.tlct"
    path.write_bytes(payload)
    with pytest.raises(NonFiniteValue):
        read_tensor(path)


def test_unwritable_path():
    with pytest.raises(IoFailure):
        write_tensor(FeatureMap(np.zeros((1, 1, 1))), "/nonexistent-dir/x.tlct")


def test_psnr_identical_is_inf():
    m = FeatureMap(np.ones((1, 4, 4)))
    rep = psnr(m, m, peak=1.0)
    assert rep.mse == 0.0
    assert math.isinf(rep.psnr_db)


def test_psnr_uniform_difference():
    a = FeatureMap(np.zeros((1, 5, 5)))
    b = FeatureMap(np.full((1, 5, 5), 10.0))
    rep = psnr(a, b, peak=255.0)
    assert rep.mse == pytest.approx(100.0)
    assert rep.psnr_db == pytest.approx(20 * math.log10(255 / 10), abs=1e-9)


def test_psnr_against_direct_summation(rng):
    a = random = rng.standard_normal((3, 9, 11))
    b = rng.standard_normal((3, 9, 11))
    rep = psnr(FeatureMap(a), FeatureMap(b), peak=2.0)
    mse = 0.0
    for idx in np.ndindex(a.shape):
        mse += (a[idx] - b[idx]) ** 2
    mse /= a.size
    expect = 10 * math.log10(4.0 / mse)
    assert rep.psnr_db == pytest.approx(expect, rel=1e-9)


def test_psnr_symmetry(rng):
    a = FeatureMap(rng.standard_normal((2, 6, 6)))
    b = FeatureMap(rng.standard_normal((2, 6, 6)))
    assert psnr(a, b, 1.0).mse == psnr(b, a, 1.0).mse


def test_psnr_scale_invariance(rng):
    a = rng.standard_normal((1, 7, 7))
    b = rng.standard_normal((1, 7, 7))
    r1 = psnr(FeatureMap(a), FeatureMap(b), peak=1.0)
    r2 = psnr(FeatureMap(3.5 * a), FeatureMap(3.5 * b), peak=3.5)
    assert r1.psnr_db == pytest.approx(r2.psnr_db, abs=1e-9)


def test_psnr_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        psnr(FeatureMap(np.zeros((1, 2, 2))), FeatureMap(np.zeros((1, 3, 3))), 1.0)


def test_metric_report_invariant():
    with pytest.raises(ValueError):
        MetricReport(mse=0.0, psnr_db=10.0)
    with pytest.raises(ValueError):
        MetricReport(mse=1.0, psnr_db=math.inf)


def test_featuremap_leaves_caller_array_writeable():
    arr = np.zeros((2, 3, 4))
    m = FeatureMap(arr)
    assert arr.flags.writeable
    assert not m.data.flags.writeable


def test_roundtrip_non_c_contiguous_maps(tmp_path, rng):
    # The payload is C order whatever the layout of the map in memory.
    values = rng.standard_normal((3, 5, 7)).astype(np.float32).astype(np.float64)
    for name, arr in (("fortran", np.asfortranarray(values)),
                      ("transposed", values.transpose(0, 2, 1))):
        assert not arr.flags.c_contiguous
        path = tmp_path / f"{name}.tlct"
        write_tensor(FeatureMap(arr), path)
        back = read_tensor(path)
        assert back.data.shape == arr.shape
        assert np.array_equal(back.data, arr)


def test_header_only_file_is_truncated(tmp_path):
    path = tmp_path / "header.tlct"
    path.write_bytes(struct.pack("<4sIIII", b"TLCT", 1, 2, 3, 4))
    with pytest.raises(TruncatedPayload):
        read_tensor(path)
