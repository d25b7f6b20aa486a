import errno
import math
import os
import stat
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from tlc import _parallel, tensor
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


# --- the block writer and the block reader ------------------------------------


def _tlct_bytes(arr):
    return struct.pack("<4sIIII", b"TLCT", 1, *arr.shape) + arr.astype("<f4").tobytes()


@pytest.fixture
def one_channel_blocks(monkeypatch):
    """TLCT I/O of a 5x6x7 map goes one channel at a time."""
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", 6 * 7)


class _RecordingFile:
    """A writer that records each write's size and fails on one call."""

    def __init__(self, fh, fail_on=None):
        self.fh, self.fail_on, self.sizes = fh, fail_on, []

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, data):
        if len(self.sizes) == self.fail_on:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.sizes.append(memoryview(data).nbytes)
        return self.fh.write(data)


def _record_writes(monkeypatch, fail_on=None):
    files = []

    def recording_open(path, mode, **kwargs):
        files.append(_RecordingFile(open(path, mode, **kwargs), fail_on))
        return files[-1]

    monkeypatch.setattr(tensor, "open", recording_open, raising=False)
    return files


def test_write_failing_after_first_block_leaves_malformed_header(tmp_path, rng, monkeypatch,
                                                                 one_channel_blocks):
    old = _tlct_bytes(rng.standard_normal((5, 6, 7)))
    path = tmp_path / "t.tlct"
    path.write_bytes(old)
    new = rng.standard_normal((5, 6, 7))
    files = _record_writes(monkeypatch, fail_on=2)  # the zeroed header, the first block, then this
    with pytest.raises(IoFailure):
        write_tensor(FeatureMap(new), path)
    monkeypatch.undo()
    assert files[0].sizes == [20, 4 * 6 * 7]
    # Rewritten in place: the new first block and the old rest sit under
    # a zeroed header, never a valid one.
    block = 20 + 4 * 6 * 7
    assert path.read_bytes() == bytes(20) + _tlct_bytes(new)[20:block] + old[block:]
    with pytest.raises(MalformedHeader):
        read_tensor(path)


@pytest.mark.parametrize("old_size", [1, 20 + 4 * 5 * 6 * 7 - 1, 3 * (20 + 4 * 5 * 6 * 7)])
def test_rewrite_over_longer_and_shorter_files(tmp_path, rng, one_channel_blocks, old_size):
    path = tmp_path / "t.tlct"
    path.write_bytes(rng.bytes(old_size))
    new = rng.standard_normal((5, 6, 7))
    write_tensor(FeatureMap(new), path)
    assert path.read_bytes() == _tlct_bytes(new)


def test_new_file_mode_matches_open_wb(tmp_path):
    previous = os.umask(0o002)  # one that tells 0o666 from 0o644
    try:
        write_tensor(FeatureMap(np.zeros((1, 2, 2))), tmp_path / "t.tlct")
        with open(tmp_path / "ref", "wb"):
            pass
    finally:
        os.umask(previous)
    mode = stat.S_IMODE((tmp_path / "t.tlct").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "ref").stat().st_mode) == 0o664


def test_one_channel_blocks_write_the_bytes_of_one_whole_map_write(tmp_path, rng,
                                                                   monkeypatch):
    arr = np.asfortranarray(rng.standard_normal((5, 6, 7)))
    write_tensor(FeatureMap(arr), tmp_path / "whole.tlct")
    files = _record_writes(monkeypatch)
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", 6 * 7)
    write_tensor(FeatureMap(arr), tmp_path / "blocks.tlct")
    # The zeroed header, five one-channel blocks in order, then the header.
    assert files[0].sizes == [20] + [4 * 6 * 7] * 5 + [20]
    assert (tmp_path / "blocks.tlct").read_bytes() == (tmp_path / "whole.tlct").read_bytes()


def test_read_only_existing_target_raises_io_failure(tmp_path, monkeypatch):
    path = tmp_path / "ro.tlct"
    path.write_bytes(b"old bytes")
    path.chmod(0o444)
    if os.access(path, os.W_OK):
        # Running as root, mode bits do not bind: refuse as the kernel
        # does for everyone else.
        def mode_checking_open(p, mode, **kwargs):
            if "w" in mode and not os.stat(p).st_mode & 0o222:
                raise PermissionError(errno.EACCES, "Permission denied", str(p))
            return open(p, mode, **kwargs)

        monkeypatch.setattr(tensor, "open", mode_checking_open, raising=False)
    with pytest.raises(IoFailure):
        write_tensor(FeatureMap(np.zeros((1, 2, 2))), path)
    assert path.read_bytes() == b"old bytes"


def test_write_to_dev_null():
    write_tensor(FeatureMap(np.ones((3, 4, 5))), os.devnull)


def test_write_to_a_pipe(tmp_path, rng, monkeypatch, one_channel_blocks):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    arr = rng.standard_normal((5, 6, 7))
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    files = _record_writes(monkeypatch)
    write_tensor(FeatureMap(arr), fifo)
    reader.join(timeout=10)
    assert not reader.is_alive()
    # A pipe cannot seek: the real header first, then the blocks.
    assert files[0].sizes == [20] + [4 * 6 * 7] * 5
    assert got == [_tlct_bytes(arr)]


@pytest.mark.parametrize("value", [1e39, -1e39, np.finfo(np.float64).max])
def test_value_beyond_float32_range_is_refused(tmp_path, one_channel_blocks, value):
    # Only the last one-channel block overflows, after four were written.
    arr = np.zeros((5, 6, 7))
    arr[4, 5, 6] = value
    path = tmp_path / "t.tlct"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue):
            write_tensor(FeatureMap(arr), path)
    with pytest.raises(MalformedHeader):
        read_tensor(path)


def test_largest_float32_is_written(tmp_path):
    top = float(np.finfo(np.float32).max)
    path = tmp_path / "t.tlct"
    write_tensor(FeatureMap(np.array([[[top, -top]]])), path)
    assert read_tensor(path).data.tolist() == [[[top, -top]]]


def test_file_shrinking_after_the_size_check_is_truncated(tmp_path, rng, monkeypatch,
                                                          one_channel_blocks):
    path = tmp_path / "t.tlct"
    full = _tlct_bytes(rng.standard_normal((5, 6, 7)))
    # The file ends inside channel 2, but fstat still reports the full size.
    path.write_bytes(full[:20 + 4 * (2 * 6 * 7 + 11)])
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        real_fstat(fd)[:6] + (len(full),) + real_fstat(fd)[7:]))
    with pytest.raises(TruncatedPayload, match="channels 2-2"):
        read_tensor(path)


def test_tlct_io_never_holds_the_whole_payload_as_float32(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(_parallel, "_BLOCK_VALUES", 64 * 64)  # one-channel blocks
    fmap = FeatureMap(rng.standard_normal((16, 64, 64)).astype(np.float32).astype(np.float64))
    path = tmp_path / "t.tlct"
    payload = 4 * fmap.data.size
    tracemalloc.start()
    try:
        write_tensor(fmap, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_tensor(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.data, fmap.data)
    assert write_peak < payload / 4
    # The float64 map itself, the FeatureMap check's flags and one block.
    assert read_peak < back.data.nbytes + payload / 2
