"""Feature-map data model, the TLCT on-disk tensor format, and PSNR/MSE.

File format (little-endian):
    bytes 0-3   magic ``TLCT``
    bytes 4-7   u32 version (currently 1)
    bytes 8-19  u32 C, u32 H, u32 W
    then        C*H*W float32 values, row-major within channel,
                channels outermost. No padding, no checksum.

``read_tensor`` and ``write_tensor`` never hold the payload as one
float32 array: they go through one float32 buffer of one block of
channels (the block size of ``_parallel``), reused from block to block.
``tlc convert`` reads its input with ``_read_float32`` instead, which
fills one float32 map with one ``readinto`` and keeps it as the
FeatureMap's data. Both readers check the header and the file's size
first. A write stores a map, or a leading_map body's
result computed a round of channels at a time into one reused float64
scratch, so that convert's global outputs never exist as full maps.

A write to a regular file rewrites it in place, header last: it opens
the file without truncating it, zeroes the header, writes the payload
blocks in order, truncates the file to the new length, and only then
writes the real header. A write that fails or is interrupted therefore
leaves a file that read_tensor rejects with MalformedHeader, never a
valid header over a mix of old and new bytes. Keeping the old file's
blocks, instead of freeing them with O_TRUNC and allocating them again,
made the fullres-convert benchmark cycle about 20% faster than a plain
open("wb") writer on a 2-core VM with an ext4 disk (BENCH_6.json). Any
other target (a pipe, a terminal, /dev/null) gets the header first and
the blocks in order, with no seek. Nothing is fsync'ed, so after a
power loss a file can still hold anything. A value beyond float32 range
is refused (NonFiniteValue) rather than stored as an infinity.

Values live on disk as float32. In memory a FeatureMap holds float32
or float64; every computation on it is float64, widened one block at a
time (see ``tlc.integral``), so that window sums over large windows do
not lose precision, and a float32 map gives bit for bit what its
float64 widening gives.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from ._parallel import block_rows, leading_map, round_rows
from .errors import (
    IoFailure,
    MalformedHeader,
    NonFiniteValue,
    ShapeMismatch,
    TruncatedPayload,
)

MAGIC = b"TLCT"
VERSION = 1
_HEADER = struct.Struct("<4sIIII")


def _stored(x) -> np.ndarray:
    """x as a FeatureMap or a kernel holds it: a float32 array as it is,
    anything else widened to float64 (a copy unless it is float64)."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else np.asarray(x, dtype=np.float64)


def _finite_channels(x: np.ndarray, out: np.ndarray,
                     finite: np.ndarray | None = None) -> np.ndarray:
    # One flag per channel, from a bool map built in ``finite`` when
    # given (see FeatureMap), else in a new array.
    return np.all(np.isfinite(x, out=finite), axis=(-2, -1), out=out)


@dataclass(frozen=True)
class FeatureMap:
    """A C x H x W grid of finite real-valued activations.

    ``data`` is an array of shape (C, H, W): a float32 array given to the
    constructor is kept as it is, without a copy, and anything else is
    widened to float64. It is never mutated after construction and may
    be shared freely across threads. Every public function that takes a
    FeatureMap gives on float32 data, bit for bit, what it gives on the
    same values widened to float64.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _stored(self.data)
        if arr.ndim != 3:
            raise ShapeMismatch(f"expected (C, H, W), got shape {arr.shape}")
        if any(d < 1 for d in arr.shape):
            raise ShapeMismatch(f"all dims must be positive, got {arr.shape}")
        finite = leading_map(_finite_channels, arr, out=np.empty(arr.shape[0], dtype=bool),
                             scratch=lambda s: [(s, bool)])
        if not finite.all():
            raise NonFiniteValue("feature map contains NaN or Inf")
        # Freeze a view: the caller's own array stays writeable.
        arr = arr.view()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class WindowSpec:
    """Local window size.

    The window is clamped to the map (effective size min(k, dim)), so a
    window at least as large as the map on both axes is the global
    operator, and the forwards of ``tlc.modules`` run global mode for
    it. A window that covers one axis only stays local. Window centers
    sit at top-left + (k-1)//2 and the interior result is
    replicate-padded back to full size.
    """

    k_h: int
    k_w: int

    def __post_init__(self):
        if self.k_h < 1 or self.k_w < 1:
            raise ValueError(f"window must be >= 1, got ({self.k_h}, {self.k_w})")

    def effective(self, h: int, w: int) -> tuple[int, int]:
        return min(self.k_h, h), min(self.k_w, w)


@dataclass(frozen=True)
class MetricReport:
    mse: float
    psnr_db: float

    def __post_init__(self):
        if (self.mse == 0.0) != math.isinf(self.psnr_db):
            raise ValueError("psnr_db must be +inf exactly when mse is zero")


def _payload_shape(fh, path) -> tuple[int, int, int]:
    """Read and check the header of an open TLCT file, and check the
    payload's size against the file's, before anything is allocated for
    the payload: a corrupt header cannot ask for memory the file does
    not back. A pipe has no size and is rejected as truncated."""
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise MalformedHeader(f"{path}: file shorter than header")
    magic, version, c, h, w = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise MalformedHeader(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise MalformedHeader(f"{path}: unsupported version {version}")
    if c < 1 or h < 1 or w < 1:
        raise MalformedHeader(f"{path}: non-positive dims ({c}, {h}, {w})")
    count = c * h * w
    available = max(os.fstat(fh.fileno()).st_size - _HEADER.size, 0)
    if available < 4 * count:
        raise TruncatedPayload(
            f"{path}: expected {4 * count} payload bytes, got {available}"
        )
    return c, h, w


def _fill(fh, path, block: np.ndarray, lo: int) -> None:
    """Read the payload's next len(block) channels, from channel lo, into block."""
    if fh.readinto(block) < block.nbytes:  # the file shrank after the size check
        raise TruncatedPayload(
            f"{path}: payload ends inside channels {lo}-{lo + len(block) - 1}"
        )


def read_tensor(path) -> FeatureMap:
    """Read a TLCT file back into a float64 FeatureMap, bit-exactly.

    The header and the payload's size are checked first (see
    _payload_shape). The float64 map is then filled one block of
    channels at a time, read into one reused float32 buffer; bytes past
    the payload are ignored.
    """
    try:
        with open(path, "rb") as fh:
            c, h, w = _payload_shape(fh, path)
            # On the caller's thread: reading blocks on the pool was no
            # faster. It also raised the peak memory of later work, but
            # only because each pool thread allocated its own buffers
            # (see _parallel on where a block's temporaries come from).
            data = np.empty((c, h, w))
            step = block_rows(data.shape)
            buf = np.empty((min(step, c), h, w), dtype="<f4")
            for lo in range(0, c, step):
                block = buf[:min(step, c - lo)]
                _fill(fh, path, block, lo)
                data[lo:lo + len(block)] = block
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return FeatureMap(data)


def _read_float32(path) -> FeatureMap:
    """Read a TLCT file into a FeatureMap that holds the payload as
    float32, with the checks of read_tensor, in one readinto: half the
    memory of read_tensor's float64 map, and no widening pass. Private,
    so that the benchmark's tracer, which wraps every public function,
    counts its time in its caller (``tlc convert``)."""
    try:
        with open(path, "rb") as fh:
            shape = _payload_shape(fh, path)
            data = np.empty(shape, dtype="<f4")
            _fill(fh, path, data, 0)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return FeatureMap(data)


def _open_without_truncating(path, flags):
    # As open("wb") creates a file (mode 0o666 under the umask), but
    # without O_TRUNC.
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_rows(path, fn, *arrays) -> None:
    """Write a TLCT file of arrays[0]'s (C, H, W) shape whose payload is
    leading_map(fn, *arrays), or arrays[0] itself when fn is None. The
    one TLCT writer, behind write_tensor and convert's outputs; private,
    so that the benchmark's tracer, which wraps every public function,
    counts its time in write_tensor.

    fn takes the leading_map protocol, fn(*blocks, out). It runs one
    round of round_rows(shape) channels at a time, in order, into one
    reused scratch array of that many rows. A round is a whole number of
    blocks of block_rows(shape) channels, and each block is converted to
    float32 into one reused buffer and written in order; a regular file
    is rewritten in place, header last (see the module docstring).
    Raises NonFiniteValue when a converted value is not finite and
    IoFailure on any OS error; in a regular file either leaves the
    zeroed header.
    """
    c, h, w = shape = arrays[0].shape
    step = block_rows(shape)
    per_round = round_rows(shape)
    buf = np.empty((min(step, c), h, w), dtype="<f4")
    scratch = None if fn is None else np.empty((min(per_round, c), h, w))
    header = _HEADER.pack(MAGIC, VERSION, c, h, w)
    try:
        with open(path, "wb", opener=_open_without_truncating) as fh:
            in_place = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            fh.write(bytes(len(header)) if in_place else header)
            for start in range(0, c, per_round):
                end = min(start + per_round, c)
                rows = [a[start:end] for a in arrays]
                computed = (rows[0] if fn is None
                            else leading_map(fn, *rows, out=scratch[:end - start]))
                for lo in range(start, end, step):
                    block = buf[:min(step, end - lo)]
                    with np.errstate(over="ignore"):  # overflow is refused below
                        np.copyto(block, computed[lo - start:lo - start + len(block)])
                    if not np.isfinite(block).all():
                        raise NonFiniteValue(
                            f"{path}: a value in channels {lo}-{lo + len(block) - 1} "
                            f"is beyond float32 range"
                        )
                    fh.write(block)
            if in_place:
                fh.truncate()
                fh.seek(0)
                fh.write(header)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_tensor(fmap: FeatureMap, path) -> None:
    """Write a FeatureMap as a TLCT file readable by read_tensor.

    Raises NonFiniteValue if a value is beyond float32 range.
    """
    _write_rows(path, None, fmap.data)


def psnr(reference: FeatureMap, candidate: FeatureMap, peak: float) -> MetricReport:
    """Mean squared error and 10*log10(peak^2 / mse) in dB.

    Identical inputs give mse 0 and psnr_db +inf.
    """
    if reference.data.shape != candidate.data.shape:
        raise ShapeMismatch(
            f"{reference.data.shape} vs {candidate.data.shape}"
        )
    if peak <= 0:
        raise ValueError("peak must be positive")
    # The difference is taken in float64 whatever the maps hold: widening
    # is exact, so float32 maps give what their float64 widenings give.
    diff = np.subtract(reference.data, candidate.data, dtype=np.float64)
    mse = float(np.mean(np.multiply(diff, diff, out=diff)))
    if mse == 0.0:
        return MetricReport(mse=0.0, psnr_db=math.inf)
    return MetricReport(mse=mse, psnr_db=10.0 * math.log10(peak * peak / mse))
