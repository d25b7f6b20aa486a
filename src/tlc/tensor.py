"""Feature-map data model, the TLCT on-disk tensor format, and PSNR/MSE.

File format (little-endian):
    bytes 0-3   magic ``TLCT``
    bytes 4-7   u32 version (currently 1)
    bytes 8-19  u32 C, u32 H, u32 W
    then        C*H*W float32 values, row-major within channel,
                channels outermost. No padding, no checksum.

The payload is converted to one float32 buffer and written in C order
with one call, and read straight into one float32 array that is then
converted to float64; no byte string of the payload is ever built. Both
conversions run in channel blocks on every core (``_parallel``).

Values live on disk as float32; in memory everything is float64 so that
window sums over large windows do not lose precision.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from ._parallel import leading_map
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


def _convert(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    # The TLCT float32 <-> float64 conversion, one block at a time.
    np.copyto(out, x)
    return out


def _finite_channels(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    # One flag per channel; the bool temporary is only block-sized when
    # the map is cut into blocks.
    return np.all(np.isfinite(x), axis=(-2, -1), out=out)


@dataclass(frozen=True)
class FeatureMap:
    """A C x H x W grid of finite real-valued activations.

    ``data`` is a float64 array of shape (C, H, W); it is never mutated
    after construction and may be shared freely across threads.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeMismatch(f"expected (C, H, W), got shape {arr.shape}")
        if any(d < 1 for d in arr.shape):
            raise ShapeMismatch(f"all dims must be positive, got {arr.shape}")
        finite = leading_map(_finite_channels, arr, out=np.empty(arr.shape[0], dtype=bool))
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
    window at least as large as the map degenerates to the global
    operator. Window centers sit at top-left + (k-1)//2 and the interior
    result is replicate-padded back to full size.
    """

    k_h: int
    k_w: int

    def __post_init__(self):
        if self.k_h < 1 or self.k_w < 1:
            raise ValueError(f"window must be >= 1, got ({self.k_h}, {self.k_w})")

    def effective(self, h: int, w: int) -> tuple[int, int]:
        return min(self.k_h, h), min(self.k_w, w)

    def covers(self, h: int, w: int) -> bool:
        return self.k_h >= h and self.k_w >= w


@dataclass(frozen=True)
class MetricReport:
    mse: float
    psnr_db: float

    def __post_init__(self):
        if (self.mse == 0.0) != math.isinf(self.psnr_db):
            raise ValueError("psnr_db must be +inf exactly when mse is zero")


def read_tensor(path) -> FeatureMap:
    """Read a TLCT file back into a FeatureMap, bit-exactly.

    The header is validated, and the payload size checked against the
    file's size, before anything is allocated for the payload, so a
    corrupt header cannot ask for memory the file does not back. A pipe
    has no size and is rejected as truncated. The payload is then read
    straight into one float32 array and converted to float64 block by
    block; bytes past it are ignored.
    """
    try:
        with open(path, "rb") as fh:
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
            values = np.empty(count, dtype="<f4")
            got = fh.readinto(values)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if got < values.nbytes:  # the file shrank after the size check
        raise TruncatedPayload(
            f"{path}: expected {values.nbytes} payload bytes, got {got}"
        )
    values = values.reshape(c, h, w)
    return FeatureMap(leading_map(_convert, values, out=np.empty(values.shape)))


def write_tensor(fmap: FeatureMap, path) -> None:
    """Write a FeatureMap as a TLCT file readable by read_tensor."""
    header = _HEADER.pack(MAGIC, VERSION, fmap.channels, fmap.height, fmap.width)
    # One C-ordered float32 buffer, filled block by block whatever the
    # map's layout, then one write: writing block by block is slower,
    # since page-cache writeback bounds it.
    payload = leading_map(_convert, fmap.data, out=np.empty(fmap.data.shape, dtype="<f4"))
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            payload.tofile(fh)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


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
    diff = reference.data - candidate.data
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return MetricReport(mse=0.0, psnr_db=math.inf)
    return MetricReport(mse=mse, psnr_db=10.0 * math.log10(peak * peak / mse))
