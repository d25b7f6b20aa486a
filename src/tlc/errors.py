"""Exception hierarchy shared by all tlc modules.

The CLI maps these onto exit codes (see tlc.cli): usage errors -> 1,
I/O errors (``IoFailure``, including ``MalformedHeader`` and
``TruncatedPayload``) -> 2, data/shape errors -> 3, and a failed property
check of ``stats`` or ``bench`` -> 4, which the CLI raises itself.
"""


class TlcError(Exception):
    """Base class for all library errors."""


class IoFailure(TlcError):
    """File could not be read or written."""


class MalformedHeader(IoFailure):
    """Tensor file does not start with a valid TLCT header."""


class TruncatedPayload(IoFailure):
    """Tensor file payload is shorter than the header promises."""


class DataError(TlcError):
    """Base class for errors about tensor contents or shapes."""


class NonFiniteValue(DataError):
    """A NaN or Inf was found where only finite values are allowed."""


class ShapeMismatch(DataError):
    """Operands have incompatible dimensions."""


class InvalidGroupCount(DataError):
    """Group count does not divide the channel count."""


class EmptyWindowSample(DataError):
    """A strided window contains no sampled grid point (stride too large)."""


class PatchTooLarge(DataError):
    """Requested patch exceeds the generated map size."""


class DegenerateScale(DataError):
    """A layer scale maps the calibration size below one pixel."""


class OpShapeViolation(DataError):
    """A window transform returned a window of the wrong shape."""
