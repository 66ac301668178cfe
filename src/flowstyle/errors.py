"""Exception types shared across the library, and the integer check
that raises one.

Every failure mode the public API promises is represented by a distinct
class so callers can discriminate without string matching.
"""

import operator


class FlowStyleError(Exception):
    """Base class for all library-specific errors."""


class ShapeError(FlowStyleError, ValueError):
    """Operand shapes/extents are incompatible with the operation."""


class SingularMatrixError(FlowStyleError, ArithmeticError):
    """Matrix inversion hit a pivot below the singularity floor."""


class NotPSDError(FlowStyleError, ArithmeticError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class NumericError(FlowStyleError, ArithmeticError):
    """A numeric computation produced non-finite values or failed to converge."""


class DegenerateScaleError(FlowStyleError, ValueError):
    """A per-channel scale is too close to zero to invert."""


class StateError(FlowStyleError, RuntimeError):
    """Operation applied to an object in the wrong lifecycle state."""


class ImageFormatError(FlowStyleError, ValueError):
    """Image file is malformed, truncated, or uses an unsupported variant."""


class CheckpointError(FlowStyleError, ValueError):
    """Base class for checkpoint file problems."""


class CorruptCheckpointError(CheckpointError):
    """Checkpoint bytes do not describe a valid model."""


class MagicMismatchError(CheckpointError):
    """File does not start with the checkpoint magic."""


class VersionMismatchError(CheckpointError):
    """Checkpoint format version is not supported."""


class SizeMismatchError(CorruptCheckpointError):
    """Declared sizes disagree with the architecture or the file length."""


def as_index(name, value, least=None) -> int:
    """``value`` as an int via ``operator.index``; ShapeError naming
    ``name`` when it is not an integer (a float such as 2.0 included) or
    is below ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ShapeError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ShapeError(f"{name} must be at least {least}, got {value}")
    return value
