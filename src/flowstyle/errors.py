"""Exception types shared across the library, and the checks on input
from outside the program that raise them.

Every failure mode the public API promises is represented by a distinct
class so callers can discriminate without string matching.

Each public entry point checks each of its arguments once, on entry,
with one of four helpers; internal calls and kernels trust the values
they are given. Where a public function serves internal callers too,
they call its body past the checks (``autodiff._conv2d``,
``transfer._adain``), and a training step's parameter overrides, the
model's own weights, skip the check that ``training_loss``'s plan
runs on the overrides a caller passes (``flows._StepParams``).
:func:`as_index` takes a count, :func:`as_real` a real number in a
range, :func:`as_batch` a real, finite, non-empty (B, C, H, W) array and
:func:`as_feature` the same or an autodiff Var. Each tests the dtype
before any cast (:func:`as_reals`, as autodiff does), so complex input
is a ShapeError, never a ComplexWarning. A transfer kind and a network
config are checked next to their classes (``transfer._as_kind``,
``flows._as_config``). Values the program computes are checked where
they are made.
"""

import functools
import math
import numbers
import operator

import numpy as np


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
    """A count: ``value`` as an int via ``operator.index``; ShapeError
    naming ``name`` when it is not an integer (a bool, or a float such as
    2.0, included) or is below ``least``."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ShapeError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ShapeError(f"{name} must be at least {least}, got {value}")
    return value


def as_real(name, value, lo=-math.inf, hi=math.inf) -> float:
    """A real number: ``value`` as a float; ShapeError naming ``name``
    unless it is a finite real number (not a bool) with
    ``lo <= value <= hi``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ShapeError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not (math.isfinite(value) and lo <= value <= hi):
        raise ShapeError(f"{name} must be finite and lie in [{lo:g}, {hi:g}], got {value}")
    return value


def as_batch(name, value, shape=None) -> np.ndarray:
    """An array batch: ``value`` as a C-contiguous float64 array once it
    holds real, finite numbers in a (B, C, H, W) batch with every extent
    at least 1, or in exactly ``shape`` when that is given.

    An autodiff Var, a complex, bool, object or string dtype, another
    rank or shape, or an empty extent raises ShapeError, and a NaN or
    infinite value NumericError, each naming ``name``. Other real dtypes
    and layouts are copied to C order, so that no result depends on its
    input's layout (numpy reduces in layout order).
    """
    if isinstance(value, _var_type()):
        noun = "arrays" if name.endswith("s") else "an array"
        raise ShapeError(f"{name} must be {noun}, not an autodiff Var")
    return as_feature(name, value, shape)


def as_feature(name, value, shape=None, finite=True):
    """As :func:`as_batch`, but a taped :class:`~flowstyle.autodiff.Var`
    passes as is where autodiff accepts one; ``finite=False`` skips the
    NaN and infinity test, for ops such as ``autodiff.conv2d``."""
    if isinstance(value, _var_type()):
        a = value.data
    else:
        a = value = np.asarray(as_reals(name, value), order="C")
    if shape is None and a.ndim != 4:
        raise ShapeError(f"{name} must be a (B,C,H,W) batch, got shape {a.shape}")
    if shape is None and a.size == 0:
        raise ShapeError(f"{name} is an empty batch of shape {a.shape}")
    if shape is not None and a.shape != shape:
        raise ShapeError(f"{name} has shape {a.shape}, but {shape} is needed")
    if finite and not np.isfinite(a).all():
        raise NumericError(f"{name} holds NaN or infinite values")
    return value


def as_reals(name, value) -> np.ndarray:
    """``value`` as float64, in its layout; ShapeError naming ``name`` unless real."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} is not an array of numbers: {exc}") from None
    if a.dtype.kind not in "fiu":
        raise ShapeError(f"{name} must hold real numbers, got dtype {a.dtype}")
    return np.asarray(a, dtype=np.float64)


@functools.cache
def _var_type():
    # autodiff imports this module, so its Var is looked up on first use.
    from .autodiff import Var

    return Var
