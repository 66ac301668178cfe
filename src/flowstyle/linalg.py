"""Dense float64 linear algebra for the feature-transfer math.

Products, the eigensolver and the inverse run on numpy's BLAS and LAPACK,
always on one BLAS thread (:func:`blas_threads`): threaded OpenBLAS
kernels change their last bits with the thread count (``eigh`` at order
768, ``inv`` at 192, ``x @ x.T`` at most orders from 97 on). So results
are bit-identical across runs and BLAS thread counts for a fixed
numpy/BLAS build; the tests check 1 against 2 threads.
Every function takes plain arrays; the eigensolver and the symmetric
powers read only a symmetric matrix's upper triangle.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

from .errors import NotPSDError, NumericError, ShapeError, SingularMatrixError

# Matrices whose 1-norm reciprocal condition is below this are singular.
PIVOT_FLOOR = 1e-12

# Products of fewer multiply-adds run on one BLAS thread. On a 2-core
# x86_64 VM (OpenBLAS 0.3.31) a 3.5M product took 0.12 to 16 ms on two
# threads against a steady 0.17 ms on one, and 2.3x longer while another
# process held the second core; from 2^24 on, two threads were 1.6-1.9x
# faster.
THREADED_MIN_MACS = 1 << 24


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS in numpy's wheel
    (``numpy.libs``), or None when numpy links another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# One-thread blocks open now; the outermost one set the count and restores it.
_one_thread_depth = 0


class blas_threads:
    """Run the block's BLAS calls on one thread unless each product does
    ``macs >= THREADED_MIN_MACS`` multiply-adds; restore the count on exit.

    Blocks nest: inside a one-thread block every block, small or large,
    runs on that one thread and makes no OpenBLAS call, so a caller that
    knows all of its products are small (a flow walk at a small extent,
    a LossNet pass) enters one block for all of them and each conv's own
    block costs a counter. The count is process-wide: blocks must not
    overlap across Python threads. Without numpy's OpenBLAS the count is
    left alone.
    """

    __slots__ = ("_macs", "_restore")

    def __init__(self, macs: float = 0):
        self._macs = macs
        self._restore = None

    def __enter__(self):
        global _one_thread_depth
        if _one_thread_depth:
            _one_thread_depth += 1
            self._restore = ()
            return
        calls = _openblas_thread_calls()
        if calls is not None and self._macs < THREADED_MIN_MACS:
            get, set_ = calls
            self._restore = (set_, get())
            _one_thread_depth = 1
            set_(1)

    def __exit__(self, *exc):
        global _one_thread_depth
        if self._restore is not None:
            restore, self._restore = self._restore, None
            _one_thread_depth -= 1
            if restore:
                set_, before = restore
                set_(before)


def _as_square(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} expects a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericError(f"{name} received non-finite entries")
    return a


def matmul(a, b) -> np.ndarray:
    """Shape-checked matrix product ``a @ b`` of 2-d float64 operands.

    ``matmul(x, x.T)`` is exactly symmetric: numpy computes a product
    with its own transpose as one symmetric rank-k update.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner extents differ: {a.shape} x {b.shape}")
    with blas_threads():
        return a @ b


def sym_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by LAPACK's ``eigh``.

    Only the upper triangle is read. Returns ``(eigenvalues,
    eigenvectors)`` with eigenvalues sorted descending and eigenvectors
    as orthonormal columns. Each eigenvector's first nonzero component
    is made positive, pinning the sign ambiguity.

    The matrix is first scaled by a power of two to a largest entry in
    [0.5, 1), so the scaling is exact, cannot overflow, and keeps LAPACK
    from rescaling by an inexact factor at extreme magnitudes.

    Raises NumericError if LAPACK does not converge.
    """
    a = _as_square(m, "sym_eig")
    peak = float(np.max(np.abs(np.triu(a)), initial=0.0))
    shift = -np.frexp(peak)[1] if peak > 0.0 else 0
    try:
        with blas_threads():
            lam, v = np.linalg.eigh(np.ldexp(a, shift), UPLO="U")
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    lam, v = np.ldexp(lam[::-1], -shift), v[:, ::-1].copy()
    if v.size:
        first = v[np.argmax(v != 0.0, axis=0), np.arange(v.shape[1])]
        v[:, first < 0.0] *= -1.0
    return lam, v


def sym_pow(m, p: float) -> np.ndarray:
    """Symmetric matrix power ``E diag(clamp(lam, eps))^p E^T``.

    Eigenvalues below ``eps = 1e-8 * trace(m)/c`` are clamped up to
    ``eps`` before the power is applied, which keeps negative powers
    finite on nearly singular inputs.

    Raises NotPSDError when some eigenvalue sits below ``-c * eps``
    (``-1e-8 * trace``): like the clamp floor, the tolerance scales with
    the matrix, so ``s * m`` raises for a power-of-two ``s`` exactly when
    ``m`` does. Raises NumericError when a negative power meets a
    non-positive clamped spectrum (only possible when the trace is not
    positive).
    """
    (out,) = sym_pows(m, (p,))
    return out


def sym_pows(m, powers) -> tuple[np.ndarray, ...]:
    """:func:`sym_pow` for several powers of one matrix, one eigensolve.

    Each result is bit-identical to ``sym_pow(m, p)``; the checks and
    the clamp are those of :func:`sym_pow`.
    """
    a = _as_square(m, "sym_pow")
    n = a.shape[0]
    eps = 1e-8 * float(np.trace(a)) / n if n else 0.0
    lam, e = sym_eig(a)
    if n and lam[-1] < -n * eps:
        raise NotPSDError(
            f"matrix is not PSD: min eigenvalue {lam[-1]:.3e} below tolerance"
        )
    lam_c = np.maximum(lam, eps)
    outs = []
    for p in powers:
        if p < 0 and np.any(lam_c <= 0.0):
            raise NumericError("negative power of a non-positive clamped spectrum")
        out = matmul(e * (lam_c**p)[np.newaxis, :], e.T)
        outs.append(0.5 * (out + out.T))
    return tuple(outs)


def mat_inverse(m) -> np.ndarray:
    """General square inverse by LAPACK's LU (``np.linalg.inv``).

    Raises SingularMatrixError when LAPACK meets an exactly zero pivot or
    when the 1-norm reciprocal condition ``1 / (||A||_1 ||A^-1||_1)`` is
    below ``PIVOT_FLOOR``, i.e. the inverse is too ill-conditioned to
    trust. The rule is relative, so a well-conditioned matrix of any
    scale inverts.
    """
    a = _as_square(m, "mat_inverse")
    try:
        with blas_threads():
            inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    cond = np.linalg.norm(a, 1) * np.linalg.norm(inv, 1)
    if not cond <= 1.0 / PIVOT_FLOOR:
        raise SingularMatrixError(
            f"reciprocal condition {1.0 / cond:.3e} below {PIVOT_FLOOR:g}"
        )
    return inv
