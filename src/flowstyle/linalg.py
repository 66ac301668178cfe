"""Dense float64 linear algebra for the feature-transfer math.

Everything here is deterministic: identical inputs produce bit-identical
outputs across runs. The eigensolver is a cyclic Jacobi iteration rather
than a LAPACK call so that rotation order, eigenvalue ordering, and
eigenvector signs are fully pinned down; channel counts in this library
stay small (<= 64 for covariance work), where Jacobi is both accurate
and fast enough.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPSDError, NumericError, ShapeError, SingularMatrixError

# Pivot magnitudes below this are treated as singular during elimination.
PIVOT_FLOOR = 1e-12

# Jacobi convergence: off-diagonal Frobenius norm relative to ||m||_F.
_JACOBI_RTOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


class SymMatrix:
    """Symmetric matrix wrapper: the upper triangle is authoritative.

    Construction mirrors the upper triangle onto the lower one, so
    ``entry(i, j) == entry(j, i)`` holds exactly (bit-for-bit) no matter
    how the input was produced.
    """

    __slots__ = ("_m",)

    def __init__(self, entries):
        m = np.array(entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"symmetric matrix must be square, got {m.shape}")
        if not np.isfinite(m).all():
            raise NumericError("symmetric matrix contains non-finite entries")
        upper = np.triu(m)
        self._m = upper + np.triu(m, 1).T
        self._m.flags.writeable = False

    @property
    def order(self) -> int:
        return self._m.shape[0]

    @property
    def mat(self) -> np.ndarray:
        """Read-only dense view of the full symmetric matrix."""
        return self._m

    def __repr__(self):
        return f"SymMatrix(order={self.order})"


def _as_square(m, name: str) -> np.ndarray:
    if isinstance(m, SymMatrix):
        return np.array(m.mat)
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} expects a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericError(f"{name} received non-finite entries")
    return a


def matmul(a, b) -> np.ndarray:
    """Matrix product with a fixed left-to-right summation order over k.

    The accumulation order (rank-1 update per k, k ascending) is part of
    the contract so results are reproducible bit-for-bit; it also makes
    ``matmul(x, x.T)`` exactly symmetric.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner extents differ: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for k in range(a.shape[1]):
        out += a[:, k, np.newaxis] * b[np.newaxis, k, :]
    return out


def sym_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted
    descending and eigenvectors as orthonormal columns. Each eigenvector's
    first nonzero component is made positive, pinning the sign ambiguity.

    Raises NumericError if the sweep cap is hit before the off-diagonal
    Frobenius norm drops below 1e-12 * ||m||_F.
    """
    a = _as_square(m, "sym_eig")
    a = np.triu(a) + np.triu(a, 1).T  # upper triangle is authoritative
    n = a.shape[0]
    v = np.eye(n, dtype=np.float64)
    if n == 0:
        return np.zeros(0), v

    norm = float(np.sqrt((a * a).sum()))
    tol = _JACOBI_RTOL * norm
    converged = norm == 0.0
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = float(np.sqrt(2.0 * (np.triu(a, 1) ** 2).sum()))
        if off <= tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # Classic two-sided Givens rotation annihilating a[p, q].
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c

                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q

                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    if not converged:
        off = float(np.sqrt(2.0 * (np.triu(a, 1) ** 2).sum()))
        if off > tol:
            raise NumericError(
                f"Jacobi eigensolver did not converge in {_JACOBI_MAX_SWEEPS} sweeps"
            )

    eigenvalues = np.diag(a).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    v = v[:, order]
    for j in range(n):
        nz = np.nonzero(v[:, j])[0]
        if nz.size and v[nz[0], j] < 0.0:
            v[:, j] = -v[:, j]
    return eigenvalues, v


def sym_pow(m, p: float, eps: float | None = None) -> np.ndarray:
    """Symmetric matrix power ``E diag(clamp(lam, eps))^p E^T``.

    Eigenvalues below ``eps`` are clamped up to ``eps`` before the power
    is applied, which keeps negative powers finite on nearly singular
    inputs. ``eps`` defaults to ``1e-8 * trace(m)/c``.

    Raises NotPSDError when some eigenvalue sits below ``-eps * trace``,
    and NumericError when a negative power meets a non-positive clamped
    spectrum (only possible when eps <= 0).
    """
    (out,) = sym_pows(m, (p,), eps)
    return out


def sym_pows(m, powers, eps: float | None = None) -> tuple[np.ndarray, ...]:
    """:func:`sym_pow` for several powers of one matrix, one eigensolve.

    Each result is bit-identical to ``sym_pow(m, p, eps)``; the checks
    and the clamp are those of :func:`sym_pow`.
    """
    a = _as_square(m, "sym_pow")
    n = a.shape[0]
    if eps is None:
        eps = 1e-8 * float(np.trace(a)) / n if n else 0.0
    lam, e = sym_eig(a)
    if n and lam[-1] < -eps * float(np.trace(a)):
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
    """General square inverse via Gauss-Jordan with partial pivoting.

    Raises SingularMatrixError when the best available pivot magnitude
    drops below 1e-12.
    """
    a = _as_square(m, "mat_inverse")
    n = a.shape[0]
    inv = np.eye(n, dtype=np.float64)
    for col in range(n):
        rel = int(np.argmax(np.abs(a[col:, col])))
        piv_row = col + rel
        piv = a[piv_row, col]
        if abs(piv) < PIVOT_FLOOR:
            raise SingularMatrixError(
                f"pivot {piv:.3e} below {PIVOT_FLOOR:g} at column {col}"
            )
        if piv_row != col:
            a[[col, piv_row]] = a[[piv_row, col]]
            inv[[col, piv_row]] = inv[[piv_row, col]]
        inv[col] /= piv
        a[col] /= piv
        factors = a[:, col].copy()
        factors[col] = 0.0
        a -= factors[:, np.newaxis] * a[col]
        inv -= factors[:, np.newaxis] * inv[col]
    return inv
