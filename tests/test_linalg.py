import os
import subprocess
import sys

import numpy as np
import pytest

import flowstyle
from flowstyle import linalg
from flowstyle.errors import NotPSDError, NumericError, ShapeError, SingularMatrixError
from flowstyle.linalg import SymMatrix, mat_inverse, matmul, sym_eig, sym_pow, sym_pows


def naive_matmul(a, b):
    """Independent triple-loop oracle."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        np.testing.assert_array_equal(matmul(np.eye(3), m), m)

    def test_permutation(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(matmul(a, swap), [[2.0, 1.0], [4.0, 3.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        assert np.max(np.abs(matmul(a, b) - naive_matmul(a, b))) < 1e-12

    def test_rectangular(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 7))
        b = rng.standard_normal((7, 2))
        assert np.max(np.abs(matmul(a, b) - naive_matmul(a, b))) < 1e-12

    def test_inner_mismatch_raises(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_product_with_own_transpose_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 40))
        g = matmul(x, x.T)
        np.testing.assert_array_equal(g, g.T)


class TestSymMatrix:
    def test_mirrors_upper_triangle(self):
        m = SymMatrix([[1.0, 2.0], [99.0, 3.0]])
        np.testing.assert_array_equal(m.mat, [[1.0, 2.0], [2.0, 3.0]])
        assert m.order == 2

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_readonly(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.mat[0, 0] = 5.0


class TestSymEig:
    def test_diagonal(self):
        lam, e = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_array_equal(lam, [3.0, 1.0])
        np.testing.assert_array_equal(e, np.eye(2))

    def test_two_by_two_hand_case(self):
        # Characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0.
        lam, e = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(lam, [3.0, 1.0], atol=1e-12)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(e[:, 0], [r, r], atol=1e-12)
        np.testing.assert_allclose(e[:, 1], [r, -r], atol=1e-12)

    def test_reconstruction_8x8(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8))
        m = a + a.T
        lam, e = sym_eig(m)
        recon = e @ np.diag(lam) @ e.T
        assert np.max(np.abs(recon - m)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33, 64])
    def test_reconstruction_and_orthogonality_up_to_64(self, n):
        rng = np.random.default_rng(100 + n)
        a = rng.standard_normal((n, n))
        m = 0.5 * (a + a.T)
        lam, e = sym_eig(m)
        assert np.max(np.abs(e @ np.diag(lam) @ e.T - m)) < 1e-10
        assert np.max(np.abs(e.T @ e - np.eye(n))) < 1e-10
        assert np.all(np.diff(lam) <= 1e-12)  # descending

    def test_matches_library_eigenvalues(self):
        # numpy's LAPACK eigensolver as an independent oracle.
        rng = np.random.default_rng(12)
        a = rng.standard_normal((12, 12))
        m = a + a.T
        lam, _ = sym_eig(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        np.testing.assert_allclose(lam, ref, atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 6))
        _, e = sym_eig(a + a.T)
        for j in range(6):
            nz = np.nonzero(e[:, j])[0]
            assert e[nz[0], j] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((10, 10))
        m = a + a.T
        lam1, e1 = sym_eig(m)
        lam2, e2 = sym_eig(m.copy())
        np.testing.assert_array_equal(lam1, lam2)
        np.testing.assert_array_equal(e1, e2)

    def test_accepts_symmatrix(self):
        lam, _ = sym_eig(SymMatrix(np.diag([2.0, 5.0])))
        np.testing.assert_array_equal(lam, [5.0, 2.0])

    def test_reads_upper_triangle_only(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((7, 7))
        m = a + a.T
        garbled = np.triu(m) + np.tril(rng.standard_normal((7, 7)), -1)
        for got, want in zip(sym_eig(garbled), sym_eig(m)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("power", [-900, -1, 1, 900])
    def test_power_of_two_scaling_is_exact(self, power):
        m = random_psd(20, seed=16)
        lam, e = sym_eig(m)
        lam_s, e_s = sym_eig(np.ldexp(m, power))
        np.testing.assert_array_equal(lam_s, np.ldexp(lam, power))
        np.testing.assert_array_equal(e_s, e)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_magnitudes(self, scale):
        m = scale * random_psd(12, seed=17)
        lam, e = sym_eig(m)
        assert np.max(np.abs(e @ np.diag(lam) @ e.T - m)) < 1e-12 * scale
        assert np.max(np.abs(e.T @ e - np.eye(12))) < 1e-12

    @pytest.mark.parametrize("n", [96, 192])
    def test_reconstruction_and_orthogonality_at_latent_orders(self, n):
        m = random_psd(n, seed=200 + n)
        lam, e = sym_eig(m)
        assert np.max(np.abs(e @ np.diag(lam) @ e.T - m)) < 1e-12
        assert np.max(np.abs(e.T @ e - np.eye(n))) < 1e-12
        assert np.all(np.diff(lam) <= 0.0)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(m)[::-1], atol=1e-13)


def random_psd(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 2 * n))
    return a @ a.T / (2 * n)


class TestSymPow:
    def test_identity_inverse_root(self):
        np.testing.assert_allclose(sym_pow(np.eye(4), -0.5), np.eye(4), atol=1e-12)

    def test_diagonal_root(self):
        out = sym_pow(np.diag([4.0, 1.0]), 0.5)
        np.testing.assert_allclose(out, np.diag([2.0, 1.0]), atol=1e-12)

    def test_square_of_half_power_recovers_matrix(self):
        m = random_psd(6, 21)
        root = sym_pow(m, 0.5)
        assert np.max(np.abs(root @ root - m)) < 1e-9

    def test_half_powers_multiply_to_identity(self):
        m = random_psd(5, 22)
        prod = sym_pow(m, 0.5) @ sym_pow(m, -0.5)
        assert np.max(np.abs(prod - np.eye(5))) < 1e-9

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (-0.5, 1.0), (0.25, 0.75)])
    def test_group_law_on_pd_inputs(self, a, b):
        m = random_psd(4, 23) + 0.5 * np.eye(4)
        lhs = sym_pow(m, a) @ sym_pow(m, b)
        rhs = sym_pow(m, a + b)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_result_exactly_symmetric(self):
        m = random_psd(7, 24)
        out = sym_pow(m, -0.5)
        np.testing.assert_array_equal(out, out.T)

    def test_not_psd_rejected(self):
        m = np.diag([1.0, -0.5])
        with pytest.raises(NotPSDError):
            sym_pow(m, 0.5)

    def test_clamp_keeps_negative_power_finite(self):
        # Rank-deficient: eigenvalue 0 is clamped up to eps before the power.
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        out = sym_pow(m, -0.5)
        assert np.isfinite(out).all()

    def test_one_eigensolve_matches_separate_calls(self):
        m = random_psd(6, 25)
        m[0] *= 0.0
        m[:, 0] *= 0.0  # rank-deficient, so the clamp is exercised
        powers = (-0.5, 0.5, 1.0)
        for out, p in zip(sym_pows(m, powers), powers):
            np.testing.assert_array_equal(out, sym_pow(m, p))

    def test_multiple_powers_keep_psd_check(self):
        with pytest.raises(NotPSDError):
            sym_pows(np.diag([1.0, -0.5]), (-0.5, 0.5))


class TestMatInverse:
    def test_identity(self):
        np.testing.assert_array_equal(mat_inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        out = mat_inverse(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 0.25]), atol=1e-15)

    def test_two_sided_inverse(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
        inv = mat_inverse(m)
        assert np.max(np.abs(m @ inv - np.eye(8))) < 1e-9
        assert np.max(np.abs(inv @ m - np.eye(8))) < 1e-9

    def test_matches_library_inverse(self):
        rng = np.random.default_rng(32)
        m = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        np.testing.assert_allclose(mat_inverse(m), np.linalg.inv(m), atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_near_singular_raises(self):
        # Reciprocal condition about 2.5e-15, below PIVOT_FLOOR.
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))

    def test_small_but_well_conditioned_accepted(self):
        np.testing.assert_array_equal(mat_inverse(2.0**-43 * np.eye(2)), 2.0**43 * np.eye(2))

    def test_input_not_mutated(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        keep = m.copy()
        mat_inverse(m)
        np.testing.assert_array_equal(m, keep)


# Hashes the linalg results on the transfer and inverse paths, plus wct
# end to end, at the channel counts of the named nets (12, 48, 192 and
# 768): covariances through sym_eig and sym_pows, invconv weights
# through mat_inverse, and wct on 48- and 192-channel latents. LAPACK's
# eigh changes its bits with the thread count at 768 and np.linalg.inv
# at 192 and 768, so these orders catch either one.
HASH_SCRIPT = """
import hashlib
import numpy as np
from flowstyle.linalg import mat_inverse, sym_eig, sym_pows
from flowstyle.transfer import wct

rng = np.random.default_rng(41)
outs = []
for c in (12, 48, 192, 768):
    a = rng.standard_normal((c, 2 * c))
    cov = a @ a.T / (2 * c)
    outs += [*sym_eig(cov), *sym_pows(cov, (-0.5, 0.5))]
    q, _ = np.linalg.qr(rng.standard_normal((c, c)))
    outs.append(mat_inverse(q + 0.1 * rng.standard_normal((c, c)) / np.sqrt(c)))
for c, hw in ((48, 32), (192, 16)):
    f_c = rng.standard_normal((1, c, hw, hw))
    f_s = 2.0 * rng.standard_normal((1, c, hw, hw)) + 1.0
    outs.append(wct(f_c, f_s))
h = hashlib.sha256()
for out in outs:
    h.update(np.ascontiguousarray(out).tobytes())
print(h.hexdigest())
"""

# The same at orders no named net produces (x @ x.T at 100, the inverse
# at 210, sym_eig at 500), where threaded OpenBLAS kernels change their
# last bits with the thread count (see the module docstring of
# flowstyle.linalg).
ODD_ORDER_HASH_SCRIPT = """
import hashlib
import numpy as np
from flowstyle.linalg import mat_inverse, matmul, sym_eig

rng = np.random.default_rng(42)
a = rng.standard_normal((100, 200))
outs = [matmul(a, a.T), mat_inverse(rng.standard_normal((210, 210)) + 15.0 * np.eye(210))]
b = rng.standard_normal((500, 1000))
outs += sym_eig(np.einsum("ik,jk->ij", b, b))  # einsum: the same input bits
h = hashlib.sha256()
for out in outs:
    h.update(np.ascontiguousarray(out).tobytes())
print(h.hexdigest())
"""


def hashes_by_thread_count(script):
    src = os.path.dirname(os.path.dirname(flowstyle.__file__))
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        hashes.append(done.stdout.strip())
    assert len(hashes[0]) == 64
    return hashes


def test_bit_identical_across_blas_thread_counts():
    one, two = hashes_by_thread_count(HASH_SCRIPT)
    assert one == two


def test_bit_identical_across_blas_thread_counts_at_odd_orders():
    one, two = hashes_by_thread_count(ODD_ORDER_HASH_SCRIPT)
    assert one == two


needs_thread_calls = pytest.mark.skipif(
    linalg._openblas_thread_calls() is None, reason="numpy does not bundle OpenBLAS"
)


@needs_thread_calls
class TestBlasThreads:
    def count(self):
        return linalg._openblas_thread_calls()[0]()

    @pytest.mark.parametrize("macs", [(), (linalg.THREADED_MIN_MACS - 1,)])
    def test_small_work_runs_on_one_thread_and_restores(self, macs):
        before = self.count()
        with linalg.blas_threads(*macs):
            assert self.count() == 1
        assert self.count() == before

    def test_large_work_keeps_the_thread_count(self):
        before = self.count()
        with linalg.blas_threads(linalg.THREADED_MIN_MACS):
            assert self.count() == before

    def test_restores_after_an_error(self):
        before = self.count()
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.zeros((3, 3)))
        assert self.count() == before

    def test_restores_the_count_in_force(self):
        get, set_ = linalg._openblas_thread_calls()
        before = get()
        set_(2)
        try:
            in_force = get()
            with linalg.blas_threads():
                pass
            assert get() == in_force
        finally:
            set_(before)


class SpyThreadCalls:
    """A stand-in for ``linalg._openblas_thread_calls``: a thread count
    held in Python, and the OpenBLAS calls that blocks make on it."""

    def __init__(self, count=2):
        self.count, self.calls = count, []

    def get(self):
        self.calls.append("get")
        return self.count

    def set_(self, n):
        self.calls.append(("set", n))
        self.count = n

    def install(self, monkeypatch):
        monkeypatch.setattr(linalg, "_openblas_thread_calls", lambda: (self.get, self.set_))
        return self


class TestNestedBlasThreads:
    """A block inside a one-thread block runs on its one thread and makes
    no OpenBLAS call; the outermost block restores the count."""

    def test_nested_small_block_makes_no_openblas_call(self, monkeypatch):
        spy = SpyThreadCalls().install(monkeypatch)
        with linalg.blas_threads():
            entered = list(spy.calls)
            with linalg.blas_threads(linalg.THREADED_MIN_MACS - 1):
                with linalg.blas_threads():
                    assert spy.count == 1
            assert spy.calls == entered == ["get", ("set", 1)]
        assert spy.calls == ["get", ("set", 1), ("set", 2)]
        assert spy.count == 2

    def test_large_block_nested_in_a_one_thread_block_keeps_one_thread(self, monkeypatch):
        spy = SpyThreadCalls().install(monkeypatch)
        with linalg.blas_threads():
            with linalg.blas_threads(linalg.THREADED_MIN_MACS):
                assert spy.count == 1
            assert spy.count == 1
        assert spy.count == 2
        assert spy.calls == ["get", ("set", 1), ("set", 2)]

    def test_large_block_leaves_the_count_and_its_nested_small_block_sets_one(
        self, monkeypatch
    ):
        spy = SpyThreadCalls().install(monkeypatch)
        with linalg.blas_threads(linalg.THREADED_MIN_MACS):
            assert spy.calls == []
            with linalg.blas_threads():
                assert spy.count == 1
            assert spy.count == 2
        assert spy.calls == ["get", ("set", 1), ("set", 2)]

    def test_count_in_force_is_restored_after_an_error_in_nested_blocks(self, monkeypatch):
        spy = SpyThreadCalls(count=3).install(monkeypatch)
        with pytest.raises(RuntimeError):
            with linalg.blas_threads():
                with linalg.blas_threads():
                    with linalg.blas_threads(linalg.THREADED_MIN_MACS):
                        raise RuntimeError("inside")
        assert spy.count == 3
        assert linalg._one_thread_depth == 0
        spy.calls.clear()
        with linalg.blas_threads():
            assert spy.count == 1
        assert spy.calls == ["get", ("set", 1), ("set", 3)]

    @needs_thread_calls
    def test_real_count_is_restored_after_an_error_in_nested_blocks(self):
        get, set_ = linalg._openblas_thread_calls()
        before = get()
        set_(2)
        try:
            in_force = get()
            with pytest.raises(SingularMatrixError):
                with linalg.blas_threads():
                    with linalg.blas_threads(linalg.THREADED_MIN_MACS):
                        assert get() == 1
                        mat_inverse(np.zeros((3, 3)))
            assert get() == in_force
        finally:
            set_(before)
