import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from conv_oracles import im2col_reference, kn2row_reference

import flowstyle.autodiff as ad
from flowstyle.errors import NumericError, ShapeError, StateError
from flowstyle.experiments import leak_test, stylize
from flowstyle.flows import FlowNetConfig, build_flownet, initialize_actnorms
from flowstyle.linalg import mat_inverse
from flowstyle.transfer import ADAIN, PATCHSWAP, WCT


def fd_check(params, build_loss, seeds=range(3), tol=1e-4):
    """Run grad_check over several seeded instantiations of ``params``.

    ``params`` maps names to shapes; values are drawn fresh per seed.
    """
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        arrays = {name: rng.standard_normal(shape) for name, shape in params.items()}
        report = ad.grad_check(arrays, build_loss, tol=tol)
        assert report.passed, f"seed {seed}: {report.failures}"
        worst = max(worst, report.max_rel_error)
    return worst


class TestForwardValues:
    def test_arithmetic(self):
        a = np.array([1.0, -2.0, 3.0])
        b = np.array([4.0, 5.0, -6.0])
        np.testing.assert_array_equal(ad.add(a, b), a + b)
        np.testing.assert_array_equal(ad.sub(a, b), a - b)
        np.testing.assert_array_equal(ad.mul(a, b), a * b)
        np.testing.assert_array_equal(ad.div(a, b), a / b)
        np.testing.assert_array_equal(ad.neg(a), -a)

    def test_relu_and_clamp(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(ad.relu(x), [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(ad.maximum_scalar(x, 0.5), [0.5, 0.5, 2.0])

    def test_channel_mean(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 4, 5))
        np.testing.assert_allclose(
            ad.channel_mean(x), x.mean(axis=(0, 2, 3)), atol=1e-15
        )

    def test_conv2d_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 5, 6))
        k = rng.standard_normal((4, 3, 3, 3))
        out = ad.conv2d(x, k, stride=1, pad=1)
        # Direct evaluation at one arbitrary position.
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expect = np.sum(xp[1, :, 2:5, 3:6] * k[2])
        assert abs(out[1, 2, 2, 3] - expect) < 1e-12

    def test_conv2d_stride_two_shape(self):
        x = np.zeros((1, 2, 8, 8))
        k = np.zeros((5, 2, 3, 3))
        assert ad.conv2d(x, k, stride=2, pad=1).shape == (1, 5, 4, 4)

    def test_channel_mix_is_matrix_action(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 2, 2))
        w = rng.standard_normal((3, 3))
        out = ad.channel_mix(x, w)
        np.testing.assert_allclose(out[0, :, 1, 1], w @ x[0, :, 1, 1], atol=1e-12)

    def test_channel_mix_inv_undoes_mix(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 3, 3))
        w = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        y = ad.channel_mix(x, w)
        back = ad.channel_mix_inv(y, w, mat_inverse(w))
        assert np.max(np.abs(back - x)) < 1e-10

    def test_squeeze_order_contract(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])  # (1,1,2,2)
        out = ad.squeeze2(x)
        np.testing.assert_array_equal(out.reshape(4), [1.0, 2.0, 3.0, 4.0])

    def test_squeeze_round_trip_bit_exact(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 8, 8))
        np.testing.assert_array_equal(ad.unsqueeze2(ad.squeeze2(x)), x)
        z = rng.standard_normal((2, 12, 4, 4))
        np.testing.assert_array_equal(ad.squeeze2(ad.unsqueeze2(z)), z)

    def test_squeeze_preserves_multiset(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 3, 6, 6))
        out = ad.squeeze2(x)
        np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(x.ravel()))

    def test_squeeze_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            ad.squeeze2(np.zeros((1, 1, 3, 4)))

    def test_split_concat_round_trip(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 6, 3, 3))
        a, b = ad.split_half(x)
        np.testing.assert_array_equal(ad.concat_half(a, b), x)

    def test_split_batch(self):
        x = np.random.default_rng(7).standard_normal((3, 2, 2, 2))
        a, b = ad.split_batch(x, 1)
        np.testing.assert_array_equal(a, x[:1])
        np.testing.assert_array_equal(b, x[1:])
        assert a.flags.c_contiguous and b.flags.c_contiguous

    @pytest.mark.parametrize("n", [0, 3, -1, 1.0])
    def test_split_batch_needs_both_parts(self, n):
        with pytest.raises(ShapeError, match="split_batch"):
            ad.split_batch(np.zeros((3, 2, 2, 2)), n)


# (name, op, operand shapes): every op, called on its operands alone.
OP_CASES = [
    ("add", ad.add, [(2, 3), (2, 3)]),
    ("sub", ad.sub, [(2, 3), (1, 3)]),
    ("mul", ad.mul, [(2, 3), (2, 3)]),
    ("div", ad.div, [(2, 3), (2, 3)]),
    ("neg", ad.neg, [(2, 3)]),
    ("reshape", lambda a: ad.reshape(a, (3, 2)), [(2, 3)]),
    ("relu", ad.relu, [(2, 3)]),
    ("maximum_scalar", lambda a: ad.maximum_scalar(a, 0.7), [(2, 3)]),
    ("sqrt", ad.sqrt, [(2, 3)]),
    ("sum_all", ad.sum_all, [(2, 3)]),
    ("mean_all", ad.mean_all, [(2, 3)]),
    ("channel_mean", ad.channel_mean, [(2, 3, 4, 4)]),
    ("per_channel", ad.per_channel, [(3,)]),
    ("conv2d", lambda x, k, b: ad.conv2d(x, k, b, pad=1, relu=True),
     [(1, 2, 4, 4), (3, 2, 3, 3), (3,)]),
    ("channel_mix", ad.channel_mix, [(1, 3, 2, 2), (3, 3)]),
    ("channel_mix_inv", lambda x, w: ad.channel_mix_inv(x, w, np.eye(3)),
     [(1, 3, 2, 2), (3, 3)]),
    ("squeeze2", ad.squeeze2, [(1, 2, 4, 4)]),
    ("unsqueeze2", ad.unsqueeze2, [(1, 8, 2, 2)]),
    ("split_half", ad.split_half, [(1, 4, 2, 2)]),
    ("split_batch", lambda x: ad.split_batch(x, 1), [(3, 2, 2, 2)]),
    ("concat_half", ad.concat_half, [(1, 2, 2, 2), (1, 2, 2, 2)]),
]
CASE_IDS = [case[0] for case in OP_CASES]
MULTI_CASES = [case for case in OP_CASES if len(case[2]) > 1]


def operands(shapes):
    rng = np.random.default_rng(len(shapes))
    return [rng.random(shape) + 0.5 for shape in shapes]


def outputs(result):
    return result if isinstance(result, tuple) else (result,)


class TestReturnKind:
    """Arrays in give ndarrays out; any Var operand gives Vars on its tape out."""

    @pytest.mark.parametrize("name,op,shapes", OP_CASES, ids=CASE_IDS)
    def test_arrays_and_taped_vars(self, name, op, shapes):
        arrays = operands(shapes)
        plain = outputs(op(*arrays))
        assert all(type(out) is np.ndarray for out in plain)
        tape = ad.Tape()
        taped = outputs(op(*(ad.Var(a, tape) for a in arrays)))
        assert all(isinstance(out, ad.Var) and out.tape is tape for out in taped)
        assert tape.nodes
        for want, got in zip(plain, taped):
            np.testing.assert_array_equal(got.data, want)

    @pytest.mark.parametrize("name,op,shapes", MULTI_CASES, ids=[c[0] for c in MULTI_CASES])
    def test_one_var_operand_gives_var(self, name, op, shapes):
        args = operands(shapes)
        tape = ad.Tape()
        args[-1] = ad.Var(args[-1], tape)
        out = op(*args)
        assert isinstance(out, ad.Var) and out.tape is tape
        assert len(tape.nodes) == 1


def test_inference_builds_no_var(monkeypatch):
    model = build_flownet(FlowNetConfig(1, 2, 4, 3, 16, 16), seed=0)
    rng = np.random.default_rng(0)
    content, style = rng.random((1, 3, 16, 16)), rng.random((1, 3, 16, 16))
    initialize_actnorms(model, np.concatenate([content, style]))
    built = []
    init = ad.Var.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Var, "__init__", counting_init)
    for kind in (ADAIN, WCT, PATCHSWAP):
        stylize(model, kind, content, style, alpha=0.5)
        leak_test(model, kind, content, style, rounds=2)
    assert built == []
    ad.Var(content, ad.Tape())  # the count sees a Var when one is built
    assert built == [ad.Var]


class TestGradients:
    def test_add_mul_broadcast(self):
        def build(p):
            y = ad.add(ad.mul(p["x"], p["w"]), p["b"])
            return ad.sum_all(ad.mul(y, y))

        fd_check({"x": (2, 3, 2, 2), "w": (1, 3, 1, 1), "b": (1, 3, 1, 1)}, build)

    def test_div(self):
        def build(p):
            y = ad.div(p["a"], ad.add(ad.mul(p["b"], p["b"]), 1.0))
            return ad.sum_all(ad.mul(y, y))

        fd_check({"a": (3, 4), "b": (3, 4)}, build)

    def test_relu(self):
        def build(p):
            return ad.sum_all(ad.mul(ad.relu(p["x"]), 0.5))

        fd_check({"x": (4, 5)}, build)

    def test_sqrt_mean(self):
        def build(p):
            return ad.sqrt(ad.mean_all(ad.mul(p["x"], p["x"])))

        fd_check({"x": (3, 3)}, build)

    def test_maximum_scalar(self):
        def build(p):
            return ad.sum_all(ad.mul(ad.maximum_scalar(p["x"], 0.2), 1.5))

        fd_check({"x": (4, 4)}, build)

    def test_channel_mean(self):
        def build(p):
            m = ad.channel_mean(p["x"])
            return ad.sum_all(ad.mul(m, np.arange(1.0, 4.0)))

        fd_check({"x": (2, 3, 2, 2)}, build)

    def test_conv2d(self):
        def build(p):
            y = ad.conv2d(p["x"], p["k"], stride=1, pad=1)
            return ad.sum_all(ad.mul(y, ad.mul(y, 0.5)))

        fd_check({"x": (1, 2, 4, 4), "k": (3, 2, 3, 3)}, build)

    def test_conv2d_strided(self):
        def build(p):
            y = ad.conv2d(p["x"], p["k"], stride=2, pad=1)
            return ad.mean_all(ad.mul(y, y))

        fd_check({"x": (2, 2, 6, 6), "k": (3, 2, 3, 3)}, build)

    def test_channel_mix(self):
        def build(p):
            y = ad.channel_mix(p["x"], p["w"])
            return ad.sum_all(ad.mul(y, y))

        fd_check({"x": (2, 3, 2, 2), "w": (3, 3)}, build)

    def test_channel_mix_inv(self):
        # Keep W safely away from singular: offset by 3*I inside the builder.
        def build(p):
            wmat = ad.add(p["w"], 3.0 * np.eye(3))
            y = ad.channel_mix_inv(p["x"], wmat, mat_inverse(ad._data(wmat)))
            return ad.sum_all(ad.mul(y, y))

        fd_check({"x": (1, 3, 2, 2), "w": (3, 3)}, build)

    def test_squeeze_unsqueeze(self):
        def build(p):
            z = ad.squeeze2(p["x"])
            y = ad.unsqueeze2(ad.mul(z, np.arange(1.0, 13.0).reshape(1, 12, 1, 1)))
            return ad.sum_all(ad.mul(y, y))

        fd_check({"x": (1, 3, 4, 4)}, build)

    def test_split_concat(self):
        def build(p):
            a, b = ad.split_half(p["x"])
            y = ad.concat_half(ad.mul(a, 2.0), ad.mul(b, b))
            return ad.sum_all(ad.mul(y, y))

        fd_check({"x": (2, 4, 2, 2)}, build)

    def test_split_batch(self):
        def build(p):
            a, b = ad.split_batch(p["x"], 2)
            return ad.add(ad.sum_all(ad.mul(a, 3.0)), ad.sum_all(ad.mul(b, b)))

        fd_check({"x": (3, 2, 2, 2)}, build)

    def test_reshape(self):
        def build(p):
            y = ad.reshape(p["x"], (6,))
            return ad.sum_all(ad.mul(y, np.arange(6.0)))

        fd_check({"x": (2, 3)}, build)


class TestBackwardContract:
    def test_linear_case_gradient_is_input(self):
        # loss = sum(w * x) => dloss/dw = x summed per channel.
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4, 4))
        tape = ad.Tape()
        w = ad.Var(np.ones(3), tape)
        loss = ad.sum_all(ad.mul(ad.per_channel(w), x))
        ad.backward(loss)
        np.testing.assert_allclose(w.grad, x.sum(axis=(0, 2, 3)), atol=1e-12)

    def test_quadratic_case(self):
        rng = np.random.default_rng(11)
        xv = rng.standard_normal((3, 3))
        tape = ad.Tape()
        x = ad.Var(xv, tape)
        loss = ad.sum_all(ad.mul(x, x))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * xv, atol=1e-12)

    def test_non_scalar_root_rejected(self):
        tape = ad.Tape()
        x = ad.Var(np.ones(3), tape)
        with pytest.raises(ShapeError, match="scalar"):
            ad.backward(ad.mul(x, 2.0))

    def test_var_without_tape_rejected(self):
        with pytest.raises(StateError, match="Tape"):
            ad.Var(np.float64(1.0), None)
        with pytest.raises(ShapeError, match="Var"):
            ad.backward(np.float64(1.0))

    def test_mixed_tapes_rejected(self):
        a = ad.Var(np.ones(2), ad.Tape())
        b = ad.Var(np.ones(2), ad.Tape())
        with pytest.raises(ShapeError):
            ad.add(a, b)

    def test_nan_gradient_identifies_op(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            tape = ad.Tape()
            x = ad.Var(np.zeros(1), tape)
            y = ad.div(1.0, x)  # forward inf
            loss = ad.sum_all(ad.mul(y, 0.0))  # 0 * inf -> nan on the way back
            with pytest.raises(NumericError) as exc:
                ad.backward(loss)
        assert "div" in str(exc.value) or "mul" in str(exc.value)

    def test_branch_off_the_loss_path_is_skipped(self):
        tape = ad.Tape()
        x = ad.Var(np.array([0.0, 1.0]), tape)
        with np.errstate(divide="ignore"):
            ad.div(1.0, x)  # 1/0 = inf, on a branch the loss does not use
        ad.backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [0.0, 2.0])

    def test_tape_freed_by_backward_without_gc(self):
        def step(fail):
            tape = ad.Tape()
            x = ad.Var(np.zeros(1) if fail else np.ones(1), tape)
            y = ad.mul(ad.div(1.0, x), 0.0)  # 0 * inf -> nan back
            y_data = weakref.ref(y.data)
            loss = ad.sum_all(y)
            del y
            first = tape.nodes[0]
            run_first, freed = first.back, []

            def back():  # the last node backward runs
                freed.append(y_data() is None)
                run_first()

            first.back = back
            try:
                ad.backward(loss)
            except NumericError:
                assert fail
            assert freed == [True]
            assert [node.op for node in tape.nodes] == ["div", "mul", "sum_all"]
            return weakref.ref(tape)

        gc.disable()
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                refs = [step(fail=False), step(fail=True)]
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_backward_memory_is_one_buffer_per_op(self):
        # Each op output holds its data; its gradient exists only from the
        # first write in backward until backward has run its node.
        n_ops, n = 32, 32768
        nbytes = 8 * n
        tracemalloc.start()
        try:
            tape = ad.Tape()
            y = ad.Var(np.ones(n), tape)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(n_ops):
                y = ad.add(y, 1.0)
            loss = ad.sum_all(y)
            del y
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < (n_ops + 4) * nbytes

    def test_gradients_deterministic(self):
        rng = np.random.default_rng(12)
        xv = rng.standard_normal((2, 4, 4, 4))

        def run():
            tape = ad.Tape()
            x = ad.Var(xv, tape)
            z = ad.squeeze2(ad.relu(ad.mul(x, 1.7)))
            loss = ad.mean_all(ad.mul(z, z))
            ad.backward(loss)
            return x.grad.copy()

        np.testing.assert_array_equal(run(), run())


class TestGradCheck:
    def test_passes_on_clean_graph(self):
        def build(p):
            y = ad.relu(ad.add(ad.mul(p["x"], p["w"]), 0.1))
            return ad.mean_all(ad.mul(y, y))

        rng = np.random.default_rng(20)
        params = {"x": rng.standard_normal((3, 3)), "w": rng.standard_normal((3, 3))}
        report = ad.grad_check(params, build)
        assert report.passed
        assert report.max_rel_error < 1e-4

    def test_detects_corrupted_backward_rule(self):
        # Negative control: an op whose backward rule is deliberately wrong.
        def bad_square(a):
            da = ad._data(a)

            def back(g):
                ad._accum(a, g * 3.0 * da)  # true rule is 2*a

            return ad._record(ad._tape_of(a), "bad_square", da * da, back, (a,))

        def build(p):
            return ad.sum_all(bad_square(p["x"]))

        report = ad.grad_check({"x": np.array([1.0, 2.0])}, build)
        assert not report.passed
        assert "x" in report.failures


def direct_conv(x, k, stride, pad):
    """Reference cross-correlation: one explicit window sum per output value."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    o, _, kh, kw = k.shape
    h_out = (xp.shape[2] - kh) // stride + 1
    w_out = (xp.shape[3] - kw) // stride + 1
    out = np.zeros((x.shape[0], o, h_out, w_out))
    for b in range(x.shape[0]):
        for c in range(o):
            for i in range(h_out):
                for j in range(w_out):
                    window = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, c, i, j] = np.sum(window * k[c])
    return out


def direct_conv_grads(x, k, stride, pad, probe):
    """Reference gradients of ``sum(direct_conv(x, k) * probe)`` w.r.t. x
    and k: each output value's probe weight spread over its window."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp, gk = np.zeros_like(xp), np.zeros_like(k)
    o, _, kh, kw = k.shape
    for b in range(x.shape[0]):
        for c in range(o):
            for i in range(probe.shape[2]):
                for j in range(probe.shape[3]):
                    rows = slice(i * stride, i * stride + kh)
                    cols = slice(j * stride, j * stride + kw)
                    gxp[b, :, rows, cols] += probe[b, c, i, j] * k[c]
                    gk[c] += probe[b, c, i, j] * xp[b, :, rows, cols]
    return gxp[:, :, pad : pad + x.shape[2], pad : pad + x.shape[3]], gk


def direct_mix(x, w):
    """Reference channel mix: one explicit sum over input channels per output."""
    out = np.zeros((x.shape[0], w.shape[0]) + x.shape[2:])
    for o in range(w.shape[0]):
        for i in range(w.shape[1]):
            out[:, o] += w[o, i] * x[:, i]
    return out


def assert_rel_close(actual, expect, rtol=1e-12):
    assert actual.shape == expect.shape
    assert np.max(np.abs(actual - expect)) <= rtol * np.max(np.abs(expect))


# (in, out) channel pairs covering both GEMM sides and the tie.
ORIENTATIONS = [(2, 5), (5, 2), (3, 3)]


class TestConvKernels:
    @pytest.mark.parametrize("channels", ORIENTATIONS)
    @pytest.mark.parametrize("ksize", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1, 2, 5])
    def test_conv2d_matches_reference(self, channels, ksize, stride, pad):
        n_in, n_out = channels
        rng = np.random.default_rng(10 * n_in + n_out)
        x = rng.standard_normal((2, n_in, 7, 9))
        k = rng.standard_normal((n_out, n_in, ksize, ksize))
        assert_rel_close(ad.conv2d(x, k, stride=stride, pad=pad),
                         direct_conv(x, k, stride, pad))

    @pytest.mark.parametrize("channels", ORIENTATIONS)
    @pytest.mark.parametrize("ksize", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1, 2, 5])
    def test_conv2d_gradients_match_reference(self, channels, ksize, stride, pad):
        # Pad 5 with a 3x3 kernel puts whole tap rows in the padding.
        n_in, n_out = channels
        rng = np.random.default_rng(40 + 10 * n_in + n_out)
        x = rng.standard_normal((2, n_in, 7, 9))
        k = rng.standard_normal((n_out, n_in, ksize, ksize))
        tape = ad.Tape()
        xv, kv = ad.Var(x, tape), ad.Var(k, tape)
        y = ad.conv2d(xv, kv, stride=stride, pad=pad)
        probe = rng.standard_normal(y.shape)
        ad.backward(ad.sum_all(ad.mul(y, probe)))
        gx, gk = direct_conv_grads(x, k, stride, pad, probe)
        assert_rel_close(xv.grad, gx)
        assert_rel_close(kv.grad, gk)

    # The coupling's w2 at train-32 (hidden 64, blocks at 16x16 and 8x8)
    # and train-tiny (hidden 8 at 8x8), batch 2.
    @pytest.mark.parametrize("hidden,extent", [(64, 16), (64, 8), (8, 8)])
    def test_1x1_gradients_equal_windowed_path(self, hidden, extent):
        """A 1x1, stride-1, unpadded backward is two direct GEMMs with the
        bits of the general I <= O path: the per-tap GEMM added into
        zeros, and the kernel gradient against the column matrix that the
        window view gives, all over channel-major (C, B*H*W) matrices."""
        rng = np.random.default_rng(hidden + extent)
        x = np.maximum(rng.standard_normal((2, hidden, extent, extent)), 0.0)
        k = rng.standard_normal((hidden, hidden, 1, 1)) / hidden
        out = np.maximum(rng.standard_normal(x.shape), 0.0)
        g = rng.standard_normal(x.shape)
        _, gx, gk = ad._conv2d_grads(g.copy(), x, k, 1, 0, out)
        g *= out > 0.0
        g2d = g.transpose(1, 0, 2, 3).reshape(hidden, -1)
        want_gx = np.zeros((hidden, g2d.shape[1]))
        want_gx += k.reshape(hidden, -1).T @ g2d
        xc = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
        windows = ad._Taps(1, 1, 1, 0, extent, extent).windows(xc)
        cols = windows.transpose(0, 4, 5, 1, 2, 3).reshape(hidden, -1)
        want_gk = (g2d @ cols.T).reshape(k.shape)
        np.testing.assert_array_equal(gx, want_gx.reshape(xc.shape).transpose(1, 0, 2, 3))
        np.testing.assert_array_equal(gk, want_gk)

    # Kernel gradients at the coupling's train-32 and train-tiny shapes
    # (batch 4, the stacked encode walk) and at a LossNet stride-2 shape:
    # (in, out, kernel, pad, stride, extent).
    @pytest.mark.parametrize("geometry", [
        (64, 64, 1, 0, 1, 16), (6, 64, 3, 1, 1, 16), (64, 24, 3, 1, 1, 8),
        (6, 8, 3, 1, 1, 8), (8, 6, 3, 1, 1, 8), (16, 32, 3, 1, 2, 16),
    ], ids=["1x1", "im2col", "kn2row", "tiny-im2col", "tiny-kn2row", "lossnet"])
    def test_kernel_gradient_equals_tensordot(self, geometry):
        """The kernel gradient, one GEMM of the output gradient with the
        column matrix (or the kn2row tap matrix) over all of the batch's
        columns, is the sum over batch and space of g times each window:
        ``np.tensordot`` over the window view, to rounding."""
        n_in, n_out, ksize, pad, stride, extent = geometry
        rng = np.random.default_rng(n_in + n_out + extent)
        x = rng.standard_normal((4, n_in, extent, extent))
        k = rng.standard_normal((n_out, n_in, ksize, ksize))
        taps = ad._Taps(ksize, ksize, stride, pad, extent, extent)
        g = rng.standard_normal((4, n_out, taps.h_out, taps.w_out))
        _, _, gk = ad._conv2d_grads(g, x, k, stride, pad, want_x=False)
        windows = taps.windows(np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))))
        want = np.tensordot(g, windows, axes=([0, 2, 3], [0, 2, 3]))
        assert_rel_close(gk, want, rtol=1e-14)

    @pytest.mark.parametrize("geometry", [
        (6, 64, 16, 1, 1), (64, 64, 16, 0, 1), (64, 6, 16, 1, 1),
        (24, 64, 8, 1, 1), (64, 24, 8, 1, 1),
        (6, 8, 8, 1, 1), (8, 8, 8, 0, 1), (8, 6, 8, 1, 1),
        (3, 16, 32, 1, 2), (16, 32, 16, 1, 2), (32, 64, 8, 1, 2), (64, 64, 4, 1, 2),
        (3, 16, 16, 1, 2), (64, 64, 2, 1, 2),
        (6, 64, 128, 1, 1), (64, 6, 128, 1, 1), (24, 64, 64, 1, 1), (64, 24, 64, 1, 1),
    ], ids=[
        "train32-b0-w1", "train32-w2", "train32-b0-w3", "train32-b1-w1", "train32-b1-w3",
        "tiny-w1", "tiny-w2", "tiny-w3",
        "lossnet-32", "lossnet-16", "lossnet-8", "lossnet-4", "lossnet-tiny-16",
        "lossnet-2", "stylize-b0-w1", "stylize-b0-w3", "stylize-b1-w1", "stylize-b1-w3",
    ])
    def test_forward_kernel_is_batch_independent(self, geometry):
        """At batch 4 the channel-major forward kernel gives each sample
        the bits of that sample alone, at the train-32, train-tiny,
        LossNet stride-2 and stylize shapes: a stacked LossNet pass equals
        separate ones. (in, out, extent, pad, stride); 1x1 where pad is 0."""
        n_in, n_out, extent, pad, stride = geometry
        ksize = 3 if pad else 1
        rng = np.random.default_rng(n_in * n_out + extent)
        x = rng.standard_normal((n_in, 4, extent, extent))
        k = rng.standard_normal((n_out, n_in, ksize, ksize))
        bias = rng.standard_normal(n_out)
        whole = ad._conv(x, k, bias, stride, pad, relu=True)
        for i in range(4):
            one = ad._conv(np.ascontiguousarray(x[:, i : i + 1]), k, bias, stride, pad, True)
            np.testing.assert_array_equal(whole[:, i : i + 1], one)

    def test_conv_kernel_reuses_given_columns(self):
        """The forward and the kernel gradient take a column matrix that
        the caller built (as the coupling's backward does for conv1) with
        the bits of one they build themselves; a scratch hands out the
        same buffers again."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 4, 16, 16))
        k = rng.standard_normal((64, 6, 3, 3))
        g = rng.standard_normal((64, 4, 16, 16))
        assert ad._uses_cols(k, 1, 1) and not ad._uses_cols(k[:4], 1, 1)
        scratch = ad._Scratch()
        cols = ad._im2col(x, k, 1, 1, scratch, "cols1")
        assert scratch.take("cols1", cols.shape) is cols
        fresh = ad._conv_grads(g.copy(), x, k, 1, 1)
        for kept in (ad._conv_grads(g.copy(), x, k, 1, 1, cols=cols, scratch=scratch),
                     ad._conv_grads(g.copy(), x, k, 1, 1, scratch=scratch)):
            for got, want in zip(kept[1:], fresh[1:]):
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(ad._conv(x, k, pad=1, cols=cols), ad._conv(x, k, pad=1))

    def test_scratch_hands_out_leading_views(self):
        """An equal shape gets the same array back, a smaller one a
        leading view of its memory, and only a larger one new memory."""
        scratch = ad._Scratch()
        big = scratch.take("taps", (4, 6))
        assert scratch.take("taps", (4, 6)) is big
        small = scratch.take("taps", (2, 5))
        assert small.shape == (2, 5) and small.flags.c_contiguous
        assert small.__array_interface__["data"] == big.__array_interface__["data"]
        assert scratch.take("taps", (2, 5)) is small
        assert not np.shares_memory(scratch.take("taps", (5, 6)), big)
        assert not np.shares_memory(scratch.take("h1", (2, 5)), big)

    @pytest.mark.parametrize("signed_zeros", [False, True], ids=["values", "signed-zeros"])
    @pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("channels", [(3, 5), (5, 3)], ids=["I<O", "I>O"])
    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize("extent", [(1, 1), (1, 2), (2, 2), (5, 7)])
    def test_flat_taps_equal_clipped_taps(self, extent, batch, channels, with_bias,
                                          signed_zeros):
        """At 3x3, pad 1, stride 1 the column matrix and the kn2row sum,
        made of flat shifted slices, have the bytes of the clipped tap
        loops (``tests/conv_oracles.py``), at extents smaller than the
        kernel too; a signed-zeros input holds -0.0 across every channel
        of some positions and +0.0 and -0.0 at others."""
        n_in, n_out = channels
        rng = np.random.default_rng(extent[0] * 10 + extent[1] + 100 * batch + n_in)
        x = rng.standard_normal((n_in, batch) + extent)
        if signed_zeros:
            x = np.where(rng.random((1, batch) + extent) < 0.5, -0.0, x)
            x[rng.random(x.shape) < 0.2] = 0.0
            x[rng.random(x.shape) < 0.2] = -0.0
        k = rng.standard_normal((n_out, n_in, 3, 3))
        bias = rng.standard_normal(n_out) if with_bias else None
        assert ad._Taps(3, 3, 1, 1, *extent).same
        assert ad._im2col(x, k, 1, 1).tobytes() == im2col_reference(x, k, 1, 1).tobytes()
        got = ad._conv(x, k, bias, 1, 1, scratch=ad._Scratch())
        if n_in > n_out:
            assert got.tobytes() == kn2row_reference(x, k, bias, 1, 1).tobytes()
        else:
            want = np.empty_like(got)
            ad._by_sample(k.reshape(n_out, -1), im2col_reference(x, k, 1, 1), batch,
                          want.reshape(n_out, -1))
            if bias is not None:
                want += bias[:, None, None, None]
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("ksize,pad", [(3, 1), (1, 0)])
    @pytest.mark.parametrize("channels", ORIENTATIONS)
    def test_conv_kernel_fills_and_returns_out(self, channels, ksize, pad, batch):
        """Given ``out``, the channel-major kernel writes every value of
        it (bias and ReLU applied) in each form (direct 1x1, im2col,
        kn2row) and returns it: the coupling's third conv writes the
        shift straight into the walk's buffer this way, and ``conv2d``
        at batch 1 its own output."""
        n_in, n_out = channels
        rng = np.random.default_rng(30 + n_in + ksize + batch)
        x = rng.standard_normal((batch, n_in, 7, 6))
        k = rng.standard_normal((n_out, n_in, ksize, ksize))
        bias = rng.standard_normal(n_out)
        want = np.maximum(direct_conv(x, k, 1, pad) + bias[:, None, None], 0.0)
        buf = np.full((n_out, batch) + want.shape[2:], np.nan)
        got = ad._conv(np.ascontiguousarray(x.transpose(1, 0, 2, 3)), k, bias, 1, pad,
                       relu=True, out=buf)
        assert got is buf
        assert_rel_close(got.transpose(1, 0, 2, 3), want)

    @pytest.mark.parametrize("operand", ["x", "k", "bias"])
    def test_complex_operand_rejected(self, operand):
        args = {"x": np.ones((1, 2, 5, 5)), "k": np.ones((3, 2, 3, 3)), "bias": np.ones(3)}
        args[operand] = args[operand] + 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="real"):
                ad.conv2d(args["x"], args["k"], args["bias"], pad=1)

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError, match="batch"):
            ad.conv2d(np.ones((0, 2, 5, 5)), np.ones((3, 2, 3, 3)), pad=1)

    def test_windows_read_any_strides(self):
        """The window view reads the array it is given at its own strides
        (a pad-0 convolution passes its input, which may be a view) and
        is read-only."""
        x = np.random.default_rng(8).standard_normal((2, 6, 7, 9))
        taps = ad._Taps(3, 3, 2, 0, 7, 9)
        for view in (x, x[:, ::2], x[:, :, :, ::-1], x[:, 1:4]):
            got = taps.windows(view)
            np.testing.assert_array_equal(got, taps.windows(view.copy()))
            assert not got.flags.writeable

    @pytest.mark.parametrize("channels", ORIENTATIONS)
    def test_unpadded_conv_of_a_view_equals_its_copy(self, channels):
        n_in, n_out = channels
        rng = np.random.default_rng(n_in + 3 * n_out)
        x = rng.standard_normal((2, 2 * n_in, 7, 9))[:, ::2]
        k = rng.standard_normal((n_out, n_in, 3, 3))
        probe = rng.standard_normal((2, n_out, 5, 7))
        results = []
        for data in (x, x.copy()):
            tape = ad.Tape()
            xv, kv = ad.Var(data, tape), ad.Var(k, tape)
            y = ad.conv2d(xv, kv)
            ad.backward(ad.sum_all(ad.mul(y, probe)))
            results.append((y.data, xv.grad, kv.grad))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_tap_geometry_is_computed_once_per_shape(self):
        taps = ad._Taps(3, 3, 2, 1, 7, 9).clipped()
        assert isinstance(taps, tuple) and all(isinstance(t, tuple) for t in taps)
        assert ad._Taps(3, 3, 2, 1, 7, 9).clipped() is taps
        rows = ad._clip_axis(3, 7, 4, 2, 1)
        cols = ad._clip_axis(3, 9, 5, 2, 1)
        assert taps == tuple(
            (u, v, o_r, o_c, r, c) for u, o_r, r in rows for v, o_c, c in cols
        )

    @pytest.mark.parametrize("channels", ORIENTATIONS)
    @pytest.mark.parametrize("ksize,pad", [(3, 1), (1, 0)])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_gradients(self, channels, ksize, pad, stride):
        n_in, n_out = channels

        def build(p):
            y = ad.conv2d(p["x"], p["k"], stride=stride, pad=pad)
            return ad.sum_all(ad.mul(y, ad.mul(y, 0.5)))

        fd_check({"x": (2, n_in, 5, 6), "k": (n_out, n_in, ksize, ksize)}, build, seeds=range(1))

    @pytest.mark.parametrize(
        "name,geometry",
        [
            ("stride", dict(stride=0)),
            ("stride", dict(stride=-1)),
            ("stride", dict(stride=1.5)),
            ("stride", dict(stride=True)),
            ("pad", dict(pad=-1)),
            ("pad", dict(pad=0.5)),
            ("pad", dict(pad="1")),
        ],
    )
    def test_bad_stride_or_pad_rejected(self, name, geometry):
        with pytest.raises(ShapeError, match=name):
            ad.conv2d(np.zeros((1, 2, 5, 5)), np.zeros((3, 2, 3, 3)), **geometry)

    @pytest.mark.parametrize("channels", ORIENTATIONS)
    def test_channel_mix_matches_reference(self, channels):
        n_in, n_out = channels
        rng = np.random.default_rng(20 + n_in)
        x = rng.standard_normal((2, n_in, 7, 9))
        w = rng.standard_normal((n_out, n_in))
        assert_rel_close(ad.channel_mix(x, w), direct_mix(x, w))

    def test_channel_mix_inv_matches_reference(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 4, 7, 9))
        w = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        m = mat_inverse(w)
        assert_rel_close(ad.channel_mix_inv(x, w, m), direct_mix(x, m))

    @pytest.mark.parametrize("channels", ORIENTATIONS)
    def test_channel_mix_gradients(self, channels):
        n_in, n_out = channels

        def build(p):
            y = ad.channel_mix(p["x"], p["w"])
            return ad.sum_all(ad.mul(y, y))

        fd_check({"x": (2, n_in, 3, 5), "w": (n_out, n_in)}, build, seeds=range(1))

    def test_channel_mix_inv_gradients_batch_two(self):
        def build(p):
            wmat = ad.add(p["w"], 3.0 * np.eye(4))
            y = ad.channel_mix_inv(p["x"], wmat, mat_inverse(ad._data(wmat)))
            return ad.sum_all(ad.mul(y, y))

        fd_check({"x": (2, 4, 3, 5), "w": (4, 4)}, build, seeds=range(1))


class TestFusedConv:
    """conv2d with a fused bias and ReLU against the op chain it replaces."""

    @staticmethod
    def run(fused, x, k, bias, probe, relu, **geometry):
        tape = ad.Tape()
        xv, kv, bv = (ad.Var(a, tape) for a in (x, k, bias))
        if fused:
            y = ad.conv2d(xv, kv, bv, relu=relu, **geometry)
        else:
            y = ad.add(ad.conv2d(xv, kv, **geometry), ad.per_channel(bv))
            y = ad.relu(y) if relu else y
        ad.backward(ad.sum_all(ad.mul(y, probe)))
        return y.data, xv.grad, kv.grad, bv.grad

    @pytest.mark.parametrize("channels", ORIENTATIONS)
    @pytest.mark.parametrize("ksize", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1, 2, 5])
    @pytest.mark.parametrize("relu", [False, True])
    def test_value_and_gradients_equal_unfused_chain(self, channels, ksize, stride, pad, relu):
        n_in, n_out = channels
        rng = np.random.default_rng(100 * n_in + 10 * n_out + ksize)
        x = rng.standard_normal((2, n_in, 7, 6))
        k = rng.standard_normal((n_out, n_in, ksize, ksize))
        bias = rng.standard_normal(n_out)
        probe = rng.standard_normal(ad.conv2d(x, k, stride=stride, pad=pad).shape)
        geometry = dict(stride=stride, pad=pad)
        fused = self.run(True, x, k, bias, probe, relu, **geometry)
        chain = self.run(False, x, k, bias, probe, relu, **geometry)
        for got, want in zip(fused, chain):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("relu", [False, True])
    def test_gradients(self, stride, relu):
        def build(p):
            y = ad.conv2d(p["x"], p["k"], p["b"], stride=stride, pad=1, relu=relu)
            return ad.sum_all(ad.mul(y, ad.mul(y, 0.5)))

        fd_check({"x": (2, 3, 5, 6), "k": (4, 3, 3, 3), "b": (4,)}, build, seeds=range(2))

    @pytest.mark.parametrize("bias_shape", [(3,), (5,), (4, 1), (1, 4, 1, 1)])
    def test_wrong_bias_shape_rejected(self, bias_shape):
        with pytest.raises(ShapeError, match="bias"):
            ad.conv2d(np.zeros((1, 2, 4, 4)), np.zeros((4, 2, 3, 3)), np.zeros(bias_shape))
