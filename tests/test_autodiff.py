import gc
import weakref

import numpy as np
import pytest

import flowstyle.autodiff as ad
from flowstyle.errors import NumericError, ShapeError
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
    """Arrays in give ndarrays out; any Var operand gives Vars out."""

    @pytest.mark.parametrize("name,op,shapes", OP_CASES, ids=CASE_IDS)
    def test_arrays_untaped_and_taped(self, name, op, shapes):
        arrays = operands(shapes)
        plain = outputs(op(*arrays))
        assert all(type(out) is np.ndarray for out in plain)
        untaped = outputs(op(*(ad.Var(a) for a in arrays)))
        assert all(isinstance(out, ad.Var) and out.tape is None for out in untaped)
        tape = ad.Tape()
        taped = outputs(op(*(ad.Var(a, tape) for a in arrays)))
        assert all(isinstance(out, ad.Var) and out.tape is tape for out in taped)
        assert tape.nodes
        for want, *got in zip(plain, untaped, taped):
            for out in got:
                np.testing.assert_array_equal(out.data, want)

    @pytest.mark.parametrize("name,op,shapes", MULTI_CASES, ids=[c[0] for c in MULTI_CASES])
    def test_one_var_operand_gives_var(self, name, op, shapes):
        args = operands(shapes)
        args[-1] = ad.Var(args[-1])
        assert isinstance(op(*args), ad.Var)


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
    ad.Var(content)  # the count sees a Var when one is built
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
        with pytest.raises(ValueError):
            ad.backward(ad.mul(x, 2.0))

    def test_untaped_root_rejected(self):
        with pytest.raises(ValueError):
            ad.backward(ad.Var(np.float64(1.0)))

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

    def test_tape_freed_by_backward_without_gc(self):
        def step(fail):
            tape = ad.Tape()
            x = ad.Var(np.zeros(1) if fail else np.ones(1), tape)
            loss = ad.sum_all(ad.mul(ad.div(1.0, x), 0.0))  # 0 * inf -> nan back
            try:
                ad.backward(loss)
            except NumericError:
                assert fail
            assert [node.op for node in tape.nodes] == ["div", "mul", "sum_all"]
            return weakref.ref(tape)

        gc.disable()
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                refs = [step(fail=False), step(fail=True)]
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

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
    def test_conv2d_out_is_filled_and_returned(self, channels):
        n_in, n_out = channels
        rng = np.random.default_rng(30 + n_in)
        x = rng.standard_normal((2, n_in, 7, 6))
        k = rng.standard_normal((n_out, n_in, 3, 3))
        bias = rng.standard_normal(n_out)
        want = ad.conv2d(x, k, bias, pad=1, relu=True)
        buf = np.full(want.shape, np.nan)
        got = ad.conv2d(x, k, bias, pad=1, relu=True, out=buf)
        assert got is buf
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "case", ["taped input", "taped kernel", "wrong shape", "not contiguous", "float32"]
    )
    def test_conv2d_out_misuse_rejected(self, case):
        x, k = np.ones((1, 2, 5, 5)), np.ones((3, 2, 3, 3))
        buf = np.empty((1, 3, 5, 5))
        if case == "taped input":
            x = ad.Var(x, ad.Tape())
        elif case == "taped kernel":
            k = ad.Var(k, ad.Tape())
        elif case == "wrong shape":
            buf = np.empty((1, 3, 5, 4))
        elif case == "not contiguous":
            buf = np.empty((1, 3, 5, 10))[..., ::2]
        else:
            buf = buf.astype(np.float32)
        with pytest.raises(ShapeError, match="out="):
            ad.conv2d(x, k, pad=1, out=buf)

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
