import tracemalloc
import warnings

import numpy as np
import pytest
from flow_oracles import (
    FLOW_LAYER_OPS,
    actnorm_init_reference,
    coupling_reference,
    full_coupling,
    reference_init,
    reference_walk,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import flowstyle.autodiff as ad
from flowstyle import flows, linalg
from flowstyle.errors import (
    DegenerateScaleError,
    NumericError,
    ShapeError,
    SingularMatrixError,
    StateError,
)
from flowstyle.flows import (
    FlowNet,
    FlowNetConfig,
    actnorm_init,
    build_flownet,
    initialize_actnorms,
    named_config,
    randomize_couplings,
)
from flowstyle.experiments import ablation_run, stylize
from flowstyle.metrics import (
    evaluate_stylization,
    feature_distance,
    gram_loss,
    recon_error,
    ssim,
)
from flowstyle.training import (
    AdamState,
    TrainConfig,
    build_lossnet,
    train,
    train_step,
    training_loss,
)
from flowstyle.transfer import ADAIN


def make_model(n_blocks=1, n_flows=2, hidden=4, shape=(2, 3, 8, 8), seed=0):
    cfg = FlowNetConfig(n_blocks, n_flows, hidden, shape[1], shape[2], shape[3])
    model = build_flownet(cfg, seed=seed)
    batch = np.random.default_rng(seed + 1).random(shape)
    initialize_actnorms(model, batch)
    return model, batch


# The layers on NCHW batches, each run as a walk runs it: from its plan
# step, in the channel-major layout (C, B, H, W).


def run_layer(kind, x, *weights, inverse=False):
    step = flows._Step(kind, weights)
    return ad._swap(flows._run_layer(step, ad._swap(x), inverse, ad._Scratch(), x))


def squeeze(x, inverse=False):
    return run_layer("squeeze", x, inverse=inverse)


def actnorm(x, scale, bias, inverse=False):
    return run_layer("actnorm", x, scale, bias, inverse=inverse)


def invconv(x, weight, inverse=False):
    return run_layer("invconv", x, weight, inverse=inverse)


def inner_network(x_a, w1, b1, w2, b2, w3, b3):
    return ad._swap(flows._shift(ad._swap(x_a), w1, b1, w2, b2, w3, b3, ad._Scratch())[0])


def coupling(x, w1, b1, w2, b2, w3, b3, inverse=False):
    return run_layer("coupling", x, w1, b1, w2, b2, w3, b3, inverse=inverse)


LAYER_KERNELS = {"squeeze": squeeze, "actnorm": actnorm, "invconv": invconv, "coupling": coupling}


class TestActnorm:
    def test_identity_params(self):
        x = np.random.default_rng(0).standard_normal((1, 3, 4, 4))
        np.testing.assert_array_equal(actnorm(x, np.ones(3), np.zeros(3)), x)

    def test_hand_case(self):
        p = (np.array([2.0]), np.array([1.0]))
        x = np.full((1, 1, 1, 1), 0.5)
        y = actnorm(x, *p)
        assert y[0, 0, 0, 0] == 2.0
        back = actnorm(y, *p, inverse=True)
        assert back[0, 0, 0, 0] == 0.5

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        p = (rng.uniform(0.5, 2.0, 5), rng.standard_normal(5))
        x = rng.standard_normal((2, 5, 6, 6))
        back = actnorm(actnorm(x, *p), *p, inverse=True)
        assert np.max(np.abs(back - x)) < 1e-12

    def test_degenerate_scale_rejected(self):
        with pytest.raises(DegenerateScaleError):
            actnorm(np.zeros((1, 1, 2, 2)), np.array([1e-7]), np.zeros(1))

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(DegenerateScaleError):
            actnorm(np.zeros((1, 1, 2, 2)), np.array([scale]), np.zeros(1))
        model, batch = make_model()
        model.params["b0.f1.actnorm.scale"][2] = scale
        with pytest.raises(DegenerateScaleError):
            model.forward(batch)

    def test_init_fixed_point(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3, 8, 8))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(
            axis=(0, 2, 3), keepdims=True
        )
        scale, bias, clamped = actnorm_init(x)
        assert clamped == []
        np.testing.assert_allclose(scale, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(bias, np.zeros(3), atol=1e-12)

    def test_init_constant_channel_clamped(self):
        x = np.full((1, 1, 4, 4), 5.0)
        scale, bias, clamped = actnorm_init(x)
        assert clamped == [0]
        assert scale[0] == 1.0 / 1e-6
        np.testing.assert_allclose(bias[0], -5.0 / 1e-6)

    # (channels, side): 3 to 768 channels, 128x128 down to 1x1 maps, where
    # a batch of 1 leaves each channel one value.
    GEOMETRIES = [(3, 128), (12, 64), (48, 32), (192, 16), (768, 8), (768, 1), (3, 1)]

    @pytest.mark.parametrize("batch", [1, 2, 8])
    @pytest.mark.parametrize("channels,side", GEOMETRIES)
    def test_init_has_the_bits_of_numpy_mean_and_std(self, batch, channels, side):
        """AdaIN's statistics give the bits of numpy's mean and std, at
        scales from 1e-9 to 1e4 and with a constant channel."""
        rng = np.random.default_rng(batch * 1000 + channels + side)
        base = rng.standard_normal((batch, channels, side, side)) + rng.standard_normal(
            (1, channels, 1, 1)
        )
        for magnitude in (1e-9, 1.0, 1e4):
            for constant in (False, True):
                x = magnitude * base
                if constant:
                    x[:, 0] = 0.3 * magnitude
                got, want = actnorm_init(x), actnorm_init_reference(x)
                for g, w in zip(got[:2], want[:2]):
                    assert g.tobytes() == w.tobytes(), (magnitude, constant)
                assert got[2] == want[2]

    def test_init_on_a_batch_whose_std_overflows_raises(self):
        """A finite batch whose squares overflow raises NumericError and
        leaves the model uninitialized with its parameters unchanged,
        instead of every scale at the floor."""
        cfg = FlowNetConfig(1, 2, 4, 3, 8, 8)
        model = build_flownet(cfg, seed=0)
        before = {n: a.tobytes() for n, a in model.params.items()}
        batch = np.random.default_rng(1).random((2, 3, 8, 8)) * 1e300
        with pytest.raises(NumericError, match="std overflows"):
            initialize_actnorms(model, batch)
        assert not model.initialized
        assert {n: a.tobytes() for n, a in model.params.items()} == before
        initialize_actnorms(model, batch * 1e-300)
        assert model.initialized

    def test_init_standardizes(self):
        rng = np.random.default_rng(3)
        x = 3.0 * rng.standard_normal((2, 4, 8, 8)) + 1.5
        scale, bias, _ = actnorm_init(x)
        y = actnorm(x, scale, bias)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.std(axis=(0, 2, 3)), 1.0, atol=1e-6)

    def test_double_init_rejected(self):
        # An initialized actnorm is never initialized again.
        model, _ = make_model()
        before = {n: a.copy() for n, a in model.params.items()}
        assert initialize_actnorms(model, np.full((2, 3, 8, 8), 7.0)) == []
        for name, arr in model.params.items():
            np.testing.assert_array_equal(arr, before[name])

    def test_model_built_initialized_keeps_its_actnorms(self):
        # The constant batch would clamp every channel of an uninitialized
        # model; the stored scales and biases stay instead.
        fresh = build_flownet(FlowNetConfig(1, 2, 4, 3, 8, 8), seed=1)
        model = FlowNet(fresh.config, fresh.params, initialized=True)
        before = {n: a.copy() for n, a in model.params.items()}
        assert initialize_actnorms(model, np.full((2, 3, 8, 8), 7.0)) == []
        assert model.initialized
        for name, arr in model.params.items():
            np.testing.assert_array_equal(arr, before[name])
        assert initialize_actnorms(fresh, np.full((2, 3, 8, 8), 7.0))
        assert fresh.initialized


class TestInvConv:
    def test_identity_weight(self):
        x = np.random.default_rng(4).standard_normal((1, 3, 4, 4))
        out = invconv(x, np.eye(3))
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_channel_swap(self):
        x = np.random.default_rng(5).standard_normal((1, 2, 3, 3))
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = invconv(x, swap)
        np.testing.assert_array_equal(out[:, 0], x[:, 1])
        np.testing.assert_array_equal(out[:, 1], x[:, 0])

    def test_orthogonal_round_trip(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        x = rng.standard_normal((2, 6, 5, 5))
        back = invconv(invconv(x, q), q, inverse=True)
        assert np.max(np.abs(back - x)) < 1e-10

    def test_singular_weight_rejected(self):
        model, batch = make_model()
        z = model.forward(batch)
        model.params["b0.f1.invconv.weight"] = np.ones((12, 12))
        with pytest.raises(SingularMatrixError):
            model.inverse(z)


def make_coupling(c, hidden, seed=0, zero_last=True):
    rng = np.random.default_rng(seed)
    half = c // 2
    w3 = np.zeros((half, hidden, 3, 3)) if zero_last else rng.standard_normal(
        (half, hidden, 3, 3)
    ) / np.sqrt(hidden * 9.0)
    return dict(
        w1=rng.standard_normal((hidden, half, 3, 3)) / np.sqrt(half * 9.0),
        b1=rng.standard_normal(hidden) * 0.1,
        w2=rng.standard_normal((hidden, hidden, 1, 1)) / np.sqrt(float(hidden)),
        b2=rng.standard_normal(hidden) * 0.1,
        w3=w3,
        b3=np.zeros(half) if zero_last else rng.standard_normal(half) * 0.1,
    )


class TestCoupling:
    def test_zero_init_is_exact_identity(self):
        p = make_coupling(4, 3, zero_last=True)
        x = np.random.default_rng(7).standard_normal((2, 4, 6, 6))
        np.testing.assert_array_equal(coupling(x, **p), x)

    def test_constant_shift(self):
        # With the inner network pinned to a constant c, y_b = x_b + c.
        p = make_coupling(4, 3, zero_last=True)
        p["b3"] = np.array([0.7, -0.3])
        x = np.random.default_rng(8).standard_normal((1, 4, 4, 4))
        y = coupling(x, **p)
        np.testing.assert_array_equal(y[:, :2], x[:, :2])
        np.testing.assert_allclose(y[:, 2] - x[:, 2], 0.7, atol=1e-15)
        np.testing.assert_allclose(y[:, 3] - x[:, 3], -0.3, atol=1e-15)

    def test_round_trip(self):
        p = make_coupling(6, 5, seed=9, zero_last=False)
        x = np.random.default_rng(10).standard_normal((2, 6, 8, 8))
        back = coupling(coupling(x, **p), **p, inverse=True)
        assert np.max(np.abs(back - x)) < 1e-12

def assert_rel_close(got, want, name="", rel=1e-10):
    """Within ``rel`` of the largest magnitude of ``want``."""
    scale = float(np.max(np.abs(want), initial=0.0))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rel * scale, err_msg=name)


class TestCouplingNode:
    """The coupling kernel, and its backward rule, which recomputes the
    hidden maps, have the per-op graph's bits."""

    @staticmethod
    def run(x, p, probe, inverse, kernel):
        """The output and the gradients of the input and of the weights,
        which are leaf Vars, of the coupling of ``x`` probed by ``probe``:
        the kernel and its rule, which must rebuild ``x``, when ``kernel``,
        else the per-op graph."""
        tape = ad.Tape()
        pvars = {n: ad.Var(a, tape) for n, a in p.items()}
        if kernel:
            scratch, step = ad._Scratch(), flows._Step("coupling", tuple(pvars.values()))
            y = ad._swap(flows._run_layer(step, ad._swap(x), inverse, scratch, x))
            y_cm, g_cm = y.swapaxes(0, 1).copy(), probe.swapaxes(0, 1).copy()
            x_cm, gx = flows._coupling_back(y_cm, g_cm, step, inverse, scratch)
            assert_rel_close(ad._swap(x_cm), x, "rebuilt input", rel=1e-14)
            return [y, ad._swap(gx)] + [v.grad for v in pvars.values()]
        xv = ad.Var(x, tape)
        # Through an op, so the coupling's input starts without a gradient.
        y = coupling_reference(ad.mul(xv, 1.0), **pvars, inverse=inverse)
        ad.backward(ad.sum_all(ad.mul(y, probe)))
        return [y.data, xv.grad] + [v.grad for v in pvars.values()]

    # Hidden 5 against half 3 and hidden 4 against half 6: every conv runs
    # on both GEMM sides of conv2d.
    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("c,hidden", [(6, 5), (12, 4)])
    def test_values_and_gradients_equal_per_op_graph(self, c, hidden, batch, inverse):
        rng = np.random.default_rng(c + hidden + batch)
        p = make_coupling(c, hidden, seed=c, zero_last=False)
        x = rng.standard_normal((batch, c, 5, 7))
        probe = rng.standard_normal(x.shape)
        got = self.run(x, p, probe, inverse, kernel=True)
        want = self.run(x, p, probe, inverse, kernel=False)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @staticmethod
    def loss_tape(monkeypatch, walk=None):
        """A taped ``training_loss`` on a two-block, hidden-7 model; ``walk``
        takes the place of ``FlowNet._walk`` when given."""
        model, batch = make_model(n_blocks=2, n_flows=2, hidden=7, shape=(2, 3, 8, 8))
        randomize_couplings(model, seed=2)
        if walk is not None:
            monkeypatch.setattr(FlowNet, "_walk", walk)
        tape = ad.Tape()
        pvars = {name: ad.Var(arr, tape) for name, arr in model.params.items()}
        style = np.random.default_rng(3).random(batch.shape)
        cfg = TrainConfig(iterations=1)
        total, _, _ = training_loss(model, pvars, batch, style, cfg, build_lossnet(0))
        return tape, total, pvars

    def test_training_tape_keeps_no_hidden_map(self, monkeypatch):
        tape, total, pvars = self.loss_tape(monkeypatch)
        ops = [node.op for node in tape.nodes]
        # One node per walk: one encode of content and style stacked, one
        # decode, and no node of a flow layer.
        assert ops.count("walk") == 2
        assert not set(ops) & FLOW_LAYER_OPS
        leaves = {id(v) for v in pvars.values()}
        values = [
            v for node in tape.nodes for v in node.inputs + node.outs if id(v) not in leaves
        ]
        assert values
        # No hidden map (7 channels) and no block-0 activation (12 channels).
        assert not [v.shape for v in values if v.data.ndim == 4 and v.shape[1] in (7, 12)]
        ad.backward(total)

    def test_training_gradients_equal_per_op_graph(self, monkeypatch):
        grads = []
        for walk in (None, reference_walk):
            _, total, pvars = self.loss_tape(monkeypatch, walk)
            ad.backward(total)
            grads.append({name: var.grad for name, var in pvars.items()})
        for name, grad in grads[0].items():
            assert_rel_close(grad, grads[1][name], name)


class TestWalkNode:
    """A taped walk runs its layers on arrays and records one ``walk`` node,
    whose backward rebuilds each layer's input from its output."""

    @staticmethod
    def run(walk, model, v, inverse, taped):
        """Output, tape ops and gradients of a probed walk in which ``v``
        (through an op, so it starts without a gradient) and the parameters
        named by ``taped`` are Vars."""
        tape = ad.Tape()
        leaf = ad.Var(v, tape)
        x = ad.mul(leaf, 1.0) if "v" in taped else v
        pvars = {n: ad.Var(a, tape) for n, a in model.params.items() if n in taped}
        y = walk(model, x, pvars, inverse)
        ops = [node.op for node in tape.nodes]
        probe = np.random.default_rng(6).standard_normal(y.shape)
        kept = y.data.copy()
        ad.backward(ad.sum_all(ad.mul(y, probe)))
        np.testing.assert_array_equal(y.data, kept)
        np.testing.assert_array_equal(y.grad, probe)
        grads = {"v": leaf.grad, **{n: p.grad for n, p in pvars.items()}}
        return y.data, ops, grads

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    @pytest.mark.parametrize("taped", ["all", "input", "params"])
    def test_values_and_gradients_match_per_op_walk(self, inverse, taped):
        model, batch = TestWalkBuffers.model()
        v = np.random.default_rng(4).standard_normal((2, 48, 4, 4)) if inverse else batch
        names = {"all": {"v", *model.params}, "input": {"v"}, "params": set(model.params)}
        taped = names[taped]
        y, ops, got = self.run(FlowNet._walk, model, v, inverse, taped)
        want_y, want_ops, want = self.run(reference_walk, model, v, inverse, taped)
        np.testing.assert_array_equal(y, model._walk(v, None, inverse))
        np.testing.assert_array_equal(y, want_y)
        assert ops == (["mul"] if "v" in taped else []) + ["walk"]
        assert set(want_ops) & FLOW_LAYER_OPS
        assert got.keys() == want.keys()
        for name, grad in want.items():
            if name == "v" and "v" not in taped:
                continue
            assert_rel_close(got[name], grad, name)

    @staticmethod
    def loss_peak(n_flows):
        """tracemalloc peak of a crop-32, batch-2, hidden-64 taped
        ``training_loss`` and its ``backward``, less the parameter
        gradients."""
        model, batch = make_model(
            n_blocks=2, n_flows=n_flows, hidden=64, shape=(2, 3, 32, 32)
        )
        randomize_couplings(model, seed=1)
        style = np.random.default_rng(2).random(batch.shape)
        lossnet, cfg = build_lossnet(0), TrainConfig(iterations=1)
        tracemalloc.start()
        try:
            tape = ad.Tape()
            pvars = {name: ad.Var(arr, tape) for name, arr in model.params.items()}
            total, _, _ = training_loss(model, pvars, batch, style, cfg, lossnet)
            ad.backward(total)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(p.grad.nbytes for p in pvars.values())

    def test_training_memory_does_not_grow_with_depth(self):
        shallow, deep = self.loss_peak(4), self.loss_peak(16)
        assert abs(deep - shallow) < 2**20, (shallow, deep)


class TestNnForward:
    def test_zero_final_layer_gives_zero(self):
        p = make_coupling(4, 3, zero_last=True)
        out = inner_network(np.random.default_rng(11).standard_normal((1, 2, 5, 5)), **p)
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_hand_trace_single_pixel(self):
        # 1x1 spatial input: only the center taps of the 3x3 kernels act.
        hidden = 2
        p = dict(
            w1=np.zeros((hidden, 1, 3, 3)),
            b1=np.array([0.1, -1.0]),
            w2=np.zeros((hidden, hidden, 1, 1)),
            b2=np.array([0.0, 0.2]),
            w3=np.zeros((1, hidden, 3, 3)),
            b3=np.array([0.05]),
        )
        p["w1"][0, 0, 1, 1] = 2.0  # h1 = relu(2v + 0.1), h2 = relu(-1)=0
        p["w2"][1, 0, 0, 0] = 3.0  # g2 = relu(3*h1 + 0.2)
        p["w3"][0, 1, 1, 1] = 0.5  # out = 0.5*g2 + 0.05
        v = 0.4
        x = np.full((1, 1, 1, 1), v)
        h1 = max(2.0 * v + 0.1, 0.0)
        g2 = max(3.0 * h1 + 0.2, 0.0)
        expect = 0.5 * g2 + 0.05
        out = inner_network(x, **p)
        np.testing.assert_allclose(out[0, 0, 0, 0], expect, atol=1e-15)

    def test_shape_preserved(self):
        p = make_coupling(6, 4, zero_last=False)
        x = np.zeros((2, 3, 7, 9))
        assert inner_network(x, **p).shape == x.shape


class TestSqueeze:
    def test_stated_ordering(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = squeeze(x)
        np.testing.assert_array_equal(out.reshape(-1), [1.0, 2.0, 3.0, 4.0])

    def test_round_trip_bit_identical(self):
        x = np.random.default_rng(12).standard_normal((1, 3, 8, 8))
        np.testing.assert_array_equal(squeeze(squeeze(x), inverse=True), x)


class TestConfig:
    def test_latent_shapes_for_named_architectures(self):
        cases = {
            "flow8-block2": (48, 64, 64),
            "flow8-block1": (12, 128, 128),
            "flow16-block1": (12, 128, 128),
            "flow4-block4": (768, 16, 16),
        }
        for name, latent in cases.items():
            cfg = named_config(name, 3, 256, 256)
            assert cfg.latent_shape() == latent

    def test_divisibility_enforced(self):
        with pytest.raises(ShapeError):
            FlowNetConfig(2, 2, 8, 3, 30, 32)

    def test_positive_counts_enforced(self):
        with pytest.raises(ShapeError):
            FlowNetConfig(0, 2, 8, 3, 32, 32)

    @pytest.mark.parametrize(
        "name,make",
        [
            ("hidden", lambda: build_flownet(FlowNetConfig(1, 2, 4.5, 3, 16, 16))),
            ("in_height", lambda: FlowNetConfig(1, 2, 4, 3, 16.0, 16)),
            ("seed", lambda: build_flownet(FlowNetConfig(1, 2, 4, 3, 16, 16), seed=1.5)),
            ("seed", lambda: randomize_couplings(make_model()[0], seed=1.5)),
            ("seed", lambda: build_lossnet(1.5, 3)),
            ("in_channels", lambda: build_lossnet(0, 3.0)),
            ("hidden", lambda: FlowNetConfig(1, 2, True, 3, 16, 16)),
            ("seed", lambda: build_flownet(FlowNetConfig(1, 2, 4, 3, 16, 16), seed=True)),
        ],
        ids=["config", "extent", "build-seed", "randomize-seed", "lossnet-seed",
             "lossnet-channels", "config-true", "build-seed-true"],
    )
    def test_non_integer_count_or_seed_rejected(self, name, make):
        with pytest.raises(ShapeError, match=name):
            make()

    @pytest.mark.parametrize(
        "name,make",
        [
            ("seed", lambda: build_flownet(FlowNetConfig(1, 2, 4, 3, 16, 16), seed=-1)),
            ("seed", lambda: randomize_couplings(make_model()[0], seed=-1)),
            ("seed", lambda: build_lossnet(-1, 3)),
            ("in_channels", lambda: build_lossnet(0, 0)),
            ("in_channels", lambda: build_lossnet(0, -2)),
        ],
        ids=["build-seed", "randomize-seed", "lossnet-seed", "lossnet-zero-channels",
             "lossnet-negative-channels"],
    )
    def test_negative_seed_or_count_rejected(self, name, make):
        with pytest.raises(ShapeError, match=name):
            make()

    def test_integer_like_counts_become_int(self):
        cfg = FlowNetConfig(np.int64(1), 2, np.int32(4), 3, 16, 16)
        assert (type(cfg.n_blocks), type(cfg.hidden)) == (int, int)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, 1e300, "x", True],
                             ids=["nan", "inf", "huge", "string", "true"])
    def test_malformed_randomize_scale_changes_no_parameter(self, scale):
        model, _ = make_model()
        before = {name: a.tobytes() for name, a in model.params.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="scale"):
                randomize_couplings(model, scale=scale)
        assert {name: a.tobytes() for name, a in model.params.items()} == before


class TestFlowNet:
    def test_forward_requires_initialization(self):
        cfg = FlowNetConfig(1, 1, 4, 3, 8, 8)
        model = build_flownet(cfg)
        with pytest.raises(StateError):
            model.forward(np.zeros((1, 3, 8, 8)))

    def test_inverse_requires_initialization(self):
        cfg = FlowNetConfig(1, 1, 4, 3, 8, 8)
        model = build_flownet(cfg)
        with pytest.raises(StateError):
            model.inverse(np.zeros((1, 12, 4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_non_finite_input_rejected(self, direction, bad):
        model, batch = make_model()
        x = (batch if direction == "forward" else model.forward(batch)).copy()
        x[0, 1, 2, 3] = bad
        with pytest.raises(NumericError, match="infinite"):
            getattr(model, direction)(x)

    def test_round_trip_small_model(self):
        model, batch = make_model(n_blocks=2, n_flows=2, shape=(2, 3, 8, 8))
        randomize_couplings(model, seed=5)
        x = np.random.default_rng(13).random((2, 3, 8, 8))
        back = model.inverse(model.forward(x))
        assert np.max(np.abs(back - x)) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        n_blocks=st.integers(1, 2),
        n_flows=st.integers(1, 3),
        hidden=st.integers(1, 8),
        channels=st.integers(1, 3),
        multiples=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_on_random_architectures(
        self, n_blocks, n_flows, hidden, channels, multiples, seed
    ):
        shape = (2, channels, *(2**n_blocks * m for m in multiples))
        model, _ = make_model(n_blocks, n_flows, hidden, shape, seed=seed)
        randomize_couplings(model, seed=seed + 2)
        x = np.random.default_rng(seed + 3).random(shape)
        back = model.inverse(model.forward(x))
        assert np.max(np.abs(back - x)) < 1e-9

    def test_forward_then_inverse_and_inverse_then_forward(self):
        model, _ = make_model(n_blocks=1, n_flows=3)
        z = np.random.default_rng(14).standard_normal((1, 12, 4, 4))
        again = model.forward(model.inverse(z))
        assert np.max(np.abs(again - z)) < 1e-9

    def test_zero_init_couplings_contribute_nothing(self):
        # Fresh model = squeeze + actnorm + orthogonal mix only, bit-exact.
        model, batch = make_model(n_blocks=1, n_flows=2, shape=(2, 3, 8, 8))
        x = batch
        manual = squeeze(x)
        for f in ("b0.f0", "b0.f1"):
            manual = actnorm(
                manual, model.params[f"{f}.actnorm.scale"], model.params[f"{f}.actnorm.bias"]
            )
            manual = invconv(manual, model.params[f"{f}.invconv.weight"])
        np.testing.assert_array_equal(model.forward(x), manual)

    def test_identity_model_inverse_is_unsqueeze_only(self):
        cfg = FlowNetConfig(1, 2, 4, 3, 8, 8)
        model = build_flownet(cfg)
        model.initialized = True
        for f in ("b0.f0", "b0.f1"):  # actnorms keep w=1, b=0
            model.params[f"{f}.invconv.weight"] = np.eye(cfg.block_channels(0))
        z = np.random.default_rng(15).standard_normal((1, 12, 4, 4))
        np.testing.assert_array_equal(model.inverse(z), squeeze(z, inverse=True))

    def test_composability_matches_layer_fold(self):
        model, _ = make_model(n_blocks=2, n_flows=2, shape=(1, 3, 8, 8))
        randomize_couplings(model, seed=6)
        x = np.random.default_rng(16).random((1, 3, 8, 8))
        v = x
        for layer in model.layers:
            weights = [model.params[name] for name in layer.shapes]
            v = LAYER_KERNELS[layer.kind](v, *weights)
        np.testing.assert_array_equal(model.forward(x), v)
        for layer in reversed(model.layers):
            weights = [model.params[name] for name in layer.shapes]
            v = LAYER_KERNELS[layer.kind](v, *weights, inverse=True)
        np.testing.assert_array_equal(model.inverse(model.forward(x)), v)

    def test_element_count_preserved_per_layer(self):
        model, batch = make_model(n_blocks=1, n_flows=1)
        x = batch
        for layer in model.layers:
            weights = [model.params[name] for name in layer.shapes]
            x = LAYER_KERNELS[layer.kind](x, *weights)
            assert x.size == batch.size

    def test_forward_accepts_other_divisible_extents(self):
        model, _ = make_model(n_blocks=1, n_flows=1, shape=(1, 3, 8, 8))
        out = model.forward(np.random.default_rng(17).random((1, 3, 16, 16)))
        assert out.shape == (1, 12, 8, 8)

    def test_wrong_channel_count_rejected(self):
        model, _ = make_model()
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 4, 8, 8)))

    def test_build_deterministic(self):
        cfg = FlowNetConfig(1, 2, 4, 3, 8, 8)
        a = build_flownet(cfg, seed=3)
        b = build_flownet(cfg, seed=3)
        for (na, pa), (nb, pb) in zip(a.params.items(), b.params.items()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)

    def test_init_diagnostics_flag_constant_channels(self):
        cfg = FlowNetConfig(1, 1, 4, 1, 4, 4)
        model = build_flownet(cfg)
        diags = initialize_actnorms(model, np.full((1, 1, 4, 4), 2.5))
        assert diags and diags[0][0] == "b0.f0.actnorm"
        assert diags[0][1] == [0, 1, 2, 3]

    def test_traced_forward_matches_plain(self):
        model, batch = make_model(n_blocks=1, n_flows=2, shape=(1, 3, 8, 8))
        randomize_couplings(model, seed=7)
        tape = ad.Tape()
        pvars = {name: ad.Var(arr, tape) for name, arr in model.params.items()}
        out = model.forward(ad.Var(batch[:1], tape), params=pvars)
        np.testing.assert_array_equal(out.data, model.forward(batch[:1]))


class TestWalkBuffers:
    """Array walks write the couplings' hidden maps into per-walk buffers."""

    @staticmethod
    def model():
        # Hidden 8 against channel halves of 6 (block 0) and 24 (block 1),
        # so each coupling conv runs on both GEMM sides of conv2d.
        model, batch = make_model(n_blocks=2, n_flows=2, hidden=8, shape=(2, 3, 16, 16))
        randomize_couplings(model, seed=3)
        return model, batch

    def test_array_walks_equal_taped_walks(self):
        model, batch = self.model()
        z = np.random.default_rng(4).standard_normal((2, 48, 4, 4))
        tape = ad.Tape()
        pvars = {name: ad.Var(arr, tape) for name, arr in model.params.items()}
        np.testing.assert_array_equal(
            model.forward(batch, params=pvars).data, model.forward(batch)
        )
        np.testing.assert_array_equal(model.inverse(z, params=pvars).data, model.inverse(z))

    def test_results_outlive_later_walks(self):
        model, batch = self.model()
        rng = np.random.default_rng(5)
        z = model.forward(batch)
        x = model.inverse(z)
        kept = z.copy(), x.copy()
        model.forward(rng.random(batch.shape))
        model.inverse(rng.standard_normal(z.shape))
        np.testing.assert_array_equal(z, kept[0])
        np.testing.assert_array_equal(x, kept[1])


def recorded_scratches(monkeypatch):
    """The list of every ``_Scratch`` that a later ``take`` reaches, and
    per scratch and name the list of flat buffers it held, in turn."""
    scratches, flats, take = [], {}, ad._Scratch.take

    def recorded(scratch, name, shape):
        if not any(s is scratch for s in scratches):
            scratches.append(scratch)
        buf = take(scratch, name, shape)
        held = flats.setdefault((len(scratches), name), [])
        if not held or held[-1] is not scratch._flat[name]:
            held.append(scratch._flat[name])
        return buf

    monkeypatch.setattr(ad._Scratch, "take", recorded)
    return scratches, flats


def without_sharing(monkeypatch):
    """Make every walk keep its conv temporaries in the ``taps`` buffer,
    the layout in which no buffer is shared."""
    extent = flows._StepParams.extent
    monkeypatch.setattr(
        flows._StepParams, "extent", lambda self, b, h, w: (extent(self, b, h, w)[0], 0)
    )


def paper_model(arch="flow8-block2", size=256, hidden=64):
    """A named architecture with randomized couplings, and a content and
    style image."""
    model = build_flownet(named_config(arch, in_height=size, in_width=size, hidden=hidden))
    content, style = np.random.default_rng(size + hidden).random((2, 1, 3, size, size))
    initialize_actnorms(model, content)
    randomize_couplings(model, seed=1)
    return model, content, style


class TestBufferPlan:
    """A walk keeps its couplings' conv temporaries in the hidden maps'
    buffers while those are dead, when they fit, and a walk's backward
    writes the hidden maps' gradients into scratch buffers."""

    @staticmethod
    def stylize_scratch(monkeypatch, model, content, style, shared=True):
        """The output of one ``stylize`` call and its scratch's flat
        buffers by name, from a scratch that only that call used."""
        with monkeypatch.context() as m:
            if not shared:
                without_sharing(m)
            scratches, _ = recorded_scratches(m)
            out = stylize(model, ADAIN, content, style)
        assert len(scratches) == 1
        return out, scratches[0]._flat

    @pytest.mark.parametrize("size,hidden", [(256, 64), (64, 8)])
    @pytest.mark.parametrize("arch", sorted(flows.NAMED_ARCHITECTURES))
    def test_stylize_scratch_is_at_most_the_unshared_layouts(
        self, arch, size, hidden, monkeypatch
    ):
        """No stylization holds more scratch than with every temporary in
        ``taps``, and both give the same bits. At hidden 8 a hidden map is
        smaller than conv1's column matrix, and the walk keeps ``taps``."""
        model, content, style = paper_model(arch, size, hidden)
        got, flat = self.stylize_scratch(monkeypatch, model, content, style)
        want, unshared = self.stylize_scratch(monkeypatch, model, content, style, False)
        assert_same_bits(got, want)
        nbytes = sum(b.nbytes for b in flat.values())
        assert nbytes <= sum(b.nbytes for b in unshared.values())
        assert ("taps" in flat) == (hidden == 8)

    def test_paper_scale_holds_two_hidden_maps_and_the_shift(self, monkeypatch):
        """flow8-block2 at 256, hidden 64: block 0's 128x128 hidden maps
        hold every conv temporary (54 and 9 * 6 rows of 128 * 128
        columns), so the call's scratch is those two maps and the shift."""
        model, content, style = paper_model()
        _, flat = self.stylize_scratch(monkeypatch, model, content, style)
        n = 128 * 128
        assert {name: b.size for name, b in flat.items()} == {
            "h1": 64 * n, "h2": 64 * n, "shift": 6 * n,
        }

    @pytest.mark.parametrize("call", ["stylize", "inverse-first"])
    def test_no_buffer_is_reallocated_during_a_call(self, call, monkeypatch):
        """Each buffer is allocated once per call, at its full size, also
        when an inverse walk reaches block 1's smaller hidden maps first."""
        model, content, style = paper_model(size=64)
        z, step = model.forward(style), flows._StepParams({})
        scratches, flats = recorded_scratches(monkeypatch)
        if call == "stylize":
            stylize(model, ADAIN, content, style)
        else:
            model.inverse(z, step)
            model.forward(content, step)
        assert len(scratches) == 1
        assert {name: len(held) for (_, name), held in flats.items()} == {
            "h1": 1, "h2": 1, "shift": 1,
        }

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_walk_backward_takes_no_new_hidden_size_gradient(self, inverse, monkeypatch):
        """Every input gradient of hidden size (conv3's and conv2's) that a
        walk's backward computes is a view of one of its scratch buffers,
        and the walk's gradients keep their bits."""
        model, batch = TestWalkBuffers.model()
        v = model.forward(batch) if inverse else batch

        def grads(spy):
            tape = ad.Tape()
            pvars = {n: ad.Var(a, tape) for n, a in model.params.items()}
            step, seen, conv_grads = flows._StepParams(pvars), [], ad._conv_grads

            def recorded(*args, **kwargs):
                got = conv_grads(*args, **kwargs)
                seen.append(got[1])
                return got

            with monkeypatch.context() as m:
                if spy:
                    m.setattr(ad, "_conv_grads", recorded)
                ad.backward(ad.sum_all(model._walk(ad.Var(v, tape), step, inverse)))
            hidden = [gx for gx in seen if gx is not None and gx.shape[0] == 8]
            return [p.grad for p in pvars.values()], hidden, step.scratch._flat

        want = grads(False)[0]
        got, hidden, flat = grads(True)
        assert len(hidden) == 2 * 4  # conv3's and conv2's, in each of 4 couplings
        for gx in hidden:
            assert any(np.shares_memory(gx, buf) for buf in flat.values())
        for g, w in zip(got, want):
            assert_same_bits(g, w)

    def test_stylize_scratch_does_not_grow_with_depth(self, monkeypatch):
        """A stylization's buffers have the same sizes at 4 and 16 flows."""
        sizes = []
        for n_flows in (4, 16):
            model = build_flownet(FlowNetConfig(1, n_flows, 64, 3, 64, 64))
            content, style = np.random.default_rng(n_flows).random((2, 1, 3, 64, 64))
            initialize_actnorms(model, content)
            randomize_couplings(model, seed=2)
            flat = self.stylize_scratch(monkeypatch, model, content, style)[1]
            sizes.append({name: b.size for name, b in flat.items()})
        assert sizes[0] == sizes[1]



def assert_same_bits(got, want, name=""):
    """Equal shapes and bytes: ``-0.0`` differs from ``+0.0``."""
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def with_signed_zeros(a):
    """``a`` with a band of ``-0.0`` and one of ``+0.0`` along its rows."""
    a = a.copy()
    a[..., 0, :] = -0.0
    a[..., 1, :] = 0.0
    return a


def count_shifts(monkeypatch):
    """A list into which every later ``flows._shift`` call appends one entry."""
    calls, shift = [], flows._shift

    def counted(*args, **kwargs):
        calls.append(1)
        return shift(*args, **kwargs)

    monkeypatch.setattr(flows, "_shift", counted)
    return calls


class TestLayerPlan:
    """The walks of one call run the layer plan that the first builds
    (:class:`flows._StepParams`), with the bits of walks that each build
    their own."""

    @staticmethod
    def walks(inverse, taped, share):
        """The outputs of three probed walks one after another, with one
        ``_StepParams`` when ``share`` and a plain mapping per walk else,
        and when ``taped`` the gradients of their inputs and of every
        parameter."""
        model, batch = TestWalkBuffers.model()
        rng = np.random.default_rng(12)
        shape = (2, 48, 4, 4) if inverse else batch.shape
        inputs, probes = [rng.standard_normal(shape) for _ in range(3)], []
        tape = ad.Tape()
        pvars = {n: ad.Var(a, tape) for n, a in model.params.items()} if taped else {}
        step = flows._StepParams(pvars)
        leaves = [ad.Var(v, tape) if taped else v for v in inputs]
        outs = [model._walk(v, step if share else dict(pvars), inverse) for v in leaves]
        if not taped:
            return outs
        total = None
        for y in outs:
            probes.append(rng.standard_normal(y.shape))
            term = ad.sum_all(ad.mul(y, probes[-1]))
            total = term if total is None else ad.add(total, term)
        ad.backward(total)
        return [y.data for y in outs] + [v.grad for v in leaves + list(pvars.values())]

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    @pytest.mark.parametrize("taped", [False, True], ids=["arrays", "taped"])
    def test_reused_plan_equals_one_walk_plans(self, inverse, taped):
        got = self.walks(inverse, taped, share=True)
        want = self.walks(inverse, taped, share=False)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_plan_is_built_once_per_call(self):
        model, batch = TestWalkBuffers.model()
        step = flows._StepParams({})
        z = model.forward(batch, step)
        steps = step.plan(model)
        model.inverse(z, step)
        assert step.plan(model) is steps
        assert [s.kind for s in steps] == [layer.kind for layer in model.layers]


class TestIdentityCouplings:
    """A coupling whose conv3 kernel and bias are all zero skips its inner
    network and writes ``x_b + 0.0`` (``- 0.0``): the bits of the network's
    +0.0 shift, in the walks, actnorm initialization and training."""

    ARCHS = {"flow2-block1": (1, 2, 4, 8, 8), "flow8-block2": (2, 8, 8, 8, 12)}

    @classmethod
    def fresh(cls, arch, zero=0.0):
        n_blocks, n_flows, hidden, h, w = cls.ARCHS[arch]
        model = build_flownet(FlowNetConfig(n_blocks, n_flows, hidden, 3, h, w), seed=1)
        for layer in model.layers:
            if layer.kind == "coupling":
                for name in (f"{layer.name}.w3", f"{layer.name}.b3"):
                    model.params[name] = np.full(layer.shapes[name], zero)
        return model

    @staticmethod
    def check_against_per_op_graph(model, batch):
        """Initialization, forward and inverse of ``model`` have the bits of
        the per-op graph, signed zeros in the image and the latent included."""
        x = with_signed_zeros(batch)
        want = reference_init(model, x)
        initialize_actnorms(model, x)
        for name, value in want.items():
            assert_same_bits(model.params[name], value, name)
        assert_same_bits(model.forward(x), reference_walk(model, x, None, False))
        latent = (len(x), *model.config.latent_shape())
        z = with_signed_zeros(np.random.default_rng(2).standard_normal(latent))
        assert_same_bits(model.inverse(z), reference_walk(model, z, None, True))

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("arch", list(ARCHS))
    def test_fresh_models_equal_per_op_graph(self, arch, batch, zero, monkeypatch):
        model = self.fresh(arch, zero)
        calls = count_shifts(monkeypatch)
        shape = (batch, 3, model.config.in_height, model.config.in_width)
        self.check_against_per_op_graph(model, np.random.default_rng(batch).random(shape))
        assert not calls

    @pytest.mark.parametrize("zeroed", ["w3", "b3"])
    def test_half_zero_conv3_runs_the_network(self, zeroed, monkeypatch):
        model = self.fresh("flow2-block1")
        randomize_couplings(model, seed=4)
        couplings = [layer for layer in model.layers if layer.kind == "coupling"]
        for layer in couplings:
            name = f"{layer.name}.{zeroed}"
            model.params[name] = np.zeros(layer.shapes[name])
        calls = count_shifts(monkeypatch)
        self.check_against_per_op_graph(model, np.random.default_rng(5).random((2, 3, 8, 8)))
        # Init, forward and inverse, each through every coupling.
        assert len(calls) == 3 * len(couplings)

    def test_shift_runs_only_for_couplings_that_are_not_identity(self, monkeypatch):
        model = self.fresh("flow8-block2")
        batch = np.random.default_rng(6).random((2, 3, 8, 12))
        calls = count_shifts(monkeypatch)
        initialize_actnorms(model, batch)
        model.inverse(model.forward(batch))
        assert not calls
        # A params override is seen at once: one coupling runs its network.
        w3 = "b1.f7.coupling.w3"
        model.forward(batch, params={w3: np.ones(model.params[w3].shape)})
        assert len(calls) == 1
        randomize_couplings(model, seed=7)
        calls.clear()
        z = model.forward(batch)
        assert len(calls) == 16
        model.inverse(z)
        assert len(calls) == 32

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_kernel_keeps_the_network_bits(self, inverse, zero):
        p = make_coupling(6, 5, seed=8)
        p["w3"], p["b3"] = np.full_like(p["w3"], zero), np.full_like(p["b3"], zero)
        x = ad._swap(with_signed_zeros(np.random.default_rng(9).standard_normal((2, 6, 5, 7))))
        assert flows._identity(p["w3"], p["b3"])
        got = flows._coupling(x, *p.values(), inverse, True, ad._Scratch())
        want = full_coupling(x, *p.values(), inverse, True, ad._Scratch())
        assert_same_bits(got, want)
        # The forward turns -0.0 into +0.0; the inverse keeps it.
        zeros = got[3:][got[3:] == 0.0]
        assert zeros.size and np.signbit(zeros).any() == inverse

    def test_first_train_steps_equal_full_network_steps(self, monkeypatch):
        """Losses, Adam moments and updated parameters of two steps from a
        fresh model, its first step on identity couplings."""
        rng = np.random.default_rng(10)
        batch = rng.random((2, 3, 8, 12)), rng.random((2, 3, 8, 12))
        cfg, lossnet = TrainConfig(iterations=2), build_lossnet(0)
        runs = []
        for coupling in (flows._coupling, full_coupling):
            monkeypatch.setattr(flows, "_coupling", coupling)
            model = self.fresh("flow8-block2")
            adam = AdamState.for_params(model.params)
            results = [train_step(model, lossnet, batch, cfg, adam) for _ in range(2)]
            runs.append((results, model.params, adam))
        (got, params, adam), (want, want_params, want_adam) = runs
        assert got == want
        for name, value in want_params.items():
            assert_same_bits(params[name], value, name)
            assert_same_bits(adam.m[name], want_adam.m[name], name)
            assert_same_bits(adam.v[name], want_adam.v[name], name)


class TestLayerList:
    def test_names_order_and_tags(self):
        cfg = FlowNetConfig(1, 1, 4, 3, 8, 8)
        layers = list(cfg.layers())
        assert [(layer.kind, layer.name, layer.tag) for layer in layers] == [
            ("squeeze", "b0.squeeze", 1),
            ("actnorm", "b0.f0.actnorm", 2),
            ("invconv", "b0.f0.invconv", 3),
            ("coupling", "b0.f0.coupling", 4),
        ]
        assert [(n, s) for layer in layers for n, s in layer.shapes.items()] == [
            ("b0.f0.actnorm.scale", (12,)),
            ("b0.f0.actnorm.bias", (12,)),
            ("b0.f0.invconv.weight", (12, 12)),
            ("b0.f0.coupling.w1", (4, 6, 3, 3)),
            ("b0.f0.coupling.b1", (4,)),
            ("b0.f0.coupling.w2", (4, 4, 1, 1)),
            ("b0.f0.coupling.b2", (4,)),
            ("b0.f0.coupling.w3", (6, 4, 3, 3)),
            ("b0.f0.coupling.b3", (6,)),
        ]

    def test_store_follows_layer_list(self):
        cfg = named_config("flow4-block4", 3, 32, 32, hidden=4)
        model = build_flownet(cfg)
        names = [n for layer in cfg.layers() for n in layer.shapes]
        assert list(model.params) == names
        assert names[-1] == "b3.f3.coupling.b3"

    def test_mismatched_store_rejected(self):
        model, _ = make_model()
        params = dict(model.params)
        params.pop("b0.f1.coupling.b3")
        with pytest.raises(ShapeError):
            FlowNet(model.config, params)
        params = dict(model.params, **{"b0.f0.invconv.weight": np.eye(3)})
        with pytest.raises(ShapeError):
            FlowNet(model.config, params)


def conditioned_model(config, cond, seed=0):
    """A model whose every invconv weight has singular values from 1 down
    to 1/cond, actnorms initialized on a random batch and random
    couplings; with the content and style batches of one step."""
    model = build_flownet(config, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for layer in model.layers:
        if layer.kind == "invconv":
            (name,) = layer.shapes
            c = model.params[name].shape[0]
            u, _ = np.linalg.qr(rng.standard_normal((c, c)))
            v, _ = np.linalg.qr(rng.standard_normal((c, c)))
            model.params[name] = u @ np.diag(np.geomspace(1.0, 1.0 / cond, c)) @ v.T
    e = config.in_height
    content, style = rng.random((2, 3, e, e)), rng.random((2, 3, e, e))
    initialize_actnorms(model, np.concatenate([content, style]))
    randomize_couplings(model, seed=seed + 2)
    return model, content, style


def taped_step(model, content, style):
    tape = ad.Tape()
    pvars = {name: ad.Var(arr, tape) for name, arr in model.params.items()}
    total, _, _ = training_loss(
        model, pvars, content, style, TrainConfig(iterations=1), build_lossnet(0)
    )
    ad.backward(total)
    return pvars


class TestChannelMajorWalk:
    """The walk runs channel-major (C, B, H, W) on its own arrays."""

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("extent", [2, 8])
    def test_walks_leave_their_inputs_unchanged(self, batch, extent):
        # At 2x2 a batch-1 squeeze is a view of the caller's image.
        model, _ = make_model(n_blocks=1, n_flows=2, hidden=4, shape=(2, 3, extent, extent))
        randomize_couplings(model, seed=1)
        rng = np.random.default_rng(batch + extent)
        x = rng.random((batch, 3, extent, extent))
        z = rng.standard_normal((batch, 12, extent // 2, extent // 2))
        kept = x.copy(), z.copy()
        y, back = model.forward(x), model.inverse(z)
        np.testing.assert_array_equal(x, kept[0])
        np.testing.assert_array_equal(z, kept[1])
        assert not np.may_share_memory(y, x) and not np.may_share_memory(back, z)
        tape = ad.Tape()
        pvars = {n: ad.Var(a, tape) for n, a in model.params.items()}
        zv = ad.Var(z, tape)
        ad.backward(ad.sum_all(ad.mul(model.inverse(zv, pvars), 1.0)))
        ad.backward(ad.sum_all(ad.mul(model.forward(x, pvars), 1.0)))
        np.testing.assert_array_equal(x, kept[0])
        np.testing.assert_array_equal(z, kept[1])

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    @pytest.mark.parametrize("shape", ["train-tiny", "crop-32"])
    def test_batch_of_four_equals_four_walks(self, shape, inverse):
        """Each sample of a batch-4 walk has the bits of its own walk: the
        stacked encode of a training step relies on it."""
        if shape == "train-tiny":
            config = FlowNetConfig(1, 2, 8, 3, 16, 16)
        else:
            config = named_config("flow8-block2", in_height=32, in_width=32, hidden=64)
        model, content, style = conditioned_model(config, 1.0)
        x = np.concatenate([content, style])
        v = model.forward(x) if inverse else x
        walk = model.inverse if inverse else model.forward
        whole = walk(v)
        for i in range(4):
            np.testing.assert_array_equal(whole[i : i + 1], walk(v[i : i + 1]))

    @pytest.mark.parametrize("direction", ["forward", "inverse", "init"])
    def test_empty_batch_rejected(self, direction):
        model, batch = make_model()
        v = model.forward(batch) if direction == "inverse" else batch
        for empty in (v[:0], v[:, :, :0]):
            with pytest.raises(ShapeError, match="empty"):
                if direction == "init":
                    initialize_actnorms(build_flownet(model.config), empty)
                else:
                    getattr(model, direction)(empty)

    @pytest.mark.parametrize("direction", ["forward", "inverse", "init"])
    def test_complex_input_rejected(self, direction):
        model, batch = make_model()
        v = model.forward(batch) if direction == "inverse" else batch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="real"):
                if direction == "init":
                    initialize_actnorms(build_flownet(model.config), v + 0j)
                else:
                    getattr(model, direction)(v + 0j)

    def test_ill_conditioned_walk_raises_on_its_rebuild(self):
        """With every invconv at condition 100 the decode walk cannot
        rebuild its latent from the image, so its gradients would not be
        the model's: backward raises, naming the walk and the mismatch."""
        config = named_config("flow8-block2", in_height=16, in_width=16, hidden=8)
        model, content, style = conditioned_model(config, 100.0)
        with pytest.raises(NumericError, match=r"inverse walk.*relative error \d"):
            taped_step(model, content, style)

    @pytest.mark.parametrize("shape", ["criterion-7", "train-32"])
    def test_healthy_models_rebuild_their_inputs(self, shape, monkeypatch):
        if shape == "criterion-7":
            model = build_flownet(FlowNetConfig(1, 2, 8, 3, 16, 16), seed=70)
            rng = np.random.default_rng(7000)
            content, style = rng.random((2, 3, 16, 16)), rng.random((2, 3, 16, 16))
            initialize_actnorms(model, np.concatenate([content, style]))
        else:
            config = named_config("flow8-block2", in_height=32, in_width=32, hidden=64)
            model, content, style = conditioned_model(config, 1.0)
        errors = []

        def recorded(x, v, inverse):
            errors.append(float(np.max(np.abs(x.swapaxes(0, 1) - v))))
            check(x, v, inverse)

        check = flows._check_rebuild
        monkeypatch.setattr(flows, "_check_rebuild", recorded)
        taped_step(model, content, style)
        assert len(errors) == 2 and max(errors) < 1e-13

    def test_rebuild_check_bound(self):
        """The bound is relative to the input's largest magnitude."""
        v = np.random.default_rng(3).standard_normal((2, 3, 4, 4)) * 10.0
        x, scale = v.swapaxes(0, 1), np.max(np.abs(v))
        flows._check_rebuild(x + 1e-10 * scale, v, False)
        with pytest.raises(NumericError, match=r"forward walk.*relative error 1\.000e-08"):
            flows._check_rebuild(x + 1e-8 * scale, v, False)
        with pytest.raises(NumericError, match="inverse walk"):
            flows._check_rebuild(x * np.nan, v, True)

    # A misshapen value by name; the misspelt name holds a value of the
    # right shape, with which the stored weight would otherwise run.
    BAD_PARAMS = {
        "b0.f0.invconv.weight": (12, 1),
        "b0.f1.coupling.w1": (4, 6, 3, 1),
        "b0.f0.invconv.weigth": (12, 12),
    }

    @pytest.mark.parametrize("name", list(BAD_PARAMS))
    def test_misshapen_parameter_rejected(self, name):
        model, batch = make_model()
        bad = {name: np.ones(self.BAD_PARAMS[name])}
        for walk, v in ((model.forward, batch), (model.inverse, model.forward(batch))):
            with pytest.raises(ShapeError, match=name):
                walk(v, params=bad)

    @pytest.mark.parametrize("entry", [
        "stylize", "training_loss", "train", "ssim", "recon_error", "ablation_run",
        "gram_loss", "feature_distance", "evaluate_stylization",
    ])
    def test_complex_images_rejected_at_the_entry_points(self, entry):
        model, batch = make_model()
        train_cfg = TrainConfig(iterations=1, batch_size=1, crop_size=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="real"):
                if entry == "stylize":
                    stylize(model, ADAIN, batch[:1] + 0j, batch[1:])
                elif entry == "ssim":
                    image = np.random.default_rng(5).random((1, 3, 16, 16))
                    ssim(image + 1j * image, image)
                elif entry == "recon_error":
                    recon_error(model, batch + 1j * batch)
                elif entry == "ablation_run":
                    pairs = [(batch[0], batch[1])]
                    ablation_run([model.config], pairs, [(batch[0] + 0j, batch[1])], train_cfg)
                elif entry == "gram_loss":
                    gram_loss(batch + 1j * batch, batch, build_lossnet(0))
                elif entry == "feature_distance":
                    feature_distance(batch, batch + 1j * batch, build_lossnet(0))
                elif entry == "evaluate_stylization":
                    evaluate_stylization(model, build_lossnet(0), batch, batch,
                                         batch + 1j * batch)
                elif entry == "training_loss":
                    training_loss(model, model.params, batch + 0j, batch,
                                  TrainConfig(iterations=1), build_lossnet(0))
                else:
                    train(model, train_cfg, [(batch[0] + 0j, batch[1])])

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_equal_halves_keep_conv1_columns(self, inverse):
        """With hidden equal to the channel half, conv1 and conv3 both take
        the im2col form with column matrices of one shape; conv1's kernel
        gradient must still use its own."""
        rng = np.random.default_rng(11)
        p = make_coupling(8, 4, seed=8, zero_last=False)
        x = rng.standard_normal((2, 8, 6, 6))
        probe = rng.standard_normal(x.shape)
        got = TestCouplingNode.run(x, p, probe, inverse, kernel=True)
        want = TestCouplingNode.run(x, p, probe, inverse, kernel=False)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestWalkThreadBlock:
    """A walk and its backward set the BLAS threads once when every conv
    GEMM of the walk is small, and leave each conv to choose otherwise."""

    @staticmethod
    def spy(monkeypatch):
        calls, count = [], [2]

        def get():
            calls.append("get")
            return count[0]

        def set_(n):
            calls.append(n)
            count[0] = n

        monkeypatch.setattr(linalg, "_openblas_thread_calls", lambda: (get, set_))
        return calls

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_small_walk_and_its_backward_enter_one_block_each(self, inverse, monkeypatch):
        model, batch = TestWalkBuffers.model()
        v = model.forward(batch) if inverse else batch
        calls = self.spy(monkeypatch)
        tape = ad.Tape()
        y = model._walk(ad.Var(v, tape), None, inverse)
        assert calls == ["get", 1, 2]
        ad.backward(ad.sum_all(y))
        assert calls == ["get", 1, 2] * 2

    def test_walk_with_a_large_gemm_leaves_each_conv_to_choose(self, monkeypatch):
        model, batch = TestWalkBuffers.model()
        step = flows._StepParams({})
        want = model.forward(batch, step)
        most = step.extent(batch.shape[0], *batch.shape[2:])[0]
        monkeypatch.setattr(linalg, "THREADED_MIN_MACS", most)
        calls = self.spy(monkeypatch)
        assert_same_bits(model.forward(batch, step), want)
        assert 2 < calls.count("get") < len([k for k in model.params if ".w" in k])

    def test_inverse_walk_takes_invconv_weight_products_outside_its_block(self, monkeypatch):
        model, batch = TestWalkBuffers.model()
        z, tape = model.forward(batch), ad.Tape()
        pvars = {n: ad.Var(a, tape) for n, a in model.params.items()}
        weights = {id(v) for n, v in pvars.items() if n.endswith("invconv.weight")}
        depths, accum = [], ad._accum

        def recorded(x, g):
            if id(x) in weights:
                depths.append(linalg._one_thread_depth)
            accum(x, g)

        self.spy(monkeypatch)
        monkeypatch.setattr(ad, "_accum", recorded)
        ad.backward(ad.sum_all(model._walk(z, pvars, True)))
        assert depths == [0] * len(weights)
