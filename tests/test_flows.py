import tracemalloc
import warnings

import numpy as np
import pytest
from flow_oracles import FLOW_LAYER_OPS, coupling_reference, reference_walk
from hypothesis import given, settings
from hypothesis import strategies as st

import flowstyle.autodiff as ad
from flowstyle import flows
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
from flowstyle.linalg import mat_inverse
from flowstyle.metrics import (
    evaluate_stylization,
    feature_distance,
    gram_loss,
    recon_error,
    ssim,
)
from flowstyle.training import TrainConfig, build_lossnet, train, training_loss
from flowstyle.transfer import ADAIN


def make_model(n_blocks=1, n_flows=2, hidden=4, shape=(2, 3, 8, 8), seed=0):
    cfg = FlowNetConfig(n_blocks, n_flows, hidden, shape[1], shape[2], shape[3])
    model = build_flownet(cfg, seed=seed)
    batch = np.random.default_rng(seed + 1).random(shape)
    initialize_actnorms(model, batch)
    return model, batch


# The layer kernels on NCHW batches, each through the channel-major
# layout (C, B, H, W) that a walk runs it in.


def squeeze(x, inverse=False):
    return ad._swap((ad._unsqueeze_data if inverse else ad._squeeze_data)(ad._swap(x)))


def actnorm(x, scale, bias, inverse=False):
    return ad._swap(flows._actnorm(ad._swap(x), scale, bias, inverse))


def invconv(x, weight, inverse=False):
    return ad._swap(ad._mix(mat_inverse(weight) if inverse else weight, ad._swap(x)))


def inner_network(x_a, w1, b1, w2, b2, w3, b3):
    return ad._swap(flows._shift(ad._swap(x_a), w1, b1, w2, b2, w3, b3, ad._Scratch())[0])


def coupling(x, w1, b1, w2, b2, w3, b3, inverse=False):
    weights = (w1, b1, w2, b2, w3, b3)
    return ad._swap(flows._coupling(ad._swap(x), *weights, inverse, ad._Scratch()))


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
            scratch = ad._Scratch()
            y = ad._swap(flows._coupling(ad._swap(x), *p.values(), inverse, scratch))
            y_cm, g_cm = y.swapaxes(0, 1).copy(), probe.swapaxes(0, 1).copy()
            x_cm, gx = flows._coupling_back(y_cm, g_cm, tuple(pvars.values()), inverse, scratch)
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
        ],
        ids=["config", "extent", "build-seed", "randomize-seed", "lossnet-seed",
             "lossnet-channels"],
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
        model.actnorm_initialized = dict.fromkeys(model.actnorm_initialized, True)
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
        assert list(model.actnorm_initialized) == [
            layer.name for layer in cfg.layers() if layer.kind == "actnorm"
        ]

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

    @pytest.mark.parametrize("name", ["b0.f0.invconv.weight", "b0.f1.coupling.w1"])
    def test_misshapen_parameter_rejected(self, name):
        model, batch = make_model()
        bad = {name: np.ones(model.params[name].shape[:-1] + (1,))}
        with pytest.raises(ShapeError, match=name):
            model.forward(batch, params=bad)

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
