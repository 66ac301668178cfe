import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowstyle.autodiff as ad
from flowstyle.errors import (
    DegenerateScaleError,
    ShapeError,
    SingularMatrixError,
    StateError,
)
from flowstyle.flows import (
    FlowNet,
    FlowNetConfig,
    actnorm_apply,
    actnorm_init,
    build_flownet,
    coupling_apply,
    initialize_actnorms,
    invconv_apply,
    named_config,
    nn_forward,
    randomize_couplings,
    squeeze_apply,
)


def make_model(n_blocks=1, n_flows=2, hidden=4, shape=(2, 3, 8, 8), seed=0):
    cfg = FlowNetConfig(n_blocks, n_flows, hidden, shape[1], shape[2], shape[3])
    model = build_flownet(cfg, seed=seed)
    batch = np.random.default_rng(seed + 1).random(shape)
    initialize_actnorms(model, batch)
    return model, batch


LAYER_FUNCTIONS = {
    "squeeze": squeeze_apply,
    "actnorm": actnorm_apply,
    "invconv": invconv_apply,
    "coupling": coupling_apply,
}


class TestActnorm:
    def test_identity_params(self):
        x = np.random.default_rng(0).standard_normal((1, 3, 4, 4))
        np.testing.assert_array_equal(actnorm_apply(x, np.ones(3), np.zeros(3)), x)

    def test_hand_case(self):
        p = (np.array([2.0]), np.array([1.0]))
        x = np.full((1, 1, 1, 1), 0.5)
        y = actnorm_apply(x, *p)
        assert y[0, 0, 0, 0] == 2.0
        back = actnorm_apply(y, *p, inverse=True)
        assert back[0, 0, 0, 0] == 0.5

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        p = (rng.uniform(0.5, 2.0, 5), rng.standard_normal(5))
        x = rng.standard_normal((2, 5, 6, 6))
        back = actnorm_apply(actnorm_apply(x, *p), *p, inverse=True)
        assert np.max(np.abs(back - x)) < 1e-12

    def test_degenerate_scale_rejected(self):
        with pytest.raises(DegenerateScaleError):
            actnorm_apply(np.zeros((1, 1, 2, 2)), np.array([1e-7]), np.zeros(1))

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(DegenerateScaleError):
            actnorm_apply(np.zeros((1, 1, 2, 2)), np.array([scale]), np.zeros(1))
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
        y = actnorm_apply(x, scale, bias)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.std(axis=(0, 2, 3)), 1.0, atol=1e-6)

    def test_double_init_rejected(self):
        # An initialized actnorm is never initialized again.
        model, _ = make_model()
        before = {n: a.copy() for n, a in model.param_items()}
        assert initialize_actnorms(model, np.full((2, 3, 8, 8), 7.0)) == []
        for name, arr in model.param_items():
            np.testing.assert_array_equal(arr, before[name])


class TestInvConv:
    def test_identity_weight(self):
        x = np.random.default_rng(4).standard_normal((1, 3, 4, 4))
        out = invconv_apply(x, np.eye(3))
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_channel_swap(self):
        x = np.random.default_rng(5).standard_normal((1, 2, 3, 3))
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = invconv_apply(x, swap)
        np.testing.assert_array_equal(out[:, 0], x[:, 1])
        np.testing.assert_array_equal(out[:, 1], x[:, 0])

    def test_orthogonal_round_trip(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        x = rng.standard_normal((2, 6, 5, 5))
        back = invconv_apply(invconv_apply(x, q), q, inverse=True)
        assert np.max(np.abs(back - x)) < 1e-10

    def test_singular_weight_rejected(self):
        w = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            invconv_apply(np.zeros((1, 2, 2, 2)), w, inverse=True)


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
        np.testing.assert_array_equal(coupling_apply(x, **p), x)

    def test_constant_shift(self):
        # With the inner network pinned to a constant c, y_b = x_b + c.
        p = make_coupling(4, 3, zero_last=True)
        p["b3"] = np.array([0.7, -0.3])
        x = np.random.default_rng(8).standard_normal((1, 4, 4, 4))
        y = coupling_apply(x, **p)
        np.testing.assert_array_equal(y[:, :2], x[:, :2])
        np.testing.assert_allclose(y[:, 2] - x[:, 2], 0.7, atol=1e-15)
        np.testing.assert_allclose(y[:, 3] - x[:, 3], -0.3, atol=1e-15)

    def test_round_trip(self):
        p = make_coupling(6, 5, seed=9, zero_last=False)
        x = np.random.default_rng(10).standard_normal((2, 6, 8, 8))
        back = coupling_apply(coupling_apply(x, **p), **p, inverse=True)
        assert np.max(np.abs(back - x)) < 1e-12

    def test_odd_channels_rejected(self):
        p = make_coupling(4, 3)
        with pytest.raises(ShapeError):
            coupling_apply(np.zeros((1, 5, 4, 4)), **p)


class TestNnForward:
    def test_zero_final_layer_gives_zero(self):
        p = make_coupling(4, 3, zero_last=True)
        out = nn_forward(np.random.default_rng(11).standard_normal((1, 2, 5, 5)), **p)
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
        out = nn_forward(x, **p)
        np.testing.assert_allclose(out[0, 0, 0, 0], expect, atol=1e-15)

    def test_shape_preserved(self):
        p = make_coupling(6, 4, zero_last=False)
        x = np.zeros((2, 3, 7, 9))
        assert nn_forward(x, **p).shape == x.shape

    def test_taped_call_records_one_node_per_layer(self):
        p = make_coupling(6, 4, zero_last=False)
        tape = ad.Tape()
        params = {name: ad.Var(arr, tape) for name, arr in p.items()}
        nn_forward(ad.Var(np.ones((1, 3, 5, 5)), tape), **params)
        assert [node.op for node in tape.nodes] == ["conv2d"] * 3


class TestSqueeze:
    def test_stated_ordering(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = squeeze_apply(x)
        np.testing.assert_array_equal(out.reshape(-1), [1.0, 2.0, 3.0, 4.0])

    def test_round_trip_bit_identical(self):
        x = np.random.default_rng(12).standard_normal((1, 3, 8, 8))
        np.testing.assert_array_equal(squeeze_apply(squeeze_apply(x), inverse=True), x)


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
        manual = squeeze_apply(x)
        for f in ("b0.f0", "b0.f1"):
            manual = actnorm_apply(
                manual, model.params[f"{f}.actnorm.scale"], model.params[f"{f}.actnorm.bias"]
            )
            manual = invconv_apply(manual, model.params[f"{f}.invconv.weight"])
        np.testing.assert_array_equal(model.forward(x), manual)

    def test_identity_model_inverse_is_unsqueeze_only(self):
        cfg = FlowNetConfig(1, 2, 4, 3, 8, 8)
        model = build_flownet(cfg)
        model.actnorm_initialized = dict.fromkeys(model.actnorm_initialized, True)
        for f in ("b0.f0", "b0.f1"):  # actnorms keep w=1, b=0
            model.params[f"{f}.invconv.weight"] = np.eye(cfg.block_channels(0))
        z = np.random.default_rng(15).standard_normal((1, 12, 4, 4))
        np.testing.assert_array_equal(model.inverse(z), squeeze_apply(z, inverse=True))

    def test_composability_matches_layer_fold(self):
        model, _ = make_model(n_blocks=2, n_flows=2, shape=(1, 3, 8, 8))
        randomize_couplings(model, seed=6)
        x = np.random.default_rng(16).random((1, 3, 8, 8))
        v = x
        for layer in model.layers:
            weights = [model.params[name] for name in layer.shapes]
            v = LAYER_FUNCTIONS[layer.kind](v, *weights)
        np.testing.assert_array_equal(model.forward(x), v)
        for layer in reversed(model.layers):
            weights = [model.params[name] for name in layer.shapes]
            v = LAYER_FUNCTIONS[layer.kind](v, *weights, inverse=True)
        np.testing.assert_array_equal(model.inverse(model.forward(x)), v)

    def test_element_count_preserved_per_layer(self):
        model, batch = make_model(n_blocks=1, n_flows=1)
        x = batch
        for layer in model.layers:
            weights = [model.params[name] for name in layer.shapes]
            x = LAYER_FUNCTIONS[layer.kind](x, *weights)
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
        for (na, pa), (nb, pb) in zip(a.param_items(), b.param_items()):
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
        pvars = {name: ad.Var(arr, tape) for name, arr in model.param_items()}
        out = model.forward(ad.Var(batch[:1], tape), params=pvars)
        np.testing.assert_array_equal(out.data, model.forward(batch[:1]))


class TestWalkBuffers:
    """Untaped walks write the couplings' hidden maps into per-walk buffers."""

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
        pvars = {name: ad.Var(arr, tape) for name, arr in model.param_items()}
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
