import io

import numpy as np
import pytest

import flowstyle.autodiff as ad
from flowstyle.errors import NumericError, ShapeError
from flowstyle.flows import (
    FlowNetConfig,
    build_flownet,
    copy_flownet,
    initialize_actnorms,
)
from flowstyle.training import (
    AdamState,
    LossNet,
    TrainConfig,
    adain_traced,
    adam_update,
    build_lossnet,
    check_model_gradients,
    content_loss,
    style_loss,
    train,
    train_step,
    training_loss,
)
from flowstyle.transfer import adain


def tiny_pairs(n=4, shape=(3, 16, 16), seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.random(shape), rng.random(shape)) for _ in range(n)]


def tiny_model(seed=1, n_flows=2, hidden=8, size=16):
    return build_flownet(FlowNetConfig(1, n_flows, hidden, 3, size, size), seed=seed)


class TestLossNet:
    def test_deterministic_across_builds(self):
        a = build_lossnet(7)
        b = build_lossnet(7)
        x = np.random.default_rng(0).random((1, 3, 16, 16))
        for fa, fb in zip(a.features(x), b.features(x)):
            np.testing.assert_array_equal(fa, fb)

    def test_stage_shapes_halve(self):
        net = build_lossnet(0)
        feats = net.features(np.zeros((2, 3, 32, 32)))
        assert [f.shape for f in feats] == [
            (2, 16, 16, 16),
            (2, 32, 8, 8),
            (2, 64, 4, 4),
            (2, 64, 2, 2),
        ]

    def test_parameters_frozen(self):
        net = build_lossnet(0)
        with pytest.raises(ValueError):
            net.kernels[0][0, 0, 0, 0] = 1.0


class TestContentLoss:
    def test_zero_when_target_matches(self):
        net = build_lossnet(1)
        img = np.random.default_rng(1).random((1, 3, 16, 16))
        t = net.top_feature(img)
        assert content_loss(img, t, net) == 0.0

    def test_constant_offset_gives_offset(self):
        # Target = features + eps => RMS of a constant eps is eps.
        net = build_lossnet(2)
        img = np.random.default_rng(2).random((1, 3, 16, 16))
        t = net.top_feature(img) + 1e-3
        assert abs(content_loss(img, t, net) - 1e-3) < 1e-12

    def test_matches_direct_norm(self):
        net = build_lossnet(3)
        img = np.random.default_rng(3).random((1, 3, 16, 16))
        t = np.random.default_rng(4).standard_normal(net.top_feature(img).shape)
        direct = np.sqrt(((net.top_feature(img) - t) ** 2).mean())
        assert abs(content_loss(img, t, net) - direct) < 1e-12


class TestStyleLoss:
    def test_zero_for_identical_images(self):
        net = build_lossnet(4)
        img = np.random.default_rng(5).random((1, 3, 16, 16))
        assert style_loss(img, img, net) == 0.0

    def test_symmetric_in_image_swap(self):
        net = build_lossnet(5)
        rng = np.random.default_rng(6)
        a, b = rng.random((1, 3, 16, 16)), rng.random((1, 3, 16, 16))
        assert abs(style_loss(a, b, net) - style_loss(b, a, net)) < 1e-12

    def test_hand_traced_single_stage_shift(self):
        # One linear-regime stage on a 2x2 image: stride-2 output is a
        # single position, so only the mean term contributes and the
        # per-channel shift is delta * sum(center 2x2 of each kernel).
        k = np.zeros((2, 1, 3, 3))
        k[0, 0] = 0.1
        k[1, 0] = 0.2
        net = LossNet([k], [np.array([1.0, 1.0])], seed=0)
        rng = np.random.default_rng(7)
        img = 0.5 + 0.1 * rng.random((1, 1, 2, 2))
        delta = 0.01
        shifted = img + delta
        shift = np.array(
            [delta * k[o, 0, 1:3, 1:3].sum() for o in range(2)]
        )
        expect = np.sqrt((shift**2).sum())
        got = style_loss(img, shifted, net)
        assert abs(got - expect) < 1e-12


class TestAdainTraced:
    def test_matches_reference_adain(self):
        rng = np.random.default_rng(8)
        fc = rng.standard_normal((1, 4, 6, 6))
        fs = 2.0 * rng.standard_normal((1, 4, 6, 6)) + 1.0
        out = adain_traced(ad.lift(fc), ad.lift(fs))
        np.testing.assert_allclose(out.data, adain(fc, fs), atol=1e-12)

    def test_differentiable_in_both_inputs(self):
        def build(p):
            out = adain_traced(p["fc"], p["fs"])
            return ad.sum_all(ad.mul(out, out))

        rng = np.random.default_rng(9)
        params = {
            "fc": rng.standard_normal((1, 2, 4, 4)),
            "fs": rng.standard_normal((1, 2, 4, 4)),
        }
        report = ad.grad_check(params, build)
        assert report.passed, report.failures


class TestAdam:
    def test_hand_computed_step_from_known_moments(self):
        p = np.array([1.0])
        state = AdamState(m={"p": np.array([0.2])}, v={"p": np.array([0.09])}, step=3)
        g = np.array([0.5])
        adam_update({"p": p}, {"p": g}, state, lr=0.01)
        # By hand, t = 4:
        m = 0.9 * 0.2 + 0.1 * 0.5            # 0.23
        v = 0.999 * 0.09 + 0.001 * 0.25      # 0.09016
        m_hat = m / (1 - 0.9**4)
        v_hat = v / (1 - 0.999**4)
        expect = 1.0 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert state.step == 4
        np.testing.assert_allclose(p, [expect], atol=1e-15)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = np.array([1.5, -2.0])
        state = AdamState.for_params({"p": p})
        adam_update({"p": p}, {"p": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(p, [1.5, -2.0])


class TestTrainStep:
    def test_zero_loss_weights_leave_parameters_unchanged(self):
        model = tiny_model()
        net = build_lossnet(0)
        cfg = TrainConfig(iterations=1, batch_size=2, crop_size=16,
                          lambda_content=0.0, lambda_style=0.0)
        rng = np.random.default_rng(10)
        batch = (rng.random((2, 3, 16, 16)), rng.random((2, 3, 16, 16)))
        initialize_actnorms(model, np.concatenate(batch))
        adam = AdamState.for_params(dict(model.param_items()))
        before = {n: a.copy() for n, a in model.param_items()}
        train_step(model, net, batch, cfg, adam)
        for name, arr in model.param_items():
            np.testing.assert_array_equal(arr, before[name])

    def test_first_batch_triggers_actnorm_init(self):
        model = tiny_model()
        assert not model.initialized
        net = build_lossnet(0)
        cfg = TrainConfig(iterations=1, batch_size=1, crop_size=16)
        rng = np.random.default_rng(11)
        batch = (rng.random((1, 3, 16, 16)), rng.random((1, 3, 16, 16)))
        adam = AdamState.for_params(dict(model.param_items()))
        train_step(model, net, batch, cfg, adam)
        assert model.initialized

    def test_loss_trends_down_over_200_steps(self):
        model = tiny_model()
        cfg = TrainConfig(iterations=200, batch_size=2, crop_size=16, seed=0)
        log = io.StringIO()
        train(model, cfg, tiny_pairs(), lossnet=build_lossnet(0), log_stream=log)
        lines = log.getvalue().strip().split("\n")
        assert len(lines) == 200
        first_total = float(lines[0].split("\t")[3])
        last_total = float(lines[-1].split("\t")[3])
        assert last_total < first_total


class TestTrain:
    def test_zero_iterations_returns_initialized_model(self):
        model = tiny_model(seed=2)
        reference = copy_flownet(model)
        pairs = tiny_pairs(seed=3)
        cfg = TrainConfig(iterations=0, batch_size=2, crop_size=16, seed=3)
        train(model, cfg, pairs, lossnet=build_lossnet(0))
        assert model.initialized
        # Same initialization applied manually to the reference copy.
        rng = np.random.default_rng(cfg.seed)
        del rng
        cs = np.stack([pairs[0][0], pairs[1][0]])
        ss = np.stack([pairs[0][1], pairs[1][1]])
        initialize_actnorms(reference, np.concatenate([cs, ss]))
        for (na, pa), (nb, pb) in zip(model.param_items(), reference.param_items()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)

    def test_replay_is_bit_identical(self):
        cfg = TrainConfig(iterations=20, batch_size=2, crop_size=16, seed=5)

        def run():
            model = tiny_model(seed=4, n_flows=1)
            train(model, cfg, tiny_pairs(seed=6), lossnet=build_lossnet(5))
            return model

        a, b = run(), run()
        for (na, pa), (nb, pb) in zip(a.param_items(), b.param_items()):
            np.testing.assert_array_equal(pa, pb)

    def test_log_has_one_line_per_step_with_17_digits(self):
        model = tiny_model(seed=7, n_flows=1)
        cfg = TrainConfig(iterations=5, batch_size=2, crop_size=16, seed=7)
        log = io.StringIO()
        train(model, cfg, tiny_pairs(seed=8), lossnet=build_lossnet(7), log_stream=log)
        lines = log.getvalue().strip().split("\n")
        assert len(lines) == 5
        for i, line in enumerate(lines, start=1):
            parts = line.split("\t")
            assert int(parts[0]) == i
            lc, ls, lt = map(float, parts[1:])
            assert abs(lc * cfg.lambda_content + ls * cfg.lambda_style - lt) < 1e-12

    def test_empty_data_source_rejected(self):
        with pytest.raises(ShapeError):
            train(tiny_model(), TrainConfig(iterations=1), [])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize(
        "field", ["learning_rate", "lr_decay", "lambda_content", "lambda_style"]
    )
    def test_non_finite_or_negative_setting_rejected(self, field, value):
        with pytest.raises(ShapeError, match=field):
            TrainConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ShapeError, match="seed"):
            TrainConfig(seed=-1)

    def test_crop_smaller_than_image_is_seeded(self):
        model = tiny_model(seed=8, n_flows=1)
        cfg = TrainConfig(iterations=2, batch_size=1, crop_size=16, seed=9)
        pairs = tiny_pairs(n=2, shape=(3, 24, 24), seed=10)
        log = io.StringIO()
        train(model, cfg, pairs, lossnet=build_lossnet(9), log_stream=log)
        assert len(log.getvalue().strip().split("\n")) == 2


class TestGradCheckOnModel:
    def test_tiny_model_passes(self):
        model = build_flownet(FlowNetConfig(1, 1, 2, 2, 4, 4), seed=11)
        rng = np.random.default_rng(12)
        batch = (rng.random((1, 2, 4, 4)), rng.random((1, 2, 4, 4)))
        initialize_actnorms(model, np.concatenate(batch))
        cfg = TrainConfig(iterations=1, batch_size=1, crop_size=4)
        net = build_lossnet(11, 2)

        def loss_fn(m, pvars, b):
            total, _, _ = training_loss(m, pvars, b[0], b[1], cfg, net)
            return total

        report = check_model_gradients(model, loss_fn, batch)
        assert report.passed, report.failures
