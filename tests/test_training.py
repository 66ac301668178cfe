import gc
import io
import weakref

import numpy as np
import pytest
from loss_oracles import (
    adain_reference,
    content_term_reference,
    style_term_reference,
)

import flowstyle.autodiff as ad
from flowstyle.errors import NumericError, ShapeError
from flowstyle import flows, linalg, training
from flowstyle.flows import (
    FlowNet,
    FlowNetConfig,
    build_flownet,
    copy_flownet,
    initialize_actnorms,
    named_config,
    randomize_couplings,
)
from flowstyle.training import (
    AdamState,
    LossNet,
    TrainConfig,
    adain_traced,
    adam_update,
    build_lossnet,
    content_loss,
    style_loss,
    train,
    train_step,
    training_loss,
    transfer_target,
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

    def test_var_in_gives_vars_and_losses_out(self):
        net = build_lossnet(0)
        rng = np.random.default_rng(9)
        img, style = rng.random((1, 3, 16, 16)), rng.random((1, 3, 16, 16))
        tape = ad.Tape()
        feats = net.features(ad.Var(img, tape))
        assert all(isinstance(f, ad.Var) and f.tape is tape for f in feats)
        for got, want in zip(feats, net.features(img)):
            np.testing.assert_array_equal(got.data, want)
        target = net.top_feature(style)
        for loss, args in ((content_loss, (target,)), (style_loss, (style,))):
            plain = loss(img, *args, net)
            traced = loss(ad.Var(img, tape), *args, net)
            assert type(plain) is float and isinstance(traced, ad.Var)
            assert float(traced.data) == plain

    def test_parameters_frozen(self):
        net = build_lossnet(0)
        with pytest.raises(ValueError):
            net.kernels[0][0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("widths", [(), (4, 0), (-1,), (2.5,), (4.0,), ("4",), 4, (True,)])
    def test_bad_widths_rejected(self, widths):
        with pytest.raises(ShapeError, match="width|stage"):
            build_lossnet(0, widths=widths)

    def test_integer_widths_of_any_type_accepted(self):
        net = build_lossnet(0, widths=(np.int64(4), 2))
        assert [k.shape[0] for k in net.kernels] == [4, 2]

    def test_lossnet_needs_a_stage(self):
        with pytest.raises(ShapeError, match="stage"):
            LossNet([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_raises_numeric_error(self, bad):
        net = build_lossnet(0)
        img = np.random.default_rng(0).random((1, 3, 16, 16))
        img[0, 1, 2, 3] = bad
        for image in (img, ad.Var(img, ad.Tape())):
            with pytest.raises(NumericError, match="NaN or infinite"):
                net.features(image)
        target = net.top_feature(np.zeros((1, 3, 16, 16)))
        with pytest.raises(NumericError, match="NaN or infinite"):
            content_loss(img, target, net)
        for pair in ((img, np.zeros_like(img)), (np.zeros_like(img), img)):
            with pytest.raises(NumericError, match="NaN or infinite"):
                style_loss(*pair, net)


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

    @pytest.mark.parametrize("shape", [(1, 64, 1, 1), (2, 64, 2, 2), (64,)])
    def test_target_of_another_shape_rejected(self, shape):
        net = build_lossnet(3)
        img = np.random.default_rng(3).random((2, 3, 16, 16))
        with pytest.raises(ShapeError, match=r"\(2, 64, 1, 1\)"):
            content_loss(img, np.zeros(shape), net)

    def test_var_target_rejected(self):
        net = build_lossnet(3)
        img = np.random.default_rng(3).random((1, 3, 16, 16))
        target = ad.Var(net.top_feature(img), ad.Tape())
        with pytest.raises(ShapeError, match="not an autodiff Var"):
            content_loss(img, target, net)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        net = build_lossnet(3)
        img = np.random.default_rng(3).random((1, 3, 16, 16))
        target = net.top_feature(img)
        target[0, 5, 0, 0] = bad
        with pytest.raises(NumericError, match="content target"):
            content_loss(img, target, net)

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
        net = LossNet([k], [np.array([1.0, 1.0])])
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
        out = adain_traced(fc, fs)
        np.testing.assert_allclose(out, adain(fc, fs), atol=1e-12)

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

    def test_moments_update_in_place_with_out_of_place_bits(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal((3, 4))
        state = AdamState(m={"p": rng.standard_normal((3, 4))},
                          v={"p": rng.random((3, 4))}, step=2)
        m, v = state.m["p"], state.v["p"]
        g = rng.standard_normal((3, 4))
        want_m = 0.9 * m + (1.0 - 0.9) * g
        want_v = 0.999 * v + (1.0 - 0.999) * g * g
        adam_update({"p": p}, {"p": g}, state, lr=0.01)
        assert state.m["p"] is m and state.v["p"] is v
        np.testing.assert_array_equal(m, want_m)
        np.testing.assert_array_equal(v, want_v)

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
        adam = AdamState.for_params(model.params)
        before = {n: a.copy() for n, a in model.params.items()}
        train_step(model, net, batch, cfg, adam)
        for name, arr in model.params.items():
            np.testing.assert_array_equal(arr, before[name])

    def test_first_batch_triggers_actnorm_init(self):
        model = tiny_model()
        assert not model.initialized
        net = build_lossnet(0)
        cfg = TrainConfig(iterations=1, batch_size=1, crop_size=16)
        rng = np.random.default_rng(11)
        batch = (rng.random((1, 3, 16, 16)), rng.random((1, 3, 16, 16)))
        adam = AdamState.for_params(model.params)
        train_step(model, net, batch, cfg, adam)
        assert model.initialized

    def test_step_frees_its_tape_without_gc(self, monkeypatch):
        refs = []

        class RecordedTape(ad.Tape):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

        monkeypatch.setattr(ad, "Tape", RecordedTape)
        model = tiny_model()
        cfg = TrainConfig(iterations=1, batch_size=2, crop_size=16)
        rng = np.random.default_rng(12)
        batch = (rng.random((2, 3, 16, 16)), rng.random((2, 3, 16, 16)))
        gc.disable()
        try:
            train_step(model, build_lossnet(0), batch, cfg, AdamState.for_params(model.params))
            assert len(refs) == 1 and refs[0]() is None
        finally:
            gc.enable()

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


class TestLazyGradients:
    def test_bits_equal_eager_zero_buffers(self):
        model = tiny_model()
        cfg = TrainConfig(iterations=1, batch_size=2, crop_size=16)
        rng = np.random.default_rng(13)
        content, style = rng.random((2, 3, 16, 16)), rng.random((2, 3, 16, 16))
        initialize_actnorms(model, np.concatenate([content, style]))
        net = build_lossnet(0)

        def gradients(eager):
            tape = ad.Tape()
            pvars = {name: ad.Var(arr, tape) for name, arr in model.params.items()}
            total, _, _ = training_loss(model, pvars, content, style, cfg, net)
            for var in pvars.values():
                np.testing.assert_array_equal(var.grad, np.zeros_like(var.data))
            leaves = {id(var) for var in pvars.values()}
            for node in tape.nodes:
                assert all(out.grad is None for out in node.outs)
                for var in node.inputs:
                    if eager and id(var) not in leaves:
                        var.grad = np.zeros_like(var.data)
            ad.backward(total)
            return {name: var.grad for name, var in pvars.items()}

        lazy, eager = gradients(eager=False), gradients(eager=True)
        for name in model.params:
            np.testing.assert_array_equal(lazy[name], eager[name])


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
        for (na, pa), (nb, pb) in zip(model.params.items(), reference.params.items()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)

    def test_replay_is_bit_identical(self):
        cfg = TrainConfig(iterations=20, batch_size=2, crop_size=16, seed=5)

        def run():
            model = tiny_model(seed=4, n_flows=1)
            train(model, cfg, tiny_pairs(seed=6), lossnet=build_lossnet(5))
            return model

        a, b = run(), run()
        for (na, pa), (nb, pb) in zip(a.params.items(), b.params.items()):
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0, True])
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

        def loss_fn(pvars):
            total, _, _ = training_loss(model, pvars, batch[0], batch[1], cfg, net)
            return total

        report = ad.grad_check(model.params, loss_fn)
        assert report.passed, report.failures


def reference_loss(model, params, content, style, cfg, lossnet):
    """``training_loss`` composed from its public parts: one encode walk
    per image batch, ``transfer_target``, ``content_loss`` and
    ``style_loss``."""
    f_c = model.forward(content, params=params)
    f_s = model.forward(style, params=params)
    decoded = model.inverse(adain(f_c, f_s), params=params)
    target = transfer_target(lossnet, content, style)
    l_c = content_loss(decoded, target, lossnet)
    l_s = style_loss(decoded, style, lossnet)
    total = ad.add(ad.mul(l_c, cfg.lambda_content), ad.mul(l_s, cfg.lambda_style))
    return total, l_c, l_s


def step_setup(shape, batches=(2, 2)):
    """An initialized model with random couplings, a content and a style
    batch and the LossNet, at the train-tiny or the crop-32 shape."""
    if shape == "train-tiny":
        config = FlowNetConfig(1, 2, 8, 3, 16, 16)
    else:
        config = named_config("flow8-block2", in_height=32, in_width=32)
    model = build_flownet(config, seed=20)
    rng = np.random.default_rng(21)
    extent = config.in_height
    content, style = (rng.random((b, 3, extent, extent)) for b in batches)
    initialize_actnorms(model, np.concatenate([content, style]))
    randomize_couplings(model, seed=22)
    return model, content, style, build_lossnet(0)


def taped_loss(loss, model, content, style, lossnet):
    """Taped total of ``loss``, its tape and the parameters' gradients."""
    tape = ad.Tape()
    pvars = {name: ad.Var(arr, tape) for name, arr in model.params.items()}
    total, _, _ = loss(model, pvars, content, style, TrainConfig(iterations=1), lossnet)
    ops = [node.op for node in tape.nodes]
    ad.backward(total)
    return float(total.data), ops, {name: var.grad for name, var in pvars.items()}


class TestStepShape:
    """A step is one stacked encode walk, one decode walk and three
    LossNet passes, with the values of its public parts."""

    @pytest.mark.parametrize("batches", [(2, 2), (1, 3)], ids=["same", "mixed"])
    @pytest.mark.parametrize("shape", ["train-tiny", "crop-32"])
    def test_losses_equal_public_parts(self, shape, batches):
        model, content, style, net = step_setup(shape, batches)
        cfg = TrainConfig(iterations=1)
        got = training_loss(model, model.params, content, style, cfg, net)
        want = reference_loss(model, model.params, content, style, cfg, net)
        assert [float(v) for v in got] == [float(v) for v in want]
        assert type(got[1]) is float and type(got[2]) is float

    @pytest.mark.parametrize("shape", ["train-tiny", "crop-32"])
    def test_taped_total_and_gradients_match_public_parts(self, shape):
        model, content, style, net = step_setup(shape)
        total, _, grads = taped_loss(training_loss, model, content, style, net)
        want_total, _, want = taped_loss(reference_loss, model, content, style, net)
        assert total == want_total
        # Against the largest gradient over all parameters: some are zero
        # up to rounding (the last coupling's bias is about 3e-17).
        scale = max(float(np.max(np.abs(g))) for g in want.values())
        for name, grad in want.items():
            np.testing.assert_allclose(
                grads[name], grad, rtol=0.0, atol=1e-12 * scale, err_msg=name
            )

    def test_tape_holds_two_walks_and_the_decoded_images_lossnet(self):
        model, content, style, net = step_setup("train-tiny")
        _, ops, _ = taped_loss(training_loss, model, content, style, net)
        assert ops.count("walk") == 2
        assert ops.count("conv2d") == len(net.kernels) == 4

    def test_walks_lossnet_passes_and_inverses_per_call(self, monkeypatch):
        model, content, style, net = step_setup("train-tiny")
        calls = {"walk": 0, "features": 0, "mat_inverse": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(FlowNet, "_walk", counted("walk", FlowNet._walk))
        monkeypatch.setattr(LossNet, "features", counted("features", LossNet.features))
        monkeypatch.setattr(flows, "mat_inverse", counted("mat_inverse", flows.mat_inverse))
        taped_loss(training_loss, model, content, style, net)
        invconvs = sum(layer.kind == "invconv" for layer in model.layers)
        assert calls == {"walk": 2, "features": 2, "mat_inverse": invconvs}

    def test_400_step_runs_replay_bit_for_bit(self):
        cfg = TrainConfig(iterations=400, batch_size=2, crop_size=16, seed=23)

        def run():
            model, log = tiny_model(seed=24), io.StringIO()
            train(model, cfg, tiny_pairs(seed=25), lossnet=build_lossnet(0), log_stream=log)
            return model, log.getvalue()

        (a, log_a), (b, log_b) = run(), run()
        assert log_a == log_b and len(log_a.splitlines()) == 400
        for name, param in a.params.items():
            np.testing.assert_array_equal(param, b.params[name])


def per_op_losses(monkeypatch):
    """Make ``training_loss`` build AdaIN and both loss terms per op."""
    monkeypatch.setattr(training, "_adain", adain_reference)
    monkeypatch.setattr(training, "_style_term", style_term_reference)
    monkeypatch.setattr(training, "_content_term", content_term_reference)


def assert_grads_close(got, want, rel=1e-12):
    """Each gradient within ``rel`` of the largest gradient of ``want``."""
    scale = max(float(np.max(np.abs(g), initial=0.0)) for g in want.values())
    for name, grad in want.items():
        assert np.isfinite(got[name]).all(), name
        np.testing.assert_allclose(got[name], grad, rtol=0.0, atol=rel * scale, err_msg=name)


def probed(fn, arrays, taped, probe_seed=0):
    """Value, tape ops and gradients of ``sum(fn(*inputs) * probe)`` where
    the inputs named by ``taped`` are Vars (through an op, so they start
    without a gradient) and the rest arrays."""
    tape = ad.Tape()
    leaves = {n: ad.Var(a, tape) for n, a in arrays.items()}
    inputs = [ad.mul(leaves[n], 1.0) if n in taped else a for n, a in arrays.items()]
    out = fn(*inputs)
    ops = [node.op for node in tape.nodes if node.op != "mul"]
    probe = np.random.default_rng(probe_seed).standard_normal(out.shape)
    ad.backward(ad.sum_all(ad.mul(out, probe)))
    return out.data, ops, {n: leaves[n].grad for n in taped}


def constant_channel(f, c, spread=0.0):
    """``f`` with channel ``c`` at 0.25, plus ``spread`` times its old
    values: a raw std of 0, or of about ``spread``."""
    f = f.copy()
    f[:, c] = 0.25 + spread * f[:, c]
    return f


class TestLossNodes:
    """AdaIN, the style term and the content term are one tape node each,
    with the values of their per-op graphs and their gradients up to
    rounding."""

    @pytest.mark.parametrize("shape", ["train-tiny", "crop-32"])
    def test_step_equals_per_op_losses(self, shape, monkeypatch):
        model, content, style, net = step_setup(shape)
        total, ops, grads = taped_loss(training_loss, model, content, style, net)
        per_op_losses(monkeypatch)
        want_total, want_ops, want = taped_loss(training_loss, model, content, style, net)
        assert total == want_total
        assert_grads_close(grads, want)
        assert ops == ["walk", "split_batch", "adain", "walk"] + ["conv2d"] * 4 + [
            "content_term", "style_term", "mul", "mul", "add"
        ]
        assert len(want_ops) == 103

    @pytest.mark.parametrize("taped", [("fc", "fs"), ("fc",), ("fs",)])
    @pytest.mark.parametrize("case", ["random", "constant content channel",
                                      "floored content std", "floored style std"])
    def test_adain_node_equals_per_op_graph(self, case, taped):
        rng = np.random.default_rng(30)
        f_c = rng.standard_normal((2, 4, 3, 5)) * 2.0 + 1.0
        f_s = rng.standard_normal((1, 4, 4, 4)) - 0.5
        if case == "constant content channel":
            f_c = constant_channel(f_c, 1)
        elif case == "floored content std":
            f_c = constant_channel(f_c, 1, spread=1e-8)
        elif case == "floored style std":
            f_s = constant_channel(f_s, 2, spread=1e-8)
        arrays = {"fc": f_c, "fs": f_s}
        out, ops, grads = probed(adain, arrays, taped)
        want_out, _, want = probed(adain_reference, arrays, taped)
        assert ops == ["adain"]
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(adain(f_c, f_s), want_out)
        assert_grads_close(grads, want)

    @staticmethod
    def stage_features(seed, equal=False, spread=None):
        net = build_lossnet(0, widths=(6, 5))
        rng = np.random.default_rng(seed)
        image, style = rng.random((2, 3, 16, 16)), rng.random((1, 3, 16, 16))
        feats = net.features(style if equal else image)
        if spread is not None:
            feats[0] = constant_channel(feats[0], 3, spread)
        return {f"f{i}": f for i, f in enumerate(feats)}, net.features(style)

    @pytest.mark.parametrize("case", ["random", "constant channel", "floored std",
                                      "equal to style"])
    def test_style_term_node_equals_per_op_graph(self, case):
        spread = {"constant channel": 0.0, "floored std": 1e-8}.get(case)
        feats, style_feats = self.stage_features(33, case == "equal to style", spread)

        def term(fn):
            return lambda *fs: ad.reshape(fn(list(fs), style_feats), (1,))

        out, ops, grads = probed(term(training._style_term), feats, tuple(feats))
        want_out, _, want = probed(term(style_term_reference), feats, tuple(feats))
        assert ops == ["style_term", "reshape"]
        assert out == want_out
        assert training._style_term(list(feats.values()), style_feats) == float(want_out[0])
        if case == "equal to style":
            # Every norm is 0: its subgradient is 0, as autodiff.sqrt's.
            assert out[0] == 0.0
            for grad in grads.values():
                np.testing.assert_array_equal(grad, np.zeros_like(grad))
        else:
            assert_grads_close(grads, want)

    def test_style_term_differentiates_the_style_side(self):
        feats, style_feats = self.stage_features(34)
        arrays = {**feats, **{f"s{i}": f for i, f in enumerate(style_feats)}}

        def term(fn):
            return lambda a0, a1, s0, s1: ad.reshape(fn([a0, a1], [s0, s1]), (1,))

        _, _, grads = probed(term(training._style_term), arrays, tuple(arrays))
        _, _, want = probed(term(style_term_reference), arrays, tuple(arrays))
        assert_grads_close(grads, want)

    @pytest.mark.parametrize("case", ["random", "equal to target"])
    def test_content_term_node_equals_per_op_graph(self, case):
        rng = np.random.default_rng(35)
        top = rng.standard_normal((2, 6, 2, 2))
        target = top.copy() if case == "equal to target" else rng.standard_normal(top.shape)

        def term(fn):
            return lambda x: ad.reshape(fn(x, target), (1,))

        out, ops, grads = probed(term(training._content_term), {"x": top}, ("x",))
        want_out, _, want = probed(term(content_term_reference), {"x": top}, ("x",))
        assert ops == ["content_term", "reshape"]
        assert out == want_out
        if case == "equal to target":
            assert out[0] == 0.0
            np.testing.assert_array_equal(grads["x"], np.zeros_like(top))
        else:
            assert_grads_close(grads, want)

    @pytest.mark.parametrize("taped", [("fc", "fs"), ("fc",), ("fs",)])
    def test_adain_passes_grad_check(self, taped):
        rng = np.random.default_rng(36)
        params = {"fc": rng.standard_normal((2, 3, 3, 3)),
                  "fs": 2.0 * rng.standard_normal((1, 3, 4, 3)) + 1.0}
        fixed = {n: a.copy() for n, a in params.items() if n not in taped}
        # A probe, since sum(out * out) does not depend on the content.
        probe = rng.standard_normal(params["fc"].shape)

        def build(p):
            out = adain(*(fixed.get(n, p.get(n)) for n in ("fc", "fs")))
            return ad.sum_all(ad.mul(ad.mul(out, out), probe))

        report = ad.grad_check({n: params[n] for n in taped}, build)
        assert report.passed, report.failures

    def test_style_term_passes_grad_check(self):
        feats, style_feats = self.stage_features(37)

        def build(p):
            return training._style_term([p["f0"], p["f1"]], style_feats)

        report = ad.grad_check(feats, build)
        assert report.passed, report.failures

    def test_content_term_passes_grad_check(self):
        rng = np.random.default_rng(38)
        target = rng.standard_normal((1, 4, 2, 2))
        report = ad.grad_check({"x": rng.standard_normal(target.shape)},
                               lambda p: training._content_term(p["x"], target))
        assert report.passed, report.failures


class TestMalformedTrainingData:
    def test_channel_mismatch_names_both_shapes(self):
        rng = np.random.default_rng(26)
        pairs = [(rng.random((3, 16, 16)), rng.random((1, 16, 16)))]
        with pytest.raises(ShapeError, match=r"\(3, 16, 16\).*\(1, 16, 16\)"):
            train(tiny_model(), TrainConfig(iterations=1, crop_size=16), pairs)

    def test_pairs_must_share_a_channel_count(self):
        rng = np.random.default_rng(27)
        pairs = [
            (rng.random((3, 16, 16)), rng.random((3, 16, 16))),
            (rng.random((1, 16, 16)), rng.random((1, 16, 16))),
        ]
        with pytest.raises(ShapeError, match="pair 1"):
            train(tiny_model(), TrainConfig(iterations=1, crop_size=16), pairs)

    @pytest.mark.parametrize("item", [
        np.zeros((3, 16, 16)), (np.zeros((3, 16, 16)),) * 3, 7,
    ], ids=["image", "triple", "number"])
    def test_non_pair_rejected(self, item):
        pairs = [(np.zeros((3, 16, 16)), np.zeros((3, 16, 16))), item]
        with pytest.raises(ShapeError, match="pair 1 is not"):
            train(tiny_model(), TrainConfig(iterations=1, crop_size=16), pairs)

    @pytest.mark.parametrize("style_shape", [(2, 3, 8, 8), (2, 1, 16, 16)])
    def test_training_loss_needs_one_chw(self, style_shape):
        model, content, _, net = step_setup("train-tiny")
        style = np.zeros(style_shape)
        with pytest.raises(ShapeError, match=r"\(2, 3, 16, 16\)"):
            training_loss(model, model.params, content, style, TrainConfig(), net)

    def test_training_loss_takes_image_arrays(self):
        model, content, style, net = step_setup("train-tiny")
        with pytest.raises(ShapeError, match="content images must be arrays"):
            training_loss(model, model.params, ad.Var(content, ad.Tape()), style,
                          TrainConfig(), net)

    def test_train_step_checks_before_concatenating(self):
        model, net = tiny_model(), build_lossnet(0)
        batch = (np.zeros((2, 3, 16, 16)), np.zeros((2, 1, 16, 16)))
        with pytest.raises(ShapeError, match=r"\(2, 1, 16, 16\)"):
            train_step(model, net, batch, TrainConfig(), AdamState.for_params(model.params))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["content", "style"])
    def test_non_finite_image_raises_numeric_error(self, which, bad):
        pairs = tiny_pairs(n=2)
        image = pairs[1][which == "style"]
        image[1, 2, 3] = bad
        with pytest.raises(NumericError, match=f"{which} image of pair 1"):
            train(tiny_model(), TrainConfig(iterations=1, crop_size=16), pairs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_actnorm_batch_raises_numeric_error(self, bad):
        model = tiny_model()
        batch = np.random.default_rng(28).random((2, 3, 16, 16))
        batch[0, 0, 0, 0] = bad
        with pytest.raises(NumericError, match="NaN or infinite"):
            initialize_actnorms(model, batch)
        assert not model.initialized


class TestOneCheckAndOneThreadBlockPerPass:
    """A training step checks each value once, at its public entry, and
    sets the BLAS threads once per walk, walk backward and LossNet pass."""

    def test_lossnet_rejects_a_broken_chain_on_construction(self):
        k1, k2 = np.zeros((4, 3, 3, 3)), np.zeros((2, 5, 3, 3))
        with pytest.raises(ShapeError, match="channels"):
            LossNet([k1, k2], [np.zeros(4), np.zeros(2)])

    @pytest.mark.parametrize("image", [np.zeros((1, 2, 8, 8)), np.zeros((1, 3, 1, 1))],
                             ids=["channels", "smaller than a kernel"])
    def test_lossnet_rejects_an_image_it_cannot_take_before_any_stage(self, image,
                                                                     monkeypatch):
        net = LossNet([np.zeros((4, 3, 5, 5))], [np.zeros(4)])
        monkeypatch.setattr(ad, "_conv2d", None)
        with pytest.raises(ShapeError):
            net.features(image)

    @pytest.mark.parametrize("taped", [False, True])
    def test_lossnet_features_equal_public_conv2d_stages(self, taped):
        net = build_lossnet(3)
        image = np.random.default_rng(4).random((2, 3, 16, 16))
        tape = ad.Tape()
        want, got = image, net.features(ad.Var(image, tape) if taped else image)
        for feat, k, b in zip(got, net.kernels, net.biases):
            want = ad.conv2d(want, k, b, stride=2, pad=1, relu=True)
            assert ad._data(feat).tobytes() == want.tobytes()

    def test_training_loss_runs_no_public_conv2d_or_adain(self, monkeypatch):
        model, content, style, net = step_setup("train-tiny")
        want = taped_loss(training_loss, model, content, style, net)
        for owner, name in ((ad, "conv2d"), (training, "adain")):
            monkeypatch.setattr(owner, name, None)
        got = taped_loss(training_loss, model, content, style, net)
        assert got[:2] == want[:2]
        for name, grad in want[2].items():
            assert got[2][name].tobytes() == grad.tobytes(), name

    def test_train_step_skips_the_override_check_that_training_loss_keeps(self, monkeypatch):
        model, content, style, net = step_setup("train-tiny")
        checked = []
        as_feature = flows.as_feature

        def counted(name, *args, **kwargs):
            checked.append(name)
            return as_feature(name, *args, **kwargs)

        monkeypatch.setattr(flows, "as_feature", counted)
        train_step(model, net, (content, style), TrainConfig(), AdamState.for_params(model.params))
        assert [n for n in checked if n in model.params] == []
        training_loss(model, model.params, content, style, TrainConfig(), net)
        assert [n for n in checked if n in model.params] == list(model.params)

    def test_train_tiny_step_sets_blas_threads_once_per_pass(self, monkeypatch):
        """2 walks, their 2 backwards and 2 LossNet passes enter one block
        each, and so does the backward of each of the decoded image's 4
        LossNet conv2d nodes: 10 blocks, 62 when every conv entered one.
        Each block reads the count once and sets it twice."""
        model, content, style, net = step_setup("train-tiny")
        adam, cfg = AdamState.for_params(model.params), TrainConfig()
        train_step(model, net, (content, style), cfg, adam)
        calls, count = [], [2]

        def get():
            calls.append("get")
            return count[0]

        def set_(n):
            calls.append("set")
            count[0] = n

        monkeypatch.setattr(linalg, "_openblas_thread_calls", lambda: (get, set_))
        train_step(model, net, (content, style), cfg, adam)
        assert calls.count("get") == 10 and calls.count("set") == 20
        assert count[0] == 2 and linalg._one_thread_depth == 0
