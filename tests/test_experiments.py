import numpy as np
import pytest

import flowstyle.autodiff as ad
from flowstyle import flows
from flowstyle.errors import ShapeError
from flowstyle.experiments import (
    LeakReport,
    ablation_run,
    content_factor_image,
    leak_test,
    reverse_transfer,
    stylize,
)
from flowstyle.flows import (
    FlowNet,
    FlowNetConfig,
    build_flownet,
    initialize_actnorms,
    randomize_couplings,
)
from flowstyle.metrics import recon_error, ssim
from flowstyle.training import TrainConfig, build_lossnet
from flowstyle.transfer import (
    ADAIN,
    FACTORS,
    PATCHSWAP,
    WCT,
    apply_style_factor,
    channel_stats,
    transfer_apply,
)


def make_model(seed=3, n_flows=2, size=16):
    model = build_flownet(FlowNetConfig(1, n_flows, 8, 3, size, size), seed=seed)
    rng = np.random.default_rng(seed + 1)
    initialize_actnorms(model, rng.random((2, 3, size, size)))
    randomize_couplings(model, seed=seed + 2)
    return model


def images(seed=42, size=16):
    rng = np.random.default_rng(seed)
    return rng.random((1, 3, size, size)), rng.random((1, 3, size, size))


class TestStylize:
    def test_style_equals_content_is_identity(self):
        model = make_model()
        content, _ = images()
        out = stylize(model, ADAIN, content, content)
        assert np.max(np.abs(out - content)) < 1e-8

    def test_alpha_zero_is_pure_round_trip(self):
        model = make_model()
        content, style = images()
        out = stylize(model, ADAIN, content, style, alpha=0.0)
        assert np.max(np.abs(out - content)) < 1e-9

    def test_latent_stats_match_style(self):
        model = make_model()
        content, style = images()
        out = stylize(model, ADAIN, content, style)
        s_out = channel_stats(model.forward(out))
        s_style = channel_stats(model.forward(style))
        assert np.max(np.abs(s_out.mean - s_style.mean)) < 1e-9
        assert np.max(np.abs(s_out.std - s_style.std)) < 1e-9

    @pytest.mark.parametrize("alpha", ["a", None, 1j], ids=["str", "none", "complex"])
    def test_non_real_alpha_rejected(self, alpha):
        content, style = images()
        with pytest.raises(ShapeError, match="alpha"):
            stylize(make_model(), ADAIN, content, style, alpha=alpha)

    def test_indivisible_extent_gives_padding_hint(self):
        model = make_model()
        with pytest.raises(ShapeError, match="multiple"):
            stylize(model, ADAIN, np.zeros((1, 3, 15, 16)), np.zeros((1, 3, 16, 16)))

    def test_output_not_clamped(self):
        model = make_model()
        content, style = images()
        out = stylize(model, ADAIN, content, 4.0 * style - 1.5)
        assert out.min() < 0.0 or out.max() > 1.0


def count_passes(monkeypatch):
    """Count FlowNet.forward and FlowNet.inverse calls from now on."""
    calls = {"forward": 0, "inverse": 0}
    for name in calls:
        method = getattr(FlowNet, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(FlowNet, name, counted)
    return calls


class TestEncodeOnce:
    @pytest.mark.parametrize("kind", [ADAIN, WCT, PATCHSWAP], ids=lambda k: k.name)
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_leak_test_encodes_style_once(self, monkeypatch, kind, alpha):
        model = make_model()
        content, style = images()
        outs = [stylize(model, kind, content, style, alpha)]
        for _ in range(2):
            outs.append(stylize(model, kind, outs[-1], style, alpha))
        calls = count_passes(monkeypatch)
        report = leak_test(model, kind, content, style, rounds=3, alpha=alpha)
        assert calls == {"forward": 4, "inverse": 3}
        assert report.drift_vs_first == tuple(
            float(np.max(np.abs(out - outs[0]))) for out in outs
        )
        assert report.ssim_vs_first == tuple(ssim(out, outs[0]) for out in outs)

    @pytest.mark.parametrize("kind", [ADAIN, WCT], ids=lambda k: k.name)
    def test_reverse_transfer_reuses_content_latent(self, monkeypatch, kind):
        model = make_model()
        content, style = images()
        stylized = stylize(model, kind, content, style)
        recovered = stylize(model, kind, stylized, content)
        calls = count_passes(monkeypatch)
        got = reverse_transfer(model, kind, content, style)
        assert calls == {"forward": 3, "inverse": 2}
        np.testing.assert_array_equal(got[0], stylized)
        np.testing.assert_array_equal(got[1], recovered)


class TestLeakTest:
    def test_single_round_is_exact_by_definition(self):
        model = make_model()
        content, style = images()
        report = leak_test(model, ADAIN, content, style, rounds=1)
        assert report.ssim_vs_first == (1.0,)
        assert report.drift_vs_first == (0.0,)

    def test_adain_twenty_rounds_drift_below_tolerance(self):
        model = make_model()
        content, style = images()
        report = leak_test(model, ADAIN, content, style, rounds=20)
        assert report.max_drift < 1e-4
        assert min(report.ssim_vs_first) > 0.999

    def test_wct_twenty_rounds_drift_below_tolerance(self):
        model = make_model()
        content, style = images()
        report = leak_test(model, WCT, content, style, rounds=20)
        assert report.max_drift < 1e-4

    def test_patchswap_drift_grows(self):
        model = make_model(seed=5)
        content, style = images()
        report = leak_test(model, PATCHSWAP, content, style, rounds=20)
        assert report.drift_vs_first[19] > report.drift_vs_first[1]

    def test_zero_rounds_rejected(self):
        model = make_model()
        content, style = images()
        with pytest.raises(ShapeError):
            leak_test(model, ADAIN, content, style, rounds=0)

    def test_report_lines_format(self):
        report = LeakReport(2, (1.0, 0.9), (0.0, 0.1))
        lines = report.lines().strip().split("\n")
        assert lines[0] == "round\tssim\tdrift"
        assert lines[1].startswith("1\t1\t0")


class TestReverseTransfer:
    def test_content_equals_style_identity_chain(self):
        model = make_model()
        content, _ = images()
        stylized, recovered = reverse_transfer(model, ADAIN, content, content)
        assert np.max(np.abs(stylized - content)) < 1e-8
        assert np.max(np.abs(recovered - content)) < 1e-8

    def test_adain_recovery(self):
        model = make_model()
        content, style = images()
        _, recovered = reverse_transfer(model, ADAIN, content, style)
        assert np.max(np.abs(recovered - content)) < 1e-6

    def test_wct_recovery(self):
        model = make_model()
        content, style = images()
        _, recovered = reverse_transfer(model, WCT, content, style)
        assert np.max(np.abs(recovered - content)) < 1e-4

    def test_patchswap_rejected(self):
        model = make_model()
        content, style = images()
        with pytest.raises(ShapeError):
            reverse_transfer(model, PATCHSWAP, content, style)


class TestContentFactorImage:
    def test_neutral_latent_is_fixed_point(self):
        model = make_model()
        content, _ = images()
        once = content_factor_image(model, ADAIN, content)
        twice = content_factor_image(model, ADAIN, once)
        assert np.max(np.abs(twice - once)) < 1e-9

    def test_restyling_recovers_content(self):
        model = make_model()
        content, _ = images()
        latent = model.forward(content)
        style_factor = channel_stats(latent)
        factor_img = content_factor_image(model, ADAIN, content)
        recombined = model.inverse(
            apply_style_factor(model.forward(factor_img), style_factor)
        )
        assert np.max(np.abs(recombined - content)) < 1e-6

    def test_wct_variant_runs(self):
        model = make_model()
        content, _ = images()
        out = content_factor_image(model, WCT, content)
        assert out.shape == content.shape
        assert np.isfinite(out).all()


class TestAblationRun:
    def test_empty_config_list_gives_header_only(self):
        cfg = TrainConfig(iterations=0, batch_size=1, crop_size=16)
        table = ablation_run([], [], [], cfg)
        assert table == "config\trecon_error\tssim\tgram_loss\n"

    def test_two_architectures_table(self):
        rng = np.random.default_rng(0)
        pairs = [(rng.random((3, 16, 16)), rng.random((3, 16, 16))) for _ in range(2)]
        eval_pairs = [(rng.random((3, 16, 16)), rng.random((3, 16, 16)))]
        cfg = TrainConfig(iterations=2, batch_size=1, crop_size=16, seed=1)
        configs = [
            FlowNetConfig(1, 1, 4, 3, 16, 16),
            FlowNetConfig(2, 1, 4, 3, 16, 16),
        ]
        table = ablation_run(configs, pairs, eval_pairs, cfg, lossnet=build_lossnet(1))
        lines = table.strip().split("\n")
        assert lines[0] == "config\trecon_error\tssim\tgram_loss"
        assert lines[1].startswith("flow1-block1\t")
        assert lines[2].startswith("flow1-block2\t")
        for line in lines[1:]:
            recon = float(line.split("\t")[1])
            assert recon < 1e-9


NON_INTEGER_COUNTS = {
    "rounds": lambda: leak_test(make_model(), ADAIN, *images(), rounds=2.5),
    "iterations": lambda: TrainConfig(iterations=2.5),
    "batch_size": lambda: TrainConfig(batch_size=1.5),
    "crop_size": lambda: TrainConfig(crop_size=16.0),
    "seed": lambda: TrainConfig(seed=1.5),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_COUNTS))
def test_non_integer_count_rejected(name):
    """A count that is not an integer is a ShapeError naming the count."""
    with pytest.raises(ShapeError, match=f"{name} must be an integer"):
        NON_INTEGER_COUNTS[name]()


class TestOneInversePerCall:
    """The decode walks of one leak_test or reverse_transfer call share one
    inverse of each invconv weight, with the outputs of walks that each
    invert their own."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        inverse = flows.mat_inverse

        def call(w):
            calls.append(w)
            return inverse(w)

        monkeypatch.setattr(flows, "mat_inverse", call)
        return calls

    @pytest.mark.parametrize("kind", [ADAIN, WCT, PATCHSWAP], ids=lambda k: k.name)
    def test_leak_test(self, kind, monkeypatch):
        model = make_model(n_flows=3)
        content, style = images()
        f_s = model.forward(style)
        outputs, current = [], content
        for _ in range(3):
            current = model.inverse(transfer_apply(kind, model.forward(current), f_s))
            outputs.append(current)
        calls = self.counted(monkeypatch)
        report = leak_test(model, kind, content, style, rounds=3)
        assert len(calls) == sum(layer.kind == "invconv" for layer in model.layers) == 3
        assert report.ssim_vs_first == tuple(ssim(out, outputs[0]) for out in outputs)
        assert report.drift_vs_first == tuple(
            float(np.max(np.abs(out - outputs[0]))) for out in outputs
        )

    @pytest.mark.parametrize("kind", [ADAIN, WCT], ids=lambda k: k.name)
    def test_reverse_transfer(self, kind, monkeypatch):
        model = make_model(n_flows=3)
        content, style = images()
        f_c = model.forward(content)
        stylized = model.inverse(transfer_apply(kind, f_c, model.forward(style)))
        recovered = model.inverse(transfer_apply(kind, model.forward(stylized), f_c))
        calls = self.counted(monkeypatch)
        got = reverse_transfer(model, kind, content, style)
        assert len(calls) == 3
        np.testing.assert_array_equal(got[0], stylized)
        np.testing.assert_array_equal(got[1], recovered)


def separate_leak_test(model, kind, content, style, rounds):
    f_s = model.forward(style)
    outputs, current = [], content
    for _ in range(rounds):
        current = model.inverse(transfer_apply(kind, model.forward(current), f_s))
        outputs.append(current)
    return LeakReport(
        rounds,
        tuple(ssim(out, outputs[0]) for out in outputs),
        tuple(float(np.max(np.abs(out - outputs[0]))) for out in outputs),
    )


# Each call, and the same result from walks that each make their own scratch.
ONE_SCRATCH_CALLS = {
    "stylize": (
        lambda m, c, s: stylize(m, WCT, c, s),
        lambda m, c, s: m.inverse(transfer_apply(WCT, m.forward(c), m.forward(s))),
    ),
    "leak_test": (
        lambda m, c, s: leak_test(m, ADAIN, c, s, rounds=3),
        lambda m, c, s: separate_leak_test(m, ADAIN, c, s, 3),
    ),
    "reverse_transfer": (
        lambda m, c, s: reverse_transfer(m, ADAIN, c, s),
        lambda m, c, s: (
            stylized := m.inverse(transfer_apply(ADAIN, m.forward(c), m.forward(s))),
            m.inverse(transfer_apply(ADAIN, m.forward(stylized), m.forward(c))),
        ),
    ),
    "content_factor_image": (
        lambda m, c, s: content_factor_image(m, WCT, c),
        lambda m, c, s: m.inverse(FACTORS["wct"][0](m.forward(c))),
    ),
    "recon_error": (
        lambda m, c, s: recon_error(m, c),
        lambda m, c, s: float(np.max(np.abs(m.inverse(m.forward(c)) - c))),
    ),
}


class TestOneScratchPerCall:
    """The walks of one call write into one scratch; the call returns
    what walks that each make their own give, and nothing it returns is
    scratch memory."""

    @pytest.mark.parametrize("entry", sorted(ONE_SCRATCH_CALLS))
    def test_call_equals_separate_walks(self, entry, monkeypatch):
        model = build_flownet(FlowNetConfig(2, 2, 8, 3, 16, 16), seed=5)
        initialize_actnorms(model, np.random.default_rng(6).random((2, 3, 16, 16)))
        randomize_couplings(model, seed=7)
        content, style = images()
        call, separate = ONE_SCRATCH_CALLS[entry]
        want = separate(model, content, style)
        scratches, take = [], ad._Scratch.take

        def recorded(scratch, name, shape):
            if not any(s is scratch for s in scratches):
                scratches.append(scratch)
            return take(scratch, name, shape)

        monkeypatch.setattr(ad._Scratch, "take", recorded)
        got = call(model, content, style)
        assert len(scratches) == 1
        if isinstance(want, LeakReport):
            assert got == want
            return
        for g, w in zip(got, want) if isinstance(want, tuple) else [(got, want)]:
            np.testing.assert_array_equal(g, w)
            for buf in scratches[0]._flat.values():
                assert not np.shares_memory(g, buf)
