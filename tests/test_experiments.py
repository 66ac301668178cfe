import numpy as np
import pytest

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
    FlowNetConfig,
    build_flownet,
    initialize_actnorms,
    randomize_couplings,
)
from flowstyle.training import TrainConfig, build_lossnet
from flowstyle.transfer import (
    ADAIN,
    PATCHSWAP,
    WCT,
    apply_style_factor,
    channel_stats,
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

    def test_indivisible_extent_gives_padding_hint(self):
        model = make_model()
        with pytest.raises(ShapeError, match="multiple"):
            stylize(model, ADAIN, np.zeros((1, 3, 15, 16)), np.zeros((1, 3, 16, 16)))

    def test_output_not_clamped(self):
        model = make_model()
        content, style = images()
        out = stylize(model, ADAIN, content, 4.0 * style - 1.5)
        assert out.min() < 0.0 or out.max() > 1.0


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
