import numpy as np
import pytest

from flowstyle.errors import NumericError, ShapeError
from flowstyle.flows import FlowNetConfig, build_flownet, initialize_actnorms, randomize_couplings
from flowstyle.metrics import (
    MetricReport,
    evaluate_stylization,
    feature_distance,
    gram_loss,
    gram_matrices,
    recon_error,
    ssim,
)
from flowstyle.training import LossNet, build_lossnet

C1 = 0.01**2
C2 = 0.03**2


def image(seed, shape=(1, 3, 16, 16)):
    return np.random.default_rng(seed).random(shape)


class TestSsim:
    def test_identical_images_score_exactly_one(self):
        a = image(0)
        assert ssim(a, a) == 1.0

    def test_constant_images_hand_value(self):
        a = np.zeros((1, 1, 11, 11))
        b = np.ones((1, 1, 11, 11))
        # mu = (0, 1), variances and covariance 0:
        expect = (C1 * C2) / ((0 + 1 + C1) * (0 + 0 + C2))
        assert abs(ssim(a, b) - expect) < 1e-12

    def test_symmetric(self):
        a, b = image(1), image(2)
        assert ssim(a, b) == ssim(b, a)

    def test_global_shift_invariance_for_mean_matched_pair(self):
        # Contrast/structure terms are exactly shift invariant; the
        # luminance term is 1 whenever windowed means agree. Build a pair
        # whose (Gaussian-weighted) window means match exactly, then shift.
        from flowstyle.metrics import _gaussian_window

        g = _gaussian_window()
        a = 0.5 * image(3, (1, 1, 11, 11))
        d = np.zeros((11, 11))
        d[0, 0] = 0.05
        d[5, 5] = -0.05 * (g[0] * g[0]) / (g[5] * g[5])
        b = a + d
        base = ssim(a, b)
        shifted = ssim(a + 0.2, b + 0.2)
        assert abs(shifted - base) < 1e-9

    def test_less_than_one_for_different_images(self):
        assert ssim(image(5), image(6)) < 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((1, 1, 16, 16)), np.zeros((1, 1, 16, 17)))

    def test_too_small_for_window_rejected(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((1, 1, 8, 8)), np.zeros((1, 1, 8, 8)))

    @pytest.mark.parametrize("which", ["both", "one pixel"])
    def test_overflowing_moments_raise_numeric_error(self, which):
        """Squares that overflow raise NumericError, with no RuntimeWarning:
        at 1e200 every moment is NaN, and one pixel at 2e154 made its
        windows' variance inf and their score a silent 0."""
        a = image(7)
        if which == "both":
            a, b = a * 1e200, a * 1e200
        else:
            b = a.copy()
            a[0, 0, 8, 8] = 2e154
        with pytest.raises(NumericError, match="ssim overflows"):
            ssim(a, b)

    def test_large_finite_images_still_score(self):
        a, b = image(8) * 1e70, image(9) * 1e70
        assert 0.0 < ssim(a, b) < 1.0


class TestGramLoss:
    def test_zero_for_identical_images(self):
        net = build_lossnet(0)
        a = image(7)
        assert gram_loss(a, a, net) == 0.0

    def test_symmetric_and_nonnegative(self):
        net = build_lossnet(1)
        a, b = image(8), image(9)
        assert gram_loss(a, b, net) == gram_loss(b, a, net)
        assert gram_loss(a, b, net) >= 0.0

    def test_hand_case_single_channel_doubling(self):
        # Identity single-stage net (center tap) on positive images:
        # features of 2x are exactly twice those of x, so the Gram
        # difference is 3*mean(xs^2) and the MSE its square.
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        net = LossNet([k], [np.zeros(1)])
        x = 0.25 + 0.5 * np.random.default_rng(10).random((1, 1, 8, 8))
        xs = x[0, 0, ::2, ::2]  # what the stride-2 center tap samples
        g = (xs**2).mean()
        expect = (3.0 * g) ** 2
        assert abs(gram_loss(x, 2.0 * x, net) - expect) < 1e-12

    def test_gram_matrices_normalized_by_feature_size(self):
        net = build_lossnet(2)
        grams = gram_matrices(net, image(11))
        for g, feat in zip(grams, net.features(image(11))):
            b, c, h, w = feat.shape
            direct = feat.reshape(b, c, -1) @ feat.reshape(b, c, -1).transpose(0, 2, 1)
            np.testing.assert_allclose(g, direct / (c * h * w), atol=1e-12)


def small_model(seed=0, randomized=True):
    model = build_flownet(FlowNetConfig(1, 2, 8, 3, 16, 16), seed=seed)
    initialize_actnorms(model, image(seed + 50, (2, 3, 16, 16)))
    if randomized:
        randomize_couplings(model, seed=seed + 60)
    return model


class TestReconError:
    def test_below_tolerance_for_random_model(self):
        model = small_model(1)
        assert recon_error(model, image(12)) < 1e-9

    def test_identity_model_is_near_exact(self):
        model = build_flownet(FlowNetConfig(1, 1, 4, 3, 16, 16), seed=2)
        model.initialized = True
        model.params["b0.f0.invconv.weight"] = np.eye(12)
        assert recon_error(model, image(13)) < 1e-12

    def test_invariant_to_batch_slicing(self):
        model = small_model(3)
        batch = image(14, (3, 3, 16, 16))
        whole = recon_error(model, batch)
        per_image = max(recon_error(model, batch[i : i + 1]) for i in range(3))
        assert abs(whole - per_image) < 1e-15

    def test_nan_image_raises_instead_of_nan(self):
        bad = image(15)
        bad[0, 0, 3, 4] = np.nan
        with pytest.raises(NumericError):
            recon_error(small_model(4), bad)


class TestMetricReport:
    def test_line_format(self):
        report = MetricReport(0.5, 0.001, 2.0, 1e-12)
        line = report.line()
        fields = dict(kv.split("=") for kv in line.split("\t"))
        assert set(fields) == {"ssim", "gram_loss", "content_loss", "recon_error"}
        assert float(fields["ssim"]) == 0.5

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            MetricReport(float("nan"), 0.0, 0.0, 0.0)

    def test_evaluate_stylization_end_to_end(self):
        model = small_model(4)
        net = build_lossnet(4)
        content, style = image(15), image(16)
        from flowstyle.experiments import stylize
        from flowstyle.transfer import ADAIN

        stylized = stylize(model, ADAIN, content, style)
        report = evaluate_stylization(model, net, content, style, stylized)
        assert report.recon_error < 1e-9
        assert -1.0 <= report.ssim <= 1.0
        assert report.gram_loss >= 0.0
        assert report.content_loss >= 0.0

    def test_feature_distance_zero_for_same_image(self):
        net = build_lossnet(5)
        a = image(17)
        assert feature_distance(a, a, net) == 0.0
