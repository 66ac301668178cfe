import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowstyle.autodiff as ad
from flowstyle.errors import FlowStyleError, NumericError, ShapeError
from flowstyle.linalg import matmul, sym_pow
from flowstyle.transfer import (
    ADAIN,
    EPS_STD,
    FACTORS,
    PATCHSWAP,
    WCT,
    FeatureStats,
    TransferKind,
    adain,
    adain_content_factor,
    apply_cov_factor,
    apply_style_factor,
    channel_stats,
    cov_factor,
    patch_swap,
    transfer_apply,
    wct,
    wct_content_factor,
)


def random_feature(shape, seed, scale=None, shift=None):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(shape)
    if scale is not None:
        f = f * np.asarray(scale)[np.newaxis, :, np.newaxis, np.newaxis]
    if shift is not None:
        f = f + np.asarray(shift)[np.newaxis, :, np.newaxis, np.newaxis]
    return f


class TestChannelStats:
    def test_constant_feature(self):
        s = channel_stats(np.full((1, 2, 3, 3), 3.0))
        np.testing.assert_array_equal(s.mean, [3.0, 3.0])
        np.testing.assert_array_equal(s.std, [EPS_STD, EPS_STD])

    def test_two_point_channel(self):
        f = np.zeros((1, 1, 1, 2))
        f[0, 0, 0] = [1.0, -1.0]
        s = channel_stats(f)
        assert s.mean[0] == 0.0
        assert s.std[0] == 1.0

    def test_matches_two_pass_oracle(self):
        f = random_feature((2, 4, 5, 6), seed=0)
        s = channel_stats(f)
        for c in range(4):
            vals = f[:, c].ravel()
            mu = vals.sum() / vals.size
            var = ((vals - mu) ** 2).sum() / vals.size
            assert abs(s.mean[c] - mu) < 1e-12
            assert abs(s.std[c] - np.sqrt(var)) < 1e-12


class TestAdain:
    def test_style_equals_content_is_identity(self):
        f = random_feature((1, 3, 6, 6), seed=1)
        assert np.max(np.abs(adain(f, f) - f)) < 1e-12

    def test_affine_hand_case(self):
        f_c = random_feature((1, 2, 16, 16), seed=2)
        f_c = adain_content_factor(f_c)  # exactly standardized
        f_s = random_feature((1, 2, 8, 8), seed=3, scale=[2.0, 2.0], shift=[5.0, 5.0])
        f_s = apply_style_factor(
            adain_content_factor(f_s),
            type(channel_stats(f_s))(mean=np.array([5.0, 5.0]), std=np.array([2.0, 2.0])),
        )
        out = adain(f_c, f_s)
        np.testing.assert_allclose(out, 2.0 * f_c + 5.0, atol=1e-9)

    def test_unbiased_in_both_factors(self):
        f_c = random_feature((1, 5, 7, 7), seed=4, scale=[1, 2, 3, 4, 5], shift=[0, 1, -1, 2, 0.5])
        f_s = random_feature((1, 5, 9, 9), seed=5, scale=[2, 1, 0.5, 1, 3], shift=[1, 0, 2, -2, 0])
        out = adain(f_c, f_s)
        s_out, s_style = channel_stats(out), channel_stats(f_s)
        assert np.max(np.abs(s_out.mean - s_style.mean)) < 1e-9
        assert np.max(np.abs(s_out.std - s_style.std)) < 1e-9
        assert np.max(np.abs(adain_content_factor(out) - adain_content_factor(f_c))) < 1e-9

    def test_idempotent(self):
        f_c = random_feature((1, 3, 6, 6), seed=6)
        f_s = random_feature((1, 3, 6, 6), seed=7, scale=[2, 3, 1])
        once = adain(f_c, f_s)
        twice = adain(once, f_s)
        assert np.max(np.abs(twice - once)) < 1e-9

    def test_reversal_recovers_content(self):
        f_c = random_feature((1, 3, 6, 6), seed=8, shift=[1, 2, 3])
        f_s = random_feature((1, 3, 6, 6), seed=9, scale=[0.5, 2, 1])
        back = adain(adain(f_c, f_s), f_c)
        assert np.max(np.abs(back - f_c)) < 1e-9


class TestAdainFactors:
    def test_standardized_input_is_fixed_point(self):
        f = adain_content_factor(random_feature((1, 4, 8, 8), seed=10))
        np.testing.assert_allclose(adain_content_factor(f), f, atol=1e-9)

    def test_affine_factorization(self):
        x = adain_content_factor(random_feature((1, 2, 16, 16), seed=11))
        f = 2.0 * x + 5.0
        np.testing.assert_allclose(adain_content_factor(f), x, atol=1e-9)
        s = channel_stats(f)
        np.testing.assert_allclose(s.mean, 5.0, atol=1e-9)
        np.testing.assert_allclose(s.std, 2.0, atol=1e-9)

    def test_recombination_round_trip(self):
        f = random_feature((2, 3, 5, 5), seed=12, scale=[1, 4, 2], shift=[0, -3, 1])
        rebuilt = apply_style_factor(adain_content_factor(f), channel_stats(f))
        assert np.max(np.abs(rebuilt - f)) < 1e-12

    def test_stats_of_another_channel_count_rejected(self):
        f = random_feature((1, 3, 4, 4), seed=13)
        with pytest.raises(ShapeError, match="shape"):
            apply_style_factor(adain_content_factor(f), channel_stats(f[:, :2]))


class TestFactorComposition:
    """Each reversible transfer is its recombination of its two factors."""

    @pytest.mark.parametrize("name, transfer", [("adain", adain), ("wct", wct)])
    def test_transfer_equals_composed_factors(self, name, transfer):
        content, style, recombine = FACTORS[name]
        rng = np.random.default_rng(40)
        for _ in range(20):
            c = int(rng.integers(1, 7))
            f_c = rng.standard_normal((int(rng.integers(1, 3)), c, 5, 6)) * 2.0 + 1.0
            f_s = rng.standard_normal((1, c, int(rng.integers(2, 8)), 4)) - 0.5
            np.testing.assert_array_equal(
                transfer(f_c, f_s), recombine(content(f_c), style(f_s))
            )

    def test_adain_on_taped_vars_equals_arrays(self):
        rng = np.random.default_rng(41)
        f_c = rng.standard_normal((2, 3, 4, 5))
        f_s = 3.0 * rng.standard_normal((1, 3, 6, 6)) + 2.0
        tape = ad.Tape()
        out = adain(ad.Var(f_c, tape), ad.Var(f_s, tape))
        assert isinstance(out, ad.Var) and out.tape is tape
        np.testing.assert_array_equal(out.data, adain(f_c, f_s))


ARRAY_ONLY = {
    "channel_stats": channel_stats,
    "adain_content_factor": adain_content_factor,
    "apply_style_factor": lambda f: apply_style_factor(f, channel_stats(ad._data(f))),
    "wct": lambda f: wct(f, f),
    "cov_factor": cov_factor,
    "wct_content_factor": wct_content_factor,
    "apply_cov_factor": lambda f: apply_cov_factor(f, cov_factor(ad._data(f))),
    "patch_swap": lambda f: patch_swap(f, f),
}


@pytest.mark.parametrize("name", sorted(ARRAY_ONLY))
def test_array_only_transfers_reject_vars(name):
    f = ad.Var(random_feature((1, 3, 4, 4), seed=14), ad.Tape())
    with pytest.raises(FlowStyleError, match="autodiff Var"):
        ARRAY_ONLY[name](f)


@pytest.mark.parametrize("transfer", [adain, wct, patch_swap], ids=lambda t: t.__name__)
def test_channel_mismatch_rejected(transfer):
    """The error names both channel counts: content 5, style 2."""
    f_c = random_feature((1, 5, 4, 4), seed=44)
    f_s = random_feature((1, 2, 4, 4), seed=45)
    with pytest.raises(ShapeError, match=r"5.*2"):
        transfer(f_c, f_s)


class TestCovFactor:
    def test_white_noise_covariance_near_identity(self):
        f = random_feature((1, 2, 64, 64), seed=13)  # N = 4096
        cf = cov_factor(f)
        assert np.max(np.abs(cf.cov - np.eye(2))) < 0.1

    def test_constant_feature_gives_ridge_only(self):
        cf = cov_factor(np.full((1, 3, 4, 4), 2.0))
        np.testing.assert_allclose(cf.cov, 1e-12 * np.eye(3), atol=1e-18)
        assert np.isfinite(cf.whitener).all()

    def test_rank_deficient_hand_case(self):
        # channel2 = 2 * channel1: covariance [[v, 2v], [2v, 4v]], rank 1.
        rng = np.random.default_rng(14)
        base = rng.standard_normal((1, 1, 8, 8))
        f = np.concatenate([base, 2.0 * base], axis=1)
        cf = cov_factor(f)
        x = base.ravel()
        v = x.var()
        expect = np.array([[v, 2 * v], [2 * v, 4 * v]])
        np.testing.assert_allclose(cf.cov, expect, atol=1e-9)
        assert np.isfinite(cf.whitener).all()

    def test_whitener_colorer_multiply_to_identity(self):
        f = random_feature((1, 4, 16, 16), seed=15, scale=[1, 2, 0.5, 3])
        cf = cov_factor(f)
        prod = matmul(cf.whitener, cf.colorer)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-8


    @pytest.mark.parametrize("seed,shape", [(13, (1, 2, 64, 64)), (16, (2, 5, 6, 6)), (14, None)])
    def test_cov_is_read_only_and_exactly_symmetric(self, seed, shape):
        if shape is None:  # rank-deficient, as in test_rank_deficient_hand_case
            base = np.random.default_rng(seed).standard_normal((1, 1, 8, 8))
            f = np.concatenate([base, 2.0 * base], axis=1)
        else:
            f = random_feature(shape, seed=seed)
        cov = cov_factor(f).cov
        np.testing.assert_array_equal(cov, cov.T)
        with pytest.raises(ValueError):
            cov[0, 0] = 5.0

    def test_powers_equal_two_separate_solves(self):
        f = random_feature((2, 5, 6, 6), seed=16, scale=[1, 2, 0.5, 3, 1])
        cf = cov_factor(f)
        np.testing.assert_array_equal(cf.whitener, sym_pow(cf.cov, -0.5))
        np.testing.assert_array_equal(cf.colorer, sym_pow(cf.cov, +0.5))


class TestWct:
    def test_style_equals_content_is_identity(self):
        f = random_feature((1, 3, 16, 16), seed=16, scale=[1, 2, 3])
        assert np.max(np.abs(wct(f, f) - f)) < 1e-8

    def test_diagonal_hand_case(self):
        # Content exactly whitened; style with covariance diag(4,1) and mean mu.
        f_c = wct_content_factor(random_feature((1, 2, 32, 32), seed=17))
        mu = np.array([1.5, -0.5])
        f_s = apply_cov_factor(
            wct_content_factor(random_feature((1, 2, 32, 32), seed=18)),
            _diag_factor(np.array([4.0, 1.0]), mu),
        )
        out = wct(f_c, f_s)
        expect = np.stack(
            [2.0 * f_c[0, 0] + mu[0], 1.0 * f_c[0, 1] + mu[1]]
        )[np.newaxis]
        np.testing.assert_allclose(out, expect, atol=1e-7)

    def test_unbiased_in_both_factors(self):
        f_c = random_feature((1, 4, 16, 16), seed=19, scale=[1, 2, 0.5, 1.5], shift=[1, 0, -1, 2])
        f_s = random_feature((1, 4, 16, 16), seed=20, scale=[2, 1, 1, 0.5], shift=[0, 1, 0, -1])
        out = wct(f_c, f_s)
        cov_out, cov_style = cov_factor(out), cov_factor(f_s)
        assert np.max(np.abs(cov_out.cov - cov_style.cov)) < 1e-6
        assert np.max(np.abs(cov_out.mean - cov_style.mean)) < 1e-9
        c_out = wct_content_factor(out)
        c_in = wct_content_factor(f_c)
        assert np.max(np.abs(c_out - c_in)) < 1e-6

    def test_idempotent(self):
        f_c = random_feature((1, 3, 16, 16), seed=21, scale=[1, 2, 3])
        f_s = random_feature((1, 3, 16, 16), seed=22, scale=[2, 1, 1])
        once = wct(f_c, f_s)
        twice = wct(once, f_s)
        assert np.max(np.abs(twice - once)) < 1e-6

    def test_factor_of_another_channel_count_rejected(self):
        f = random_feature((1, 3, 4, 4), seed=13)
        with pytest.raises(ShapeError, match=r"3 channels.*mean \(2,\)"):
            apply_cov_factor(wct_content_factor(f), cov_factor(f[:, :2]))


def _diag_factor(diag, mean):
    from flowstyle.transfer import CovFactor

    return CovFactor(
        mean=mean,
        cov=np.diag(diag),
        whitener=np.diag(diag**-0.5),
        colorer=np.diag(diag**0.5),
    )


class TestPatchSwap:
    def test_self_match_identity(self):
        f = random_feature((1, 2, 8, 8), seed=23)
        out = patch_swap(f, f, patch_size=3, stride=3)
        np.testing.assert_allclose(out, f, atol=1e-12)

    def test_single_patch_copies_best_style_patch(self):
        f_c = random_feature((1, 2, 3, 3), seed=24)
        f_s = random_feature((1, 2, 5, 5), seed=25)
        out = patch_swap(f_c, f_s, patch_size=3, stride=1)
        # Output must equal one of the 3x3 style patches exactly.
        candidates = [
            f_s[0, :, y : y + 3, x : x + 3] for y in range(3) for x in range(3)
        ]
        assert any(np.array_equal(out[0], c) for c in candidates)

    def test_output_is_made_of_style_patches(self):
        f_c = random_feature((1, 3, 9, 9), seed=26)
        f_s = random_feature((1, 3, 9, 9), seed=27)
        ps = 3
        out = patch_swap(f_c, f_s, patch_size=ps, stride=ps)
        style_patches = [
            f_s[0, :, y : y + ps, x : x + ps].ravel().tobytes()
            for y in range(0, 7, ps)
            for x in range(0, 7, ps)
        ]
        for y in range(0, 9, ps):
            for x in range(0, 9, ps):
                assert out[0, :, y : y + ps, x : x + ps].ravel().tobytes() in style_patches

    def test_corrupts_content_factor(self):
        # The bias demonstration: the content factor is NOT preserved.
        f_c = random_feature((1, 4, 8, 8), seed=28)
        f_s = random_feature((1, 4, 8, 8), seed=29)
        out = patch_swap(f_c, f_s, patch_size=3, stride=1)
        distortion = np.max(
            np.abs(adain_content_factor(out) - adain_content_factor(f_c))
        )
        assert distortion > 1e-2

    def test_patch_larger_than_feature_rejected(self):
        with pytest.raises(ShapeError):
            patch_swap(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 2)), patch_size=3)

    @pytest.mark.parametrize(
        "field,value",
        [("patch_size", 2.5), ("patch_size", 3.0), ("stride", 1.5), ("stride", True)],
    )
    def test_non_integer_patch_parameter_rejected(self, field, value):
        f = random_feature((1, 2, 6, 6), seed=40)
        with pytest.raises(ShapeError, match=field):
            patch_swap(f, f, **{field: value})


def patch_swap_reference(f_c, f_s, ps, stride):
    """Patch swap as a loop over patches: each patch copied out of its
    feature, matched by cosine similarity, and the chosen style patch
    added, patch after patch in grid order, into zeros."""
    out = np.empty_like(f_c)
    for bi, content in enumerate(f_c):
        style = f_s[bi % len(f_s)]
        grids = [
            sorted({*range(0, n - ps + 1, stride), n - ps})
            for n in content.shape[1:] + style.shape[1:]
        ]
        c_pos = [(y, x) for y in grids[0] for x in grids[1]]
        s_pos = [(y, x) for y in grids[2] for x in grids[3]]
        c_patches = np.stack([content[:, y : y + ps, x : x + ps].ravel() for y, x in c_pos])
        s_patches = np.stack([style[:, y : y + ps, x : x + ps].ravel() for y, x in s_pos])
        c_unit = c_patches / np.maximum(np.linalg.norm(c_patches, axis=1, keepdims=True), 1e-12)
        s_unit = s_patches / np.maximum(np.linalg.norm(s_patches, axis=1, keepdims=True), 1e-12)
        matches = np.argmax(matmul(c_unit, s_unit.T), axis=1)
        acc, cover = np.zeros_like(content), np.zeros(content.shape[1:])
        for (y, x), m in zip(c_pos, matches):
            acc[:, y : y + ps, x : x + ps] += s_patches[m].reshape(-1, ps, ps)
            cover[y : y + ps, x : x + ps] += 1.0
        out[bi] = acc / cover
    return out


class TestPatchSwapFold:
    """The window view and the tap-major fold give the bytes of a loop
    over patches."""

    @pytest.mark.parametrize("ps,stride", [(p, s) for p in range(1, 5) for s in range(1, p + 1)])
    @pytest.mark.parametrize("shapes", [
        ((1, 3, 7, 9), (1, 3, 8, 6)),
        ((3, 2, 10, 5), (2, 2, 6, 11)),
        ((2, 4, 4, 4), (1, 4, 5, 4)),
    ], ids=["tails", "style-batch-cycles", "one-style"])
    def test_fold_equals_per_patch_loop(self, ps, stride, shapes):
        rng = np.random.default_rng(ps * 10 + stride)
        f_c, f_s = (rng.standard_normal(shape) for shape in shapes)
        f_c[rng.random(f_c.shape) < 0.1] = -0.0
        f_s[rng.random(f_s.shape) < 0.1] = -0.0
        f_s[..., :2, :2] = 0.0  # zero-norm style patches
        got = patch_swap(f_c, f_s, ps, stride)
        assert got.tobytes() == patch_swap_reference(f_c, f_s, ps, stride).tobytes()


class TestHugeFiniteFeatures:
    """A finite feature whose squares overflow raises NumericError, with no
    RuntimeWarning, instead of a statistic or a match that is silently wrong."""

    f = random_feature((1, 12, 8, 8), seed=50)

    def test_channel_stats(self):
        with pytest.raises(NumericError, match="std overflows"):
            channel_stats(self.f * 1e300)

    @pytest.mark.parametrize("huge", ["content", "style"])
    def test_adain(self, huge):
        f_c, f_s = (self.f * 1e300, self.f) if huge == "content" else (self.f, self.f * 1e300)
        with pytest.raises(NumericError, match="std overflows"):
            adain(f_c, f_s)
        with pytest.raises(NumericError, match="std overflows"):
            adain_content_factor(f_c if huge == "content" else f_s)

    def test_patch_swap(self):
        with pytest.raises(NumericError, match="patch norms overflow"):
            patch_swap(self.f * 1e300, self.f * 1e300)
        with pytest.raises(NumericError, match="patch norms overflow"):
            patch_swap(self.f, self.f * 1e300)

    def test_cov_factor(self):
        with pytest.raises(NumericError, match="covariance overflows"):
            cov_factor(self.f * 1e160)

    def test_wct(self):
        with pytest.raises(NumericError, match="covariance overflows"):
            wct(self.f * 1e200, self.f)

    def test_apply_style_factor(self):
        stats = FeatureStats(np.zeros(12), np.full(12, 1e308))
        with pytest.raises(NumericError, match="recombined feature overflows"):
            apply_style_factor(self.f, stats)

    def test_apply_cov_factor(self):
        factor = cov_factor(self.f)
        huge = dataclasses.replace(factor, colorer=factor.colorer * 1e308)
        with pytest.raises(NumericError, match="recombined feature overflows"):
            apply_cov_factor(wct_content_factor(self.f), huge)

    def test_largest_safe_scale_still_transfers(self):
        f = self.f * 1e150
        assert np.isfinite(channel_stats(f).std).all()
        assert np.isfinite(adain(f, f)).all()
        np.testing.assert_array_equal(patch_swap(f, f, 3, 3)[..., :6, :6], f[..., :6, :6])


class TestTransferApply:
    def test_alpha_zero_returns_content(self):
        f_c = random_feature((1, 3, 8, 8), seed=30)
        f_s = random_feature((1, 3, 8, 8), seed=31)
        np.testing.assert_array_equal(transfer_apply(ADAIN, f_c, f_s, 0.0), f_c)

    def test_alpha_one_dispatches(self):
        f_c = random_feature((1, 3, 8, 8), seed=32)
        f_s = random_feature((1, 3, 8, 8), seed=33)
        np.testing.assert_array_equal(
            transfer_apply(ADAIN, f_c, f_s, 1.0), adain(f_c, f_s)
        )
        np.testing.assert_array_equal(
            transfer_apply(WCT, f_c, f_s, 1.0), wct(f_c, f_s)
        )
        np.testing.assert_array_equal(
            transfer_apply(PATCHSWAP, f_c, f_s, 1.0),
            patch_swap(f_c, f_s, PATCHSWAP.patch_size, PATCHSWAP.stride),
        )

    def test_alpha_half_is_midpoint(self):
        f_c = random_feature((1, 1, 6, 6), seed=34)
        f_s = random_feature((1, 1, 6, 6), seed=35, scale=[3.0])
        mid = transfer_apply(ADAIN, f_c, f_s, 0.5)
        np.testing.assert_allclose(mid, 0.5 * (f_c + adain(f_c, f_s)), atol=1e-12)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            transfer_apply(ADAIN, np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 2)), 1.5)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ShapeError):
            TransferKind("gram")
        with pytest.raises(ShapeError):
            TransferKind("patchswap", patch_size=2)

    @pytest.mark.parametrize(
        "field,value",
        [("patch_size", 3.0), ("stride", 1.5), ("stride", "1"), ("patch_size", None),
         ("patch_size", True)],
    )
    def test_non_integer_patch_parameter_rejected(self, field, value):
        with pytest.raises(ShapeError, match=field):
            TransferKind("patchswap", **{field: value})

    def test_integer_like_patch_parameters_become_int(self):
        kind = TransferKind("patchswap", patch_size=np.int64(5), stride=np.int32(2))
        assert (type(kind.patch_size), type(kind.stride)) == (int, int)
        assert (kind.patch_size, kind.stride) == (5, 2)

    @pytest.mark.parametrize("kind", [ADAIN, WCT, PATCHSWAP], ids=lambda k: k.name)
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("side", ["content", "style"])
    def test_non_finite_feature_rejected(self, kind, bad, side):
        f_c = random_feature((1, 3, 6, 6), seed=36)
        f_s = random_feature((1, 3, 6, 6), seed=37)
        (f_c if side == "content" else f_s)[0, 1, 2, 3] = bad
        with pytest.raises(NumericError):
            transfer_apply(kind, f_c, f_s)


DEGENERATE_KINDS = ("constant", "duplicated", "single-live", "live")


def degenerate_feature(kind, shape, seed):
    """A feature whose channel covariance is zero (constant), of rank one
    (duplicated, single-live) or random (live)."""
    rng = np.random.default_rng(seed)
    c = shape[1]
    f = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0)
    offsets = rng.uniform(-5.0, 5.0, (1, c, 1, 1))
    if kind == "constant":
        f = np.zeros(shape)
    elif kind == "duplicated":  # every channel a multiple of channel 0
        f = f[:, :1] * rng.uniform(-2.0, 2.0, (1, c, 1, 1))
    elif kind == "single-live":
        f[:, 1:] = 0.0
    return f + offsets


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.tuples(st.sampled_from(DEGENERATE_KINDS), st.sampled_from(DEGENERATE_KINDS)),
    shape=st.tuples(
        st.integers(1, 2), st.integers(1, 8), st.integers(1, 4), st.integers(2, 4)
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_transfers_finite_on_degenerate_features(kinds, shape, seed):
    f_c = degenerate_feature(kinds[0], shape, seed)
    f_s = degenerate_feature(kinds[1], shape, seed + 1)
    for out in (adain(f_c, f_s), wct(f_c, f_s)):
        assert out.shape == shape and np.isfinite(out).all()
    for f in (f_c, f_s):
        factor = cov_factor(f)
        for part in (factor.mean, factor.whitener, factor.colorer):
            assert np.isfinite(part).all()
