"""Evaluation metrics: SSIM, Gram-matrix loss, feature distance, recon error.

SSIM follows the original convention: 11x11 Gaussian window (sigma 1.5),
K1=0.01, K2=0.03, dynamic range 1.0, valid-window filtering, averaged
over channels and batch. Gram matrices are normalized by c*h*w so the
style distance is resolution independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError, ShapeError, as_batch
from .flows import _StepParams
from .training import LossNet, content_loss

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_RANGE = 1.0


def _gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def _filter_valid(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Separable valid-mode windowed mean of a 2-d array."""
    rows = sliding_window_view(img, g.size, axis=0) @ g
    return sliding_window_view(rows, g.size, axis=1) @ g


def ssim(a, b) -> float:
    """Mean structural similarity between two image batches in [0, 1].

    Both are checked by :func:`errors.as_batch` and must share a shape.
    NumericError if a local moment or product of them overflows (pixels
    above about 1e77).
    """
    x, y = as_batch("first ssim image", a), as_batch("second ssim image", b)
    if x.shape != y.shape:
        raise ShapeError(f"ssim needs equal shapes, got {x.shape} vs {y.shape}")
    if x.shape[2] < SSIM_WINDOW or x.shape[3] < SSIM_WINDOW:
        raise ShapeError(
            f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW} for the "
            f"{SSIM_WINDOW}-tap window"
        )
    g = _gaussian_window()
    try:
        with np.errstate(over="raise", invalid="raise"):
            values = [_ssim_map(p, q, g) for pb, qb in zip(x, y) for p, q in zip(pb, qb)]
    except FloatingPointError:
        raise NumericError("ssim overflows: the images are too large for their moments") from None
    return float(np.mean(values))


def _ssim_map(p, q, g):
    """The SSIM value of every valid window of the 2-d arrays ``p`` and ``q``."""
    c1 = (SSIM_K1 * SSIM_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_RANGE) ** 2
    mu_p = _filter_valid(p, g)
    mu_q = _filter_valid(q, g)
    var_p = _filter_valid(p * p, g) - mu_p * mu_p
    var_q = _filter_valid(q * q, g) - mu_q * mu_q
    cov = _filter_valid(p * q, g) - mu_p * mu_q
    num = (2.0 * mu_p * mu_q + c1) * (2.0 * cov + c2)
    den = (mu_p * mu_p + mu_q * mu_q + c1) * (var_p + var_q + c2)
    return num / den


def gram_matrices(lossnet: LossNet, image) -> list[np.ndarray]:
    """Per-stage, per-image Gram matrices f f^T / (c*h*w)."""
    grams = []
    for feat in lossnet.features(image):
        b, c, h, w = feat.shape
        flat = feat.reshape(b, c, h * w)
        grams.append(flat @ flat.transpose(0, 2, 1) / (c * h * w))
    return grams


def gram_loss(a, b, lossnet: LossNet) -> float:
    """Mean over stages of the MSE between normalized Gram matrices of
    two image batches, each checked by :func:`errors.as_batch`."""
    ga = gram_matrices(lossnet, as_batch("first gram image", a))
    gb = gram_matrices(lossnet, as_batch("second gram image", b))
    return float(np.mean([((p - q) ** 2).mean() for p, q in zip(ga, gb)]))


def recon_error(model, image) -> float:
    """Round-trip error ||inverse(forward(image)) - image||_inf.

    Computed per image independently (no cross-batch coupling), so
    slicing the batch cannot change any image's error. The image is
    checked by :func:`errors.as_batch`.
    """
    x, step = as_batch("image", image), _StepParams({})
    return float(np.max(np.abs(model.inverse(model.forward(x, step), step) - x)))


def feature_distance(a, b, lossnet: LossNet) -> float:
    """RMS distance between top-stage features of two images.

    This is an extractor-relative content distance; values are only
    comparable when produced by the same LossNet.
    """
    return content_loss(a, lossnet.top_feature(b), lossnet)


@dataclass(frozen=True)
class MetricReport:
    ssim: float
    gram_loss: float
    content_loss: float
    recon_error: float

    def __post_init__(self):
        for name in ("ssim", "gram_loss", "content_loss", "recon_error"):
            if not np.isfinite(getattr(self, name)):
                raise NumericError(f"metric {name} is not finite")

    def line(self) -> str:
        """Single-line text form: tab-separated name=value pairs."""
        return "\t".join(
            f"{name}={getattr(self, name):.17g}"
            for name in ("ssim", "gram_loss", "content_loss", "recon_error")
        )


def evaluate_stylization(model, lossnet: LossNet, content, style, stylized) -> MetricReport:
    """Standard report for one stylization: content keep, style match, losslessness."""
    return MetricReport(
        ssim=ssim(content, stylized),
        gram_loss=gram_loss(style, stylized, lossnet),
        content_loss=feature_distance(stylized, content, lossnet),
        recon_error=recon_error(model, content),
    )
