"""Feature-space style transfer modules.

Two of the modules are unbiased in the bilinear content/style sense:

* ``adain`` rescales per-channel statistics; its content factor is the
  standardized feature and its style factor the (mean, std) pair.
* ``wct`` whitens with the content covariance's inverse symmetric square
  root and colors with the style covariance's symmetric square root; its
  content factor is the whitened feature and its style factor the
  (mean, covariance) pair.

Each is written once, as its recombination applied to the content
input's content factor and the style input's style factor (``FACTORS``
lists the three functions per kind). So both leave the content factor of
their output bit-close to the content input's factor while exactly
adopting the style input's factor, which is what makes repeated
stylization stable. ``patch_swap`` is the deliberate counterexample:
replacing content patches by matched style patches is not invertible,
so repeated application corrupts content.

All functions are pure and operate on float64 (B,C,H,W) arrays. AdaIN's
functions also accept taped :class:`~flowstyle.autodiff.Var` features
and then return Vars, so training differentiates through the same
``adain`` that inference runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NumericError, ShapeError
from .linalg import SymMatrix, matmul, sym_pows

EPS_STD = 1e-6
# Relative ridge added to raw channel covariances. Kept tiny so transfer
# leaves covariances intact to ~1e-9; the absolute floor only matters for
# exactly constant features.
EPS_COV_REL = 1e-12
EPS_COV_ABS = 1e-12

_KINDS = ("adain", "wct", "patchswap")


@dataclass(frozen=True)
class FeatureStats:
    """Per-channel mean and (floored) standard deviation; Vars for taped input."""

    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class CovFactor:
    """Mean, channel covariance, and its +-1/2 symmetric powers."""

    mean: np.ndarray
    cov: SymMatrix
    whitener: np.ndarray
    colorer: np.ndarray


@dataclass(frozen=True)
class TransferKind:
    """Transfer module selector; patch parameters apply to patchswap only."""

    name: str
    patch_size: int = 3
    stride: int = 1

    def __post_init__(self):
        if self.name not in _KINDS:
            raise ShapeError(f"unknown transfer kind {self.name!r}; known: {_KINDS}")
        if self.patch_size < 1 or self.patch_size % 2 == 0:
            raise ShapeError(f"patch_size must be odd and >= 1, got {self.patch_size}")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")


ADAIN = TransferKind("adain")
WCT = TransferKind("wct")
PATCHSWAP = TransferKind("patchswap")


def _check_feature(f, name):
    """``f`` once it is a finite (B,C,H,W) feature with a non-empty
    spatial extent: a Var as is, anything else as a float64 array."""
    a = ad._data(f)
    if a.ndim != 4:
        raise ShapeError(f"{name} must be (B,C,H,W), got shape {a.shape}")
    if a.shape[2] * a.shape[3] == 0:
        raise ShapeError(f"{name} has an empty spatial extent")
    if not np.isfinite(a).all():
        raise NumericError(f"{name} contains NaN or inf values")
    return f if isinstance(f, ad.Var) else a


def _check_pair(f_c, f_s):
    """Check a content and a style feature, and that their channels match."""
    a = _check_feature(f_c, "content feature")
    b = _check_feature(f_s, "style feature")
    c_a, c_b = ad._data(a).shape[1], ad._data(b).shape[1]
    if c_a != c_b:
        raise ShapeError(f"channel mismatch: content {c_a}, style {c_b}")
    return a, b


# AdaIN on autodiff ops. The public functions check their inputs; the
# underscored ones assume checked input.


def _stats(f) -> FeatureStats:
    mean = ad.channel_mean(f)
    centered = ad.sub(f, ad.per_channel(mean))
    std = ad.sqrt(ad.channel_mean(ad.mul(centered, centered)))
    return FeatureStats(ad._ret(mean, f), ad._ret(ad.maximum_scalar(std, EPS_STD), f))


def _standardize(f):
    s = _stats(f)
    return ad._ret(ad.div(ad.sub(f, ad.per_channel(s.mean)), ad.per_channel(s.std)), f)


def _restyle(x, stats: FeatureStats):
    out = ad.add(ad.mul(x, ad.per_channel(stats.std)), ad.per_channel(stats.mean))
    return ad._ret(out, x, stats.mean, stats.std)


def channel_stats(f) -> FeatureStats:
    """Per-channel moments over batch and spatial positions.

    Standard deviation uses the population convention (divide by N) and
    is floored at 1e-6 so constant channels stay usable downstream.
    """
    return _stats(_check_feature(f, "feature"))


def adain_content_factor(f):
    """Standardized feature: (f - mean) / std per channel."""
    return _standardize(_check_feature(f, "feature"))


def apply_style_factor(content_factor, stats: FeatureStats):
    """Recombine: content_factor * std + mean."""
    return _restyle(_check_feature(content_factor, "content factor"), stats)


def adain(f_c, f_s):
    """Match the content feature's per-channel mean/std to the style's:
    ``apply_style_factor(adain_content_factor(f_c), channel_stats(f_s))``."""
    a, b = _check_pair(f_c, f_s)
    return _restyle(_standardize(a), _stats(b))


def _flatten_channels(a) -> np.ndarray:
    """(B,C,H,W) -> (C, B*H*W) sample matrix."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).reshape(a.shape[1], -1)


def _unflatten_channels(x, shape) -> np.ndarray:
    b, c, h, w = shape
    return np.ascontiguousarray(x.reshape(c, b, h, w).transpose(1, 0, 2, 3))


def cov_factor(f) -> CovFactor:
    """Mean and regularized channel covariance with its +-1/2 powers.

    The covariance of the centered samples gets a ridge of
    ``1e-12 * trace/c`` (an absolute 1e-12 when the trace vanishes) so
    exactly constant features still produce finite whiteners;
    rank-deficient covariances are additionally protected by the
    eigenvalue clamp of ``sym_pow``. Both powers come from one
    eigendecomposition.
    """
    a = _check_feature(f, "feature")
    x = _flatten_channels(a)
    n = x.shape[1]
    if n < 2:
        raise ShapeError(f"covariance needs at least 2 samples, got {n}")
    mean = x.mean(axis=1)
    xc = x - mean[:, np.newaxis]
    cov_raw = matmul(xc, xc.T) / n
    trace = float(np.trace(cov_raw))
    eps = max(EPS_COV_REL * trace / x.shape[0], EPS_COV_ABS if trace <= 0.0 else 0.0)
    cov = SymMatrix(cov_raw + eps * np.eye(x.shape[0]))
    whitener, colorer = sym_pows(cov, (-0.5, +0.5))
    return CovFactor(mean=mean, cov=cov, whitener=whitener, colorer=colorer)


def _whiten(a, factor: CovFactor) -> np.ndarray:
    x = _flatten_channels(a)
    return _unflatten_channels(matmul(factor.whitener, x - factor.mean[:, np.newaxis]), a.shape)


def _color(a, factor: CovFactor) -> np.ndarray:
    x = _flatten_channels(a)
    return _unflatten_channels(matmul(factor.colorer, x) + factor.mean[:, np.newaxis], a.shape)


def wct_content_factor(f) -> np.ndarray:
    """Whitened feature: cov^{-1/2} (f - mean), identity covariance."""
    a = _check_feature(f, "feature")
    return _whiten(a, cov_factor(a))


def apply_cov_factor(content_factor, factor: CovFactor) -> np.ndarray:
    """Recombine: cov^{1/2} * whitened_factor + mean."""
    return _color(_check_feature(content_factor, "content factor"), factor)


def wct(f_c, f_s) -> np.ndarray:
    """Whiten the content feature, then color it with the style covariance:
    ``apply_cov_factor(wct_content_factor(f_c), cov_factor(f_s))``."""
    a, b = _check_pair(f_c, f_s)
    # cov_factor by its public name, so per-layer timing still counts it;
    # it checks each (already checked) feature once more.
    return _color(_whiten(a, cov_factor(a)), cov_factor(b))


# Each reversible kind as (content factor, style factor, recombine); the
# transfer is recombine(content factor(f_c), style factor(f_s)).
FACTORS = {
    "adain": (adain_content_factor, channel_stats, apply_style_factor),
    "wct": (wct_content_factor, cov_factor, apply_cov_factor),
}


def _patch_grid(extent: int, patch: int, stride: int) -> list[int]:
    # Tail position appended so the whole feature is covered even when
    # stride does not divide (extent - patch).
    last = extent - patch
    grid = list(range(0, last + 1, stride))
    if grid[-1] != last:
        grid.append(last)
    return grid


def patch_swap(f_c, f_s, patch_size: int = 3, stride: int = 1) -> np.ndarray:
    """Replace every content patch by its best-matching style patch.

    Matching maximizes cosine similarity of channel-unrolled patches
    (ties go to the lowest style patch index); overlapping replacements
    are averaged. This transfer is intentionally *not* invertible.
    """
    a, b = _check_pair(f_c, f_s)
    if patch_size < 1 or stride < 1:
        raise ShapeError("patch_size and stride must be >= 1")
    for name, arr in (("content", a), ("style", b)):
        if patch_size > arr.shape[2] or patch_size > arr.shape[3]:
            raise ShapeError(
                f"patch {patch_size} exceeds {name} extent "
                f"{arr.shape[2]}x{arr.shape[3]}"
            )
    out = np.empty_like(a)
    for bi in range(a.shape[0]):
        out[bi] = _patch_swap_single(a[bi], b[bi % b.shape[0]], patch_size, stride)
    return out


def _extract_patches(x, grid_y, grid_x, ps):
    patches = np.stack(
        [x[:, y : y + ps, x0 : x0 + ps] for y in grid_y for x0 in grid_x]
    )
    return patches.reshape(patches.shape[0], -1)


def _patch_swap_single(content, style, ps, stride):
    c_gy = _patch_grid(content.shape[1], ps, stride)
    c_gx = _patch_grid(content.shape[2], ps, stride)
    s_gy = _patch_grid(style.shape[1], ps, stride)
    s_gx = _patch_grid(style.shape[2], ps, stride)

    c_patches = _extract_patches(content, c_gy, c_gx, ps)
    s_patches = _extract_patches(style, s_gy, s_gx, ps)
    c_norm = c_patches / np.maximum(
        np.linalg.norm(c_patches, axis=1, keepdims=True), 1e-12
    )
    s_norm = s_patches / np.maximum(
        np.linalg.norm(s_patches, axis=1, keepdims=True), 1e-12
    )
    sims = matmul(c_norm, s_norm.T)
    matches = np.argmax(sims, axis=1)  # first max wins: lowest style index

    acc = np.zeros_like(content)
    cover = np.zeros(content.shape[1:])
    c_channels = content.shape[0]
    for p, (y, x0) in enumerate((y, x0) for y in c_gy for x0 in c_gx):
        chosen = s_patches[matches[p]].reshape(c_channels, ps, ps)
        acc[:, y : y + ps, x0 : x0 + ps] += chosen
        cover[y : y + ps, x0 : x0 + ps] += 1.0
    return acc / cover[np.newaxis, :, :]


def transfer_apply(kind: TransferKind, f_c, f_s, alpha: float = 1.0) -> np.ndarray:
    """Dispatch to the selected module, then blend with the content.

    ``alpha`` interpolates between the untouched content feature (0) and
    the fully transferred feature (1).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ShapeError(f"alpha must lie in [0, 1], got {alpha}")
    if kind.name == "adain":
        f_cs = adain(f_c, f_s)
    elif kind.name == "wct":
        f_cs = wct(f_c, f_s)
    else:
        f_cs = patch_swap(f_c, f_s, kind.patch_size, kind.stride)
    if alpha == 1.0:
        return f_cs
    return alpha * f_cs + (1.0 - alpha) * np.asarray(f_c, dtype=np.float64)
