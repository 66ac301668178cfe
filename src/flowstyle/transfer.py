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

All functions are pure and operate on float64 (B,C,H,W) arrays, which
they check with :func:`~flowstyle.errors.as_batch`. ``adain`` alone also
accepts taped :class:`~flowstyle.autodiff.Var` features, so training
differentiates through the same ``adain`` that inference runs: it is the
one taped AdaIN, one node whose backward is the closed-form gradient
through both sides' per-channel mean and floored std
(:func:`_moments_grad`). Every per-channel statistic, AdaIN's factors
and flow actnorm initialization included, comes from :func:`_moments`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .errors import NumericError, ShapeError, as_batch, as_feature, as_index, as_real
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
    """AdaIN's style factor: per-channel mean and floored std arrays."""

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
        geometry = _patch_geometry(self.patch_size, self.stride)
        for field, value in zip(("patch_size", "stride"), geometry):
            object.__setattr__(self, field, value)
        if self.patch_size % 2 == 0:
            raise ShapeError(f"patch_size must be odd, got {self.patch_size}")


def _patch_geometry(patch_size, stride) -> tuple[int, int]:
    """``patch_size`` and ``stride`` as counts; ShapeError if the stride leaves gaps."""
    patch_size, stride = as_index("patch_size", patch_size, 1), as_index("stride", stride, 1)
    if stride > patch_size:
        raise ShapeError(f"stride {stride} exceeds patch_size {patch_size}, leaving gaps")
    return patch_size, stride


ADAIN = TransferKind("adain")
WCT = TransferKind("wct")
PATCHSWAP = TransferKind("patchswap")


def _as_kind(kind) -> TransferKind:
    """``kind`` itself; ShapeError unless it is a :class:`TransferKind`."""
    if not isinstance(kind, TransferKind):
        raise ShapeError(f"kind must be a TransferKind, such as ADAIN, got {kind!r}")
    return kind


def _pc(v):
    """A length-C vector as (1,C,1,1), to broadcast over a feature."""
    return v.reshape(1, -1, 1, 1)


def _moments(a):
    """Per-channel (mean, raw std, floored std) of the feature array
    ``a``, over batch and spatial positions: the statistic of
    :func:`channel_stats`, ``adain`` and ``flows.actnorm_init``.
    NumericError if a raw std overflows (a finite ``a`` above about 1e154)."""
    n = a.shape[0] * a.shape[2] * a.shape[3]
    with np.errstate(over="ignore", invalid="ignore"):
        # ndarray.mean's own two ufuncs, without its Python wrapper.
        mean = np.true_divide(np.add.reduce(a, axis=(0, 2, 3)), n)
        centered = a - _pc(mean)
        root = np.sqrt(np.true_divide(np.add.reduce(centered * centered, axis=(0, 2, 3)), n))
    if not np.isfinite(root).all():
        raise NumericError("per-channel std overflows: the feature is too large to standardize")
    return mean, root, np.maximum(root, EPS_STD)


def _inv_above(x, floor):
    """1/x where x > ``floor``, else 0: the subgradient factor of a root
    (``floor`` 0, as in ``autodiff.sqrt``) or of a floored std (``floor``
    EPS_STD, the mask of ``autodiff.maximum_scalar``)."""
    x = np.asarray(x, dtype=np.float64)
    return np.divide(1.0, x, out=np.zeros_like(x), where=x > floor)


def _moments_grad(centered, root, g_mean, g_std, g_centered=None):
    """Gradient with respect to a feature ``x`` of its per-channel mean
    and floored std, given their gradients ``g_mean`` and ``g_std`` and
    an optional gradient ``g_centered`` on ``centered = x - mean`` itself.

    This is the BatchNorm backward: ``x`` gets the gradient G of
    ``centered`` plus (g_mean - sum G) / n per channel, where G adds
    g_std / (n * root) * centered to ``g_centered``. A channel whose raw
    std ``root`` is at most EPS_STD gets no std gradient, which also
    covers a root of exactly 0: the subgradients of the per-op graph.
    """
    n = centered.size // centered.shape[1]
    g = centered * _pc(_inv_above(root, EPS_STD) * g_std / n)
    if g_centered is not None:
        g += g_centered
    g += _pc((g_mean - g.sum(axis=(0, 2, 3))) / n)
    return g


def channel_stats(f) -> FeatureStats:
    """Per-channel moments over batch and spatial positions.

    Standard deviation uses the population convention (divide by N) and
    is floored at 1e-6 so constant channels stay usable downstream.
    """
    mean, _, std = _moments(as_batch("feature", f))
    return FeatureStats(mean, std)


def adain_content_factor(f) -> np.ndarray:
    """Standardized feature: (f - mean) / std per channel."""
    a = as_batch("feature", f)
    mean, _, std = _moments(a)
    return (a - _pc(mean)) / _pc(std)


def apply_style_factor(content_factor, stats: FeatureStats) -> np.ndarray:
    """Recombine: content_factor * std + mean. NumericError if a value
    overflows (finite statistics of about 1e308)."""
    a = as_batch("content factor", content_factor)
    mean, std = (as_batch(f"style {p}", getattr(stats, p), (a.shape[1],)) for p in ("mean", "std"))
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_recombination(a * _pc(std) + _pc(mean))


def _finite_recombination(out):
    """``out``, a recombined feature; NumericError if it overflowed."""
    if not np.isfinite(out).all():
        raise NumericError("the recombined feature overflows: a factor is too large")
    return out


def adain(f_c, f_s):
    """Match the content feature's per-channel mean/std to the style's.

    The value is ``apply_style_factor(adain_content_factor(f_c),
    channel_stats(f_s))``, computed on arrays in one pass that both the
    array and the taped call run. With a taped Var operand the result is
    a Var from one ``adain`` node that keeps the per-channel statistics
    only: its backward rebuilds the standardized content feature from
    ``f_c`` and sends the gradient through both sides' mean and std by
    :func:`_moments_grad`.
    """
    f_c, f_s = as_feature("content feature", f_c), as_feature("style feature", f_s)
    c_c, c_s = ad._data(f_c).shape[1], ad._data(f_s).shape[1]
    if c_c != c_s:
        raise ShapeError(f"channel mismatch: content {c_c}, style {c_s}")
    return _adain(f_c, f_s)


def _adain(f_c, f_s):
    """The body of :func:`adain` once its checks have passed: ``f_c`` and
    ``f_s`` are finite (B, C, H, W) arrays or Vars of one channel count."""
    dc, ds = ad._data(f_c), ad._data(f_s)
    (mean_c, root_c, std_c), (mean_s, root_s, std_s) = _moments(dc), _moments(ds)
    # In place, with the bits of (dc - mean_c) / std_c * std_s + mean_s.
    out = dc - _pc(mean_c)
    out /= _pc(std_c)
    out *= _pc(std_s)
    out += _pc(mean_s)
    tape = ad._tape_of(f_c, f_s)
    if tape is None:
        return out

    def back(g):
        centered = dc - _pc(mean_c)
        norm = centered / _pc(std_c)
        if isinstance(f_s, ad.Var):
            g_mean, g_std = g.sum(axis=(0, 2, 3)), (g * norm).sum(axis=(0, 2, 3))
            ad._accum(f_s, _moments_grad(ds - _pc(mean_s), root_s, g_mean, g_std))
        if isinstance(f_c, ad.Var):
            g_centered = g * _pc(std_s / std_c)
            g_std = -(g_centered * norm).sum(axis=(0, 2, 3))
            ad._accum(f_c, _moments_grad(centered, root_c, 0.0, g_std, g_centered))

    return ad._record(tape, "adain", out, back, (f_c, f_s))


def cov_factor(f) -> CovFactor:
    """Mean and regularized channel covariance with its +-1/2 powers.

    The covariance of the centered samples gets a ridge of
    ``1e-12 * trace/c`` (an absolute 1e-12 when the trace vanishes) so
    exactly constant features still produce finite whiteners;
    rank-deficient covariances are additionally protected by the
    eigenvalue clamp of ``sym_pow``. Both powers come from one
    eigendecomposition. NumericError if the covariance overflows (a
    finite feature above about 1e154).
    """
    a = ad._swap(as_batch("feature", f))
    x = a.reshape(len(a), -1)
    n = x.shape[1]
    if n < 2:
        raise ShapeError(f"covariance needs at least 2 samples, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=1)
        xc = x - mean[:, np.newaxis]
        cov_raw = matmul(xc, xc.T) / n
        trace = float(np.trace(cov_raw))
    if not (np.isfinite(cov_raw).all() and np.isfinite(trace)):
        raise NumericError("channel covariance overflows: the feature is too large to whiten")
    eps = max(EPS_COV_REL * trace / x.shape[0], EPS_COV_ABS if trace <= 0.0 else 0.0)
    cov = SymMatrix(cov_raw + eps * np.eye(x.shape[0]))
    whitener, colorer = sym_pows(cov, (-0.5, +0.5))
    return CovFactor(mean=mean, cov=cov, whitener=whitener, colorer=colorer)


def wct_content_factor(f) -> np.ndarray:
    """Whitened feature: cov^{-1/2} (f - mean), identity covariance."""
    factor = cov_factor(f)
    a = ad._swap(np.asarray(f, dtype=np.float64))
    x = matmul(factor.whitener, a.reshape(len(a), -1) - factor.mean[:, np.newaxis])
    return ad._swap(x.reshape(a.shape))


def apply_cov_factor(content_factor, factor: CovFactor) -> np.ndarray:
    """Recombine: cov^{1/2} * whitened_factor + mean. NumericError if a
    value overflows (a colorer of about 1e308)."""
    a = as_batch("content factor", content_factor)
    c = a.shape[1]
    shapes = (factor.mean.shape, factor.colorer.shape)
    if shapes != ((c,), (c, c)):
        raise ShapeError(
            f"style factor must have mean ({c},) and colorer ({c}, {c}) for {c} "
            f"channels, got mean {shapes[0]} and colorer {shapes[1]}"
        )
    a = ad._swap(a)
    with np.errstate(over="ignore", invalid="ignore"):
        x = matmul(factor.colorer, a.reshape(c, -1)) + factor.mean[:, np.newaxis]
    return ad._swap(_finite_recombination(x).reshape(a.shape))


def wct(f_c, f_s) -> np.ndarray:
    """Whiten the content feature, then color it with the style covariance."""
    return apply_cov_factor(wct_content_factor(f_c), cov_factor(f_s))


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
    are averaged, so ``stride`` may not exceed ``patch_size``. This
    transfer is intentionally *not* invertible.
    """
    return _patch_swapper(f_s, patch_size, stride)(f_c)


def _patch_swapper(f_s, patch_size, stride):
    """:func:`patch_swap` against the style feature ``f_s`` as a function
    of the content feature, for repeated calls against one style (a leak
    test's rounds): each style sample's patches and unit rows
    (:func:`_style_patches`) are taken once, by the first call that
    matches against it, with the bits of taking them per call. Every call
    checks both features as :func:`patch_swap` does."""
    sides = {}

    def swap(f_c):
        a, b = as_batch("content feature", f_c), as_batch("style feature", f_s)
        if a.shape[1] != b.shape[1]:
            raise ShapeError(f"channel mismatch: content {a.shape[1]}, style {b.shape[1]}")
        ps, step = _patch_geometry(patch_size, stride)
        for name, arr in (("content", a), ("style", b)):
            if ps > arr.shape[2] or ps > arr.shape[3]:
                raise ShapeError(f"patch {ps} exceeds {name} extent {arr.shape[2]}x{arr.shape[3]}")
        out = np.empty_like(a)
        for bi in range(a.shape[0]):
            si = bi % b.shape[0]
            if si not in sides:
                sides[si] = _style_patches(b[si], ps, step)
            out[bi] = _patch_swap_single(a[bi], sides[si], ps, step)
        return out

    return swap


def _patches(x, ps, stride):
    """The patch grid's rows and columns (:func:`_patch_grid`) over ``x``
    (C, H, W), and its (rows*cols, C*ps*ps) channel-unrolled patches in
    row-major grid order, from one window view of ``x``."""
    gy, gx = (np.array(_patch_grid(n, ps, stride)) for n in x.shape[1:])
    windows = sliding_window_view(x, (ps, ps), axis=(1, 2)).transpose(1, 2, 0, 3, 4)
    return gy, gx, windows[np.ix_(gy, gx)].reshape(gy.size * gx.size, -1)


def _unit_rows(patches):
    """``patches`` over their norms (floored at 1e-12); NumericError if a norm overflows."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(patches, axis=1, keepdims=True)
    if not np.isfinite(norm).all():
        raise NumericError("patch norms overflow: the feature is too large to match patches")
    return patches / np.maximum(norm, 1e-12)


def _style_patches(style, ps, stride):
    """The style side of a patch match against ``style`` (C, H, W): its
    patches as (patch, channel, ps, ps) taps and the transpose of their
    unit rows."""
    s_patches = _patches(style, ps, stride)[2]
    return s_patches.reshape(len(s_patches), -1, ps, ps), _unit_rows(s_patches).T


def _patch_swap_single(content, style_side, ps, stride):
    c_gy, c_gx, c_patches = _patches(content, ps, stride)
    s_taps, s_unit_t = style_side
    sims = matmul(_unit_rows(c_patches), s_unit_t)
    matches = np.argmax(sims, axis=1)  # first max wins: lowest style index
    # Fold the chosen patches tap by tap, dy and dx descending, so each
    # pixel gets its patches added in grid order.
    acc = np.zeros_like(content)
    cover = np.zeros(content.shape[1:])
    for dy in reversed(range(ps)):
        for dx in reversed(range(ps)):
            at = np.ix_(c_gy + dy, c_gx + dx)
            chosen = s_taps[matches, :, dy, dx].reshape(c_gy.size, c_gx.size, -1)
            acc[:, at[0], at[1]] += chosen.transpose(2, 0, 1)
            cover[at] += 1.0
    return acc / cover[np.newaxis, :, :]


def transfer_apply(kind: TransferKind, f_c, f_s, alpha: float = 1.0) -> np.ndarray:
    """Dispatch to the selected module, then blend with the content.

    ``alpha`` interpolates between the untouched content feature (0) and
    the fully transferred feature (1). Both features must be arrays.
    """
    kind, alpha = _as_kind(kind), as_real("alpha", alpha, 0.0, 1.0)
    f_c, f_s = as_batch("content feature", f_c), as_batch("style feature", f_s)
    if kind.name == "adain":
        f_cs = adain(f_c, f_s)
    elif kind.name == "wct":
        f_cs = wct(f_c, f_s)
    else:
        f_cs = patch_swap(f_c, f_s, kind.patch_size, kind.stride)
    return _blend(f_cs, f_c, alpha)


def _blend(f_cs, f_c, alpha):
    """The transferred feature ``f_cs`` blended with the content feature
    ``f_c``: ``f_cs`` itself at ``alpha`` 1."""
    if alpha == 1.0:
        return f_cs
    return alpha * f_cs + (1.0 - alpha) * f_c
