"""End-to-end experiment procedures over a trained (or fresh) network.

The central claim these procedures make measurable: with a lossless
encoder/decoder and a statistics-preserving transfer, stylization is
idempotent, so feeding an output back in as content changes nothing.
``leak_test`` quantifies that; ``reverse_transfer`` exploits it to undo a
stylization exactly; ``content_factor_image`` renders the style-free
content factor; ``ablation_run`` sweeps architectures.

Everything is seeded and deterministic end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, as_batch, as_index, as_real
from .flows import FlowNet, FlowNetConfig, _StepParams, build_flownet
from .metrics import SSIM_WINDOW, evaluate_stylization, ssim
from .training import TrainConfig, build_lossnet, train
from .transfer import (
    ADAIN, FACTORS, TransferKind, _as_kind, _blend, _patch_swapper, transfer_apply,
)


def stylize(model: FlowNet, kind: TransferKind, content, style, alpha: float = 1.0) -> np.ndarray:
    """Project both images, transfer statistics in latent space, decode.

    The returned tensor is *not* clamped to [0, 1]; clamping happens only
    at file-write time so repeated stylization stays exact. The three
    walks share one set of scratch buffers.
    """
    kind, alpha, step = _as_kind(kind), as_real("alpha", alpha, 0.0, 1.0), _StepParams({})
    f_cs = transfer_apply(kind, model.forward(content, step), model.forward(style, step), alpha)
    return model.inverse(f_cs, step)


@dataclass(frozen=True)
class LeakReport:
    """Per-round agreement with the first stylization output."""

    rounds: int
    ssim_vs_first: tuple[float, ...]
    drift_vs_first: tuple[float, ...]

    @property
    def max_drift(self) -> float:
        return max(self.drift_vs_first)

    def lines(self) -> str:
        out = ["round\tssim\tdrift"]
        for i in range(self.rounds):
            out.append(
                f"{i + 1}\t{self.ssim_vs_first[i]:.17g}\t{self.drift_vs_first[i]:.17g}"
            )
        return "\n".join(out) + "\n"


def leak_test(
    model: FlowNet,
    kind: TransferKind,
    content,
    style,
    rounds: int = 20,
    alpha: float = 1.0,
) -> LeakReport:
    """Re-stylize the previous output ``rounds`` times against a fixed style.

    Round k compares output k with output 1 (SSIM and max-abs drift), so
    round 1 is SSIM 1 / drift 0 by construction and is not computed. The
    content image is checked first (:func:`errors.as_batch`): one
    smaller than SSIM's window raises ShapeError before any walk. A
    statistics-preserving transfer keeps drift at rounding level; a
    patch-replacement transfer drifts monotonically. The style image is
    encoded once, so ``rounds`` rounds take ``rounds + 1`` forward and
    ``rounds`` inverse passes, which share one layer plan (each invconv
    weight inverted once) and one set of scratch buffers. The style
    latent's side of the transfer is taken once too, with the bits of
    ``transfer_apply``: for adain and wct its style factor, which each
    round recombines with the round's content factor (``FACTORS``), and
    for patch swap its patches and their unit rows
    (``transfer._patch_swapper``).
    """
    kind, alpha = _as_kind(kind), as_real("alpha", alpha, 0.0, 1.0)
    rounds, step = as_index("rounds", rounds, 1), _StepParams({})
    content = as_batch("content image", content)
    if min(content.shape[2:]) < SSIM_WINDOW:
        raise ShapeError(
            f"leak_test content must be at least {SSIM_WINDOW}x{SSIM_WINDOW} for "
            f"SSIM's window, got {content.shape[2]}x{content.shape[3]}"
        )
    f_s = model.forward(style, step)
    if kind.name in FACTORS:
        content_factor, style_factor, recombine = FACTORS[kind.name]
        factor = style_factor(f_s)

        def transfer(f_c):
            return _blend(recombine(content_factor(f_c), factor), f_c, alpha)
    else:
        swap = _patch_swapper(f_s, kind.patch_size, kind.stride)

        def transfer(f_c):
            return _blend(swap(f_c), f_c, alpha)

    def restyle(image):
        return model.inverse(transfer(model.forward(image, step)), step)

    first = restyle(content)
    # ssim(first, first) is exactly 1.0: each term's numerator and
    # denominator are the same ops on the same values.
    ssims, drifts = [1.0], [0.0]
    current = first
    for _ in range(1, rounds):
        current = restyle(current)
        ssims.append(ssim(current, first))
        drifts.append(float(np.max(np.abs(current - first))))
    return LeakReport(rounds, tuple(ssims), tuple(drifts))


def reverse_transfer(
    model: FlowNet, kind: TransferKind, content, style
) -> tuple[np.ndarray, np.ndarray]:
    """Stylize, then stylize back using the original content as the style.

    With an exactly invertible network and a statistics-preserving
    transfer the second pass restores the content image. The content
    latent serves as the second pass's style latent, so the whole takes
    three forward and two inverse passes, which share one inverse of each
    invconv weight and one set of scratch buffers.
    """
    if _as_kind(kind).name not in FACTORS:
        raise ShapeError(f"reverse transfer requires one of {tuple(FACTORS)}")
    step = _StepParams({})
    f_c = model.forward(content, step)
    stylized = model.inverse(transfer_apply(kind, f_c, model.forward(style, step)), step)
    recovered = model.inverse(transfer_apply(kind, model.forward(stylized, step), f_c), step)
    return stylized, recovered


def content_factor_image(model: FlowNet, kind: TransferKind, content) -> np.ndarray:
    """Decode the style-free content factor back to an image.

    The latent's style factor is replaced by the neutral one (mean 0 and
    unit std for adain; mean 0 and identity covariance for wct) before
    decoding.
    """
    if _as_kind(kind).name not in FACTORS:
        raise ShapeError(f"content factor requires one of {tuple(FACTORS)}")
    content_factor, step = FACTORS[kind.name][0], _StepParams({})
    return model.inverse(content_factor(model.forward(content, step)), step)


def ablation_run(configs: list[FlowNetConfig], train_pairs, eval_pairs, cfg: TrainConfig) -> str:
    """Train each architecture with a shared seed; tab-separated report.

    Per config, trained against ``build_lossnet(cfg.seed)``, the table
    row carries the worst round-trip error over the evaluation contents
    plus SSIM (content vs AdaIN-stylized) and Gram loss (style vs
    stylized) averaged over the evaluation pairs, each pair scored by
    :func:`metrics.evaluate_stylization`. Each evaluation image, (C,H,W)
    or a batch, is checked before any training: by
    :func:`errors.as_batch` and against every config's network.
    """
    eval_pairs = [(_as_batch(content), _as_batch(style)) for content, style in eval_pairs]
    models = [build_flownet(config, seed=cfg.seed) for config in configs]
    for model in models:
        for pair in eval_pairs:
            for image in pair:
                model._check_image(image)
    rows = ["config\trecon_error\tssim\tgram_loss"]
    for config, model in zip(configs, models):
        net = build_lossnet(cfg.seed, config.in_channels)
        train(model, cfg, train_pairs, lossnet=net)
        reports = [
            evaluate_stylization(model, net, content, style, stylize(model, ADAIN, content, style))
            for content, style in eval_pairs
        ]
        worst_recon = max((r.recon_error for r in reports), default=0.0)
        ssims, grams = [r.ssim for r in reports], [r.gram_loss for r in reports]
        rows.append(
            f"flow{config.n_flows}-block{config.n_blocks}\t{worst_recon:.17g}"
            f"\t{float(np.mean(ssims)):.17g}\t{float(np.mean(grams)):.17g}"
        )
    return "\n".join(rows) + "\n"


def _as_batch(img) -> np.ndarray:
    return as_batch("evaluation image", np.expand_dims(img, 0) if np.ndim(img) == 3 else img)
