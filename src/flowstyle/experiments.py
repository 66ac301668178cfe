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

from .autodiff import _check_real
from .errors import ShapeError, as_index
from .flows import FlowNet, FlowNetConfig, _StepParams, build_flownet
from .metrics import gram_loss, recon_error, ssim
from .training import LossNet, TrainConfig, build_lossnet, train
from .transfer import ADAIN, FACTORS, TransferKind, transfer_apply


def stylize(model: FlowNet, kind: TransferKind, content, style, alpha: float = 1.0) -> np.ndarray:
    """Project both images, transfer statistics in latent space, decode.

    The returned tensor is *not* clamped to [0, 1]; clamping happens only
    at file-write time so repeated stylization stays exact. The three
    walks share one set of scratch buffers.
    """
    step = _StepParams({})
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
    round 1 is SSIM 1 / drift 0 by construction. A statistics-preserving
    transfer keeps drift at rounding level; a patch-replacement transfer
    drifts monotonically. The style image is encoded once, so ``rounds``
    rounds take ``rounds + 1`` forward and ``rounds`` inverse passes,
    which share one inverse of each invconv weight and one set of scratch
    buffers.
    """
    rounds = as_index("rounds", rounds)
    if rounds < 1:
        raise ShapeError(f"rounds must be >= 1, got {rounds}")
    step = _StepParams({})
    f_s = model.forward(style, step)

    def restyle(image):
        f_cs = transfer_apply(kind, model.forward(image, step), f_s, alpha)
        return model.inverse(f_cs, step)

    first = restyle(content)
    ssims = [ssim(first, first)]
    drifts = [0.0]
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
    if kind.name not in FACTORS:
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
    if kind.name not in FACTORS:
        raise ShapeError(f"content factor requires one of {tuple(FACTORS)}")
    content_factor, step = FACTORS[kind.name][0], _StepParams({})
    return model.inverse(content_factor(model.forward(content, step)), step)


def ablation_run(
    configs: list[FlowNetConfig],
    train_pairs,
    eval_pairs,
    cfg: TrainConfig,
    kind: TransferKind | None = None,
    lossnet: LossNet | None = None,
) -> str:
    """Train each architecture with a shared seed; tab-separated report.

    Per config the table row carries the worst round-trip error over the
    evaluation contents plus SSIM (content vs stylized) and Gram loss
    (style vs stylized) averaged over the evaluation pairs. A complex
    evaluation image raises ShapeError before any training.
    """
    kind = kind or ADAIN
    eval_pairs = [(_as_batch(content), _as_batch(style)) for content, style in eval_pairs]
    rows = ["config\trecon_error\tssim\tgram_loss"]
    for config in configs:
        model = build_flownet(config, seed=cfg.seed)
        net = lossnet or build_lossnet(cfg.seed, config.in_channels)
        train(model, cfg, train_pairs, lossnet=net)
        worst_recon = 0.0
        ssims, grams = [], []
        for content, style in eval_pairs:
            stylized = stylize(model, kind, content, style)
            worst_recon = max(worst_recon, recon_error(model, content))
            ssims.append(ssim(content, stylized))
            grams.append(gram_loss(style, stylized, net))
        name = f"flow{config.n_flows}-block{config.n_blocks}"
        rows.append(
            f"{name}\t{worst_recon:.17g}"
            f"\t{float(np.mean(ssims)):.17g}\t{float(np.mean(grams)):.17g}"
        )
    return "\n".join(rows) + "\n"


def _as_batch(img) -> np.ndarray:
    _check_real("ablation_run", img)
    a = np.asarray(img, dtype=np.float64)
    if a.ndim == 3:
        a = a[np.newaxis]
    return a
