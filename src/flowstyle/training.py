"""Desk-scale training of the reversible network.

The loss path mirrors inference: encode content and style, transfer the
statistics in latent space, decode, then score the decoded image with a
*fixed* random convolutional feature extractor (:class:`LossNet`). The
content term pulls the decoded image's top-stage features toward the
statistically-matched target; the style term matches per-stage channel
mean/std against the style image. Gradients flow through the encoder,
the transfer, and the decoder.

Everything is deterministic given the config seed: same seed and data
order reproduce bit-identical parameters.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NumericError, ShapeError
from .flows import FlowNet, initialize_actnorms
from .transfer import adain, channel_stats

LOSSNET_WIDTHS = (16, 32, 64, 64)


class LossNet:
    """Fixed (non-trainable) conv stages: 3x3 stride-2 conv + ReLU each.

    Parameters are drawn once from the seed and never change, so the same
    seed yields identical features forever.
    """

    def __init__(self, kernels, biases, seed: int):
        self.kernels = tuple(np.asarray(k, dtype=np.float64) for k in kernels)
        self.biases = tuple(np.asarray(b, dtype=np.float64) for b in biases)
        self.seed = seed
        for k in self.kernels:
            k.flags.writeable = False
        for b in self.biases:
            b.flags.writeable = False

    def _features(self, v):
        feats = []
        for k, b in zip(self.kernels, self.biases):
            v = ad.relu(ad.add(ad.conv2d(v, k, stride=2, pad=1), ad.per_channel(b)))
            feats.append(v)
        return feats

    def features(self, image) -> list[np.ndarray]:
        """Per-stage feature maps for an image batch (B,C,H,W)."""
        return [f.data for f in self._features(ad.lift(image))]

    def top_feature(self, image) -> np.ndarray:
        return self.features(image)[-1]


def build_lossnet(
    seed: int = 0, in_channels: int = 3, widths=LOSSNET_WIDTHS
) -> LossNet:
    rng = np.random.default_rng(seed)
    kernels, biases = [], []
    c_in = in_channels
    for width in widths:
        fan_in = c_in * 9
        kernels.append(rng.standard_normal((width, c_in, 3, 3)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(width))
        c_in = width
    return LossNet(kernels, biases, seed)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; the stated defaults are the desk-scale settings."""

    iterations: int = 2000
    batch_size: int = 2
    learning_rate: float = 1e-4
    lr_decay: float = 5e-5
    lambda_content: float = 0.1
    lambda_style: float = 1.0
    seed: int = 0
    crop_size: int = 32

    def __post_init__(self):
        if self.iterations < 0 or self.batch_size < 1 or self.crop_size < 1:
            raise ShapeError("iterations/batch_size/crop_size out of range")
        if self.seed < 0:
            raise ShapeError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ShapeError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        for name in ("lr_decay", "lambda_content", "lambda_style"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ShapeError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class AdamState:
    """First/second moment estimates, one pair per parameter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={n: np.zeros_like(p) for n, p in params.items()},
            v={n: np.zeros_like(p) for n, p in params.items()},
        )


def adam_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One in-place Adam step over all parameters (fixed dict order)."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / (1.0 - b1**t)
        v_hat = state.v[name] / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# losses


def adain_traced(f_c, f_s):
    """Same as :func:`transfer.adain`, which takes taped input itself; kept
    for callers that look this name up (``perfbench`` traces it)."""
    return adain(f_c, f_s)


def content_loss(stylized_image, target_feature, lossnet: LossNet):
    """RMS distance between the image's top-stage features and the target.

    Returns a float for array input, a Var for taped input.
    """
    v = ad.lift(stylized_image)
    top = lossnet._features(v)[-1]
    d = ad.sub(top, np.asarray(target_feature, dtype=np.float64))
    out = ad.sqrt(ad.mean_all(ad.mul(d, d)))
    return out if isinstance(stylized_image, ad.Var) else float(out.data)


def style_loss(stylized_image, style_image, lossnet: LossNet):
    """Sum over stages of ||mu - mu_s||_2 + ||sigma - sigma_s||_2."""
    targets = [channel_stats(f) for f in lossnet.features(style_image)]
    v = ad.lift(stylized_image)
    total = None
    for feat, target in zip(lossnet._features(v), targets):
        stats = channel_stats(feat)
        d_mu = ad.sub(stats.mean, target.mean)
        d_sd = ad.sub(stats.std, target.std)
        term = ad.add(
            ad.sqrt(ad.sum_all(ad.mul(d_mu, d_mu))),
            ad.sqrt(ad.sum_all(ad.mul(d_sd, d_sd))),
        )
        total = term if total is None else ad.add(total, term)
    return total if isinstance(stylized_image, ad.Var) else float(total.data)


def transfer_target(lossnet: LossNet, content, style) -> np.ndarray:
    """Training target: statistic-matched top-stage features.

    The content image's top features with their per-channel mean/std
    replaced by the style image's; computed outside the tape.
    """
    f_c = lossnet.top_feature(content)
    f_s = lossnet.top_feature(style)
    return adain(f_c, f_s)


# ---------------------------------------------------------------------------
# the training step and loop


@dataclass
class StepResult:
    content_loss: float
    style_loss: float
    total_loss: float


def training_loss(model: FlowNet, params, content, style, cfg: TrainConfig, lossnet: LossNet):
    """Full differentiable loss for one batch; ``params`` maps name -> Var."""
    tape = next(iter(params.values())).tape if params else None
    f_c = model.forward(ad.Var(content, tape), params=params)
    f_s = model.forward(ad.Var(style, tape), params=params)
    f_cs = adain(f_c, f_s)
    decoded = model.inverse(f_cs, params=params)
    target = transfer_target(lossnet, content, style)
    l_c = content_loss(decoded, target, lossnet)
    l_s = style_loss(decoded, style, lossnet)
    total = ad.add(ad.mul(l_c, cfg.lambda_content), ad.mul(l_s, cfg.lambda_style))
    return total, l_c, l_s


def train_step(
    model: FlowNet,
    lossnet: LossNet,
    batch: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    adam: AdamState,
) -> StepResult:
    """One forward/backward/Adam update; initializes actnorms on demand.

    The learning rate for the update is lr / (1 + decay * completed_steps).
    """
    content, style = (np.asarray(b, dtype=np.float64) for b in batch)
    if not model.initialized:
        initialize_actnorms(model, np.concatenate([content, style], axis=0))
    tape = ad.Tape()
    pvars = {name: ad.Var(arr, tape) for name, arr in model.params.items()}
    total, l_c, l_s = training_loss(model, pvars, content, style, cfg, lossnet)
    result = StepResult(float(l_c.data), float(l_s.data), float(total.data))
    if not np.isfinite(result.total_loss):
        raise NumericError(
            f"non-finite loss (content={result.content_loss}, "
            f"style={result.style_loss}) at adam step {adam.step + 1}"
        )
    ad.backward(total)
    grads = {name: pvars[name].grad for name in model.params}
    lr = cfg.learning_rate / (1.0 + cfg.lr_decay * adam.step)
    adam_update(model.params, grads, adam, lr)
    return result


def _crop(img: np.ndarray, size: int, rng) -> np.ndarray:
    c, h, w = img.shape
    if h < size or w < size:
        raise ShapeError(f"image {h}x{w} smaller than crop {size}")
    y = int(rng.integers(0, h - size + 1))
    x = int(rng.integers(0, w - size + 1))
    return img[:, y : y + size, x : x + size]


def _as_chw(img) -> np.ndarray:
    a = np.asarray(img, dtype=np.float64)
    if a.ndim == 4 and a.shape[0] == 1:
        a = a[0]
    if a.ndim != 3:
        raise ShapeError(f"expected a (C,H,W) image, got shape {a.shape}")
    return a


def train(
    model: FlowNet,
    cfg: TrainConfig,
    pairs,
    lossnet: LossNet | None = None,
    log_stream: io.TextIOBase | None = None,
    on_step=None,
) -> FlowNet:
    """Run ``cfg.iterations`` Adam steps over a (content, style) pair source.

    ``pairs`` is an iterable of image pairs; it is cycled as needed, with
    batches of ``cfg.batch_size`` random-cropped to ``cfg.crop_size``.
    Actnorms are initialized from the first batch even when
    ``cfg.iterations`` is zero. Each step writes one
    ``step<TAB>L_c<TAB>L_s<TAB>L_total`` line (17 significant digits) to
    ``log_stream``; ``on_step(step, model, result)`` fires after each
    update.
    """
    if lossnet is None:
        lossnet = build_lossnet(cfg.seed, model.config.in_channels)
    pairs = [( _as_chw(c), _as_chw(s)) for c, s in pairs]
    if not pairs:
        raise ShapeError("data source yielded no image pairs")
    rng = np.random.default_rng(cfg.seed)
    adam = AdamState.for_params(model.params)
    cursor = 0

    def next_batch():
        nonlocal cursor
        cs, ss = [], []
        for _ in range(cfg.batch_size):
            c, s = pairs[cursor % len(pairs)]
            cursor += 1
            cs.append(_crop(c, cfg.crop_size, rng))
            ss.append(_crop(s, cfg.crop_size, rng))
        return np.stack(cs), np.stack(ss)

    batch = next_batch()
    if not model.initialized:
        initialize_actnorms(model, np.concatenate(batch, axis=0))
    for step in range(1, cfg.iterations + 1):
        result = train_step(model, lossnet, batch, cfg, adam)
        if log_stream is not None:
            log_stream.write(
                f"{step}\t{result.content_loss:.17g}\t{result.style_loss:.17g}"
                f"\t{result.total_loss:.17g}\n"
            )
        if on_step is not None:
            on_step(step, model, result)
        if step < cfg.iterations:
            batch = next_batch()
    return model


def check_model_gradients(model: FlowNet, loss_fn, batch, step: float = 1e-5, tol: float = 1e-4):
    """Finite-difference check of every model parameter.

    ``loss_fn(model, param_vars, batch)`` must build a scalar Var from the
    given parameter mapping. Returns the :class:`GradCheckReport`.
    """
    def build(pvars):
        return loss_fn(model, pvars, batch)

    return ad.grad_check(model.params, build, step=step, tol=tol)
