"""Desk-scale training of the reversible network.

The loss path mirrors inference: encode content and style, transfer the
statistics in latent space, decode, then score the decoded image with a
*fixed* random convolutional feature extractor (:class:`LossNet`). The
content term pulls the decoded image's top-stage features toward the
statistically-matched target; the style term matches per-stage channel
mean/std against the style image. Gradients flow through the encoder,
the transfer, and the decoder.

A step walks the flow twice and runs the LossNet twice: one forward
walk encodes content and style stacked as one batch, one inverse walk
decodes, and the LossNet sees content and style stacked as one batch off
the tape and the decoded image on it. The walks share each invconv
weight's inverse. Content and style therefore share (C, H, W); their
batch sizes may differ. AdaIN, the content term and the style term are
one tape node each, with closed-form backwards, so a step's tape holds
the two walks, the ``split_batch``, AdaIN, the decoded image's LossNet
stages, the two loss terms and their weighted sum.

Everything is deterministic given the config seed: same seed and data
order reproduce bit-identical parameters.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NumericError, ShapeError, as_batch, as_feature, as_index, as_real
from .flows import FlowNet, _StepParams, initialize_actnorms
from .linalg import blas_threads
from .transfer import _adain, _inv_above, _moments, _moments_grad, _pc, adain

LOSSNET_WIDTHS = (16, 32, 64, 64)

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
_ADAM_B1, _ADAM_B2, _ADAM_EPS = 0.9, 0.999, 1e-8


class LossNet:
    """Fixed (non-trainable) conv stages: 3x3 stride-2 conv + ReLU each.

    The kernels and biases are read-only and never change, so one LossNet
    yields identical features forever (:func:`build_lossnet` draws them
    from a seed). Each stage's kernel must take the previous stage's
    output channels; the first kernel sets the input channel count. The
    kernels are checked once, here, and each is prepared once, at
    stride 2 and pad 1 (``autodiff._Kernel``), so :meth:`features` checks
    only its image.
    """

    def __init__(self, kernels, biases):
        self.kernels = tuple(as_batch("LossNet kernel", k) for k in kernels)
        self.biases = tuple(as_batch("LossNet bias", b, k.shape[:1])
                            for k, b in zip(self.kernels, biases))
        if not self.kernels or len(self.biases) != len(self.kernels):
            raise ShapeError(
                f"a LossNet needs at least one stage and one bias per kernel, got "
                f"{len(self.kernels)} kernels and {len(self.biases)} biases"
            )
        for prev, k in zip(self.kernels, self.kernels[1:]):
            if k.shape[1] != prev.shape[0]:
                raise ShapeError(
                    f"a LossNet kernel takes {k.shape[1]} channels, but the stage "
                    f"before it gives {prev.shape[0]}"
                )
        for k in self.kernels:
            k.flags.writeable = False
        for b in self.biases:
            b.flags.writeable = False
        self._stages = tuple(ad._Kernel(k, 2, 1) for k in self.kernels)

    def features(self, image) -> list[ad.Value]:
        """Per-stage feature maps for an image batch (B,C,H,W): arrays
        for an array, Vars for a Var. A complex or empty image, or one of
        another channel count or too small for a stage's kernel, raises
        ShapeError and a NaN or infinite pixel NumericError
        (:func:`errors.as_feature`), before any stage runs. Each stage is
        one ``conv2d`` node when the image is a Var; when every stage's
        GEMM is small, all of them share one BLAS-thread block
        (:class:`linalg.blas_threads`)."""
        image = as_feature("LossNet input", image)
        b, c, h, w = ad._data(image).shape
        if c != self.kernels[0].shape[1]:
            raise ShapeError(f"LossNet input has {c} channels, its first kernel takes "
                             f"{self.kernels[0].shape[1]}")
        most = 0
        for stage in self._stages:
            taps, macs = stage.at(b, h, w)
            if taps.h_out <= 0 or taps.w_out <= 0:
                raise ShapeError(f"a LossNet kernel is larger than its padded {h}x{w} input")
            h, w, most = taps.h_out, taps.w_out, max(most, macs)
        feats = []
        with blas_threads(most):
            for stage, bias in zip(self._stages, self.biases):
                image = ad._conv2d(image, stage.k, stage, bias, relu=True)
                feats.append(image)
        return feats

    def top_feature(self, image) -> ad.Value:
        return self.features(image)[-1]


def build_lossnet(
    seed: int = 0, in_channels: int = 3, widths=LOSSNET_WIDTHS
) -> LossNet:
    """A LossNet with one stage per entry of ``widths``, each a positive
    integer; anything else, or no width, raises ShapeError."""
    rng = np.random.default_rng(as_index("seed", seed, 0))
    kernels, biases = [], []
    c_in = as_index("in_channels", in_channels, 1)
    try:
        widths = list(widths)
    except TypeError:
        raise ShapeError(f"LossNet widths must be a sequence, got {widths!r}") from None
    widths = [as_index("LossNet width", width, 1) for width in widths]
    if not widths:
        raise ShapeError("a LossNet needs at least one stage width")
    for width in widths:
        fan_in = c_in * 9
        kernels.append(rng.standard_normal((width, c_in, 3, 3)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(width))
        c_in = width
    return LossNet(kernels, biases)


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
        for name, least in (
            ("iterations", 0), ("batch_size", 1), ("crop_size", 1), ("seed", 0)
        ):
            object.__setattr__(self, name, as_index(name, getattr(self, name), least))
        for name in ("learning_rate", "lr_decay", "lambda_content", "lambda_style"):
            object.__setattr__(self, name, as_real(name, getattr(self, name), 0.0))
        if self.learning_rate == 0.0:
            raise ShapeError("learning_rate must be > 0, got 0.0")


@dataclass
class AdamState:
    """First/second moment estimates, one pair per parameter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

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
    """One in-place Adam step over all parameters (fixed dict order).

    The moment arrays are updated in place, with the bits of
    ``b1 * m + (1 - b1) * g`` (and likewise for ``v``).
    """
    state.step += 1
    t = state.step
    b1, b2 = _ADAM_B1, _ADAM_B2
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


# ---------------------------------------------------------------------------
# losses


def adain_traced(f_c, f_s):
    """Same as :func:`transfer.adain`, which takes taped input itself; kept
    for callers that look this name up (``perfbench`` traces it)."""
    return adain(f_c, f_s)


def content_loss(stylized_image, target_feature, lossnet: LossNet):
    """RMS distance between the image's top-stage features and the target.

    Returns a float for array input, a Var for Var input. The target
    must be a finite array of those features' shape: a Var or another
    shape raises ShapeError, a NaN or infinite value NumericError.
    """
    top = lossnet.top_feature(stylized_image)
    return _content_term(top, as_batch("content target", target_feature, ad._data(top).shape))


def style_loss(stylized_image, style_image, lossnet: LossNet):
    """Sum over stages of ||mu - mu_s||_2 + ||sigma - sigma_s||_2.

    Returns a float for array input, a Var for Var input.
    """
    return _style_term(lossnet.features(stylized_image), lossnet.features(style_image))


def transfer_target(lossnet: LossNet, content, style) -> np.ndarray:
    """Training target: statistic-matched top-stage features.

    The content image's top features with their per-channel mean/std
    replaced by the style image's; computed outside the tape.
    """
    return adain(lossnet.top_feature(content), lossnet.top_feature(style))


def _content_term(top, target):
    """:func:`content_loss` of an image's top-stage features ``top``
    against the float64 array ``target`` of their shape. A taped ``top``
    gives a Var from one ``content_term`` node, whose backward sends
    d / (n * loss) down (0 at a zero loss, as ``autodiff.sqrt`` does).
    """
    d = ad._data(top) - target
    out = np.sqrt(np.asarray((d * d).mean()))
    if not isinstance(top, ad.Var):
        return float(out)

    def back(g):
        ad._accum(top, d * (g * _inv_above(out, 0.0) / d.size))

    return ad._record(top.tape, "content_term", out, back, (top,))


def _style_term(feats, style_feats):
    """:func:`style_loss` of an image's per-stage features ``feats``
    against the style image's ``style_feats``.

    With a taped Var among them the result is a Var from one
    ``style_term`` node over all stages. It keeps each stage's
    per-channel statistics and differences, and no array feature; its
    backward rebuilds each taped feature's centered values from its
    input and sends each norm's gradient d / ||d|| (0 at a zero norm)
    through the stage's mean and floored std by
    :func:`transfer._moments_grad`.
    """
    stages, total = [], None
    for feat, style_feat in zip(feats, style_feats):
        (mean, root, std), (mean_s, root_s, std_s) = (
            _moments(ad._data(f)) for f in (feat, style_feat)
        )
        d_mu, d_sd = mean - mean_s, std - std_s
        n_mu, n_sd = np.sqrt((d_mu * d_mu).sum()), np.sqrt((d_sd * d_sd).sum())
        term = n_mu + n_sd
        total = term if total is None else total + term
        sides = ((feat, mean, root, 1.0), (style_feat, mean_s, root_s, -1.0))
        stages.append(([side for side in sides if isinstance(side[0], ad.Var)],
                       d_mu * _inv_above(n_mu, 0.0), d_sd * _inv_above(n_sd, 0.0)))
    tape = ad._tape_of(*feats, *style_feats)
    if tape is None:
        return float(total)

    def back(g):
        for sides, u_mu, u_sd in stages:
            for f, mean, root, sign in sides:
                grad = _moments_grad(f.data - _pc(mean), root, sign * g * u_mu, sign * g * u_sd)
                ad._accum(f, grad)

    return ad._record(tape, "style_term", total, back, (*feats, *style_feats))


# ---------------------------------------------------------------------------
# the training step and loop


@dataclass
class StepResult:
    content_loss: float
    style_loss: float
    total_loss: float


def training_loss(model: FlowNet, params, content, style, cfg: TrainConfig, lossnet: LossNet):
    """Full differentiable loss for one batch: (total, content, style).

    ``params`` maps name -> value. Taped Vars give taped losses to
    differentiate; arrays give the content and style losses as floats.
    The values' names and shapes are checked when the first walk builds
    its plan, unless ``params`` is a ``flows._StepParams`` of the model's
    own weights (:func:`train_step`).
    ``content`` and ``style`` are image batches of one (C, H, W)
    (:func:`_as_batches`); their batch sizes may differ.

    One forward walk encodes content and style stacked as one batch; the
    latent is split before AdaIN, which pools its statistics over the
    batch. One inverse walk decodes, and the walks share each invconv's
    inverse. The LossNet runs twice: on content and style stacked as one
    batch off the tape, whose per-stage features are then sliced apart,
    and on the decoded image on it. AdaIN, the content term and the
    style term are one tape node each. The losses equal (``==``) those
    of separate ``model.forward`` calls composed with
    :func:`transfer_target`, :func:`content_loss` and :func:`style_loss`:
    conv2d multiplies each sample of a batch on its own.
    """
    content, style = _as_batches(content, style)
    if not isinstance(params, _StepParams):
        params = _StepParams(params)
    n = content.shape[0]
    images = np.concatenate([content, style])
    f_c, f_s = ad.split_batch(model.forward(images, params=params), n)
    decoded = model.inverse(_adain(f_c, f_s), params=params)
    fixed = lossnet.features(images)
    style_feats = [f[n:] for f in fixed]
    target = _adain(fixed[-1][:n], style_feats[-1])
    feats = lossnet.features(decoded)
    l_c = _content_term(feats[-1], target)
    l_s = _style_term(feats, style_feats)
    total = ad.add(ad.mul(l_c, cfg.lambda_content), ad.mul(l_s, cfg.lambda_style))
    return total, l_c, l_s


def _as_batches(content, style):
    """Content and style as image batches (:func:`errors.as_batch`)
    that share (C, H, W); ShapeError naming both shapes otherwise."""
    c, s = as_batch("content images", content), as_batch("style images", style)
    if c.shape[1:] != s.shape[1:]:
        raise ShapeError(
            f"content and style must be batches of one (C,H,W), got {c.shape} and {s.shape}"
        )
    return c, s


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
    content, style = _as_batches(*batch)
    if not model.initialized:
        initialize_actnorms(model, np.concatenate([content, style], axis=0))
    tape = ad.Tape()
    pvars = {name: ad.Var(arr, tape) for name, arr in model.params.items()}
    own = _StepParams(pvars, own=True)
    total, l_c, l_s = training_loss(model, own, content, style, cfg, lossnet)
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


def _as_chw(name, img) -> np.ndarray:
    """A (C,H,W) image, or a batch of one, as a checked (C,H,W) array."""
    a = as_batch(name, np.expand_dims(img, 0) if np.ndim(img) == 3 else img)
    if a.shape[0] != 1:
        raise ShapeError(f"{name} must be one (C,H,W) image, got shape {a.shape}")
    return a[0]


def _as_pairs(pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    """The pair source as (content, style) (C,H,W) arrays, all with one
    channel count; ShapeError for a non-pair, a malformed image or a
    channel mismatch and NumericError for a NaN or infinite value, each
    naming the pair."""
    checked = []
    for i, item in enumerate(pairs):
        try:
            content, style = item
        except (TypeError, ValueError):
            raise ShapeError(f"pair {i} is not a (content, style) pair") from None
        content = _as_chw(f"content image of pair {i}", content)
        style = _as_chw(f"style image of pair {i}", style)
        channels = checked[0][0].shape[0] if checked else content.shape[0]
        if content.shape[0] != channels or style.shape[0] != channels:
            raise ShapeError(
                f"pair {i}: content {content.shape} and style {style.shape} must "
                f"both have {channels} channels"
            )
        checked.append((content, style))
    return checked


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
    pairs = _as_pairs(pairs)
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

