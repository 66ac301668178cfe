"""Exactly reversible flow network used as both encoder and decoder.

The network is a chain of blocks; each block starts with a squeeze
(2x2 space-to-depth) followed by ``n_flows`` flow steps, and each step is
actnorm -> invertible 1x1 convolution -> additive coupling. Every layer
has an exact inverse, so ``model.inverse(model.forward(x))`` reproduces
``x`` to within float64 rounding, with no information loss anywhere.

:meth:`FlowNetConfig.layers` is the one description of that chain: it
yields every layer in forward order with its kind, name, parameter names
and shapes, and checkpoint tag. The parameters live in one flat ordered
``{name: array}`` store on :class:`FlowNet`, and the forward and inverse
walks, actnorm initialization, copying, training and the checkpoint file
layout are all generated from that list.

A walk of the whole network (:meth:`FlowNet.forward` /
:meth:`FlowNet.inverse`) always runs its layers on arrays. When its
input or a parameter is a Var it records one ``walk`` node that keeps
only its output: every layer is exactly invertible, so the node's
backward rebuilds each layer's input from its output with one backward
rule per layer kind, and a training step's memory does not grow with
depth. The trainer differentiates through both directions of the
network while inference stays tape-free.

A walk runs channel-major, (C, B, H, W), so that each convolution and
channel mix works on one (C, B*H*W) matrix of the whole batch; the
layouts coincide at batch 1. Every walk writes the couplings' hidden
maps and the convolutions' temporaries, in the forward and again when
its backward recomputes them, into scratch buffers that belong to one
call: the couplings of every block reuse them. The walks of one training
step, or of one ``stylize``, ``leak_test``, ``reverse_transfer``,
``content_factor_image`` or ``recon_error`` call, share those buffers
and each invconv weight's inverse through the call's parameter mapping
(:class:`_StepParams`); a walk given none makes its own. Nothing is
cached on the module or the model, so concurrent reads of one model
stay safe.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (
    DegenerateScaleError,
    NumericError,
    ShapeError,
    StateError,
    as_index,
)
from .linalg import mat_inverse

ACTNORM_SCALE_FLOOR = 1e-6
ACTNORM_STD_FLOOR = 1e-6
# Largest relative error with which a walk's backward may rebuild its
# input: the round-trip bound of the acceptance criteria. Healthy models
# rebuild to about 1e-14.
REBUILD_TOL = 1e-9
SQUEEZE_FACTOR = 2

# (n_flows, n_blocks) for the architecture names used throughout the docs.
NAMED_ARCHITECTURES = {
    "flow8-block2": (8, 2),
    "flow8-block1": (8, 1),
    "flow16-block1": (16, 1),
    "flow4-block4": (4, 4),
}

# Checkpoint block tag of each layer kind.
LAYER_TAGS = {"squeeze": 1, "actnorm": 2, "invconv": 3, "coupling": 4}


@dataclass(frozen=True)
class Layer:
    """One entry of the forward-order layer list.

    ``shapes`` maps each parameter's store name to its shape, in store
    and checkpoint order; a squeeze has none.
    """

    kind: str
    name: str
    shapes: dict[str, tuple[int, ...]]

    @property
    def tag(self) -> int:
        return LAYER_TAGS[self.kind]

    @property
    def init_flag(self) -> bool:
        """Whether the layer has data-dependent init, whose state is saved."""
        return self.kind == "actnorm"

    @property
    def size(self) -> int:
        """Number of parameter values."""
        return sum(math.prod(shape) for shape in self.shapes.values())

    def split(self, values: np.ndarray) -> dict[str, np.ndarray]:
        """Cut the layer's flat parameter values, in store order and each in
        C order, into named arrays (views of ``values``)."""
        params, offset = {}, 0
        for name, shape in self.shapes.items():
            n = math.prod(shape)
            params[name] = values[offset : offset + n].reshape(shape)
            offset += n
        return params


def _layer(kind: str, prefix: str, **shapes) -> Layer:
    name = f"{prefix}.{kind}"
    return Layer(kind, name, {f"{name}.{p}": shape for p, shape in shapes.items()})


@dataclass(frozen=True)
class FlowNetConfig:
    """Architecture descriptor; the layer list is a pure function of it."""

    n_blocks: int
    n_flows: int
    hidden: int
    in_channels: int
    in_height: int
    in_width: int

    def __post_init__(self):
        for name in (
            "n_blocks", "n_flows", "hidden", "in_channels", "in_height", "in_width"
        ):
            object.__setattr__(self, name, as_index(name, getattr(self, name), 1))
        # No extent of at most n_blocks bits is divisible by a power that
        # large; testing that first spares a huge n_blocks a huge power.
        extents = (self.in_height, self.in_width)
        too_deep = self.n_blocks >= min(extents).bit_length()
        if too_deep or any(e % SQUEEZE_FACTOR**self.n_blocks for e in extents):
            raise ShapeError(
                f"input extents {self.in_height}x{self.in_width} must be divisible "
                f"by {SQUEEZE_FACTOR}**{self.n_blocks} (squeeze factor "
                f"{SQUEEZE_FACTOR} per block, {self.n_blocks} blocks)"
            )

    def latent_shape(self) -> tuple[int, int, int]:
        f = SQUEEZE_FACTOR**self.n_blocks
        return (
            self.in_channels * (SQUEEZE_FACTOR**2) ** self.n_blocks,
            self.in_height // f,
            self.in_width // f,
        )

    def block_channels(self, block: int) -> int:
        """Channel count inside ``block`` (after its squeeze)."""
        return self.in_channels * 4 ** (block + 1)

    def layers(self) -> Iterator[Layer]:
        """Every layer in forward order: the network's single layout.

        The coupling's inner network is 3x3 (pad 1) -> ReLU -> 1x1 ->
        ReLU -> 3x3 (pad 1) from one channel half to the other.
        """
        hidden = self.hidden
        for bi in range(self.n_blocks):
            c = self.block_channels(bi)
            half = c // 2
            yield _layer("squeeze", f"b{bi}")
            for fi in range(self.n_flows):
                prefix = f"b{bi}.f{fi}"
                yield _layer("actnorm", prefix, scale=(c,), bias=(c,))
                yield _layer("invconv", prefix, weight=(c, c))
                yield _layer(
                    "coupling",
                    prefix,
                    w1=(hidden, half, 3, 3),
                    b1=(hidden,),
                    w2=(hidden, hidden, 1, 1),
                    b2=(hidden,),
                    w3=(half, hidden, 3, 3),
                    b3=(half,),
                )


def named_config(
    name: str,
    in_channels: int = 3,
    in_height: int = 256,
    in_width: int = 256,
    hidden: int = 64,
) -> FlowNetConfig:
    """Config for one of the named flowN-blockM architectures."""
    try:
        n_flows, n_blocks = NAMED_ARCHITECTURES[name]
    except KeyError:
        raise ShapeError(
            f"unknown architecture {name!r}; known: {sorted(NAMED_ARCHITECTURES)}"
        ) from None
    return FlowNetConfig(n_blocks, n_flows, hidden, in_channels, in_height, in_width)


# ---------------------------------------------------------------------------
# layer kernels: each runs one layer on a channel-major array


def _check_scale(scale: np.ndarray):
    bad = ~(np.isfinite(scale) & (np.abs(scale) >= ACTNORM_SCALE_FLOOR))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DegenerateScaleError(
            f"actnorm scale for channel {i} is {scale[i]:.3e}; it must be finite "
            f"and at least {ACTNORM_SCALE_FLOOR:g} in magnitude to invert"
        )


def _actnorm(x, scale, bias, inverse=False, out=None):
    """The actnorm kernel on the channel-major ``x`` (C,B,H,W): ``scale *
    x + bias``, or ``(x - bias) / scale`` for the inverse, computed into
    ``out`` (``x`` itself runs it in place; a new array when None) with
    two ufuncs."""
    _check_scale(scale)
    if x.shape[0] != scale.shape[0]:
        raise ShapeError("actnorm channel count mismatch")
    s, b = scale[:, None, None, None], bias[:, None, None, None]
    if inverse:
        out = np.subtract(x, b, out=out)
        out /= s
    else:
        out = np.multiply(x, s, out=out)
        out += b
    return out


def actnorm_init(batch) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Data-dependent init: after it, forward(batch) is standardized.

    Returns the scale, the bias and the indices of channels whose
    standard deviation had to be clamped up to the 1e-6 floor (constant
    channels); clamping is not an error.
    """
    data = ad._data(batch)
    mean = data.mean(axis=(0, 2, 3))
    std = data.std(axis=(0, 2, 3))
    clamped = [int(i) for i in np.nonzero(std < ACTNORM_STD_FLOOR)[0]]
    std = np.maximum(std, ACTNORM_STD_FLOOR)
    scale = np.maximum(1.0 / std, ACTNORM_SCALE_FLOOR)
    return scale, -mean * scale, clamped


def _shift(x_a, w1, b1, w2, b2, w3, b3, scratch, cols=None):
    """The inner network of the channel-major ``x_a``: the coupling's
    shift and the two hidden maps, in ``scratch``'s buffers ``shift``,
    ``h1`` and ``h2``. The convs take their temporaries from ``scratch``
    too; ``cols`` is conv1's column matrix when the caller built it."""
    shape = (w1.shape[0],) + x_a.shape[1:]
    h1 = ad._conv(x_a, w1, b1, 1, 1, True, scratch.take("h1", shape), cols, scratch)
    h2 = ad._conv(h1, w2, b2, 1, 0, True, scratch.take("h2", shape), scratch=scratch)
    out = scratch.take("shift", (w3.shape[0],) + x_a.shape[1:])
    return ad._conv(h2, w3, b3, 1, 1, out=out, scratch=scratch), h1, h2


def _coupling(x, w1, b1, w2, b2, w3, b3, inverse, scratch, out=None):
    """The coupling kernel on the channel-major ``x`` (C,B,H,W), whose
    halves are the leading-axis slices ``x[:C/2]`` and ``x[C/2:]``:
    ``y_b = x_b + shift(x_a)`` (``-`` for the inverse) is written into
    ``out`` (``x`` itself runs it in place; a new array when None)."""
    half = x.shape[0] // 2
    shift = _shift(x[:half], w1, b1, w2, b2, w3, b3, scratch)[0]
    if out is None:
        out = np.empty(x.shape)
        out[:half] = x[:half]
    (np.subtract if inverse else np.add)(x[half:], shift, out=out[half:])
    return out


# ---------------------------------------------------------------------------
# backward rules: each rebuilds a layer's input from its output
#
# A rule takes the layer's channel-major output ``y`` and output gradient
# ``g``, which it may overwrite, and its weights as the walk passed them
# (Vars or arrays). It accumulates the gradient of every weight Var and
# returns the layer's input and that input's gradient.


def _squeeze_back(y, g, inverse):
    undo = ad._squeeze_data if inverse else ad._unsqueeze_data
    return undo(y), undo(g)


def _actnorm_back(y, g, scale, bias, inverse):
    s, b = (ad._data(p)[:, None, None, None] for p in (scale, bias))
    if inverse:  # y = (x - b) / s
        y *= s
        ad._accum(scale, ad._channel_sum(-g * y / (s * s)))
        g /= s
        ad._accum(bias, -ad._channel_sum(g))
        y += b
    else:  # y = s * x + b
        ad._accum(bias, ad._channel_sum(g))
        y -= b
        y /= s
        ad._accum(scale, ad._channel_sum(g * y))
        g *= s
    return y, g


def _invconv_back(y, g, weight, inverse, w_inv):
    """``w_inv`` is W^{-1}, from the walk's scratch (:func:`_inverse_of`):
    an inverse walk's forward used it, and a forward walk's rule rebuilds
    its input with it."""
    w = ad._data(weight)
    x = ad._mix(w if inverse else w_inv, y)
    gx, gw = ad._mix_grads(
        g, x, w, w_inv if inverse else None, want_w=isinstance(weight, ad.Var)
    )
    ad._accum(weight, gw)
    return x, gx


def _coupling_back(y, g, weights, inverse, scratch):
    """``x_a = y_a``; the hidden maps are recomputed from it into
    ``scratch``, and with them the shift, so ``x_b = y_b - shift`` (``+``
    for the inverse). conv3 is seeded with ``g_b`` (``-g_b`` for the
    inverse) and the input gradient is ``g_a`` + conv1's input gradient
    in the first half and ``g_b`` in the second, the per-op graph's sums.
    conv1's kernel gradient reuses the column matrix that its recompute
    built."""
    dw1, db1, dw2, db2, dw3, db3 = (ad._data(p) for p in weights)
    half = y.shape[0] // 2
    x_a, y_b, g_a, g_b = y[:half], y[half:], g[:half], g[half:]
    cols = ad._im2col(x_a, dw1, 1, 1, scratch, "cols1") if ad._uses_cols(dw1, 1, 1) else None
    shift, h1, h2 = _shift(x_a, dw1, db1, dw2, db2, dw3, db3, scratch, cols)
    (np.add if inverse else np.subtract)(y_b, shift, out=y_b)

    def conv_grads(g, h, i, pad, relu_out=None, cols=None):
        w, b = weights[2 * i], weights[2 * i + 1]
        return ad._conv_grads(
            g, h, ad._data(w), 1, pad, relu_out, bias=isinstance(b, ad.Var),
            want_k=isinstance(w, ad.Var), cols=cols, scratch=scratch,
        )

    gb3, gh2, gw3 = conv_grads(-g_b if inverse else g_b, h2, 2, 1)
    gb2, gh1, gw2 = conv_grads(gh2, h1, 1, 0, h2)
    gb1, gx_a, gw1 = conv_grads(gh1, x_a, 0, 1, h1, cols)
    for p, grad in zip(weights, (gw1, gb1, gw2, gb2, gw3, gb3)):
        ad._accum(p, grad)
    g_a += gx_a
    return y, g


class _StepParams(dict):
    """Parameter values for the walks of one training step (or of one
    experiment call, with no values, so the stored ones apply), with the
    scratch those walks share. ``inverses`` maps an invconv layer's name
    to W^{-1}: whichever walk needs a weight's inverse first (an inverse
    walk's forward, or a forward walk's backward) computes it, and the
    others reuse it, so a step inverts each weight once. ``scratch`` is
    the :class:`autodiff._Scratch` into which every walk, one after
    another, writes its couplings' hidden maps and conv temporaries. It
    serves the walks of one set of weights only and dies with the step
    or call.
    """

    __slots__ = ("inverses", "scratch")

    def __init__(self, params):
        super().__init__(params or {})
        self.inverses = {}
        self.scratch = ad._Scratch()


def _inverse_of(inverses, name, w):
    """W^{-1} of the invconv ``name`` from ``inverses``, computed and kept
    there on first use."""
    w_inv = inverses.get(name)
    if w_inv is None:
        w_inv = inverses[name] = mat_inverse(w)
    return w_inv


# ---------------------------------------------------------------------------
# whole network


class FlowNet:
    """Config, its layer list and the flat parameter store.

    ``params`` maps every parameter name of :attr:`layers` to its array,
    in layer order; ``actnorm_initialized`` maps every actnorm layer name
    to its data-dependent-init state. Apply with :meth:`forward` /
    :meth:`inverse`. Concurrent reads are safe (each call owns its
    scratch buffers); initialization and training mutate parameters and
    require exclusive access.
    """

    def __init__(
        self,
        config: FlowNetConfig,
        params: dict[str, np.ndarray],
        actnorm_initialized: dict[str, bool] | None = None,
    ):
        self.config = config
        self.layers = tuple(config.layers())
        shapes = [(n, s) for layer in self.layers for n, s in layer.shapes.items()]
        if [(n, np.shape(a)) for n, a in params.items()] != shapes:
            raise ShapeError("parameter names or shapes do not match the layer list")
        flagged = [layer.name for layer in self.layers if layer.init_flag]
        if actnorm_initialized is None:
            actnorm_initialized = dict.fromkeys(flagged, False)
        if list(actnorm_initialized) != flagged:
            raise ShapeError("actnorm init flags do not match the layer list")
        self.params = dict(params)
        self.actnorm_initialized = dict(actnorm_initialized)

    @property
    def initialized(self) -> bool:
        return all(self.actnorm_initialized.values())

    # -- application ----------------------------------------------------------

    def _check_image(self, data):
        if data.ndim != 4 or data.shape[1] != self.config.in_channels:
            raise ShapeError(
                f"expected (B,{self.config.in_channels},H,W) input, got {data.shape}"
            )
        div = SQUEEZE_FACTOR**self.config.n_blocks
        if data.shape[2] % div or data.shape[3] % div:
            raise ShapeError(
                f"spatial extents {data.shape[2]}x{data.shape[3]} must be divisible by "
                f"{div}; center-crop or pad the input to a multiple first"
            )

    def _require_initialized(self):
        if not self.initialized:
            raise StateError("actnorm layers are uninitialized; run initialize_actnorms")

    def forward(self, x, params=None):
        """Project an image batch to its latent feature (the encoder).

        A complex, empty or misshapen batch raises ShapeError; a NaN or
        infinite pixel raises NumericError.
        """
        ad._check_real("FlowNet.forward", x)
        self._check_image(ad._data(x))
        self._require_initialized()
        return self._walk(x, params, inverse=False)

    def inverse(self, z, params=None):
        """Map a latent feature back to image space (the exact decoder).

        A complex, empty or misshapen latent raises ShapeError; a NaN or
        infinite value raises NumericError.
        """
        ad._check_real("FlowNet.inverse", z)
        data = ad._data(z)
        c_lat = self.config.latent_shape()[0]
        if data.ndim != 4 or data.shape[1] != c_lat:
            raise ShapeError(f"expected (B,{c_lat},h,w) latent, got {data.shape}")
        self._require_initialized()
        return self._walk(z, params, inverse=True)

    def _walk(self, v, params, inverse):
        """Apply every layer (reversed when ``inverse``); ``params`` maps
        names to values of the same shapes that take the place of stored
        ones. An empty input or a misshapen value raises ShapeError and a
        non-finite input NumericError, before any layer runs.

        The walk runs channel-major: it converts its input to (C, B, H, W)
        once on entry (``autodiff._swap``, a view at batch 1) and its
        output back once on exit. Inside, every kernel sees the channels
        of the whole batch as the rows of one (C, B*H*W) matrix: the
        invconv is ``W @ x2d``, each coupling conv one GEMM against its
        column matrix (``autodiff._conv``; forwards go one sample's
        columns at a time, each gradient is one 2-D GEMM over all of
        them), the coupling's halves are leading-axis slices, and squeeze
        and actnorm act on axis 0.
        Actnorm and the coupling run in place on the walk's own working
        array, never on the caller's input, which the entry view may be.

        The layers run on arrays, in one loop, with one ``_Scratch`` for
        the couplings' hidden maps and conv temporaries. It and the
        invconv inverses come from ``params`` when it is a
        :class:`_StepParams` (the walks of one call share them, one walk
        after another) and are made for this walk otherwise, so concurrent
        calls share no buffer. When ``v`` or any parameter is a Var, the
        walk records one ``walk`` node. It keeps the walk's input and
        output, the scratch and the inverses. Its backward
        copies the output and its gradient to channel-major, then visits
        the layers in reverse; each layer's rule (``_squeeze_back``,
        ``_actnorm_back``, ``_invconv_back``, ``_coupling_back``) rebuilds
        the layer's input from its output in place and accumulates the
        layer's gradients, with the same GEMM forms. So a training tape
        holds no flow activation but each walk's output, at any depth.
        Rebuilt inputs are exact only up to rounding, so gradients differ
        in their last bits from those of the layers' per-op graph
        (``tests/flow_oracles.py``); a backward that rebuilds the walk's
        input with a relative error above ``REBUILD_TOL`` raises
        NumericError (:func:`_check_rebuild`).
        """
        data = ad._data(v)
        _check_nonempty(data)
        if not np.isfinite(data).all():
            what = "latent" if inverse else "image"
            raise NumericError(f"{what} input holds NaN or infinite values")
        for name, p in (params or {}).items():
            if name in self.params and ad._data(p).shape != self.params[name].shape:
                raise ShapeError(
                    f"parameter {name} has shape {ad._data(p).shape}, "
                    f"its layer needs {self.params[name].shape}"
                )
        store = self.params if params is None else {**self.params, **params}
        if isinstance(params, _StepParams):
            inverses, scratch = params.inverses, params.scratch
        else:
            inverses, scratch = {}, ad._Scratch()
        steps = [
            (layer, tuple(store[name] for name in layer.shapes))
            for layer in (reversed(self.layers) if inverse else self.layers)
        ]
        y = ad._swap(data)
        for layer, weights in steps:
            arrays = [ad._data(p) for p in weights]
            y = _run_layer(layer, y, arrays, inverse, scratch, inverses, data)
        y = ad._swap(y)
        inputs = (v, *(p for _, weights in steps for p in weights))
        tape = ad._tape_of(*inputs)
        if tape is None:
            return y

        def back(g):
            x, g = y.swapaxes(0, 1).copy(), g.swapaxes(0, 1).copy()
            for layer, weights in reversed(steps):
                kind = layer.kind
                if kind == "squeeze":
                    x, g = _squeeze_back(x, g, inverse)
                elif kind == "actnorm":
                    x, g = _actnorm_back(x, g, *weights, inverse)
                elif kind == "invconv":
                    w_inv = _inverse_of(inverses, layer.name, ad._data(weights[0]))
                    x, g = _invconv_back(x, g, *weights, inverse, w_inv)
                else:
                    x, g = _coupling_back(x, g, weights, inverse, scratch)
            _check_rebuild(x, data, inverse)
            ad._accum(v, ad._swap(g))

        return ad._record(tape, "walk", y, back, inputs)


def _check_nonempty(data):
    if data.shape[0] == 0 or 0 in data.shape[2:]:
        raise ShapeError(f"cannot walk an empty batch of shape {data.shape}")


def _run_layer(layer, y, arrays, inverse, scratch, inverses, caller):
    """One layer of a walk on its channel-major array ``y``, with the
    layer's weights ``arrays``: its kernel, or its inverse's. Actnorm and
    the coupling run in place unless ``y`` may share memory with the
    ``caller``'s input array. ``scratch`` and ``inverses`` are the walk's
    (:class:`autodiff._Scratch`, :func:`_inverse_of`)."""
    out = None if np.may_share_memory(y, caller) else y
    if layer.kind == "squeeze":
        return (ad._unsqueeze_data if inverse else ad._squeeze_data)(y)
    if layer.kind == "actnorm":
        return _actnorm(y, *arrays, inverse, out)
    if layer.kind == "invconv":
        return ad._mix(_inverse_of(inverses, layer.name, arrays[0]) if inverse else arrays[0], y)
    return _coupling(y, *arrays, inverse, scratch, out)


def _check_rebuild(x, v, inverse):
    """NumericError unless the channel-major input ``x`` that a walk's
    backward rebuilt is within ``REBUILD_TOL`` of the walk's NCHW input
    ``v``, relative to ``v``'s largest magnitude (or to 1, if larger)."""
    scale = max(float(np.max(np.abs(v))), 1.0)
    err = float(np.max(np.abs(x.swapaxes(0, 1) - v))) / scale
    if not err <= REBUILD_TOL:
        walk = "inverse" if inverse else "forward"
        raise NumericError(
            f"the {walk} walk's backward rebuilt its input with relative error "
            f"{err:.3e}, above {REBUILD_TOL:g}: an ill-conditioned invconv or "
            f"actnorm leaves its gradients inexact"
        )


def build_flownet(config: FlowNetConfig, seed: int = 0) -> FlowNet:
    """Fresh network: identity couplings, random orthogonal mixing.

    Couplings start exactly at identity (zero final conv), invertible 1x1
    convolutions start as Haar-random orthogonal matrices (QR of a seeded
    Gaussian, determinant-sign fixed), and actnorms await data-dependent
    initialization.
    """
    rng = np.random.default_rng(as_index("seed", seed, 0))
    params = {}
    for layer in config.layers():
        for name, shape in layer.shapes.items():
            field = name.rsplit(".", 1)[1]
            if field == "weight":
                q, r = np.linalg.qr(rng.standard_normal(shape))
                signs = np.sign(np.diag(r))
                signs[signs == 0] = 1.0
                params[name] = q * signs
            elif field in ("w1", "w2"):
                params[name] = rng.standard_normal(shape) / np.sqrt(math.prod(shape[1:]))
            else:
                params[name] = np.ones(shape) if field == "scale" else np.zeros(shape)
    return FlowNet(config, params)


def initialize_actnorms(model: FlowNet, batch) -> list[tuple[str, list[int]]]:
    """Initialize every uninitialized actnorm from the running batch stats.

    The batch is pushed through the net layer by layer; each actnorm is
    initialized on the activations that actually reach it. Returns
    ``(layer_name, clamped_channel_indices)`` diagnostics. A NaN or
    infinite value in the batch raises NumericError, and a complex or
    empty one ShapeError, before any statistic is taken.
    """
    ad._check_real("initialize_actnorms", batch)
    data = np.asarray(batch, dtype=np.float64)
    model._check_image(data)
    _check_nonempty(data)
    if not np.isfinite(data).all():
        raise NumericError("actnorm initialization batch holds NaN or infinite values")
    diagnostics = []
    x, scratch = ad._swap(data), ad._Scratch()
    for layer in model.layers:
        if layer.init_flag and not model.actnorm_initialized[layer.name]:
            scale, bias, clamped = actnorm_init(ad._swap(x))
            model.params.update(zip(layer.shapes, (scale, bias)))
            model.actnorm_initialized[layer.name] = True
            if clamped:
                diagnostics.append((layer.name, clamped))
        arrays = [model.params[name] for name in layer.shapes]
        x = _run_layer(layer, x, arrays, False, scratch, {}, data)
    return diagnostics


def randomize_couplings(model: FlowNet, seed: int = 0, scale: float = 1.0):
    """Overwrite all coupling layers with nonzero Gaussian weights.

    Destroys the identity-at-init property on purpose; used as a control
    when measuring how much a fresh network already preserves content.
    ``scale`` multiplies the 1/sqrt(fan_in) weight magnitude. Per
    coupling the three kernels are drawn first, then the three biases.
    """
    rng = np.random.default_rng(as_index("seed", seed, 0))
    for layer in model.layers:
        if layer.kind != "coupling":
            continue
        kernels = [n for n, s in layer.shapes.items() if len(s) == 4]
        biases = [n for n, s in layer.shapes.items() if len(s) == 1]
        for name in kernels:
            shape = layer.shapes[name]
            model.params[name] = scale * rng.standard_normal(shape) / np.sqrt(
                math.prod(shape[1:])
            )
        for name in biases:
            model.params[name] = 0.1 * scale * rng.standard_normal(layer.shapes[name])


def copy_flownet(model: FlowNet) -> FlowNet:
    """Deep copy (parameters included)."""
    params = {name: arr.copy() for name, arr in model.params.items()}
    return FlowNet(model.config, params, model.actnorm_initialized)
