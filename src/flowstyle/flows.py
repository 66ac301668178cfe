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
and one layer plan through the call's parameter mapping
(:class:`_StepParams`). The first walk builds the plan from
:meth:`FlowNetConfig.layers`: per layer, its weight arrays, resolved
once, with the overrides' names and shapes checked (unless they are a
training step's own weights), each actnorm's scale checked, each
coupling's identity test run, each conv kernel's GEMM form and, per
input extent, its tap geometry, GEMM size and temporary's size, and
each invconv weight's inverse, taken once. Every later walk and walk
backward of the call reuses it. A walk given no ``_StepParams`` builds
a plan for itself with the same code.

From those sizes the plan takes two decisions per walk extent
(:meth:`_StepParams.extent`). One sets the BLAS threads: a walk, and
its backward, whose GEMMs are all small runs them in one one-thread
block, and a walk with a larger GEMM leaves each conv to choose
(:class:`linalg.blas_threads`). The other lays the scratch out by
liveness. A coupling's forward needs its first hidden map only until
conv2 has run, and its second only from conv2 on, so when a hidden map
holds the walk's largest conv temporary, conv1's temporaries go in the
second map's buffer and conv3's in the first's (:func:`_shift`): at
paper scale (flow8-block2, hidden 64, 256x256) a call then holds two
hidden maps and the shift, 17.6 MB, where a separate ``taps`` buffer
made it 24.6 MB. Smaller hidden maps (hidden 8) keep ``taps``. A walk's
backward keeps both maps and ``taps`` through the recompute, and
writes the maps' gradients into one more buffer and the second map's
(:func:`_coupling_back`), not into new arrays.
Actnorm initialization, which changes weights mid-pass, derives each
layer's step as it reaches it. Nothing is cached on the module or the
model, so concurrent reads of one model stay safe.
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
    as_batch,
    as_feature,
    as_index,
    as_real,
)
from .linalg import blas_threads, mat_inverse
from .transfer import EPS_STD, _moments

ACTNORM_SCALE_FLOOR = 1e-6
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


def _as_config(config) -> FlowNetConfig:
    """``config`` itself; ShapeError unless it is a :class:`FlowNetConfig`."""
    if not isinstance(config, FlowNetConfig):
        raise ShapeError(f"config must be a FlowNetConfig, got {config!r}")
    return config


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
    two ufuncs. The layer's plan has checked the scale (:class:`_Step`)."""
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
    channels); clamping is not an error. The statistics are AdaIN's
    (:func:`transfer._moments`).
    """
    mean, root, std = _moments(batch)
    clamped = [int(i) for i in np.nonzero(root < EPS_STD)[0]]
    scale = np.maximum(1.0 / std, ACTNORM_SCALE_FLOOR)
    return scale, -mean * scale, clamped


def _shift(x_a, w1, b1, w2, b2, w3, b3, scratch, cols=None, shared=0):
    """The inner network of the channel-major ``x_a``: the coupling's
    shift and the two hidden maps, in ``scratch``'s buffers ``shift``,
    ``h1`` and ``h2``. ``cols`` is conv1's column matrix when the caller
    built it. The convs take their temporaries from the ``taps`` buffer,
    or, when ``shared`` is not 0, from the hidden maps' buffers while
    they are dead: conv1's from ``h2`` and conv3's from ``h1``, which
    then no longer holds the returned ``h1``. ``shared`` is the size of
    the walk's largest hidden map (:meth:`_StepParams.extent`); both
    buffers are taken at that size first, so that neither grows twice."""
    shape, temps = (w1.shape[0],) + x_a.shape[1:], ("taps", "taps")
    if shared:
        temps = ("h2", "h1")
        for name in temps:
            scratch.take(name, (shared,))
    h1 = ad._conv(x_a, w1, b1, 1, 1, True, scratch.take("h1", shape), cols, scratch, temps[0])
    h2 = ad._conv(h1, w2, b2, 1, 0, True, scratch.take("h2", shape), scratch=scratch)
    out = scratch.take("shift", (w3.shape[0],) + x_a.shape[1:])
    return ad._conv(h2, w3, b3, 1, 1, out=out, scratch=scratch, name=temps[1]), h1, h2


def _identity(w3, b3):
    """Whether a coupling whose conv3 has kernel ``w3`` and bias ``b3`` is
    the identity: both all zero (fresh, or zeroed by hand)."""
    return not (w3.any() or b3.any())


def _coupling(x, w1, b1, w2, b2, w3, b3, inverse, identity, scratch, out=None, shared=0):
    """The coupling kernel on the channel-major ``x`` (C,B,H,W), whose
    halves are the leading-axis slices ``x[:C/2]`` and ``x[C/2:]``:
    ``y_b = x_b + shift(x_a)`` (``-`` for the inverse) is written into
    ``out`` (``x`` itself runs it in place; a new array when None). The
    conv kernels may be prepared (:class:`autodiff._Kernel`), and a
    ``shared`` size puts their temporaries in the hidden maps' buffers
    (:func:`_shift`).

    For an ``identity`` coupling (:func:`_identity` of conv3's kernel and
    bias) the shift is +0.0 and the inner network is not run: ``x_b +
    0.0`` (``x_b - 0.0``) has the bits that the network's shift gives,
    -0.0 turning +0.0 in the forward included, because ``0 * h + 0`` sums
    to +0.0 in every conv form while the hidden maps are finite. A hidden
    map that overflows to ±inf would make that shift NaN; the identity
    coupling gives ``x_b`` instead."""
    half = x.shape[0] // 2
    if out is None:
        out = np.empty(x.shape)
        out[:half] = x[:half]
    shift = 0.0 if identity else _shift(x[:half], w1, b1, w2, b2, w3, b3, scratch, None, shared)[0]
    (np.subtract if inverse else np.add)(x[half:], shift, out=out[half:])
    return out


# ---------------------------------------------------------------------------
# backward rules: each rebuilds a layer's input from its output
#
# A rule takes the layer's channel-major output ``y`` and output gradient
# ``g``, which it may overwrite, and (but for the squeeze) the layer's
# step of the walk's plan (:class:`_Step`), whose ``weights`` are the
# walk's (Vars or arrays). It accumulates the gradient of every weight Var
# (an inverse walk's invconv defers its products, :func:`_invconv_back`)
# and returns the layer's input and that input's gradient.


def _squeeze_back(y, g, inverse):
    undo = ad._squeeze_data if inverse else ad._unsqueeze_data
    return undo(y), undo(g)


def _actnorm_back(y, g, step, inverse):
    (scale, bias), (s, b) = step.weights, (a[:, None, None, None] for a in step.arrays)
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


def _invconv_back(y, g, step, inverse, deferred):
    """W^{-1} is the plan's (:meth:`_Step.inverse`): an inverse walk's
    forward used it, and a forward walk's rule rebuilds its input with
    it. Both directions are the conv kernel's 1x1 form; an inverse walk's
    weight gradient is taken through d(W^{-1}) = -W^{-1} dW W^{-1}, whose
    two C x C products go on ``deferred`` as (weight, W^{-1}, dW^{-1}):
    the walk's backward runs them after its BLAS-thread block, at the
    count in force, as they are no conv GEMM (at C = 255 one and two
    OpenBLAS threads give them different bits)."""
    (weight,), w, w_inv = step.weights, step.kernel, step.inverse()
    x = ad._conv(y, w if inverse else w_inv)
    m = w_inv if inverse else w
    _, gx, gm = ad._conv_grads(g, x, m, 1, 0, want_k=isinstance(weight, ad.Var))
    if gm is not None:
        if inverse:
            deferred.append((weight, w_inv.gemm, gm[:, :, 0, 0]))
        else:
            ad._accum(weight, gm[:, :, 0, 0])
    return x, gx


def _coupling_back(y, g, step, inverse, scratch):
    """``x_a = y_a``; the hidden maps are recomputed from it into
    ``scratch``, and with them the shift, so ``x_b = y_b - shift`` (``+``
    for the inverse). conv3 is seeded with ``g_b`` (``-g_b`` for the
    inverse) and the input gradient is ``g_a`` + conv1's input gradient
    in the first half and ``g_b`` in the second, the per-op graph's sums.
    conv1's kernel gradient reuses the column matrix that its recompute
    built (``cols1``), and the recompute keeps its temporaries in
    ``taps``, as both hidden maps stay live. The hidden maps' gradients
    take no new memory: conv3's input gradient goes in the ``gh2``
    buffer, and conv2's in ``h2``'s, which is dead once it has masked
    ``gh2``. Identity couplings recompute too: w3's gradient needs the
    hidden maps."""
    weights, net = step.weights, step.net
    half = y.shape[0] // 2
    x_a, y_b, g_a, g_b = y[:half], y[half:], g[:half], g[half:]
    cols = ad._im2col(x_a, net[0], 1, 1, scratch, "cols1") if net[0].form == "cols" else None
    shift, h1, h2 = _shift(x_a, *net, scratch, cols)
    (np.add if inverse else np.subtract)(y_b, shift, out=y_b)

    def conv_grads(g, h, i, pad, relu_out=None, cols=None, out=None):
        w, b = weights[2 * i], weights[2 * i + 1]
        return ad._conv_grads(
            g, h, net[2 * i], 1, pad, relu_out, bias=isinstance(b, ad.Var),
            want_k=isinstance(w, ad.Var), cols=cols, scratch=scratch, out=out,
        )

    g3 = -g_b if inverse else g_b
    gb3, gh2, gw3 = conv_grads(g3, h2, 2, 1, out=scratch.take("gh2", h2.shape))
    gb2, gh1, gw2 = conv_grads(gh2, h1, 1, 0, h2, out=h2)
    gb1, gx_a, gw1 = conv_grads(gh1, x_a, 0, 1, h1, cols)
    for p, grad in zip(weights, (gw1, gb1, gw2, gb2, gw3, gb3)):
        ad._accum(p, grad)
    g_a += gx_a
    return y, g


class _Step:
    """One layer of a plan: its ``kind``, its ``weights`` as the walk takes
    them (Vars or arrays) and their ``arrays``. Building it checks an
    actnorm's scale; an invconv holds W as a 1x1 conv ``kernel``
    (:class:`autodiff._Kernel`), and a coupling its ``identity`` test and
    ``net``, its weights with each conv kernel prepared.
    """

    __slots__ = ("kind", "weights", "arrays", "kernel", "net", "identity", "_inverse")

    def __init__(self, kind, weights):
        self.kind, self.weights = kind, weights
        self.arrays = arrays = tuple(ad._data(p) for p in weights)
        self.kernel = self.net = self._inverse = None
        self.identity = False
        if kind == "actnorm":
            _check_scale(arrays[0])
        elif kind == "invconv":
            self.kernel = ad._Kernel(arrays[0][:, :, None, None], 1, 0)
        elif kind == "coupling":
            w1, b1, w2, b2, w3, b3 = arrays
            self.identity = _identity(w3, b3)
            self.net = (
                ad._Kernel(w1, 1, 1), b1, ad._Kernel(w2, 1, 0), b2, ad._Kernel(w3, 1, 1), b3
            )

    def inverse(self):
        """The invconv's W^{-1} as a 1x1 conv kernel: computed by the
        first walk that needs it (an inverse walk's forward, or a forward
        walk's backward) and kept for the others, so a call inverts each
        weight once."""
        if self._inverse is None:
            self._inverse = ad._Kernel(mat_inverse(self.arrays[0])[:, :, None, None], 1, 0)
        return self._inverse


class _StepParams(dict):
    """Parameter values for the walks of one training step (or of one
    experiment call, with no values, so the stored ones apply), with the
    plan and the scratch those walks share. ``scratch`` is the
    :class:`autodiff._Scratch` into which every walk, one after another,
    writes its couplings' hidden maps, conv temporaries and, backward,
    the hidden maps' gradients. The plan
    (:meth:`plan`) is built by the first walk and reused by every later
    walk and walk backward. Both serve the walks of one model's weights
    only, which must not change while the step or call runs, and die
    with it. The plan holds the weights' arrays, views of them and the
    invconv inverses, never a scratch buffer. ``own`` says that the
    values are the model's own weights (a training step's Vars of them),
    which the plan then need not check.
    """

    __slots__ = ("scratch", "_own", "_steps", "_extents")

    def __init__(self, params, own=False):
        super().__init__(params or {})
        self.scratch = ad._Scratch()
        self._own, self._steps, self._extents = own, None, {}

    def plan(self, model):
        """One :class:`_Step` per layer of ``model``, in forward order, for
        its stored weights with these values in their place: built on the
        first call, which checks the values' names and shapes unless they
        are the model's ``own`` (a name the store lacks, or a misshapen or
        complex value, raises ShapeError)."""
        if self._steps is None:
            for name, p in () if self._own else self.items():
                if name not in model.params:
                    raise ShapeError(f"{name!r} is not a parameter of this network")
                as_feature(name, p, shape=model.params[name].shape, finite=False)
            store = {**model.params, **self}
            self._steps = tuple(
                _Step(layer.kind, tuple(store[name] for name in layer.shapes))
                for layer in model.layers
            )
        return self._steps

    def extent(self, b, h, w):
        """``(macs, hidden)`` for a walk of the built plan, and its
        backward, on ``b`` images of extent (h, w), each layer at its
        block's extent; kept per extent. ``macs``, the multiply-adds of
        the largest conv GEMM (``autodiff._Kernel.at``), sets the walk's
        BLAS threads (:class:`linalg.blas_threads`). ``hidden`` is the
        size of the largest hidden map of the couplings that run their
        network (not the identity) when it holds their largest conv
        temporary (``autodiff._Kernel.temp``), else 0, as for hidden 8
        against a 3x3 conv over 6 channels: the couplings then keep their
        temporaries in the hidden maps' buffers, not in ``taps``
        (:func:`_shift`)."""
        got = self._extents.get((b, h, w))
        if got is None:
            most = hidden = temp = 0
            for step in self._steps:
                if step.kind == "squeeze":
                    h, w = h // SQUEEZE_FACTOR, w // SQUEEZE_FACTOR
                elif step.kind == "invconv":
                    most = max(most, step.kernel.at(b, h, w)[1])
                elif step.kind == "coupling":
                    net = step.net[::2]
                    most = max(most, *(k.at(b, h, w)[1] for k in net))
                    if not step.identity:
                        hidden = max(hidden, net[0].shape[0] * b * h * w)
                        temp = max(temp, *(k.temp(b, h, w) for k in net))
            got = self._extents[(b, h, w)] = (most, hidden if temp <= hidden else 0)
        return got


# ---------------------------------------------------------------------------
# whole network


class FlowNet:
    """Config, its layer list and the flat parameter store.

    ``params`` maps every parameter name of :attr:`layers` to its array,
    in layer order; ``initialized``, a bool (ShapeError otherwise), is
    the data-dependent-init state that all actnorms share. Apply with
    :meth:`forward` / :meth:`inverse`. Concurrent reads are safe (each
    call owns its scratch buffers); initialization and training mutate
    parameters and require exclusive access.
    """

    def __init__(
        self, config: FlowNetConfig, params: dict[str, np.ndarray], initialized: bool = False
    ):
        self.config = _as_config(config)
        self.layers = tuple(config.layers())
        shapes = [(n, s) for layer in self.layers for n, s in layer.shapes.items()]
        if list(params) != [n for n, _ in shapes]:
            raise ShapeError("parameter names do not match the layer list")
        if not isinstance(initialized, bool):
            raise ShapeError(f"initialized must be a bool, got {initialized!r}")
        self.params = {n: as_batch(n, params[n], shape=s) for n, s in shapes}
        self.initialized = initialized

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
        infinite pixel raises NumericError (:func:`errors.as_feature`).
        """
        x = as_feature("image", x)
        self._check_image(ad._data(x))
        self._require_initialized()
        return self._walk(x, params, inverse=False)

    def inverse(self, z, params=None):
        """Map a latent feature back to image space (the exact decoder).

        A complex, empty or misshapen latent raises ShapeError; a NaN or
        infinite value raises NumericError (:func:`errors.as_feature`).
        """
        z = as_feature("latent", z)
        data = ad._data(z)
        c_lat = self.config.latent_shape()[0]
        if data.ndim != 4 or data.shape[1] != c_lat:
            raise ShapeError(f"expected (B,{c_lat},h,w) latent, got {data.shape}")
        self._require_initialized()
        return self._walk(z, params, inverse=True)

    def _walk(self, v, params, inverse):
        """Apply every layer (reversed when ``inverse``); ``params`` maps
        names to values of the same shapes that take the place of stored
        ones. The caller (:meth:`forward`, :meth:`inverse`) has checked
        ``v``.

        The walk runs the layer plan (:meth:`_StepParams.plan`) of
        ``params`` when it is a :class:`_StepParams`, which the walks of
        one call share, one after another, and else builds one for itself
        with the same code, so concurrent calls share no buffer. The walk
        and its backward each enter one ``linalg.blas_threads`` block
        sized by the plan's largest GEMM at the walk's extent
        (:meth:`_StepParams.extent`), so that every GEMM keeps the thread
        count that its own size gives it. The same per-extent record says
        whether the couplings' forwards keep their conv temporaries in
        the hidden maps' buffers (:func:`_shift`).

        The walk runs channel-major: it converts its input to (C, B, H, W)
        once on entry (``autodiff._swap``, a view at batch 1) and its
        output back once on exit. Inside, every kernel sees the channels
        of the whole batch as the rows of one (C, B*H*W) matrix: the
        invconv is ``W @ x2d``, the 1x1 form of the conv kernel
        ``autodiff._conv``, and each coupling conv one GEMM against its
        column matrix (forwards go one sample's columns at a time, each
        gradient is one 2-D GEMM over all of them), the coupling's halves
        are leading-axis slices, and squeeze and actnorm act on axis 0.
        Actnorm and the coupling run in place on the walk's own working
        array, never on the caller's input, which the entry view may be.

        The layers run on arrays, in one loop, with the ``_Scratch`` of
        ``params`` for the couplings' hidden maps and conv temporaries.
        When ``v`` or any parameter is a Var, the walk records one
        ``walk`` node. It keeps the walk's input and output, the plan and
        the scratch. Its backward copies the output and its gradient to
        channel-major, takes the hidden maps' buffers and that of their
        gradients (``gh2``) at block 0's size, the largest it recomputes,
        then visits the layers in reverse; each layer's
        rule (``_squeeze_back``, ``_actnorm_back``, ``_invconv_back``,
        ``_coupling_back``) rebuilds the layer's input from its output in
        place and accumulates the layer's gradients, with the same GEMM
        forms. So a training tape
        holds no flow activation but each walk's output, at any depth.
        Rebuilt inputs are exact only up to rounding, so gradients differ
        in their last bits from those of the layers' per-op graph
        (``tests/flow_oracles.py``); a backward that rebuilds the walk's
        input with a relative error above ``REBUILD_TOL`` raises
        NumericError (:func:`_check_rebuild`).
        """
        call = params if isinstance(params, _StepParams) else _StepParams(params)
        steps, scratch, data = call.plan(self), call.scratch, ad._data(v)
        b, _, h, w = data.shape
        if inverse:
            h, w = (e * SQUEEZE_FACTOR**self.config.n_blocks for e in (h, w))
        macs, hidden = call.extent(b, h, w)
        threads = blas_threads(macs)
        y = ad._swap(data)
        with threads:
            for step in reversed(steps) if inverse else steps:
                y = _run_layer(step, y, inverse, scratch, data, hidden)
        y = ad._swap(y)
        inputs = (v, *(p for step in steps for p in step.weights if isinstance(p, ad.Var)))
        tape = ad._tape_of(*inputs)
        if tape is None:
            return y

        def back(g):
            x, g = y.swapaxes(0, 1).copy(), g.swapaxes(0, 1).copy()
            deferred, full = [], self.config.hidden * b * h * w // SQUEEZE_FACTOR**2
            for name in ("h1", "h2", "gh2"):
                scratch.take(name, (full,))
            with threads:
                for step in steps if inverse else reversed(steps):
                    kind = step.kind
                    if kind == "squeeze":
                        x, g = _squeeze_back(x, g, inverse)
                    elif kind == "actnorm":
                        x, g = _actnorm_back(x, g, step, inverse)
                    elif kind == "invconv":
                        x, g = _invconv_back(x, g, step, inverse, deferred)
                    else:
                        x, g = _coupling_back(x, g, step, inverse, scratch)
            for weight, w_inv, gm in deferred:
                ad._accum(weight, -(w_inv.T @ gm @ w_inv.T))
            _check_rebuild(x, data, inverse)
            ad._accum(v, ad._swap(g))

        return ad._record(tape, "walk", y, back, inputs)


def _run_layer(step, y, inverse, scratch, caller, shared=0):
    """One layer of a walk on its channel-major array ``y``, from the
    layer's :class:`_Step`: its kernel, or its inverse's. Actnorm and the
    coupling run in place unless ``y`` may share memory with the
    ``caller``'s input array. ``scratch`` is the walk's
    (:class:`autodiff._Scratch`), and ``shared``, when not 0, the size
    of the hidden maps' buffers, which then hold a coupling's conv
    temporaries (:func:`_shift`)."""
    out = None if np.may_share_memory(y, caller) else y
    if step.kind == "squeeze":
        return (ad._unsqueeze_data if inverse else ad._squeeze_data)(y)
    if step.kind == "actnorm":
        return _actnorm(y, *step.arrays, inverse, out)
    if step.kind == "invconv":
        return ad._conv(y, step.inverse() if inverse else step.kernel)
    return _coupling(y, *step.net, inverse, step.identity, scratch, out, shared)


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

    Couplings start exactly at identity (zero final conv), so identity
    couplings cost no conv work until trained or randomized
    (:func:`_coupling`); invertible 1x1 convolutions start as Haar-random
    orthogonal matrices (QR of a seeded Gaussian, determinant-sign
    fixed), and actnorms await data-dependent initialization.
    """
    config, rng = _as_config(config), np.random.default_rng(as_index("seed", seed, 0))
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
    """Initialize every actnorm from the running batch stats and mark the
    model initialized; an initialized model is left as it is.

    The batch is pushed through the net layer by layer; each actnorm is
    initialized on the activations that actually reach it. Returns
    ``(layer_name, clamped_channel_indices)`` diagnostics. A NaN or
    infinite value in the batch raises NumericError, and a complex or
    empty one ShapeError (:func:`errors.as_batch`), before any statistic
    is taken.

    On a fresh model every coupling is the identity, so the pass costs
    the actnorm statistics, the invconv GEMMs and the squeezes, and no
    coupling conv; couplings that are no longer the identity run their
    inner networks.
    """
    data = as_batch("actnorm initialization batch", batch)
    model._check_image(data)
    if model.initialized:
        return []
    diagnostics = []
    x, scratch = ad._swap(data), ad._Scratch()
    for layer in model.layers:
        if layer.init_flag:
            scale, bias, clamped = actnorm_init(ad._swap(x))
            model.params.update(zip(layer.shapes, (scale, bias)))
            if clamped:
                diagnostics.append((layer.name, clamped))
        step = _Step(layer.kind, tuple(model.params[name] for name in layer.shapes))
        x = _run_layer(step, x, False, scratch, data)
    model.initialized = True
    return diagnostics


def randomize_couplings(model: FlowNet, seed: int = 0, scale: float = 1.0):
    """Overwrite all coupling layers with nonzero Gaussian weights.

    Destroys the identity-at-init property on purpose; used as a control
    when measuring how much a fresh network already preserves content.
    ``scale``, in [0, 1000], multiplies the 1/sqrt(fan_in) weight
    magnitude. Per coupling the three kernels are drawn first, then the
    three biases.
    """
    rng = np.random.default_rng(as_index("seed", seed, 0))
    scale = as_real("scale", scale, 0.0, 1e3)
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
    return FlowNet(model.config, params, model.initialized)
