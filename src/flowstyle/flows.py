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

All layer functions are built from :mod:`~flowstyle.autodiff` ops, so
arrays in give arrays out and taped :class:`~flowstyle.autodiff.Var`
values give taped Vars: the trainer differentiates through both
directions of the network while inference stays tape-free.

A tape-free walk writes the couplings' hidden maps into two buffers that
belong to that walk alone: the couplings of a block reuse them, and they
are dropped when the walk returns. Nothing is cached on the module or
the model, so concurrent reads of one model stay safe. A taped walk
uses no buffer: it allocates every activation its tape keeps.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DegenerateScaleError, ShapeError, StateError
from .linalg import mat_inverse

ACTNORM_SCALE_FLOOR = 1e-6
ACTNORM_STD_FLOOR = 1e-6
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
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be positive, got {getattr(self, name)}")
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
# single-layer operations


def _check_scale(scale: np.ndarray):
    bad = ~(np.isfinite(scale) & (np.abs(scale) >= ACTNORM_SCALE_FLOOR))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DegenerateScaleError(
            f"actnorm scale for channel {i} is {scale[i]:.3e}; it must be finite "
            f"and at least {ACTNORM_SCALE_FLOOR:g} in magnitude to invert"
        )


def actnorm_apply(x, scale, bias, inverse: bool = False):
    """Per-channel affine map y = scale * x + bias (or its inverse)."""
    _check_scale(ad._data(scale))
    if ad._data(x).shape[1] != ad._data(scale).shape[0]:
        raise ShapeError("actnorm channel count mismatch")
    if inverse:
        return ad.div(ad.sub(x, ad.per_channel(bias)), ad.per_channel(scale))
    return ad.add(ad.mul(x, ad.per_channel(scale)), ad.per_channel(bias))


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


def invconv_apply(x, weight, inverse: bool = False):
    """Mix channels at every spatial position by W (or W^{-1})."""
    w = ad._data(weight)
    if ad._data(x).shape[1] != w.shape[0]:
        raise ShapeError("invconv channel count mismatch")
    if inverse:
        return ad.channel_mix_inv(x, weight, mat_inverse(w))
    return ad.channel_mix(x, weight)


def nn_forward(x_a, w1, b1, w2, b2, w3, b3, maps=None):
    """The coupling's inner network: 3x3 -> ReLU -> 1x1 -> ReLU -> 3x3.

    Zero-padded, stride 1; output shape equals input shape. Each layer is
    one :func:`autodiff.conv2d` call with its bias (and ReLU) fused, so a
    taped call records three nodes. Given ``maps`` (a walk's
    :class:`_HiddenMaps`, untaped calls only), the two hidden maps are
    written into its buffers instead of fresh arrays.
    """
    h1 = h2 = None
    if maps is not None:
        b, _, h, w = ad._data(x_a).shape
        h1, h2 = maps.pair((b, ad._data(w1).shape[0], h, w))
    h = ad.conv2d(x_a, w1, b1, pad=1, relu=True, out=h1)
    h = ad.conv2d(h, w2, b2, pad=0, relu=True, out=h2)
    return ad.conv2d(h, w3, b3, pad=1)


def coupling_apply(x, w1, b1, w2, b2, w3, b3, inverse: bool = False, maps=None):
    """Additive coupling: y = concat(x_a, x_b + NN(x_a)); exact inverse."""
    x_a, x_b = ad.split_half(x)
    shift = nn_forward(x_a, w1, b1, w2, b2, w3, b3, maps)
    y_b = ad.sub(x_b, shift) if inverse else ad.add(x_b, shift)
    return ad.concat_half(x_a, y_b)


class _HiddenMaps:
    """The two hidden-map buffers that the couplings of one walk share.

    Every coupling of a block writes its hidden maps into the same pair;
    a coupling of another shape replaces it. No result of a walk is
    one of these buffers, so they die with the walk.
    """

    __slots__ = ("_pair",)

    def __init__(self):
        self._pair = ()

    def pair(self, shape):
        if not self._pair or self._pair[0].shape != shape:
            self._pair = (np.empty(shape), np.empty(shape))
        return self._pair


def squeeze_apply(x, inverse: bool = False):
    """2x2 space-to-depth with the fixed row-major offset order."""
    return ad.unsqueeze2(x) if inverse else ad.squeeze2(x)


_APPLY = {
    "squeeze": squeeze_apply,
    "actnorm": actnorm_apply,
    "invconv": invconv_apply,
    "coupling": coupling_apply,
}


# ---------------------------------------------------------------------------
# whole network


class FlowNet:
    """Config, its layer list and the flat parameter store.

    ``params`` maps every parameter name of :attr:`layers` to its array,
    in layer order; ``actnorm_initialized`` maps every actnorm layer name
    to its data-dependent-init state. Apply with :meth:`forward` /
    :meth:`inverse`. Concurrent reads are safe (each walk owns its
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

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """All trainable parameters in fixed model order."""
        return list(self.params.items())

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
        """Project an image batch to its latent feature (the encoder)."""
        self._check_image(ad._data(x))
        self._require_initialized()
        return self._walk(x, params, inverse=False)

    def inverse(self, z, params=None):
        """Map a latent feature back to image space (the exact decoder)."""
        data = ad._data(z)
        c_lat = self.config.latent_shape()[0]
        if data.ndim != 4 or data.shape[1] != c_lat:
            raise ShapeError(f"expected (B,{c_lat},h,w) latent, got {data.shape}")
        self._require_initialized()
        return self._walk(z, params, inverse=True)

    def _walk(self, v, params, inverse):
        """Apply every layer (reversed when ``inverse``); ``params`` maps
        names to values that take the place of stored ones.

        An untaped walk gives its couplings one :class:`_HiddenMaps`,
        made here and dropped on return, so concurrent walks share no
        buffer. A taped walk allocates every activation that its tape
        keeps.
        """
        store = self.params if params is None else {**self.params, **params}
        maps = None if ad._tape_of(v, *store.values()) else _HiddenMaps()
        for layer in reversed(self.layers) if inverse else self.layers:
            weights = (store[name] for name in layer.shapes)
            if layer.kind == "coupling":
                v = coupling_apply(v, *weights, inverse=inverse, maps=maps)
            else:
                v = _APPLY[layer.kind](v, *weights, inverse=inverse)
        return v


def build_flownet(config: FlowNetConfig, seed: int = 0) -> FlowNet:
    """Fresh network: identity couplings, random orthogonal mixing.

    Couplings start exactly at identity (zero final conv), invertible 1x1
    convolutions start as Haar-random orthogonal matrices (QR of a seeded
    Gaussian, determinant-sign fixed), and actnorms await data-dependent
    initialization.
    """
    rng = np.random.default_rng(seed)
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
    ``(layer_name, clamped_channel_indices)`` diagnostics.
    """
    data = np.asarray(batch, dtype=np.float64)
    model._check_image(data)
    diagnostics = []
    x = data
    for layer in model.layers:
        if layer.init_flag and not model.actnorm_initialized[layer.name]:
            scale, bias, clamped = actnorm_init(x)
            model.params.update(zip(layer.shapes, (scale, bias)))
            model.actnorm_initialized[layer.name] = True
            if clamped:
                diagnostics.append((layer.name, clamped))
        x = _APPLY[layer.kind](x, *(model.params[name] for name in layer.shapes))
    return diagnostics


def randomize_couplings(model: FlowNet, seed: int = 0, scale: float = 1.0):
    """Overwrite all coupling layers with nonzero Gaussian weights.

    Destroys the identity-at-init property on purpose; used as a control
    when measuring how much a fresh network already preserves content.
    ``scale`` multiplies the 1/sqrt(fan_in) weight magnitude. Per
    coupling the three kernels are drawn first, then the three biases.
    """
    rng = np.random.default_rng(seed)
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
