"""Exactly reversible flow network used as both encoder and decoder.

The network is a chain of blocks; each block starts with a squeeze
(2x2 space-to-depth) followed by ``n_flows`` flow steps, and each step is
actnorm -> invertible 1x1 convolution -> additive coupling. Every layer
has an exact inverse, so ``model.inverse(model.forward(x))`` reproduces
``x`` to within float64 rounding, with no information loss anywhere.

All layer functions accept either plain ndarrays or taped
:class:`~flowstyle.autodiff.Var` values and return the same kind, so the
trainer can differentiate through both directions of the network while
inference stays tape-free.
"""

from __future__ import annotations

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


@dataclass
class ActnormParams:
    """Per-channel affine scale/bias with data-dependent initialization."""

    scale: np.ndarray
    bias: np.ndarray
    initialized: bool = False


@dataclass
class InvConvParams:
    """Channel-mixing matrix of an invertible 1x1 convolution."""

    weight: np.ndarray


@dataclass
class CouplingParams:
    """The three conv layers of the coupling's inner network.

    Layout: 3x3 (pad 1) -> ReLU -> 1x1 -> ReLU -> 3x3 (pad 1). The final
    kernel and bias are zero at initialization so a fresh coupling is an
    exact identity.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]


@dataclass
class FlowStep:
    actnorm: ActnormParams
    invconv: InvConvParams
    coupling: CouplingParams


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


def _ret(out, *inputs):
    if any(isinstance(x, ad.Var) for x in inputs):
        return out
    return out.data


def _check_scale(scale: np.ndarray):
    if np.any(np.abs(scale) < ACTNORM_SCALE_FLOOR):
        bad = int(np.argmin(np.abs(scale)))
        raise DegenerateScaleError(
            f"actnorm scale for channel {bad} is {scale[bad]:.3e}, "
            f"below the {ACTNORM_SCALE_FLOOR:g} inversion floor"
        )


def actnorm_apply(x, p: ActnormParams, inverse: bool = False):
    """Per-channel affine map y = scale * x + bias (or its inverse)."""
    _check_scale(np.asarray(p.scale))
    if ad._data(x).shape[1] != p.scale.shape[0]:
        raise ShapeError("actnorm channel count mismatch")
    out = _actnorm(ad.lift(x), p.scale, p.bias, inverse)
    return _ret(out, x)


def _actnorm(x, scale, bias, inverse):
    if inverse:
        return ad.div(ad.sub(x, ad.per_channel(bias)), ad.per_channel(scale))
    return ad.add(ad.mul(x, ad.per_channel(scale)), ad.per_channel(bias))


def actnorm_init(p: ActnormParams, batch) -> tuple[ActnormParams, list[int]]:
    """Data-dependent init: after it, forward(batch) is standardized.

    Returns the initialized params and the indices of channels whose
    standard deviation had to be clamped up to the 1e-6 floor (constant
    channels); clamping is not an error.
    """
    if p.initialized:
        raise StateError("actnorm already initialized")
    data = ad._data(batch)
    mean = data.mean(axis=(0, 2, 3))
    std = data.std(axis=(0, 2, 3))
    clamped = [int(i) for i in np.nonzero(std < ACTNORM_STD_FLOOR)[0]]
    std = np.maximum(std, ACTNORM_STD_FLOOR)
    scale = np.maximum(1.0 / std, ACTNORM_SCALE_FLOOR)
    return ActnormParams(scale=scale, bias=-mean * scale, initialized=True), clamped


def invconv_apply(x, p: InvConvParams, inverse: bool = False):
    """Mix channels at every spatial position by W (or W^{-1})."""
    v = ad.lift(x)
    if v.data.shape[1] != p.weight.shape[0]:
        raise ShapeError("invconv channel count mismatch")
    if inverse:
        out = ad.channel_mix_inv(v, p.weight, mat_inverse(p.weight))
    else:
        out = ad.channel_mix(v, p.weight)
    return _ret(out, x)


def nn_forward(x_a, p: CouplingParams):
    """The coupling's inner network: 3x3 -> ReLU -> 1x1 -> ReLU -> 3x3.

    Zero-padded, stride 1; output shape equals input shape.
    """
    out = _nn(ad.lift(x_a), p.w1, p.b1, p.w2, p.b2, p.w3, p.b3)
    return _ret(out, x_a)


def _nn(x, w1, b1, w2, b2, w3, b3):
    h = ad.relu(ad.add(ad.conv2d(x, w1, pad=1), ad.per_channel(b1)))
    h = ad.relu(ad.add(ad.conv2d(h, w2, pad=0), ad.per_channel(b2)))
    return ad.add(ad.conv2d(h, w3, pad=1), ad.per_channel(b3))


def coupling_apply(x, p: CouplingParams, inverse: bool = False):
    """Additive coupling: y = concat(x_a, x_b + NN(x_a)); exact inverse."""
    out = _coupling(ad.lift(x), p.w1, p.b1, p.w2, p.b2, p.w3, p.b3, inverse)
    return _ret(out, x)


def _coupling(x, w1, b1, w2, b2, w3, b3, inverse):
    x_a, x_b = ad.split_half(x)
    shift = _nn(x_a, w1, b1, w2, b2, w3, b3)
    y_b = ad.sub(x_b, shift) if inverse else ad.add(x_b, shift)
    return ad.concat_half(x_a, y_b)


def squeeze_apply(x, inverse: bool = False):
    """2x2 space-to-depth with the fixed row-major offset order."""
    v = ad.lift(x)
    out = ad.unsqueeze2(v) if inverse else ad.squeeze2(v)
    return _ret(out, x)


# ---------------------------------------------------------------------------
# whole network


class FlowNet:
    """Config plus parameters; immutable during inference.

    Apply with :meth:`forward` / :meth:`inverse`. Concurrent reads are
    safe; initialization and training mutate parameters and require
    exclusive access.
    """

    def __init__(self, config: FlowNetConfig, blocks: list[list[FlowStep]]):
        if len(blocks) != config.n_blocks or any(
            len(b) != config.n_flows for b in blocks
        ):
            raise ShapeError("block/flow structure does not match config")
        self.config = config
        self.blocks = blocks

    # -- parameter access ---------------------------------------------------

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """All trainable parameters in fixed model order."""
        items = []
        for bi, block in enumerate(self.blocks):
            for fi, step in enumerate(block):
                prefix = f"b{bi}.f{fi}"
                items.append((f"{prefix}.actnorm.scale", step.actnorm.scale))
                items.append((f"{prefix}.actnorm.bias", step.actnorm.bias))
                items.append((f"{prefix}.invconv.weight", step.invconv.weight))
                c = step.coupling
                for field in ("w1", "b1", "w2", "b2", "w3", "b3"):
                    items.append((f"{prefix}.coupling.{field}", getattr(c, field)))
        return items

    def set_param(self, name: str, value: np.ndarray):
        parts = name.split(".")
        step = self.blocks[int(parts[0][1:])][int(parts[1][1:])]
        owner = {
            "actnorm": step.actnorm,
            "invconv": step.invconv,
            "coupling": step.coupling,
        }[parts[2]]
        current = getattr(owner, parts[3])
        value = np.asarray(value, dtype=np.float64)
        if current.shape != value.shape:
            raise ShapeError(f"parameter {name} shape {value.shape} != {current.shape}")
        setattr(owner, parts[3], value)

    @property
    def initialized(self) -> bool:
        return all(s.actnorm.initialized for b in self.blocks for s in b)

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
        data = ad._data(x)
        self._check_image(data)
        self._require_initialized()
        out = self._run(ad.lift(x), params, inverse=False)
        return _ret(out, x)

    def inverse(self, z, params=None):
        """Map a latent feature back to image space (the exact decoder)."""
        data = ad._data(z)
        c_lat = self.config.in_channels * 4**self.config.n_blocks
        if data.ndim != 4 or data.shape[1] != c_lat:
            raise ShapeError(f"expected (B,{c_lat},h,w) latent, got {data.shape}")
        self._require_initialized()
        out = self._run(ad.lift(z), params, inverse=True)
        return _ret(out, z)

    def _param(self, params, name, raw):
        if params is None:
            return raw
        return params.get(name, raw)

    def _run(self, v, params, inverse):
        blocks = range(self.config.n_blocks)
        for bi in blocks if not inverse else reversed(blocks):
            block = self.blocks[bi]
            if not inverse:
                v = ad.squeeze2(v)
            flow_order = range(self.config.n_flows)
            for fi in flow_order if not inverse else reversed(flow_order):
                v = self._run_step(v, params, bi, fi, inverse)
            if inverse:
                v = ad.unsqueeze2(v)
        return v

    def _run_step(self, v, params, bi, fi, inverse):
        step = self.blocks[bi][fi]
        prefix = f"b{bi}.f{fi}"
        scale = self._param(params, f"{prefix}.actnorm.scale", step.actnorm.scale)
        bias = self._param(params, f"{prefix}.actnorm.bias", step.actnorm.bias)
        weight = self._param(params, f"{prefix}.invconv.weight", step.invconv.weight)
        cp = [
            self._param(params, f"{prefix}.coupling.{f}", getattr(step.coupling, f))
            for f in ("w1", "b1", "w2", "b2", "w3", "b3")
        ]
        _check_scale(ad._data(scale))
        if not inverse:
            v = _actnorm(v, scale, bias, inverse=False)
            v = ad.channel_mix(v, weight)
            v = _coupling(v, *cp, inverse=False)
        else:
            v = _coupling(v, *cp, inverse=True)
            v = ad.channel_mix_inv(v, weight, mat_inverse(ad._data(weight)))
            v = _actnorm(v, scale, bias, inverse=True)
        return v

    def layer_plan(self) -> list[tuple[str, int, int]]:
        """Forward-order layer list: (kind, block, flow); flow is -1 for squeeze."""
        plan = []
        for bi in range(self.config.n_blocks):
            plan.append(("squeeze", bi, -1))
            for fi in range(self.config.n_flows):
                plan.append(("actnorm", bi, fi))
                plan.append(("invconv", bi, fi))
                plan.append(("coupling", bi, fi))
        return plan


def build_flownet(config: FlowNetConfig, seed: int = 0) -> FlowNet:
    """Fresh network: identity couplings, random orthogonal mixing.

    Couplings start exactly at identity (zero final conv), invertible 1x1
    convolutions start as Haar-random orthogonal matrices (QR of a seeded
    Gaussian, determinant-sign fixed), and actnorms await data-dependent
    initialization.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for bi in range(config.n_blocks):
        c = config.block_channels(bi)
        half, hidden = c // 2, config.hidden
        steps = []
        for _ in range(config.n_flows):
            q, r = np.linalg.qr(rng.standard_normal((c, c)))
            signs = np.sign(np.diag(r))
            signs[signs == 0] = 1.0
            weight = q * signs
            coupling = CouplingParams(
                w1=rng.standard_normal((hidden, half, 3, 3)) / np.sqrt(half * 9.0),
                b1=np.zeros(hidden),
                w2=rng.standard_normal((hidden, hidden, 1, 1)) / np.sqrt(float(hidden)),
                b2=np.zeros(hidden),
                w3=np.zeros((half, hidden, 3, 3)),
                b3=np.zeros(half),
            )
            steps.append(
                FlowStep(
                    actnorm=ActnormParams(np.ones(c), np.zeros(c)),
                    invconv=InvConvParams(weight),
                    coupling=coupling,
                )
            )
        blocks.append(steps)
    return FlowNet(config, blocks)


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
    for bi, block in enumerate(model.blocks):
        x = squeeze_apply(x)
        for fi, step in enumerate(block):
            if not step.actnorm.initialized:
                step.actnorm, clamped = actnorm_init(step.actnorm, x)
                if clamped:
                    diagnostics.append((f"b{bi}.f{fi}.actnorm", clamped))
            x = actnorm_apply(x, step.actnorm)
            x = invconv_apply(x, step.invconv)
            x = coupling_apply(x, step.coupling)
    return diagnostics


def randomize_couplings(model: FlowNet, seed: int = 0, scale: float = 1.0):
    """Overwrite all coupling layers with nonzero Gaussian weights.

    Destroys the identity-at-init property on purpose; used as a control
    when measuring how much a fresh network already preserves content.
    ``scale`` multiplies the 1/sqrt(fan_in) weight magnitude.
    """
    rng = np.random.default_rng(seed)
    for block in model.blocks:
        for step in block:
            c = step.coupling
            for field in ("w1", "w2", "w3"):
                arr = getattr(c, field)
                fan_in = arr.shape[1] * arr.shape[2] * arr.shape[3]
                setattr(c, field, scale * rng.standard_normal(arr.shape) / np.sqrt(fan_in))
            for field in ("b1", "b2", "b3"):
                setattr(
                    c, field, 0.1 * scale * rng.standard_normal(getattr(c, field).shape)
                )


def copy_flownet(model: FlowNet) -> FlowNet:
    """Deep copy (parameters included)."""
    blocks = []
    for block in model.blocks:
        steps = []
        for s in block:
            steps.append(
                FlowStep(
                    actnorm=ActnormParams(
                        s.actnorm.scale.copy(), s.actnorm.bias.copy(), s.actnorm.initialized
                    ),
                    invconv=InvConvParams(s.invconv.weight.copy()),
                    coupling=CouplingParams(
                        s.coupling.w1.copy(), s.coupling.b1.copy(),
                        s.coupling.w2.copy(), s.coupling.b2.copy(),
                        s.coupling.w3.copy(), s.coupling.b3.copy(),
                    ),
                )
            )
        blocks.append(steps)
    return FlowNet(model.config, blocks)
