"""Bit-exact model checkpoints.

Layout (all integers little-endian):

    magic   4 bytes  b"PFN1"
    version u32      1
    config  6 x u32  n_blocks, n_flows, hidden, in_channels, in_height, in_width
    layers  repeated, in forward model order (per block: squeeze, then
            per flow: actnorm, invconv, coupling):
        tag   u8     1=squeeze 2=actnorm 3=invconv 4=coupling
        count u64    number of f64 values that follow
        data  count x f64 (little-endian)

Actnorm blocks carry scale, bias, then one flag value (1.0/0.0) for the
data-dependent-init state, so a load reproduces the model bit-for-bit.
Coupling blocks carry w1, b1, w2, b2, w3, b3 concatenated in C order.
A header describing an invalid architecture makes the file corrupt, and
a file whose length after the header differs from what the header's
architecture needs (truncated, or with trailing bytes) is rejected as a
size mismatch before any model is built.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from .errors import (
    CorruptCheckpointError,
    MagicMismatchError,
    ShapeError,
    SizeMismatchError,
    VersionMismatchError,
)
from .flows import FlowNet, FlowNetConfig, build_flownet

MAGIC = b"PFN1"
VERSION = 1

_TAG_SQUEEZE = 1
_TAG_ACTNORM = 2
_TAG_INVCONV = 3
_TAG_COUPLING = 4
_BLOCK_HEADER = 9  # tag u8 + count u64


def _coupling_shapes(c: int, hidden: int) -> list[tuple[int, ...]]:
    """Shapes of w1, b1, w2, b2, w3, b3 for a ``c``-channel flow step."""
    half = c // 2
    return [
        (hidden, half, 3, 3),
        (hidden,),
        (hidden, hidden, 1, 1),
        (hidden,),
        (half, hidden, 3, 3),
        (half,),
    ]


def _payload_bytes(config: FlowNetConfig) -> int:
    """Bytes of layer blocks that follow the header of a ``config`` model."""
    total = 0
    for bi in range(config.n_blocks):
        c = config.block_channels(bi)
        coupling = sum(math.prod(s) for s in _coupling_shapes(c, config.hidden))
        values = (2 * c + 1) + c * c + coupling
        total += _BLOCK_HEADER + config.n_flows * (3 * _BLOCK_HEADER + 8 * values)
    return total


def checkpoint_bytes(model: FlowNet) -> bytes:
    """Serialize a model to the checkpoint wire format."""
    cfg = model.config
    out = [MAGIC, struct.pack("<I", VERSION)]
    out.append(
        struct.pack(
            "<6I",
            cfg.n_blocks,
            cfg.n_flows,
            cfg.hidden,
            cfg.in_channels,
            cfg.in_height,
            cfg.in_width,
        )
    )

    def emit(tag: int, values: np.ndarray):
        flat = np.ascontiguousarray(values, dtype="<f8").reshape(-1)
        out.append(struct.pack("<BQ", tag, flat.size))
        out.append(flat.tobytes())

    for block in model.blocks:
        emit(_TAG_SQUEEZE, np.zeros(0))
        for step in block:
            a = step.actnorm
            emit(
                _TAG_ACTNORM,
                np.concatenate([a.scale, a.bias, [1.0 if a.initialized else 0.0]]),
            )
            emit(_TAG_INVCONV, step.invconv.weight)
            c = step.coupling
            emit(
                _TAG_COUPLING,
                np.concatenate(
                    [c.w1.ravel(), c.b1, c.w2.ravel(), c.b2, c.w3.ravel(), c.b3]
                ),
            )
    return b"".join(out)


def save_checkpoint(path, model: FlowNet) -> None:
    """Atomically write the model's checkpoint file."""
    blob = checkpoint_bytes(model)
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptCheckpointError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk


def load_checkpoint(path) -> FlowNet:
    """Rebuild a model from a checkpoint file, bit-exactly."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise MagicMismatchError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack("<I", r.take(4))
    if version != VERSION:
        raise VersionMismatchError(f"unsupported version {version}, expected {VERSION}")
    fields = struct.unpack("<6I", r.take(24))
    try:
        config = FlowNetConfig(*fields)
    except ShapeError as exc:
        raise CorruptCheckpointError(
            f"header declares an invalid architecture: {exc}"
        ) from exc
    expected = _payload_bytes(config)
    if len(data) - r.pos != expected:
        raise SizeMismatchError(
            f"header's architecture needs {expected} bytes of layer blocks, "
            f"file has {len(data) - r.pos}"
        )
    model = build_flownet(config, seed=0)

    def read_block(expected_tag: int, expected_count: int) -> np.ndarray:
        tag, count = struct.unpack("<BQ", r.take(9))
        if tag != expected_tag:
            raise CorruptCheckpointError(
                f"layer tag {tag} where {expected_tag} was expected"
            )
        if count != expected_count:
            raise SizeMismatchError(
                f"layer tag {tag} declares {count} values, architecture "
                f"requires {expected_count}"
            )
        return np.frombuffer(r.take(8 * count), dtype="<f8").astype(np.float64)

    for bi, block in enumerate(model.blocks):
        c = config.block_channels(bi)
        shapes = _coupling_shapes(c, config.hidden)
        total = sum(math.prod(s) for s in shapes)
        read_block(_TAG_SQUEEZE, 0)
        for step in block:
            vals = read_block(_TAG_ACTNORM, 2 * c + 1)
            step.actnorm.scale = vals[:c].copy()
            step.actnorm.bias = vals[c : 2 * c].copy()
            step.actnorm.initialized = vals[2 * c] != 0.0
            step.invconv.weight = read_block(_TAG_INVCONV, c * c).reshape(c, c).copy()
            vals = read_block(_TAG_COUPLING, total)
            offset = 0
            parts = []
            for shape in shapes:
                n = math.prod(shape)
                parts.append(vals[offset : offset + n].reshape(shape).copy())
                offset += n
            cp = step.coupling
            cp.w1, cp.b1, cp.w2, cp.b2, cp.w3, cp.b3 = parts
    return model
