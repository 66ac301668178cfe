"""Bit-exact model checkpoints.

Layout (all integers little-endian):

    magic   4 bytes  b"PFN1"
    version u32      1
    config  6 x u32  n_blocks, n_flows, hidden, in_channels, in_height, in_width
    layers  one block per entry of the config's layer list
            (:meth:`~flowstyle.flows.FlowNetConfig.layers`), in that order:
        tag   u8     the layer's tag: 1=squeeze 2=actnorm 3=invconv 4=coupling
        count u64    number of f64 values that follow
        data  count x f64 (little-endian)

A block's data is the layer's parameters in store order, each in C
order; a layer with data-dependent init (actnorm) appends one flag
value, exactly 1.0 or 0.0: the model's one init state, which every
actnorm block repeats, so a load reproduces the model bit-for-bit. The
whole layout is generated from the layer list. A file is corrupt when
its header describes an invalid architecture, a block's tag, count, flag
or values (NaN or inf) are wrong, the actnorm flags disagree, or its
length differs from what the header's architecture needs (a size
mismatch: truncated, or with trailing bytes).
"""

from __future__ import annotations

import struct
from dataclasses import astuple

import numpy as np

from .errors import (
    CorruptCheckpointError,
    MagicMismatchError,
    ShapeError,
    SizeMismatchError,
    VersionMismatchError,
)
from .flows import FlowNet, FlowNetConfig
from .ppm import atomic_write

MAGIC = b"PFN1"
VERSION = 1

_BLOCK_HEADER = 9  # tag u8 + count u64
_FLAG_BYTES = {struct.pack("<d", 0.0): False, struct.pack("<d", 1.0): True}


def checkpoint_bytes(model: FlowNet) -> bytes:
    """Serialize a model to the checkpoint wire format."""
    out = [MAGIC, struct.pack("<I", VERSION), struct.pack("<6I", *astuple(model.config))]
    for layer in model.layers:
        values = [np.zeros(0)] + [model.params[name].ravel() for name in layer.shapes]
        if layer.init_flag:
            values.append([1.0 if model.initialized else 0.0])
        flat = np.concatenate(values).astype("<f8")
        out.append(struct.pack("<BQ", layer.tag, flat.size))
        out.append(flat.tobytes())
    return b"".join(out)


def save_checkpoint(path, model: FlowNet) -> None:
    """Atomically write the model's checkpoint file."""
    atomic_write(path, checkpoint_bytes(model))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SizeMismatchError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk


def load_checkpoint(path) -> FlowNet:
    """Rebuild a model from a checkpoint file, bit-exactly.

    Blocks are read one layer at a time, so a header that declares more
    layers or values than the file holds fails on the first block that
    does not fit, without allocating for the rest.
    """
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
    params, flags = {}, set()
    for layer in config.layers():
        tag, count = struct.unpack("<BQ", r.take(_BLOCK_HEADER))
        if tag != layer.tag:
            raise CorruptCheckpointError(
                f"{layer.name}: layer tag {tag} where {layer.tag} was expected"
            )
        if count != layer.size + layer.init_flag:
            raise SizeMismatchError(
                f"{layer.name}: block declares {count} values, architecture "
                f"requires {layer.size + layer.init_flag}"
            )
        raw = r.take(8 * count)
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        if not np.isfinite(values).all():
            raise CorruptCheckpointError(f"{layer.name}: non-finite parameter value")
        if layer.init_flag:
            if raw[-8:] not in _FLAG_BYTES:
                raise CorruptCheckpointError(
                    f"{layer.name}: init flag {float(values[-1])!r} is neither 1.0 nor 0.0"
                )
            flags.add(_FLAG_BYTES[raw[-8:]])
        params.update(layer.split(values[: layer.size]))
    if r.pos != len(data):
        raise SizeMismatchError(
            f"{len(data) - r.pos} trailing bytes after the last layer block"
        )
    if len(flags) != 1:
        raise CorruptCheckpointError("the actnorm blocks' init flags disagree")
    return FlowNet(config, params, flags.pop())
