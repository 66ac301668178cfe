"""Binary PPM (P6, maxval 255) image files.

In-memory mapping is byte/255.0 into [0, 1], RGB channel order, tensors
shaped (1, 3, H, W). Writing clamps to [0, 1] and quantizes with
round-half-up, so a tensor that came from a file round-trips exactly and
``write(read(f))`` is byte-identical for canonically written files.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import ImageFormatError, ShapeError, as_batch

_WHITESPACE = b" \t\n\r\v\f"


def _parse_header(data: bytes):
    """Return (width, height, payload_offset); tolerates '#' comments."""
    pos = 0

    def skip_space(require_one=False):
        nonlocal pos
        seen = 0
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch in (b"#",):
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            elif ch and ch in _WHITESPACE:
                pos += 1
                seen += 1
            else:
                break
        if require_one and seen == 0:
            raise ImageFormatError("missing whitespace in header")

    def token():
        nonlocal pos
        start = pos
        while pos < len(data) and data[pos : pos + 1] not in _WHITESPACE:
            pos += 1
        if pos == start:
            raise ImageFormatError("truncated header")
        return data[start:pos]

    if data[:2] != b"P6":
        raise ImageFormatError(f"not a binary PPM (P6) file: magic {data[:2]!r}")
    pos = 2
    fields = []
    for _ in range(3):
        skip_space(require_one=True)
        tok = token()
        if not tok.isdigit():
            raise ImageFormatError(f"malformed header field {tok!r}")
        try:
            fields.append(int(tok))
        except ValueError as exc:  # beyond Python's int-conversion digit limit
            raise ImageFormatError(f"header field of {len(tok)} digits") from exc
    width, height, maxval = fields
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}; only 255 is handled")
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad image extents {width}x{height}")
    # Exactly one whitespace byte separates the header from the raster.
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise ImageFormatError("missing separator before pixel data")
    return width, height, pos + 1


def read_image(path) -> np.ndarray:
    """Load a P6 file as a (1, 3, H, W) float64 tensor in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, offset = _parse_header(data)
    expected = 3 * width * height
    payload = data[offset:]
    if len(payload) < expected:
        raise ImageFormatError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}"
        )
    if len(payload) > expected:
        raise ImageFormatError(f"{len(payload) - expected} trailing bytes after raster")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return np.ascontiguousarray(
        pixels.reshape(height, width, 3).transpose(2, 0, 1)[np.newaxis]
    )


def quantize(t: np.ndarray) -> np.ndarray:
    """Clamp to [0, 1] and quantize to uint8 with round-half-up."""
    clamped = np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)
    return np.floor(clamped * 255.0 + 0.5).astype(np.uint8)


def write_image(path, t) -> None:
    """Write a (1, 3, H, W) or (3, H, W) tensor as a canonical P6 file.

    The tensor is checked by :func:`errors.as_batch` (NumericError for
    non-finite pixels, ShapeError otherwise); nothing is written.

    The write is atomic: bytes go to a temp file in the target directory
    which is then renamed over the destination.
    """
    a = as_batch("image", np.expand_dims(t, 0) if np.ndim(t) == 3 else t)
    if a.shape[:2] != (1, 3):
        raise ShapeError(f"expected one (3,H,W) image, got shape {a.shape}")
    h, w = a.shape[2], a.shape[3]
    raster = quantize(a[0]).transpose(1, 2, 0).tobytes()
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    atomic_write(path, header + raster)


def atomic_write(path, blob: bytes) -> None:
    """Write ``blob`` to a temp file in the target directory, then rename
    it over ``path``; on any failure the temp file is removed and ``path``
    keeps its old bytes."""
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
