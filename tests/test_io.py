import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowstyle.checkpoint import (
    MAGIC,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from flowstyle.errors import (
    CheckpointError,
    CorruptCheckpointError,
    FlowStyleError,
    ImageFormatError,
    MagicMismatchError,
    NumericError,
    ShapeError,
    SizeMismatchError,
    VersionMismatchError,
)
from flowstyle.flows import (
    FlowNetConfig,
    build_flownet,
    initialize_actnorms,
    randomize_couplings,
)
from flowstyle.ppm import quantize, read_image, write_image


def trained_like_model(seed=0):
    model = build_flownet(FlowNetConfig(2, 2, 4, 3, 8, 8), seed=seed)
    rng = np.random.default_rng(seed + 1)
    initialize_actnorms(model, rng.random((2, 3, 8, 8)))
    randomize_couplings(model, seed=seed + 2)
    return model


ATOMIC_WRITERS = {
    "checkpoint": lambda path: save_checkpoint(path, trained_like_model()),
    "image": lambda path: write_image(path, np.full((1, 3, 2, 2), 0.5)),
}


@pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
def test_failed_rename_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    path.write_bytes(b"old bytes")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        ATOMIC_WRITERS[writer](path)
    assert path.read_bytes() == b"old bytes"
    assert list(tmp_path.iterdir()) == [path]


class TestPpm:
    def test_single_white_pixel(self, tmp_path):
        p = tmp_path / "white.ppm"
        p.write_bytes(b"P6 1 1 255\n\xff\xff\xff")
        t = read_image(p)
        assert t.shape == (1, 3, 1, 1)
        np.testing.assert_array_equal(t, np.ones((1, 3, 1, 1)))

    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((1, 3, 5, 7))
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_image(a, img)
        write_image(b, read_image(a))
        assert a.read_bytes() == b.read_bytes()

    def test_quantized_tensor_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(1)
        img = quantize(rng.random((1, 3, 4, 4))).astype(np.float64) / 255.0
        p = tmp_path / "q.ppm"
        write_image(p, img)
        np.testing.assert_array_equal(read_image(p), img)

    def test_round_half_up(self):
        assert quantize(np.array([0.5]))[0] == 128  # 127.5 rounds up
        assert quantize(np.array([127.4 / 255.0]))[0] == 127
        assert quantize(np.array([-1.0]))[0] == 0
        assert quantize(np.array([2.0]))[0] == 255

    def test_comment_headers_accepted(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# made by hand\n2 1\n255\n" + bytes(6))
        assert read_image(p).shape == (1, 3, 1, 2)

    def test_malformed_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5 1 1 255\n\x00")
        with pytest.raises(ImageFormatError):
            read_image(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "short.ppm"
        p.write_bytes(b"P6 2 2 255\n" + bytes(5))
        with pytest.raises(ImageFormatError):
            read_image(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "long.ppm"
        p.write_bytes(b"P6 1 1 255\n" + bytes(4))
        with pytest.raises(ImageFormatError):
            read_image(p)

    def test_wrong_maxval_rejected(self, tmp_path):
        p = tmp_path / "hdr.ppm"
        p.write_bytes(b"P6 1 1 65535\n" + bytes(6))
        with pytest.raises(ImageFormatError):
            read_image(p)

    @pytest.mark.parametrize("field", range(3))
    def test_header_field_beyond_int_digit_limit_rejected(self, tmp_path, field):
        fields = [b"1", b"1", b"255"]
        fields[field] = b"1" * 5000
        p = tmp_path / "huge.ppm"
        p.write_bytes(b"P6 " + b" ".join(fields) + b"\n" + bytes(3))
        with pytest.raises(ImageFormatError):
            read_image(p)

    def test_write_rejects_batch(self, tmp_path):
        with pytest.raises(ShapeError):
            write_image(tmp_path / "x.ppm", np.zeros((2, 3, 4, 4)))

    @pytest.mark.parametrize("shape", [(3, 0, 5), (3, 5, 0), (1, 3, 0, 0)])
    def test_write_rejects_empty_extent(self, tmp_path, shape):
        with pytest.raises(ShapeError):
            write_image(tmp_path / "x.ppm", np.zeros(shape))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_rejects_non_finite_pixels(self, tmp_path, bad):
        img = np.full((1, 3, 2, 2), 0.5)
        img[0, 1, 1, 0] = bad
        with pytest.raises(NumericError):
            write_image(tmp_path / "x.ppm", img)
        assert list(tmp_path.iterdir()) == []


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = trained_like_model()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, model)
        save_checkpoint(b, load_checkpoint(a))
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_model_outputs_bit_identical(self, tmp_path):
        model = trained_like_model(seed=3)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model)
        loaded = load_checkpoint(p)
        x = np.random.default_rng(4).random((1, 3, 8, 8))
        np.testing.assert_array_equal(loaded.forward(x), model.forward(x))
        z = model.forward(x)
        np.testing.assert_array_equal(loaded.inverse(z), model.inverse(z))

    def test_parameters_bit_identical(self, tmp_path):
        model = trained_like_model(seed=5)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model)
        loaded = load_checkpoint(p)
        for (na, pa), (nb, pb) in zip(model.params.items(), loaded.params.items()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)

    def test_initialized_flag_survives(self, tmp_path):
        model = build_flownet(FlowNetConfig(1, 1, 4, 3, 8, 8), seed=6)
        p = tmp_path / "u.ckpt"
        save_checkpoint(p, model)
        assert not load_checkpoint(p).initialized

    def test_truncated_file_rejected(self, tmp_path):
        model = trained_like_model()
        blob = checkpoint_bytes(model)
        p = tmp_path / "t.ckpt"
        p.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = trained_like_model()
        p = tmp_path / "t.ckpt"
        p.write_bytes(checkpoint_bytes(model) + b"\x00")
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(p)

    def test_flipped_magic_rejected(self, tmp_path):
        blob = bytearray(checkpoint_bytes(trained_like_model()))
        blob[0] ^= 0xFF
        p = tmp_path / "m.ckpt"
        p.write_bytes(bytes(blob))
        with pytest.raises(MagicMismatchError):
            load_checkpoint(p)

    def test_wrong_version_rejected(self, tmp_path):
        blob = bytearray(checkpoint_bytes(trained_like_model()))
        blob[4] = 99
        p = tmp_path / "v.ckpt"
        p.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_checkpoint(p)

    def test_size_mismatch_rejected(self, tmp_path):
        model = trained_like_model()
        blob = bytearray(checkpoint_bytes(model))
        # First layer block: squeeze at offset 32 (tag u8 + count u64).
        # Corrupt the actnorm count that follows it.
        offset = 32 + 9
        blob[offset + 1 : offset + 9] = (5).to_bytes(8, "little")
        p = tmp_path / "s.ckpt"
        p.write_bytes(bytes(blob))
        with pytest.raises(SizeMismatchError):
            load_checkpoint(p)

    @staticmethod
    def _with_header(tmp_path, fields):
        blob = bytearray(checkpoint_bytes(trained_like_model()))
        struct.pack_into("<6I", blob, 8, *fields)
        p = tmp_path / "h.ckpt"
        p.write_bytes(bytes(blob))
        return p

    @pytest.mark.parametrize(
        "fields",
        [(0, 2, 4, 3, 8, 8), (2, 2, 4, 3, 15, 16), (20_000, 2, 4, 3, 8, 8), (2, 2, 4, 3, 0, 8)],
        ids=["no_blocks", "odd_extent", "too_many_blocks", "zero_extent"],
    )
    def test_invalid_architecture_header_rejected(self, tmp_path, fields):
        with pytest.raises(CorruptCheckpointError) as info:
            load_checkpoint(self._with_header(tmp_path, fields))
        assert isinstance(info.value.__cause__, ShapeError)

    def test_oversized_header_rejected_before_building(self, tmp_path):
        # hidden=2**20 would need terabytes of coupling weights.
        with pytest.raises(SizeMismatchError):
            load_checkpoint(self._with_header(tmp_path, (2, 2, 2**20, 3, 8, 8)))

    # The first actnorm block's values start after the 32-byte header,
    # the squeeze block (9 bytes) and the actnorm block header (9 bytes):
    # 12 scales, 12 biases, then the init flag.
    FIRST_SCALE = 32 + 9 + 9
    FIRST_FLAG = FIRST_SCALE + 8 * 24

    def _with_value(self, tmp_path, offset, value):
        blob = bytearray(checkpoint_bytes(trained_like_model()))
        struct.pack_into("<d", blob, offset, value)
        p = tmp_path / "f.ckpt"
        p.write_bytes(bytes(blob))
        return p

    @pytest.mark.parametrize("flag", [2.0, -0.0, np.nan, 1.0 + 2**-52])
    def test_init_flag_other_than_zero_or_one_rejected(self, tmp_path, flag):
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(self._with_value(tmp_path, self.FIRST_FLAG, flag))

    @pytest.mark.parametrize("initialized", [True, False])
    def test_disagreeing_init_flags_rejected(self, tmp_path, initialized):
        # Every actnorm block carries the model's one flag; a file whose
        # first flag differs from the other three is no model's.
        model = build_flownet(FlowNetConfig(2, 2, 4, 3, 8, 8), seed=7)
        model.initialized = initialized
        blob = bytearray(checkpoint_bytes(model))
        struct.pack_into("<d", blob, self.FIRST_FLAG, 0.0 if initialized else 1.0)
        p = tmp_path / "d.ckpt"
        p.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpointError, match="disagree"):
            load_checkpoint(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(self._with_value(tmp_path, self.FIRST_SCALE, value))

    def test_magic_is_stable(self):
        assert MAGIC == b"PFN1"


def exact_model():
    """One block of two flow steps whose checkpoint bytes need no BLAS.

    Every stored weight is a small multiple of 1/4, and each squeezed
    input channel alternates m + a and m - a with a a power of two, so
    the first actnorm initializes to exact values, its output is +-1,
    and every product and sum up to the second actnorm's statistics is
    exact in float64 whatever the summation order.
    """
    model = build_flownet(FlowNetConfig(1, 2, 2, 1, 4, 4))
    for i, (_, arr) in enumerate(model.params.items()):
        arr[...] = ((np.arange(arr.size) * 3 + i) % 7 - 3).reshape(arr.shape) / 4.0
    batch = np.zeros((1, 1, 4, 4))
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    for k, (dy, dx) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        batch[0, 0, dy::2, dx::2] = k / 2.0 + (1.0, 0.5, 2.0, 0.25)[k] * sign
    initialize_actnorms(model, batch)
    return model


GOLDEN_SHA256 = "9799b3f53a6fa91f15bd8c1d1fa54b2523b7ade057aad429cc3a23295a1d5d18"


class TestCheckpointGolden:
    def test_exact_model_bytes_are_stable(self):
        blob = checkpoint_bytes(exact_model())
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256


def tiny_blob():
    model = build_flownet(FlowNetConfig(1, 1, 2, 1, 2, 2), seed=1)
    initialize_actnorms(model, np.random.default_rng(2).random((2, 1, 2, 2)))
    randomize_couplings(model, seed=3)
    return checkpoint_bytes(model)


TINY = tiny_blob()
# Offsets where a layer block starts: after the 32-byte header, each
# block is a 9-byte tag/count header plus its f64 values.
BOUNDARIES = [32]
while BOUNDARIES[-1] < len(TINY):
    count = struct.unpack_from("<Q", TINY, BOUNDARIES[-1] + 1)[0]
    BOUNDARIES.append(BOUNDARIES[-1] + 9 + 8 * count)


def _load_bytes(tmp_path, blob):
    """Load ``blob``; a file that loads must re-serialize to itself."""
    p = tmp_path / "fuzz.ckpt"
    p.write_bytes(blob)
    try:
        model = load_checkpoint(p)
    except CheckpointError:
        return False
    assert checkpoint_bytes(model) == blob
    return True


class TestCheckpointFuzz:
    fuzz = settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )

    def test_tiny_blob_loads(self, tmp_path):
        assert BOUNDARIES[-1] == len(TINY)
        assert _load_bytes(tmp_path, TINY)

    @fuzz
    @given(st.binary(max_size=2 * len(TINY)))
    def test_random_bytes(self, tmp_path, blob):
        _load_bytes(tmp_path, blob)

    @fuzz
    @given(st.binary(max_size=2 * len(TINY)))
    def test_random_bytes_after_valid_header(self, tmp_path, tail):
        _load_bytes(tmp_path, TINY[:8] + tail)

    @pytest.mark.parametrize("end", BOUNDARIES[:-1])
    def test_truncated_at_block_boundary(self, tmp_path, end):
        assert not _load_bytes(tmp_path, TINY[:end])

    @fuzz
    @given(st.integers(0, len(TINY) - 1), st.integers(1, 255))
    def test_single_byte_flip(self, tmp_path, pos, mask):
        blob = bytearray(TINY)
        blob[pos] ^= mask
        _load_bytes(tmp_path, bytes(blob))


# A canonical 3x2 image, byte for byte what write_image produces.
PPM = b"P6\n3 2\n255\n" + bytes(range(0, 18 * 14, 14))


def _read_bytes(tmp_path, blob):
    """Read ``blob``; an image that reads must survive write -> read."""
    p = tmp_path / "fuzz.ppm"
    p.write_bytes(blob)
    try:
        img = read_image(p)
    except FlowStyleError:
        return False
    assert img.ndim == 4 and img.shape[:2] == (1, 3)
    assert img.min() >= 0.0 and img.max() <= 1.0
    again = tmp_path / "again.ppm"
    write_image(again, img)
    np.testing.assert_array_equal(read_image(again), img)
    return True


class TestPpmFuzz:
    fuzz = TestCheckpointFuzz.fuzz

    def test_canonical_file_reads(self, tmp_path):
        assert _read_bytes(tmp_path, PPM)
        assert (tmp_path / "again.ppm").read_bytes() == PPM

    @fuzz
    @given(st.binary(max_size=2 * len(PPM)))
    def test_random_bytes(self, tmp_path, blob):
        _read_bytes(tmp_path, blob)

    @fuzz
    @given(st.binary(max_size=2 * len(PPM)))
    def test_random_bytes_after_magic(self, tmp_path, tail):
        _read_bytes(tmp_path, b"P6" + tail)

    @pytest.mark.parametrize("end", range(len(PPM)))
    def test_truncated(self, tmp_path, end):
        assert not _read_bytes(tmp_path, PPM[:end])

    @fuzz
    @given(st.integers(0, len(PPM) - 1), st.integers(1, 255))
    def test_single_byte_flip(self, tmp_path, pos, mask):
        blob = bytearray(PPM)
        blob[pos] ^= mask
        _read_bytes(tmp_path, bytes(blob))
