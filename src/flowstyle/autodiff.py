"""Minimal reverse-mode differentiation over float64 numpy arrays.

A :class:`Tape` is an append-only list of nodes; every op that sees a
taped :class:`Var` computes its result eagerly and appends one node whose
``back`` closure propagates gradients. ``backward`` replays the nodes in
strict reverse append order, so gradient accumulation order (and hence
the bits of every gradient) is fixed for a given program.

Ops accept plain ndarrays or python scalars anywhere a Var is allowed;
those operands are constants and receive no gradient. Every op decides
the kind of its result in one place, ``_record``: arrays in give an
ndarray out, and any Var operand gives a Var out, taped when an operand
is taped. So inference runs the exact code paths of training on plain
arrays, without building a Var or recording anything.

Only one tape may appear among the operands of a single op; tapes are
meant to live for one training step and be discarded.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericError, ShapeError
from .linalg import blas_threads

_SQUEEZE_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major 2x2 order


class Tape:
    """Append-only record of executed ops, replayed in reverse by backward.

    Each node's closure and inputs hold Vars, which hold the tape, so a
    tape is a reference cycle. :func:`backward` breaks it when it ends by
    dropping every node's closure and inputs, which frees the tape and
    every activation it kept at once; the nodes stay as the record of
    which ops ran. A tape never passed to ``backward`` stays alive until
    Python's cyclic garbage collector next runs.
    """

    __slots__ = ("nodes", "__weakref__")

    def __init__(self):
        self.nodes: list[_Node] = []


class _Node:
    __slots__ = ("op", "back", "inputs")

    def __init__(self, op, back, inputs):
        self.op = op
        self.back = back
        self.inputs = inputs


def _spent():
    """The ``back`` of a node that ``backward`` has run: a no-op."""


class Var:
    """Array value tracked (optionally) on a tape.

    ``grad`` is a same-shaped float64 buffer when the Var belongs to a
    tape, else None. Treat ``data`` as immutable while the tape is alive.
    A Var built with ``tape=None`` records nothing, but ops given one
    still return Vars, which is how a caller keeps Var results without
    a tape (``grad_check``'s perturbed evaluations).
    """

    __slots__ = ("data", "grad", "tape")

    def __init__(self, data, tape=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.grad = np.zeros_like(self.data) if tape is not None else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Var(shape={self.data.shape}, taped={self.tape is not None})"


# What an op returns: an ndarray when no operand is a Var, else a Var.
Value = np.ndarray | Var


def _data(x):
    return x.data if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _tape_of(*xs):
    tape = None
    for x in xs:
        if isinstance(x, Var) and x.tape is not None:
            if tape is not None and tape is not x.tape:
                raise ShapeError("operands belong to different tapes")
            tape = x.tape
    return tape


def _record(tape, op, out_data, back, inputs) -> Value:
    """The op's result: ``out_data`` as an array when no input is a Var,
    else as a Var, with a node on ``tape`` when the op is taped."""
    if tape is None:
        if any(isinstance(x, Var) for x in inputs):
            return Var(out_data)
        return np.asarray(out_data, dtype=np.float64)
    out = Var(out_data, tape)
    taped = tuple(x for x in inputs if isinstance(x, Var) and x.tape is tape)
    tape.nodes.append(_Node(op, lambda: back(out.grad), taped))
    return out


def _accum(x, g):
    if isinstance(x, Var) and x.grad is not None:
        x.grad += g


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Value:
    da, db = _data(a), _data(b)
    tape = _tape_of(a, b)
    out = da + db

    def back(g):
        _accum(a, _unbroadcast(g, da.shape))
        _accum(b, _unbroadcast(g, db.shape))

    return _record(tape, "add", out, back, (a, b))


def sub(a, b) -> Value:
    da, db = _data(a), _data(b)
    tape = _tape_of(a, b)
    out = da - db

    def back(g):
        _accum(a, _unbroadcast(g, da.shape))
        _accum(b, _unbroadcast(-g, db.shape))

    return _record(tape, "sub", out, back, (a, b))


def mul(a, b) -> Value:
    da, db = _data(a), _data(b)
    tape = _tape_of(a, b)
    out = da * db

    def back(g):
        _accum(a, _unbroadcast(g * db, da.shape))
        _accum(b, _unbroadcast(g * da, db.shape))

    return _record(tape, "mul", out, back, (a, b))


def div(a, b) -> Value:
    da, db = _data(a), _data(b)
    tape = _tape_of(a, b)
    out = da / db

    def back(g):
        _accum(a, _unbroadcast(g / db, da.shape))
        _accum(b, _unbroadcast(-g * da / (db * db), db.shape))

    return _record(tape, "div", out, back, (a, b))


def neg(a) -> Value:
    da = _data(a)

    def back(g):
        _accum(a, -g)

    return _record(_tape_of(a), "neg", -da, back, (a,))


def reshape(a, shape) -> Value:
    da = _data(a)
    old = da.shape

    def back(g):
        _accum(a, g.reshape(old))

    return _record(_tape_of(a), "reshape", da.reshape(shape), back, (a,))


def relu(a) -> Value:
    da = _data(a)
    mask = da > 0.0  # subgradient at 0 is 0

    def back(g):
        _accum(a, g * mask)

    return _record(_tape_of(a), "relu", da * mask, back, (a,))


def maximum_scalar(a, floor: float) -> Value:
    """Elementwise max(a, floor); gradient is 0 on the clamped side."""
    da = _data(a)
    mask = da > floor

    def back(g):
        _accum(a, g * mask)

    return _record(
        _tape_of(a), "maximum_scalar", np.maximum(da, floor), back, (a,)
    )


def sqrt(a) -> Value:
    da = _data(a)
    root = np.sqrt(da)

    def back(g):
        # Subgradient 0 where the root is 0 (keeps clamped stats NaN-free).
        safe = np.where(root > 0.0, root, 1.0)
        _accum(a, np.where(root > 0.0, g / (2.0 * safe), 0.0))

    return _record(_tape_of(a), "sqrt", root, back, (a,))


# ---------------------------------------------------------------------------
# reductions


def sum_all(a) -> Value:
    da = _data(a)

    def back(g):
        _accum(a, np.full(da.shape, float(g)))

    return _record(_tape_of(a), "sum_all", np.asarray(da.sum()), back, (a,))


def mean_all(a) -> Value:
    da = _data(a)
    n = da.size

    def back(g):
        _accum(a, np.full(da.shape, float(g) / n))

    return _record(_tape_of(a), "mean_all", np.asarray(da.mean()), back, (a,))


def channel_mean(x) -> Value:
    """Per-channel mean over batch and spatial axes: (B,C,H,W) -> (C,)."""
    dx = _data(x)
    if dx.ndim != 4:
        raise ShapeError(f"channel_mean expects rank-4 input, got {dx.shape}")
    n = dx.shape[0] * dx.shape[2] * dx.shape[3]

    def back(g):
        _accum(x, np.broadcast_to(g[np.newaxis, :, np.newaxis, np.newaxis] / n, dx.shape))

    return _record(_tape_of(x), "channel_mean", dx.mean(axis=(0, 2, 3)), back, (x,))


def per_channel(v) -> Value:
    """Reshape a length-C vector to (1,C,1,1) for broadcasting."""
    dv = _data(v)
    return reshape(v, (1, dv.shape[0], 1, 1))


# ---------------------------------------------------------------------------
# structured ops


def conv2d(
    x, k, bias=None, stride: int = 1, pad: int = 0, relu: bool = False, out=None
) -> Value:
    """2-d convolution (cross-correlation), zero padding, square stride,
    then an optional per-channel bias and ReLU.

    ``x`` is (B,I,H,W), ``k`` is (O,I,kh,kw), ``bias`` is (O,) or None;
    ``stride`` is an integer of at least 1 and ``pad`` one of at least 0.
    The output and every gradient equal (``array_equal``) those of
    ``relu(add(conv2d(x, k), per_channel(bias)))``, but come from one
    tape node whose bias and ReLU run in place on the GEMM's output.
    Backward masks the output gradient by ``out > 0`` (the kept output
    is positive exactly where the pre-activation was) and sums it over
    batch and space for the bias gradient.

    The output and each gradient are one BLAS GEMM in NCHW layout plus
    strided adds, with the scratch buffer sized by the smaller channel
    side, which the shapes alone decide:

    * ``I <= O``: copy every kernel window of the padded input into a
      (B, I*kh*kw, Ho*Wo) matrix and multiply by ``k`` as (O, I*kh*kw).
      Scratch: the padded input and that matrix.
    * ``I > O``: multiply the unpadded input by ``k`` as (kh*kw*O, I),
      then add each tap's slice of that product into the output window
      it reaches, clipped at the border: taps on the zero padding add
      nothing, so no padded copy is made. Scratch: the (B, kh*kw*O, H*W)
      product.

    Backward picks the side the same way for the input gradient (a
    transposed convolution, so the roles of I and O swap): for I <= O it
    adds the taps of one GEMM product into the unpadded gradient through
    the same clipped taps; for I > O it correlates the stride-dilated,
    padded output gradient with the flipped kernel, an (O*kh*kw, Hp*Wp)
    matrix per image. The kernel gradient is one ``tensordot`` of the
    output gradient with the windows of the padded input, which backward
    builds only when the kernel takes a gradient. The tape keeps the
    input, the kernel and the output, never a padded copy, a window
    buffer or a ReLU mask.

    ``out``, as in numpy, is a C-contiguous float64 array of the output's
    shape that receives the result (bias and ReLU applied), and is what
    the call returns. It serves untaped calls only: a taped operand, or
    an array that does not fit, raises ``ShapeError``.

    Convolutions of fewer than ``linalg.THREADED_MIN_MACS`` multiply-adds
    run their GEMMs on one BLAS thread (:func:`linalg.blas_threads`).
    """
    dx, dk = _data(x), _data(k)
    if dx.ndim != 4 or dk.ndim != 4:
        raise ShapeError("conv2d expects rank-4 input and kernel")
    if dx.shape[1] != dk.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input {dx.shape[1]}, kernel {dk.shape[1]}"
        )
    n_out, n_in, kh, kw = dk.shape
    if bias is not None and _data(bias).shape != (n_out,):
        raise ShapeError(
            f"conv2d bias must have shape ({n_out},), got {_data(bias).shape}"
        )
    stride, pad = _int_at_least("stride", stride, 1), _int_at_least("pad", pad, 0)
    b, _, h, w = dx.shape
    taps = _Taps(kh, kw, stride, pad, h, w)
    h_out, w_out = taps.h_out, taps.w_out
    if h_out <= 0 or w_out <= 0:
        raise ShapeError("conv2d kernel larger than padded input")
    tape = _tape_of(x, k, bias)
    if out is not None:
        if tape is not None:
            raise ShapeError("conv2d cannot write a taped result into out=")
        if not (
            isinstance(out, np.ndarray)
            and out.dtype == np.float64
            and out.flags.c_contiguous
            and out.shape == (b, n_out, h_out, w_out)
        ):
            raise ShapeError(
                f"conv2d out= must be a C-contiguous float64 array of shape "
                f"{(b, n_out, h_out, w_out)}"
            )
    else:
        out = np.empty((b, n_out, h_out, w_out))
    macs = b * n_out * n_in * kh * kw * h_out * w_out
    with blas_threads(macs):
        if n_in <= n_out:
            _im2col_gemm(_padded(dx, pad), dk.reshape(n_out, -1), taps, out)
        else:
            prod = dk.transpose(2, 3, 0, 1).reshape(-1, n_in) @ dx.reshape(b, n_in, -1)
            prod = prod.reshape(b, kh, kw, n_out, h, w)
            out.fill(0.0)
            for u, v, o_rows, o_cols, rows, cols in taps.clipped():
                out[:, :, o_rows, o_cols] += prod[:, u, v, :, rows, cols]
    if bias is not None:
        out += _data(bias)[:, None, None]
    if relu:
        np.maximum(out, 0.0, out=out)

    def back(g):
        if relu:
            g = g * (out > 0.0)
        if bias is not None:
            _accum(bias, _unbroadcast(g, (1, n_out, 1, 1)).reshape(n_out))
        with blas_threads(macs):
            if n_in <= n_out:
                per_tap = (dk.reshape(n_out, -1).T @ g.reshape(b, n_out, -1)).reshape(
                    b, n_in, kh, kw, h_out, w_out
                )
                gx = np.zeros_like(dx)
                for u, v, o_rows, o_cols, rows, cols in taps.clipped():
                    gx[:, :, rows, cols] += per_tap[:, :, u, v, o_rows, o_cols]
            else:
                # Transposed conv as a correlation of the stride-dilated,
                # (k-1)-padded output gradient with the flipped kernel.
                hp, wp = h + 2 * pad, w + 2 * pad
                gd = np.zeros((b, n_out, hp + kh - 1, wp + kw - 1))
                gd[:, :, kh - 1 : kh - 1 + stride * h_out : stride,
                   kw - 1 : kw - 1 + stride * w_out : stride] = g
                flipped = dk[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(n_in, -1)
                gx = _im2col_gemm(gd, flipped, _Taps(kh, kw, 1, 0, *gd.shape[2:]))
                gx = gx[:, :, pad : pad + h, pad : pad + w]
            _accum(x, gx)
            if isinstance(k, Var) and k.grad is not None:
                windows = taps.windows(_padded(dx, pad))
                k.grad += np.tensordot(g, windows, axes=([0, 2, 3], [0, 2, 3]))

    return _record(tape, "conv2d", out, back, (x, k, bias))


def _int_at_least(name, value, least):
    """``value`` as an int, or ShapeError unless it is an integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ShapeError(f"conv2d {name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _padded(x, pad):
    """``x`` with ``pad`` zeros around its two spatial axes (``x`` itself at 0)."""
    if not pad:
        return x
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:-pad, pad:-pad] = x
    return xp


class _Taps:
    """Kernel-tap geometry of one convolution: (kh, kw) taps at ``stride``
    over an (h, w) input with ``pad`` zeros on every side."""

    __slots__ = ("kh", "kw", "stride", "pad", "h", "w", "h_out", "w_out")

    def __init__(self, kh, kw, stride, pad, h, w):
        self.kh, self.kw, self.stride, self.pad = kh, kw, stride, pad
        self.h, self.w = h, w
        self.h_out = (h + 2 * pad - kh) // stride + 1
        self.w_out = (w + 2 * pad - kw) // stride + 1

    def clipped(self):
        """(u, v, out_rows, out_cols, rows, cols) for every tap that reaches
        the unpadded input: output window ``[out_rows, out_cols]`` reads the
        input at ``[rows, cols]`` through tap (u, v)."""
        s, p = self.stride, self.pad
        rows = _clip_axis(self.kh, self.h, self.h_out, s, p)
        cols = _clip_axis(self.kw, self.w, self.w_out, s, p)
        return [(u, v, o_rows, o_cols, i_rows, i_cols)
                for u, o_rows, i_rows in rows for v, o_cols, i_cols in cols]

    def windows(self, xp):
        """Read-only (B, I, Ho, Wo, kh, kw) view of every window of the
        padded input ``xp``."""
        sb, si, sh, sw = xp.strides
        s = self.stride
        return as_strided(
            xp,
            xp.shape[:2] + (self.h_out, self.w_out, self.kh, self.kw),
            (sb, si, s * sh, s * sw, sh, sw),
            writeable=False,
        )


def _clip_axis(k, n, n_out, s, p):
    """(offset, output slice, input slice) of each of ``k`` tap offsets
    that reaches an axis of extent ``n`` (``p`` padding, stride ``s``)."""
    taps = []
    for u in range(k):
        lo = max(0, -((u - p) // s))  # first output i with i*s + u - p >= 0
        hi = min(n_out, (n - 1 + p - u) // s + 1)  # one past the last
        if lo < hi:
            start = lo * s + u - p
            taps.append((u, slice(lo, hi), slice(start, start + s * (hi - lo - 1) + 1, s)))
    return taps


def _im2col_gemm(xp, kmat, taps, out=None):
    """Correlate ``xp`` with ``kmat`` (O, I*kh*kw) as one GEMM over its
    windows, into ``out`` (B, O, Ho, Wo) when given."""
    b, n_in = xp.shape[:2]
    cols = (
        taps.windows(xp)
        .transpose(0, 1, 4, 5, 2, 3)
        .reshape(b, n_in * taps.kh * taps.kw, taps.h_out * taps.w_out)
    )
    if out is None:
        out = np.empty((b, kmat.shape[0], taps.h_out, taps.w_out))
    np.matmul(kmat, cols, out=out.reshape(b, kmat.shape[0], -1))
    return out


def _mix(m, x):
    """Apply matrix ``m`` (O,I) to the channels of ``x`` (B,I,H,W) by GEMM."""
    b, _, h, w = x.shape
    with blas_threads(m.size * b * h * w):
        out = m @ x.reshape(b, x.shape[1], h * w)
    return out.reshape(b, m.shape[0], h, w)


def _mix_grad(g, x):
    """Gradient of ``_mix`` w.r.t. its matrix: sum over b,h,w of g x^T."""
    with blas_threads(g.size * x.shape[1]):
        return np.tensordot(g, x, axes=([0, 2, 3], [0, 2, 3]))


def channel_mix(x, w) -> Value:
    """Per-position channel mixing y = W x (a 1x1 convolution by matrix W)."""
    dx, dw = _data(x), _data(w)
    if dx.shape[1] != dw.shape[1]:
        raise ShapeError(f"channel_mix: {dw.shape} cannot act on {dx.shape}")
    out = _mix(dw, dx)

    def back(g):
        _accum(x, _mix(dw.T, g))
        if isinstance(w, Var) and w.grad is not None:
            w.grad += _mix_grad(g, dx)

    return _record(_tape_of(x, w), "channel_mix", out, back, (x, w))


def channel_mix_inv(x, w, w_inv: np.ndarray) -> Value:
    """Per-position mixing by the inverse matrix, y = W^{-1} x.

    ``w_inv`` is the precomputed inverse (callers own the inversion so its
    failure mode stays theirs). Gradient w.r.t. W uses
    d(W^{-1}) = -W^{-1} dW W^{-1}.
    """
    dx = _data(x)
    m = np.asarray(w_inv, dtype=np.float64)
    out = _mix(m, dx)

    def back(g):
        _accum(x, _mix(m.T, g))
        if isinstance(w, Var) and w.grad is not None:
            w.grad += -(m.T @ _mix_grad(g, dx) @ m.T)

    return _record(_tape_of(x, w), "channel_mix_inv", out, back, (x, w))


def squeeze2(x) -> Value:
    """Trade 2x2 spatial blocks for channels: (B,C,H,W) -> (B,4C,H/2,W/2).

    Output channel 4*c + k holds input channel c at spatial offset k, with
    offsets enumerated row-major: top-left, top-right, bottom-left,
    bottom-right.
    """
    dx = _data(x)
    h, w = dx.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"squeeze needs even spatial extents, got {h}x{w}")

    def back(g):
        _accum(x, _unsqueeze_data(g))

    out = _squeeze_data(dx)
    return _record(_tape_of(x), "squeeze2", np.ascontiguousarray(out), back, (x,))


def _squeeze_data(x):
    b, c, h, w = x.shape
    return (
        x.reshape(b, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(b, 4 * c, h // 2, w // 2)
    )


def _unsqueeze_data(z):
    b, c4, h2, w2 = z.shape
    c = c4 // 4
    return (
        z.reshape(b, c, 2, 2, h2, w2)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(b, c, 2 * h2, 2 * w2)
    )


def unsqueeze2(x) -> Value:
    """Exact inverse of :func:`squeeze2`."""
    dx = _data(x)
    if dx.shape[1] % 4:
        raise ShapeError(f"unsqueeze needs channels divisible by 4, got {dx.shape[1]}")

    def back(g):
        _accum(x, _squeeze_data(g))

    out = _unsqueeze_data(dx)
    return _record(_tape_of(x), "unsqueeze2", np.ascontiguousarray(out), back, (x,))


def split_half(x) -> tuple[Value, Value]:
    """Split channels into two equal halves: two arrays for an array,
    two Vars for a Var."""
    dx = _data(x)
    c = dx.shape[1]
    if c % 2:
        raise ShapeError(f"split_half needs an even channel count, got {c}")
    half = c // 2
    a = np.ascontiguousarray(dx[:, :half])
    b = np.ascontiguousarray(dx[:, half:])
    if not isinstance(x, Var):
        return a, b
    a, b = Var(a, x.tape), Var(b, x.tape)
    if x.tape is not None:

        def back():
            x.grad[:, :half] += a.grad
            x.grad[:, half:] += b.grad

        x.tape.nodes.append(_Node("split_half", back, (x,)))
    return a, b


def concat_half(a, b) -> Value:
    """Concatenate two equal-channel tensors along the channel axis."""
    da, db = _data(a), _data(b)
    if da.shape[0] != db.shape[0] or da.shape[2:] != db.shape[2:]:
        raise ShapeError(f"concat_half shape mismatch: {da.shape} vs {db.shape}")
    half = da.shape[1]

    def back(g):
        _accum(a, g[:, :half])
        _accum(b, g[:, half:])

    out = np.concatenate([da, db], axis=1)
    return _record(_tape_of(a, b), "concat_half", out, back, (a, b))


# ---------------------------------------------------------------------------
# backward sweep and gradient checking


def backward(loss: Var, check_finite: bool = True) -> None:
    """Propagate d(loss)/d(everything) back through the loss's tape.

    The loss must be a taped scalar. With ``check_finite`` each node's
    freshly written input gradients are validated and a NumericError
    naming the op is raised on the first NaN/Inf.

    The tape is spent afterwards, whether the sweep finished or raised:
    every node keeps its op name but drops its closure and inputs, so a
    second ``backward`` over it does nothing.
    """
    if not isinstance(loss, Var) or loss.tape is None:
        raise ValueError("backward requires a Var recorded on a tape")
    if loss.data.shape != ():
        raise ValueError(f"backward requires a scalar, got shape {loss.data.shape}")
    loss.grad[...] = 1.0
    try:
        for node in reversed(loss.tape.nodes):
            node.back()
            if check_finite:
                for var in node.inputs:
                    if var.grad is not None and not np.isfinite(var.grad).all():
                        raise NumericError(f"non-finite gradient produced by op '{node.op}'")
    finally:
        for node in loss.tape.nodes:
            node.back, node.inputs = _spent, ()


def grad_check(params, build_loss, step: float = 1e-5, tol: float = 1e-4):
    """Compare analytic gradients against central finite differences.

    ``params`` maps names to float64 arrays; ``build_loss`` maps a
    same-keyed dict of Vars (untaped for the perturbed evaluations)
    to a scalar Var. Per parameter the reported error is
    ``max|analytic - numeric|`` normalized by the largest gradient
    magnitude seen across *all* parameters, so parameters whose true
    gradient is exactly zero are judged against the overall gradient
    scale rather than against finite-difference noise.

    Returns a :class:`GradCheckReport`; ``report.passed`` is True when
    every parameter's relative error is below ``tol``.
    """
    tape = Tape()
    pvars = {name: Var(arr, tape) for name, arr in params.items()}
    loss = build_loss(pvars)
    backward(loss)
    analytic = {name: pvars[name].grad.copy() for name in params}

    def eval_loss(arrays) -> float:
        out = build_loss({n: Var(a) for n, a in arrays.items()})
        return float(_data(out))

    numeric = {}
    for name, arr in params.items():
        num = np.zeros_like(arr)
        for idx in range(arr.size):
            orig = arr.flat[idx]
            arr.flat[idx] = orig + step
            up = eval_loss(params)
            arr.flat[idx] = orig - step
            down = eval_loss(params)
            arr.flat[idx] = orig
            num.flat[idx] = (up - down) / (2.0 * step)
        numeric[name] = num
    scale = max(
        max((float(np.max(np.abs(g), initial=0.0)) for g in analytic.values()), default=0.0),
        max((float(np.max(np.abs(g), initial=0.0)) for g in numeric.values()), default=0.0),
        1e-12,
    )
    errors = {
        name: float(np.max(np.abs(analytic[name] - numeric[name]), initial=0.0)) / scale
        for name in params
    }
    return GradCheckReport(per_param=errors, tol=tol)


class GradCheckReport:
    """Per-parameter relative errors from :func:`grad_check`."""

    def __init__(self, per_param: dict[str, float], tol: float):
        self.per_param = per_param
        self.tol = tol

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return all(err < self.tol for err in self.per_param.values())

    @property
    def failures(self) -> dict[str, float]:
        return {n: e for n, e in self.per_param.items() if e >= self.tol}

    def __repr__(self):
        return (
            f"GradCheckReport(max_rel_error={self.max_rel_error:.3e}, "
            f"passed={self.passed})"
        )
