"""Minimal reverse-mode differentiation over float64 numpy arrays.

A :class:`Tape` is an append-only list of nodes; every op that sees a
taped :class:`Var` computes its result eagerly and appends one node whose
``back`` closure propagates gradients. ``backward`` replays the nodes in
strict reverse append order, so gradient accumulation order (and hence
the bits of every gradient) is fixed for a given program.

Gradient memory is paid only where backward reaches. A leaf Var that a
caller puts on a tape holds a zero gradient buffer from the start; an
op's output gets its buffer when backward first writes to it, with the
bits that adding into zeros would give. ``backward`` skips a node that
no gradient reached and drops each node's closure, inputs and outputs
as soon as it has run, so an activation and its gradient are freed
once no node still to run can reach them: the peak is the forward
pass's activations plus the gradients in flight, not twice the
activations. The activations are fewer where one node stands for a
whole composition: a taped walk of the flow network in
:mod:`flowstyle.flows` records a single node that keeps only the walk's
output and rebuilds every layer's input from its output in backward,
so no tape holds a flow activation.

Ops accept plain ndarrays or python scalars anywhere a Var is allowed;
those operands are constants and receive no gradient. Every Var lives on
a tape, and every op decides the kind of its result in one place,
``_record``: arrays in give an ndarray out, and any Var operand gives a
Var on that tape out, with a node recorded. So inference runs the exact
code paths of training on plain arrays, without building a Var or
recording anything.

Only one tape may appear among the operands of a single op; tapes are
meant to live for one training step and be discarded.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericError, ShapeError, StateError, as_index
from .linalg import blas_threads

_SQUEEZE_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major 2x2 order


class Tape:
    """Append-only record of executed ops, replayed in reverse by backward.

    Each node's closure, inputs and outputs hold Vars, which hold the
    tape, so a tape is a reference cycle. :func:`backward` breaks it node
    by node: it drops each node's closure, inputs and outputs right after
    running it, so reference counting frees each activation and its
    gradient as the sweep passes their producer, and the tape itself when
    the sweep ends. The nodes stay as the record of which ops ran. A tape
    never passed to ``backward`` stays alive until Python's cyclic garbage
    collector next runs.

    A node may stand for many ops: a taped flow walk is one ``walk`` node
    whose backward rebuilds what it did not keep, so the tape of a
    training step holds two flow activations (each walk's output) at
    any depth.
    """

    __slots__ = ("nodes", "__weakref__")

    def __init__(self):
        self.nodes: list[_Node] = []


class _Node:
    __slots__ = ("op", "back", "inputs", "outs")

    def __init__(self, op, back, inputs, outs):
        self.op = op
        self.back = back
        self.inputs = inputs
        self.outs = outs


def _spent():
    """The ``back`` of a node that ``backward`` has run: a no-op."""


class Var:
    """Array value recorded on a tape; ``tape`` must be a :class:`Tape`.

    ``grad`` is a same-shaped float64 buffer or None. A Var that a caller
    builds (a leaf, such as a parameter) holds zeros from the start; a
    Var that an op made holds None until backward first writes its
    gradient. Treat ``data`` as immutable while the tape is alive.
    """

    __slots__ = ("data", "grad", "tape")

    def __init__(self, data, tape):
        if not isinstance(tape, Tape):
            raise StateError(f"a Var needs a Tape, got {type(tape).__name__}")
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Var(shape={self.data.shape})"


# What an op returns: an ndarray when no operand is a Var, else a Var.
Value = np.ndarray | Var


def _data(x):
    return x.data if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _tape_of(*xs):
    tape = None
    for x in xs:
        if isinstance(x, Var):
            if tape is not None and tape is not x.tape:
                raise ShapeError("operands belong to different tapes")
            tape = x.tape
    return tape


def _record(tape, op, out_data, back, inputs) -> Value:
    """The op's result: ``out_data`` as an array when no input is a Var,
    else as a Var on ``tape`` with a node that records the op."""
    if tape is None:
        return np.asarray(out_data, dtype=np.float64)
    out = _op_output(out_data, tape)
    taped = tuple(x for x in inputs if isinstance(x, Var))
    tape.nodes.append(_Node(op, lambda: back(out.grad), taped, (out,)))
    return out


def _op_output(data, tape):
    """A Var that an op made on ``tape``: no gradient buffer until
    backward first writes one (:func:`_accum`)."""
    out = Var.__new__(Var)
    out.data, out.grad, out.tape = np.asarray(data, dtype=np.float64), None, tape
    return out


def _accum(x, g):
    if isinstance(x, Var):
        if x.grad is None:
            # The bits of 0.0 + g, as if added into zeros: -0.0 lands as +0.0.
            x.grad = np.add(g, 0.0, out=np.empty_like(x.data))
        else:
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
#
# Each structured op has one array kernel, written for the channel-major
# layout (C, B, H, W) in which a flow walk runs: the channels of the whole
# batch are the rows of one (C, B*H*W) matrix. Every gradient is one 2-D
# GEMM over those columns; a forward multiplies each sample's columns on
# their own, without a copy (:func:`_by_sample`), so that a sample's
# values do not depend on its batch. The public ops take and give NCHW
# arrays and reach the kernels through :func:`_swap`, a view at batch 1.


def _swap(a):
    """``a`` with its first two axes swapped, C-contiguous: NCHW to
    channel-major (C, B, H, W) and back. At batch 1 (or one channel) the
    two layouts are the same memory and this is a view of ``a``."""
    return np.ascontiguousarray(a.swapaxes(0, 1))


def _channel_sum(a):
    """Sum of a channel-major ``a`` (C, B, H, W) over batch, then rows,
    then columns: the reduction order of :func:`_unbroadcast` on the NCHW
    array, so the same bits."""
    return a.sum(axis=1).sum(axis=1).sum(axis=1)


def _check_real(op, *operands):
    """ShapeError when an array operand is complex: its conversion to
    float64 would keep the real part and answer for another input."""
    for x in operands:
        if not isinstance(x, Var) and np.iscomplexobj(x):
            raise ShapeError(f"{op}: expected real values, got {np.asarray(x).dtype}")


class _Scratch:
    """Named buffers that the kernels of the flow walks of one call reuse.

    :meth:`take` hands out the buffer kept under a name: the same array
    again for the same shape, and a leading view of its memory for a
    smaller one, which grows only when a larger shape is asked for. So
    the couplings of every block write their hidden maps and their
    convolutions' temporaries, forward and backward, into the same memory
    each time. One call (a training step, a stylization) makes one and
    hands it to each of its walks, which run one after another; no result
    of a walk is one of its buffers, so it dies with the call and with
    its tape nodes; nothing is kept on the module or the model.
    """

    __slots__ = ("_flat", "_views")

    def __init__(self):
        self._flat, self._views = {}, {}

    def take(self, name, shape):
        buf = self._views.get(name)
        if buf is None or buf.shape != shape:
            n = math.prod(shape)
            flat = self._flat.get(name)
            if flat is None or flat.size < n:
                flat = self._flat[name] = np.empty(n)
            buf = self._views[name] = flat[:n].reshape(shape)
        return buf


def _take(scratch, name, shape):
    """A buffer of ``shape`` from ``scratch``, or a new one when None."""
    return np.empty(shape) if scratch is None else scratch.take(name, shape)


def conv2d(x, k, bias=None, stride: int = 1, pad: int = 0, relu: bool = False) -> Value:
    """2-d convolution (cross-correlation), zero padding, square stride,
    then an optional per-channel bias and ReLU.

    ``x`` is (B,I,H,W) with B >= 1, ``k`` is (O,I,kh,kw) and ``bias`` is
    (O,) or None, all real (a complex operand or an empty batch raises
    ``ShapeError``); ``stride`` is an integer of at least 1 and ``pad``
    one of at least 0. The output and every gradient equal
    (``array_equal``) those of ``relu(add(conv2d(x, k), per_channel(bias)))``,
    but come from one tape node whose bias and ReLU run in place on the
    GEMM's output. Backward masks the output gradient by ``out > 0`` (the
    kept output is positive exactly where the pre-activation was) and
    sums it over batch and space for the bias gradient.

    This NCHW op is the channel-major kernels :func:`_conv` and
    :func:`_conv_grads`, which state the GEMM forms, reached through
    :func:`_swap`: free at batch 1, one copy each way otherwise. The
    tape keeps the input, the kernel and the output, never a padded
    copy, a column matrix or a ReLU mask.
    """
    _check_real("conv2d", x, k, bias)
    dx, dk = _data(x), _data(k)
    if dx.ndim != 4 or dk.ndim != 4:
        raise ShapeError("conv2d expects rank-4 input and kernel")
    if dx.shape[0] == 0:
        raise ShapeError(f"conv2d needs a batch of at least one, got shape {dx.shape}")
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
    out = np.empty((b, n_out, h_out, w_out))
    # At batch 1 the kernel writes straight into ``out``.
    res = _conv(_swap(dx), dk, None if bias is None else _data(bias), stride, pad, relu,
                out=_swap(out) if b == 1 else None)
    if b > 1:
        np.copyto(out, res.swapaxes(0, 1))

    def back(g):
        gb, gx, gk = _conv2d_grads(
            g, dx, dk, stride, pad, out if relu else None,
            bias=isinstance(bias, Var), want_x=isinstance(x, Var),
            want_k=isinstance(k, Var),
        )
        _accum(bias, gb)
        _accum(k, gk)
        _accum(x, gx)

    return _record(_tape_of(x, k, bias), "conv2d", out, back, (x, k, bias))


def _conv2d_grads(
    g, x, k, stride, pad, relu_out=None, bias=False, want_x=True, want_k=True
):
    """The (bias, input, kernel) gradients of one NCHW :func:`conv2d` from
    its output gradient ``g``, each None unless wanted: :func:`_conv_grads`
    through :func:`_swap`. ``relu_out`` is the forward's output when it
    fused a ReLU; ``g`` may then be masked in place, so it must be a
    buffer that nothing else reads.
    """
    gb, gx, gk = _conv_grads(
        _swap(g), _swap(x), k, stride, pad, None if relu_out is None else _swap(relu_out),
        bias=bias, want_x=want_x, want_k=want_k,
    )
    return gb, None if gx is None else _swap(gx), gk


def _by_sample(a, m, b, out):
    """``a`` @ ``m`` into ``out``, where ``m`` holds the channel-major
    columns of ``b`` samples: one GEMM per sample's columns, on strided
    views (no copy). A forward value then has the same bits at any batch
    size. One GEMM over all the columns would not: BLAS computes the
    columns at the ragged edge of its tiles with other kernels, so at
    sample extents such as 5x7, or the LossNet's 2x2 outputs, a sample's
    values would move in the last bit with its batch.
    """
    n = m.shape[1] // b
    np.matmul(a, m.reshape(-1, b, n).swapaxes(0, 1), out=out.reshape(-1, b, n).swapaxes(0, 1))


def _direct(k, stride, pad):
    """Whether a convolution by ``k`` is 1x1, stride 1 and unpadded: a
    plain channel GEMM."""
    return k.shape[2] == k.shape[3] == 1 and stride == 1 and not pad


def _uses_cols(k, stride, pad):
    """Whether a convolution by ``k`` multiplies an im2col matrix
    (:func:`_im2col`): ``I <= O`` and not direct."""
    return k.shape[1] <= k.shape[0] and not _direct(k, stride, pad)


def _conv(x, k, bias=None, stride=1, pad=0, relu=False, out=None, cols=None, scratch=None):
    """The convolution kernel, channel-major: ``x`` (I, B, H, W) by ``k``
    (O, I, kh, kw), then the optional ``bias`` (O,) and ReLU, into ``out``
    (O, B, Ho, Wo), C-contiguous (a new array when None), which it returns.

    Each form is one GEMM against the (K, B*N) matrix of the whole
    batch, run one sample's N columns at a time (:func:`_by_sample`), so
    an output value has the same bits at any batch size. The shapes
    alone choose the form:

    * 1x1, stride 1, unpadded (:func:`_direct`):
      ``k`` as (O, I) @ ``x`` as (I, B*H*W).
    * ``I <= O``, im2col: ``k`` as (O, I*kh*kw) @ ``cols``, the
      (I*kh*kw, B*Ho*Wo) matrix of every kernel window of the padded
      input (:func:`_im2col`). A caller that built ``cols`` passes it.
    * ``I > O``, kn2row: ``k`` as (kh*kw*O, I) @ ``x`` as (I, B*H*W),
      then each tap's slice of that product is added into the output
      window it reaches, clipped at the border: taps on the zero padding
      add nothing, so no padded copy is made. In a "same" geometry
      (:attr:`_Taps.same`, the coupling's 3x3, pad 1) each tap is one
      contiguous add of a shifted slice on every sample's flattened H*W
      axis (:meth:`_Taps.flat`), after the product's columns that a tap
      never reads inside the image are zeroed: a read that wraps into
      another row adds +0.0, which leaves the sum's bits as the clipped
      adds give them (it starts at +0.0, so it is never -0.0).

    ``scratch`` (the :class:`_Scratch` of the walks of one call) hands
    out the column matrix and the kn2row product, which share its
    ``taps`` buffer; without it they are new arrays. GEMMs of
    fewer than ``linalg.THREADED_MIN_MACS`` multiply-adds run on one BLAS
    thread (:func:`linalg.blas_threads`).
    """
    n_out, n_in, kh, kw = k.shape
    _, b, h, w = x.shape
    taps = _Taps(kh, kw, stride, pad, h, w)
    if out is None:
        out = np.empty((n_out, b, taps.h_out, taps.w_out))
    out2d = out.reshape(n_out, -1)
    with blas_threads(out2d.size * n_in * kh * kw):
        if _direct(k, stride, pad):
            _by_sample(k.reshape(n_out, n_in), x.reshape(n_in, -1), b, out2d)
        elif n_in <= n_out:
            if cols is None:
                cols = _im2col(x, k, stride, pad, scratch, "taps")
            _by_sample(k.reshape(n_out, -1), cols, b, out2d)
        else:
            prod = _take(scratch, "taps", (kh * kw * n_out, b * h * w))
            _by_sample(k.transpose(2, 3, 0, 1).reshape(-1, n_in), x.reshape(n_in, -1), b, prod)
            out.fill(0.0)
            if taps.same:
                shifts, wraps = taps.flat()
                p6 = prod.reshape(kh, kw, n_out, b, h, w)
                for v, never_read, _ in wraps:
                    p6[:, v, :, :, :, never_read] = 0.0
                o3, p3 = out.reshape(n_out, b, -1), prod.reshape(kh, kw, n_out, b, -1)
                for u, v, d, lo, hi in shifts:
                    o3[:, :, lo:hi] += p3[u, v, :, :, lo + d : hi + d]
            else:
                prod = prod.reshape(kh, kw, n_out, b, h, w)
                for u, v, o_rows, o_cols, rows, cols_ in taps.clipped():
                    out[:, :, o_rows, o_cols] += prod[u, v, :, :, rows, cols_]
    if bias is not None:
        out += bias[:, None, None, None]
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _conv_grads(
    g, x, k, stride, pad, relu_out=None, bias=False, want_x=True, want_k=True,
    cols=None, scratch=None,
):
    """The (bias, input, kernel) gradients of one :func:`_conv` from its
    output gradient ``g`` (O, B, Ho, Wo), each None unless wanted.

    ``x`` and ``k`` are the forward's arrays and ``stride`` and ``pad``
    its geometry. ``relu_out`` is the forward's output when it fused a
    ReLU: ``g`` is then masked by ``relu_out > 0`` in place, so it must
    be a buffer that nothing else reads. ``bias`` asks for the bias
    gradient (:func:`_channel_sum`). With ``g`` as g2d (O, B*Ho*Wo) and
    ``x`` as x2d (I, B*H*W), each gradient is one 2-D GEMM:

    * direct: input ``k.T @ g2d``, kernel ``g2d @ x2d.T``.
    * im2col: input ``k.T @ g2d``, each tap of which is added into a
      zeroed gradient at the input it read; kernel ``g2d @ cols.T``,
      with the forward's column matrix ``cols`` when the caller kept it.
    * kn2row: each tap's slice of ``g`` goes to the input it read, under
      the flipped tap, in an (O*kh*kw, B*H*W) matrix; the flipped kernel
      as (I, O*kh*kw) @ that matrix is the input gradient, and the matrix
      @ ``x2d.T`` the kernel gradient.

    ``scratch`` hands out the temporaries, never a returned gradient; the
    per-tap product and the kn2row tap matrix, which no call keeps, share
    its ``taps`` buffer with the forward's kn2row product.
    """
    n_out, n_in, kh, kw = k.shape
    _, b, h, w = x.shape
    taps = _Taps(kh, kw, stride, pad, h, w)
    if relu_out is not None:
        np.multiply(g, relu_out > 0.0, out=g)
    gb = gx = gk = None
    if bias:
        gb = _channel_sum(g)
    g2d = g.reshape(n_out, -1)
    with blas_threads(g2d.size * n_in * kh * kw):
        if _direct(k, stride, pad):
            if want_x:
                gx = (k.reshape(n_out, n_in).T @ g2d).reshape(x.shape)
            if want_k:
                gk = (g2d @ x.reshape(n_in, -1).T).reshape(k.shape)
        elif n_in <= n_out:
            if want_x:
                per_tap = _take(scratch, "taps", (n_in * kh * kw, g2d.shape[1]))
                np.matmul(k.reshape(n_out, -1).T, g2d, out=per_tap)
                per_tap = per_tap.reshape(n_in, kh, kw, b, taps.h_out, taps.w_out)
                gx = np.zeros(x.shape)
                for u, v, o_rows, o_cols, rows, cols_ in taps.clipped():
                    gx[:, :, rows, cols_] += per_tap[:, u, v, :, o_rows, o_cols]
            if want_k:
                if cols is None:
                    cols = _im2col(x, k, stride, pad, scratch)
                gk = (g2d @ cols.T).reshape(k.shape)
        else:
            g_taps = _take(scratch, "taps", (n_out * kh * kw, b * h * w))
            g_taps.fill(0.0)
            per_tap = g_taps.reshape(n_out, kh, kw, b, h, w)
            for u, v, o_rows, o_cols, rows, cols_ in taps.clipped():
                per_tap[:, kh - 1 - u, kw - 1 - v, :, rows, cols_] = g[:, :, o_rows, o_cols]
            if want_x:
                flipped = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(n_in, -1)
                gx = (flipped @ g_taps).reshape(x.shape)
            if want_k:
                gk = g_taps @ x.reshape(n_in, -1).T
                gk = gk.reshape(n_out, kh, kw, n_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    return gb, gx, gk


def _im2col(x, k, stride, pad, scratch=None, name="cols"):
    """The (I*kh*kw, B*Ho*Wo) column matrix of a convolution by ``k`` of
    the channel-major ``x`` (I, B, H, W): row (i, u, v) holds tap (u, v)
    of channel i at every output position of every sample, read from
    the zero-padded input. It is ``scratch``'s buffer ``name`` when
    ``scratch`` is given.

    A "same" geometry (:attr:`_Taps.same`) makes no padded copy: each tap
    is one contiguous copy of a shifted slice of every sample's flattened
    H*W axis (:meth:`_Taps.flat`), after the rows that read above or
    below the input are zeroed, and the output columns at which a tap
    reads left or right of it are zeroed after the copies. Any other
    geometry copies the window view of the padded input."""
    n_in, b, h, w = x.shape
    kh, kw = k.shape[2:]
    taps = _Taps(kh, kw, stride, pad, h, w)
    cols = _take(scratch, name, (n_in * kh * kw, b * taps.h_out * taps.w_out))
    if not taps.same:
        np.copyto(cols.reshape(n_in, kh, kw, b, taps.h_out, taps.w_out),
                  taps.windows(_padded(x, pad)).transpose(0, 4, 5, 1, 2, 3))
        return cols
    n = h * w
    c5, x3 = cols.reshape(n_in, kh, kw, b, n), x.reshape(n_in, b, n)
    for u in range(kh):  # rows above or below the input read nothing
        reach = (u - pad) * w
        if reach < 0:
            c5[:, u, :, :, : pad - reach] = 0.0
        elif reach > 0:
            c5[:, u, :, :, max(0, n - reach - pad) :] = 0.0
    shifts, wraps = taps.flat()
    for u, v, d, lo, hi in shifts:
        c5[:, u, v, :, lo:hi] = x3[:, :, lo + d : hi + d]
    c6 = cols.reshape(n_in, kh, kw, b, h, w)
    for v, _, reads_nothing in wraps:
        c6[:, :, v, :, :, reads_nothing] = 0.0
    return cols


def _int_at_least(name, value, least):
    """``value`` as an int, or ShapeError unless it is an integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ShapeError(f"conv2d {name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _padded(x, pad):
    """``x`` with ``pad`` zeros around its two spatial (last) axes (``x``
    itself at 0)."""
    if not pad:
        return x
    c, b, h, w = x.shape
    xp = np.zeros((c, b, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:-pad, pad:-pad] = x
    return xp


class _Taps:
    """Kernel-tap geometry of one convolution: (kh, kw) taps at ``stride``
    over an (h, w) input with ``pad`` zeros on every side."""

    __slots__ = ("kh", "kw", "stride", "pad", "h", "w", "h_out", "w_out", "same")

    def __init__(self, kh, kw, stride, pad, h, w):
        self.kh, self.kw, self.stride, self.pad = kh, kw, stride, pad
        self.h, self.w = h, w
        self.h_out = (h + 2 * pad - kh) // stride + 1
        self.w_out = (w + 2 * pad - kw) // stride + 1
        # Stride 1 and (k - 1) / 2 zeros around a square k x k kernel: the
        # output has the input's extent, and :meth:`flat` applies.
        self.same = stride == 1 and kh == kw == 2 * pad + 1

    def clipped(self):
        """(u, v, out_rows, out_cols, rows, cols) for every tap that reaches
        the unpadded input: output window ``[out_rows, out_cols]`` reads the
        input at ``[rows, cols]`` through tap (u, v)."""
        return _clipped_taps(self.kh, self.kw, self.stride, self.pad, self.h, self.w)

    def flat(self):
        """The taps of a :attr:`same` geometry on each sample's flattened
        h*w axis, where tap (u, v) reads output position ``i`` at input
        position ``i + d``, ``d = (u - pad) * w + (v - pad)``.

        Returns ``shifts``, (u, v, d, lo, hi) for every tap whose range
        ``lo <= i < hi`` of in-bounds reads is not empty, and ``wraps``,
        (v, never_read, reads_nothing) for every tap column ``v`` but the
        centre one: the input columns that no tap of that column reads
        inside the image, and the output columns at which it reads
        outside, where a flat read wraps into the next or previous row
        (column slices). A flat read in a row above or below the image
        falls outside ``lo:hi``.
        """
        return _flat_taps(self.kh, self.pad, self.h, self.w)

    def windows(self, xp):
        """Read-only (A, B, Ho, Wo, kh, kw) view of every window of the
        padded input ``xp`` (A, B, Hp, Wp), in either layout."""
        sb, si, sh, sw = xp.strides
        s = self.stride
        shape = xp.shape[:2] + (self.h_out, self.w_out, self.kh, self.kw)
        strides = (sb, si, s * sh, s * sw, sh, sw)
        if not xp.flags.c_contiguous:
            return as_strided(xp, shape, strides, writeable=False)
        # A view straight on the buffer: a fraction of as_strided's cost.
        view = np.ndarray(shape, np.float64, xp, 0, strides)
        view.flags.writeable = False
        return view


@functools.lru_cache(maxsize=256)
def _clipped_taps(kh, kw, s, p, h, w):
    """:meth:`_Taps.clipped` of one geometry, computed once per geometry.

    The result is a tuple of tuples, so no caller can change the cached
    value.
    """
    rows = _clip_axis(kh, h, (h + 2 * p - kh) // s + 1, s, p)
    cols = _clip_axis(kw, w, (w + 2 * p - kw) // s + 1, s, p)
    return tuple((u, v, o_rows, o_cols, i_rows, i_cols)
                 for u, o_rows, i_rows in rows for v, o_cols, i_cols in cols)


@functools.lru_cache(maxsize=256)
def _flat_taps(k, p, h, w):
    """:meth:`_Taps.flat` of one geometry, computed once per geometry."""
    n = h * w
    shifts, wraps = [], []
    for u in range(k):
        for v in range(k):
            d = (u - p) * w + (v - p)
            lo, hi = max(0, -d), min(n, n - d)
            if lo < hi:
                shifts.append((u, v, d, lo, hi))
    for v in range(k):
        dv = v - p
        if dv < 0:
            wraps.append((v, slice(max(0, w + dv), w), slice(0, min(w, -dv))))
        elif dv > 0:
            wraps.append((v, slice(0, min(w, dv)), slice(max(0, w - dv), w)))
    return tuple(shifts), tuple(wraps)


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


def _mix(m, x):
    """Apply matrix ``m`` (O,I) to the channels of the channel-major ``x``
    (I,B,H,W): ``m`` @ ``x`` as (I, B*H*W), by sample (:func:`_by_sample`)."""
    _, b, h, w = x.shape
    out = np.empty((m.shape[0], b, h, w))
    with blas_threads(m.size * b * h * w):
        _by_sample(m, x.reshape(x.shape[0], -1), b, out.reshape(m.shape[0], -1))
    return out


def _mix_grads(g, x, w, w_inv=None, want_w=True):
    """The (input, matrix) gradients of :func:`_mix` of the channel-major
    ``x`` by ``w``, or by ``w_inv`` = W^{-1} when it is given, from the
    output gradient ``g``; the matrix gradient is None unless wanted.

    The input gradient is ``m.T @ g2d``; the matrix gradient is
    ``g2d @ x2d.T``, the sum over b,h,w of g x^T, taken through
    d(W^{-1}) = -W^{-1} dW W^{-1} for the inverse.
    """
    m = w if w_inv is None else w_inv
    g2d = g.reshape(g.shape[0], -1)
    gw = None
    with blas_threads(g.size * x.shape[0]):
        gx = (m.T @ g2d).reshape(x.shape)
        if want_w:
            gw = g2d @ x.reshape(x.shape[0], -1).T
    if gw is not None and w_inv is not None:
        gw = -(w_inv.T @ gw @ w_inv.T)
    return gx, gw


def _check_mix(op, x, m):
    if x.ndim != 4 or x.shape[1] != m.shape[1]:
        raise ShapeError(f"{op}: {m.shape} cannot act on {x.shape}")


def channel_mix(x, w) -> Value:
    """Per-position channel mixing y = W x (a 1x1 convolution by matrix W)
    of an NCHW ``x``: :func:`_mix` through :func:`_swap`."""
    dx, dw = _data(x), _data(w)
    _check_mix("channel_mix", dx, dw)
    out = _swap(_mix(dw, _swap(dx)))

    def back(g):
        gx, gw = _mix_grads(_swap(g), _swap(dx), dw, want_w=isinstance(w, Var))
        _accum(x, _swap(gx))
        _accum(w, gw)

    return _record(_tape_of(x, w), "channel_mix", out, back, (x, w))


def channel_mix_inv(x, w, w_inv: np.ndarray) -> Value:
    """Per-position mixing by the inverse matrix, y = W^{-1} x.

    ``w_inv`` is the precomputed inverse (callers own the inversion so its
    failure mode stays theirs).
    """
    dx = _data(x)
    m = np.asarray(w_inv, dtype=np.float64)
    _check_mix("channel_mix_inv", dx, m)
    out = _swap(_mix(m, _swap(dx)))

    def back(g):
        gx, gw = _mix_grads(_swap(g), _swap(dx), _data(w), m, want_w=isinstance(w, Var))
        _accum(x, _swap(gx))
        _accum(w, gw)

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
        _accum(x, _swap(_unsqueeze_data(_swap(g))))

    out = _swap(_squeeze_data(_swap(dx)))
    return _record(_tape_of(x), "squeeze2", out, back, (x,))


def _squeeze_data(x):
    """:func:`squeeze2` of the channel-major ``x`` (C,B,H,W): (4C,B,H/2,W/2)."""
    c, b, h, w = x.shape
    return (
        x.reshape(c, b, h // 2, 2, w // 2, 2)
        .transpose(0, 3, 5, 1, 2, 4)
        .reshape(4 * c, b, h // 2, w // 2)
    )


def _unsqueeze_data(z):
    """:func:`unsqueeze2` of the channel-major ``z`` (4C,B,h,w): (C,B,2h,2w)."""
    c4, b, h2, w2 = z.shape
    c = c4 // 4
    return (
        z.reshape(c, 2, 2, b, h2, w2)
        .transpose(0, 3, 4, 1, 5, 2)
        .reshape(c, b, 2 * h2, 2 * w2)
    )


def unsqueeze2(x) -> Value:
    """Exact inverse of :func:`squeeze2`."""
    dx = _data(x)
    if dx.shape[1] % 4:
        raise ShapeError(f"unsqueeze needs channels divisible by 4, got {dx.shape[1]}")

    def back(g):
        _accum(x, _swap(_squeeze_data(_swap(g))))

    out = _swap(_unsqueeze_data(_swap(dx)))
    return _record(_tape_of(x), "unsqueeze2", out, back, (x,))


def split_half(x) -> tuple[Value, Value]:
    """Split channels into two equal halves: two arrays for an array,
    two Vars for a Var."""
    c = _data(x).shape[1]
    if c % 2:
        raise ShapeError(f"split_half needs an even channel count, got {c}")
    return _split(x, 1, c // 2, "split_half")


def split_batch(x, n: int) -> tuple[Value, Value]:
    """Split a batch into its first ``n`` samples and the rest: two arrays
    for an array, two Vars for a Var."""
    b, n = _data(x).shape[0], as_index("split_batch n", n, 1)
    if n >= b:
        raise ShapeError(f"split_batch n must be below the batch size {b}, got {n}")
    return _split(x, 0, n, "split_batch")


def _split(x, axis, at, op):
    """``x`` cut before index ``at`` of ``axis`` into two C-contiguous
    parts, recorded as one node named ``op`` when ``x`` is a Var."""
    dx = _data(x)
    head = (slice(None),) * axis + (slice(None, at),)
    tail = (slice(None),) * axis + (slice(at, None),)
    a, b = np.ascontiguousarray(dx[head]), np.ascontiguousarray(dx[tail])
    if not isinstance(x, Var):
        return a, b
    a, b = _op_output(a, x.tape), _op_output(b, x.tape)

    def back():
        if x.grad is None:
            x.grad = np.zeros_like(dx)
        if a.grad is not None:
            x.grad[head] += a.grad
        if b.grad is not None:
            x.grad[tail] += b.grad

    x.tape.nodes.append(_Node(op, back, (x,), (a, b)))
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


def backward(loss: Var) -> None:
    """Propagate d(loss)/d(everything) back through the loss's tape.

    The loss must be a scalar Var (``ShapeError`` otherwise); its
    gradient is set to 1. A node whose outputs received no gradient (a
    branch the loss does not use) is skipped. Each node's freshly
    written input gradients are validated and a NumericError naming the
    op is raised on the first NaN/Inf.

    Each node is spent as soon as it has run and passed that check (and
    every node left is spent when the sweep raises): it keeps its op
    name but drops its closure, inputs and outputs, so what only it kept
    alive is freed during the sweep, and a second ``backward`` over the
    tape does nothing.
    """
    if not isinstance(loss, Var):
        raise ShapeError(f"backward requires a Var, got {type(loss).__name__}")
    if loss.data.shape != ():
        raise ShapeError(f"backward requires a scalar, got shape {loss.data.shape}")
    loss.grad = np.ones_like(loss.data)
    try:
        for node in reversed(loss.tape.nodes):
            for out in node.outs:
                if out.grad is not None:
                    node.back()
                    for var in node.inputs:
                        if var.grad is not None and not np.isfinite(var.grad).all():
                            raise NumericError(
                                f"non-finite gradient produced by op '{node.op}'"
                            )
                    break
            node.back, node.inputs, node.outs = _spent, (), ()
    except BaseException:
        for node in loss.tape.nodes:
            node.back, node.inputs, node.outs = _spent, (), ()
        raise


def grad_check(params, build_loss, step: float = 1e-5, tol: float = 1e-4):
    """Compare analytic gradients against central finite differences.

    ``params`` maps names to float64 arrays; ``build_loss`` maps a
    same-keyed dict to a scalar. It gets taped Vars once, for the
    analytic gradients, and then arrays for each perturbed evaluation.
    Per parameter the reported error is ``max|analytic - numeric|``
    normalized by the largest gradient magnitude seen across *all*
    parameters, so parameters whose true gradient is exactly zero are
    judged against the overall gradient scale rather than against
    finite-difference noise.

    Returns a :class:`GradCheckReport`; ``report.passed`` is True when
    every parameter's relative error is below ``tol``.
    """
    tape = Tape()
    pvars = {name: Var(arr, tape) for name, arr in params.items()}
    loss = build_loss(pvars)
    backward(loss)
    analytic = {name: pvars[name].grad.copy() for name in params}

    def eval_loss(arrays) -> float:
        return float(_data(build_loss(dict(arrays))))

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
