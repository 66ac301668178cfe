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

Ops accept plain real ndarrays or python scalars (a complex one is a
ShapeError) anywhere a Var is allowed; those operands are constants and
receive no gradient. Every Var lives on a tape, and every op decides the
kind of its result in one place, ``_record``: arrays in give an ndarray
out, and any Var operand gives a Var on that tape out, with a node
recorded. So inference runs the exact code paths of training on plain
arrays, without building a Var or recording anything.

Only one tape may appear among the operands of a single op; tapes are
meant to live for one training step and be discarded.
"""

from __future__ import annotations

import collections
import functools
import math
import types

import numpy as np

from .errors import NumericError, ShapeError, StateError, as_feature, as_index, as_reals
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
        self.data = as_reals("Var data", data)
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
    return x.data if isinstance(x, Var) else as_reals("autodiff operand", x)


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
# values do not depend on its batch. A :class:`_Kernel` holds a conv's
# GEMM form and :func:`_taps` caches its tap geometry; the channel mixes
# run on the 1x1 form. The public ops take and give NCHW arrays and reach
# the kernels through :func:`_swap`, a view at batch 1.


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


class _Scratch:
    """Named buffers that the kernels of the flow walks of one call reuse.

    :meth:`take` hands out the buffer kept under a name: the same array
    again for the same shape, and a leading view of its memory for a
    smaller one, which grows only when a larger shape is asked for. So
    the couplings of every block write their hidden maps, their
    convolutions' temporaries and, backward, the hidden maps' gradients
    into the same memory each time. A name is a region of memory, not
    one value: its caller may hand it, in turn, to values that are never
    live together, as a coupling's forward puts a conv's temporaries in
    a hidden map's buffer while that map is dead (:func:`flows._shift`).
    One call (a training step, a stylization) makes one and hands it to
    each of its walks, which run one after another; no result of a walk
    is one of its buffers, so it dies with the call and with its tape
    nodes; nothing is kept on the module or the model.
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

    ``x`` is (B,I,H,W) and ``k`` (O,I,kh,kw), neither empty, and ``bias``
    is (O,) or None, all real (:func:`~flowstyle.errors.as_feature`,
    without its finiteness test: a complex operand or an empty batch
    raises ``ShapeError``); ``stride`` is an integer of at least 1 and
    ``pad`` one of at least 0. The output and every gradient equal
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
    x = as_feature("conv2d input", x, finite=False)
    k = as_feature("conv2d kernel", k, finite=False)
    dx, dk = _data(x), _data(k)
    if dx.shape[1] != dk.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input {dx.shape[1]}, kernel {dk.shape[1]}"
        )
    if bias is not None:
        bias = as_feature("conv2d bias", bias, shape=dk.shape[:1], finite=False)
    kernel = _Kernel(dk, as_index("conv2d stride", stride, 1), as_index("conv2d pad", pad, 0))
    taps = kernel.at(dx.shape[0], *dx.shape[2:])[0]
    if taps.h_out <= 0 or taps.w_out <= 0:
        raise ShapeError("conv2d kernel larger than padded input")
    return _conv2d(x, k, kernel, bias, relu)


def _conv2d(x, k, kernel, bias, relu) -> Value:
    """The body of :func:`conv2d` once its checks have passed: ``kernel``
    is ``k``'s data prepared (:class:`_Kernel`) at the call's stride and
    pad, and ``x``, ``k`` and ``bias`` are checked values of matching
    shapes, each an array or a Var (``bias`` may be None)."""
    dx = _data(x)
    out = _swap(_conv(_swap(dx), kernel, None if bias is None else _data(bias), relu=relu))

    def back(g):
        gb, gx, gk = _conv_grads(
            _swap(g), _swap(dx), kernel, _swap(out) if relu else None,
            bias=isinstance(bias, Var), want_x=isinstance(x, Var),
            want_k=isinstance(k, Var),
        )
        _accum(bias, gb)
        _accum(k, gk)
        if gx is not None:
            _accum(x, _swap(gx))

    return _record(_tape_of(x, k, bias), "conv2d", out, back, (x, k, bias))


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


class _Kernel:
    """A convolution kernel ``k`` (O, I, kh, kw) at ``stride`` and ``pad``,
    prepared once, the one form in which the conv kernels take it: its
    GEMM ``form``, "direct" for 1x1, stride 1, unpadded, "kn2row" for
    another "same" geometry with I > O, whose kh*kw*O-row product is
    smaller than the I*kh*kw-row column matrix, and "cols" (im2col) for
    any other; its (O, I*kh*kw) view ``gemm``; and, per input extent, its
    tap geometry and GEMM size (:meth:`at`). A flow walk's layer plan
    holds one per conv, so every walk of a call reuses it. Its ``shape``
    is ``k``'s. It keeps no copy of ``k``, which would make a training
    step's memory grow with depth: kn2row and the gradients lay ``k``
    out per call.
    """

    __slots__ = ("k", "shape", "stride", "pad", "form", "gemm", "_extents")

    def __init__(self, k, stride, pad):
        n_out, n_in, kh, kw = self.shape = k.shape
        self.k, self.stride, self.pad = k, stride, pad
        same = _same(kh, kw, stride, pad)
        self.form = "direct" if same and not pad else "kn2row" if same and n_in > n_out else "cols"
        self.gemm, self._extents = k.reshape(n_out, -1), {}

    def at(self, b, h, w):
        """(tap geometry, multiply-adds of each GEMM) of a call on a (I, b,
        h, w) input; the count decides the GEMMs' BLAS threads
        (:class:`linalg.blas_threads`), and a flow walk's or a LossNet
        pass's largest count decides theirs."""
        got = self._extents.get((b, h, w))
        if got is None:
            n_out, n_in, kh, kw = self.shape
            taps = _taps(kh, kw, self.stride, self.pad, h, w)
            macs = n_out * b * taps.h_out * taps.w_out * n_in * kh * kw
            got = self._extents[(b, h, w)] = (taps, macs)
        return got

    def temp(self, b, h, w):
        """Elements of the temporary that :func:`_conv` takes from scratch
        on a (I, b, h, w) input: the column matrix, the kn2row product, or
        none (direct). A flow walk's plan sizes its buffers from it."""
        if self.form == "direct":
            return 0
        n_out, n_in, kh, kw = self.shape
        taps = self.at(b, h, w)[0]
        return (n_in if self.form == "cols" else n_out) * kh * kw * b * taps.h_out * taps.w_out


def _conv(x, k, bias=None, relu=False, out=None, cols=None, scratch=None, name="taps"):
    """The convolution kernel, channel-major: ``x`` (I, B, H, W) by the
    :class:`_Kernel` ``k`` (O, I, kh, kw), then the optional ``bias`` (O,)
    and ReLU, into ``out`` (O, B, Ho, Wo), C-contiguous (a new array when
    None), which it returns.

    Each form is one GEMM against the (K, B*N) matrix of the whole
    batch, run one sample's N columns at a time (:func:`_by_sample`), so
    an output value has the same bits at any batch size. ``k``'s form
    follows from the shapes alone:

    * direct (1x1, stride 1, unpadded):
      ``k`` as (O, I) @ ``x`` as (I, B*H*W). This is also the channel
      mix, by a matrix ``m`` passed as ``m[:, :, None, None]``: the
      invconv of a flow walk, and :func:`channel_mix`.
    * im2col: ``k`` as (O, I*kh*kw) @ ``cols``, the (I*kh*kw, B*Ho*Wo)
      matrix of every kernel window of the padded input
      (:func:`_im2col`). A caller that built ``cols`` passes it.
    * kn2row (the coupling's 3x3, pad 1, with ``I > O``): ``k`` as
      (kh*kw*O, I) @ ``x`` as (I, B*H*W), the tap-major product, whose
      taps :func:`_tap_sum` adds into ``out``, each as one shifted slice
      of the whole flat (O*B*H*W) range, read at ``i + d``.

    ``scratch`` (the :class:`_Scratch` of the walks of one call) hands
    out the column matrix or the kn2row product as its buffer ``name``:
    ``taps``, or one whose value is dead while this conv runs (a
    coupling's hidden map, :func:`flows._shift`); without it they are
    new arrays. GEMMs of fewer than ``linalg.THREADED_MIN_MACS``
    multiply-adds run on one BLAS thread (:func:`linalg.blas_threads`).
    """
    n_out, n_in, kh, kw = k.shape
    _, b, h, w = x.shape
    taps, macs = k.at(b, h, w)
    if out is None:
        out = np.empty((n_out, b, taps.h_out, taps.w_out))
    with blas_threads(macs):
        if k.form == "direct":
            _by_sample(k.gemm, x.reshape(n_in, -1), b, out.reshape(n_out, -1))
        elif k.form == "cols":
            if cols is None:
                cols = _im2col(x, k, scratch, name)
            _by_sample(k.gemm, cols, b, out.reshape(n_out, -1))
        else:
            prod = _take(scratch, name, (kh, kw, n_out, b * h * w))
            _by_sample(k.k.transpose(2, 3, 0, 1).reshape(-1, n_in), x.reshape(n_in, -1), b, prod)
            _tap_sum(prod, taps, out, 1)
    if bias is not None:
        out += bias[:, None, None, None]
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _conv_grads(
    g, x, k, relu_out=None, bias=False, want_x=True, want_k=True, cols=None, scratch=None,
    out=None,
):
    """The (bias, input, kernel) gradients of one :func:`_conv` from its
    output gradient ``g`` (O, B, Ho, Wo), each None unless wanted.

    ``x`` and ``k`` are the forward's input array and :class:`_Kernel`.
    ``relu_out`` is the forward's output when it fused a
    ReLU: ``g`` is then masked by ``relu_out > 0`` in place, so it must
    be a buffer that nothing else reads. ``bias`` asks for the bias
    gradient (:func:`_channel_sum`). With ``g`` as g2d (O, B*Ho*Wo) and
    ``x`` as x2d (I, B*H*W), each gradient of ``k``'s form is one 2-D
    GEMM:

    * direct: input ``k.T @ g2d``, kernel ``g2d @ x2d.T``.
    * im2col: input ``k.T @ g2d`` in tap-major rows (u, v, i), a
      transposed view as ``k.T`` is, whose taps :func:`_tap_sum` adds (a
      "same" geometry) or each tap's clipped window into zeros; kernel
      ``g2d @ cols.T``, with the forward's ``cols`` if the caller kept it.
    * kn2row: the (O*kh*kw, B*H*W) tap matrix is ``g``'s column matrix
      (:func:`_im2col`), whose row (o, u, v) holds ``g`` at the output
      that read each input through the flipped tap; the flipped kernel as
      (I, O*kh*kw) @ it is the input gradient, it @ ``x2d.T`` the kernel's.

    ``scratch`` hands out the temporaries: the per-tap product and the
    kn2row tap matrix, which no call keeps, share its ``taps`` buffer with
    the forward's kn2row product. The input gradient is written into
    ``out`` (C-contiguous, ``x``'s shape; a new array when None) with the
    bits of a new array: a coupling's backward lends scratch buffers
    (:func:`flows._coupling_back`). ``out`` may be ``relu_out`` itself,
    as the mask reads it first, but no other operand.
    """
    n_out, n_in, kh, kw = k.shape
    if relu_out is not None:
        np.multiply(g, relu_out > 0.0, out=g)
    gb = gx = gk = None
    if bias:
        gb = _channel_sum(g)
    g2d = g.reshape(n_out, -1)
    taps, macs = k.at(*x.shape[1:])
    if want_x:
        gx = np.empty(x.shape) if out is None else out
    with blas_threads(macs):
        if k.form == "direct":
            if want_x:
                np.matmul(k.gemm.T, g2d, out=gx.reshape(n_in, -1))
            if want_k:
                gk = (g2d @ x.reshape(n_in, -1).T).reshape(k.shape)
        elif k.form == "cols":
            if want_x:
                per_tap = _take(scratch, "taps", (kh, kw, n_in, g2d.shape[1]))
                k_t = np.ascontiguousarray(k.k.transpose(0, 2, 3, 1)).reshape(n_out, -1).T
                np.matmul(k_t, g2d, out=per_tap.reshape(-1, g2d.shape[1]))
                if taps.flat is not None:
                    _tap_sum(per_tap, taps, gx, -1)
                else:
                    per_tap = per_tap.reshape(kh, kw, n_in, x.shape[1], taps.h_out, taps.w_out)
                    gx.fill(0.0)
                    for u, v, o_rows, o_cols, rows, cols_ in taps.clipped:
                        gx[:, :, rows, cols_] += per_tap[u, v, :, :, o_rows, o_cols]
            if want_k:
                if cols is None:
                    cols = _im2col(x, k, scratch)
                gk = (g2d @ cols.T).reshape(k.shape)
        else:
            g_taps = _im2col(g, k, scratch, "taps")
            if want_x:
                flipped = k.k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(n_in, -1)
                np.matmul(flipped, g_taps, out=gx.reshape(n_in, -1))
            if want_k:
                gk = g_taps @ x.reshape(n_in, -1).T
                gk = gk.reshape(n_out, kh, kw, n_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    return gb, gx, gk


def _im2col(x, k, scratch=None, name="cols"):
    """The (I*kh*kw, B*Ho*Wo) column matrix of a convolution by the
    :class:`_Kernel` ``k`` of the channel-major ``x`` (I, B, H, W), at
    ``k``'s stride and pad: row (i, u, v) holds tap (u, v)
    of channel i at every output position of every sample, read from
    the zero-padded input, of which no copy is made. It is ``scratch``'s
    buffer ``name`` when ``scratch`` is given.

    A "same" geometry (:func:`_same`) copies each tap as one shifted
    slice of every sample's flat H*W axis (``flat`` of :func:`_taps`),
    then zeroes the rows and columns at which a tap reads outside the
    image (:func:`_zero_edges`); :func:`_tap_sum` with ``sign`` -1 is its
    adjoint. Any other geometry zeroes the matrix and copies in each
    tap's clipped window (``clipped``)."""
    n_in, b, h, w = x.shape
    kh, kw = k.shape[2:]
    taps = _taps(kh, kw, k.stride, k.pad, h, w)
    cols = _take(scratch, name, (n_in * kh * kw, b * taps.h_out * taps.w_out))
    if taps.flat is None:
        cols.fill(0.0)
        c6 = cols.reshape(n_in, kh, kw, b, taps.h_out, taps.w_out)
        for u, v, o_rows, o_cols, rows, cols_ in taps.clipped:
            c6[:, u, v, :, o_rows, o_cols] = x[:, :, rows, cols_]
        return cols
    n = h * w
    c5, x3 = cols.reshape(n_in, kh, kw, b, n), x.reshape(n_in, b, n)
    for u, v, d, lo, hi in taps.flat:
        c5[:, u, v, :, lo:hi] = x3[:, :, lo + d : hi + d]
    _zero_edges(cols.reshape(n_in, kh, kw, b, h, w).transpose(1, 2, 0, 3, 4, 5), taps.edges[-1])
    return cols


def _tap_sum(prod, taps, out, sign):
    """Into ``out`` (C, B, H, W), returned, the taps of the tap-major
    ``prod`` (kh, kw, C, B*H*W) of a "same" geometry (``taps`` of
    :func:`_taps`), read at ``i + sign * d``: kn2row's epilogue (``sign``
    1) and the adjoint of :func:`_im2col`'s "same" branch (-1). Each tap
    adds as one slice of the flat range, after :func:`_zero_edges` zeroes
    the entries of ``prod`` that a read crossing a row, sample or channel
    reaches: they add +0.0, which keeps the bits of clipped window adds,
    as the sum starts at +0.0."""
    _zero_edges(prod.reshape(prod.shape[:2] + (-1,) + out.shape[2:]), taps.edges[sign])
    o, p3, m = out.reshape(-1), prod.reshape(prod.shape[0], prod.shape[1], -1), out.size
    o.fill(0.0)
    for u, v, d, _, _ in taps.flat:
        e = sign * d
        if e < 0:
            o[-e:] += p3[u, v, : m + e]
        else:
            o[: m - e] += p3[u, v, e:]
    return out


def _zero_edges(t, edges):
    """Zero, in ``t``, a tap-major view (kh, kw, ..., H, W) of the taps of
    a "same" geometry, at the indices ``edges`` (``edges[sign]`` of
    :func:`_taps`): each tap's rows and columns that no read inside the
    image reaches (``sign`` 1), or those at which it reads outside the
    image (-1), where a flat read crosses a row, sample or channel."""
    for index in edges:
        t[index] = 0.0


def _edges(kh, kw, h, w, sign):
    """The indices of :func:`_zero_edges`: one row slice per ``u`` and one
    column slice per ``v``, each for any rank of view."""
    rows, cols = [], []
    for u in range(kh):  # the centre tap's slice, (h, h), is empty
        a = sign * (u - kh // 2)
        rows.append((u, ..., slice(0, a) if a > 0 else slice(max(0, h + a), h), slice(None)))
    for v in range(kw):
        a = sign * (v - kw // 2)
        cols.append((slice(None), v, ..., slice(0, a) if a > 0 else slice(max(0, w + a), w)))
    return tuple(rows + cols)


def _same(kh, kw, stride, pad):
    """Whether the output keeps the input's extent: stride 1, k x k, pad (k - 1) / 2."""
    return stride == 1 and kh == kw == 2 * pad + 1


_TapGeometry = collections.namedtuple("_TapGeometry", "h_out w_out clipped flat edges")


@functools.lru_cache(maxsize=256)
def _taps(kh, kw, stride, pad, h, w):
    """The output extent ``h_out``, ``w_out`` and the taps ``clipped`` and
    ``flat`` of (kh, kw) taps at ``stride`` over an (h, w) input with
    ``pad`` zeros on every side, computed once, in tuples that no caller
    can change.

    ``clipped`` is (u, v, out_rows, out_cols, rows, cols) for every tap
    that reaches the unpadded input: output window ``[out_rows,
    out_cols]`` reads the input at ``[rows, cols]`` through tap (u, v).

    ``flat`` and ``edges`` are None but in a "same" geometry
    (:func:`_same`), where tap (u, v) reads position ``i`` of each
    sample's flattened h*w axis at ``i + d``, ``d = (u - pad) * w + (v -
    pad)``: ``flat`` is (u, v, d, lo, hi) for every tap whose range ``lo
    <= i < hi`` of reads that stay in the sample is not empty, and
    ``edges`` maps ``sign`` 1 and -1 to the indices that
    :func:`_zero_edges` zeroes (:func:`_edges`).
    """
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    clipped = tuple(
        (u, v, o_rows, o_cols, i_rows, i_cols)
        for u, o_rows, i_rows in _clip_axis(kh, h, h_out, stride, pad)
        for v, o_cols, i_cols in _clip_axis(kw, w, w_out, stride, pad)
    )
    if not _same(kh, kw, stride, pad):
        return _TapGeometry(h_out, w_out, clipped, None, None)
    n, flat = h * w, []
    for u in range(kh):
        for v in range(kw):
            d = (u - pad) * w + (v - pad)
            lo, hi = max(0, -d), min(n, n - d)
            if lo < hi:
                flat.append((u, v, d, lo, hi))
    edges = types.MappingProxyType({sign: _edges(kh, kw, h, w, sign) for sign in (1, -1)})
    return _TapGeometry(h_out, w_out, clipped, tuple(flat), edges)


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


def channel_mix(x, w) -> Value:
    """Per-position channel mixing y = W x (a 1x1 convolution by matrix W)
    of an NCHW ``x``: :func:`_conv` and :func:`_conv_grads` by
    ``W[:, :, None, None]`` through :func:`_swap`."""
    return _mix_op("channel_mix", x, w, _data(w), lambda gm: gm)


def channel_mix_inv(x, w, w_inv: np.ndarray) -> Value:
    """Per-position mixing by the inverse matrix, y = W^{-1} x.

    ``w_inv`` is the precomputed inverse (callers own the inversion so its
    failure mode stays theirs). W's gradient is ``-(W^{-T} G W^{-T})``,
    G the gradient of :func:`channel_mix` by ``w_inv``.
    """
    m = _data(w_inv)
    return _mix_op("channel_mix_inv", x, w, m, lambda gm: -(m.T @ gm @ m.T))


def _mix_op(op, x, w, m, w_grad):
    """The taped op ``op`` that mixes ``x``'s channels by the matrix ``m``;
    ``w``, which must have ``m``'s shape, receives ``w_grad`` of the
    gradient of ``m``."""
    dx, dw = _data(x), _data(w)
    if dx.ndim != 4 or m.ndim != 2 or dx.shape[1] != m.shape[1]:
        raise ShapeError(f"{op}: {m.shape} cannot act on {dx.shape}")
    if dw.shape != m.shape:
        raise ShapeError(f"{op}: W {dw.shape} and its inverse {m.shape} differ in shape")
    k = _Kernel(m[:, :, None, None], 1, 0)
    out = _swap(_conv(_swap(dx), k))

    def back(g):
        _, gx, gk = _conv_grads(_swap(g), _swap(dx), k, want_k=isinstance(w, Var))
        _accum(x, _swap(gx))
        if gk is not None:
            _accum(w, w_grad(gk[:, :, 0, 0]))

    return _record(_tape_of(x, w), op, out, back, (x, w))


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
