"""The convolution kernel's tap sums as clipped tap loops and as strided
row loops.

Each tap of a kernel reads the input through one 4-d window, clipped at
the border (``clipped`` of ``autodiff._taps``): the way
``autodiff._im2col`` runs every geometry but a "same" one, which takes
flat shifted slices, as kn2row's backward tap matrix (``_im2col`` of the
output gradient) does. In a "same" geometry kn2row's forward sum and the
im2col input gradient add each tap as one contiguous slice of the whole
flat (C*B*H*W) range (``autodiff._tap_sum``); the row loops below add it
one sample's flat H*W row at a time instead, and the clipped loops one
window at a time. The flat forms, and the strided column matrix, are
tested against these for equal bytes, the sign of every zero included.
"""

import numpy as np

import flowstyle.autodiff as ad


def im2col_reference(x, k, stride, pad):
    """The (I*kh*kw, B*Ho*Wo) column matrix of the channel-major ``x``:
    zeros, then each tap's clipped window of ``x`` copied in."""
    n_in, b, h, w = x.shape
    kh, kw = k.shape[2:]
    taps = ad._taps(kh, kw, stride, pad, h, w)
    cols = np.zeros((n_in, kh, kw, b, taps.h_out, taps.w_out))
    for u, v, o_rows, o_cols, rows, cols_ in taps.clipped:
        cols[:, u, v, :, o_rows, o_cols] = x[:, :, rows, cols_]
    return cols.reshape(n_in * kh * kw, -1)


def kn2row_reference(x, k, bias, stride, pad):
    """The kn2row form of the channel-major convolution of ``x`` by ``k``
    plus ``bias`` (None for none): the per-sample product of every tap's
    kernel with ``x``, then each tap's clipped window of it added, in tap
    order, into a zeroed output."""
    n_out, n_in, kh, kw = k.shape
    _, b, h, w = x.shape
    taps = ad._taps(kh, kw, stride, pad, h, w)
    prod = np.empty((kh * kw * n_out, b * h * w))
    ad._by_sample(k.transpose(2, 3, 0, 1).reshape(-1, n_in), x.reshape(n_in, -1), b, prod)
    prod = prod.reshape(kh, kw, n_out, b, h, w)
    out = np.zeros((n_out, b, taps.h_out, taps.w_out))
    for u, v, o_rows, o_cols, rows, cols_ in taps.clipped:
        out[:, :, o_rows, o_cols] += prod[u, v, :, :, rows, cols_]
    if bias is not None:
        out += bias[:, None, None, None]
    return out


def kn2row_taps_reference(g, x, k, stride, pad):
    """The kn2row backward's (O*kh*kw, B*H*W) tap matrix of the output
    gradient ``g`` (O, B, Ho, Wo) of a convolution of the channel-major
    ``x`` by ``k``: zeros, then each tap's clipped window of ``g`` copied
    to the input it read, under the flipped tap."""
    n_out, _, kh, kw = k.shape
    _, b, h, w = x.shape
    mat = np.zeros((n_out, kh, kw, b, h, w))
    for u, v, o_rows, o_cols, rows, cols_ in ad._taps(kh, kw, stride, pad, h, w).clipped:
        mat[:, kh - 1 - u, kw - 1 - v, :, rows, cols_] = g[:, :, o_rows, o_cols]
    return mat.reshape(n_out * kh * kw, -1)


def kn2row_rows_reference(x, k, bias, pad):
    """kn2row's forward sum in a "same" geometry, ``pad`` = (kh - 1) / 2:
    the per-sample product, the columns of it that a tap column never
    reads zeroed, then each tap's shifted slice added into a zeroed
    output on every (channel, sample) row of the flat H*W axis."""
    n_out, n_in, kh, kw = k.shape
    _, b, h, w = x.shape
    n = h * w
    prod = np.empty((kh * kw * n_out, b * n))
    ad._by_sample(k.transpose(2, 3, 0, 1).reshape(-1, n_in), x.reshape(n_in, -1), b, prod)
    p6 = prod.reshape(kh, kw, n_out, b, h, w)
    for v in range(kw):  # the input columns that no read of tap column v reaches
        dv = v - pad
        if dv < 0:
            p6[:, v, :, :, :, max(0, w + dv) :] = 0.0
        elif dv > 0:
            p6[:, v, :, :, :, : min(w, dv)] = 0.0
    out = np.zeros((n_out, b, h, w))
    o3, p3 = out.reshape(n_out, b, -1), prod.reshape(kh, kw, n_out, b, -1)
    for u in range(kh):
        for v in range(kw):
            d = (u - pad) * w + (v - pad)
            lo, hi = max(0, -d), min(n, n - d)
            if lo < hi:
                o3[:, :, lo:hi] += p3[u, v, :, :, lo + d : hi + d]
    if bias is not None:
        out += bias[:, None, None, None]
    return out


def im2col_input_grad_reference(g, x, k, stride, pad):
    """The im2col form's input gradient from the output gradient ``g``
    (O, B, Ho, Wo): the per-tap GEMM ``k.T @ g``, rows (i, u, v), then
    each tap's clipped window of it added, in tap order, into a zeroed
    gradient at the input it read."""
    n_out, n_in, kh, kw = k.shape
    taps = ad._taps(kh, kw, stride, pad, *x.shape[2:])
    g2d = g.reshape(n_out, -1)
    with ad.blas_threads(g2d.size * n_in * kh * kw):
        per_tap = k.reshape(n_out, -1).T @ g2d
    per_tap = per_tap.reshape(n_in, kh, kw, x.shape[1], taps.h_out, taps.w_out)
    gx = np.zeros(x.shape)
    for u, v, o_rows, o_cols, rows, cols_ in taps.clipped:
        gx[:, :, rows, cols_] += per_tap[:, u, v, :, o_rows, o_cols]
    return gx
