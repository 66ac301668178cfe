"""The convolution kernel's tap sums as clipped tap loops.

Each tap of a kernel reads the input through one 4-d window, clipped at
the border (``autodiff._Taps.clipped``): the way every geometry of
``autodiff._conv`` and ``autodiff._im2col`` ran before a "same" geometry
took flat shifted slices. The flat forms are tested against these for
equal bytes, the sign of every zero included.
"""

import numpy as np

import flowstyle.autodiff as ad


def im2col_reference(x, k, stride, pad):
    """The (I*kh*kw, B*Ho*Wo) column matrix of the channel-major ``x``:
    zeros, then each tap's clipped window of ``x`` copied in."""
    n_in, b, h, w = x.shape
    kh, kw = k.shape[2:]
    taps = ad._Taps(kh, kw, stride, pad, h, w)
    cols = np.zeros((n_in, kh, kw, b, taps.h_out, taps.w_out))
    for u, v, o_rows, o_cols, rows, cols_ in taps.clipped():
        cols[:, u, v, :, o_rows, o_cols] = x[:, :, rows, cols_]
    return cols.reshape(n_in * kh * kw, -1)


def kn2row_reference(x, k, bias, stride, pad):
    """The kn2row form of the channel-major convolution of ``x`` by ``k``
    plus ``bias`` (None for none): the per-sample product of every tap's
    kernel with ``x``, then each tap's clipped window of it added, in tap
    order, into a zeroed output."""
    n_out, n_in, kh, kw = k.shape
    _, b, h, w = x.shape
    taps = ad._Taps(kh, kw, stride, pad, h, w)
    prod = np.empty((kh * kw * n_out, b * h * w))
    ad._by_sample(k.transpose(2, 3, 0, 1).reshape(-1, n_in), x.reshape(n_in, -1), b, prod)
    prod = prod.reshape(kh, kw, n_out, b, h, w)
    out = np.zeros((n_out, b, taps.h_out, taps.w_out))
    for u, v, o_rows, o_cols, rows, cols_ in taps.clipped():
        out[:, :, o_rows, o_cols] += prod[u, v, :, :, rows, cols_]
    if bias is not None:
        out += bias[:, None, None, None]
    return out
