"""The flow layers as their per-op graph.

Each layer composed of public :mod:`flowstyle.autodiff` ops on NCHW
values, one tape node per op: the way a walk was taped before it became
one ``walk`` node over the array kernels of :mod:`flowstyle.flows`. The
walk node, and the coupling kernel with its backward rule, are tested
against these: the same values (``==``), the coupling's gradients too,
and a whole walk's gradients up to the rounding of its rebuilt inputs.
``reference_init`` is actnorm initialization on that graph, with
``actnorm_init_reference`` for each actnorm's statistics, and
``full_coupling`` the coupling kernel without its identity shortcut.
"""

import numpy as np

import flowstyle.autodiff as ad
from flowstyle import flows
from flowstyle.linalg import mat_inverse

# Ops that only a flow layer records; a taped walk records none of them.
FLOW_LAYER_OPS = {
    "coupling", "channel_mix", "channel_mix_inv", "squeeze2", "unsqueeze2",
    "split_half", "concat_half",
}


def squeeze_reference(x, inverse=False):
    return ad.unsqueeze2(x) if inverse else ad.squeeze2(x)


def actnorm_reference(x, scale, bias, inverse=False):
    """``scale * x + bias``, or ``(x - bias) / scale`` for the inverse."""
    if inverse:
        return ad.div(ad.sub(x, ad.per_channel(bias)), ad.per_channel(scale))
    return ad.add(ad.mul(x, ad.per_channel(scale)), ad.per_channel(bias))


def invconv_reference(x, weight, inverse=False):
    if not inverse:
        return ad.channel_mix(x, weight)
    w = weight.data if isinstance(weight, ad.Var) else weight
    return ad.channel_mix_inv(x, weight, mat_inverse(w))


def inner_network_reference(x_a, w1, b1, w2, b2, w3, b3):
    """3x3 -> ReLU -> 1x1 -> ReLU -> 3x3, one ``conv2d`` node per layer."""
    h = ad.conv2d(x_a, w1, b1, pad=1, relu=True)
    h = ad.conv2d(h, w2, b2, pad=0, relu=True)
    return ad.conv2d(h, w3, b3, pad=1)


def coupling_reference(x, w1, b1, w2, b2, w3, b3, inverse=False):
    """Split, inner network, add (sub for the inverse), concat."""
    x_a, x_b = ad.split_half(x)
    shift = inner_network_reference(x_a, w1, b1, w2, b2, w3, b3)
    return ad.concat_half(x_a, ad.sub(x_b, shift) if inverse else ad.add(x_b, shift))


REFERENCE_LAYERS = {
    "squeeze": squeeze_reference,
    "actnorm": actnorm_reference,
    "invconv": invconv_reference,
    "coupling": coupling_reference,
}


def reference_walk(model, v, params, inverse):
    """``FlowNet._walk`` as the per-op graph of its layers."""
    store = model.params if params is None else {**model.params, **params}
    for layer in reversed(model.layers) if inverse else model.layers:
        weights = (store[name] for name in layer.shapes)
        v = REFERENCE_LAYERS[layer.kind](v, *weights, inverse=inverse)
    return v


def actnorm_init_reference(batch):
    """``flows.actnorm_init`` with numpy's ``mean`` and ``std`` and its
    own 1e-6 std floor, as it was written before it took AdaIN's
    statistics (``transfer._moments``)."""
    mean = batch.mean(axis=(0, 2, 3))
    std = batch.std(axis=(0, 2, 3))
    clamped = [int(i) for i in np.nonzero(std < 1e-6)[0]]
    std = np.maximum(std, 1e-6)
    scale = np.maximum(1.0 / std, flows.ACTNORM_SCALE_FLOOR)
    return scale, -mean * scale, clamped


def reference_init(model, batch):
    """``initialize_actnorms`` on the per-op graph: the parameter store
    after each actnorm takes the statistics of the reference walk's
    activations that reach it. ``model`` is left as it is."""
    params, v = dict(model.params), batch
    for layer in model.layers:
        if layer.kind == "actnorm":
            params.update(zip(layer.shapes, actnorm_init_reference(v)[:2]))
        v = REFERENCE_LAYERS[layer.kind](v, *(params[name] for name in layer.shapes))
    return params


def full_coupling(x, w1, b1, w2, b2, w3, b3, inverse, identity, scratch, out=None,
                  shared=0):
    """``flows._coupling`` with the inner network run for every coupling,
    ``identity`` ones included."""
    half = x.shape[0] // 2
    if out is None:
        out = np.empty(x.shape)
        out[:half] = x[:half]
    shift = flows._shift(x[:half], w1, b1, w2, b2, w3, b3, scratch, None, shared)[0]
    (np.subtract if inverse else np.add)(x[half:], shift, out=out[half:])
    return out
