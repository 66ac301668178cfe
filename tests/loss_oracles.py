"""The loss side of a training step as its per-op graph.

``adain``, the style term and the content term composed of
:mod:`flowstyle.autodiff` ops, one tape node per op, as they were
written before each became one node. ``adain`` is the one taped AdaIN;
``channel_stats`` and AdaIN's two factor functions take arrays only.
The single-node versions in :mod:`flowstyle.transfer` and
:mod:`flowstyle.training` are tested against these: the same values
(``==``), and gradients equal up to rounding.
"""

import flowstyle.autodiff as ad
from flowstyle.transfer import EPS_STD


def stats_reference(f):
    """Per-channel mean and floored std: 7 ops."""
    mean = ad.channel_mean(f)
    centered = ad.sub(f, ad.per_channel(mean))
    std = ad.sqrt(ad.channel_mean(ad.mul(centered, centered)))
    return mean, ad.maximum_scalar(std, EPS_STD)


def adain_reference(f_c, f_s):
    """The content factor of ``f_c`` recombined with the stats of ``f_s``."""
    mean_c, std_c = stats_reference(f_c)
    norm = ad.div(ad.sub(f_c, ad.per_channel(mean_c)), ad.per_channel(std_c))
    mean_s, std_s = stats_reference(f_s)
    return ad.add(ad.mul(norm, ad.per_channel(std_s)), ad.per_channel(mean_s))


def style_term_reference(feats, style_feats):
    """Sum over stages of ||mu - mu_s||_2 + ||sigma - sigma_s||_2."""
    total = None
    for feat, style_feat in zip(feats, style_feats):
        (mean, std), (mean_s, std_s) = stats_reference(feat), stats_reference(style_feat)
        d_mu = ad.sub(mean, mean_s)
        d_sd = ad.sub(std, std_s)
        term = ad.add(
            ad.sqrt(ad.sum_all(ad.mul(d_mu, d_mu))),
            ad.sqrt(ad.sum_all(ad.mul(d_sd, d_sd))),
        )
        total = term if total is None else ad.add(total, term)
    return total if isinstance(total, ad.Var) else float(total)


def content_term_reference(top, target):
    """RMS distance between ``top`` and the array ``target``."""
    d = ad.sub(top, target)
    out = ad.sqrt(ad.mean_all(ad.mul(d, d)))
    return out if isinstance(out, ad.Var) else float(out)
