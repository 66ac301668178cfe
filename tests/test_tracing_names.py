"""Every function the benchmark's tracer wraps by name still exists.

``perfbench/tracing.py`` looks each ``(owner, attribute)`` of ``LAYERS``
up with ``getattr``; a renamed or deleted function would make every
traced benchmark run raise ``AttributeError``. Its conv2d FLOP count
reads the kernel from the second positional argument, which the fused
bias and ReLU arguments must leave in place. It replaces module
attributes, so a call it should see must go through the module name,
not through a table entry such as ``transfer.FACTORS``.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import flowstyle.autodiff as ad
from flowstyle import transfer

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    assert tracing.LAYERS
    missing = [
        tracing._layer_name(owner, attr)
        for owner, attrs in tracing.LAYERS
        for attr in attrs
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


@pytest.mark.parametrize(
    "geometry",
    [dict(pad=1, relu=True), dict(stride=2, pad=1, relu=True)],
    ids=["coupling", "lossnet"],
)
def test_conv2d_flops_count_fused_calls(geometry):
    """The tracer reads the kernel of a conv2d with a fused bias and ReLU."""
    rng = np.random.default_rng(0)
    x, k, bias = rng.random((2, 3, 8, 6)), rng.random((5, 3, 3, 3)), rng.random(5)
    args = (x, k, bias)
    out = ad.conv2d(*args, **geometry)
    b, o, h_out, w_out = out.shape
    want = 2.0 * b * o * 3 * 3 * 3 * h_out * w_out / 1e9
    assert load_tracing()._conv2d_counts(args, geometry, out) == {"gflop": want}


def test_tracer_sees_the_transfers():
    rng = np.random.default_rng(1)
    f_c, f_s = rng.standard_normal((1, 3, 4, 4)), rng.standard_normal((1, 3, 5, 4))
    tracer = load_tracing().Tracer()
    tracer.begin_root("op")
    try:
        transfer.transfer_apply(transfer.WCT, f_c, f_s)
        transfer.transfer_apply(transfer.ADAIN, f_c, f_s)
    finally:
        tracer.end_root()
    names = [span[0] for span in tracer.spans]
    (wct_span,) = [i for i, name in enumerate(names) if name == "transfer.wct"]
    children = [span[0] for span in tracer.spans if span[3] == wct_span]
    assert children.count("transfer.cov_factor") == 2
    assert "transfer.adain" in names


def test_traced_train_step_times_conv2d_backward(monkeypatch, tmp_path):
    """A traced ``train-tiny`` run passes its checks and times conv2d's
    backward per tape node."""
    monkeypatch.syspath_prepend(str(TRACING.parent))
    harness = importlib.import_module("harness")
    workloads = importlib.import_module("workloads")
    result = harness.measure(workloads.paper_workloads()["train-tiny"], 3, 0.2, True, tmp_path)
    assert result.correct
    assert result.failed == 0
    assert result.metrics["autodiff.back.conv2d.s"][0] > 0
