"""Every function the benchmark's tracer wraps by name still exists.

``perfbench/tracing.py`` looks each ``(owner, attribute)`` of ``LAYERS``
up with ``getattr``; a renamed or deleted function would make every
traced benchmark run raise ``AttributeError``.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    missing = [
        tracing._layer_name(owner, attr)
        for owner, attrs in tracing.LAYERS
        for attr in attrs
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing
