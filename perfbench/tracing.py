"""Span tracing of flowstyle from outside the package.

While a root span is open, the public functions named in ``LAYERS`` are
replaced, at every flowstyle module namespace that binds them, by
wrappers that record a span: name, start, end, parent and an optional
dict of counts. ``autodiff.backward`` is wrapped so that it also times
each tape node's ``back`` grouped by op and sums the bytes of the tape's
values and gradients. Closing the root restores the original functions,
so untraced ops run the program exactly as shipped.

Spans stay in memory and are written out once, at the end of the run.
Per-layer metrics are derived from them: a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import flowstyle
from flowstyle import (
    acceptance,
    autodiff,
    checkpoint,
    cli,
    experiments,
    flows,
    linalg,
    metrics,
    ppm,
    training,
    transfer,
)

NAMESPACES = (
    flowstyle, acceptance, autodiff, checkpoint, cli, experiments, flows,
    linalg, metrics, ppm, training, transfer,
)

# Every other differentiable op; reported together as ``autodiff.ops``.
AUTODIFF_OPS = (
    "add", "sub", "mul", "div", "neg", "reshape", "relu", "maximum_scalar",
    "sqrt", "sum_all", "mean_all", "channel_mean", "per_channel",
    "split_half", "concat_half",
)

# (owner, attribute names). An owner is a module, or a class for methods.
LAYERS = (
    (autodiff, ("conv2d", "channel_mix", "channel_mix_inv", "squeeze2", "unsqueeze2")
     + AUTODIFF_OPS),
    (flows.FlowNet, ("forward", "inverse")),
    (flows, ("build_flownet", "initialize_actnorms", "randomize_couplings")),
    (linalg, ("sym_eig", "sym_pow", "matmul", "mat_inverse")),
    (transfer, ("adain", "wct", "cov_factor", "patch_swap")),
    (metrics, ("ssim",)),
    (training, ("train_step", "training_loss", "adain_traced", "transfer_target",
                "adam_update")),
    (experiments, ("stylize", "leak_test")),
    (checkpoint, ("save_checkpoint", "load_checkpoint")),
    (ppm, ("write_image", "read_image")),
)

# name, unit, better. Names ending in ``.self_s`` / ``.calls`` are per
# traced op; names ending in ``.s`` are total span seconds per set-up.
PER_LAYER = (
    ("autodiff.conv2d.self_s", "s", "lower"),
    ("autodiff.conv2d.calls", "count", "lower"),
    ("autodiff.conv2d.gflop", "GFLOP", "lower"),
    ("autodiff.conv2d.gflop_per_s", "GFLOP/s", "higher"),
    ("autodiff.channel_mix.self_s", "s", "lower"),
    ("autodiff.channel_mix_inv.self_s", "s", "lower"),
    ("autodiff.squeeze2.self_s", "s", "lower"),
    ("autodiff.unsqueeze2.self_s", "s", "lower"),
    ("autodiff.backward.self_s", "s", "lower"),
    ("autodiff.back.conv2d.s", "s", "lower"),
    ("autodiff.back.other.s", "s", "lower"),
    ("autodiff.tape.nodes", "count", "lower"),
    ("autodiff.tape.mb", "MB", "lower"),
    ("autodiff.ops.calls", "count", "lower"),
    ("autodiff.ops.self_s", "s", "lower"),
    ("flows.forward.self_s", "s", "lower"),
    ("flows.forward.calls", "count", "lower"),
    ("flows.inverse.self_s", "s", "lower"),
    ("flows.inverse.calls", "count", "lower"),
    ("linalg.sym_eig.self_s", "s", "lower"),
    ("linalg.sym_eig.calls", "count", "lower"),
    ("linalg.sym_pow.self_s", "s", "lower"),
    ("linalg.matmul.self_s", "s", "lower"),
    ("linalg.matmul.calls", "count", "lower"),
    ("linalg.mat_inverse.self_s", "s", "lower"),
    ("linalg.mat_inverse.calls", "count", "lower"),
    ("transfer.wct.self_s", "s", "lower"),
    ("transfer.cov_factor.self_s", "s", "lower"),
    ("transfer.cov_factor.calls", "count", "lower"),
    ("transfer.adain.self_s", "s", "lower"),
    ("transfer.patch_swap.self_s", "s", "lower"),
    ("metrics.ssim.self_s", "s", "lower"),
    ("training.train_step.self_s", "s", "lower"),
    ("training.training_loss.self_s", "s", "lower"),
    ("training.adain_traced.self_s", "s", "lower"),
    ("training.transfer_target.self_s", "s", "lower"),
    ("training.adam_update.self_s", "s", "lower"),
    ("experiments.stylize.self_s", "s", "lower"),
    ("experiments.leak_test.self_s", "s", "lower"),
    ("flows.initialize_actnorms.s", "s", "lower"),
    ("checkpoint.save_checkpoint.s", "s", "lower"),
    ("checkpoint.load_checkpoint.s", "s", "lower"),
    ("ppm.write_image.s", "s", "lower"),
    ("ppm.read_image.s", "s", "lower"),
    ("trace.attributed_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

OP_ROOT = "op"
SETUP_ROOT = "setup"


def _layer_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _conv2d_counts(args, kwargs, out) -> dict:
    """Forward FLOPs of one conv2d call, from its kernel and output shapes."""
    k = kwargs.get("k", args[1] if len(args) > 1 else None)
    o, i, kh, kw = getattr(k, "data", k).shape
    b, _, h_out, w_out = out.data.shape
    return {"gflop": 2.0 * b * o * i * kh * kw * h_out * w_out / 1e9}


_COUNTS = {"autodiff.conv2d": _conv2d_counts}


class Tracer:
    """Records spans as ``[name, start, end, parent, counts]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, _COUNTS.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counts is not None:
                rec[4] = counts(args, kwargs, out)
            return out

        return traced

    def _wrap_backward(self, fn):
        traced = self._wrap("autodiff.backward", fn)
        spans = self.spans

        def backward(loss, *args, **kwargs):
            tape = getattr(loss, "tape", None)
            if tape is None:
                return fn(loss, *args, **kwargs)
            seconds: dict[str, float] = {}
            values = {}
            for node in tape.nodes:
                node.back = _timed_back(node.back, node.op, seconds)
                for var in node.inputs:
                    values[id(var)] = var
            nbytes = sum(
                v.data.nbytes + (v.grad.nbytes if v.grad is not None else 0)
                for v in values.values()
            )
            index = len(spans)
            out = traced(loss, *args, **kwargs)
            conv = seconds.pop("conv2d", 0.0)
            spans[index][4] = {
                "tape.nodes": len(tape.nodes),
                "tape.mb": nbytes / 1e6,
                "back.conv2d.s": conv,
                "back.other.s": sum(seconds.values()),
            }
            return out

        return backward

    def _install(self):
        wrappers = {}  # id(original) -> (original, wrapper)
        for owner, attrs in LAYERS:
            for attr in attrs:
                fn = getattr(owner, attr)
                wrapper = self._wrap(_layer_name(owner, attr), fn)
                if isinstance(owner, type):
                    self._saved.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                else:
                    wrappers[id(fn)] = (fn, wrapper)
        fn = autodiff.backward
        wrappers[id(fn)] = (fn, self._wrap_backward(fn))
        for module in NAMESPACES:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def _uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- roots ------------------------------------------------------------------

    def begin_root(self, name: str) -> None:
        """Open a root span and wrap the layers until :meth:`end_root`."""
        if self._stack:
            raise RuntimeError("a root span is already open")
        self._install()
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, -1, None])

    def end_root(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()
        self._uninstall()

    def write(self, path) -> None:
        """Write every span as JSON: a name table and index-coded records."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "counts"],
                    "names": names,
                    "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                },
                fh,
            )


def _timed_back(back, op: str, seconds: dict):
    def timed(*args):
        t0 = perf_counter()
        back(*args)
        seconds[op] = seconds.get(op, 0.0) + perf_counter() - t0

    return timed


def layer_metrics(spans: list[list], op_s_traced: list[float], op_s_untraced: list[float]) -> dict:
    """Per-layer metrics (name -> value) from the spans of a traced run.

    Op metrics are means per traced op; ``.s`` set-up metrics are means
    per set-up. ``trace.overhead_frac`` compares the median traced and
    untraced op times measured by the caller.
    """
    child_s = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    roots = {OP_ROOT: 0, SETUP_ROOT: 0}
    root_s = {OP_ROOT: 0.0, SETUP_ROOT: 0.0}
    self_s: dict[str, float] = {}
    calls: dict[str, float] = {}
    span_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        kind = spans[root[i]][0]
        if parent < 0:
            roots[kind] += 1
            root_s[kind] += end - start
            continue
        if kind == SETUP_ROOT:
            span_s[name] = span_s.get(name, 0.0) + end - start
            continue
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0.0) + value
    n_ops = max(roots[OP_ROOT], 1)
    n_setups = max(roots[SETUP_ROOT], 1)
    op_attributed = sum(self_s.values())
    for name in [f"autodiff.{op}" for op in AUTODIFF_OPS]:
        self_s["autodiff.ops"] = self_s.get("autodiff.ops", 0.0) + self_s.pop(name, 0.0)
        calls["autodiff.ops"] = calls.get("autodiff.ops", 0) + calls.pop(name, 0)
    conv_self = self_s.get("autodiff.conv2d", 0.0)
    conv_gflop = counts.get("autodiff.conv2d.gflop", 0.0)
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric.endswith(".self_s"):
            value = self_s.get(metric[: -len(".self_s")], 0.0) / n_ops
        elif metric.endswith(".calls"):
            value = calls.get(metric[: -len(".calls")], 0) / n_ops
        elif metric.startswith("autodiff.back.") or metric.startswith("autodiff.tape."):
            value = counts.get("autodiff.backward." + metric[len("autodiff."):], 0.0) / n_ops
        elif metric == "autodiff.conv2d.gflop":
            value = conv_gflop / n_ops
        elif metric == "autodiff.conv2d.gflop_per_s":
            value = conv_gflop / conv_self if conv_self > 0 else 0.0
        elif metric == "trace.attributed_frac":
            value = op_attributed / root_s[OP_ROOT] if root_s[OP_ROOT] > 0 else 0.0
        elif metric == "trace.overhead_frac":
            value = statistics.median(op_s_traced) / statistics.median(op_s_untraced) - 1.0
        else:  # ".s": span seconds per set-up
            value = span_s.get(metric[: -len(".s")], 0.0) / n_setups
        out[metric] = value
    return out
