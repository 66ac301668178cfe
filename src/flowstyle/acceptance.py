"""Executable acceptance suite.

Each criterion is a function returning a :class:`CriterionResult`; the
``verify`` CLI command and the test suite both run these. The checks are
property-based and seeded: exact reversibility, exact statistic/
covariance transfer, repeated-stylization stability, reverse transfer,
gradient correctness, training sanity, architecture sweep, and bit-exact
file I/O.
"""

from __future__ import annotations

import io
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from .errors import CorruptCheckpointError, ImageFormatError, MagicMismatchError
from .experiments import leak_test, reverse_transfer
from .flows import (
    FlowNetConfig,
    build_flownet,
    copy_flownet,
    initialize_actnorms,
    named_config,
    randomize_couplings,
)
from .linalg import mat_inverse
from .metrics import recon_error
from .ppm import quantize, read_image, write_image
from .training import (
    TrainConfig,
    build_lossnet,
    check_model_gradients,
    train,
    training_loss,
)
from .transfer import (
    ADAIN,
    PATCHSWAP,
    WCT,
    adain,
    adain_content_factor,
    channel_stats,
    cov_factor,
    wct,
    wct_content_factor,
)


@dataclass(frozen=True)
class CriterionResult:
    ident: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} criterion {self.ident}: {self.name} ({self.detail})"


def _seeded_model(seed: int, n_blocks=1, n_flows=2, hidden=8, channels=3, size=16):
    model = build_flownet(
        FlowNetConfig(n_blocks, n_flows, hidden, channels, size, size), seed=seed
    )
    rng = np.random.default_rng(seed + 1)
    initialize_actnorms(model, rng.random((2, channels, size, size)))
    randomize_couplings(model, seed=seed + 2)
    return model


def criterion_1_lossless_reversibility() -> CriterionResult:
    """100 seeded random models and inputs round-trip below 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(100):
        n_blocks = int(rng.integers(1, 3))
        n_flows = int(rng.integers(1, 4))
        hidden = int(rng.integers(2, 9))
        channels = int(rng.integers(1, 5))
        size = int(rng.integers(2, 7)) * 2**n_blocks
        model = build_flownet(
            FlowNetConfig(n_blocks, n_flows, hidden, channels, size, size),
            seed=2000 + i,
        )
        initialize_actnorms(model, rng.random((2, channels, size, size)))
        randomize_couplings(model, seed=3000 + i)
        x = rng.random((int(rng.integers(1, 3)), channels, size, size))
        worst = max(worst, float(np.max(np.abs(model.inverse(model.forward(x)) - x))))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-9 and elapsed < 60.0
    return CriterionResult(
        1,
        "lossless round trip over 100 random models",
        passed,
        f"worst |inverse(forward(x)) - x| = {worst:.3e}, {elapsed:.1f}s",
    )


def criterion_2_stat_transfer_exactness() -> CriterionResult:
    """1000 pairs: statistic transfer adopts style stats and keeps content."""
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_stats = 0.0
    worst_content = 0.0
    for _ in range(1000):
        c = int(rng.integers(1, 9))
        f_c = rng.standard_normal(
            (int(rng.integers(1, 3)), c, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        ) * rng.uniform(0.5, 3.0, (1, c, 1, 1)) + rng.uniform(-2, 2, (1, c, 1, 1))
        f_s = rng.standard_normal(
            (1, c, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        ) * rng.uniform(0.5, 3.0, (1, c, 1, 1)) + rng.uniform(-2, 2, (1, c, 1, 1))
        out = adain(f_c, f_s)
        s_out, s_sty = channel_stats(out), channel_stats(f_s)
        worst_stats = max(
            worst_stats,
            float(np.max(np.abs(s_out.mean - s_sty.mean))),
            float(np.max(np.abs(s_out.std - s_sty.std))),
        )
        worst_content = max(
            worst_content,
            float(np.max(np.abs(adain_content_factor(out) - adain_content_factor(f_c)))),
        )
    elapsed = time.perf_counter() - start
    passed = worst_stats < 1e-9 and worst_content < 1e-9
    return CriterionResult(
        2,
        "statistic transfer is exact over 1000 pairs",
        passed,
        f"max stat error {worst_stats:.3e}, max content-factor error "
        f"{worst_content:.3e}, {elapsed:.1f}s",
    )


def criterion_3_cov_transfer_exactness() -> CriterionResult:
    """200 well-conditioned pairs: covariance transfer is exact to 1e-6."""
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst_cov = 0.0
    worst_white = 0.0
    for _ in range(200):
        c = int(rng.integers(2, 13))
        shape = (1, c, 16, 16)
        f_c = rng.standard_normal(shape) * rng.uniform(0.5, 2.0, (1, c, 1, 1)) + rng.uniform(
            -1, 1, (1, c, 1, 1)
        )
        f_s = rng.standard_normal(shape) * rng.uniform(0.5, 2.0, (1, c, 1, 1)) + rng.uniform(
            -1, 1, (1, c, 1, 1)
        )
        out = wct(f_c, f_s)
        worst_cov = max(
            worst_cov,
            float(np.max(np.abs(cov_factor(out).cov.mat - cov_factor(f_s).cov.mat))),
        )
        worst_white = max(
            worst_white,
            float(np.max(np.abs(wct_content_factor(out) - wct_content_factor(f_c)))),
        )
    elapsed = time.perf_counter() - start
    passed = worst_cov < 1e-6 and worst_white < 1e-6 and elapsed < 60.0
    return CriterionResult(
        3,
        "covariance transfer is exact over 200 pairs",
        passed,
        f"max covariance error {worst_cov:.3e}, max whitened-content error "
        f"{worst_white:.3e}, {elapsed:.1f}s",
    )


def criterion_4_repeated_stylization_stability() -> CriterionResult:
    """20 rounds: statistic/covariance transfer hold; patch swap drifts."""
    model = _seeded_model(5)
    rng = np.random.default_rng(42)
    content = rng.random((1, 3, 16, 16))
    style = rng.random((1, 3, 16, 16))
    adain_report = leak_test(model, ADAIN, content, style, rounds=20)
    wct_report = leak_test(model, WCT, content, style, rounds=20)
    patch_report = leak_test(model, PATCHSWAP, content, style, rounds=20)
    stable = adain_report.max_drift < 1e-4 and wct_report.max_drift < 1e-4
    grows = patch_report.drift_vs_first[19] > patch_report.drift_vs_first[1]
    return CriterionResult(
        4,
        "repeated stylization is drift-free; patch swap is not",
        stable and grows,
        f"adain drift {adain_report.max_drift:.3e}, wct drift "
        f"{wct_report.max_drift:.3e}, patchswap drift r2 "
        f"{patch_report.drift_vs_first[1]:.3f} -> r20 "
        f"{patch_report.drift_vs_first[19]:.3f}",
    )


def criterion_5_reverse_transfer() -> CriterionResult:
    """Stylize-then-unstylize recovers the content image."""
    model = _seeded_model(5)
    rng = np.random.default_rng(42)
    content = rng.random((1, 3, 16, 16))
    style = rng.random((1, 3, 16, 16))
    _, rec_adain = reverse_transfer(model, ADAIN, content, style)
    _, rec_wct = reverse_transfer(model, WCT, content, style)
    err_adain = float(np.max(np.abs(rec_adain - content)))
    err_wct = float(np.max(np.abs(rec_wct - content)))
    passed = err_adain < 1e-6 and err_wct < 1e-4
    return CriterionResult(
        5,
        "reverse transfer recovers the content image",
        passed,
        f"adain error {err_adain:.3e} (< 1e-6), wct error {err_wct:.3e} (< 1e-4)",
    )


def _op_grad_cases():
    """(name, param shapes, loss builder) per differentiable op class."""

    def wrap(fn):
        def build(p):
            v = fn(p)
            return ad.sum_all(ad.mul(v, v))

        return build

    return [
        ("affine", {"x": (2, 3, 2, 2), "w": (1, 3, 1, 1), "b": (1, 3, 1, 1)},
         wrap(lambda p: ad.add(ad.mul(p["x"], p["w"]), p["b"]))),
        ("div", {"a": (3, 4), "b": (3, 4)},
         wrap(lambda p: ad.div(p["a"], ad.add(ad.mul(p["b"], p["b"]), 1.0)))),
        ("relu", {"x": (4, 5)}, wrap(lambda p: ad.relu(p["x"]))),
        ("clamp", {"x": (4, 4)}, wrap(lambda p: ad.maximum_scalar(p["x"], 0.2))),
        ("sqrt_mean", {"x": (3, 3)},
         lambda p: ad.sqrt(ad.mean_all(ad.mul(p["x"], p["x"])))),
        ("channel_mean", {"x": (2, 3, 2, 2)},
         wrap(lambda p: ad.per_channel(ad.channel_mean(p["x"])))),
        ("conv", {"x": (1, 2, 4, 4), "k": (3, 2, 3, 3)},
         wrap(lambda p: ad.conv2d(p["x"], p["k"], stride=1, pad=1))),
        ("conv_strided", {"x": (1, 2, 6, 6), "k": (3, 2, 3, 3)},
         wrap(lambda p: ad.conv2d(p["x"], p["k"], stride=2, pad=1))),
        ("channel_mix", {"x": (1, 3, 2, 2), "w": (3, 3)},
         wrap(lambda p: ad.channel_mix(p["x"], p["w"]))),
        ("channel_mix_inv", {"x": (1, 3, 2, 2), "w": (3, 3)},
         wrap(lambda p: ad.channel_mix_inv(
             ad.lift(p["x"]),
             ad.add(p["w"], 3.0 * np.eye(3)),
             mat_inverse(ad._data(ad.add(p["w"], 3.0 * np.eye(3)))),
         ))),
        ("squeeze", {"x": (1, 3, 4, 4)},
         wrap(lambda p: ad.unsqueeze2(ad.mul(ad.squeeze2(p["x"]), 1.5)))),
        ("split_concat", {"x": (1, 4, 2, 2)},
         wrap(lambda p: ad.concat_half(*_swap(ad.split_half(p["x"]))))),
        ("stats", {"x": (1, 3, 3, 3)},
         wrap(lambda p: ad.per_channel(channel_stats(p["x"]).std))),
    ]


def _swap(pair):
    a, b = pair
    return ad.mul(b, 2.0), a


def criterion_6_gradient_correctness() -> CriterionResult:
    """All op classes and a 2-flow model match finite differences."""
    start = time.perf_counter()
    worst = 0.0
    failures = []
    for case_idx, (name, shapes, build) in enumerate(_op_grad_cases()):
        for seed in range(10):
            rng = np.random.default_rng(10_000 + 100 * case_idx + seed)
            params = {k: rng.standard_normal(s) for k, s in shapes.items()}
            report = ad.grad_check(params, build)
            worst = max(worst, report.max_rel_error)
            if not report.passed:
                failures.append(f"{name}[{seed}]")
    cfg = TrainConfig(iterations=1, batch_size=1, crop_size=4)
    lossnet = build_lossnet(7, in_channels=2, widths=(4, 4))
    for seed in range(10):
        model = build_flownet(FlowNetConfig(1, 2, 2, 2, 4, 4), seed=400 + seed)
        rng = np.random.default_rng(500 + seed)
        batch = (rng.random((1, 2, 4, 4)), rng.random((1, 2, 4, 4)))
        initialize_actnorms(model, np.concatenate(batch))
        randomize_couplings(model, seed=600 + seed, scale=0.5)

        def loss_fn(m, pvars, b):
            total, _, _ = training_loss(m, pvars, b[0], b[1], cfg, lossnet)
            return total

        report = check_model_gradients(model, loss_fn, batch)
        worst = max(worst, report.max_rel_error)
        if not report.passed:
            failures.append(f"model[{seed}]: {report.failures}")
    elapsed = time.perf_counter() - start
    return CriterionResult(
        6,
        "analytic gradients match central differences",
        not failures,
        f"worst relative error {worst:.3e} (< 1e-4), "
        f"{len(failures)} failures, {elapsed:.1f}s",
    )


def criterion_7_training_sanity() -> CriterionResult:
    """2000 steps: loss drops, reconstruction stays exact, identity init wins."""
    start = time.perf_counter()
    rng = np.random.default_rng(7000)
    pairs = [(rng.random((3, 16, 16)), rng.random((3, 16, 16))) for _ in range(4)]
    cfg = TrainConfig(iterations=2000, batch_size=2, crop_size=16, seed=0)
    lossnet = build_lossnet(cfg.seed, 3)
    model = build_flownet(FlowNetConfig(1, 2, 8, 3, 16, 16), seed=70)

    # Identity-vs-randomized control at step 0 (before any update).
    batch_c = np.stack([pairs[0][0], pairs[1][0]])
    batch_s = np.stack([pairs[0][1], pairs[1][1]])
    initialize_actnorms(model, np.concatenate([batch_c, batch_s]))

    def initial_content_loss(m):
        tape = ad.Tape()
        pvars = {n: ad.Var(a, tape) for n, a in m.param_items()}
        _, l_c, _ = training_loss(m, pvars, batch_c, batch_s, cfg, lossnet)
        return float(l_c.data)

    lc_identity = initial_content_loss(model)
    control = copy_flownet(model)
    randomize_couplings(control, seed=71, scale=2.0)
    lc_control = initial_content_loss(control)

    probe = batch_c
    worst_recon = [recon_error(model, probe)]

    def on_step(step, m, result):
        if step == 1 or step % 100 == 0:
            worst_recon.append(recon_error(m, probe))

    log = io.StringIO()
    train(model, cfg, pairs, lossnet=lossnet, log_stream=log, on_step=on_step)
    lines = log.getvalue().strip().split("\n")
    first_total = float(lines[0].split("\t")[3])
    last_total = float(lines[-1].split("\t")[3])
    elapsed = time.perf_counter() - start
    passed = (
        len(lines) == cfg.iterations
        and last_total < first_total
        and max(worst_recon) < 1e-9
        and lc_identity < lc_control
    )
    return CriterionResult(
        7,
        "desk-scale training behaves",
        passed,
        f"loss {first_total:.4f} -> {last_total:.4f}, recon max "
        f"{max(worst_recon):.3e}, identity-init content loss {lc_identity:.4f} "
        f"< randomized {lc_control:.4f}, {elapsed:.0f}s",
    )


def criterion_8_architecture_sweep() -> CriterionResult:
    """The four named architectures instantiate and stay lossless."""
    start = time.perf_counter()
    latent_expect = {
        "flow8-block2": (48, 64, 64),
        "flow8-block1": (12, 128, 128),
        "flow16-block1": (12, 128, 128),
        "flow4-block4": (768, 16, 16),
    }
    worst = 0.0
    shape_ok = True
    rng = np.random.default_rng(1008)
    for name, expect in latent_expect.items():
        shape_ok &= named_config(name, 3, 256, 256).latent_shape() == expect
        # 32x32 with an 8-image init batch keeps the deepest block's
        # data-dependent init statistically sane (>= 32 samples/channel).
        cfg = named_config(name, 3, 32, 32, hidden=4)
        model = build_flownet(cfg, seed=80)
        initialize_actnorms(model, rng.random((8, 3, 32, 32)))
        randomize_couplings(model, seed=81)
        x = rng.random((1, 3, 32, 32))
        worst = max(worst, float(np.max(np.abs(model.inverse(model.forward(x)) - x))))
    elapsed = time.perf_counter() - start
    return CriterionResult(
        8,
        "named architectures instantiate and round-trip",
        shape_ok and worst < 1e-9,
        f"latent shapes ok={shape_ok}, worst round trip {worst:.3e}, {elapsed:.1f}s",
    )


def criterion_9_io_bit_exactness() -> CriterionResult:
    """Checkpoint and image files round-trip byte-for-byte."""
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        model = _seeded_model(90, n_blocks=2, size=8)
        a = os.path.join(tmp, "a.ckpt")
        b = os.path.join(tmp, "b.ckpt")
        save_checkpoint(a, model)
        loaded = load_checkpoint(a)
        save_checkpoint(b, loaded)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                problems.append("checkpoint save/load/save not byte-identical")
        x = np.random.default_rng(91).random((1, 3, 8, 8))
        if not np.array_equal(loaded.forward(x), model.forward(x)):
            problems.append("loaded model output differs")
        blob = checkpoint_bytes(model)
        broken = os.path.join(tmp, "broken.ckpt")
        with open(broken, "wb") as fh:
            fh.write(blob[:50])
        try:
            load_checkpoint(broken)
            problems.append("truncated checkpoint accepted")
        except CorruptCheckpointError:
            pass
        with open(broken, "wb") as fh:
            fh.write(b"XXXX" + blob[4:])
        try:
            load_checkpoint(broken)
            problems.append("bad magic accepted")
        except MagicMismatchError:
            pass

        img_path = os.path.join(tmp, "img.ppm")
        img2_path = os.path.join(tmp, "img2.ppm")
        img = np.random.default_rng(92).random((1, 3, 6, 5))
        write_image(img_path, img)
        write_image(img2_path, read_image(img_path))
        with open(img_path, "rb") as fa, open(img2_path, "rb") as fb:
            if fa.read() != fb.read():
                problems.append("image write/read/write not byte-identical")
        if quantize(np.array([0.5]))[0] != 128:
            problems.append("0.5 does not quantize to 128")
        quantized = quantize(img).astype(np.float64) / 255.0
        write_image(img_path, quantized)
        if not np.array_equal(read_image(img_path), quantized):
            problems.append("quantized tensor round trip inexact")
        with open(img_path, "wb") as fh:
            fh.write(b"P6 2 2 255\n\x00")
        try:
            read_image(img_path)
            problems.append("truncated image accepted")
        except ImageFormatError:
            pass
    return CriterionResult(
        9,
        "file formats are bit-exact",
        not problems,
        "; ".join(problems) if problems else "all byte-level checks hold",
    )


ALL_CRITERIA = (
    criterion_1_lossless_reversibility,
    criterion_2_stat_transfer_exactness,
    criterion_3_cov_transfer_exactness,
    criterion_4_repeated_stylization_stability,
    criterion_5_reverse_transfer,
    criterion_6_gradient_correctness,
    criterion_7_training_sanity,
    criterion_8_architecture_sweep,
    criterion_9_io_bit_exactness,
)


def run_all(stream=None) -> list[CriterionResult]:
    """Run every criterion, printing one PASS/FAIL line each."""
    results = []
    for fn in ALL_CRITERIA:
        result = fn()
        results.append(result)
        if stream is not None:
            stream.write(result.line() + "\n")
            stream.flush()
    return results
