"""The four benchmark workloads.

Each workload has a ``setup(seed, workdir)`` that returns its state and
a ``run(state, clock)`` that performs ops in a closed loop until
``clock.done``, bracketing each op with ``clock.begin()`` /
``clock.end()`` and reporting bad outputs with ``clock.fail(reason)``.
Output checks run outside the timed brackets. Every call into the
program goes through a flowstyle module attribute, so a traced run sees
it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from flowstyle import checkpoint, experiments, flows, metrics, training, transfer

from images import seeded_pair

# The model's weights are fixed; only the images come from the workload seed.
MODEL_SEED = 0
# Criterion 4's bound on statistic-preserving drift, and criterion 7's
# bound on the round-trip error of a trained model.
MAX_LEAK_DRIFT = 1e-4
MAX_RECON_ERROR = 1e-9
# Patch swap must drift by at least this much: it is the lossy control.
MIN_SWAP_DRIFT = 1e-2
# Re-encoding a stylized image must reproduce the style latent's
# per-channel mean and std to within this.
MAX_STATS_ERROR = 1e-9
# Rounds per leak test: every round after the first re-encodes the same
# style, so two thirds of the style work repeats.
LEAK_ROUNDS = 3
# Image pairs a training run cycles through, as in criterion 7.
TRAIN_PAIRS = 4


def prepared_model(config, batch, workdir) -> flows.FlowNet:
    """Build, initialize actnorm on ``batch``, randomize couplings, and
    round-trip the model through a checkpoint file as the CLI does."""
    model = flows.build_flownet(config, seed=MODEL_SEED)
    flows.initialize_actnorms(model, batch)
    flows.randomize_couplings(model, seed=MODEL_SEED + 1)
    path = os.path.join(workdir, "model.ckpt")
    checkpoint.save_checkpoint(path, model)
    return checkpoint.load_checkpoint(path)


def _latent_stats(model, image):
    f = model.forward(image)
    return f.mean(axis=(0, 2, 3)), f.std(axis=(0, 2, 3))


@dataclass
class InferenceState:
    model: flows.FlowNet
    content: np.ndarray
    style: np.ndarray
    seed: int
    workdir: str


class _PairWorkload:
    """Set-up shared by the inference workloads: pair 0 and a prepared model."""

    def __init__(self, name, arch, size, hidden):
        self.name = name
        self.size = size
        self.config = flows.named_config(arch, in_height=size, in_width=size, hidden=hidden)

    def setup(self, seed: int, workdir) -> InferenceState:
        content, style = seeded_pair(seed, 0, self.size, workdir)
        model = prepared_model(self.config, content, workdir)
        return InferenceState(model, content, style, seed, workdir)

    def pair(self, st: InferenceState, index: int):
        """Pair ``index`` of the run; pair 0 was made during set-up."""
        if index == 0:
            return st.content, st.style
        return seeded_pair(st.seed, index, self.size, st.workdir)


class Stylize(_PairWorkload):
    """``experiments.stylize`` with ADAIN on a new content/style pair per op."""

    def run(self, st: InferenceState, clock) -> None:
        index = 0
        while not clock.done:
            content, style = self.pair(st, index)
            clock.begin()
            try:
                out = experiments.stylize(st.model, transfer.ADAIN, content, style)
            finally:
                clock.end()
            if out.shape != (1, 3, self.size, self.size) or not np.isfinite(out).all():
                clock.fail(f"op {index}: output shape {out.shape} or non-finite values")
            elif index == 0:
                got_mean, got_std = _latent_stats(st.model, out)
                want_mean, want_std = _latent_stats(st.model, style)
                err = max(np.max(np.abs(got_mean - want_mean)), np.max(np.abs(got_std - want_std)))
                if not err < MAX_STATS_ERROR:
                    clock.fail(f"op 0: re-encoded style statistics differ by {err:.3e}")
            index += 1


class LeakTest(_PairWorkload):
    """``experiments.leak_test`` with WCT, then PATCHSWAP, on a new pair per op."""

    def run(self, st: InferenceState, clock) -> None:
        index = 0
        while not clock.done:
            content, style = self.pair(st, index)
            clock.begin()
            try:
                wct = experiments.leak_test(st.model, transfer.WCT, content, style, LEAK_ROUNDS)
                swap = experiments.leak_test(
                    st.model, transfer.PATCHSWAP, content, style, LEAK_ROUNDS
                )
            finally:
                clock.end()
            values = wct.ssim_vs_first + wct.drift_vs_first + swap.ssim_vs_first + swap.drift_vs_first
            if not np.isfinite(values).all():
                clock.fail(f"op {index}: non-finite ssim or drift")
            elif not wct.max_drift < MAX_LEAK_DRIFT:
                clock.fail(f"op {index}: wct drift {wct.max_drift:.3e}")
            elif not swap.max_drift > MIN_SWAP_DRIFT:
                clock.fail(f"op {index}: patch-swap drift {swap.max_drift:.3e} is too small")
            index += 1


@dataclass
class TrainState:
    model: flows.FlowNet
    lossnet: training.LossNet
    pairs: list
    probe_image: np.ndarray


class _TimeUp(Exception):
    """Raised from ``on_step`` to end ``train`` when the run's time is up."""


class Train:
    """One ``train`` step per op, timed between ``on_step`` callbacks."""

    def __init__(self, name, config: flows.FlowNetConfig, image_size: int):
        self.name = name
        self.config = config
        self.image_size = image_size

    def _train_config(self, iterations: int) -> training.TrainConfig:
        return training.TrainConfig(
            iterations=iterations, batch_size=2, crop_size=self.config.in_height, seed=MODEL_SEED
        )

    def setup(self, seed: int, workdir) -> TrainState:
        pairs = [
            tuple(img[0] for img in seeded_pair(seed, i, self.image_size, workdir))
            for i in range(TRAIN_PAIRS)
        ]
        crop = self.config.in_height
        probe_image = pairs[0][0][np.newaxis, :, :crop, :crop]
        model = flows.build_flownet(self.config, seed=MODEL_SEED)
        lossnet = training.build_lossnet(MODEL_SEED, self.config.in_channels)
        # Zero iterations: initializes actnorm from the first batch only.
        training.train(model, self._train_config(0), pairs, lossnet=lossnet)
        return TrainState(model, lossnet, pairs, probe_image)

    def run(self, st: TrainState, clock) -> None:
        def on_step(step, model, result):
            clock.end()
            losses = (result.content_loss, result.style_loss, result.total_loss)
            if not np.isfinite(losses).all():
                clock.fail(f"step {step}: non-finite loss {losses}")
            if clock.done:
                raise _TimeUp
            clock.begin()

        cfg = self._train_config(iterations=10**9)
        clock.begin()
        try:
            training.train(st.model, cfg, st.pairs, lossnet=st.lossnet, on_step=on_step)
        except _TimeUp:
            pass
        except Exception:
            clock.end()
            raise
        err = metrics.recon_error(st.model, st.probe_image)
        if not err < MAX_RECON_ERROR:
            clock.fail_all(f"round-trip error {err:.3e} of the trained model")


def paper_workloads() -> dict:
    """The benchmark's workloads by name, at the sizes BENCHMARK.json states."""
    workloads = (
        Stylize("stylize-adain-256", "flow8-block2", size=256, hidden=64),
        LeakTest("leak-64", "flow8-block2", size=64, hidden=64),
        Train("train-32", flows.named_config("flow8-block2", in_height=32, in_width=32), 64),
        Train("train-tiny", flows.FlowNetConfig(1, 2, 8, 3, 16, 16), 16),
    )
    return {w.name: w for w in workloads}
