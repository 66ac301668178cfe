"""Seeded synthetic images for the benchmark workloads.

Each image is a smooth per-channel gradient plus band-limited texture (a
few plane waves between 2 cycles per image and 1/8 of the sampling
rate), clipped to [0, 1]. It is written and read back through
``flowstyle.ppm`` so the program sees exactly the 8-bit values a CLI
user's file would give it.
"""

from __future__ import annotations

import os

import numpy as np

from flowstyle import ppm

_WAVES = 6
_TEXTURE_AMPLITUDE = 0.15


def synthetic_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """A (3, size, size) float64 image in [0, 1] drawn from ``rng``."""
    yy, xx = np.meshgrid(np.linspace(0.0, 1.0, size), np.linspace(0.0, 1.0, size), indexing="ij")
    img = np.empty((3, size, size))
    for ch in range(3):
        gy, gx = rng.uniform(-0.25, 0.25, size=2)
        plane = rng.uniform(0.3, 0.7) + gx * (xx - 0.5) + gy * (yy - 0.5)
        texture = np.zeros((size, size))
        for _ in range(_WAVES):
            freq = rng.uniform(2.0, max(2.0, size / 8.0))
            theta, phase = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            texture += np.sin(
                2.0 * np.pi * freq * (np.cos(theta) * xx + np.sin(theta) * yy) + phase
            )
        img[ch] = plane + _TEXTURE_AMPLITUDE * texture / np.sqrt(_WAVES)
    return np.clip(img, 0.0, 1.0)


def seeded_image(seed: int, index: int, size: int, workdir) -> np.ndarray:
    """Image ``index`` of workload seed ``seed`` as a (1, 3, size, size) tensor.

    The same (seed, index, size) always gives the same array.
    """
    rng = np.random.default_rng([seed, index])
    path = os.path.join(workdir, f"input-{index}.ppm")
    ppm.write_image(path, synthetic_image(rng, size))
    return ppm.read_image(path)


def seeded_pair(seed: int, index: int, size: int, workdir) -> tuple[np.ndarray, np.ndarray]:
    """Content/style pair ``index``: images ``2 * index`` and ``2 * index + 1``."""
    return (
        seeded_image(seed, 2 * index, size, workdir),
        seeded_image(seed, 2 * index + 1, size, workdir),
    )
