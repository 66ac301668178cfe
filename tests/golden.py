"""Bit-identity table of the outputs whose bits the package keeps.

    PYTHONPATH=src python tests/golden.py           # check every entry
    PYTHONPATH=src python tests/golden.py --update  # rewrite this env's row

An entry is the sha256 of one output's bytes: a stylized image, a leak
test's SSIM and drift values, a checkpoint file, a training log or a
trained model's parameters. Each group of entries builds its inputs from
its own seed, so adding a group never shifts another group's inputs.

The table, ``golden.json``, maps an environment key (the numpy version,
BLAS build and machine that a BENCH point's ``env`` records) to the
entries' hashes, as another build may round differently. Running the
script checks every entry against the row of the environment it runs
in, and fails when that row is missing. ``--update`` writes the row
from the outputs just built and prints which entries moved. A change
that moves a bit on purpose updates the row and says which outputs
moved. ``tests/test_golden.py`` recomputes the cheap groups in tier-1;
the paper-scale groups (stylize at 256, training at crop 128) run only
from this script.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

from flowstyle import checkpoint, experiments, flows, training, transfer

TABLE = Path(__file__).resolve().with_name("golden.json")
KINDS = {"adain": transfer.ADAIN, "wct": transfer.WCT, "patchswap": transfer.PATCHSWAP}
REVERSIBLE = ("adain", "wct")
LEAK_ROUNDS = 3


def env_key() -> str:
    """The numpy version, BLAS build and machine, as BENCH points record them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return f"numpy {np.__version__}, {blas}, {platform.machine()}"


def digest(*parts) -> str:
    """sha256 over ``parts``: each array's shape and bytes, each string's UTF-8."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr(part.shape).encode())
            part = np.ascontiguousarray(part).tobytes()
        elif isinstance(part, str):
            part = part.encode()
        h.update(part)
    return h.hexdigest()


def images(seed, n, size):
    """``n`` (1, 3, size, size) images of uniform noise on the 8-bit grid
    of a PPM file."""
    rng = np.random.default_rng(seed)
    return [np.round(rng.random((1, 3, size, size)) * 255.0) / 255.0 for _ in range(n)]


def paper_model(seed, size, batch):
    """flow8-block2, hidden 64, actnorms initialized on ``batch``, couplings
    randomized (fresh couplings are the identity and run no conv)."""
    config = flows.named_config("flow8-block2", in_height=size, in_width=size, hidden=64)
    model = flows.build_flownet(config, seed=seed)
    flows.initialize_actnorms(model, batch)
    flows.randomize_couplings(model, seed=seed + 1)
    return model


def inference_64():
    """Every experiment at 64x64: stylize and a 3-round leak test per
    kind, reverse transfer and the content factor image per reversible
    kind, and the model's checkpoint bytes."""
    content, style = images(6400, 2, 64)
    model = paper_model(6400, 64, content)
    got = {}
    for name, kind in KINDS.items():
        got[f"stylize-{name}-64"] = digest(experiments.stylize(model, kind, content, style))
        report = experiments.leak_test(model, kind, content, style, LEAK_ROUNDS)
        got[f"leak-{name}-64"] = digest(np.array(report.ssim_vs_first + report.drift_vs_first))
    for name in REVERSIBLE:
        kind = KINDS[name]
        got[f"reverse-{name}-64"] = digest(*experiments.reverse_transfer(model, kind, content, style))
        got[f"content-factor-{name}-64"] = digest(
            experiments.content_factor_image(model, kind, content)
        )
    got["checkpoint-64"] = digest(checkpoint.checkpoint_bytes(model))
    return got


def stylize_256():
    """Stylize with each kind at paper scale (256x256)."""
    content, style = images(25600, 2, 256)
    model = paper_model(25600, 256, content)
    return {
        f"stylize-{name}-256": digest(experiments.stylize(model, kind, content, style))
        for name, kind in KINDS.items()
    }


def trained(prefix, seed, config, image_size, steps):
    """The log, parameters and checkpoint bytes after ``steps`` training
    steps (batch 2, crop ``config.in_height``) over 4 pairs of
    ``image_size`` images."""
    pics = images(seed, 8, image_size)
    pairs = [(pics[i][0], pics[i + 1][0]) for i in range(0, 8, 2)]
    model = flows.build_flownet(config, seed=seed)
    cfg = training.TrainConfig(
        iterations=steps, batch_size=2, crop_size=config.in_height, seed=seed
    )
    log = io.StringIO()
    training.train(model, cfg, pairs, lossnet=training.build_lossnet(seed, 3), log_stream=log)
    params = [part for name, a in model.params.items() for part in (name, a)]
    return {
        f"{prefix}.log": digest(log.getvalue()),
        f"{prefix}.params": digest(*params),
        f"{prefix}.checkpoint": digest(checkpoint.checkpoint_bytes(model)),
    }


def train_tiny():
    """Criterion 7's tiny model (1 block, 2 flows, hidden 8, crop 16), 20 steps."""
    return trained("train-tiny", 1600, flows.FlowNetConfig(1, 2, 8, 3, 16, 16), 16, 20)


def train_32():
    """flow8-block2, hidden 64, crop 32, 3 steps."""
    return trained("train-32", 3200, flows.named_config("flow8-block2", 3, 32, 32), 64, 3)


def train_128():
    """flow8-block2, hidden 64, crop 128, 2 steps."""
    return trained("train-128", 12800, flows.named_config("flow8-block2", 3, 128, 128), 128, 2)


# Each group: (builder, whether tier-1 recomputes it).
GROUPS = {
    "inference-64": (inference_64, True),
    "train-tiny": (train_tiny, True),
    "train-32": (train_32, True),
    "stylize-256": (stylize_256, False),
    "train-128": (train_128, False),
}


def load() -> dict:
    return json.loads(TABLE.read_text()) if TABLE.exists() else {}


def moved(row, got) -> list[str]:
    """The entries of ``got`` whose hash differs from ``row``'s (or that ``row`` lacks)."""
    return sorted(name for name, value in got.items() if (row or {}).get(name) != value)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--update", action="store_true", help="rewrite this env's row")
    args = p.parse_args(argv)
    table, key = load(), env_key()
    row = table.get(key)
    got = {}
    for name, (build, _) in GROUPS.items():
        got.update(build())
        print(f"built {name}", flush=True)
    changed = moved(row, got)
    if row is None:
        print(f"no row for env {key!r}")
    else:
        for name in changed:
            print(f"moved: {name}")
    if args.update:
        table[key] = dict(sorted(got.items()))
        TABLE.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
        print(f"wrote {len(got)} entries for env {key!r}")
        return 0
    if row is None or changed:
        return 1
    print(f"all {len(got)} entries match for env {key!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
