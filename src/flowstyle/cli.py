"""Command-line driver.

Subcommands: stylize, train, leak-test, reverse, factor, verify, ablate.
Usage problems exit 2 (argparse), runtime failures print to stderr and
exit 1, success exits 0. All stdout output is deterministic given the
same inputs, flags, and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import acceptance
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import FlowStyleError, ShapeError
from .experiments import (
    ablation_run,
    content_factor_image,
    leak_test,
    reverse_transfer,
    stylize,
)
from .flows import NAMED_ARCHITECTURES, SQUEEZE_FACTOR, FlowNetConfig, build_flownet, named_config
from .ppm import read_image, write_image
from .training import TrainConfig, build_lossnet, train
from .transfer import TransferKind


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: a patch flag given with a transfer other
    than patchswap is a usage error, not a flag to ignore."""

    def parse_known_args(self, args=None, namespace=None):
        args, rest = super().parse_known_args(args, namespace)
        patch = (getattr(args, f, None) for f in ("patch_size", "stride"))
        if any(v is not None for v in patch) and args.transfer != "patchswap":
            self.error("--patch-size and --stride apply only to --transfer patchswap")
        return args, rest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowstyle",
        description="Reversible-flow style transfer: stylize, train, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    def add_model_io(p, style=True, patchswap=True):
        p.add_argument("--content", required=True, help="content image (binary PPM)")
        if style:
            p.add_argument("--style", required=True, help="style image (binary PPM)")
        p.add_argument("--model", required=True, help="checkpoint file")
        p.add_argument(
            "--transfer",
            choices=["adain", "wct", "patchswap"] if patchswap else ["adain", "wct"],
            default="adain",
            help="feature transfer module",
        )
        p.add_argument(
            "--center-crop",
            action="store_true",
            help="center-crop inputs down to the nearest valid multiple",
        )
        if patchswap:
            p.add_argument("--patch-size", type=int, help="patchswap only (default 3)")
            p.add_argument("--stride", type=int, help="patchswap only (default 1)")

    p = sub.add_parser("stylize", help="transfer a style onto a content image")
    add_model_io(p)
    p.add_argument("--alpha", type=float, default=1.0, help="blend weight in [0,1]")
    p.add_argument("--out", required=True, help="output image path")

    p = sub.add_parser("train", help="train a model from a key=value config file")
    p.add_argument("--config", required=True, help="key=value text config")
    p.add_argument("--out", required=True, help="checkpoint output path")

    p = sub.add_parser("leak-test", help="repeat stylization and report drift")
    add_model_io(p)
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--alpha", type=float, default=1.0)

    p = sub.add_parser("reverse", help="stylize, then recover the content image")
    add_model_io(p, patchswap=False)
    p.add_argument("--out-stylized", required=True)
    p.add_argument("--out-recovered", required=True)

    p = sub.add_parser("factor", help="decode the style-free content factor")
    add_model_io(p, style=False, patchswap=False)
    p.add_argument("--out", required=True)

    sub.add_parser("verify", help="run the full acceptance/invariant suite")

    p = sub.add_parser("ablate", help="train and compare the named architectures")
    p.add_argument("--config", required=True, help="key=value text config")

    return parser


def _transfer_kind(args) -> TransferKind:
    patch = {k: getattr(args, k, None) for k in ("patch_size", "stride")}
    return TransferKind(args.transfer, **{k: v for k, v in patch.items() if v is not None})


def _load_inputs(args, model, style=True):
    multiple = SQUEEZE_FACTOR**model.config.n_blocks
    content = read_image(args.content)
    images = [content]
    if style:
        images.append(read_image(args.style))
    if args.center_crop:
        images = [_center_crop(img, multiple) for img in images]
    return images


def _center_crop(img: np.ndarray, multiple: int) -> np.ndarray:
    h, w = img.shape[2], img.shape[3]
    h2, w2 = (h // multiple) * multiple, (w // multiple) * multiple
    if h2 == 0 or w2 == 0:
        raise ShapeError(f"image {h}x{w} too small to crop to a multiple of {multiple}")
    y, x = (h - h2) // 2, (w - w2) // 2
    return img[:, :, y : y + h2, x : x + w2]


# Config keys that are TrainConfig fields; each parses as its default's type.
_TRAIN_FIELDS = dataclasses.fields(TrainConfig)

_CONFIG_DEFAULTS = {
    **{f.name: str(f.default) for f in _TRAIN_FIELDS},
    "n_blocks": "2",
    "n_flows": "8",
    "hidden": "64",
}


_CONFIG_KEYS = {*_CONFIG_DEFAULTS, "content_dir", "style_dir"}


def parse_config_file(path) -> dict:
    """Flat key=value text; '#' starts a comment. Unknown keys are errors."""
    values = dict(_CONFIG_DEFAULTS)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FlowStyleError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FlowStyleError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise FlowStyleError(
                f"{path}:{lineno}: unknown config key '{key}'; "
                f"known: {', '.join(sorted(_CONFIG_KEYS))}"
            )
        values[key] = value
    return values


def _load_pairs(values) -> list:
    for key in ("content_dir", "style_dir"):
        if key not in values:
            raise FlowStyleError(f"config is missing required key '{key}'")
    contents = _read_dir(values["content_dir"])
    styles = _read_dir(values["style_dir"])
    count = max(len(contents), len(styles))
    return [(contents[i % len(contents)], styles[i % len(styles)]) for i in range(count)]


def _read_dir(directory) -> list:
    names = sorted(n for n in os.listdir(directory) if n.endswith(".ppm"))
    if not names:
        raise FlowStyleError(f"no .ppm files in {directory}")
    return [read_image(os.path.join(directory, n))[0] for n in names]


def _number(values, key, kind):
    try:
        return kind(values[key])
    except ValueError:
        raise FlowStyleError(
            f"config key '{key}': expected {kind.__name__}, got {values[key]!r}"
        ) from None


def _train_config(values) -> TrainConfig:
    return TrainConfig(
        **{f.name: _number(values, f.name, type(f.default)) for f in _TRAIN_FIELDS}
    )


def _cmd_stylize(args) -> int:
    model = load_checkpoint(args.model)
    content, style = _load_inputs(args, model)
    out = stylize(model, _transfer_kind(args), content, style, args.alpha)
    write_image(args.out, out)
    print(f"stylize transfer={args.transfer} alpha={args.alpha:g} -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    values = parse_config_file(args.config)
    cfg = _train_config(values)
    pairs = _load_pairs(values)
    model_cfg = FlowNetConfig(
        n_blocks=_number(values, "n_blocks", int),
        n_flows=_number(values, "n_flows", int),
        hidden=_number(values, "hidden", int),
        in_channels=3,
        in_height=cfg.crop_size,
        in_width=cfg.crop_size,
    )
    model = build_flownet(model_cfg, seed=cfg.seed)
    train(model, cfg, pairs, lossnet=build_lossnet(cfg.seed, 3), log_stream=sys.stdout)
    save_checkpoint(args.out, model)
    print(f"saved checkpoint -> {args.out}")
    return 0


def _cmd_leak_test(args) -> int:
    model = load_checkpoint(args.model)
    content, style = _load_inputs(args, model)
    report = leak_test(
        model, _transfer_kind(args), content, style, rounds=args.rounds, alpha=args.alpha
    )
    sys.stdout.write(report.lines())
    return 0


def _cmd_reverse(args) -> int:
    model = load_checkpoint(args.model)
    content, style = _load_inputs(args, model)
    stylized, recovered = reverse_transfer(model, _transfer_kind(args), content, style)
    write_image(args.out_stylized, stylized)
    write_image(args.out_recovered, recovered)
    err = float(np.max(np.abs(recovered - content)))
    print(f"recovery max abs error {err:.17g}")
    return 0


def _cmd_factor(args) -> int:
    model = load_checkpoint(args.model)
    (content,) = _load_inputs(args, model, style=False)
    out = content_factor_image(model, _transfer_kind(args), content)
    write_image(args.out, out)
    print(f"factor transfer={args.transfer} -> {args.out}")
    return 0


def _cmd_verify(_args) -> int:
    results = acceptance.run_all(sys.stdout)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


def _cmd_ablate(args) -> int:
    values = parse_config_file(args.config)
    cfg = _train_config(values)
    pairs = _load_pairs(values)
    size = cfg.crop_size
    configs = [
        named_config(name, 3, size, size, hidden=_number(values, "hidden", int))
        for name in NAMED_ARCHITECTURES
    ]
    eval_pairs = pairs[: min(2, len(pairs))]
    table = ablation_run(configs, pairs, eval_pairs, cfg)
    sys.stdout.write(table)
    return 0


_COMMANDS = {
    "stylize": _cmd_stylize,
    "train": _cmd_train,
    "leak-test": _cmd_leak_test,
    "reverse": _cmd_reverse,
    "factor": _cmd_factor,
    "verify": _cmd_verify,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (FlowStyleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
