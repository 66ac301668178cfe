"""The malformed-input contract of the public API and the CLI.

Every name in ``flowstyle.__all__`` that takes an array or a count, and
every CLI subcommand, is crossed with a grammar of malformed inputs:
complex, bool, object and string dtypes; NaN and inf; an empty batch or
no channels; another rank; other channels; an autodiff Var where only
arrays work; non-integer, negative and ``True`` counts; non-finite,
bool, string and out-of-range real numbers; a transfer kind that is
not a ``TransferKind``; a network config that is not a
``FlowNetConfig``; and an init state that is not a bool. Each case must
raise a ``FlowStyleError`` subclass with warnings turned into errors, so
that a ComplexWarning or a bare numpy error fails it.

Valid but unusual arrays (float32, uint8, Fortran order, strided and
negative-stride views) must give the bits of their float64 C-contiguous
copy. The completeness tests fail when a public name or a subcommand has
no row here; a name with no array or count argument has an exempt row
that says why.
"""

import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

import flowstyle
import flowstyle.autodiff as ad
from flowstyle import cli
from flowstyle.checkpoint import save_checkpoint
from flowstyle.errors import FlowStyleError
from flowstyle.experiments import (
    ablation_run,
    content_factor_image,
    leak_test,
    reverse_transfer,
    stylize,
)
from flowstyle.flows import (
    FlowNet,
    FlowNetConfig,
    build_flownet,
    initialize_actnorms,
    named_config,
    randomize_couplings,
)
from flowstyle.metrics import evaluate_stylization, gram_loss, recon_error, ssim
from flowstyle.ppm import write_image
from flowstyle.training import (
    AdamState,
    LossNet,
    TrainConfig,
    build_lossnet,
    train,
    train_step,
)
from flowstyle.transfer import (
    ADAIN,
    PATCHSWAP,
    WCT,
    TransferKind,
    adain,
    channel_stats,
    cov_factor,
    patch_swap,
    transfer_apply,
    wct,
)

CONFIG = FlowNetConfig(1, 1, 4, 3, 16, 16)
SIZE = 16


def make_model():
    model = build_flownet(CONFIG, seed=5)
    initialize_actnorms(model, np.random.default_rng(6).random((2, 3, SIZE, SIZE)))
    randomize_couplings(model, seed=7)
    return model


MODEL = make_model()
LOSSNET = build_lossnet(0)
RNG = np.random.default_rng(8)
IMAGE = RNG.random((1, 3, SIZE, SIZE))
STYLE = RNG.random((1, 3, SIZE, SIZE))
LATENT = MODEL.forward(IMAGE)
STYLE_LATENT = MODEL.forward(STYLE)
TRAIN_CFG = TrainConfig(iterations=1, batch_size=1, crop_size=SIZE)
# Where write_image's rows write; a fresh path per test (``out_path``).
TMP_IMAGE = None


def with_value(x, value):
    x = x.copy()
    x.flat[x.size // 2] = value
    return x


# Each malformed array from a valid (B, C, H, W) float64 array.
MALFORMED_ARRAYS = {
    "complex": lambda x: x + 1j,
    "bool": lambda x: x > 0.5,
    "object": lambda x: x.astype(object),
    "string": lambda x: x.astype(str),
    "nan": lambda x: with_value(x, np.nan),
    "inf": lambda x: with_value(x, np.inf),
    "empty batch": lambda x: x[:0],
    "no channels": lambda x: x[:, :0],
    "rank": lambda x: x[0, 0],
    "channels": lambda x: x[:, :2],
    "var": lambda x: ad.Var(x, ad.Tape()),
}

VAR_ACCEPTED = "an autodiff Var is a valid operand here"
ANY_CHANNELS = "any channel count is valid here"


def pair_source(content=IMAGE, style=STYLE):
    return [(content, style)]


# (public name, argument): (call with that argument malformed, the valid
# argument, {malformed case that is valid input: reason}).
ARRAY_ARGS = {
    ("stylize", "content"): (lambda v: stylize(MODEL, ADAIN, v, STYLE), IMAGE, {}),
    ("stylize", "style"): (lambda v: stylize(MODEL, WCT, IMAGE, v), STYLE, {}),
    ("leak_test", "content"): (lambda v: leak_test(MODEL, ADAIN, v, STYLE, 2), IMAGE, {}),
    ("leak_test", "style"): (lambda v: leak_test(MODEL, PATCHSWAP, IMAGE, v, 2), STYLE, {}),
    ("reverse_transfer", "content"): (
        lambda v: reverse_transfer(MODEL, ADAIN, v, STYLE), IMAGE, {}),
    ("reverse_transfer", "style"): (
        lambda v: reverse_transfer(MODEL, WCT, IMAGE, v), STYLE, {}),
    ("content_factor_image", "content"): (
        lambda v: content_factor_image(MODEL, WCT, v), IMAGE, {}),
    ("recon_error", "image"): (lambda v: recon_error(MODEL, v), IMAGE, {}),
    ("ssim", "a"): (lambda v: ssim(v, STYLE), IMAGE, {}),
    ("ssim", "b"): (lambda v: ssim(IMAGE, v), STYLE, {}),
    ("gram_loss", "a"): (lambda v: gram_loss(v, STYLE, LOSSNET), IMAGE, {}),
    ("gram_loss", "b"): (lambda v: gram_loss(IMAGE, v, LOSSNET), STYLE, {}),
    ("evaluate_stylization", "content"): (
        lambda v: evaluate_stylization(MODEL, LOSSNET, v, STYLE, IMAGE), IMAGE, {}),
    ("evaluate_stylization", "style"): (
        lambda v: evaluate_stylization(MODEL, LOSSNET, IMAGE, v, IMAGE), STYLE, {}),
    ("evaluate_stylization", "stylized"): (
        lambda v: evaluate_stylization(MODEL, LOSSNET, IMAGE, STYLE, v), IMAGE, {}),
    ("initialize_actnorms", "batch"): (
        lambda v: initialize_actnorms(build_flownet(CONFIG), v), IMAGE, {}),
    ("write_image", "t"): (lambda v: write_image(TMP_IMAGE, v), IMAGE, {}),
    ("FlowNet", "forward"): (lambda v: MODEL.forward(v), IMAGE, {"var": VAR_ACCEPTED}),
    ("FlowNet", "inverse"): (lambda v: MODEL.inverse(v), LATENT, {"var": VAR_ACCEPTED}),
    ("FlowNet", "params"): (
        lambda v: FlowNet(CONFIG, {**MODEL.params, "b0.f0.coupling.w1": v}),
        MODEL.params["b0.f0.coupling.w1"], {}),
    ("LossNet", "kernels"): (
        lambda v: LossNet((v,) + LOSSNET.kernels[1:], LOSSNET.biases),
        LOSSNET.kernels[0],
        {"channels": "the first kernel sets the LossNet's input channel count"}),
    ("LossNet", "features"): (lambda v: LOSSNET.features(v), IMAGE, {"var": VAR_ACCEPTED}),
    ("train", "content"): (
        lambda v: train(make_model(), TRAIN_CFG, pair_source(content=v)), IMAGE, {}),
    ("train", "style"): (
        lambda v: train(make_model(), TRAIN_CFG, pair_source(style=v)), STYLE, {}),
    ("train_step", "content"): (
        lambda v: train_step(make_model(), LOSSNET, (v, STYLE), TRAIN_CFG,
                             AdamState.for_params(MODEL.params)), IMAGE, {}),
    ("train_step", "style"): (
        lambda v: train_step(make_model(), LOSSNET, (IMAGE, v), TRAIN_CFG,
                             AdamState.for_params(MODEL.params)), STYLE, {}),
    ("ablation_run", "evaluation content"): (
        lambda v: ablation_run([CONFIG], pair_source(), [(v, STYLE)], TRAIN_CFG), IMAGE, {}),
    ("ablation_run", "training style"): (
        lambda v: ablation_run([CONFIG], pair_source(style=v), [(IMAGE, STYLE)], TRAIN_CFG),
        STYLE, {}),
    ("adain", "f_c"): (lambda v: adain(v, STYLE_LATENT), LATENT, {"var": VAR_ACCEPTED}),
    ("adain", "f_s"): (lambda v: adain(LATENT, v), STYLE_LATENT, {"var": VAR_ACCEPTED}),
    ("channel_stats", "f"): (
        channel_stats, LATENT, {"channels": ANY_CHANNELS}),
    ("cov_factor", "f"): (cov_factor, LATENT, {"channels": ANY_CHANNELS}),
    ("wct", "f_c"): (lambda v: wct(v, STYLE_LATENT), LATENT, {}),
    ("wct", "f_s"): (lambda v: wct(LATENT, v), STYLE_LATENT, {}),
    ("patch_swap", "f_c"): (lambda v: patch_swap(v, STYLE_LATENT), LATENT, {}),
    ("patch_swap", "f_s"): (lambda v: patch_swap(LATENT, v), STYLE_LATENT, {}),
    ("transfer_apply", "f_c"): (
        lambda v: transfer_apply(ADAIN, v, STYLE_LATENT, 0.5), LATENT, {}),
    ("transfer_apply", "f_s"): (
        lambda v: transfer_apply(PATCHSWAP, LATENT, v), STYLE_LATENT, {}),
}

# Each malformed count: not an integer, below any bound here, a bool.
MALFORMED_COUNTS = {"non-integer": 2.5, "negative": -1, "true": True}

LAYER_COUNTS = dict(n_blocks=1, n_flows=1, hidden=4, in_channels=3, in_height=16, in_width=16)

COUNT_ARGS = {
    **{("FlowNetConfig", name): (lambda v, name=name: FlowNetConfig(**{**LAYER_COUNTS, name: v}))
       for name in LAYER_COUNTS},
    **{("named_config", name): (lambda v, name=name: named_config("flow8-block2", **{name: v}))
       for name in ("in_channels", "in_height", "in_width", "hidden")},
    ("build_flownet", "seed"): lambda v: build_flownet(CONFIG, seed=v),
    ("build_lossnet", "seed"): lambda v: build_lossnet(v),
    ("build_lossnet", "in_channels"): lambda v: build_lossnet(0, v),
    ("build_lossnet", "widths"): lambda v: build_lossnet(0, 3, (4, v)),
    **{("TrainConfig", name): (lambda v, name=name: TrainConfig(**{name: v}))
       for name in ("iterations", "batch_size", "crop_size", "seed")},
    ("TransferKind", "patch_size"): lambda v: TransferKind("patchswap", patch_size=v),
    ("TransferKind", "stride"): lambda v: TransferKind("patchswap", stride=v),
    ("patch_swap", "patch_size"): lambda v: patch_swap(LATENT, STYLE_LATENT, patch_size=v),
    ("patch_swap", "stride"): lambda v: patch_swap(LATENT, STYLE_LATENT, stride=v),
    ("leak_test", "rounds"): lambda v: leak_test(MODEL, ADAIN, IMAGE, STYLE, rounds=v),
}

# Each malformed real number, for arguments that lie in [0, 1] or in
# [0, inf).
MALFORMED_REALS = {
    "nan": float("nan"), "inf": float("inf"), "true": True, "string": "0.5",
    "complex": 0.5j, "none": None, "negative": -0.5,
}

REAL_ARGS = {
    ("stylize", "alpha"): lambda v: stylize(MODEL, ADAIN, IMAGE, STYLE, alpha=v),
    ("leak_test", "alpha"): lambda v: leak_test(MODEL, WCT, IMAGE, STYLE, 2, alpha=v),
    ("transfer_apply", "alpha"): lambda v: transfer_apply(ADAIN, LATENT, STYLE_LATENT, v),
    **{("TrainConfig", name): (lambda v, name=name: TrainConfig(**{name: v}))
       for name in ("learning_rate", "lr_decay", "lambda_content", "lambda_style")},
}

# Each malformed transfer kind, built when its case runs: a kind's name
# instead of a TransferKind, no kind, and a patch-swap kind whose stride
# exceeds its patch (which the kind rejects when it is built).
MALFORMED_KINDS = {
    "string": lambda: "wct", "none": lambda: None,
    "stride-beyond-patch": lambda: TransferKind("patchswap", patch_size=3, stride=5),
}

KIND_ARGS = {
    "transfer_apply": lambda v: transfer_apply(v, LATENT, STYLE_LATENT),
    "stylize": lambda v: stylize(MODEL, v, IMAGE, STYLE),
    "leak_test": lambda v: leak_test(MODEL, v, IMAGE, STYLE, 2),
    "reverse_transfer": lambda v: reverse_transfer(MODEL, v, IMAGE, STYLE),
    "content_factor_image": lambda v: content_factor_image(MODEL, v, IMAGE),
}

# Public names that take no array or count of their own.
EXEMPT = {
    "ADAIN": "a TransferKind constant",
    "PATCHSWAP": "a TransferKind constant",
    "WCT": "a TransferKind constant",
    "FlowStyleError": "the exception base class",
    "LeakReport": "a record of leak_test's computed results",
    "MetricReport": "a record of computed metrics; its finiteness check is "
                    "fault detection on computed values",
    "AdamState": "optimizer state whose moments for_params builds from a "
                 "model's own, already checked, parameters",
    "load_checkpoint": "takes a path; malformed checkpoint bytes are "
                       "test_io.py's fuzz and corruption tests",
    "read_image": "takes a path; malformed PPM bytes are test_io.py's fuzz "
                  "and header tests",
    "save_checkpoint": "takes a path and a built model",
}


@pytest.fixture(autouse=True)
def out_path(tmp_path, monkeypatch):
    monkeypatch.setattr(f"{__name__}.TMP_IMAGE", tmp_path / "out.ppm")


def expect_typed_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlowStyleError):
            call()


ARRAY_CASES = [
    (entry, case)
    for entry, (_, _, valid_cases) in ARRAY_ARGS.items()
    for case in MALFORMED_ARRAYS
    if case not in valid_cases
]


@pytest.mark.parametrize(
    "entry,case", ARRAY_CASES, ids=[f"{e[0]}-{e[1]}-{c}" for e, c in ARRAY_CASES]
)
def test_malformed_array_raises_a_typed_error(entry, case):
    call, valid, _ = ARRAY_ARGS[entry]
    expect_typed_error(lambda: call(MALFORMED_ARRAYS[case](valid)))
    if entry[0] == "write_image":
        assert not TMP_IMAGE.exists()


COUNT_CASES = [(entry, case) for entry in COUNT_ARGS for case in MALFORMED_COUNTS]


@pytest.mark.parametrize(
    "entry,case", COUNT_CASES, ids=[f"{e[0]}-{e[1]}-{c}" for e, c in COUNT_CASES]
)
def test_malformed_count_raises_a_typed_error(entry, case):
    expect_typed_error(lambda: COUNT_ARGS[entry](MALFORMED_COUNTS[case]))


REAL_CASES = [(entry, case) for entry in REAL_ARGS for case in MALFORMED_REALS]


@pytest.mark.parametrize(
    "entry,case", REAL_CASES, ids=[f"{e[0]}-{e[1]}-{c}" for e, c in REAL_CASES]
)
def test_malformed_real_raises_a_typed_error(entry, case):
    expect_typed_error(lambda: REAL_ARGS[entry](MALFORMED_REALS[case]))


KIND_CASES = [(entry, case) for entry in KIND_ARGS for case in MALFORMED_KINDS]


@pytest.mark.parametrize("entry,case", KIND_CASES, ids=[f"{e}-{c}" for e, c in KIND_CASES])
def test_malformed_kind_raises_before_any_walk(entry, case, monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("a flow walk ran before the kind was checked")

    monkeypatch.setattr(FlowNet, "_walk", walk)
    expect_typed_error(lambda: KIND_ARGS[entry](MALFORMED_KINDS[case]()))


# Each malformed network config, built when its case runs: an
# architecture's name instead of a FlowNetConfig, no config, and the
# config's fields as a tuple.
MALFORMED_CONFIGS = {
    "string": lambda: "flow8-block2", "none": lambda: None,
    "tuple": lambda: dataclasses.astuple(CONFIG),
}

CONFIG_ARGS = {
    "build_flownet": lambda v: build_flownet(v),
    "FlowNet": lambda v: FlowNet(v, MODEL.params),
    "ablation_run": lambda v: ablation_run([v], pair_source(), pair_source(), TRAIN_CFG),
}

CONFIG_CASES = [(entry, case) for entry in CONFIG_ARGS for case in MALFORMED_CONFIGS]


@pytest.mark.parametrize("entry,case", CONFIG_CASES, ids=[f"{e}-{c}" for e, c in CONFIG_CASES])
def test_malformed_config_raises_a_typed_error(entry, case):
    expect_typed_error(lambda: CONFIG_ARGS[entry](MALFORMED_CONFIGS[case]()))


# Each malformed init state of a FlowNet, which must be True or False.
MALFORMED_FLAGS = {"int": 1, "none": None, "string": "yes", "numpy bool": np.True_}


@pytest.mark.parametrize("case", list(MALFORMED_FLAGS))
def test_malformed_init_flag_raises_a_typed_error(case):
    flag = MALFORMED_FLAGS[case]
    expect_typed_error(lambda: FlowNet(CONFIG, MODEL.params, initialized=flag))


def test_valid_arguments_pass():
    """The templates the malformed cases start from are valid input."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry, (call, valid, _) in ARRAY_ARGS.items():
            call(valid)
        for (_, name), call in COUNT_ARGS.items():
            call(3 if name in ("patch_size", "stride") else 4)
        for call in REAL_ARGS.values():
            call(0.5)
        for call in KIND_ARGS.values():
            call(WCT)
        for call in CONFIG_ARGS.values():
            call(CONFIG)
        for flag in (True, False):
            assert FlowNet(CONFIG, MODEL.params, initialized=flag).initialized is flag


def test_stride_beyond_the_patch_raises_instead_of_nan():
    """Positions between patches would be 0/0: a NaN, not an error."""
    for size, stride in ((3, 4), (1, 2)):
        expect_typed_error(lambda: transfer_apply(
            TransferKind("patchswap", size, stride), LATENT, STYLE_LATENT))
        expect_typed_error(lambda: patch_swap(LATENT, STYLE_LATENT, size, stride))


def test_every_public_name_has_a_row():
    rows = {name for name, _ in (*ARRAY_ARGS, *COUNT_ARGS, *REAL_ARGS)}
    assert not rows & set(EXEMPT)
    assert sorted(set(flowstyle.__all__) - rows - set(EXEMPT)) == []
    assert sorted((rows | set(EXEMPT)) - set(flowstyle.__all__)) == []


# ---------------------------------------------------------------------------
# unusual but valid arrays


UNUSUAL = {
    "float32": lambda x: x.astype(np.float32),
    "uint8": lambda x: np.round(255 * x).astype(np.uint8),
    "fortran": np.asfortranarray,
    "strided": lambda x: np.repeat(x, 2, axis=-1)[..., ::2],
    "negative stride": lambda x: x[..., ::-1],
}


def bits(result):
    """The bytes of a result: arrays, floats and records of them."""
    if dataclasses.is_dataclass(result):
        return bits(dataclasses.astuple(result))
    if isinstance(result, (tuple, list)):
        return b"".join(bits(r) for r in result)
    if hasattr(result, "mat"):
        return bits(result.mat)
    return np.ascontiguousarray(result, dtype=np.float64).tobytes()


def initialized_params(batch):
    model = build_flownet(CONFIG)
    initialize_actnorms(model, batch)
    return list(model.params.values())


UNUSUAL_ENTRIES = {
    ("stylize", "content"): lambda v: stylize(MODEL, ADAIN, v, STYLE),
    ("stylize", "style"): lambda v: stylize(MODEL, WCT, IMAGE, v),
    ("leak_test", "content"): lambda v: leak_test(MODEL, PATCHSWAP, v, STYLE, 2),
    ("reverse_transfer", "style"): lambda v: reverse_transfer(MODEL, ADAIN, IMAGE, v),
    ("content_factor_image", "content"): lambda v: content_factor_image(MODEL, ADAIN, v),
    ("recon_error", "image"): lambda v: recon_error(MODEL, v),
    ("ssim", "a"): lambda v: ssim(v, STYLE),
    ("gram_loss", "b"): lambda v: gram_loss(IMAGE, v, LOSSNET),
    ("initialize_actnorms", "batch"): lambda v: initialized_params(v),
    ("FlowNet", "forward"): lambda v: MODEL.forward(v),
    ("adain", "f_s"): lambda v: adain(LATENT, v),
    ("channel_stats", "f"): channel_stats,
    ("cov_factor", "f"): cov_factor,
    ("wct", "f_c"): lambda v: wct(v, STYLE_LATENT),
    ("patch_swap", "f_s"): lambda v: patch_swap(LATENT, v),
    ("transfer_apply", "f_c"): lambda v: transfer_apply(ADAIN, v, STYLE_LATENT, 0.25),
}


@pytest.mark.parametrize("layout", sorted(UNUSUAL))
@pytest.mark.parametrize(
    "entry", list(UNUSUAL_ENTRIES), ids=[f"{n}-{a}" for n, a in UNUSUAL_ENTRIES]
)
def test_unusual_array_gives_the_bits_of_its_float64_copy(entry, layout):
    call = UNUSUAL_ENTRIES[entry]
    valid = ARRAY_ARGS[entry][1]
    if entry[0] in ("adain", "channel_stats", "cov_factor", "wct", "patch_swap",
                    "transfer_apply"):
        valid = (valid - valid.min()) / (valid.max() - valid.min())
    unusual = UNUSUAL[layout](valid)
    copy = np.ascontiguousarray(unusual, dtype=np.float64)
    assert copy.flags.c_contiguous and copy.dtype == np.float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bits(call(unusual)) == bits(call(copy))


def test_write_image_of_an_unusual_array_writes_the_bytes_of_its_copy(tmp_path):
    for name, layout in UNUSUAL.items():
        unusual = layout(IMAGE)
        write_image(tmp_path / "a.ppm", unusual)
        write_image(tmp_path / "b.ppm", np.ascontiguousarray(unusual, dtype=np.float64))
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes(), name


# ---------------------------------------------------------------------------
# the CLI


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract-cli")
    for sub, image in (("content", IMAGE), ("style", STYLE)):
        (root / sub).mkdir()
        write_image(root / sub / "0.ppm", image)
    write_image(root / "odd.ppm", np.random.default_rng(9).random((1, 3, 15, 16)))
    save_checkpoint(root / "model.ckpt", MODEL)
    return root


TRAIN_KEYS = dict(iterations=1, batch_size=1, crop_size=16, n_blocks=1, n_flows=1, hidden=2)

# Subcommand: malformed flags, or config values, each with the expected
# outcome: "usage" for argparse's exit 2, "error" for a FlowStyleError
# (exit 1).
CLI_CASES = {
    "stylize": [
        (["--alpha", "nan"], "error"), (["--alpha", "inf"], "error"),
        (["--alpha", "1.5"], "error"), (["--stride", "0"], "usage"),
        (["--patch-size", "-1"], "usage"), (["--patch-size", "2.5"], "usage"),
        (["--content", "odd.ppm"], "error"),
        (["--transfer", "patchswap", "--stride", "0"], "error"),
        (["--transfer", "patchswap", "--patch-size", "-1"], "error"),
        (["--transfer", "wct", "--patch-size", "3"], "usage"),
    ],
    "leak-test": [
        (["--rounds", "0"], "error"), (["--rounds", "-1"], "error"),
        (["--rounds", "2.5"], "usage"), (["--alpha", "nan"], "error"),
        (["--style", "odd.ppm"], "error"), (["--stride", "1"], "usage"),
        (["--transfer", "patchswap", "--stride", "0"], "error"),
    ],
    "reverse": [
        (["--stride", "0"], "usage"), (["--patch-size", "2"], "usage"),
        (["--transfer", "patchswap"], "usage"), (["--content", "odd.ppm"], "error"),
    ],
    "factor": [
        (["--patch-size", "0"], "usage"), (["--transfer", "patchswap"], "usage"),
        (["--content", "odd.ppm"], "error"),
    ],
    "train": [
        ({"iterations": -1}, "error"), ({"batch_size": True}, "error"),
        ({"batch_size": 2.5}, "error"), ({"learning_rate": "nan"}, "error"),
        ({"lambda_style": "inf"}, "error"), ({"hidden": 0}, "error"),
        ({"crop_size": -16}, "error"), ({"seed": -1}, "error"),
    ],
    "ablate": [
        ({"hidden": -1}, "error"), ({"crop_size": 24}, "error"),
        ({"learning_rate": "nan"}, "error"),
    ],
}
CLI_EXEMPT = {"verify": "takes no input"}

CLI_ROWS = [(cmd, i) for cmd, cases in CLI_CASES.items() for i in range(len(cases))]


def cli_argv(root, command, bad):
    if isinstance(bad, dict):
        values = {"content_dir": root / "content", "style_dir": root / "style",
                  **TRAIN_KEYS, **bad}
        config = root / f"{command}-{'-'.join(bad)}.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        argv = [command, "--config", config]
        return argv + (["--out", root / "out.ckpt"] if command == "train" else [])
    flags = {"--content": "content/0.ppm", "--model": "model.ckpt"}
    if command != "factor":
        flags["--style"] = "style/0.ppm"
    outs = {"stylize": ["--out"], "reverse": ["--out-stylized", "--out-recovered"],
            "factor": ["--out"]}.get(command, [])
    flags.update({flag: f"out{i}.ppm" for i, flag in enumerate(outs)})
    for flag, value in zip(bad[::2], bad[1::2]):
        flags[flag] = value
    argv = [command]
    for flag, value in flags.items():
        path_like = flag in ("--content", "--style", "--model") or flag.startswith("--out")
        argv += [flag, root / value if path_like else value]
    return argv


@pytest.mark.parametrize("command,index", CLI_ROWS, ids=[f"{c}-{i}" for c, i in CLI_ROWS])
def test_malformed_cli_input_is_a_usage_or_typed_error(cli_files, command, index):
    bad, outcome = CLI_CASES[command][index]
    argv = [str(a) for a in cli_argv(cli_files, command, bad)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if outcome == "usage":
            with pytest.raises(SystemExit) as info:
                cli.build_parser().parse_args(argv)
            assert info.value.code == 2
        else:
            args = cli.build_parser().parse_args(argv)
            with pytest.raises(FlowStyleError):
                cli._COMMANDS[command](args)


def test_every_subcommand_has_a_row():
    assert not set(CLI_CASES) & set(CLI_EXEMPT)
    assert set(CLI_CASES) | set(CLI_EXEMPT) == set(cli._COMMANDS)


# ---------------------------------------------------------------------------
# the boundary's structure

# Module-level ``_check_*`` functions that detect faults in values the
# program computes, not in its input.
COMPUTED_VALUE_CHECKS = {
    "_check_scale": "an actnorm scale, which training moves",
    "_check_rebuild": "the input that a walk's backward rebuilt",
}


def test_input_checks_live_in_errors_module():
    """No module but ``errors.py`` tests for complex input or defines a
    module-level ``_check_*`` input helper of its own."""
    found = []
    for path in sorted(Path(flowstyle.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        text = path.read_text()
        if "iscomplexobj" in text:
            found.append(f"{path.name}: iscomplexobj")
        found += [
            f"{path.name}: {node.name}"
            for node in ast.parse(text).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_check_")
            and node.name not in COMPUTED_VALUE_CHECKS
        ]
    assert found == []
