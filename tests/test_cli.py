"""The command-line driver through ``cli.main(argv)``.

Every subcommand except ``verify`` (whose criteria run in
test_acceptance.py) is checked for exit code 0 and the same stdout on
two runs; failures are checked for exit 1 (runtime error) and exit 2
(bad arguments).
"""

import numpy as np
import pytest

from flowstyle import cli
from flowstyle.checkpoint import save_checkpoint
from flowstyle.flows import (
    FlowNetConfig,
    build_flownet,
    initialize_actnorms,
    randomize_couplings,
)
from flowstyle.ppm import write_image


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    for sub in ("content", "style"):
        (root / sub).mkdir()
        write_image(root / sub / "0.ppm", rng.random((1, 3, 16, 16)))
    model = build_flownet(FlowNetConfig(1, 2, 4, 3, 16, 16), seed=1)
    initialize_actnorms(model, rng.random((2, 3, 16, 16)))
    randomize_couplings(model, seed=2, scale=0.5)
    save_checkpoint(root / "model.ckpt", model)
    return root


def write_config(path, files, **overrides):
    values = dict(
        content_dir=files / "content",
        style_dir=files / "style",
        iterations=1,
        batch_size=1,
        crop_size=16,
        n_blocks=1,
        n_flows=1,
        hidden=2,
    )
    values.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def run(capsys, argv):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def io_args(files, style=True):
    args = ["--content", files / "content" / "0.ppm", "--model", files / "model.ckpt"]
    if style:
        args += ["--style", files / "style" / "0.ppm"]
    return args


def commands(files, out):
    """argv per case, covering every subcommand but verify."""
    return {
        "stylize": ["stylize", *io_args(files), "--out", out / "s.ppm"],
        "stylize-wct": ["stylize", *io_args(files), "--transfer", "wct",
                        "--alpha", "0.5", "--out", out / "s.ppm"],
        "leak-test": ["leak-test", *io_args(files), "--rounds", "2"],
        "reverse": ["reverse", *io_args(files), "--out-stylized", out / "a.ppm",
                    "--out-recovered", out / "b.ppm"],
        "factor": ["factor", *io_args(files, style=False), "--out", out / "f.ppm"],
        "train": ["train", "--config", write_config(out / "train.cfg", files),
                  "--out", out / "trained.ckpt"],
        # The four architectures need a crop of 16; no training steps run.
        "ablate": ["ablate", "--config",
                   write_config(out / "ablate.cfg", files, iterations=0, hidden=1)],
    }


CASES = ["stylize", "stylize-wct", "leak-test", "reverse", "factor", "train", "ablate"]


@pytest.mark.parametrize("case", CASES)
def test_succeeds_with_deterministic_output(files, tmp_path, capsys, case):
    argv = commands(files, tmp_path)[case]
    runs = []
    for _ in range(2):
        code, out, err = run(capsys, argv)
        assert code == 0, err
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix != ".cfg"}
        runs.append((out, written))
    assert runs[0] == runs[1]
    assert runs[0][0]


@pytest.mark.parametrize("case", ["stylize", "leak-test", "reverse", "factor"])
def test_missing_model_exits_1(files, tmp_path, capsys, case):
    argv = commands(files, tmp_path)[case]
    argv[argv.index("--model") + 1] = tmp_path / "absent.ckpt"
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and out == ""


def test_missing_image_exits_1(files, tmp_path, capsys):
    argv = commands(files, tmp_path)["stylize"]
    argv[argv.index("--style") + 1] = tmp_path / "absent.ppm"
    assert run(capsys, argv)[0] == 1


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize(
    "bad, key",
    [
        ({"iterations": "abc"}, "iterations"),
        ({"learning_rate": "fast"}, "learning_rate"),
        ({"hidden": "2.5"}, "hidden"),
        ({"iteratons": "5"}, "iteratons"),
        ({"content_dir": "/nonexistent-dir"}, "/nonexistent-dir"),
        ({"learning_rate": "nan"}, "learning_rate"),
        ({"seed": "-1"}, "seed"),
    ],
    ids=["non-numeric", "non-float", "non-integer", "misspelled", "missing-dir",
         "non-finite", "negative-seed"],
)
def test_bad_config_exits_1(files, tmp_path, capsys, command, bad, key):
    config = write_config(tmp_path / "bad.cfg", files, **bad)
    argv = [command, "--config", config]
    if command == "train":
        argv += ["--out", tmp_path / "never.ckpt"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "never.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_non_utf8_config_exits_1(tmp_path, capsys, command):
    config = tmp_path / "binary.cfg"
    config.write_bytes(b"iterations=1\n\xff\xfe=3\n")
    argv = [command, "--config", config]
    if command == "train":
        argv += ["--out", tmp_path / "never.ckpt"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and str(config) in err and "UTF-8" in err
    assert not (tmp_path / "never.ckpt").exists()


def test_missing_config_key_exits_1(files, tmp_path, capsys):
    config = tmp_path / "no-style.cfg"
    config.write_text(f"content_dir = {files / 'content'}\n")
    code, _, err = run(capsys, ["ablate", "--config", config])
    assert code == 1 and "style_dir" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["paint"],
        ["stylize", "--content", "c.ppm"],
        ["stylize", "--content", "c.ppm", "--style", "s.ppm", "--model", "m.ckpt",
         "--out", "o.ppm", "--transfer", "gram"],
        ["leak-test", "--content", "c.ppm", "--style", "s.ppm", "--model", "m.ckpt",
         "--rounds", "many"],
        ["train", "--config"],
    ],
    ids=["no-command", "unknown-command", "missing-args", "bad-choice", "bad-int",
         "missing-value"],
)
def test_bad_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == "" and err
