"""Seeded mutations of every kind of file the CLI reads, run through
cli.main: each run must exit with a documented code and print at most one
error line, with no traceback and no numpy warning.

Exit 1 means the model produced non-finite values, so it is allowed only
where the mutated file is a model (a weights file or a checkpoint) and the
one error line says so: a bit flip can turn a weight into a finite value
that overflows on the input without making the file malformed."""

import csv
import time
import warnings

import numpy as np
import pytest

import c2f.weights as wts
from c2f.autodiff import Adam
from c2f.cli import main
from c2f.codec import encode_array
from c2f.imageio import encode_png, encode_ppm
from c2f.transforms import ArchConfig, CodecModel

from zoo import heldout_images

MUTATIONS_PER_INPUT = 100
SEED = 11
RUN_SECONDS = 10.0  # one run's bound: every input here is small
# what a model that overflows on its input exits 1 with (README)
NUMERIC_ERRORS = ("error: non-finite ", "error: latent values beyond the coder's int32 range")


def mutate(data: bytes, rng: np.random.Generator) -> tuple[str, bytes]:
    """One bit flip, cut, insert of 1-8 random bytes, or 4-byte overwrite."""
    out = bytearray(data)
    kind = ("flip", "cut", "insert", "overwrite")[rng.integers(4)]
    pos = int(rng.integers(len(out)))
    if kind == "flip":
        out[pos] ^= 1 << int(rng.integers(8))
    elif kind == "cut":
        del out[pos:]
    elif kind == "insert":
        out[pos:pos] = rng.bytes(int(rng.integers(1, 9)))
    else:
        out[pos:pos + 4] = rng.bytes(4)
    return f"{kind}@{pos}", bytes(out)


@pytest.fixture(scope="module")
def inputs(toy_zoo, tmp_path_factory):
    """name -> (file bytes, the command that reads the mutated file at
    {bad}, and whether the file holds a model)."""
    root = tmp_path_factory.mktemp("fuzz")
    model_path = toy_zoo.model_path(0.03)
    img = heldout_images(1)[0]
    (root / "img.png").write_bytes(encode_png(img))
    data_dir = root / "data"
    data_dir.mkdir()
    (data_dir / "img.png").write_bytes(encode_png(img))
    tiny = CodecModel(ArchConfig(n_main=8, c_y=8, c_z=4), lambda_tag=300, seed=0)
    wts.save_checkpoint(tiny, Adam(tiny.param_list()), 2, root / "ck.c2fw")
    with open(root / "rd.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["codec", "image", "bpp", "psnr_db", "msssim", "msssim_db"])
        for b, p in [(0.3, 30.0), (0.6, 33.0), (1.0, 35.5), (1.6, 37.5)]:
            w.writerow(["c2f", "a.png", b, p, "", ""])
    out = root / "out"
    out.mkdir()
    return {
        "weights": (model_path.read_bytes(),
                    ["encode", "--model", "{bad}", "--input", root / "img.png",
                     "--output", out / "x.c2f"], True),
        "png": (encode_png(img), ["eval", "--ref", "{bad}", "--test", root / "img.png"], False),
        "ppm": (encode_ppm(img), ["eval", "--ref", "{bad}", "--test", root / "img.png"], False),
        "container": (encode_array(wts.load_model(model_path), img).data,
                      ["decode", "--model", model_path, "--input", "{bad}",
                       "--output", out / "x.png"], False),
        "checkpoint": ((root / "ck.c2fw").read_bytes(),
                       ["train", "--data", data_dir, "--out", out / "run", "--lambda", "0.01",
                        "--steps", "3", "--batch", "1", "--patch", "64",
                        "--resume", "{bad}"], True),
        "rd-csv": ((root / "rd.csv").read_bytes(),
                   ["bdrate", "--anchor", "{bad}", "--test", root / "rd.csv"], False),
    }


def test_mutated_inputs_exit_with_documented_codes(inputs, tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    faults, codes = [], {}
    for name, (data, command, is_model) in inputs.items():
        for k in range(MUTATIONS_PER_INPUT):
            how, bad = mutate(data, rng)
            path = tmp_path / f"{name}-{k}"
            path.write_bytes(bad)
            args = [str(path) if a == "{bad}" else str(a) for a in command]
            start = time.monotonic()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")  # what would reach stderr outside pytest
                try:
                    rc = main(args)
                except Exception as exc:  # a traceback outside pytest
                    rc = f"{type(exc).__name__}: {exc}"
            seconds = time.monotonic() - start
            errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
            numeric = (rc == 1 and is_model and len(errors) == 1
                       and errors[0].startswith(NUMERIC_ERRORS))
            if ((rc not in (0, 2, 3, 4, 5) and not numeric) or len(errors) > 1 or caught
                    or seconds > RUN_SECONDS):
                faults.append((name, how, rc, errors, round(seconds, 2),
                               [f"{w.filename}:{w.lineno}: {w.message}" for w in caught]))
            codes[name, rc] = codes.get((name, rc), 0) + 1
    print("runs per (input, exit code):", codes)
    assert not faults
