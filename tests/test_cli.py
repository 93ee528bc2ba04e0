import csv
import io
import math
import struct
import warnings

import numpy as np
import pytest

import c2f.cli as cli
import c2f.imageio as imageio
import c2f.rangecoder as rangecoder
import c2f.weights as wts
from c2f.autodiff import Adam
from c2f.cli import main
from c2f.codec import decode_array, encode_array, latent_check, latent_digest
from c2f.container import read_container, write_container
from c2f.entropy import CODER_GRID
from c2f.errors import (ConfigError, ContractViolation, CorruptStreamError, EvaluationError,
                        FormatError, ModelIdMismatchError, NumericError)
from c2f.evaluation import RD_CSV_FIELDS, bpp as bpp_of
from c2f.imageio import read_image, write_image
from c2f.training import synthetic_patch
from c2f.transforms import ArchConfig, CodecModel

from zoo import heldout_images

TINY = ArchConfig(n_main=8, c_y=8, c_z=4)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    model = CodecModel(TINY, lambda_tag=300, seed=0)
    wts.save_model(model, root / "model.c2fw")
    rng = np.random.default_rng(1)
    for i in range(3):
        write_image(root / f"img{i}.png", synthetic_patch(rng, 64))
    write_image(root / "tall.png", synthetic_patch(rng, 128)[:80, :64])
    return root


def run(args):
    return main([str(a) for a in args])


def test_encode_decode_roundtrip(workdir, capsys):
    img_path = workdir / "img0.png"
    bin_path = workdir / "img0.c2f"
    out_path = workdir / "img0_out.png"
    assert run(["encode", "--model", workdir / "model.c2fw",
                "--input", img_path, "--output", bin_path, "--debug"]) == 0
    enc_out = capsys.readouterr()
    assert bin_path.exists()
    assert run(["decode", "--model", workdir / "model.c2fw",
                "--input", bin_path, "--output", out_path, "--debug"]) == 0
    dec_out = capsys.readouterr()
    orig = read_image(img_path)
    decoded = read_image(out_path)
    assert decoded.shape == orig.shape
    # latent checksums agree end to end
    enc_digest = [l for l in enc_out.out.splitlines() if l.startswith("latent_digest=")]
    dec_digest = [l for l in dec_out.out.splitlines() if l.startswith("latent_digest=")]
    assert enc_digest and enc_digest == dec_digest


def test_encode_reports_evaluation_bpp(workdir, capsys):
    img_path = workdir / "tall.png"
    bin_path = workdir / "tall.c2f"
    assert run(["encode", "--model", workdir / "model.c2fw",
                "--input", img_path, "--output", bin_path]) == 0
    err = capsys.readouterr().err
    reported = float([f for f in err.split() if f.startswith("bpp=")][0][4:])
    expected = bpp_of(len(bin_path.read_bytes()), 64, 80)
    assert reported == pytest.approx(expected, rel=1e-9)


def test_decode_restores_nonaligned_dims(workdir):
    out_path = workdir / "tall_out.png"
    assert run(["decode", "--model", workdir / "model.c2fw",
                "--input", workdir / "tall.c2f", "--output", out_path]) == 0
    assert read_image(out_path).shape == (80, 64, 3)


def test_missing_weights_exits_3(workdir, capsys):
    rc = run(["encode", "--model", workdir / "nope.c2fw",
              "--input", workdir / "img0.png", "--output", workdir / "x.c2f"])
    assert rc == 3
    assert "nope.c2fw" in capsys.readouterr().err


@pytest.mark.parametrize("offset, value", [(18, 5), (10, 0), (31, 0xFFFFFFFF)])
def test_malformed_weights_header_exits_3(workdir, tmp_path, capsys, offset, value):
    # main_depth (offset 18) is always 4; a zero channel count (c_y at 10)
    # is no architecture either; nor is a first record name (from byte 31)
    # that is not UTF-8: all are malformed files, not bad arguments
    data = bytearray((workdir / "model.c2fw").read_bytes())
    struct.pack_into("<I", data, offset, value)
    (tmp_path / "bad.c2fw").write_bytes(bytes(data))
    rc = run(["encode", "--model", tmp_path / "bad.c2fw",
              "--input", workdir / "img0.png", "--output", tmp_path / "x.c2f"])
    assert rc == 3
    assert "bad.c2fw" in capsys.readouterr().err


@pytest.mark.parametrize("opt_records", ["none", "short", "nan"])
def test_malformed_checkpoint_exits_3(workdir, tmp_path, capsys, opt_records):
    # a checkpoint with meta.step but no Adam records, or with opt.0.m one
    # value long or NaN, is a malformed file, refused before training starts
    model = CodecModel(TINY, lambda_tag=300, seed=0)
    extra = {"meta.step": np.array([3], np.float32)}
    if opt_records != "none":
        extra |= Adam(model.param_list()).state_arrays()
        extra["opt.0.m"] = (np.zeros(1, np.float32) if opt_records == "short"
                            else np.full(extra["opt.0.m"].shape, np.nan, np.float32))
    (tmp_path / "bad.c2fw").write_bytes(wts.model_bytes(model, extra))
    rc = run(["train", "--data", workdir, "--out", tmp_path / "run", "--lambda", "0.01",
              "--steps", "5", "--batch", "1", "--patch", "64", "--resume", tmp_path / "bad.c2fw"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad.c2fw" in err and "'opt.0.m'" in err


@pytest.mark.parametrize("command", ["encode", "eval", "rdcurve"])
def test_truncated_image_exits_3(workdir, tmp_path, capsys, command):
    # a bad input image is an i/o failure, not a model or stream mismatch
    bad = tmp_path / "cut.ppm"
    bad.write_bytes(b"P6\n64 64\n255\n" + bytes(100))
    args = {"encode": ["encode", "--model", workdir / "model.c2fw", "--input", bad,
                       "--output", tmp_path / "x.c2f"],
            "eval": ["eval", "--ref", workdir / "img0.png", "--test", bad],
            "rdcurve": ["rdcurve", "--models", workdir / "model.c2fw",
                        "--images", tmp_path]}[command]
    assert run(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cut.ppm" in err and err.count("\n") == 1


def test_wrong_model_exits_4(workdir, tmp_path):
    other = CodecModel(TINY, lambda_tag=999, seed=9)
    wts.save_model(other, tmp_path / "other.c2fw")
    rc = run(["decode", "--model", tmp_path / "other.c2fw",
              "--input", workdir / "img0.c2f", "--output", tmp_path / "y.png"])
    assert rc == 4


def test_corrupt_container_exits_4(workdir, tmp_path):
    data = (workdir / "img0.c2f").read_bytes()
    bad = tmp_path / "cut.c2f"
    bad.write_bytes(data[:-3])
    rc = run(["decode", "--model", workdir / "model.c2fw",
              "--input", bad, "--output", tmp_path / "z.png"])
    assert rc == 4


def overflowing_container(model, img):
    """A container of img whose X stream holds 1e7 at every element, coded
    under the tables the decoder derives from the real Y, with a latent
    check that matches: it passes the check and overflows in synthesis."""
    res = encode_array(model, img)
    lat = res.latents
    header, zbytes, ybytes, _ = read_container(res.data)
    tables, center = CODER_GRID.tables(lat.mu_x.data, lat.sigma_x.data)
    x = np.full(lat.x.shape, 10 ** 7, dtype=np.int64)
    header.latent_check = latent_check(latent_digest(x, lat.y.data, lat.z.data))
    xbytes = rangecoder.encode(x.reshape(-1) - center, tables)
    return write_container(header, zbytes, ybytes, xbytes)


def test_stream_that_overflows_the_decoder_exits_4(toy_zoo, tmp_path, capsys):
    # X latents of 1e7 overflow float32 in synthesis (1e5 do not):
    # held-out image 0 tiled 2x3, lambda=0.03
    model_path = toy_zoo.model_path(0.03)
    model = wts.load_model(model_path)
    data = overflowing_container(model, np.tile(heldout_images(1)[0], (2, 3, 1)))
    (tmp_path / "overflow.c2f").write_bytes(data)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # what would reach stderr outside pytest
        rc = run(["decode", "--model", model_path, "--input", tmp_path / "overflow.c2f",
                  "--output", tmp_path / "overflow.png"])
    assert rc == 4
    assert "non-finite" in capsys.readouterr().err  # the overflow path, not a coder error
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    with pytest.raises(CorruptStreamError) as info:
        decode_array(model, data)
    assert isinstance(info.value.__cause__, NumericError)


def test_eval_identical_pair_reports_inf(workdir, capsys):
    assert run(["eval", "--ref", workdir / "img1.png",
                "--test", workdir / "img1.png"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["psnr_db"] == "inf"
    assert float(rows[0]["msssim"]) == 1.0


def test_eval_dim_mismatch_exits_2(workdir, capsys):
    rc = run(["eval", "--ref", workdir / "img0.png", "--test", workdir / "tall.png"])
    assert rc == 2


def test_rdcurve_over_model_zoo(workdir, tmp_path, capsys):
    zoo = []
    for i, tag in enumerate((30, 100, 300, 1000)):
        model = CodecModel(TINY, lambda_tag=tag, seed=10 + i)
        path = tmp_path / f"zoo{tag}.c2fw"
        wts.save_model(model, path)
        zoo.append(str(path))
    rc = run(["rdcurve", "--models", ",".join(zoo), "--images", workdir])
    assert rc == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert all(r["codec"] == "c2f" and r["image"] == "mean" for r in rows)
    assert all(float(r["bpp"]) > 0 for r in rows)


def _rdcurve_on(tmp_path, capsys, monkeypatch, sizes):
    model = CodecModel(TINY, lambda_tag=300, seed=10)
    wts.save_model(model, tmp_path / "m.c2fw")
    rng = np.random.default_rng(4)
    images = [synthetic_patch(rng, size) for size in sizes]
    for i, img in enumerate(images):
        write_image(tmp_path / f"im{i}.png", img)
    reads = []
    monkeypatch.setattr(imageio, "read_image",
                        lambda path, real=imageio.read_image: reads.append(path) or real(path))
    assert run(["rdcurve", "--models", tmp_path / "m.c2fw", "--images", tmp_path]) == 0
    assert len(reads) == len(images)  # the bpp warning reads no image a second time
    return model, images, capsys.readouterr()


def test_rdcurve_warns_when_mean_and_pooled_bpp_diverge(tmp_path, capsys, monkeypatch):
    model, images, captured = _rdcurve_on(tmp_path, capsys, monkeypatch, (64, 256))
    nbytes = [len(encode_array(model, img).data) for img in images]
    mean = np.mean([bpp_of(n, img.shape[1], img.shape[0])
                    for n, img in zip(nbytes, images)])
    pooled = 8 * sum(nbytes) / sum(img.shape[0] * img.shape[1] for img in images)
    assert abs(mean - pooled) > 0.01 * pooled
    assert f"mean bpp {mean:.4f} vs pooled {pooled:.4f}" in captured.err
    # the warning goes to stderr only: stdout stays the curve CSV
    lines = list(csv.reader(io.StringIO(captured.out)))
    assert lines[0] == list(RD_CSV_FIELDS)
    assert len(lines) == 2 and len(lines[1]) == len(RD_CSV_FIELDS)
    assert float(lines[1][2]) == pytest.approx(mean, abs=1e-6)


def test_rdcurve_same_size_images_do_not_warn(tmp_path, capsys, monkeypatch):
    captured = _rdcurve_on(tmp_path, capsys, monkeypatch, (64, 64))[2]
    assert "warning" not in captured.err


def test_bdrate_identical_curves_zero(tmp_path, capsys):
    rows = [("c2f", "a.png", b, p) for b, p in
            [(0.3, 30.0), (0.6, 33.0), (1.0, 35.5), (1.6, 37.5)]]
    for name in ("anchor.csv", "test.csv"):
        with open(tmp_path / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["codec", "image", "bpp", "psnr_db", "msssim", "msssim_db"])
            for codec_name, image, b, p in rows:
                w.writerow([codec_name, image, b, p, "", ""])
    rc = run(["bdrate", "--anchor", tmp_path / "anchor.csv",
              "--test", tmp_path / "test.csv", "--lo", "0.4", "--hi", "1.15"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_bdrate_single_point_curve_refused(tmp_path, capsys):
    for name, count in (("a.csv", 4), ("b.csv", 1)):
        with open(tmp_path / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["codec", "image", "bpp", "psnr_db", "msssim", "msssim_db"])
            for i in range(count):
                w.writerow(["x", "img.png", 0.3 + 0.3 * i, 30 + 2 * i, "", ""])
    rc = run(["bdrate", "--anchor", tmp_path / "a.csv", "--test", tmp_path / "b.csv"])
    assert rc == 5


def test_bdrate_non_numeric_field_exits_5(tmp_path, capsys):
    with open(tmp_path / "a.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["codec", "image", "bpp", "psnr_db"])
        w.writerow(["c2f", "a.png", 0.3, 30])
        w.writerow(["c2f", "a.png", "abc", 30])
    rc = run(["bdrate", "--anchor", tmp_path / "a.csv", "--test", tmp_path / "a.csv"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "a.csv line 3" in err and "bpp 'abc'" in err


@pytest.mark.parametrize("last", [(1.6, "inf"), ("inf", 37.5)], ids=["psnr-inf", "bpp-inf"])
def test_bdrate_non_finite_rd_point_exits_5(tmp_path, capsys, last):
    # `c2f eval` and `c2f rdcurve` write inf for a lossless image's PSNR
    with open(tmp_path / "a.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["codec", "image", "bpp", "psnr_db"])
        for b, p in [(0.3, 30.0), (0.6, 33.0), (1.0, 35.5), last]:
            w.writerow(["c2f", "a.png", b, p])
    rc = run(["bdrate", "--anchor", tmp_path / "a.csv", "--test", tmp_path / "a.csv"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"anchor file {tmp_path / 'a.csv'}: curve 'c2f' has a non-finite bpp or distortion" in err


def test_bdrate_curve_too_short_names_its_file(tmp_path, capsys):
    for name, points in (("a.csv", [(0.3, 30.0), (0.6, 33.0), (1.0, 35.5), (1.6, 37.5)]),
                         ("b.csv", [(0.3, 30.0), (0.6, 33.0), (1.0, 35.5)])):
        with open(tmp_path / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["codec", "image", "bpp", "psnr_db"])
            w.writerows(["c2f", "a.png", b, p] for b, p in points)
    rc = run(["bdrate", "--anchor", tmp_path / "a.csv", "--test", tmp_path / "b.csv"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"test file {tmp_path / 'b.csv'}: BD-rate needs >= 4 points" in err


@pytest.mark.parametrize("bpp", ["0", "-0.6", "nan"], ids=["bpp-zero", "bpp-negative", "bpp-nan"])
def test_bdrate_bpp_not_positive_exits_5(tmp_path, capsys, bpp):
    with open(tmp_path / "a.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["codec", "image", "bpp", "psnr_db"])
        for b, p in [(0.3, 30.0), (bpp, 33.0), (1.0, 35.5), (1.6, 37.5)]:
            w.writerow(["c2f", "a.png", b, p])
    rc = run(["bdrate", "--anchor", tmp_path / "a.csv", "--test", tmp_path / "a.csv"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"a.csv line 3: bpp '{bpp}' is not a positive number" in err


@pytest.mark.parametrize("row", [b"c2f,a\xff\xfe.png,0.3,30",
                                 b"c2f," + b"x" * 140000 + b",0.3,30"],
                         ids=["not-utf8", "field-past-csv-limit"])
def test_bdrate_unreadable_csv_exits_5(tmp_path, capsys, row):
    (tmp_path / "a.csv").write_bytes(b"codec,image,bpp,psnr_db\n" + row + b"\n")
    rc = run(["bdrate", "--anchor", tmp_path / "a.csv", "--test", tmp_path / "a.csv"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "a.csv: not a readable CSV" in err


def test_train_command_smoke(workdir, tmp_path, capsys):
    out = tmp_path / "run"
    rc = run(["train", "--data", workdir, "--out", out, "--lambda", "0.01",
              "--steps", "3", "--batch", "1", "--patch", "64",
              "--n-main", "8", "--c-y", "8", "--c-z", "4", "--log-every", "1"])
    assert rc == 0
    assert (out / "model.c2fw").exists()
    stdout = capsys.readouterr().out
    assert "model=" in stdout


def _bad_model(kind):
    """TINY weights with a NaN or inf in analysis.0.kernel, or with
    analysis.0.bias repeated as zeros after the sorted records."""
    model = CodecModel(TINY, lambda_tag=300, seed=0)
    params = model.named_params()
    if kind == "duplicate":
        return model, {"analysis.0.bias": np.zeros_like(params["analysis.0.bias"].data)}
    params["analysis.0.kernel"].data[0, 0, 0, 0] = {"nan": np.nan, "inf": np.inf}[kind]
    return model, {}


@pytest.mark.parametrize("kind", ["nan", "inf", "duplicate"])
def test_non_finite_or_duplicated_weights_record_exits_3(workdir, tmp_path, capsys, kind):
    model, extra = _bad_model(kind)
    (tmp_path / "bad.c2fw").write_bytes(wts.model_bytes(model, extra))
    checkpoint = extra | Adam(model.param_list()).state_arrays()
    checkpoint["meta.step"] = np.array([3], np.float32)
    (tmp_path / "ck.c2fw").write_bytes(wts.model_bytes(model, checkpoint))
    commands = {
        "encode": ["encode", "--model", tmp_path / "bad.c2fw", "--input", workdir / "img0.png",
                   "--output", tmp_path / "x.c2f"],
        "decode": ["decode", "--model", tmp_path / "bad.c2fw", "--input", workdir / "img0.c2f",
                   "--output", tmp_path / "x.png"],
        "rdcurve": ["rdcurve", "--models", tmp_path / "bad.c2fw", "--images", workdir],
        "train": ["train", "--data", workdir, "--out", tmp_path / "run", "--lambda", "0.01",
                  "--steps", "5", "--batch", "1", "--patch", "64",
                  "--resume", tmp_path / "ck.c2fw"]}
    record = "'analysis.0.bias' appears twice" if kind == "duplicate" else \
        "'analysis.0.kernel' holds a non-finite value"
    for name, args in commands.items():
        assert run(args) == 3, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, name
        assert ("ck.c2fw" if name == "train" else "bad.c2fw") in err and record in err


@pytest.mark.parametrize("name, where, value", [("analysis.0.kernel", 0, 1e30),
                                                ("analysis.0.kernel", ..., 3e37),
                                                ("analysis.0.gdn.gamma_v", ..., 1e20),
                                                ("analysis.0.gdn.beta_u", ..., 1e20)],
                         ids=["one-weight-1e30", "kernel-3e37", "gamma-1e20", "beta-1e20"])
def test_finite_weights_that_overflow_exit_1(workdir, tmp_path, capsys, name, where, value):
    # a finite model that overflows on its input is no malformed file: exit
    # 1, one error line, and numpy's warnings stay off stderr
    model = CodecModel(TINY, lambda_tag=300, seed=0)
    model.named_params()[name].data.reshape(-1)[where] = value
    wts.save_model(model, tmp_path / "big.c2fw")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # what would reach stderr outside pytest
        rc = run(["encode", "--model", tmp_path / "big.c2fw", "--input", workdir / "img0.png",
                  "--output", tmp_path / "x.c2f"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite values produced by op ") and err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_training_step_that_overflows_exits_1(workdir, tmp_path, capsys):
    # a finite checkpoint whose forward pass overflows fails as the backward
    # pass and Adam do: a numeric error, exit 1, one line
    model = CodecModel(TINY, lambda_tag=300, seed=0)
    model.named_params()["analysis.0.kernel"].data[...] = 3e37
    checkpoint = Adam(model.param_list()).state_arrays()
    checkpoint["meta.step"] = np.array([3], np.float32)
    (tmp_path / "ck.c2fw").write_bytes(wts.model_bytes(model, checkpoint))
    rc = run(["train", "--data", workdir, "--out", tmp_path / "run", "--lambda", "0.01",
              "--steps", "5", "--batch", "1", "--patch", "64", "--resume", tmp_path / "ck.c2fw"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite values produced by op ") and err.count("\n") == 1


@pytest.mark.parametrize("exc, code", [
    (FormatError("x"), 3), (OSError("x"), 3), (FileNotFoundError("x"), 3),
    (CorruptStreamError("x"), 4), (ModelIdMismatchError("x"), 4),
    (EvaluationError("x"), 5), (ConfigError("x"), 5),
    (ContractViolation("x"), 2), (NumericError("x"), 1)],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_bdrate", fail)
    assert run(["bdrate", "--anchor", "a.csv", "--test", "b.csv"]) == code
    assert capsys.readouterr().err == "error: x\n"


@pytest.mark.parametrize("cut", ["truncated", "bad-magic"])
def test_truncated_checkpoint_exits_3(workdir, tmp_path, capsys, cut):
    model = CodecModel(TINY, lambda_tag=300, seed=0)
    wts.save_checkpoint(model, Adam(model.param_list()), 3, tmp_path / "full.c2fw")
    data = (tmp_path / "full.c2fw").read_bytes()
    (tmp_path / "trunc.c2fw").write_bytes(data[:-5] if cut == "truncated" else b"C2FX" + data[4:])
    rc = run(["train", "--data", workdir, "--out", tmp_path / "run", "--lambda", "0.01",
              "--steps", "5", "--batch", "1", "--patch", "64", "--resume", tmp_path / "trunc.c2fw"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "trunc.c2fw" in err


@pytest.mark.parametrize("offset", [6, 10, 14], ids=["n_main", "c_y", "c_z"])
def test_weights_header_channels_beyond_the_records_exit_3(workdir, tmp_path, capsys, offset):
    # a channel count of 2**31 would make CodecModel allocate terabytes;
    # the records the file holds are checked first
    data = bytearray((workdir / "model.c2fw").read_bytes())
    struct.pack_into("<I", data, offset, 2 ** 31)
    (tmp_path / "huge.c2fw").write_bytes(bytes(data))
    rc = run(["encode", "--model", tmp_path / "huge.c2fw", "--input", workdir / "img0.png",
              "--output", tmp_path / "x.c2f"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "huge.c2fw" in err and "channel counts" in err
