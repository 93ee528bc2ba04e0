"""Command-line surface: train, encode, decode, eval, rdcurve, bdrate.

stdout carries machine-readable payloads only (CSV or key=value lines);
human progress goes to stderr.  Exit codes (EXIT_CODES): 0 ok,
1 non-finite values from the model, 2 bad arguments, 3 i/o failure or a
malformed weights/checkpoint/image file, 4 model/stream mismatch or a
malformed container, 5 evaluation/config error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .errors import (C2fError, ConfigError, ContractViolation, CorruptStreamError,
                     EvaluationError, FormatError)

# each error class, and so each of its subclasses, exits with one code
EXIT_CODES = (((OSError, FormatError), 3), (CorruptStreamError, 4),
              ((EvaluationError, ConfigError), 5), (ContractViolation, 2))

IMAGE_SUFFIXES = (".png", ".ppm")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _list_images(path: str) -> list[Path]:
    p = Path(path)
    if p.is_dir():
        found = sorted(q for q in p.iterdir() if q.suffix.lower() in IMAGE_SUFFIXES)
        if not found:
            raise FileNotFoundError(f"no .png/.ppm images in {path}")
        return found
    if not p.exists():
        raise FileNotFoundError(f"no such image or directory: {path}")
    return [p]


# ---------------------------------------------------------------------------
# commands

def cmd_train(args) -> int:
    from .training import TrainConfig, train
    from .transforms import ArchConfig

    config = TrainConfig(
        lambda_=args.lam, distortion=args.distortion, lr=args.lr,
        steps=args.steps, batch=args.batch, patch=args.patch, seed=args.seed,
        checkpoint_every=args.checkpoint_every)
    arch = ArchConfig(n_main=args.n_main, c_y=args.c_y or 0, c_z=args.c_z or 0)
    images = _list_images(args.data)
    t0 = time.monotonic()

    def progress(row):
        if row["step"] % args.log_every == 0:
            _log(f"step {row['step']}: r_bpp={row['r_bpp']:.4f} d={row['d']:.6f} "
                 f"lif={row['lif']:.3f} loss={row['loss']:.4f}")

    train(config, images, out_dir=args.out, arch=arch,
          resume=args.resume, progress=progress)
    _log(f"trained {config.steps} steps in {time.monotonic() - t0:.1f}s")
    print(f"model={Path(args.out) / 'model.c2fw'}")
    return 0


def cmd_encode(args) -> int:
    from .codec import encode_array
    from .evaluation import bpp
    from .imageio import read_image
    from .weights import load_model

    model = load_model(args.model)
    img = read_image(args.input)
    t0 = time.monotonic()
    res = encode_array(model, img)
    ms = 1000.0 * (time.monotonic() - t0)
    Path(args.output).write_bytes(res.data)
    rate = bpp(len(res.data), img.shape[1], img.shape[0])
    _log(f"encode input={args.input} output={args.output} bytes={len(res.data)} "
         f"bpp={rate!r} ms={ms:.1f}")
    if args.debug:
        print(f"latent_digest={res.latent_digest}")
    return 0


def cmd_decode(args) -> int:
    from .codec import decode_array
    from .imageio import write_image
    from .weights import load_model

    model = load_model(args.model)
    data = Path(args.input).read_bytes()
    t0 = time.monotonic()
    out = decode_array(model, data)
    ms = 1000.0 * (time.monotonic() - t0)
    write_image(args.output, out.image)
    _log(f"decode input={args.input} output={args.output} "
         f"dims={out.header.orig_w}x{out.header.orig_h} ms={ms:.1f}")
    if args.debug:
        print(f"latent_digest={out.latent_digest}")
    return 0


def cmd_eval(args) -> int:
    from .evaluation import RdRow, bpp, ms_ssim, psnr, write_rd_csv
    from .imageio import read_image

    ref = read_image(args.ref)
    test = read_image(args.test)
    rate = float("nan")
    if args.container:
        rate = bpp(Path(args.container).read_bytes(), ref.shape[1], ref.shape[0])
    row = RdRow(codec=args.codec, quality="0", image=Path(args.test).name,
                bpp=rate, psnr_db=psnr(ref, test), msssim=ms_ssim(ref, test))
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        write_rd_csv([row], out)
    finally:
        if args.out:
            out.close()
    return 0


def cmd_rdcurve(args) -> int:
    from .evaluation import average_rows, model_rd_rows, write_curves_csv, write_rd_csv
    from .imageio import read_image
    from .weights import load_model

    images = [(p.name, read_image(p)) for p in _list_images(args.images)]
    model_paths = [m for part in args.models for m in part.split(",") if m]
    rows = []
    for mpath in model_paths:
        new = model_rd_rows(load_model(mpath), images, args.codec)
        rows.extend(new)
        _log(f"model {mpath}: "
             f"mean bpp {np.mean([r.bpp for r in new]):.4f}, "
             f"mean psnr {np.mean([r.psnr_db for r in new]):.2f} dB")

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        write_curves_csv(average_rows(rows), out)
    finally:
        if args.out:
            out.close()
    if args.points_out:
        with open(args.points_out, "w", newline="") as fh:
            write_rd_csv(rows, fh)
    return 0


def cmd_bdrate(args) -> int:
    from .evaluation import average_rows, bd_rate, log_rate_interp, read_rd_csv

    def single_curve(path, which):
        rows = read_rd_csv(path)
        curves = average_rows(rows, metric=args.metric)
        if len(curves) != 1:
            raise ConfigError(
                f"{which} file {path} holds codecs {sorted(curves)}; supply exactly one")
        curve = next(iter(curves.values()))
        try:  # a curve that cannot be interpolated is refused naming its file
            log_rate_interp(curve)
        except EvaluationError as exc:
            raise EvaluationError(f"{which} file {path}: {exc}") from None
        return curve

    anchor = single_curve(args.anchor, "anchor")
    test = single_curve(args.test, "test")
    value = bd_rate(anchor, test, (args.lo, args.hi))
    print(f"{value:.6f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c2f", description="coarse-to-fine hyperprior image codec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a directory of images")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--distortion", choices=("mse", "msssim"), default="mse")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--patch", type=int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--n-main", type=int, default=32)
    p.add_argument("--c-y", type=int, default=None)
    p.add_argument("--c-z", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--resume", default=None)
    p.add_argument("--log-every", type=int, default=50)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="compress an image to a container file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--debug", action="store_true",
                   help="print the latent checksum to stdout")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decompress a container file to an image")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--debug", action="store_true")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="metrics for a reference/test image pair")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--container", default=None,
                   help="container file whose size provides bpp")
    p.add_argument("--codec", default="pair")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rdcurve", help="averaged RD curve of a model zoo")
    p.add_argument("--models", action="append", required=True,
                   help="comma-separated weight files (repeatable)")
    p.add_argument("--images", required=True)
    p.add_argument("--codec", default="c2f")
    p.add_argument("--out", default=None)
    p.add_argument("--points-out", default=None,
                   help="also write per-image RD rows here")
    p.set_defaults(func=cmd_rdcurve)

    p = sub.add_parser("bdrate", help="BD-rate of a test curve vs an anchor curve")
    p.add_argument("--anchor", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--lo", type=float, default=0.4)
    p.add_argument("--hi", type=float, default=1.15)
    p.add_argument("--metric", default="psnr_db",
                   choices=("psnr_db", "msssim", "msssim_db"))
    p.set_defaults(func=cmd_bdrate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, C2fError) as exc:
        _log(f"error: {exc}")
        # any other C2fError, a NumericError (the model overflowed), exits 1
        return next((code for kinds, code in EXIT_CODES if isinstance(exc, kinds)), 1)


if __name__ == "__main__":
    sys.exit(main())
