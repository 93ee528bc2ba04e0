"""The three benchmark workloads, their correctness checks and tracing.

Every workload is a closed loop: one client on one thread starts the next
operation only when the previous one has returned.  Each workload has a
set-up (timed and repeated from fresh objects, ending in one checked,
untimed warm-up operation) and a timed loop that runs until `seconds`
have passed and at least a minimum number of operations are done.

Operations that raise, or whose output fails a check, are counted as
failed and the run goes on.  The benchmark calls c2f only through
module attributes (`codec.encode_array`, ...), so the wrappers that
`install_tracing` puts in place see every call.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import math
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from c2f import (autodiff, codec, entropy, evaluation, imageio, rangecoder,
                 training, transforms, weights)
from tracer import Segment, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ZOO_DIR = ROOT / "tests" / "_toy_models"

CODEC_WORKLOADS = ("zoo-rd-64", "kodak-n128")
WORKLOADS = CODEC_WORKLOADS + ("train-n32",)
# The workloads BENCHMARK.json gates.  zoo-rd-64 runs on demand only: its
# small, interpreter-bound operations track the speed drift of a shared
# host most closely (median round trip 0.047-0.076 s across ten-minute
# spans), so its time spread over ten seeds reached the largest bound.
GATED_WORKLOADS = ("kodak-n128", "train-n32")
SETUP_REPS = 5

ZOO_IMAGES = 50
ZOO_SIZE = 64
KODAK_H, KODAK_W = 512, 768
KODAK_TILE = 64
KODAK_MODEL_SEED = 0
TRAIN_LAMBDA = 0.03

# The reference replay runs the zoo recipe at its own seed for the first
# REFERENCE_STEPS steps and compares every logged value with the
# committed train_log.csv.  Reordering float sums (tap order of the
# conv gather reversed) moves these values by at most 7e-7 relative over
# steps 0-4; a wrong gradient (ndtr derivative computed with exp(-0.45 x^2))
# moves r_bpp by 8e-4 relative at step 1.  Beyond step 4 the reordered
# run drifts chaotically (4e-3 relative by step 30), so later steps are
# not compared.
REFERENCE_STEPS = 5
REFERENCE_REL_TOL = 1e-5
REFERENCE_ABS_TOL = 1e-6  # train_log.csv rounds r_bpp, lif and loss to 6 decimals

clock = time.perf_counter


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Run:
    """Everything one workload run measured."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    times: dict[str, list[float]] = field(default_factory=dict)  # per timed op
    loop_seconds: float = 0.0
    quality: dict[str, float] = field(default_factory=dict)
    keys: list = field(default_factory=list)  # input of each timed op, in order
    # each distinct input's first successful timed visit: (op index, counts)
    counts: dict[object, tuple[int, dict[str, float]]] = field(default_factory=dict)
    segments: list[Segment] = field(default_factory=list)  # traced ops, as keys
    setup_segment: Segment | None = None
    digest: str = ""

    def attempt(self, op, *args):
        """Run one operation; a failure is recorded and the run goes on."""
        self.attempted += 1
        try:
            return op(*args)
        except Exception:  # any failing operation counts; the loop must keep running
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())
            return None

    def record(self, **seconds: float) -> None:
        for name, value in seconds.items():
            self.times.setdefault(name, []).append(value)


def timed_loop(run: Run, op, keys: list, seconds: float, min_ops: int,
               tracer: Tracer | None, start: int = 0) -> None:
    """Closed loop over `keys` (cycling) until time is up and min_ops ran."""
    t0 = clock()
    deadline = t0 + seconds
    i = 0
    while i < min_ops or clock() < deadline:
        key = keys[(start + i) % len(keys)]
        run.attempt(op, key)
        run.keys.append(key)
        if tracer is not None:
            run.segments.append(tracer.take_segment())
        i += 1
    run.loop_seconds = clock() - t0


def timed_setup(run: Run, reps: int, setup, tracer: Tracer | None):
    """Run `setup` reps times, each from fresh objects; keep the last state."""
    state = None
    for _ in range(reps):
        t0 = clock()
        state = setup()
        run.setup_seconds.append(clock() - t0)
        if tracer is not None:
            run.setup_segment = tracer.take_segment()
    return state


# ---------------------------------------------------------------------------
# tracing

class Streams:
    """Names the Z/Y/X stream of a table or symbol batch by its size."""

    def __init__(self):
        self.by_rows: dict[int, str] = {}
        self.by_symbols: dict[int, str] = {}

    def set(self, model, pad_h: int, pad_w: int) -> None:
        x, y, z = (math.prod(s) for s in model.latent_shapes(pad_h, pad_w))
        rows = {model.arch.c_z: "z", y: "y", x: "x"}  # Z tables are one row per channel
        symbols = {z: "z", y: "y", x: "x"}
        if len(rows) < 3 or len(symbols) < 3:
            raise ValueError(f"streams of a {pad_h}x{pad_w} input are not told apart by size")
        self.by_rows, self.by_symbols = rows, symbols


def _conv_macs(args, kwargs, out):
    kh, kw, ci, co = args[1].shape
    b, oh, ow, _ = out.shape
    return {"macs": b * oh * ow * kh * kw * ci * co}


def _deconv_macs(args, kwargs, out):
    kh, kw, cm, kc = args[1].shape
    b, h, w, _ = args[0].shape
    return {"macs": b * h * w * kh * kw * cm * kc}


def _escapes(symbols) -> int:
    s = np.asarray(symbols)
    return int(np.count_nonzero((s < entropy.ALPHABET_MIN) | (s > entropy.ALPHABET_MAX)))


def install_tracing(tracer: Tracer, streams: Streams) -> None:
    """Wrap every layer boundary, each where its caller looks it up."""
    tracer.wrap(codec, "encode_array", "codec.encode_array")
    tracer.wrap(codec, "decode_array", "codec.decode_array")
    tracer.wrap(codec, "build_cdf_tables",
                lambda a, k: f"entropy.build_cdf_tables.{streams.by_rows.get(len(a[0]), '?')}",
                count=lambda a, k, out: {"rows": out.shape[0], "bytes": out.nbytes})
    tracer.wrap(rangecoder, "encode",
                lambda a, k: f"rangecoder.encode.{streams.by_symbols.get(len(a[0]), '?')}",
                count=lambda a, k, data: {"symbols": len(a[0]), "escapes": _escapes(a[0]),
                                          "bits": 8 * len(data)})
    tracer.wrap(rangecoder, "decode",
                lambda a, k: f"rangecoder.decode.{streams.by_symbols.get(a[2], '?')}",
                count=lambda a, k, out: {"symbols": len(out), "escapes": _escapes(out)})
    tracer.wrap(codec, "model_digest", "weights.model_digest")
    tracer.wrap(weights, "load_model", "weights.load_model")
    tracer.wrap(codec, "read_container", "container.read_container",
                count=lambda a, k, out: {"bytes": len(a[0])})
    tracer.wrap(codec, "write_container", "container.write_container",
                count=lambda a, k, data: {"bytes": len(data)})
    for method in ("analysis", "hyper_analysis", "hyper_synthesis",
                   "predict_params", "synthesize"):
        tracer.wrap(transforms.CodecModel, method, f"transforms.{method}")
    tracer.wrap(autodiff, "conv2d", "autodiff.conv2d", count=_conv_macs)
    tracer.wrap(autodiff, "deconv2d", "autodiff.deconv2d", count=_deconv_macs)
    tracer.wrap(autodiff, "gdn", "autodiff.gdn")
    tracer.wrap(autodiff.Tensor, "backward", "autodiff.backward")
    tracer.wrap(autodiff.Adam, "step", "autodiff.adam_step")
    file_bytes = lambda a, k, out: {"bytes": Path(a[0]).stat().st_size}
    tracer.wrap(imageio, "read_image", "imageio.read_image", count=file_bytes)
    tracer.wrap(training, "read_image", "imageio.read_image", count=file_bytes)
    tracer.wrap(imageio, "write_image", "imageio.write_image", count=file_bytes)
    tracer.wrap(evaluation, "psnr", "evaluation.psnr")
    tracer.wrap(evaluation, "ms_ssim", "evaluation.ms_ssim")
    tracer.wrap(training, "rd_loss", "training.rd_loss")
    tracer.wrap(training.PatchLoader, "batch", "training.batch")


# ---------------------------------------------------------------------------
# codec workloads

@dataclass
class Pair:
    model: transforms.CodecModel
    image: np.ndarray
    path: Path | None  # PNG read back in every operation, or None


def image_digest(img: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(img).tobytes()).hexdigest()


def stream_bits_bound(enc) -> float:
    """Criterion 02: coded bits <= modeled bits + 256 + 0.1%."""
    return enc.modeled_bits + 256 + 0.001 * enc.modeled_bits


def round_trip(pair: Pair, decoded: dict, key) -> dict:
    """One checked round trip; returns its timings and quality."""
    t0 = clock()
    img = imageio.read_image(pair.path) if pair.path is not None else pair.image
    t1 = clock()
    enc = codec.encode_array(pair.model, img)
    t2 = clock()
    dec = codec.decode_array(pair.model, enc.data)
    t3 = clock()
    psnr = evaluation.psnr(img, dec.image)
    msssim = evaluation.ms_ssim(img, dec.image)
    t4 = clock()

    check(np.array_equal(img, pair.image), "image changed through its PNG file")
    check(dec.latent_digest == enc.latent_digest,
          f"decoder latent digest {dec.latent_digest[:12]} != encoder {enc.latent_digest[:12]}")
    check(enc.stream_bits <= stream_bits_bound(enc),
          f"{enc.stream_bits} coded bits exceed {stream_bits_bound(enc):.1f}")
    check(dec.image.shape == img.shape, f"decoded shape {dec.image.shape} != {img.shape}")
    digest = image_digest(dec.image)
    check(decoded.setdefault(key, digest) == digest,
          f"input {key} decoded differently than before")
    h, w = img.shape[:2]
    err = (img.astype(np.float64) - dec.image.astype(np.float64)) / 255.0
    return {"times": dict(op=t4 - t0, read=t1 - t0, encode=t2 - t1,
                          decode=t3 - t2, metrics=t4 - t3),
            "quality": dict(bpp=evaluation.bpp(enc.data, w, h), mse=float(np.mean(err * err)),
                            psnr_db=psnr, msssim_db=evaluation.ms_ssim_db(msssim)),
            "enc": enc}


def latent_counts(enc) -> dict[str, float]:
    """Sigma-at-clamp fractions and modeled bits per stream."""
    lat = enc.latents
    z_sigma = np.broadcast_to(lat.sigma_z, lat.z.shape)
    out = {}
    for s, sym, mu, sigma in (("z", lat.z.data, 0.0, z_sigma),
                              ("y", lat.y.data, lat.mu_y.data, lat.sigma_y.data),
                              ("x", lat.x.data, lat.mu_x.data, lat.sigma_x.data)):
        sigma = np.asarray(sigma)
        out[f"sigma_{s}_at_min"] = float(np.mean(sigma <= entropy.SIGMA_MIN))
        out[f"sigma_{s}_at_max"] = float(np.mean(sigma >= entropy.SIGMA_MAX))
        q = entropy.gaussian_bin_prob(sym, mu, sigma)
        out[f"modeled_bits_{s}"] = float(-np.sum(np.log2(np.maximum(q, entropy.LIKELIHOOD_FLOOR))))
    return out


def zoo_setup(tmp: Path, seed: int):
    """The 100 (model, image) pairs; the warm-up is the first of them."""
    models = [weights.load_model(p) for p in sorted(ZOO_DIR.glob("model_*.c2fw"))]
    if len(models) != 4:
        raise FileNotFoundError(f"expected the 4 zoo models in {ZOO_DIR}, found {len(models)}")
    # held out from the training set, which is default_rng(1)'s stream
    rng = np.random.default_rng([seed, 64])
    pairs = []
    images = []
    for i in range(ZOO_IMAGES):
        img = training.synthetic_patch(rng, ZOO_SIZE)
        path = tmp / f"heldout_{i:02d}.png"
        imageio.write_image(path, img)
        images.append((img, path))
    for model in models:
        pairs.extend(Pair(model, img, path) for img, path in images)
    return pairs, (0, pairs[0])


def kodak_image(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 768])
    return np.concatenate([
        np.concatenate([training.synthetic_patch(rng, KODAK_TILE)
                        for _ in range(KODAK_W // KODAK_TILE)], axis=1)
        for _ in range(KODAK_H // KODAK_TILE)], axis=0)


def kodak_setup(tmp: Path, seed: int):
    """One 768x512 pair.  The warm-up codes a 64x64 crop with the same
    model: it runs every code path once in a fraction of a second, so
    set-up can be repeated and the timed loop gets two full-size samples."""
    path = tmp / "n128.c2fw"
    weights.save_model(transforms.CodecModel(transforms.ArchConfig(n_main=128),
                                             seed=KODAK_MODEL_SEED), path)
    pair = Pair(weights.load_model(path), kodak_image(seed), None)
    return [pair], ("crop", Pair(pair.model, pair.image[:64, :64].copy(), None))


# workload -> (set-up, set-up repetitions, minimum timed operations)
_CODEC = {"zoo-rd-64": (zoo_setup, SETUP_REPS, 4 * ZOO_IMAGES),
          "kodak-n128": (kodak_setup, SETUP_REPS, 2)}


def run_codec(name: str, seed: int, seconds: float, traced: bool) -> Run:
    run = Run(name, seed)
    make, reps, min_ops = _CODEC[name]
    tracer = Tracer() if traced else None
    streams = Streams()
    decoded: dict = {}
    quality = []
    if tracer is not None:
        install_tracing(tracer, streams)
    try:
        with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as tmp:
            def setup():
                pairs, (key, warm) = make(Path(tmp), seed)
                run.attempt(round_trip, warm, decoded, key)
                return pairs

            pairs = timed_setup(run, reps, setup, tracer)
            pad = [-(-d // 64) * 64 for d in pairs[0].image.shape[:2]]
            streams.set(pairs[0].model, *pad)

            def op(key):
                pair = pairs[key]
                out = round_trip(pair, decoded, key)
                run.record(**out["times"])
                if key not in run.counts:
                    quality.append(out["quality"])
                    run.counts[key] = (len(run.keys),
                                       latent_counts(out["enc"]) if traced else {})

            timed_loop(run, op, list(range(len(pairs))), seconds, min_ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if quality:
        run.quality = {k: float(np.mean([q[k] for q in quality])) for k in quality[0]}
    run.digest = hashlib.sha256(
        "".join(decoded[k] for k in sorted(decoded, key=str)).encode()).hexdigest()
    return run


# ---------------------------------------------------------------------------
# training workload

def load_recipe():
    """The toy-zoo recipe constants, read from the test suite's zoo module."""
    spec = importlib.util.spec_from_file_location("c2f_zoo_recipe", ROOT / "tests" / "zoo.py")
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    return recipe


class Trainer:
    """The state of training.train's loop, stepped one step at a time."""

    def __init__(self, config: training.TrainConfig, paths: list, arch):
        self.config = config
        self.loader = training.PatchLoader(paths, config.patch, config.seed, config.batch)
        self.model = transforms.CodecModel(
            arch, lambda_tag=training.lambda_to_tag(config.lambda_),
            distortion=config.distortion, seed=config.seed)
        self.opt = autodiff.Adam(self.model.param_list(), lr=config.lr)

    def step(self, k: int):
        cfg = self.config
        t0 = clock()
        self.opt.lr = cfg.lr_at(k)
        batch = self.loader.batch(k)
        t1 = clock()
        out = training.rd_loss(self.model, batch, cfg.lambda_,
                               np.random.default_rng([cfg.seed, k, 1]),
                               lif_weight=cfg.lif_at(k), distortion=cfg.distortion)
        t2 = clock()
        self.opt.zero_grad()
        out.loss.backward()
        t3 = clock()
        self.opt.step()
        t4 = clock()
        values = (out.r_bpp, out.d, out.lif, out.loss_value)
        check(all(math.isfinite(v) for v in values), f"step {k}: non-finite loss terms {values}")
        check(out.r_bpp >= 0 and out.d >= 0, f"step {k}: negative rate or distortion {values}")
        return out, dict(op=t4 - t0, batch=t1 - t0, forward=t2 - t1,
                         backward=t3 - t2, adam=t4 - t3)


def train_config(recipe, seed: int) -> training.TrainConfig:
    return training.TrainConfig(lambda_=TRAIN_LAMBDA, steps=recipe.ZOO_STEPS,
                                batch=recipe.ZOO_BATCH, patch=recipe.ZOO_PATCH,
                                seed=seed, lr=recipe.ZOO_LR)


def reference_step(trainer: Trainer, k: int, row: dict) -> dict:
    out, _ = trainer.step(k)
    got = {"r_bpp": out.r_bpp, "d": out.d, "lif": out.lif, "loss": out.loss_value}
    for name, value in got.items():
        want = float(row[name])
        check(abs(value - want) <= REFERENCE_REL_TOL * abs(want) + REFERENCE_ABS_TOL,
              f"reference step {k}: {name}={value!r}, train_log.csv has {want!r}")
    return got


def run_train(seed: int, seconds: float, traced: bool) -> Run:
    run = Run("train-n32", seed)
    recipe = load_recipe()
    arch = transforms.ArchConfig(n_main=recipe.ZOO_N_MAIN, c_y=recipe.ZOO_C_Y, c_z=recipe.ZOO_C_Z)
    paths = sorted((ZOO_DIR / "dataset").glob("*.png"))
    log = ZOO_DIR / f"run_{TRAIN_LAMBDA}" / "train_log.csv"
    tracer = Tracer() if traced else None
    if tracer is not None:
        install_tracing(tracer, Streams())
    try:
        def setup():
            trainer = Trainer(train_config(recipe, seed), paths, arch)
            run.attempt(trainer.step, 0)
            return trainer

        trainer = timed_setup(run, SETUP_REPS, setup, tracer)

        with open(log, newline="") as fh:
            rows = [row for _, row in zip(range(REFERENCE_STEPS), csv.DictReader(fh))]
        check(len(rows) == REFERENCE_STEPS, f"{log} has fewer than {REFERENCE_STEPS} steps")
        reference = Trainer(train_config(recipe, recipe.ZOO_SEED), paths, arch)
        replay = [run.attempt(reference_step, reference, k, row) for k, row in enumerate(rows)]
        if tracer is not None:
            tracer.take_segment()
        done = [r for r in replay if r is not None]
        if done:
            run.quality = {"bpp": float(np.mean([r["r_bpp"] for r in done])),
                           "mse": float(np.mean([r["d"] for r in done]))}

        def op(k):
            _, times = trainer.step(k)
            run.record(**times)
            run.counts[k] = (len(run.keys), {})

        timed_loop(run, op, list(range(recipe.ZOO_STEPS)), seconds, 1, tracer, start=1)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return run


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Run:
    if name == "train-n32":
        return run_train(seed, seconds, traced)
    if name in CODEC_WORKLOADS:
        return run_codec(name, seed, seconds, traced)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
