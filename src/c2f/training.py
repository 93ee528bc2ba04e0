"""Joint rate-distortion training and the desk-scale dataset pipeline.

The objective is R_bpp + lambda * D + w_if * L_if, where R is the
modeled cross-entropy of all three latent streams under additive-noise
quantization, D is MSE on [0,1] pixels (or 1 - MS-SSIM), and L_if is the
information-fidelity norm ||F(Y) - X||_2 that warms up the hyper level
and decays to zero mid-run.

Determinism: every stochastic choice at step k derives from
np.random.default_rng([seed, k, stream]), so runs are reproducible, a
resumed checkpoint continues bit-exactly, and the noise of any step can
be replayed (used by the finite-difference probe of the full loss).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tensor
from .entropy import QuantizerMode, gaussian_likelihood, rate_bits, z_likelihood
from .errors import ConfigError, ContractViolation, FormatError
from .evaluation import MSSSIM_WEIGHTS, MSSSIM_WINDOW, gaussian_window
from .imageio import read_image
from .transforms import DOWNSAMPLE, ArchConfig, CodecModel
from .weights import load_checkpoint, save_checkpoint, save_model


PIXEL_SCALE_SQ = 255.0 ** 2

LIF_WEIGHT = 0.1          # warm-up weight of the info-fidelity loss
LIF_HOLD = 0.2            # fraction of steps at full weight...
LIF_ZERO = 0.5            # ...then linear decay to zero by here
LR_DROPS = (0.7, 0.9)     # lr halves at these fractions


def lambda_to_tag(lam: float) -> int:
    return int(round(10000.0 * lam))


@dataclass
class TrainConfig:
    lambda_: float
    distortion: str = "mse"          # "mse" or "msssim"
    lr: float = 1e-4
    steps: int = 2000
    batch: int = 2
    patch: int = 128
    seed: int = 42
    checkpoint_every: int = 0        # 0 = no intermediate checkpoints

    def __post_init__(self):
        if not self.lambda_ > 0:
            raise ConfigError(f"lambda must be positive, got {self.lambda_}")
        if self.patch % DOWNSAMPLE:
            raise ConfigError(f"patch must be a multiple of {DOWNSAMPLE}, got {self.patch}")
        if self.steps < 1 or self.batch < 1:
            raise ConfigError("steps and batch must be >= 1")
        if self.distortion not in ("mse", "msssim"):
            raise ConfigError(f"unknown distortion kind {self.distortion!r}")

    def lr_at(self, step: int) -> float:
        lr = self.lr
        for frac in LR_DROPS:
            if step >= frac * self.steps:
                lr *= 0.5
        return lr

    def lif_at(self, step: int) -> float:
        frac = step / self.steps
        if frac < LIF_HOLD:
            return LIF_WEIGHT
        if frac < LIF_ZERO:
            return LIF_WEIGHT * (LIF_ZERO - frac) / (LIF_ZERO - LIF_HOLD)
        return 0.0


# ---------------------------------------------------------------------------
# data pipeline

class PatchLoader:
    """Seeded random crops with flips; batch k is a pure function of
    (seed, k), so iteration order is reproducible and resumable."""

    def __init__(self, paths: list, patch: int, seed: int, batch: int = 1):
        self.patch = patch
        self.seed = seed
        self.batch_size = batch
        self.images: list[np.ndarray] = []
        for path in paths:
            try:
                img = read_image(path)
            except (OSError, FormatError) as exc:
                warnings.warn(f"skipping undecodable image {path}: {exc}")
                continue
            if img.shape[0] < patch or img.shape[1] < patch:
                warnings.warn(f"skipping {path}: smaller than patch {patch}")
                continue
            self.images.append(img)
        if not self.images:
            raise ConfigError("no usable images in the dataset")

    def batch(self, step: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, step, 0])
        out = np.empty((self.batch_size, self.patch, self.patch, 3), np.float32)
        for i in range(self.batch_size):
            img = self.images[int(rng.integers(len(self.images)))]
            y0 = int(rng.integers(img.shape[0] - self.patch + 1))
            x0 = int(rng.integers(img.shape[1] - self.patch + 1))
            crop_ = img[y0:y0 + self.patch, x0:x0 + self.patch]
            if rng.integers(2):
                crop_ = crop_[:, ::-1]
            if rng.integers(2):
                crop_ = crop_[::-1, :]
            out[i] = crop_.astype(np.float32) / 255.0
        return out


# ---------------------------------------------------------------------------
# differentiable MS-SSIM (training loss variant: valid windows, [0,1] range)

def _diag_gaussian_kernel(channels: int) -> Tensor:
    w1 = gaussian_window()
    w2 = np.outer(w1, w1).astype(np.float32)
    kern = np.zeros((MSSSIM_WINDOW, MSSSIM_WINDOW, channels, channels), np.float32)
    for c in range(channels):
        kern[:, :, c, c] = w2
    return Tensor(kern)


def msssim_loss_value(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable MS-SSIM on [0,1] tensors; scales shrink with the
    patch so every window stays valid (no padding)."""
    if a.shape != b.shape:
        raise ContractViolation(f"msssim shapes differ: {a.shape} vs {b.shape}")
    channels = a.shape[3]
    scales = 0
    dim = min(a.shape[1], a.shape[2])
    while dim >= MSSSIM_WINDOW and scales < len(MSSSIM_WEIGHTS):
        scales += 1
        dim //= 2
    if scales == 0:
        raise ContractViolation(f"patch {a.shape} smaller than the SSIM window")
    weights = np.asarray(MSSSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()
    kern = _diag_gaussian_kernel(channels)
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2

    total = None
    for s in range(scales):
        mu_a = ad.conv2d(a, kern, 1, "valid")
        mu_b = ad.conv2d(b, kern, 1, "valid")
        var_a = ad.sub(ad.conv2d(ad.mul(a, a), kern, 1, "valid"), ad.square(mu_a))
        var_b = ad.sub(ad.conv2d(ad.mul(b, b), kern, 1, "valid"), ad.square(mu_b))
        cov = ad.sub(ad.conv2d(ad.mul(a, b), kern, 1, "valid"), ad.mul(mu_a, mu_b))
        cs = ad.div(ad.add_const(ad.mul_const(cov, 2.0), c2),
                    ad.add_const(ad.add(var_a, var_b), c2))
        cs_mean = ad.relu(ad.mean_all(cs))
        if s + 1 < scales:
            term = ad.powc(cs_mean, float(weights[s]))
            a = ad.avg_pool2(a)
            b = ad.avg_pool2(b)
        else:
            lum = ad.div(ad.add_const(ad.mul_const(ad.mul(mu_a, mu_b), 2.0), c1),
                         ad.add_const(ad.add(ad.square(mu_a), ad.square(mu_b)), c1))
            ssim_last = ad.mul(ad.relu(ad.mean_all(lum)), cs_mean)
            term = ad.powc(ssim_last, float(weights[s]))
        total = term if total is None else ad.mul(total, term)
    return total


# ---------------------------------------------------------------------------
# loss

@dataclass
class RdLossResult:
    loss: Tensor
    r_bpp: float
    d: float
    lif: float
    loss_value: float = field(init=False)

    def __post_init__(self):
        self.loss_value = self.loss.item()


def rd_loss(model: CodecModel, batch: np.ndarray, lambda_: float,
            rng: np.random.Generator, lif_weight: float = 0.0,
            distortion: str = "mse") -> RdLossResult:
    """One differentiable forward pass of R + lambda*D (+ w_if * L_if).

    The quantizer runs in noise mode; noise draws consume `rng` in the
    fixed order Z, Y, X so a fresh generator with the same seed replays
    the step exactly.  L_if is always computed and reported, from the
    same noisy Y the rate term sees; it enters the loss only when
    lif_weight > 0.
    """
    x = batch if isinstance(batch, Tensor) else Tensor(batch)
    n_pixels = x.shape[0] * x.shape[1] * x.shape[2]

    lat = model.forward(x, QuantizerMode.TRAIN_NOISE, rng)
    q_x = gaussian_likelihood(lat.x, lat.mu_x, lat.sigma_x)
    q_y = gaussian_likelihood(lat.y, lat.mu_y, lat.sigma_y)
    q_z = z_likelihood(lat.z, model.fz)
    r_bpp = ad.mul_const(rate_bits(q_x, q_y, q_z), 1.0 / n_pixels)

    recon = model.synthesize(lat.x, lat.side1, lat.side2)
    if distortion == "mse":
        # the objective weighs squared error on the 8-bit pixel scale, the
        # convention the lambda grid is calibrated for; D is reported on [0,1]
        d = ad.mse(recon, x)
        d_weight = lambda_ * PIXEL_SCALE_SQ
    elif distortion == "msssim":
        d = ad.add_const(ad.neg(msssim_loss_value(recon, x)), 1.0)
        d_weight = lambda_ * 10.0
    else:
        raise ConfigError(f"unknown distortion kind {distortion!r}")

    lif = ad.l2_norm(ad.sub(model.info_proj(lat.y), lat.x_cont))
    loss = ad.add(r_bpp, ad.mul_const(d, d_weight))
    if lif_weight > 0.0:
        loss = ad.add(loss, ad.mul_const(lif, lif_weight))
    return RdLossResult(loss=loss, r_bpp=r_bpp.item(), d=d.item(), lif=lif.item())


# ---------------------------------------------------------------------------
# training loop

def train(config: TrainConfig, dataset_paths: list, out_dir=None,
          arch: ArchConfig | None = None, resume=None,
          progress=None) -> tuple[CodecModel, list[dict]]:
    """Optimize a model on a directory of images.

    Writes train_log.csv (step, r_bpp, d, lif, loss) and model.c2fw under
    out_dir when given; emits checkpoint_<step>.c2fw at the configured
    interval.  Resuming from a checkpoint reproduces the exact run.  The
    lif column is the step's own L_if (before its update), logged even
    once its weight has decayed to zero.
    """
    loader = PatchLoader(dataset_paths, config.patch, config.seed, config.batch)
    if resume is not None:
        model, opt_arrays, start_step = load_checkpoint(resume)
        opt = Adam(model.param_list(), lr=config.lr)
        opt.load_state_arrays(opt_arrays)
    else:
        model = CodecModel(arch or ArchConfig(),
                           lambda_tag=lambda_to_tag(config.lambda_),
                           distortion=config.distortion, seed=config.seed)
        opt = Adam(model.param_list(), lr=config.lr)
        start_step = 0

    out_dir = Path(out_dir) if out_dir is not None else None
    log_fh = None
    log_writer = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        mode = "a" if resume is not None else "w"
        log_fh = open(out_dir / "train_log.csv", mode, newline="")
        log_writer = csv.writer(log_fh)
        if resume is None:
            log_writer.writerow(["step", "r_bpp", "d", "lif", "loss"])

    metrics: list[dict] = []
    try:
        for step in range(start_step, config.steps):
            opt.lr = config.lr_at(step)
            batch = loader.batch(step)
            noise_rng = np.random.default_rng([config.seed, step, 1])
            w_if = config.lif_at(step)
            out = rd_loss(model, batch, config.lambda_, noise_rng,
                          lif_weight=w_if, distortion=config.distortion)
            opt.zero_grad()
            out.loss.backward()
            opt.step()
            row = {"step": step, "r_bpp": out.r_bpp, "d": out.d,
                   "lif": out.lif, "loss": out.loss_value}
            metrics.append(row)
            if log_writer is not None:
                log_writer.writerow([step, f"{out.r_bpp:.6f}", f"{out.d:.8f}",
                                     f"{out.lif:.6f}", f"{out.loss_value:.6f}"])
            if progress is not None:
                progress(row)
            if (out_dir is not None and config.checkpoint_every
                    and (step + 1) % config.checkpoint_every == 0
                    and step + 1 < config.steps):
                save_checkpoint(model, opt, step + 1,
                                out_dir / f"checkpoint_{step + 1:06d}.c2fw")
    finally:
        if log_fh is not None:
            log_fh.close()
    if out_dir is not None:
        save_model(model, out_dir / "model.c2fw")
    return model, metrics


# ---------------------------------------------------------------------------
# synthetic desk-scale data

def synthetic_patch(rng: np.random.Generator, size: int) -> np.ndarray:
    """One gradient+noise patch: a random linear ramp between two colors,
    one soft low-frequency wave, and mild pixel noise."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / size
    theta = rng.uniform(0, 2 * np.pi)
    ramp = np.cos(theta) * xx + np.sin(theta) * yy
    ramp = (ramp - ramp.min()) / (np.ptp(ramp) + 1e-9)
    c0 = rng.uniform(20, 235, 3)
    c1 = rng.uniform(20, 235, 3)
    img = c0[None, None] + ramp[:, :, None] * (c1 - c0)[None, None]
    freq = rng.uniform(0.5, 3.0)
    phase = rng.uniform(0, 2 * np.pi)
    ori = rng.uniform(0, 2 * np.pi)
    wave = np.sin(2 * np.pi * freq * (np.cos(ori) * xx + np.sin(ori) * yy) + phase)
    img += rng.uniform(3, 10) * wave[:, :, None]
    img += rng.normal(0, rng.uniform(1, 4), img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def make_synthetic_dataset(out_dir, count: int, size: int = 64,
                           seed: int = 0) -> list:
    from .imageio import write_image
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(count):
        path = out_dir / f"patch_{i:04d}.png"
        write_image(path, synthetic_patch(rng, size))
        paths.append(path)
    return paths
