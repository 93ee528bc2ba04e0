"""Metrics and RD curves.

PSNR and MS-SSIM on 8-bit images, bits-per-pixel from container sizes,
per-image RD rows for one model and their per-model averages (the RD
points of `c2f rdcurve`), and BD-rate over monotone piecewise-cubic
(PCHIP) interpolants of log2(bpp) as a function of distortion (`c2f
bdrate`).

MS-SSIM constants (recorded here as the reference configuration):
11x11 Gaussian window with sigma 1.5, K1 = 0.01, K2 = 0.03, five scale
weights (0.0448, 0.2856, 0.3001, 0.2363, 0.1333), 2x2 mean-pool between
scales, symmetric boundary handling, channel-averaged.  Images smaller
than 160x160 drop the deepest scales (weights renormalized) unless a
scale count is pinned by the caller.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.interpolate import PchipInterpolator

from .errors import ConfigError, ContractViolation, EvaluationError

MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
MSSSIM_WINDOW = 11
MSSSIM_SIGMA = 1.5
MSSSIM_K1 = 0.01
MSSSIM_K2 = 0.03

RD_CSV_FIELDS = ("codec", "image", "bpp", "psnr_db", "msssim", "msssim_db")


# ---------------------------------------------------------------------------
# scalar metrics

def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB on the 8-bit [0, 255] range."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ContractViolation(f"psnr dims differ: {a.shape} vs {b.shape}")
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def gaussian_window() -> np.ndarray:
    x = np.arange(MSSSIM_WINDOW, dtype=np.float64) - (MSSSIM_WINDOW - 1) / 2.0
    w = np.exp(-(x ** 2) / (2.0 * MSSSIM_SIGMA ** 2))
    return w / w.sum()


def _filter2(plane: np.ndarray, window: np.ndarray) -> np.ndarray:
    out = ndimage.correlate1d(plane, window, axis=0, mode="reflect")
    return ndimage.correlate1d(out, window, axis=1, mode="reflect")


def _ssim_pass(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Mean luminance and contrast-structure terms for one scale."""
    c1 = (MSSSIM_K1 * 255.0) ** 2
    c2 = (MSSSIM_K2 * 255.0) ** 2
    window = gaussian_window()
    mu_a = _filter2(a, window)
    mu_b = _filter2(b, window)
    var_a = _filter2(a * a, window) - mu_a ** 2
    var_b = _filter2(b * b, window) - mu_b ** 2
    cov = _filter2(a * b, window) - mu_a * mu_b
    lum = (2 * mu_a * mu_b + c1) / (mu_a ** 2 + mu_b ** 2 + c1)
    cs = (2 * cov + c2) / (var_a + var_b + c2)
    return float(lum.mean()), float(cs.mean())


def _downsample2(plane: np.ndarray) -> np.ndarray:
    h2, w2 = plane.shape[0] // 2, plane.shape[1] // 2
    return plane[:h2 * 2, :w2 * 2].reshape(h2, 2, w2, 2).mean(axis=(1, 3))


def max_scales(h: int, w: int) -> int:
    """Usable pyramid depth: the full window must fit the input scale and
    at least half the window must fit every downsampled scale (boundary
    reflection covers the rest), so 160x160 supports all five scales."""
    dim = min(h, w)
    if dim < MSSSIM_WINDOW:
        return 0
    scales = 1
    dim //= 2
    while dim >= (MSSSIM_WINDOW + 1) // 2 and scales < len(MSSSIM_WEIGHTS):
        scales += 1
        dim //= 2
    return scales


def ms_ssim(a: np.ndarray, b: np.ndarray, scales: int | None = None) -> float:
    """Multi-scale structural similarity in [0, 1] of 8-bit images, channel-averaged."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ContractViolation(f"ms_ssim dims differ: {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a = a[:, :, None]
        b = b[:, :, None]
    h, w = a.shape[:2]
    usable = max_scales(h, w)
    if scales is None:
        scales = usable
        if scales < 1:
            raise ContractViolation(
                f"image {h}x{w} smaller than the {MSSSIM_WINDOW}-tap window")
    elif scales > usable:
        raise ContractViolation(
            f"{scales}-scale pyramid needs min dim >= {MSSSIM_WINDOW * 2 ** (scales - 1)}, "
            f"got {h}x{w}")
    weights = np.asarray(MSSSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()

    values = []
    for ch in range(a.shape[2]):
        pa = a[:, :, ch].astype(np.float64)
        pb = b[:, :, ch].astype(np.float64)
        mcs = []
        lum = 1.0
        for s in range(scales):
            lum, cs = _ssim_pass(pa, pb)
            mcs.append(max(cs, 0.0))
            if s + 1 < scales:
                pa = _downsample2(pa)
                pb = _downsample2(pb)
        ssim_last = max(lum, 0.0) * mcs[-1]
        value = float(np.prod([m ** wt for m, wt in zip(mcs[:-1], weights[:-1])])
                      * ssim_last ** weights[-1])
        values.append(value)
    return float(np.mean(values))


def ms_ssim_db(value: float) -> float:
    """-10 log10(1 - d); +inf sentinel at exactly 1."""
    if value >= 1.0:
        return math.inf
    return -10.0 * math.log10(1.0 - value)


def bpp(container, orig_w: int, orig_h: int) -> float:
    """Bits per pixel of a whole container (header included)."""
    nbytes = container if isinstance(container, int) else len(container)
    return 8.0 * nbytes / (orig_w * orig_h)


# ---------------------------------------------------------------------------
# RD curves and BD-rate

@dataclass(frozen=True)
class RdPoint:
    bpp: float
    distortion: float

    def __post_init__(self):
        if not self.bpp > 0:
            raise ContractViolation(f"bpp must be positive, got {self.bpp}")


@dataclass
class RdCurve:
    codec: str
    points: list[RdPoint] = field(default_factory=list)

    def sorted_points(self) -> list[RdPoint]:
        pts = sorted(self.points, key=lambda p: p.bpp)
        for a, b in zip(pts, pts[1:]):
            if not a.bpp < b.bpp:
                raise ContractViolation(f"curve {self.codec!r} has duplicate bpp {a.bpp}")
        return pts

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        pts = self.sorted_points()
        return (np.array([p.bpp for p in pts]),
                np.array([p.distortion for p in pts]))


def _log_rate_interp(curve: RdCurve) -> tuple[PchipInterpolator, PchipInterpolator,
                                              float, float]:
    rate, dist = curve.arrays()
    if len(rate) < 4:
        raise EvaluationError(
            f"BD-rate needs >= 4 points, curve {curve.codec!r} has {len(rate)}")
    if not np.all(np.diff(dist) > 0):
        raise EvaluationError(
            f"curve {curve.codec!r} distortion is not strictly increasing with bpp")
    log_rate = np.log2(rate)
    return (PchipInterpolator(dist, log_rate),        # log2 bpp as f(distortion)
            PchipInterpolator(log_rate, dist),        # distortion as f(log2 bpp)
            float(rate[0]), float(rate[-1]))


def bd_rate(anchor: RdCurve, test: RdCurve, bpp_range: tuple[float, float]) -> float:
    """Average bit-rate difference of `test` vs `anchor` in percent.

    log2(bpp) is interpolated as a monotone piecewise-cubic function of
    distortion; the difference is averaged over the distortion interval
    that the given bpp range induces on both curves, and mapped back with
    (2**delta - 1) * 100.
    """
    lo, hi = bpp_range
    if not 0 < lo < hi:
        raise ContractViolation(f"bad bpp range {bpp_range}")
    d_lo = -math.inf
    d_hi = math.inf
    interps = []
    for curve in (anchor, test):
        rate_of_d, d_of_lograte, rate_min, rate_max = _log_rate_interp(curve)
        lo_eff = max(lo, rate_min)
        hi_eff = min(hi, rate_max)
        if not lo_eff < hi_eff:
            raise EvaluationError(
                f"curve {curve.codec!r} (bpp {rate_min:.3f}..{rate_max:.3f}) does not "
                f"overlap range [{lo}, {hi}]")
        d_lo = max(d_lo, float(d_of_lograte(math.log2(lo_eff))))
        d_hi = min(d_hi, float(d_of_lograte(math.log2(hi_eff))))
        interps.append(rate_of_d)
    if not d_lo < d_hi:
        raise EvaluationError(
            f"curves {anchor.codec!r} and {test.codec!r} share no distortion interval "
            f"inside bpp range [{lo}, {hi}]")
    int_anchor = float(interps[0].integrate(d_lo, d_hi))
    int_test = float(interps[1].integrate(d_lo, d_hi))
    delta = (int_test - int_anchor) / (d_hi - d_lo)
    return (2.0 ** delta - 1.0) * 100.0


# ---------------------------------------------------------------------------
# RD rows and curves

@dataclass
class RdRow:
    codec: str
    quality: str
    image: str
    bpp: float
    psnr_db: float
    msssim: float

    @property
    def msssim_db(self) -> float:
        return ms_ssim_db(self.msssim)


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.6f}"


def write_rd_csv(rows: list[RdRow], out) -> None:
    writer = csv.writer(out)
    writer.writerow(RD_CSV_FIELDS)
    for r in rows:
        writer.writerow([r.codec, r.image, _fmt(r.bpp), _fmt(r.psnr_db),
                         _fmt(r.msssim), _fmt(r.msssim_db)])


def read_rd_csv(path) -> list[RdRow]:
    """Read RD points; accepts the pinned schema plus an optional
    'quality' column used to group multi-model codecs.  A file that does
    not decode as text, or that the csv module cannot parse, raises
    ConfigError."""
    rows: list[RdRow] = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ConfigError(f"{path}: empty CSV")
            missing = {"codec", "image", "bpp"} - set(reader.fieldnames)
            if missing:
                raise ConfigError(f"{path}: missing CSV columns {sorted(missing)}")
            seen: dict[tuple[str, str], int] = {}
            for rec in reader:
                key = (rec["codec"], rec["image"])
                idx = seen[key] = seen.get(key, -1) + 1
                quality = rec.get("quality") or str(idx)
                line = reader.line_num
                rows.append(RdRow(
                    codec=rec["codec"], quality=quality, image=rec["image"],
                    bpp=_csv_float(path, line, "bpp", rec["bpp"]),
                    psnr_db=_csv_float(path, line, "psnr_db",
                                       rec.get("psnr_db") or rec.get("psnr") or "nan"),
                    msssim=_csv_float(path, line, "msssim", rec.get("msssim") or "nan")))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: not a readable CSV: {exc}") from None
    return rows


def _csv_float(path, line: int, field: str, text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):  # TypeError: the row ends before the field
        raise ConfigError(f"{path} line {line}: {field} {text!r} is not a number") from None


def average_rows(rows: list[RdRow], metric: str = "psnr_db") -> dict[str, RdCurve]:
    """One RD point per (codec, quality), at the mean of its rows' bpp and
    distortion; curves keyed by codec."""
    groups: dict[tuple[str, str], list[RdRow]] = {}
    for r in rows:
        groups.setdefault((r.codec, r.quality), []).append(r)
    curves: dict[str, RdCurve] = {}
    for (codec_name, quality), grp in sorted(groups.items()):
        mean_bpp = float(np.mean([g.bpp for g in grp]))
        if metric == "msssim_db":
            dist = float(np.mean([g.msssim for g in grp]))
            dist = ms_ssim_db(dist)
        elif metric == "msssim":
            dist = float(np.mean([g.msssim for g in grp]))
        else:
            dist = float(np.mean([g.psnr_db for g in grp]))
        curves.setdefault(codec_name, RdCurve(codec_name)).points.append(
            RdPoint(mean_bpp, dist))
    return curves


def write_curves_csv(curves: dict[str, RdCurve], out) -> None:
    """Averaged curves in the RD CSV schema, image column "mean"."""
    writer = csv.writer(out)
    writer.writerow(RD_CSV_FIELDS)
    for name, curve in sorted(curves.items()):
        for pt in curve.sorted_points():
            writer.writerow([name, "mean", _fmt(pt.bpp), _fmt(pt.distortion), "", ""])


def model_rd_rows(model, images: list, codec: str = "c2f") -> list[RdRow]:
    """Encode, decode and score every (name, image) pair with one model,
    serially.

    One RdRow per image; quality is the model's lambda tag and bpp counts
    the whole container.  The model's curve point takes the mean of the
    per-image bpp; where that diverges by more than 1% from the pooled
    total bits over total pixels (images of unequal sizes), a warning
    naming both values goes to stderr.
    """
    from .codec import decode_array, encode_array

    rows = []
    bits = pixels = 0
    for name, img in images:
        res = encode_array(model, img)
        out = decode_array(model, res.data)
        bits += 8 * len(res.data)
        pixels += img.shape[0] * img.shape[1]
        rows.append(RdRow(codec=codec, quality=str(model.lambda_tag),
                          image=name,
                          bpp=bpp(len(res.data), img.shape[1], img.shape[0]),
                          psnr_db=psnr(img, out.image),
                          msssim=ms_ssim(img, out.image)))
    if rows:
        mean_v = float(np.mean([r.bpp for r in rows]))
        pooled_v = bits / pixels
        if abs(mean_v - pooled_v) > 0.01 * pooled_v:
            print(f"warning: {codec}@{model.lambda_tag}: mean bpp {mean_v:.4f} vs "
                  f"pooled {pooled_v:.4f} diverge > 1%", file=sys.stderr)
    return rows
