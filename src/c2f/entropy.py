"""Quantization, discretized Gaussian likelihoods and coder-table building.

The bridge between the network and the rANS coder (`rangecoder`).  The
differentiable path (training) composes engine ops; the table-building
path runs in float64 numpy so the probabilities the coder uses are the
exact discretized CDFs, integerized with largest-remainder apportionment
to a total of 65536 with every bin kept >= 1.

Every stream reaches the coder the same way: one
`rangecoder.TableRows(rows, index)` (an array of build_cdf_tables rows,
each over the coder's fixed alphabet plus escape, and the row of every
symbol) and an integer centre subtracted from each value.  The rows are
not built per latent element.  `CoderGrid` holds one shared set on a
(sigma, mean-offset) grid: sigma is quantized to one of
GRID_SIGMAS log-spaced scales, and each element codes its value relative
to the integer centre c = clip(floor(mu + 0.5)) under the row for its
fractional offset mu - c.  Bucket choice is by exact float64 comparison
and arithmetic only, so encoder and decoder pick the same row from the
same float32 mu and sigma.  The zero-mean Z stream has one model per
channel and is coded under its exact per-channel rows, centre 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractViolation, NumericError
from .rangecoder import ALPHABET_MAX, ALPHABET_MIN, CDF_TOTAL, TableRows

__all__ = [
    "QuantizerMode", "FactorizedZ", "CoderGrid", "CODER_GRID",
    "quantize", "gaussian_likelihood", "z_likelihood", "rate_bits",
    "gaussian_bin_prob", "build_cdf_tables",
    "SIGMA_MIN", "SIGMA_MAX", "LIKELIHOOD_FLOOR", "ALPHABET_MIN", "ALPHABET_MAX",
    "GRID_SIGMAS", "GRID_OFFSETS", "ROW_FREQ_MAX",
]

SIGMA_MIN = 0.01
SIGMA_MAX = 256.0
LIKELIHOOD_FLOOR = 2.0 ** -32
GRID_SIGMAS = 256   # log-spaced scales over [SIGMA_MIN, SIGMA_MAX], both ends included
GRID_OFFSETS = 33   # mean offsets over [-0.5, 0.5], step 1/32; odd, so 0 is a grid point

# bin edges of the alphabet's symbols; the escape bin takes the mass outside
_EDGES = np.arange(ALPHABET_MIN, ALPHABET_MAX + 2, dtype=np.float64) - 0.5
# the largest bin a build_cdf_tables row can hold: each of its other
# _EDGES.size bins (the other symbols and the escape) holds one at least.
# The grid's sharpest row, sigma SIGMA_MIN at offset 0, holds it.
ROW_FREQ_MAX = CDF_TOTAL - (_EDGES.size - 1)
_BUILD_CHUNK = 1 << 10  # rows per vectorised step of build_cdf_tables

_LN2 = float(np.log(2.0))


class QuantizerMode(enum.Enum):
    TRAIN_NOISE = "train_noise"          # x + U(-0.5, 0.5), differentiable surrogate
    INFERENCE_ROUND = "inference_round"  # round half away from zero


def round_half_away(data: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(data) + 0.5), data).astype(np.float32)


def quantize(x: Tensor, mode: QuantizerMode, rng: np.random.Generator | None = None) -> Tensor:
    """Quantize a latent tensor.

    TRAIN_NOISE adds seeded i.i.d. uniform noise and keeps the graph alive;
    INFERENCE_ROUND returns a detached integer-valued tensor.
    """
    if mode is QuantizerMode.TRAIN_NOISE:
        if rng is None:
            raise ContractViolation("TRAIN_NOISE quantization needs an rng")
        noise = rng.uniform(-0.5, 0.5, size=x.shape).astype(np.float32)
        return ad.add(x, Tensor(noise))
    if mode is QuantizerMode.INFERENCE_ROUND:
        return Tensor(round_half_away(x.data))
    raise ContractViolation(f"unknown quantizer mode {mode!r}")


def _bin_likelihood(centered: Tensor, sigma: Tensor) -> Tensor:
    """Mass of N(0, sigma) over the unit bin around each centred value,
    floored at LIKELIHOOD_FLOOR."""
    hi = ad.ndtr(ad.div(ad.add_const(centered, 0.5), sigma))
    lo = ad.ndtr(ad.div(ad.add_const(centered, -0.5), sigma))
    return ad.clamp(ad.sub(hi, lo), LIKELIHOOD_FLOOR, 1.0)


def gaussian_likelihood(xhat: Tensor, mu: Tensor, sigma: Tensor) -> Tensor:
    """Probability of each quantized value under N(mu, sigma) integrated
    over its unit bin, floored at LIKELIHOOD_FLOOR."""
    return _bin_likelihood(ad.sub(xhat, mu), sigma)


@dataclass
class FactorizedZ:
    """Zero-mean per-channel Gaussian model for the innermost latent.

    One trainable scale per channel, shared across all spatial positions.
    """

    log_sigma: Tensor  # (1, 1, 1, c)

    @classmethod
    def create(cls, channels: int, sigma_init: float = 1.0) -> "FactorizedZ":
        value = float(np.log(sigma_init))
        return cls(Tensor(np.full((1, 1, 1, channels), value, np.float32),
                          requires_grad=True))

    @property
    def channels(self) -> int:
        return self.log_sigma.shape[3]

    def sigma(self) -> Tensor:
        return ad.clamp(ad.exp(self.log_sigma), SIGMA_MIN, SIGMA_MAX)

    def sigma_values(self) -> np.ndarray:
        return np.clip(np.exp(self.log_sigma.data.astype(np.float64)),
                       SIGMA_MIN, SIGMA_MAX).reshape(-1)


def z_likelihood(zhat: Tensor, fz: FactorizedZ) -> Tensor:
    if zhat.shape[3] != fz.channels:
        raise ContractViolation(
            f"z has {zhat.shape[3]} channels, model has {fz.channels}")
    return _bin_likelihood(zhat, fz.sigma())


def rate_bits(*likelihoods: Tensor) -> Tensor:
    """Total modeled bits: -sum log2 q over every element of every stream.

    Implemented as a left-fold of per-stream scalars, so the total equals
    the float32 sum of the individual rate_bits() values exactly.
    """
    if not likelihoods:
        raise ContractViolation("rate_bits needs at least one likelihood tensor")
    total = None
    for q in likelihoods:
        term = ad.mul_const(ad.sum_all(ad.log(q)), -1.0 / _LN2)
        total = term if total is None else ad.add(total, term)
    return total


# ---------------------------------------------------------------------------
# float64 table math (what the coder actually sees)

def gaussian_bin_prob(x, mu, sigma):
    """Float64 discretized Gaussian bin probability; broadcasts."""
    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    return ad.ndtr64((x + 0.5 - mu) / sigma) - ad.ndtr64((x - 0.5 - mu) / sigma)


def _integerize_rows(p: np.ndarray) -> np.ndarray:
    """Largest-remainder apportionment of probability rows to CDF_TOTAL.

    One count is reserved per bin up front (coder safety), the remaining
    budget is apportioned by floor + largest fractional remainder with
    ties broken by bin index.  Returns cumulative rows of width nbins+1.
    """
    n, nbins = p.shape
    budget = CDF_TOTAL - nbins
    scaled = p * budget
    base = np.floor(scaled).astype(np.int64)
    short = budget - base.sum(axis=1)
    order = np.argsort(-(scaled - base), axis=1, kind="stable")
    bonus_sorted = (np.arange(nbins)[None, :] < short[:, None]).astype(np.int64)
    bonus = np.zeros_like(base)
    np.put_along_axis(bonus, order, bonus_sorted, axis=1)
    freq = base + bonus + 1
    cum = np.zeros((n, nbins + 1), dtype=np.int64)
    np.cumsum(freq, axis=1, out=cum[:, 1:])
    return cum


def build_cdf_tables(mu, sigma) -> np.ndarray:
    """Cumulative rows (n, 258) for n Gaussian models N(mu[i], sigma[i]).

    Row layout: one bin per symbol in [ALPHABET_MIN, ALPHABET_MAX] plus a
    trailing escape bin that absorbs the tail mass outside the alphabet.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    if mu.shape != sigma.shape or mu.ndim != 1:
        raise ContractViolation("mu and sigma must be matching 1-D arrays")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise NumericError("non-finite mean or scale reached the coder")
    n = mu.size
    out = np.empty((n, _EDGES.size + 1), dtype=np.int64)
    for lo_idx in range(0, n, _BUILD_CHUNK):
        hi_idx = min(lo_idx + _BUILD_CHUNK, n)
        m = mu[lo_idx:hi_idx, None]
        s = sigma[lo_idx:hi_idx, None]
        cdf_at_edges = ad.ndtr64((_EDGES[None, :] - m) / s)
        p_sym = np.diff(cdf_at_edges, axis=1)
        p_esc = 1.0 - (cdf_at_edges[:, -1] - cdf_at_edges[:, 0])
        p = np.concatenate([p_sym, p_esc[:, None]], axis=1)
        p = np.clip(p, 0.0, None)
        p /= p.sum(axis=1, keepdims=True)
        out[lo_idx:hi_idx] = _integerize_rows(p)
    return out


class CoderGrid:
    """Coder table rows on the (sigma, mean-offset) grid the Y and X streams share.

    Row r = k * GRID_OFFSETS + j models N(offsets[j], sigmas[k]) over the
    alphabet [ALPHABET_MIN, ALPHABET_MAX] plus an escape bin.  An element
    with mean mu and scale sigma codes the relative symbol value - c, where
    c = clip(floor(mu + 0.5), ALPHABET_MIN, ALPHABET_MAX), under the row
    whose offset is nearest to mu - c (clipped to [-0.5, 0.5]) and whose
    sigma is nearest in log scale.  All rows are built in one call on first
    use and never change after; threads that race to the first use each
    build the same rows and one set is kept.
    """

    def __init__(self):
        # math.exp, not np.exp: the grid must not depend on which SIMD
        # kernel numpy picks on this CPU
        lo, hi = math.log(SIGMA_MIN), math.log(SIGMA_MAX)
        logs = [lo + (hi - lo) * k / (GRID_SIGMAS - 1) for k in range(GRID_SIGMAS)]
        self.sigmas = np.array([SIGMA_MIN] + [math.exp(v) for v in logs[1:-1]] + [SIGMA_MAX])
        # a sigma at or above a bound belongs to the next scale up: the
        # bounds are the geometric midpoints of neighbouring scales
        self._sigma_bounds = np.array([math.exp(0.5 * (a + b)) for a, b in zip(logs, logs[1:])])
        self.offsets = np.linspace(-0.5, 0.5, GRID_OFFSETS)
        self._rows: np.ndarray | None = None

    def locate(self, mu, sigma) -> tuple[np.ndarray, np.ndarray]:
        """(grid row, integer centre) of every element, as int64 arrays."""
        mu = np.asarray(mu, dtype=np.float64).reshape(-1)
        sigma = np.asarray(sigma, dtype=np.float64).reshape(-1)
        if mu.shape != sigma.shape:
            raise ContractViolation(f"{mu.size} means but {sigma.size} scales")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise NumericError("non-finite mean or scale reached the coder")
        center = np.clip(np.floor(mu + 0.5), ALPHABET_MIN, ALPHABET_MAX)
        # exact in float64 for a float32 mu: |mu - c| needs no rounding
        # and the offset step 1/(GRID_OFFSETS - 1) = 1/32 is a power of two
        frac = np.clip(mu - center, -0.5, 0.5)
        j = np.rint((frac + 0.5) * (GRID_OFFSETS - 1)).astype(np.int64)
        k = np.searchsorted(self._sigma_bounds, sigma, side="right")
        return k * GRID_OFFSETS + j, center.astype(np.int64)

    def tables(self, mu, sigma) -> tuple[TableRows, np.ndarray]:
        """Coder tables and integer centres for elements modelled by (mu, sigma).

        The first call builds every row of the grid with one
        build_cdf_tables call; later calls reuse those rows.
        """
        row, center = self.locate(mu, sigma)
        rows = self._rows
        if rows is None:
            k, j = np.divmod(np.arange(GRID_SIGMAS * GRID_OFFSETS), GRID_OFFSETS)
            rows = self._rows = build_cdf_tables(self.offsets[j], self.sigmas[k])
        return TableRows(rows, row), center


# the process-wide grid the codec codes with
CODER_GRID = CoderGrid()
