"""End-to-end image encode/decode.

Encoding rounds each latent plane and re-derives the entropy-model
parameters from the *rounded* values exactly as the decoder will, so both
sides pick their coder tables from bit-identical float32 inputs.
Stream order is Z, then Y (tables predicted from the decoded Z), then X
(tables predicted from the decoded Y); symbols are raster scan with the
channel axis innermost.

Every stream reaches the rANS coder (`rangecoder`) as one
`rangecoder.TableRows` (an array of cumulative rows and the row of every
symbol) and an integer centre subtracted from each value.  Y and X code
through the shared `entropy.CODER_GRID`: each element is coded as
value - c under the grid row nearest its (mu - c, sigma), where c is its
mean rounded to an integer in the alphabet.  Z is zero-mean with one
sigma per channel, so it is coded under its c_z exact rows, built on
every call, with c = 0.
The latents, their digest and `modeled_bits` (the float model's
cross-entropy) do not depend on the grid; only the Y and X stream bytes
do.

A stream shorter than its symbol count allows (`rangecoder.shortest_stream`)
is refused before the decoder builds any array per symbol, so a hostile
header cannot make it allocate for a plane its streams could not hold.

The header carries the first 4 bytes of the latent digest.  The decoder
compares them once X is decoded and before synthesis, so a stream that
decodes to other latents (a flipped bit, or side-path floats that pick
other table rows on another CPU) raises CorruptStreamError instead of
giving a wrong image.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rangecoder as rc
from .autodiff import Tensor
from .container import (ContainerHeader, check_image_size, read_container,
                        write_container)
from .entropy import (CODER_GRID, LIKELIHOOD_FLOOR, ROW_FREQ_MAX, QuantizerMode,
                      alphabet_rows, build_cdf_tables, gaussian_bin_prob)
from .errors import (ContractViolation, CorruptStreamError,
                     ModelIdMismatchError, NumericError)
from .imageio import pad_to_multiple
from .transforms import DOWNSAMPLE, CodecModel, LatentTriple
from .weights import model_digest


@dataclass
class EncodeResult:
    data: bytes             # complete container bytes
    latents: LatentTriple   # encoder-side quantized planes and parameters
    modeled_bits: float     # float cross-entropy of the coded symbols
    stream_bits: int        # 8 * total coded payload (header excluded)
    latent_digest: str      # sha-256 over the quantized integer planes


def _symbols(t: Tensor) -> np.ndarray:
    """A quantized plane's coder symbols.  A latent beyond int32, which no
    escape carries, comes from a model that overflows on its input."""
    data = t.data.reshape(-1)
    if data.size and not np.abs(data).max() < 2 ** 31:
        raise NumericError("latent values beyond the coder's int32 range")
    return data.astype(np.int64)


def _z_rows(sigma_z: np.ndarray) -> np.ndarray:
    """One exact zero-mean row per channel of Z."""
    return build_cdf_tables(np.zeros(sigma_z.size), sigma_z)


def _z_tables(rows: np.ndarray, n_symbols: int) -> tuple[rc.TableRows, int]:
    # channel innermost
    return alphabet_rows(rows, np.arange(n_symbols) % len(rows)), 0


def _encode(values: np.ndarray, tables: rc.TableRows, center) -> bytes:
    return rc.encode(values - center, tables)


def _decode(data: bytes, tables: rc.TableRows, center, shape) -> Tensor:
    rel = rc.decode(data, tables, math.prod(shape))
    return Tensor((rel + center).astype(np.float32).reshape(shape))


def _modeled_bits(values: np.ndarray, mu, sigma) -> float:
    q = gaussian_bin_prob(values, mu, sigma)
    return float(-np.sum(np.log2(np.maximum(q, LIKELIHOOD_FLOOR))))


def latent_digest(xhat: np.ndarray, yhat: np.ndarray, zhat: np.ndarray) -> str:
    h = hashlib.sha256()
    for plane in (zhat, yhat, xhat):
        h.update(np.ascontiguousarray(plane, dtype=np.int64).tobytes())
    return h.hexdigest()


def latent_check(digest: str) -> bytes:
    """The 4 bytes of a latent digest that a container header carries."""
    return bytes.fromhex(digest[:8])


def encode_array(model: CodecModel, img: np.ndarray) -> EncodeResult:
    """Compress an (h, w, 3) uint8 image into a container byte string."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ContractViolation(f"encoder expects (h, w, 3) uint8, got {img.shape} {img.dtype}")
    orig_h, orig_w = img.shape[:2]
    check_image_size(orig_w, orig_h)
    padded = pad_to_multiple(img, DOWNSAMPLE)
    pad_h, pad_w = padded.shape[:2]

    with ad.no_grad():
        x_in = Tensor((padded.astype(np.float32) / 255.0)[None])
        lat = model.forward(x_in, QuantizerMode.INFERENCE_ROUND)

    sigma_z = lat.sigma_z
    z_syms = _symbols(lat.z)
    y_syms = _symbols(lat.y)
    x_syms = _symbols(lat.x)

    zbytes = _encode(z_syms, *_z_tables(_z_rows(sigma_z), z_syms.size))
    ybytes = _encode(y_syms, *CODER_GRID.tables(lat.mu_y.data, lat.sigma_y.data))
    xbytes = _encode(x_syms, *CODER_GRID.tables(lat.mu_x.data, lat.sigma_x.data))

    modeled = (_modeled_bits(z_syms, 0.0, np.tile(sigma_z, z_syms.size // sigma_z.size))
               + _modeled_bits(y_syms, lat.mu_y.data.reshape(-1), lat.sigma_y.data.reshape(-1))
               + _modeled_bits(x_syms, lat.mu_x.data.reshape(-1), lat.sigma_x.data.reshape(-1)))

    digest = latent_digest(lat.x.data, lat.y.data, lat.z.data)
    header = ContainerHeader(model_id=model_digest(model),
                             orig_w=orig_w, orig_h=orig_h,
                             pad_w=pad_w, pad_h=pad_h,
                             lambda_tag=model.lambda_tag,
                             latent_check=latent_check(digest))
    data = write_container(header, zbytes, ybytes, xbytes)
    return EncodeResult(
        data=data, latents=lat, modeled_bits=modeled,
        stream_bits=8 * (len(zbytes) + len(ybytes) + len(xbytes)),
        latent_digest=digest)


@dataclass
class DecodeResult:
    image: np.ndarray       # (orig_h, orig_w, 3) uint8
    header: ContainerHeader
    latent_digest: str


def decode_array(model: CodecModel, data: bytes) -> DecodeResult:
    """Decompress a container produced by encode_array with the same weights."""
    header, zbytes, ybytes, xbytes = read_container(data)
    digest = model_digest(model)
    if header.model_id != digest:
        raise ModelIdMismatchError(
            f"container was written by weights {header.model_id.hex()[:12]}..., "
            f"supplied weights are {digest.hex()[:12]}...")
    try:
        return _decode_streams(model, header, zbytes, ybytes, xbytes)
    except NumericError as exc:
        # the weights match, so a non-finite value can only come from
        # latents no encoder wrote
        raise CorruptStreamError(f"stream decodes to invalid latents: {exc}") from exc


def _decode_streams(model: CodecModel, header: ContainerHeader, zbytes: bytes,
                    ybytes: bytes, xbytes: bytes) -> DecodeResult:
    with ad.no_grad():
        xhat, side1, side2, digest = _decode_latents(model, header, zbytes, ybytes, xbytes)
        img = np.empty((header.orig_h, header.orig_w, 3), np.uint8)

        def write_pixels(r0: int, band: np.ndarray) -> None:
            # each finished band of the synthesis becomes pixels in place
            rows = band[:max(header.orig_h - r0, 0), :header.orig_w]
            np.clip(rows, 0.0, 1.0, out=rows)
            np.multiply(rows, 255.0, out=rows)
            img[r0:r0 + len(rows)] = np.round(rows, out=rows)

        model.synthesize(xhat, side1, side2, sink=write_pixels)
    return DecodeResult(image=img, header=header, latent_digest=digest)


def _decode_latents(model: CodecModel, header: ContainerHeader, zbytes: bytes,
                    ybytes: bytes, xbytes: bytes) -> tuple[Tensor, Tensor, Tensor, str]:
    """X and the two side maps the synthesis reads, and the latent digest;
    every other plane is dropped with this frame."""
    x_shape, y_shape, z_shape = model.latent_shapes(header.pad_h, header.pad_w)
    z_rows = _z_rows(model.fz.sigma_values())
    for name, data, shape, f_max in (("Z", zbytes, z_shape, int(np.diff(z_rows).max())),
                                     ("Y", ybytes, y_shape, ROW_FREQ_MAX),
                                     ("X", xbytes, x_shape, ROW_FREQ_MAX)):
        if len(data) < rc.shortest_stream(math.prod(shape), f_max):
            raise CorruptStreamError(f"the {len(data)}-byte {name} stream is too short "
                                     f"for its {math.prod(shape)} symbols")
    zhat = _decode(zbytes, *_z_tables(z_rows, math.prod(z_shape)), z_shape)
    side2, mu_y, sigma_y = model.side_params(zhat, 2)
    yhat = _decode(ybytes, *CODER_GRID.tables(mu_y.data, sigma_y.data), y_shape)
    side1, mu_x, sigma_x = model.side_params(yhat, 1)
    xhat = _decode(xbytes, *CODER_GRID.tables(mu_x.data, sigma_x.data), x_shape)
    digest = latent_digest(xhat.data, yhat.data, zhat.data)
    if latent_check(digest) != header.latent_check:
        raise CorruptStreamError(
            f"decoded latents fail the header's check ({digest[:8]} != "
            f"{header.latent_check.hex()})")
    return xhat, side1, side2, digest
