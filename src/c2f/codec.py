"""End-to-end image encode/decode.

Encoding rounds each latent plane and re-derives the entropy-model
parameters from the *rounded* values exactly as the decoder will, so the
coder tables on both sides are built from bit-identical float32 inputs.
Stream order is Z, then Y (tables predicted from the decoded Z), then X
(tables predicted from the decoded Y); symbols are raster scan with the
channel axis innermost.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rangecoder as rc
from .autodiff import Tensor
from .container import ContainerHeader, read_container, write_container
from .entropy import (ALPHABET_MIN, LIKELIHOOD_FLOOR, QuantizerMode,
                      TableBatch, build_cdf_tables, gaussian_bin_prob)
from .errors import (ContractViolation, CorruptStreamError,
                     ModelIdMismatchError, NumericError)
from .imageio import crop, pad_to_multiple
from .transforms import CodecModel, LatentTriple
from .weights import model_digest


@dataclass
class EncodeResult:
    data: bytes             # complete container bytes
    latents: LatentTriple   # encoder-side quantized planes and parameters
    modeled_bits: float     # float cross-entropy of the coded symbols
    stream_bits: int        # 8 * total coded payload (header excluded)
    latent_digest: str      # sha-256 over the quantized integer planes


def _symbols(t: Tensor) -> np.ndarray:
    return t.data.reshape(-1).astype(np.int64)


def _gaussian_tables(mu: Tensor, sigma: Tensor) -> TableBatch:
    rows = build_cdf_tables(mu.data.reshape(-1), sigma.data.reshape(-1))
    return TableBatch(rows, ALPHABET_MIN)


def _z_tables(sigma_z: np.ndarray, n_symbols: int) -> TableBatch:
    c = sigma_z.size
    rows = build_cdf_tables(np.zeros(c), sigma_z)
    return TableBatch(rows, ALPHABET_MIN,
                      row_of_symbol=np.tile(np.arange(c), n_symbols // c))


def _modeled_bits(values: np.ndarray, mu, sigma) -> float:
    q = gaussian_bin_prob(values, mu, sigma)
    return float(-np.sum(np.log2(np.maximum(q, LIKELIHOOD_FLOOR))))


def latent_digest(xhat: np.ndarray, yhat: np.ndarray, zhat: np.ndarray) -> str:
    h = hashlib.sha256()
    for plane in (zhat, yhat, xhat):
        h.update(np.ascontiguousarray(plane, dtype=np.int64).tobytes())
    return h.hexdigest()


def encode_array(model: CodecModel, img: np.ndarray) -> EncodeResult:
    """Compress an (h, w, 3) uint8 image into a container byte string."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ContractViolation(f"encoder expects (h, w, 3) uint8, got {img.shape} {img.dtype}")
    orig_h, orig_w = img.shape[:2]
    padded = pad_to_multiple(img, 64)
    pad_h, pad_w = padded.shape[:2]

    with ad.no_grad():
        x_in = Tensor((padded.astype(np.float32) / 255.0)[None])
        lat = model.forward(x_in, QuantizerMode.INFERENCE_ROUND)

    sigma_z = lat.sigma_z
    z_syms = _symbols(lat.z)
    y_syms = _symbols(lat.y)
    x_syms = _symbols(lat.x)

    zbytes = rc.encode(z_syms, _z_tables(sigma_z, z_syms.size))
    ybytes = rc.encode(y_syms, _gaussian_tables(lat.mu_y, lat.sigma_y))
    xbytes = rc.encode(x_syms, _gaussian_tables(lat.mu_x, lat.sigma_x))

    modeled = (_modeled_bits(z_syms, 0.0, np.tile(sigma_z, z_syms.size // sigma_z.size))
               + _modeled_bits(y_syms, lat.mu_y.data.reshape(-1), lat.sigma_y.data.reshape(-1))
               + _modeled_bits(x_syms, lat.mu_x.data.reshape(-1), lat.sigma_x.data.reshape(-1)))

    header = ContainerHeader(model_id=model_digest(model),
                             orig_w=orig_w, orig_h=orig_h,
                             pad_w=pad_w, pad_h=pad_h,
                             lambda_tag=model.lambda_tag)
    data = write_container(header, zbytes, ybytes, xbytes)
    return EncodeResult(
        data=data, latents=lat, modeled_bits=modeled,
        stream_bits=8 * (len(zbytes) + len(ybytes) + len(xbytes)),
        latent_digest=latent_digest(lat.x.data, lat.y.data, lat.z.data))


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
        # latents no encoder wrote: a flipped bit desynced the coder
        raise CorruptStreamError(f"stream decodes to invalid latents: {exc}") from exc


def _decode_streams(model: CodecModel, header: ContainerHeader, zbytes: bytes,
                    ybytes: bytes, xbytes: bytes) -> DecodeResult:
    x_shape, y_shape, z_shape = model.latent_shapes(header.pad_h, header.pad_w)

    sigma_z = model.fz.sigma_values()
    n_z = int(np.prod(z_shape))
    z_syms = rc.decode(zbytes, _z_tables(sigma_z, n_z), n_z)
    zhat = Tensor(np.asarray(z_syms, np.float32).reshape(z_shape))

    with ad.no_grad():
        side2 = model.hyper_synthesis(zhat, 2)
        mu_y, sigma_y = model.predict_params(side2, "y")
    n_y = int(np.prod(y_shape))
    y_syms = rc.decode(ybytes, _gaussian_tables(mu_y, sigma_y), n_y)
    yhat = Tensor(np.asarray(y_syms, np.float32).reshape(y_shape))

    with ad.no_grad():
        side1 = model.hyper_synthesis(yhat, 1)
        mu_x, sigma_x = model.predict_params(side1, "x")
    n_x = int(np.prod(x_shape))
    x_syms = rc.decode(xbytes, _gaussian_tables(mu_x, sigma_x), n_x)
    xhat = Tensor(np.asarray(x_syms, np.float32).reshape(x_shape))

    with ad.no_grad():
        recon = model.synthesize(xhat, side1, side2)
    pixels = np.clip(recon.data[0], 0.0, 1.0)
    img = np.round(pixels * 255.0).astype(np.uint8)
    return DecodeResult(
        image=crop(img, header.orig_h, header.orig_w),
        header=header,
        latent_digest=latent_digest(xhat.data, yhat.data, zhat.data))
