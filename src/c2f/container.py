"""On-disk compressed-image container.

Byte-exact layout, all integers little-endian:

    offset  size  field
    0       4     magic "C2F1"
    4       2     version (u16, currently 3)
    6       32    model_id (sha-256 of the weights file)
    38      4     orig_w (u32, 1..MAX_SIDE)
    42      4     orig_h (u32, 1..MAX_SIDE)
    46      4     pad_w (u32, orig_w rounded up to a multiple of 64)
    50      4     pad_h (u32, orig_h rounded up to a multiple of 64)
    54      2     lambda_tag (u16, round(10000 * lambda))
    56      8     z stream length (u64)
    64      8     y stream length (u64)
    72      8     x stream length (u64)
    80      4     latent check (the first 4 bytes of the latent digest)
    84      -     Z stream bytes, then Y, then X, no padding between

Decoding order Z -> Y -> X is forced by construction: the Y tables are
predicted from the decoded Z, and the X tables from the decoded Y.  The
latent check is the first 4 bytes of the sha-256 over the quantized Z, Y
and X planes (`codec.latent_digest`); the decoder compares it once X is
decoded, before synthesis, so a decode that does not give the encoder's
latents fails as a corrupt stream.

Version 3 streams are rANS-coded (`rangecoder`), and Y and X code each
element relative to its integer-rounded mean under a row of the shared
scale x offset grid (`entropy.CoderGrid`).  Version 2 range-coded the
same bins with no latent check, and version 1 used one exact table per
element; both are refused with CorruptStreamError, as is every other
malformed container.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import ContractViolation, CorruptStreamError

MAGIC = b"C2F1"
VERSION = 3
_FMT = "<4sH32sIIIIHQQQ4s"
HEADER_SIZE = struct.calcsize(_FMT)
assert HEADER_SIZE == 84

# Largest image side a container may declare.  A reader refuses a header
# outside [1, MAX_SIDE] before the decoder sizes any table or plane from
# it, so a hostile header cannot make it allocate without bound.
MAX_SIDE = 1 << 15


def check_image_size(width: int, height: int) -> None:
    if not (1 <= width <= MAX_SIDE and 1 <= height <= MAX_SIDE):
        raise ContractViolation(
            f"image size {width}x{height} is outside 1..{MAX_SIDE} per side")


@dataclass
class ContainerHeader:
    model_id: bytes      # 32-byte digest
    orig_w: int
    orig_h: int
    pad_w: int
    pad_h: int
    lambda_tag: int
    z_len: int = 0
    y_len: int = 0
    x_len: int = 0
    latent_check: bytes = bytes(4)  # first 4 bytes of the latent digest
    version: int = VERSION

    def validate(self) -> "ContainerHeader":
        if len(self.model_id) != 32:
            raise ContractViolation("model_id must be a 32-byte digest")
        if len(self.latent_check) != 4:
            raise ContractViolation("latent_check must be 4 bytes")
        check_image_size(self.orig_w, self.orig_h)
        # the only padding encode_array writes; it also bounds what a
        # hostile header can make the decoder allocate
        if (self.pad_w, self.pad_h) != (-(-self.orig_w // 64) * 64,
                                        -(-self.orig_h // 64) * 64):
            raise ContractViolation(
                f"padded dims {self.pad_w}x{self.pad_h} are not {self.orig_w}x"
                f"{self.orig_h} rounded up to multiples of 64")
        if not (0 <= self.lambda_tag < 1 << 16):
            raise ContractViolation("lambda_tag out of u16 range")
        return self


def write_container(header: ContainerHeader, zbytes: bytes, ybytes: bytes,
                    xbytes: bytes) -> bytes:
    header.z_len, header.y_len, header.x_len = len(zbytes), len(ybytes), len(xbytes)
    header.validate()
    packed = struct.pack(
        _FMT, MAGIC, header.version, header.model_id,
        header.orig_w, header.orig_h, header.pad_w, header.pad_h,
        header.lambda_tag, header.z_len, header.y_len, header.x_len,
        header.latent_check)
    return packed + zbytes + ybytes + xbytes


def read_container(data: bytes) -> tuple[ContainerHeader, bytes, bytes, bytes]:
    if len(data) < HEADER_SIZE:
        raise CorruptStreamError(
            f"container shorter than its {HEADER_SIZE}-byte header ({len(data)} bytes)")
    (magic, version, model_id, orig_w, orig_h, pad_w, pad_h,
     lambda_tag, z_len, y_len, x_len, latent_check) = struct.unpack_from(_FMT, data)
    if magic != MAGIC:
        raise CorruptStreamError(f"bad container magic {magic!r}")
    if version != VERSION:
        raise CorruptStreamError(f"container version {version}, expected {VERSION}")
    end = HEADER_SIZE + z_len + y_len + x_len
    if len(data) != end:
        raise CorruptStreamError(
            f"container payload is {len(data) - HEADER_SIZE} bytes, header says {end - HEADER_SIZE}")
    header = ContainerHeader(model_id, orig_w, orig_h, pad_w, pad_h,
                             lambda_tag, z_len, y_len, x_len, latent_check, version)
    try:
        header.validate()
    except ContractViolation as exc:
        raise CorruptStreamError(f"invalid container header: {exc}") from exc
    z0 = HEADER_SIZE
    y0 = z0 + z_len
    x0 = y0 + y_len
    return header, data[z0:y0], data[y0:x0], data[x0:end]
