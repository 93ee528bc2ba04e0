"""8-bit PNG and PPM (P6) reading/writing, plus a padding helper.

PNG support covers non-interlaced 8-bit grayscale, gray+alpha, RGB and
RGBA (filters 0-4 on read; writes are RGB with filter 0).  Everything
decodes to an (h, w, 3) uint8 array: grayscale is replicated across
channels and alpha is dropped.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .container import MAX_SIDE
from .errors import ContractViolation, FormatError

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def read_image(path) -> np.ndarray:
    """Load a PNG or PPM file into an (h, w, 3) uint8 array.  A
    FormatError names the file."""
    data = Path(path).read_bytes()
    try:
        if data[:8] == _PNG_SIG:
            return decode_png(data)
        if data[:2] == b"P6":
            return decode_ppm(data)
        raise FormatError("neither PNG nor PPM (P6)")
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_image(path, arr: np.ndarray) -> None:
    path = Path(path)
    if path.suffix.lower() == ".ppm":
        path.write_bytes(encode_ppm(arr))
    else:
        path.write_bytes(encode_png(arr))


# ---------------------------------------------------------------------------
# PNG

def decode_png(data: bytes) -> np.ndarray:
    if data[:8] != _PNG_SIG:
        raise FormatError("bad PNG signature")
    pos = 8
    ihdr = None
    idat = bytearray()
    while pos + 8 <= len(data):
        length, ctype = struct.unpack_from(">I4s", data, pos)
        pos += 8
        chunk = data[pos:pos + length]
        if len(chunk) != length:
            raise FormatError("PNG chunk truncated")
        pos += length + 4  # skip CRC
        if ctype == b"IHDR":
            if length != 13:
                raise FormatError(f"PNG IHDR chunk is {length} bytes, not 13")
            ihdr = struct.unpack(">IIBBBBB", chunk)
        elif ctype == b"IDAT":
            idat.extend(chunk)
        elif ctype == b"IEND":
            break
    if ihdr is None:
        raise FormatError("PNG missing IHDR")
    w, h, depth, color, comp, filt, interlace = ihdr
    _check_size("PNG", w, h)
    if depth != 8:
        raise FormatError(f"only 8-bit PNG supported, got depth {depth}")
    if color not in _CHANNELS:
        raise FormatError(f"unsupported PNG color type {color}")
    if interlace != 0:
        raise FormatError("interlaced PNG not supported")
    nch = _CHANNELS[color]
    stride = w * nch
    expected = h * (stride + 1)
    inflater = zlib.decompressobj()
    try:
        # one byte past the size the header gives is enough to refuse more
        raw = inflater.decompress(idat, expected + 1)
    except zlib.error as exc:
        raise FormatError(f"PNG deflate stream corrupt: {exc}") from exc
    if len(raw) != expected:
        raise FormatError("PNG pixel data has wrong length")
    if not inflater.eof:
        raise FormatError("PNG deflate stream corrupt: incomplete or truncated stream")
    img = _unfilter(np.frombuffer(raw, np.uint8).reshape(h, stride + 1), w, nch)
    img = img.reshape(h, w, nch)
    if color == 0:
        img = np.repeat(img, 3, axis=2)
    elif color == 4:
        img = np.repeat(img[:, :, :1], 3, axis=2)
    elif color == 6:
        img = img[:, :, :3]
    return np.ascontiguousarray(img)


def _unfilter(rows: np.ndarray, w: int, nch: int) -> np.ndarray:
    h = rows.shape[0]
    out = np.zeros((h, w * nch), dtype=np.uint8)
    prev = np.zeros(w * nch, dtype=np.int64)
    for y in range(h):
        ftype = int(rows[y, 0])
        cur = rows[y, 1:].astype(np.int64)
        if ftype == 0:
            rec = cur
        elif ftype == 1:  # Sub: running sum per channel lane mod 256
            rec = cur.reshape(w, nch).cumsum(axis=0).reshape(-1) % 256
        elif ftype == 2:  # Up
            rec = (cur + prev) % 256
        elif ftype == 3:  # Average, byte by byte over Python ints
            rec, up = cur.tolist(), prev.tolist()
            for x in range(w * nch):
                left = rec[x - nch] if x >= nch else 0
                rec[x] = (rec[x] + (left + up[x]) // 2) % 256
            rec = np.array(rec, dtype=np.int64)
        elif ftype == 4:  # Paeth, likewise
            rec, up = cur.tolist(), prev.tolist()
            for x in range(w * nch):
                a = rec[x - nch] if x >= nch else 0
                b = up[x]
                c = up[x - nch] if x >= nch else 0
                # |p - a|, |p - b|, |p - c| for p = a + b - c
                pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
                if pa <= pb and pa <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = c
                rec[x] = (rec[x] + pred) % 256
            rec = np.array(rec, dtype=np.int64)
        else:
            raise FormatError(f"unknown PNG filter type {ftype}")
        out[y] = rec.astype(np.uint8)
        prev = rec
    return out


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def encode_png(arr: np.ndarray) -> bytes:
    arr = _as_uint8_rgb(arr)
    h, w, _ = arr.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    rows = np.zeros((h, w * 3 + 1), dtype=np.uint8)
    rows[:, 1:] = arr.reshape(h, w * 3)
    idat = zlib.compress(rows.tobytes(), 6)
    return (_PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat)
            + _chunk(b"IEND", b""))


# ---------------------------------------------------------------------------
# PPM (P6)

def decode_ppm(data: bytes) -> np.ndarray:
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        if pos >= len(data):
            raise FormatError("PPM header truncated")
        c = data[pos:pos + 1]
        if c == b"#":
            pos = data.find(b"\n", pos) + 1
            if pos == 0:
                raise FormatError("PPM header truncated")
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            field = data[pos:end]
            if not field.isdigit() or len(field) > 9:
                raise FormatError(f"PPM header field {field[:12]!r} is not a number below 10^9")
            fields.append(int(field))
            pos = end
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    _check_size("PPM", w, h)
    if maxval != 255:
        raise FormatError(f"only 8-bit PPM supported, got maxval {maxval}")
    need = w * h * 3
    pix = data[pos:pos + need]
    if len(pix) != need:
        raise FormatError("PPM pixel data truncated")
    return np.frombuffer(pix, np.uint8).reshape(h, w, 3).copy()


def _check_size(kind: str, w: int, h: int) -> None:
    # encode_array refuses these sizes too; refused here before a header
    # sizes any buffer
    if not (1 <= w <= MAX_SIDE and 1 <= h <= MAX_SIDE):
        raise FormatError(f"{kind} size {w}x{h} is outside 1..{MAX_SIDE} per side")


def encode_ppm(arr: np.ndarray) -> bytes:
    arr = _as_uint8_rgb(arr)
    h, w, _ = arr.shape
    return f"P6\n{w} {h}\n255\n".encode() + arr.tobytes()


def _as_uint8_rgb(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        raise ContractViolation(f"image writers take uint8, got {arr.dtype}")
    if arr.ndim == 2:
        arr = np.repeat(arr[:, :, None], 3, axis=2)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ContractViolation(f"expected (h, w, 3) image, got {arr.shape}")
    return np.ascontiguousarray(arr)


# ---------------------------------------------------------------------------
# padding

def pad_to_multiple(arr: np.ndarray, multiple: int = 64) -> np.ndarray:
    """Reflect-pad an (h, w, c) image up to multiples of `multiple`.

    np.pad keeps mirroring back and forth where the padding is wider than
    the image; a 1-pixel side cannot reflect, so then both sides repeat
    their edge.
    """
    h, w = arr.shape[:2]
    pads = ((0, (-h) % multiple), (0, (-w) % multiple)) + ((0, 0),) * (arr.ndim - 2)
    return np.pad(arr, pads, mode="edge" if min(h, w) == 1 else "reflect")
