"""Bit-exact 64-bit range coder over integer CDF tables.

Carry-less byte-wise renormalization: a byte is emitted once the top
byte of the coding interval is settled, and the range is truncated on
the rare underflow where it straddles a byte boundary.  Probabilities
are 16-bit and every bin has frequency >= 1, so any symbol a table
admits can be coded.  Encoder and decoder walk through identical
(low, range) states, which makes the byte stream an exact prefix-free
record: decoding reads exactly the bytes encoding wrote, and a truncated
stream always surfaces as CorruptStreamError.

The total is a constant of the coder, not of a table: every row ends at
CDF_TOTAL, so every coded bin is a (cum_lo, cum_hi) interval of
CDF_TOTAL and the range splits by a shift.  Tables may carry an escape
bin as their last entry; an escaped value is followed by its four
two's-complement int32 bytes, most significant first, each coded as bin
[256 * b, 256 * (b + 1)).

A stream's tables reach the coder as one TableRows: an (R, W) array of
cumulative rows and the row index of every symbol.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from .errors import ContractViolation, CorruptStreamError

__all__ = ["TableRows", "encode", "decode", "CDF_TOTAL"]

CDF_TOTAL = 1 << 16

_MASK = (1 << 64) - 1
_TOP = 1 << 56
_BOT = 1 << 48
_FLUSH_BYTES = 8
_INT32_LO, _INT32_HI = -(1 << 31), (1 << 31) - 1
_PAYLOAD_SHIFTS = np.array([24, 16, 8, 0], dtype=np.int64)


class TableRows:
    """The tables of one stream as arrays: symbol i is coded under row index[i].

    `cum` is a C-contiguous (R, W) int64 array.  Row r is a cumulative
    table that starts at 0, ends at CDF_TOTAL and is padded with CDF_TOTAL
    to width W: its first nsymbols[r] bins code the values smin[r] onward,
    and if has_escape[r] the next bin is the escape bin.  smin, nsymbols
    and has_escape are per row, and a scalar stands for every row.
    """

    __slots__ = ("cum", "index", "smin", "nsymbols", "has_escape")

    def __init__(self, cum, index, smin, nsymbols, has_escape):
        self.cum = np.ascontiguousarray(cum, dtype=np.int64)
        if self.cum.ndim != 2 or self.cum.shape[1] < 2:
            raise ContractViolation("table rows must be (R, W) with W >= 2")
        rows, width = self.cum.shape
        self.index = np.asarray(index, dtype=np.int64).reshape(-1)
        self.smin = np.broadcast_to(np.asarray(smin, dtype=np.int64), (rows,))
        self.nsymbols = np.broadcast_to(np.asarray(nsymbols, dtype=np.int64), (rows,))
        self.has_escape = np.broadcast_to(np.asarray(has_escape, dtype=bool), (rows,))
        if np.any(self.cum[:, 0] != 0) or np.any(self.cum[:, -1] != CDF_TOTAL):
            raise ContractViolation("cdf must run from 0 to 65536")
        if np.any(self.nsymbols + self.has_escape >= width) or np.any(self.nsymbols < 0):
            raise ContractViolation(f"rows of width {width} cannot hold their bins")
        if self.index.size and not 0 <= self.index.min() <= self.index.max() < rows:
            raise ContractViolation(f"row index outside the {rows} rows")

    def __len__(self) -> int:
        return self.index.size


def _bins(values: np.ndarray, t: TableRows) -> tuple[np.ndarray, np.ndarray]:
    """(cum_lo, freq) of every bin encode() codes: each symbol's bin and,
    after an escape, its four payload bytes."""
    row = t.index
    off = values - t.smin[row]
    nsym = t.nsymbols[row]
    escape = (off < 0) | (off >= nsym)
    escaped = values[escape]
    if escaped.size:
        refused = escape & ~t.has_escape[row]
        if refused.any():
            i = int(np.argmax(refused))
            lo = int(t.smin[row[i]])
            raise ContractViolation(f"symbol {int(values[i])} outside alphabet "
                                    f"[{lo}, {lo + int(nsym[i]) - 1}] with no escape bin")
        wide = (escaped < _INT32_LO) | (escaped > _INT32_HI)
        if wide.any():
            raise ContractViolation(f"escape value {int(escaped[np.argmax(wide)])} exceeds int32")
    at = row * t.cum.shape[1] + np.where(escape, nsym, off)
    flat = t.cum.reshape(-1)
    cum_lo = flat[at]
    freq = flat[at + 1] - cum_lo
    if freq.size and freq.min() < 1:  # an empty bin would stall the coder
        raise ContractViolation("cdf must be strictly increasing (freq >= 1)")
    if not escaped.size:
        return cum_lo, freq
    payload = ((escaped & 0xFFFFFFFF)[:, None] >> _PAYLOAD_SHIFTS) & 0xFF
    after = np.repeat(np.flatnonzero(escape) + 1, 4)
    return np.insert(cum_lo, after, payload.reshape(-1) << 8), np.insert(freq, after, 256)


def encode(symbols: Sequence[int], t: TableRows) -> bytes:
    """Encode one stream; symbols[i] is coded with row t.index[i]."""
    try:
        values = np.asarray(symbols, dtype=np.int64).reshape(-1)
    except OverflowError:
        raise ContractViolation("a symbol exceeds int64") from None
    if values.size != len(t):
        raise ContractViolation(f"{values.size} symbols but {len(t)} tables")
    cum_lo, freq = _bins(values, t)
    low, rng = 0, _MASK
    out = bytearray()
    emit = out.append
    for lo, f in zip(cum_lo.tolist(), freq.tolist()):
        r = rng >> 16  # rng // CDF_TOTAL
        low += lo * r
        rng = f * r
        while True:
            if (low ^ (low + rng)) < _TOP:
                pass
            elif rng < _BOT:
                rng = (-low) & (_BOT - 1)
            else:
                break
            emit(low >> 56)
            low = (low << 8) & _MASK
            rng <<= 8
    return bytes(out) + low.to_bytes(_FLUSH_BYTES, "big")


def decode(data: bytes, t: TableRows, n: int) -> np.ndarray:
    """Decode exactly n symbols into an int64 array; inverse of encode()
    for identical tables."""
    if n != len(t):
        raise ContractViolation(f"n={n} but {len(t)} tables supplied")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    end = len(data)
    if end < _FLUSH_BYTES:
        raise CorruptStreamError(f"stream exhausted at byte {end} of {end}")
    width = t.cum.shape[1]
    flat = memoryview(t.cum.reshape(-1))
    start = t.index * width
    # a symbol's bin search ends at its row's escape position only for an escape
    escape_at = start + np.where(t.has_escape, t.nsymbols + 1, width)[t.index]
    found: list[int] = []     # each symbol's bisect position in flat
    escaped: list[int] = []   # positions in found of the escapes ...
    payloads: list[int] = []  # ... and their values
    # diff is code - low mod 2^64: the decoder never needs code itself
    diff = int.from_bytes(data[:_FLUSH_BYTES], "big")
    pos = _FLUSH_BYTES
    low, rng = 0, _MASK
    top = CDF_TOTAL - 1
    for base, esc in zip(start.tolist(), escape_at.tolist()):
        payload, bins = None, 1
        while bins:
            bins -= 1
            r = rng >> 16  # rng // CDF_TOTAL
            target = diff // r
            if target > top:
                target = top
            if payload is None:
                p = bisect_right(flat, target, base, base + width)
                cum_lo = flat[p - 1]
                rng = (flat[p] - cum_lo) * r
                if p == esc:  # escape: four payload bytes follow
                    payload, bins = 0, 4
            else:
                byte = target >> 8
                payload = (payload << 8) | byte
                cum_lo = byte << 8
                rng = r << 8
            cum_lo *= r
            low += cum_lo
            diff -= cum_lo
            while True:
                if (low ^ (low + rng)) < _TOP:
                    pass
                elif rng < _BOT:
                    rng = (-low) & (_BOT - 1)
                else:
                    break
                if pos >= end:
                    raise CorruptStreamError(f"stream exhausted at byte {pos} of {end}")
                diff = ((diff << 8) & _MASK) | data[pos]
                pos += 1
                low = (low << 8) & _MASK
                rng <<= 8
        if payload is not None:
            escaped.append(len(found))
            payloads.append(payload - (1 << 32) if payload > _INT32_HI else payload)
        found.append(p)
    values = np.asarray(found, dtype=np.int64) - start - 1 + t.smin[t.index]
    values[escaped] = payloads
    return values
