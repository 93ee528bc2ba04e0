"""Bit-exact 64-bit range coder over integer CDF tables.

Carry-less byte-wise renormalization: a byte is emitted once the top
byte of the coding interval is settled, and the range is truncated on
the rare underflow where it straddles a byte boundary.  Probabilities
are 16-bit and every bin has frequency >= 1, so any symbol a table
admits can be coded.  Encoder and decoder walk through identical
(low, range) states, which makes the byte stream an exact prefix-free
record: decoding reads exactly the bytes encoding wrote, and a truncated
stream always surfaces as CorruptStreamError.

The total is a constant of the coder, not of a table: a CdfTable whose
cumulative counts do not end at CDF_TOTAL is refused at construction, so
every coded bin is a (cum_lo, cum_hi) interval of CDF_TOTAL and the
range splits by a shift.  Tables may carry an escape bin as their last
entry; an escaped value is followed by its four two's-complement int32
bytes, most significant first, each coded as bin [256 * b, 256 * (b + 1)).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractViolation, CorruptStreamError

__all__ = ["CdfTable", "encode", "decode", "CDF_TOTAL"]

CDF_TOTAL = 1 << 16

_MASK = (1 << 64) - 1
_TOP = 1 << 56
_BOT = 1 << 48
_FLUSH_BYTES = 8
_INT32_LO, _INT32_HI = -(1 << 31), (1 << 31) - 1


class CdfTable:
    """Integer CDF over a contiguous symbol alphabet starting at smin.

    `cum` has one more entry than there are bins, starts at 0, is strictly
    increasing (every bin holds frequency >= 1) and ends exactly at 65536;
    the constructor checks the bin count and the end, validate() the rest.
    If `has_escape` is set, the final bin codes out-of-alphabet values.
    """

    __slots__ = ("smin", "cum", "has_escape", "nsymbols")

    def __init__(self, smin: int, cum, has_escape: bool = False):
        self.smin = int(smin)
        self.cum = np.asarray(cum, dtype=np.int64)
        self.has_escape = bool(has_escape)
        if self.cum.ndim != 1 or self.cum.size < 2:
            raise ContractViolation("cdf table needs at least one bin")
        if self.cum[-1] != CDF_TOTAL:
            raise ContractViolation("cdf must run from 0 to 65536")
        self.nsymbols = self.cum.size - 1 - self.has_escape

    @property
    def smax(self) -> int:
        return self.smin + self.nsymbols - 1

    def validate(self) -> "CdfTable":
        if self.cum[0] != 0:
            raise ContractViolation("cdf must run from 0 to 65536")
        if not np.all(np.diff(self.cum) >= 1):
            raise ContractViolation("cdf must be strictly increasing (freq >= 1)")
        return self

    def index_of(self, value: int) -> int:
        off = value - self.smin
        if 0 <= off < self.nsymbols:
            return off
        if self.has_escape:
            return self.nsymbols
        raise ContractViolation(
            f"symbol {value} outside alphabet [{self.smin}, {self.smax}] with no escape bin")


def _intervals(symbols: Sequence[int], tables: Sequence[CdfTable]):
    """Yield (cum_lo, cum_hi) for every bin encode() codes: each symbol's
    bin and, after an escape, its four payload bytes."""
    for value, table in zip(symbols, tables):
        idx = table.index_of(value)
        yield table.cum[idx:idx + 2].tolist()
        if idx == table.nsymbols:  # only an escape bin sits at nsymbols
            if not (_INT32_LO <= value <= _INT32_HI):
                raise ContractViolation(f"escape value {value} exceeds int32")
            u = int(value) & 0xFFFFFFFF
            for shift in (24, 16, 8, 0):
                byte = (u >> shift) & 0xFF
                yield byte << 8, (byte + 1) << 8


def encode(symbols: Sequence[int], tables: Sequence[CdfTable]) -> bytes:
    """Encode one stream; symbols[i] is coded with tables[i]."""
    if len(symbols) != len(tables):
        raise ContractViolation(
            f"{len(symbols)} symbols but {len(tables)} tables")
    low, rng = 0, _MASK
    out = bytearray()
    for cum_lo, cum_hi in _intervals(symbols, tables):
        r = rng >> 16  # rng // CDF_TOTAL
        low += cum_lo * r
        rng = (cum_hi - cum_lo) * r
        while True:
            if (low ^ (low + rng)) < _TOP:
                pass
            elif rng < _BOT:
                rng = (-low) & (_BOT - 1)
            else:
                break
            out.append(low >> 56)
            low = (low << 8) & _MASK
            rng <<= 8
    return bytes(out) + low.to_bytes(_FLUSH_BYTES, "big")


def decode(data: bytes, tables: Sequence[CdfTable], n: int) -> list[int]:
    """Decode exactly n symbols; inverse of encode() for identical tables."""
    if n != len(tables):
        raise ContractViolation(f"n={n} but {len(tables)} tables supplied")
    out: list[int] = []
    if n == 0:
        return out
    end = len(data)
    if end < _FLUSH_BYTES:
        raise CorruptStreamError(f"stream exhausted at byte {end} of {end}")
    code = int.from_bytes(data[:_FLUSH_BYTES], "big")
    pos = _FLUSH_BYTES
    low, rng = 0, _MASK
    top = CDF_TOTAL - 1
    for table in tables:
        cum = table.cum
        payload, bins = None, 1
        while bins:
            bins -= 1
            r = rng >> 16  # rng // CDF_TOTAL
            target = min(((code - low) & _MASK) // r, top)
            if payload is None:
                idx = int(cum.searchsorted(target, side="right")) - 1
                cum_lo, cum_hi = cum[idx:idx + 2].tolist()
                if idx == table.nsymbols:  # escape: four payload bytes follow
                    payload, bins = 0, 4
            else:
                byte = target >> 8
                payload = (payload << 8) | byte
                cum_lo, cum_hi = byte << 8, (byte + 1) << 8
            low += cum_lo * r
            rng = (cum_hi - cum_lo) * r
            while True:
                if (low ^ (low + rng)) < _TOP:
                    pass
                elif rng < _BOT:
                    rng = (-low) & (_BOT - 1)
                else:
                    break
                if pos >= end:
                    raise CorruptStreamError(f"stream exhausted at byte {pos} of {end}")
                code = ((code << 8) & _MASK) | data[pos]
                pos += 1
                low = (low << 8) & _MASK
                rng <<= 8
        if payload is None:
            out.append(table.smin + idx)
        else:
            out.append(payload - (1 << 32) if payload > _INT32_HI else payload)
    return out
