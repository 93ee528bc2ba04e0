"""Bit-exact 64-bit range coder over integer CDF tables.

Carry-less byte-wise renormalization: a byte is emitted once the top
byte of the coding interval is settled, and the range is truncated on
the rare underflow where it straddles a byte boundary.  Probabilities
are 16-bit (every table totals 65536) and every bin has frequency >= 1,
so any symbol a table admits can be coded.  Encoder and decoder walk
through identical (low, range) states, which makes the byte stream an
exact prefix-free record: decoding reads exactly the bytes encoding
wrote, and a truncated stream always surfaces as CorruptStreamError.

Tables may carry an escape bin as their last entry; an escaped value is
followed by its four two's-complement int32 bytes, most significant
first, each coded as bin [256 * b, 256 * (b + 1)) of CDF_TOTAL.  So every
coded bin, symbol or payload byte, is one (cum_lo, cum_hi, total)
interval through the same arithmetic.
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
    increasing (every bin holds frequency >= 1) and ends exactly at 65536.
    If `has_escape` is set, the final bin codes out-of-alphabet values.
    """

    __slots__ = ("smin", "cum", "has_escape")

    def __init__(self, smin: int, cum, has_escape: bool = False):
        self.smin = int(smin)
        self.cum = np.asarray(cum, dtype=np.int64)
        self.has_escape = bool(has_escape)

    @property
    def nbins(self) -> int:
        return len(self.cum) - 1

    @property
    def nsymbols(self) -> int:
        return self.nbins - (1 if self.has_escape else 0)

    @property
    def smax(self) -> int:
        return self.smin + self.nsymbols - 1

    def validate(self) -> "CdfTable":
        if self.cum.ndim != 1 or self.nbins < 1:
            raise ContractViolation("cdf table needs at least one bin")
        if self.cum[0] != 0 or self.cum[-1] != CDF_TOTAL:
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
    """Yield (cum_lo, cum_hi, total) for every bin encode() codes: each
    symbol's bin and, after an escape, its four payload bytes."""
    for value, table in zip(symbols, tables):
        value = int(value)
        idx = table.index_of(value)
        cum = table.cum
        cum_lo, cum_hi = cum[idx:idx + 2].tolist()
        yield cum_lo, cum_hi, int(cum[-1])
        if table.has_escape and idx == table.nsymbols:
            if not (_INT32_LO <= value <= _INT32_HI):
                raise ContractViolation(f"escape value {value} exceeds int32")
            u = value & 0xFFFFFFFF
            for shift in (24, 16, 8, 0):
                byte = (u >> shift) & 0xFF
                yield byte << 8, (byte + 1) << 8, CDF_TOTAL


def encode(symbols: Sequence[int], tables: Sequence[CdfTable]) -> bytes:
    """Encode one stream; symbols[i] is coded with tables[i]."""
    if len(symbols) != len(tables):
        raise ContractViolation(
            f"{len(symbols)} symbols but {len(tables)} tables")
    low, rng = 0, _MASK
    out = bytearray()
    for cum_lo, cum_hi, total in _intervals(symbols, tables):
        r = rng // total
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
    for table in tables:
        cum = table.cum
        escape = table.nsymbols if table.has_escape else -1
        total, payload, bins = int(cum[-1]), None, 1
        while bins:
            bins -= 1
            r = rng // total
            target = min(((code - low) & _MASK) // r, total - 1)
            if payload is None:
                idx = int(cum.searchsorted(target, side="right")) - 1
                cum_lo, cum_hi = cum[idx:idx + 2].tolist()
                if idx == escape:  # four payload bytes follow, 256 counts each
                    total, payload, bins = CDF_TOTAL, 0, 4
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
