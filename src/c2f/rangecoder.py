"""Bit-exact single-state rANS coder over integer CDF tables (Duda 2013,
arXiv 1311.2540).

The state x is 32 bits and lives in [2^16, 2^32) between symbols; it is
renormalised in 16-bit words.  Coding bin [lo, lo + f) of CDF_TOTAL =
2^16 maps x to (x // f) * 2^16 + x % f + lo, which the decoder undoes
with x = f * (x >> 16) + (x & 0xFFFF) - lo.  Every bin has frequency
>= 1, so any int32 value can be coded, and each bin moves at most one
word.

rANS is last in, first out: the encoder walks the bins in reverse from
the state 2^16.  A stream is that final state as 4 big-endian bytes,
then the words, big-endian, in the order the decoder reads them.  The
decoder therefore ends in the encoder's start state, which makes a
stream an exact record: decoding must read every word and finish at
x == 2^16, so a stream that is cut, odd-length, extended or left in
another state surfaces as CorruptStreamError.

The table form is a constant of the coder, not of a table.  Every row
ends at CDF_TOTAL, so every coded bin is a (cum_lo, freq) interval of
CDF_TOTAL and the state splits by a shift.  Every row codes the fixed
alphabet [ALPHABET_MIN, ALPHABET_MAX], one bin per value, then an escape
bin: any other value codes the escape bin followed by its four
two's-complement int32 bytes, most significant first, each coded as bin
[256 * b, 256 * (b + 1)).

A stream's tables reach the coder as one TableRows: an (R, 258) array of
cumulative rows and the row index of every symbol.

A stream also has a least length for its symbol count (shortest_stream),
so a decoder can refuse one that is too short before it builds anything
per symbol.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

import numpy as np

from .errors import ContractViolation, CorruptStreamError

__all__ = ["TableRows", "encode", "decode", "shortest_stream", "CDF_TOTAL",
           "ALPHABET_MIN", "ALPHABET_MAX"]

CDF_TOTAL = 1 << 16
ALPHABET_MIN = -127
ALPHABET_MAX = 128
_NSYMBOLS = ALPHABET_MAX - ALPHABET_MIN + 1  # bin _NSYMBOLS is the escape bin
_WIDTH = _NSYMBOLS + 2  # cumulative counts per row: 0, then each bin's end

_STATE_LO = 1 << 16  # the state lives in [_STATE_LO, 2^32)
_INT32_LO, _INT32_HI = -(1 << 31), (1 << 31) - 1
_PAYLOAD_SHIFTS = np.array([24, 16, 8, 0], dtype=np.int64)
_CHUNK = 1 << 14  # bins encode() and symbols decode() convert to Python ints at a time


class TableRows:
    """The tables of one stream as arrays: symbol i is coded under row index[i].

    `cum` is a C-contiguous (R, 258) int64 array.  Row r is a cumulative
    table that starts at 0 and ends at CDF_TOTAL: its first 256 bins code
    ALPHABET_MIN..ALPHABET_MAX and its last is the escape bin.
    """

    __slots__ = ("cum", "index")

    def __init__(self, cum, index):
        self.cum = np.ascontiguousarray(cum, dtype=np.int64)
        if self.cum.ndim != 2 or self.cum.shape[1] != _WIDTH:
            raise ContractViolation(f"table rows must be (R, {_WIDTH})")
        rows = self.cum.shape[0]
        self.index = np.asarray(index, dtype=np.int64).reshape(-1)
        if np.any(self.cum[:, 0] != 0) or np.any(self.cum[:, -1] != CDF_TOTAL):
            raise ContractViolation("cdf must run from 0 to 65536")
        if self.index.size and not 0 <= self.index.min() <= self.index.max() < rows:
            raise ContractViolation(f"row index outside the {rows} rows")

    def __len__(self) -> int:
        return self.index.size


def shortest_stream(n: int, f_max: int) -> int:
    """The fewest bytes of any stream that decodes n symbols whose bins
    have frequencies of at most f_max.

    A stream that decodes to the start state with every word read is what
    encode() writes for the decoded symbols, so it suffices to bound
    encode().  Let L = log2(x) + 16 * (words moved out); it starts at 16.
    Coding a bin [lo, lo + f) maps x = q*f + r (q >= 1, r < f) to
    q * 2^16 + r + lo >= x * (2^16 + f) / (2f), and moving a word out
    first (x >= f * 2^16, so x >> 16 >= f) costs L at most log2((f + 1) / f).
    So each symbol adds at least c = log2((2^16 + f) / (2(f + 1))) to L,
    which falls as f grows: c at f_max bounds them all (an escape's
    payload bins only add more).  The 4-byte final state holds less than
    32 bits, so a stream of B bytes has 8 * B > 16 + n * c."""
    c = math.log2((CDF_TOTAL + f_max) / (2 * (f_max + 1)))
    # shaved by a part in 1e9, so that float rounding cannot refuse a stream
    bits = 16 + n * max(c, 0.0) * (1 - 1e-9)
    return max(math.floor(bits / 8) + 1, 4)


def _bins(values: np.ndarray, t: TableRows) -> tuple[np.ndarray, np.ndarray]:
    """(cum_lo, freq) of every bin encode() codes: each symbol's bin and,
    after an escape, its four payload bytes."""
    off = values - ALPHABET_MIN
    escape = (off < 0) | (off >= _NSYMBOLS)
    escaped = values[escape]
    if escaped.size:
        wide = (escaped < _INT32_LO) | (escaped > _INT32_HI)
        if wide.any():
            raise ContractViolation(f"escape value {int(escaped[np.argmax(wide)])} exceeds int32")
    at = t.index * _WIDTH + np.where(escape, _NSYMBOLS, off)
    flat = t.cum.reshape(-1)
    cum_lo = flat[at]
    freq = flat[at + 1] - cum_lo
    if freq.size and freq.min() < 1:  # an empty bin cannot be coded
        raise ContractViolation("cdf must be strictly increasing (freq >= 1)")
    if not escaped.size:
        return cum_lo, freq
    payload = ((escaped & 0xFFFFFFFF)[:, None] >> _PAYLOAD_SHIFTS) & 0xFF
    after = np.repeat(np.flatnonzero(escape) + 1, 4)
    return np.insert(cum_lo, after, payload.reshape(-1) << 8), np.insert(freq, after, 256)


def encode(symbols: Sequence[int], t: TableRows) -> bytes:
    """Encode one stream; symbols[i] is coded with row t.index[i].  The
    bins are made Python ints _CHUNK at a time, last chunk first, and each
    chunk's words packed into bytes, so the Python lists are one chunk's."""
    try:
        values = np.asarray(symbols, dtype=np.int64).reshape(-1)
    except OverflowError:
        raise ContractViolation("a symbol exceeds int64") from None
    if values.size != len(t):
        raise ContractViolation(f"{values.size} symbols but {len(t)} tables")
    cum_lo, freq = _bins(values, t)
    x = _STATE_LO
    parts: list[bytes] = []  # each chunk's words, last chunk first
    for stop in range(len(cum_lo), 0, -_CHUNK):
        start = max(stop - _CHUNK, 0)
        words: list[int] = []
        emit = words.append
        for lo, f in zip(cum_lo[start:stop][::-1].tolist(), freq[start:stop][::-1].tolist()):
            if x >> 16 >= f:  # x >= f * 2^16: move one word out
                emit(x & 0xFFFF)
                x >>= 16
            x = ((x // f) << 16) + x % f + lo
        words.reverse()
        parts.append(np.array(words, dtype=">u2").tobytes())
    parts.reverse()
    return x.to_bytes(4, "big") + b"".join(parts)


def decode(data: bytes, t: TableRows, n: int) -> np.ndarray:
    """Decode exactly n symbols into an int64 array; inverse of encode()
    for identical tables.  The words are read lazily and the symbols'
    table positions are made Python ints _CHUNK at a time, so the memory
    beyond the output and the tables is one chunk's."""
    if n != len(t):
        raise ContractViolation(f"n={n} but {len(t)} tables supplied")
    size = len(data)
    if size < 4 or size % 2:
        raise CorruptStreamError(f"a {size}-byte stream is not a state and whole words")
    words = iter(memoryview(np.frombuffer(data, ">u2", offset=4).astype(np.uint16)))
    read = words.__next__
    flat = memoryview(t.cum.reshape(-1))
    found = np.empty(n, dtype=np.int64)  # each symbol's bisect position in flat
    escaped: list[int] = []   # indices of the escapes ...
    payloads: list[int] = []  # ... and their values
    x = int.from_bytes(data[:4], "big")
    try:
        for lo in range(0, n, _CHUNK):
            rows = t.index[lo:lo + _CHUNK]
            start = rows * _WIDTH
            chunk: list[int] = []
            # a symbol's bin search ends at its row's escape position only for an escape
            for base, esc in zip(start.tolist(), (start + _NSYMBOLS + 1).tolist()):
                slot = x & 0xFFFF
                p = bisect_right(flat, slot, base, base + _WIDTH)
                lo_cum = flat[p - 1]
                x = (flat[p] - lo_cum) * (x >> 16) + slot - lo_cum
                if x < _STATE_LO:
                    x = (x << 16) | read()
                if p == esc:  # escape: four payload bins of 256 follow
                    payload = 0
                    for _ in range(4):
                        slot = x & 0xFFFF
                        payload = (payload << 8) | (slot >> 8)
                        x = ((x >> 16) << 8) | (slot & 0xFF)
                        if x < _STATE_LO:
                            x = (x << 16) | read()
                    escaped.append(lo + len(chunk))
                    payloads.append(payload - (1 << 32) if payload > _INT32_HI else payload)
                chunk.append(p)
            found[lo:lo + len(chunk)] = chunk
    except StopIteration:
        raise CorruptStreamError(
            f"stream of {size} bytes exhausted at symbol {lo + len(chunk)}") from None
    if x != _STATE_LO or next(words, None) is not None:
        raise CorruptStreamError(f"stream of {size} bytes does not end in the start state "
                                 "with every word read")
    found -= t.index * _WIDTH + 1 - ALPHABET_MIN
    found[escaped] = payloads
    return found
