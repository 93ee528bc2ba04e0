import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c2f.entropy as ent
import c2f.rangecoder as rc
from c2f.errors import ContractViolation, CorruptStreamError

from cdf_rows import draw_symbols, padded_rows


def uniform_table(n, nbins=256):
    """n symbols under one uniform row over 0..nbins-1."""
    step = rc.CDF_TOTAL // nbins
    return padded_rows([np.arange(0, rc.CDF_TOTAL + step, step)], [0], np.zeros(n, int))


def random_tables(rng, n, max_bins=257):
    """n symbols, each under its own random row: distinct cut points
    guarantee freq >= 1."""
    cums, smin = [], []
    for _ in range(n):
        nbins = int(rng.integers(1, max_bins + 1))
        cuts = rng.choice(np.arange(1, rc.CDF_TOTAL), size=nbins - 1, replace=False)
        cums.append(np.concatenate([[0], np.sort(cuts), [rc.CDF_TOTAL]]))
        smin.append(int(rng.integers(-200, 200)))
    return padded_rows(cums, smin, np.arange(n))


def skew_table(n, nbins=256, hot=0):
    """n symbols under one row where bin `hot` holds 65536-(nbins-1) and
    every other bin holds 1."""
    freqs = np.ones(nbins, dtype=np.int64)
    freqs[hot] = rc.CDF_TOTAL - (nbins - 1)
    return padded_rows([np.concatenate([[0], np.cumsum(freqs)])], [0], np.zeros(n, int))


def alphabet_table(mu, sigma, n):
    """n symbols under the build_cdf_tables row of N(mu, sigma)."""
    return ent.alphabet_rows(ent.build_cdf_tables([mu], [sigma]), np.zeros(n, int))


def escapes(symbols, tables):
    """How many symbols lie outside their row's alphabet."""
    off = np.asarray(symbols) - tables.smin[tables.index]
    return int(np.count_nonzero((off < 0) | (off >= tables.nsymbols[tables.index])))


def roundtrip(symbols, tables):
    data = rc.encode(symbols, tables)
    back = rc.decode(data, tables, len(symbols))
    assert back.dtype == np.int64 and back.shape == (len(symbols),)
    return data, back.tolist()


# ---------------------------------------------------------------------------

def test_empty_stream_is_flush_only():
    data, back = roundtrip([], uniform_table(0))
    assert data == (1 << 16).to_bytes(4, "big")  # the start state, flushed
    assert back == []


def test_uniform_bytes_cost_one_byte_each():
    rng = np.random.default_rng(0)
    symbols = rng.integers(0, 256, size=1000).tolist()
    tables = uniform_table(1000)
    data, back = roundtrip(symbols, tables)
    assert back == symbols
    assert abs(len(data) - 1000) <= 8


def test_encode_is_deterministic():
    rng = np.random.default_rng(1)
    symbols = rng.integers(0, 256, size=300).tolist()
    tables = uniform_table(300)
    assert rc.encode(symbols, tables) == rc.encode(symbols, tables)


def test_extreme_skew_roundtrip():
    symbols = [10] * 5000 + [0, 255, 10, 128]
    data, back = roundtrip(symbols, skew_table(len(symbols), 256, hot=10))
    assert back == symbols
    # nearly-certain symbols cost almost nothing
    assert len(data) < 40


def test_mixed_tables_roundtrip():
    rng = np.random.default_rng(2)
    tables = random_tables(rng, 400)
    symbols = draw_symbols(rng, tables)
    _, back = roundtrip(symbols, tables)
    assert back == symbols


@pytest.mark.parametrize("sigma", [0.05, 1.0, 30.0])
def test_gaussian_tables_roundtrip(sigma):
    rng = np.random.default_rng(3)
    n = 2000
    values = np.clip(np.round(rng.normal(0, sigma, size=n)), -127, 128).astype(int)
    data, back = roundtrip(values.tolist(), alphabet_table(0.0, sigma, n))
    assert back == values.tolist()


def test_escape_values_roundtrip():
    symbols = [0, 1, 900, -5000, 2, 2 ** 31 - 1, -(2 ** 31), -1]
    _, back = roundtrip(symbols, alphabet_table(0.0, 1.0, len(symbols)))
    assert back == symbols


def test_escape_rejected_beyond_int32():
    with pytest.raises(ContractViolation):
        rc.encode([2 ** 31], alphabet_table(0.0, 1.0, 1))


def test_out_of_alphabet_without_escape():
    with pytest.raises(ContractViolation):
        rc.encode([300], uniform_table(1))


def test_truncated_stream_errors():
    rng = np.random.default_rng(4)
    symbols = rng.integers(0, 256, size=200).tolist()
    tables = uniform_table(200)
    data = rc.encode(symbols, tables)
    for cut in (0, 1, 7, len(data) // 2, len(data) - 1):
        with pytest.raises(CorruptStreamError):
            rc.decode(data[:cut], tables, 200)


def escape_stream():
    """500 Gaussian rows, values drawn from them, every 37th an int32:
    25 escapes in 312 bytes."""
    rng = np.random.default_rng(7)
    n = 500
    mu = rng.normal(0, 3, n)
    sigma = np.exp(rng.uniform(-4, 5, n))
    values = np.round(rng.normal(mu, sigma)).astype(np.int64)
    i32 = np.iinfo(np.int32)
    values[::37] = rng.integers(i32.min, i32.max, values[::37].size)
    return values.tolist(), ent.alphabet_rows(ent.build_cdf_tables(mu, sigma), np.arange(n))


ESCAPE_STREAM_SHA = "dbb976a9e65584d3d6be2ce0175ee4694280de6053f38ede956398c845b945d3"


def test_escape_stream_bytes_are_pinned():
    symbols, tables = escape_stream()
    assert escapes(symbols, tables) == 25
    data, back = roundtrip(symbols, tables)
    assert back == symbols
    assert len(data) == 312
    assert hashlib.sha256(data).hexdigest() == ESCAPE_STREAM_SHA


def test_chunks_of_bins_give_the_pinned_bytes(monkeypatch):
    # chunks of 7 bins cut escapes from their payload bytes and the
    # stream's words across chunks; encode and decode both walk them
    monkeypatch.setattr(rc, "_CHUNK", 7)
    symbols, tables = escape_stream()
    data, back = roundtrip(symbols, tables)
    assert back == symbols
    assert hashlib.sha256(data).hexdigest() == ESCAPE_STREAM_SHA


def test_every_cut_of_escape_stream_errors():
    symbols, tables = escape_stream()
    data = rc.encode(symbols, tables)
    for cut in range(len(data)):
        with pytest.raises(CorruptStreamError):
            rc.decode(data[:cut], tables, len(symbols))


@pytest.mark.parametrize("tail", [b"\x00\x00", b"\x5a\xa5", b"\x00"],
                         ids=["zero-word", "word", "odd-byte"])
def test_stream_with_bytes_appended_errors(tail):
    # two bytes are a word the decoder never reads; one makes the length odd
    symbols, tables = escape_stream()
    data = rc.encode(symbols, tables)
    with pytest.raises(CorruptStreamError):
        rc.decode(data + tail, tables, len(symbols))


def test_stream_that_ends_in_another_state_errors():
    # three uniform 4-bin symbols take 6 bits off a 32-bit state and read
    # no word, so a flip of its bit 24 survives into the end state
    tables = uniform_table(3, nbins=4)
    data = rc.encode([1, 2, 3], tables)
    assert len(data) == 4
    bad = bytes([data[0] ^ 1]) + data[1:]
    with pytest.raises(CorruptStreamError, match="does not end in the start state"):
        rc.decode(bad, tables, 3)


def grid_stream():
    """20,480 values coded through CODER_GRID, relative to their centres:
    most sit on an integer mean under a tiny sigma and cost almost nothing,
    every 64th has a fractional mean and a wide sigma, and every 2,048th
    is an int32 escape.  10 escapes in 222 bytes."""
    rng = np.random.default_rng(13)
    n = 20_480
    mu = rng.integers(-20, 21, n).astype(np.float64)
    sigma = np.exp(rng.uniform(-4.6, -2.5, n))
    mu[::64] += rng.uniform(-0.5, 0.5, n // 64)
    sigma[::64] = np.exp(rng.uniform(-1, 3, n // 64))
    values = np.round(rng.normal(mu, sigma)).astype(np.int64)
    i32 = np.iinfo(np.int32)
    values[::2048] = rng.integers(i32.min, i32.max, n // 2048)
    tables, center = ent.CODER_GRID.tables(mu, sigma)
    return values - center, tables


def test_grid_stream_bytes_are_pinned():
    rel, tables = grid_stream()
    assert escapes(rel, tables) == 10
    data, back = roundtrip(rel, tables)
    assert len(data) == 222
    assert hashlib.sha256(data).hexdigest() == (
        "95a4d7ed302c1a5be4d8dd32ce6b1862b9f1255a46b4dda23c1459d3cce4d3a0")
    assert back == rel.tolist()


def test_every_cut_of_grid_stream_errors():
    rel, tables = grid_stream()
    data = rc.encode(rel, tables)
    for cut in range(len(data)):
        with pytest.raises(CorruptStreamError):
            rc.decode(data[:cut], tables, rel.size)


def test_mixed_width_rows_code_one_stream():
    """12 rows of 1-257 bins, smin in [-300, 300], every third with an
    escape bin, in one 3,000-symbol stream with 41 escapes."""
    rng = np.random.default_rng(17)
    i32 = np.iinfo(np.int32)
    cums, smin, has_escape = [], [], []
    for k in range(12):
        nbins = int(rng.integers(1, 258))
        cuts = rng.choice(np.arange(1, rc.CDF_TOTAL), size=nbins - 1, replace=False)
        cums.append(np.concatenate([[0], np.sort(cuts), [rc.CDF_TOTAL]]))
        smin.append(int(rng.integers(-300, 300)))
        has_escape.append(nbins > 1 and k % 3 == 0)
    index = rng.integers(0, len(cums), 3000).tolist()
    tables = padded_rows(cums, smin, index, has_escape)
    nsym = tables.nsymbols.tolist()
    symbols = [int(rng.integers(i32.min, i32.max)) if has_escape[r] and rng.random() < 0.05
               else int(rng.integers(smin[r], smin[r] + nsym[r])) for r in index]
    assert escapes(symbols, tables) == 41
    data, back = roundtrip(symbols, tables)
    assert back == symbols
    assert hashlib.sha256(data).hexdigest() == (
        "ac91e5d862d73396515c7413f458fa9c546f0ca5042ef6446a9d1f57a0ba0d87")


def test_table_rows_contract():
    cum = np.array([[0, 100, rc.CDF_TOTAL], [0, 5, rc.CDF_TOTAL]])
    rc.TableRows(cum, [0, 1, 1], 0, 2, False)
    with pytest.raises(ContractViolation):
        rc.TableRows(cum, [0, 2], 0, 2, False)           # no row 2
    with pytest.raises(ContractViolation):
        rc.TableRows(cum, [-1], 0, 2, False)
    with pytest.raises(ContractViolation):
        rc.TableRows(cum, [0], 0, 2, True)               # 3 bins in a width-3 row
    with pytest.raises(ContractViolation):
        rc.TableRows(cum[:, :2], [0], 0, 1, False)       # a row ends at 100
    with pytest.raises(ContractViolation):
        rc.TableRows(cum[:, 1:], [0], 0, 1, False)       # a row starts at 100


def test_symbol_table_count_mismatch():
    with pytest.raises(ContractViolation):
        rc.encode([1, 2], uniform_table(1))
    with pytest.raises(ContractViolation):
        rc.decode(b"\x00" * 16, uniform_table(2), 3)


def test_compression_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        tables = random_tables(rng, 500, max_bins=64)
        symbols = draw_symbols(rng, tables)
        data = rc.encode(symbols, tables)
        row = tables.index
        off = np.asarray(symbols) - tables.smin[row]
        freq = tables.cum[row, off + 1] - tables.cum[row, off]
        ideal = float(np.sum(-np.log2(freq / rc.CDF_TOTAL)))
        assert len(data) * 8 <= ideal + 256 + 0.001 * ideal


def test_empty_bin_is_refused_when_coded():
    # rows are not checked for empty bins: coding bin 0 would leave the coder no range
    table = rc.TableRows([[0, 0, rc.CDF_TOTAL]], [0], 0, 2, False)
    with pytest.raises(ContractViolation, match="freq >= 1"):
        rc.encode([0], table)
    _, back = roundtrip([1], table)
    assert back == [1]


@pytest.mark.parametrize("total", [100, rc.CDF_TOTAL - 1])
def test_table_with_another_total_is_refused_at_construction(total):
    # the coder splits its range by CDF_TOTAL, so such a table is never built
    for has_escape in (False, True):
        with pytest.raises(ContractViolation, match="run from 0 to 65536"):
            rc.TableRows([[0, total // 2, total]], [0], 0, 2 - has_escape, has_escape)


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 60))
def test_roundtrip_property(seed, n):
    rng = np.random.default_rng(seed)
    tables = random_tables(rng, n)
    symbols = draw_symbols(rng, tables)
    data, back = roundtrip(symbols, tables)
    assert back == symbols


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_skew_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    nbins = int(rng.integers(2, 257))
    hot = int(rng.integers(0, nbins))
    n = int(rng.integers(1, 300))
    symbols = rng.integers(0, nbins, size=n).tolist()
    _, back = roundtrip(symbols, skew_table(n, nbins, hot=hot))
    assert back == symbols
