import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c2f.entropy as ent
import c2f.rangecoder as rc
from c2f.errors import ContractViolation, CorruptStreamError

NBINS = rc.ALPHABET_MAX - rc.ALPHABET_MIN + 2  # 256 symbol bins, then the escape bin
I32 = np.iinfo(np.int32)


def cum_row(freqs):
    return np.concatenate([[0], np.cumsum(freqs)])


def uniform_row():
    """Every symbol bin holds 255 and the escape bin the 256 left."""
    freqs = np.full(NBINS, 255)
    freqs[-1] = rc.CDF_TOTAL - 255 * (NBINS - 1)
    return cum_row(freqs)


def skew_row(hot):
    """Bin `hot` holds 65536 - 256 and every other bin 1."""
    freqs = np.ones(NBINS, dtype=np.int64)
    freqs[hot] = rc.CDF_TOTAL - (NBINS - 1)
    return cum_row(freqs)


def random_rows(rng, rows):
    """`rows` rows cut at random: distinct cut points keep every freq >= 1."""
    cum = np.full((rows, NBINS + 1), rc.CDF_TOTAL, dtype=np.int64)
    cum[:, 0] = 0
    for r in range(rows):
        cum[r, 1:-1] = np.sort(rng.choice(rc.CDF_TOTAL - 1, NBINS - 1, replace=False) + 1)
    return cum


def draw_symbols(rng, n, escape_rate=0.05):
    """n values uniform over the alphabet, each an int32 escape with
    probability escape_rate."""
    values = rng.integers(rc.ALPHABET_MIN, rc.ALPHABET_MAX + 1, n)
    escape = rng.random(n) < escape_rate
    values[escape] = rng.integers(I32.min, I32.max, escape.sum(), endpoint=True)
    return values.tolist()


def one_row(row, n):
    """n symbols under the one row `row`."""
    return rc.TableRows([row], np.zeros(n, int))


def alphabet_table(mu, sigma, n):
    """n symbols under the build_cdf_tables row of N(mu, sigma)."""
    return one_row(ent.build_cdf_tables([mu], [sigma])[0], n)


def escapes(symbols):
    """How many symbols lie outside the alphabet."""
    s = np.asarray(symbols)
    return int(np.count_nonzero((s < rc.ALPHABET_MIN) | (s > rc.ALPHABET_MAX)))


def roundtrip(symbols, tables):
    data = rc.encode(symbols, tables)
    back = rc.decode(data, tables, len(symbols))
    assert back.dtype == np.int64 and back.shape == (len(symbols),)
    return data, back.tolist()


# ---------------------------------------------------------------------------

def test_empty_stream_is_flush_only():
    data, back = roundtrip([], one_row(uniform_row(), 0))
    assert data == (1 << 16).to_bytes(4, "big")  # the start state, flushed
    assert back == []


def test_uniform_bytes_cost_one_byte_each():
    rng = np.random.default_rng(0)
    symbols = draw_symbols(rng, 1000, escape_rate=0)
    data, back = roundtrip(symbols, one_row(uniform_row(), 1000))
    assert back == symbols
    assert abs(len(data) - 1000) <= 8


def test_encode_is_deterministic():
    rng = np.random.default_rng(1)
    symbols = draw_symbols(rng, 300)
    tables = one_row(uniform_row(), 300)
    assert rc.encode(symbols, tables) == rc.encode(symbols, tables)


def test_extreme_skew_roundtrip():
    symbols = [10] * 5000 + [-127, 128, 10, 1000]
    data, back = roundtrip(symbols, one_row(skew_row(10 - rc.ALPHABET_MIN), len(symbols)))
    assert back == symbols
    # nearly-certain symbols cost almost nothing
    assert len(data) < 40


def test_mixed_tables_roundtrip():
    rng = np.random.default_rng(2)
    tables = rc.TableRows(random_rows(rng, 400), np.arange(400))
    symbols = draw_symbols(rng, 400)
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


def test_truncated_stream_errors():
    rng = np.random.default_rng(4)
    symbols = draw_symbols(rng, 200)
    tables = one_row(uniform_row(), 200)
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
    return values.tolist(), rc.TableRows(ent.build_cdf_tables(mu, sigma), np.arange(n))


ESCAPE_STREAM_SHA = "dbb976a9e65584d3d6be2ce0175ee4694280de6053f38ede956398c845b945d3"


def test_escape_stream_bytes_are_pinned():
    symbols, tables = escape_stream()
    assert escapes(symbols) == 25
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
    # three symbols in the hot bin move the state by less than a bit and
    # read no word, so a flip of its bit 24 survives into the end state
    tables = one_row(skew_row(0), 3)
    data = rc.encode([rc.ALPHABET_MIN] * 3, tables)
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
    assert escapes(rel) == 10
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


def test_mixed_rows_code_one_stream():
    """12 random rows in one 3,000-symbol stream with 154 escapes."""
    rng = np.random.default_rng(17)
    rows = random_rows(rng, 12)
    index = rng.integers(0, len(rows), 3000)
    symbols = draw_symbols(rng, index.size)
    assert escapes(symbols) == 154
    data, back = roundtrip(symbols, rc.TableRows(rows, index))
    assert back == symbols
    assert hashlib.sha256(data).hexdigest() == (
        "a21656a3417b7dc2ec1bba3f07a9749bf97280dd3d975ee5e4b1dac03693f5ce")


def test_every_alphabet_edge_roundtrips():
    # 128 is the last symbol bin and 129 the first escape
    rng = np.random.default_rng(19)
    symbols = list(range(rc.ALPHABET_MIN, rc.ALPHABET_MAX + 1))
    symbols += [rc.ALPHABET_MIN - 1, rc.ALPHABET_MAX + 1, int(I32.min), int(I32.max)]
    rng.shuffle(symbols)
    _, back = roundtrip(symbols, one_row(random_rows(rng, 1)[0], len(symbols)))
    assert back == symbols
    for end in (rc.ALPHABET_MIN, rc.ALPHABET_MAX):  # a symbol bin, not an escape
        hot = one_row(skew_row(end - rc.ALPHABET_MIN), 3)
        assert len(rc.encode([end] * 3, hot)) == 4


def test_table_rows_contract():
    cum = np.stack([uniform_row(), skew_row(3)])
    tables = rc.TableRows(cum, [0, 1, 1])
    assert tables.index.tolist() == [0, 1, 1] and np.shares_memory(tables.cum, cum)
    with pytest.raises(ContractViolation):
        rc.TableRows(cum, [0, 2])                         # no row 2
    with pytest.raises(ContractViolation):
        rc.TableRows(cum, [-1])
    for width in (NBINS, NBINS + 2):
        with pytest.raises(ContractViolation, match="must be"):
            rc.TableRows(np.linspace(0, rc.CDF_TOTAL, width)[None].round(), [0])
    with pytest.raises(ContractViolation):
        rc.TableRows(cum[0], [0])                         # one row, not (R, 258)
    bad = cum.copy()
    bad[1, 0] = 1                                         # a row starts at 1
    with pytest.raises(ContractViolation, match="run from 0"):
        rc.TableRows(bad, [0])
    bad = cum.copy()
    bad[1, -1] -= 1                                       # a row ends at 65535
    with pytest.raises(ContractViolation, match="run from 0"):
        rc.TableRows(bad, [0])


def test_symbol_table_count_mismatch():
    with pytest.raises(ContractViolation):
        rc.encode([1, 2], one_row(uniform_row(), 1))
    with pytest.raises(ContractViolation):
        rc.decode(b"\x00" * 16, one_row(uniform_row(), 2), 3)


def test_compression_bound():
    # an escape's payload costs its 32 bits on top of its escape bin
    rng = np.random.default_rng(5)
    for _ in range(20):
        tables = rc.TableRows(random_rows(rng, 500), np.arange(500))
        symbols = draw_symbols(rng, 500)
        data = rc.encode(symbols, tables)
        off = np.asarray(symbols) - rc.ALPHABET_MIN
        escape = (off < 0) | (off >= NBINS - 1)
        off[escape] = NBINS - 1
        freq = tables.cum[tables.index, off + 1] - tables.cum[tables.index, off]
        ideal = float(np.sum(-np.log2(freq / rc.CDF_TOTAL))) + 32 * escape.sum()
        assert len(data) * 8 <= ideal + 256 + 0.001 * ideal


def test_empty_bin_is_refused_when_coded():
    # rows are not checked for empty bins: coding bin 0 would leave the coder no range
    row = uniform_row()
    row[1] = 0
    table = one_row(row, 1)
    with pytest.raises(ContractViolation, match="freq >= 1"):
        rc.encode([rc.ALPHABET_MIN], table)
    _, back = roundtrip([rc.ALPHABET_MIN + 1], table)
    assert back == [rc.ALPHABET_MIN + 1]


@pytest.mark.parametrize("total", [100, rc.CDF_TOTAL - 1])
def test_table_with_another_total_is_refused_at_construction(total):
    # the coder splits its range by CDF_TOTAL, so such a table is never built
    row = np.linspace(0, total, NBINS + 1).round()
    with pytest.raises(ContractViolation, match="run from 0 to 65536"):
        rc.TableRows([row], [0])


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 60))
def test_roundtrip_property(seed, n):
    rng = np.random.default_rng(seed)
    tables = rc.TableRows(random_rows(rng, n), np.arange(n))
    symbols = draw_symbols(rng, n)
    data, back = roundtrip(symbols, tables)
    assert back == symbols


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_skew_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    hot = int(rng.integers(0, NBINS))
    n = int(rng.integers(1, 300))
    symbols = draw_symbols(rng, n)
    _, back = roundtrip(symbols, one_row(skew_row(hot), n))
    assert back == symbols
