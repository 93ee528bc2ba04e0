import math

import numpy as np
import pytest
from scipy import special

import c2f.autodiff as ad
import c2f.codec as codec
import c2f.entropy as ent
import c2f.rangecoder as rc
from c2f.autodiff import Tensor
from c2f.entropy import CODER_GRID, FactorizedZ, QuantizerMode
from c2f.errors import ContractViolation, NumericError

from gradcheck import assert_grads_close
from zoo import ZOO_LAMBDAS


def t4(values):
    arr = np.asarray(values, dtype=np.float32).reshape(1, 1, 1, -1)
    return Tensor(arr)


# ---------------------------------------------------------------------------
# quantize

def test_round_half_away_from_zero():
    x = t4([1.5, -1.5, 0.4, -0.4, 2.5, 0.0])
    out = ent.quantize(x, QuantizerMode.INFERENCE_ROUND)
    np.testing.assert_array_equal(out.data.reshape(-1), [2, -2, 0, 0, 3, 0])


def test_noise_within_half_unit():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 3, 3, 4)).astype(np.float32))
    out = ent.quantize(x, QuantizerMode.TRAIN_NOISE, np.random.default_rng(1))
    assert np.all(np.abs(out.data - x.data) <= 0.5)


def test_noise_seed_reproducible():
    x = Tensor(np.zeros((1, 2, 2, 3), np.float32))
    a = ent.quantize(x, QuantizerMode.TRAIN_NOISE, np.random.default_rng(7))
    b = ent.quantize(x, QuantizerMode.TRAIN_NOISE, np.random.default_rng(7))
    np.testing.assert_array_equal(a.data, b.data)


def test_noise_requires_rng():
    with pytest.raises(ContractViolation):
        ent.quantize(t4([0.0]), QuantizerMode.TRAIN_NOISE)


# ---------------------------------------------------------------------------
# likelihoods

def test_center_bin_probability_matches_erf_oracle():
    # independent oracle: erf from the stdlib
    expected = math.erf(0.5 / math.sqrt(2.0))
    assert abs(expected - 0.3829249) < 1e-6

    q64 = ent.gaussian_bin_prob(0.0, 0.0, 1.0)
    assert abs(float(q64) - expected) < 1e-12

    q32 = ent.gaussian_likelihood(t4([0.0]), t4([0.0]), t4([1.0]))
    assert abs(q32.item() - expected) < 1e-6


def test_likelihood_symmetry_around_mean():
    for k in (1, 2, 5, 17):
        qp = ent.gaussian_bin_prob(0.3 + k, 0.3, 1.7)
        qm = ent.gaussian_bin_prob(0.3 - k, 0.3, 1.7)
        assert float(qp) == pytest.approx(float(qm), rel=1e-12)
    # float32 op path carries float32 rounding of the standardized inputs
    mu, sigma = t4([0.3]), t4([1.7])
    for k in (1, 2, 4):
        qp = ent.gaussian_likelihood(t4([0.3 + k]), mu, sigma).item()
        qm = ent.gaussian_likelihood(t4([0.3 - k]), mu, sigma).item()
        assert qp == pytest.approx(qm, rel=2e-5)


@pytest.mark.parametrize("sigma", [0.05, 1.0, 64.0])
def test_integer_support_sums_to_one(sigma):
    k = np.arange(-1000, 1001, dtype=np.float64)
    total = ent.gaussian_bin_prob(k, 0.25, sigma).sum()
    assert abs(total - 1.0) < 1e-9


def test_likelihood_floor_applied():
    q = ent.gaussian_likelihood(t4([500.0]), t4([0.0]), t4([0.05]))
    assert q.item() == pytest.approx(ent.LIKELIHOOD_FLOOR, rel=1e-6)


def test_z_likelihood_matches_zero_mean_gaussian():
    fz = FactorizedZ.create(1)
    q = ent.z_likelihood(Tensor(np.zeros((1, 1, 1, 1), np.float32)), fz)
    assert q.item() == pytest.approx(0.3829249, abs=1e-6)


def test_z_likelihood_per_channel_broadcast():
    fz = FactorizedZ(Tensor(np.log([[ [[0.5, 2.0]] ]]).astype(np.float32)))
    z = Tensor(np.ones((1, 2, 2, 2), np.float32))
    q = ent.z_likelihood(z, fz)
    assert not np.allclose(q.data[..., 0], q.data[..., 1])
    assert np.allclose(q.data[0, 0, 0, 0], q.data[0, 1, 1, 0])


def test_z_likelihood_monotone_in_magnitude():
    fz = FactorizedZ.create(1)
    qs = [ent.z_likelihood(Tensor(np.full((1, 1, 1, 1), v, np.float32)), fz).item()
          for v in (0.0, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_z_channel_mismatch():
    with pytest.raises(ContractViolation):
        ent.z_likelihood(Tensor(np.zeros((1, 1, 1, 3), np.float32)), FactorizedZ.create(2))


# ---------------------------------------------------------------------------
# rate

def test_rate_half_likelihood_is_one_bit_each():
    q = Tensor(np.full((1, 2, 2, 3), 0.5, np.float32))
    assert ent.rate_bits(q).item() == pytest.approx(12.0, rel=1e-6)


def test_rate_certain_symbols_cost_nothing():
    q = Tensor(np.ones((1, 2, 2, 3), np.float32))
    assert ent.rate_bits(q).item() == 0.0


def test_rate_decomposes_exactly_across_streams():
    rng = np.random.default_rng(3)
    qs = [Tensor(rng.uniform(0.01, 1.0, (1, 2, 2, c)).astype(np.float32))
          for c in (3, 5, 2)]
    total = ent.rate_bits(*qs).item()
    parts = [ent.rate_bits(q).item() for q in qs]
    folded = np.float32(np.float32(np.float32(parts[0]) + np.float32(parts[1])) + np.float32(parts[2]))
    assert total == float(folded)


def test_rate_differentiable_end_to_end():
    rng = np.random.default_rng(4)
    xhat = Tensor(rng.uniform(-2, 2, (1, 2, 2, 2)).astype(np.float32))
    mu = Tensor(rng.uniform(-0.5, 0.5, (1, 2, 2, 2)).astype(np.float32), requires_grad=True)
    raw = Tensor(rng.uniform(-0.3, 0.3, (1, 2, 2, 2)).astype(np.float32), requires_grad=True)

    def f():
        sigma = ad.clamp(ad.exp(raw), ent.SIGMA_MIN, ent.SIGMA_MAX)
        return ent.rate_bits(ent.gaussian_likelihood(xhat, mu, sigma))

    assert_grads_close(f, [mu, raw], rtol=1e-3)


# ---------------------------------------------------------------------------
# CDF tables

def alphabet_row(mu, sigma):
    """The build_cdf_tables row of N(mu, sigma): bin v - ALPHABET_MIN codes
    v, and the last bin is the escape bin."""
    return ent.build_cdf_tables([mu], [sigma])[0]


def test_cdf_table_normalization_and_floor():
    cum = alphabet_row(0.0, ent.SIGMA_MIN)
    assert cum[0] == 0 and cum[-1] == 65536
    freqs = np.diff(cum)
    assert np.all(freqs >= 1)
    # nearly all mass in the central bin at the sigma floor
    assert freqs[0 - ent.ALPHABET_MIN] > 65000


def test_cdf_table_bit_costs_track_float_model():
    cum = alphabet_row(0.0, 1.0)
    k = np.arange(-8, 9, dtype=np.float64)
    q = ent.gaussian_bin_prob(k, 0.0, 1.0)
    freqs = np.diff(cum)[k.astype(np.int64) - ent.ALPHABET_MIN]
    table_bits = -np.log2(freqs / 65536.0)
    float_bits = -np.log2(q)
    # expected (probability-weighted) overhead of table quantization
    assert float(np.sum(q * (table_bits - float_bits))) < 0.01
    # per-symbol agreement wherever 16-bit resolution can express it
    resolvable = freqs >= 512
    assert resolvable.any()
    assert np.all(np.abs(table_bits[resolvable] - float_bits[resolvable]) < 0.01)


def test_cdf_table_escape_holds_tail_mass():
    cum = alphabet_row(0.0, 64.0)
    esc_freq = int(cum[-1] - cum[-2])
    tail = 1.0 - float(ent.gaussian_bin_prob(np.arange(-127, 129), 0.0, 64.0).sum())
    assert esc_freq / 65536.0 == pytest.approx(tail, abs=2e-4)


def test_build_cdf_tables_batch_matches_scalar():
    mus = np.array([0.0, 1.3, -2.7])
    sigmas = np.array([0.5, 1.0, 9.0])
    rows = ent.build_cdf_tables(mus, sigmas)
    for i, (m, s) in enumerate(zip(mus, sigmas)):
        single = ent.build_cdf_tables([float(m)], [float(s)])
        np.testing.assert_array_equal(rows[i], single[0])


def test_coder_tables_view_rows_over_the_alphabet():
    rows = ent.build_cdf_tables([0.0, 0.0], [0.5, 4.0])
    # one bin per alphabet value, then the escape bin
    assert rows.shape == (2, ent.ALPHABET_MAX - ent.ALPHABET_MIN + 3)
    tables = rc.TableRows(rows, [1, 0, 1])
    assert len(tables) == 3
    np.testing.assert_array_equal(tables.index, [1, 0, 1])
    assert np.shares_memory(tables.cum, rows)


def test_grid_tables_share_one_table_per_row():
    tables, center = CODER_GRID.tables([0.0, 2.0, 0.0, 5.25], [0.5, 0.5, 4.0, 4.0])
    assert len(tables) == 4
    np.testing.assert_array_equal(center, [0, 2, 0, 5])
    assert tables.index[0] == tables.index[1]  # same offset and scale: one row
    assert tables.index[0] != tables.index[2]
    again, _ = CODER_GRID.tables([0.0], [0.5])
    assert again.cum is tables.cum  # every call reads the grid's one array


def test_coder_rows_are_int32():
    # every count is at most CDF_TOTAL, so the rows are int32: the grid's
    # 8,448 rows of 258 counts take 8.3 MiB, and the coder reads them as
    # they are
    grid, _ = CODER_GRID.tables([0.0], [1.0])
    assert grid.cum.dtype == np.int32
    assert grid.cum.nbytes == ent.GRID_SIGMAS * ent.GRID_OFFSETS * 258 * 4
    z_rows = codec._z_rows(np.array([0.5, 3.0, 40.0]))
    assert z_rows.dtype == np.int32 and z_rows.shape == (3, 258)
    assert rc.TableRows(z_rows, [0, 2]).cum is z_rows


# ---------------------------------------------------------------------------
# shared scale x offset grid

def grid_roundtrip(values, mu, sigma):
    """Code values relative to their centres through CODER_GRID and back."""
    values = np.asarray(values, dtype=np.int64)
    tables, center = CODER_GRID.tables(mu, sigma)
    data = rc.encode(values - center, tables)
    tables, center = CODER_GRID.tables(mu, sigma)
    return rc.decode(data, tables, len(values)) + center


def test_grid_ends_and_zero_offset_are_exact_grid_points():
    assert CODER_GRID.sigmas[0] == ent.SIGMA_MIN
    assert CODER_GRID.sigmas[-1] == ent.SIGMA_MAX
    assert np.all(np.diff(CODER_GRID.sigmas) > 0)
    assert CODER_GRID.offsets[ent.GRID_OFFSETS // 2] == 0.0
    assert (CODER_GRID.offsets[0], CODER_GRID.offsets[-1]) == (-0.5, 0.5)


def test_grid_locates_nearest_scale_and_offset():
    g = CODER_GRID
    n = ent.GRID_OFFSETS
    mid = float(np.sqrt(g.sigmas[10] * g.sigmas[11]))  # log-scale midpoint
    mu = [3.0, -2.25, 0.49, 7.2, 0.0, 0.0, 0.0, 0.0]
    sigma = [1e-4, 1e9, 1.0, 1.0, mid * (1 - 1e-9), mid * (1 + 1e-9),
             np.float32(ent.SIGMA_MIN), ent.SIGMA_MAX]
    row, center = g.locate(mu, sigma)
    k, j = np.divmod(row, n)
    np.testing.assert_array_equal(center, [3, -2, 0, 7, 0, 0, 0, 0])
    np.testing.assert_array_equal(g.offsets[j[:4]], [0.0, -0.25, 0.5, 0.1875])
    assert (k[0], k[1]) == (0, ent.GRID_SIGMAS - 1)  # beyond the clamps
    assert (k[4], k[5]) == (10, 11)
    assert (k[6], k[7]) == (0, ent.GRID_SIGMAS - 1)  # float32 SIGMA_MIN is below it


def test_grid_rows_are_build_cdf_tables_at_grid_points():
    mu, sigma = [0.25, -0.5], [2.0, 40.0]
    row, _ = CODER_GRID.locate(mu, sigma)
    k, j = np.divmod(row, ent.GRID_OFFSETS)
    want = ent.build_cdf_tables(CODER_GRID.offsets[j], CODER_GRID.sigmas[k])
    tables, _ = CODER_GRID.tables(mu, sigma)
    np.testing.assert_array_equal(tables.cum[tables.index], want)


def test_grid_and_zoo_z_rows_equal_rows_built_with_scipy_ndtr(toy_zoo, monkeypatch):
    grid, _ = CODER_GRID.tables([0.0], [1.0])
    k, j = np.divmod(np.arange(ent.GRID_SIGMAS * ent.GRID_OFFSETS), ent.GRID_OFFSETS)
    sigma_z = [toy_zoo.load(lam).fz.sigma_values() for lam in ZOO_LAMBDAS]
    z_rows = [ent.build_cdf_tables(np.zeros(s.size), s) for s in sigma_z]
    monkeypatch.setattr(ad, "ndtr64", special.ndtr)
    np.testing.assert_array_equal(
        grid.cum, ent.build_cdf_tables(CODER_GRID.offsets[j], CODER_GRID.sigmas[k]))
    for s, rows in zip(sigma_z, z_rows):
        np.testing.assert_array_equal(rows, ent.build_cdf_tables(np.zeros(s.size), s))


def test_grid_is_built_whole_on_first_use_and_only_then(monkeypatch):
    grid = ent.CoderGrid()
    built = []
    build_cdf_tables = ent.build_cdf_tables

    def build(mu, sigma):
        built.append(len(mu))
        return build_cdf_tables(mu, sigma)

    monkeypatch.setattr(ent, "build_cdf_tables", build)
    first, _ = grid.tables([0.0, 0.25], [1.0, 1.0])
    second, _ = grid.tables([0.5, -3.0], [7.0, 0.1])
    assert built == [ent.GRID_SIGMAS * ent.GRID_OFFSETS]
    assert first.cum is second.cum
    for tables in (first, second):
        assert np.diff(tables.cum[tables.index], axis=1).min() >= 1


@pytest.mark.parametrize("sigma", [ent.SIGMA_MIN, ent.SIGMA_MAX])
def test_grid_roundtrip_at_sigma_clamps_and_offset_ends(sigma):
    # offsets -0.5, 0 and +0.5 (mu at a half-integer rounds up, so +0.5 is
    # reached from just below one, or by clipping at the alphabet's top)
    mu = np.array([4.5, 4.0, 3.49, 128.5, -127.5, 0.0])
    row, _ = CODER_GRID.locate(mu, np.full(mu.size, sigma))
    assert set(row % ent.GRID_OFFSETS) == {0, ent.GRID_OFFSETS // 2, ent.GRID_OFFSETS - 1}
    rng = np.random.default_rng(5)
    spread = max(1, int(min(sigma, 100)))
    values = np.round(mu + rng.integers(-spread, spread + 1, mu.size)).astype(np.int64)
    values = np.concatenate([values, np.round(mu).astype(np.int64)])
    mu = np.concatenate([mu, mu])
    got = grid_roundtrip(values, mu, np.full(mu.size, sigma))
    np.testing.assert_array_equal(got, values)


def test_grid_mean_outside_alphabet_clips_centre_and_escapes():
    mu = np.array([1000.0, -5000.5, 300.0])
    sigma = np.array([0.5, 2.0, 100.0])
    _, center = CODER_GRID.locate(mu, sigma)
    np.testing.assert_array_equal(center, [ent.ALPHABET_MAX, ent.ALPHABET_MIN, ent.ALPHABET_MAX])
    values = np.array([1000, -5000, 299])
    rel = values - center
    assert np.all((rel < ent.ALPHABET_MIN) | (rel > ent.ALPHABET_MAX))  # every one escapes
    np.testing.assert_array_equal(grid_roundtrip(values, mu, sigma), values)


@pytest.mark.parametrize("mu, sigma", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),
                                       (0.0, np.nan), (0.0, np.inf)])
def test_grid_and_exact_rows_refuse_non_finite_parameters(mu, sigma):
    with pytest.raises(NumericError):
        CODER_GRID.tables([0.0, mu], [1.0, sigma])
    with pytest.raises(NumericError):
        ent.build_cdf_tables([0.0, mu], [1.0, sigma])


def test_grid_shape_contract():
    with pytest.raises(ContractViolation):
        CODER_GRID.locate([0.0, 1.0], [1.0])
