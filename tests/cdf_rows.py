"""Build a coder TableRows from cumulative tables of different lengths."""

import numpy as np

import c2f.rangecoder as rc


def padded_rows(cums, smin, index, has_escape=False) -> rc.TableRows:
    """Row r is cums[r] padded with CDF_TOTAL to the longest table; its
    values start at smin[r], and symbol i is coded under row index[i]."""
    width = max((len(c) for c in cums), default=2)
    cum = np.full((len(cums), width), rc.CDF_TOTAL, dtype=np.int64)
    for r, c in enumerate(cums):
        cum[r, :len(c)] = c
    nbins = np.array([len(c) - 1 for c in cums], dtype=np.int64)
    return rc.TableRows(cum, index, smin, nbins - np.asarray(has_escape), has_escape)


def draw_symbols(rng, tables: rc.TableRows) -> list[int]:
    """One value per symbol, uniform over its row's alphabet, in order."""
    lo = tables.smin[tables.index].tolist()
    n = tables.nsymbols[tables.index].tolist()
    return [int(rng.integers(a, a + k)) for a, k in zip(lo, n)]
