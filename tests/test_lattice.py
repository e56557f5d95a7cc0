"""Every allele table of every design with R, S in 1..40, through the kernel.

Sampled tables rarely tie or sit on a boundary; the whole small lattice has
every tie, every half-step table and every kind of degenerate table. The
expected masks are written in integers, from the counts alone. On the
smallest designs every statistic is also compared with its exact-rational
oracle.
"""

import math

import numpy as np
import pytest

from alleletest.stats import report_columns, statistic_arrays
from oracles import exact_q_hat_delta, exact_t, exact_w_cor, exact_w_delta

MAX_SIZE = 40  # cases R and controls S, so allele totals up to 80
REPORT_MAX_SIZE = 20  # report_columns maps math over each cell: the smaller designs only
ORACLE_MAX_SIZE = 8  # the oracles take ~40 us per table: 4,096 non-degenerate tables
ORACLE_WEIGHT = 0.15
Z = 1.959963984540054  # the 95% interval's quantile
REL = 1e-12


def _halves(max_size):
    """Every (m1 count, allele total) of one group of 1..max_size individuals."""
    totals = 2 * np.arange(1, max_size + 1)
    return np.concatenate([np.arange(n + 1) for n in totals]), np.repeat(totals, totals + 1)


def _design_tables(max_size):
    """For each case count R: every table of the designs (R, 1..max_size) as
    int64 arrays ``r1, n1, s1, n0``."""
    s1, n0 = _halves(max_size)
    for n1 in 2 * np.arange(1, max_size + 1):
        r1 = np.repeat(np.arange(n1 + 1), s1.size)
        yield r1, np.full(r1.size, n1), np.tile(s1, n1 + 1), np.tile(n0, n1 + 1)


def _masks(r1, n1, s1, n0):
    r2, s2 = n1 - r1, n0 - s1
    degenerate = (r1 == 0) | (r2 == 0) | (s1 == 0) | (s2 == 0)
    monomorphic = (r1 + s1 == 0) | (r2 + s2 == 0)
    return degenerate, monomorphic


# Two weights per direction, for time: each gets a row of weight fields.
@pytest.mark.parametrize("direction, weights", [
    ("toward_zero", [[0.15], [1.0]]), ("away_from_zero", [[0.0], [0.5]]),
])
def test_every_small_table(direction, weights):
    for r1, n1, s1, n0 in _design_tables(MAX_SIZE):
        degenerate, monomorphic = _masks(r1, n1, s1, n0)
        a = statistic_arrays(r1, n1, s1, n0, np.array(weights), direction=direction)
        assert np.array_equal(a.degenerate, degenerate)
        assert np.array_equal(a.monomorphic, monomorphic)
        for stat in (a.t, a.w, a.w_cor, a.u, a.q_hat, a.log_ratio_se):
            assert np.array_equal(np.isnan(stat), np.broadcast_to(degenerate, stat.shape))
        clean = np.flatnonzero(~degenerate)  # take() is quicker than a 2-D boolean index
        t, w, w_cor, u, qh = (x.take(clean, axis=-1) for x in (a.t, a.w, a.w_cor, a.u, a.q_hat))
        abs_t, abs_w, abs_w_cor = np.abs(t), np.abs(w), np.abs(w_cor)
        assert np.all(np.abs(w * qh - t) <= REL * abs_t)
        assert np.array_equal(abs_w > abs_t, qh < 1.0)
        assert np.array_equal(np.abs(u), np.maximum(abs_t, abs_w))
        same_sign = np.sign(w_cor) == np.sign(w)
        if direction == "toward_zero":
            # On or inside the half step, 2*|s1*R - r1*S| <= min(R, S) in integers.
            cases, controls = n1[clean] // 2, n0[clean] // 2
            diff = s1[clean] * cases - r1[clean] * controls
            within = 2 * np.abs(diff) <= np.minimum(cases, controls)
            assert np.all(np.where(within, w_cor == 0.0, same_sign & (abs_w_cor < abs_w)))
        else:
            assert np.all(same_sign & ((abs_w_cor > abs_w) | (w == 0.0)))


def test_report_cells_are_empty_only_in_flagged_rows():
    for r1, n1, s1, n0 in _design_tables(REPORT_MAX_SIZE):
        degenerate, monomorphic = _masks(r1, n1, s1, n0)
        cells, flags = report_columns(statistic_arrays(r1, n1, s1, n0, 0.15), Z)
        expected = np.where(monomorphic, 1, np.where(r1 == 0, 3, 2))
        expected[~degenerate] = 0
        assert np.array_equal(flags, expected)
        assert not np.isnan(cells[flags == 0]).any()
        # p_u is U's own normal p-value: 1.0 on degenerate tables, none on monomorphic ones.
        p_u = np.where(monomorphic, np.nan, 1.0)
        p_u[~degenerate] = [math.erfc(abs(u) / math.sqrt(2.0)) for u in cells[~degenerate, 7].tolist()]
        assert np.array_equal(cells[:, 8], p_u, equal_nan=True)


@pytest.fixture(scope="module")
def oracle_lattice():
    """Every non-degenerate table with R, S in 1..ORACLE_MAX_SIZE as int64
    arrays, and the exact T, W_delta and q_hat of each at ORACLE_WEIGHT,
    which do not depend on the correction direction."""
    tables = [np.concatenate(x) for x in zip(*_design_tables(ORACLE_MAX_SIZE))]
    clean = ~_masks(*tables)[0]
    r1, n1, s1, n0 = (x[clean] for x in tables)
    cells = list(zip(r1.tolist(), (n1 - r1).tolist(), s1.tolist(), (n0 - s1).tolist()))
    exact = {
        "t": [exact_t(*c) for c in cells],
        "w": [exact_w_delta(*c, ORACLE_WEIGHT) for c in cells],
        "q_hat": [exact_q_hat_delta(*c, ORACLE_WEIGHT) for c in cells],
    }
    return (r1, n1, s1, n0), cells, exact


@pytest.mark.parametrize("direction", ["toward_zero", "away_from_zero"])
def test_every_smallest_table_matches_the_exact_oracles(oracle_lattice, direction):
    tables, cells, exact = oracle_lattice
    assert len(cells) == 4096
    exact = {**exact, "w_cor": [exact_w_cor(*c, ORACLE_WEIGHT, direction) for c in cells]}
    a = statistic_arrays(*tables, ORACLE_WEIGHT, direction=direction)
    for name, expected in exact.items():
        expected = np.array(expected)
        rel = np.abs(getattr(a, name) - expected) / np.where(expected == 0.0, 1.0, np.abs(expected))
        assert rel.max() <= REL, (name, cells[int(np.argmax(rel))])
