"""The Cephes ports in ``alleletest._normal`` against ``scipy.special``, bit for bit.

Each branch of ``ndtr`` (the direct erf polynomial, erfc through erf, the
two erfc rational forms and erfc's underflow) and of ``ndtri`` (the central
rational form, the two tail forms, on either side of 1/2) gets at least
1e5 random points; the upper far tail of ``ndtri`` holds only 114 floats
and gets all of them. The branch thresholds and their neighbours, signed
zeros, infinities, NaN, subnormals and the levels the golden files and the
benchmark use are checked on top.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special

from alleletest._normal import ndtr, ndtri
from alleletest.stats import two_sided_critical_value

N = 100_000
SQRT2 = math.sqrt(2.0)
MAXLOG = 7.09782712893383996843e2
EXP_M2 = 0.13533528323661269189
EXP_M32 = math.exp(-32.0)
# alpha of the golden files and the benchmark, and 1 - ci_level of the scans
LEVELS = (1e-2, 1e-3, 1e-4, 1e-8, 0.05, 0.01)


def bits(x) -> np.ndarray:
    """float64 bit patterns, with every NaN mapped to one pattern."""
    x = np.array(x, dtype=float)
    x[np.isnan(x)] = np.nan
    return x.view(np.int64)


def around(points) -> np.ndarray:
    """Each point and its two float neighbours."""
    points = np.asarray(points, dtype=float)
    return np.concatenate(
        [points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)]
    )


def signed_uniform(rng, lo, hi) -> np.ndarray:
    return rng.uniform(lo, hi, N) * rng.choice([-1.0, 1.0], N)


# ndtr branches by |a|: erf polynomial, erfc = 1 - erf, erfc P/Q, erfc R/S,
# and erfc's underflow to 0
NDTR_BRANCHES = {
    "erf": (0.0, 1.0),
    "one_minus_erf": (1.0, SQRT2),
    "erfc_pq": (SQRT2, 8.0 * SQRT2),
    "erfc_rs": (8.0 * SQRT2, math.sqrt(2.0 * MAXLOG)),
    "underflow": (math.sqrt(2.0 * MAXLOG), 60.0),
}
NDTR_SPECIALS = np.concatenate(
    [
        around([1.0, SQRT2, 8.0 * SQRT2, math.sqrt(2.0 * MAXLOG)]),
        -around([1.0, SQRT2, 8.0 * SQRT2, math.sqrt(2.0 * MAXLOG)]),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310],
        [2.2250738585072014e-308, -2.2250738585072014e-308, 1e300, -1e300],
        [two_sided_critical_value(level) for level in LEVELS],
        [-two_sided_critical_value(level) for level in LEVELS],
    ]
)


@pytest.mark.parametrize("branch", sorted(NDTR_BRANCHES))
def test_ndtr_matches_scipy_on_branch(branch):
    lo, hi = NDTR_BRANCHES[branch]
    a = signed_uniform(np.random.default_rng(sorted(NDTR_BRANCHES).index(branch)), lo, hi)
    assert np.array_equal(bits(ndtr(a)), bits(special.ndtr(a)))


def test_ndtr_matches_scipy_at_special_points():
    assert np.array_equal(bits(ndtr(NDTR_SPECIALS)), bits(special.ndtr(NDTR_SPECIALS)))
    for a in NDTR_SPECIALS.tolist():  # floats give numpy floats, as scipy's do
        value = ndtr(a)
        assert isinstance(value, np.float64)
        assert bits(value) == bits(special.ndtr(a))


def test_ndtr_keeps_the_shape():
    a = np.linspace(-10.0, 10.0, 12).reshape(3, 4)
    assert ndtr(a).shape == (3, 4)
    assert ndtr(np.empty((0, 2))).shape == (0, 2)


_RNG = np.random.default_rng(7)
# 1e5 random probabilities in each branch of ndtri
NDTRI_BRANCHES = {
    "central": _RNG.uniform(EXP_M2, 1.0 - EXP_M2, N),
    "lower_tail": np.exp(_RNG.uniform(-32.0, -2.0, N)),
    "lower_far_tail": np.exp(_RNG.uniform(-740.0, -32.0, N)),
    "upper_tail": 1.0 - np.exp(_RNG.uniform(-32.0, -2.0, N)),
    # every float there: 1 - k * 2**-53 for k up to exp(-32) * 2**53
    "upper_far_tail": 1.0 - np.arange(1, int(EXP_M32 * 2**53) + 1) * 2.0**-53,
}
NDTRI_SPECIALS = np.concatenate(
    [
        around([EXP_M2, 1.0 - EXP_M2, EXP_M32, 1.0 - EXP_M32, 0.5]),
        [0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, -1.0, 2.0, np.nextafter(1.0, 2.0)],
        [5e-324, 1e-310, 2.2250738585072014e-308, np.nextafter(1.0, 0.0)],
        [level / 2.0 for level in LEVELS],
    ]
)


@pytest.mark.parametrize("branch", sorted(NDTRI_BRANCHES))
def test_ndtri_matches_scipy_on_branch(branch):
    y = NDTRI_BRANCHES[branch]
    ours = [ndtri(p) for p in y.tolist()]
    assert np.array_equal(bits(ours), bits(special.ndtri(y)))


def test_ndtri_matches_scipy_at_special_points():
    ours = [ndtri(p) for p in NDTRI_SPECIALS.tolist()]
    with np.errstate(invalid="ignore"):
        expected = special.ndtri(NDTRI_SPECIALS)
    assert np.array_equal(bits(ours), bits(expected))
