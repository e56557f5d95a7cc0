"""The columnar formatter gives the bytes of ``'%.17g' % x`` for every float64."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alleletest import _format
from alleletest._format import FILLER_BYTES, WIDTH, format_17g


def texts(values) -> list[str]:
    out = format_17g(np.asarray(values, dtype=np.float64)).reshape(-1, WIDTH)
    return [bytes(row).translate(None, FILLER_BYTES).decode("ascii") for row in out]


def expected(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).reshape(-1).tolist()]


def unsure(values) -> np.ndarray:
    """The fast path's unsure mask for positive values inside its limits."""
    return _format._digits(np.abs(np.asarray(values, dtype=np.float64)))[2]


def halfway_values() -> np.ndarray:
    """Doubles whose exact decimal value has 18 significant digits ending in
    5, so ``%.17g`` rounds an exact tie: ``n / 2**k`` for odd ``n`` and
    ``10**(17 - k) <= n / 2**k < 10**(18 - k)``, where ``n < 2**53``."""
    rng = np.random.default_rng(3)
    values = []
    for k in range(3, 18):
        low, high = 10 ** (17 - k) << k, 10 ** (18 - k) << k
        for n in rng.integers(low, min(high, 1 << 53), size=8).tolist():
            values.append((n | 1) / 2**k)
    return np.array(values)


def near_tie(binary_exp: int, decimal_exp: int, offset: int) -> float:
    """The least double ``m * 2**binary_exp`` (``m`` of 53 bits) whose exact
    ``x * 10**(16 - decimal_exp)`` has the fraction ``1/2 + offset / 2**j``,
    its denominator being ``2**j``: a tie at offset 0, and within 1e-9 of
    one at the others while ``j`` is at least 32."""
    scale = 16 - decimal_exp
    j = -(binary_exp + scale)
    m = ((1 << (j - 1)) + offset) * pow(5**scale, -1, 1 << j) % (1 << j)
    m += -(-((1 << 52) - m) // (1 << j)) << j  # the least such m of 53 bits
    return m * 2.0**binary_exp


POWERS = np.array([float(f"1e{k}") for k in range(-307, 309)])
NORMALS = [sys.float_info.max, sys.float_info.min, 5e-324, np.nextafter(sys.float_info.min, 0)]
SWITCHES = np.array([1e-4, 1e-5, 1e16, 1e17])


class TestEqualsPercentFormat:
    @given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(allow_subnormal=True)))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_floats(self, values):
        assert texts(values) == expected(values)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, words):
        values = np.array(words, dtype=np.uint64).view(np.float64)
        assert texts(values) == expected(values)

    @given(st.floats(0.0, 2.2250738585072014e-308, allow_subnormal=True))
    @example(5e-324)
    @settings(max_examples=200, deadline=None)
    def test_subnormals(self, value):
        assert texts([value, -value]) == expected([value, -value])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_powers_of_ten_and_their_neighbours(self, sign):
        values = sign * np.concatenate(
            [POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, np.inf)]
        )
        assert texts(values) == expected(values)

    def test_zeros_and_non_finite_values(self):
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        assert texts(values) == expected(values) == ["0", "-0", "inf", "-inf", "nan", "nan"]

    def test_largest_and_smallest_normals(self):
        values = np.array(NORMALS + [-v for v in NORMALS])
        assert texts(values) == expected(values)

    def test_notation_switches(self):
        # %g turns scientific below 1e-4 and from 1e17 (precision 17).
        values = np.concatenate(
            [SWITCHES, np.nextafter(SWITCHES, 0.0), np.nextafter(SWITCHES, np.inf)]
        )
        got = texts(values)
        assert got == expected(values)
        assert got[:4] == ["0.0001", "1.0000000000000001e-05", "10000000000000000", "1e+17"]

    def test_three_digit_exponents(self):
        values = np.array([1.5e-100, 1e-100, 9.999e99, 1e100, 1.2345678901234567e250,
                           -3e-250, 1e280, 9.9e279, 1e-280, 1.1e-280])
        assert texts(values) == expected(values)

    def test_integers_keep_their_zeros(self):
        values = np.array([10.0, 100.0, 120.0, 1e15, 1234567890123456.0, 12345678901234568.0,
                           10000.5, 99999999999999984.0, 1.5, 0.25])
        assert texts(values) == expected(values)

    def test_exponent_from_the_unrounded_value(self):
        # 1e-200 is not a double: its nearest double lies just below it, so
        # %g's exponent is -201, not the -200 of the value rounded.
        assert texts([1e-200]) == ["9.9999999999999998e-201"]
        assert texts([1e23]) == ["9.9999999999999992e+22"]
        # The double nearest 1e-14 lies below it too, but rounds up to it at
        # 17 digits, and %g then prints the rounded value's exponent.
        assert Fraction(1e-14) < Fraction(1, 10**14)
        assert texts([1e-14, 1e98]) == ["1e-14", "1e+98"]

    @pytest.mark.parametrize("shift", [-1e-9, 1e-9])
    def test_exponent_whichever_way_log10_rounds(self, shift, monkeypatch):
        # floor(log10) can land one off next to a power of ten; the exact
        # comparisons with the powers settle the exponent either way.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda values: log10(values) + shift)
        values = np.concatenate([POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, np.inf)])
        assert texts(values) == expected(values)

    def test_any_shape(self):
        values = np.arange(24.0).reshape(2, 3, 4) / 7
        out = format_17g(values)
        assert out.shape == (2, 3, 4, WIDTH)
        assert texts(values) == expected(values)


class TestList:
    @given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(allow_subnormal=True)))
    @example(np.array([0.0, -0.0, np.inf, -np.nan, 1e-5, 1e17, 5e-324]))
    @settings(max_examples=200, deadline=None)
    def test_equals_percent_format(self, values):
        assert _format.format_17g_list(values) == expected(values)


class TestTables:
    def test_chunk_words_and_last_digits(self):
        *_, chunks, last = _format._tables()
        words = chunks.view(np.uint8).reshape(-1, 8)
        for c in range(10_000):
            assert bytes(words[c]) == b"".join(bytes((ord(d), 0)) for d in f"{c:04d}")
            place = 4 - min(3, len(str(c)) - len(str(c).rstrip("0"))) if c else 0
            assert last[:, c].tolist() == [4 * j + place if c else 0 for j in range(4)]
        for d in range(10):  # the first digit alone, in word 0
            assert bytes(words[10_000 + d]) == bytes(6) + bytes((ord(str(d)), 0))


class TestFallback:
    """Python's ``%`` settles what the fast path cannot decide."""

    def test_exact_ties_are_unsure_and_round_half_to_even(self):
        values = halfway_values()
        assert values.size == 120
        assert unsure(values).all()
        assert texts(values) == expected(values)
        assert texts(-values) == expected(-values)

    @pytest.mark.parametrize("binary_exp, decimal_exp", [(-52, 0), (-58, -2), (-67, -5), (-48, 1)])
    @pytest.mark.parametrize("offset", [-3, -1, 0, 1, 2])
    def test_near_ties_are_unsure(self, binary_exp, decimal_exp, offset):
        value = near_tie(binary_exp, decimal_exp, offset)
        assert 10.0**decimal_exp <= value < 10.0 ** (decimal_exp + 1)
        assert unsure([value]).all()
        assert texts([value, -value]) == expected([value, -value])

    def test_ordinary_values_are_sure(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 1.0, 10_000) * 10.0 ** rng.integers(-12, 7, 10_000)
        assert not unsure(values).any()
        assert texts(values) == expected(values)
