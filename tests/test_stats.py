"""Statistic tests: frozen oracle values, exact identities, symmetries."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from alleletest.stats import (
    CORRECTION_DIRECTIONS,
    MAX_ALLELE_TOTAL,
    AlleleCounts,
    DegenerateTableError,
    effect_size,
    evaluate_counts,
    p_value,
    q_hat,
    q_hat_delta,
    statistic_arrays,
    t_statistic,
    two_sided_critical_value,
    u_statistic,
    w_corrected,
    w_delta_statistic,
    w_statistic,
)
from oracles import bisect_two_sided_z, exact_q_hat_delta, exact_t, exact_w_cor, exact_w_delta

# Worked example used throughout: case frequency 0.145, control 0.092.
COUNTS = AlleleCounts(290, 1710, 184, 1816)
PI_HAT = 0.15


@st.composite
def tables(draw):
    r_cases = draw(st.integers(min_value=1, max_value=3000))
    s_controls = draw(st.integers(min_value=1, max_value=3000))
    r1 = draw(st.integers(min_value=1, max_value=2 * r_cases - 1))
    s1 = draw(st.integers(min_value=1, max_value=2 * s_controls - 1))
    return AlleleCounts(r1, 2 * r_cases - r1, s1, 2 * s_controls - s1)


pi_hats = st.floats(min_value=0.01, max_value=0.99)


class TestAlleleCounts:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlleleCounts(1, 2, 2, 2)  # odd case total
        with pytest.raises(ValueError):
            AlleleCounts(-1, 3, 2, 2)
        with pytest.raises(ValueError):
            AlleleCounts(0, 0, 2, 2)  # case total below 2

    @pytest.mark.parametrize("table, name", [
        ((True, 1, 2, 2), "r1"), ((1, True, 2, 2), "r2"), ((2, 2, True, 1), "s1"),
        ((2, 2, 1, True), "s2"), ((False, 2, 2, 2), "r1"),
    ])
    def test_bool_counts_rejected(self, table, name):
        # A bool is an int that equals 0 or 1, but it counts no alleles.
        value = next(v for v in table if isinstance(v, bool))
        with pytest.raises(ValueError, match=f"^{name} must be a nonnegative integer, got {value}$"):
            AlleleCounts(*table)

    def test_totals_limited_to_exact_float64_range(self):
        half = MAX_ALLELE_TOTAL // 2
        at_limit = AlleleCounts(3, 2 * half - 3, half, half)
        assert t_statistic(at_limit) == pytest.approx(exact_t(3, 2 * half - 3, half, half), rel=1e-12)
        with pytest.raises(ValueError, match="exceeds"):
            AlleleCounts(half, half + 2, 1, 1)
        with pytest.raises(ValueError, match="exceeds"):
            AlleleCounts(1, 1, 1 << 64, 1 << 64)  # beyond int64 as well

    def test_flags(self):
        assert AlleleCounts(0, 2000, 5, 1995).degenerate
        assert not AlleleCounts(0, 2000, 5, 1995).monomorphic
        assert AlleleCounts(0, 2000, 0, 2000).monomorphic
        assert not COUNTS.degenerate


def report_freqs(counts):
    report = evaluate_counts(counts, PI_HAT)
    return report.q_hat_ctrl, report.q_hat_case


class TestSampleFreqs:
    def test_returns_ctrl_then_case(self):
        assert report_freqs(AlleleCounts(500, 1500, 400, 1600)) == (0.20, 0.25)

    def test_boundary(self):
        q_ctrl, q_case = report_freqs(AlleleCounts(0, 2000, 40, 1960))
        assert q_case == 0.0 and q_ctrl == 0.02

    def test_balanced(self):
        assert report_freqs(AlleleCounts(7, 7, 13, 13)) == (0.5, 0.5)


class TestFrozenWorkedExample:
    """Every value below was produced by the exact-rational oracle."""

    def test_t(self):
        expected = -5.203197438693516
        assert exact_t(290, 1710, 184, 1816) == pytest.approx(expected, rel=1e-13)
        assert t_statistic(COUNTS) == pytest.approx(expected, rel=1e-12)

    def test_w(self):
        expected = -5.587932511376181
        assert exact_w_delta(290, 1710, 184, 1816, PI_HAT) == pytest.approx(expected, rel=1e-13)
        assert w_statistic(COUNTS, PI_HAT) == pytest.approx(expected, rel=1e-12)

    def test_q_hat(self):
        expected = 0.9311489407040255
        assert exact_q_hat_delta(290, 1710, 184, 1816, PI_HAT) == pytest.approx(expected, rel=1e-13)
        assert q_hat(COUNTS, PI_HAT) == pytest.approx(expected, rel=1e-12)

    def test_w_delta_boundaries(self):
        assert w_delta_statistic(COUNTS, 0.0) == pytest.approx(-5.798812036137568, rel=1e-12)
        assert w_delta_statistic(COUNTS, 1.0) == pytest.approx(-4.760020368660466, rel=1e-12)

    def test_u_picks_w_here(self):
        # q_hat < 1 for this table, so the combined statistic equals W
        assert u_statistic(COUNTS, PI_HAT) == w_statistic(COUNTS, PI_HAT)

    def test_effect_ratio(self):
        ratio, lo, hi = effect_size(COUNTS)
        assert ratio == pytest.approx(0.6344827586206897, rel=1e-12)
        assert lo < ratio < hi


class TestStatisticRelations:
    def test_zero_when_freqs_equal(self):
        counts = AlleleCounts(300, 1700, 300, 1700)
        assert t_statistic(counts) == 0.0
        assert w_statistic(counts, 0.3) == 0.0
        assert w_corrected(counts, 0.3) == 0.0
        assert u_statistic(counts, 0.3) == 0.0

    def test_w_equals_w_delta_at_pi_hat_bitwise(self):
        for counts in (COUNTS, AlleleCounts(17, 83, 44, 156)):
            for pi in (0.07, 0.15, 0.5, 0.93):
                assert w_statistic(counts, pi) == w_delta_statistic(counts, pi)

    def test_w_independent_of_pi_hat_when_freqs_equal(self):
        counts = AlleleCounts(100, 900, 200, 1800)
        values = {w_statistic(counts, pi) for pi in (0.05, 0.2, 0.5, 0.9)}
        assert len(values) == 1

    def test_u_picks_t_when_q_hat_above_one(self):
        counts = AlleleCounts(1200, 800, 800, 1200)
        assert q_hat(counts, 0.5) > 1.0
        assert u_statistic(counts, 0.5) == t_statistic(counts)

    @given(tables(), pi_hats)
    @settings(max_examples=200)
    def test_identity_w_qhat_t(self, counts, pi):
        t = t_statistic(counts)
        w = w_statistic(counts, pi)
        assert w * q_hat(counts, pi) == pytest.approx(t, rel=1e-12, abs=1e-12)

    @given(tables(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_identity_w_delta_qhat_delta_t(self, counts, dw):
        t = t_statistic(counts)
        w = w_delta_statistic(counts, dw)
        assert w * q_hat_delta(counts, dw) == pytest.approx(t, rel=1e-12, abs=1e-12)

    @given(tables(), pi_hats)
    @settings(max_examples=200)
    # T == W in floats, while the float q_hat lands just below 1
    @example(counts=AlleleCounts(1, 27, 14, 14), pi=0.7071067811865476)
    def test_branch_property(self, counts, pi):
        t, w, qh = t_statistic(counts), w_statistic(counts, pi), q_hat(counts, pi)
        assert (abs(w) > abs(t)) == (qh < 1.0)
        assert (abs(w) < abs(t)) == (qh > 1.0)

    @given(tables(), pi_hats)
    @settings(max_examples=200)
    def test_case_control_swap_antisymmetry(self, counts, pi):
        # Relabeling case<->control also relabels the prevalence estimate.
        swapped = AlleleCounts(counts.s1, counts.s2, counts.r1, counts.r2)
        assert t_statistic(swapped) == pytest.approx(-t_statistic(counts), rel=1e-12)
        assert w_statistic(swapped, 1.0 - pi) == pytest.approx(
            -w_statistic(counts, pi), rel=1e-12
        )
        assert w_delta_statistic(swapped, 1.0 - pi) == pytest.approx(
            -w_delta_statistic(counts, pi), rel=1e-12
        )
        assert u_statistic(swapped, 1.0 - pi) == pytest.approx(
            -u_statistic(counts, pi), rel=1e-12
        )
        ratio, _, _ = effect_size(counts)
        swapped_ratio, _, _ = effect_size(swapped)
        assert swapped_ratio == pytest.approx(1.0 / ratio, rel=1e-12)

    @given(tables(), pi_hats)
    @settings(max_examples=200)
    def test_allele_relabel_negates(self, counts, pi):
        flipped = AlleleCounts(counts.r2, counts.r1, counts.s2, counts.s1)
        assert t_statistic(flipped) == pytest.approx(-t_statistic(counts), rel=1e-12)
        assert w_statistic(flipped, pi) == pytest.approx(-w_statistic(counts, pi), rel=1e-12)
        assert q_hat(flipped, pi) == pytest.approx(q_hat(counts, pi), rel=1e-12)
        assert p_value(w_statistic(flipped, pi)) == pytest.approx(
            p_value(w_statistic(counts, pi)), rel=1e-12
        )


class TestDegenerateHandling:
    def test_statistics_raise(self):
        degenerate = AlleleCounts(0, 2000, 5, 1995)
        for call in (
            lambda: t_statistic(degenerate),
            lambda: w_statistic(degenerate, 0.15),
            lambda: w_corrected(degenerate, 0.15),
            lambda: q_hat(degenerate, 0.15),
            lambda: u_statistic(degenerate, 0.15),
            lambda: effect_size(degenerate),
        ):
            with pytest.raises(DegenerateTableError):
                call()

    def test_pi_hat_validated(self):
        for bad in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                w_statistic(COUNTS, bad)

    def test_report_degenerate(self):
        report = evaluate_counts(AlleleCounts(0, 2000, 5, 1995), 0.15)
        assert report.degenerate
        assert report.flags == ("degenerate", "undefined_ratio")
        assert report.p_t == report.p_w == report.p_u == 1.0
        assert report.t_stat is None and report.effect_ratio is None

    def test_report_monomorphic(self):
        report = evaluate_counts(AlleleCounts(0, 2000, 0, 2000), 0.15)
        assert report.flags == ("monomorphic",)
        assert report.p_t is None

    def test_report_clean(self):
        report = evaluate_counts(COUNTS, PI_HAT)
        assert report.flags == ()
        assert not report.degenerate
        assert report.w_stat * report.q_hat == pytest.approx(report.t_stat, rel=1e-12)
        assert report.u_stat == report.w_stat  # q_hat < 1 here

    def test_report_equal_freqs(self):
        report = evaluate_counts(AlleleCounts(30, 170, 30, 170), 0.2)
        assert report.t_stat == 0.0 and report.w_stat == 0.0 and report.u_stat == 0.0
        assert report.p_t == 1.0 and report.p_w == 1.0 and report.p_u == 1.0
        assert report.effect_ratio == pytest.approx(1.0, rel=1e-12)


class TestContinuityCorrection:
    @given(
        tables(),
        pi_hats,
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
        st.sampled_from(CORRECTION_DIRECTIONS),
    )
    @example(AlleleCounts(999, 1001, 998, 1000), 0.3, None, "toward_zero")  # clamps at zero
    @settings(max_examples=200)
    def test_shift_value(self, counts, pi, dw, direction):
        weight = pi if dw is None else dw
        w_cor = w_corrected(counts, pi, direction=direction, delta_weight=dw)
        exact = exact_w_cor(counts.r1, counts.r2, counts.s1, counts.s2, weight, direction)
        # The kernel starts from the two rounded sample frequencies. Where the
        # shift cancels the difference, their rounding is all that is left, so
        # allow 8 ulps of the larger frequency, in W units, on top of rel 1e-12.
        r, s = (counts.r1 + counts.r2) // 2, (counts.s1 + counts.s2) // 2
        q_ctrl, q_case = counts.s1 / (2 * s), counts.r1 / (2 * r)
        mixed = (q_ctrl + weight * (q_case - q_ctrl)) * (1 - q_ctrl + weight * (q_ctrl - q_case))
        per_unit = math.sqrt(2 * r * s / (r + s) / mixed)
        rounding = 2**-50 * max(q_ctrl, q_case)
        assert w_cor == pytest.approx(exact, rel=1e-12, abs=per_unit * rounding)

    def test_toward_zero_shrinks(self):
        for counts in (COUNTS, AlleleCounts(9, 91, 13, 87)):
            w = w_statistic(counts, PI_HAT)
            w_cor = w_corrected(counts, PI_HAT)
            assert abs(w_cor) <= abs(w)
            assert math.copysign(1.0, w_cor) == math.copysign(1.0, w) or w_cor == 0.0

    def test_toward_zero_clamps_at_zero(self):
        # unequal group sizes let the frequency difference fall below the
        # shift; shrinking must stop at zero, not flip the sign
        counts = AlleleCounts(999, 1001, 998, 1000)
        r, s = (counts.r1 + counts.r2) // 2, (counts.s1 + counts.s2) // 2
        shift = Fraction(min(r, s), 4 * r * s)
        gap = abs(Fraction(counts.s1, 2 * s) - Fraction(counts.r1, 2 * r))
        assert 0 < gap < shift
        assert w_corrected(counts, 0.3) == 0.0

    @pytest.mark.parametrize(
        "table",
        [
            (126, 1442, 445, 5099),
            # s1*R overflows int64: R = 2**51 + 1, S = 2**51
            (2**50 + 1, 2**52 + 2 - (2**50 + 1), 2**50, 2**52 - 2**50),
        ],
        ids=["small", "int64-overflow"],
    )
    def test_exact_half_step_tie_gives_zero(self, table):
        # 2*|s1*R - r1*S| == min(R, S): the difference equals the shift exactly
        counts = AlleleCounts(*table)
        r, s = (counts.r1 + counts.r2) // 2, (counts.s1 + counts.s2) // 2
        assert 2 * abs(counts.s1 * r - counts.r1 * s) == min(r, s)
        assert exact_w_cor(*table, 0.15, "toward_zero") == 0.0
        assert w_corrected(counts, 0.15) == 0.0
        assert w_corrected(counts, 0.15, delta_weight=0.4) == 0.0
        assert evaluate_counts(counts, 0.15).w_cor_stat == 0.0
        # in a batch, next to its neighbours one case count either side
        r1 = np.array([counts.r1 - 1, counts.r1, counts.r1 + 1], dtype=np.int64)
        n1 = counts.r1 + counts.r2
        # at two weight rows: the prevalence estimate and a delta weight
        column = np.array([[0.15], [0.4]])
        arrays = statistic_arrays(r1, n1, counts.s1, counts.s1 + counts.s2, column)
        assert arrays.w_cor[0, 1] == 0.0 and arrays.w_cor[1, 1] == 0.0
        for i in (0, 2):
            exact = exact_w_cor(int(r1[i]), n1 - int(r1[i]), counts.s1, counts.s2, 0.15,
                                "toward_zero")
            assert arrays.w_cor[0, i] == pytest.approx(exact, rel=1e-12)

    def test_away_from_zero_grows(self):
        w = w_statistic(COUNTS, PI_HAT)
        w_away = w_corrected(COUNTS, PI_HAT, direction="away_from_zero")
        assert abs(w_away) > abs(w)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            w_corrected(COUNTS, PI_HAT, direction="sideways")

    def test_delta_weight_variant(self):
        # corrected numerator over the delta-mixed denominator
        w_cd = w_corrected(COUNTS, PI_HAT, delta_weight=0.4)
        w_d = w_delta_statistic(COUNTS, 0.4)
        assert abs(w_cd) < abs(w_d)


class TestPValue:
    def test_zero_gives_one(self):
        assert p_value(0.0) == 1.0

    def test_frozen_tail_value(self):
        # oracle: twice the exact upper normal tail at 5.998
        assert p_value(5.998) == pytest.approx(1.9976252113530328e-09, rel=1e-12)
        assert p_value(5.998) == pytest.approx(2.0 * norm.sf(5.998), rel=1e-12)

    def test_symmetry(self):
        for x in (0.5, 1.96, 7.3):
            assert p_value(-x) == p_value(x)

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 12.0, 200)
        ps = [p_value(float(x)) for x in xs]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_far_tail_no_underflow_to_zero(self):
        assert 0.0 < p_value(38.0) < 1e-300

    def test_deep_tail_matches_reference(self):
        for x in (10.0, 20.0, 30.0, 37.0):
            assert p_value(x) == pytest.approx(2.0 * norm.sf(x), rel=1e-12)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                p_value(bad)


class TestCriticalValue:
    @pytest.mark.parametrize("alpha", [0.5, 0.05, 1e-3, 1e-5, 1e-8, 1e-12])
    def test_round_trip(self, alpha):
        z = two_sided_critical_value(alpha)
        assert p_value(z) == pytest.approx(alpha, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 1e-3, 1e-8])
    def test_matches_bisection_oracle(self, alpha):
        assert two_sided_critical_value(alpha) == pytest.approx(
            bisect_two_sided_z(alpha), abs=1e-12
        )

    def test_alpha_one_gives_zero(self):
        assert two_sided_critical_value(1.0) == 0.0

    def test_validation(self):
        for bad in (0.0, -1e-3, 1.5):
            with pytest.raises(ValueError):
                two_sided_critical_value(bad)


class TestEffectSize:
    def test_equal_freqs_ratio_one(self):
        ratio, lo, hi = effect_size(AlleleCounts(50, 150, 50, 150))
        assert ratio == 1.0
        assert lo < 1.0 < hi

    def test_ci_contains_point(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r_cases = int(rng.integers(5, 500))
            s_controls = int(rng.integers(5, 500))
            r1 = int(rng.integers(1, 2 * r_cases))
            s1 = int(rng.integers(1, 2 * s_controls))
            counts = AlleleCounts(r1, 2 * r_cases - r1, s1, 2 * s_controls - s1)
            ratio, lo, hi = effect_size(counts)
            assert lo < ratio < hi

    def test_wider_at_higher_level(self):
        _, lo95, hi95 = effect_size(COUNTS, ci_level=0.95)
        _, lo99, hi99 = effect_size(COUNTS, ci_level=0.99)
        assert lo99 < lo95 and hi99 > hi95
