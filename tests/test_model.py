"""Population-model tests: oracle agreement, quoted values, invariants."""

import math

import numpy as np
import pytest

from alleletest.model import (
    DegeneratePrevalenceError,
    DesignConstants,
    FeasibilityError,
    MarkerSpec,
    PenetranceModel,
    b_term,
    causal_conditional_freqs,
    delta_bounds,
    haplotype_freqs,
    marker_conditional_freqs,
    population_summary,
    prevalence,
    q_term,
)
from oracles import brute_force_delta_bounds, enumerate_population

ADDITIVE = PenetranceModel(p1=0.10, pen11=0.60, pen12=0.35, pen22=0.10)
MARKER = MarkerSpec(q1=0.10, delta=0.3)


def random_feasible_points(n, seed=20260808, q1_max=1.0):
    """Deterministic stream of (model, marker) pairs with separated risks."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        p1 = rng.uniform(0.02, 0.98)
        q1 = rng.uniform(0.02, min(0.98, q1_max))
        pen22 = rng.uniform(0.01, 0.5)
        pen11 = pen22 + rng.uniform(0.05, 0.45)
        pen12 = rng.uniform(pen22, pen11)
        model = PenetranceModel(p1=p1, pen11=pen11, pen12=pen12, pen22=pen22)
        lo, hi = delta_bounds(p1, q1)
        delta = rng.uniform(lo * 0.999, hi * 0.999)
        points.append((model, MarkerSpec(q1=q1, delta=delta)))
    return points


class TestPenetranceModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PenetranceModel(p1=0.0, pen11=0.5, pen12=0.5, pen22=0.5)
        with pytest.raises(ValueError):
            PenetranceModel(p1=0.5, pen11=1.2, pen12=0.5, pen22=0.5)

    def test_null_flag(self):
        assert PenetranceModel(p1=0.3, pen11=0.1, pen12=0.1, pen22=0.1).is_null
        assert not ADDITIVE.is_null


class TestDeltaBounds:
    @pytest.mark.parametrize(
        "p1,q1,expected_lo",
        [
            (0.05, 0.05, -0.052631578947368425),
            (0.25, 0.05, -0.13245323570650439),
            (0.25, 0.25, -1.0 / 3.0),
        ],
    )
    def test_lower_bounds(self, p1, q1, expected_lo):
        lo, _ = delta_bounds(p1, q1)
        assert lo == pytest.approx(expected_lo, rel=1e-12)

    def test_equal_marginals_reach_one(self):
        _, hi = delta_bounds(0.25, 0.25)
        assert hi == pytest.approx(1.0, rel=1e-12)

    def test_interval_contains_zero(self):
        for p1 in (0.03, 0.2, 0.5, 0.9):
            for q1 in (0.04, 0.3, 0.77):
                lo, hi = delta_bounds(p1, q1)
                assert lo < 0.0 < hi

    @pytest.mark.parametrize("p1,q1", [(0.05, 0.05), (0.25, 0.05), (0.6, 0.3), (0.9, 0.85)])
    def test_matches_brute_force(self, p1, q1):
        lo, hi = delta_bounds(p1, q1)
        blo, bhi = brute_force_delta_bounds(p1, q1)
        assert lo == pytest.approx(blo, abs=2e-6)
        assert hi == pytest.approx(bhi, abs=2e-6)

    @pytest.mark.parametrize("p1,q1", [(0.1, 5e-324), (0.4, 5e-324), (1e-200, 1e-200)])
    def test_underflowing_products_give_bounds(self, p1, q1):
        # p1*q1 (or p2*q1) rounds to 0 here; the bounds still contain 0.
        lo, hi = delta_bounds(p1, q1)
        assert -1.0 <= lo <= 0.0 <= hi <= 1.0
        q1_case, q1_ctrl = marker_conditional_freqs(
            PenetranceModel(p1=p1, pen11=0.6, pen12=0.35, pen22=0.1), MarkerSpec(q1=q1, delta=0.0)
        )
        assert q1_case == q1_ctrl == q1

    def test_boundary_is_exact_feasibility_edge(self):
        model = PenetranceModel(p1=0.25, pen11=0.6, pen12=0.35, pen22=0.1)
        lo, hi = delta_bounds(0.25, 0.05)
        for edge in (lo, hi):
            freqs = haplotype_freqs(model, MarkerSpec(q1=0.05, delta=edge))
            assert min(freqs) <= 1e-15
            assert min(freqs) >= 0.0
        for outside in (lo * 1.001, hi * 1.001):
            with pytest.raises(FeasibilityError):
                haplotype_freqs(model, MarkerSpec(q1=0.05, delta=outside))


class TestHaplotypeFreqs:
    def test_independence(self):
        model = PenetranceModel(p1=0.5, pen11=0.6, pen12=0.35, pen22=0.1)
        assert haplotype_freqs(model, MarkerSpec(q1=0.5, delta=0.0)) == (0.25, 0.25, 0.25, 0.25)

    def test_positive_ld_splits_products(self):
        # d = 0.3*sqrt(p1*p2*q1*q2) = 0.027 moves mass onto the coupled pair
        freqs = haplotype_freqs(ADDITIVE, MARKER)
        assert freqs[0] == pytest.approx(0.037, rel=1e-12)
        assert freqs[1] == pytest.approx(0.063, rel=1e-12)
        assert freqs[2] == pytest.approx(0.063, rel=1e-12)
        assert freqs[3] == pytest.approx(0.837, rel=1e-12)

    def test_perfect_correlation(self):
        model = PenetranceModel(p1=0.5, pen11=0.6, pen12=0.35, pen22=0.1)
        freqs = haplotype_freqs(model, MarkerSpec(q1=0.5, delta=1.0))
        assert freqs == pytest.approx((0.5, 0.0, 0.0, 0.5), abs=1e-15)

    def test_sum_and_range_on_random_grid(self):
        for model, marker in random_feasible_points(300, seed=7):
            freqs = haplotype_freqs(model, marker)
            assert all(0.0 <= f <= 1.0 for f in freqs)
            assert math.fsum(freqs) == pytest.approx(1.0, abs=1e-12)

    def test_error_names_violated_bound(self):
        model = PenetranceModel(p1=0.25, pen11=0.6, pen12=0.35, pen22=0.1)
        with pytest.raises(FeasibilityError, match="lower"):
            haplotype_freqs(model, MarkerSpec(q1=0.05, delta=-0.5))
        with pytest.raises(FeasibilityError, match="upper"):
            haplotype_freqs(model, MarkerSpec(q1=0.05, delta=0.9))


class TestPrevalence:
    def test_additive_model(self):
        assert prevalence(ADDITIVE) == pytest.approx(0.15, abs=1e-15)

    def test_no_genetic_effect(self):
        model = PenetranceModel(p1=0.37, pen11=0.21, pen12=0.21, pen22=0.21)
        assert prevalence(model) == pytest.approx(0.21, rel=1e-12)

    def test_monomorphic_limit(self):
        model = PenetranceModel(p1=1e-12, pen11=0.6, pen12=0.35, pen22=0.1)
        assert prevalence(model) == pytest.approx(0.1, rel=1e-9)

    def test_matches_enumeration(self):
        for model, marker in random_feasible_points(50, seed=3):
            ref = enumerate_population(
                model.p1, marker.q1, marker.delta, (model.pen11, model.pen12, model.pen22)
            )
            assert prevalence(model) == pytest.approx(ref["prevalence"], rel=1e-12)


class TestConditionalFreqs:
    def test_causal_frozen_values(self):
        p1_case, p1_ctrl = causal_conditional_freqs(ADDITIVE)
        assert p1_case == pytest.approx(0.25, rel=1e-12)
        assert p1_ctrl == pytest.approx(0.07352941176470588, rel=1e-12)

    def test_null_model_keeps_base_freq(self):
        model = PenetranceModel(p1=0.23, pen11=0.4, pen12=0.4, pen22=0.4)
        p1_case, p1_ctrl = causal_conditional_freqs(model)
        assert p1_case == pytest.approx(0.23, rel=1e-12)
        assert p1_ctrl == pytest.approx(0.23, rel=1e-12)

    def test_fully_penetrant_recessive(self):
        model = PenetranceModel(p1=0.3, pen11=1.0, pen12=0.0, pen22=0.0)
        p1_case, _ = causal_conditional_freqs(model)
        assert p1_case == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_prevalence_rejected(self):
        with pytest.raises(DegeneratePrevalenceError):
            causal_conditional_freqs(PenetranceModel(p1=0.3, pen11=0.0, pen12=0.0, pen22=0.0))
        with pytest.raises(DegeneratePrevalenceError):
            causal_conditional_freqs(PenetranceModel(p1=0.3, pen11=1.0, pen12=1.0, pen22=1.0))

    def test_marker_frozen_values(self):
        q1_case, q1_ctrl = marker_conditional_freqs(ADDITIVE, MARKER)
        assert q1_case == pytest.approx(0.145, rel=1e-12)
        assert q1_ctrl == pytest.approx(0.09205882352941179, rel=1e-12)

    def test_marker_no_ld(self):
        q1_case, q1_ctrl = marker_conditional_freqs(ADDITIVE, MarkerSpec(q1=0.1, delta=0.0))
        assert q1_case == 0.1
        assert q1_ctrl == 0.1

    def test_marker_coincides_with_causal(self):
        # q1 == p1 at the maximal correlation: the marker IS the causal variant
        marker = MarkerSpec(q1=ADDITIVE.p1, delta=1.0)
        q1_case, q1_ctrl = marker_conditional_freqs(ADDITIVE, marker)
        p1_case, p1_ctrl = causal_conditional_freqs(ADDITIVE)
        assert q1_case == pytest.approx(p1_case, rel=1e-12)
        assert q1_ctrl == pytest.approx(p1_ctrl, rel=1e-12)

    def test_matches_enumeration(self):
        for model, marker in random_feasible_points(100, seed=5):
            ref = enumerate_population(
                model.p1, marker.q1, marker.delta, (model.pen11, model.pen12, model.pen22)
            )
            p1_case, p1_ctrl = causal_conditional_freqs(model)
            q1_case, q1_ctrl = marker_conditional_freqs(model, marker)
            assert p1_case == pytest.approx(ref["p1_case"], rel=1e-11)
            assert p1_ctrl == pytest.approx(ref["p1_ctrl"], rel=1e-11)
            assert q1_case == pytest.approx(ref["q1_case"], rel=1e-11)
            assert q1_ctrl == pytest.approx(ref["q1_ctrl"], rel=1e-11)


class TestBTerm:
    def test_frozen_value(self):
        assert b_term(ADDITIVE) == pytest.approx(-0.588235294117647, rel=1e-12)

    def test_null_model(self):
        assert b_term(PenetranceModel(p1=0.4, pen11=0.2, pen12=0.2, pen22=0.2)) == 0.0

    def test_allele_label_swap_negates(self):
        swapped = PenetranceModel(p1=0.90, pen11=0.10, pen12=0.35, pen22=0.60)
        assert b_term(swapped) == pytest.approx(-b_term(ADDITIVE), rel=1e-12)


class TestQTerm:
    def test_one_under_no_ld(self):
        summary = population_summary(ADDITIVE, MarkerSpec(q1=0.1, delta=0.0))
        for lam in (0.2, 0.5, 0.8):
            assert q_term(summary, lam) == pytest.approx(1.0, abs=1e-12)
            for dw in (0.0, 0.15, 1.0):
                assert q_term(summary, lam, dw) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value(self):
        summary = population_summary(ADDITIVE, MARKER)
        assert q_term(summary, 0.5) == pytest.approx(0.9312482536908864, rel=1e-12)

    def test_case_fraction_must_lie_inside_unit_interval(self):
        summary = population_summary(ADDITIVE, MARKER)
        with pytest.raises(ValueError, match="lam must lie in \\(0, 1\\), got 1.0"):
            q_term(summary, 1.0)

    def test_delta_weight_at_prevalence_matches_plain(self):
        summary = population_summary(ADDITIVE, MARKER)
        assert q_term(summary, 0.5, summary.prevalence) == pytest.approx(
            q_term(summary, 0.5), rel=1e-12
        )

    def test_positively_correlated_low_maf_gives_q_below_one(self):
        # Scanned grid: equal-ish sampling fractions, risk models with a
        # clear effect, marker positively tied to the risk allele, q1 <= 0.2.
        # Oversampling cases well past the control fraction (lam ~ 0.6+ with
        # common risk alleles) is a known counterexample region and is
        # deliberately outside this grid.
        pens_grid = [(0.60, 0.35, 0.10), (0.60, 0.60, 0.10), (0.60, 0.10, 0.10), (0.30, 0.20, 0.10)]
        violations = []
        for lam in (0.4, 0.5):
            for pens in pens_grid:
                for p1 in (0.02, 0.05, 0.10, 0.20, 0.40):
                    for q1 in (0.02, 0.05, 0.10, 0.15, 0.20):
                        model = PenetranceModel(p1, *pens)
                        _, hi = delta_bounds(p1, q1)
                        for frac in (0.25, 0.5, 0.9):
                            marker = MarkerSpec(q1=q1, delta=frac * hi)
                            summary = population_summary(model, marker)
                            if summary.q1_case <= summary.q1_ctrl:
                                continue
                            q = q_term(summary, lam)
                            if q >= 1.0:
                                violations.append((lam, pens, p1, q1, marker.delta, q))
        assert not violations, f"variance ratio >= 1 at {violations[:5]}"


class TestIdentities:
    def test_ld_transfer_identity_random_grid(self):
        # relative difference at the marker == delta * relative difference
        # at the causal variant, across 10^4 random feasible points
        for model, marker in random_feasible_points(10_000):
            summary = population_summary(model, marker)
            lhs = (summary.q1_ctrl - summary.q1_case) / math.sqrt(
                marker.q1 * (1.0 - marker.q1)
            )
            rhs = marker.delta * summary.b
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)

    def test_mixture_identity_random_grid(self):
        for model, marker in random_feasible_points(10_000, seed=11):
            summary = population_summary(model, marker)
            mixed = (
                summary.prevalence * summary.q1_case
                + (1.0 - summary.prevalence) * summary.q1_ctrl
            )
            assert mixed == pytest.approx(marker.q1, abs=1e-12)

    def test_marker_label_swap(self):
        # M1 <-> M2 relabeling: q1 -> 1-q1, delta -> -delta
        for model, marker in random_feasible_points(200, seed=13):
            swapped = MarkerSpec(q1=1.0 - marker.q1, delta=-marker.delta)
            orig = population_summary(model, marker)
            mirror = population_summary(model, swapped)
            assert mirror.q1_case == pytest.approx(1.0 - orig.q1_case, abs=1e-12)
            assert mirror.q1_ctrl == pytest.approx(1.0 - orig.q1_ctrl, abs=1e-12)
            for lam in (0.35, 0.5):
                assert q_term(mirror, lam) == pytest.approx(q_term(orig, lam), rel=1e-11)

    def test_summary_haplotypes_consistent(self):
        summary = population_summary(ADDITIVE, MARKER)
        assert math.fsum(summary.haplotypes) == pytest.approx(1.0, abs=1e-12)
        assert summary.q1 == pytest.approx(MARKER.q1, abs=1e-15)
        assert summary.p1 == pytest.approx(ADDITIVE.p1, abs=1e-15)


class TestDesignConstants:
    def test_m_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            r = int(rng.integers(1, 5000))
            s = int(rng.integers(1, 5000))
            design = DesignConstants(r, s)
            n = r + s
            lam = design.lam
            assert design.m == pytest.approx(2.0 * n * lam * (1.0 - lam), rel=1e-15)
            assert design.m == pytest.approx(2.0 * r * s / n, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignConstants(0, 10)
        with pytest.raises(ValueError):
            DesignConstants(10, -1)

    @pytest.mark.parametrize("r, s, name", [(True, 50, "r_cases"), (50, True, "s_controls")])
    def test_bool_sizes_rejected(self, r, s, name):
        # True == 1, but a design of one case would be recorded as "r_cases": true.
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got True$"):
            DesignConstants(r, s)
