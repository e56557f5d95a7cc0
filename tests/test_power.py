"""Power-function tests: size, frozen anchors, orderings, grid behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alleletest.model import (
    DesignConstants,
    FeasibilityError,
    MarkerSpec,
    PenetranceModel,
    b_term,
    delta_bounds,
    marker_conditional_freqs,
    population_summary,
    prevalence,
    q_term,
)
from alleletest.power import (
    GRID_AXES,
    PowerPoint,
    noncentrality,
    power_grid,
    power_t,
    power_u,
    power_w,
    power_w_delta,
    w_noncentrality,
)
from oracles import bisect_two_sided_z, normal_cdf

ADDITIVE_05 = PenetranceModel(p1=0.05, pen11=0.60, pen12=0.35, pen22=0.10)
ADDITIVE_10 = PenetranceModel(p1=0.10, pen11=0.60, pen12=0.35, pen22=0.10)
DESIGN_1000 = DesignConstants(1000, 1000)


def oracle_power_t(m, b, delta, q_ratio, alpha):
    """Stdlib-only evaluation: bisected quantile + erfc normal CDF."""
    z = bisect_two_sided_z(alpha)
    mu = math.sqrt(m) * b * delta * q_ratio
    return 1.0 - normal_cdf(z - mu) + normal_cdf(-z - mu)


def oracle_power_w(m, b, delta, q_ratio, alpha):
    z = bisect_two_sided_z(alpha)
    mu = math.sqrt(m) * b * delta
    return 1.0 - normal_cdf(q_ratio * (z - mu)) + normal_cdf(-q_ratio * (z + mu))


class TestSize:
    def test_alpha_recovered_at_no_ld(self):
        designs = [DesignConstants(r, s) for r, s in ((500, 500), (1000, 1000), (200, 800))]
        alphas = (0.05, 1e-3, 1e-5, 1e-8)
        models = [ADDITIVE_05, ADDITIVE_10]
        for model in models:
            marker = MarkerSpec(q1=0.17, delta=0.0)
            summary = population_summary(model, marker)
            for design in designs:
                q_ratio = q_term(summary, design.lam)
                for alpha in alphas:
                    b = summary.b
                    assert power_t(design.m, b, 0.0, q_ratio, alpha) == pytest.approx(alpha, abs=1e-12)
                    assert power_w(design.m, b, 0.0, q_ratio, alpha) == pytest.approx(alpha, abs=1e-12)
                    assert power_u(design.m, b, 0.0, q_ratio, alpha) == pytest.approx(alpha, abs=1e-12)
                    for dw in (0.0, 0.4, 1.0):
                        assert power_w_delta(model, marker, design, dw, alpha) == pytest.approx(
                            alpha, abs=1e-12
                        )


class TestFrozenAnchors:
    """Anchor values frozen from the first verified run; inputs rebuilt
    from scratch and the tail arithmetic cross-checked against a
    stdlib-only oracle."""

    def setup_method(self):
        self.marker = MarkerSpec(q1=0.15, delta=0.3)  # q1 = 3*p1
        self.summary = population_summary(ADDITIVE_05, self.marker)
        self.q_ratio = q_term(self.summary, 0.5)

    def test_power_t_anchor(self):
        value = power_t(DESIGN_1000.m, self.summary.b, 0.3, self.q_ratio, 1e-8)
        assert value == pytest.approx(0.10990379708771347, rel=1e-12)
        assert value == pytest.approx(
            oracle_power_t(1000.0, self.summary.b, 0.3, self.q_ratio, 1e-8), rel=1e-9
        )

    def test_power_w_anchor(self):
        value = power_w(DESIGN_1000.m, self.summary.b, 0.3, self.q_ratio, 1e-8)
        assert value == pytest.approx(0.16915415849254223, rel=1e-12)
        assert value == pytest.approx(
            oracle_power_w(1000.0, self.summary.b, 0.3, self.q_ratio, 1e-8), rel=1e-9
        )

    def test_limits(self):
        assert power_t(1e6, -1.0, 0.9, 1.0, 1e-8) == pytest.approx(1.0, abs=1e-12)
        assert power_w(1e6, -1.0, 0.9, 1.0, 1e-8) == pytest.approx(1.0, abs=1e-12)


class TestOrderings:
    def test_w_equals_t_at_unit_ratio(self):
        for mu_scale in (0.0, 0.5, 2.0, -3.0):
            assert power_w(1000.0, mu_scale * 0.1, 0.3, 1.0, 1e-4) == pytest.approx(
                power_t(1000.0, mu_scale * 0.1, 0.3, 1.0, 1e-4), rel=1e-14
            )

    def test_w_beats_t_below_unit_ratio(self):
        # positively associated low-frequency marker: Q < 1
        for q1 in (0.05, 0.10, 0.15):
            summary = population_summary(ADDITIVE_05, MarkerSpec(q1=q1, delta=0.3))
            q_ratio = q_term(summary, 0.5)
            assert q_ratio < 1.0
            pw = power_w(DESIGN_1000.m, summary.b, 0.3, q_ratio, 1e-8)
            pt = power_t(DESIGN_1000.m, summary.b, 0.3, q_ratio, 1e-8)
            assert pw > pt

    def test_t_beats_w_above_unit_ratio(self):
        model = PenetranceModel(p1=0.60, pen11=0.60, pen12=0.35, pen22=0.10)
        summary = population_summary(model, MarkerSpec(q1=0.2, delta=-0.40))
        q_ratio = q_term(summary, 0.5)
        assert q_ratio > 1.0
        pt = power_t(DESIGN_1000.m, summary.b, -0.40, q_ratio, 1e-8)
        pw = power_w(DESIGN_1000.m, summary.b, -0.40, q_ratio, 1e-8)
        assert pt > pw

    def test_monotone_in_ld_strength(self):
        lo, hi = delta_bounds(ADDITIVE_10.p1, 0.12)
        for sign in (1.0, -1.0):
            reach = 0.95 * (hi if sign > 0 else -lo)
            last = {"t": -1.0, "w": -1.0}
            for delta_mag in np.linspace(0.0, reach, 11):
                delta = sign * float(delta_mag)
                marker = MarkerSpec(q1=0.12, delta=delta)
                summary = population_summary(ADDITIVE_10, marker)
                q_ratio = q_term(summary, 0.5)
                pt = power_t(DESIGN_1000.m, summary.b, delta, q_ratio, 1e-4)
                pw = power_w(DESIGN_1000.m, summary.b, delta, q_ratio, 1e-4)
                assert pt >= last["t"] - 1e-12
                assert pw >= last["w"] - 1e-12
                last = {"t": pt, "w": pw}


class TestWDelta:
    def test_reduces_to_w_at_prevalence(self):
        marker = MarkerSpec(q1=0.10, delta=0.3)
        summary = population_summary(ADDITIVE_10, marker)
        pi = summary.prevalence
        q_ratio = q_term(summary, 0.5)
        for alpha in (0.05, 1e-3, 1e-8):
            assert power_w_delta(ADDITIVE_10, marker, DESIGN_1000, pi, alpha) == pytest.approx(
                power_w(DESIGN_1000.m, summary.b, 0.3, q_ratio, alpha), rel=1e-12
            )

    def test_monotone_nonincreasing_weight_for_risk_marker(self):
        # minor allele positively associated: q1_ctrl < q1_case < 0.5
        marker = MarkerSpec(q1=0.10, delta=0.3)
        q1_case, q1_ctrl = marker_conditional_freqs(ADDITIVE_05, marker)
        assert q1_ctrl < q1_case < 0.5
        values = [
            power_w_delta(ADDITIVE_05, marker, DESIGN_1000, dw, 1e-8)
            for dw in np.linspace(0.0, 1.0, 11)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]


class TestUndefinedWDelta:
    """q1_ctrl clamps to 1 at this marker, so a weight of 0 on cases leaves
    the mixed frequency product of W_delta at 0."""

    MODEL = PenetranceModel(p1=0.5, pen11=1.0, pen12=1.0, pen22=0.9669323285435206)
    MARKER = MarkerSpec(q1=0.5, delta=-1.0)
    DESIGN = DesignConstants(1064, 3915)

    def test_scalar_power_rejects_the_weight(self):
        assert marker_conditional_freqs(self.MODEL, self.MARKER)[1] == 1.0
        with pytest.raises(ValueError, match="delta_weight 0.0 .* undefined"):
            power_w_delta(self.MODEL, self.MARKER, self.DESIGN, 0.0, 0.5)
        assert 0.0 <= power_w_delta(self.MODEL, self.MARKER, self.DESIGN, 0.1, 0.5) <= 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"axis": "delta_weight", "values": [0.5, 0.0], "q1": 0.5, "delta": -1.0}, "delta_weight"),
            ({"axis": "q1", "values": [0.5], "delta": -1.0, "delta_weight": 0.0}, "delta_weight"),
            ({"axis": "q1", "values": [0.5], "delta": -1.0, "pi_hat_values": [0.5, 0.0]}, "pi_hat"),
        ],
        ids=["weight-axis", "fixed-weight", "pi-hat"],
    )
    def test_grid_rejects_the_weight(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} 0.0 .* undefined"):
            power_grid(self.MODEL, self.DESIGN, alpha=0.5, **kwargs)


class TestBranchSelection:
    def test_u_matches_selected_branch_exactly(self):
        cases = [
            (ADDITIVE_05, MarkerSpec(q1=0.10, delta=0.3)),
            (PenetranceModel(p1=0.60, pen11=0.60, pen12=0.35, pen22=0.10),
             MarkerSpec(q1=0.2, delta=-0.40)),
        ]
        for model, marker in cases:
            summary = population_summary(model, marker)
            q_ratio = q_term(summary, 0.5)
            pu = power_u(DESIGN_1000.m, summary.b, marker.delta, q_ratio, 1e-8)
            branch = power_w if q_ratio < 1.0 else power_t
            expected = branch(DESIGN_1000.m, summary.b, marker.delta, q_ratio, 1e-8)
            assert pu == pytest.approx(expected, abs=1e-15)
            pt = power_t(DESIGN_1000.m, summary.b, marker.delta, q_ratio, 1e-8)
            pw = power_w(DESIGN_1000.m, summary.b, marker.delta, q_ratio, 1e-8)
            assert pu >= min(pt, pw)


class TestNoncentrality:
    def test_marker_route_matches_causal_route(self):
        # the W mean computed from marker conditional frequencies equals
        # sqrt(m)*B*delta, independent of the marker frequency
        b = b_term(ADDITIVE_05)
        reference = noncentrality(DESIGN_1000.m, b, 0.3)
        for q1 in np.linspace(0.01, 0.36, 36):
            summary = population_summary(ADDITIVE_05, MarkerSpec(q1=float(q1), delta=0.3))
            assert w_noncentrality(summary, DESIGN_1000) == pytest.approx(
                reference, rel=1e-10
            )


class TestPowerGrid:
    def test_single_point(self):
        points = power_grid(
            ADDITIVE_10, DESIGN_1000, axis="q1", values=[0.1], alpha=1e-8, delta=0.3
        )
        assert len(points) == 1
        assert points[0].feasible
        assert points[0].pi_hat == pytest.approx(prevalence(ADDITIVE_10), rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            power_grid(ADDITIVE_10, DESIGN_1000, axis="q1", values=[], alpha=1e-8, delta=0.3)

    def test_infeasible_points_flagged_not_dropped(self):
        lo, hi = delta_bounds(0.05, 0.5)
        assert hi < 0.3  # q1=0.5 cannot support delta=0.3 at p1=0.05
        points = power_grid(
            ADDITIVE_05, DESIGN_1000, axis="q1", values=[0.1, 0.5], alpha=1e-8, delta=0.3
        )
        assert [p.feasible for p in points] == [True, False]
        assert points[1].power_t is None

    def test_t_power_rises_with_marker_frequency(self):
        values = list(np.linspace(0.02, 0.36, 18))
        points = power_grid(
            ADDITIVE_05, DESIGN_1000, axis="q1", values=values, alpha=1e-8, delta=0.3
        )
        pt = [p.power_t for p in points]
        assert all(a < b for a, b in zip(pt, pt[1:]))

    def test_prevalence_misspecification_variants(self):
        # one curve per prevalence estimate; wrong estimates bend the W curve
        points = power_grid(
            ADDITIVE_05,
            DESIGN_1000,
            axis="q1",
            values=[0.05, 0.15, 0.25],
            alpha=1e-8,
            delta=0.3,
            pi_hat_values=[0.075, None, 0.20],
        )
        assert len(points) == 9
        true_pi = prevalence(ADDITIVE_05)
        assert {round(p.pi_hat, 6) for p in points} == {0.075, round(true_pi, 6), 0.20}
        # at the true prevalence the two W routes agree
        for p in points:
            if p.pi_hat == true_pi and p.delta_weight == true_pi:
                assert p.power_w == pytest.approx(p.power_w_delta, rel=1e-12)

    def test_delta_weight_axis(self):
        points = power_grid(
            ADDITIVE_05,
            DESIGN_1000,
            axis="delta_weight",
            values=list(np.linspace(0.0, 1.0, 11)),
            alpha=1e-8,
            q1=0.10,
            delta=0.3,
        )
        powers = [p.power_w_delta for p in points]
        assert all(a >= b - 1e-15 for a, b in zip(powers, powers[1:]))

    def test_missing_fixed_coordinate_rejected(self):
        with pytest.raises(ValueError, match="delta must be fixed"):
            power_grid(ADDITIVE_10, DESIGN_1000, axis="q1", values=[0.1], alpha=1e-8)

    def test_powers_within_unit_interval(self):
        points = power_grid(
            ADDITIVE_10,
            DESIGN_1000,
            axis="delta",
            values=list(np.linspace(-0.25, 0.9, 24)),
            alpha=1e-3,
            q1=0.10,
        )
        for p in points:
            if p.feasible:
                for value in (p.power_t, p.power_w, p.power_w_delta, p.power_u):
                    assert 0.0 <= value <= 1.0

    def test_grid_point_at_no_ld_returns_level(self):
        (point,) = power_grid(
            ADDITIVE_10, DESIGN_1000, axis="delta", values=[0.0], alpha=1e-6, q1=0.10
        )
        for value in (point.power_t, point.power_w, point.power_w_delta, point.power_u):
            assert value == pytest.approx(1e-6, abs=1e-12)


def reference_grid(model, design, *, axis, values, alpha, q1=None, delta=None,
                   delta_weight=None, pi_hat_values=None):
    """``power_grid`` as it was written point by point, before the sweep was
    vectorized: one ``population_summary`` and the scalar power functions per
    (coordinate, pi_hat) pair."""
    pi_hats = tuple(pi_hat_values) if pi_hat_values else (None,)
    pi = prevalence(model)
    points = []
    for value in values:
        coord_q1 = value if axis == "q1" else q1
        coord_delta = value if axis == "delta" else delta
        coord_dw = value if axis == "delta_weight" else delta_weight
        eff_dw = pi if coord_dw is None else coord_dw
        for pi_hat in pi_hats:
            eff_pi = pi if pi_hat is None else pi_hat
            try:
                marker = MarkerSpec(q1=coord_q1, delta=coord_delta)
                summary = population_summary(model, marker)
            except FeasibilityError:
                feasible = False
                p_t = p_w = p_wd = p_u = None
            else:
                feasible = True
                q_ratio = q_term(summary, design.lam)
                m = design.m
                p_t = power_t(m, summary.b, coord_delta, q_ratio, alpha)
                if pi_hat is None:
                    p_w = power_w(m, summary.b, coord_delta, q_ratio, alpha)
                else:
                    p_w = power_w_delta(model, marker, design, eff_pi, alpha)
                p_wd = power_w_delta(model, marker, design, eff_dw, alpha)
                p_u = power_u(m, summary.b, coord_delta, q_ratio, alpha)
            points.append(PowerPoint(
                q1=coord_q1, delta=coord_delta, delta_weight=eff_dw, pi_hat=eff_pi,
                alpha=alpha, power_t=p_t, power_w=p_w, power_w_delta=p_wd, power_u=p_u,
                feasible=feasible,
            ))
    return points


unit = st.floats(min_value=0.0, max_value=1.0)
inner = st.floats(min_value=0.001, max_value=0.999)


@st.composite
def sweeps(draw):
    """A random model and design with a sweep over one axis. The LD
    correlation (fixed or swept) includes values exactly on the bounds of
    ``delta_bounds`` and 1e-12 either side of them."""
    p1 = draw(st.floats(min_value=0.01, max_value=0.99))
    model = PenetranceModel(p1, draw(inner), draw(inner), draw(inner))
    design = DesignConstants(draw(st.integers(1, 5000)), draw(st.integers(1, 5000)))
    axis = draw(st.sampled_from(GRID_AXES))
    q1 = draw(inner)
    lo, hi = delta_bounds(p1, q1)
    edges = [d for b in (lo, hi) for d in (b - 1e-12, b, b + 1e-12) if -1.0 <= d <= 1.0]
    deltas = st.one_of(st.sampled_from(edges), st.floats(min_value=-1.0, max_value=1.0))
    coordinate = {"q1": inner, "delta": deltas, "delta_weight": unit}[axis]
    values = draw(st.lists(coordinate, min_size=1, max_size=12))
    if axis == "q1":
        values.append(q1)  # the fixed delta may sit on a bound at this q1
    kwargs = {
        "axis": axis,
        "values": values,
        "alpha": draw(st.sampled_from([0.05, 1e-3, 1e-8]) | st.floats(1e-12, 0.5)),
        "q1": None if axis == "q1" else q1,
        "delta": None if axis == "delta" else draw(deltas),
        "delta_weight": None if axis == "delta_weight" else draw(st.none() | unit),
        "pi_hat_values": draw(st.none() | st.lists(st.none() | unit, min_size=1, max_size=3)),
    }
    return model, design, kwargs


class TestPowerGridMatchesPointwise:
    @given(sweeps())
    @settings(max_examples=200, deadline=None)
    def test_sweep_equals_reference_loop_bitwise(self, case):
        model, design, kwargs = case
        try:
            expected = reference_grid(model, design, **kwargs)
        except ValueError as exc:  # a weight at which W_delta is undefined
            assert "undefined" in str(exc)
            with pytest.raises(ValueError, match="undefined"):
                power_grid(model, design, **kwargs)
            return
        assert power_grid(model, design, **kwargs) == expected

    def test_bounds_are_feasible_within_tolerance(self):
        lo, hi = delta_bounds(0.25, 0.1)
        values = [lo - 2e-12, lo - 1e-12, lo, hi, hi + 1e-12, hi + 2e-12]
        kwargs = {"axis": "delta", "values": values, "alpha": 1e-8, "q1": 0.1,
                  "pi_hat_values": [0.05, None]}
        model = PenetranceModel(p1=0.25, pen11=0.4, pen12=0.25, pen22=0.1)
        points = power_grid(model, DesignConstants(2000, 1500), **kwargs)
        assert points == reference_grid(model, DesignConstants(2000, 1500), **kwargs)
        assert [p.feasible for p in points[::2]] == [False, True, True, True, True, False]
