"""Closed-form asymptotic power for the allele-based tests.

All four test statistics are asymptotically normal; their two-sided power at
level ``alpha`` is a difference of normal tails driven by the noncentrality
``sqrt(m)*B*delta`` and the marker's variance ratio Q:

* T:  ``1 - Phi(z - sqrt(m)*B*delta*Q) + Phi(-z - sqrt(m)*B*delta*Q)``
* W:  the same with the quantile also scaled by Q, so power depends on the
  marker frequency only through Q and is roughly flat across markers.

``power_grid`` sweeps one coordinate (marker frequency, LD correlation, or
mixing weight) and emits plot-ready points, flagging coordinates where the
LD correlation leaves its feasible range instead of dropping them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from scipy.special import ndtr

from .model import (
    DesignConstants,
    FeasibilityError,
    MarkerSpec,
    PenetranceModel,
    PopulationSummary,
    frequency_mixture,
    population_summary,
    prevalence,
    q_term,
    variance_mixture,
)
from .stats import two_sided_critical_value

__all__ = [
    "PowerPoint",
    "noncentrality",
    "w_noncentrality",
    "power_t",
    "power_w",
    "power_w_delta",
    "power_u",
    "power_grid",
    "GRID_AXES",
]

GRID_AXES = ("q1", "delta", "delta_weight")


def noncentrality(m: float, b: float, delta: float) -> float:
    """Shared noncentrality ``sqrt(m)*B*delta`` of the normal approximations."""
    return math.sqrt(m) * b * delta


def w_noncentrality(summary: PopulationSummary, design: DesignConstants) -> float:
    """Asymptotic mean of W, computed from marker-level quantities.

    ``sqrt(m) * (q1_ctrl - q1_case) / sqrt(q1*q2)``: by the LD transfer
    identity this equals ``sqrt(m)*B*delta`` and is therefore the same for
    every marker tied to one causal variant, independent of the marker's own
    allele frequency.
    """
    q1 = summary.q1
    return (
        math.sqrt(design.m)
        * (summary.q1_ctrl - summary.q1_case)
        / math.sqrt(q1 * (1.0 - q1))
    )


def _check_power_args(m: float, q_ratio: float, alpha: float) -> None:
    if m <= 0.0:
        raise ValueError(f"m must be positive, got {m!r}")
    if q_ratio <= 0.0:
        raise ValueError(f"q_ratio must be positive, got {q_ratio!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def power_t(m: float, b: float, delta: float, q_ratio: float, alpha: float) -> float:
    """Two-sided asymptotic power of the classic statistic T."""
    _check_power_args(m, q_ratio, alpha)
    z = two_sided_critical_value(alpha)
    mu = noncentrality(m, b, delta) * q_ratio
    return float(ndtr(mu - z) + ndtr(-z - mu))


def power_w(m: float, b: float, delta: float, q_ratio: float, alpha: float) -> float:
    """Two-sided asymptotic power of the prevalence-standardized statistic W.

    Identical to :func:`power_t` except that the rejection quantile is also
    scaled by Q, which is what frees the power from the marker frequency.
    """
    _check_power_args(m, q_ratio, alpha)
    z = two_sided_critical_value(alpha)
    mu = noncentrality(m, b, delta)
    return float(ndtr(q_ratio * (mu - z)) + ndtr(-q_ratio * (z + mu)))


def power_w_delta(
    model: PenetranceModel,
    marker: MarkerSpec,
    design: DesignConstants,
    delta_weight: float,
    alpha: float,
) -> float:
    """Two-sided asymptotic power of W_delta with mixing weight ``delta_weight``.

    Normal approximation with mean ``sqrt(m)*(q1_ctrl-q1_case)/sqrt(x)`` and
    variance ``g/x``, where ``x`` is the product of the delta-mixed
    frequencies and ``g`` the sampling-weighted variance mixture. At
    ``delta_weight == prevalence`` this reduces to :func:`power_w`. For a
    marker whose minor allele M1 is positively associated with the disease
    the power is largest at weight 0 and smallest at weight 1.
    """
    if not 0.0 <= delta_weight <= 1.0:
        raise ValueError(f"delta_weight must lie in [0, 1], got {delta_weight!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    summary = population_summary(model, marker)
    q1_case, q1_ctrl = summary.q1_case, summary.q1_ctrl
    g = variance_mixture(q1_ctrl, q1_case, design.lam)
    x = frequency_mixture(q1_ctrl, q1_case, delta_weight)
    mu = math.sqrt(design.m) * (q1_ctrl - q1_case) / math.sqrt(x)
    sigma = math.sqrt(g / x)
    z = two_sided_critical_value(alpha)
    return float(ndtr((mu - z) / sigma) + ndtr((-z - mu) / sigma))


def power_u(m: float, b: float, delta: float, q_ratio: float, alpha: float) -> float:
    """Two-sided asymptotic power of the combined statistic U.

    Equals the W power where Q < 1, the T power where Q > 1, and their
    common value at Q == 1.
    """
    if q_ratio < 1.0:
        return power_w(m, b, delta, q_ratio, alpha)
    return power_t(m, b, delta, q_ratio, alpha)


@dataclass(frozen=True)
class PowerPoint:
    """One evaluated grid coordinate.

    ``pi_hat`` and ``delta_weight`` record the values actually used (the true
    prevalence when not overridden). Infeasible coordinates carry no power
    values and ``feasible=False``.
    """

    q1: float
    delta: float
    delta_weight: float | None
    pi_hat: float | None
    alpha: float
    power_t: float | None
    power_w: float | None
    power_w_delta: float | None
    power_u: float | None
    feasible: bool


def power_grid(
    model: PenetranceModel,
    design: DesignConstants,
    *,
    axis: str,
    values: Iterable[float],
    alpha: float,
    q1: float | None = None,
    delta: float | None = None,
    delta_weight: float | None = None,
    pi_hat_values: Sequence[float | None] | None = None,
) -> list[PowerPoint]:
    """Evaluate all four power functions along one axis.

    ``axis`` picks which coordinate the ``values`` sweep; the other two are
    fixed by the keyword arguments (``q1`` and ``delta`` are required when
    not swept; ``delta_weight`` defaults to the true prevalence). By default
    the true prevalence enters the W power; passing explicit
    ``pi_hat_values`` evaluates the W power under those (mis)specified
    estimates instead, one point per (value, pi_hat) pair, which is how the
    robustness of W to a wrong prevalence figure is studied.

    Coordinates where the LD correlation is infeasible for the marker
    frequency are emitted with ``feasible=False`` rather than dropped, so a
    sweep always yields one point per requested coordinate.
    """
    if axis not in GRID_AXES:
        raise ValueError(f"axis must be one of {GRID_AXES}, got {axis!r}")
    values = [float(v) for v in values]
    if not values:
        raise ValueError("empty grid")
    pi_hats: Sequence[float | None] = (
        tuple(pi_hat_values) if pi_hat_values else (None,)
    )
    if axis != "q1" and q1 is None:
        raise ValueError("q1 must be fixed when it is not the sweep axis")
    if axis != "delta" and delta is None:
        raise ValueError("delta must be fixed when it is not the sweep axis")

    pi = prevalence(model)
    points: list[PowerPoint] = []
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
                    # A misspecified prevalence estimate turns W into the
                    # mixed-weight statistic with that weight.
                    p_w = power_w_delta(model, marker, design, eff_pi, alpha)
                p_wd = power_w_delta(model, marker, design, eff_dw, alpha)
                p_u = power_u(m, summary.b, coord_delta, q_ratio, alpha)
            points.append(
                PowerPoint(
                    q1=coord_q1,
                    delta=coord_delta,
                    delta_weight=eff_dw,
                    pi_hat=eff_pi,
                    alpha=alpha,
                    power_t=p_t,
                    power_w=p_w,
                    power_w_delta=p_wd,
                    power_u=p_u,
                    feasible=feasible,
                )
            )
    return points
