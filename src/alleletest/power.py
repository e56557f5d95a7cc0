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

import numpy as np
from scipy.special import ndtr

from .model import (
    DesignConstants,
    MarkerSpec,
    PenetranceModel,
    PopulationSummary,
    b_term,
    check_prevalence,
    check_weight,
    frequency_mixture,
    marker_terms,
    population_summary,
    shifted_marker_freqs,
    variance_mixture,
    variance_ratio,
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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _check_power_args(m: float, q_ratio, alpha: float) -> None:
    """``q_ratio`` may be an array; its first non-positive entry is reported."""
    if m <= 0.0:
        raise ValueError(f"m must be positive, got {m!r}")
    q_ratio = np.ravel(q_ratio)
    bad = q_ratio[q_ratio <= 0.0]
    if bad.size:
        raise ValueError(f"q_ratio must be positive, got {bad[0].item()!r}")
    _check_alpha(alpha)


# The power formulas, written once for floats and arrays alike: ``mu`` is the
# noncentrality sqrt(m)*B*delta and ``z`` the two-sided critical value.


def _t_power(mu, q_ratio, z):
    mu = mu * q_ratio
    return ndtr(mu - z) + ndtr(-z - mu)


def _w_power(mu, q_ratio, z):
    return ndtr(q_ratio * (mu - z)) + ndtr(-q_ratio * (z + mu))


def _u_power(q_ratio, p_w, p_t):
    return np.where(q_ratio < 1.0, p_w, p_t)


def _mixed_product(name, weight, q1_ctrl, q1_case):
    """``frequency_mixture`` at ``weight``, rejecting a weight that makes it 0
    anywhere: the W_delta mean and variance divide by it."""
    x = frequency_mixture(q1_ctrl, q1_case, weight)
    zero = ~(np.asarray(x) > 0.0)
    if zero.any():
        bad = np.broadcast_to(weight, zero.shape)[zero][0]
        raise ValueError(
            f"{name} {float(bad)!r} makes the mixed marker frequency product 0, "
            "where the W_delta power is undefined"
        )
    return x


def _w_delta_power(sqrt_m, q1_ctrl, q1_case, g, x, z):
    """``x`` is the :func:`_mixed_product` at the weight."""
    mu = sqrt_m * (q1_ctrl - q1_case) / np.sqrt(x)
    sigma = np.sqrt(g / x)
    return ndtr((mu - z) / sigma) + ndtr((-z - mu) / sigma)


def power_t(m: float, b: float, delta: float, q_ratio: float, alpha: float) -> float:
    """Two-sided asymptotic power of the classic statistic T."""
    _check_power_args(m, q_ratio, alpha)
    z = two_sided_critical_value(alpha)
    return float(_t_power(noncentrality(m, b, delta), q_ratio, z))


def power_w(m: float, b: float, delta: float, q_ratio: float, alpha: float) -> float:
    """Two-sided asymptotic power of the prevalence-standardized statistic W.

    Identical to :func:`power_t` except that the rejection quantile is also
    scaled by Q, which is what frees the power from the marker frequency.
    """
    _check_power_args(m, q_ratio, alpha)
    z = two_sided_critical_value(alpha)
    return float(_w_power(noncentrality(m, b, delta), q_ratio, z))


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
    the power is largest at weight 0 and smallest at weight 1. A weight at
    which ``x`` is 0 (the power is undefined there) raises ``ValueError``.
    """
    check_weight("delta_weight", delta_weight)
    _check_alpha(alpha)
    summary = population_summary(model, marker)
    q1_case, q1_ctrl = summary.q1_case, summary.q1_ctrl
    g = variance_mixture(q1_ctrl, q1_case, design.lam)
    x = _mixed_product("delta_weight", delta_weight, q1_ctrl, q1_case)
    z = two_sided_critical_value(alpha)
    return float(_w_delta_power(math.sqrt(design.m), q1_ctrl, q1_case, g, x, z))


def power_u(m: float, b: float, delta: float, q_ratio: float, alpha: float) -> float:
    """Two-sided asymptotic power of the combined statistic U.

    Equals the W power where Q < 1, the T power where Q > 1, and their
    common value at Q == 1.
    """
    p_w = power_w(m, b, delta, q_ratio, alpha)
    return float(_u_power(q_ratio, p_w, power_t(m, b, delta, q_ratio, alpha)))


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

    Every argument is checked before any power is evaluated, so an invalid
    one raises whether or not any coordinate is feasible: the coordinates in
    grid order (``ValueError``), the prevalence
    (:class:`~alleletest.model.DegeneratePrevalenceError`), then the Q of
    each feasible point, ``alpha``, the ``pi_hat_values``, and last any
    weight or pi-hat that makes a feasible point's mixed marker frequency
    product 0, where the W_delta power is undefined (``ValueError``). The
    sweep derives the model once and evaluates all coordinates as arrays,
    with the same arithmetic as the scalar functions.
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

    coords = [
        (
            value if axis == "q1" else q1,
            value if axis == "delta" else delta,
            value if axis == "delta_weight" else delta_weight,
        )
        for value in values
    ]
    # The scalar validators raise for the first bad coordinate in grid order.
    for coord_q1, coord_delta, coord_dw in coords:
        MarkerSpec(q1=coord_q1, delta=coord_delta)
        if coord_dw is not None:
            check_weight("delta_weight", coord_dw)
    pi = check_prevalence(model)
    coords = [(cq1, cdelta, pi if cdw is None else cdw) for cq1, cdelta, cdw in coords]

    q1s, deltas, weights = (np.array(c, dtype=float) for c in zip(*coords))
    terms = marker_terms(model.p1, q1s, deltas)
    ok = np.flatnonzero(terms.feasible)
    q1_case, q1_ctrl = shifted_marker_freqs(model, q1s[ok], terms.d[ok])
    q_ratio = variance_ratio(terms.q1[ok], q1_ctrl, q1_case, design.lam)
    _check_power_args(design.m, q_ratio, alpha)
    for pi_hat in pi_hats:
        if pi_hat is not None:
            check_weight("pi_hat", pi_hat)
    x_weights = _mixed_product("delta_weight", weights[ok], q1_ctrl, q1_case)
    x_pi_hats = [
        None if pi_hat is None else _mixed_product("pi_hat", pi_hat, q1_ctrl, q1_case)
        for pi_hat in pi_hats
    ]

    z = two_sided_critical_value(alpha)
    mu = noncentrality(design.m, b_term(model), deltas[ok])
    p_t = _t_power(mu, q_ratio, z)
    p_w = _w_power(mu, q_ratio, z)
    sqrt_m = math.sqrt(design.m)
    g = variance_mixture(q1_ctrl, q1_case, design.lam)
    # Per coordinate: T, W_delta, U, then W under each pi-hat, where a
    # misspecified prevalence estimate turns W into the mixed-weight
    # statistic with that weight. None marks an infeasible coordinate.
    powers = np.full((len(values), 3 + len(pi_hats)), None, dtype=object)
    powers[ok] = np.column_stack(
        [
            p_t,
            _w_delta_power(sqrt_m, q1_ctrl, q1_case, g, x_weights, z),
            _u_power(q_ratio, p_w, p_t),
            *(
                p_w if x is None else _w_delta_power(sqrt_m, q1_ctrl, q1_case, g, x, z)
                for x in x_pi_hats
            ),
        ]
    )

    eff_pis = [pi if pi_hat is None else pi_hat for pi_hat in pi_hats]
    points: list[PowerPoint] = []
    for (coord_q1, coord_delta, eff_dw), feasible, (pt, pwd, pu, *pws) in zip(
        coords, terms.feasible.tolist(), powers.tolist()
    ):
        for eff_pi, pw in zip(eff_pis, pws):
            # Positional, in field order: keywords make this loop a third slower.
            points.append(
                PowerPoint(coord_q1, coord_delta, eff_dw, eff_pi, alpha, pt, pw, pwd, pu, feasible)
            )
    return points
