"""Closed-form asymptotic power for the allele-based tests.

All four test statistics are asymptotically normal; their two-sided power at
level ``alpha`` is a difference of normal tails driven by the noncentrality
``sqrt(m)*B*delta`` and the marker's variance ratio Q:

* T:  ``1 - Phi(z - sqrt(m)*B*delta*Q) + Phi(-z - sqrt(m)*B*delta*Q)``
* W:  the same with the quantile also scaled by Q, so power depends on the
  marker frequency only through Q and is roughly flat across markers.

``Phi`` is ``_normal.ndtr``, the Cephes routine behind ``scipy.special.ndtr``.

``power_grid`` sweeps one coordinate (marker frequency, LD correlation, or
mixing weight) and returns plot-ready columns, flagging coordinates where the
LD correlation leaves its feasible range instead of dropping them.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._normal import ndtr
from .model import (
    GRID_AXES,
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
    "PowerGrid",
    "noncentrality",
    "w_noncentrality",
    "power_t",
    "power_w",
    "power_w_delta",
    "power_u",
    "power_grid",
    "GRID_AXES",
]


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
    """``q_ratio`` may be an array: its first entry not above 0 (or NaN), else
    its first infinite one, is reported."""
    if not m > 0.0:
        raise ValueError(f"m must be positive, got {m!r}")
    if not math.isfinite(m):
        raise ValueError(f"m must be finite, got {m!r}")
    q_ratio = np.ravel(q_ratio)
    bad = q_ratio[~(q_ratio > 0.0)]
    if bad.size:
        raise ValueError(f"q_ratio must be positive, got {bad[0].item()!r}")
    bad = q_ratio[~np.isfinite(q_ratio)]
    if bad.size:
        raise ValueError(f"q_ratio must be finite, got {bad[0].item()!r}")
    _check_alpha(alpha)


def _check_scalar_args(m: float, b: float, delta: float, q_ratio: float, alpha: float) -> None:
    """The checks of :func:`power_t` and :func:`power_w`."""
    _check_power_args(m, q_ratio, alpha)
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got {b!r}")
    if not -1.0 <= delta <= 1.0:  # as MarkerSpec
        raise ValueError(f"delta must lie in [-1, 1], got {delta!r}")


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
    _check_scalar_args(m, b, delta, q_ratio, alpha)
    z = two_sided_critical_value(alpha)
    return float(_t_power(noncentrality(m, b, delta), q_ratio, z))


def power_w(m: float, b: float, delta: float, q_ratio: float, alpha: float) -> float:
    """Two-sided asymptotic power of the prevalence-standardized statistic W.

    Identical to :func:`power_t` except that the rejection quantile is also
    scaled by Q, which is what frees the power from the marker frequency.
    """
    _check_scalar_args(m, b, delta, q_ratio, alpha)
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


class PowerGrid(NamedTuple):
    """An evaluated sweep, one row per grid coordinate.

    ``q1``, ``delta`` and ``delta_weight`` hold the coordinates actually used
    (the weight is the true prevalence when none was given). ``pi_hats``
    holds the prevalence estimates W was evaluated under, in the order given
    (the true prevalence for ``None``), and ``power_w`` has one column per
    pi-hat. The powers of an infeasible coordinate (``feasible`` False) are
    NaN.
    """

    q1: np.ndarray
    delta: np.ndarray
    delta_weight: np.ndarray
    feasible: np.ndarray
    power_t: np.ndarray
    power_w_delta: np.ndarray
    power_u: np.ndarray
    pi_hats: tuple
    power_w: np.ndarray


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
) -> PowerGrid:
    """Evaluate all four power functions along one axis.

    ``axis`` picks which coordinate the ``values`` sweep; the other two are
    fixed by the keyword arguments (``q1`` and ``delta`` are required when
    not swept; ``delta_weight`` defaults to the true prevalence), and the
    swept one must not be fixed. By default the true prevalence enters the W
    power; passing explicit ``pi_hat_values`` (at least one, none repeated)
    evaluates the W power under those (mis)specified estimates instead, one
    ``power_w`` column per pi-hat, which is how the robustness of W to a
    wrong prevalence figure is studied.

    Coordinates where the LD correlation is infeasible for the marker
    frequency are kept with ``feasible`` False rather than dropped, so a
    sweep always yields one row per requested coordinate.

    Every argument is checked before any power is evaluated, so an invalid
    one raises whether or not any coordinate is feasible: the axis and the
    shape of the arguments, the coordinates in grid order (``ValueError``),
    the prevalence (:class:`~alleletest.model.DegeneratePrevalenceError`),
    then the Q of each feasible point, ``alpha``, the ``pi_hat_values``, and
    last any weight or pi-hat that makes a feasible point's mixed marker
    frequency product 0, where the W_delta power is undefined
    (``ValueError``). The sweep derives the model once and evaluates all
    coordinates as arrays, with the same arithmetic as the scalar functions.
    """
    if axis not in GRID_AXES:
        raise ValueError(f"axis must be one of {GRID_AXES}, got {axis!r}")
    values = [float(v) for v in values]
    if not values:
        raise ValueError("empty grid")
    if {"q1": q1, "delta": delta, "delta_weight": delta_weight}[axis] is not None:
        raise ValueError(f"{axis} must not be fixed when it is the sweep axis")
    if axis != "q1" and q1 is None:
        raise ValueError("q1 must be fixed when it is not the sweep axis")
    if axis != "delta" and delta is None:
        raise ValueError("delta must be fixed when it is not the sweep axis")
    pi_hats = (None,) if pi_hat_values is None else tuple(pi_hat_values)
    if not pi_hats:
        raise ValueError(
            "pi_hat_values is empty (leave it out to evaluate W at the true prevalence)"
        )
    seen = set()
    for pi_hat in pi_hats:
        if pi_hat in seen:  # -0.0 repeats 0.0
            raise ValueError(f"pi_hat_values repeats {pi_hat!r}")
        seen.add(pi_hat)

    grid = np.array(values)
    n = grid.size
    q1s = grid if axis == "q1" else np.full(n, q1, dtype=float)
    deltas = grid if axis == "delta" else np.full(n, delta, dtype=float)
    bad = ~((0.0 < q1s) & (q1s < 1.0) & (-1.0 <= deltas) & (deltas <= 1.0))
    weighted = axis == "delta_weight" or delta_weight is not None
    if weighted:
        weights = grid if axis == "delta_weight" else np.full(n, delta_weight, dtype=float)
        bad |= ~((0.0 <= weights) & (weights <= 1.0))
    if bad.any():
        # The scalar validators raise for the first bad coordinate in grid order.
        value = values[int(np.argmax(bad))]
        MarkerSpec(q1=value if axis == "q1" else q1, delta=value if axis == "delta" else delta)
        check_weight("delta_weight", value if axis == "delta_weight" else delta_weight)
    pi = check_prevalence(model)
    if not weighted:
        weights = np.full(n, pi)

    terms = marker_terms(model.p1, q1s, deltas)
    ok = np.flatnonzero(terms.feasible)
    q1_case, q1_ctrl = shifted_marker_freqs(model, q1s[ok], terms.d[ok])
    q_ratio = variance_ratio(terms.q1[ok], q1_ctrl, q1_case, design.lam)
    _check_power_args(design.m, q_ratio, alpha)
    given = [j for j, pi_hat in enumerate(pi_hats) if pi_hat is not None]
    for j in given:
        check_weight("pi_hat", pi_hats[j])
    x_weights = _mixed_product("delta_weight", weights[ok], q1_ctrl, q1_case)
    # One row per given pi-hat, so the first bad point found is under the
    # first offending pi-hat in the order given.
    x_pi_hats = _mixed_product(
        "pi_hat", np.array([pi_hats[j] for j in given]).reshape(-1, 1), q1_ctrl, q1_case
    )

    z = two_sided_critical_value(alpha)
    mu = noncentrality(design.m, b_term(model), deltas[ok])
    p_t = _t_power(mu, q_ratio, z)
    p_w = _w_power(mu, q_ratio, z)
    sqrt_m = math.sqrt(design.m)
    g = variance_mixture(q1_ctrl, q1_case, design.lam)

    power_w = np.empty((len(pi_hats), ok.size))
    power_w[:] = p_w  # W at the true prevalence, for a pi-hat of None
    # A misspecified prevalence estimate turns W into the mixed-weight
    # statistic with that weight.
    power_w[given] = _w_delta_power(sqrt_m, q1_ctrl, q1_case, g, x_pi_hats, z)

    def spread(feasible_rows):
        """Rows of the feasible coordinates, in a grid-length array of NaN."""
        rows = np.full((n, *np.shape(feasible_rows)[1:]), np.nan)
        rows[ok] = feasible_rows
        return rows

    return PowerGrid(
        q1=q1s,
        delta=deltas,
        delta_weight=weights,
        feasible=terms.feasible,
        power_t=spread(p_t),
        power_w_delta=spread(_w_delta_power(sqrt_m, q1_ctrl, q1_case, g, x_weights, z)),
        power_u=spread(_u_power(q_ratio, p_w, p_t)),
        pi_hats=tuple(pi if pi_hat is None else pi_hat for pi_hat in pi_hats),
        power_w=spread(power_w.T),
    )
