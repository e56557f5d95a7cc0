"""Test statistics, p-values and effect sizes from observed allele counts.

Given a 2x2 allele table for one marker (M1/M2 counts among cases and
controls), this module computes:

* ``t_statistic`` -- the classic allele test: the case/control difference of
  sample allele frequencies standardized by its plug-in binomial variance.
  Its power grows with the marker's minor allele frequency.
* ``w_statistic`` -- the prevalence-standardized test: the same difference
  divided by ``sqrt(q1_hat*q2_hat)`` where ``q1_hat`` mixes the case and
  control frequencies with an externally supplied prevalence estimate.
  Its power is roughly flat in the allele frequency, which removes the
  a-priori advantage of common markers.
* ``w_delta_statistic`` -- the same construction with an arbitrary mixing
  weight in [0, 1] instead of the prevalence estimate.
* ``w_corrected`` -- continuity-corrected W for finite samples.
* ``u_statistic`` -- per-marker choice of T or W driven by the estimated
  variance ratio ``q_hat``.

All of them call one array kernel, :func:`statistic_arrays`, on one table.
The statistics are tied together by exact algebraic identities:
``w * q_hat == t`` and ``w_delta * q_hat_delta == t``, and ``|w| > |t|``
exactly when ``q_hat < 1``. All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from ._normal import ndtri
from .model import (
    MAX_ALLELE_TOTAL,
    check_frequency,
    check_weight,
    frequency_mixture,
    is_integer,
    variance_mixture,
)

__all__ = [
    "DegenerateTableError",
    "AlleleCounts",
    "TestReport",
    "StatArrays",
    "statistic_arrays",
    "t_statistic",
    "w_statistic",
    "w_delta_statistic",
    "w_corrected",
    "q_hat",
    "q_hat_delta",
    "u_statistic",
    "p_value",
    "two_sided_critical_value",
    "effect_size",
    "evaluate_counts",
    "ci_quantile",
    "report_columns",
    "REPORT_COLUMNS",
    "REPORT_FLAGS",
    "CORRECTION_DIRECTIONS",
    "MAX_ALLELE_TOTAL",
]

_SQRT2 = math.sqrt(2.0)

CORRECTION_DIRECTIONS = ("toward_zero", "away_from_zero")


class DegenerateTableError(ValueError):
    """One of the four sample allele frequencies is 0 or 1."""


@dataclass(frozen=True)
class AlleleCounts:
    """Observed 2x2 allele table for one marker.

    ``r1``/``r2`` are M1/M2 allele counts among cases, ``s1``/``s2`` among
    controls. Each group total is twice its individual count, so totals must
    be even and at least 2; they may not exceed ``MAX_ALLELE_TOTAL``.
    """

    r1: int
    r2: int
    s1: int
    s2: int

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "s1", "s2"):
            value = getattr(self, name)
            if not is_integer(value) or operator.index(value) < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        for label, total in (("case", self.r1 + self.r2), ("control", self.s1 + self.s2)):
            if total < 2 or total % 2:
                raise ValueError(
                    f"{label} allele total must be even and >= 2, got {total}"
                )
            if total > MAX_ALLELE_TOTAL:
                raise ValueError(
                    f"{label} allele total {total} exceeds {MAX_ALLELE_TOTAL}"
                )

    @property
    def degenerate(self) -> bool:
        """True when any sample allele frequency is 0 or 1."""
        return 0 in (self.r1, self.r2, self.s1, self.s2)

    @property
    def monomorphic(self) -> bool:
        """True when the marker shows no variation at all (single allele)."""
        return self.r1 + self.s1 == 0 or self.r2 + self.s2 == 0


@dataclass(frozen=True)
class TestReport:
    """Per-marker statistics, p-values and effect size.

    Degenerate tables (a sample frequency of 0 or 1) get no statistic values
    and conservative p-values of 1.0; fully monomorphic markers are skipped
    with empty fields. ``flags`` is empty for clean tables.
    """

    q_hat_ctrl: float
    q_hat_case: float
    t_stat: float | None
    w_stat: float | None
    w_cor_stat: float | None
    u_stat: float | None
    p_t: float | None
    p_w: float | None
    p_u: float | None
    q_hat: float | None
    effect_ratio: float | None
    effect_ci: tuple[float, float] | None
    degenerate: bool
    flags: tuple[str, ...] = ()


class StatArrays(NamedTuple):
    """Kernel output for a batch of allele tables, one entry per table.

    Statistics are NaN where the table is degenerate. ``log_ratio_se`` is
    the delta-method standard error of ``log(q_ctrl/q_case)``. ``w``,
    ``w_cor``, ``u`` and ``q_hat`` depend on the weight and take the shape
    of tables and weight broadcast together, so a column of weights gives
    them one row per weight (W_delta and W_cor_delta are W and W_cor at a
    weight row); the other fields have the shape of the tables.
    """

    q_ctrl: np.ndarray
    q_case: np.ndarray
    t: np.ndarray
    w: np.ndarray
    w_cor: np.ndarray
    u: np.ndarray
    q_hat: np.ndarray
    log_ratio_se: np.ndarray
    degenerate: np.ndarray
    monomorphic: np.ndarray


def statistic_arrays(r1, n1, s1, n0, weight, direction: str = "toward_zero") -> StatArrays:
    """T, W, W_cor, U and q_hat for many tables at once.

    ``r1`` and ``s1`` are the M1 counts among cases and controls out of the
    allele totals ``n1`` and ``n0`` (twice the group sizes), as ints or int
    arrays that broadcast together. ``weight`` mixes the case and control
    frequencies in W, W_cor, U and q_hat: the prevalence estimate gives W,
    any other weight W_delta. It is a float or an array that broadcasts
    with the tables; tables as a row ``(1, N)`` and weights as a column
    ``(K, 1)`` give the weight fields one row per weight. Weights are not
    range-checked here. Beyond exact sign and min/max steps only ``+ - * /``
    and ``sqrt`` are used, all correctly rounded in numpy as in ``math``, so
    a table gets the same bits alone, in a batch or at any weight row.
    """
    if direction not in CORRECTION_DIRECTIONS:
        raise ValueError(
            f"direction must be one of {CORRECTION_DIRECTIONS}, got {direction!r}"
        )
    degenerate = (r1 == 0) | (r1 == n1) | (s1 == 0) | (s1 == n0)
    r, s = n1 // 2, n0 // 2
    sqrt_m = np.sqrt(2.0 * r * s / (r + s))
    q_case = np.divide(r1, n1)  # a numpy float even for int arguments
    q_ctrl = np.divide(s1, n0)
    diff = q_ctrl - q_case
    if direction == "toward_zero":
        # Shrink the absolute difference, clamping at zero so the
        # correction can never flip the sign. Where the difference ties the
        # half step, the rounded subtraction would leave a residue, so the
        # tables near a tie are settled in integers.
        excess = np.abs(diff) - _half_step(r, s)
        near = np.abs(excess) <= _TIE_WINDOW * (q_ctrl + q_case)
        if np.any(near):
            excess = np.where(_within_half_step(r1, r, s1, s, near), 0.0, excess)
        diff_cor = np.sign(diff) * np.maximum(excess, 0.0)
    else:
        diff_cor = np.sign(diff) * (np.abs(diff) + _half_step(r, s))

    def defined(x):
        return np.where(degenerate, np.nan, x)

    def standardized(num, mixed):
        return defined(sqrt_m * num / np.sqrt(mixed))

    with np.errstate(divide="ignore", invalid="ignore"):
        v_hat = q_ctrl * (1.0 - q_ctrl) / n0 + q_case * (1.0 - q_case) / n1
        t = defined(diff / np.sqrt(v_hat))
        mixed = frequency_mixture(q_ctrl, q_case, weight)
        w = standardized(diff, mixed)
        q_hat_ = defined(np.sqrt(mixed / variance_mixture(q_ctrl, q_case, r / (r + s))))
        # Rounding can leave q_hat on the wrong side of 1 for the float
        # |t| vs |w| comparison; |t|/|w| is on its side, and 1 at a tie.
        wrong = np.sign(q_hat_ - 1.0) != np.sign(np.abs(t) - np.abs(w))
        q_hat_ = np.where(wrong, np.abs(t) / np.abs(w), q_hat_)
        var_log = (1.0 - q_ctrl) / (n0 * q_ctrl) + (1.0 - q_case) / (n1 * q_case)
        return StatArrays(
            q_ctrl=q_ctrl,
            q_case=q_case,
            t=t,
            w=w,
            w_cor=standardized(diff_cor, mixed),
            u=np.where(q_hat_ > 1.0, t, w),
            q_hat=q_hat_,
            log_ratio_se=defined(np.sqrt(var_log)),
            degenerate=degenerate,
            monomorphic=(r1 + s1 == 0) | (r1 + s1 == n1 + n0),
        )


def _require_nondegenerate(counts: AlleleCounts) -> None:
    if counts.degenerate:
        raise DegenerateTableError(
            "all four allele counts must be positive; got "
            f"(r1={counts.r1}, r2={counts.r2}, s1={counts.s1}, s2={counts.s2})"
        )


def _table_arrays(counts, weight, direction="toward_zero") -> StatArrays:
    """Kernel output for one table."""
    n1, n0 = counts.r1 + counts.r2, counts.s1 + counts.s2
    return statistic_arrays(counts.r1, n1, counts.s1, n0, weight, direction=direction)


def _checked_arrays(counts, weight, direction="toward_zero") -> StatArrays:
    """Kernel output for one table, which must not be degenerate."""
    _require_nondegenerate(counts)
    return _table_arrays(counts, weight, direction)


def t_statistic(counts: AlleleCounts) -> float:
    """Classic allele test statistic.

    ``(q_hat_ctrl - q_hat_case) / sqrt(V_hat)`` with the variance estimated
    by plugging the sample frequencies into the binomial form
    ``q*(1-q)/(2S) + q*(1-q)/(2R)``. Asymptotically standard normal under
    no association.
    """
    return float(_checked_arrays(counts, 0.5).t)  # T does not use the weight


def w_delta_statistic(counts: AlleleCounts, delta_weight: float) -> float:
    """Frequency-mixed allele test statistic with mixing weight ``delta_weight``.

    ``sqrt(m) * (q_hat_ctrl - q_hat_case) / sqrt(m1*m2)`` where
    ``m1 = dw*q_hat_case + (1-dw)*q_hat_ctrl`` and ``m2`` is the analogous
    mixture of the M2 frequencies. The weight 0 standardizes by the control
    frequencies only, 1 by the case frequencies only, and the prevalence
    recovers :func:`w_statistic`.
    """
    check_weight("delta_weight", delta_weight)
    return float(_checked_arrays(counts, delta_weight).w)


def w_statistic(counts: AlleleCounts, pi_hat: float) -> float:
    """Prevalence-standardized allele test statistic.

    ``pi_hat`` is an external estimate of the disease prevalence; it cannot
    be recovered from a case-control sample and must come from outside data.
    Identical to :func:`w_delta_statistic` with the prevalence as weight,
    and tied to :func:`t_statistic` by ``w * q_hat == t``.
    """
    check_frequency("pi_hat", pi_hat)
    return w_delta_statistic(counts, pi_hat)


def _half_step(r, s):
    return 0.5 * np.minimum(r, s) / (2.0 * s * r)


# In a table that is not degenerate, |q_ctrl - q_case| and the half step
# each lie within 2 eps * (q_ctrl + q_case) of their exact values, so beyond
# this multiple of q_ctrl + q_case from the half step the float comparison
# has the sign of the exact one.
_TIE_WINDOW = 4 * np.finfo(float).eps


def _within_half_step(r1, r, s1, s, near):
    """Mask of the tables, among those ``near`` the half step, whose
    frequency difference lies within it: ``2*|s1*R - r1*S| <= min(R, S)``
    in Python ints, since ``s1*R`` can overflow int64."""
    *counts, near = np.broadcast_arrays(r1, r, s1, s, near)
    within = np.zeros(near.shape, dtype=bool)
    for i in np.flatnonzero(near):
        case_m1, cases, ctrl_m1, controls = (int(x.flat[i]) for x in counts)
        within.flat[i] = (
            2 * abs(ctrl_m1 * cases - case_m1 * controls) <= min(cases, controls)
        )
    return within


def w_corrected(
    counts: AlleleCounts,
    pi_hat: float,
    direction: str = "toward_zero",
    delta_weight: float | None = None,
) -> float:
    """Continuity-corrected W (or W_delta when ``delta_weight`` is given).

    The frequency difference in the numerator is shifted by half a lattice
    step, ``0.5*min(R,S)/(2RS)`` for R cases and S controls, before
    standardizing. The default ``toward_zero`` shrinks the absolute
    difference (never past zero), which damps the finite-sample tail
    inflation of W; ``away_from_zero`` applies the opposite shift for
    sensitivity analysis.
    """
    check_frequency("pi_hat", pi_hat)
    if delta_weight is None:
        delta_weight = pi_hat
    check_weight("delta_weight", delta_weight)
    return float(_checked_arrays(counts, delta_weight, direction).w_cor)


def q_hat_delta(counts: AlleleCounts, delta_weight: float) -> float:
    """Sample variance ratio satisfying ``w_delta * q_hat_delta == t`` exactly.

    The numerator is the product of the delta-mixed frequencies (the square
    of the W_delta denominator); the denominator is the sampling-weighted
    mixture of the case/control variance products (the square of the T
    denominator, rescaled by m).
    """
    check_weight("delta_weight", delta_weight)
    return float(_checked_arrays(counts, delta_weight).q_hat)


def q_hat(counts: AlleleCounts, pi_hat: float) -> float:
    """Sample variance ratio ``q_hat`` linking T and W: ``t == w * q_hat``."""
    check_frequency("pi_hat", pi_hat)
    return q_hat_delta(counts, pi_hat)


def u_statistic(counts: AlleleCounts, pi_hat: float) -> float:
    """Combined statistic: T where ``q_hat > 1``, W where ``q_hat <= 1``.

    Picks, marker by marker, whichever of the two statistics is the larger
    in absolute value, so the combined test attains the better power of the
    two while staying asymptotically standard normal under no association.
    """
    check_frequency("pi_hat", pi_hat)
    return float(_checked_arrays(counts, pi_hat).u)


def p_value(stat: float) -> float:
    """Two-sided tail probability under the standard normal reference.

    Computed through the complementary error function, so there is no
    cancellation in the far tails (accurate up to |stat| around 38, below
    which the result underflows gradually).
    """
    if not math.isfinite(stat):
        raise ValueError(f"statistic must be finite, got {stat!r}")
    return math.erfc(abs(stat) / _SQRT2)


def two_sided_critical_value(alpha: float) -> float:
    """Upper alpha/2 standard normal quantile, the two-sided rejection cutoff.

    Evaluated through the inverse normal CDF at ``alpha/2`` (no cancellation
    for small levels; accurate down to alpha ~ 1e-12 and beyond), which is
    ``_normal.ndtri``, the Cephes routine behind ``scipy.special.ndtri``.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    return -float(ndtri(alpha / 2.0))


def ci_quantile(ci_level: float) -> float:
    """Two-sided normal quantile of a ``ci_level`` confidence interval."""
    if not 0.0 < ci_level < 1.0:
        raise ValueError(f"ci_level must lie in (0, 1), got {ci_level!r}")
    return two_sided_critical_value(1.0 - ci_level)


def effect_size(
    counts: AlleleCounts, ci_level: float = 0.95
) -> tuple[float, float, float]:
    """Control/case frequency ratio with a log-scale normal confidence interval.

    The ratio ``q_hat_ctrl / q_hat_case`` estimates the factor by which
    carrying M1 changes the control:case odds relative to the population
    baseline; values below 1 mark risk alleles. The interval is a delta-method
    normal interval on the log ratio with independent binomial variances
    ``(1-q)/(2S*q)`` and ``(1-q)/(2R*q)``.
    """
    # This checks ci_level before the table is found degenerate; the ratio uses no weight.
    report = evaluate_counts(counts, 0.5, ci_level=ci_level)
    _require_nondegenerate(counts)
    return (report.effect_ratio, *report.effect_ci)


# The cells of a marker report, in the order of report_columns' columns and
# of the scan's output between the id and the flags.
REPORT_COLUMNS = ("q_hat_ctrl", "q_hat_case", "t", "p_t", "w", "p_w", "w_cor", "u", "p_u",
                  "q_hat", "effect_ratio", "ci_lo", "ci_hi")

# The flags of a report, by the code that report_columns gives each table.
REPORT_FLAGS = ((), ("monomorphic",), ("degenerate",), ("degenerate", "undefined_ratio"))


def _mapped(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of each value, on Python floats: ``math`` gives bits that
    numpy's ufuncs do not always reproduce."""
    return np.fromiter(map(fn, values.tolist()), dtype=np.float64, count=values.size)


def report_columns(arrays: StatArrays, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Report cells of many tables, and the flags of each.

    Returns a float array with one row per table and one column per name in
    ``REPORT_COLUMNS``, in that order. NaN marks an empty cell, and only
    flagged tables have any. p-values and interval ends come from ``math``.
    Degenerate tables get no statistics and p-values of 1.0, monomorphic
    ones no p-values either. Also returns each table's flags as an index
    into ``REPORT_FLAGS``, 0 (no flags) for clean tables. ``z`` is the
    interval's normal quantile.
    """
    q_ctrl, q_case, t, w, w_cor, u, qh, se, degenerate, monomorphic = map(np.atleast_1d, arrays)
    ok = ~degenerate

    def of_ok(values):  # a column of values at the tables that are not degenerate
        column = np.full(ok.shape, np.nan)
        column[ok] = values
        return column

    def p_column(stat):  # 1.0 where degenerate, empty where monomorphic
        column = np.where(monomorphic, np.nan, 1.0)
        column[ok] = _mapped(math.erfc, np.abs(stat[ok]) / _SQRT2)
        return column

    p_t, p_w = p_column(t), p_column(w)
    ratio = q_ctrl[ok] / q_case[ok]
    log_ratio, half = _mapped(math.log, ratio), z * se[ok]
    # The statistics are NaN where degenerate, as their cells are empty.
    columns = dict(
        q_hat_ctrl=q_ctrl, q_hat_case=q_case, t=t, p_t=p_t, w=w, p_w=p_w, w_cor=w_cor, u=u,
        p_u=np.where(qh > 1.0, p_t, p_w),  # U's pick of T or W
        q_hat=qh,
        effect_ratio=of_ok(ratio),
        ci_lo=of_ok(_mapped(math.exp, log_ratio - half)),
        ci_hi=of_ok(_mapped(math.exp, log_ratio + half)),
    )
    flags = np.where(monomorphic, 1, np.where(q_case > 0.0, 2, 3))
    flags[ok] = 0
    return np.column_stack([columns[name] for name in REPORT_COLUMNS]), flags


def evaluate_counts(
    counts: AlleleCounts,
    pi_hat: float,
    *,
    ci_level: float = 0.95,
    direction: str = "toward_zero",
) -> TestReport:
    """Compute the full per-marker report, handling degenerate tables.

    Monomorphic markers are skipped (empty statistics, ``monomorphic`` flag);
    other degenerate tables get the ``degenerate`` flag and conservative
    p-values of 1.0, plus ``undefined_ratio`` when no case copy of M1 was
    seen at all. ``pi_hat``, then ``ci_level``, are checked first.
    """
    check_frequency("pi_hat", pi_hat)
    z = ci_quantile(ci_level)
    cells, codes = report_columns(_table_arrays(counts, pi_hat, direction), z)
    cell = SimpleNamespace(**{name: None if math.isnan(value) else value  # None where empty
                              for name, value in zip(REPORT_COLUMNS, cells[0].tolist())})
    return TestReport(
        q_hat_ctrl=cell.q_hat_ctrl,
        q_hat_case=cell.q_hat_case,
        t_stat=cell.t,
        w_stat=cell.w,
        w_cor_stat=cell.w_cor,
        u_stat=cell.u,
        p_t=cell.p_t,
        p_w=cell.p_w,
        p_u=cell.p_u,
        q_hat=cell.q_hat,
        effect_ratio=cell.effect_ratio,
        effect_ci=None if cell.effect_ratio is None else (cell.ci_lo, cell.ci_hi),
        degenerate=counts.degenerate,
        flags=REPORT_FLAGS[codes[0]],
    )
