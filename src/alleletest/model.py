"""Two-locus population model for allele-based case-control association.

A biallelic causal variant (alleles A1/A2, risk-allele frequency ``p1``) acts
on disease status through genotype penetrances. A biallelic marker (alleles
M1/M2, frequency ``q1``) is tied to it by the LD correlation ``delta``:
the correlation between the A1 and M1 indicators on a random haplotype.
Under Hardy-Weinberg equilibrium and random mating this module derives every
population quantity the tests and power formulas need:

* the four haplotype frequencies and the feasible range of ``delta``,
* disease prevalence,
* case/control-conditional allele frequencies at both loci,
* the causal contrast term B, shared by all markers tied to one variant,
* the variance ratio Q that decides which test statistic is more powerful
  for a given marker.

Everything is a pure function of immutable inputs; instances are safe to
share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

__all__ = [
    "FeasibilityError",
    "DegeneratePrevalenceError",
    "PenetranceModel",
    "MarkerSpec",
    "DesignConstants",
    "PopulationSummary",
    "MarkerTerms",
    "delta_bounds",
    "marker_terms",
    "haplotype_freqs",
    "prevalence",
    "allele_risks",
    "check_prevalence",
    "causal_conditional_freqs",
    "marker_conditional_freqs",
    "shifted_marker_freqs",
    "b_term",
    "q_term",
    "population_summary",
    "frequency_mixture",
    "variance_mixture",
    "variance_ratio",
    "check_frequency",
    "check_weight",
    "is_integer",
    "MAX_ALLELE_TOTAL",
    "GRID_AXES",
    "MODES",
]

# Slack for floating-point round-off at the exact feasibility boundary.
_BOUND_TOL = 1e-12
# Largest allele total whose counts and frequencies float64 holds exactly.
MAX_ALLELE_TOTAL = 1 << 53
# The coordinates a power sweep runs over, and the simulation's sampling
# modes: here, so that the CLI's options list them without importing power
# or sim.
GRID_AXES = ("q1", "delta", "delta_weight")
MODES = ("allele", "genotype")


class FeasibilityError(ValueError):
    """LD coefficient outside the range where all haplotype frequencies are valid."""


class DegeneratePrevalenceError(ValueError):
    """Penetrance model puts everyone (or no one) into the case group."""


@dataclass(frozen=True)
class PenetranceModel:
    """Biallelic causal variant: risk-allele frequency and genotype disease risks.

    ``pen11``, ``pen12`` and ``pen22`` are P(disease | genotype) for the
    A1A1, A1A2 (equivalently A2A1) and A2A2 genotypes; only one heterozygote
    field exists because the two orderings are the same genotype. A model
    with all three risks equal carries no causal effect; it is permitted and
    acts as the null model.
    """

    p1: float
    pen11: float
    pen12: float
    pen22: float

    def __post_init__(self) -> None:
        check_frequency("p1", self.p1)
        for name in ("pen11", "pen12", "pen22"):
            check_weight(name, getattr(self, name))

    @property
    def p2(self) -> float:
        return 1.0 - self.p1

    @property
    def is_null(self) -> bool:
        """True when the genotype risks coincide, i.e. no causal effect."""
        return self.pen11 == self.pen12 == self.pen22


@dataclass(frozen=True)
class MarkerSpec:
    """Biallelic marker: M1 population frequency and LD correlation with the causal variant.

    ``delta`` is only a correlation bound here (|delta| <= 1); whether it is
    jointly feasible with a particular causal-variant frequency is checked at
    use via :func:`delta_bounds`.
    """

    q1: float
    delta: float

    def __post_init__(self) -> None:
        check_frequency("q1", self.q1)
        if not -1.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [-1, 1], got {self.delta!r}")


@dataclass(frozen=True)
class DesignConstants:
    """Case/control sample sizes and the constants they induce."""

    r_cases: int
    s_controls: int

    def __post_init__(self) -> None:
        for name in ("r_cases", "s_controls"):
            value = getattr(self, name)
            if not is_integer(value) or operator.index(value) < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        r, s = self.r_cases, self.s_controls
        if 2 * max(r, s) > MAX_ALLELE_TOTAL:
            raise ValueError(
                f"design R={r}, S={s} is too large: 2R and 2S may not exceed {MAX_ALLELE_TOTAL}"
            )

    @property
    def n_total(self) -> int:
        return self.r_cases + self.s_controls

    @property
    def lam(self) -> float:
        """Sampled case fraction R / N."""
        return self.r_cases / self.n_total

    @property
    def m(self) -> float:
        """Effective allele-pair count 2*N*lam*(1-lam) = 2*R*S/N."""
        return 2.0 * self.r_cases * self.s_controls / self.n_total


@dataclass(frozen=True)
class PopulationSummary:
    """All derived population quantities for one (model, marker) pair."""

    prevalence: float
    p1_case: float
    p1_ctrl: float
    q1_case: float
    q1_ctrl: float
    b: float
    haplotypes: tuple[float, float, float, float]

    @property
    def p1(self) -> float:
        return self.haplotypes[0] + self.haplotypes[1]

    @property
    def q1(self) -> float:
        return self.haplotypes[0] + self.haplotypes[2]


def delta_bounds(p1: float, q1: float) -> tuple[float, float]:
    """Feasible range of the LD correlation for given allele frequencies.

    All four haplotype frequencies must lie in [0, 1]; in correlation units
    the admissible interval is::

        max(-sqrt(p1*q1/(p2*q2)), -sqrt(p2*q2/(p1*q1)))
            <= delta <=
        min(sqrt(p1*q2/(p2*q1)), sqrt(p2*q1/(p1*q2)))

    The interval always contains 0, and the marker can be perfectly
    correlated with the causal variant (upper bound 1) only when q1 == p1.
    """
    check_frequency("p1", p1)
    check_frequency("q1", q1)
    terms = marker_terms(p1, q1, 0.0)
    return float(terms.lo), float(terms.hi)


class MarkerTerms(NamedTuple):
    """LD-level quantities of one marker, or of arrays of markers.

    ``feasible`` applies :func:`delta_bounds` with ``_BOUND_TOL`` of slack;
    ``d`` is the haplotype covariance ``delta*sqrt(p1*p2*q1*q2)`` and ``q1``
    the haplotype sum A1M1 + A2M1 (:attr:`PopulationSummary.q1`). Values at
    infeasible markers are computed all the same and mean nothing.
    """

    lo: Any
    hi: Any
    feasible: Any
    d: Any
    haplotypes: tuple
    q1: Any


def _sqrt_ratio(a, b):
    """``sqrt(min(a/b, b/a))`` for non-negative ``a``, ``b``, not both 0."""
    return np.sqrt(np.minimum(a, b) / np.maximum(a, b))


def marker_terms(p1, q1, delta) -> MarkerTerms:
    """Bounds, feasibility and haplotype frequencies for a causal-variant
    frequency ``p1`` and marker coordinates ``(q1, delta)``.

    Arithmetic only, so it serves one marker (floats) and a whole power
    sweep (arrays) with the same bits; the inputs are not validated.
    """
    p2 = 1.0 - p1
    q2 = 1.0 - q1
    # Each bound is sqrt of the smaller of a ratio and its inverse, taken as
    # smaller / larger so that a product that underflows to 0 divides nothing.
    lo = -_sqrt_ratio(p1 * q1, p2 * q2)
    hi = _sqrt_ratio(p1 * q2, p2 * q1)
    feasible = (lo - _BOUND_TOL <= delta) & (delta <= hi + _BOUND_TOL)
    d = delta * np.sqrt(p1 * p2 * q1 * q2)
    a1m1 = p1 * q1 + d
    a1m2 = p1 - a1m1
    a2m1 = q1 - a1m1
    a2m2 = p2 - a2m1
    # At an exact feasibility boundary round-off may leave a frequency a few
    # ulps below zero; snap it back.
    haps = tuple(
        _select((-_BOUND_TOL < f) & (f < 0.0), 0.0, f) for f in (a1m1, a1m2, a2m1, a2m2)
    )
    return MarkerTerms(lo, hi, feasible, d, haps, haps[0] + haps[2])


def _require_feasible(model: PenetranceModel, marker: MarkerSpec) -> MarkerTerms:
    terms = marker_terms(model.p1, marker.q1, marker.delta)
    if not terms.feasible:
        lo, hi, d = float(terms.lo), float(terms.hi), marker.delta
        side = "lower" if d < lo else "upper"
        raise FeasibilityError(
            f"delta={d:g} violates the {side} feasibility bound for "
            f"p1={model.p1:g}, q1={marker.q1:g}: admissible range is "
            f"[{lo:.9g}, {hi:.9g}]"
        )
    return terms


def haplotype_freqs(
    model: PenetranceModel, marker: MarkerSpec
) -> tuple[float, float, float, float]:
    """Population frequencies of the (A1M1, A1M2, A2M1, A2M2) haplotypes.

    P(A1M1) = p1*q1 + delta*sqrt(p1*p2*q1*q2); the remaining three follow
    from marginal consistency, so the four always sum to one. Raises
    :class:`FeasibilityError` when ``delta`` lies outside
    :func:`delta_bounds`.
    """
    return tuple(float(f) for f in _require_feasible(model, marker).haplotypes)


def prevalence(model: PenetranceModel) -> float:
    """Disease prevalence under Hardy-Weinberg genotype proportions."""
    p1, p2 = model.p1, model.p2
    return p1 * p1 * model.pen11 + 2.0 * p1 * p2 * model.pen12 + p2 * p2 * model.pen22


def allele_risks(model: PenetranceModel) -> tuple[float, float]:
    """Disease risk carried by a single allele, averaging over its partner.

    ``f_i = P(disease | one haplotype carries A_i)`` under random mating;
    prevalence decomposes as ``p1*f1 + p2*f2``.
    """
    f1 = model.p1 * model.pen11 + model.p2 * model.pen12
    f2 = model.p1 * model.pen12 + model.p2 * model.pen22
    return f1, f2


def check_prevalence(model: PenetranceModel) -> float:
    """The prevalence of ``model``; raises :class:`DegeneratePrevalenceError`
    unless it lies strictly inside (0, 1)."""
    pi = prevalence(model)
    if not 0.0 < pi < 1.0:
        raise DegeneratePrevalenceError(
            f"prevalence is {pi:g}; conditional frequencies require 0 < prevalence < 1"
        )
    return pi


def _select(condition, if_true, if_false):
    """``np.where`` that keeps a scalar a scalar (0-d arrays are slow)."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, if_true, if_false)
    return if_true if condition else if_false


def _clamp01(x):
    x = _select((-_BOUND_TOL < x) & (x < 0.0), 0.0, x)
    return _select((1.0 < x) & (x < 1.0 + _BOUND_TOL), 1.0, x)


def causal_conditional_freqs(model: PenetranceModel) -> tuple[float, float]:
    """A1 frequency among cases and among controls, as ``(p1_case, p1_ctrl)``.

    Bayes inversion at the allele level: a random allele of a random case is
    A1 with probability ``p1*f1/prevalence``.
    """
    pi = check_prevalence(model)
    f1, _ = allele_risks(model)
    p1_case = model.p1 * f1 / pi
    p1_ctrl = model.p1 * (1.0 - f1) / (1.0 - pi)
    return float(_clamp01(p1_case)), float(_clamp01(p1_ctrl))


def shifted_marker_freqs(model: PenetranceModel, q1, d):
    """``(q1_case, q1_ctrl)`` for marker frequency ``q1`` and haplotype
    covariance ``d`` (:attr:`MarkerTerms.d`); floats or arrays.

    Raises :class:`DegeneratePrevalenceError` for a degenerate ``model``.
    """
    pi = check_prevalence(model)
    f1, f2 = allele_risks(model)
    shift = d * (f1 - f2)
    return _clamp01(q1 + shift / pi), _clamp01(q1 - shift / (1.0 - pi))


def marker_conditional_freqs(
    model: PenetranceModel, marker: MarkerSpec
) -> tuple[float, float]:
    """M1 frequency among cases and among controls, as ``(q1_case, q1_ctrl)``.

    The LD correlation transfers the case/control frequency contrast from the
    causal variant to the marker; with ``delta == 0`` both equal ``q1``. The
    outputs satisfy the mixture identity
    ``prevalence*q1_case + (1-prevalence)*q1_ctrl == q1``.
    """
    terms = _require_feasible(model, marker)
    q1_case, q1_ctrl = shifted_marker_freqs(model, marker.q1, terms.d)
    return float(q1_case), float(q1_ctrl)


def b_term(model: PenetranceModel) -> float:
    """Causal contrast B = (p1_ctrl - p1_case) / sqrt(p1*p2).

    B is a property of the causal variant alone, so it is shared by every
    marker in LD with it; it is zero under the null model and negates when
    the allele labels A1/A2 are swapped.
    """
    p1_case, p1_ctrl = causal_conditional_freqs(model)
    return (p1_ctrl - p1_case) / math.sqrt(model.p1 * model.p2)


def population_summary(model: PenetranceModel, marker: MarkerSpec) -> PopulationSummary:
    """Bundle every derived population quantity for one (model, marker) pair."""
    terms = _require_feasible(model, marker)
    pi = check_prevalence(model)
    p1_case, p1_ctrl = causal_conditional_freqs(model)
    q1_case, q1_ctrl = shifted_marker_freqs(model, marker.q1, terms.d)
    return PopulationSummary(
        prevalence=pi,
        p1_case=p1_case,
        p1_ctrl=p1_ctrl,
        q1_case=float(q1_case),
        q1_ctrl=float(q1_ctrl),
        b=b_term(model),
        haplotypes=tuple(float(f) for f in terms.haplotypes),
    )


def q_term(
    summary: PopulationSummary, lam: float, delta_weight: float | None = None
) -> float:
    """Variance ratio Q, or its delta-weighted generalization.

    Without a weight::

        Q^2 = q1*q2 / (lam*u_ctrl + (1-lam)*u_case)

    where ``u_i = q1_i*(1-q1_i)`` and ``lam`` is the sampled case fraction.
    Q equals 1 whenever case and control marker frequencies coincide (in
    particular under linkage equilibrium); Q < 1 marks markers for which the
    prevalence-standardized statistic is the more powerful one.

    With ``delta_weight`` the numerator is replaced by the product of the
    delta-mixed frequencies, the form that keeps the statistic identity
    ``w_delta * q_hat_delta == t`` exact. At ``delta_weight == prevalence``
    the two forms agree.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam!r}")
    if delta_weight is None:
        return float(variance_ratio(summary.q1, summary.q1_ctrl, summary.q1_case, lam))
    check_weight("delta_weight", delta_weight)
    g = variance_mixture(summary.q1_ctrl, summary.q1_case, lam)
    return math.sqrt(frequency_mixture(summary.q1_ctrl, summary.q1_case, delta_weight) / g)


def is_integer(value: Any) -> bool:
    """Any integer, numpy's too, but not a bool: numpy 1.x's bool has ``__index__``."""
    return not isinstance(value, (bool, np.bool_)) and hasattr(value, "__index__")


def check_frequency(name: str, value: float) -> None:
    """Reject a frequency outside (0, 1) (NaN included)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def check_weight(name: str, value: float) -> None:
    """Reject a mixing weight outside [0, 1] (NaN included)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def variance_ratio(q1, q1_ctrl, q1_case, weight):
    """``sqrt(q1*q2 / variance_mixture(q1_ctrl, q1_case, weight))``: Q at
    ``weight == lam``; arithmetic only, for floats or arrays."""
    return np.sqrt(q1 * (1.0 - q1) / variance_mixture(q1_ctrl, q1_case, weight))


def frequency_mixture(q_ctrl, q_case, weight):
    """Product ``m1*m2`` of the M1 and M2 frequencies mixed with ``weight`` on cases.

    Anchored at the control value, so exact when the two frequencies tie
    (t == w == 0, q_hat == 1). Arithmetic only: works on floats and arrays.
    """
    m1 = q_ctrl + weight * (q_case - q_ctrl)
    m2 = (1.0 - q_ctrl) + weight * (q_ctrl - q_case)
    return m1 * m2


def variance_mixture(q_ctrl, q_case, weight):
    """``weight*u_ctrl + (1-weight)*u_case`` with ``u = q*(1-q)``, anchored like
    :func:`frequency_mixture`; the denominator of Q^2 and of ``q_hat^2``."""
    u_ctrl = q_ctrl * (1.0 - q_ctrl)
    u_case = q_case * (1.0 - q_case)
    return u_case + weight * (u_ctrl - u_case)
