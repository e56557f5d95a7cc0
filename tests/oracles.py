"""Independent oracles the test suite freezes expected values against.

Each helper recomputes a quantity by a route different from the library:
full haplotype-pair enumeration instead of closed-form conditional
frequencies, exact rationals instead of floats, whole-lattice enumeration
instead of Monte Carlo, and a stdlib-only bisected normal quantile instead
of the scipy inverse.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

SQRT2 = math.sqrt(2.0)
# Binomial pmf values below this are dropped from lattice enumerations.
_PMF_TAIL = 1e-18


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the stdlib complementary error function."""
    return 0.5 * math.erfc(-x / SQRT2)


def two_sided_tail(z: float) -> float:
    """P(|Z| >= z) for standard normal Z, stdlib only."""
    return math.erfc(z / SQRT2)


def bisect_two_sided_z(alpha: float) -> float:
    """Upper alpha/2 normal quantile by bisection on erfc (no scipy)."""
    lo, hi = 0.0, 45.0
    for _ in range(220):
        mid = 0.5 * (lo + hi)
        if two_sided_tail(mid) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def haplotype_frequencies(p1, q1, delta):
    """A1M1, A1M2, A2M1 and A2M2 frequencies for LD correlation ``delta``.

    Works elementwise on arrays of ``delta``; a haplotype structure exists
    exactly when all four are nonnegative.
    """
    p2, q2 = 1.0 - p1, 1.0 - q1
    d = delta * math.sqrt(p1 * p2 * q1 * q2)
    return p1 * q1 + d, p1 * q2 - d, p2 * q1 - d, p2 * q2 + d


def enumerate_population(p1, q1, delta, pens):
    """Haplotype-pair enumeration of the two-locus model.

    Builds the four haplotype frequencies from first principles, forms all
    16 ordered diplotypes under random mating, applies the causal-genotype
    disease risk and conditions on status. Returns a dict with prevalence,
    conditional allele frequencies at both loci, and the marker-genotype
    distributions (number of M1 copies) among cases and controls.
    """
    h11, h12, h21, h22 = haplotype_frequencies(p1, q1, delta)
    hap = {(1, 1): h11, (1, 2): h12, (2, 1): h21, (2, 2): h22}
    pen = {(1, 1): pens[0], (1, 2): pens[1], (2, 1): pens[1], (2, 2): pens[2]}
    pi = 0.0
    num = {"p_case": 0.0, "p_ctrl": 0.0, "q_case": 0.0, "q_ctrl": 0.0}
    geno_case = np.zeros(3)
    geno_ctrl = np.zeros(3)
    for (a1, m1), h1 in hap.items():
        for (a2, m2), h2 in hap.items():
            pr = h1 * h2
            risk = pen[(a1, a2)]
            pi += pr * risk
            w_a1 = ((a1 == 1) + (a2 == 1)) / 2.0
            copies = (m1 == 1) + (m2 == 1)
            w_m1 = copies / 2.0
            num["p_case"] += pr * risk * w_a1
            num["p_ctrl"] += pr * (1.0 - risk) * w_a1
            num["q_case"] += pr * risk * w_m1
            num["q_ctrl"] += pr * (1.0 - risk) * w_m1
            geno_case[copies] += pr * risk
            geno_ctrl[copies] += pr * (1.0 - risk)
    return {
        "prevalence": pi,
        "p1_case": num["p_case"] / pi,
        "p1_ctrl": num["p_ctrl"] / (1.0 - pi),
        "q1_case": num["q_case"] / pi,
        "q1_ctrl": num["q_ctrl"] / (1.0 - pi),
        "geno_case": geno_case / pi,
        "geno_ctrl": geno_ctrl / (1.0 - pi),
    }


def brute_force_delta_bounds(p1, q1, grid=2_000_001):
    """Feasible LD range by scanning haplotype nonnegativity directly."""
    deltas = np.linspace(-1.0, 1.0, grid)
    h11, h12, h21, h22 = haplotype_frequencies(p1, q1, deltas)
    ok = (h11 >= 0) & (h12 >= 0) & (h21 >= 0) & (h22 >= 0)
    feasible = deltas[ok]
    return float(feasible[0]), float(feasible[-1])


def exact_t(r1, r2, s1, s2) -> float:
    """T from exact rationals, converted to float only at the final sqrt."""
    qc = Fraction(r1, r1 + r2)
    q0 = Fraction(s1, s1 + s2)
    v = q0 * (1 - q0) / (s1 + s2) + qc * (1 - qc) / (r1 + r2)
    return float(q0 - qc) / math.sqrt(v)


def exact_w_delta(r1, r2, s1, s2, delta_weight) -> float:
    """W_delta from exact rationals (the weight itself taken exactly)."""
    qc = Fraction(r1, r1 + r2)
    q0 = Fraction(s1, s1 + s2)
    dw = Fraction(delta_weight)
    r_cases = (r1 + r2) // 2
    s_controls = (s1 + s2) // 2
    m = Fraction(2 * r_cases * s_controls, r_cases + s_controls)
    m1 = dw * qc + (1 - dw) * q0
    m2 = dw * (1 - qc) + (1 - dw) * (1 - q0)
    return math.sqrt(m) * float(q0 - qc) / math.sqrt(m1 * m2)


def exact_w_cor(r1, r2, s1, s2, delta_weight, direction) -> float:
    """Continuity-corrected W_delta from exact rationals.

    The frequency difference moves by ``min(R, S) / (4*R*S)``, half a
    lattice step: toward zero (clamped there) or away from it.
    """
    qc = Fraction(r1, r1 + r2)
    q0 = Fraction(s1, s1 + s2)
    dw = Fraction(delta_weight)
    r_cases = (r1 + r2) // 2
    s_controls = (s1 + s2) // 2
    m = Fraction(2 * r_cases * s_controls, r_cases + s_controls)
    shift = Fraction(min(r_cases, s_controls), 4 * r_cases * s_controls)
    diff = q0 - qc
    if direction == "toward_zero":
        size = max(abs(diff) - shift, Fraction(0))
    else:
        size = abs(diff) + shift
    sign = (diff > 0) - (diff < 0)
    m1 = dw * qc + (1 - dw) * q0
    m2 = dw * (1 - qc) + (1 - dw) * (1 - q0)
    return math.sqrt(m) * float(sign * size) / math.sqrt(m1 * m2)


def exact_q_hat_delta(r1, r2, s1, s2, delta_weight) -> float:
    qc = Fraction(r1, r1 + r2)
    q0 = Fraction(s1, s1 + s2)
    dw = Fraction(delta_weight)
    r_cases = (r1 + r2) // 2
    s_controls = (s1 + s2) // 2
    lam = Fraction(r_cases, r_cases + s_controls)
    m1 = dw * qc + (1 - dw) * q0
    m2 = dw * (1 - qc) + (1 - dw) * (1 - q0)
    g = lam * q0 * (1 - q0) + (1 - lam) * qc * (1 - qc)
    return math.sqrt((m1 * m2) / g)


def _binom_pmf(n: int, q: float):
    """Counts of Binomial(n, q) with probability at least ``_PMF_TAIL``.

    Returns those counts, their pmf and the mass of the dropped tails. The
    pmf is scipy's, which sums to 1 within an ulp at n in the thousands (a
    log-gamma route is off by ~1e-11 relative there); imported here so that
    loading this module stays cheap.
    """
    from scipy.stats import binom

    pmf = binom.pmf(np.arange(n + 1), n, q)
    keep = np.flatnonzero(pmf >= _PMF_TAIL)
    return keep, pmf[keep], math.fsum(pmf[pmf < _PMF_TAIL])


def exact_null_rejection(
    r_cases,
    s_controls,
    q1,
    pi_hat,
    z,
    delta_weights=(),
):
    """Exact rejection probabilities under no association.

    Enumerates the (case count, control count) lattice, keeping the counts
    whose binomial pmf is at least 1e-18, and sums the binomial product
    probabilities over the rejection region of each test. Returns a dict
    keyed by test label ('T', 'W', 'W_cor', 'U', 'W_delta[d]',
    'W_cor_delta[d]') plus 'degenerate', the exact lower and upper tail
    masses for U under keys 'U_lower'/'U_upper', and under 'dropped' the
    lattice mass cut off with the pmf tails, which bounds the error of every
    other entry.
    """
    n1, n0 = 2 * r_cases, 2 * s_controls
    kr, pr, cut_r = _binom_pmf(n1, q1)
    ks, ps, cut_s = _binom_pmf(n0, q1)
    m = 2.0 * r_cases * s_controls / (r_cases + s_controls)
    lam = r_cases / (r_cases + s_controls)
    sqrt_m = math.sqrt(m)
    c = 0.5 * min(r_cases, s_controls) / (2.0 * s_controls * r_cases)
    out: dict[str, float] = {}
    acc: dict[str, float] = {}
    deg_mass = 0.0
    q0_row = ks / n0
    chunk = 512
    for i0 in range(0, kr.size, chunk):
        i1 = min(i0 + chunk, kr.size)
        qc = (kr[i0:i1] / n1)[:, None]
        q0 = q0_row[None, :]
        joint = pr[i0:i1][:, None] * ps[None, :]
        deg = (qc == 0) | (qc == 1) | (q0 == 0) | (q0 == 1)
        diff = q0 - qc
        with np.errstate(divide="ignore", invalid="ignore"):
            u0 = q0 * (1 - q0)
            u1 = qc * (1 - qc)
            t = diff / np.sqrt(u0 / n0 + u1 / n1)
            m1 = pi_hat * qc + (1 - pi_hat) * q0
            m2 = pi_hat * (1 - qc) + (1 - pi_hat) * (1 - q0)
            w = sqrt_m * diff / np.sqrt(m1 * m2)
            dcor = np.sign(diff) * np.maximum(np.abs(diff) - c, 0.0)
            w_cor = sqrt_m * dcor / np.sqrt(m1 * m2)
            q_hat = np.sqrt(m1 * m2 / (lam * u0 + (1 - lam) * u1))
            u = np.where(q_hat > 1.0, t, w)
            stats = {"T": t, "W": w, "W_cor": w_cor, "U": u}
            for dw in delta_weights:
                d1 = dw * qc + (1 - dw) * q0
                d2 = dw * (1 - qc) + (1 - dw) * (1 - q0)
                stats[f"W_delta[{dw:g}]"] = sqrt_m * diff / np.sqrt(d1 * d2)
                stats[f"W_cor_delta[{dw:g}]"] = sqrt_m * dcor / np.sqrt(d1 * d2)
        deg_mass += float(joint[deg].sum())
        for name, st in stats.items():
            mask = (~deg) & (np.abs(st) >= z)
            acc[name] = acc.get(name, 0.0) + float(joint[mask].sum())
        acc["U_lower"] = acc.get("U_lower", 0.0) + float(joint[(~deg) & (u <= -z)].sum())
        acc["U_upper"] = acc.get("U_upper", 0.0) + float(joint[(~deg) & (u >= z)].sum())
    out.update(acc)
    out["degenerate"] = deg_mass
    out["dropped"] = cut_r + cut_s - cut_r * cut_s
    return out


class LatticeLaw(NamedTuple):
    """Exact law of a statistic on the count lattice, as sorted atoms.

    ``cdf`` is the running sum of ``pmf``. ``dropped`` is the lattice mass
    cut off with the truncated pmf tails and ``degenerate`` the mass of
    cells where the statistic is undefined; the atoms carry the rest, so
    the three add up to 1.
    """

    atoms: np.ndarray
    pmf: np.ndarray
    cdf: np.ndarray
    dropped: float
    degenerate: float

    def cdf_at(self, x):
        """P(T <= x)."""
        i = np.searchsorted(self.atoms, x, side="right")
        return np.where(i > 0, self.cdf[i - 1], 0.0)

    def cdf_below(self, x):
        """P(T < x), the left limit of the CDF at x."""
        i = np.searchsorted(self.atoms, x, side="left")
        return np.where(i > 0, self.cdf[i - 1], 0.0)


def exact_null_t_law(r_cases, s_controls, q1):
    """Exact law of T under no association, by whole-lattice enumeration.

    Keeps the case and control count values whose binomial pmf is at least
    1e-18, evaluates T on every kept (case count, control count) cell and
    sorts the cells by T. Cells whose T values lie within 1e-12 of each
    other are one atom: the same real value reached from different counts
    can round to floats an ulp or two apart.
    """
    merge = 1e-12
    n1, n0 = 2 * r_cases, 2 * s_controls
    kr, pr, cut_r = _binom_pmf(n1, q1)
    ks, ps, cut_s = _binom_pmf(n0, q1)
    qc = (kr / n1)[:, None]
    q0 = (ks / n0)[None, :]
    joint = (pr[:, None] * ps[None, :]).ravel()
    deg = ((qc == 0) | (qc == 1) | (q0 == 0) | (q0 == 1)).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((q0 - qc) / np.sqrt(q0 * (1 - q0) / n0 + qc * (1 - qc) / n1)).ravel()
    keep = ~deg
    order = np.argsort(t[keep], kind="stable")
    t_sorted = t[keep][order]
    starts = np.flatnonzero(np.r_[True, np.diff(t_sorted) > merge])
    pmf = np.add.reduceat(joint[keep][order], starts)
    return LatticeLaw(
        atoms=t_sorted[starts],
        pmf=pmf,
        cdf=np.cumsum(pmf),
        dropped=cut_r + cut_s - cut_r * cut_s,
        degenerate=math.fsum(joint[deg]),
    )
