"""Seeded Monte Carlo engine: type-I-error and power estimation.

Replications draw case/control allele counts under the two-locus model and
tally, per test and significance level, how often the null hypothesis is
rejected. Two sampling modes are provided:

* ``allele`` (default): M1 counts are binomial draws at the case/control
  conditional frequencies, matching the variance model behind the T
  statistic.
* ``genotype``: individuals are drawn from the exact marker-genotype
  distributions among cases and controls and their alleles counted. After
  conditioning on disease status the two alleles of one individual are
  dependent unless the risk model is multiplicative, so this mode serves as
  an independent check on the allele-level shortcut. Under no LD the two
  modes coincide in distribution.

Reproducibility contract: replications are processed in fixed-size blocks,
each with its own counter-based random stream keyed by ``(seed, block)``.
The draws of replication ``i`` therefore depend only on ``(seed, i)``, and
results are bit-identical no matter how many workers process the blocks;
aggregation uses integer counters, which are order-insensitive.

Every statistic is a function of the table ``(r1, s1)`` alone, so a block's
tally evaluates each distinct table once and weights its rejections by the
number of replicates that drew it.
"""

from __future__ import annotations

import json
import math
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .model import (
    DesignConstants,
    MarkerSpec,
    PenetranceModel,
    check_prevalence,
    check_weight,
    haplotype_freqs,
    marker_conditional_freqs,
)
from .stats import (
    CORRECTION_DIRECTIONS,
    MAX_ALLELE_TOTAL,
    StatArrays,
    _check_pi_hat,
    statistic_arrays,
    two_sided_critical_value,
)

__all__ = [
    "SimulationConfigError",
    "SimConfig",
    "SimCell",
    "SimResult",
    "NullSample",
    "GenotypeDistributions",
    "BASE_TESTS",
    "DELTA_TESTS",
    "ALL_TESTS",
    "MODES",
    "genotype_distributions",
    "estimate_type1",
    "estimate_power",
    "null_distribution_sample",
]

BASE_TESTS = ("T", "W", "W_cor", "U")
DELTA_TESTS = ("W_delta", "W_cor_delta")
ALL_TESTS = BASE_TESTS + DELTA_TESTS
MODES = ("allele", "genotype")

_BLOCK = 1 << 16
_RNG_DESCRIPTION = f"philox4x64 keyed by (seed, block), block size {_BLOCK}"


class SimulationConfigError(ValueError):
    """Simulation request inconsistent with the estimator being run."""


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run (everything but the worker count).

    Identical configs, including the seed, produce bit-identical results;
    the degree of parallelism is deliberately not part of the config.
    """

    model: PenetranceModel
    marker: MarkerSpec
    design: DesignConstants
    pi_hat: float
    replications: int
    alphas: tuple[float, ...]
    delta_weights: tuple[float, ...] = ()
    tests: tuple[str, ...] = BASE_TESTS
    mode: str = "allele"
    seed: int = 0
    correction_direction: str = "toward_zero"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(
            self, "delta_weights", tuple(float(d) for d in self.delta_weights)
        )
        object.__setattr__(self, "tests", tuple(self.tests))
        for name in ("seed", "replications"):
            value = getattr(self, name)
            # A float or bool seed would key the same Philox stream as its int.
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        _check_pi_hat(self.pi_hat)
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed!r}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications!r}")
        r, s = self.design.r_cases, self.design.s_controls
        # The block tally keys each table by r1 * (2S + 1) + s1 in int64.
        if 2 * max(r, s) > MAX_ALLELE_TOTAL or (2 * r + 1) * (2 * s + 1) > np.iinfo(np.int64).max:
            raise ValueError(
                f"design R={r}, S={s} is too large to simulate: 2R and 2S may not "
                f"exceed {MAX_ALLELE_TOTAL} and (2R+1)*(2S+1) must fit in int64"
            )
        if not self.alphas:
            raise ValueError("at least one significance level is required")
        for a in self.alphas:
            if not 0.0 < a <= 1.0:
                raise ValueError(f"alpha must lie in (0, 1], got {a!r}")
        for d in self.delta_weights:
            check_weight("delta_weight", d)
        unknown = set(self.tests) - set(ALL_TESTS)
        if unknown:
            raise ValueError(f"unknown tests {sorted(unknown)}; choose from {ALL_TESTS}")
        if not self.tests:
            raise ValueError("at least one test is required")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("tests", "alphas", "delta_weights"):
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} repeats {repeated[0]!r}")
        if self.correction_direction not in CORRECTION_DIRECTIONS:
            raise ValueError(
                f"correction_direction must be one of {CORRECTION_DIRECTIONS}, "
                f"got {self.correction_direction!r}"
            )


@dataclass(frozen=True)
class SimCell:
    """Rejection tally for one (test, delta_weight, alpha) combination."""

    test: str
    delta_weight: float | None
    alpha: float
    rejections: int
    fraction: float
    se: float

    @property
    def label(self) -> str:
        if self.delta_weight is None:
            return self.test
        return f"{self.test}[{self.delta_weight:g}]"


@dataclass(frozen=True)
class SimResult:
    """Aggregated simulation outcome plus reproducibility metadata."""

    kind: str
    replications: int
    degenerate_replicates: int
    mode: str
    seed: int
    rng: str
    q1: float
    delta: float
    r_cases: int
    s_controls: int
    pi_hat: float
    cells: tuple[SimCell, ...]
    wall_time_s: float

    def cell(
        self, test: str, alpha: float, delta_weight: float | None = None
    ) -> SimCell:
        for c in self.cells:
            if (
                c.test == test
                and c.alpha == alpha
                and (
                    (c.delta_weight is None and delta_weight is None)
                    or (
                        c.delta_weight is not None
                        and delta_weight is not None
                        and math.isclose(c.delta_weight, delta_weight)
                    )
                )
            ):
                return c
        raise KeyError(f"no cell for test={test!r}, alpha={alpha!r}, delta_weight={delta_weight!r}")

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(asdict(self), indent=indent)

    def to_tsv(self) -> str:
        """Long-format table: one row per (test, alpha)."""
        lines = ["test\talpha\tfraction\tse\treplications"]
        for c in self.cells:
            lines.append(
                f"{c.label}\t{c.alpha:.17g}\t{c.fraction:.17g}\t{c.se:.17g}"
                f"\t{self.replications}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NullSample:
    """Raw statistic draws under no association, for QQ-style diagnostics."""

    t: np.ndarray
    w: np.ndarray
    u: np.ndarray
    q_hat: np.ndarray
    degenerate: np.ndarray


@dataclass(frozen=True)
class GenotypeDistributions:
    """Marker-genotype laws (number of M1 copies: 0, 1, 2) by disease status."""

    case: np.ndarray
    control: np.ndarray


def _stream(seed: int, block: int) -> np.random.Generator:
    """Counter-based stream for one replication block."""
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(replications: int) -> Iterator[tuple[int, int, int]]:
    """Yield (block index, start, size) covering all replications."""
    for b in range(0, (replications + _BLOCK - 1) // _BLOCK):
        start = b * _BLOCK
        yield b, start, min(_BLOCK, replications - start)


def genotype_distributions(
    model: PenetranceModel, marker: MarkerSpec
) -> GenotypeDistributions:
    """Exact marker-genotype distributions among cases and among controls.

    Enumerates ordered pairs of the four haplotypes under random mating,
    applies the disease risk of the causal genotype, conditions on status by
    Bayes and marginalizes to the number of M1 copies. The allele-frequency
    marginal of each vector reproduces the conditional marker frequencies.
    """
    haps = haplotype_freqs(model, marker)
    pi = check_prevalence(model)
    pens = {
        (1, 1): model.pen11,
        (1, 2): model.pen12,
        (2, 1): model.pen12,
        (2, 2): model.pen22,
    }
    labels = ((1, 1), (1, 2), (2, 1), (2, 2))  # (causal allele, marker allele)
    case = np.zeros(3)
    ctrl = np.zeros(3)
    for (a_i, m_i), h_i in zip(labels, haps):
        for (a_j, m_j), h_j in zip(labels, haps):
            pair = h_i * h_j
            risk = pens[(a_i, a_j)]
            copies = (m_i == 1) + (m_j == 1)
            case[copies] += pair * risk
            ctrl[copies] += pair * (1.0 - risk)
    return GenotypeDistributions(case=case / pi, control=ctrl / (1.0 - pi))


@dataclass(frozen=True)
class _Sampler:
    """Precomputed sampling law shared by all blocks of one run."""

    mode: str
    r_alleles: int
    s_alleles: int
    r_cases: int
    s_controls: int
    q1_case: float
    q1_ctrl: float
    case_probs: np.ndarray | None
    ctrl_probs: np.ndarray | None

    def draw(self, gen: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self.mode == "allele":
            r1 = gen.binomial(self.r_alleles, self.q1_case, size=n)
            s1 = gen.binomial(self.s_alleles, self.q1_ctrl, size=n)
        else:
            cg = gen.multinomial(self.r_cases, self.case_probs, size=n)
            sg = gen.multinomial(self.s_controls, self.ctrl_probs, size=n)
            r1 = cg[:, 1] + 2 * cg[:, 2]
            s1 = sg[:, 1] + 2 * sg[:, 2]
        return r1, s1


def _make_sampler(config: SimConfig) -> _Sampler:
    q1_case, q1_ctrl = marker_conditional_freqs(config.model, config.marker)
    case_probs = ctrl_probs = None
    if config.mode == "genotype":
        dists = genotype_distributions(config.model, config.marker)
        case_probs, ctrl_probs = dists.case, dists.control
    return _Sampler(
        mode=config.mode,
        r_alleles=2 * config.design.r_cases,
        s_alleles=2 * config.design.s_controls,
        r_cases=config.design.r_cases,
        s_controls=config.design.s_controls,
        q1_case=q1_case,
        q1_ctrl=q1_ctrl,
        case_probs=case_probs,
        ctrl_probs=ctrl_probs,
    )


def _labels(config: SimConfig) -> list[tuple[str, float | None]]:
    """Expand the requested tests over the delta-weight list, in stable order."""
    out: list[tuple[str, float | None]] = []
    for test in config.tests:
        if test in DELTA_TESTS:
            out.extend((test, d) for d in config.delta_weights)
        else:
            out.append((test, None))
    return out


def _block_stats(config: SimConfig, sampler: _Sampler, r1, s1, weights) -> StatArrays:
    """Evaluate the tables ``(r1, s1)`` of one run; degenerate ones hold NaN."""
    n1, n0 = sampler.r_alleles, sampler.s_alleles
    direction = config.correction_direction
    return statistic_arrays(r1, n1, s1, n0, config.pi_hat, weights, direction)


def _map_blocks(fn, blocks, workers: int) -> list:
    """``fn(block, start, size)`` over ``blocks`` in order, on ``workers`` threads."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if workers == 1:
        return [fn(*blk) for blk in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda blk: fn(*blk), blocks))


def _tally_block(
    config: SimConfig,
    sampler: _Sampler,
    labels: list[tuple[str, float | None]],
    z_values: np.ndarray,
    block: int,
    size: int,
) -> tuple[np.ndarray, int]:
    """Draw one block; evaluate each distinct table once, weighted by its count."""
    r1, s1 = sampler.draw(_stream(config.seed, block), size)
    stride = sampler.s_alleles + 1
    cells, counts = np.unique(r1 * stride + s1, return_counts=True)
    r1, s1 = np.divmod(cells, stride)
    arrays = _block_stats(config, sampler, r1, s1, config.delta_weights)
    weights = counts.astype(np.float64)  # exact: a block has at most 2**16 replicates
    rejections = np.empty((len(labels), len(z_values)), dtype=np.int64)
    for i, (test, dw) in enumerate(labels):
        stat = getattr(arrays, test.lower())  # the StatArrays field of each test
        magnitude = np.abs(stat if dw is None else stat[dw])
        # NaN (degenerate) never rejects.
        rejections[i] = (magnitude >= z_values[:, None]) @ weights
    return rejections, int(counts @ arrays.degenerate)


def _run(config: SimConfig, kind: str, workers: int) -> SimResult:
    start = time.perf_counter()
    sampler = _make_sampler(config)
    labels = _labels(config)
    if not labels:
        raise SimulationConfigError(
            "delta-weighted tests were requested but no delta weights are configured"
        )
    z_values = np.array([two_sided_critical_value(a) for a in config.alphas])
    total = np.zeros((len(labels), len(z_values)), dtype=np.int64)
    degenerate = 0
    for rej, ndeg in _map_blocks(
        lambda b, _, size: _tally_block(config, sampler, labels, z_values, b, size),
        _blocks(config.replications),
        workers,
    ):
        total += rej
        degenerate += ndeg
    cells = []
    n = config.replications
    for i, (test, dw) in enumerate(labels):
        for j, alpha in enumerate(config.alphas):
            count = int(total[i, j])
            frac = count / n
            cells.append(
                SimCell(
                    test=test,
                    delta_weight=dw,
                    alpha=alpha,
                    rejections=count,
                    fraction=frac,
                    se=math.sqrt(frac * (1.0 - frac) / n),
                )
            )
    return SimResult(
        kind=kind,
        replications=n,
        degenerate_replicates=degenerate,
        mode=config.mode,
        seed=config.seed,
        rng=_RNG_DESCRIPTION,
        q1=config.marker.q1,
        delta=config.marker.delta,
        r_cases=config.design.r_cases,
        s_controls=config.design.s_controls,
        pi_hat=config.pi_hat,
        cells=tuple(cells),
        wall_time_s=time.perf_counter() - start,
    )


def estimate_type1(config: SimConfig, workers: int = 1) -> SimResult:
    """Estimate type I error: rejection fractions under no association.

    Requires ``marker.delta == 0`` (the null hypothesis); degenerate
    replicates count as non-rejections and are tallied separately.
    """
    if config.marker.delta != 0.0:
        raise SimulationConfigError(
            f"type-I-error estimation requires delta=0, got {config.marker.delta!r}"
        )
    return _run(config, "type1", workers)


def estimate_power(config: SimConfig, workers: int = 1) -> SimResult:
    """Estimate empirical power: rejection fractions under the configured LD.

    With ``marker.delta == 0`` this reduces to a type-I-error estimate.
    Requires at least 1000 replications; below that the rejection fractions
    carry no usable information at the levels of interest.
    """
    if config.replications < 1000:
        raise ValueError(
            f"power estimation requires >= 1000 replications, got {config.replications}"
        )
    return _run(config, "power", workers)


def null_distribution_sample(config: SimConfig, workers: int = 1) -> NullSample:
    """Raw T, W, U and q_hat draws under no association, in replication order.

    Degenerate replicates hold NaN in the statistic slots and are marked in
    the boolean mask. The output is suitable for QQ plots and tail
    diagnostics, e.g. the one-tailed departure of U where ``q_hat < 1``.
    """
    if config.marker.delta != 0.0:
        raise SimulationConfigError(
            f"null sampling requires delta=0, got {config.marker.delta!r}"
        )
    sampler = _make_sampler(config)
    n = config.replications
    t = np.empty(n)
    w = np.empty(n)
    u = np.empty(n)
    qh = np.empty(n)
    deg = np.empty(n, dtype=bool)

    def fill(block: int, start: int, size: int) -> None:
        r1, s1 = sampler.draw(_stream(config.seed, block), size)
        arrays = _block_stats(config, sampler, r1, s1, ())
        sl = slice(start, start + size)
        t[sl] = arrays.t
        w[sl] = arrays.w
        u[sl] = arrays.u
        qh[sl] = arrays.q_hat
        deg[sl] = arrays.degenerate

    _map_blocks(fill, _blocks(n), workers)
    return NullSample(t=t, w=w, u=u, q_hat=qh, degenerate=deg)
