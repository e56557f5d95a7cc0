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
aggregation uses integer counters, which are order-insensitive. One draw
object per group (``_binomial.BinomialDraw``, numpy's ``Generator.binomial``
replayed from Philox's raw words by table lookup where numpy inverts, or
``_GenotypeDraw``) writes its counts into a caller's array, and
``_draw_block`` draws each block with them. Worker ``i`` of a run takes the
block indices ``range(i, blocks, workers)``, draws each block into one pair of
int64 buffers of its own, so a block allocates no count arrays, and tallies
it. Worker 0 runs on the calling thread, each other worker on a thread started
for it; they share only the read-only draw objects, and the run adds up their
integer tallies.

Every statistic is a function of the table ``(r1, s1)`` alone, so the tally
evaluates each distinct table once, at every weight in one kernel call, and
weights its rejections by the number of replicates that drew it. Tables are
keyed ``r1 * (2S + 1) + s1``. Each block counts its distinct tables, in a
histogram over the box its draws fill where that box has at most one block's
cells, else by sorting. Each worker pools its blocks' counts and runs the
statistics once per block's worth of pooled tables, so once per worker for
rare-marker and small designs.
"""

from __future__ import annotations

import json
import math
import operator
import threading
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._binomial import BinomialDraw
from .model import (
    DesignConstants,
    MarkerSpec,
    PenetranceModel,
    check_frequency,
    check_prevalence,
    check_weight,
    haplotype_freqs,
    marker_conditional_freqs,
)
from .stats import statistic_arrays, two_sided_critical_value

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
    """Simulation request inconsistent in itself or with the estimator run."""


def _weight_label(delta_weight: float) -> str:
    """A delta weight as cell labels print it."""
    return f"{delta_weight:g}"


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run (everything but the worker count).

    Identical configs, including the seed, produce bit-identical results;
    the degree of parallelism is deliberately not part of the config. The
    delta-weighted tests come with ``delta_weights`` and only with them; W_cor
    is corrected toward zero.
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
        check_frequency("pi_hat", self.pi_hat)
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed!r}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications!r}")
        r, s = self.design.r_cases, self.design.s_controls
        # The tally keys each table r1 * (2S + 1) + s1 in int64, which is
        # below (2R + 1) * (2S + 1).
        if (2 * r + 1) * (2 * s + 1) > np.iinfo(np.int64).max:
            raise ValueError(
                f"design R={r}, S={s} is too large to simulate: (2R+1)*(2S+1) must fit in int64"
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
        if any(t in DELTA_TESTS for t in self.tests) != bool(self.delta_weights):
            raise SimulationConfigError(
                f"delta-weighted tests {DELTA_TESTS} and delta weights come together; "
                f"got tests {self.tests} and delta weights {self.delta_weights}"
            )
        # Cells are reported by label, so no two weights may print alike.
        labels = [_weight_label(d) for d in self.delta_weights]
        for name, values in (("tests", self.tests), ("alphas", self.alphas),
                             ("delta_weights", self.delta_weights), ("delta_weights", labels)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} repeats {repeated[0]!r}")


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
        return f"{self.test}[{_weight_label(self.delta_weight)}]"


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
            if (c.test, c.alpha, c.delta_weight) == (test, alpha, delta_weight):
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


class _GenotypeDraw:
    """One group's M1 allele counts, ``people`` drawn from the genotype law
    ``probs`` (0, 1 or 2 copies); the interface of ``BinomialDraw``."""

    def __init__(self, people: int, probs: np.ndarray) -> None:
        self.people = people
        self.probs = probs

    def __call__(self, gen: np.random.Generator, out: np.ndarray) -> None:
        """Write ``out.size`` groups' counts into the int64 array ``out``."""
        copies = gen.multinomial(self.people, self.probs, size=out.size)
        np.multiply(copies[:, 2], 2, out=out)
        out += copies[:, 1]


def _make_draws(config: SimConfig) -> tuple:
    """The case and control draws of one run, shared read-only by all blocks."""
    r, s = config.design.r_cases, config.design.s_controls
    if config.mode == "genotype":
        dists = genotype_distributions(config.model, config.marker)
        return _GenotypeDraw(r, dists.case), _GenotypeDraw(s, dists.control)
    q1_case, q1_ctrl = marker_conditional_freqs(config.model, config.marker)
    return BinomialDraw(2 * r, q1_case), BinomialDraw(2 * s, q1_ctrl)


def _draw_block(
    config: SimConfig, draws: tuple, block: int, pair: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The M1 counts ``(r1, s1)`` of one block, drawn into the front of the two
    rows of the int64 ``pair``: cases, then controls, on the block's stream.
    ``pair`` holds ``min(_BLOCK, replications)`` columns; a narrower one draws
    only its own width."""
    size = min(_BLOCK, config.replications - block * _BLOCK)
    gen = _stream(config.seed, block)
    out = pair[0, :size], pair[1, :size]
    for draw, counts in zip(draws, out):
        draw(gen, counts)
    return out


def _labels(config: SimConfig) -> list[tuple[str, float | None]]:
    """Expand the requested tests over the delta-weight list, in stable order."""
    out: list[tuple[str, float | None]] = []
    for test in config.tests:
        if test in DELTA_TESTS:
            out.extend((test, d) for d in config.delta_weights)
        else:
            out.append((test, None))
    return out


def _run_shares(config: SimConfig, workers: int, work, *args) -> list:
    """``work(config, draws, share, *args)`` for each worker's share of the run's
    blocks, in worker order; ``draws`` are the run's draw objects, which the
    workers share read-only. Worker ``i``'s share is ``range(i, blocks, workers)``;
    share 0 runs on the calling thread, each other share on a thread of its own."""
    if isinstance(workers, bool) or not hasattr(workers, "__index__"):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    draws = _make_draws(config)
    blocks = -(-config.replications // _BLOCK)
    shares = [range(i, blocks, workers) for i in range(min(workers, blocks))]
    results, threads = [None] * len(shares), []

    def run(i):
        try:
            results[i] = work(config, draws, shares[i], *args)
        except BaseException as exc:  # raised on the calling thread, after the joins
            results[i] = exc

    try:
        for i in range(1, len(shares)):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def _count_tables(r1: np.ndarray, s1: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct tables of one block's counts ``(r1, s1)``, keyed ``r1 * width
    + s1`` in ascending order, and how often each was drawn. Where the box the
    draws fill has at most ``_BLOCK`` cells they are counted in a histogram over
    it, else sorted. ``r1`` is overwritten."""
    r_hi, s_hi = int(r1.max()), int(s1.max())
    r_lo = s_lo = 0
    if (r_hi + 1) * (s_hi + 1) > _BLOCK:  # else a box from 0 will do (rare markers)
        r_lo, s_lo = int(r1.min()), int(s1.min())
    box_width = s_hi - s_lo + 1
    box = (r_hi - r_lo + 1) * box_width
    if box > _BLOCK:
        r1 *= width
        r1 += s1
        return np.unique(r1, return_counts=True)
    r1 *= box_width  # the table's cell in the box, row-major, in place
    r1 += s1
    r1 -= r_lo * box_width + s_lo
    hist = np.bincount(r1, minlength=box)
    cells = np.flatnonzero(hist)
    rows, cols = np.divmod(cells, box_width)
    return (rows + r_lo) * width + cols + s_lo, hist[cells]


def _tally_tables(
    config: SimConfig,
    labels: list[tuple[str, float | None]],
    z_values: np.ndarray,
    keys: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Rejections per (label, level) and degenerate replicates of the distinct
    tables keyed ``r1 * (2S + 1) + s1``, drawn ``counts`` times: each table is
    evaluated once, as a row, at the weight column ``(pi_hat, *delta_weights)``."""
    r1, s1 = np.divmod(keys[None, :], 2 * config.design.s_controls + 1)
    weights = (config.pi_hat, *config.delta_weights)
    arrays = statistic_arrays(
        r1, 2 * config.design.r_cases, s1, 2 * config.design.s_controls,
        np.array(weights)[:, None],
    )
    stats = np.stack([  # W_delta and W_cor_delta are the W and W_cor rows of their weight
        getattr(arrays, test.lower().removesuffix("_delta"))[0 if dw is None else weights.index(dw)]
        for test, dw in labels
    ])
    # NaN (degenerate) never rejects; the sums are exact, in int64.
    rejected = np.abs(stats)[:, None] >= z_values[:, None]
    return np.einsum("tak,k->ta", rejected, counts), int(counts @ arrays.degenerate[0])


def _tally_share(
    config: SimConfig,
    draws: tuple,
    share: range,
    labels: list[tuple[str, float | None]],
    z_values: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Rejections per (label, level) and degenerate replicates of one worker's
    ``share`` of the blocks, each drawn into the same pair of int64 buffers. The
    pool of the blocks' tables is tallied, each distinct table once, when it holds
    ``_BLOCK`` entries and after the share's last block; the int64 sums are exact."""
    pair = np.empty((2, min(_BLOCK, config.replications)), dtype=np.int64)
    width = 2 * config.design.s_controls + 1
    total = np.zeros((len(labels), len(z_values)), dtype=np.int64)
    degenerate = 0
    pool = []
    for i, block in enumerate(share, 1):
        r1, s1 = _draw_block(config, draws, block, pair)
        pool.append(_count_tables(r1, s1, width))
        if i < len(share) and sum(k.size for k, _ in pool) < _BLOCK:
            continue
        keys, counts = map(np.concatenate, zip(*pool))
        keys, where = np.unique(keys, return_inverse=True)
        sums = np.zeros(keys.size, dtype=np.int64)
        np.add.at(sums, where, counts)
        rejections, ndeg = _tally_tables(config, labels, z_values, keys, sums)
        total += rejections
        degenerate += ndeg
        pool = []
    return total, degenerate


def _run(config: SimConfig, kind: str, workers: int) -> SimResult:
    start = time.perf_counter()
    labels = _labels(config)
    z_values = np.array([two_sided_critical_value(a) for a in config.alphas])
    total, degenerate = map(sum, zip(*_run_shares(config, workers, _tally_share, labels, z_values)))
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


def _fill_share(config: SimConfig, draws: tuple, share: range, sample: NullSample) -> None:
    """Write the statistics of one worker's ``share`` of the blocks, each drawn
    into the same pair of int64 buffers, into their slices of ``sample``."""
    pair = np.empty((2, min(_BLOCK, config.replications)), dtype=np.int64)
    n1, n0 = 2 * config.design.r_cases, 2 * config.design.s_controls
    for block in share:
        r1, s1 = _draw_block(config, draws, block, pair)
        arrays = statistic_arrays(r1, n1, s1, n0, config.pi_hat)
        start = block * _BLOCK
        for field in fields(NullSample):
            getattr(sample, field.name)[start:start + r1.size] = getattr(arrays, field.name)


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
    n = config.replications
    sample = NullSample(t=np.empty(n), w=np.empty(n), u=np.empty(n), q_hat=np.empty(n),
                        degenerate=np.empty(n, dtype=bool))
    _run_shares(config, workers, _fill_share, sample)
    return sample
