"""Allele-based case-control association tests, power, and calibration.

The classic allele test compares case and control marker allele frequencies
standardized by their binomial variance, which makes common markers easier
to detect than rare ones. This package implements that test alongside a
prevalence-standardized alternative whose power is roughly flat in the
marker allele frequency, a weighted generalization, a continuity-corrected
form, and a per-marker combination of the two; plus their closed-form
asymptotic power functions, the underlying two-locus LD population model,
and a seeded, parallelism-proof Monte Carlo engine for type-I-error and
power calibration.
"""

from .model import (
    DegeneratePrevalenceError,
    DesignConstants,
    FeasibilityError,
    MarkerSpec,
    PenetranceModel,
    PopulationSummary,
    b_term,
    causal_conditional_freqs,
    delta_bounds,
    haplotype_freqs,
    marker_conditional_freqs,
    population_summary,
    prevalence,
    q_term,
)
from .power import (
    PowerGrid,
    noncentrality,
    power_grid,
    power_t,
    power_u,
    power_w,
    power_w_delta,
    w_noncentrality,
)
from .sim import (
    GenotypeDistributions,
    NullSample,
    SimCell,
    SimConfig,
    SimResult,
    SimulationConfigError,
    estimate_power,
    estimate_type1,
    genotype_distributions,
    null_distribution_sample,
)
from .stats import (
    AlleleCounts,
    DegenerateTableError,
    TestReport,
    effect_size,
    evaluate_counts,
    p_value,
    q_hat,
    q_hat_delta,
    t_statistic,
    two_sided_critical_value,
    u_statistic,
    w_corrected,
    w_delta_statistic,
    w_statistic,
)

__version__ = "0.1.0"

__all__ = [
    "AlleleCounts",
    "DegeneratePrevalenceError",
    "DegenerateTableError",
    "DesignConstants",
    "FeasibilityError",
    "GenotypeDistributions",
    "MarkerSpec",
    "NullSample",
    "PenetranceModel",
    "PopulationSummary",
    "PowerGrid",
    "SimCell",
    "SimConfig",
    "SimResult",
    "SimulationConfigError",
    "TestReport",
    "b_term",
    "causal_conditional_freqs",
    "delta_bounds",
    "effect_size",
    "estimate_power",
    "estimate_type1",
    "evaluate_counts",
    "genotype_distributions",
    "haplotype_freqs",
    "marker_conditional_freqs",
    "noncentrality",
    "null_distribution_sample",
    "p_value",
    "population_summary",
    "power_grid",
    "power_t",
    "power_u",
    "power_w",
    "power_w_delta",
    "prevalence",
    "q_hat",
    "q_hat_delta",
    "q_term",
    "t_statistic",
    "two_sided_critical_value",
    "u_statistic",
    "w_corrected",
    "w_delta_statistic",
    "w_noncentrality",
    "w_statistic",
    "__version__",
]
