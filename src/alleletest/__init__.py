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

Each export is named once, in ``_EXPORTS``, and is loaded from its submodule
on first use (PEP 562), so ``import alleletest`` imports none of them.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "model": (
        "DegeneratePrevalenceError", "DesignConstants", "FeasibilityError", "MarkerSpec",
        "PenetranceModel", "PopulationSummary", "b_term", "causal_conditional_freqs",
        "delta_bounds", "haplotype_freqs", "marker_conditional_freqs", "population_summary",
        "prevalence", "q_term",
    ),
    "power": (
        "PowerGrid", "noncentrality", "power_grid", "power_t", "power_u", "power_w",
        "power_w_delta", "w_noncentrality",
    ),
    "sim": (
        "GenotypeDistributions", "NullSample", "SimCell", "SimConfig", "SimResult",
        "SimulationConfigError", "estimate_power", "estimate_type1", "genotype_distributions",
        "null_distribution_sample",
    ),
    "stats": (
        "AlleleCounts", "DegenerateTableError", "TestReport", "effect_size", "evaluate_counts",
        "p_value", "q_hat", "q_hat_delta", "t_statistic", "two_sided_critical_value",
        "u_statistic", "w_corrected", "w_delta_statistic", "w_statistic",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    """Import an export's submodule on first use and keep the name here. Any
    other name is missing, so ``from alleletest import sim`` imports ``sim``."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
