"""Tilted measures, Edgeworth expansions, and conditional laws of
independent, non-identically-distributed sums.

The toolkit solves the tilting equation mean(grad kappa_j)(theta) = a,
expands normalized sum densities to Edgeworth order 1, evaluates
conditional densities given the total sum, and estimates the total
variation distance between the conditioned block law and the product of
tilted members, whose leading behaviour is O(k/n) for block size k = o(n).
"""

import importlib

# public name -> the module that defines it; a name is imported on first
# access (PEP 562), so that `import tiltedsums.cli` loads only what a
# subcommand runs
_SOURCES = {
    "checks": (
        "AssumptionReport", "CheckResult", "ThetaBox", "check_am4", "check_cf3", "check_cf_decay",
        "check_cv", "check_uf", "run_assumption_checks", "theta_box_from_solutions",
    ),
    "conditional": (
        "RatioContext", "conditional_density", "gibbs_density", "normalized_exact_density",
        "tilting_invariance_check",
    ),
    "config": ("ExperimentConfig", "k_for", "parse_config", "parse_config_file"),
    "edgeworth": (
        "EdgeworthModel", "build_model", "default_grid", "edgeworth_density", "third_cumulant",
        "weighted_sup_error",
    ),
    "errors": (
        "ConditioningError", "ConfigError", "DegenerateCovarianceError", "NonConvergenceError",
        "OutOfDomainError", "TiltedSumsError", "UndefinedConditionalError", "UnsupportedFamilyError",
    ),
    "families": ("Family", "GammaFamily", "NormalFamily", "gamma_family", "normal_family"),
    "sweep": ("ScalingFit", "SweepRow", "emit_report", "fit_scaling", "run_sweep"),
    "tilting": ("TiltingSolution", "solve_tilt", "tilt_oracle"),
    "tv": ("TVEstimate", "chi2_sf", "df_gamma_constant", "g_d", "tv_joint_mc", "tv_scheffe", "tv_sum_mc"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)
