"""Tilted measures, Edgeworth expansions, and conditional laws of
independent, non-identically-distributed sums.

The toolkit solves the tilting equation mean(grad kappa_j)(theta) = a,
expands normalized sum densities to Edgeworth order 1, evaluates
conditional densities given the total sum, and estimates the total
variation distance between the conditioned block law and the product of
tilted members, whose leading behaviour is O(k/n) for block size k = o(n).
"""

from .checks import (
    AssumptionReport,
    CheckResult,
    ThetaBox,
    check_am4,
    check_cf3,
    check_cf_decay,
    check_cv,
    check_uf,
    run_assumption_checks,
    theta_box_from_solutions,
)
from .conditional import (
    RatioContext,
    conditional_density,
    gibbs_density,
    normalized_exact_density,
    tilting_invariance_check,
)
from .config import ExperimentConfig, k_for, parse_config, parse_config_file
from .edgeworth import (
    EdgeworthModel,
    build_model,
    default_grid,
    edgeworth_density,
    third_cumulant,
    weighted_sup_error,
)
from .errors import (
    ConditioningError,
    ConfigError,
    DegenerateCovarianceError,
    NonConvergenceError,
    OutOfDomainError,
    TiltedSumsError,
    UndefinedConditionalError,
    UnsupportedFamilyError,
)
from .families import Family, GammaFamily, NormalFamily, gamma_family, normal_family
from .sweep import ScalingFit, SweepRow, emit_report, fit_scaling, run_sweep
from .tilting import TiltingSolution, solve_tilt, tilt_oracle
from .tv import TVEstimate, df_gamma_constant, tv_joint_mc, tv_scheffe, tv_sum_mc

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "CheckResult",
    "ConditioningError",
    "ConfigError",
    "DegenerateCovarianceError",
    "EdgeworthModel",
    "ExperimentConfig",
    "Family",
    "GammaFamily",
    "NonConvergenceError",
    "NormalFamily",
    "OutOfDomainError",
    "RatioContext",
    "ScalingFit",
    "SweepRow",
    "ThetaBox",
    "TiltedSumsError",
    "TiltingSolution",
    "TVEstimate",
    "UndefinedConditionalError",
    "UnsupportedFamilyError",
    "build_model",
    "check_am4",
    "check_cf3",
    "check_cf_decay",
    "check_cv",
    "check_uf",
    "conditional_density",
    "default_grid",
    "df_gamma_constant",
    "edgeworth_density",
    "emit_report",
    "fit_scaling",
    "gamma_family",
    "gibbs_density",
    "k_for",
    "normal_family",
    "normalized_exact_density",
    "parse_config",
    "parse_config_file",
    "run_assumption_checks",
    "run_sweep",
    "solve_tilt",
    "theta_box_from_solutions",
    "third_cumulant",
    "tilt_oracle",
    "tilting_invariance_check",
    "tv_joint_mc",
    "tv_scheffe",
    "tv_sum_mc",
    "weighted_sup_error",
]
