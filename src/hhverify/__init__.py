"""hhverify: numerical verification of Hermite-Hadamard-type trapezoid-gap
bounds for s-geometrically convex functions, with special-means corollary
checks, convexity-class predicates, and a sweep harness.
"""

from .bounds import (alpha_ratio, factor_abs, factor_holder, factor_power_mean,
                     gap_integral_form, rhs_eq8, rhs_eq9, rhs_eq10, rhs_eq11,
                     rhs_eq111, trapezoid_mean_gap)
from .convexity import (ClassCheckConfig, CheckResult, HypothesisReport,
                        Witness, is_convex, is_geometrically_convex,
                        is_monotone_decreasing, is_s_convex,
                        is_s_geometrically_convex, theorem_hypotheses)
from .gfuncs import GValue, g_full, g_lower, g_upper
from .models import (FunctionModel, exp_model, make_model, model_from_expr,
                     power_model)
from .quadrature import QuadResult, integrate, mean_integral
from .records import BoundRecord, CSV_COLUMNS, VERDICTS
from .sweep import (THEOREM_TAGS, SweepConfig, Tolerances, default_config,
                    load_config, parse_config, run_sweep, summarize)
from .tightness import TightnessResult, optimize_tightness

__version__ = "0.1.0"

__all__ = [
    "alpha_ratio", "factor_abs", "factor_holder", "factor_power_mean",
    "gap_integral_form", "rhs_eq8", "rhs_eq9", "rhs_eq10", "rhs_eq11",
    "rhs_eq111", "trapezoid_mean_gap",
    "ClassCheckConfig", "CheckResult", "HypothesisReport", "Witness",
    "is_convex", "is_geometrically_convex",
    "is_monotone_decreasing", "is_s_convex", "is_s_geometrically_convex",
    "theorem_hypotheses",
    "GValue", "g_full", "g_lower", "g_upper",
    "FunctionModel", "exp_model", "make_model", "model_from_expr",
    "power_model",
    "QuadResult", "integrate", "mean_integral",
    "BoundRecord", "CSV_COLUMNS", "THEOREM_TAGS", "VERDICTS",
    "SweepConfig", "Tolerances", "default_config", "load_config",
    "parse_config", "run_sweep", "summarize",
    "TightnessResult", "optimize_tightness",
    "__version__",
]
