"""Exact spectral-test analysis and construction of maximum-period LCGs."""

from .builder import (
    BuiltGenerator,
    MultiplierRecipe,
    ValidationReport,
    build_range,
    validate,
)
from .empirical import FrequencyReport, dump_sequence, frequency_test
from .errors import (
    BudgetExceeded,
    DimensionTooLarge,
    EmptyBox,
    ExpressionError,
    InvalidParams,
    LambdaInvalid,
    LcgspecError,
    NoPotential,
    PeriodBroken,
    PeriodViolation,
    PotentialOne,
    TooSmall,
)
from .exprparse import parse_endpoint, parse_int_expr
from .lattice import (
    LatticeBasis,
    ShortestVectorResult,
    brute_force_shortest,
    dual_basis,
    lll_reduce,
    shortest_vector,
)
from .lcg import (
    LcgParams,
    MaxPeriodReport,
    PotentialProfile,
    check_max_period,
    compute_potential,
)
from .spectral import (
    SpectralResult,
    TheoremBounds,
    b_coefficient,
    merit,
    spectral_profile,
    spectral_test,
    theorem_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BuiltGenerator",
    "BudgetExceeded",
    "DimensionTooLarge",
    "EmptyBox",
    "ExpressionError",
    "FrequencyReport",
    "InvalidParams",
    "LambdaInvalid",
    "LatticeBasis",
    "LcgParams",
    "LcgspecError",
    "MaxPeriodReport",
    "MultiplierRecipe",
    "NoPotential",
    "PeriodBroken",
    "PeriodViolation",
    "PotentialOne",
    "PotentialProfile",
    "ShortestVectorResult",
    "SpectralResult",
    "TheoremBounds",
    "TooSmall",
    "ValidationReport",
    "b_coefficient",
    "brute_force_shortest",
    "build_range",
    "check_max_period",
    "compute_potential",
    "dual_basis",
    "dump_sequence",
    "frequency_test",
    "lll_reduce",
    "merit",
    "parse_endpoint",
    "parse_int_expr",
    "shortest_vector",
    "spectral_profile",
    "spectral_test",
    "theorem_bounds",
    "validate",
]
