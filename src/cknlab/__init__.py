"""Numerical laboratory for weighted second-order functional inequalities.

Closed-form mode quotients, high-accuracy quadrature of the underlying
functionals, variational minimization over nested bases, and a CLI for
scans and conjecture probes.
"""

from .constants import (
    FAMILY_IDS,
    FORMULA_GENERAL,
    FORMULA_PLAIN,
    FORMULA_WEIGHTED,
    BoundsReport,
    ClosedFormConstant,
    InequalityParams,
    ModeInfimumResult,
    ModeQuotient,
    hardy_step_factor,
    mode_infimum,
    mode_quotient_plain,
    mode_quotient_weighted,
    reference_constants,
    sharp_constant_closed_form,
    symmetry_breaking_bounds,
)
from .errors import (
    CknLabError,
    ConsistencyError,
    DivergentIntegralError,
    DomainError,
    NonConvergenceError,
    PreconditionError,
    UnsupportedRegimeError,
    VerificationMismatchError,
)

# The numeric layer (numpy) and the names exported from it.  The exact
# modules above load with the package; these load together, as one unit,
# the first time any of their names is read from the package.
_NUMERIC = {
    "exppoly": ("ExpPoly",),
    "functionals": (
        "ExtremalFamily",
        "ModeEnergy",
        "RadialProfile",
        "extremal_profile",
        "mode_energies",
        "mode_quotient",
        "one_dim_quotient",
        "profile_from_exppoly",
        "test_function_quotient",
    ),
    "quadrature": ("QuadratureResult", "QuadratureSpec", "integrate"),
    "special": ("gamma", "log_gamma", "weighted_exp_integral"),
    "variational": (
        "BasisSpec",
        "GramTriple",
        "MinimizationResult",
        "ModeConstantEstimate",
        "ScanReport",
        "ScanRow",
        "build_gram",
        "estimate_mode_constant",
        "make_basis",
        "minimize_quotient",
        "symmetry_breaking_scan",
    ),
}
_NUMERIC_HOME = {name: module for module, names in _NUMERIC.items() for name in names}


def __getattr__(name: str):
    """Read a numeric-layer name from its module, loading the whole layer
    on first use.  Not cached here, so the package always shows the
    module's current binding."""
    home = _NUMERIC_HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import exppoly, functionals, quadrature, special, variational  # noqa: F401

    return getattr(globals()[home], name)


__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "BoundsReport",
    "CknLabError",
    "ClosedFormConstant",
    "ConsistencyError",
    "DivergentIntegralError",
    "DomainError",
    "ExpPoly",
    "ExtremalFamily",
    "FAMILY_IDS",
    "FORMULA_GENERAL",
    "FORMULA_PLAIN",
    "FORMULA_WEIGHTED",
    "GramTriple",
    "InequalityParams",
    "MinimizationResult",
    "ModeConstantEstimate",
    "ModeEnergy",
    "ModeInfimumResult",
    "ModeQuotient",
    "NonConvergenceError",
    "PreconditionError",
    "QuadratureResult",
    "QuadratureSpec",
    "RadialProfile",
    "ScanReport",
    "ScanRow",
    "UnsupportedRegimeError",
    "VerificationMismatchError",
    "build_gram",
    "estimate_mode_constant",
    "extremal_profile",
    "gamma",
    "hardy_step_factor",
    "integrate",
    "log_gamma",
    "make_basis",
    "minimize_quotient",
    "mode_energies",
    "mode_infimum",
    "mode_quotient",
    "mode_quotient_plain",
    "mode_quotient_weighted",
    "one_dim_quotient",
    "profile_from_exppoly",
    "reference_constants",
    "sharp_constant_closed_form",
    "symmetry_breaking_bounds",
    "test_function_quotient",
    "weighted_exp_integral",
]
