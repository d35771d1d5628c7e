"""Exact Jordan-block calculus for higher-order resonance states.

The library evolves chain vectors and dyadic operators of an order-r
lower-half-plane pole exactly, characterizes which operator coefficient
tables decay purely exponentially, and validates the pole's residue
expansion against numerical contour integration on a rational amplitude
model.

`import gamow` loads no submodule: a public name, or a submodule, is
imported from its home module the first time it is asked for (PEP 562).
"""

import importlib

# The public names, by home module.
_PUBLIC = {
    "exact": ("ComplexRational", "Polynomial", "RationalFunction"),
    "jordan": (
        "ComplexPole", "GamowChainVector", "JordanBlockMatrix", "build_jordan_block",
        "check_jordan_degree", "evolve_ket", "evolve_state", "survival_modulus",
    ),
    "operators": (
        "ConstraintSystem", "DyadicOperator", "RestrictionReport", "TimePolynomialOperator",
        "binomial_family_matches_nullspace", "binomial_pattern_matrix", "evolve_operator",
        "exponential_state_operator", "exponential_subspace_basis", "exponentiality_constraints",
        "is_pure_exponential", "operator_from_coefficients", "solve_binomial_recursion",
        "verify_restriction_equivalence",
    ),
    "smatrix": (
        "DecompositionReport", "IntegralResult", "SMatrixModel", "TestFunction",
        "background_integral", "decomposition_check", "direct_contour_integral",
        "load_model_file", "model_from_json", "residue_core", "residue_expansion",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_HOME, *_PUBLIC]


def __getattr__(name):
    """A public name or a submodule, imported on first use and then bound here."""
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
