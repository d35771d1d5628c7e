"""Exact Jordan-block calculus for higher-order resonance states.

The library evolves chain vectors and dyadic operators of an order-r
lower-half-plane pole exactly, characterizes which operator coefficient
tables decay purely exponentially, and validates the pole's residue
expansion against numerical contour integration on a rational amplitude
model.
"""

from .exact import ComplexRational, Polynomial, RationalFunction
from .jordan import (
    ComplexPole,
    GamowChainVector,
    JordanBlockMatrix,
    build_jordan_block,
    check_jordan_degree,
    evolve_ket,
    evolve_state,
    survival_modulus,
)
from .operators import (
    ConstraintSystem,
    DyadicOperator,
    RestrictionReport,
    TimePolynomialOperator,
    binomial_family_matches_nullspace,
    binomial_pattern_matrix,
    evolve_operator,
    exponential_state_operator,
    exponential_subspace_basis,
    exponentiality_constraints,
    is_pure_exponential,
    operator_from_coefficients,
    solve_binomial_recursion,
    verify_restriction_equivalence,
)
from .smatrix import (
    DecompositionReport,
    IntegralResult,
    SMatrixModel,
    TestFunction,
    background_integral,
    decomposition_check,
    direct_contour_integral,
    load_model_file,
    model_from_json,
    residue_core,
    residue_expansion,
    unitary_first_order_model,
)
