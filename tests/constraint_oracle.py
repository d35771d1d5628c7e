"""The constraint system's oracle-side views, which no command reads.

The flat integer matrix of a system over all (j+1)(j+2)/2 unknowns and its
exact nullspace by Gaussian elimination, the canonical basis read off the
certificate, the left-hand side of one equation at a dyad table, and the
members of the closed-form recursion family: the tests compare the
certificate against these, and against sympy.
"""

from gamow.exact import ONE, ZERO, ComplexRational, rref
from gamow.operators import CoefficientMatrix, binomial_pattern_matrix


def variables(system):
    """All (total_order, ket_order) unknowns in ascending order."""
    return [(n, k) for n in range(system.j + 1) for k in range(n + 1)]


def coefficient_rows(system):
    """The flat integer coefficient matrix over `variables`, one row per equation."""
    index = {v: i for i, v in enumerate(variables(system))}
    rows = []
    for eq in system.equations:
        row = [0] * len(index)
        for variable, coeff in eq.terms:
            row[index[variable]] += coeff
        rows.append(row)
    return rows


def nullspace(rows, num_columns: int):
    """Exact nullspace basis of a homogeneous system.

    `rows` are the constraint coefficients over `num_columns` unknowns.  The
    basis is canonical: one vector per free column, unit entry at the free
    column, in ascending column order.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_columns = [c for c in range(num_columns) if c not in pivot_set]
    basis = []
    for free in free_columns:
        vector = [ZERO] * num_columns
        vector[free] = ONE
        for pivot_row, pivot_col in zip(reduced, pivots):
            vector[pivot_col] = -pivot_row[free]
        basis.append(tuple(vector))
    return basis


def nullspace_basis(system):
    """The certified solution basis, one dyad table of bound j + 1 per free parameter.

    Canonical: unit entry at each free unknown, zero at the others, in
    ascending order of the free unknown over `variables`.
    """
    return [binomial_pattern_matrix(system.j + 1, n) for n in system._solution_lines()]


def evaluate(equation, coefficients: CoefficientMatrix) -> ComplexRational:
    """The left-hand side of `equation` at a dyad table, reading A[(n, k)] at dyad (k, n - k)."""
    total = ZERO
    for (n, k), coeff in equation.terms:
        total = total + coefficients.entry((k, n - k)) * coeff
    return total


def family_member(family, free_values) -> CoefficientMatrix:
    """Dyad table of bound j + 1 with the given free parameters A[(n,0)] of the recursion family."""
    free = [ComplexRational.from_value(v) for v in free_values]
    if len(free) != family.j + 1:
        raise ValueError(f"expected {family.j + 1} free parameters, got {len(free)}")
    entries = {(k, n - k): free[n] * mult for (n, k), mult in family.multipliers.items()}
    return CoefficientMatrix(family.j + 1, entries)


def family_basis(family):
    """One dyad table per free parameter of the family: unit A[(n0,0)], the rest forced."""
    units = range(family.j + 1)
    return [family_member(family, [int(n == n0) for n in units]) for n0 in units]
