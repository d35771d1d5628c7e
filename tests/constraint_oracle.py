"""The constraint system's oracle-side views, which no command reads.

The stored-list oracle of `exponentiality_constraints`: a system's rows as
`ConstraintEquation`s with their (n, k) terms, and a stored list of them
turned back into rows and built by the same constructor.  The flat integer
matrix of a system over all (j+1)(j+2)/2 unknowns and its exact nullspace
by Gaussian elimination, the canonical basis read off the certificate, the
left-hand side of one equation at a dyad table, and the members of the
closed-form recursion family: the tests compare the certificate against
these, and against sympy.
"""

from typing import NamedTuple

from gamow.exact import ONE, ZERO, ComplexRational, rref
from gamow.jordan import ComplexPole
from gamow.operators import ConstraintSystem, DyadicOperator, binomial_pattern_matrix


def dyad_table(bound, entries) -> DyadicOperator:
    """A dyad table of the given bound, as the operator over a pole of that order."""
    return DyadicOperator(ComplexPole(0, 1, bound), entries)


class ConstraintEquation(NamedTuple):
    """One homogeneous cancellation condition, tagged by its (l, m, n) indices.

    The equation says the coefficient of t^(n-l-m) on dyad (l, m) vanishes:
    sum over k of A[(n,k)] * C(k,l) * C(n-k,m) * (-1)^(k-l) = 0, with k
    running from l to n-m.  Terms are ((n, k), integer coefficient) pairs.
    """

    l: int
    m: int
    n: int
    terms: tuple


def equations(system):
    """The system's rows as ConstraintEquations, in output order, with a term at every k = l..n-m."""
    return tuple(ConstraintEquation(l, m, n, tuple(((n, k), c) for k, c in enumerate(row, l)))
                 for l, m, n, row in system.rows)


def stored_row(eq):
    """A stored equation as a constructor row, its terms summed per ket order.

    ValueError names a term whose unknown is not (n, k) with l <= k <= n - m,
    or whose coefficient is not an int; the constructor refuses an equation
    outside the bound.
    """
    l, m, n = eq.l, eq.m, eq.n
    row = [0] * (n - m - l + 1)
    for term in eq.terms:
        (block, k), coeff = term
        if not (block == n and l <= k <= n - m):
            raise ValueError(f"equation (l={l}, m={m}, n={n}): term {term} is not at an "
                             f"unknown (n={n}, k) with {l} <= k <= {n - m}")
        if not isinstance(coeff, int):
            raise ValueError(f"equation (l={l}, m={m}, n={n}): term {term} has a coefficient "
                             "that is not an int")
        row[k - l] += coeff
    return l, m, n, tuple(row)


def stored_system(j, stored):
    """The system of bound j that a stored list of ConstraintEquations makes, certified alike."""
    return ConstraintSystem(j, map(stored_row, stored))


def variables(system):
    """All (total_order, ket_order) unknowns in ascending order."""
    return [(n, k) for n in range(system.j + 1) for k in range(n + 1)]


def coefficient_rows(system, stored=None):
    """The flat integer coefficient matrix over `variables`, one row per equation.

    The equations are the system's, or a `stored` list of ConstraintEquations.
    """
    index = {v: i for i, v in enumerate(variables(system))}
    rows = []
    for eq in equations(system) if stored is None else stored:
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
    return [dyad_table(system.j + 1, binomial_pattern_matrix(system.j + 1, n))
            for n in system._solution_lines()]


def evaluate(equation, table: DyadicOperator) -> ComplexRational:
    """The left-hand side of `equation` at a dyad table, reading A[(n, k)] at dyad (k, n - k)."""
    total = ZERO
    for (n, k), coeff in equation.terms:
        total = total + table.coefficient(k, n - k) * coeff
    return total


def family_member(family, free_values) -> DyadicOperator:
    """Dyad table of bound j + 1 with the given free parameters A[(n,0)] of the recursion family.

    The family is the table of `solve_binomial_recursion(j)`, one row per total order n.
    """
    free = [ComplexRational.from_value(v) for v in free_values]
    if len(free) != len(family):
        raise ValueError(f"expected {len(family)} free parameters, got {len(free)}")
    entries = {(k, n - k): free[n] * mult
               for n, member in enumerate(family) for k, mult in enumerate(member)}
    return dyad_table(len(family), entries)


def family_basis(family):
    """One dyad table per free parameter of the family: unit A[(n0,0)], the rest forced."""
    units = range(len(family))
    return [family_member(family, [int(n == n0) for n in units]) for n0 in units]
