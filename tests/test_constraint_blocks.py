"""The structural certificate of the constraint system against the flat exact and sympy oracles.

The constraint system is not solved: each total-order block is certified
from its structure (every ket order below n leads some equation, and
C(n, k) satisfies them all) when the system is built, and a system that
cannot be certified raises there.  The flat Gaussian-rational `nullspace`
over all unknowns, and sympy's `Matrix.nullspace`, are independent oracles:
a certified system must have their dimension and their canonical vectors
(unit at each free unknown, zero at the others, ascending column order),
also restricted to the unknowns that survive a pole order.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gamow.exact import nullspace
from gamow.jordan import ComplexPole
from gamow.operators import (
    BinomialRecursionFamily,
    ConstraintEquation,
    ConstraintSystem,
    binomial_family_matches_nullspace,
    exponentiality_constraints,
    solve_binomial_recursion,
    verify_restriction_equivalence,
)

ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def block_vectors(system):
    return [tuple(m.entry((k, n - k)) for n, k in system.variables)
            for m in system.nullspace_basis()]


def flat_restricted_nullspace(system, r):
    """The system restricted to order r as one flat matrix over its dyads, (ket, bra) order."""
    keys = [(k, m) for k in range(r) for m in range(r) if k + m <= system.j]
    index = {key: i for i, key in enumerate(keys)}
    rows = []
    for eq in system.equations:
        row = [0] * len(keys)
        for (n, k), coeff in eq.terms:
            if (k, n - k) in index:
                row[index[(k, n - k)]] += coeff
        rows.append(row)
    return keys, nullspace(rows, len(keys))


def sympy_nullspace(rows, num_columns):
    vectors = sympy.Matrix(rows).nullspace() if rows else sympy.eye(num_columns).columnspace()
    return [tuple(Fraction(int(x.p), int(x.q)) for x in vector) for vector in vectors]


def altered(system, index, position, delta):
    """The equations of `system` with one coefficient of equation `index` changed by `delta`."""
    eq = system.equations[index]
    terms = list(eq.terms)
    variable, coeff = terms[position]
    terms[position] = (variable, coeff + delta)
    equations = list(system.equations)
    equations[index] = ConstraintEquation(eq.l, eq.m, eq.n, terms)
    return equations


def assert_refused(j, equations, message):
    """Building the system raises ArithmeticError with exactly `message`."""
    with pytest.raises(ArithmeticError) as refusal:
        ConstraintSystem(j, equations)
    assert str(refusal.value) == message


class TestFlatOracle:
    @pytest.mark.parametrize("j", range(9))
    def test_same_dimension_and_canonical_vectors(self, j):
        system = exponentiality_constraints(j)
        flat = nullspace(system.coefficient_rows(), system.variable_count)
        assert system.solution_dimension == len(flat) == j + 1
        assert block_vectors(system) == flat

    @pytest.mark.parametrize("r", range(1, 6))
    def test_restricted_basis_matches_flat_nullspace(self, r):
        keys, flat = flat_restricted_nullspace(exponentiality_constraints(2 * (r - 1)), r)
        report = verify_restriction_equivalence(ComplexPole(0, 1, r))
        assert report.solution_dimension == len(flat) == r
        assert [tuple(m.entry(key) for key in keys) for m in report.basis] == flat

    @ORACLE_SETTINGS
    @given(j=st.integers(0, 5), keep_units=st.booleans(), data=st.data())
    def test_certificate_is_sound_on_partial_systems(self, j, keep_units, data):
        """With equations dropped, a certified system agrees with the flat oracle.

        The unit rows (k, 0, n) are kept in about half the cases, so that
        both certified and refused systems are drawn.
        """
        full = exponentiality_constraints(j)
        keep = data.draw(st.lists(st.booleans(), min_size=full.equation_count,
                                  max_size=full.equation_count))
        try:
            system = ConstraintSystem(j, [
                eq for eq, kept in zip(full.equations, keep) if kept or (keep_units and eq.m == 0)
            ])
        except ArithmeticError:
            return  # refused, which is sound whatever the flat dimension
        flat = nullspace(system.coefficient_rows(), system.variable_count)
        assert system.solution_dimension == len(flat) == j + 1
        assert block_vectors(system) == flat
        assert binomial_family_matches_nullspace(system, solve_binomial_recursion(j))

    @ORACLE_SETTINGS
    @given(j=st.integers(0, 5), data=st.data())
    def test_restriction_read_off_the_certificate_is_the_flat_restricted_nullspace(self, j, data):
        """Each restriction of a certified partial system agrees with the flat oracle.

        Every equation (l, m, n) leads ket order l, so keeping a nonempty
        subset of each group (l, n) draws a system that certifies.  For each
        order the oracle is `flat_restricted_nullspace`: the nullspace of its
        rows over the dyads that survive that order.
        """
        groups = {}
        for eq in exponentiality_constraints(j).equations:
            groups.setdefault((eq.l, eq.n), []).append(eq)
        kept = [eq for group in groups.values()
                for eq in data.draw(st.lists(st.sampled_from(group), min_size=1, unique=True))]
        system = ConstraintSystem(j, kept)
        for order in range(1, j + 2):
            keys, flat = flat_restricted_nullspace(system, order)
            lines = system._solution_lines(order)
            assert [tuple(line[k] if k + m == n else 0 for k, m in keys)
                    for n, line in lines.items()] == flat, f"order {order}"

    @pytest.mark.parametrize("j", range(1, 6))
    def test_unit_rows_alone_certify_the_same_nullspace(self, j):
        full = exponentiality_constraints(j)
        system = ConstraintSystem(j, [eq for eq in full.equations if eq.m == 0])
        flat = nullspace(system.coefficient_rows(), system.variable_count)
        assert system.solution_dimension == len(flat) == j + 1
        assert block_vectors(system) == flat == block_vectors(full)


class TestRefusal:
    @pytest.mark.parametrize("lmn, position", [
        ((1, 0, 3), 0),  # the unit at ket order 1 of a unit row
        ((1, 0, 3), 2),  # a later term of a unit row
        ((0, 1, 3), 1),  # a row of another shape, m > 0
        ((1, 2, 4), 0),
    ])
    @pytest.mark.parametrize("delta", [1, -2])
    def test_one_altered_coefficient_is_refused(self, lmn, position, delta):
        system = exponentiality_constraints(4)
        index = [(eq.l, eq.m, eq.n) for eq in system.equations].index(lmn)
        l, m, n = lmn
        assert_refused(4, altered(system, index, position, delta),
                       f"C({n}, k) violates constraint (l={l}, m={m}, n={n})")

    def test_a_missing_leading_row_is_refused(self):
        full = exponentiality_constraints(3)
        with pytest.raises(ArithmeticError, match="leads ket orders \\[2\\]"):
            ConstraintSystem(3, [eq for eq in full.equations if (eq.l, eq.m, eq.n) != (2, 0, 3)])

    def test_a_missing_leading_row_of_a_cut_block_is_refused(self):
        """Block 3 is cut at order 3 but keeps ket order 2 there; only (2, 0, 3) leads 2.

        The system is refused when it is built, before any restriction is read.
        """
        full = exponentiality_constraints(4)
        with pytest.raises(ArithmeticError, match="n=3"):
            ConstraintSystem(4, [eq for eq in full.equations if (eq.l, eq.m, eq.n) != (2, 0, 3)])


class TestSympyOracle:
    @pytest.mark.parametrize("j", range(6))
    def test_same_canonical_vectors(self, j):
        system = exponentiality_constraints(j)
        assert block_vectors(system) == sympy_nullspace(
            system.coefficient_rows(), system.variable_count
        )


class TestSolutionLines:
    @pytest.mark.parametrize("j", [0, 1, 6, 20])
    def test_each_block_is_the_binomial_line(self, j):
        assert exponentiality_constraints(j)._solution_lines() == {
            n: [sympy.binomial(n, k) for k in range(n + 1)] for n in range(j + 1)
        }

    def test_restricted_blocks_drop_out_of_range_dyads(self):
        system = exponentiality_constraints(4)
        assert system._solution_lines(order=3) == {0: [1], 1: [1, 1], 2: [1, 2, 1]}
        with pytest.raises(ValueError):
            system._solution_lines(order=0)

    def test_family_of_another_bound_does_not_match(self):
        assert not binomial_family_matches_nullspace(
            exponentiality_constraints(3), solve_binomial_recursion(4)
        )

    @pytest.mark.parametrize("key, value", [((2, 1), Fraction(3)), ((2, 2), Fraction(0))])
    def test_a_family_off_the_line_does_not_match(self, key, value):
        multipliers = dict(solve_binomial_recursion(2).multipliers)
        multipliers[key] = value
        assert not binomial_family_matches_nullspace(
            exponentiality_constraints(2), BinomialRecursionFamily(2, multipliers)
        )
