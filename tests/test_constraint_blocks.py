"""The structural certificate of the constraint system against the flat exact and sympy oracles.

`exponentiality_constraints` generates and certifies the system's rows in
one pass through `ConstraintSystem(j, rows)`, the one constructor, which
refuses a malformed row; the stored-list `stored_system(j, equations)` of
the oracle is built by that constructor too, and the equations themselves
are checked against their definition.

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
from constraint_oracle import (
    ConstraintEquation,
    coefficient_rows,
    equations,
    nullspace,
    nullspace_basis,
    stored_row,
    stored_system,
    variables,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gamow import operators
from gamow.jordan import ComplexPole
from gamow.operators import (
    ConstraintSystem,
    binomial_family_matches_nullspace,
    exponentiality_constraints,
    solve_binomial_recursion,
    verify_restriction_equivalence,
)

ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def block_vectors(system):
    return [tuple(m.coefficient(k, n - k) for n, k in variables(system))
            for m in nullspace_basis(system)]


def flat_restricted_nullspace(system, r):
    """The system restricted to order r as one flat matrix over its dyads, (ket, bra) order."""
    keys = [(k, m) for k in range(r) for m in range(r) if k + m <= system.j]
    index = {key: i for i, key in enumerate(keys)}
    rows = []
    for eq in equations(system):
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
    stored = list(equations(system))
    eq = stored[index]
    terms = list(eq.terms)
    variable, coeff = terms[position]
    terms[position] = (variable, coeff + delta)
    stored[index] = eq._replace(terms=tuple(terms))
    return stored


def assert_refused(j, stored, message):
    """Building the system from the stored list raises ArithmeticError with exactly `message`."""
    with pytest.raises(ArithmeticError) as refusal:
        stored_system(j, stored)
    assert str(refusal.value) == message


def with_fault(rows, lmn, change):
    """The generator `rows` with equation `lmn` changed by `change`; dropped where that is None."""
    def faulty(j):
        for l, m, n, row in rows(j):
            if (l, m, n) == lmn:
                row = change(row)
            if row is not None:
                yield l, m, n, row

    return faulty


class TestGeneratedPass:
    """The pass of `exponentiality_constraints` against the stored list and the definition."""

    @pytest.mark.parametrize("j", range(9))
    def test_equations_are_the_definition_in_output_order(self, j):
        """Equation (l, m, n): sum over k of C(k, l) C(n-k, m) (-1)^(k-l) A[(n, k)], k = l..n-m."""
        def coefficient(l, m, n, k):
            return (-1) ** (k - l) * int(sympy.binomial(k, l) * sympy.binomial(n - k, m))

        expected = [
            (l, m, n, tuple(((n, k), coefficient(l, m, n, k)) for k in range(l, n - m + 1)))
            for l in range(j) for m in range(j - l) for n in range(l + m + 1, j + 1)
        ]
        system = exponentiality_constraints(j)
        assert [(eq.l, eq.m, eq.n, eq.terms) for eq in equations(system)] == expected
        assert system.equation_count == len(expected) == sympy.binomial(j + 2, 3)

    @pytest.mark.parametrize("j", [0, 1, 5, 12, 20])
    def test_the_stored_list_certifies_with_the_closed_form_count(self, j):
        """The stored path certifies the generated list into the same rows, C(j + 2, 3) of them."""
        generated = exponentiality_constraints(j)
        stored = stored_system(j, equations(generated))
        assert stored == generated and stored.rows == generated.rows
        assert ConstraintSystem(j, generated.rows) == generated
        assert equations(stored) == equations(generated)
        assert stored.equation_count == len(generated.rows) == sympy.binomial(j + 2, 3)


class TestFlatOracle:
    @pytest.mark.parametrize("j", [*range(9), 12])
    def test_same_dimension_and_canonical_vectors(self, j):
        system = exponentiality_constraints(j)
        flat = nullspace(coefficient_rows(system), system.variable_count)
        assert system.solution_dimension == len(flat) == j + 1
        assert block_vectors(system) == flat

    @pytest.mark.parametrize("r", range(1, 6))
    def test_restricted_basis_matches_flat_nullspace(self, r):
        keys, flat = flat_restricted_nullspace(exponentiality_constraints(2 * (r - 1)), r)
        report = verify_restriction_equivalence(ComplexPole(0, 1, r))
        assert report.solution_dimension == len(flat) == r
        assert [tuple(m.coefficient(*key) for key in keys) for m in report.basis] == flat

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
            system = stored_system(j, [
                eq for eq, kept in zip(equations(full), keep) if kept or (keep_units and eq.m == 0)
            ])
        except ArithmeticError:
            return  # refused, which is sound whatever the flat dimension
        flat = nullspace(coefficient_rows(system), system.variable_count)
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
        for eq in equations(exponentiality_constraints(j)):
            groups.setdefault((eq.l, eq.n), []).append(eq)
        kept = [eq for group in groups.values()
                for eq in data.draw(st.lists(st.sampled_from(group), min_size=1, unique=True))]
        system = stored_system(j, kept)
        for order in range(1, j + 2):
            keys, flat = flat_restricted_nullspace(system, order)
            lines = system._solution_lines(order)
            assert [tuple(line[k] if k + m == n else 0 for k, m in keys)
                    for n, line in lines.items()] == flat, f"order {order}"

    @pytest.mark.parametrize("j", range(1, 6))
    def test_unit_rows_alone_certify_the_same_nullspace(self, j):
        full = exponentiality_constraints(j)
        system = stored_system(j, [eq for eq in equations(full) if eq.m == 0])
        flat = nullspace(coefficient_rows(system), system.variable_count)
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
        index = [row[:3] for row in system.rows].index(lmn)
        l, m, n = lmn
        assert_refused(4, altered(system, index, position, delta),
                       f"C({n}, k) violates constraint (l={l}, m={m}, n={n})")

    @pytest.mark.parametrize("lmn, position", [((1, 0, 3), 0), ((1, 0, 3), 2), ((0, 1, 3), 1),
                                               ((1, 2, 4), 0)])
    @pytest.mark.parametrize("delta", [1, -2])
    def test_one_altered_coefficient_in_the_pass_is_refused_alike(
        self, monkeypatch, lmn, position, delta
    ):
        """The stored list's message, for the same coefficient altered in the generated pass."""
        def alter(row):
            return (*row[:position], row[position] + delta, *row[position + 1:])

        monkeypatch.setattr(operators, "_equation_rows",
                            with_fault(operators._equation_rows, lmn, alter))
        with pytest.raises(ArithmeticError) as refusal:
            exponentiality_constraints(4)
        l, m, n = lmn
        assert str(refusal.value) == f"C({n}, k) violates constraint (l={l}, m={m}, n={n})"

    @pytest.mark.parametrize("j", [3, 4])
    def test_a_missing_leading_row_in_the_pass_is_refused_alike(self, monkeypatch, j):
        """Only (2, 0, 3) leads ket order 2 of block 3; the pass refuses at its end."""
        monkeypatch.setattr(operators, "_equation_rows",
                            with_fault(operators._equation_rows, (2, 0, 3), lambda row: None))
        with pytest.raises(ArithmeticError) as refusal:
            exponentiality_constraints(j)
        assert str(refusal.value) == "block n=3: no equation leads ket orders [2]"

    def test_a_term_outside_its_equations_block_is_refused(self):
        """Equation (0, 0, 1) with its terms moved onto (2, 0) and (2, 1) is another system.

        The flat oracle gives it two free unit vectors in block 1 and none in
        block 2, so no reading of it as the C(n, k) lines may certify it.
        """
        full = exponentiality_constraints(3)
        moved = [ConstraintEquation(0, 0, 1, [((2, 0), 1), ((2, 1), -1)])
                 if (eq.l, eq.m, eq.n) == (0, 0, 1) else eq for eq in equations(full)]
        flat = nullspace(coefficient_rows(full, moved), 10)
        blocks = [{n for (n, _), x in zip(variables(full), vector) if x} for vector in flat]
        assert blocks == [{0}, {1}, {1}, {3}]
        with pytest.raises(ValueError) as refusal:
            stored_system(3, moved)
        assert str(refusal.value) == ("equation (l=0, m=0, n=1): term ((2, 0), 1) is not at an "
                                      "unknown (n=1, k) with 0 <= k <= 1")

    @pytest.mark.parametrize("equation, message", [
        (ConstraintEquation(0, 0, 1, [((1, 0), 1), ((1, 5), 1)]),
         "equation (l=0, m=0, n=1): term ((1, 5), 1) is not at an unknown (n=1, k) "
         "with 0 <= k <= 1"),
        (ConstraintEquation(0, 1, 3, [((3, 3), 1)]),
         "equation (l=0, m=1, n=3): term ((3, 3), 1) is not at an unknown (n=3, k) "
         "with 0 <= k <= 2"),
        (ConstraintEquation(0, 0, 4, []), "equation (l=0, m=0, n=4) is not one of bound 3"),
        (ConstraintEquation(2, 2, 3, []), "equation (l=2, m=2, n=3) is not one of bound 3"),
    ])
    def test_a_term_past_its_equations_range_is_refused(self, equation, message):
        """A ket order past n - m, or an equation past the bound, is an input error."""
        with pytest.raises(ValueError) as refusal:
            stored_system(3, [*equations(exponentiality_constraints(3)), equation])
        assert str(refusal.value) == message

    @pytest.mark.parametrize("row, message", [
        ((0, 0, 1, (1, Fraction(-1))),
         "equation (l=0, m=0, n=1): coefficient Fraction(-1, 1) is not an int"),
        ((0, 0, 1, (1.0, -1)), "equation (l=0, m=0, n=1): coefficient 1.0 is not an int"),
        ((0, 0, 1, (1, "-1")), "equation (l=0, m=0, n=1): coefficient '-1' is not an int"),
        ((0, 1, 3, (1, -2)),
         "equation (l=0, m=1, n=3): 2 coefficients, expected one at each k = 0..2"),
        ((0, 1, 3, (1, -2, 1, 0)),
         "equation (l=0, m=1, n=3): 4 coefficients, expected one at each k = 0..2"),
        ((0, 0, 4, (1, -4, 6, -4, 1)), "equation (l=0, m=0, n=4) is not one of bound 3"),
        ((-1, 0, 1, (0, 1, -1)), "equation (l=-1, m=0, n=1) is not one of bound 3"),
        ((0, -1, 1, (1, -1, 0)), "equation (l=0, m=-1, n=1) is not one of bound 3"),
        ((0, 0, -1, ()), "equation (l=0, m=0, n=-1) is not one of bound 3"),
        ((2, 2, 3, ()), "equation (l=2, m=2, n=3) is not one of bound 3"),
    ], ids=["fraction", "float", "string", "short", "long", "n-past-j", "l-negative",
            "m-negative", "n-negative", "l-past-n-m"])
    def test_a_malformed_row_is_refused_by_the_constructor(self, row, message):
        """A coefficient that is not an int, a row of the wrong length or outside the bound.

        Each would otherwise be read: `map` stops at the shorter of a row and
        its line, so a short row would certify, and a Fraction or float
        coefficient would enter the certified rows.
        """
        rows = [*exponentiality_constraints(3).rows, row]
        with pytest.raises(ValueError) as refusal:
            ConstraintSystem(3, rows)
        assert str(refusal.value) == message

    def test_the_constructor_refuses_a_negative_bound(self):
        with pytest.raises(ValueError, match="^order bound j must be nonnegative$"):
            ConstraintSystem(-1, [])

    @pytest.mark.parametrize("terms, message", [
        ([((1, 0), Fraction(3, 2)), ((1, 1), -1.9)],
         "equation (l=0, m=0, n=1): term ((1, 0), Fraction(3, 2)) has a coefficient that is "
         "not an int"),
        ([((1, 0), 1), ((1, 1), -1.0)],
         "equation (l=0, m=0, n=1): term ((1, 1), -1.0) has a coefficient that is not an int"),
    ], ids=["fraction-and-float", "float"])
    def test_a_stored_term_that_is_not_an_int_is_refused(self, terms, message):
        """Not truncated: (3/2) A[(1, 0)] - 1.9 A[(1, 1)] = 0 is not the equation of bound 1."""
        equation = ConstraintEquation(0, 0, 1, terms)
        with pytest.raises(ValueError) as refusal:
            stored_row(equation)
        assert str(refusal.value) == message
        with pytest.raises(ValueError) as refusal:
            stored_system(1, [equation])
        assert str(refusal.value) == message

    def test_a_missing_leading_row_is_refused(self):
        full = exponentiality_constraints(3)
        with pytest.raises(ArithmeticError, match="leads ket orders \\[2\\]"):
            stored_system(3, [eq for eq in equations(full) if (eq.l, eq.m, eq.n) != (2, 0, 3)])

    def test_a_missing_leading_row_of_a_cut_block_is_refused(self):
        """Block 3 is cut at order 3 but keeps ket order 2 there; only (2, 0, 3) leads 2.

        The system is refused when it is built, before any restriction is read.
        """
        full = exponentiality_constraints(4)
        with pytest.raises(ArithmeticError, match="n=3"):
            stored_system(4, [eq for eq in equations(full) if (eq.l, eq.m, eq.n) != (2, 0, 3)])


class TestSympyOracle:
    @pytest.mark.parametrize("j", [*range(6), 12, 20])
    def test_same_canonical_vectors(self, j):
        system = exponentiality_constraints(j)
        assert block_vectors(system) == sympy_nullspace(
            coefficient_rows(system), system.variable_count
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
        family = [list(member) for member in solve_binomial_recursion(2)]
        n, k = key
        family[n][k] = value
        assert not binomial_family_matches_nullspace(
            exponentiality_constraints(2), tuple(map(tuple, family))
        )

    @pytest.mark.parametrize("family", [((1,), (1, 1), (1, 2)), ((1,), (1, 1), (1, 2, 1, 0)),
                                        ((1,), (2, 2), (3, 6, 3))])
    def test_a_family_row_of_another_length_does_not_match_and_multiples_do(self, family):
        """Row n must have n + 1 entries; a nonzero multiple of C(n, .) spans the same line."""
        matches = binomial_family_matches_nullspace(exponentiality_constraints(2), family)
        assert matches == (family == ((1,), (2, 2), (3, 6, 3)))
