"""Tests for dyadic operators, their evolution, and the exponential-decay characterization."""

import cmath
import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from constraint_oracle import (
    dyad_table, equations, evaluate, family_basis, family_member, nullspace_basis,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gamow import operators
from gamow.exact import ComplexRational, ONE, Polynomial, ZERO, binomial, matrix_rank
from gamow.jordan import ComplexPole, build_jordan_block, evolve_ket
from gamow.operators import (
    DyadicOperator,
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


def cr(re, im=0):
    return ComplexRational(re, im)


def dyad_operator(pole, entries):
    return operator_from_coefficients(pole, entries)


def combination(pole, *terms):
    """The operator sum of weight * operator over (weight, operator) terms, table by table."""
    table = {}
    for weight, operator in terms:
        for key, value in operator.entries.items():
            table[key] = table.get(key, ZERO) + value * weight
    return DyadicOperator(pole, table)


class TestOperatorTable:
    def test_dyad_range_validation(self):
        pole = ComplexPole(0, 1, 2)
        with pytest.raises(ValueError, match=r"^dyad entry \(2, 0\) out of range for order bound 2$"):
            DyadicOperator(pole, {(2, 0): 1})
        with pytest.raises(ValueError, match=r"dyad entry \(0, -1\) out of range"):
            DyadicOperator(pole, {(0, -1): 1})

    def test_zero_entries_dropped(self):
        operator = DyadicOperator(ComplexPole(0, 1, 2), {(0, 0): 0, (1, 0): 2})
        assert operator.entries == {(1, 0): cr(2)}
        assert operator.coefficient(0, 0) == ZERO

    def test_pattern_table_is_a_dict_of_binomials(self):
        assert binomial_pattern_matrix(4, 2) == {(0, 2): 1, (1, 1): 2, (2, 0): 1}
        assert binomial_pattern_matrix(1, 0) == {(0, 0): 1}
        for n in (-1, 4):
            with pytest.raises(ValueError, match=f"pattern order n={n} out of range for order 4"):
                binomial_pattern_matrix(4, n)


class TestExponentialStateOperator:
    def test_order_zero_is_plain_dyad(self):
        pole = ComplexPole(0, 3, 2)
        op = exponential_state_operator(pole, 0)
        assert op.items() == [((0, 0), ONE)]

    def test_order_one_prefactor_is_width(self):
        pole = ComplexPole(0, 3, 2)
        op = exponential_state_operator(pole, 1)
        assert op.coefficient(0, 1) == 3
        assert op.coefficient(1, 0) == 3

    def test_order_two_coefficients(self):
        pole = ComplexPole(0, 2, 3)
        op = exponential_state_operator(pole, 2)
        # width^2/2! = 2, times the binomials 1, 2, 1
        assert op.coefficient(0, 2) == 2
        assert op.coefficient(1, 1) == 4
        assert op.coefficient(2, 0) == 2

    def test_without_prefactor(self):
        pole = ComplexPole(0, 7, 3)
        op = exponential_state_operator(pole, 2, include_prefactor=False)
        assert op.coefficient(0, 2) == 1
        assert op.coefficient(1, 1) == 2
        assert op.coefficient(2, 0) == 1

    def test_order_beyond_pole_rejected(self):
        pole = ComplexPole(0, 1, 2)
        with pytest.raises(ValueError):
            exponential_state_operator(pole, 2)


class TestOperatorConstruction:
    def test_zero_operator(self):
        pole = ComplexPole(0, 1, 2)
        assert not dyad_operator(pole, {}).entries

    def test_single_entry(self):
        pole = ComplexPole(0, 1, 2)
        op = dyad_operator(pole, {(0, 0): 1})
        assert op == exponential_state_operator(pole, 0)

    def test_order_two_restricted_table_is_binomial_combination(self):
        # hand expansion for order 2: free coefficients multiply the two
        # binomial-pattern operators, with the top-left corner forced
        pole = ComplexPole(1, 2, 2)
        b00, b10 = cr(3, 1), cr(0, -2)
        general = dyad_operator(
            pole, {(0, 0): b00, (0, 1): b10, (1, 0): b10}
        )
        combined = combination(
            pole,
            (b00, exponential_state_operator(pole, 0)),
            (b10, exponential_state_operator(pole, 1, include_prefactor=False)),
        )
        assert general == combined


class TestEvolveOperator:
    def test_order_zero_is_constant(self):
        pole = ComplexPole(1, 1, 1)
        evolved = evolve_operator(exponential_state_operator(pole, 0))
        assert evolved.items() == [((0, 0), Polynomial([1]))]

    def test_single_dyad_leaks_a_linear_term(self):
        pole = ComplexPole(0, 1, 2)
        evolved = evolve_operator(dyad_operator(pole, {(1, 0): 1}))
        assert evolved.entry_polynomial(1, 0) == Polynomial([1])
        assert evolved.entry_polynomial(0, 0) == Polynomial([0, cr(0, -1)])  # -i t
        assert not is_pure_exponential(evolved)

    def test_binomial_combination_cancels_all_powers(self):
        pole = ComplexPole(2, Fraction(1, 3), 4)
        for n in range(pole.order):
            op = exponential_state_operator(pole, n)
            evolved = evolve_operator(op)
            assert is_pure_exponential(evolved)
            assert evolved.at_time_zero() == op

    def test_time_zero_identity_on_arbitrary_tables(self):
        rng = random.Random(7)
        pole = ComplexPole(1, 2, 3)
        for _ in range(20):
            entries = {
                (k, m): cr(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
                           Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)))
                for k in range(3)
                for m in range(3)
            }
            op = dyad_operator(pole, entries)
            assert evolve_operator(op).at_time_zero() == op

    def test_degree_bound(self):
        pole = ComplexPole(0, 1, 3)
        evolved = evolve_operator(dyad_operator(pole, {(2, 2): 1}))
        for (ket, bra), poly in evolved.items():
            assert poly.degree <= 4 - ket - bra

    def test_matches_independent_ket_bra_evolution(self):
        """Entry polynomials agree with evolving ket and bra sides separately.

        The bra side evolves with conjugated coefficients.  Polynomials of
        degree <= 4 agreeing at five rational times are identical.
        """
        rng = random.Random(13)
        pole = ComplexPole(Fraction(3, 2), Fraction(5, 4), 3)
        r = pole.order
        for _ in range(10):
            entries = {
                (k, m): cr(rng.randrange(-5, 6), rng.randrange(-5, 6))
                for k in range(r)
                for m in range(r)
                if rng.random() < 0.7
            }
            op = dyad_operator(pole, entries)
            evolved = evolve_operator(op)
            for t in (0, 1, Fraction(1, 2), Fraction(2, 3), 3):
                kets = [evolve_ket(pole, k, t).coefficients for k in range(r)]
                for l in range(r):
                    for mm in range(r):
                        expected = ZERO
                        for (k, m), c in entries.items():
                            expected = expected + c * kets[k][l] * kets[m][mm].conjugate()
                        assert evolved.entry_polynomial(l, mm)(t) == expected

    def test_matches_dense_float_conjugation(self):
        """Numeric values agree with U W U^H computed by scipy's expm."""
        pole = ComplexPole(2, Fraction(3, 4), 3)
        block = build_jordan_block(pole)
        jordan_dense = np.array(
            [[complex(e) for e in row] for row in block.entries], dtype=complex
        )
        entries = {(0, 0): cr(1), (1, 0): cr(0, 2), (2, 1): cr(-3, 1), (1, 1): cr(2)}
        op = dyad_operator(pole, entries)
        dense = np.zeros((3, 3), dtype=complex)
        for (k, m), c in entries.items():
            dense[k, m] = complex(c)
        evolved = evolve_operator(op)
        for t in (0.0, 0.35, 1.0, 2.5):
            propagator = scipy.linalg.expm(-1j * jordan_dense * t)
            expected = propagator @ dense @ propagator.conj().T
            for l in range(3):
                for mm in range(3):
                    assert evolved.value(l, mm, t) == pytest.approx(
                        expected[l, mm], abs=1e-12
                    )

    def test_decay_factor_is_exact_exponential(self):
        pole = ComplexPole(5, 2, 2)
        evolved = evolve_operator(exponential_state_operator(pole, 1))
        t = 0.7
        # oscillatory phases cancel: value is real exp(-width t) times the table
        value = evolved.value(0, 1, t)
        assert value.imag == pytest.approx(0.0, abs=1e-15)
        assert value.real == pytest.approx(2 * math.exp(-2 * t))

    @pytest.mark.parametrize("t", [-0.5, -math.inf, math.nan])
    def test_negative_time_rejected(self, t):
        pole = ComplexPole(0, 1, 1)
        evolved = evolve_operator(exponential_state_operator(pole, 0))
        with pytest.raises(ValueError, match=r"^operator evolution is defined for t >= 0 only$"):
            evolved.value(0, 0, t)

    @pytest.mark.parametrize("t", [1e80, 1e100])
    def test_value_is_zero_where_the_decay_factor_underflows(self, t):
        evolved = evolve_operator(dyad_operator(ComplexPole(0, 1, 5), {(4, 4): 1}))
        # P(t) = t^8 + ... overflows, and exp(-t) underflows to 0
        assert not cmath.isfinite(evolved.entry_polynomial(0, 0)(t))
        assert evolved.value(0, 0, t) == 0

    def test_value_is_decay_times_polynomial_until_underflow(self):
        evolved = evolve_operator(dyad_operator(ComplexPole(0, 1, 5), {(4, 4): 1}))
        poly = evolved.entry_polynomial(0, 0)
        for t in (0.0, 1.5, 30.0, 700.0):
            assert evolved.value(0, 0, t) == math.exp(-t) * complex(poly(t))

    def test_value_sums_in_log_form_where_only_the_polynomial_overflows(self):
        width = 7e-38
        evolved = evolve_operator(dyad_operator(ComplexPole(0, width, 5), {(4, 4): 1}))
        for t in (5e39, 1e40):
            assert not cmath.isfinite(evolved.entry_polynomial(0, 0)(t))
            expected = math.exp(8 * math.log(t) - width * t)  # t^8 exp(-width t)
            assert evolved.value(0, 0, t) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("coeff", [0.5, complex(0.3, -0.4), -0.5j])
    def test_a_term_whose_exp_alone_overflows_folds_in_its_coefficient(self, coeff):
        """c t^2 exp(-Gamma t) at t = 2.72e154, where exp(2 ln t - Gamma t) is no float.

        At |c| = 0.5 the value, of modulus 1.364e308, is a float; the oracle is 30-digit mpmath.
        """
        width, t = 3.67182720458848e-155, 2.723439705306271e+154
        evolved = evolve_operator(dyad_operator(ComplexPole(0, width, 2), {(1, 1): coeff}))
        with pytest.raises(OverflowError):
            math.exp(2 * math.log(t) - width * t)
        with mpmath.workdps(30):
            exact = complex(ComplexRational.from_value(coeff))
            expected = mpmath.mpc(exact) * mpmath.mpf(t) ** 2 * mpmath.exp(-mpmath.mpf(width) * t)
            expected = complex(expected)
        assert evolved.entry_polynomial(0, 0) == Polynomial([0, 0, coeff])
        assert evolved.value(0, 0, t) == pytest.approx(expected, rel=1e-13)

    def test_value_beyond_the_float_range_raises(self):
        evolved = evolve_operator(dyad_operator(ComplexPole(0, 1e-300, 5), {(4, 4): 1}))
        with pytest.raises(ArithmeticError, match="float range"):
            evolved.value(0, 0, 1e100)


class TestIsPureExponential:
    def test_zero_operator_is_pure(self):
        pole = ComplexPole(0, 1, 2)
        assert is_pure_exponential(evolve_operator(dyad_operator(pole, {})))

    def test_every_binomial_member_is_pure_up_to_order_six(self):
        for r in range(1, 7):
            pole = ComplexPole(1, 1, r)
            for n in range(r):
                evolved = evolve_operator(exponential_state_operator(pole, n))
                assert is_pure_exponential(evolved)

    def test_off_pattern_dyad_is_not_pure(self):
        pole = ComplexPole(0, 1, 2)
        assert not is_pure_exponential(evolve_operator(dyad_operator(pole, {(1, 0): 1})))


class TestExponentialityConstraints:
    def test_empty_system_at_bound_zero(self):
        system = exponentiality_constraints(0)
        assert system.equation_count == 0
        assert system.variable_count == 1
        assert system.solution_dimension == 1

    def test_single_equation_at_bound_one(self):
        system = exponentiality_constraints(1)
        assert system.equation_count == 1
        assert system.rows == ((0, 0, 1, (1, -1)),)
        eq = equations(system)[0]
        assert (eq.l, eq.m, eq.n) == (0, 0, 1)
        assert eq.terms == (((1, 0), 1), ((1, 1), -1))

    def test_bound_two_dimension_and_ordering(self):
        system = exponentiality_constraints(2)
        assert [row[:3] for row in system.rows] == [
            (0, 0, 1),
            (0, 0, 2),
            (0, 1, 2),
            (1, 0, 2),
        ]
        assert system.solution_dimension == 3

    @pytest.mark.parametrize("j", range(7))
    def test_solution_dimension_is_bound_plus_one(self, j):
        assert exponentiality_constraints(j).solution_dimension == j + 1

    def test_each_call_builds_anew_and_a_built_system_is_read_as_it_is(self, monkeypatch):
        """No cache: a call makes its pass; the restriction reads the system it is given."""
        system = exponentiality_constraints(4)
        assert exponentiality_constraints(4) is not system
        assert exponentiality_constraints(4) == system
        assert system.equation_count == binomial(4 + 2, 3) == len(system.rows) == 20
        passes = []
        rows = operators._equation_rows
        monkeypatch.setattr(operators, "_equation_rows", lambda j: passes.append(j) or rows(j))
        pole = ComplexPole(0, 1, 3)
        assert verify_restriction_equivalence(pole, system) == verify_restriction_equivalence(pole)
        assert passes == [4]
        with pytest.raises(ValueError, match="bound 4, not 3"):
            verify_restriction_equivalence(pole, exponentiality_constraints(3))

    def test_json_schema(self):
        payload = exponentiality_constraints(1).to_json_dict()
        assert set(payload) == {"j", "equations", "solution_dimension"}
        equation = payload["equations"][0]
        assert set(equation) == {"l", "m", "n", "terms"}
        assert equation["terms"][0] == {"n": 1, "k": 0, "coeff": [1.0, 0.0]}

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            exponentiality_constraints(-1)


class TestSolveBinomialRecursion:
    def test_frozen_multipliers(self):
        assert solve_binomial_recursion(4) == (
            (1,), (1, 1), (1, 2, 1), (1, 3, 3, 1), (1, 4, 6, 4, 1))

    @pytest.mark.parametrize("j", [0, 1, 8, 20])
    def test_the_family_is_the_table_of_binomials(self, j):
        family = solve_binomial_recursion(j)
        assert family == tuple(tuple(math.comb(n, k) for k in range(n + 1)) for n in range(j + 1))
        assert all(type(member) is tuple for member in family)
        assert {type(x) for member in family for x in member} == {int}

    def test_two_calls_give_equal_families(self):
        """A plain table compares by its entries, not by identity."""
        assert solve_binomial_recursion(2) == solve_binomial_recursion(2)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="^order bound j must be nonnegative$"):
            solve_binomial_recursion(-1)

    def test_a_step_that_does_not_divide_is_refused(self, monkeypatch):
        """A chain that leaves a remainder names the product it could not divide."""
        monkeypatch.setattr(operators, "divmod", lambda a, b: (a // b, 1), raising=False)
        with pytest.raises(ArithmeticError,
                           match=r"^recursion gave 1/1 at \(n=1, k=1\), expected C\(n,k\)$"):
            solve_binomial_recursion(1)

    def test_a_step_off_the_binomial_is_refused(self, monkeypatch):
        """The chain is checked against C(n, k) at every step, here against a wrong C(4, 2)."""
        monkeypatch.setattr(operators, "binomial",
                            lambda n, k: 7 if (n, k) == (4, 2) else binomial(n, k))
        with pytest.raises(ArithmeticError,
                           match=r"^recursion gave 6 at \(n=4, k=2\), expected C\(n,k\)$"):
            solve_binomial_recursion(4)

    def test_basis_members_satisfy_every_constraint(self):
        j = 5
        family = solve_binomial_recursion(j)
        system = exponentiality_constraints(j)
        for member in family_basis(family):
            for eq in equations(system):
                assert evaluate(eq, member) == ZERO

    @pytest.mark.parametrize("j", range(6))
    def test_family_spans_exact_nullspace(self, j):
        system = exponentiality_constraints(j)
        family = solve_binomial_recursion(j)
        assert binomial_family_matches_nullspace(system, family)

    def test_member_combines_free_parameters(self):
        family = solve_binomial_recursion(2)
        member = family_member(family, [1, 0, cr(0, 1)])
        assert member.coefficient(0, 0) == 1
        assert member.coefficient(1, 0) == ZERO
        assert member.coefficient(1, 1) == cr(0, 2)


class TestBuildersAgree:
    """The recursion, the solved system and the pattern builder give the same tables."""

    @pytest.mark.parametrize("j", range(9))
    def test_each_total_order_gives_the_binomial_pattern(self, j):
        system = exponentiality_constraints(j)
        recursion = family_basis(solve_binomial_recursion(j))
        solved = nullspace_basis(system)
        for n in range(j + 1):
            pattern = binomial_pattern_matrix(j + 1, n)
            assert recursion[n] == dyad_table(j + 1, pattern)
            scale = solved[n].coefficient(0, n)  # the pattern's entry there is C(n, 0) = 1
            assert scale != ZERO
            assert solved[n].entries == {key: v * scale for key, v in pattern.items()}
        for member in recursion + solved:
            assert all(evaluate(eq, member) == ZERO for eq in equations(system))


class TestExponentialSubspaceBasis:
    def test_order_one(self):
        members = exponential_subspace_basis(ComplexPole(0, 1, 1))
        assert len(members) == 1
        assert members[0].items() == [((0, 0), ONE)]

    def test_order_two(self):
        members = exponential_subspace_basis(ComplexPole(0, 1, 2))
        assert members[0].items() == [((0, 0), ONE)]
        assert members[1].items() == [((0, 1), ONE), ((1, 0), ONE)]

    def test_order_three_binomial_row(self):
        members = exponential_subspace_basis(ComplexPole(0, 1, 3))
        assert members[2].items() == [((0, 2), ONE), ((1, 1), cr(2)), ((2, 0), ONE)]

    def test_members_match_pattern_matrices(self):
        pole = ComplexPole(1, 2, 4)
        for n, member in enumerate(exponential_subspace_basis(pole)):
            assert member == DyadicOperator(pole, binomial_pattern_matrix(4, n))

    @pytest.mark.parametrize("r", range(1, 9))
    def test_members_sit_on_disjoint_supports_and_have_full_rank(self, r):
        members = exponential_subspace_basis(ComplexPole(0, 1, r))
        supports = [set(member.entries) for member in members]
        assert all(supports) and len(set().union(*supports)) == sum(map(len, supports))
        keys = [(k, m) for k in range(r) for m in range(r)]
        assert matrix_rank([[member.coefficient(*key) for key in keys] for member in members]) == r

    @pytest.mark.parametrize(
        "last",
        [
            lambda members: DyadicOperator(members[0].pole, {}),
            # shares its dyads with members 0 and 1
            lambda members: combination(members[0].pole, (1, members[0]), (1, members[1])),
        ],
        ids=["zero member", "sum of members"],
    )
    def test_dependent_family_is_rejected(self, monkeypatch, last):
        """Every member stays pure-exponential, so only the independence check can fail."""
        pole = ComplexPole(0, 1, 3)
        members = [exponential_state_operator(pole, n, include_prefactor=False) for n in range(3)]
        members[2] = last(members)
        monkeypatch.setattr(operators, "exponential_state_operator",
                            lambda _, n, include_prefactor=True: members[n])
        with pytest.raises(ArithmeticError, match="linearly dependent"):
            exponential_subspace_basis(pole)

    def test_a_member_whose_evolution_carries_t_is_refused(self, monkeypatch):
        """The basis checks its own evolutions, before it ranks the family."""
        pole = ComplexPole(0, 1, 2)
        with_t = TimePolynomialOperator(pole, {(0, 0): Polynomial([1]), (1, 1): Polynomial([0, 1])})
        monkeypatch.setattr(operators, "evolve_operator", lambda member: with_t)
        with pytest.raises(ArithmeticError, match="^basis member failed the pure-exponential "
                           "check; evolution is inconsistent$"):
            exponential_subspace_basis(pole)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_member_replaced_by_a_combination_is_refused_iff_its_own_weight_is_zero(self, data):
        """The lead-dyad check against the full table's rank, its oracle, up to r = 8."""
        r = data.draw(st.integers(1, 8))
        replaced = data.draw(st.integers(0, r - 1))
        weights = data.draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        pole = ComplexPole(0, 1, r)
        members = [exponential_state_operator(pole, n, include_prefactor=False) for n in range(r)]
        members[replaced] = combination(pole, *zip(weights, members))
        keys = [(k, m) for k in range(r) for m in range(r)]
        full_rank = matrix_rank([[member.coefficient(*key) for key in keys] for member in members])
        with mock.patch.object(operators, "exponential_state_operator",
                               lambda _, n, include_prefactor=True: members[n]):
            try:
                exponential_subspace_basis(pole)
                refused = False
            except ArithmeticError as exc:
                assert "linearly dependent" in str(exc)
                refused = True
        assert refused == (weights[replaced] == 0) == (full_rank != r)


class TestVerifyRestrictionEquivalence:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_dimension_equals_order(self, r):
        report = verify_restriction_equivalence(ComplexPole(0, 1, r))
        assert report.solution_dimension == r
        assert report.pattern_matches
        assert report.passed

    def test_order_two_forces_corner_to_zero(self):
        report = verify_restriction_equivalence(ComplexPole(0, 1, 2))
        for member in report.basis:
            assert member.coefficient(1, 1) == ZERO

    def test_order_three_couples_center_to_corner(self):
        # every solution has entry(ket=1,bra=1) = 2 * entry(ket=0,bra=2)
        report = verify_restriction_equivalence(ComplexPole(0, 1, 3))
        for member in report.basis:
            assert member.coefficient(1, 1) == 2 * member.coefficient(0, 2)
            assert member.coefficient(1, 1) == 2 * member.coefficient(2, 0)

    def test_a_system_of_another_bound_is_refused(self):
        with pytest.raises(ValueError, match=r"^a pole of order 2 restricts the system of "
                                             r"bound 2, not 3$"):
            verify_restriction_equivalence(ComplexPole(0, 1, 2), exponentiality_constraints(3))

    def test_report_json_fields(self):
        payload = verify_restriction_equivalence(ComplexPole(0, 1, 2)).to_json_dict()
        assert payload["solution_dimension"] == 2
        assert payload["passed"] is True
        assert payload["basis"]


class TestCombinatorialIdentities:
    def test_trinomial_revision(self):
        for n in range(13):
            for m in range(n + 1):
                for l in range(n - m + 1):
                    for k in range(l, n - m + 1):
                        left = binomial(n, k) * binomial(k, l) * binomial(n - k, m)
                        right = (
                            binomial(n, m)
                            * binomial(n - m, l)
                            * binomial(n - m - l, k - l)
                        )
                        assert left == right

    def test_alternating_collapse(self):
        for n in range(13):
            for m in range(n + 1):
                for l in range(n - m + 1):
                    total = sum(
                        binomial(n - m - l, k - l) * (-1) ** (k - l)
                        for k in range(l, n - m + 1)
                    )
                    if n - m - l >= 1:
                        assert total == 0
                    else:
                        assert total == 1


class TestReverseDirectionSampling:
    def test_off_pattern_tables_never_evolve_purely(self):
        rng = random.Random(99)
        for r in (2, 3):
            pole = ComplexPole(1, 1, r)
            found = 0
            while found < 25:
                entries = {
                    (k, m): cr(
                        Fraction(rng.randrange(-8, 9), rng.randrange(1, 6)),
                        Fraction(rng.randrange(-8, 9), rng.randrange(1, 6)),
                    )
                    for k in range(r)
                    for m in range(r)
                }
                if _satisfies_binomial_pattern(entries, r):
                    continue
                found += 1
                evolved = evolve_operator(dyad_operator(pole, entries))
                assert not is_pure_exponential(evolved)


def _satisfies_binomial_pattern(entries, r):
    """Exact check of the restricted coefficient pattern."""
    for k in range(r):
        for m in range(r):
            value = entries.get((k, m), ZERO)
            if k + m <= r - 1:
                anchor = entries.get((0, k + m), ZERO)
                if value != anchor * binomial(k + m, k):
                    return False
            elif value:
                return False
    return True
