"""Tests for the exact arithmetic core."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamow.exact import (
    ComplexRational,
    I,
    ONE,
    Polynomial,
    RationalFunction,
    ZERO,
    binomial,
    matrix_rank,
    nullspace,
    rref,
)


def cr(re, im=0):
    return ComplexRational(re, im)


class TestComplexRational:
    def test_arithmetic(self):
        a = cr(1, 2)
        b = cr(3, -1)
        assert a + b == cr(4, 1)
        assert a - b == cr(-2, 3)
        assert a * b == cr(5, 5)
        assert (a * b) / b == a
        assert -a == cr(-1, -2)
        assert a.conjugate() == cr(1, -2)

    def test_powers_of_i(self):
        assert I**2 == cr(-1)
        assert I**3 == cr(0, -1)
        assert I**4 == ONE
        assert (-I) ** 2 == cr(-1)
        assert I**-1 == -I

    def test_exact_fractions(self):
        third = cr(Fraction(1, 3), Fraction(1, 7))
        assert third * 21 == cr(7, 3)
        assert (third / third) == ONE

    def test_float_embedding_is_exact(self):
        assert cr(0.5).real == Fraction(1, 2)
        assert cr(0.1).real == Fraction(0.1)  # the binary value, embedded exactly

    def test_mixing_with_floats_demotes_to_complex(self):
        value = cr(1, 1) * 2.0
        assert isinstance(value, complex)
        assert value == 2 + 2j
        assert cr(1, 1) + 1j == 1 + 2j

    def test_equality_and_hash_with_plain_numbers(self):
        assert cr(3) == 3
        assert cr(3) == Fraction(3)
        assert hash(cr(3)) == hash(3)
        assert hash(cr(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert cr(1, 1) == 1 + 1j

    def test_floats_compare_exactly_like_fractions(self):
        third = cr(Fraction(1, 3))
        assert third != 1 / 3
        assert Fraction(1, 3) != 1 / 3
        assert len({third, 1 / 3}) == 2
        assert cr(0.5) == 0.5 and cr(0.5, 0.25) == 0.5 + 0.25j
        assert cr(0.1, 0.3) == complex(0.1, 0.3)
        assert len({cr(0.1, 0.3), complex(0.1, 0.3)}) == 1
        assert cr(1) != float("nan") and cr(1, 1) != complex(1, float("inf"))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_equal_values_hash_alike(self, data):
        reals = st.one_of(
            st.integers(-10**30, 10**30),
            st.fractions(max_denominator=10**12),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        plain = st.one_of(
            reals,
            st.complex_numbers(allow_nan=False, allow_infinity=False),
        )
        a = data.draw(plain)
        related = [a]
        if isinstance(a, complex) and not a.imag:
            related.append(a.real)
        if isinstance(a, float):
            related += [complex(a), Fraction(a)] + ([int(a)] if a.is_integer() else [])
        if isinstance(a, Fraction):
            related.append(float(a))
        b = data.draw(st.one_of(plain, st.sampled_from(related)))
        exact = ComplexRational.from_value(a)
        assert exact == a and hash(exact) == hash(a)
        for other in (b, ComplexRational.from_value(b)):
            assert (exact == other) == (other == exact)
            if exact == other:
                assert hash(exact) == hash(other)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_immutability(self):
        with pytest.raises(AttributeError):
            ONE.real = Fraction(2)


class TestPolynomial:
    def test_trims_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).coefficients == (cr(1), cr(2))
        assert Polynomial([0]).is_zero
        assert Polynomial([0]).degree == -1

    def test_product_difference_of_squares(self):
        p = Polynomial([1, 1]) * Polynomial([1, -1])
        assert p == Polynomial([1, 0, -1])

    def test_monomial_and_coefficient(self):
        m = Polynomial.monomial(3, cr(0, 2))
        assert m.coefficient(3) == cr(0, 2)
        assert m.coefficient(2) == ZERO
        assert m.degree == 3

    def test_derivative(self):
        p = Polynomial([5, 0, 0, 1])  # 5 + x^3
        assert p.derivative() == Polynomial([0, 0, 3])
        assert p.derivative(3) == Polynomial([6])
        assert p.derivative(4).is_zero

    def test_taylor_coefficients_are_scaled_derivatives(self):
        p = Polynomial([cr(1, 2), -3, cr(0, Fraction(1, 2)), 5])
        center = cr(Fraction(2, 3), -1)
        expected = [p.derivative(k)(center) / math.factorial(k) for k in range(6)]
        assert p.taylor_coefficients(center, 6) == expected
        assert expected[4] == expected[5] == ZERO
        assert Polynomial.zero().taylor_coefficients(center, 2) == [ZERO, ZERO]

    def test_exact_evaluation(self):
        p = Polynomial([1, -2, 1])  # (x-1)^2
        assert p(Fraction(3, 2)) == cr(Fraction(1, 4))
        assert p(cr(1)) == ZERO

    def test_float_evaluation(self):
        p = Polynomial([1, 0, 1])
        assert p(1j) == pytest.approx(0)
        assert p(2.0) == pytest.approx(5.0)

    def test_scalar_operations(self):
        p = Polynomial([1, 1])
        assert 2 * p == Polynomial([2, 2])
        assert p - 1 == Polynomial([0, 1])
        assert p**2 == Polynomial([1, 2, 1])


class TestRationalFunction:
    def test_evaluation(self):
        f = RationalFunction.from_coefficient_lists([1], [cr(0, -1), 1])  # 1/(z - i)
        assert f(cr(0, 2)) == cr(0, -1)  # 1/(2i - i) = 1/i = -i

    def test_derivative_matches_hand_value(self):
        f = RationalFunction.from_coefficient_lists([1], [cr(0, -1), 1])
        # d/dz (z-i)^-1 = -(z-i)^-2; at z=0 this is -1/(-i)^2 = 1
        assert f.derivative()(ZERO) == ONE

    def test_second_derivative(self):
        f = RationalFunction.from_coefficient_lists([1], [cr(0, -1), 1])
        # d^2/dz^2 (z-i)^-1 = 2 (z-i)^-3; at z=0: 2/(-i)^3 = 2/i = -2i
        assert f.derivative(2)(ZERO) == cr(0, -2)

    def test_product_derivative_leibniz(self):
        f = RationalFunction.from_coefficient_lists([1], [cr(0, -1), 1])
        g = RationalFunction.from_coefficient_lists([0, 1], [cr(0, -2), 1])
        product = f * g
        point = cr(Fraction(1, 3), Fraction(-1, 5))
        leibniz = f.derivative()(point) * g(point) + f(point) * g.derivative()(point)
        assert product.derivative()(point) == leibniz

    def test_pole_evaluation_rejected(self):
        f = RationalFunction.from_coefficient_lists([1], [cr(0, -1), 1])
        with pytest.raises(ZeroDivisionError):
            f(cr(0, 1))
        with pytest.raises(ZeroDivisionError):
            f.taylor_coefficients(cr(0, 1), 3)

    def test_taylor_coefficients_are_scaled_derivatives(self):
        f = RationalFunction.from_coefficient_lists([cr(1, 1), 2], [cr(-1), cr(0, -3), 1])
        point = cr(Fraction(1, 3), Fraction(-1, 5))
        expected = [f.derivative(k)(point) / math.factorial(k) for k in range(5)]
        assert f.taylor_coefficients(point, 5) == expected

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Polynomial([1]), Polynomial.zero())

    def test_cross_multiplied_equality(self):
        half = RationalFunction.from_coefficient_lists([1], [2])
        also_half = RationalFunction.from_coefficient_lists([2], [4])
        assert half == also_half


class TestLinearAlgebra:
    def test_rref_identity(self):
        reduced, pivots = rref([[cr(2), cr(0)], [cr(0), cr(3)]])
        assert pivots == [0, 1]
        assert reduced == [[ONE, ZERO], [ZERO, ONE]]

    def test_nullspace_of_chain(self):
        rows = [[cr(1), cr(-1), cr(0)], [cr(0), cr(1), cr(-1)]]
        basis = nullspace(rows, 3)
        assert basis == [(ONE, ONE, ONE)]

    def test_nullspace_of_empty_system_is_full_space(self):
        basis = nullspace([], 2)
        assert basis == [(ONE, ZERO), (ZERO, ONE)]

    def test_rank(self):
        assert matrix_rank([[cr(1), cr(2)], [cr(2), cr(4)]]) == 1
        assert matrix_rank([[cr(1), cr(2)], [cr(0), cr(1)]]) == 2

    def test_complex_elimination(self):
        rows = [[I, cr(1)]]  # i*x + y = 0; canonical vector has unit free coordinate
        basis = nullspace(rows, 2)
        assert basis == [(I, ONE)]
        assert I * basis[0][0] + basis[0][1] == ZERO


def test_binomial():
    assert binomial(4, 2) == 6
    assert binomial(0, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
