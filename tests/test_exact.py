"""Tests for the exact arithmetic core."""

import copy
import json
import math
import operator
import pickle
from decimal import Decimal
from fractions import Fraction
from importlib.resources import files

import pytest
from constraint_oracle import nullspace
from evolution_oracle import I_POWERS
from exact_oracle import FractionPair
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
    json_number,
    matrix_rank,
    rref,
)
from gamow.smatrix import load_model_file


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
        # the products that the evolution oracle's table of i^p stands for
        power = ONE
        for p in range(9):
            assert power == I_POWERS[p % 4]
            assert ONE / power == I_POWERS[-p % 4]
            power = power * I
        assert (-I) * (-I) == cr(-1)
        assert ONE / I == -I
        with pytest.raises(TypeError):
            I**2

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
        with pytest.raises(AttributeError):
            ONE.triple = (2, 0, 1)

    @pytest.mark.parametrize("name", ["real", "imag", "triple"])
    def test_parts_cannot_be_deleted(self, name):
        value = cr(Fraction(1, 3), -2)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert value.triple == (1, -6, 3) and value == cr(Fraction(1, 3), -2)


def _bundled_model():
    return load_model_file(files("gamow") / "data" / "residue_example.json")


@pytest.mark.parametrize("make", [
    lambda: cr(Fraction(-7, 12), 0.1) / 3,
    lambda: ZERO,
    lambda: Polynomial([cr(1, -2), Fraction(1, 3), 0.25]),
    lambda: RationalFunction(Polynomial([1, cr(0, 2)]), Polynomial([cr(3, 1), 0, 5])),
    _bundled_model,
], ids=["complex-rational", "zero", "polynomial", "rational-function", "bundled-model"])
def test_exact_values_survive_pickle_and_copy(make):
    value = make()
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value


# Oracle checks: ComplexRational against the Fraction-pair representation it
# replaced, with parts up to 2^200 and mixed int, Fraction, float and complex
# operands.  Results compare exactly: exact values by their parts, floats and
# complexes bit for bit, failures by their exception type.

_BIG = 2**200
_RATIONALS = st.one_of(
    st.just(0),
    st.integers(-_BIG, _BIG),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    st.floats(allow_nan=False, allow_infinity=False),
)
_PAIRS = st.tuples(_RATIONALS, _RATIONALS)
_PLAIN = st.one_of(
    st.integers(-_BIG, _BIG),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    st.floats(),
    st.complex_numbers(),
)
_EXAMPLES = settings(max_examples=400, deadline=None, derandomize=True)


def _outcome(function, *args):
    try:
        value = function(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)
    if isinstance(value, (ComplexRational, FractionPair)):
        return "exact", value.real, value.imag
    if isinstance(value, complex):
        return "complex", value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return "float", value.hex()
    return value


def _assert_canonical(value):
    re, im, den = value.triple
    assert type(re) is int and type(im) is int and type(den) is int
    assert den > 0 and math.gcd(re, im, den) == 1


class TestAgainstFractionPairs:
    @_EXAMPLES
    @given(_PAIRS, st.one_of(_PAIRS, _PLAIN))
    def test_binary_operations_match_the_oracle(self, pair, other):
        new, old = cr(*pair), FractionPair(*pair)
        if isinstance(other, tuple):
            new_other, old_other = cr(*other), FractionPair(*other)
        else:
            new_other = old_other = other
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            assert _outcome(op, new, new_other) == _outcome(op, old, old_other)
            assert _outcome(op, new_other, new) == _outcome(op, old_other, old)

    @_EXAMPLES
    @given(_PAIRS)
    def test_unary_operations_and_conversions_match_the_oracle(self, pair):
        new, old = cr(*pair), FractionPair(*pair)
        operations = [operator.neg, lambda x: x.conjugate(), complex, abs, bool, repr, hash]
        for op in operations:
            assert _outcome(op, new) == _outcome(op, old)

    @_EXAMPLES
    @given(_PAIRS, st.data())
    def test_equality_and_hash_match_the_oracle(self, pair, data):
        new, old = cr(*pair), FractionPair(*pair)
        related = [old.real, old.imag, complex(old), float(old.real), math.floor(old.real)]
        other = data.draw(st.one_of(_PLAIN, st.sampled_from(related), _PAIRS))
        if isinstance(other, tuple):
            assert (new == cr(*other)) is (old == FractionPair(*other))
            other = cr(*other)
        else:
            assert (new == other) is (old == other) and (other == new) is (other == old)
        assert hash(new) == hash(old)
        if new == other:
            assert hash(new) == hash(other)

    @_EXAMPLES
    @given(_PAIRS, st.one_of(_PAIRS, _RATIONALS,
                             st.complex_numbers(allow_nan=False, allow_infinity=False)))
    def test_every_result_is_canonical(self, pair, other):
        new = cr(*pair)
        other = cr(*other) if isinstance(other, tuple) else ComplexRational.from_value(other)
        results = [new, other, -new, new.conjugate(), new + other, new - other, other - new,
                   new * other]
        results += [x / y for x, y in ((new, other), (other, new)) if y]
        for value in results:
            _assert_canonical(value)
        assert ZERO.triple == (0, 0, 1) and (new - new).triple == (0, 0, 1)


class TestPolynomial:
    def test_trims_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).coefficients == (cr(1), cr(2))
        assert Polynomial([0]).is_zero
        assert Polynomial([0]).degree == -1

    def test_product_difference_of_squares(self):
        p = Polynomial([1, 1]) * Polynomial([1, -1])
        assert p == Polynomial([1, 0, -1])

    def test_coefficient(self):
        m = Polynomial([0, 0, 0, cr(0, 2)])
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

    @pytest.mark.parametrize("z, exact", [
        (3, True), (True, True), (Fraction(7, 2), True), (cr(3, 1), True),
        (3.0, False), (3 + 1j, False), ("3", False), (Decimal("3.5"), False),
    ], ids=["int", "bool", "Fraction", "ComplexRational", "float", "complex", "str", "Decimal"])
    def test_an_exact_operand_is_one_of_four_types(self, z, exact):
        """Int, bool, Fraction and ComplexRational evaluate and add exactly; the rest do not."""
        p = Polynomial([1, -2, 1])
        if exact:
            assert p(z) == p(ComplexRational.from_value(z)) and type(p(z)) is ComplexRational
            assert cr(1, 1) + z == cr(1, 1) + ComplexRational.from_value(z)
        else:
            assert type(p(z)) is complex and p(z) == pytest.approx(p(complex(z)))
            if not isinstance(z, (float, complex)):  # a str or a Decimal: no sum at all
                with pytest.raises(TypeError):
                    cr(1, 1) + z

    def test_scalar_operations(self):
        p = Polynomial([1, 1])
        assert 2 * p == Polynomial([2, 2])
        assert p - 1 == Polynomial([0, 1])

    def test_repr_writes_each_nonzero_term_in_rising_powers(self):
        assert repr(Polynomial.zero()) == "0"
        assert repr(Polynomial([Fraction(3, 2)])) == "3/2"
        assert repr(Polynomial([0, cr(1, -2), 0, Fraction(-1, 3)])) == "(1 - 2*i)*x + -1/3*x^3"
        assert repr(Polynomial([cr(0, 1), 1, cr(Fraction(1, 2), Fraction(3, 4))])) == (
            "1*i + 1*x + (1/2 + 3/4*i)*x^2")
        assert Polynomial([1, 0, 2]).format("t") == "1 + 2*t^2"


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

    def test_repr_is_the_quotient_of_the_polynomials(self):
        f = RationalFunction.from_coefficient_lists([1, 2], [cr(0, -1), 0, 1])
        assert repr(f) == "(1 + 2*x) / (-1*i + 1*x^2)"
        assert repr(RationalFunction(Polynomial.zero())) == "(0) / (1)"


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


class TestJsonNumber:
    """An exact value is written as the float equal to it, else as the exact integer."""

    @pytest.mark.parametrize("parts", [(0,), (1,), (-7,), (2**53,), (-(2**53),), (2**60,),
                                       (2**1023,), (1, 2), (-6, 2), (2**54, 1)])
    def test_a_float_where_one_equals_the_value(self, parts):
        number = json_number(*parts)
        assert type(number) is float and number == Fraction(*parts)

    @pytest.mark.parametrize("parts", [(2**53 + 1,), (-(2**53 + 1),), (binomial(57, 25),),
                                       (2**1024,), (-(10**400),), (2 * (2**53 + 1), 2)])
    def test_an_integer_that_no_float_holds_stays_exact(self, parts):
        number = json_number(*parts)
        assert type(number) is int and number == Fraction(*parts)
        assert json.loads(json.dumps(number)) == number

    @pytest.mark.parametrize("parts", [(1, 3), (2**60 + 1, 2), (-5, 2), (2 * 10**400 + 1, 10**400)])
    def test_a_value_that_is_not_an_integer_rounds_as_float_does(self, parts):
        number = json_number(*parts)
        assert type(number) is float and number == float(Fraction(*parts))

    @given(st.integers(-(2**1100), 2**1100) | st.integers(-(2**60), 2**60))
    def test_every_integer_reads_back_as_itself(self, value):
        number = json_number(value)
        assert json.loads(json.dumps(number)) == value
        assert type(number) is float or abs(value) > 2**53
