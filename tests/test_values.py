"""Properties of the immutable value classes and of exact evolution.

Every value class keeps its fields in `__slots__` on the `exact.Value` base:
assigning or deleting a field, or assigning any other name, raises
AttributeError; pickles and copies are equal to the original; and instances
built from equal int, Fraction or float inputs are equal and hash alike.
Evolution obeys the semigroup law, and an evolved operator's entries are
the products of the independent ket and bra evolutions.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from evolution_oracle import evolve_operator_by_products
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamow.exact import ComplexRational, Polynomial, RationalFunction, Value
from gamow.jordan import (
    ComplexPole,
    GamowChainVector,
    build_jordan_block,
    evolve_ket,
    evolve_state,
)
from gamow.operators import (
    BinomialRecursionFamily,
    CoefficientMatrix,
    DyadicOperator,
    RestrictionReport,
    TimePolynomialOperator,
    evolve_operator,
    exponential_state_operator,
    exponentiality_constraints,
    solve_binomial_recursion,
    verify_restriction_equivalence,
)
from gamow.smatrix import DecompositionReport, IntegralResult, SMatrixModel, TestFunction

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

# dyadic rationals, so that every value is also exactly a float
dyadic = st.builds(Fraction, st.integers(-48, 48), st.sampled_from([1, 2, 4, 8]))
times = st.builds(Fraction, st.integers(0, 24), st.sampled_from([1, 2, 3, 4]))
gaussian = st.builds(ComplexRational, dyadic, dyadic)


@st.composite
def poles(draw, max_order=4):
    width = draw(st.builds(Fraction, st.integers(1, 16), st.sampled_from([1, 2, 4])))
    return ComplexPole(draw(dyadic), width, draw(st.integers(1, max_order)))


@st.composite
def states(draw):
    pole = draw(poles())
    coefficients = draw(st.lists(gaussian, min_size=pole.order, max_size=pole.order))
    return GamowChainVector(pole, coefficients, draw(times))


@st.composite
def operators(draw):
    pole = draw(poles())
    keys = [(k, m) for k in range(pole.order) for m in range(pole.order)]
    entries = draw(st.dictionaries(st.sampled_from(keys), gaussian, max_size=len(keys)))
    return DyadicOperator(pole, CoefficientMatrix(pole.order, entries))


polynomials = st.lists(gaussian, max_size=4).map(Polynomial)


class TestEvolution:
    @PROPERTY_SETTINGS
    @given(states(), times, times)
    def test_semigroup_law(self, state, s, t):
        assert evolve_state(evolve_state(state, s), t) == evolve_state(state, s + t)

    @PROPERTY_SETTINGS
    @given(states())
    def test_time_zero_is_the_identity(self, state):
        assert evolve_state(state, 0) == state

    @PROPERTY_SETTINGS
    @given(operators())
    def test_operator_at_time_zero_is_the_operator(self, op):
        assert evolve_operator(op).at_time_zero() == op

    @PROPERTY_SETTINGS
    @given(operators(), times)
    def test_entries_are_products_of_ket_and_bra_evolutions(self, op, t):
        pole = op.pole
        kets = [evolve_ket(pole, k, t) for k in range(pole.order)]
        evolved = evolve_operator(op)
        for l in range(pole.order):
            for m in range(pole.order):
                expected = ComplexRational(0)
                for (k, n), c in op.items():
                    expected += c * kets[k].coefficients[l] * kets[n].coefficients[m].conjugate()
                assert evolved.entry_polynomial(l, m)(t) == expected


# any rationals, with zeros among them, as reals or as real and imaginary parts
rational = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9))
coefficients = st.one_of(st.just(0), st.integers(-9, 9), rational,
                         st.builds(ComplexRational, rational, rational))


@st.composite
def rational_operators(draw):
    pole = ComplexPole(draw(dyadic), 1, draw(st.integers(1, 6)))
    keys = [(k, m) for k in range(pole.order) for m in range(pole.order)]
    entries = draw(st.dictionaries(st.sampled_from(keys), coefficients, max_size=len(keys)))
    return DyadicOperator(pole, CoefficientMatrix(pole.order, entries))


class TestEvolutionByRotation:
    """The summed phase rotation gives the term-by-term product evolution."""

    @PROPERTY_SETTINGS
    @given(rational_operators())
    @example(DyadicOperator(ComplexPole(0, 1, 3), CoefficientMatrix(3, {})))
    @example(DyadicOperator(ComplexPole(0, 1, 2), CoefficientMatrix(
        2, {(0, 0): 0, (1, 1): ComplexRational(Fraction(1, 3), Fraction(-2, 7))})))
    def test_random_operators(self, op):
        assert evolve_operator(op) == evolve_operator_by_products(op)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_every_binomial_member(self, r):
        pole = ComplexPole(0, 1, r)
        for n in range(r):
            for prefactor in (False, True):
                op = exponential_state_operator(pole, n, include_prefactor=prefactor)
                assert evolve_operator(op) == evolve_operator_by_products(op)


class TestRationalFunctionHash:
    @PROPERTY_SETTINGS
    @given(polynomials, polynomials, polynomials)
    def test_common_factor_keeps_equality_and_hash(self, numerator, denominator, factor):
        if denominator.is_zero or factor.is_zero:
            return
        plain = RationalFunction(numerator, denominator)
        scaled = RationalFunction(numerator * factor, denominator * factor)
        assert scaled == plain
        assert hash(scaled) == hash(plain)

    def test_set_keeps_one_of_two_equal_quotients(self):
        x = Polynomial.monomial(1)
        assert len({RationalFunction(x, 1), RationalFunction(x * 2, 2)}) == 1


def one_of_each_value_class():
    pole = ComplexPole(1, 2, 2)
    system = exponentiality_constraints(2)
    ket = TestFunction(RationalFunction(Polynomial([1]), Polynomial([-1j, 1])), "ket")
    operator = DyadicOperator(pole, CoefficientMatrix(2, {(0, 1): 1}))
    return [
        Polynomial([1, 2]),
        RationalFunction(Polynomial([1]), Polynomial([2, 1])),
        pole,
        GamowChainVector.basis(pole, 1),
        build_jordan_block(pole),
        operator.coefficients,
        operator,
        evolve_operator(operator),
        system.equations[0],
        system,
        solve_binomial_recursion(2),
        verify_restriction_equivalence(pole),
        ket,
        SMatrixModel(pole, [1, 1]),
        IntegralResult(1j, 1e-12, True),
        DecompositionReport(1j, 0.5j, 0.5j, 0.0, 1e-8, True, 2e-12, True),
    ]


def test_one_of_each_covers_every_value_class():
    assert {type(value) for value in one_of_each_value_class()} == set(Value.__subclasses__())


VALUES = pytest.mark.parametrize("value", one_of_each_value_class(),
                                 ids=lambda value: type(value).__name__)


@VALUES
def test_assignment_raises(value):
    before = [getattr(value, name) for name in type(value).__slots__]
    for name, field in zip(type(value).__slots__, before):
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert [getattr(value, name) for name in type(value).__slots__] == before


@VALUES
def test_pickles_and_copies_are_equal(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value)
        fields = [getattr(clone, name) for name in type(value).__slots__]
        assert fields == [getattr(value, name) for name in type(value).__slots__]
        if type(value).__eq__ is not object.__eq__:  # the recursion family compares by identity
            assert clone == value and hash(clone) == hash(value)


def test_repr_hash_and_equality_are_those_of_the_fields():
    pole = ComplexPole(1, 2, 2)
    assert repr(pole) == (
        "ComplexPole(resonance_energy=Fraction(1, 1), width=Fraction(2, 1), order=2)")
    assert hash(pole) == hash((Fraction(1), Fraction(2), 2))
    assert repr(solve_binomial_recursion(2)) == "BinomialRecursionFamily(j=2)"
    assert solve_binomial_recursion(2) != solve_binomial_recursion(2)
    result = IntegralResult(1j, 0.0, True)
    assert result == IntegralResult(1j, 0.0, True, ())
    assert result != DecompositionReport(1j, 0j, 1j, 0.0, 1e-8, True, 0.0, True)


def test_a_wrong_field_count_raises_type_error():
    """Not the ValueError of `zip(strict=True)`, which the command line reports as bad input."""
    with pytest.raises(TypeError, match="BinomialRecursionFamily takes 2 fields, got 1"):
        BinomialRecursionFamily(2)
    with pytest.raises(TypeError, match="BinomialRecursionFamily takes 2 fields, got 3"):
        BinomialRecursionFamily(2, {}, None)
    for fields in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(TypeError, match=f"ComplexPole takes 3 fields, got {len(fields)}"):
            Value.__init__(object.__new__(ComplexPole), *fields)


def test_dict_fields_hash_as_sorted_items():
    """The hashes of the former per-class overrides, so no set or dict order moves."""
    entries = {(1, 0): ComplexRational(3), (0, 1): ComplexRational(1, 2)}
    table = CoefficientMatrix(2, entries)
    assert hash(table) == hash((2, tuple(sorted(entries.items()))))
    pole = ComplexPole(1, 2, 2)
    evolved = evolve_operator(DyadicOperator(pole, table))
    assert len(evolved.table) > 1
    assert hash(evolved) == hash((pole, tuple(sorted(evolved.table.items()))))


def test_keyword_constructions_and_defaults():
    report = DecompositionReport(direct=1j, background=0.5j, residue=0.5j, discrepancy=0.0,
                                 tolerance=1e-8, passed=True, quadrature_error=2e-12,
                                 converged=True)
    assert report == DecompositionReport(1j, 0.5j, 0.5j, 0.0, 1e-8, True, 2e-12, True, ())
    restriction = RestrictionReport(order=2, j=2, equation_count=3, variable_count=4,
                                    solution_dimension=2, expected_dimension=2,
                                    pattern_matches=True, basis=[])
    assert restriction.basis == () and restriction.passed
    pole = ComplexPole(resonance_energy=1, width=2, order=2)
    assert pole == ComplexPole(1, 2, 2)
    assert IntegralResult(1j, 0.0, True)._unconverged == ()


def test_unpickling_rebuilds_from_the_fields_without_init(monkeypatch):
    model = SMatrixModel(ComplexPole(1, 2, 2), [1, 1])
    data = pickle.dumps(model)

    def refuse(self, *args, **kwargs):
        raise AssertionError("__init__ ran while unpickling")

    for cls in (SMatrixModel, ComplexPole):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert pickle.loads(data) == model


def representations(value: Fraction):
    """The same number as a Fraction, a float and, when integral, an int."""
    forms = [value, float(value)]
    if value.denominator == 1:
        forms.append(int(value))
    return forms


def assert_equal_and_hash_alike(values):
    for value in values[1:]:
        assert value == values[0]
        assert hash(value) == hash(values[0])


class TestEqualInputsGiveEqualValues:
    @PROPERTY_SETTINGS
    @given(dyadic, dyadic.filter(lambda w: w > 0), st.integers(1, 4))
    def test_pole_and_jordan_block(self, energy, width, order):
        poles = [
            ComplexPole(e, w, order)
            for e, w in zip(representations(energy), representations(width))
        ]
        assert_equal_and_hash_alike(poles)
        assert_equal_and_hash_alike([build_jordan_block(pole) for pole in poles])

    @PROPERTY_SETTINGS
    @given(st.lists(dyadic, min_size=1, max_size=4), dyadic.map(abs))
    def test_polynomial_chain_vector_and_model(self, values, t):
        pole = ComplexPole(0, 1, len(values))
        forms = [representations(v)[:2] for v in values]
        coefficient_lists = [list(column) for column in zip(*forms)]
        assert_equal_and_hash_alike([Polynomial(c) for c in coefficient_lists])
        assert_equal_and_hash_alike(
            [RationalFunction(Polynomial(c), Polynomial([1, 1])) for c in coefficient_lists]
        )
        assert_equal_and_hash_alike(
            [GamowChainVector(pole, c, time) for c in coefficient_lists for time in representations(t)]
        )
        if values[-1]:
            assert_equal_and_hash_alike([SMatrixModel(pole, c) for c in coefficient_lists])

    @PROPERTY_SETTINGS
    @given(dyadic, st.integers(1, 3), st.data())
    def test_coefficient_tables_and_operators(self, value, order, data):
        pole = ComplexPole(1, 1, order)
        key = (data.draw(st.integers(0, order - 1)), data.draw(st.integers(0, order - 1)))
        tables = [CoefficientMatrix(order, {key: v}) for v in representations(value)]
        assert_equal_and_hash_alike(tables)
        operators = [DyadicOperator(pole, table) for table in tables]
        assert_equal_and_hash_alike(operators)
        assert_equal_and_hash_alike([evolve_operator(op) for op in operators])
        assert_equal_and_hash_alike(
            [TimePolynomialOperator(pole, {key: v}) for v in representations(value)]
        )
