"""Properties of the immutable value classes and of exact evolution.

Instances built from equal int, Fraction or float inputs are equal and hash
alike, and a value's repr and hash are those of its fields.  That every
value class refuses changes, pickles and copies to an equal value, and
refuses a wrong field count is checked by contracts.py, one value of each.
Evolution obeys the semigroup law, and an evolved operator's entries are
the products of the independent ket and bra evolutions.
"""

import pickle
from fractions import Fraction

import pytest
from evolution_oracle import evolve_operator_by_products
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamow.exact import ComplexRational, Polynomial, RationalFunction, binomial
from gamow.jordan import (
    ComplexPole,
    GamowChainVector,
    build_jordan_block,
    evolve_ket,
    evolve_state,
)
from gamow.operators import (
    ConstraintSystem,
    DyadicOperator,
    RestrictionReport,
    TimePolynomialOperator,
    evolve_operator,
    exponential_state_operator,
    exponentiality_constraints,
    verify_restriction_equivalence,
)
from gamow.smatrix import DecompositionReport, IntegralResult, SMatrixModel

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
    return DyadicOperator(pole, entries)


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
    return DyadicOperator(pole, entries)


class TestEvolutionByRotation:
    """The summed phase rotation gives the term-by-term product evolution."""

    @PROPERTY_SETTINGS
    @given(rational_operators())
    @example(DyadicOperator(ComplexPole(0, 1, 3), {}))
    @example(DyadicOperator(ComplexPole(0, 1, 2), {
        (0, 0): 0, (1, 1): ComplexRational(Fraction(1, 3), Fraction(-2, 7))}))
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
        x = Polynomial([0, 1])
        assert len({RationalFunction(x, 1), RationalFunction(x * 2, 2)}) == 1


def test_repr_hash_and_equality_are_those_of_the_fields():
    pole = ComplexPole(1, 2, 2)
    assert repr(pole) == (
        "ComplexPole(resonance_energy=Fraction(1, 1), width=Fraction(2, 1), order=2)")
    assert hash(pole) == hash((Fraction(1), Fraction(2), 2))
    system = exponentiality_constraints(1)
    assert repr(system) == "ConstraintSystem(j=1, rows=((0, 0, 1, (1, -1)),))"
    assert system == ConstraintSystem(1, [(0, 0, 1, (1, -1))])
    assert hash(system) == hash((1, ((0, 0, 1, (1, -1)),)))
    result = IntegralResult(1j, 0.0, ())
    assert repr(result) == "IntegralResult(value=1j, error_estimate=0.0, _unconverged=())"
    assert result == IntegralResult(1j, 0.0, []) and hash(result) == hash((1j, 0.0, ()))
    assert result != DecompositionReport(1j, 0j, 1j, 0.0, 1e-8, 0.0, ())


def test_dict_fields_hash_as_sorted_items():
    """The hashes of the former per-class overrides, so no set or dict order moves."""
    entries = {(1, 0): ComplexRational(3), (0, 1): ComplexRational(1, 2)}
    pole = ComplexPole(1, 2, 2)
    operator = DyadicOperator(pole, entries)
    assert hash(operator) == hash((pole, tuple(sorted(entries.items()))))
    evolved = evolve_operator(operator)
    assert len(evolved.table) > 1
    assert hash(evolved) == hash((pole, tuple(sorted(evolved.table.items()))))


def test_keyword_constructions():
    report = DecompositionReport(direct=1j, background=0.5j, residue=0.5j, discrepancy=0.0,
                                 tolerance=1e-8, quadrature_error=2e-12, _unconverged=[])
    assert report == DecompositionReport(1j, 0.5j, 0.5j, 0.0, 1e-8, 2e-12, ())
    assert report._unconverged == () and report.converged and report.passed
    pole = ComplexPole(resonance_energy=1, width=2, order=2)
    assert pole == ComplexPole(1, 2, 2)
    restriction = RestrictionReport(pole=pole, equation_count=4, blocks=[0, 1])
    assert restriction == RestrictionReport(pole, 4, (0, 1)) == verify_restriction_equivalence(pole)
    assert restriction.blocks == (0, 1) and restriction.passed
    result = IntegralResult(value=1j, error_estimate=0.0, _unconverged=[])
    assert result._unconverged == () and result.converged


@pytest.mark.parametrize("blocks", [(), (0,)], ids=["no-block", "block-0"])
def test_a_restriction_passes_only_with_every_block(blocks):
    report = RestrictionReport(ComplexPole(0, 1, 2), 3, blocks)
    assert report.passed is False and report.pattern_matches is False
    payload = report.to_json_dict()
    assert payload["passed"] is False and payload["pattern_matches"] is False
    assert payload["solution_dimension"] == len(blocks) < payload["expected_dimension"] == 2


@PROPERTY_SETTINGS
@given(st.integers(1, 6).flatmap(
    lambda r: st.tuples(st.just(r), st.sets(st.integers(0, r - 1)).map(sorted).map(tuple))))
def test_a_restriction_reads_its_figures_off_its_blocks(drawn):
    r, blocks = drawn
    report = RestrictionReport(ComplexPole(Fraction(1, 3), 2, r), 7, blocks)
    payload = report.to_json_dict()
    complete = blocks == tuple(range(r))
    assert payload == {
        "r": r, "j": 2 * (r - 1), "equation_count": 7, "variable_count": r * r,
        "solution_dimension": len(blocks), "expected_dimension": r,
        "pattern_matches": complete, "passed": complete,
        "basis": [{"entries": [{"ket": k, "bra": n - k, "coeff": [binomial(n, k), 0]}
                               for k in range(n + 1)]} for n in blocks],
    }
    assert (report.j, report.solution_dimension) == (payload["j"], len(blocks))
    assert report.passed is report.pattern_matches is complete
    assert [member.pole for member in report.basis] == [report.pole] * len(blocks)


@pytest.mark.parametrize("blocks", [(2,), (0, 1, 2), (-1,), (1, 0), (0, 0), (0, 2, 1)],
                         ids=str)
def test_a_restriction_refuses_a_block_out_of_range_or_order(blocks):
    with pytest.raises(ValueError, match=r"^block -?\d of \(.*\): out of order or not below 2$"):
        RestrictionReport(ComplexPole(0, 1, 2), 3, blocks)


@PROPERTY_SETTINGS
@given(st.floats(0, 1e-6), st.floats(1e-12, 1e-6),
       st.lists(st.sampled_from(["leg [0, 1]: ier 1, subdivision limit",
                                 "leg [1, inf]: ier 2, roundoff"]), max_size=2))
def test_verdicts_are_read_off_the_recorded_figures(discrepancy, tolerance, legs):
    result = IntegralResult(1j, 1e-12, legs)
    assert result.converged is (not legs)
    unconverged = [("direct", tuple(legs))] if legs else []
    report = DecompositionReport(1j, 0.5j, 0.5j, discrepancy, tolerance, 2e-12, unconverged)
    assert report.converged is (not legs)
    assert report.passed is (discrepancy <= tolerance and not legs)
    assert report.to_json_dict()["passed"] is report.passed
    assert report.to_json_dict()["converged"] is report.converged


@pytest.mark.parametrize("construct", [
    lambda: RestrictionReport(order=3, j=7, equation_count=3, variable_count=4,
                              solution_dimension=2, expected_dimension=2, pattern_matches=True,
                              basis=[]),
    lambda: DecompositionReport(1j, 0j, 0j, 5.0, 1e-8, True, 0.0, False),
    lambda: IntegralResult(1j, 0.0, True, ("leg x",)),
], ids=["restriction", "decomposition", "integral"])
def test_a_derived_figure_cannot_be_given(construct):
    """A verdict beside the facts it follows from could contradict them, so none is a field."""
    with pytest.raises(TypeError):
        construct()


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
        operators = [DyadicOperator(pole, {key: v}) for v in representations(value)]
        assert_equal_and_hash_alike(operators)
        assert_equal_and_hash_alike([evolve_operator(op) for op in operators])
        assert_equal_and_hash_alike(
            [TimePolynomialOperator(pole, {key: v}) for v in representations(value)]
        )
