"""Tests for the Jordan block and exact chain-vector evolution."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamow.exact import ComplexRational, ONE, ZERO
from gamow.jordan import (
    ComplexPole,
    GamowChainVector,
    JordanBlockMatrix,
    build_jordan_block,
    check_jordan_degree,
    evolve_ket,
    evolve_state,
    survival_modulus,
)


def cr(re, im=0):
    return ComplexRational(re, im)


POLE = ComplexPole(2, 1, 4)  # z = 2 - i/2
# E or Gamma as the constructor takes them: int, Fraction, float (subnormals too) or numeric str
EXACT_INPUTS = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**6),
              st.floats(-1e6, 1e6)).map(str),
)


def _spellings(value: Fraction):
    """Each way to give `value` to the constructor that spells it exactly."""
    spellings = [value, str(value)]
    if value.denominator == 1:
        spellings.append(int(value))
    if float(value) == value:
        spellings.append(float(value))
    return spellings


# -- independent oracles used below ----------------------------------------


def matvec(entries, vector):
    return tuple(
        sum((row[j] * vector[j] for j in range(len(vector))), ZERO) for row in entries
    )


def shifted_block_power_applied(matrix, power, basis_index):
    """(J - z)^power e_k computed by raw repeated multiplication."""
    z = matrix.pole.position
    r = matrix.size
    shifted = [
        [matrix.entries[i][j] - (z if i == j else ZERO) for j in range(r)]
        for i in range(r)
    ]
    vector = tuple(ONE if p == basis_index else ZERO for p in range(r))
    for _ in range(power):
        vector = matvec(shifted, vector)
    return vector


def terminating_exponential_column(pole, k, t):
    """Column k of exp(-i J t) via the finite nilpotent series.

    exp(-iJt) = exp(-izt) * sum_{q<r} (-it)^q N^q / q!  with N = J - z.  The
    series terminates because N^r = 0, so this is exact, not an approximation.
    The scalar phase is left symbolic to match GamowChainVector.
    """
    r = pole.order
    matrix = build_jordan_block(pole)
    z = pole.position
    nilpotent = [
        [matrix.entries[i][j] - (z if i == j else ZERO) for j in range(r)]
        for i in range(r)
    ]
    column = tuple(ONE if p == k else ZERO for p in range(r))
    minus_it = cr(0, -1) * cr(t)
    total = [ZERO] * r
    power_vector = column
    coefficient = ONE
    for q in range(r):
        if q > 0:
            power_vector = matvec(nilpotent, power_vector)
            coefficient = coefficient * minus_it / q
        total = [a + coefficient * b for a, b in zip(total, power_vector)]
    return tuple(total)


# -- pole and block construction --------------------------------------------


class TestComplexPole:
    def test_position(self):
        pole = ComplexPole(3, 2, 1)
        assert pole.position == cr(3, -1)
        assert pole.position.imag < 0

    @pytest.mark.parametrize("width, shown", [
        (0, "0"), (-0.0, "0"), (-1, "-1"), (Fraction(-1, 2), "-1/2"), (-0.5, "-1/2"),
        ("-3/4", "-3/4"), (-1e-300, f"-6032057205060441/{2 ** 1049}"),
    ])
    def test_nonpositive_width_rejected(self, width, shown):
        """The width in lowest terms, as the Fraction of its exact value prints it."""
        with pytest.raises(ValueError, match=f"^pole width must be positive, got {shown}$"):
            ComplexPole(1, width, 2)

    @pytest.mark.parametrize("order", [0, -3, 1.5])
    def test_bad_order_rejected(self, order):
        with pytest.raises(ValueError):
            ComplexPole(1, 1, order)

    @settings(max_examples=300, deadline=None)
    @given(energy=EXACT_INPUTS, width=EXACT_INPUTS.filter(lambda value: Fraction(value) > 0))
    @example(energy=0, width=5e-324)
    @example(energy=-2.5e-323, width=2.225073858507201e-308)
    @example(energy="1/3", width=Fraction(1, 6))
    def test_the_position_holds_the_inputs_exactly(self, energy, width):
        pole = ComplexPole(energy, width, 2)
        e, w = Fraction(energy), Fraction(width)
        assert pole.position == ComplexRational(e, -w / 2)
        assert type(pole.resonance_energy) is Fraction and pole.resonance_energy == e
        assert type(pole.width) is Fraction and pole.width == w
        # the width the commands compute with: Gamma in lowest terms, and its correctly
        # rounded float, subnormal widths included
        numerator, denominator = pole._width_ratio()
        assert (numerator, denominator) == w.as_integer_ratio()
        assert numerator / denominator == float(w)
        for twin_energy in _spellings(e):
            for twin_width in _spellings(w):
                twin = ComplexPole(twin_energy, twin_width, 2)
                assert twin == pole and hash(twin) == hash(pole)
        assert ComplexPole(e, w, 3) != pole


class TestBuildJordanBlock:
    def test_order_one_is_scalar(self):
        pole = ComplexPole(1, 2, 1)
        block = build_jordan_block(pole)
        assert block.entries == ((cr(1, -1),),)

    def test_order_two(self):
        pole = ComplexPole(0, 1, 2)
        block = build_jordan_block(pole)
        z = cr(0, Fraction(-1, 2))
        assert block.entries == ((z, ONE), (ZERO, z))

    def test_order_three_superdiagonal_is_one_two(self):
        block = build_jordan_block(ComplexPole(0, 1, 3))
        assert block.entries[0][1] == 1
        assert block.entries[1][2] == 2
        assert block.entries[0][2] == 0
        assert block.entries[2][0] == 0

    def test_chain_relation(self):
        # J e_k = z e_k + k e_{k-1}
        block = build_jordan_block(POLE)
        z = POLE.position
        for k in range(POLE.order):
            image = block.matvec(tuple(ONE if p == k else ZERO for p in range(POLE.order)))
            expected = [ZERO] * POLE.order
            expected[k] = z
            if k > 0:
                expected[k - 1] = cr(k)
            assert list(image) == expected

    def test_eigen_relation_for_order_zero(self):
        block = build_jordan_block(POLE)
        e0 = (ONE,) + (ZERO,) * (POLE.order - 1)
        assert block.matvec(e0) == tuple(POLE.position * c for c in e0)

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            JordanBlockMatrix(ComplexPole(0, 1, 2), [[1, 2, 3]])


class TestCheckJordanDegree:
    def test_order_two_top_vector(self):
        block = build_jordan_block(ComplexPole(1, 1, 2))
        assert check_jordan_degree(block, 1) == (True, True)

    def test_order_one_eigenvector(self):
        block = build_jordan_block(ComplexPole(1, 1, 1))
        assert check_jordan_degree(block, 0) == (True, True)

    def test_order_four_against_raw_powering(self):
        block = build_jordan_block(POLE)
        annihilated, not_lower = check_jordan_degree(block, 3)
        assert (annihilated, not_lower) == (True, True)
        # independent oracle: raw (J - z)^p e_3
        assert any(shifted_block_power_applied(block, 3, 3))
        assert not any(shifted_block_power_applied(block, 4, 3))

    def test_degree_is_sharp_at_every_order(self):
        for r in range(1, 7):
            block = build_jordan_block(ComplexPole(Fraction(1, 3), Fraction(2, 7), r))
            for k in range(r):
                assert check_jordan_degree(block, k) == (True, True)
                assert not any(shifted_block_power_applied(block, k + 1, k))
                assert any(shifted_block_power_applied(block, k, k))

    def test_out_of_range_rejected(self):
        block = build_jordan_block(ComplexPole(0, 1, 2))
        with pytest.raises(ValueError):
            check_jordan_degree(block, 2)
        with pytest.raises(ValueError):
            check_jordan_degree(block, -1)


# -- evolution ---------------------------------------------------------------


class TestEvolveKet:
    def test_order_zero_single_term(self):
        state = evolve_ket(POLE, 0, Fraction(7, 3))
        assert state.coefficients == (ONE, ZERO, ZERO, ZERO)
        assert state.phase_time == Fraction(7, 3)

    def test_order_one(self):
        t = Fraction(5, 2)
        state = evolve_ket(POLE, 1, t)
        assert state.coefficients == (cr(0, -t), ONE, ZERO, ZERO)

    def test_order_two_binomial_coefficients(self):
        t = Fraction(3)
        state = evolve_ket(POLE, 2, t)
        minus_it = cr(0, -t)
        assert state.coefficients == (minus_it * minus_it, 2 * minus_it, ONE, ZERO)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve_ket(POLE, 0, -1)
        with pytest.raises(ValueError):
            evolve_ket(POLE, 1, Fraction(-1, 10))

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            evolve_ket(POLE, 4, 1)

    def test_span_invariance(self):
        # no coefficients appear above the starting order
        for k in range(POLE.order):
            state = evolve_ket(POLE, k, Fraction(9, 7))
            assert state.highest_order == k
            assert all(not c for c in state.coefficients[k + 1 :])

    def test_matches_terminating_matrix_exponential(self):
        for r in range(1, 7):
            pole = ComplexPole(Fraction(3, 2), Fraction(4, 5), r)
            for k in range(r):
                for t in (0, Fraction(1, 3), Fraction(7, 2), 2):
                    assert (
                        evolve_ket(pole, k, t).coefficients
                        == terminating_exponential_column(pole, k, t)
                    )

    def test_semigroup_exact(self):
        rng = random.Random(20240811)
        for r in range(1, 7):
            pole = ComplexPole(Fraction(1, 2), Fraction(5, 3), r)
            for _ in range(8):
                t1 = Fraction(rng.randrange(0, 40), rng.randrange(1, 12))
                t2 = Fraction(rng.randrange(0, 40), rng.randrange(1, 12))
                for k in range(r):
                    once = evolve_state(evolve_ket(pole, k, t1), t2)
                    direct = evolve_ket(pole, k, t1 + t2)
                    assert once == direct

    def test_semigroup_on_mixed_states(self):
        pole = ComplexPole(1, 1, 3)
        state = GamowChainVector(pole, (cr(1, 1), cr(Fraction(-2, 3)), cr(0, 5)))
        t1, t2 = Fraction(4, 7), Fraction(9, 5)
        assert evolve_state(evolve_state(state, t1), t2) == evolve_state(state, t1 + t2)

    def test_numeric_phase(self):
        pole = ComplexPole(0, 2, 1)
        state = evolve_ket(pole, 0, 1)
        numeric = state.to_numeric()
        # z = -i, so exp(-i z t) = exp(-1) at t = 1
        assert numeric[0] == pytest.approx(math.exp(-1.0))


class TestGamowChainVector:
    def test_length_must_match_order(self):
        with pytest.raises(ValueError):
            GamowChainVector(POLE, (ONE, ZERO))

    def test_basis_out_of_range(self):
        with pytest.raises(ValueError):
            GamowChainVector.basis(POLE, 9)


class TestSurvivalModulus:
    def test_no_evolution(self):
        assert survival_modulus(POLE, 0) == 1.0

    def test_unit_width_unit_time(self):
        assert survival_modulus(ComplexPole(5, 1, 1), 1) == pytest.approx(math.exp(-1))

    def test_width_time_product_invariance(self):
        assert survival_modulus(ComplexPole(0, 2, 2), 0.5) == pytest.approx(math.exp(-1))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            survival_modulus(POLE, -0.1)

    def test_matches_squared_phase_modulus(self):
        pole = ComplexPole(Fraction(7, 2), Fraction(3, 4), 2)
        t = Fraction(11, 6)
        state = evolve_ket(pole, 0, t)
        assert abs(state.phase_factor()) ** 2 == pytest.approx(survival_modulus(pole, t))
