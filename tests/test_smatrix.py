"""Tests for the rational amplitude model, residue expansion, and contour pieces."""

import contextlib
import math
import sys
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from contour_oracle import (
    GK15,
    cauchy_product_residue_core,
    energy_layout_piece,
    energy_quad,
    fraction_modulus_exponent,
    fraction_roots_above,
    two_run_leg,
)
from precision_oracle import oracle_check
from gamow import smatrix
from gamow.exact import ComplexRational, ONE, Polynomial, RationalFunction, ZERO, binomial
from gamow.jordan import ComplexPole
from gamow.smatrix import (
    SMatrixModel,
    TestFunction,
    background_integral,
    decomposition_check,
    direct_contour_integral,
    load_model_file,
    model_from_json,
    _amplitude_integrand,
    residue_core,
    residue_expansion,
    parse_test_function,
)


def cr(re, im=0):
    return ComplexRational(re, im)


def rational(num, den):
    return RationalFunction.from_coefficient_lists(num, den)


def ket(num, den):
    return TestFunction(rational(num, den), "ket")


def bra(num, den):
    return TestFunction(rational(num, den), "bra")


# f(z) = 1/(z-2i)^2 and g(z) = 1/(z-3i), the pair used throughout
F_KET = ket([1], [cr(-4), cr(0, -4), 1])
G_BRA = bra([1], [cr(0, -3), 1])


def with_roots(num, roots):
    """num / prod (z - w) over the given roots."""
    den = Polynomial((1,))
    for w in roots:
        den = den * Polynomial((-w, 1))
    return RationalFunction(Polynomial(num), den)


# ket c/((z - w1)(z - w2)) and bra c/(z - w3), with a background at odd
# orders: the shapes of the benchmark's residue jobs
HIGHER_ORDER_KET = TestFunction(
    with_roots([cr(1, Fraction(-1, 2))], [cr(1, 1), cr(Fraction(-1, 2), Fraction(3, 2))]), "ket"
)
HIGHER_ORDER_BRA = TestFunction(
    with_roots([cr(Fraction(-3, 4), Fraction(1, 4))], [cr(Fraction(1, 2), Fraction(3, 4))]), "bra"
)


def higher_order_model(order, width, energy=Fraction(3, 2)):
    laurent = [cr(Fraction(n % 5 - 2, 4), Fraction(1, n + 2)) for n in range(order)]
    background = with_roots([cr(Fraction(1, 4))], [cr(0, 2)]) if order % 2 else None
    return SMatrixModel(ComplexPole(energy, width, order), laurent, background)


quarters = st.integers(-8, 8).map(lambda n: Fraction(n, 4))
gaussians = st.builds(ComplexRational, quarters, quarters)
upper_roots = st.builds(
    ComplexRational,
    st.integers(-6, 6).map(lambda n: Fraction(n, 2)),
    st.sampled_from([Fraction(1, 2), Fraction(3, 4), 1, Fraction(3, 2), 2]),
)


@st.composite
def rational_functions(draw, max_degree=2, min_decay=0):
    """Bounded rationals with every denominator root in the upper half-plane."""
    roots = draw(st.lists(upper_roots, min_size=min_decay, max_size=max(max_degree, min_decay)))
    num_degree = draw(st.integers(0, len(roots) - min_decay))
    return with_roots(draw(st.lists(gaussians, min_size=num_degree + 1, max_size=num_degree + 1)), roots)


@st.composite
def models(draw, max_order=5, background=True):
    order = draw(st.integers(1, max_order))
    pole = ComplexPole(draw(quarters), draw(st.integers(1, 8).map(lambda n: Fraction(n, 4))), order)
    laurent = draw(st.lists(gaussians, min_size=order, max_size=order))
    laurent[-1] = laurent[-1] or ONE
    bg = draw(st.none() | rational_functions(max_degree=2)) if background else None
    return SMatrixModel(pole, laurent, bg)


def leibniz_residue_core(model, ket_fn, bra_fn):
    """The quotient-rule oracle: r - 1 derivatives of each function, then

    sum_n laurent[n]/n! * sum_k C(n, k) ket^(n-k)(z) bra^(k)(z).
    """
    z = model.pole.position
    r = model.pole.order
    ket_derivs, bra_derivs = [], []
    for function, derivs in ((ket_fn.function, ket_derivs), (bra_fn.function, bra_derivs)):
        derivs.append(function(z))
        for _ in range(1, r):
            function = function.derivative()
            derivs.append(function(z))
    total = ZERO
    for n in range(r):
        inner = ZERO
        for k in range(n + 1):
            inner = inner + binomial(n, k) * ket_derivs[n - k] * bra_derivs[k]
        total = total + model.laurent[n] / math.factorial(n) * inner
    return total


def to_sympy(value):
    value = ComplexRational.from_value(value)
    return sympy.Rational(value.real.numerator, value.real.denominator) + sympy.I * sympy.Rational(
        value.imag.numerator, value.imag.denominator
    )


def sympy_residue_core(model, ket_fn, bra_fn):
    """sum_n laurent[n] * [h^n] of ket*bra(z + h), by sympy's `series`."""
    h = sympy.Symbol("h")
    z = to_sympy(model.pole.position)

    def shifted(polynomial):
        return sum(to_sympy(c) * (z + h) ** p for p, c in enumerate(polynomial.coefficients))

    product = 1
    for fn in (ket_fn, bra_fn):
        product *= shifted(fn.function.numerator) / shifted(fn.function.denominator)
    r = model.pole.order
    series = sympy.expand(sympy.series(product, h, 0, r).removeO())
    return sympy.expand(sum(to_sympy(model.laurent[n]) * series.coeff(h, n) for n in range(r)))


class TestModelValidation:
    def test_laurent_length_must_match_order(self):
        with pytest.raises(ValueError):
            SMatrixModel(ComplexPole(1, 1, 2), [cr(1)])

    def test_misdeclared_order_rejected(self):
        with pytest.raises(ValueError):
            SMatrixModel(ComplexPole(1, 1, 2), [cr(1), ZERO])

    def test_all_zero_principal_part_is_the_degenerate_model(self):
        model = SMatrixModel(ComplexPole(1, 1, 2), [ZERO, ZERO])
        assert model(cr(5)) == ZERO

    def test_interior_zero_coefficient_allowed(self):
        model = SMatrixModel(ComplexPole(1, 1, 3), [cr(1), ZERO, cr(2)])
        assert model.laurent[1] == ZERO

    def test_background_with_lower_pole_rejected(self):
        with pytest.raises(ValueError):
            SMatrixModel(
                ComplexPole(1, 1, 1), [cr(1)], background=rational([1], [cr(0, 1), 1])
            )  # pole at -i... wait: z + i has root -i (lower half-plane)

    def test_unbounded_background_rejected(self):
        message = "background must be bounded at infinity: numerator degree 2, "
        with pytest.raises(ValueError, match=message + "denominator degree 1"):
            SMatrixModel(
                ComplexPole(1, 1, 1), [cr(1)], background=rational([0, 0, 1], [cr(0, -5), 1])
            )


class TestTestFunctionValidation:
    def test_lower_half_plane_pole_rejected(self):
        with pytest.raises(ValueError):
            ket([1], [cr(0, 1), 1])  # root at -i

    def test_real_axis_pole_rejected(self):
        with pytest.raises(ValueError):
            ket([1], [cr(-2), 1])  # root at 2

    def test_unbounded_function_rejected(self):
        message = "test function must be bounded at infinity: numerator degree 2, "
        with pytest.raises(ValueError, match=message + "denominator degree 1"):
            ket([0, 0, 1], [cr(0, -1), 1])

    def test_constant_is_admissible(self):
        fn = ket([1], [1])
        assert fn.decay_degree == 0

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            TestFunction(rational([1], [cr(0, -1), 1]), "side")


def float_root_refusal(function):
    """The float root test the exact one replaced: np.roots, then refuse any
    root with Im <= 1e-9 * max(1, |root|)."""
    coeffs = [complex(c) for c in reversed(function.denominator.coefficients)]
    roots = np.roots(coeffs) if len(coeffs) > 1 else []
    return any(root.imag <= 1e-9 * max(1.0, abs(root)) for root in roots)


axis_roots = st.builds(
    ComplexRational,
    st.integers(-8, 8).map(lambda n: Fraction(n, 4)),
    st.sampled_from([-2, -1, Fraction(-1, 4), 0, 0, Fraction(1, 4), 1, 2]),
)
leading_coefficients = st.sampled_from([ONE, cr(0, 1), cr(2, -3), cr(Fraction(-1, 8), Fraction(5, 2))])


class TestExactRootTest:
    """`_roots_above` against `np.roots` and the float margin it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(axis_roots, min_size=1, max_size=6), leading_coefficients)
    def test_agrees_with_np_roots(self, roots, lead):
        polynomial = with_roots([1], roots).denominator * lead
        exact = all(w.imag > 0 for w in roots)
        # generated roots are on the axis or at least 1/4 from it; a root of
        # multiplicity up to 6 moves np.roots by far less than 1/8
        numeric = np.roots([complex(c) for c in reversed(polynomial.coefficients)])
        assert all(numeric.imag > 0.125) == exact
        assert smatrix._roots_above(polynomial, 0) == exact

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.builds(ComplexRational, st.integers(-8, 8).map(lambda n: Fraction(n, 2)),
                           st.sampled_from([-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2])),
                 min_size=1, max_size=6),
        st.sampled_from([cr(0, 1), cr(0, -1), cr(1, 1), cr(-1, 1), cr(3, -3)])
        | st.builds(ComplexRational, st.integers(-9, 9), st.integers(-9, 9).filter(bool)),
        st.sampled_from([0, Fraction(1, 4)]),
    )
    def test_agrees_with_np_roots_for_a_lead_that_is_not_real(self, roots, lead, height):
        """Leads on the axes and the diagonals, and any Gaussian integer off the real axis.

        Roots are at least 1/4 above or below each tested height.
        """
        polynomial = with_roots([1], roots).denominator * lead
        numeric = np.roots([complex(c) for c in reversed(polynomial.coefficients)])
        assert smatrix._roots_above(polynomial, height) == all(numeric.imag > 0.375)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),  # real part
                st.floats(-2.0, 2.0, allow_nan=False),  # Im in units of 1e-9 * max(1, |root|)
                st.booleans(),  # or a root safely above the axis
            ),
            min_size=1, max_size=4,
        ),
        leading_coefficients,
    )
    def test_every_root_the_float_test_refused_is_refused(self, specs, lead):
        roots = []
        for real, margins, safe in specs:
            imag = 1.0 + abs(real) if safe else margins * 1e-9 * max(1.0, abs(real))
            roots.append(ComplexRational(real, imag))
        function = RationalFunction(Polynomial((1,)), with_roots([1], roots).denominator * lead)
        if float_root_refusal(function):
            with pytest.raises(ValueError, match="not above the real axis"):
                TestFunction(function, "ket")

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.one_of(
            # roots below, on, just above and well above each tested height
            st.builds(
                lambda roots, lead: with_roots([1], roots).denominator * lead,
                st.lists(st.builds(ComplexRational,
                                   st.integers(-12, 12).map(lambda n: Fraction(n, 4)),
                                   st.sampled_from([-1, 0, Fraction(1, 10**9), Fraction(1, 4),
                                                    Fraction(257, 1024), 1, Fraction(3, 2)])),
                         min_size=1, max_size=8),
                leading_coefficients,
            ),
            # dense coefficients of degree 1 to 8
            st.lists(st.builds(ComplexRational, st.fractions(-9, 9, max_denominator=9),
                               st.fractions(-9, 9, max_denominator=9)),
                     min_size=2, max_size=9).map(Polynomial).filter(lambda p: p.degree >= 1),
        ),
        st.sampled_from(["zero", "margin", "quarter"]),
    )
    def test_integer_chain_agrees_with_the_fraction_chain(self, polynomial, which):
        exponent = smatrix._modulus_exponent(polynomial.coefficients)
        assert exponent == fraction_modulus_exponent(polynomial.coefficients)
        height = {"zero": 0, "margin": Fraction(2**exponent, smatrix._ROOT_MARGIN),
                  "quarter": Fraction(1, 4)}[which]
        assert smatrix._roots_above(polynomial, height) == fraction_roots_above(polynomial, height)

    def test_margin_scales_with_the_root_moduli(self):
        # Im 1e-9 * |root| is refused at any modulus; a root well above is not
        for modulus in (Fraction(1, 1000), 1, 1000, 10**8):
            with pytest.raises(ValueError, match="not above the real axis"):
                TestFunction(with_roots([1], [cr(modulus, Fraction(modulus, 10**9))]), "ket")
            TestFunction(with_roots([1], [cr(modulus, Fraction(max(1, modulus), 10**6))]), "ket")


class TestEvaluate:
    def test_unitarity_default_at_resonance_energy(self):
        # a/(E - z) with a = -i*width and E - z = i*width/2 gives exactly -2
        for energy, width in [(1, 1), (3, Fraction(1, 2)), (0, 2)]:
            model = SMatrixModel(ComplexPole(energy, width, 1), [cr(0, -width)])
            assert model(cr(energy)) == cr(-2)

    def test_background_only(self):
        background = rational([1, 1], [cr(0, -5), 1])
        model = SMatrixModel(ComplexPole(1, 1, 1), [ZERO], background=background)
        for z in (cr(0), cr(2, -1), cr(Fraction(1, 3))):
            assert model(z) == background(z)

    def test_unit_displacement_sums_coefficients(self):
        pole = ComplexPole(1, 2, 2)
        a1, a2 = cr(2, 1), cr(0, -3)
        model = SMatrixModel(pole, [a1, a2])
        assert model(pole.position + cr(1)) == a1 + a2

    def test_exact_and_float_paths_agree(self):
        model = SMatrixModel(
            ComplexPole(1, 2, 2), [cr(1, 1), cr(0, -1)],
            background=rational([1], [cr(0, -4), 1]),
        )
        z = cr(Fraction(5, 2), Fraction(-1, 3))
        assert complex(model(z)) == pytest.approx(model(complex(z)))

    @pytest.mark.parametrize("z", [3, True, Fraction(7, 2), cr(3, 1), 3.0, 3 + 1j, "3"],
                             ids=["int", "bool", "Fraction", "ComplexRational", "float",
                                  "complex", "str"])
    def test_an_exact_argument_gives_an_exact_value(self, z):
        model = SMatrixModel(ComplexPole(1, 2, 2), [cr(1, 1), cr(0, -1)])
        if isinstance(z, (int, Fraction, ComplexRational)):
            assert type(model(z)) is ComplexRational
            assert model(z) == model(ComplexRational.from_value(z))
        else:
            assert type(model(z)) is complex and model(z) == model(complex(z))

    def test_pole_evaluation_rejected(self):
        model = SMatrixModel(ComplexPole(1, 1, 1), [cr(0, -1)])
        with pytest.raises(ZeroDivisionError):
            model(model.pole.position)
        with pytest.raises(ZeroDivisionError):
            model(complex(model.pole.position))


class TestResidueExpansion:
    def test_first_order_formula(self):
        pole = ComplexPole(2, 1, 1)
        a = cr(0, -1)
        model = SMatrixModel(pole, [a])
        z = pole.position
        expected = a * F_KET.function(z) * G_BRA.function(z)
        assert residue_core(model, F_KET, G_BRA) == expected
        assert residue_expansion(model, F_KET, G_BRA) == pytest.approx(
            complex(0, -2 * math.pi) * complex(expected)
        )

    def test_constant_functions_leave_only_first_coefficient(self):
        pole = ComplexPole(1, 2, 3)
        model = SMatrixModel(pole, [cr(5, -1), cr(2), cr(0, 7)])
        one_ket, one_bra = ket([1], [1]), bra([1], [1])
        assert residue_core(model, one_ket, one_bra) == cr(5, -1)

    def test_second_order_hand_formula(self):
        # f(z) = 1/(z - i), g = 1: residue is a1/(z-i) - a2/(z-i)^2 at the pole
        pole = ComplexPole(Fraction(3, 2), Fraction(1, 2), 2)
        a1, a2 = cr(1, 1), cr(0, 2)
        model = SMatrixModel(pole, [a1, a2])
        f = ket([1], [cr(0, -1), 1])
        g = bra([1], [1])
        shift = pole.position - cr(0, 1)
        expected = a1 / shift - a2 / (shift * shift)
        assert residue_core(model, f, g) == expected

    def test_interior_zero_kills_its_term_exactly(self):
        pole = ComplexPole(1, 1, 3)
        full = SMatrixModel(pole, [cr(2), cr(3), cr(4)])
        gapped = SMatrixModel(pole, [cr(2), ZERO, cr(4)])
        core_full = residue_core(full, F_KET, G_BRA)
        core_gapped = residue_core(gapped, F_KET, G_BRA)
        # removing the middle coefficient removes exactly its Leibniz term
        product = F_KET.function * G_BRA.function
        middle_term = cr(3) * product.derivative(1)(pole.position)
        assert core_full - core_gapped == middle_term

    def test_leibniz_matches_direct_product_derivatives(self):
        """The Leibniz split equals differentiating the product directly (exact)."""
        cases = [
            (ComplexPole(1, 1, 1), [cr(0, -1)]),
            (ComplexPole(2, Fraction(1, 2), 2), [cr(1), cr(0, 1)]),
            (ComplexPole(Fraction(1, 2), 2, 3), [cr(1, 1), cr(-2), cr(3, -1)]),
            (ComplexPole(0, 1, 4), [cr(1), cr(2), cr(3), cr(4, 4)]),
        ]
        pairs = [
            (F_KET, G_BRA),
            (ket([0, 1], [cr(-1), cr(0, -2), 1]), bra([1], [cr(0, -1), 1])),
        ]
        for pole, laurent in cases:
            model = SMatrixModel(pole, laurent)
            z = pole.position
            for f, g in pairs:
                product = f.function * g.function
                direct = ZERO
                for n in range(pole.order):
                    direct = direct + (
                        laurent[n] / math.factorial(n)
                    ) * product.derivative(n)(z)
                assert residue_core(model, f, g) == direct

    def test_no_derivative_is_taken(self, monkeypatch):
        calls = []
        derivative = RationalFunction.derivative
        monkeypatch.setattr(
            RationalFunction, "derivative",
            lambda self, order=1: calls.append(order) or derivative(self, order),
        )
        model = SMatrixModel(ComplexPole(0, 1, 5), [cr(1), cr(2), cr(3), cr(4), cr(5)])
        residue_core(model, F_KET, G_BRA)
        assert calls == []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(models(background=False), rational_functions(), rational_functions())
    def test_matches_the_quotient_rule_oracle(self, model, ket_function, bra_function):
        f, g = TestFunction(ket_function, "ket"), TestFunction(bra_function, "bra")
        assert residue_core(model, f, g) == leibniz_residue_core(model, f, g)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(models(max_order=8, background=False), rational_functions(max_degree=3),
           rational_functions(max_degree=3))
    def test_equals_the_cauchy_product_oracle(self, model, ket_function, bra_function):
        f, g = TestFunction(ket_function, "ket"), TestFunction(bra_function, "bra")
        assert residue_core(model, f, g) == cauchy_product_residue_core(model, f, g)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_the_sympy_series_oracle(self, order):
        pole = ComplexPole(Fraction(5, 2), Fraction(3, 4), order)
        laurent = [cr(Fraction(n + 1, 2), -Fraction(1, n + 2)) for n in range(order)]
        model = SMatrixModel(pole, laurent)
        pairs = [
            (F_KET, G_BRA),
            (
                TestFunction(with_roots([cr(1, -2), cr(Fraction(1, 4))], [cr(1, 1), cr(-Fraction(1, 2), 2)]), "ket"),
                TestFunction(with_roots([cr(-3, 1)], [cr(Fraction(1, 2), Fraction(3, 4))]), "bra"),
            ),
        ]
        for f, g in pairs:
            assert to_sympy(residue_core(model, f, g)) == sympy_residue_core(model, f, g)

    def test_closed_form_at_order_twenty(self):
        # 1/(z + h - w) = sum_k -(w - z)^-(k+1) h^k, for ket and bra alike
        r = 20
        pole = ComplexPole(Fraction(3, 2), 1, r)
        z = pole.position
        w1, w2 = cr(Fraction(1, 2), 1), cr(-2, Fraction(3, 2))
        laurent = [cr(n % 3 - 1, Fraction(1, n + 1)) for n in range(r)]
        model = SMatrixModel(pole, laurent)

        def coefficients(w):  # -(w - z)^-(k+1) for k < r
            terms = [-1 / (w - z)]
            while len(terms) < r:
                terms.append(terms[-1] / (w - z))
            return terms

        a, b = coefficients(w1), coefficients(w2)
        expected = ZERO
        for n in range(r):
            expected = expected + laurent[n] * sum((a[n - k] * b[k] for k in range(n + 1)), ZERO)
        f = TestFunction(with_roots([1], [w1]), "ket")
        g = TestFunction(with_roots([1], [w2]), "bra")
        assert residue_core(model, f, g) == expected

    def test_role_mismatch_rejected(self):
        model = SMatrixModel(ComplexPole(1, 1, 1), [cr(0, -1)])
        with pytest.raises(ValueError):
            residue_core(model, G_BRA, G_BRA)
        with pytest.raises(ValueError):
            residue_core(model, F_KET, F_KET)


class TestContourPieces:
    def test_zero_model_integrates_to_zero(self):
        model = SMatrixModel(ComplexPole(1, 1, 1), [ZERO])
        result = direct_contour_integral(model, F_KET, G_BRA)
        assert result.value == 0
        assert result.converged

    def test_background_only_matches_plain_quadrature(self):
        background = rational([1], [cr(0, -5), 1])
        model = SMatrixModel(ComplexPole(1, 1, 1), [ZERO], background=background)
        result = direct_contour_integral(model, F_KET, G_BRA)

        def integrand(e):
            return complex(F_KET(e)) * complex(background(complex(e))) * complex(G_BRA(e))

        expected_re, _ = quad(lambda e: integrand(e).real, 0, math.inf)
        expected_im, _ = quad(lambda e: integrand(e).imag, 0, math.inf)
        assert result.value == pytest.approx(complex(expected_re, expected_im), abs=1e-9)

    def test_insufficient_combined_decay_rejected(self):
        model = SMatrixModel(ComplexPole(1, 1, 1), [cr(0, -1)])
        slow_ket = ket([1], [cr(0, -3), 1])  # decay 1
        constant_bra = bra([1], [1])  # decay 0
        with pytest.raises(ValueError):
            direct_contour_integral(model, slow_ket, constant_bra)
        # the same pair is fine for the residue expansion
        assert residue_core(model, slow_ket, constant_bra) is not None

    def test_nonconvergence_is_reported_not_hidden(self):
        # the shapes of test_higher_orders_pass at order 30: QUADPACK reports
        # roundoff on the direct piece's leg across the peak, E_R +- Gamma/2,
        # and the report fails
        model = higher_order_model(30, Fraction(1, 2))
        result = direct_contour_integral(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA)
        assert not result.converged
        report = decomposition_check(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA)
        assert not report.converged
        assert not report.passed
        assert report._unconverged == (("direct", ("leg [1.25, 1.75]: ier 2, roundoff",)),)

    def test_background_matches_plain_quadrature(self):
        model = SMatrixModel(ComplexPole(1, 1, 2), [cr(0, -1), cr(Fraction(1, 4))])
        result = background_integral(model, F_KET, G_BRA)

        def integrand(e):
            return complex(F_KET(e)) * model(complex(e)) * complex(G_BRA(e))

        expected_re, _ = quad(lambda e: integrand(e).real, -math.inf, 0)
        expected_im, _ = quad(lambda e: integrand(e).imag, -math.inf, 0)
        assert result.converged
        # traversed outward from the origin: minus the conventional integral
        assert result.value == pytest.approx(-complex(expected_re, expected_im), abs=1e-9)


class TestPrecisionOracle:
    """The float check against 30-digit `mpmath.quad` pieces at the edge of its reach.

    The oracle's own discrepancy certifies its pieces; the product's verdict
    at r = 15 and 16, Gamma = 1/2, is pinned, so a change of the contour or of
    the error rule moves the reach on purpose.  The half-angle legs moved it
    from r = 14 and 15: r = 15 now passes, at a discrepancy of 7.1e-9 but a
    `quadrature_error` of 2.6e-7, a pass the quadrature cannot certify.
    """

    def test_the_last_pass_at_half_width_agrees_with_the_oracle(self):
        model = higher_order_model(15, Fraction(1, 2))
        report = decomposition_check(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA)
        oracle = oracle_check(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA)
        assert report.passed
        assert oracle.discrepancy < 1e-12
        assert abs(report.direct - oracle.direct) <= report.tolerance * abs(oracle.direct)

    def test_the_first_failure_at_half_width_is_a_false_failure(self):
        # the float direct is off by the cancellation floor eps * (2/Gamma)^(r-1)
        model = higher_order_model(16, Fraction(1, 2))
        report = decomposition_check(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA)
        oracle = oracle_check(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA)
        assert not report.passed  # `residue` exits 1
        assert oracle.discrepancy < 1e-12


class TestScipyOracle:
    """Contour pieces against two `scipy.integrate.quad` runs per leg."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(models(max_order=6), rational_functions(min_decay=1), rational_functions(min_decay=1))
    def test_pieces_agree_within_both_error_estimates(self, model, ket_function, bra_function):
        f, g = TestFunction(ket_function, "ket"), TestFunction(bra_function, "bra")
        for piece in (direct_contour_integral, background_integral):
            result = piece(model, f, g)
            with mock.patch.object(smatrix, "_leg", two_run_leg):
                oracle = piece(model, f, g)
            assert result.converged and oracle.converged
            assert abs(result.value - oracle.value) <= result.error_estimate + oracle.error_estimate

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(models(max_order=8), rational_functions(min_decay=1), rational_functions(min_decay=1))
    def test_pieces_agree_with_the_energy_layout(self, model, ket_function, bra_function):
        # the real-axis layout the phase legs replaced: a leg split at the
        # window E_R +- 10*Gamma, then a QAGIE tail
        f, g = TestFunction(ket_function, "ket"), TestFunction(bra_function, "bra")
        for sign, piece in ((1, direct_contour_integral), (-1, background_integral)):
            result = piece(model, f, g)
            oracle = energy_layout_piece(model, f, g, sign)
            assert result.converged and oracle.converged
            assert abs(result.value - oracle.value) <= result.error_estimate + oracle.error_estimate

    @pytest.mark.parametrize("order", [1, 4, 6])
    def test_each_node_is_evaluated_once(self, order, monkeypatch):
        model = higher_order_model(order, 1)
        factory = smatrix._amplitude_integrand
        calls = []

        def counting_factory(*args):
            integrand = factory(*args)
            return lambda energy: calls.append(energy) or integrand(energy)

        monkeypatch.setattr(smatrix, "_amplitude_integrand", counting_factory)
        for piece in (direct_contour_integral, background_integral):
            calls.clear()
            piece(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA)
            single_pass = list(calls)
            calls.clear()
            with mock.patch.object(smatrix, "_leg", two_run_leg):
                piece(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA)
            # no node twice, and fewer evaluations than the two runs per leg
            assert len(single_pass) == len(set(single_pass))
            assert len(single_pass) < len(calls)


def rule_nodes(rule):
    """(Kronrod nodes, Kronrod weights, Gauss nodes, Gauss weights) of a rule table, ascending."""
    center_kronrod, center_gauss, abscissas = rule
    kronrod = sorted([(0.0, center_kronrod)] + [(s * x, w) for x, w, _ in abscissas for s in (-1, 1)])
    gauss = sorted(([(0.0, center_gauss)] if center_gauss else [])
                   + [(s * x, w) for x, _, w in abscissas if w for s in (-1, 1)])
    return [x for x, _ in kronrod], [w for _, w in kronrod], [x for x, _ in gauss], [w for _, w in gauss]


def scipy_complex_quad(func, lo, hi, points):
    """scipy.integrate.quad of the real and the imaginary part under the leg policy."""
    kwargs = {"epsabs": smatrix._ABSOLUTE_TOLERANCE, "epsrel": smatrix._RELATIVE_TOLERANCE,
              "limit": smatrix._SUBDIVISION_LIMIT, "points": points or None}
    re_val, re_err = quad(lambda e: func(e).real, lo, hi, **kwargs)
    im_val, im_err = quad(lambda e: func(e).imag, lo, hi, **kwargs)
    return complex(re_val, im_val), re_err + im_err


class TestGaussKronrod:
    """The rule tables, `quad` and the oracle's tails, against numpy, exact integrals and scipy."""

    @pytest.mark.parametrize("rule, gauss_points", [(smatrix._GK21, 10), (GK15, 7)])
    def test_gauss_nodes_and_weights_match_leggauss(self, rule, gauss_points):
        _, _, nodes, weights = rule_nodes(rule)
        reference_nodes, reference_weights = np.polynomial.legendre.leggauss(gauss_points)
        assert np.allclose(nodes, reference_nodes, rtol=0, atol=1e-15)
        assert np.allclose(weights, reference_weights, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rule, degree", [(smatrix._GK21, 31), (GK15, 22)])
    def test_kronrod_rule_integrates_monomials_exactly(self, rule, degree):
        nodes, weights, _, _ = rule_nodes(rule)
        for k in range(degree + 1):
            exact = Fraction(2, k + 1) if k % 2 == 0 else 0
            assert abs(math.fsum(w * x**k for x, w in zip(nodes, weights)) - exact) <= 1e-15

    @pytest.mark.parametrize("lo, hi, points", [
        (0.0, 3.0, []),
        (-1.0, 3.0, [0.5, 1.0, 2.5]),
        (3.0, math.inf, []),
        (-math.inf, -1.0, []),
    ])
    def test_agrees_with_scipy_within_both_error_estimates(self, lo, hi, points):
        model = SMatrixModel(ComplexPole(1, 1, 2), [cr(0, -1), cr(Fraction(1, 4))])
        integrand = _amplitude_integrand(model, F_KET, G_BRA)
        value, error, ier = energy_quad(integrand, lo, hi, points)
        expected, expected_error = scipy_complex_quad(integrand, lo, hi, points)
        assert ier == 0
        assert abs(value - expected) <= error + expected_error

    @pytest.mark.parametrize("side, lo, hi", [(-1, -math.inf, 0.75), (0, 0.75, 1.25),
                                              (1, 1.25, math.inf)])
    def test_a_phase_leg_integrates_the_energy_integrand(self, side, lo, hi):
        # E_R = 1, Gamma = 1/2: a side's whole half-angle range, w in
        # [-(sqrt(2) - 1), sqrt(2) - 1] or (0, sqrt(2) - 1], integrates the
        # amplitude over that side's energies
        model = SMatrixModel(ComplexPole(1, Fraction(1, 2), 2), [cr(0, -1), cr(Fraction(1, 4))])
        integrand = _amplitude_integrand(model, F_KET, G_BRA)
        leg = smatrix._phase_leg(integrand, 1.0, 0.25, side, (lo, hi))
        start = 0.0 if side else -smatrix._MEET
        value, error, ier = smatrix.quad(leg, start, smatrix._MEET, [])
        expected, expected_error = scipy_complex_quad(integrand, lo, hi, [])
        assert ier == 0
        assert abs(value - expected) <= error + expected_error

    @pytest.mark.parametrize("lo, hi", [(0.0, 3.0), (1.0, math.inf), (-math.inf, -1.0)])
    def test_one_rule_equals_quadpacks(self, lo, hi, monkeypatch):
        # with one subinterval allowed, QUADPACK returns its first QK21 or
        # QK15I step: the rule's value and error estimate, summed in
        # another order, which the cancellation in Kronrod - Gauss amplifies
        def func(x):
            return math.cos(5.0 * x) / (1.0 + x * x)

        monkeypatch.setattr(smatrix, "_SUBDIVISION_LIMIT", 1)
        value, error, ier = energy_quad(lambda x: complex(func(x)), lo, hi, [])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            expected, expected_error = quad(func, lo, hi, limit=1)
        assert ier == 1
        assert value.imag == 0.0
        assert value.real == pytest.approx(expected, rel=1e-13, abs=0)
        assert error == pytest.approx(expected_error, rel=1e-10, abs=0)

    def test_error_floor_is_quadpacks(self):
        # GK21 integrates x^2 - 1 exactly, so the estimate is QUADPACK's
        # floor, 50 machine epsilons of the rule's integral of |x^2 - 1|
        # (22/3 exactly)
        value, error, ier = smatrix.quad(lambda x: complex(x * x - 1.0), 0.0, 3.0, [])
        expected, expected_error = quad(lambda x: x * x - 1.0, 0.0, 3.0)
        assert ier == 0
        assert value.real == pytest.approx(expected, rel=1e-15)
        assert error == pytest.approx(expected_error, rel=1e-12, abs=0)
        assert error == pytest.approx(50 * sys.float_info.epsilon * 22 / 3, rel=1e-3, abs=0)

    def test_hopeless_leg_stops_early_on_roundoff(self):
        # the energy layout's finite direct leg of the order-10, Gamma = 1/2
        # model: status 2 with fewer evaluations than QUADPACK's run on its
        # real part
        model = higher_order_model(10, Fraction(1, 2))
        integrand = _amplitude_integrand(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA)
        nodes = []
        *_, ier = smatrix.quad(lambda e: nodes.append(e) or integrand(e), 0.0, 6.5, [1.5])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            *_, info, _ = quad(lambda e: integrand(e).real, 0.0, 6.5, points=[1.5],
                               epsabs=smatrix._ABSOLUTE_TOLERANCE, epsrel=smatrix._RELATIVE_TOLERANCE,
                               limit=smatrix._SUBDIVISION_LIMIT, full_output=1)
        assert ier == 2
        assert len(nodes) < info["neval"]

    def test_subdivision_limit_is_status_one(self):
        # x^-0.9 on (0, 1]: bisection alone gains 2^0.1 per step at the origin
        nodes = []
        value, _, ier = smatrix.quad(lambda x: nodes.append(x) or complex(x**-0.9), 0.0, 1.0, [])
        assert ier == 1
        assert len(nodes) == 21 * (2 * smatrix._SUBDIVISION_LIMIT - 1)
        assert value.real == pytest.approx(10.0, rel=1e-5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, math.inf)])
    def test_a_non_finite_integrand_is_status_three_at_once(self, bad, lo, hi):
        # NaN compares False with the tolerance: without the status, the
        # loop would report the NaN sum as converged
        nodes = []
        *_, ier = energy_quad(lambda x: nodes.append(x) or complex(bad if x > 0.5 else 1.0),
                              lo, hi, [])
        assert ier == 3
        assert len(nodes) == (21 if hi == 1.0 else 15)

    @pytest.mark.parametrize("fault", [OverflowError, ZeroDivisionError])
    def test_a_leg_with_a_non_finite_integrand_is_an_input_error(self, fault):
        def integrand(x):
            raise fault("float range")

        leg = smatrix._phase_leg(integrand, 1.0, 0.25, 0, (0.75, 1.25))
        with pytest.raises(ValueError, match=r"leg \[0.75, 1.25\]: ier 3, non-finite integrand"):
            smatrix._leg(leg, [], -smatrix._MEET, smatrix._MEET)

    @pytest.mark.parametrize("peak, rest, raises", [
        (complex(1.2e308, 1.2e308), complex(-2e307, -2e307), True),  # only peak - mean overflows
        (complex(1.3e308, 1.3e308), 1j, True),
        (complex(1e308, 1e308), 1j, False),
        (complex(math.inf, 1.0), 1j, False),  # an infinite part: abs is inf, not an error
    ])
    def test_a_rule_raises_overflow_error_where_abs_of_a_complex_would(self, peak, rest, raises):
        # the rule takes moduli by math.hypot and raises after the sums, so it
        # raises for a node's value or its deviation from the mean as abs did
        center_kronrod, _, abscissas = smatrix._GK21
        kronrod = center_kronrod * peak
        for _, kronrod_weight, _ in abscissas:
            kronrod += kronrod_weight * (rest + rest)
        mean = 0.5 * kronrod

        def outcome():
            if raises:
                return pytest.raises(OverflowError, match="absolute value too large")
            return contextlib.nullcontext()

        with outcome():  # the reference: abs(complex) of each value and deviation
            for z in (peak, rest, peak - mean, rest - mean):
                abs(z)
        with outcome():
            smatrix._gauss_kronrod(lambda x: peak if x == 0.5 else rest, 0.0, 1.0, smatrix._GK21)


def leg_energy(center, half, side, w):
    """The energy at which `_phase_leg`'s `side` evaluates its integrand at w."""
    energies = []
    smatrix._phase_leg(lambda e: energies.append(e) or 1.0, center, half, side, None)(w)
    return energies[0]


class TestHalfAngleMap:
    """`_phase` maps energies to the leg coordinate w, `_phase_leg` maps w back."""

    # E_R and Gamma/2 across the exponent range; a tail's energies reach
    # 1e150 half-widths from E_R, beyond which dE/dw overflows
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.floats(-1e300, 1e300), st.floats(1e-300, 1e300), st.sampled_from([-1, 0, 1]),
           st.lists(st.floats(0, 1), min_size=2, max_size=2),
           st.lists(st.floats(1, 1e150), min_size=2, max_size=2))
    def test_each_leg_map_is_monotone_and_round_trips(self, center, half, side, peak, tail):
        assume(center - half < center < center + half)  # as `_phase_window` requires
        if side:  # E_R +- a * Gamma/2, a >= 1
            energies = [center + side * half * a for a in sorted(tail)][::side]
        else:  # E_R + (2a - 1) * Gamma/2, 0 <= a <= 1
            energies = [center + half * (2.0 * a - 1.0) for a in sorted(peak)]
        assume(all(math.isfinite(e) and abs(e) <= 1e300 for e in energies))
        w = [smatrix._phase(side, e, center, half) for e in energies]
        rising = 1 if side < 1 else -1  # w rises with E below and across the pole
        assert rising * w[0] <= rising * w[1]
        for e, t in zip(energies, w):
            back = leg_energy(center, half, side, t)
            assert abs(back - e) <= 4 * (sys.float_info.epsilon * abs(e - center) + math.ulp(e))

    # E_R +- Gamma/2 exact in floats: dyadic values in one binade range
    @pytest.mark.parametrize("center, half", [(1.0, 0.25), (-3.5, 2.0**-40), (2.0**600, 2.0**599)])
    def test_the_peak_leg_meets_the_tails_at_tan_pi_over_8(self, center, half):
        with mpmath.workdps(40):  # within an ulp of sqrt(2) - 1 = tan(pi/8)
            assert abs(smatrix._MEET - (mpmath.sqrt(2) - 1)) < math.ulp(smatrix._MEET)
        below, above = center - half, center + half
        assert smatrix._phase(0, below, center, half) == -smatrix._MEET
        assert smatrix._phase(0, above, center, half) == smatrix._MEET
        assert smatrix._phase(-1, below, center, half) == smatrix._MEET
        assert smatrix._phase(1, above, center, half) == smatrix._MEET
        for side, w, edge in ((0, -smatrix._MEET, below), (0, smatrix._MEET, above),
                              (-1, smatrix._MEET, below), (1, smatrix._MEET, above)):
            assert leg_energy(center, half, side, w) == pytest.approx(edge, rel=0, abs=4 * math.ulp(edge))

    @pytest.mark.parametrize("energy, width", [(Fraction(3, 2), Fraction(1, 2)), (10**4, 1),
                                               (-8, Fraction(3, 4)), (Fraction(1, 4), Fraction(1, 2)),
                                               (0, 10**6)])
    def test_every_mapped_rung_lies_strictly_inside_its_leg(self, energy, width, monkeypatch):
        model = higher_order_model(3, width, energy)
        center, half, rungs = smatrix._phase_window(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA)
        phase_leg, leg = smatrix._phase_leg, smatrix._leg
        legs = []

        def recording_phase_leg(integrand, center, half, side, energies):
            integrand = phase_leg(integrand, center, half, side, energies)
            integrand.side = side
            return integrand

        def recording_leg(integrand, breakpoints, lo, hi):
            legs.append((integrand.side, integrand.energies, breakpoints, lo, hi))
            return leg(integrand, breakpoints, lo, hi)

        monkeypatch.setattr(smatrix, "_phase_leg", recording_phase_leg)
        monkeypatch.setattr(smatrix, "_leg", recording_leg)
        assert decomposition_check(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA).passed
        assert sum(len(breakpoints) for _, _, breakpoints, _, _ in legs) > 0
        for side, (low, high), breakpoints, lo, hi in legs:
            inside = [e for e in rungs if low < e < high]
            assert -smatrix._MEET <= lo < hi <= smatrix._MEET
            assert breakpoints == sorted(set(breakpoints))
            assert all(lo < w < hi for w in breakpoints)
            assert len(breakpoints) == len(inside)
            for w in breakpoints:  # each is a rung's image, as in the round trip above
                e = leg_energy(center, half, side, w)
                assert any(abs(e - rung) <= 4 * (sys.float_info.epsilon * abs(rung - center)
                                                 + math.ulp(rung)) for rung in inside)


class TestModulus:
    """`_modulus` is `math.hypot` of the parts, and raises where abs(complex) raises."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.builds(complex, st.floats(), st.floats())
           | st.builds(complex, st.floats(1e307, 1.8e308), st.floats(1e307, 1.8e308)))
    def test_raises_where_abs_raises_and_is_hypot_elsewhere(self, z):
        self.check(z)

    @pytest.mark.parametrize("z", [complex(1.7e308, 1.7e308), complex(1.3e308, -1.3e308),
                                   complex(1e308, 1e308), complex(math.inf, math.nan),
                                   complex(math.nan, -math.inf), complex(math.nan, 1.0),
                                   complex(-0.0, 0.0), complex(5e-324, 5e-324)])
    def test_the_edges(self, z):
        self.check(z)

    @staticmethod
    def check(z):
        try:
            expected = abs(z)
        except OverflowError:
            with pytest.raises(OverflowError, match="absolute value too large"):
                smatrix._modulus(z)
            return
        modulus, hypot = smatrix._modulus(z), math.hypot(z.real, z.imag)
        assert modulus == hypot or math.isnan(modulus) and math.isnan(hypot)
        assert modulus == pytest.approx(expected, rel=2 * sys.float_info.epsilon, nan_ok=True)


class TestAmplitudeIntegrand:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        models(max_order=6),
        rational_functions(min_decay=1),
        rational_functions(min_decay=1),
        st.floats(-1e6, 1e6),
        st.none() | st.floats(-1e-3, 1e-3),
    )
    def test_bit_identical_to_the_exact_types(self, model, ket_function, bra_function, energy, pole_offset):
        if pole_offset is not None:  # next to the resonance energy, where the amplitude peaks
            energy = float(model.pole.resonance_energy) + pole_offset
        f, g = TestFunction(ket_function, "ket"), TestFunction(bra_function, "bra")
        integrand = _amplitude_integrand(model, f, g)
        for e in (energy, -energy):
            assert integrand(e) == complex(f(e)) * model(complex(e)) * complex(g(e))


# (E_R, Gamma, r) of every `higher_order_model` that the real-axis layout
# (`contour_oracle.energy_layout_piece`) passed: r <= 9 at Gamma = 1/2, r <= 18
# at Gamma = 1, and far or wide poles at r <= 6 less the ones it failed
REAL_AXIS_FAILURES = {
    (-5, Fraction(1, 100), 4), (-5, Fraction(1, 100), 5), (-5, Fraction(1, 100), 6),
    (20, Fraction(1, 100), 4), (20, Fraction(1, 100), 5), (20, Fraction(1, 100), 6),
    (100, Fraction(1, 100), 5), (100, Fraction(1, 100), 6),
    (10**4, Fraction(1, 100), 2), (10**4, Fraction(1, 100), 4), (10**4, Fraction(1, 100), 5),
    (10**4, Fraction(1, 100), 6),
    *((energy, 10**5, order) for energy in (-5, 20, 100, 10**4) for order in (2, 4, 6)),
    *((10**4, 10**3, order) for order in (2, 4, 6)),
}
PASSED_ON_THE_REAL_AXIS = [
    *((Fraction(3, 2), Fraction(1, 2), order) for order in range(1, 10)),
    *((Fraction(3, 2), 1, order) for order in range(1, 19)),
    *((energy, width, order) for energy in (-5, 20, 100, 10**4)
      for width in (Fraction(1, 100), 10**3, 10**5) for order in range(1, 7)
      if (energy, width, order) not in REAL_AXIS_FAILURES),
]


class TestDecomposition:
    def test_first_order_spec_pair(self):
        model = SMatrixModel(ComplexPole(2, 1, 1), [cr(0, -1)])
        report = decomposition_check(model, F_KET, G_BRA)
        assert report.converged
        assert report.discrepancy < 1e-8
        assert report.passed

    def test_third_order_spec_pair(self):
        pole = ComplexPole(2, 1, 3)
        model = SMatrixModel(pole, [cr(0, -1), cr(Fraction(1, 4)), cr(Fraction(1, 10), Fraction(1, 5))])
        report = decomposition_check(model, F_KET, G_BRA)
        assert report.discrepancy < 1e-8
        assert report.passed

    def test_zero_principal_part_means_direct_equals_background(self):
        background = rational([1], [cr(0, -5), 1])
        model = SMatrixModel(ComplexPole(1, 1, 1), [ZERO], background=background)
        report = decomposition_check(model, F_KET, G_BRA)
        assert report.residue == 0
        assert report.passed
        assert report.direct == pytest.approx(report.background, abs=1e-9)

    def test_narrow_resonance_with_breakpoint_refinement(self):
        model = SMatrixModel(ComplexPole(1, Fraction(1, 1000), 1), [cr(0, -Fraction(1, 1000))])
        report = decomposition_check(model, F_KET, G_BRA)
        assert report.passed

    def test_background_suppressed_for_pole_far_from_negative_axis(self):
        # narrow resonance inside the test-function window: the pole term
        # dominates and the background leg is a fraction of it
        model = SMatrixModel(ComplexPole(2, Fraction(1, 20), 1), [cr(0, -Fraction(1, 20))])
        g = bra([1], [cr(-3), cr(0, -4), 1])  # 1/((z-i)(z-3i))
        background = background_integral(model, F_KET, g)
        residue = residue_expansion(model, F_KET, g)
        assert abs(background.value) < abs(residue) / 2
        report = decomposition_check(model, F_KET, g)
        assert report.passed

    @pytest.mark.parametrize("width", [Fraction(1, 2), 1])
    @pytest.mark.parametrize("order", [5, 6, 7, 8])
    def test_higher_orders_pass(self, order, width):
        model = higher_order_model(order, width)
        report = decomposition_check(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA, tolerance=1e-8)
        assert report.converged
        assert report.passed

    @pytest.mark.parametrize("energy, width, order", PASSED_ON_THE_REAL_AXIS)
    def test_every_model_the_real_axis_layout_passed_still_passes(self, energy, width, order):
        model = higher_order_model(order, width, energy)
        report = decomposition_check(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA, tolerance=1e-8)
        assert report.converged
        assert report.passed

    @pytest.mark.parametrize("shift", [1, 1j])
    @pytest.mark.parametrize("width", [Fraction(1, 2), 1])
    @pytest.mark.parametrize("order", range(1, 21))
    def test_a_residue_off_by_a_hundred_tolerances_fails(self, order, width, shift, monkeypatch):
        # the reach past r = 9 and r = 18 comes from the path, not from a
        # check too coarse to see a wrong residue
        model = higher_order_model(order, width)
        direct = direct_contour_integral(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA).value
        residue = smatrix.residue_expansion
        monkeypatch.setattr(smatrix, "residue_expansion",
                            lambda *args: residue(*args) + shift * 100 * 1e-8 * abs(direct))
        report = decomposition_check(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA, tolerance=1e-8)
        assert report.discrepancy > report.tolerance
        assert not report.passed

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, 0.0, -1e-8])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        model = SMatrixModel(ComplexPole(2, 1, 1), [cr(0, -1)])
        with pytest.raises(ValueError, match="positive and finite"):
            decomposition_check(model, F_KET, G_BRA, tolerance=tolerance)

    def test_a_residue_term_beyond_the_float_range_is_an_input_error(self, monkeypatch):
        # as the float conversion of an exact residue past 1.8e308 raises
        def overflow(*args):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(smatrix, "residue_expansion", overflow)
        model = SMatrixModel(ComplexPole(2, 1, 1), [cr(0, -1)])
        with pytest.raises(ValueError, match="leave the float range"):
            decomposition_check(model, F_KET, G_BRA)

    def test_failed_tolerance_reports_not_raises(self):
        # an order-6 model: the first- and third-order spec pairs both have
        # discrepancy 0.0, which no positive tolerance fails
        model = higher_order_model(6, 1)
        report = decomposition_check(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA, tolerance=1e-30)
        assert report.discrepancy > 0
        assert not report.passed  # nothing raised

    def test_report_json_fields(self):
        model = SMatrixModel(ComplexPole(2, 1, 1), [cr(0, -1)])
        payload = decomposition_check(model, F_KET, G_BRA).to_json_dict()
        for field in ("direct", "background", "residue", "discrepancy", "tolerance", "passed"):
            assert field in payload
        assert payload["passed"] is True
        assert isinstance(payload["direct"], list) and len(payload["direct"]) == 2


class TestJsonIngestion:
    def good_document(self):
        return {
            "E_R": 1.0,
            "Gamma": 0.5,
            "r": 2,
            "laurent": [[0.0, -0.5], [0.1, 0.0]],
            "background": {"num": [[0.05, 0.0]], "den": [[0.0, -5.0], [1.0, 0.0]]},
            "test_functions": [
                {"role": "ket", "num": [1.0], "den": [[-4.0, 0.0], [0.0, -4.0], [1.0, 0.0]]},
                {"role": "bra", "num": [1.0], "den": [[0.0, -3.0], [1.0, 0.0]]},
            ],
        }

    def test_round_trip(self):
        model, ket_fn, bra_fn = model_from_json(self.good_document())
        assert model.pole.order == 2
        assert model.laurent[0] == cr(0, Fraction(-1, 2))
        assert ket_fn.role == "ket"
        assert bra_fn.role == "bra"
        report = decomposition_check(model, ket_fn, bra_fn)
        assert report.passed

    @pytest.mark.parametrize("field", ["E_R", "Gamma", "r", "laurent", "test_functions"])
    def test_missing_field_named_in_error(self, field):
        document = self.good_document()
        del document[field]
        with pytest.raises(ValueError, match=field):
            model_from_json(document)

    def test_wrong_laurent_length(self):
        document = self.good_document()
        document["laurent"] = [[0.0, -0.5]]
        with pytest.raises(ValueError):
            model_from_json(document)

    def test_misdeclared_order_rejected_at_ingestion(self):
        document = self.good_document()
        document["laurent"] = [[0.0, -0.5], [0.0, 0.0]]
        with pytest.raises(ValueError):
            model_from_json(document)

    def test_duplicate_roles_rejected(self):
        document = self.good_document()
        document["test_functions"][1]["role"] = "ket"
        with pytest.raises(ValueError, match="test_functions"):
            model_from_json(document)

    def test_bad_coefficient_shape_named(self):
        document = self.good_document()
        document["laurent"][0] = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match=r"laurent\[0\]"):
            model_from_json(document)

    def test_coefficient_lists_are_json_lists_not_tuples(self):
        document = self.good_document()
        document["background"]["num"] = tuple(document["background"]["num"])
        with pytest.raises(ValueError, match=r"^model\.background\.num: expected a list, got \("):
            model_from_json(document)

    def test_wavefunction_parser(self):
        fn = parse_test_function(
            {"role": "bra", "num": [1.0], "den": [[0.0, -2.0], [1.0, 0.0]]}
        )
        assert fn.role == "bra"
        assert fn(cr(0)) == cr(0, Fraction(1, 2))

    def test_bundled_example_passes(self, tmp_path):
        from importlib.resources import files

        source = files("gamow").joinpath("data/residue_example.json").read_text()
        path = tmp_path / "model.json"
        path.write_text(source)
        model, ket_fn, bra_fn = load_model_file(path)
        report = decomposition_check(model, ket_fn, bra_fn)
        assert report.passed
