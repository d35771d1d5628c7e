"""Rational scattering-amplitude model with a residue/contour cross-check.

The model is a principal part of prescribed order at one lower-half-plane
pole plus an optional rational background, paired with rational stand-ins
for the very well-behaved wavefunctions (poles confined to the upper
half-plane, jointly decaying at infinity).  So the pole's contribution to
the amplitude integral is exact, the Taylor coefficients of ket*bra at the
pole weighted by the principal-part coefficients, and

    integral over [0, inf) = background piece + residue term

is the residue theorem on the closed contour (real axis plus a lower
semicircle at infinity), with the background piece the (-inf, 0] leg
traversed outward from the origin.  Each piece is integrated in half-angle
coordinates of the pole's Breit-Wigner phase (`_phase_leg`), each leg by one
adaptive Gauss-Kronrod run on the complex integrand (`quad`), and whether
every denominator root lies above the real axis is decided by a Sturm-chain
count in integers.  No step imports numpy or scipy, whose import alone costs
more than the rest of a command, or calls a C math library (libm) function.
"""

import heapq  # at module load: only the residue path loads this module
import json
import math
import sys

from .exact import (
    ComplexRational,
    I,
    Polynomial,
    RationalFunction,
    Value,
    ZERO,
    _exact_parts,
    coefficient_from_json,
    ordered_sum,
    reject_unknown_keys,
    typed_field,
)
from .jordan import ComplexPole

KET_ROLE = "ket"
BRA_ROLE = "bra"

# A denominator root must lie above the real axis by more than max(1, R)
# over this, R a power-of-two bound on the root moduli.
_ROOT_MARGIN = 10**9


def _modulus_exponent(coefficients) -> int:
    """An e >= 0 with every root of the polynomial below 2**e in modulus.

    Fujiwara's bound 2 * max_k |a_k / a_n|^(1/(n-k)), rounded up to a power
    of two from the bit lengths of the squared ratios, each reduced to lowest
    terms by one gcd, so it stays exact.
    """
    n = len(coefficients) - 1
    re, im, den = coefficients[-1].triple
    lead_norm, lead_scale = re * re + im * im, den * den
    exponent = 0
    for k, c in enumerate(coefficients[:-1]):
        re, im, den = c.triple
        if re or im:
            num, denom = (re * re + im * im) * lead_scale, lead_norm * den * den
            divisor = math.gcd(num, denom)
            bits = (num // divisor).bit_length() - (denom // divisor).bit_length() + 1
            exponent = max(exponent, 1 - (-bits // (2 * (n - k))))
    return exponent


def _roots_above(polynomial: Polynomial, height) -> bool:
    """Whether every root z of `polynomial` has Im z > height, decided exactly.

    On the line Im z = height, p(x + i*height) * conj(lead) = P(x) + i*Q(x)
    with real rational P of degree n and Q of lower degree.  The argument of
    p rises by pi along the line for each root above it and falls by pi for
    each below, so all n roots lie above iff the Cauchy index of Q/P over
    the line is -n (Gantmacher, Theory of Matrices II, ch. XV), read off the
    sign changes of the Sturm chain of (P, Q) at -inf and +inf.  A common
    factor of P and Q, from a root on the line or a conjugate pair of
    roots, drops out of the index, so the index then stays above -n.
    The factor conj(lead) gives P the top coefficient |lead|^2, so P has
    degree n as that argument needs; without it an imaginary lead leaves
    P of lower degree, a case the argument does not cover.

    The chain is kept in integers: P and Q are scaled by their common
    denominator, each division step multiplies the remainder by the
    divisor's |lead| so that no sign changes, and each remainder is divided
    by its content.  Every member is a positive multiple of the rational
    chain's, with the same signs.
    """
    n = polynomial.degree
    if n < 1:
        return True
    shifted = polynomial.taylor_coefficients(I * height, n + 1)
    scale = shifted[-1].conjugate()
    parts = [(c * scale).triple for c in shifted]
    common = math.lcm(*(den for _, _, den in parts))
    chain = [[re * (common // den) for re, _, den in parts],
             [im * (common // den) for _, im, den in parts]]
    _trim(chain[1])
    while chain[-1]:
        remainder = chain[-2]
        divisor = chain[-1]
        size = abs(divisor[-1])
        while len(remainder) >= len(divisor):
            factor = remainder[-1] if divisor[-1] > 0 else -remainder[-1]
            shift = len(remainder) - len(divisor)
            remainder = [size * c for c in remainder[:shift]] + [
                size * c - factor * d for c, d in zip(remainder[shift:], divisor)]
            remainder.pop()
            _trim(remainder)
        content = math.gcd(*remainder) or 1
        chain.append([-c // content for c in remainder])
    chain.pop()
    at_plus = [f[-1] > 0 for f in chain]
    at_minus = [(f[-1] > 0) == (len(f) % 2 == 1) for f in chain]
    changes = [sum(a != b for a, b in zip(signs, signs[1:])) for signs in (at_minus, at_plus)]
    return changes[0] - changes[1] == -n


def _trim(coefficients):
    while coefficients and not coefficients[-1]:
        coefficients.pop()


def _require_upper_half_plane_roots(function: RationalFunction, what: str):
    """Refuse `function` unless it is bounded and its denominator roots lie above the axis.

    A numerator of higher degree than the denominator is refused first.  The
    exact root test runs on the line Im z = 1e-9 * max(1, R), R >= every root
    modulus, and every root must lie above it, so one far root sets the margin
    for all: -4 - 4i z + 1e-320 z^2, with roots i and about 4e320 i, is refused.
    """
    numerator, denominator = function.numerator, function.denominator
    if numerator.degree > denominator.degree:
        raise ValueError(f"{what} must be bounded at infinity: numerator degree "
                         f"{numerator.degree}, denominator degree {denominator.degree}")
    exponent = _modulus_exponent(denominator.coefficients)
    if not _roots_above(denominator, ComplexRational(2**exponent) / _ROOT_MARGIN):
        raise ValueError(  # the height from its exponent: as a float it may overflow
            f"{what} must be analytic in the closed lower half-plane; a denominator root "
            f"is not above the real axis by more than {1 / _ROOT_MARGIN:.3g} * 2^{exponent}")


class TestFunction(Value):
    """Rational stand-in for a half-plane-analytic wavefunction overlap.

    The denominator roots must lie strictly in the upper half-plane and the
    function must be bounded at infinity.  Contour closure needs the ket and
    bra to decay like 1/|z|^2 *together*; that pairwise condition is checked
    by the contour operations, so constants remain admissible in the residue
    expansion.  The role tag records which side of the amplitude the function
    stands for.
    """

    __test__ = False  # domain type, not a pytest case
    __slots__ = ("function", "role")

    def __init__(self, function: RationalFunction, role: str):
        if role not in (KET_ROLE, BRA_ROLE):
            raise ValueError(f"role must be {KET_ROLE!r} or {BRA_ROLE!r}, got {role!r}")
        _require_upper_half_plane_roots(function, "test function")
        Value.__init__(self, function, role)

    @property
    def decay_degree(self) -> int:
        """Power of 1/|z| the function decays with at infinity."""
        return self.function.denominator.degree - self.function.numerator.degree

    def __call__(self, z):
        return self.function(z)


class SMatrixModel(Value):
    """Principal part of exact order at one pole, plus analytic background.

    `laurent[n]` is the coefficient of 1/(z - pole)^{n+1}; the list length
    equals the pole order and the top coefficient must be nonzero whenever
    any coefficient is (a vanishing top coefficient would misdeclare the
    order).  The all-zero principal part is admitted as the degenerate
    pole-free model, which the trivial oracle checks need.  A background,
    when present, must itself be analytic in the closed lower half-plane and
    bounded at infinity so the contour decomposition sees only the declared
    pole; a zero background is stored as None.
    """

    __slots__ = ("pole", "laurent", "background")

    def __init__(self, pole: ComplexPole, laurent: tuple,
                 background: RationalFunction | None = None):
        order = pole.order
        coeffs = tuple(ComplexRational.from_value(c) for c in laurent)
        if len(coeffs) != order:
            raise ValueError(f"need {order} principal-part coefficients for a pole of order "
                             f"{order}, got {len(coeffs)}")
        if not coeffs[-1] and any(coeffs):
            raise ValueError(f"top principal-part coefficient is zero: the pole would have "
                             f"order lower than the declared {order}")
        if background is not None and background.is_zero:
            background = None
        elif background is not None:
            _require_upper_half_plane_roots(background, "background")
        Value.__init__(self, pole, coeffs, background)

    def __call__(self, z):
        """Evaluate the amplitude; exact for exact z, complex otherwise."""
        position = self.pole.position
        if _exact_parts(z) is not None:
            z = ComplexRational.from_value(z)
            if z == position:
                raise ZeroDivisionError("evaluation at the pole position")
            shift = z - position
            total, power = ZERO, shift
            for coeff in self.laurent:
                total = total + coeff / power
                power = power * shift
            if self.background is not None:
                total = total + self.background(z)
            return total
        z = complex(z)
        if z == complex(position):
            raise ZeroDivisionError("evaluation at the pole position")
        shift = z - complex(position)
        total, power = 0j, shift
        for coeff in self.laurent:
            total += complex(coeff) / power
            power *= shift
        if self.background is not None:
            total += complex(self.background(z))
        return total


# -- residue expansion -------------------------------------------------------


def residue_core(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction) -> ComplexRational:
    """Exact rational part of the pole's residue contribution.

    With c_n the Taylor coefficients of the product ket*bra at the pole z,
    from one power-series division of its numerator by its denominator, the
    residue of ket*bra*laurent[n]/(E - z)^{n+1} at E = z is laurent[n] * c_n;
    the sum over n, multiplied by -2*pi*i, is the residue term.  Exact in
    the Gaussian rationals.
    """
    if ket_fn.role != KET_ROLE:
        raise ValueError(f"first test function must have role {KET_ROLE!r}")
    if bra_fn.role != BRA_ROLE:
        raise ValueError(f"second test function must have role {BRA_ROLE!r}")
    product = ket_fn.function * bra_fn.function
    series = product.taylor_coefficients(model.pole.position, model.pole.order)
    return ordered_sum(coeff * c for coeff, c in zip(model.laurent, series))


def residue_expansion(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction) -> complex:
    """The pole's contribution to the amplitude integral: -2*pi*i * residue_core."""
    return complex(0.0, -2.0 * math.pi) * complex(residue_core(model, ket_fn, bra_fn))


# -- numerical contour pieces ------------------------------------------------


# The one quadrature policy of every contour leg, `_leg`.
_ABSOLUTE_TOLERANCE = 1e-10
_RELATIVE_TOLERANCE = 1e-10
_SUBDIVISION_LIMIT = 200
_MEET = 1.0 / (1.0 + math.sqrt(2.0))  # tan(pi/8) = sqrt(2) - 1: where the legs meet


# QUADPACK's GK21 rule (Piessens et al. 1983): the centre node's Kronrod and
# Gauss weights, then (x, Kronrod weight, Gauss weight or 0.0) for each +-x.
_GK21 = (0.1494455540029169, 0.0, (
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.2943928627014602, 0.14277593857706009, 0.0),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
))
_EPSILON = sys.float_info.epsilon  # QUADPACK's epmach
_UNDERFLOW = sys.float_info.min  # QUADPACK's uflow


class IntegralResult(Value):
    """Value and quadrature error estimate of an integral, and its unconverged legs.

    `_unconverged` describes each leg whose quadrature did not converge, for
    the command line's failure message; the result has converged if none.
    """

    __slots__ = ("value", "error_estimate", "_unconverged")

    def __init__(self, value: complex, error_estimate: float, _unconverged: tuple):
        Value.__init__(self, value, error_estimate, tuple(_unconverged))

    @property
    def converged(self) -> bool:
        return not self._unconverged


def _modulus(z: complex) -> float:
    """abs(z) by CPython's correctly rounded hypot; OverflowError where abs(z) raises it."""
    modulus = math.hypot(z.real, z.imag)
    if modulus == math.inf and math.inf not in (abs(z.real), abs(z.imag)):
        raise OverflowError("absolute value too large")
    return modulus


def _gauss_kronrod(func, a, b, rule):
    """One Gauss-Kronrod rule on [a, b], as QUADPACK's QK21.

    Returns (integral, error estimate, resasc), resasc the rule's measure of
    the integrand's spread about its mean, which the error estimate equals
    when it is saturated.  The error is |Kronrod - Gauss| scaled by
    resasc * min(1, (200 * error / resasc)^1.5), and at least 50 machine
    epsilons of the integral of |func|.
    """
    center_kronrod, center_gauss, abscissas = rule
    hypot = math.hypot  # not abs(complex), which calls libm's hypot
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = func(center)
    kronrod = center_kronrod * fc
    gauss = center_gauss * fc
    resabs = center_kronrod * hypot(fc.real, fc.imag)
    pairs = []
    for x, kronrod_weight, gauss_weight in abscissas:
        offset = half * x
        f1 = func(center - offset)
        f2 = func(center + offset)
        both = f1 + f2
        kronrod += kronrod_weight * both
        gauss += gauss_weight * both
        resabs += kronrod_weight * (hypot(f1.real, f1.imag) + hypot(f2.real, f2.imag))
        pairs.append((kronrod_weight, f1, f2))
    mean = 0.5 * kronrod
    re, im = mean.real, mean.imag
    resasc = center_kronrod * hypot(fc.real - re, fc.imag - im)
    for weight, f1, f2 in pairs:
        resasc += weight * (hypot(f1.real - re, f1.imag - im) + hypot(f2.real - re, f2.imag - im))
    if not resabs + resasc < math.inf:  # then raise where abs(complex) would
        for f in (fc, *(f for _, f1, f2 in pairs for f in (f1, f2))):
            _modulus(f), _modulus(f - mean)
    resabs *= half
    resasc *= half
    error = _modulus((kronrod - gauss) * half)
    if resasc and error:
        error = resasc * min(1.0, (ratio := 200.0 * error / resasc) * math.sqrt(ratio))
    if resabs > _UNDERFLOW / (50.0 * _EPSILON):
        error = max(50.0 * _EPSILON * resabs, error)
    return kronrod * half, error, resasc


def quad(func, lo, hi, points, rule=_GK21):
    """Adaptive Gauss-Kronrod integral of the complex `func` over [lo, hi], lo < hi finite.

    `rule` on the pieces between the sorted breakpoints `points`, then
    QUADPACK's QAG bisection of the worst piece, without extrapolation,
    until the summed error estimate meets the leg policy.  Returns (value,
    error estimate, ier): ier 0 when converged, 1 at the subdivision limit,
    2 when QUADPACK's roundoff test finds that bisection no longer reduces
    the error, 3 at the first sum or error estimate that is not finite.
    """
    edges = (lo, *points, hi)
    pieces = []
    for a, b in zip(edges, edges[1:]):
        value, error, _ = _gauss_kronrod(func, a, b, rule)
        pieces.append((-error, a, b, value))
    heapq.heapify(pieces)
    total = ordered_sum(piece[3] for piece in pieces)
    error_sum = -ordered_sum(piece[0] for piece in pieces)
    stalled = rising = 0  # QUADPACK's roundoff counters iroff1, iroff2
    ier = 0
    while True:
        if not (math.isfinite(total.real) and math.isfinite(total.imag)
                and math.isfinite(error_sum)):
            ier = 3
            break
        if error_sum <= max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * _modulus(total)):
            break
        if len(pieces) >= _SUBDIVISION_LIMIT:
            ier = 1
            break
        if stalled >= 6 or rising >= 20:
            ier = 2
            break
        negative_error, a, b, value = heapq.heappop(pieces)
        middle = 0.5 * (a + b)
        left, left_error, left_resasc = _gauss_kronrod(func, a, middle, rule)
        right, right_error, right_resasc = _gauss_kronrod(func, middle, b, rule)
        area = left + right
        area_error = left_error + right_error
        if left_resasc != left_error and right_resasc != right_error:
            if (_modulus(value - area) <= 1e-5 * _modulus(area)
                    and area_error >= -0.99 * negative_error):
                stalled += 1
            if len(pieces) > 8 and area_error > -negative_error:  # over 10 pieces after this step
                rising += 1
        total += area - value
        error_sum += area_error + negative_error
        heapq.heappush(pieces, (-left_error, a, middle, left))
        heapq.heappush(pieces, (-right_error, middle, b, right))
    return (ordered_sum(piece[3] for piece in pieces),
            -ordered_sum(piece[0] for piece in pieces), ier)


def _phase_window(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction):
    """E_R, Gamma/2 and the rungs +-R*2^k, k = 0, 1, ... to the first beyond |E_R| + Gamma.

    R = 2^e bounds the test functions' and the background's denominator
    roots, so legs broken at the rungs resolve their scale.  ValueError,
    before any rung is built, where one would leave the float range or
    E_R +- Gamma/2 are not distinct floats.
    """
    numerator, denominator = model.pole._width_ratio()
    center, width = complex(model.pole.position).real, numerator / denominator
    half = 0.5 * width
    exponent = max(_modulus_exponent(f.denominator.coefficients)
                   for f in (ket_fn.function, bra_fn.function, model.background) if f is not None)
    reach = abs(center) + width
    top = max(exponent, math.frexp(reach)[1]) if math.isfinite(reach) else 1024
    if top > 1023:
        problem = f"rung 2^{top} leaves the float range"
    elif not center - half < center < center + half:
        problem = "pole window E_R +- Gamma/2 has points that floats cannot tell apart"
    else:
        return center, half, [math.ldexp(s, k) for k in range(exponent, top + 1) for s in (-1, 1)]
    raise ValueError(f"{problem} (E_R {center!r}, Gamma {width!r})")


def _phase(side: int, energy: float, center: float, half: float) -> float:
    """The w of `_phase_leg`'s `side` at `energy`, by hypot: E_R +- Gamma/2 maps to +-_MEET."""
    x = (energy - center) / half
    if not side:
        return x / (1.0 + math.hypot(1.0, x))
    x *= side
    return 1.0 / (x + math.hypot(x, 1.0)) if x > 0 else math.hypot(x, 1.0) - x


def _phase_leg(integrand, center: float, half: float, side: int, energies):
    """The energy `integrand` times dE/dw in the half-angle coordinate w of one `side`.

    Side 0, |E - E_R| <= Gamma/2: w = tan(theta/2), theta = atan(2(E - E_R)/Gamma)
    the Breit-Wigner phase, E = E_R + (Gamma/2) 2w/(1 - w^2).  Sides -1, +1, the
    tails: w = tan(u/2), u = pi/2 - |theta|, E = E_R +- (Gamma/2)(1 - w^2)/(2w).
    The pole factor (E - z)^-r dE/dw is smooth on each; `energies` names the leg.
    """
    def leg(w: float) -> complex:
        square = w * w
        if side:
            s, slope = side * (1.0 - square) / (2.0 * w), (1.0 + square) / (2.0 * square)
        else:
            s = 2.0 * w / (1.0 - square)
            slope = 2.0 * (1.0 + square) / ((1.0 - square) * (1.0 - square))
        return integrand(center + half * s) * (half * slope)

    leg.energies = energies
    return leg


def _leg(integrand, breakpoints, lo: float, hi: float) -> IntegralResult:
    """Integral of the `_phase_leg` `integrand` over [lo, hi] by `quad`.

    A leg that did not converge names its energy interval and quad's status;
    one whose integrand is not finite, overflows or divides by zero, is a
    model beyond the float range: ValueError, naming the leg.
    """
    try:
        value, error, ier = quad(integrand, lo, hi, breakpoints)
    except (OverflowError, ZeroDivisionError):
        ier = 3
    name = "leg [{:g}, {:g}]: ier {}".format(*integrand.energies, ier)
    if ier == 3:
        raise ValueError(f"{name}, non-finite integrand: the model's E_R, Gamma, laurent or "
                         "background, or a test function, is beyond the float range there")
    unconverged = (f"{name}, {'subdivision limit' if ier == 1 else 'roundoff'}",) if ier else ()
    return IntegralResult(value, error, unconverged)


def _horner_coefficients(function: RationalFunction):
    """Complex coefficients of the numerator and the denominator, highest degree first."""
    return [tuple(complex(c) for c in reversed(polynomial.coefficients))
            for polynomial in (function.numerator, function.denominator)]


def _amplitude_integrand(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction):
    """ket(e) * model(e) * bra(e) at a real energy e, as a complex.

    Every coefficient is converted to complex once, here, and the callable
    repeats the operations of the complex branches of `Polynomial.__call__`,
    `RationalFunction.__call__` and `SMatrixModel.__call__` in their order,
    so its values are bit-identical to evaluating those.
    """
    if ket_fn.decay_degree + bra_fn.decay_degree < 2:
        raise ValueError("contour pieces need the test-function pair to decay at least as "
                         f"1/|z|^2 combined, got degrees {ket_fn.decay_degree} + "
                         f"{bra_fn.decay_degree}")
    ket_num, ket_den = _horner_coefficients(ket_fn.function)
    bra_num, bra_den = _horner_coefficients(bra_fn.function)
    position = complex(model.pole.position)
    laurent = tuple(complex(c) for c in model.laurent)
    background = model.background
    if background is not None:
        bg_num, bg_den = _horner_coefficients(background)

    def integrand(energy: float) -> complex:
        # Horner's rule written out six times: a call per polynomial costs.
        z = complex(energy)
        shift = z - position
        total = 0j
        power = shift
        for coeff in laurent:
            total += coeff / power
            power *= shift
        if background is not None:
            num = den = 0j
            for c in bg_num:
                num = num * z + c
            for c in bg_den:
                den = den * z + c
            total += num / den
        num = den = 0j
        for c in ket_num:
            num = num * z + c
        for c in ket_den:
            den = den * z + c
        ket = num / den
        num = den = 0j
        for c in bra_num:
            num = num * z + c
        for c in bra_den:
            den = den * z + c
        return ket * total * (num / den)

    return integrand


def _outward_integral(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction,
                      sign: int) -> IntegralResult:
    """Amplitude integral from E = 0 out to `sign` * inf, `sign` +1 or -1.

    One leg per side of the pole that the half-line meets, in that side's
    half-angle coordinate, ended by E = 0 and broken at the rungs in it.
    """
    integrand = _amplitude_integrand(model, ket_fn, bra_fn)
    center, half, rungs = _phase_window(model, ket_fn, bra_fn)
    parts = []
    for side, lo, low, high in ((-1, 0.0, -math.inf, center - half),
                                (0, -_MEET, center - half, center + half),
                                (1, 0.0, center + half, math.inf)):
        hi, end = _MEET, _phase(side, 0.0, center, half)
        if (side < 1) == (sign > 0):  # w rises with E below and across the pole
            lo = max(lo, end)
        else:
            hi = min(hi, end)
        if lo < hi:
            points = sorted({w for e in rungs if lo < (w := _phase(side, e, center, half)) < hi})
            energies = (max(low, 0.0), high) if sign > 0 else (low, min(high, 0.0))
            parts.append(_leg(_phase_leg(integrand, center, half, side, energies), points, lo, hi))
    return IntegralResult(sign * ordered_sum(p.value for p in parts),
                          ordered_sum(p.error_estimate for p in parts),
                          sum((p._unconverged for p in parts), ()))


def direct_contour_integral(model: SMatrixModel, ket_fn: TestFunction,
                            bra_fn: TestFunction) -> IntegralResult:
    """Amplitude integral along the physical spectrum [0, inf)."""
    return _outward_integral(model, ket_fn, bra_fn, 1)


def background_integral(model: SMatrixModel, ket_fn: TestFunction,
                        bra_fn: TestFunction) -> IntegralResult:
    """Pole-independent contour piece along (-inf, 0].

    Traversed outward from the origin (the orientation the deformed contour
    inherits), so the returned value is minus the conventionally oriented
    integral over (-inf, 0].
    """
    return _outward_integral(model, ket_fn, bra_fn, -1)


class DecompositionReport(Value):
    """Contour-decomposition check: direct vs background + residue.

    `_unconverged` holds a (piece, legs) pair for each contour piece
    ("direct", "background") whose quadrature did not converge, `legs`
    describing each failed leg, for the command line's failure message and
    not the JSON report.  The check has converged when it holds none, and
    passes when it has and the discrepancy is within the tolerance.
    """

    __slots__ = ("direct", "background", "residue", "discrepancy", "tolerance",
                 "quadrature_error", "_unconverged")

    def __init__(self, direct: complex, background: complex, residue: complex,
                 discrepancy: float, tolerance: float, quadrature_error: float,
                 _unconverged: tuple):
        Value.__init__(self, direct, background, residue, discrepancy, tolerance,
                       quadrature_error, tuple(_unconverged))

    @property
    def converged(self) -> bool:
        return not self._unconverged

    @property
    def passed(self) -> bool:
        return self.discrepancy <= self.tolerance and self.converged

    def to_json_dict(self):
        return {
            "direct": [self.direct.real, self.direct.imag],
            "background": [self.background.real, self.background.imag],
            "residue": [self.residue.real, self.residue.imag],
            "discrepancy": self.discrepancy,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "quadrature_error": self.quadrature_error,
            "converged": self.converged,
        }


def decomposition_check(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction,
                        tolerance: float = 1e-8) -> DecompositionReport:
    """Check direct = background + residue on the closed lower contour.

    The discrepancy is relative to |direct| when that is nonzero, absolute
    otherwise.  A tolerance that is not positive and finite raises
    ValueError, and so does a model whose pieces, residue term or
    discrepancy leave the float range; a violation (or unconverged
    quadrature) is reported through `passed`, never raised.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    direct = direct_contour_integral(model, ket_fn, bra_fn)
    background = background_integral(model, ket_fn, bra_fn)
    try:
        residue = residue_expansion(model, ket_fn, bra_fn)
        mismatch = _modulus(direct.value - (background.value + residue))
        scale = _modulus(direct.value)
    except OverflowError:
        mismatch = scale = math.inf
    discrepancy = mismatch / scale if scale > 0 else mismatch
    quadrature_error = direct.error_estimate + background.error_estimate
    if not (math.isfinite(discrepancy) and math.isfinite(quadrature_error)):
        # finite only if direct, background and residue are all finite
        raise ValueError(
            "the contour pieces, the residue term or their discrepancy leave the float "
            f"range (E_R {float(model.pole.resonance_energy)!r}, Gamma "
            f"{float(model.pole.width)!r}); the model's laurent or background, or a test "
            "function, is too large or too small for floats")
    return DecompositionReport(
        direct=direct.value, background=background.value, residue=residue,
        discrepancy=discrepancy, tolerance=tolerance, quadrature_error=quadrature_error,
        _unconverged=[(name, piece._unconverged)
                      for name, piece in (("direct", direct), ("background", background))
                      if not piece.converged],
    )


# -- JSON ingestion -----------------------------------------------------------


def _coefficients_from_json(data: dict, key: str, where: str) -> list:
    """The required list data[key] of JSON coefficients; `where` is its path."""
    values = typed_field(data, key, list, where)
    return [coefficient_from_json(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _rational_from_json(data, where: str, fields=("num", "den")) -> RationalFunction:
    """The quotient of the "num" and "den" coefficient lists of an object with `fields`."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {data!r}")
    reject_unknown_keys(data, fields, where)
    num, den = (Polynomial(_coefficients_from_json(data, field, f"{where}.{field}"))
                for field in ("num", "den"))
    try:
        return RationalFunction(num, den)
    except ZeroDivisionError as exc:  # an empty or all-zero den
        raise ValueError(f"{where}.den: {exc}") from None


def parse_test_function(data, where: str = "test_function") -> TestFunction:
    """Build a test function from {"role", "num", "den"} (ascending coefficients)."""
    function = _rational_from_json(data, where, ("role", "num", "den"))
    role = typed_field(data, "role", str, f"{where}.role")
    try:
        return TestFunction(function, role)
    except ValueError as exc:  # checked in turn: the role, the num's degree, the den's roots
        field = ("role" if role not in (KET_ROLE, BRA_ROLE) else
                 "num" if function.numerator.degree > function.denominator.degree else "den")
        raise ValueError(f"{where}.{field}: {exc}") from None


def model_from_json(data):
    """Build (model, ket_fn, bra_fn) from the model-document schema.

    Expected fields: E_R, Gamma, r, laurent (list of [re, im] or numbers,
    length r), optional background {"num": [...], "den": [...]}, and
    test_functions holding exactly one "ket" and one "bra" entry.
    """
    if not isinstance(data, dict):
        raise ValueError(f"model: expected an object, got {data!r}")
    reject_unknown_keys(data, ("E_R", "Gamma", "r", "laurent", "background", "test_functions"),
                        "model")
    pole = ComplexPole(typed_field(data, "E_R", float, "model.E_R"),
                       typed_field(data, "Gamma", float, "model.Gamma"),
                       typed_field(data, "r", int, "model.r"))
    laurent = _coefficients_from_json(data, "laurent", "model.laurent")
    background = None
    if data.get("background") is not None:
        background = _rational_from_json(data["background"], "model.background")
    functions = typed_field(data, "test_functions", list, "model.test_functions")
    if len(functions) != 2:
        raise ValueError("model.test_functions: expected a list of exactly two entries")
    parsed = [parse_test_function(entry, f"model.test_functions[{i}]")
              for i, entry in enumerate(functions)]
    by_role = {fn.role: fn for fn in parsed}
    if set(by_role) != {KET_ROLE, BRA_ROLE}:
        raise ValueError('model.test_functions: need one "ket" and one "bra" entry')
    model = SMatrixModel(pole, laurent, background)
    return model, by_role[KET_ROLE], by_role[BRA_ROLE]


def load_model_file(path):
    """Read and validate a model document from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_json(json.load(handle))
