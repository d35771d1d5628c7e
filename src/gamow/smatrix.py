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
traversed outward from the origin.  Each piece is integrated in the phase
coordinates of the pole's Breit-Wigner peak (`_phase_leg`), each leg by one
adaptive Gauss-Kronrod run on the complex integrand (`quad`).  Whether every
denominator root lies above the real axis is decided exactly, by a
Sturm-chain count in integers.  Neither step imports numpy or scipy, whose
import alone costs more than the rest of a command.
"""

import json
import math
import sys
from fractions import Fraction

from .exact import (
    ComplexRational,
    Polynomial,
    RationalFunction,
    Value,
    ZERO,
    coefficient_from_json,
    reject_unknown_keys,
    typed_field,
)
from .jordan import ComplexPole

KET_ROLE = "ket"
BRA_ROLE = "bra"

# A denominator root must lie above the real axis by more than this
# fraction of max(1, R), R a power-of-two bound on the root moduli.
_ROOT_MARGIN = Fraction(1, 10**9)


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

    The chain is kept in integers: P and Q are scaled by their common
    denominator, each division step multiplies the remainder by the
    divisor's |lead| so that no sign changes, and each remainder is divided
    by its content.  Every member is a positive multiple of the rational
    chain's, with the same signs.
    """
    n = polynomial.degree
    if n < 1:
        return True
    shifted = polynomial.taylor_coefficients(ComplexRational(0, height), n + 1)
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
    """Refuse `function` unless its denominator roots lie above the axis and it is bounded.

    The exact test runs on the line Im z = 1e-9 * max(1, R), R >= every root
    modulus, so a root within 1e-9 * max(1, |root|) of the axis is refused;
    so is a numerator of higher degree than the denominator.
    """
    numerator, denominator = function.numerator, function.denominator
    height = _ROOT_MARGIN * 2 ** _modulus_exponent(denominator.coefficients)
    if not _roots_above(denominator, height):
        raise ValueError(
            f"{what} must be analytic in the closed lower half-plane; a denominator root "
            f"is not above the real axis by more than {float(height):.3g}"
        )
    if numerator.degree > denominator.degree:
        raise ValueError(f"{what} must be bounded at infinity: numerator degree "
                         f"{numerator.degree}, denominator degree {denominator.degree}")


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
            raise ValueError(
                f"need {order} principal-part coefficients for a pole of order "
                f"{order}, got {len(coeffs)}"
            )
        if not coeffs[-1] and any(coeffs):
            raise ValueError(
                f"top principal-part coefficient is zero: the pole would have order "
                f"lower than the declared {order}"
            )
        if background is not None and background.is_zero:
            background = None
        elif background is not None:
            _require_upper_half_plane_roots(background, "background")
        Value.__init__(self, pole, coeffs, background)

    def __call__(self, z):
        """Evaluate the amplitude; exact for exact z, complex otherwise."""
        position = self.pole.position
        if isinstance(z, (ComplexRational, int, Fraction)):
            z = ComplexRational.from_value(z)
            if z == position:
                raise ZeroDivisionError("evaluation at the pole position")
            shift = z - position
            total = ZERO
            power = shift
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
        total = 0j
        power = shift
        for coeff in self.laurent:
            total += complex(coeff) / power
            power *= shift
        if self.background is not None:
            total += complex(self.background(z))
        return total


def unitary_first_order_model(pole: ComplexPole) -> SMatrixModel:
    """First-order model with the unitarity-determined coefficient -i*width.

    Only the order-1 coefficient is pinned by unitarity; higher orders take
    the coefficients as free inputs.
    """
    if pole.order != 1:
        raise ValueError("the unitarity default applies to first-order poles only")
    return SMatrixModel(pole, [ComplexRational(0, -pole.width)])


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
    total = ZERO
    for coeff, c in zip(model.laurent, series):
        total = total + coeff * c
    return total


def residue_expansion(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction) -> complex:
    """The pole's contribution to the amplitude integral: -2*pi*i * residue_core."""
    return complex(0.0, -2.0 * math.pi) * complex(residue_core(model, ket_fn, bra_fn))


# -- numerical contour pieces ------------------------------------------------


# The one quadrature policy of every contour leg, `_leg`.
_ABSOLUTE_TOLERANCE = 1e-10
_RELATIVE_TOLERANCE = 1e-10
_SUBDIVISION_LIMIT = 200
_QUARTER = math.pi / 4


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
    """Value, quadrature error estimate, and convergence flag.

    `_unconverged` describes the legs whose quadrature did not converge,
    for the command line's failure message.
    """

    __slots__ = ("value", "error_estimate", "converged", "_unconverged")

    def __init__(self, value: complex, error_estimate: float, converged: bool,
                 _unconverged: tuple = ()):
        Value.__init__(self, value, error_estimate, converged, _unconverged)


def _gauss_kronrod(func, a, b, rule):
    """One Gauss-Kronrod rule on [a, b], as QUADPACK's QK21.

    Returns (integral, error estimate, resasc), resasc the rule's measure of
    the integrand's spread about its mean, which the error estimate equals
    when it is saturated.  The error is |Kronrod - Gauss| scaled by
    resasc * min(1, (200 * error / resasc)^1.5), and at least 50 machine
    epsilons of the integral of |func|.
    """
    center_kronrod, center_gauss, abscissas = rule
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = func(center)
    kronrod = center_kronrod * fc
    gauss = center_gauss * fc
    resabs = center_kronrod * abs(fc)
    pairs = []
    for x, kronrod_weight, gauss_weight in abscissas:
        offset = half * x
        f1 = func(center - offset)
        f2 = func(center + offset)
        both = f1 + f2
        kronrod += kronrod_weight * both
        gauss += gauss_weight * both
        resabs += kronrod_weight * (abs(f1) + abs(f2))
        pairs.append((kronrod_weight, f1, f2))
    mean = 0.5 * kronrod
    resasc = center_kronrod * abs(fc - mean)
    for kronrod_weight, f1, f2 in pairs:
        resasc += kronrod_weight * (abs(f1 - mean) + abs(f2 - mean))
    resabs *= half
    resasc *= half
    error = abs((kronrod - gauss) * half)
    if resasc and error:
        error = resasc * min(1.0, (200.0 * error / resasc) ** 1.5)
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
    import heapq  # here, not at module load: only the residue path needs it

    edges = (lo, *points, hi)
    pieces = []
    for a, b in zip(edges, edges[1:]):
        value, error, _ = _gauss_kronrod(func, a, b, rule)
        pieces.append((-error, a, b, value))
    heapq.heapify(pieces)
    total = sum(piece[3] for piece in pieces)
    error_sum = -sum(piece[0] for piece in pieces)
    stalled = rising = 0  # QUADPACK's roundoff counters iroff1, iroff2
    ier = 0
    while True:
        if not (math.isfinite(total.real) and math.isfinite(total.imag)
                and math.isfinite(error_sum)):
            ier = 3
            break
        if error_sum <= max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * abs(total)):
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
            if abs(value - area) <= 1e-5 * abs(area) and area_error >= -0.99 * negative_error:
                stalled += 1
            if len(pieces) > 8 and area_error > -negative_error:  # over 10 pieces after this step
                rising += 1
        total += area - value
        error_sum += area_error + negative_error
        heapq.heappush(pieces, (-left_error, a, middle, left))
        heapq.heappush(pieces, (-right_error, middle, b, right))
    return sum(piece[3] for piece in pieces), -sum(piece[0] for piece in pieces), ier


def _phase_window(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction):
    """E_R, Gamma/2 and the rungs +-R*2^k, k = 0, 1, ... to the first beyond |E_R| + Gamma.

    R = 2^e bounds the test functions' and the background's denominator
    roots, so legs broken at the rungs resolve their scale.  ValueError,
    before any rung is built, where one would leave the float range or
    E_R +- Gamma/2 are not distinct floats.
    """
    center, width = float(model.pole.resonance_energy), float(model.pole.width)
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
        return center, half, [s * 2.0**k for k in range(exponent, top + 1) for s in (-1, 1)]
    raise ValueError(f"{problem} (E_R {center!r}, Gamma {width!r})")


def _phase_leg(integrand, center: float, half: float, side: int, energies):
    """The energy `integrand` times dE/dt in the phase coordinate t of one `side`.

    Side 0, |E - E_R| <= Gamma/2: t = theta = atan(2(E - E_R)/Gamma); sides
    -1, +1, the tails below and above: t = u = pi/2 - |theta| in (0, pi/4],
    E = +-inf at u = 0.  With s = tan(theta), E = E_R + s*Gamma/2, and the
    pole factor (E - z)^-r dE/dt = (Gamma/2)^(1-r) (-i)^r cos^(r-2)(theta)
    e^(i*r*theta) is smooth.  `energies` names the leg in `_leg`'s errors.
    """
    def leg(t: float) -> complex:
        s = side / math.tan(t) if side else math.tan(t)
        return integrand(center + half * s) * (half * (1.0 + s * s))

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
    return IntegralResult(value, error, not ier, unconverged)


def _horner_coefficients(polynomial: Polynomial):
    """Complex coefficients of `polynomial`, highest degree first."""
    return tuple(complex(c) for c in reversed(polynomial.coefficients))


def _amplitude_integrand(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction):
    """ket(e) * model(e) * bra(e) at a real energy e, as a complex.

    Every coefficient is converted to complex once, here, and the callable
    repeats the operations of the complex branches of `Polynomial.__call__`,
    `RationalFunction.__call__` and `SMatrixModel.__call__` in their order,
    so its values are bit-identical to evaluating those.
    """
    if ket_fn.decay_degree + bra_fn.decay_degree < 2:
        raise ValueError(
            "contour pieces need the test-function pair to decay at least as 1/|z|^2 "
            f"combined, got degrees {ket_fn.decay_degree} + {bra_fn.decay_degree}"
        )
    ket_num = _horner_coefficients(ket_fn.function.numerator)
    ket_den = _horner_coefficients(ket_fn.function.denominator)
    bra_num = _horner_coefficients(bra_fn.function.numerator)
    bra_den = _horner_coefficients(bra_fn.function.denominator)
    position = complex(model.pole.position)
    laurent = tuple(complex(c) for c in model.laurent)
    background = model.background
    if background is not None:
        bg_num = _horner_coefficients(background.numerator)
        bg_den = _horner_coefficients(background.denominator)

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
    phase coordinate, ended by E = 0 and broken at the rungs in it.
    """
    integrand = _amplitude_integrand(model, ket_fn, bra_fn)
    center, half, rungs = _phase_window(model, ket_fn, bra_fn)

    def phase(side, energy):
        return (math.atan2(half, side * (energy - center)) if side
                else math.atan2(energy - center, half))

    parts = []
    for side, lo, low, high in ((-1, 0.0, -math.inf, center - half),
                                (0, -_QUARTER, center - half, center + half),
                                (1, 0.0, center + half, math.inf)):
        hi, end = _QUARTER, phase(side, 0.0)
        if (side < 1) == (sign > 0):  # t rises with E below and across the pole
            lo = max(lo, end)
        else:
            hi = min(hi, end)
        if lo < hi:
            points = sorted({t for t in (phase(side, e) for e in rungs) if lo < t < hi})
            energies = (max(low, 0.0), high) if sign > 0 else (low, min(high, 0.0))
            parts.append(_leg(_phase_leg(integrand, center, half, side, energies), points, lo, hi))
    return IntegralResult(sign * sum(p.value for p in parts), sum(p.error_estimate for p in parts),
                          all(p.converged for p in parts), sum((p._unconverged for p in parts), ()))


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
    describing each failed leg, for the command line's failure message; it
    is not part of the JSON report.
    """

    __slots__ = ("direct", "background", "residue", "discrepancy", "tolerance", "passed",
                 "quadrature_error", "converged", "_unconverged")

    def __init__(self, direct: complex, background: complex, residue: complex,
                 discrepancy: float, tolerance: float, passed: bool, quadrature_error: float,
                 converged: bool, _unconverged: tuple = ()):
        Value.__init__(self, direct, background, residue, discrepancy, tolerance, passed,
                       quadrature_error, converged, _unconverged)

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
        mismatch = abs(direct.value - (background.value + residue))
        scale = abs(direct.value)
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
            "function, is too large or too small for floats"
        )
    unconverged = tuple((name, piece._unconverged)
                        for name, piece in (("direct", direct), ("background", background))
                        if not piece.converged)
    converged = not unconverged
    return DecompositionReport(
        direct=direct.value,
        background=background.value,
        residue=residue,
        discrepancy=discrepancy,
        tolerance=tolerance,
        passed=bool(discrepancy <= tolerance and converged),
        quadrature_error=quadrature_error,
        converged=converged,
        _unconverged=unconverged,
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
    except ValueError as exc:  # a role other than "ket" or "bra"
        raise ValueError(f"{where}.role: {exc}") from None


def model_from_json(data):
    """Build (model, ket_fn, bra_fn) from the model-document schema.

    Expected fields: E_R, Gamma, r, laurent (list of [re, im] or numbers,
    length r), optional background {"num": [...], "den": [...]}, and
    test_functions holding exactly one "ket" and one "bra" entry.
    """
    if not isinstance(data, dict):
        raise ValueError(f"model: expected an object, got {data!r}")
    reject_unknown_keys(
        data, ("E_R", "Gamma", "r", "laurent", "background", "test_functions"), "model"
    )
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
    parsed = [
        parse_test_function(entry, f"model.test_functions[{i}]")
        for i, entry in enumerate(functions)
    ]
    by_role = {fn.role: fn for fn in parsed}
    if set(by_role) != {KET_ROLE, BRA_ROLE}:
        raise ValueError('model.test_functions: need one "ket" and one "bra" entry')
    model = SMatrixModel(pole, laurent, background)
    return model, by_role[KET_ROLE], by_role[BRA_ROLE]


def load_model_file(path):
    """Read and validate a model document from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return model_from_json(data)
