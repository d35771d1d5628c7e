"""Reference residue check for the tests: independent and slow paths.

`smatrix._leg` integrates the complex integrand in one adaptive
Gauss-Kronrod pass; `two_run_leg` integrates its real and imaginary parts
as two separate `scipy.integrate.quad` runs (compiled QUADPACK) under the
same tolerances, subdivision limit and breakpoints, each run evaluating the
full complex integrand.  `smatrix` integrates each contour piece in the
phase coordinates of the pole; `energy_layout_piece` is the layout it
replaced, in energy: a finite leg split at the pole window E_R +- 10*Gamma
and a tail mapped onto (0, 1] as QUADPACK's QAGIE maps it, integrated with
GK15 (`energy_quad`).  `smatrix.residue_core` expands the product ket*bra
at the pole as one series; `cauchy_product_residue_core` expands ket and
bra separately and multiplies the two series term by term.
`smatrix._roots_above` and `smatrix._modulus_exponent` work in integers;
`fraction_roots_above` and `fraction_modulus_exponent` are the same tests
in `Fraction` arithmetic, with exact rational division in the Sturm chain.
"""

import math
import warnings

from scipy.integrate import IntegrationWarning, quad

from gamow import smatrix
from gamow.exact import ComplexRational, ZERO
from gamow.smatrix import IntegralResult


# QUADPACK's GK15 rule, in `smatrix._GK21`'s layout: the Kronrod and Gauss
# weights of the centre node, then (x, Kronrod weight, Gauss weight) for
# each abscissa pair +-x.
GK15 = (0.20948214108472782, 0.4179591836734694, (
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.20778495500789848, 0.20443294007529889, 0.0),
))
POLE_WINDOW = 10.0


def energy_quad(func, lo, hi, points):
    """`smatrix.quad` over [lo, hi], with an infinite end mapped onto (0, 1] as QAGIE maps it.

    x = lo + (1 - t)/t toward +inf and x = hi - (1 - t)/t from -inf, with
    GK15 and no breakpoints.
    """
    if hi == math.inf:
        return smatrix.quad(lambda t: func(lo + (1.0 - t) / t) / (t * t), 0.0, 1.0, [], GK15)
    if lo == -math.inf:
        return smatrix.quad(lambda t: func(hi - (1.0 - t) / t) / (t * t), 0.0, 1.0, [], GK15)
    return smatrix.quad(func, lo, hi, points)


def energy_layout_piece(model, ket_fn, bra_fn, sign):
    """The contour piece over [0, inf) for `sign` +1, over (-inf, 0] for -1, in energy.

    A finite leg from 0 to past the pole window E_R +- 10*Gamma, broken at
    its points, then a tail; the background piece is returned traversed
    outward, as `smatrix.background_integral` returns it.
    """
    integrand = smatrix._amplitude_integrand(model, ket_fn, bra_fn)
    center, width = float(model.pole.resonance_energy), float(model.pole.width)
    window = (center - POLE_WINDOW * width, center, center + POLE_WINDOW * width)
    if sign > 0:
        split = max(1.0, window[-1])
        ends = [(0.0, split), (split, math.inf)]
    else:
        split = min(-1.0, window[0])
        ends = [(split, 0.0), (-math.inf, split)]
    legs = [energy_quad(integrand, lo, hi, sorted({p for p in window if lo < p < hi}))
            for lo, hi in ends]
    return IntegralResult(sign * sum(value for value, _, _ in legs),
                          sum(error for _, error, _ in legs), not any(ier for _, _, ier in legs))


def two_run_leg(integrand, breakpoints, lo, hi):
    """Integral of the complex `integrand` over [lo, hi], each part its own scipy run."""
    points = [p for p in breakpoints if lo < p < hi]
    kwargs = {"epsabs": smatrix._ABSOLUTE_TOLERANCE, "epsrel": smatrix._RELATIVE_TOLERANCE,
              "limit": smatrix._SUBDIVISION_LIMIT, "points": points or None}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        re_val, re_err = quad(lambda e: integrand(e).real, lo, hi, **kwargs)
        im_val, im_err = quad(lambda e: integrand(e).imag, lo, hi, **kwargs)
    converged = not any(issubclass(w.category, IntegrationWarning) for w in caught)
    return IntegralResult(complex(re_val, im_val), re_err + im_err, converged)


def cauchy_product_residue_core(model, ket_fn, bra_fn):
    """sum_n laurent[n] * sum_k a_{n-k} b_k, with a and b the Taylor series of ket and bra."""
    z = model.pole.position
    r = model.pole.order
    a = ket_fn.function.taylor_coefficients(z, r)
    b = bra_fn.function.taylor_coefficients(z, r)
    total = ZERO
    for n, coeff in enumerate(model.laurent):
        inner = ZERO
        for k in range(n + 1):
            inner = inner + a[n - k] * b[k]
        total = total + coeff * inner
    return total


def fraction_modulus_exponent(coefficients):
    """`smatrix._modulus_exponent` with each squared ratio a `Fraction`."""
    def norm(c):
        return c.real * c.real + c.imag * c.imag

    n = len(coefficients) - 1
    lead = norm(coefficients[-1])
    exponent = 0
    for k, c in enumerate(coefficients[:-1]):
        if c:
            ratio = norm(c) / lead
            bits = ratio.numerator.bit_length() - ratio.denominator.bit_length() + 1
            exponent = max(exponent, 1 - (-bits // (2 * (n - k))))
    return exponent


def fraction_roots_above(polynomial, height):
    """`smatrix._roots_above` with the Sturm chain of (P, Q) in `Fraction`s."""
    n = polynomial.degree
    if n < 1:
        return True
    shifted = polynomial.taylor_coefficients(ComplexRational(0, height), n + 1)
    scale = shifted[-1].conjugate()
    chain = [[], []]
    for c in shifted:
        c = c * scale
        chain[0].append(c.real)
        chain[1].append(c.imag)
    smatrix._trim(chain[1])
    while chain[-1]:
        remainder = list(chain[-2])
        divisor = chain[-1]
        while len(remainder) >= len(divisor):
            q = remainder[-1] / divisor[-1]
            shift = len(remainder) - len(divisor)
            for i, c in enumerate(divisor):
                remainder[shift + i] -= q * c
            remainder.pop()
            smatrix._trim(remainder)
        chain.append([-c for c in remainder])
    chain.pop()
    at_plus = [f[-1] > 0 for f in chain]
    at_minus = [(f[-1] > 0) == (len(f) % 2 == 1) for f in chain]
    changes = [sum(a != b for a, b in zip(signs, signs[1:])) for signs in (at_minus, at_plus)]
    return changes[0] - changes[1] == -n
