"""Reference residue check for the tests: independent and slow paths.

`smatrix._leg` integrates the complex integrand in one adaptive
Gauss-Kronrod pass; `two_run_leg` integrates its real and imaginary parts
as two separate `scipy.integrate.quad` runs (compiled QUADPACK) under the
same tolerances, subdivision limit and breakpoints, each run evaluating the
full complex integrand.  `smatrix.residue_core` expands the product ket*bra
at the pole as one series; `cauchy_product_residue_core` expands ket and
bra separately and multiplies the two series term by term.
`smatrix._roots_above` and `smatrix._modulus_exponent` work in integers;
`fraction_roots_above` and `fraction_modulus_exponent` are the same tests
in `Fraction` arithmetic, with exact rational division in the Sturm chain.
"""

import warnings

from scipy.integrate import IntegrationWarning, quad

from gamow import smatrix
from gamow.exact import ComplexRational, ZERO
from gamow.smatrix import IntegralResult


def two_run_leg(integrand, window, lo, hi):
    """Integral of the complex `integrand` over [lo, hi], each part its own scipy run."""
    points = [p for p in window if lo < p < hi]
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
