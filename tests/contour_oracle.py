"""Reference residue check for the tests: independent and slow paths.

`smatrix._leg` integrates the complex integrand in one adaptive
Gauss-Kronrod pass; `two_run_leg` integrates its real and imaginary parts
as two separate `scipy.integrate.quad` runs (compiled QUADPACK) under the
same tolerances, subdivision limit and breakpoints, each run evaluating the
full complex integrand.  `smatrix.residue_core` expands the product ket*bra
at the pole as one series; `cauchy_product_residue_core` expands ket and
bra separately and multiplies the two series term by term.
"""

import warnings

from scipy.integrate import IntegrationWarning, quad

from gamow import smatrix
from gamow.exact import ZERO
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
