"""A high-precision oracle for the residue check: both contour pieces by `mpmath.quad`.

The amplitude f(E) S(E) g(E) is built from the model's exact coefficients at
`mp.dps` digits, and each piece is integrated along its half-line broken at
E_R +- k*Gamma, where the order-r peak lives.  The residue term is the exact
`residue_core` times -2*pi*i at the same precision, so the oracle's
discrepancy |direct - (background + residue)| / |direct| carries only its own
quadrature error: a small one certifies both pieces, and the product's float
`direct` can be judged against the oracle's.

Run as a script, it prints the reach table of the tests' `higher_order_model`
(Gamma = 1/2 at r = 8..24, Gamma = 1 at r = 16..40): the product's verdict
beside the oracle's, one line per model, and exits 1 on any false pass.
"""

import sys
from fractions import Fraction

from mpmath import mp

from gamow.smatrix import decomposition_check, residue_core

# the breakpoints E_R +- k*Gamma; the order-r peak has width Gamma/2
_STEPS = (Fraction(1, 4), Fraction(1, 2), 1, 2, 4, 8, 16)


def _mp(value):
    """A ComplexRational at the working precision."""
    re, im, den = value.triple
    return mp.mpc(mp.mpf(re) / den, mp.mpf(im) / den)


def _rational(function):
    """A RationalFunction's quotient of Horner evaluations at the working precision."""
    num = [_mp(c) for c in reversed(function.numerator.coefficients)]
    den = [_mp(c) for c in reversed(function.denominator.coefficients)]
    return lambda z: mp.polyval(num, z) / mp.polyval(den, z)


def amplitude(model, ket_fn, bra_fn):
    """E -> f(E) S(E) g(E), with the principal part summed by Horner in 1/(E - pole)."""
    ket, bra = _rational(ket_fn.function), _rational(bra_fn.function)
    background = _rational(model.background) if model.background is not None else None
    laurent = [_mp(c) for c in reversed(model.laurent)]
    position = _mp(model.pole.position)

    def integrand(energy):
        inverse = 1 / (energy - position)
        value = mp.polyval(laurent, inverse) * inverse
        if background is not None:
            value += background(energy)
        return ket(energy) * value * bra(energy)

    return integrand


class OracleReport:
    """The oracle's pieces, residue term, discrepancy and summed quadrature error."""

    def __init__(self, direct, background, residue, error):
        self.direct, self.background, self.residue, self.error = direct, background, residue, error
        self.discrepancy = abs(direct - (background + residue)) / abs(direct)


def oracle_check(model, ket_fn, bra_fn, dps=30) -> OracleReport:
    """direct = int_0^inf, background = -int_-inf^0, both at `dps` digits."""
    with mp.workdps(dps):
        integrand = amplitude(model, ket_fn, bra_fn)
        center, width = model.pole.resonance_energy, model.pole.width
        points = sorted({center + sign * k * width for k in _STEPS for sign in (-1, 1)})
        pieces = []
        for sign in (1, -1):
            inner = [mp.mpf(p.numerator) / p.denominator for p in points if sign * p > 0]
            ends = [0, *inner, mp.inf] if sign > 0 else [-mp.inf, *inner, 0]
            value, error = mp.quad(integrand, ends, error=True)
            pieces.append((sign * value, error))
        residue = mp.mpc(0, -2) * mp.pi * _mp(residue_core(model, ket_fn, bra_fn))
        (direct, direct_error), (background, background_error) = pieces
        return OracleReport(direct, background, residue, direct_error + background_error)


def reach_table(rows):
    """Print the product's verdict beside the oracle's for each (Gamma, r); count false passes."""
    # imported here, because test_smatrix imports this module
    from test_smatrix import HIGHER_ORDER_BRA, HIGHER_ORDER_KET, higher_order_model

    false_passes = 0
    print("Gamma   r  product  converged  product_discrepancy  oracle_discrepancy  "
          "direct_error  verdict")
    for width, order in rows:
        model = higher_order_model(order, width)
        report = decomposition_check(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA)
        oracle = oracle_check(model, HIGHER_ORDER_KET, HIGHER_ORDER_BRA)
        direct_error = float(abs(report.direct - oracle.direct) / abs(oracle.direct))
        resolved = oracle.discrepancy <= report.tolerance
        if report.passed and (direct_error > report.tolerance or not resolved):
            verdict, false_passes = "FALSE PASS", false_passes + 1
        elif report.passed:
            verdict = "pass"
        else:
            verdict = "false failure" if resolved else "fail"
        print(f"{str(width):5} {order:3}  {'pass' if report.passed else 'fail':7}  "
              f"{str(report.converged):9}  "
              f"{report.discrepancy:19.3e}  {float(oracle.discrepancy):18.3e}  "
              f"{direct_error:12.3e}  {verdict}", flush=True)
    return false_passes


if __name__ == "__main__":
    table = [(Fraction(1, 2), order) for order in range(8, 25)]
    table += [(1, order) for order in range(16, 41)]
    sys.exit(1 if reach_table(table) else 0)
