"""Reference evolution for the tests: the term-by-term ComplexRational product.

`evolve_operator` sums the phases (-i)^(k-l) * i^(m-mm) as a rotation by
i^p; this oracle multiplies them out for every term and adds one monomial
at a time, as the formula reads.
"""

from gamow.exact import ONE, ComplexRational, I, Polynomial, binomial
from gamow.operators import DyadicOperator, TimePolynomialOperator

# i^p, indexed by p mod 4; (-i)^n is i^-n
I_POWERS = (ONE, I, -ONE, -I)


def evolve_operator_by_products(operator: DyadicOperator) -> TimePolynomialOperator:
    """Entry (ket k, bra m) adds coeff * C(k,l) * C(m,mm) * (-i)^(k-l) * i^(m-mm) * t^p to (l, mm)."""
    table = {}
    for (k, m), coeff in operator.items():
        for l in range(k + 1):
            ket_factor = ComplexRational(binomial(k, l)) * I_POWERS[(l - k) % 4]
            for mm in range(m + 1):
                factor = coeff * ket_factor * binomial(m, mm) * I_POWERS[(m - mm) % 4]
                power = (k - l) + (m - mm)
                poly = table.get((l, mm), Polynomial.zero())
                table[(l, mm)] = poly + Polynomial((0,) * power + (factor,))
    return TimePolynomialOperator(operator.pole, table)
