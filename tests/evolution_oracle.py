"""Reference evolution for the tests: the term-by-term ComplexRational product.

`evolve_operator` sums the phases (-i)^(k-l) * i^(m-mm) as a rotation by
i^p; this oracle multiplies them out for every term and adds one monomial
at a time, as the formula reads.
"""

from gamow.exact import ComplexRational, I, Polynomial, binomial
from gamow.operators import DyadicOperator, TimePolynomialOperator


def evolve_operator_by_products(operator: DyadicOperator) -> TimePolynomialOperator:
    """Entry (ket k, bra m) adds coeff * C(k,l) * C(m,mm) * (-i)^(k-l) * i^(m-mm) * t^p to (l, mm)."""
    table = {}
    for (k, m), coeff in operator.items():
        for l in range(k + 1):
            ket_factor = ComplexRational(binomial(k, l)) * (-I) ** (k - l)
            for mm in range(m + 1):
                factor = coeff * ket_factor * binomial(m, mm) * I ** (m - mm)
                power = (k - l) + (m - mm)
                poly = table.get((l, mm), Polynomial.zero())
                table[(l, mm)] = poly + Polynomial.monomial(power, factor)
    return TimePolynomialOperator(operator.pole, table)
