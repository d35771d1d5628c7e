"""Dyadic operators on the pole subspace and their exact time evolution.

An operator here is a linear combination of dyads |ket k><bra m| built from
the chain vectors of one pole.  Evolving both sides by the Jordan-block
semigroup turns each entry into a polynomial in t multiplying one overall
decay factor exp(-width*t): the oscillating phases of ket and bra cancel
identically, leaving a sign and a phase rotation by i^p on the coefficient
of t^p.  The module computes those polynomials exactly, by summing exact
(re, im) pairs and rotating each sum once, decides whether an operator
decays purely exponentially (all positive powers of t cancel), and
characterizes the full family of coefficient tables for which that happens,
both by certifying the homogeneous constraint system from its structure, one
block per total order, and by the closed-form binomial recursion.

The certificate needs no elimination and is made once, when a system is
built.  Equation (k, 0, n) has coefficient 1 at ket order k and no term
below k, so in block n every ket order k < n is a pivot, and the block's
solutions are the line through C(n, k) when C(n, k) satisfies all of its
equations.  A restriction to a pole's dyad range only drops unknowns, so it
is read off that certificate: a block keeps its line where its unknown
k = n survives and is zero where that unknown is cut.

Every coefficient table is keyed by dyad (ket_order, bra_order), both below
the table's bound.  The constraint unknowns are indexed (total order n, ket
order k), as the paper writes them; A[(n, k)] is the entry at dyad (k, n - k),
so the solutions of total order bound j are tables of bound j + 1.

Everything is an immutable value; all functions are pure and thread-safe.
"""

import cmath
import functools
import math
from fractions import Fraction

from .exact import (
    ComplexRational,
    Polynomial,
    Value,
    ZERO,
    binomial,
    matrix_rank,
)
from .jordan import ComplexPole

_ZERO_POLYNOMIAL = Polynomial.zero()


class CoefficientMatrix(Value):
    """Sparse exact coefficient table keyed (ket_order, bra_order), both below `bound`."""

    __slots__ = ("bound", "entries")

    def __init__(self, bound: int, entries: dict):
        if bound < 0:
            raise ValueError("order bound must be nonnegative")
        table = {}
        for key, value in dict(entries).items():
            ket, bra = key
            if not (0 <= ket < bound and 0 <= bra < bound):
                raise ValueError(f"dyad entry {key} out of range for order bound {bound}")
            value = ComplexRational.from_value(value)
            if value:
                table[(ket, bra)] = value
        Value.__init__(self, bound, table)

    def entry(self, key) -> ComplexRational:
        return self.entries.get(tuple(key), ZERO)

    def items(self):
        return sorted(self.entries.items())

    def to_json_entries(self):
        """The nonzero entries as {"ket", "bra", "coeff": [re, im]} objects, in key order."""
        return [
            {"ket": ket, "bra": bra, "coeff": [c.real, c.imag]}
            for (ket, bra), v in self.items() for c in (complex(v),)
        ]


class DyadicOperator(Value):
    """Linear combination of chain dyads |ket k><bra m| over one pole."""

    __slots__ = ("pole", "coefficients")

    def __init__(self, pole: ComplexPole, coefficients: CoefficientMatrix):
        if coefficients.bound != pole.order:
            raise ValueError(
                f"coefficient order bound {coefficients.bound} does not match "
                f"pole order {pole.order}"
            )
        Value.__init__(self, pole, coefficients)

    def coefficient(self, ket_order: int, bra_order: int) -> ComplexRational:
        return self.coefficients.entry((ket_order, bra_order))

    def items(self):
        return self.coefficients.items()

    @property
    def is_zero(self) -> bool:
        return not self.coefficients.entries

    def __add__(self, other):
        if not isinstance(other, DyadicOperator):
            return NotImplemented
        if self.pole != other.pole:
            raise ValueError("cannot add operators over different poles")
        merged = dict(self.coefficients.entries)
        for key, value in other.coefficients.entries.items():
            merged[key] = merged.get(key, ZERO) + value
        return DyadicOperator(self.pole, CoefficientMatrix(self.pole.order, merged))

    def __mul__(self, scalar):
        scalar = ComplexRational.from_value(scalar)
        scaled = {k: v * scalar for k, v in self.coefficients.entries.items()}
        return DyadicOperator(self.pole, CoefficientMatrix(self.pole.order, scaled))

    __rmul__ = __mul__


def operator_from_coefficients(pole: ComplexPole,
                               coefficients: CoefficientMatrix) -> DyadicOperator:
    """Operator with exactly the given coefficient table."""
    return DyadicOperator(pole, coefficients)


def exponential_state_operator(pole: ComplexPole, n: int,
                               include_prefactor: bool = True) -> DyadicOperator:
    """The order-n binomial dyad combination, which decays purely exponentially.

    Coefficients are C(n,k) on the dyads |k><n-k|, k = 0..n, times the
    conventional prefactor width^n / n! unless `include_prefactor` is False
    (the overall constant is arbitrary).
    """
    r = pole.order
    if not 0 <= n <= r - 1:
        raise ValueError(f"operator order n={n} requires chain orders up to n; pole order is {r}")
    operator = DyadicOperator(pole, binomial_pattern_matrix(r, n))
    if not include_prefactor:
        return operator
    return operator * ComplexRational(pole.width**n / math.factorial(n))


class TimePolynomialOperator(Value):
    """Evolved dyadic operator: per-entry polynomials in t times exp(-width*t).

    The oscillatory phases cancel between ket and bra, so the numeric value
    of entry (ket l, bra m) at time t is exactly exp(-width*t) * P_{l,m}(t)
    with P exact.  At t = 0 the table reproduces the originating operator.
    """

    __slots__ = ("pole", "table")

    def __init__(self, pole: ComplexPole, table: dict):
        cleaned = {}
        for key, poly in dict(table).items():
            if not isinstance(poly, Polynomial):
                poly = Polynomial.constant(poly)
            if not poly.is_zero:
                cleaned[tuple(key)] = poly
        Value.__init__(self, pole, cleaned)

    def entry_polynomial(self, ket_order: int, bra_order: int) -> Polynomial:
        return self.table.get((ket_order, bra_order), _ZERO_POLYNOMIAL)

    def items(self):
        return sorted(self.table.items())

    def decay_factor(self, t) -> float:
        return math.exp(-float(self.pole.width) * float(t))

    def value(self, ket_order: int, bra_order: int, t) -> complex:
        """Numeric entry value exp(-width*t) * P(t).

        Where the decay factor underflows to 0 the value is 0, also where
        P(t) overflows.  Where only P(t) overflows, the terms are summed as
        c_p * exp(p*ln(t) - width*t); ArithmeticError if that overflows too.
        """
        if float(t) < 0:
            raise ValueError("operator evolution is defined for t >= 0 only")
        decay = self.decay_factor(t)
        if not decay:
            return 0j
        poly = self.entry_polynomial(ket_order, bra_order)
        value = decay * complex(poly(float(t)))
        if not cmath.isfinite(value):
            log_t, rate = math.log(float(t)), float(self.pole.width) * float(t)
            try:
                value = sum(complex(c) * math.exp(p * log_t - rate)
                            for p, c in enumerate(poly.coefficients))
            except OverflowError:
                value = math.inf
            if not cmath.isfinite(value):
                raise ArithmeticError(f"entry ({ket_order},{bra_order}) at t={float(t)!r} "
                                      "exceeds the float range")
        return value

    def at_time_zero(self) -> DyadicOperator:
        entries = {key: poly.coefficient(0) for key, poly in self.table.items()}
        return DyadicOperator(self.pole, CoefficientMatrix(self.pole.order, entries))


def evolve_operator(operator: DyadicOperator) -> TimePolynomialOperator:
    """Exact time evolution of a dyadic operator, by phase rotation.

    Evolving ket and bra sides (the bra as the conjugate transpose of the ket
    evolution) and collecting dyads gives, for source entry (ket k, bra m),
    a contribution to target dyad (l, mm) of

        coeff * C(k,l) * C(m,mm) * (-i)^(k-l) * (+i)^(m-mm) * t^p

    with p = (k-l)+(m-mm) and the overall exp(-width*t) held implicitly.  The
    phase is (-1)^(k-l) * i^p, so the contributions are summed as exact
    integer-weighted (re, im) pairs per (l, mm, p), over the coefficients'
    common denominator, and each sum is turned by i^p, a swap of parts with
    a sign, once at the end.
    """
    common = math.lcm(*(coeff.triple[2] for _, coeff in operator.items()))
    sums = {}
    for (k, m), coeff in operator.items():
        re, im, den = coeff.triple
        re, im = re * (common // den), im * (common // den)
        for l in range(k + 1):
            ket = binomial(k, l) * (-1) ** (k - l)
            for mm in range(m + 1):
                weight = ket * binomial(m, mm)
                key = (l, mm, k - l + m - mm)
                acc_re, acc_im = sums.get(key, (0, 0))
                sums[key] = (acc_re + re * weight, acc_im + im * weight)
    table = {}
    for (l, mm, power), (re, im) in sums.items():
        for _ in range(power % 4):
            re, im = -im, re
        table.setdefault((l, mm), {})[power] = ComplexRational(re, im) / common
    return TimePolynomialOperator(operator.pole, {
        key: Polynomial([terms.get(p, 0) for p in range(max(terms) + 1)])
        for key, terms in table.items()
    })


def is_pure_exponential(evolved: TimePolynomialOperator) -> bool:
    """True iff no entry polynomial carries a positive power of t (exact check)."""
    return all(poly.degree <= 0 for _, poly in evolved.items())


# -- the exponential-decay characterization --------------------------------


class ConstraintEquation(Value):
    """One homogeneous cancellation condition, tagged by its (l, m, n) indices.

    The equation says the coefficient of t^(n-l-m) on dyad (l, m) vanishes:
    sum over k of A[(n,k)] * C(k,l) * C(n-k,m) * (-1)^(k-l) = 0, with k
    running from l to n-m.  Terms are ((n, k), integer coefficient) pairs.
    """

    __slots__ = ("l", "m", "n", "terms")

    def __init__(self, l: int, m: int, n: int, terms: tuple):
        Value.__init__(self, l, m, n, tuple((tuple(v), int(c)) for v, c in terms))

    def evaluate(self, coefficients: CoefficientMatrix) -> ComplexRational:
        """The left-hand side at a dyad table, reading A[(n, k)] at dyad (k, n - k)."""
        total = ZERO
        for (n, k), coeff in self.terms:
            total = total + coefficients.entry((k, n - k)) * coeff
        return total

    def to_json_dict(self):
        return {
            "l": self.l,
            "m": self.m,
            "n": self.n,
            "terms": [
                {"n": v[0], "k": v[1], "coeff": [float(c), 0.0]} for v, c in self.terms
            ],
        }


class ConstraintSystem(Value):
    """The full homogeneous system over the total-order coefficient triangle.

    Every equation (l, m, n) involves only the unknowns (n, k) of its own
    total order n, so the system splits into one integer block per n, with
    n + 1 unknowns.  No block is solved: each is certified from its
    structure when the system is built (every ket order k < n leads some
    equation, and C(n, k) satisfies them all), and a system that cannot be
    certified, such as one with an equation dropped or altered, raises
    ArithmeticError there.  The solution dimension, the nullspace basis and
    the restricted view are all read off that certificate by
    `_solution_lines`, with no further pass over the equations.
    """

    __slots__ = ("j", "equations")

    def __init__(self, j: int, equations: tuple):
        equations = tuple(equations)
        by_order = {}
        for eq in equations:
            by_order.setdefault(eq.n, []).append(eq)
        for n in range(j + 1):
            line = [binomial(n, k) for k in range(n + 1)]
            leads = set()
            for eq in by_order.get(n, ()):
                row = {}
                for (_, k), coeff in eq.terms:
                    row[k] = row.get(k, 0) + coeff
                row = {k: c for k, c in row.items() if c}
                if row:
                    leads.add(min(row))
                if sum(line[k] * c for k, c in row.items()):
                    raise ArithmeticError(
                        f"C({n}, k) violates constraint (l={eq.l}, m={eq.m}, n={n})"
                    )
            unled = set(range(n)) - leads
            if unled:
                raise ArithmeticError(f"block n={n}: no equation leads ket orders {sorted(unled)}")
        Value.__init__(self, j, equations)

    @property
    def variables(self):
        """All (total_order, ket_order) unknowns in ascending order."""
        return [(n, k) for n in range(self.j + 1) for k in range(n + 1)]

    @property
    def equation_count(self) -> int:
        return len(self.equations)

    @property
    def variable_count(self) -> int:
        return (self.j + 1) * (self.j + 2) // 2

    def _solution_lines(self, order=None) -> dict:
        """{n: [C(n, 0), ..., C(n, n)]} for each block whose solutions are that line.

        Read off the certificate: every block of the built system is that
        line.  With `order`, only the unknowns (n, k) whose ket k and bra
        n - k are both below `order` survive, the others held at zero: the
        restriction to the dyad range of a pole of that order.  It only
        drops unknowns, so each surviving pivot's equation keeps its term at
        the pivot and has nothing below it, and every surviving ket order
        below n is still a pivot.  Block n keeps its line when n < order,
        where the restriction drops none of its unknowns; otherwise k = n is
        cut, the block's only solution is zero, and it has no entry.
        """
        if order is not None and order < 1:
            raise ValueError(f"restriction order must be >= 1, got {order}")
        last = self.j if order is None else min(self.j, order - 1)
        return {n: [binomial(n, k) for k in range(n + 1)] for n in range(last + 1)}

    def coefficient_rows(self):
        """The flat integer coefficient matrix over `variables`, one row per equation."""
        index = {v: i for i, v in enumerate(self.variables)}
        rows = []
        for eq in self.equations:
            row = [0] * len(index)
            for variable, coeff in eq.terms:
                row[index[variable]] += coeff
            rows.append(row)
        return rows

    def nullspace_basis(self):
        """Exact solution basis, one dyad table of bound j + 1 per free parameter.

        Canonical: unit entry at each free unknown, zero at the others, in
        ascending order of the free unknown over `variables`.
        """
        return [binomial_pattern_matrix(self.j + 1, n) for n in self._solution_lines()]

    @property
    def solution_dimension(self) -> int:
        return len(self._solution_lines())

    def to_json_dict(self):
        """JSON values; the test oracle of `cli._equations_json`: change both together."""
        return {
            "j": self.j,
            "equations": [eq.to_json_dict() for eq in self.equations],
            "solution_dimension": self.solution_dimension,
        }


@functools.cache
def exponentiality_constraints(j: int) -> ConstraintSystem:
    """All cancellation conditions for total order bound j.

    Loop order is l outer, then m, then n (with n from m+l+1 up to j), which
    fixes the reported equation ordering.  j=0 yields the empty system.  Built,
    and so certified, once per j: the system is immutable.
    """
    if j < 0:
        raise ValueError("order bound j must be nonnegative")
    equations = []
    for l in range(j):
        for m in range(j - l):
            for n in range(m + l + 1, j + 1):
                terms = []
                for k in range(l, n - m + 1):
                    coeff = binomial(k, l) * binomial(n - k, m) * (-1) ** (k - l)
                    terms.append(((n, k), coeff))
                equations.append(ConstraintEquation(l, m, n, terms))
    return ConstraintSystem(j, equations)


class BinomialRecursionFamily(Value):
    """Closed-form solution family A[(n,k)] = C(n,k) * A[(n,0)].

    Built by chaining the two-term recursion
    A[(n,k)] = ((n-k+1)/k) * A[(n,k-1)]; the multipliers collapse to the
    binomial coefficients.  That every member solves the constraint system
    is the certificate's part (`binomial_family_matches_nullspace`).
    Families compare by identity, and the repr leaves out the multipliers.
    """

    __slots__ = ("j", "multipliers")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self):
        return f"BinomialRecursionFamily(j={self.j!r})"

    def multiplier(self, n: int, k: int) -> Fraction:
        return self.multipliers[(n, k)]

    def basis(self):
        """One dyad table of bound j + 1 per free parameter: unit A[(n0,0)], the rest forced."""
        units = range(self.j + 1)
        return [self.member([int(n == n0) for n in units]) for n0 in units]

    def member(self, free_values) -> CoefficientMatrix:
        """Dyad table of bound j + 1 with the given free parameters A[(n,0)]."""
        free = [ComplexRational.from_value(v) for v in free_values]
        if len(free) != self.j + 1:
            raise ValueError(f"expected {self.j + 1} free parameters, got {len(free)}")
        entries = {(k, n - k): free[n] * mult for (n, k), mult in self.multipliers.items()}
        return CoefficientMatrix(self.j + 1, entries)


def solve_binomial_recursion(j: int) -> BinomialRecursionFamily:
    """Solve the cancellation conditions by the two-term recursion.

    Equation (k-1, n-k, n) has just two terms, (n-k+1) * A[(n,k-1)] and
    -k * A[(n,k)], so it chains A[(n,k)] = ((n-k+1)/k) * A[(n,k-1)] down to
    the free A[(n,0)]; the product must telescope to C(n,k).
    """
    if j < 0:
        raise ValueError("order bound j must be nonnegative")
    multipliers = {}
    for n in range(j + 1):
        multipliers[(n, 0)] = Fraction(1)
        for k in range(1, n + 1):
            multipliers[(n, k)] = Fraction(n - k + 1, k) * multipliers[(n, k - 1)]
            if multipliers[(n, k)] != binomial(n, k):
                raise ArithmeticError(
                    f"recursion gave {multipliers[(n, k)]} at (n={n}, k={k}), expected C(n,k)"
                )
    return BinomialRecursionFamily(j, multipliers)


def binomial_family_matches_nullspace(system: ConstraintSystem,
                                      family: BinomialRecursionFamily) -> bool:
    """True iff the closed-form family spans exactly the system's nullspace.

    Block by block: the certified solution line of each total order n must
    be the multiples of family member n, all in exact arithmetic.
    """
    if family.j != system.j:
        return False
    for n, line in system._solution_lines().items():
        member = [family.multiplier(n, k) for k in range(n + 1)]
        if not (member[n] and all(m == member[n] * c for m, c in zip(member, line))):
            return False
    return True


def exponential_subspace_basis(pole: ComplexPole):
    """The pole-order many independent operators spanning the pure-exponential set.

    Member n has coefficients C(n,k) on dyads |k><n-k| (no prefactor).  Each
    is verified pure-exponential under evolution, and the family linearly
    independent on the lead dyads |0><n|, before returning: a column subset
    of full rank r gives the whole table rank r.
    """
    r = pole.order
    members = [
        exponential_state_operator(pole, n, include_prefactor=False) for n in range(r)
    ]
    for member in members:
        if not is_pure_exponential(evolve_operator(member)):
            raise ArithmeticError(
                "basis member failed the pure-exponential check; evolution is inconsistent"
            )
    rows = [[member.coefficient(0, n) for n in range(r)] for member in members]
    if matrix_rank(rows) != r:
        raise ArithmeticError("exponential basis members are linearly dependent")
    return members


class RestrictionReport(Value):
    """Result of checking the constraint system restricted to a pole's dyad range.

    The system for j = 2*(order-1) is rewritten over the r*r dyad unknowns
    (entries outside the dyad range are structurally zero); the report
    records the exact solution dimension and whether the nullspace equals,
    as a subspace, the span of the binomial-pattern operators.
    """

    __slots__ = ("order", "j", "equation_count", "variable_count", "solution_dimension",
                 "expected_dimension", "pattern_matches", "basis")

    def __init__(self, order: int, j: int, equation_count: int, variable_count: int,
                 solution_dimension: int, expected_dimension: int, pattern_matches: bool,
                 basis: tuple):
        Value.__init__(self, order, j, equation_count, variable_count, solution_dimension,
                       expected_dimension, pattern_matches, tuple(basis))

    @property
    def passed(self) -> bool:
        return (
            self.solution_dimension == self.expected_dimension and self.pattern_matches
        )

    def to_json_dict(self):
        return {
            "r": self.order,
            "j": self.j,
            "equation_count": self.equation_count,
            "variable_count": self.variable_count,
            "solution_dimension": self.solution_dimension,
            "expected_dimension": self.expected_dimension,
            "pattern_matches": self.pattern_matches,
            "passed": self.passed,
            "basis": [{"entries": member.to_json_entries()} for member in self.basis],
        }


def binomial_pattern_matrix(order: int, n: int) -> CoefficientMatrix:
    """Dyad coefficients C(n,k) on the anti-diagonal ket+bra = n."""
    if not 0 <= n <= order - 1:
        raise ValueError(f"pattern order n={n} out of range for order {order}")
    return CoefficientMatrix(
        order, {(k, n - k): ComplexRational(binomial(n, k)) for k in range(n + 1)}
    )


def verify_restriction_equivalence(pole: ComplexPole) -> RestrictionReport:
    """The constraint system restricted to the dyad range of the pole.

    Its certificate, read block by block, gives the solutions over the r*r
    dyad coefficients: the multiples of C(n,k) for n < r and zero for n >= r.
    Every certified line is C(n, .), so the basis is the binomial-pattern
    operators of the certified blocks, and the pattern matches when those
    blocks are exactly n = 0..r-1.
    """
    r = pole.order
    j = 2 * (r - 1)
    system = exponentiality_constraints(j)
    blocks = list(system._solution_lines(order=r))
    return RestrictionReport(
        order=r,
        j=j,
        equation_count=len(system.equations),
        variable_count=r * r,
        solution_dimension=len(blocks),
        expected_dimension=r,
        pattern_matches=blocks == list(range(r)),
        basis=[binomial_pattern_matrix(r, n) for n in blocks],
    )
