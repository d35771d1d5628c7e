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

The certificate needs no elimination and is made once, as a system is
built: `exponentiality_constraints` generates and certifies each equation
in one pass and keeps its integer row.  Equation (k, 0, n) has
coefficient 1 at ket order k and no term below k, so in block n every ket
order k < n is a pivot, and the block's solutions are the line through
C(n, k) when C(n, k) satisfies all of its equations.  A restriction to a
pole's dyad range only drops unknowns, so it is read off that certificate:
a block keeps its line where its unknown k = n survives and is zero where
that unknown is cut.

Every coefficient table is keyed by dyad (ket_order, bra_order), both below
the table's bound.  The constraint unknowns are indexed (total order n, ket
order k), as the paper writes them; A[(n, k)] is the entry at dyad (k, n - k),
so the solutions of total order bound j are tables of bound j + 1.

Everything is an immutable value; all functions are pure and thread-safe.
"""

import cmath
import math

from .exact import (
    ComplexRational,
    Polynomial,
    Value,
    ZERO,
    binomial,
    json_number,
    matrix_rank,
)
from .jordan import ComplexPole

_ZERO_POLYNOMIAL = Polynomial.zero()


class DyadicOperator(Value):
    """Linear combination of chain dyads |ket k><bra m| over one pole.

    `entries` holds the nonzero exact coefficients keyed (ket_order,
    bra_order), both below the pole's order, or a ValueError names the dyad.
    """

    __slots__ = ("pole", "entries")

    def __init__(self, pole: ComplexPole, entries: dict):
        bound = pole.order
        table = {}
        for key, value in dict(entries).items():
            ket, bra = key
            if not (0 <= ket < bound and 0 <= bra < bound):
                raise ValueError(f"dyad entry {key} out of range for order bound {bound}")
            value = ComplexRational.from_value(value)
            if value:
                table[(ket, bra)] = value
        Value.__init__(self, pole, table)

    def coefficient(self, ket_order: int, bra_order: int) -> ComplexRational:
        return self.entries.get((ket_order, bra_order), ZERO)

    def items(self):
        return sorted(self.entries.items())

    def to_json_entries(self):
        """The nonzero entries as {"ket", "bra", "coeff": [re, im]} objects, in key order."""
        return [
            {"ket": ket, "bra": bra, "coeff": [json_number(re, den), json_number(im, den)]}
            for (ket, bra), v in self.items() for re, im, den in (v.triple,)
        ]


def operator_from_coefficients(pole: ComplexPole, entries: dict) -> DyadicOperator:
    """Operator with exactly the given coefficient table, keyed (ket_order, bra_order)."""
    return DyadicOperator(pole, entries)


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
    scale = pole.width**n / math.factorial(n) if include_prefactor else 1
    return DyadicOperator(pole, {k: c * scale for k, c in binomial_pattern_matrix(r, n).items()})


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

    def value(self, ket_order: int, bra_order: int, t) -> complex:
        """Numeric entry value exp(-width*t) * P(t).

        Where the decay factor underflows to 0 the value is 0, also where P(t) overflows.
        Where only P(t) overflows, the terms are summed as c_p * exp(p*ln(t) - width*t), with
        ln|c_p| in the exponent where exp alone overflows; ArithmeticError if that overflows too.
        """
        if not float(t) >= 0:  # a NaN too
            raise ValueError("operator evolution is defined for t >= 0 only")
        decay = math.exp(-float(self.pole.width) * float(t))
        if not decay:
            return 0j
        poly = self.entry_polynomial(ket_order, bra_order)
        value = decay * complex(poly(float(t)))
        if not cmath.isfinite(value):
            log_t, rate, value = math.log(float(t)), float(self.pole.width) * float(t), 0
            try:
                for p, c in enumerate(map(complex, poly.coefficients)):
                    try:
                        value += c * math.exp(p * log_t - rate)  # left to right, not by sum()
                    except OverflowError:  # where exp alone overflows, ln|c| joins its argument
                        value += c and c / abs(c) * math.exp(p * log_t - rate + math.log(abs(c)))
            except OverflowError:
                value = math.inf
            if not cmath.isfinite(value):
                raise ArithmeticError(f"entry ({ket_order},{bra_order}) at t={float(t)!r} "
                                      "exceeds the float range")
        return value

    def at_time_zero(self) -> DyadicOperator:
        return DyadicOperator(self.pole, {key: p.coefficient(0) for key, p in self.table.items()})


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


class ConstraintSystem(Value):
    """The full homogeneous system over the total-order coefficient triangle.

    Every equation (l, m, n) involves only the unknowns (n, k) of its own
    total order n, so the system splits into one integer block per n, with
    n + 1 unknowns.  No block is solved: each is certified from its
    structure as the system is built (`_certified`: every ket order k < n
    leads some equation, and C(n, k) satisfies them all), and a system that
    cannot be certified, such as one with an equation dropped or altered,
    raises ArithmeticError there.  The solution dimension and the
    restricted view are read off that certificate by `_solution_lines`.
    `ConstraintSystem(j, rows)` takes the rows as (l, m, n, integer
    coefficients at k = l..n-m), refuses a malformed one with a ValueError,
    and keeps them as it certified them.
    """

    __slots__ = ("j", "rows")

    def __init__(self, j: int, rows):
        if j < 0:
            raise ValueError("order bound j must be nonnegative")
        Value.__init__(self, j, tuple(_certified(j, rows)))

    @property
    def equation_count(self) -> int:
        return len(self.rows)

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

    @property
    def solution_dimension(self) -> int:
        return len(self._solution_lines())

    def to_json_dict(self):
        """JSON values, made from the rows: the test oracle of the text exp-check writes."""
        equations = [{"l": l, "m": m, "n": n, "terms": [
            {"n": n, "k": k, "coeff": [json_number(c), 0.0]} for k, c in enumerate(row, l)
        ]} for l, m, n, row in self.rows]
        return {"j": self.j, "equations": equations, "solution_dimension": self.solution_dimension}


def _equation_rows(j: int):
    """Each equation of bound j as a row (l, m, n, coefficients at k = l..n-m).

    Loop order is l outer, then m, then n (with n from m+l+1 up to j), which
    fixes the reported equation ordering.  The coefficient at k is
    C(k, l) * (-1)^(k-l) times C(n-k, m), each factor read off a table.
    """
    columns = [[binomial(d, i) for d in range(j + 1)] for i in range(j + 1)]  # [i][d]: C(d, i)
    for l in range(j):
        ket = [c if (k - l) % 2 == 0 else -c for k, c in enumerate(columns[l])]
        for m in range(j - l):
            bra = columns[m]
            for n in range(m + l + 1, j + 1):
                yield l, m, n, tuple([ket[k] * bra[n - k] for k in range(l, n - m + 1)])


def _certified(j: int, rows):
    """Pass on each row (l, m, n, coefficients at k = l..n-m) once C(n, k) satisfies it.

    ValueError names a row that is not one of bound j, whose length is not
    n - m - l + 1, or with a coefficient that is not an int.  A row's lowest
    ket order with a nonzero coefficient is the one it leads.  After the
    last row, each ket order k < n of every block n must have led one, or
    ArithmeticError names the block.
    """
    lines = [[binomial(n, k) for k in range(n + 1)] for n in range(j + 1)]
    leads = [set() for _ in lines]
    for l, m, n, row in rows:
        row = tuple(row)
        if not 0 <= l <= n - m <= n <= j:
            raise ValueError(f"equation (l={l}, m={m}, n={n}) is not one of bound {j}")
        if len(row) != n - m - l + 1:
            raise ValueError(f"equation (l={l}, m={m}, n={n}): {len(row)} coefficients, "
                             f"expected one at each k = {l}..{n - m}")
        line = lines[n][l:]
        try:
            residual = sum(map(int.__mul__, line, row))
        except TypeError:  # int.__mul__ gives NotImplemented for a coefficient that is no int
            bad = next(c for c in row if not isinstance(c, int))
            raise ValueError(f"equation (l={l}, m={m}, n={n}): coefficient {bad!r} "
                             "is not an int") from None
        if residual:
            raise ArithmeticError(f"C({n}, k) violates constraint (l={l}, m={m}, n={n})")
        leads[n].add(next((k for k, coeff in enumerate(row, l) if coeff), n))
        yield l, m, n, row
    for n, led in enumerate(leads):
        unled = set(range(n)) - led
        if unled:
            raise ArithmeticError(f"block n={n}: no equation leads ket orders {sorted(unled)}")


def exponentiality_constraints(j: int) -> ConstraintSystem:
    """All cancellation conditions for total order bound j, in one pass.

    Each equation is generated (`_equation_rows`) and certified by the
    constructor as it is read, and the system keeps the certified rows.
    j=0 yields the empty system.
    """
    return ConstraintSystem(j, _equation_rows(j))


def solve_binomial_recursion(j: int) -> tuple:
    """The closed-form family A[(n,k)] = C(n,k) * A[(n,0)], by the two-term recursion.

    Equation (k-1, n-k, n) has just two terms, (n-k+1) * A[(n,k-1)] and
    -k * A[(n,k)], so it chains A[(n,k)] = ((n-k+1)/k) * A[(n,k-1)] down to
    the free A[(n,0)]; each step must divide exactly, and the product must
    telescope to C(n,k), or ArithmeticError names the step.  The family is
    returned as a table of ints, row n the multipliers (C(n,0), ..., C(n,n))
    of member n, for n = 0..j.  That every member solves the constraint
    system is the certificate's part (`binomial_family_matches_nullspace`).
    """
    if j < 0:
        raise ValueError("order bound j must be nonnegative")
    family = []
    for n in range(j + 1):
        member = [1]
        for k in range(1, n + 1):
            product = member[-1] * (n - k + 1)
            value, remainder = divmod(product, k)
            if remainder or value != binomial(n, k):
                gave = f"{product}/{k}" if remainder else value
                raise ArithmeticError(f"recursion gave {gave} at (n={n}, k={k}), expected C(n,k)")
            member.append(value)
        family.append(tuple(member))
    return tuple(family)


def binomial_family_matches_nullspace(system: ConstraintSystem, family: tuple) -> bool:
    """True iff the closed-form family spans exactly the system's nullspace.

    Block by block: the certified solution line of each total order n must
    be the multiples of row n of the family, a table of ints as
    `solve_binomial_recursion` gives it, compared in integers.
    """
    lines = system._solution_lines()
    return len(family) == len(lines) and all(
        len(member) == len(line) and member[-1]
        and all(x == member[-1] * c for x, c in zip(member, line))
        for member, line in zip(family, lines.values())
    )


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

    The system for j = 2*(order-1), rewritten over the r*r dyad unknowns,
    keeps the certified solution line C(n, .) of each block n in `blocks`,
    ascending; a block outside 0..r-1 is refused.  The solution dimension,
    the basis (their binomial-pattern operators) and the verdict (the
    blocks are 0..r-1, so the pattern operators span the nullspace) are
    read off them.
    """

    __slots__ = ("pole", "equation_count", "blocks")

    def __init__(self, pole: ComplexPole, equation_count: int, blocks):
        blocks = tuple(blocks)
        for i, n in enumerate(blocks):
            if not (blocks[i - 1] if i else -1) < n < pole.order:
                raise ValueError(f"block {n} of {blocks}: out of order or not below {pole.order}")
        Value.__init__(self, pole, equation_count, blocks)

    @property
    def j(self) -> int:
        return 2 * (self.pole.order - 1)

    @property
    def solution_dimension(self) -> int:
        return len(self.blocks)

    @property
    def basis(self) -> tuple:
        return tuple(exponential_state_operator(self.pole, n, include_prefactor=False)
                     for n in self.blocks)

    @property
    def passed(self) -> bool:
        return self.blocks == tuple(range(self.pole.order))

    pattern_matches = passed

    def to_json_dict(self):
        r = self.pole.order
        return {
            "r": r,
            "j": self.j,
            "equation_count": self.equation_count,
            "variable_count": r * r,
            "solution_dimension": self.solution_dimension,
            "expected_dimension": r,
            "pattern_matches": self.pattern_matches,
            "passed": self.passed,
            "basis": [{"entries": member.to_json_entries()} for member in self.basis],
        }


def binomial_pattern_matrix(order: int, n: int) -> dict:
    """Dyad coefficients {(k, n-k): C(n,k)} on the anti-diagonal ket+bra = n."""
    if not 0 <= n <= order - 1:
        raise ValueError(f"pattern order n={n} out of range for order {order}")
    return {(k, n - k): binomial(n, k) for k in range(n + 1)}


def verify_restriction_equivalence(pole: ComplexPole, system=None) -> RestrictionReport:
    """The constraint system of bound 2*(r-1) restricted to the dyad range of the pole.

    Its certificate, read block by block, gives the solutions over the r*r
    dyad coefficients: the multiples of C(n,k) for n < r and zero for n >= r.
    The report holds the certified blocks.  A `system` already built for
    that bound is read as it is; otherwise one is built, and so certified.
    """
    r = pole.order
    j = 2 * (r - 1)
    if system is None:
        system = exponentiality_constraints(j)
    elif system.j != j:
        raise ValueError(f"a pole of order {r} restricts the system of bound {j}, not {system.j}")
    return RestrictionReport(pole, system.equation_count, system._solution_lines(order=r))
