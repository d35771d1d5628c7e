"""Exact complex-rational arithmetic, polynomials, and linear algebra.

Everything here stays inside the Gaussian rationals: a number is one integer
triple (re, im, den) for (re + i*im)/den in lowest terms, polynomials carry
such numbers as coefficients, and the row reduction behind the rank check
never rounds.  Floating point enters only when a caller evaluates
at a float/complex argument or converts explicitly.  No command makes a
`Fraction`, so `fractions` is imported only where one is: in `as_fraction`.

Mixing with floats follows the `Fraction` convention: a float or complex
operand demotes the result to `complex`.  Floats passed where an exact value
is expected are embedded exactly (every double is a binary rational).
"""

import cmath
import math
import sys

_HASH_IMAG = sys.hash_info.imag
_HASH_MODULUS = 1 << sys.hash_info.width


def as_fraction(value):
    """Coerce an int, Fraction, float, or numeric string to an exact Fraction."""
    from fractions import Fraction
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


_EXPECTED = {int: "an integer", float: "a number", bool: "true or false", dict: "an object",
             list: "a list", str: "a string"}


def _finite(number) -> bool:
    """The one rule for JSON numbers: they convert to a finite float."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an integer beyond the float range
        return False


def json_number(numerator: int, denominator: int = 1):
    """numerator/denominator as a JSON number: the float equal to it, else the exact integer.

    An integer that no float holds, past 2**53 or past the float range, stays
    an int, which JSON writes digit for digit; a non-integer rounds to the
    nearest float, as int true division rounds it.
    """
    if denominator != 1:
        if numerator % denominator:
            return numerator / denominator
        numerator //= denominator
    try:
        number = float(numerator)
    except OverflowError:
        return numerator
    return number if number == numerator else numerator


def ordered_sum(terms):
    """0 plus each of `terms`, added left to right with plain `+`.

    The one sum for floats that reach the output: sum() compensates float
    sums from Python 3.12 on, which moves a reported float's last digits, so
    a report would differ between supported interpreters.
    """
    total = 0
    for term in terms:
        total += term
    return total


def typed_field(data: dict, key: str, kind, where: str, default=None):
    """data[key], or `default` when absent, checked to be a JSON value of `kind`.

    A key without a default is required.  JSON booleans are neither integers
    nor numbers here, an integer is also a number, and numbers are finite.
    """
    if key not in data and default is None:
        raise ValueError(f"{where}: missing required field")
    value = data.get(key, default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"{where}: expected {_EXPECTED[kind]}, got {value!r}")
    if kind in (int, float) and not _finite(value):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return float(value) if kind is float else value


def coefficient_from_json(value, where: str) -> "ComplexRational":
    """A JSON coefficient: a number or an [re, im] pair of numbers, all parts finite.

    `where` names the field in the error messages.
    """
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    parts = tuple(value) if pair else (value,)
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise ValueError(f"{where}: expected a number or [re, im] pair, got {value!r}")
    if not all(map(_finite, parts)):
        raise ValueError(f"{where}: expected finite numbers, got {value!r}")
    return ComplexRational(*parts)


def reject_unknown_keys(data: dict, allowed, where: str = ""):
    """Raise ValueError naming the first key not in `allowed`; `where` is the object's path."""
    for key in data:
        if key not in allowed:
            path = f"{where}.{key}" if where else key
            raise ValueError(f"{path}: unknown key, expected one of {', '.join(allowed)}")


class ComplexRational:
    """A Gaussian rational (re + i*im)/den, held as one canonical integer triple.

    `triple` is (re, im, den) with den > 0 and gcd(re, im, den) == 1, zero
    being (0, 0, 1), so equal values have equal triples.  Arithmetic is
    integer arithmetic with one gcd per result; division multiplies by the
    conjugate.  `real` and `imag` are read-only `Fraction` views of the parts.
    """

    __slots__ = ("triple",)

    def __new__(cls, real=0, imag=0):
        if type(real) is int and type(imag) is int:
            return _canonical(real, imag, 1)
        a, b = _ratio(real)
        c, d = _ratio(imag)
        return _canonical(a * d, c * b, b * d)

    def __setattr__(self, name, value=None):
        raise AttributeError("ComplexRational is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _canonical, self.triple

    @classmethod
    def from_value(cls, value) -> "ComplexRational":
        """Coerce any supported scalar (including complex) to ComplexRational."""
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, complex):
            return cls(value.real, value.imag)
        return cls(value)

    @property
    def real(self):
        return as_fraction(self.triple[0]) / self.triple[2]

    @property
    def imag(self):
        return as_fraction(self.triple[1]) / self.triple[2]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        parts = _exact_parts(other)
        if parts is None:
            return complex(self) + other if isinstance(other, (float, complex)) else NotImplemented
        a, b, d = self.triple
        c, e, f = parts
        return _canonical(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        parts = _exact_parts(other)
        if parts is None:
            return complex(self) - other if isinstance(other, (float, complex)) else NotImplemented
        a, b, d = self.triple
        c, e, f = parts
        return _canonical(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        parts = _exact_parts(other)
        if parts is None:
            return other - complex(self) if isinstance(other, (float, complex)) else NotImplemented
        return -self + other

    def __mul__(self, other):
        parts = _exact_parts(other)
        if parts is None:
            return complex(self) * other if isinstance(other, (float, complex)) else NotImplemented
        a, b, d = self.triple
        c, e, f = parts
        return _canonical(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = _exact_parts(other)
        if parts is None:
            return complex(self) / other if isinstance(other, (float, complex)) else NotImplemented
        a, b, d = self.triple
        c, e, f = parts
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero ComplexRational")
        return _canonical((a * c + b * e) * f, (b * c - a * e) * f, d * norm)

    def __rtruediv__(self, other):
        parts = _exact_parts(other)
        if parts is None:
            return other / complex(self) if isinstance(other, (float, complex)) else NotImplemented
        return _canonical(*parts) / self

    def __neg__(self):
        return _canonical(-self.triple[0], -self.triple[1], self.triple[2])

    def __pos__(self):
        return self

    def conjugate(self) -> "ComplexRational":
        return _canonical(self.triple[0], -self.triple[1], self.triple[2])

    # -- conversions and comparisons --------------------------------------

    def __complex__(self) -> complex:
        # Int true division is correctly rounded, as Fraction.__float__ is.
        re, im, den = self.triple
        return complex(re / den, im / den)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __bool__(self) -> bool:
        return bool(self.triple[0] or self.triple[1])

    def __eq__(self, other):
        # Floats and complexes compare exactly, as with Fraction: 1/3 the
        # double is not the rational 1/3.
        parts = _exact_parts(other)
        if parts is not None:
            return self.triple == parts
        if isinstance(other, (float, complex)):
            return cmath.isfinite(other) and self == ComplexRational.from_value(other)
        return NotImplemented

    def __hash__(self):
        # CPython's complex hash, including its wrap-around in the unsigned
        # hash width, so values equal to ints, Fractions, floats or complexes
        # hash like them.
        if not self.triple[1]:
            return hash(self.real)
        value = (hash(self.real) + _HASH_IMAG * hash(self.imag)) % _HASH_MODULUS
        if value >= _HASH_MODULUS // 2:
            value -= _HASH_MODULUS
        return -2 if value == -1 else value

    def __repr__(self):
        if not self.triple[1]:
            return str(self.real)
        if not self.triple[0]:
            return f"{self.imag}*i"
        sign = "+" if self.triple[1] > 0 else "-"
        return f"({self.real} {sign} {abs(self.imag)}*i)"


_set_triple = ComplexRational.triple.__set__


def _canonical(re: int, im: int, den: int) -> ComplexRational:
    """The ComplexRational (re + i*im)/den of ints with den > 0, in lowest terms."""
    divisor = math.gcd(re, im, den)
    if divisor != 1:
        re //= divisor
        im //= divisor
        den //= divisor
    value = object.__new__(ComplexRational)
    _set_triple(value, (re, im, den))
    return value


def _ratio(value) -> tuple:
    """(numerator, denominator > 0) of an int, Fraction, float, or numeric string."""
    if not isinstance(value, (int, float)):
        value = as_fraction(value)
    return value.as_integer_ratio()


def _exact_parts(value):
    """The triple of an exact operand (ComplexRational, int or Fraction), else None."""
    if isinstance(value, (float, complex)):  # the float path's operands, told apart first
        return None
    if isinstance(value, ComplexRational):
        return value.triple
    if isinstance(value, int):
        return value, 0, 1
    fractions = sys.modules.get("fractions")  # no Fraction exists before it is loaded
    if fractions is not None and isinstance(value, fractions.Fraction):
        return value.numerator, 0, value.denominator
    return None


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
I = ComplexRational(0, 1)


class Value:
    """Base of the package's immutable values: fields are the class's `__slots__`.

    A subclass's `__init__` checks its arguments and ends in `Value.__init__`,
    which binds the fields in `__slots__` order (TypeError on a wrong count);
    afterwards assignment and deletion raise AttributeError.  Values of the
    same class are equal when their fields are, and hash as the tuple of
    their fields, a dict field as the tuple of its sorted items.  The repr
    is `Name(field=value, ...)`, and pickling and copying rebuild a value
    from its fields without running the subclass's `__init__` again.
    """

    __slots__ = ()

    def __init__(self, *fields):
        names = type(self).__slots__
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(fields)}")
        for name, field in zip(names, fields):
            object.__setattr__(self, name, field)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(tuple([tuple(sorted(field.items())) if isinstance(field, dict) else field
                           for field in self._fields()]))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _rebuild, (type(self), self._fields())


def _rebuild(cls, fields):
    """The `cls` value with the given fields, set as they are: the pickle constructor."""
    value = object.__new__(cls)
    Value.__init__(value, *fields)
    return value


class Polynomial(Value):
    """Dense univariate polynomial over ComplexRational coefficients.

    Coefficients are stored in ascending degree with trailing zeros trimmed;
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple = ()):
        coeffs = [ComplexRational.from_value(c) for c in coefficients]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        Value.__init__(self, tuple(coeffs))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls((value,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, power: int) -> ComplexRational:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return ZERO

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] = merged[i] + c
        return Polynomial(merged)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial.constant(other) - self

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coefficients))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [ZERO] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                for j, b in enumerate(other.coefficients):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        scalar = ComplexRational.from_value(other)
        return Polynomial(tuple(c * scalar for c in self.coefficients))

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> "Polynomial":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        coeffs = self.coefficients
        for _ in range(order):
            coeffs = tuple(coeffs[p] * p for p in range(1, len(coeffs)))
        return Polynomial(coeffs)

    def __call__(self, z):
        """Evaluate by Horner's rule; exact for exact z, complex otherwise."""
        if _exact_parts(z) is not None:
            z = ComplexRational.from_value(z)
            acc = ZERO
            for c in reversed(self.coefficients):
                acc = acc * z + c
            return acc
        z = complex(z)
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + complex(c)
        return acc

    def taylor_coefficients(self, center, count: int) -> list:
        """The first `count` coefficients c_k of self(center + h) = sum c_k h^k.

        Repeated synthetic division by (x - center): each pass leaves the
        value of the current quotient at `center` as the next coefficient.
        """
        center = ComplexRational.from_value(center)
        coeffs = list(self.coefficients)
        taylor = []
        for _ in range(count):
            acc = ZERO
            quotient = []
            for c in reversed(coeffs):
                acc = acc * center + c
                quotient.append(acc)
            taylor.append(quotient.pop() if quotient else ZERO)
            coeffs = quotient[::-1]
        return taylor

    def format(self, variable: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for power, c in enumerate(self.coefficients):
            if not c:
                continue
            if power == 0:
                parts.append(f"{c!r}")
            elif power == 1:
                parts.append(f"{c!r}*{variable}")
            else:
                parts.append(f"{c!r}*{variable}^{power}")
        return " + ".join(parts)

    def __repr__(self):
        return self.format()


class RationalFunction(Value):
    """Quotient of two exact polynomials; closed under differentiation.

    No gcd reduction is performed: an unreduced quotient evaluates and
    differentiates correctly, but the quotient rule squares the denominator,
    so after d derivatives its degree is 2^d times the original.  Equality
    is that of the quotients, by cross-multiplication.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial | None = None):
        if not isinstance(numerator, Polynomial):
            numerator = Polynomial.constant(numerator)
        denominator = 1 if denominator is None else denominator
        if not isinstance(denominator, Polynomial):
            denominator = Polynomial.constant(denominator)
        if denominator.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        Value.__init__(self, numerator, denominator)

    @classmethod
    def from_coefficient_lists(cls, numerator, denominator) -> "RationalFunction":
        return cls(Polynomial(numerator), Polynomial(denominator))

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def __call__(self, z):
        num = self.numerator(z)
        den = self.denominator(z)
        if isinstance(den, ComplexRational):
            return num / den
        if den == 0:
            raise ZeroDivisionError("evaluation at a pole of the denominator")
        return num / den

    def derivative(self, order: int = 1) -> "RationalFunction":
        result = self
        for _ in range(order):
            p, q = result.numerator, result.denominator
            result = RationalFunction(p.derivative() * q - p * q.derivative(), q * q)
        return result

    def taylor_coefficients(self, center, count: int) -> list:
        """The first `count` Taylor coefficients at `center`, a regular point.

        The numerator's and denominator's coefficients are divided as power
        series, a_n = (p_n - sum_{k>=1} q_k a_{n-k}) / q_0: O(count * degree
        + count^2) exact operations, where `derivative` squares the
        denominator at each order.  At a pole q_0 = 0 and the division
        raises ZeroDivisionError.
        """
        p = self.numerator.taylor_coefficients(center, count)
        q = self.denominator.taylor_coefficients(center, count)
        a = []
        for n in range(count):
            acc = p[n]
            for k in range(1, n + 1):
                acc = acc - q[k] * a[n - k]
            a.append(acc / q[0])
        return a

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(
                self.numerator * other.numerator,
                self.denominator * other.denominator,
            )
        return RationalFunction(self.numerator * other, self.denominator)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __hash__(self):
        # Unchanged by a common factor of numerator and denominator, as == is:
        # the degree difference and the ratio of leading coefficients.
        if self.numerator.is_zero:
            return 0
        leading = self.numerator.coefficients[-1] / self.denominator.coefficients[-1]
        return hash((self.numerator.degree - self.denominator.degree, leading))

    def __repr__(self):
        return f"({self.numerator.format()}) / ({self.denominator.format()})"


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# -- exact linear algebra --------------------------------------------------


def rref(rows):
    """Reduced row echelon form over ComplexRational.

    Returns (reduced_rows, pivot_columns).  Pivoting is deterministic (first
    nonzero entry scanning top to bottom), which exact arithmetic permits.
    """
    matrix = [[ComplexRational.from_value(c) for c in row] for row in rows]
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(row, len(matrix)) if matrix[i][col]), None)
        if pivot_row is None:
            continue
        matrix[row], matrix[pivot_row] = matrix[pivot_row], matrix[row]
        inv = matrix[row][col]
        matrix[row] = [c / inv for c in matrix[row]]
        for i in range(len(matrix)):
            if i != row and matrix[i][col]:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[row])]
        pivots.append(col)
        row += 1
        if row == len(matrix):
            break
    return matrix, pivots


def matrix_rank(rows) -> int:
    return len(rref(rows)[1])

