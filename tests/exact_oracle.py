"""Reference Gaussian rational for the tests: two Fractions, no shared denominator.

`gamow.exact.ComplexRational` holds (re + i*im)/den as one canonical integer
triple.  `FractionPair` is the representation it replaced, a real and an
imaginary `fractions.Fraction`, with every operation written out on the
parts; the tests compare the two operation by operation.
"""

import sys
from fractions import Fraction

from gamow.exact import as_fraction

_HASH_IMAG = sys.hash_info.imag
_HASH_MODULUS = 1 << sys.hash_info.width


class FractionPair:
    """A complex number held as two Fractions, its real and imaginary parts."""

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        object.__setattr__(self, "real", as_fraction(real))
        object.__setattr__(self, "imag", as_fraction(imag))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPair is immutable")

    @classmethod
    def from_value(cls, value) -> "FractionPair":
        """Coerce any supported scalar (including complex) to FractionPair."""
        if isinstance(value, FractionPair):
            return value
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        return cls(value)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        """Return the exact counterpart of `other`, or None for the float path."""
        if isinstance(other, FractionPair):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPair(other)
        return None

    def __add__(self, other):
        exact = self._coerce(other)
        if exact is not None:
            return FractionPair(self.real + exact.real, self.imag + exact.imag)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        exact = self._coerce(other)
        if exact is not None:
            return FractionPair(self.real - exact.real, self.imag - exact.imag)
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        exact = self._coerce(other)
        if exact is not None:
            return FractionPair(exact.real - self.real, exact.imag - self.imag)
        if isinstance(other, (float, complex)):
            return other - complex(self)
        return NotImplemented

    def __mul__(self, other):
        exact = self._coerce(other)
        if exact is not None:
            return FractionPair(
                self.real * exact.real - self.imag * exact.imag,
                self.real * exact.imag + self.imag * exact.real,
            )
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        exact = self._coerce(other)
        if exact is not None:
            denom = exact.real * exact.real + exact.imag * exact.imag
            if denom == 0:
                raise ZeroDivisionError("division by zero FractionPair")
            return FractionPair(
                (self.real * exact.real + self.imag * exact.imag) / denom,
                (self.imag * exact.real - self.real * exact.imag) / denom,
            )
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        exact = self._coerce(other)
        if exact is not None:
            return exact / self
        if isinstance(other, (float, complex)):
            return other / complex(self)
        return NotImplemented

    def __neg__(self):
        return FractionPair(-self.real, -self.imag)

    def __pos__(self):
        return self

    def conjugate(self) -> "FractionPair":
        return FractionPair(self.real, -self.imag)

    # -- conversions and comparisons --------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)

    def __eq__(self, other):
        # Floats and complexes compare exactly, as with Fraction: 1/3 the
        # double is not the rational 1/3.
        exact = self._coerce(other)
        if exact is not None:
            return self.real == exact.real and self.imag == exact.imag
        if isinstance(other, float):
            return not self.imag and self.real == other
        if isinstance(other, complex):
            return self.real == other.real and self.imag == other.imag
        return NotImplemented

    def __hash__(self):
        # CPython's complex hash, including its wrap-around in the unsigned
        # hash width, so values equal to ints, Fractions, floats or complexes
        # hash like them.
        if not self.imag:
            return hash(self.real)
        value = (hash(self.real) + _HASH_IMAG * hash(self.imag)) % _HASH_MODULUS
        if value >= _HASH_MODULUS // 2:
            value -= _HASH_MODULUS
        return -2 if value == -1 else value

    def __repr__(self):
        if not self.imag:
            return str(self.real)
        if not self.real:
            return f"{self.imag}*i"
        sign = "+" if self.imag > 0 else "-"
        return f"({self.real} {sign} {abs(self.imag)}*i)"

