"""Jordan-block representation of a resonance pole and exact ket evolution.

A pole of order r on the lower half-plane carries r chain vectors of orders
0..r-1.  On that r-dimensional subspace the Hamiltonian acts as a single
Jordan block with the complex pole position on the diagonal and the coupling
sequence 1, 2, ..., r-1 on the first superdiagonal, so time evolution is an
exact finite computation: a scalar phase times a terminating nilpotent series.

All values are immutable and all functions are pure, so everything here is
safe to call concurrently.
"""

import cmath
import math
from fractions import Fraction

from .exact import ComplexRational, ZERO, ONE, Value, as_fraction, binomial

_MINUS_I = ComplexRational(0, -1)


class ComplexPole(Value):
    """Resonance pole z = E - i*width/2 of a given order on the lower half-plane."""

    __slots__ = ("resonance_energy", "width", "order")

    def __init__(self, resonance_energy: Fraction, width: Fraction, order: int):
        for name, value in (("resonance energy", resonance_energy), ("width", width)):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"pole {name} must be finite, got {value!r}")
        resonance_energy = as_fraction(resonance_energy)
        width = as_fraction(width)
        if width <= 0:
            raise ValueError(f"pole width must be positive, got {width}")
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"pole order must be an integer >= 1, got {order!r}")
        Value.__init__(self, resonance_energy, width, order)

    @property
    def position(self) -> ComplexRational:
        """Exact pole position E - i*width/2 (strictly below the real axis)."""
        return ComplexRational(self.resonance_energy, -self.width / 2)


def _check_time(t) -> Fraction:
    t = as_fraction(t)
    if t < 0:
        raise ValueError(f"time evolution is defined for t >= 0 only, got t={t}")
    return t


class GamowChainVector(Value):
    """Coefficient vector over the chain basis of a pole, with a symbolic phase.

    The stored value is  exp(-i*z*phase_time) * sum_k coefficients[k] e_k
    where z is the pole position.  Keeping the scalar phase symbolic preserves
    exactness of the coefficients; `to_numeric` evaluates everything in floats.
    """

    __slots__ = ("pole", "coefficients", "phase_time")

    def __init__(self, pole: ComplexPole, coefficients: tuple, phase_time: Fraction = Fraction(0)):
        coeffs = tuple(ComplexRational.from_value(c) for c in coefficients)
        if len(coeffs) != pole.order:
            raise ValueError(
                f"coefficient array length {len(coeffs)} does not match pole order {pole.order}"
            )
        Value.__init__(self, pole, coeffs, _check_time(phase_time))

    @classmethod
    def basis(cls, pole: ComplexPole, k: int) -> "GamowChainVector":
        if not 0 <= k < pole.order:
            raise ValueError(f"chain order k={k} out of range for pole order {pole.order}")
        return cls(pole, tuple(ONE if p == k else ZERO for p in range(pole.order)))

    @property
    def highest_order(self) -> int:
        """Largest k with a nonzero coefficient (-1 for the zero vector)."""
        for k in range(self.pole.order - 1, -1, -1):
            if self.coefficients[k]:
                return k
        return -1

    def phase_factor(self) -> complex:
        return cmath.exp(-1j * complex(self.pole.position) * float(self.phase_time))

    def to_numeric(self):
        """Coefficients as complex floats with the phase factor applied."""
        phase = self.phase_factor()
        return [complex(c) * phase for c in self.coefficients]


class JordanBlockMatrix(Value):
    """The pole's Jordan block: z on the diagonal, k = 1..r-1 on the superdiagonal.

    Acting on the basis vector of order k this reproduces the chain relation
    H e_k = z e_k + k e_{k-1}.
    """

    __slots__ = ("pole", "entries")

    def __init__(self, pole: ComplexPole, entries: tuple):
        rows = tuple(tuple(ComplexRational.from_value(c) for c in row) for row in entries)
        r = pole.order
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ValueError(f"entries must form an {r}x{r} matrix")
        Value.__init__(self, pole, rows)

    @property
    def size(self) -> int:
        return self.pole.order

    def matvec(self, coefficients):
        """Apply the block to an exact coefficient vector."""
        coeffs = [ComplexRational.from_value(c) for c in coefficients]
        if len(coeffs) != self.size:
            raise ValueError("vector length does not match block size")
        return tuple(
            sum((row[j] * coeffs[j] for j in range(self.size)), ZERO)
            for row in self.entries
        )

    def nilpotent_part(self):
        """Entries of N = J - z*Identity (strictly upper triangular)."""
        z = self.pole.position
        return tuple(
            tuple(entry - z if i == j else entry for j, entry in enumerate(row))
            for i, row in enumerate(self.entries)
        )


def build_jordan_block(pole: ComplexPole) -> JordanBlockMatrix:
    """Construct the Jordan block for a pole.

    Diagonal entries are the pole position; entry (k-1, k) equals k, matching
    the chain relation H e_k = z e_k + k e_{k-1}; everything else is zero.
    """
    r = pole.order
    z = pole.position
    entries = [[ZERO] * r for _ in range(r)]
    for k in range(r):
        entries[k][k] = z
        if k >= 1:
            entries[k - 1][k] = ComplexRational(k)
    return JordanBlockMatrix(pole, entries)


def check_jordan_degree(matrix: JordanBlockMatrix, k: int):
    """Verify that the order-k basis vector is a Jordan vector of degree k+1.

    Returns (annihilated, not_annihilated_at_lower_power):
    (J - z)^{k+1} e_k == 0  and  (J - z)^k e_k != 0.  Both must be True for a
    valid chain.
    """
    r = matrix.size
    if not 0 <= k <= r - 1:
        raise ValueError(f"order k={k} out of range 0..{r - 1}")
    # N = J - z, held on the same pole so that it multiplies like the block
    nilpotent = JordanBlockMatrix(matrix.pole, matrix.nilpotent_part())
    vector = tuple(ONE if p == k else ZERO for p in range(r))
    for _ in range(k):
        vector = nilpotent.matvec(vector)
    at_lower_power = vector
    annihilated_vec = nilpotent.matvec(at_lower_power)
    annihilated = not any(annihilated_vec)
    not_annihilated_at_lower_power = any(at_lower_power)
    return annihilated, not_annihilated_at_lower_power


def evolve_state(state: GamowChainVector, t) -> GamowChainVector:
    """Evolve an arbitrary chain vector by time t >= 0 (exact).

    The order-k basis component evolves into C(k,p) (-i t)^{k-p} e_p summed
    over p <= k; the common scalar phase accumulates in `phase_time`.  The
    span of orders <= highest_order is invariant.
    """
    t = _check_time(t)
    r = state.pole.order
    minus_it = _MINUS_I * ComplexRational(t)
    powers = [ONE]
    for _ in range(r - 1):
        powers.append(powers[-1] * minus_it)
    new_coeffs = []
    for p in range(r):
        total = ZERO
        for k in range(p, r):
            c = state.coefficients[k]
            if c:
                total = total + c * binomial(k, p) * powers[k - p]
        new_coeffs.append(total)
    return GamowChainVector(state.pole, new_coeffs, state.phase_time + t)


def evolve_ket(pole: ComplexPole, k: int, t) -> GamowChainVector:
    """Exact time evolution of the order-k chain ket for t >= 0.

    Returns exp(-i z t) * sum_{p<=k} C(k,p) (-i t)^{k-p} e_p with the scalar
    phase kept symbolic and the polynomial coefficients exact.
    """
    return evolve_state(GamowChainVector.basis(pole, k), t)


def survival_modulus(pole: ComplexPole, t) -> float:
    """|exp(-i z t)|^2 = exp(-width * t), the order-0 survival factor."""
    t = _check_time(t)
    return math.exp(-float(pole.width) * float(t))
