"""Rational scattering-amplitude model with a residue/contour cross-check.

The model is a principal part of prescribed order at one lower-half-plane
pole plus an optional rational background, paired with rational stand-ins
for the very well-behaved wavefunctions (poles confined to the upper
half-plane, jointly decaying at infinity).  Because everything is rational,
the pole contribution to the amplitude integral has an exact closed form,
the Taylor coefficients of the product ket*bra at the pole (one power-series
division) weighted by the principal-part coefficients, and the contour
decomposition

    integral over [0, inf) = background piece + residue term

is an identity of the residue theorem on the closed contour (real axis plus
a lower semicircle at infinity) rather than an approximation.  The
background piece is the (-inf, 0] leg traversed outward from the origin,
i.e. minus the conventionally oriented integral; that orientation is what
the closed contour produces.  Each piece runs to infinity, as a finite leg
past the pole window plus a tail; every leg uses one fixed adaptive
Gauss-Kronrod policy (QUADPACK) with breakpoints at the pole, over an
integrand whose coefficients are converted to complex once per contour
piece.  A leg integrates the real and the imaginary part as two QUADPACK
runs that share the integrand's values, so each node is evaluated once.
The QUADPACK routines are scipy's compiled ones, called as
scipy.integrate.quad calls them but loaded straight from their extension
module on the first quadrature, so scipy.integrate and the subpackages it
imports are never loaded; numpy is imported on the first root check.
Importing either at module load would cost more than everything else the
command line does at startup.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    ComplexRational,
    Polynomial,
    RationalFunction,
    ZERO,
    coefficient_from_json,
    reject_unknown_keys,
    typed_field,
)
from .jordan import ComplexPole

KET_ROLE = "ket"
BRA_ROLE = "bra"

# Numerically computed denominator roots this close to the real axis are
# treated as violating strict upper-half-plane analyticity.
_ROOT_IMAG_MARGIN = 1e-9


def _denominator_roots(function: RationalFunction):
    import numpy as np  # here, not at module load: only the residue path needs it

    coeffs = [complex(c) for c in reversed(function.denominator.coefficients)]
    return np.roots(coeffs) if len(coeffs) > 1 else []


def _require_upper_half_plane_roots(function: RationalFunction, what: str):
    for root in _denominator_roots(function):
        if root.imag <= _ROOT_IMAG_MARGIN * max(1.0, abs(root)):
            raise ValueError(
                f"{what} must be analytic in the closed lower half-plane; "
                f"denominator root at {complex(root):.6g} is not strictly above the real axis"
            )


@dataclass(frozen=True, slots=True)
class TestFunction:
    """Rational stand-in for a half-plane-analytic wavefunction overlap.

    The denominator roots must lie strictly in the upper half-plane and the
    function must be bounded at infinity.  Contour closure needs the ket and
    bra to decay like 1/|z|^2 *together*; that pairwise condition is checked
    by the contour operations, so constants remain admissible in the residue
    expansion.  The role tag records which side of the amplitude the function
    stands for.
    """

    __test__ = False  # domain type, not a pytest case

    function: RationalFunction
    role: str

    def __post_init__(self):
        if self.role not in (KET_ROLE, BRA_ROLE):
            raise ValueError(f"role must be {KET_ROLE!r} or {BRA_ROLE!r}, got {self.role!r}")
        function = self.function
        _require_upper_half_plane_roots(function, "test function")
        if function.numerator.degree > function.denominator.degree:
            raise ValueError(
                "test function must be bounded at infinity: "
                f"numerator degree {function.numerator.degree}, "
                f"denominator degree {function.denominator.degree}"
            )

    @property
    def decay_degree(self) -> int:
        """Power of 1/|z| the function decays with at infinity."""
        return self.function.denominator.degree - self.function.numerator.degree

    def __call__(self, z):
        return self.function(z)


@dataclass(frozen=True, slots=True)
class SMatrixModel:
    """Principal part of exact order at one pole, plus analytic background.

    `laurent[n]` is the coefficient of 1/(z - pole)^{n+1}; the list length
    equals the pole order and the top coefficient must be nonzero whenever
    any coefficient is (a vanishing top coefficient would misdeclare the
    order).  The all-zero principal part is admitted as the degenerate
    pole-free model, which the trivial oracle checks need.  A background,
    when present, must itself be analytic in the closed lower half-plane and
    bounded at infinity so the contour decomposition sees only the declared
    pole; a zero background is stored as None.
    """

    pole: ComplexPole
    laurent: tuple
    background: RationalFunction | None = None

    def __post_init__(self):
        order = self.pole.order
        coeffs = tuple(ComplexRational.from_value(c) for c in self.laurent)
        if len(coeffs) != order:
            raise ValueError(
                f"need {order} principal-part coefficients for a pole of order "
                f"{order}, got {len(coeffs)}"
            )
        if not coeffs[-1] and any(coeffs):
            raise ValueError(
                f"top principal-part coefficient is zero: the pole would have order "
                f"lower than the declared {order}"
            )
        object.__setattr__(self, "laurent", coeffs)
        background = self.background
        if background is not None and background.is_zero:
            object.__setattr__(self, "background", None)
        elif background is not None:
            _require_upper_half_plane_roots(background, "background")
            if background.numerator.degree > background.denominator.degree:
                raise ValueError("background must be bounded at infinity")

    def __call__(self, z):
        """Evaluate the amplitude; exact for exact z, complex otherwise."""
        position = self.pole.position
        if isinstance(z, (ComplexRational, int, Fraction)):
            z = ComplexRational.from_value(z)
            if z == position:
                raise ZeroDivisionError("evaluation at the pole position")
            shift = z - position
            total = ZERO
            power = shift
            for coeff in self.laurent:
                total = total + coeff / power
                power = power * shift
            if self.background is not None:
                total = total + self.background(z)
            return total
        z = complex(z)
        if z == complex(position):
            raise ZeroDivisionError("evaluation at the pole position")
        shift = z - complex(position)
        total = 0j
        power = shift
        for coeff in self.laurent:
            total += complex(coeff) / power
            power *= shift
        if self.background is not None:
            total += complex(self.background(z))
        return total


def unitary_first_order_model(pole: ComplexPole) -> SMatrixModel:
    """First-order model with the unitarity-determined coefficient -i*width.

    Only the order-1 coefficient is pinned by unitarity; higher orders take
    the coefficients as free inputs.
    """
    if pole.order != 1:
        raise ValueError("the unitarity default applies to first-order poles only")
    return SMatrixModel(pole, [ComplexRational(0, -pole.width)])


# -- residue expansion -------------------------------------------------------


def residue_core(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction) -> ComplexRational:
    """Exact rational part of the pole's residue contribution.

    With c_n the Taylor coefficients of the product ket*bra at the pole z,
    from one power-series division of its numerator by its denominator, the
    residue of ket*bra*laurent[n]/(E - z)^{n+1} at E = z is laurent[n] * c_n;
    the sum over n, multiplied by -2*pi*i, is the residue term.  Exact in
    the Gaussian rationals.
    """
    if ket_fn.role != KET_ROLE:
        raise ValueError(f"first test function must have role {KET_ROLE!r}")
    if bra_fn.role != BRA_ROLE:
        raise ValueError(f"second test function must have role {BRA_ROLE!r}")
    product = ket_fn.function * bra_fn.function
    series = product.taylor_coefficients(model.pole.position, model.pole.order)
    total = ZERO
    for coeff, c in zip(model.laurent, series):
        total = total + coeff * c
    return total


def residue_expansion(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction) -> complex:
    """The pole's contribution to the amplitude integral: -2*pi*i * residue_core."""
    return complex(0.0, -2.0 * math.pi) * complex(residue_core(model, ket_fn, bra_fn))


# -- numerical contour pieces ------------------------------------------------


# The one quadrature policy of every contour leg, `_leg`.
_ABSOLUTE_TOLERANCE = 1e-10
_RELATIVE_TOLERANCE = 1e-10
_SUBDIVISION_LIMIT = 200
_POLE_WINDOW = 10.0


# QUADPACK's status codes for a run that finished short of the requested
# accuracy, the ones scipy.integrate.quad reports as IntegrationWarning; 0 is
# success and any other code (6, invalid input) is an error.
_UNCONVERGED_REASONS = {1: "subdivision limit", 2: "roundoff", 3: "bad integrand behaviour",
                        4: "roundoff in extrapolation", 5: "divergent",
                        7: "abnormal termination"}
_QUADPACK = None  # the compiled module, once loaded


@dataclass(frozen=True, slots=True)
class IntegralResult:
    """Value, quadrature error estimate, and convergence flag.

    `_unconverged` describes the legs whose quadrature did not converge,
    for the command line's failure message.
    """

    value: complex
    error_estimate: float
    converged: bool
    _unconverged: tuple = ()


def _quadpack():
    """scipy's compiled QUADPACK routines, loaded from their file on first use.

    Loading the extension module by path skips `scipy/integrate/__init__.py`,
    whose imports (scipy.special, scipy.optimize, scipy.sparse, ...) cost
    more than the rest of a residue check; the routines are the ones
    scipy.integrate.quad calls.
    """
    global _QUADPACK
    if _QUADPACK is None:
        import importlib.machinery
        import importlib.util
        import os

        package = importlib.util.find_spec("scipy")
        if package is None:
            raise ImportError("the residue check needs scipy's compiled QUADPACK; scipy is not installed")
        stem = os.path.join(package.submodule_search_locations[0], "integrate", "_quadpack")
        paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        module = None
        if path is not None:
            loader = importlib.machinery.ExtensionFileLoader("scipy.integrate._quadpack", path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(module)
        if not all(hasattr(module, name) for name in ("_qagse", "_qagpe", "_qagie")):
            import importlib.metadata

            raise ImportError(f"scipy {importlib.metadata.version('scipy')} has no compiled "
                              f"QUADPACK routines _qagse, _qagpe, _qagie at {path or paths[0]}")
        _QUADPACK = module
    return _QUADPACK


def quad(func, lo, hi, points):
    """QUADPACK integral of `func` over [lo, hi], lo < hi, with the leg policy.

    Makes the call scipy.integrate.quad makes for the same leg: QAGSE on a
    finite interval, QAGPE when there are breakpoints (sorted, distinct,
    inside the interval) and QAGIE when one end is infinite.  Returns
    (value, error estimate, ier), `ier` being QUADPACK's status code: 0 when
    converged, a key of `_UNCONVERGED_REASONS` when not; invalid input
    raises ValueError, as scipy does.
    """
    routines = _quadpack()
    policy = ((), 0, _ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE, _SUBDIVISION_LIMIT)
    if points and (hi == math.inf or lo == -math.inf):
        raise ValueError("Infinity inputs cannot be used with break points.")
    if hi == math.inf:
        value, error, ier = routines._qagie(func, lo, 1, *policy)
    elif lo == -math.inf:
        value, error, ier = routines._qagie(func, hi, -1, *policy)
    elif points:
        value, error, ier = routines._qagpe(func, lo, hi, points + [0.0, 0.0], *policy)
    else:
        value, error, ier = routines._qagse(func, lo, hi, *policy)
    if ier and ier not in _UNCONVERGED_REASONS:
        raise ValueError(f"QUADPACK rejected the quadrature over [{lo:g}, {hi:g}] (ier {ier})")
    return value, error, ier


def _leg(integrand, model: SMatrixModel, lo: float, hi: float) -> IntegralResult:
    """Integral of the complex `integrand` over [lo, hi], one QUADPACK run per part.

    The two runs share one table of integrand values keyed by node: the real
    run fills it and the imaginary run, whose nodes are mostly the same,
    reads from it, so each node is evaluated once (QUADPACK's Gauss-Kronrod
    nodes are interior to disjoint intervals, so a run meets a node once).
    The integrand is pure, so a shared value is the float a second
    evaluation would give.
    Breakpoints: the pole and `_POLE_WINDOW` widths either side, where inside
    (lo, hi).  The infinite legs start beyond it and get none (QUADPACK's
    infinite-range routine takes none).  The leg converged when both runs
    return status 0; otherwise it names itself and each failing status.
    """
    center = float(model.pole.resonance_energy)
    half = _POLE_WINDOW * float(model.pole.width)
    points = sorted({p for p in (center - half, center, center + half) if lo < p < hi})
    values = {}

    def real_part(energy):
        value = values[energy] = integrand(energy)
        return value.real

    def imag_part(energy):
        value = values.get(energy)
        return (integrand(energy) if value is None else value).imag

    re_val, re_err, re_ier = quad(real_part, lo, hi, points)
    im_val, im_err, im_ier = quad(imag_part, lo, hi, points)
    failures = [f"ier {ier}, {_UNCONVERGED_REASONS[ier]}"
                for ier in dict.fromkeys((re_ier, im_ier)) if ier]
    unconverged = (f"leg [{lo:g}, {hi:g}]: {'; '.join(failures)}",) if failures else ()
    return IntegralResult(complex(re_val, im_val), re_err + im_err, not failures, unconverged)


def _combine(parts):
    return IntegralResult(
        sum(p.value for p in parts),
        sum(p.error_estimate for p in parts),
        all(p.converged for p in parts),
        sum((p._unconverged for p in parts), ()),
    )


def _horner_coefficients(polynomial: Polynomial):
    """Complex coefficients of `polynomial`, highest degree first."""
    return tuple(complex(c) for c in reversed(polynomial.coefficients))


def _horner(coefficients, z: complex) -> complex:
    acc = 0j
    for c in coefficients:
        acc = acc * z + c
    return acc


def _amplitude_integrand(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction):
    """ket(e) * model(e) * bra(e) at a real energy e, as a complex.

    Every coefficient is converted to complex once, here, and the callable
    repeats the operations of the complex branches of `Polynomial.__call__`,
    `RationalFunction.__call__` and `SMatrixModel.__call__` in their order,
    so its values are bit-identical to evaluating those.
    """
    if ket_fn.decay_degree + bra_fn.decay_degree < 2:
        raise ValueError(
            "contour pieces need the test-function pair to decay at least as 1/|z|^2 "
            f"combined, got degrees {ket_fn.decay_degree} + {bra_fn.decay_degree}"
        )
    ket_num = _horner_coefficients(ket_fn.function.numerator)
    ket_den = _horner_coefficients(ket_fn.function.denominator)
    bra_num = _horner_coefficients(bra_fn.function.numerator)
    bra_den = _horner_coefficients(bra_fn.function.denominator)
    position = complex(model.pole.position)
    laurent = tuple(complex(c) for c in model.laurent)
    background = model.background
    if background is not None:
        bg_num = _horner_coefficients(background.numerator)
        bg_den = _horner_coefficients(background.denominator)

    def integrand(energy: float) -> complex:
        z = complex(energy)
        shift = z - position
        total = 0j
        power = shift
        for coeff in laurent:
            total += coeff / power
            power *= shift
        if background is not None:
            total += _horner(bg_num, z) / _horner(bg_den, z)
        ket = _horner(ket_num, z) / _horner(ket_den, z)
        bra = _horner(bra_num, z) / _horner(bra_den, z)
        return ket * total * bra

    return integrand


def direct_contour_integral(model: SMatrixModel, ket_fn: TestFunction,
                            bra_fn: TestFunction) -> IntegralResult:
    """Amplitude integral along the physical spectrum [0, inf)."""
    integrand = _amplitude_integrand(model, ket_fn, bra_fn)
    split = max(1.0, float(model.pole.resonance_energy) + _POLE_WINDOW * float(model.pole.width))
    return _combine([_leg(integrand, model, 0.0, split), _leg(integrand, model, split, math.inf)])


def background_integral(model: SMatrixModel, ket_fn: TestFunction,
                        bra_fn: TestFunction) -> IntegralResult:
    """Pole-independent contour piece along (-inf, 0].

    Traversed outward from the origin (the orientation the deformed contour
    inherits), so the returned value is minus the conventionally oriented
    integral over (-inf, 0].
    """
    integrand = _amplitude_integrand(model, ket_fn, bra_fn)
    split = min(-1.0, float(model.pole.resonance_energy) - _POLE_WINDOW * float(model.pole.width))
    combined = _combine([_leg(integrand, model, split, 0.0),
                         _leg(integrand, model, -math.inf, split)])
    return IntegralResult(-combined.value, combined.error_estimate, combined.converged,
                          combined._unconverged)


@dataclass(frozen=True, slots=True)
class DecompositionReport:
    """Contour-decomposition check: direct vs background + residue.

    `_unconverged` holds a (piece, legs) pair for each contour piece
    ("direct", "background") whose quadrature did not converge, `legs`
    describing each failed leg, for the command line's failure message; it
    is not part of the JSON report.
    """

    direct: complex
    background: complex
    residue: complex
    discrepancy: float
    tolerance: float
    passed: bool
    quadrature_error: float
    converged: bool
    _unconverged: tuple = ()

    def to_json_dict(self):
        return {
            "direct": [self.direct.real, self.direct.imag],
            "background": [self.background.real, self.background.imag],
            "residue": [self.residue.real, self.residue.imag],
            "discrepancy": self.discrepancy,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "quadrature_error": self.quadrature_error,
            "converged": self.converged,
        }


def decomposition_check(model: SMatrixModel, ket_fn: TestFunction, bra_fn: TestFunction,
                        tolerance: float = 1e-8) -> DecompositionReport:
    """Check direct = background + residue on the closed lower contour.

    The discrepancy is relative to |direct| when that is nonzero, absolute
    otherwise.  A tolerance that is not positive and finite raises
    ValueError; a violation (or unconverged quadrature) is reported through
    `passed`, never raised.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    direct = direct_contour_integral(model, ket_fn, bra_fn)
    background = background_integral(model, ket_fn, bra_fn)
    residue = residue_expansion(model, ket_fn, bra_fn)
    mismatch = abs(direct.value - (background.value + residue))
    scale = abs(direct.value)
    discrepancy = mismatch / scale if scale > 0 else mismatch
    unconverged = tuple((name, piece._unconverged)
                        for name, piece in (("direct", direct), ("background", background))
                        if not piece.converged)
    converged = not unconverged
    return DecompositionReport(
        direct=direct.value,
        background=background.value,
        residue=residue,
        discrepancy=discrepancy,
        tolerance=tolerance,
        passed=bool(discrepancy <= tolerance and converged),
        quadrature_error=direct.error_estimate + background.error_estimate,
        converged=converged,
        _unconverged=unconverged,
    )


# -- JSON ingestion -----------------------------------------------------------


def _polynomial_from_json(values, where: str) -> Polynomial:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{where}: expected a coefficient list, got {values!r}")
    return Polynomial([coefficient_from_json(v, f"{where}[{i}]") for i, v in enumerate(values)])


def parse_test_function(data, where: str = "test_function") -> TestFunction:
    """Build a test function from {"role", "num", "den"} (ascending coefficients)."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {data!r}")
    reject_unknown_keys(data, ("role", "num", "den"), where)
    for field in ("role", "num", "den"):
        if field not in data:
            raise ValueError(f"{where}.{field}: missing required field")
    function = RationalFunction(
        _polynomial_from_json(data["num"], f"{where}.num"),
        _polynomial_from_json(data["den"], f"{where}.den"),
    )
    return TestFunction(function, data["role"])


def model_from_json(data):
    """Build (model, ket_fn, bra_fn) from the model-document schema.

    Expected fields: E_R, Gamma, r, laurent (list of [re, im] or numbers,
    length r), optional background {"num": [...], "den": [...]}, and
    test_functions holding exactly one "ket" and one "bra" entry.
    """
    if not isinstance(data, dict):
        raise ValueError(f"model document must be a JSON object, got {type(data).__name__}")
    reject_unknown_keys(
        data, ("E_R", "Gamma", "r", "laurent", "background", "test_functions"), "model"
    )
    for field in ("E_R", "Gamma", "r", "laurent", "test_functions"):
        if field not in data:
            raise ValueError(f"model.{field}: missing required field")
    pole = ComplexPole(typed_field(data, "E_R", float, "model.E_R"),
                       typed_field(data, "Gamma", float, "model.Gamma"),
                       typed_field(data, "r", int, "model.r"))
    if not isinstance(data["laurent"], list):
        raise ValueError("model.laurent: expected a list")
    laurent = [
        coefficient_from_json(v, f"model.laurent[{i}]") for i, v in enumerate(data["laurent"])
    ]
    background = None
    if data.get("background") is not None:
        bg = data["background"]
        if not isinstance(bg, dict) or "num" not in bg or "den" not in bg:
            raise ValueError('model.background: expected {"num": [...], "den": [...]}')
        reject_unknown_keys(bg, ("num", "den"), "model.background")
        background = RationalFunction(
            _polynomial_from_json(bg["num"], "model.background.num"),
            _polynomial_from_json(bg["den"], "model.background.den"),
        )
    functions = data["test_functions"]
    if not isinstance(functions, list) or len(functions) != 2:
        raise ValueError("model.test_functions: expected a list of exactly two entries")
    parsed = [
        parse_test_function(entry, f"model.test_functions[{i}]")
        for i, entry in enumerate(functions)
    ]
    by_role = {fn.role: fn for fn in parsed}
    if set(by_role) != {KET_ROLE, BRA_ROLE}:
        raise ValueError('model.test_functions: need one "ket" and one "bra" entry')
    model = SMatrixModel(pole, laurent, background)
    return model, by_role[KET_ROLE], by_role[BRA_ROLE]


def load_model_file(path):
    """Read and validate a model document from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return model_from_json(data)
