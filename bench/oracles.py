"""Independent checks of every job's output, run outside the timed region.

Each oracle reads the output file and the job's generated inputs and
returns None when the output is right, or a one-line reason when it is
not.  None of them calls into gamow: the decay curve is rebuilt from the
closed form with `math.comb`, the constraint system from its definition,
and the residue of low-order models with sympy.
"""

import io
import json
import math
from fractions import Fraction

import numpy as np

# Relative tolerance of the decay-curve closed form, against the sum of the
# moduli of the terms (so cancellation cannot make it vanish).
DECAY_TOL = 1e-12
# Residue terms of models up to this order are recomputed with sympy.
SYMPY_MAX_ORDER = 4
SYMPY_TOL = 1e-12
RESIDUE_TOL = 1e-8


def _complex(value):
    if isinstance(value, (int, float)):
        return complex(value)
    return complex(value[0], value[1])


def _exact(value):
    """A JSON number or [re, im] pair as a pair of Fractions."""
    if isinstance(value, (int, float)):
        return Fraction(value), Fraction(0)
    return Fraction(value[0]), Fraction(value[1])


# -- decay_curve -------------------------------------------------------------


def _operator_table(config):
    """Coefficient of each dyad (ket k, bra m), as exact (re, im) pairs."""
    spec = config["operator"]
    width = Fraction(config["Gamma"])
    if spec["kind"] == "binomial":
        n = spec["n"]
        scale = width**n / math.factorial(n) if spec.get("include_prefactor", True) else 1
        return {(k, n - k): (scale * math.comb(n, k), Fraction(0)) for k in range(n + 1)}
    if spec["kind"] == "dyad":
        return {(spec["ket"], spec["bra"]): _exact(spec.get("coeff", 1))}
    table = {}
    for entry in spec["entries"]:
        key = (entry["ket"], entry["bra"])
        re, im = _exact(entry.get("coeff", 1))
        old_re, old_im = table.get(key, (Fraction(0), Fraction(0)))
        table[key] = (old_re + re, old_im + im)
    return table


_I_POWERS = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def _entry_polynomials(config):
    """Exact coefficients a_p of P_{l,m}(t) = sum_p a_p t^p for each target dyad.

    U(t)|k> = exp(-izt) sum_l C(k,l) (-it)^(k-l) |l>, and |exp(-izt)|^2 =
    exp(-width t), so |k><m| contributes C(k,l) C(m,mm) (-i)^(k-l) i^(m-mm)
    t^((k-l)+(m-mm)) to dyad (l, mm).
    """
    r = config["r"]
    polys = {(l, m): {} for l in range(r) for m in range(r)}
    for (k, m), (c_re, c_im) in _operator_table(config).items():
        for l in range(k + 1):
            for mm in range(m + 1):
                # (-i)^a i^b = i^(b - a)
                u_re, u_im = _I_POWERS[((m - mm) - (k - l)) % 4]
                weight = math.comb(k, l) * math.comb(m, mm)
                term = (weight * (c_re * u_re - c_im * u_im), weight * (c_re * u_im + c_im * u_re))
                power = (k - l) + (m - mm)
                old = polys[(l, mm)].get(power, (0, 0))
                polys[(l, mm)][power] = (old[0] + term[0], old[1] + term[1])
    return polys


def _expected_curve(config):
    """(t, l, m, value, scale) columns of the closed-form decay curve."""
    r = config["r"]
    steps = config["grid"]["steps"]
    t_end = float(config["grid"]["t_end"])
    t = (t_end * np.arange(steps)) / (steps - 1)
    decay = np.exp(-float(config["Gamma"]) * t)
    polys = _entry_polynomials(config)
    values = np.empty((steps, r * r), dtype=complex)
    scales = np.empty((steps, r * r))
    for index, (key, poly) in enumerate(sorted(polys.items())):
        total = np.zeros(steps, dtype=complex)
        scale = np.zeros(steps)
        for power, (re, im) in poly.items():
            coeff = complex(float(re), float(im))
            total += coeff * t**power
            scale += abs(coeff) * t**power
        values[:, index] = decay * total
        scales[:, index] = decay * scale
    ket = np.repeat(np.arange(r), r)
    bra = np.tile(np.arange(r), r)
    return (np.repeat(t, r * r), np.tile(ket, steps), np.tile(bra, steps),
            values.ravel(), scales.ravel())


def _compare_curve(config, t, ket, bra, re, im, modulus):
    want_t, want_ket, want_bra, want, scale = _expected_curve(config)
    if len(t) != len(want_t):
        return f"{len(t)} rows, expected {len(want_t)}"
    if not (np.array_equal(ket, want_ket) and np.array_equal(bra, want_bra)):
        return "entry columns out of order"
    if not np.array_equal(t, want_t):
        return f"time column differs from the grid at row {int(np.argmax(t != want_t))}"
    limit = DECAY_TOL * scale
    error = np.abs((re + 1j * im) - want)
    bad = np.flatnonzero(error > limit)
    if bad.size:
        row = int(bad[0])
        return f"row {row}: value {re[row]!r}+{im[row]!r}j, closed form {want[row]!r}"
    bad = np.flatnonzero(np.abs(modulus - np.hypot(re, im)) > limit)
    if bad.size:
        return f"row {int(bad[0])}: modulus {modulus[int(bad[0])]!r} is not |re + i im|"
    return None


def check_decay_curve(config, text):
    if config["format"] == "csv":
        header, _, body = text.partition("\n")
        if header != "t,entry_l,entry_m,re,im,modulus":
            return f"bad CSV header {header!r}"
        if not body.endswith("\n"):
            return "CSV does not end with a newline"
        try:
            table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        except ValueError as exc:
            return f"unparsable CSV: {exc}"
        if table.shape[1] != 6:
            return f"CSV rows have {table.shape[1]} fields, expected 6"
        columns = table.T
    else:
        payload = json.loads(text)
        pole = {"E_R": config["E_R"], "Gamma": config["Gamma"], "r": config["r"]}
        if payload.get("pole") != pole:
            return f"pole {payload.get('pole')!r}, expected {pole!r}"
        if payload.get("operator") != config["operator"]:
            return "operator spec not echoed"
        fields = ("t", "entry_l", "entry_m", "re", "im", "modulus")
        columns = np.array([[row[f] for f in fields] for row in payload["rows"]]).T
    t, ket, bra, re, im, modulus = columns
    return _compare_curve(config, t, ket, bra, re, im, modulus)


# -- characterize --------------------------------------------------------------


def _constraint_equations(j):
    """The cancellation system by its definition, in the documented order."""
    equations = []
    for l in range(j):
        for m in range(j - l):
            for n in range(m + l + 1, j + 1):
                terms = [
                    {"n": n, "k": k,
                     "coeff": [float(math.comb(k, l) * math.comb(n - k, m) * (-1) ** (k - l)), 0.0]}
                    for k in range(l, n - m + 1)
                ]
                equations.append({"l": l, "m": m, "n": n, "terms": terms})
    return equations


def _check_restricted(report, r, equation_count):
    want = {"r": r, "j": 2 * (r - 1), "equation_count": equation_count,
            "variable_count": r * r, "solution_dimension": r, "expected_dimension": r,
            "pattern_matches": True, "passed": True}
    for key, value in want.items():
        if report.get(key) != value:
            return f"restricted.{key} = {report.get(key)!r}, expected {value!r}"
    basis = report.get("basis")
    if not isinstance(basis, list) or len(basis) != r:
        return f"restricted basis has {len(basis) if isinstance(basis, list) else basis!r} members"
    orders = []
    for member in basis:
        entries = member["entries"]
        totals = {e["ket"] + e["bra"] for e in entries}
        if len(totals) != 1:
            return "restricted basis member spans several anti-diagonals"
        n = totals.pop()
        if sorted(e["ket"] for e in entries) != list(range(n + 1)):
            return f"restricted basis member of order {n} misses entries"
        ratios = {Fraction(e["coeff"][0]) / math.comb(n, e["ket"]) for e in entries}
        if any(e["coeff"][1] != 0.0 for e in entries) or len(ratios) != 1 or 0 in ratios:
            return f"restricted basis member of order {n} is not a multiple of C({n},k)"
        orders.append(n)
    if sorted(orders) != list(range(r)):
        return f"restricted basis orders {orders}, expected 0..{r - 1}"
    return None


def check_exp_check(argv, text):
    payload = json.loads(text)
    flag, value = argv[1], int(argv[2])
    r = value if flag == "--r" else None
    j = 2 * (r - 1) if r is not None else value
    want = {"j": j, "solution_dimension": j + 1, "expected_dimension": j + 1,
            "binomial_family_matches": True, "passed": True}
    for key, expected in want.items():
        if payload.get(key) != expected:
            return f"{key} = {payload.get(key)!r}, expected {expected!r}"
    equations = _constraint_equations(j)
    if payload.get("equations") != equations:
        return "constraint equations differ from their definition"
    if r is None:
        if "restricted" in payload or "forward_pure_exponential" in payload:
            return "restriction reported for a --j run"
        return None
    if payload.get("forward_pure_exponential") is not True:
        return "forward_pure_exponential is not true"
    return _check_restricted(payload.get("restricted", {}), r, len(equations))


def check_basis(argv, text):
    r = int(argv[argv.index("--r") + 1])
    members = [(n, k, n - k, math.comb(n, k)) for n in range(r) for k in range(n + 1)]
    if "csv" in argv:
        lines = ["n,ket,bra,re,im"] + [f"{n},{k},{m},{c},0" for n, k, m, c in members]
        want = "\n".join(lines) + "\n"
        return None if text == want else "basis CSV differs from the C(n,k) pattern"
    payload = json.loads(text)
    want = [
        {"n": n, "entries": [{"ket": k, "bra": n - k, "coeff": [float(math.comb(n, k)), 0.0]}
                             for k in range(n + 1)]}
        for n in range(r)
    ]
    return None if payload == want else "basis JSON differs from the C(n,k) pattern"


def check_characterize(argv, text):
    if argv[0] == "basis":
        return check_basis(argv, text)
    return check_exp_check(argv, text)


# -- residue -------------------------------------------------------------------


class SympyResidue:
    """Residue term -2*pi*i * sum_n laurent[n]/n! (ket*bra)^(n)(pole), by sympy."""

    def __init__(self):
        import sympy

        self.sympy = sympy
        self.z = sympy.Symbol("z")

    def _number(self, value):
        re, im = _exact(value)
        return self.sympy.Rational(re.numerator, re.denominator) + self.sympy.I * self.sympy.Rational(
            im.numerator, im.denominator
        )

    def _poly(self, coeffs):
        return sum(self._number(c) * self.z**p for p, c in enumerate(coeffs))

    def __call__(self, model):
        sp = self.sympy
        ket, bra = sorted(model["test_functions"], key=lambda f: f["role"] != "ket")
        product = (self._poly(ket["num"]) * self._poly(bra["num"])) / (
            self._poly(ket["den"]) * self._poly(bra["den"])
        )
        pole = self._number(model["E_R"]) - sp.I * self._number(model["Gamma"]) / 2
        core = 0
        derivative = product
        for n, coeff in enumerate(model["laurent"]):
            if n:
                derivative = sp.diff(derivative, self.z)
            core += self._number(coeff) * derivative.subs(self.z, pole) / math.factorial(n)
        return complex(0.0, -2.0 * math.pi) * complex(sp.N(core, 30))


def check_residue(model, text, sympy_residue):
    payload = json.loads(text)
    for key in ("direct", "background", "residue", "discrepancy", "tolerance",
                "quadrature_error", "converged", "passed"):
        if key not in payload:
            return f"missing field {key!r}"
    direct, background, residue = (_complex(payload[k]) for k in ("direct", "background", "residue"))
    if not all(math.isfinite(abs(v)) for v in (direct, background, residue)):
        return "non-finite value"
    if payload["converged"] is not True or payload["passed"] is not True:
        return f"converged={payload['converged']!r} passed={payload['passed']!r}"
    if payload["tolerance"] != RESIDUE_TOL:
        return f"tolerance {payload['tolerance']!r}, expected {RESIDUE_TOL!r}"
    mismatch = abs(direct - (background + residue))
    discrepancy = mismatch / abs(direct) if direct else mismatch
    if discrepancy > RESIDUE_TOL:
        return f"direct != background + residue: relative discrepancy {discrepancy:.3g}"
    if not math.isclose(discrepancy, payload["discrepancy"], rel_tol=1e-9, abs_tol=1e-300):
        return f"reported discrepancy {payload['discrepancy']!r}, recomputed {discrepancy!r}"
    error = payload["quadrature_error"]
    if not (isinstance(error, float) and 0.0 <= error < math.inf):
        return f"quadrature error {error!r} is not a finite nonnegative number"
    if sympy_residue is not None and model["r"] <= SYMPY_MAX_ORDER:
        want = sympy_residue(model)
        if abs(residue - want) > SYMPY_TOL * max(abs(want), abs(direct)):
            return f"residue {residue!r}, sympy gives {want!r}"
    return None


def check(workload, job, text, sympy_residue=None):
    """None if the job's output text is right, else the reason it is wrong."""
    try:
        if workload == "decay_curve":
            return check_decay_curve(job["spec"], text)
        if workload == "characterize":
            return check_characterize(job["spec"]["argv"], text)
        return check_residue(job["spec"], text, sympy_residue)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
