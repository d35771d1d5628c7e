"""Acceptance suite: one test per primary criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here exactly as the criteria state them; the
exact-arithmetic checks use tolerance 0 (identity, not approximation).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from gamow.cli import EXIT_OK, main
from gamow.exact import ComplexRational, ONE, ZERO, binomial
from gamow.jordan import ComplexPole, build_jordan_block, check_jordan_degree, evolve_ket, evolve_state
from gamow.operators import (
    binomial_family_matches_nullspace,
    evolve_operator,
    exponential_subspace_basis,
    exponentiality_constraints,
    is_pure_exponential,
    operator_from_coefficients,
    solve_binomial_recursion,
    verify_restriction_equivalence,
)
from gamow.smatrix import (
    RationalFunction,
    SMatrixModel,
    TestFunction,
    decomposition_check,
)


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - start:.2f}s)")


def cr(re, im=0):
    return ComplexRational(re, im)


def random_rational(rng, span=8):
    return Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 7))


def satisfies_binomial_pattern(entries, r):
    for k in range(r):
        for m in range(r):
            value = entries.get((k, m), ZERO)
            if k + m <= r - 1:
                anchor = entries.get((0, k + m), ZERO)
                if value != anchor * binomial(k + m, k):
                    return False
            elif value:
                return False
    return True


def test_iff_theorem_nullspace_dimensions_and_pattern():
    """Restricted system: exact dimension r and binomial-pattern basis, r = 1..5."""
    with criterion("iff-theorem nullspace"):
        start = time.perf_counter()
        for r in range(1, 6):
            j = 2 * (r - 1)
            report = verify_restriction_equivalence(ComplexPole(1, 1, r))
            assert report.j == j
            assert report.solution_dimension == r, f"r={r}: dim {report.solution_dimension}"
            assert report.pattern_matches, f"r={r}: basis does not match the binomial pattern"
            # unrestricted system over the total-order triangle: dimension j + 1
            system = exponentiality_constraints(j)
            assert system.solution_dimension == j + 1
            assert binomial_family_matches_nullspace(system, solve_binomial_recursion(j))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds the 10s budget"


def test_forward_direction_pure_exponential_exactly():
    """Each basis member evolves with zero coefficient on every positive power of t."""
    with criterion("forward direction"):
        for r in range(1, 6):
            pole = ComplexPole(Fraction(3, 2), Fraction(2, 3), r)
            for member in exponential_subspace_basis(pole):
                evolved = evolve_operator(member)
                for (ket, bra), poly in evolved.items():
                    for power in range(1, poly.degree + 1):
                        assert poly.coefficient(power) == ZERO, (
                            f"r={r}, entry ({ket},{bra}): t^{power} survives"
                        )
                assert evolved.at_time_zero() == member


def test_reverse_direction_random_violators_all_fail():
    """100 random off-pattern coefficient tables per order: no false passes."""
    with criterion("reverse direction"):
        rng = random.Random(3141592)
        for r in (2, 3):
            pole = ComplexPole(1, 1, r)
            drawn = 0
            while drawn < 100:
                entries = {
                    (k, m): cr(random_rational(rng), random_rational(rng))
                    for k in range(r)
                    for m in range(r)
                }
                if satisfies_binomial_pattern(entries, r):
                    continue
                drawn += 1
                operator = operator_from_coefficients(pole, entries)
                assert not is_pure_exponential(evolve_operator(operator)), (
                    f"false pass at r={r}: {entries}"
                )


def test_recursion_equals_closed_form():
    """The two-term recursion reproduces C(n,k) for all n <= 8 (exact integers)."""
    with criterion("recursion vs closed form"):
        family = solve_binomial_recursion(8)
        for n in range(9):
            for k in range(n + 1):
                assert family[n][k] == binomial(n, k)


def test_binomial_identity_and_collapse():
    """The two combinatorial identities behind the proof, all indices n <= 12."""
    with criterion("binomial identities"):
        for n in range(13):
            for m in range(n + 1):
                for l in range(n - m + 1):
                    for k in range(l, n - m + 1):
                        assert binomial(n, k) * binomial(k, l) * binomial(n - k, m) == (
                            binomial(n, m)
                            * binomial(n - m, l)
                            * binomial(n - m - l, k - l)
                        )
                    alternating = sum(
                        binomial(n - m - l, k - l) * (-1) ** (k - l)
                        for k in range(l, n - m + 1)
                    )
                    assert alternating == (0 if n - m - l >= 1 else 1)


def _residue_corpus():
    """>= 20 (model, ket, bra) combinations covering orders 1 through 4."""

    def fn(role, num, den):
        return TestFunction(RationalFunction.from_coefficient_lists(num, den), role)

    pairs = [
        ( # 1/(z-2i)^2 and 1/(z-3i)
            fn("ket", [1], [cr(-4), cr(0, -4), 1]),
            fn("bra", [1], [cr(0, -3), 1]),
        ),
        ( # z/((z-i)(z-2i)(z-4i)) and 1/((z-i)(z-5i))
            fn("ket", [0, 1], [cr(0, 8), cr(-14), cr(0, -7), 1]),
            fn("bra", [1], [cr(-5), cr(0, -6), 1]),
        ),
        ( # (z+1)/((z-2i)^2 (z-3i)) and 1/(z-4i)
            fn("ket", [1, 1], [cr(0, 12), cr(-16), cr(0, -7), 1]),
            fn("bra", [1], [cr(0, -4), 1]),
        ),
    ]
    backgrounds = [
        None,
        RationalFunction.from_coefficient_lists([Fraction(1, 20)], [cr(0, -5), 1]),
        RationalFunction.from_coefficient_lists([1, 1], [cr(-42), cr(0, -13), 1]),
    ]
    laurent_by_order = {
        1: [[cr(0, -1)], [cr(2, 1)]],
        2: [[cr(0, -1), cr(Fraction(1, 4))], [cr(1, 1), cr(0, 2)]],
        3: [[cr(0, -1), cr(Fraction(1, 4)), cr(Fraction(1, 10), Fraction(1, 5))],
            [cr(2), cr(0, -1), cr(1, 1)]],
        4: [[cr(0, -1), cr(1), cr(0, 1), cr(Fraction(1, 2))],
            [cr(1), cr(2), cr(3), cr(0, -2)]],
    }
    poles = {
        1: [ComplexPole(1, 1, 1), ComplexPole(2, Fraction(1, 2), 1)],
        2: [ComplexPole(1, 1, 2), ComplexPole(Fraction(1, 2), 2, 2)],
        3: [ComplexPole(2, 1, 3), ComplexPole(1, Fraction(1, 2), 3)],
        4: [ComplexPole(1, 1, 4), ComplexPole(3, 2, 4)],
    }
    corpus = []
    for order in (1, 2, 3, 4):
        for which, pole in enumerate(poles[order]):
            laurent = laurent_by_order[order][which]
            background = backgrounds[(order + which) % len(backgrounds)]
            model = SMatrixModel(pole, laurent, background)
            for ket_fn, bra_fn in pairs:
                corpus.append((model, ket_fn, bra_fn))
    return corpus


def test_residue_decomposition_corpus():
    """|direct - (background + residue)| / |direct| < 1e-8 across the corpus."""
    with criterion("residue decomposition"):
        start = time.perf_counter()
        corpus = _residue_corpus()
        assert len(corpus) >= 20
        assert {model.pole.order for model, _, _ in corpus} == {1, 2, 3, 4}
        for model, ket_fn, bra_fn in corpus:
            report = decomposition_check(model, ket_fn, bra_fn, tolerance=1e-8)
            assert report.converged, f"quadrature did not converge for {model!r}"
            assert report.discrepancy < 1e-8, (
                f"discrepancy {report.discrepancy:.3e} for order {model.pole.order}"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds the 60s budget"


def test_jordan_structure_and_exact_exponential():
    """Chain-degree conditions for all k < r <= 6; evolution equals the nilpotent series."""
    with criterion("jordan structure"):
        for r in range(1, 7):
            pole = ComplexPole(Fraction(5, 4), Fraction(3, 7), r)
            block = build_jordan_block(pole)
            z = pole.position
            nilpotent = [
                [block.entries[i][j] - (z if i == j else ZERO) for j in range(r)]
                for i in range(r)
            ]
            for k in range(r):
                assert check_jordan_degree(block, k) == (True, True)
                for t in (0, Fraction(1, 3), Fraction(7, 2), Fraction(11, 7)):
                    # terminating series: sum_q (-it)^q / q! N^q e_k, exact
                    column = [ONE if p == k else ZERO for p in range(r)]
                    total = [ZERO] * r
                    vector = list(column)
                    coefficient = ONE
                    for q in range(r):
                        if q > 0:
                            vector = [
                                sum((row[j] * vector[j] for j in range(r)), ZERO)
                                for row in nilpotent
                            ]
                            coefficient = coefficient * cr(0, -t) / q
                        total = [a + coefficient * b for a, b in zip(total, vector)]
                    assert evolve_ket(pole, k, t).coefficients == tuple(total)


def test_semigroup_property_exact():
    """Evolving by t1 then t2 equals evolving by t1 + t2, exactly, 50 random pairs."""
    with criterion("semigroup"):
        rng = random.Random(271828)
        for _pair in range(50):
            t1 = Fraction(rng.randrange(0, 30), rng.randrange(1, 10))
            t2 = Fraction(rng.randrange(0, 30), rng.randrange(1, 10))
            for r in range(1, 5):
                pole = ComplexPole(Fraction(1, 2), Fraction(4, 3), r)
                for k in range(r):
                    stepwise = evolve_state(evolve_ket(pole, k, t1), t2)
                    direct = evolve_ket(pole, k, t1 + t2)
                    assert stepwise == direct


def test_decay_curve_contract(tmp_path):
    """CLI curves: modulus(t)/modulus(0) equals exp(-width*t) within 1e-12 everywhere."""
    with criterion("decay-curve contract"):
        width = 0.8
        r = 3
        for n in range(r):
            out = tmp_path / f"curve_{n}.csv"
            code = main(
                [
                    "evolve", "--gamma", str(width), "--energy", "1.5", "--r", str(r),
                    "--n", str(n), "--t-end", "4.0",
                    "--steps", "41", "--out", str(out),
                ]
            )
            assert code == EXIT_OK
            lines = out.read_text().splitlines()
            assert lines[0] == "t,entry_l,entry_m,re,im,modulus"
            base = {}
            for line in lines[1:]:
                cells = line.split(",")
                t, ket, bra, modulus = float(cells[0]), cells[1], cells[2], float(cells[5])
                if t == 0.0:
                    base[(ket, bra)] = modulus
            for line in lines[1:]:
                cells = line.split(",")
                t, ket, bra, modulus = float(cells[0]), cells[1], cells[2], float(cells[5])
                if base[(ket, bra)] == 0.0:
                    assert modulus == 0.0
                    continue
                ratio = modulus / base[(ket, bra)]
                assert abs(ratio - math.exp(-width * t)) <= 1e-12, (
                    f"n={n}, t={t}, entry ({ket},{bra}): ratio {ratio!r}"
                )
