"""The block-by-block integer solver against the flat exact and sympy oracles.

The constraint system is solved one total order at a time by fraction-free
integer elimination.  The flat Gaussian-rational `nullspace` over all
unknowns, and sympy's `Matrix.nullspace`, are independent oracles: both
must give the same dimension and the same canonical vectors (unit at each
free unknown, zero at the others, ascending column order).
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gamow.exact import integer_nullspace, nullspace
from gamow.jordan import ComplexPole
from gamow.operators import (
    ConstraintBlock,
    ConstraintSystem,
    binomial_family_matches_nullspace,
    exponentiality_constraints,
    solve_binomial_recursion,
    verify_restriction_equivalence,
)

ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def block_vectors(system):
    return [tuple(m.entry((k, n - k)) for n, k in system.variables)
            for m in system.nullspace_basis()]


def flat_restricted_nullspace(r):
    """The restricted system as one flat matrix over the r*r dyads, (ket, bra) order."""
    system = exponentiality_constraints(2 * (r - 1))
    keys = [(k, m) for k in range(r) for m in range(r)]
    index = {key: i for i, key in enumerate(keys)}
    rows = []
    for eq in system.equations:
        row = [0] * len(keys)
        for (n, k), coeff in eq.terms:
            if k < r and n - k < r:
                row[index[(k, n - k)]] += coeff
        rows.append(row)
    return keys, nullspace(rows, len(keys))


def sympy_nullspace(rows, num_columns):
    vectors = sympy.Matrix(rows).nullspace() if rows else sympy.eye(num_columns).columnspace()
    return [tuple(Fraction(int(x.p), int(x.q)) for x in vector) for vector in vectors]


class TestFlatOracle:
    @pytest.mark.parametrize("j", range(9))
    def test_same_dimension_and_canonical_vectors(self, j):
        system = exponentiality_constraints(j)
        flat = nullspace(system.coefficient_rows(), system.variable_count)
        assert system.solution_dimension == len(flat) == j + 1
        assert block_vectors(system) == flat

    @pytest.mark.parametrize("r", range(1, 6))
    def test_restricted_basis_matches_flat_nullspace(self, r):
        keys, flat = flat_restricted_nullspace(r)
        report = verify_restriction_equivalence(ComplexPole(0, 1, r))
        assert report.solution_dimension == len(flat) == r
        assert [tuple(m.entry(key) for key in keys) for m in report.basis] == flat

    @ORACLE_SETTINGS
    @given(j=st.integers(0, 5), data=st.data())
    def test_partial_systems(self, j, data):
        """Dropping equations enlarges blocks' nullspaces; both solvers must agree."""
        full = exponentiality_constraints(j)
        keep = data.draw(st.lists(st.booleans(), min_size=full.equation_count,
                                  max_size=full.equation_count))
        system = ConstraintSystem(j, [eq for eq, kept in zip(full.equations, keep) if kept])
        flat = nullspace(system.coefficient_rows(), system.variable_count)
        assert system.solution_dimension == len(flat)
        assert block_vectors(system) == flat
        matches = binomial_family_matches_nullspace(system, solve_binomial_recursion(j))
        assert matches == (len(flat) == j + 1)


class TestSympyOracle:
    @pytest.mark.parametrize("j", range(6))
    def test_same_canonical_vectors(self, j):
        system = exponentiality_constraints(j)
        assert block_vectors(system) == sympy_nullspace(
            system.coefficient_rows(), system.variable_count
        )


class TestIntegerNullspace:
    @ORACLE_SETTINGS
    @given(
        st.integers(1, 6).flatmap(
            lambda cols: st.tuples(
                st.just(cols),
                st.lists(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
                         max_size=7),
            )
        )
    )
    def test_matches_flat_nullspace(self, case):
        cols, rows = case
        free, basis = integer_nullspace(rows, cols)
        assert basis == nullspace(rows, cols)
        assert all(vector[c] == 1 for c, vector in zip(free, basis))

    def test_rank_deficient_with_zero_column(self):
        free, basis = integer_nullspace([[0, 2, 4], [0, 1, 2]], 3)
        assert free == [0, 2]
        assert basis == [(1, 0, 0), (0, -2, 1)]


class TestBlocks:
    @pytest.mark.parametrize("j", [0, 1, 6, 20])
    def test_each_block_is_the_binomial_line(self, j):
        for block in exponentiality_constraints(j).blocks():
            assert block.columns == tuple(range(block.n + 1))
            assert block.rank == block.n
            assert block.free == (block.n,)
            assert block.nullspace == (tuple(Fraction(sympy.binomial(block.n, k))
                                             for k in range(block.n + 1)),)

    def test_restricted_blocks_drop_out_of_range_dyads(self):
        blocks = exponentiality_constraints(4).blocks(order=3)
        assert [block.columns for block in blocks] == [(0,), (0, 1), (0, 1, 2), (1, 2), (2,)]
        assert [len(block.free) for block in blocks] == [1, 1, 1, 0, 0]

    def test_solved_once_per_instance(self):
        system = exponentiality_constraints(3)
        assert system.blocks() is system.blocks()
        assert system.blocks(order=2) is system.blocks(order=2)
        with pytest.raises(ValueError):
            system.blocks(order=0)

    def test_spans_exactly(self):
        block = ConstraintBlock(2, (0, 1, 2), (2,), ((Fraction(1), Fraction(2), Fraction(1)),))
        assert block.spans_exactly([3, 6, 3])
        assert not block.spans_exactly([1, 2, 2])
        assert not block.spans_exactly([0, 0, 0])
        assert ConstraintBlock(3, (1, 2), (), ()).spans_exactly([0, 0])
        assert not ConstraintBlock(3, (1, 2), (), ()).spans_exactly([1, 2])
        assert ConstraintBlock(5, (), (), ()).spans_exactly([])

    def test_family_of_another_bound_does_not_match(self):
        assert not binomial_family_matches_nullspace(
            exponentiality_constraints(3), solve_binomial_recursion(4)
        )
