"""Integer linear algebra: frozen examples plus randomized properties.

The randomized checks use fraction Gaussian elimination from helpers as an
independent oracle for ranks and unimodularity.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from scaledlines.intlinalg import (HnfSolver, IntMatrix, hermite_normal_form,
                                   kernel_basis, lattice_equal, rank,
                                   row_lattice_hnf, smith_normal_form, solve_integer)


class TestIntMatrix:
    def test_basic_shape(self):
        m = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m.row(1) == (4, 5, 6)
        assert m[0] == (1, 2, 3)
        assert m.entries == (1, 2, 3, 4, 5, 6)
        assert list(m) == [(1, 2, 3), (4, 5, 6)]

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            IntMatrix([[1.5]])
        with pytest.raises(TypeError):
            IntMatrix([[True]])

    def test_empty_needs_cols(self):
        with pytest.raises(ValueError):
            IntMatrix([])
        m = IntMatrix([], cols=3)
        assert (m.rows, m.cols) == (0, 3)

    def test_identity_zeros(self):
        assert IntMatrix.identity(2) == IntMatrix([[1, 0], [0, 1]])
        assert IntMatrix.zeros(2, 3) == IntMatrix([[0, 0, 0], [0, 0, 0]])

    def test_transpose(self):
        m = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert m.transpose() == IntMatrix([[1, 4], [2, 5], [3, 6]])
        assert IntMatrix([], cols=2).transpose() == IntMatrix([[], []], cols=0)

    def test_matmul_matvec(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert a @ b == IntMatrix([[2, 1], [4, 3]])
        assert a.matvec((1, 1)) == (3, 7)
        with pytest.raises(ValueError):
            a.matvec((1, 1, 1))

    def test_value_semantics(self):
        assert IntMatrix([[1, 2]]) == IntMatrix([[1, 2]])
        assert hash(IntMatrix([[1, 2]])) == hash(IntMatrix([[1, 2]]))
        assert IntMatrix([[1, 2]]) != IntMatrix([[2, 1]])


class TestHermite:
    def test_pinned_example(self):
        m = IntMatrix([[2, 4], [1, 3]])
        h, u = hermite_normal_form(m)
        assert h == IntMatrix([[1, 1], [0, 2]])
        assert u @ m == h
        assert helpers.fraction_det(u.row_list()) in (1, -1)

    def test_identity_fixed(self):
        m = IntMatrix.identity(3)
        h, u = hermite_normal_form(m)
        assert h == m
        assert u == m

    def test_zero_matrix(self):
        m = IntMatrix.zeros(2, 3)
        h, _ = hermite_normal_form(m)
        assert h == m
        assert rank(m) == 0

    def test_rank(self):
        assert rank(IntMatrix([[2, 4], [1, 3]])) == 2
        assert rank(IntMatrix([[1, 2], [2, 4]])) == 1

    def test_row_lattice_drops_zero_rows(self):
        assert row_lattice_hnf(IntMatrix([[1, 2], [2, 4]])) == IntMatrix([[1, 2]])

    def test_lattice_equal(self):
        assert lattice_equal(IntMatrix([[1, 2], [2, 4]]), IntMatrix([[1, 2]]))
        assert not lattice_equal(IntMatrix([[2, 4]]), IntMatrix([[1, 2]]))
        with pytest.raises(ValueError):
            lattice_equal(IntMatrix([[1]]), IntMatrix([[1, 0]]))


class TestKernel:
    def test_pinned_example(self):
        k = kernel_basis(IntMatrix([[1, 1, -1]]))
        assert k == IntMatrix([[1, 0, 1], [0, 1, 1]])

    def test_trivial_kernel(self):
        assert kernel_basis(IntMatrix.identity(3)).rows == 0
        assert kernel_basis(IntMatrix.identity(3)).cols == 3

    def test_saturated(self):
        k = kernel_basis(IntMatrix([[2, 0], [0, 0]]))
        assert k == IntMatrix([[0, 1]])

    def test_saturation(self):
        # The kernel of the kernel is the saturation of the row lattice.
        def saturate(m):
            return kernel_basis(kernel_basis(m))

        assert saturate(IntMatrix([[2, 0], [0, 4]])) == IntMatrix.identity(2)
        assert saturate(IntMatrix([[2, 2]])) == IntMatrix([[1, 1]])


class TestSolve:
    def test_diagonal(self):
        m = IntMatrix([[2, 0], [0, 3]])
        assert solve_integer(m, (4, 9)) == (2, 3)
        assert solve_integer(m, (1, 0)) is None

    def test_underdetermined_is_canonical(self):
        m = IntMatrix([[1, 1]])
        sol = solve_integer(m, (5,))
        assert sol is not None
        assert m.matvec(sol) == (5,)
        assert sol == solve_integer(m, (5,))

    def test_inconsistent(self):
        m = IntMatrix([[1, 0], [1, 0]])
        assert solve_integer(m, (0, 1)) is None

    def test_solver_reuse_and_dim_check(self):
        solver = HnfSolver(IntMatrix([[1, 2], [3, 4]]))
        assert solver.solve((1, 3)) == (1, 0)
        assert solver.solve((0, 2)) == (2, -1)
        with pytest.raises(ValueError):
            solver.solve((1, 2, 3))


class TestSmith:
    def test_pinned_examples(self):
        assert smith_normal_form(IntMatrix([[2, 0], [0, 3]])) == (1, 6)
        assert smith_normal_form(IntMatrix([[2, 4], [4, 4]])) == (2, 4)
        assert smith_normal_form(IntMatrix.zeros(2, 2)) == ()

    def test_pinned_factors_match_determinant(self):
        m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert smith_normal_form(m) == (2, 2, 156)
        assert 2 * 2 * 156 == abs(helpers.fraction_det(m.row_list()))


def matrices(max_dim=5, max_entry=9):
    side = st.integers(1, max_dim)
    return side.flatmap(lambda r: side.flatmap(lambda c: st.lists(
        st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
        min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_hnf_properties(rows):
    m = IntMatrix(rows)
    h, u = hermite_normal_form(m)
    assert u @ m == h
    assert helpers.fraction_det(u.row_list()) in (1, -1)
    # Echelon shape with positive pivots and reduced entries above them.
    last = -1
    for i in range(h.rows):
        row = h.row(i)
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            assert all(not any(h.row(k)) for k in range(i, h.rows))
            break
        j = nz[0]
        assert j > last
        last = j
        assert row[j] > 0
        for k in range(i):
            assert 0 <= h[k][j] < row[j]
    assert rank(m) == helpers.fraction_rank(rows)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_properties(rows):
    m = IntMatrix(rows)
    k = kernel_basis(m)
    assert k.cols == m.cols
    for row in k:
        assert m.matvec(row) == (0,) * m.rows
    assert k.rows + rank(m) == m.cols
    # Saturation: the kernel lattice cannot grow, and it is already canonical.
    if k.rows:
        assert kernel_basis(kernel_basis(k)) == k


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(st.integers(-4, 4), min_size=5, max_size=5))
def test_solve_recovers_images(rows, x):
    m = IntMatrix(rows)
    vec = tuple(x[: m.cols])
    b = m.matvec(vec)
    sol = solve_integer(m, b)
    assert sol is not None
    assert m.matvec(sol) == b


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=4, max_entry=6))
def test_smith_properties(rows):
    m = IntMatrix(rows)
    factors = smith_normal_form(m)
    assert len(factors) == rank(m)
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    if m.rows == m.cols:
        # |det| is the product of the factors, and 0 when one is missing.
        product = math.prod(factors) if len(factors) == m.rows else 0
        assert product == abs(helpers.fraction_det(rows))
