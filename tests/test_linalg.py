"""The tests' exact rational elimination: echelon form, kernels, rank-nullity."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from linalg_oracle import matvec, nullspace, rref


def test_rref_known_system():
    m, pivots = rref([[2, 4], [1, 3]])
    assert pivots == [0, 1]
    assert m == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_rref_rank_deficient():
    m, pivots = rref([[1, 2, 3], [2, 4, 6], [1, 2, 4]])
    assert pivots == [0, 2]
    assert m[0] == [Fraction(1), Fraction(2), Fraction(0)]
    assert m[1] == [Fraction(0), Fraction(0), Fraction(1)]


def test_nullspace_of_difference_system():
    # x0 = x1 = x2: kernel is spanned by the all-ones vector
    rows = [[1, -1, 0], [0, 1, -1]]
    basis = nullspace(rows)
    assert len(basis) == 1
    assert basis[0] == [Fraction(1), Fraction(1), Fraction(1)]


def test_nullspace_trivial_kernel():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_no_rows_gives_standard_basis():
    basis = nullspace([], ncols=3)
    assert len(basis) == 3
    assert basis[1][1] == 1


def test_exactness_with_awkward_fractions():
    rows = [[Fraction(1, 3), Fraction(1, 7), Fraction(-2, 21)]]
    basis = nullspace(rows)
    assert len(basis) == 2
    for v in basis:
        assert matvec(rows, v) == [Fraction(0)]


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=cols, max_size=cols),
        min_size=1,
        max_size=5,
    )
)


@given(small_matrices)
def test_nullspace_vectors_are_in_the_kernel(rows):
    ncols = len(rows[0])
    basis = nullspace(rows, ncols=ncols)
    zero = [Fraction(0)] * len(rows)
    for v in basis:
        assert matvec(rows, v) == zero
    # rank-nullity with the pivot count from the same elimination
    _, pivots = rref(rows)
    assert len(pivots) + len(basis) == ncols
