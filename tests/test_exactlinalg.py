"""The sparse Gauss-Jordan eliminator and its callers, on generated matrices."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from siegeltheta.exactlinalg import (
    det_definite,
    frac_matrix,
    gauss_jordan,
    identity_frac,
    mat_inverse,
    mat_mul,
    posdef_solve,
    rational_kernel,
)

_ENTRY = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _matrices(draw, rows=None, cols=None):
    """Small rational matrices, some with a zero row and some with a zero
    top-left entry, so that elimination needs a row swap."""
    r = draw(st.integers(1, 4)) if rows is None else rows
    c = draw(st.integers(1, 4)) if cols is None else cols
    m = [[Fraction(x) for x in row] for row in draw(st.lists(
        st.lists(_ENTRY, min_size=c, max_size=c), min_size=r, max_size=r))]
    if r > 1 and draw(st.booleans()):
        m[draw(st.integers(0, r - 1))] = [Fraction(0)] * c
    if r > 1 and draw(st.booleans()):
        m[0][0] = Fraction(0)
    return m


@st.composite
def _square(draw):
    n = draw(st.integers(1, 4))
    return draw(_matrices(n, n))


def _sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(m=_square())
@example(m=frac_matrix([[0, 1], [1, 0]]))
@example(m=frac_matrix([[1, 2], [2, 4]]))
@example(m=frac_matrix([[1, 2, 3], [0, 0, 0], [4, 5, 6]]))
def test_mat_inverse_is_exact_or_singular(m):
    if _sympy(m).det() == 0:
        with pytest.raises(ValueError, match="singular"):
            mat_inverse(m)
    else:
        assert mat_mul(mat_inverse(m), m) == identity_frac(len(m))


@st.composite
def _symmetric(draw):
    """Random symmetric matrices and shifted Gram matrices B^T B + c I, which
    are positive definite often enough to exercise both answers."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        b = draw(_matrices(n, n))
        shift = draw(st.sampled_from([-1, 0, Fraction(1, 2), 1]))
        return [[sum(b[k][i] * b[k][j] for k in range(n)) + (shift if i == j else 0)
                 for j in range(n)] for i in range(n)]
    m = draw(_matrices(n, n))
    return [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(s=_symmetric())
@example(s=frac_matrix([[0, 1], [1, 0]]))
@example(s=frac_matrix([[1, 1], [1, 1]]))
@example(s=frac_matrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))
def test_posdef_solve_is_sylvester(s):
    # None iff some leading minor is <= 0; otherwise M X = B exactly, for a
    # rational right-hand side with one column more than M
    minors = [_sympy(s)[:k, :k].det() for k in range(1, len(s) + 1)]
    b = [[Fraction(i - j, 1 + i) for j in range(len(s) + 1)] for i in range(len(s))]
    x = posdef_solve(s, b)
    assert (x is None) == (not all(d > 0 for d in minors))
    if x is not None:
        assert mat_mul(s, x) == b


@settings(derandomize=True, deadline=None, max_examples=100)
@given(s=_symmetric())
@example(s=frac_matrix([[0, 1], [1, 0]]))
@example(s=frac_matrix([[-2, 1], [1, -2]]))
@example(s=frac_matrix([[-1, 0], [0, 0]]))
@example(s=frac_matrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))
def test_det_definite_is_sylvester(s):
    # 1 iff every leading minor is positive, -1 iff the k-th has the sign
    # (-1)^k, which is the test for -M; the det is sympy's either way
    minors = [_sympy(s)[:k, :k].det() for k in range(1, len(s) + 1)]
    det, definite = det_definite(s)
    assert det == minors[-1]
    assert (definite == 1) == all(d > 0 for d in minors)
    assert (definite == -1) == all((-1) ** k * d > 0 for k, d in enumerate(minors, 1))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(m=_square())
@example(m=frac_matrix([[0, 1], [1, 0]]))
@example(m=frac_matrix([[1, 2], [2, 4]]))
@example(m=frac_matrix([[0, 0, 1], [0, 2, 0], [3, 0, 0]]))
def test_mat_det_is_sympys(m):
    assert det_definite(m)[0] == _sympy(m).det()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(m=st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_mat_det_of_an_integer_matrix_is_sympys(m):
    det = det_definite(m)[0]
    assert det.denominator == 1 and det == sympy.Matrix(m).det()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(m=st.integers(1, 5).flatmap(lambda r: st.integers(1, 6).flatmap(lambda c: _matrices(r, c))))
@example(m=frac_matrix([[0, 0, 0]]))
@example(m=frac_matrix([[0, 2, 4], [1, 1, 1]]))
def test_rational_kernel_is_a_primitive_basis(m):
    ncols = len(m[0])
    sparse = [{c: x for c, x in enumerate(row) if x} for row in m]
    kernel = rational_kernel(sparse, ncols)
    assert len(kernel) == ncols - _sympy(m).rank()
    for v in kernel:
        assert len(v) == ncols and all(x.denominator == 1 for x in v)
        assert math.gcd(*(int(x) for x in v)) == 1
        assert next(x for x in v if x) > 0
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    if kernel:
        assert _sympy(kernel).rank() == len(kernel)


def test_gauss_jordan_keeps_its_contract_on_sparse_rows():
    # column 0 is empty, column 1 needs a swap, the augmented column rides
    # along, and the loop stops at full rank before column 3
    rows = [{2: Fraction(2), 4: Fraction(1)}, {1: Fraction(3), 2: Fraction(3)}]
    pivots, swaps = gauss_jordan(rows, 4)
    assert pivots == [(1, 3), (2, 2)] and swaps == 1
    assert rows == [{1: 1, 4: Fraction(-1, 2)}, {2: 1, 4: Fraction(1, 2)}]
