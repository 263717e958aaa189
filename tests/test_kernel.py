"""The integer operator kernel of polyalg against the per-term PiScalar operators of reference.py."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import reference
from siegeltheta.polyalg import (
    HeatPlan,
    MatPoly,
    basis_homopol,
    euler_entry,
    exp_trace_laplace,
    exp_trace_laplace_weighted,
    laplace_entry,
    trace_laplace,
    trace_laplace_weighted,
    vigneras_apply,
    vigneras_residual,
)
from siegeltheta.quadform import decompose
from siegeltheta.scalars import PiScalar

# integer A of every signature, the rational M of an exact split ([[0, 2], [2,
# 3]] has |A| = [[8, 6], [6, 17]] / 5) and the float-embedded M of [[2, 1], [1, -3]]
FORMS = [
    [[2]], [[-3]],
    [[2, 1], [1, 2]], [[-2, 1], [1, -3]], [[2, 1], [1, -3]], [[0, 1], [1, 0]],
    decompose([[0, 2], [2, 3]]).fraction_matrix("M"),
    decompose([[2, 1], [1, -3]]).fraction_matrix("M"),
    [[2, 1, 0], [1, 2, 1], [0, 1, 4]], [[2, 0, 0], [0, -2, 1], [0, 1, 3]], [[-2, 1, 0], [1, -2, 0], [0, 0, -1]],
    decompose([[1, 2, 0], [2, 1, 0], [0, 0, -3]]).fraction_matrix("M"),
]
HEAT_TIMES = [
    PiScalar.from_parts(Fraction(-1, 8), 0, -1),
    PiScalar.from_parts(0, Fraction(1, 4), -1),
    PiScalar({0: (Fraction(2, 3), 0), -1: (1, Fraction(-1, 2))}),
]

_PARTS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _coefficients():
    """Complex rationals on up to three pi powers."""
    return st.dictionaries(st.integers(-2, 1), st.tuples(_PARTS, _PARTS), min_size=1, max_size=3).map(PiScalar)


@st.composite
def _polys(draw, m, n, degree=5):
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        variables = draw(st.lists(st.integers(0, m * n - 1), max_size=degree))
        terms[tuple(np.bincount(variables, minlength=m * n).tolist())] = draw(_coefficients())
    return MatPoly(m, n, terms)


@st.composite
def _cases(draw):
    A = draw(st.sampled_from(FORMS))
    m, n = len(A), draw(st.integers(1, 2))
    f = draw(_polys(m, n))
    W_rat = [[draw(_PARTS) for _ in range(n)] for _ in range(n)]
    Z = np.array([[draw(st.floats(-2, 2)) for _ in range(n)] for _ in range(n)]) + 3j * np.eye(n)
    W_cpx = [[PiScalar.from_number(complex(x)) for x in row] for row in np.linalg.inv(Z + Z.T).tolist()]
    aminus = [[Fraction(0)] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            aminus[a][b] = aminus[b][a] = draw(_PARTS)
    lam = draw(st.one_of(st.integers(-3, 3), _PARTS, _coefficients()))
    return A, f, W_rat, W_cpx, aminus, lam, draw(st.sampled_from(HEAT_TIMES))


def _same(got, want):
    return got == want and list(got.terms) == list(want.terms)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=_cases())
def test_the_kernel_equals_the_per_term_operators(case):
    A, f, W_rat, W_cpx, aminus, lam, c = case
    n = f.n
    for i in range(n):
        for j in range(n):
            assert _same(euler_entry(f, i, j), reference.euler_entry(f, i, j))
            assert _same(laplace_entry(f, A, i, j), reference.laplace_entry(f, A, i, j))
    assert _same(trace_laplace(f, A), reference.trace_laplace(f, A))
    for W in (W_rat, W_cpx):
        assert _same(trace_laplace_weighted(f, A, W), reference.trace_laplace_weighted(f, A, W))
    # compile_poly and MatPoly.eval read the terms in their order
    assert _same(exp_trace_laplace(f, A, c), reference.exp_trace_laplace(f, A, c))
    assert _same(exp_trace_laplace_weighted(f, A, W_rat, c), reference.exp_trace_laplace_weighted(f, A, W_rat, c))
    for minus in (None, aminus):
        want = reference.vigneras_apply(f, A, minus)
        assert vigneras_apply(f, A, minus).entries == want
        got = vigneras_residual(f, A, lam, minus).entries
        assert got == [[want[i][j] - (f * lam if i == j else 0) for j in range(n)] for i in range(n)]


def test_a_heat_term_that_cancels_leaves_and_comes_back_last():
    # exp(tr Delta) (x^6 - 30 x^4 + 360 x^2) on A = [[1]]: the first flow
    # cancels x^4 and x^2, and the second brings x^2 back after the constant
    x = MatPoly.variable(1, 1, 0, 0)
    p = x**6 - x**4 * 30 + x**2 * 360
    got = exp_trace_laplace(p, [[1]], 1)
    assert _same(got, reference.exp_trace_laplace(p, [[1]], 1))
    assert list(got.terms) == [(6,), (0,), (2,)]


def test_heat_plan_words_are_the_per_term_words():
    # each word L^alpha P / alpha! is one Laplacian entry of an earlier word
    rng = np.random.default_rng(5)
    for A, alpha in (([[2, 1, 0], [1, 2, 1], [0, 1, 4]], 2), (FORMS[-1], 1), (FORMS[7], 1)):
        m = len(A)
        P = MatPoly.zero(m, 2)
        for b in basis_homopol(m, 2, alpha):
            P = P + b * int(rng.integers(-3, 4))
        plan = HeatPlan(P, A)
        entries = [(i, j) for i in range(2) for j in range(i, 2)]
        words = {}
        for alpha_ in plan.alphas.tolist():
            if not any(alpha_):
                words[tuple(alpha_)] = P
                continue
            e = max(k for k, x in enumerate(alpha_) if x)
            prev = tuple(x - (k == e) for k, x in enumerate(alpha_))
            words[tuple(alpha_)] = reference.laplace_entry(words[prev], A, *entries[e]) * Fraction(1, alpha_[e])
        want = np.array([[w.terms[tuple(e)].to_complex() if tuple(e) in w.terms else 0j for w in words.values()]
                         for e in plan.table.exponents.tolist()])
        assert np.array_equal(plan.coef, want) and math.prod(plan.coef.shape) > 1
