"""Operator algebra on matrix-argument polynomials, checked against sympy."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from siegeltheta.polyalg import (
    MatPoly,
    basis_homopol,
    euler_entry,
    eval_batch,
    exp_trace_laplace,
    exp_trace_laplace_weighted,
    homogeneity_degree,
    laplace_entry,
    matpoly_from_json,
    matpoly_to_json,
    substitute_linear,
    trace_laplace,
    trace_laplace_weighted,
    vigneras_apply,
    vigneras_residual,
)
from siegeltheta.scalars import PiScalar


# ==== sympy oracle ==========================================================

def sym_vars(m, n):
    return sympy.Matrix(m, n, lambda a, j: sympy.Symbol("u_%d_%d" % (a, j)))


def to_sympy(p: MatPoly, U):
    out = sympy.Integer(0)
    m, n = p.m, p.n
    for e, c in p.terms.items():
        term = sympy.Integer(1)
        for a in range(m):
            for j in range(n):
                term *= U[a, j] ** e[a * n + j]
        coeff = sympy.Integer(0)
        for k, re, im in c.terms():
            coeff += (sympy.Rational(re.numerator, re.denominator)
                      + sympy.I * sympy.Rational(im.numerator, im.denominator)) * sympy.pi ** k
        out += coeff * term
    return sympy.expand(out)


def sym_euler(expr, U, i, j):
    m = U.rows
    return sympy.expand(sum(U[d, i] * sympy.diff(expr, U[d, j]) for d in range(m)))


def sym_laplace(expr, U, Ainv, i, j):
    m = U.rows
    out = sympy.Integer(0)
    for a in range(m):
        for b in range(m):
            out += Ainv[a, b] * sympy.diff(expr, U[a, i], U[b, j])
    return sympy.expand(out)


def random_poly(m, n, deg, rng):
    p = MatPoly.zero(m, n)
    for _ in range(5):
        mono = MatPoly.one(m, n)
        for _ in range(int(rng.integers(deg + 1))):
            mono = mono * MatPoly.variable(m, n, int(rng.integers(m)), int(rng.integers(n)))
        p = p + mono * int(rng.integers(-4, 5))
    return p


A22 = [[2, 1], [1, 2]]


def test_euler_matches_sympy():
    rng = np.random.default_rng(0)
    for _ in range(4):
        p = random_poly(2, 2, 4, rng)
        U = sym_vars(2, 2)
        expr = to_sympy(p, U)
        for i in range(2):
            for j in range(2):
                got = to_sympy(euler_entry(p, i, j), U)
                assert sympy.expand(got - sym_euler(expr, U, i, j)) == 0


def test_laplace_matches_sympy():
    rng = np.random.default_rng(1)
    Ainv = sympy.Matrix(A22).inv()
    for _ in range(4):
        p = random_poly(2, 2, 4, rng)
        U = sym_vars(2, 2)
        expr = to_sympy(p, U)
        for i in range(2):
            for j in range(2):
                got = to_sympy(laplace_entry(p, A22, i, j), U)
                assert sympy.expand(got - sym_laplace(expr, U, Ainv, i, j)) == 0
        got_tr = to_sympy(trace_laplace(p, A22), U)
        want_tr = sympy.expand(sum(sym_laplace(expr, U, Ainv, i, i) for i in range(2)))
        assert sympy.expand(got_tr - want_tr) == 0


def test_exp_trace_laplace_inverse():
    """The heat flow at opposite times is the identity on polynomials."""
    rng = np.random.default_rng(2)
    c = PiScalar.from_parts(Fraction(-1, 8), 0, -1)
    for _ in range(3):
        p = random_poly(2, 2, 4, rng)
        flowed = exp_trace_laplace(p, A22, c)
        back = exp_trace_laplace(flowed, A22, c * PiScalar.from_parts(Fraction(-1), 0, 0))
        assert (back - p).is_zero()


def test_exp_trace_laplace_weighted_identity_weight():
    rng = np.random.default_rng(3)
    c = PiScalar.from_parts(Fraction(1, 4), 0, -1)
    eye = [[Fraction(int(i == j)) for j in range(2)] for i in range(2)]
    p = random_poly(2, 2, 3, rng)
    assert (exp_trace_laplace_weighted(p, A22, eye, c) - exp_trace_laplace(p, A22, c)).is_zero()


A33 = [[2, 1, 0], [1, 2, 1], [0, 1, 4]]


def _weighted_trace_n2(f, A, W):
    """sum_ij W_ji (Delta_A)_ij f over all n^2 entries."""
    acc = MatPoly.zero(f.m, f.n)
    for i in range(f.n):
        for j in range(f.n):
            acc = acc + laplace_entry(f, A, i, j) * PiScalar.from_number(W[j][i])
    return acc


@pytest.mark.parametrize("m,n,A", [(2, 2, A22), (3, 2, A33), (3, 3, A33)])
def test_trace_laplace_weighted_equals_the_n2_sum(m, n, A):
    rng = np.random.default_rng(10 * m + n)
    # a rational W that is not symmetric
    W_rat = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(n)]
             for _ in range(n)]
    assert any(W_rat[i][j] != W_rat[j][i] for i in range(n) for j in range(n))
    # a complex W as the plain Fourier closed form builds it: the float inverse
    # of a symmetric Z, embedded exactly
    Z = rng.normal(size=(n, n)) + 1j * (np.eye(n) * 2 + 0.3 * rng.normal(size=(n, n)))
    Zinv = np.linalg.inv(Z + Z.T)
    W_cpx = [[PiScalar.from_number(complex(x)) for x in row] for row in Zinv.tolist()]
    for _ in range(3):
        p = random_poly(m, n, 4, rng)
        for W in (W_rat, W_cpx):
            assert trace_laplace_weighted(p, A, W) == _weighted_trace_n2(p, A, W)


def test_substitute_linear_matches_sympy():
    rng = np.random.default_rng(4)
    p = random_poly(2, 2, 3, rng)
    L = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    N = [[Fraction(1, 2), Fraction(0)], [Fraction(-1), Fraction(1)]]
    U = sym_vars(2, 2)
    Ls = sympy.Matrix(2, 2, lambda i, j: sympy.Rational(L[i][j]))
    Ns = sympy.Matrix(2, 2, lambda i, j: sympy.Rational(N[i][j]))
    want = sympy.expand(to_sympy(p, U).subs(
        {U[a, j]: (Ls * U * Ns)[a, j] for a in range(2) for j in range(2)},
        simultaneous=True))
    got = to_sympy(substitute_linear(p, L, N), U)
    assert sympy.expand(got - want) == 0


# ==== solution-space bases ==================================================

# dimensions frozen from the rank of the defining linear system, computed
# independently by sympy nullspace on the monomial coefficient matrix
FROZEN_DIMS = {
    (2, 1, 2): 3,
    (2, 2, 1): 1,
    (1, 2, 1): 0,
    (3, 2, 2): 6,
    (8, 1, 2): 36,
}


def sympy_basis_dim(m, n, alpha):
    """Independent oracle: nullspace of the homogeneity constraints."""
    U = sym_vars(m, n)
    monos = []

    def fill(exps, pos, left):
        if pos == m * n:
            if left == 0:
                monos.append(tuple(exps))
            return
        for e in range(left + 1):
            fill(exps + [e], pos + 1, left - e)

    fill([], 0, alpha * n)
    rows = []
    for mono in monos:
        term = sympy.Integer(1)
        for idx, e in enumerate(mono):
            term *= U[idx // n, idx % n] ** e
        constraints = []
        for i in range(n):
            for j in range(n):
                want = alpha * term if i == j else 0
                constraints.append(sympy.expand(sym_euler(term, U, i, j) - want))
        rows.append(constraints)
    if not monos:
        return 0
    # coefficient matrix of all constraints in the monomial basis
    allmonos = sorted({mm for row in rows for c in row
                       for mm in sympy.Poly(c, *U).monoms()}) if any(
        any(c != 0 for c in row) for row in rows) else []
    sys_rows = []
    for comp in range(len(rows[0])):
        for mm in allmonos:
            sys_rows.append([
                sympy.Poly(rows[t][comp], *U).coeff_monomial(mm) if rows[t][comp] != 0 else 0
                for t in range(len(monos))])
    M = sympy.Matrix(sys_rows) if sys_rows else sympy.zeros(1, len(monos))
    return len(monos) - M.rank()


@pytest.mark.parametrize("m,n,alpha", [(2, 1, 2), (2, 2, 1), (1, 2, 1), (3, 2, 2)])
def test_basis_dim_against_sympy_oracle(m, n, alpha):
    assert sympy_basis_dim(m, n, alpha) == FROZEN_DIMS[(m, n, alpha)]
    assert len(basis_homopol(m, n, alpha)) == FROZEN_DIMS[(m, n, alpha)]


def test_basis_dim_e8_frozen():
    # the sympy oracle is too slow at (8,1,2); the frozen value is the
    # count of degree-2 monomials in 8 variables, since n=1 imposes only
    # the total-degree constraint
    assert FROZEN_DIMS[(8, 1, 2)] == 8 * 9 // 2
    assert len(basis_homopol(8, 1, 2)) == 36


def test_basis_satisfies_determinant_scaling():
    rng = np.random.default_rng(5)
    for P in basis_homopol(2, 2, 2):
        N = [[Fraction(int(x)) for x in row] for row in rng.integers(-3, 4, size=(2, 2)).tolist()]
        detN = N[0][0] * N[1][1] - N[0][1] * N[1][0]
        eye = [[Fraction(int(i == j)) for j in range(2)] for i in range(2)]
        lhs = substitute_linear(P, eye, N)
        rhs = P * PiScalar.from_parts(detN * detN, 0, 0)
        assert (lhs - rhs).is_zero()


def test_homogeneity_degree():
    assert homogeneity_degree(MatPoly.one(2, 2)) == 0
    det2 = basis_homopol(2, 2, 1)[0]
    assert homogeneity_degree(det2) == 1
    bad = MatPoly.variable(2, 2, 0, 0) + MatPoly.one(2, 2)
    assert homogeneity_degree(bad) is None


def minor_poly(m: int, n: int, rows) -> MatPoly:
    """Determinant of the n x n submatrix of U on the given rows (Leibniz formula)."""
    out = MatPoly.zero(m, n)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = MatPoly.constant(m, n, (-1) ** inversions)
        for j in range(n):
            term = term * MatPoly.variable(m, n, rows[perm[j]], j)
        out = out + term
    return out


def minor_product_polys(m: int, n: int, alpha: int):
    """All alpha-fold products of n x n minors of U (a spanning set, not a basis)."""
    minors = [minor_poly(m, n, rows) for rows in itertools.combinations(range(m), n)]
    out = []
    for combo in itertools.combinations_with_replacement(range(len(minors)), alpha):
        prod = MatPoly.one(m, n)
        for k in combo:
            prod = prod * minors[k]
        out.append(prod)
    return out


def test_minor_products_lie_in_solution_space():
    prods = minor_product_polys(3, 2, 2)
    assert prods
    for q in prods:
        res = vigneras_residual(exp_trace_laplace(
            q, [[2, 0, 0], [0, 2, 0], [0, 0, 2]], PiScalar.from_parts(Fraction(-1, 8), 0, -1)),
            [[2, 0, 0], [0, 2, 0], [0, 0, 2]], 2)
        assert res.is_zero()


def test_vigneras_residual_nonzero_for_non_solution():
    p = MatPoly.variable(2, 1, 0, 0) * MatPoly.variable(2, 1, 0, 0)
    res = vigneras_residual(p, A22, 2)
    assert not res.is_zero()


def test_vigneras_apply_shape():
    p = MatPoly.variable(2, 2, 0, 0)
    op = vigneras_apply(p, A22)
    assert len(op.entries) == 2 and len(op.entries[0]) == 2


def test_eval_batch_matches_direct():
    rng = np.random.default_rng(6)
    p = random_poly(2, 2, 3, rng)
    U = sym_vars(2, 2)
    expr = to_sympy(p, U)
    W = rng.normal(size=(5, 2, 2))
    got = eval_batch(p, W)
    fn = sympy.lambdify([U[a, j] for a in range(2) for j in range(2)], expr, "numpy")
    want = np.array([fn(*W[t].reshape(-1)) for t in range(5)], dtype=complex)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def _random_coeff(rng):
    """A small exact scalar with a real, an imaginary and a pi-power part."""
    re = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9)))
    im = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9)))
    return PiScalar.from_parts(re, im, int(rng.integers(-2, 3))) + int(rng.integers(1, 4))


def _eval_batch_case(kind, m, n, rng):
    if kind == "zero":
        return MatPoly.zero(m, n)
    if kind == "constant":
        return MatPoly.constant(m, n, _random_coeff(rng))
    terms = {}
    if kind == "random":
        for _ in range(int(rng.integers(1, 12))):
            e = np.bincount(rng.integers(m * n, size=int(rng.integers(6))), minlength=m * n)
            terms[tuple(e.tolist())] = _random_coeff(rng)
    else:  # "big": degree >= 8 and 300 terms, so rows run in several chunks
        deg = int(rng.integers(8, 11))
        while len(terms) < 300:
            e = np.bincount(rng.integers(m * n, size=deg), minlength=m * n)
            terms[tuple(e.tolist())] = _random_coeff(rng)
    return MatPoly(m, n, terms)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(kind=st.sampled_from(["zero", "constant", "random", "big"]),
       shape=st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2)]),
       batch=st.sampled_from(["empty", "one", "chunks"]),
       complex_w=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_eval_batch_matches_the_scalar_oracle(kind, shape, batch, complex_w, seed):
    rng = np.random.default_rng(seed)
    m, n = (3, 2) if kind == "big" else shape
    poly = _eval_batch_case(kind, m, n, rng)
    p = poly
    chunk = max(64, 2**16 // max(1, len(poly.terms)))
    rows = {"empty": 0, "one": 1, "chunks": 2 * chunk + 7}[batch]
    W = rng.uniform(-1.5, 1.5, size=(rows, m, n))
    if complex_w:
        W = W + 1j * rng.uniform(-1.5, 1.5, size=(rows, m, n))
    got = eval_batch(p, W)
    assert got.shape == (rows,) and got.dtype == complex
    if rows == 0:
        return
    if kind == "zero":
        assert not got.any()
    if kind == "constant":
        assert np.all(got == next(iter(poly.terms.values())).to_complex())
    # the scalar oracle on the chunk edges and on a few rows in between
    picks = sorted({0, rows - 1, *range(chunk - 1, rows, chunk), *range(chunk, rows, chunk),
                    *rng.integers(rows, size=min(rows, 12)).tolist()})
    gross_poly = MatPoly(m, n, {e: c.abs_norm() for e, c in poly.terms.items()})
    for k in picks:
        want = p.eval(W[k])
        gross = gross_poly.eval(np.abs(W[k])).real
        assert abs(got[k] - want) <= 1e-13 * gross
        # a row's value does not depend on the batch it is evaluated in
        assert got[k] == eval_batch(p, W[k:k + 1])[0]


def test_json_round_trip():
    rng = np.random.default_rng(7)
    p = random_poly(2, 2, 4, rng) + MatPoly.one(2, 2) * PiScalar.from_parts(
        Fraction(1, 3), Fraction(-2, 7), -1)
    q = matpoly_from_json(matpoly_to_json(p))
    assert (p - q).is_zero()


@pytest.mark.parametrize("key", [(-1, 0), (1,), (1, 0, 0), (0.5, 0)])
def test_matpoly_rejects_malformed_exponents(key):
    with pytest.raises(ValueError):
        MatPoly(1, 2, {key: 1})


@pytest.mark.parametrize("exp", [[[-1]], [[1, 1]], [[]], [[1.5]], [[1], [0]]])
def test_matpoly_from_json_rejects_malformed_exponents(exp):
    # a negative power used to send the heat flow into an endless loop, and a
    # wrong shape was truncated or ended in an IndexError
    with pytest.raises(ValueError):
        matpoly_from_json({"m": 1, "n": 1, "terms": [{"exp": exp, "re": "1"}]})
