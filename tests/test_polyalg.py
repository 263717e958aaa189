"""Operator algebra on matrix-argument polynomials, checked against sympy."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from siegeltheta.errors import ResourceCapError
from siegeltheta.exactlinalg import rational_kernel
from siegeltheta.polyalg import (
    MatPoly,
    basis_homopol,
    compile_poly,
    euler_entry,
    eval_batch,
    exp_trace_laplace,
    exp_trace_laplace_weighted,
    homogeneity_degree,
    laplace_entry,
    matpoly_from_json,
    matpoly_to_json,
    partial,
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


@pytest.mark.parametrize("A", [[[2, 1, 0], [1, 2, 1], [0, 1, 4]], [[2, 0, 0], [0, -2, 1], [0, 1, 3]]])
def test_laplace_entry_is_the_product_rule_sum_term_for_term(A):
    # the monomial pass must give the terms in the order the sum of the m^2
    # pieces gives them: compiled coefficients are summed in term order
    rng = np.random.default_rng(4)
    ainv = sympy.Matrix(A).inv()
    for _ in range(3):
        p = random_poly(3, 2, 5, rng) * PiScalar.from_parts(Fraction(2, 3), Fraction(-1, 5), -1) \
            + random_poly(3, 2, 4, rng)
        for i in range(2):
            for j in range(2):
                want = MatPoly.zero(3, 2)
                for b in range(3):
                    for a in range(3):
                        if ainv[a, b]:
                            c = Fraction(int(ainv[a, b].p), int(ainv[a, b].q))
                            want = want + partial(partial(p, b, j), a, i) * c
                got = laplace_entry(p, A, i, j)
                assert got == want and list(got.terms) == list(want.terms)


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
# independently by sympy from the monomial coefficient matrix
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
    # one row per (constraint entry i, j; monomial of the image), one column
    # per monomial of the degree; each image is expanded into its coefficient
    # dictionary once
    entries = {}
    for t, mono in enumerate(monos):
        term = sympy.Integer(1)
        for idx, e in enumerate(mono):
            term *= U[idx // n, idx % n] ** e
        for i in range(n):
            for j in range(n):
                want = alpha * term if i == j else 0
                image = sympy.expand(sym_euler(term, U, i, j) - want)
                if image != 0:
                    for mm, c in sympy.Poly(image, *U).as_dict().items():
                        entries[(i, j, mm, t)] = c
    keys = sorted({key[:3] for key in entries})
    index = {key: r for r, key in enumerate(keys)}
    M = sympy.SparseMatrix(len(keys), len(monos),
                           {(index[key[:3]], key[3]): c for key, c in entries.items()})
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


# ==== basis_homopol against an independent single-system oracle ============

# the shapes basis_homopol is pinned on, up to 256 monomials and 50 basis elements
BASIS_GRID = [(3, 2, 2), (3, 2, 3), (3, 2, 4), (2, 2, 3), (4, 2, 2), (3, 3, 1), (3, 3, 2),
              (4, 3, 1), (2, 1, 5), (4, 4, 1), (5, 2, 2)]


def single_system(m, n, alpha):
    """The sorted monomials of column degree alpha and the off-diagonal Euler
    constraint rows over all of them, in one system, ordered by (i, j, target)."""
    cols = itertools.product(range(alpha + 1), repeat=m)
    cols = [c for c in cols if sum(c) == alpha]
    monomials = sorted(tuple(combo[j][d] for d in range(m) for j in range(n))
                       for combo in itertools.product(cols, repeat=n))
    rows = {}
    for i, j in itertools.permutations(range(n), 2):
        for src, e in enumerate(monomials):
            for d in range(m):
                k = e[d * n + j]
                if k:
                    e2 = list(e)
                    e2[d * n + j] -= 1
                    e2[d * n + i] += 1
                    row = rows.setdefault((i, j, tuple(e2)), {})
                    row[src] = row.get(src, 0) + k
    return monomials, [rows[key] for key in sorted(rows)]


def sparse_kernel(rows, ncols):
    """rational_kernel by a separate sparse elimination that reduces one row
    at a time against the pivot rows found so far; the reduced echelon form
    is unique, so the output must be rational_kernel's, vector for vector."""
    reduced = {}  # pivot column -> row with a leading 1, zero in every other pivot column
    for r in rows:
        r = {c: Fraction(x) for c, x in r.items() if x}
        for pc, prow in reduced.items():
            f = r.get(pc)
            if f:
                for c, x in prow.items():
                    v = r.get(c, 0) - f * x
                    if v:
                        r[c] = v
                    else:
                        r.pop(c, None)
        if not r:
            continue
        pc = min(r)
        r = {c: x / r[pc] for c, x in r.items()}
        for prow in reduced.values():
            g = prow.get(pc)
            if g:
                for c, x in r.items():
                    v = prow.get(c, 0) - g * x
                    if v:
                        prow[c] = v
                    else:
                        prow.pop(c, None)
        reduced[pc] = r
    kernel = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, prow in reduced.items():
            v[pc] = -prow.get(fc, 0)
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints)
        sign = 1 if next(x for x in ints if x) > 0 else -1
        kernel.append([Fraction(sign * x // g) for x in ints])
    return kernel


def single_system_basis(m, n, alpha):
    monomials, rows = single_system(m, n, alpha)
    return [MatPoly(m, n, {e: x for e, x in zip(monomials, vec) if x})
            for vec in sparse_kernel(rows, len(monomials))]


@pytest.mark.parametrize("m,n,alpha", BASIS_GRID)
def test_sparse_oracle_equals_rational_kernel(m, n, alpha):
    # the package's rational_kernel and the row-at-a-time sparse_kernel here
    # are two separate eliminations; the reduced echelon form is unique, so
    # both give the same primitive vectors in the same order
    monomials, rows = single_system(m, n, alpha)
    assert sparse_kernel(rows, len(monomials)) == rational_kernel(rows, len(monomials))


@pytest.mark.parametrize("m,n,alpha", BASIS_GRID)
def test_basis_equals_the_single_system_oracle(m, n, alpha):
    got = basis_homopol(m, n, alpha)
    want = single_system_basis(m, n, alpha)
    # the same list, in the same order, down to the order of each element's terms
    assert got == want
    assert [list(p.terms) for p in got] == [list(p.terms) for p in want]
    assert all(homogeneity_degree(p) == alpha for p in got)


@pytest.mark.parametrize("m,n,alpha", [(3, 2, 4), (4, 4, 1), (5, 2, 2)])
def test_basis_monomial_cap_counts_every_monomial_of_the_degree(m, n, alpha):
    total = math.comb(n * alpha + m * n - 1, n * alpha)
    assert basis_homopol(m, n, alpha, monomial_cap=total) == basis_homopol(m, n, alpha)
    with pytest.raises(ResourceCapError):
        basis_homopol(m, n, alpha, monomial_cap=total - 1)


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
       shape=st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2), (3, 1), (1, 3)]),
       batch=st.sampled_from(["empty", "one", "chunks"]),
       complex_w=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_eval_batch_matches_the_scalar_oracle(kind, shape, batch, complex_w, seed):
    rng = np.random.default_rng(seed)
    m, n = (3, 2) if kind == "big" else shape
    poly = _eval_batch_case(kind, m, n, rng)
    p = poly
    top = max((max(e) for e in poly.terms), default=0)
    chunk = max(64, min(2**16 // max(1, len(poly.terms)), 2**15 // (m * n * (top + 1))))
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


def _random_mixed_poly(m, n, rng, max_degree=6):
    """Up to 10 terms of degrees 0..max_degree, odd and even, complex PiScalar coefficients."""
    terms = {}
    for _ in range(int(rng.integers(1, 11))):
        e = np.bincount(rng.integers(m * n, size=int(rng.integers(max_degree + 1))), minlength=m * n)
        terms[tuple(e.tolist())] = _random_coeff(rng)
    return MatPoly(m, n, terms)


def _linear_form_power(m, n, k, rng):
    """c (a . U)^k with integer a of at least two nonzero entries, and that a."""
    a = rng.integers(-3, 4, size=m * n)
    a[:2] = rng.choice([-2, -1, 1, 2], size=2)
    rng.shuffle(a)
    lin = MatPoly.zero(m, n)
    for v, x in enumerate(a.tolist()):
        lin = lin + MatPoly.variable(m, n, v // n, v % n) * x
    return lin ** k * _random_coeff(rng), a.reshape(m, n).astype(float)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(kind=st.sampled_from(["constant", "mixed", "power"]),
       shape=st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (3, 2)]),
       magnitude=st.sampled_from(["unit", "tiny", "huge", "spread"]),
       seed=st.integers(0, 2**32 - 1))
def test_bombieri_majorant_bounds_the_polynomial(kind, shape, magnitude, seed):
    # |p(W)| <= C max(1, |W|_F)^deg for real and complex W, C <= the l1 norm,
    # C = |c| for a constant; and C is attained by a power of a linear form,
    # which the sum of coefficient moduli is not: a majorant without the
    # alpha!/k! weights fails here.  Coefficients near 1e-200 and 1e200,
    # alone or mixed, square outside the float range
    rng = np.random.default_rng(seed)
    m, n = shape
    if kind == "constant":
        poly = MatPoly.constant(m, n, _random_coeff(rng))
    elif kind == "mixed":
        poly = _random_mixed_poly(m, n, rng)
    else:
        assume(m * n >= 2)
        poly, a = _linear_form_power(m, n, int(rng.integers(2, 5)), rng)
    if magnitude == "spread":
        poly = MatPoly(m, n, {e: c * Fraction(10) ** int(rng.choice([-200, 0, 200]))
                              for e, c in poly.terms.items()})
    else:
        poly = poly * {"unit": 1, "tiny": Fraction(1, 10**200), "huge": 10**200}[magnitude]
    assert compile_poly(MatPoly.zero(m, n)).majorant() == 0.0
    compiled = compile_poly(poly)
    C, deg = compiled.majorant(), poly.degree()
    slack = 1.0 + (len(poly.terms) + 8) * 2.0**-52
    assert C <= poly.coeff_norm() * slack
    if kind == "constant":
        assert C == abs(next(iter(poly.terms.values())).to_complex())
    gross_poly = MatPoly(m, n, {e: c.abs_norm() for e, c in poly.terms.items()})
    for scale in (0.3, 1.0, 2.5):
        for complex_w in (False, True):
            W = scale * rng.normal(size=(m, n))
            if complex_w:
                W = W + 1j * scale * rng.normal(size=(m, n))
            bound = C * max(1.0, float(np.linalg.norm(W))) ** deg
            rounding = 1e-13 * gross_poly.eval(np.abs(W)).real
            assert abs(poly.eval(W)) <= bound + rounding
    if kind == "power" and magnitude != "spread":
        # at W = a: |c| |a|^(2k) = C |a|^k up to the rounding allowance
        norm = float(np.linalg.norm(a))
        assert C <= abs(poly.eval(a)) / norm**deg * (1.0 + 1e-12)


def test_majorant_of_a_degree_whose_weights_underflow():
    # alpha!/k! = (100!)^6 / 600! is about 2^-1529 and rounds to 0: a Bombieri
    # sum built from it would read 0 for this nonzero polynomial
    poly = MatPoly(3, 2, {(100,) * 6: 3})
    W = np.full((3, 2), 6 ** -0.5)  # |W|_F = 1
    assert compile_poly(poly).majorant() >= abs(poly.eval(W)) > 0


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
