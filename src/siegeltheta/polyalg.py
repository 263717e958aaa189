"""Matrix-variable polynomial calculus.

Polynomials live in C[U] where U is an m x n matrix of indeterminates.  The
operators implemented here are the matrix-valued ones acting entrywise on an
n x n grid:

    E_ij       = sum_d U_di d/dU_dj              (generalized Euler operator)
    (Delta_A)_ij = sum_ab d/dU_ai (A^-1)_ab d/dU_bj  (A-weighted Laplacian)
    D_A        = E - Delta_A / (4 pi)            (Vigneras-type operator)

together with the finite heat-operator exponential exp(c tr Delta_A) and its
column-weighted variant exp(c tr(Delta_A W)), linear substitutions
p(U) -> p(L U N), the homogeneity eigen-test E p = alpha I p, and an exact
solver for the space of det-homogeneous polynomials of a given degree.
D_A also acts on an indefinite coefficient f exp(2 pi tr(U^T A- U)): it
takes the polynomial f and the form's A- (vigneras_apply), and no type
holds the Gaussian.

Coefficients are exact (see scalars.PiScalar); numeric evaluation substitutes
pi and converts to complex only at the end.  Exponent keys are flat row-major
tuples of length m*n.

Numeric evaluation goes through a CompiledPoly: an int exponent matrix and a
complex coefficient vector.  A HeatPlan compiles the heat flow of one source
polynomial for every weight matrix at once: the entries of Delta_A commute,
so exp(tr(Delta_A W)) P is a linear combination of the exact operator words
L^alpha P, computed once, with coefficients that are monomials in the
entries of W, evaluated in floats per weight matrix.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import ResourceCapError
from .exactlinalg import frac_matrix, mat_inverse, rational_kernel
from .scalars import PI_ONE, PiScalar, as_pi_scalar

# ==== polynomial containers =================================================


class MatPoly:
    """Polynomial in the entries of an m x n matrix of indeterminates."""

    __slots__ = ("m", "n", "terms")

    def __init__(self, m: int, n: int, terms=None):
        self.m = int(m)
        self.n = int(n)
        clean = {}
        if terms:
            for e, c in terms.items():
                key = tuple(int(x) for x in e)
                if len(key) != self.m * self.n or min(key, default=0) < 0 or key != tuple(e):
                    raise ValueError("exponent %r is not %d nonnegative integers" % (e, self.m * self.n))
                c = as_pi_scalar(c)
                if not c.is_zero():
                    clean[key] = c
        self.terms = clean

    # ---- constructors ----

    @classmethod
    def zero(cls, m, n):
        return cls(m, n)

    @classmethod
    def constant(cls, m, n, c):
        return cls(m, n, {(0,) * (m * n): as_pi_scalar(c)})

    @classmethod
    def one(cls, m, n):
        return cls.constant(m, n, 1)

    @classmethod
    def variable(cls, m, n, i, j):
        e = [0] * (m * n)
        e[i * n + j] = 1
        return cls(m, n, {tuple(e): PI_ONE})

    # ---- basic queries ----

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max((sum(e) for e in self.terms), default=0)

    def coeff_norm(self) -> float:
        return math.fsum(c.abs_norm() for c in self.terms.values())

    def column_degrees(self):
        """Set of per-monomial column degree vectors."""
        out = set()
        for e in self.terms:
            out.add(tuple(sum(e[i * self.n + j] for i in range(self.m)) for j in range(self.n)))
        return out

    def __eq__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        return (self.m, self.n, self.terms) == (other.m, other.n, other.terms)

    def __hash__(self):
        return hash((self.m, self.n, frozenset(self.terms.items())))

    # ---- ring operations ----

    def _check_shape(self, other):
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch: %dx%d vs %dx%d" % (self.m, self.n, other.m, other.n))

    def __add__(self, other):
        if isinstance(other, (int, float, complex, Fraction, PiScalar)):
            other = MatPoly.constant(self.m, self.n, other)
        if not isinstance(other, MatPoly):
            return NotImplemented
        self._check_shape(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
        out = MatPoly(self.m, self.n)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MatPoly(self.m, self.n)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, float, complex, Fraction, PiScalar)):
            other = MatPoly.constant(self.m, self.n, other)
        if not isinstance(other, MatPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, Fraction, PiScalar)):
            c = as_pi_scalar(other)
            if c.is_zero():
                return MatPoly.zero(self.m, self.n)
            out = MatPoly(self.m, self.n)
            out.terms = {e: cc * c for e, cc in self.terms.items()}
            return out
        if not isinstance(other, MatPoly):
            return NotImplemented
        self._check_shape(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = terms.get(e)
                s = c if s is None else s + c
                if s.is_zero():
                    terms.pop(e, None)
                else:
                    terms[e] = s
        out = MatPoly(self.m, self.n)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = MatPoly.one(self.m, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # ---- evaluation ----

    def eval(self, U) -> complex:
        flat = [complex(U[i][j]) if not isinstance(U, np.ndarray) else complex(U[i, j])
                for i in range(self.m) for j in range(self.n)]
        total = 0j
        for e, c in self.terms.items():
            v = c.to_complex()
            for x, k in zip(flat, e):
                if k:
                    v *= x**k
            total += v
        return total

    def __repr__(self):
        return "MatPoly(%dx%d, %d terms, degree %d)" % (self.m, self.n, len(self.terms), self.degree())


class OperatorMatrix:
    """An n x n grid of ring elements, the result of a matrix operator."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.n = len(self.entries)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __sub__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return OperatorMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.entries for f in row)

    def norm(self) -> float:
        return max(f.coeff_norm() for row in self.entries for f in row)

    @classmethod
    def scalar(cls, lam, f, n):
        """lam * I * f: lam f on the diagonal, zero off it."""
        zero = MatPoly.zero(f.m, f.n)
        return cls([[f * lam if i == j else zero for j in range(n)] for i in range(n)])


# ==== first-order operators =================================================


def partial(f, i: int, j: int):
    """d/dU_ij."""
    idx = i * f.n + j
    terms = {}
    for e, c in f.terms.items():
        k = e[idx]
        if k:
            e2 = list(e)
            e2[idx] = k - 1
            terms[tuple(e2)] = c * k
    out = MatPoly(f.m, f.n)
    out.terms = terms
    return out


def euler_entry(f, i: int, j: int):
    """E_ij f = sum_d U_di d/dU_dj f, by a direct monomial shuffle."""
    terms = {}
    for e, c in f.terms.items():
        for d in range(f.m):
            k = e[d * f.n + j]
            if k:
                e2 = list(e)
                e2[d * f.n + j] = k - 1
                e2[d * f.n + i] += 1
                key = tuple(e2)
                add = c * k
                s = terms.get(key)
                s = add if s is None else s + add
                if s.is_zero():
                    terms.pop(key, None)
                else:
                    terms[key] = s
    out = MatPoly(f.m, f.n)
    out.terms = terms
    return out


_INV_CACHE: dict = {}


def _exact_inverse(A):
    """Exact inverse of a rational symmetric matrix, cached."""
    key = tuple(tuple(Fraction(x) for x in row) for row in A)
    inv = _INV_CACHE.get(key)
    if inv is None:
        inv = mat_inverse(frac_matrix(key))
        _INV_CACHE[key] = inv
    return inv


def laplace_entry(f, A, i: int, j: int):
    """(Delta_A)_ij f = sum_ab d/dU_ai (A^-1)_ab d/dU_bj f.

    One direct monomial pass per (b, a) with (A^-1)_ab != 0, each term
    gaining c k_bj k_ai (A^-1)_ab; the terms are accumulated in the order the
    sum of the m^2 pieces d/dU_ai ((A^-1)_ab d/dU_bj f) would give them.
    """
    ainv = _exact_inverse(A)
    m, n = f.m, f.n
    terms = {}
    for b in range(m):
        bj = b * n + j
        for a in range(m):
            c = ainv[a][b]
            if not c:
                continue
            ai = a * n + i
            for e, coef in f.terms.items():
                kb = e[bj]
                if not kb:
                    continue
                ka = e[ai] - (ai == bj)
                if not ka:
                    continue
                e2 = list(e)
                e2[bj] -= 1
                e2[ai] -= 1
                key = tuple(e2)
                add = coef * (c * (kb * ka))
                s = terms.get(key)
                s = add if s is None else s + add
                if s.is_zero():
                    terms.pop(key, None)
                else:
                    terms[key] = s
    out = MatPoly(m, n)
    out.terms = terms
    return out


def trace_laplace(f, A):
    """tr(Delta_A) f."""
    acc = None
    for i in range(f.n):
        piece = laplace_entry(f, A, i, i)
        acc = piece if acc is None else acc + piece
    return acc


def trace_laplace_weighted(f, A, W):
    """tr(Delta_A W) f = sum_ij W_ji (Delta_A)_ij f, W an n x n scalar matrix.

    A is symmetric and partial derivatives commute, so (Delta_A)_ij =
    (Delta_A)_ji and each off-diagonal entry is applied once, weighted by
    W_ij + W_ji (both added: W need not be symmetric, and the float inverse
    of a symmetric Y is not always bit-symmetric).
    """
    n = f.n

    def weight(a, b):
        return as_pi_scalar(W[a][b] if not isinstance(W, np.ndarray) else W[a, b])

    acc = None
    for i in range(n):
        for j in range(i, n):
            w = weight(i, i) if i == j else weight(j, i) + weight(i, j)
            if w.is_zero():
                continue
            piece = laplace_entry(f, A, i, j) * w
            acc = piece if acc is None else acc + piece
    return MatPoly.zero(f.m, f.n) if acc is None else acc


# ==== heat-operator exponential =============================================


def _heat_series(p: MatPoly, step, c) -> MatPoly:
    """sum_k c^k/k! step^k p for a degree-lowering operator step (finite on polynomials)."""
    c = as_pi_scalar(c)
    out = p
    cur = p
    scale = PI_ONE
    k = 0
    while True:
        cur = step(cur)
        if cur.is_zero():
            return out
        k += 1
        scale = (scale * c).divide_rational(k)
        out = out + cur * scale


def exp_trace_laplace(p: MatPoly, A, c) -> MatPoly:
    """exp(c tr Delta_A) p = sum_k c^k/k! (tr Delta_A)^k p (finite on polynomials)."""
    return _heat_series(p, lambda f: trace_laplace(f, A), c)


def exp_trace_laplace_weighted(p: MatPoly, A, W, c) -> MatPoly:
    """exp(c tr(Delta_A W)) p with a column-mixing weight matrix W."""
    return _heat_series(p, lambda f: trace_laplace_weighted(f, A, W), c)


# ==== substitution ==========================================================


def substitute_linear(p: MatPoly, L, N) -> MatPoly:
    """p(L U N) for an m x m matrix L and an n x n matrix N (exactly embedded)."""
    m, n = p.m, p.n

    def entry(M, i, j):
        return as_pi_scalar(M[i][j] if not isinstance(M, np.ndarray) else M[i, j])

    forms = {}
    for a in range(m):
        for b in range(n):
            lf = MatPoly.zero(m, n)
            for i in range(m):
                li = entry(L, a, i)
                if li.is_zero():
                    continue
                for j in range(n):
                    c = li * entry(N, j, b)
                    if not c.is_zero():
                        lf = lf + MatPoly.variable(m, n, i, j) * c
            forms[(a, b)] = lf

    pow_cache = {}

    def form_power(a, b, k):
        key = (a, b, k)
        got = pow_cache.get(key)
        if got is None:
            got = forms[(a, b)] ** k
            pow_cache[key] = got
        return got

    out = MatPoly.zero(m, n)
    for e, c in p.terms.items():
        prod = MatPoly.constant(m, n, c)
        for a in range(m):
            for b in range(n):
                k = e[a * n + b]
                if k:
                    prod = prod * form_power(a, b, k)
        out = out + prod
    return out


# ==== Vigneras operator =====================================================

_MINUS_QUARTER_OVER_PI = PiScalar.from_parts(Fraction(-1, 4), 0, -1)


def vigneras_apply(f: MatPoly, A, aminus=None) -> OperatorMatrix:
    """Matrix of (E - Delta_A/(4 pi)) applied to f, an n x n OperatorMatrix.

    With aminus, the A- of an indefinite form (exact entries), the operator
    acts on the coefficient f exp(2 pi tr(U^T A- U)) and the Gaussian is
    divided out of the result again: by the product rule every d/dU_ai
    becomes d/dU_ai + 4 pi (A- U)_ai.  Without it, euler_entry and
    laplace_entry act on f by their direct monomial passes.
    """
    m, n = f.m, f.n
    if aminus is None:
        return OperatorMatrix(
            [[euler_entry(f, i, j) + laplace_entry(f, A, i, j) * _MINUS_QUARTER_OVER_PI
              for j in range(n)] for i in range(n)])
    ainv = _exact_inverse(A)
    four_pi = PiScalar.from_parts(4, 0, 1)
    zero = MatPoly.zero(m, n)
    # 4 pi (A- U)_ai, the U_ai-derivative of the Gaussian's exponent
    shift = [[sum((MatPoly.variable(m, n, b, i) * (four_pi * Fraction(aminus[a][b]))
                   for b in range(m) if aminus[a][b]), zero)
              for i in range(n)] for a in range(m)]

    def d(p, a, i):
        return partial(p, a, i) + p * shift[a][i]

    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        dj = [d(f, b, j) for b in range(m)]
        # sum_b (A^-1)_ab D_bj f, the inner half of every (Delta_A)_ij
        inner = [sum((dj[b] * ainv[a][b] for b in range(m) if ainv[a][b]), zero) for a in range(m)]
        for i in range(n):
            euler = sum((MatPoly.variable(m, n, e, i) * dj[e] for e in range(m)), zero)
            laplace = sum((d(inner[a], a, i) for a in range(m)), zero)
            rows[i][j] = euler + laplace * _MINUS_QUARTER_OVER_PI
    return OperatorMatrix(rows)


def vigneras_residual(f: MatPoly, A, lam, aminus=None) -> OperatorMatrix:
    """vigneras_apply(f, A, aminus) - lam * I * f; identically zero for a solution."""
    return vigneras_apply(f, A, aminus) - OperatorMatrix.scalar(as_pi_scalar(lam), f, f.n)


# ==== homogeneity ===========================================================


def homogeneity_degree(p: MatPoly):
    """alpha with p(U N) = det(N)^alpha p(U), or None if p is not homogeneous.

    Equivalent to the eigen-equation E p = alpha I p: every monomial must have
    all column degrees equal to alpha and the off-diagonal Euler entries must
    vanish.  Constants (including 0) report 0.
    """
    if p.is_zero():
        return 0
    degs = p.column_degrees()
    if len(degs) != 1:
        return None
    vec = next(iter(degs))
    if len(set(vec)) != 1:
        return None
    alpha = vec[0]
    for i in range(p.n):
        for j in range(p.n):
            if i != j and not euler_entry(p, i, j).is_zero():
                return None
    return alpha


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def basis_homopol(m: int, n: int, alpha: int, monomial_cap: int = 2_000_000):
    """Exact basis of {P : E P = alpha I P} in degree n*alpha.

    Solves the kernel of the off-diagonal Euler constraints on the monomials
    whose column degrees all equal alpha (the diagonal constraints pin exactly
    that support).  Returns primitive-integer-coefficient MatPolys in a
    deterministic order.  For m < n and alpha >= 1 the space is empty; the
    result coincides with the span of alpha-fold products of n x n minors.
    """
    if min(m, n) < 1:
        raise ValueError("%s must be positive, got %d" % (("m", m) if m < 1 else ("n", n)))
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0:
        return [MatPoly.one(m, n)]
    if m < n:
        return []
    total_monomials = math.comb(n * alpha + m * n - 1, n * alpha)
    if total_monomials > monomial_cap:
        raise ResourceCapError(
            "degree-%d monomial space has %d elements, above the cap %d"
            % (n * alpha, total_monomials, monomial_cap)
        )

    col_choices = sorted(_compositions(alpha, m))
    monomials = []
    for combo in itertools.product(col_choices, repeat=n):
        e = [0] * (m * n)
        for j, col in enumerate(combo):
            for i in range(m):
                e[i * n + j] = col[i]
        monomials.append(tuple(e))
    monomials.sort()

    rows = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for src, e in enumerate(monomials):
                for d in range(m):
                    k = e[d * n + j]
                    if not k:
                        continue
                    e2 = list(e)
                    e2[d * n + j] = k - 1
                    e2[d * n + i] += 1
                    row = rows.setdefault((i, j, tuple(e2)), {})
                    row[src] = row.get(src, 0) + k
    ordered = [rows[k] for k in sorted(rows)]
    return [MatPoly(m, n, {e: x for e, x in zip(monomials, vec) if x})
            for vec in rational_kernel(ordered, len(monomials))]


# ==== numeric batch evaluation =============================================


def _mul_into(a, b):
    """a *= b for values stored as real arrays with a leading axis of parts.

    One part is a real value, two are (real, imaginary).  The complex product
    is spelled out in real operations, each rounded on its own: numpy's
    complex multiply rounds differently in different inner loops (with and
    without fused multiply-add), and which loop runs depends on the shapes
    and strides of the operands.
    """
    if len(a) == 1:
        a *= b
    else:
        re = a[0] * b[0] - a[1] * b[1]
        a[1] = a[0] * b[1] + a[1] * b[0]
        a[0] = re


class ExponentTable:
    """A T x mn exponent matrix and the index tables eval_batch reads, built once.

    halves splits the mn variables in two: the first floor(mn/2) in
    column-major order (U_00, U_10, ..., U_01, ...) and the rest, so an
    m x 2 matrix gives one column each, less the variables of exponent 0
    in every term.  Each nonempty half is (variables, rows, index): rows
    holds its distinct half-monomials (n_h x k_h exponents, n_h <= T) and
    term t is the product of row index[t] of each half.  degrees
    holds each term's total degree, degree their largest (0 without terms)
    and top the largest single exponent.  The Bombieri weights and the
    parity split are built on first use and kept here, so every polynomial
    that shares the exponents (each flow of a HeatPlan) shares them too.
    """

    __slots__ = ("m", "n", "exponents", "degrees", "degree", "top", "halves", "_weights", "_parity")

    def __init__(self, m: int, n: int, exponents: np.ndarray):
        self.m, self.n = m, n
        self.exponents = exponents
        self.degrees = exponents.sum(axis=1)
        self.degree = int(self.degrees.max(initial=0))
        self.top = int(exponents.max(initial=0))
        order = [i * n + j for j in range(n) for i in range(m)]
        cut = len(order) // 2
        self.halves = []
        for variables in (order[:cut], order[cut:]):
            # a variable of exponent 0 in every term only multiplies by 1
            variables = [v for v in variables if exponents[:, v].any()]
            if variables:
                rows, index = np.unique(exponents[:, variables], axis=0, return_inverse=True)
                self.halves.append((variables, rows, index.reshape(-1)))
        self._weights = self._parity = None

    def weights(self) -> np.ndarray:
        """alpha!/|alpha|! for each term, correctly rounded (an integer quotient)."""
        if self._weights is None:
            self._weights = np.array(
                [math.prod(map(math.factorial, row)) / math.factorial(sum(row))
                 for row in self.exponents.tolist()], dtype=float)
        return self._weights

    def parity(self):
        """((table, keep) of the even-degree terms, the same of the odd ones), None for no terms."""
        if self._parity is None:
            odd = self.degrees % 2 == 1
            self._parity = tuple((ExponentTable(self.m, self.n, self.exponents[keep]), keep)
                                 if keep.any() else None for keep in (~odd, odd))
        return self._parity


# the relative rounding allowance of CompiledPoly.majorant, per term
_BOMBIERI_ROUNDING = 2.0**-52
# below this alpha!/k! weight (degrees in the hundreds) majorant sums the moduli instead
_SMALLEST_WEIGHT = 2.0**-960


class CompiledPoly:
    """A polynomial ready for numeric evaluation.

    table is the ExponentTable of its T terms and coef the T complex
    coefficients.  terms is the exponent matrix, so len(p.terms) counts the
    terms as it does for a MatPoly.
    """

    __slots__ = ("m", "n", "table", "coef", "_majorant")

    def __init__(self, m: int, n: int, table: ExponentTable, coef: np.ndarray):
        self.m = m
        self.n = n
        self.table = table
        self.coef = coef
        self._majorant = None

    @property
    def exponents(self) -> np.ndarray:
        return self.table.exponents

    terms = exponents

    def degree(self) -> int:
        """Largest total degree of a term; the empty polynomial reports 0."""
        return self.table.degree

    def majorant(self) -> float:
        """C with |p(W)| <= C max(1, |W|_F)^deg for every real or complex m x n W, built once.

        C is the sum over the homogeneous parts f_k of p of their Bombieri
        norms B_k = (sum_{|alpha| = k} |c_alpha|^2 alpha!/k!)^(1/2)
        (Beauzamy, Bombieri, Enflo and Montgomery, J. Number Theory 36
        (1990)).  Writing c_alpha W^alpha = (c_alpha (alpha!/k!)^(1/2))
        ((k!/alpha!)^(1/2) W^alpha), Cauchy-Schwarz and the multinomial
        theorem give

            |f_k(W)|^2 <= B_k^2 sum_{|alpha| = k} k!/alpha! |W^alpha|^2 = B_k^2 |W|_F^(2k),

        and sum_k B_k |W|_F^k <= C max(1, |W|_F)^deg.  As alpha!/k! <= 1,
        B_k is at most the sum of the |c_alpha| of f_k.  C is 0 only for
        the zero polynomial and |c| exactly for a constant c.

        Each B_k is computed as s_k (sum (|c_alpha|/s_k)^2 alpha!/k!)^(1/2)
        with s_k the largest |c_alpha| of degree k, so no square overflows
        and the sum holds the weight alpha!/k! >= 2^-960 of that term
        exactly; terms that underflow (each off by under 2^-1072) then move
        it by less than 2^-60 of itself for T < 2^50.  Otherwise each term
        is within 9 unit roundoffs u = 2^-53 (|c_alpha| is within an ulp), a
        degree's sum of at most T of them within (T - 1) u more, the square
        root halves that, and the root, the product with s_k and the exact
        sum over degrees add 3 u: the factor 1 + (T + 8) 2^-52 covers all of
        it with room.  A polynomial with a smaller weight (a degree in the
        hundreds) gets the sum of its |c_alpha| instead, which the same
        factor covers.
        """
        if self._majorant is None:
            table, mags = self.table, np.abs(self.coef)
            if table.degree == 0:  # one term or none: |c| with no margin
                self._majorant = abs(complex(self.coef[0])) if len(mags) else 0.0
                return self._majorant
            weights = table.weights()
            if weights.min() < _SMALLEST_WEIGHT:
                total = math.fsum(mags.tolist())
            else:
                top = np.zeros(table.degree + 1)
                np.maximum.at(top, table.degrees, mags)
                scale = top[table.degrees]
                ratio = np.divide(mags, scale, out=np.zeros_like(mags), where=scale > 0)
                sums = np.bincount(table.degrees, weights=ratio * ratio * weights,
                                   minlength=table.degree + 1)
                total = math.fsum((top * np.sqrt(sums)).tolist())
            self._majorant = total * (1.0 + (len(mags) + 8) * _BOMBIERI_ROUNDING)
        return self._majorant

    def parity_split(self):
        """(even, odd): the terms of even and of odd total degree, None for an empty part."""
        return tuple(None if part is None else CompiledPoly(self.m, self.n, part[0], self.coef[part[1]])
                     for part in self.table.parity())


def compile_poly(p) -> CompiledPoly:
    """p as a CompiledPoly, pi substituted; a CompiledPoly is returned as it is."""
    if isinstance(p, CompiledPoly):
        return p
    E = np.array(list(p.terms), dtype=np.intp).reshape(len(p.terms), p.m * p.n)
    coef = np.array([c.to_complex() for c in p.terms.values()], dtype=complex)
    return CompiledPoly(p.m, p.n, ExponentTable(p.m, p.n, E), coef)


def eval_batch(p, W: np.ndarray) -> np.ndarray:
    """Evaluate p (a MatPoly or CompiledPoly) at a batch of matrices, W of shape (batch, m, n).

    A MatPoly is compiled first (compile_poly): an ExponentTable of its T
    terms and a coefficient vector.  Rows are taken in chunks of max(64,
    min(2^16 // T, 2^15 // (mn (top + 1)))): the chunk is bounded by the
    rows of the power table, mn (top + 1) per row, as well as by T.  Per
    chunk, each variable gets a table of its powers 0..top by repeated
    multiplication; each half of the variables (ExponentTable.halves) gets
    the table of its distinct half-monomials, one gathered power row per
    variable multiplied together; each term is then the product of its two
    half-monomials, 2 gathers and 1 multiply; and two-operand einsums
    contract the T x chunk table with the coefficients.  The halves take
    n_h (k_h - 1) multiplies for k_h variables and n_h <= T, so a chunk
    never takes more than the T (mn - 1) multiplies of building each
    monomial from its own powers, and takes far fewer when half-monomials
    repeat: a det-homogeneous genus-2 coefficient of degree 4 per column on
    a rank-3 form has 503 terms but 35 half-monomials per column.  The
    working set, two T x chunk tables and the power table, stays near 1 MB
    (2 MB for complex W) whatever the batch size.  Bounded by T alone, a
    one- or two-term polynomial took 32,768 rows a chunk, and u1^2 + u0
    ran 2-4 times slower on 20,000 rows than in chunks of a few thousand.
    Every row's value comes from the same real operations in the same
    order, so it does not depend on the batch it came in: eval_batch(p,
    W)[k] is bitwise eval_batch(p, W[k:k+1])[0].  That is why a one-row
    chunk is evaluated as two equal rows: einsum sums a T x r table term
    after term in each column for every r >= 2, but a T x 1 table as a dot
    product, in another order.
    """
    p = compile_poly(p)
    table, coef = p.table, p.coef
    rows = W.shape[0]
    out = np.zeros(rows, dtype=complex)
    if not len(coef) or rows == 0:
        return out
    top = table.top
    if top == 0:
        out[:] = coef[0]
        return out
    flat = W.reshape(rows, p.m * p.n)
    # parts x variables x rows
    parts = np.stack([flat.real, flat.imag]) if np.iscomplexobj(flat) else flat[None]
    parts = parts.astype(float, copy=False).transpose(0, 2, 1)
    chunk = max(64, min(2**16 // len(coef), 2**15 // (p.m * p.n * (top + 1))))
    mono = None
    for lo in range(0, rows, chunk):
        x = parts[:, :, lo:lo + chunk]
        width = x.shape[2]
        if width == 1:
            x = np.concatenate([x, x], axis=2)
        shape = (len(x), len(coef), x.shape[2])
        if mono is None or mono.shape != shape:
            # the two term tables, allocated once per chunk width: fresh
            # arrays of this size in every chunk cost more in page faults
            # than the arithmetic
            mono, other = np.empty(shape), np.empty(shape)
        # variables x parts x powers x rows: the powers of one variable are contiguous
        powers = np.zeros((x.shape[1], len(x), top + 1, x.shape[2]))
        powers[:, 0, 0] = 1.0
        powers[:, :, 1] = x.transpose(1, 0, 2)
        for k in range(2, top + 1):
            powers[:, :, k] = powers[:, :, k - 1]
            _mul_into(powers[:, :, k].transpose(1, 0, 2), x)
        for h, (variables, half_rows, index) in enumerate(table.halves):
            half = powers[variables[0]][:, half_rows[:, 0]]
            for k in range(1, len(variables)):
                _mul_into(half, powers[variables[k]][:, half_rows[:, k]])
            # the indices are in range; mode "raise" would gather through a buffer
            np.take(half, index, axis=1, out=other if h else mono, mode="clip")
            if h:
                _mul_into(mono, other)
        # einsum, not a matrix product: the first BLAS call grows the
        # resident set by a few MB
        re = np.einsum("tr,t->r", mono[0], coef.real)
        im = np.einsum("tr,t->r", mono[0], coef.imag)
        if len(mono) == 2:
            re -= np.einsum("tr,t->r", mono[1], coef.imag)
            im += np.einsum("tr,t->r", mono[1], coef.real)
        out.real[lo:lo + width] = re[:width]
        out.imag[lo:lo + width] = im[:width]
    return out


class HeatPlan:
    """exp(tr(Delta_A W)) P for every n x n weight matrix W, from exact words built once.

    The entries (Delta_A)_ij with i <= j commute, so with the weights
    w = (W_11, W_12 + W_21, ..., W_22, ...), each off-diagonal entry taken
    once as in trace_laplace_weighted,

        exp(tr(Delta_A W)) P = sum_alpha w^alpha L^alpha P / alpha!,

    where L^alpha applies entry e alpha_e times.  Every nonzero word
    L^alpha P / alpha! is computed exactly, once, as one laplace_entry of an
    earlier word; each entry lowers the degree by two, so there are finitely
    many.  table is the ExponentTable of the union of their monomials (T
    x mn), built once and shared by every flow, coef their pi-substituted
    coefficients (T x words) and alphas the multi-indices (words x
    entries).  flow(W) is then one float matrix-vector product.
    """

    __slots__ = ("m", "n", "entries", "alphas", "table", "coef")

    def __init__(self, P: MatPoly, A):
        self.m, self.n = P.m, P.n
        self.entries = [(i, j) for i in range(P.n) for j in range(i, P.n)]
        words = [((0,) * len(self.entries), P)]
        frontier = words
        while frontier:
            grown = []
            for alpha, word in frontier:
                # every multiset of entries once: extend at or after the last one used
                last = max((e for e, k in enumerate(alpha) if k), default=0)
                for e in range(last, len(self.entries)):
                    child = laplace_entry(word, A, *self.entries[e])
                    if not child.is_zero():
                        beta = alpha[:e] + (alpha[e] + 1,) + alpha[e + 1:]
                        grown.append((beta, child * Fraction(1, beta[e])))
            words = words + grown
            frontier = grown
        monomials = sorted({e for _, word in words for e in word.terms})
        self.alphas = np.array([alpha for alpha, _ in words], dtype=np.intp)
        self.table = ExponentTable(
            P.m, P.n, np.array(monomials, dtype=np.intp).reshape(len(monomials), P.m * P.n))
        self.coef = np.array(
            [[word.terms[e].to_complex() if e in word.terms else 0j for _, word in words]
             for e in monomials], dtype=complex).reshape(len(monomials), len(words))

    def flow(self, W) -> CompiledPoly:
        """exp(tr(Delta_A W)) P, compiled, for a real or complex n x n array W."""
        W = np.asarray(W)
        w = np.array([W[i, i] if i == j else W[j, i] + W[i, j] for i, j in self.entries])
        # einsum, not a matrix product (see eval_batch)
        coef = np.einsum("ta,a->t", self.coef, np.prod(w ** self.alphas, axis=1))
        return CompiledPoly(self.m, self.n, self.table, coef)


# ==== JSON round trip ======================================================


def matpoly_to_json(p: MatPoly) -> dict:
    entries = []
    for e in sorted(p.terms):
        exp = [list(e[i * p.n : (i + 1) * p.n]) for i in range(p.m)]
        for k, re, im in p.terms[e].terms():
            entries.append(
                {"exp": exp, "re": str(re), "im": str(im), "pi_pow": k}
            )
    return {"m": p.m, "n": p.n, "terms": entries}


def json_fraction(x) -> Fraction:
    """A JSON number or string as the rational it spells: "1/3", 2, or 0.1 as 1/10.

    A float is read through its shortest decimal form, so a coefficient and a
    characteristic written the same way are the same rational.
    """
    return Fraction(str(x))


def matpoly_from_json(data: dict) -> MatPoly:
    """Inverse of matpoly_to_json; raises ValueError on a malformed term.

    Coefficients are read with json_fraction.
    """
    m, n = int(data["m"]), int(data["n"])
    terms: dict = {}
    for it in data.get("terms", ()):
        exp = it["exp"]
        if len(exp) != m or any(len(row) != n for row in exp):
            raise ValueError("exponent %r is not an %d x %d matrix" % (exp, m, n))
        e = tuple(x for row in exp for x in row)
        c = PiScalar.from_parts(
            json_fraction(it["re"]), json_fraction(it.get("im", "0")), int(it.get("pi_pow", 0))
        )
        terms[e] = terms.get(e, PiScalar()) + c
    return MatPoly(m, n, terms)
