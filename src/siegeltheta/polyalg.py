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

Coefficients are exact; numeric evaluation substitutes pi and converts to
complex only at the end.  Exponent keys are flat row-major tuples of length
m*n.

A MatPoly holds one integer form, and every ring operation and operator runs
on it: a common denominator and one {exponent: numerator} dict per (pi
power, real or imaginary part), with the Laplacian as the integer matrix
L A^-1 (_laplacian).  pi and i are labels of the parts: the Vigneras
residual multiplies by 4 pi to stay integral, and pi is substituted only
when a polynomial is evaluated or compiled.  The form is canonical and its
readers take the exponents in sorted order, so the floats of a polynomial
depend on its value alone.  PiScalar is the scalar of inputs, constants
and the read-only terms view.

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
import operator
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import ResourceCapError
from .exactlinalg import frac_matrix, gauss_jordan, mat_inverse
from .scalars import PiScalar, abs_at_pi, as_pi_scalar, at_pi

# ==== polynomial containers =================================================


def _numerators(w: PiScalar):
    """(den, [(pi power, part, numerator)]): the nonzero parts of w over one denominator, part 1 imaginary."""
    parts = [(k, part, x) for k, re, im in w.terms() for part, x in ((0, re), (1, im)) if x]
    den = math.lcm(1, *(x.denominator for _, _, x in parts))
    return den, [(k, part, x.numerator * (den // x.denominator)) for k, part, x in parts]


class MatPoly:
    """Polynomial in the entries of an m x n matrix of indeterminates, exact.

    It is held as the operators compute on it: one positive denominator den
    and slots, one {exponent: integer numerator} dict per (pi power, part),
    part 1 imaginary, for the polynomial

        sum_(k, part) sum_e slots[(k, part)][e] i^part pi^k U^e / den.

    The form is canonical (no zero numerator, no empty slot, den prime to
    the numerators together), so == and hash do not depend on how a
    polynomial was built.  terms is a read-only {exponent: PiScalar} view;
    it, eval, compile_poly and the JSON form take the exponents in sorted
    order.  A MatPoly is not changed after it is made.
    """

    __slots__ = ("m", "n", "den", "slots", "_terms")

    def __init__(self, m: int, n: int, terms=None):
        self.m = int(m)
        self.n = int(n)
        parts = []
        for e, c in (terms or {}).items():
            key = tuple(int(x) for x in e)
            if len(key) != self.m * self.n or min(key, default=0) < 0 or key != tuple(e):
                raise ValueError("exponent %r is not %d nonnegative integers" % (e, self.m * self.n))
            parts += [(key, k, part, x) for k, re, im in as_pi_scalar(c).terms()
                      for part, x in ((0, re), (1, im)) if x]
        # the lcm of reduced denominators leaves no factor common to den and every numerator
        self.den = math.lcm(1, *(x.denominator for *_, x in parts))
        self.slots = {}
        for key, k, part, x in parts:
            self.slots.setdefault((k, part), {})[key] = x.numerator * (self.den // x.denominator)
        self._terms = None

    # ---- constructors ----

    @classmethod
    def _from(cls, m: int, n: int, den: int, slots) -> "MatPoly":
        """The canonical MatPoly of slots over den != 0: zeros and empty slots dropped, common factors divided out."""
        clean = {}
        for key, t in slots.items():
            t = {e: v for e, v in t.items() if v}
            if t:
                clean[key] = t
        g = math.gcd(den, *[v for t in clean.values() for v in t.values()])
        g = -g if den < 0 else g
        if g != 1:
            clean = {key: {e: v // g for e, v in t.items()} for key, t in clean.items()}
        out = cls.__new__(cls)
        out.m, out.n, out.den, out.slots, out._terms = m, n, den // g, clean, None
        return out

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
        return cls._from(m, n, 1, {(0, 0): {tuple(e): 1}})

    # ---- basic queries ----

    def _exponents(self) -> list:
        """The exponents of the nonzero terms, sorted."""
        return sorted(set().union(*self.slots.values()))

    def _by_term(self):
        """(exponent, [(pi power, re numerator, im numerator)]) per term, exponents sorted, powers ascending."""
        columns = [(k, self.slots.get((k, 0), {}), self.slots.get((k, 1), {}))
                   for k in sorted({k for k, _ in self.slots})]
        for e in self._exponents():
            yield e, [(k, re.get(e, 0), im.get(e, 0)) for k, re, im in columns if e in re or e in im]

    @property
    def terms(self):
        """{exponent: PiScalar} in sorted exponent order, read-only, built once."""
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType({e: PiScalar({k: (Fraction(re, den), Fraction(im, den))
                                                         for k, re, im in parts})
                                            for e, parts in self._by_term()})
        return self._terms

    def floats(self) -> dict:
        """{exponent: coefficient at pi = math.pi}, exponents sorted; each is the term's PiScalar.to_complex, bitwise.

        re / den is the correctly rounded quotient, as float(Fraction(re, den))
        is, and Fraction -> complex adds 0.0 to the imaginary part.
        """
        den = self.den
        return {e: at_pi((k, re / den, im / den + 0.0) for k, re, im in reversed(parts))
                for e, parts in self._by_term()}

    def is_zero(self) -> bool:
        return not self.slots

    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max((sum(e) for t in self.slots.values() for e in t), default=0)

    def coeff_norm(self) -> float:
        den = self.den
        return math.fsum(abs_at_pi((k, re / den, im / den) for k, re, im in parts)
                         for _, parts in self._by_term())

    def column_degrees(self):
        """Set of per-monomial column degree vectors."""
        return {tuple(sum(e[i * self.n + j] for i in range(self.m)) for j in range(self.n))
                for t in self.slots.values() for e in t}

    def __eq__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        return (self.m, self.n, self.den, self.slots) == (other.m, other.n, other.den, other.slots)

    def __hash__(self):
        return hash((self.m, self.n, self.den,
                     frozenset((key, frozenset(t.items())) for key, t in self.slots.items())))

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
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        slots = {key: {e: v * a for e, v in t.items()} for key, t in self.slots.items()}
        for key, t in other.slots.items():
            out = slots.setdefault(key, {})
            for e, v in t.items():
                out[e] = out.get(e, 0) + v * b
        return MatPoly._from(self.m, self.n, den, slots)

    __radd__ = __add__

    def __neg__(self):
        return MatPoly._from(self.m, self.n, self.den,
                             {key: {e: -v for e, v in t.items()} for key, t in self.slots.items()})

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
            cden, parts = _numerators(as_pi_scalar(other))
            slots = {}
            for (k, part), t in self.slots.items():
                for q, cpart, c in parts:
                    # i times i is -1
                    c = -c if part & cpart else c
                    out = slots.setdefault((k + q, part ^ cpart), {})
                    for e, v in t.items():
                        out[e] = out.get(e, 0) + v * c
            return MatPoly._from(self.m, self.n, self.den * cden, slots)
        if not isinstance(other, MatPoly):
            return NotImplemented
        self._check_shape(other)
        slots = {}
        for (k1, part1), t1 in self.slots.items():
            for (k2, part2), t2 in other.slots.items():
                out = slots.setdefault((k1 + k2, part1 ^ part2), {})
                sign = -1 if part1 & part2 else 1
                for e1, v1 in t1.items():
                    v1 *= sign
                    for e2, v2 in t2.items():
                        e = tuple(map(operator.add, e1, e2))
                        out[e] = out.get(e, 0) + v1 * v2
        return MatPoly._from(self.m, self.n, self.den * other.den, slots)

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
        for e, v in self.floats().items():
            for x, k in zip(flat, e):
                if k:
                    v *= x**k
            total += v
        return total

    def __repr__(self):
        return "MatPoly(%dx%d, %d terms, degree %d)" % (self.m, self.n, len(self._exponents()), self.degree())


class OperatorMatrix:
    """An n x n grid of ring elements, the result of a matrix operator."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.n = len(self.entries)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.entries for f in row)

    def norm(self) -> float:
        return max(f.coeff_norm() for row in self.entries for f in row)


# ==== integer monomial passes ===============================================


_LAPLACIANS: dict = {}


def _laplacian(A):
    """(W, L): W = L A^-1 integral, L the lcm of the denominators of A^-1; kept per A."""
    # ints, Fractions and floats of one value hash and compare equal, so the
    # entries as given key the cache and become Fractions only on a miss
    key = tuple(map(tuple, A))
    got = _LAPLACIANS.get(key)
    if got is None:
        inv = mat_inverse(frac_matrix(key))
        L = math.lcm(*(x.denominator for row in inv for x in row))
        got = _LAPLACIANS[key] = ([[int(x * L) for x in row] for row in inv], L)
    return got


def _euler_terms(terms: dict, m: int, n: int, i: int, j: int) -> dict:
    """E_ij on integer terms: sum_d U_di d/dU_dj, one monomial pass."""
    out = {}
    for e, c in terms.items():
        for d in range(m):
            k = e[d * n + j]
            if k:
                e2 = list(e)
                e2[d * n + j] = k - 1
                e2[d * n + i] += 1
                key = tuple(e2)
                out[key] = out.get(key, 0) + c * k
    return out


def _laplace_terms(terms: dict, m: int, n: int, W, i: int, j: int) -> dict:
    """sum_ab d/dU_ai W_ab d/dU_bj on integer terms: one monomial pass per (b, a) with W_ab != 0.

    Each term gains c k_bj k_ai W_ab, k_ai less one when ai = bj.
    """
    out = {}
    for b in range(m):
        bj = b * n + j
        for a in range(m):
            w = W[a][b]
            if not w:
                continue
            ai = a * n + i
            for e, c in terms.items():
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
                out[key] = out.get(key, 0) + c * (w * kb * ka)
    return out


def _partial_into(out: dict, terms: dict, idx: int, w: int):
    """out += w d/dU_idx terms."""
    for e, c in terms.items():
        k = e[idx]
        if k:
            e2 = list(e)
            e2[idx] = k - 1
            key = tuple(e2)
            out[key] = out.get(key, 0) + c * (w * k)


def _times_var_into(out: dict, terms: dict, idx: int, w: int):
    """out += w U_idx terms."""
    for e, c in terms.items():
        e2 = list(e)
        e2[idx] += 1
        key = tuple(e2)
        out[key] = out.get(key, 0) + c * w


def _laplace(f: MatPoly, lap, i: int, j: int) -> MatPoly:
    """(Delta_A)_ij f, lap = _laplacian(A)."""
    W, L = lap
    return MatPoly._from(f.m, f.n, f.den * L,
                         {key: _laplace_terms(t, f.m, f.n, W, i, j) for key, t in f.slots.items()})


def _trace_weights(W, n: int):
    """[(i, j, w)] of tr(Delta_A W): entries i <= j, each off-diagonal one weighted W_ij + W_ji, zeros dropped.

    A is symmetric and partial derivatives commute, so (Delta_A)_ij =
    (Delta_A)_ji; both weights are added because W need not be symmetric
    (the float inverse of a symmetric Y is not always bit-symmetric).
    """
    def weight(a, b):
        return as_pi_scalar(W[a][b] if not isinstance(W, np.ndarray) else W[a, b])

    weights = [(i, j, weight(i, i) if i == j else weight(j, i) + weight(i, j))
               for i in range(n) for j in range(i, n)]
    return [(i, j, w) for i, j, w in weights if w]


def _trace_step(f: MatPoly, lap, weights) -> MatPoly:
    """sum w (Delta_A)_ij f over weights [(i, j, w)]."""
    out = MatPoly.zero(f.m, f.n)
    for i, j, w in weights:
        piece = _laplace(f, lap, i, j)
        out = out + (piece if w == 1 else piece * w)
    return out


# ==== exact operators =======================================================


def partial(f, i: int, j: int):
    """d/dU_ij."""
    slots = {}
    for key, t in f.slots.items():
        _partial_into(slots.setdefault(key, {}), t, i * f.n + j, 1)
    return MatPoly._from(f.m, f.n, f.den, slots)


def euler_entry(f, i: int, j: int):
    """E_ij f = sum_d U_di d/dU_dj f."""
    return MatPoly._from(f.m, f.n, f.den,
                         {key: _euler_terms(t, f.m, f.n, i, j) for key, t in f.slots.items()})


def laplace_entry(f, A, i: int, j: int):
    """(Delta_A)_ij f = sum_ab d/dU_ai (A^-1)_ab d/dU_bj f."""
    return _laplace(f, _laplacian(A), i, j)


def trace_laplace(f, A):
    """tr(Delta_A) f."""
    return _trace_step(f, _laplacian(A), [(i, i, 1) for i in range(f.n)])


def trace_laplace_weighted(f, A, W):
    """tr(Delta_A W) f = sum_ij W_ji (Delta_A)_ij f, W an n x n scalar matrix (_trace_weights)."""
    return _trace_step(f, _laplacian(A), _trace_weights(W, f.n))


# ==== heat-operator exponential =============================================


def _heat_series(p: MatPoly, A, weights, c) -> MatPoly:
    """sum_k c^k/k! T^k p, T = sum w (Delta_A)_ij over weights [(i, j, w)]; finite, as T lowers the degree."""
    lap, c = _laplacian(A), as_pi_scalar(c)
    out = flow = p
    scale = as_pi_scalar(1)
    for k in itertools.count(1):
        flow = _trace_step(flow, lap, weights)
        if flow.is_zero():
            return out
        scale = scale * c * Fraction(1, k)
        out = out + flow * scale


def exp_trace_laplace(p: MatPoly, A, c) -> MatPoly:
    """exp(c tr Delta_A) p = sum_k c^k/k! (tr Delta_A)^k p (finite on polynomials)."""
    return _heat_series(p, A, [(i, i, 1) for i in range(p.n)], c)


def exp_trace_laplace_weighted(p: MatPoly, A, W, c) -> MatPoly:
    """exp(c tr(Delta_A W)) p with a column-mixing weight matrix W."""
    return _heat_series(p, A, _trace_weights(W, p.n), c)


# ==== substitution ==========================================================


def substitute_linear(p: MatPoly, L, N) -> MatPoly:
    """p(L U N) for an m x m matrix L and an n x n matrix N (exactly embedded)."""
    m, n = p.m, p.n

    def entry(M, i, j):
        return as_pi_scalar(M[i][j] if not isinstance(M, np.ndarray) else M[i, j])

    def linear_form(a, b):
        """(L U N)_ab as a MatPoly, built for the variables that occur in p only."""
        lf = MatPoly.zero(m, n)
        for i in range(m):
            li = entry(L, a, i)
            if li.is_zero():
                continue
            for j in range(n):
                c = li * entry(N, j, b)
                if not c.is_zero():
                    lf = lf + MatPoly.variable(m, n, i, j) * c
        return lf

    forms, pow_cache = {}, {}

    def form_power(a, b, k):
        key = (a, b, k)
        got = pow_cache.get(key)
        if got is None:
            if (a, b) not in forms:
                forms[(a, b)] = linear_form(a, b)
            got = pow_cache[key] = forms[(a, b)] ** k
        return got

    out = MatPoly.zero(m, n)
    one = (0,) * (m * n)
    for key, t in p.slots.items():
        for e, v in t.items():
            prod = MatPoly._from(m, n, p.den, {key: {one: v}})
            for a in range(m):
                for b in range(n):
                    k = e[a * n + b]
                    if k:
                        prod = prod * form_power(a, b, k)
            out = out + prod
    return out


# ==== Vigneras operator =====================================================


def _vigneras(f: MatPoly, A, aminus, lam) -> OperatorMatrix:
    """(E - Delta_A/(4 pi)) f - lam I f on integers, the Gaussian of aminus divided out.

    With A- = S / s (S integral) every d/dU_ai is d/dU_ai + 4 pi (A- U)_ai,
    the product rule on f exp(2 pi tr(U^T A- U)); A- = 0 is the definite
    case.  Each (pi power, part) slot of f = F / den goes through the
    integer operators d' = s d/dU + 4 pi S U and W = L A^-1:

        N_ij = 4 pi s L l E'_ij - l Lap'_ij - [i = j] 4 pi s^2 L (l lam) F,
        E'_ij = sum_e U_ei d'_ej F,  Lap'_ij = sum_a d'_ai sum_b W_ab d'_bj F,

    with l lam over the integers, and the entry is N_ij / (4 pi s^2 L l
    den).  4 pi raises a slot's pi power by one, so no slot divides.
    """
    m, n = f.m, f.n
    W, L = _laplacian(A)
    den, F = f.den, f.slots
    lden, lam_parts = _numerators(as_pi_scalar(lam))
    S, sden = None, 1
    if aminus is not None:
        rows = [[Fraction(x) for x in row] for row in aminus]
        sden = math.lcm(1, *(x.denominator for row in rows for x in row))
        S = [[int(x * sden) for x in row] for row in rows]

    def add_into(out, g, w):
        for (k, part), terms in g.items():
            o = out.setdefault((k, part), {})
            for e, v in terms.items():
                o[e] = o.get(e, 0) + v * w

    def d(g, b, j):
        out = {}
        for (k, part), terms in g.items():
            _partial_into(out.setdefault((k, part), {}), terms, b * n + j, sden)
            for c in range(m) if S else ():
                if S[b][c]:
                    _times_var_into(out.setdefault((k + 1, part), {}), terms, c * n + j, 4 * S[b][c])
        return out

    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        dj = [d(F, b, j) for b in range(m)]
        inner = []
        for a in range(m):
            acc = {}
            for b in range(m):
                if W[a][b]:
                    add_into(acc, dj[b], W[a][b])
            inner.append(acc)
        for i in range(n):
            N = {}
            for e in range(m):
                for (k, part), terms in dj[e].items():
                    _times_var_into(N.setdefault((k + 1, part), {}), terms, e * n + i, 4 * sden * L * lden)
            for a in range(m):
                add_into(N, d(inner[a], a, i), -lden)
            if i == j:
                for q, lpart, c in lam_parts:
                    for (k, part), terms in F.items():
                        # i times i is -1
                        w = 4 * sden * sden * L * c * (1 if part & lpart else -1)
                        o = N.setdefault((k + q + 1, part ^ lpart), {})
                        for e, v in terms.items():
                            o[e] = o.get(e, 0) + v * w
            rows[i][j] = MatPoly._from(m, n, 4 * sden * sden * L * lden * den,
                                       {(k - 1, part): t for (k, part), t in N.items()})
    return OperatorMatrix(rows)


def vigneras_apply(f: MatPoly, A, aminus=None) -> OperatorMatrix:
    """Matrix of (E - Delta_A/(4 pi)) applied to f, an n x n OperatorMatrix.

    With aminus, the A- of an indefinite form (exact entries), the operator
    acts on the coefficient f exp(2 pi tr(U^T A- U)) and the Gaussian is
    divided out of the result again: by the product rule every d/dU_ai
    becomes d/dU_ai + 4 pi (A- U)_ai.  Without it A- = 0.
    """
    return _vigneras(f, A, aminus, 0)


def vigneras_residual(f: MatPoly, A, lam, aminus=None) -> OperatorMatrix:
    """vigneras_apply(f, A, aminus) - lam * I * f; identically zero for a solution."""
    return _vigneras(f, A, aminus, lam)


# ==== homogeneity ===========================================================


def homogeneity_degree(p: MatPoly):
    """alpha with p(U N) = det(N)^alpha p(U), or None if p is not homogeneous.

    Equivalent to the eigen-equation E p = alpha I p: every monomial must have
    all column degrees equal to alpha and the off-diagonal Euler entries must
    vanish, on every (pi power, part) slot of p.  Constants (including 0)
    report 0.
    """
    if p.is_zero():
        return 0
    degs = p.column_degrees()
    if len(degs) != 1:
        return None
    vec = next(iter(degs))
    if len(set(vec)) != 1:
        return None
    for i in range(p.n):
        for j in range(p.n):
            if i != j and any(any(_euler_terms(t, p.m, p.n, i, j).values()) for t in p.slots.values()):
                return None
    return vec[0]


def _minor_products(m: int, n: int, alpha: int, shifts):
    """{code: coefficient} of the product of the minors det U[I, :] along each chain I_1 <= ... <= I_alpha.

    Row sets compare entrywise.  A monomial's code is the sum of its exponents
    shifted left by shifts[v] bits, v = i n + j, in digits wide enough for
    alpha and U_00 highest, so codes order as exponent tuples do.
    """
    perms = [(list(enumerate(perm)), (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)))
             for perm in itertools.permutations(range(n))]
    subsets = list(itertools.combinations(range(m), n))
    minors = [{sum([1 << shifts[rows[p] * n + j] for j, p in perm]): sign for perm, sign in perms}
              for rows in subsets]
    factors = [(first, rest) for first, *rest in (minor.items() for minor in minors)]
    # an entrywise larger subset is also lexicographically larger; alpha = 1 needs none
    above = [[b for b in range(a, len(subsets)) if all(map(operator.le, subsets[a], subsets[b]))]
             for a in range(len(subsets) if alpha > 1 else 0)]
    level = [(minor, a) for a, minor in enumerate(minors)]  # (product, last subset) per chain
    for _ in range(alpha - 1):
        nxt_level = []
        for prod, last in level:
            for b in above[last]:
                (mcode, y), rest = factors[b]
                nxt = {code + mcode: x * y for code, x in prod.items()}
                for mcode, y in rest:
                    for code, x in prod.items():
                        k = code + mcode
                        nxt[k] = nxt.get(k, 0) + x * y
                nxt_level.append((nxt, b))
        level = nxt_level
    return [prod for prod, _ in level]


def basis_homopol(m: int, n: int, alpha: int, monomial_cap: int = 2_000_000):
    """Exact basis of {P : E P = alpha I P} in degree n*alpha; empty for m < n and alpha >= 1.

    The products of alpha n x n minors along chains of row sets (semistandard
    tableaux of shape alpha^n) are a basis (Doubilet, Rota and Stein 1974; De
    Concini, Eisenbud and Procesi 1980).  One gauss_jordan takes them to
    reduced echelon form, columns from the largest monomial down; each row is
    scaled to a primitive integer vector positive at its smallest monomial,
    elements ordered by pivot.  That is the kernel basis of the Euler
    constraints over the monomials of column degree alpha, whose free
    columns are these pivots.  monomial_cap bounds the count of all
    monomials of degree n*alpha in the m*n entries (ResourceCapError above).
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
    if n == 1:
        # the minors are the entries: each chain is its own monomial, and reversed they ascend
        return [MatPoly._from(m, n, 1, {(0, 0): {tuple(map(chain.count, range(m))): 1}})
                for chain in reversed(list(itertools.combinations_with_replacement(range(m), alpha)))]

    bits = alpha.bit_length()
    shifts, mask = range(bits * (m * n - 1), -1, -bits), (1 << bits) - 1
    products = _minor_products(m, n, alpha, shifts)
    support = sorted({code for prod in products for code, x in prod.items() if x}, reverse=True)
    column = {code: c for c, code in enumerate(support)}
    rows = [{column[code]: x for code, x in prod.items() if x} for prod in products]
    rank = len(gauss_jordan(rows, len(support))[0])
    exponents = [tuple(map(mask.__and__, map(code.__rshift__, shifts))) for code in support]
    basis = []
    for row in reversed(rows[:rank]):
        # the pivot entry is 1, so the lcm of the denominators leaves a primitive vector
        den = math.lcm(*[x.denominator for x in row.values()])
        den = -den if row[max(row)] < 0 else den  # the largest column is the smallest monomial
        basis.append(MatPoly._from(m, n, 1, {(0, 0): {exponents[c]: x.numerator * (den // x.denominator)
                                                      for c, x in row.items()}}))
    return basis


# ==== numeric batch evaluation =============================================


def _half(exponents, variables):
    """(variables, rows, index): the distinct exponent rows of the variables and each term's row."""
    rows, index = np.unique(exponents[:, variables], axis=0, return_inverse=True)
    return variables, rows, index.reshape(-1)


def _mul_into(a, b, out=None):
    """out = a * b (a *= b without out) for real arrays with a leading axis of parts.

    One part is a real value, two are (real, imaginary).  The complex product
    is spelled out in real operations, each rounded on its own: numpy's
    complex multiply rounds differently in different inner loops (with and
    without fused multiply-add), and which loop runs depends on the shapes
    and strides of the operands.
    """
    out = a if out is None else out
    if len(a) == 1:
        np.multiply(a, b, out=out)
    else:
        re = a[0] * b[0] - a[1] * b[1]
        out[1] = a[0] * b[1] + a[1] * b[0]
        out[0] = re


# eval_batch forms V = C h_1, an n_0 x n_1 matrix product, once per run of
# rows: a table keeps its outer half only while C has at most this many
# entries per term
_MATRIX_PER_TERM = 3


class ExponentTable:
    """A T x mn exponent matrix and the index tables eval_batch reads, built once.

    inner and outer split the mn variables in two: the first floor(mn/2) in
    column-major order (U_00, U_10, ..., U_01, ...) and the rest, so an
    m x 2 matrix gives one column each, less the variables of exponent 0
    in every term.  Each is (variables, rows, index): rows holds its n_h
    distinct half-monomials (exponents, n_h <= T) and term t is the product
    of row index[t] of each half.  The split is kept when it at least halves
    the per-row work and its coefficient matrix (CompiledPoly.matrix) holds
    at most _MATRIX_PER_TERM entries per term: 2 n_0 <= T and n_0 n_1 <=
    _MATRIX_PER_TERM T.  Otherwise, or when only one half has a variable,
    inner holds every variable and outer is None (both None without
    variables).

    degrees holds each term's total degree, degree their largest (0 without
    terms) and top the largest single exponent.  The Bombieri weights are
    built on first use and kept here, so every polynomial that shares the
    exponents (each flow of a HeatPlan) shares them too.
    """

    __slots__ = ("m", "n", "exponents", "degrees", "degree", "top", "inner", "outer", "_weights")

    def __init__(self, m: int, n: int, exponents: np.ndarray):
        self.m, self.n = m, n
        self.exponents = exponents
        self.degrees = exponents.sum(axis=1)
        self.degree = int(self.degrees.max(initial=0))
        self.top = int(exponents.max(initial=0))
        order = [i * n + j for j in range(n) for i in range(m)]
        cut = len(order) // 2
        # a variable of exponent 0 in every term only multiplies by 1
        halves = [[v for v in variables if exponents[:, v].any()]
                  for variables in (order[:cut], order[cut:])]
        halves = [_half(exponents, variables) for variables in halves if variables]
        if len(halves) == 2:
            n0, n1, terms = len(halves[0][1]), len(halves[1][1]), len(exponents)
            if 2 * n0 > terms or n0 * n1 > _MATRIX_PER_TERM * terms:
                halves = [_half(exponents, halves[0][0] + halves[1][0])]
        self.inner, self.outer = halves + [None] * (2 - len(halves))
        self._weights = None

    def weights(self) -> np.ndarray:
        """alpha!/|alpha|! for each term, correctly rounded (an integer quotient)."""
        if self._weights is None:
            self._weights = np.array(
                [math.prod(map(math.factorial, row)) / math.factorial(sum(row))
                 for row in self.exponents.tolist()], dtype=float)
        return self._weights


# the relative rounding allowance of CompiledPoly.majorant, per term
_BOMBIERI_ROUNDING = 2.0**-52
# below this alpha!/k! weight (degrees in the hundreds) majorant sums the moduli instead
_SMALLEST_WEIGHT = 2.0**-960


class CompiledPoly:
    """A polynomial ready for numeric evaluation.

    table is the ExponentTable of its T terms and coef the T complex
    coefficients; matrix() lays them out as eval_batch reads them, built
    once.  terms is the exponent matrix, so len(p.terms) counts the terms
    as it does for a MatPoly.
    """

    __slots__ = ("m", "n", "table", "coef", "_majorant", "_matrix")

    def __init__(self, m: int, n: int, table: ExponentTable, coef: np.ndarray):
        self.m = m
        self.n = n
        self.table = table
        self.coef = coef
        self._majorant = self._matrix = None

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

    def matrix(self) -> np.ndarray:
        """2 x 2 x n_1 x n_0: C^T, C[inner(t), outer(t)] = c_t, as (Re C^T, Im C^T) and (-Im C^T,
        Re C^T), the factors of the real and the imaginary part of a value; n_1 = 1 without an
        outer half."""
        if self._matrix is None:
            table = self.table
            outer, n1 = (0, 1) if table.outer is None else (table.outer[2], len(table.outer[1]))
            CT = np.zeros((n1, len(table.inner[1])), dtype=complex)
            CT[outer, table.inner[2]] = self.coef
            self._matrix = np.stack([CT.real, CT.imag, -CT.imag, CT.real]).reshape(2, 2, *CT.shape)
        return self._matrix


def compile_poly(p) -> CompiledPoly:
    """p as a CompiledPoly, pi substituted; a CompiledPoly is returned as it is."""
    if isinstance(p, CompiledPoly):
        return p
    floats = p.floats()
    E = np.array(list(floats), dtype=np.intp).reshape(len(floats), p.m * p.n)
    coef = np.array(list(floats.values()), dtype=complex)
    return CompiledPoly(p.m, p.n, ExponentTable(p.m, p.n, E), coef)


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """variables x parts x (top + 1) x r: the powers 0..top of each variable of x.

    x holds parts x variables x r values; the powers come by repeated
    multiplication.  The powers of one variable are contiguous.
    """
    powers = np.zeros((x.shape[1], len(x), top + 1, x.shape[2]))
    powers[:, 0, 0] = 1.0
    powers[:, :, 1] = x.transpose(1, 0, 2)
    for k in range(2, top + 1):
        _mul_into(powers[:, :, k - 1].transpose(1, 0, 2), x, powers[:, :, k].transpose(1, 0, 2))
    return powers


def _monomials(powers: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """parts x n_h x r: per row of rows (n_h x k exponents), the product of one power row per variable."""
    half = powers[0][:, rows[:, 0]]
    for k in range(1, rows.shape[1]):
        _mul_into(half, powers[k][:, rows[:, k]])
    return half


def _twice_if_one(x: np.ndarray) -> np.ndarray:
    """x with its one column (last axis) repeated, else x."""
    return np.concatenate([x, x], axis=-1) if x.shape[-1] == 1 else x


def eval_batch(p, W: np.ndarray) -> np.ndarray:
    """Evaluate p (a MatPoly or CompiledPoly) at a batch of matrices, W of shape (batch, m, n).

    A MatPoly is compiled first (compile_poly): an ExponentTable of its T
    terms and a coefficient vector.  The table splits the variables into an
    inner and an outer half, with n_0 and n_1 distinct half-monomials h_0
    and h_1, and the coefficients form the n_0 x n_1 matrix C[inner(t),
    outer(t)] = c_t (CompiledPoly.matrix), so that

        p(W) = sum_i h_0,i(W) V_i(W),  V = C h_1(W),

    and V depends on the outer variables alone.  The rows whose outer
    values are bitwise those of the row before form a run with it, found
    from the values themselves, and V is formed once per run, by one
    einsum per part for a chunk of runs.  Each row then takes its n_0 inner
    half-monomials and their n_0-term contraction with its run's V.  A
    half-monomial costs k_h - 1 multiplies for k_h variables, after the
    powers of each variable.

    The cost model: n_0 n_1 <= _MATRIX_PER_TERM T multiply-adds per
    distinct outer value (ExponentTable keeps no split with more) plus n_0
    per row.  A lattice walk emits the rows of one outer prefix together,
    and the plain series keeps the outer columns of W = U C apart
    (theta._series_plan): the degree-4 genus-2 Borcherds polynomial of the
    coeff benchmark on a rank-3 form has T = 503 terms and n_0 = n_1 = 35,
    and its walks repeat an outer value about 45 times.  A table without
    the split (n_0 > T/2, C too large, or one half only) has V the
    coefficient vector, for every row: T multiply-adds per row and no run
    search, the cheaper path for the one- and two-term polynomials of many
    small calls.

    Chunks hold at most max(64, 2^16 // (n_0 n_1)) runs and max(64,
    min(2^14 // n_0, 2^16 // (k_0 (top + 1)))) rows, k_0 the inner
    variables and top the largest exponent, so that the run tables, the
    row tables and the power table stay near 1 MB (2 MB for complex W)
    whatever the batch size.  Every row's value comes from the same real
    operations in the same order, so it does not depend on the batch it
    came in: eval_batch(p, W)[k] is bitwise eval_batch(p, W[k:k+1])[0].
    That is why a chunk of one row or of one run is evaluated as two equal
    columns: einsum sums a table column after column for every width >= 2,
    but a single column as a dot product, in another order.  The
    contractions are einsums, not matrix products: the first BLAS call
    grows the resident set by a few MB.
    """
    p = compile_poly(p)
    table, coef = p.table, p.coef
    rows = W.shape[0]
    out = np.zeros(rows, dtype=complex)
    if not len(coef) or rows == 0:
        return out
    if table.top == 0:
        out[:] = coef[0]
        return out
    flat = W.reshape(rows, p.m * p.n)
    # parts x variables x rows
    parts = np.stack([flat.real, flat.imag]) if np.iscomplexobj(flat) else flat[None]
    parts = parts.astype(float, copy=False).transpose(0, 2, 1)
    C = p.matrix()
    inner_vars, inner_rows, _ = table.inner
    n0 = len(inner_rows)
    row_cap = max(64, min(2**14 // n0, 2**16 // (len(inner_vars) * (table.top + 1))))
    if table.outer is not None:
        outer_vars, outer_rows, _ = table.outer
        x1 = parts[:, outer_vars]
        # compared bitwise, so that every row of a run gets its first row's V
        bits = x1.view(np.int64)
        changed = bits[:, :, 1:] != bits[:, :, :-1]
        starts = np.flatnonzero(changed.reshape(len(x1) * len(outer_vars), -1).any(axis=0)) + 1
        starts = np.concatenate([[0], starts])
        ends = np.append(starts[1:], rows)
        run_of = np.repeat(np.arange(len(starts)), ends - starts)
        run_cap = max(64, 2**16 // (n0 * len(outer_rows)))
    # rows x (real, imaginary)
    values = out.view(float).reshape(rows, 2)
    lo = 0
    while lo < rows:
        hi = min(rows, lo + row_cap)
        if table.outer is None:
            V, spec = C[0, :, 0], "ir,ci->cr"
        else:
            first = run_of[lo]
            if first + run_cap < len(starts):
                hi = min(hi, starts[first + run_cap])
            last = run_of[hi - 1] + 1
            h1 = _monomials(_powers(_twice_if_one(x1[:, :, starts[first:last]]), table.top), outer_rows)
            V = np.empty((2, n0, h1.shape[2]))
            for c in range(2):
                np.einsum("jr,ji->ir", h1[0], C[0, c], out=V[c])
                if len(h1) == 2:
                    V[c] += np.einsum("jr,ji->ir", h1[1], C[1, c])
            # the indices are in range, and mode "raise" would take through a buffer
            V = np.take(V, _twice_if_one(run_of[lo:hi] - first), axis=2, mode="clip")
            spec = "ir,cir->cr"
        h0 = _monomials(_powers(_twice_if_one(parts[:, inner_vars, lo:hi]), table.top), inner_rows)
        value = np.einsum(spec, h0[0], V)
        if len(h0) == 2:
            imag = np.einsum(spec, h0[1], V)
            value[0] -= imag[1]
            value[1] += imag[0]
        values[lo:hi] = value[:, :hi - lo].T
        lo = hi
    return out


class HeatPlan:
    """exp(tr(Delta_A W)) P for every n x n weight matrix W, from exact words built once.

    The entries (Delta_A)_ij with i <= j commute, so with the weights
    w = (W_11, W_12 + W_21, ..., W_22, ...), each off-diagonal entry taken
    once as in trace_laplace_weighted,

        exp(tr(Delta_A W)) P = sum_alpha w^alpha L^alpha P / alpha!,

    where L^alpha applies entry e alpha_e times.  Every nonzero word
    L^alpha P / alpha! is computed exactly, once, as one Laplacian entry of
    an earlier word (_laplace); each entry lowers the degree by two, so
    there are finitely many.  table is the ExponentTable of the union of
    their monomials (T x mn), built once and shared by every flow, coef
    their pi-substituted coefficients (T x words) and alphas the
    multi-indices (words x entries).  flow(W) is then one float
    matrix-vector product.
    """

    __slots__ = ("m", "n", "entries", "alphas", "table", "coef")

    def __init__(self, P: MatPoly, A):
        self.m, self.n = P.m, P.n
        self.entries = [(i, j) for i in range(P.n) for j in range(i, P.n)]
        lap = _laplacian(A)
        words = [((0,) * len(self.entries), P)]
        frontier = words
        while frontier:
            grown = []
            for alpha, word in frontier:
                # every multiset of entries once: extend at or after the last one used
                last = max((e for e, k in enumerate(alpha) if k), default=0)
                for e in range(last, len(self.entries)):
                    child = _laplace(word, lap, *self.entries[e])
                    if not child.is_zero():
                        beta = alpha[:e] + (alpha[e] + 1,) + alpha[e + 1:]
                        grown.append((beta, child * Fraction(1, beta[e])))
            words = words + grown
            frontier = grown
        floats = [word.floats() for _, word in words]
        monomials = sorted(set().union(*floats))
        self.alphas = np.array([alpha for alpha, _ in words], dtype=np.intp)
        self.table = ExponentTable(
            P.m, P.n, np.array(monomials, dtype=np.intp).reshape(len(monomials), P.m * P.n))
        self.coef = np.array([[word.get(e, 0j) for word in floats] for e in monomials],
                             dtype=complex).reshape(len(monomials), len(words))

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
