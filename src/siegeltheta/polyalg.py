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

Every exact operator runs on one integer kernel.  A polynomial enters it once
as a common denominator and one {exponent: numerator} dict per (pi power,
real or imaginary part) (_slots), the Laplacian as the integer matrix
L A^-1 (_laplacian), and the result becomes a MatPoly of PiScalars once, at
the end of an operator chain.  Where the order of the result's terms is
read (compile_poly and MatPoly.eval follow it), the parts of each term are
packed into one int (_Ints), so that terms are summed and dropped as a
pass over PiScalar coefficients would sum and drop them.  pi is a label
of the parts throughout: the Vigneras residual multiplies by 4 pi to stay
integral, and pi is substituted only in PiScalar.to_complex.

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

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.entries for f in row)

    def norm(self) -> float:
        return max(f.coeff_norm() for row in self.entries for f in row)


# ==== the integer kernel (see the module docstring) =========================


def _numerators(w: PiScalar):
    """(den, [(pi power, part, numerator)]): the nonzero parts of w over one denominator, part 1 imaginary."""
    parts = [(k, part, x) for k, re, im in w.terms() for part, x in ((0, re), (1, im)) if x]
    den = math.lcm(1, *(x.denominator for _, _, x in parts))
    return den, [(k, part, x.numerator * (den // x.denominator)) for k, part, x in parts]


def _slots(p: MatPoly):
    """(den, slots): p over one denominator, one {exponent: numerator} dict per (pi power, part)."""
    den = math.lcm(1, *(x.denominator for c in p.terms.values() for _, re, im in c.terms() for x in (re, im)))
    slots = {}
    for e, c in p.terms.items():
        for k, re, im in c.terms():
            for part, x in ((0, re), (1, im)):
                if x:
                    slots.setdefault((k, part), {})[e] = x.numerator * (den // x.denominator)
    return den, slots


def _graded_poly(m: int, n: int, slots, den: int, shift: int = 0) -> MatPoly:
    """The MatPoly of slots over den, every pi power moved by shift; zero numerators are dropped."""
    parts = {}
    for (k, part), terms in slots.items():
        for e, v in terms.items():
            if v:
                parts.setdefault(e, {}).setdefault(k + shift, [0, 0])[part] = v
    out = MatPoly(m, n)
    out.terms = {e: PiScalar.from_numerators(c, den) for e, c in parts.items()}
    return out


class _Ints:
    """A polynomial on integers: term e is sum_k digit_k(terms[e]) pi^q_k i^part_k / den, (q_k, part_k) = fields[k].

    terms[e] holds all the digits of term e in one int, digit k at bit
    k * bits and balanced, |digit| <= top < 2^(bits - 1).  Sums and integer
    multiples act on every digit at once, and a term is zero exactly when
    all its digits are, so one pass accumulates and drops terms as the same
    pass over PiScalar coefficients would: same values, same key order.  A
    single field is its own digit.  Each operation first widens the digits
    (_room) to top times the sum of the integer weights one term can gather.
    """

    __slots__ = ("m", "n", "den", "fields", "bits", "top", "terms")

    def __init__(self, m, n, den, fields, bits, top, terms):
        self.m, self.n, self.den, self.fields = m, n, den, fields
        self.bits, self.top, self.terms = bits, top, terms


def _pack(digits, bits: int) -> int:
    return sum(d << (bits * k) for k, d in enumerate(digits))


def _digits(v: int, count: int, bits: int):
    """The count balanced digits of v, lowest first."""
    out = []
    for _ in range(count - 1):
        d = v & ((1 << bits) - 1)
        if d >> (bits - 1):
            d -= 1 << bits
        out.append(d)
        v = (v - d) >> bits
    out.append(v)
    return out


def _lower(p: MatPoly) -> _Ints:
    den, slots = _slots(p)
    fields = sorted(slots)
    top = max((abs(v) for terms in slots.values() for v in terms.values()), default=0)
    bits = top.bit_length() + 1
    if len(fields) == 1:
        terms = slots[fields[0]]
    else:
        terms = {e: _pack([slots[f].get(e, 0) for f in fields], bits) for e in p.terms}
    return _Ints(p.m, p.n, den, fields, bits, top, terms)


def _raise(x: _Ints) -> MatPoly:
    """x as a MatPoly, in its key order."""
    out = MatPoly(x.m, x.n)
    count = len(x.fields)
    terms = {}
    for e, v in x.terms.items():
        parts = {}
        for (k, part), d in zip(x.fields, _digits(v, count, x.bits)):
            if d:
                parts.setdefault(k, [0, 0])[part] = d
        terms[e] = PiScalar.from_numerators(parts, x.den)
    out.terms = terms
    return out


def _room(x: _Ints, growth: int):
    """Widen the digits of x, if need be, to hold top * growth; x.top is left as it is."""
    bits = (x.top * growth).bit_length() + 1
    if bits > x.bits:
        if len(x.fields) > 1:
            count = len(x.fields)
            x.terms = {e: _pack(_digits(v, count, x.bits), bits) for e, v in x.terms.items()}
        x.bits = bits


def _degree(x: _Ints) -> int:
    return max(map(sum, x.terms), default=0)


_LAPLACIANS: dict = {}


def _laplacian(A):
    """(W, L, |W|): W = L A^-1 integral, L the lcm of the denominators of A^-1, |W| = sum |W_ab|; kept per A."""
    key = tuple(tuple(Fraction(x) for x in row) for row in A)
    got = _LAPLACIANS.get(key)
    if got is None:
        inv = mat_inverse(frac_matrix(key))
        L = math.lcm(*(x.denominator for row in inv for x in row))
        W = [[int(x * L) for x in row] for row in inv]
        got = _LAPLACIANS[key] = (W, L, sum(abs(w) for row in W for w in row))
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
                s = out.get(key)
                if s is None:
                    out[key] = c * k
                else:
                    s += c * k
                    if s:
                        out[key] = s
                    else:
                        del out[key]
    return out


def _laplace_terms(terms: dict, m: int, n: int, W, i: int, j: int) -> dict:
    """sum_ab d/dU_ai W_ab d/dU_bj on integer terms.

    One direct monomial pass per (b, a) with W_ab != 0, each term gaining
    c k_bj k_ai W_ab (k_ai less one when ai = bj); the terms are accumulated
    in the order the sum of the m^2 pieces d/dU_ai (W_ab d/dU_bj f) would
    give them.
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
                add = c * (w * kb * ka)
                s = out.get(key)
                if s is None:
                    out[key] = add
                else:
                    s += add
                    if s:
                        out[key] = s
                    else:
                        del out[key]
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


def _laplace(x: _Ints, lap, i: int, j: int) -> _Ints:
    """(Delta_A)_ij x, lap = _laplacian(A)."""
    W, L, size = lap
    growth = size * _degree(x) ** 2
    _room(x, growth)
    terms = _laplace_terms(x.terms, x.m, x.n, W, i, j)
    return _Ints(x.m, x.n, x.den * L, x.fields, x.bits, x.top * growth, terms)


def _weights(pairs):
    """(den, entries, plain) for the weighted entries [(i, j, w)] of a trace step.

    Zero weights are dropped; each other w is listed as its _numerators over
    the common den, and plain says that every w is a real rational.
    """
    nums = [(i, j, _numerators(as_pi_scalar(w))) for i, j, w in pairs]
    nums = [(i, j, num) for i, j, num in nums if num[1]]
    den = math.lcm(1, *(wden for _, _, (wden, _) in nums))
    entries = [(i, j, [(k, part, c * (den // wden)) for k, part, c in parts]) for i, j, (wden, parts) in nums]
    plain = all(len(parts) == 1 and parts[0][:2] == (0, 0) for _, _, parts in entries)
    return den, entries, plain


def _times(terms: dict, fields, out_fields, bits: int, w) -> dict:
    """terms, digits on fields, times the scalar w = [(pi power, part, integer)], digits on out_fields."""
    index = {f: k for k, f in enumerate(out_fields)}
    count = len(fields)
    out = {}
    for e, v in terms.items():
        digits = [0] * len(out_fields)
        for (k, part), d in zip(fields, _digits(v, count, bits)):
            if d:
                for q, wpart, c in w:
                    digits[index[(k + q, part ^ wpart)]] += -d * c if part & wpart else d * c
        out[e] = _pack(digits, bits)
    return out


def _step(x: _Ints, lap, weights) -> _Ints:
    """sum w_ij (Delta_A)_ij x over weights = _weights(...), the pieces summed in entry order."""
    W, L, size = lap
    den, entries, plain = weights
    growth = sum(abs(c) for _, _, parts in entries for _, _, c in parts) * size * _degree(x) ** 2
    _room(x, growth)
    fields = x.fields if plain else sorted(
        {(k + q, part ^ wpart) for k, part in x.fields for _, _, parts in entries for q, wpart, _ in parts})
    acc = None
    for i, j, parts in entries:
        piece = _laplace_terms(x.terms, x.m, x.n, W, i, j)
        if not plain:
            piece = _times(piece, x.fields, fields, x.bits, parts)
        elif parts[0][2] != 1:
            w = parts[0][2]
            piece = {e: v * w for e, v in piece.items()}
        if acc is None:
            acc = piece
            continue
        for e, v in piece.items():
            s = acc.get(e)
            if s is None:
                acc[e] = v
            else:
                s += v
                if s:
                    acc[e] = s
                else:
                    del acc[e]
    return _Ints(x.m, x.n, x.den * L * den, fields, x.bits, x.top * growth, acc or {})


def _trace_weights(W, n: int):
    """_weights of tr(Delta_A W): entries i <= j, each off-diagonal one weighted W_ij + W_ji.

    A is symmetric and partial derivatives commute, so (Delta_A)_ij =
    (Delta_A)_ji; both weights are added because W need not be symmetric
    (the float inverse of a symmetric Y is not always bit-symmetric).
    """
    def weight(a, b):
        return as_pi_scalar(W[a][b] if not isinstance(W, np.ndarray) else W[a, b])

    return _weights([(i, j, weight(i, i) if i == j else weight(j, i) + weight(i, j))
                     for i in range(n) for j in range(i, n)])


# ==== exact operators =======================================================


def partial(f, i: int, j: int):
    """d/dU_ij."""
    x = _lower(f)
    deg = _degree(x)
    _room(x, deg)
    terms = {}
    _partial_into(terms, x.terms, i * f.n + j, 1)
    return _raise(_Ints(f.m, f.n, x.den, x.fields, x.bits, x.top * deg, terms))


def euler_entry(f, i: int, j: int):
    """E_ij f = sum_d U_di d/dU_dj f."""
    x = _lower(f)
    growth = f.m * _degree(x)
    _room(x, growth)
    return _raise(_Ints(f.m, f.n, x.den, x.fields, x.bits, x.top * growth,
                        _euler_terms(x.terms, f.m, f.n, i, j)))


def laplace_entry(f, A, i: int, j: int):
    """(Delta_A)_ij f = sum_ab d/dU_ai (A^-1)_ab d/dU_bj f."""
    return _raise(_laplace(_lower(f), _laplacian(A), i, j))


def trace_laplace(f, A):
    """tr(Delta_A) f."""
    return _raise(_step(_lower(f), _laplacian(A), _weights([(i, i, 1) for i in range(f.n)])))


def trace_laplace_weighted(f, A, W):
    """tr(Delta_A W) f = sum_ij W_ji (Delta_A)_ij f, W an n x n scalar matrix (_trace_weights)."""
    return _raise(_step(_lower(f), _laplacian(A), _trace_weights(W, f.n)))


# ==== heat-operator exponential =============================================


def _heat_series(p: MatPoly, step, c) -> MatPoly:
    """sum_k c^k/k! step^k p for a degree-lowering kernel step (finite on polynomials).

    The flows step^k p stay on integers.  The sum p + sum_k flow_k c^k/k!
    is formed on numerators over one denominator, flow after flow and term
    after term as the MatPoly sums would form it, so its terms come in the
    order of those sums and the pi powers of each coefficient in the order
    they are first reached.
    """
    c = as_pi_scalar(c)
    start = x = _lower(p)
    flows = []
    scale = PI_ONE
    while True:
        x = step(x)
        if not x.terms:
            break
        scale = (scale * c).divide_rational(len(flows) + 1)
        flows.append((x, _numerators(scale)))
    if not flows:
        return p
    den = math.lcm(start.den, *(flow.den * sden for flow, (sden, _) in flows))
    out = {e: {k: [re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)]
               for k, re, im in cf.terms()} for e, cf in p.terms.items()}
    for flow, (sden, parts) in flows:
        # a digit d on (k, part) adds d (a + i b) pi^(k + q) / (flow.den sden) per scale part
        per = den // (flow.den * sden)
        mults = {}
        for q, part, s in parts:
            mults.setdefault(q, [0, 0])[part] = s * per
        count = len(flow.fields)
        for e, v in flow.terms.items():
            add = {}
            for (k, part), d in zip(flow.fields, _digits(v, count, flow.bits)):
                if d:
                    for q, (a, b) in mults.items():
                        r = add.setdefault(k + q, [0, 0])
                        if part:
                            r[0] -= d * b
                            r[1] += d * a
                        else:
                            r[0] += d * a
                            r[1] += d * b
            add = {k: r for k, r in add.items() if r[0] or r[1]}
            if not add:
                continue
            got = out.get(e)
            if got is None:
                out[e] = add
                continue
            for k, (re, im) in add.items():
                g = got.get(k)
                if g is None:
                    got[k] = [re, im]
                    continue
                g[0] += re
                g[1] += im
                if not (g[0] or g[1]):
                    del got[k]
            if not got:
                del out[e]
    poly = MatPoly(p.m, p.n)
    poly.terms = {e: PiScalar.from_numerators(parts, den) for e, parts in out.items()}
    return poly


def exp_trace_laplace(p: MatPoly, A, c) -> MatPoly:
    """exp(c tr Delta_A) p = sum_k c^k/k! (tr Delta_A)^k p (finite on polynomials)."""
    lap, weights = _laplacian(A), _weights([(i, i, 1) for i in range(p.n)])
    return _heat_series(p, lambda x: _step(x, lap, weights), c)


def exp_trace_laplace_weighted(p: MatPoly, A, W, c) -> MatPoly:
    """exp(c tr(Delta_A W)) p with a column-mixing weight matrix W."""
    lap, weights = _laplacian(A), _trace_weights(W, p.n)
    return _heat_series(p, lambda x: _step(x, lap, weights), c)


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
    W, L, _ = _laplacian(A)
    den, F = _slots(f)
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
            rows[i][j] = _graded_poly(m, n, N, 4 * sden * sden * L * lden * den, -1)
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
    _, slots = _slots(p)
    for i in range(p.n):
        for j in range(p.n):
            if i != j and any(_euler_terms(terms, p.m, p.n, i, j) for terms in slots.values()):
                return None
    return vec[0]


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
    E = np.array(list(p.terms), dtype=np.intp).reshape(len(p.terms), p.m * p.n)
    coef = np.array([c.to_complex() for c in p.terms.values()], dtype=complex)
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
    an earlier word on the integer kernel (_laplace); each entry lowers the
    degree by two, so there are finitely many.  table is the ExponentTable of the union of their monomials (T
    x mn), built once and shared by every flow, coef their pi-substituted
    coefficients (T x words) and alphas the multi-indices (words x
    entries).  flow(W) is then one float matrix-vector product.
    """

    __slots__ = ("m", "n", "entries", "alphas", "table", "coef")

    def __init__(self, P: MatPoly, A):
        self.m, self.n = P.m, P.n
        self.entries = [(i, j) for i in range(P.n) for j in range(i, P.n)]
        lap = _laplacian(A)
        words = [((0,) * len(self.entries), _lower(P))]
        frontier = words
        while frontier:
            grown = []
            for alpha, word in frontier:
                # every multiset of entries once: extend at or after the last one used
                last = max((e for e, k in enumerate(alpha) if k), default=0)
                for e in range(last, len(self.entries)):
                    child = _laplace(word, lap, *self.entries[e])
                    if child.terms:
                        beta = alpha[:e] + (alpha[e] + 1,) + alpha[e + 1:]
                        child.den *= beta[e]
                        grown.append((beta, child))
            words = words + grown
            frontier = grown
        words = [(alpha, _raise(word)) for alpha, word in words]
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
