"""Theta series with matrix-valued elliptic-operator coefficients.

A coefficient function g solves D_A g = lam I g, where D_A is the Euler
operator minus 1/(4 pi) times the A-Laplacian.  build_coeff makes every
coefficient used here, for both signatures, as

    g = f exp(2 pi tr(U^T A- U)),  f = exp(-tr Delta_M / 8 pi)(P+(Pi+ U) P-(Pi- U)),

with M the matrix absolute value of A, A = A+ + A- its definite split, Pi+-
the associated projectors, and P+- of homogeneity degrees alpha and beta in
every column; then lam = alpha - beta - s.  A definite form has Pi+ = I,
Pi- = 0, M = A and A- = 0, so g = f = exp(-tr Delta_A / 8 pi) P+.  The
coefficient keeps only the polynomial f: the Gaussian is carried by the
form's A-, in the series phase below and in the exact validation
(ThetaSpec.vigneras_residual, polyalg.vigneras_residual with A-).

The series attached to characteristics H, K (rational m x n matrices) at a
point Z = X + iY of the genus-n Siegel upper half-space is

    theta(Z) = det(Y)^(-lam/2) sum_{U in H + Z^{m x n}}
               f(U C) e(tr(U^T A U Z)/2 + tr(K^T A U)),

with e(w) = exp(2 pi i w), C C^T = Y and g in place of f for an indefinite
form.  Any such C gives the same series: P+- have P(U N) = det(N)^alpha
P(U) for every n x n N (homogeneity_degree), the projectors act on the
left and tr Delta_M is invariant under U -> U O for orthogonal O, so f(U O)
= f(U) for O in SO(n), and two factors of Y differ by such an O on the
right once their determinants are both positive.  Y^(1/2) and the
lower-triangular Cholesky factor are two such factors; the series use the
latter, whose last column reads U's last column only.  The Gaussian factor
of g is a phase too, so every term of every series here is one formula,

    poly(W) e(tau(U)),  tau(U) = tr(U^T A U Z)/2 + tr(K^T A U) - i tr(U^T A- U Y),

with poly = f at W = U C (A- = 0 for a definite form).  Since M = A -
2 A-, its absolute value is |poly(W)| exp(-pi tr(U^T M U Y)), so the sum is
truncated to the ellipsoid tr(U^T M U Y) <= R^2 with a certified bound on
the discarded tail:

    tail <= C K(rho) exp(-pi rho R^2) prod_i theta1(b_t d_i),

where C, the sum of the Bombieri norms of the homogeneous parts of poly,
bounds |poly(W)| / max(1, |W|_F)^deg (_tail_plan), K(rho) absorbs the
polynomial growth at the rate b_p, b_t + b_p = pi (1 - rho) (b_t = pi (1 -
rho) for a constant coefficient, b_t : b_p = N : deg otherwise), d_i are
the N Cholesky pivots of kron(Y, M), theta1 is the closed-form majorant of
1 + 2 sum exp(-x k^2), and rho in (0,1) minimizes the enumeration radius by
a golden-section search (_tail_plan).

Each series is planned once into a SeriesPlan (_series_plan): compiled
polynomial, Gram matrix, centre, phase form, prefactor, tail budget, and
rho, R^2, tail and predicted rows from one Cholesky factorisation and one
_tail_plan; the factor is kept and handed to the enumeration.  Its exact
characteristic algebra depends on the spec alone (ThetaSpec.route).
certified_lattice_sum enumerates and sums the plans it is given, several
at once when they share G, centre and pairing: the two sides of the
translation law, or the plain and Borcherds series at one Z
(theta_eval_shared).  One enumeration then runs at their largest R^2 and
carries each distinct phase form, and each plan keeps the rows whose
carried q is within its own R^2 plus the enumeration's slack, so its
terms, tail and polynomial rows are those of its own sum; a single series
is the one-plan case (_sum_series).

The right sides of the inversion and Poisson laws are the same series with
U over the dual lattice H + A^-1 Z^{m x n} (dual_theta_eval), one certified
sum with Gram matrix kron(Y, A^-1 M A^-1) rather than one per coset.

Every series sums each pair {U, -U} once when its coset is closed under
U -> -U, that is when 2H is integral (2 A H for the dual lattice), decided
on the exact Fractions: H = 0 or 1/2 with any K.  The quadratic part Q(U)
of tau is even, L(U) = tr(K^T A U) is odd and W is linear in U, so with
poly = p_even + p_odd its parts of even and odd degree, a pair sums to

    e(Q(U)) (p_even(W) 2 cos 2 pi L(U) + p_odd(W) 2i sin 2 pi L(U)),

and lattice_blocks(..., half=True) enumerates one U of each pair.  A
coefficient is the heat flow of P+ P- of degree n (alpha + beta), and the
flow lowers degrees two at a time, so its terms, and those of a Borcherds
polynomial, share one parity: one of p_even, p_odd is poly, the other 0.
The reported terms still count every U in the ellipsoid, gross every
|term|, and the point cap counts terms.  A centre with 2c not integral, such as
K = 1/3 moved into the dual sum by the inversion law, is summed term by
term.

No term evaluates tau from U.  At U = L x, x = v + c the enumerated vector,
tau is the quadratic form x^T B x / 2 + ell^T x with B = kron(X, L^T A L) +
i kron(Y, L^T (A - 2 A-) L) and ell = vec(L^T A K) (_series_plan), and
lattice_blocks carries it down the enumeration beside the Cholesky q, one
shift vector and one partial value per level.  Each point arrives with q
and tau, the final filter tests the carried q, and a term is exp(-2 pi
Im tau + 2 pi i frac(Re tau)) poly(W), with no W at all for a constant
poly.  Im B equals the Gram matrix kron(Y, L^T M L) but is built from the
integer A and A-: the float M of the Cholesky recurrence would make the
magnitudes an order of magnitude less accurate.  The carried tau is a sum
of N(N + 3)/2 rounded products, within a few N ulps of their absolute sum
of the exact value, and does not depend on how the enumeration is cut.
term_phase is the same tau evaluated per term, for the quadrature checks.
No float holds the integer part of a characteristic: _route drops it
exactly from the centre (H, or A H for the dual lattice), which leaves the
set of U as it is, and from ell, which turns every term by one phase
e(int(ell)^T c) that multiplies the value: H = 10^20 + 1/2 sums as 1/2.

theta_eval sums a series of any signature through the inversion law when
that is predicted to be cheaper: theta(Z) = inversion_prefactor(spec, W)
times the dual series of characteristics (K, -H) at W = -Z^-1.  It plans the direct
series and, unless a closed-form screen rules the dual one out, the dual
series, and sums whichever plan predicts fewer rows.  Near a cusp, where
det(Y) is small, the direct ellipsoid holds about det(Y)^(-m/2) times more
points than at Y = I, and the dual one at Im W = Zbar^-1 Y Z^-1 few: e8 at
z = 0.1 + 0.05i needs 241 terms instead of about 3e10, and h2+e8 at z =
0.1 + 0.15i 249 instead of a predicted 1.4e10.  The certificate is
then the dual sum's tail, transported: the dual series is summed to a
budget b with |pref| b <= eps, and tail_bound is |pref| times its tail, so
it is at most eps as for a direct sum.  Every law check of verify sums the
series directly (theta_eval_direct), so that each law compares two
independent sums.

theta_eval_borcherds computes the same series in its unslashed normal form,
with W = U and the polynomial taken under a Y^(-1)-weighted heat operator;
the two agree after multiplying by det(Y)^(s/2 + beta).  That weight changes
at every point, so the coefficient keeps a HeatPlan of its source polynomial
(the exact operator words, built on first use) and each point combines them
in floats.  The Fourier and Poisson checks of verify integrate and sum the
same terms with K = 0.
"""

from __future__ import annotations

import cmath
import math
import os
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .exactlinalg import identity_frac
from .polyalg import (
    CompiledPoly,
    HeatPlan,
    MatPoly,
    compile_poly,
    eval_batch,
    exp_trace_laplace,
    homogeneity_degree,
    substitute_linear,
    vigneras_residual,
)
from .polyalg import exp_trace_laplace_weighted  # noqa: F401  (patched by perfbench tracing)
from .quadform import QuadFormDecomposition, decompose, enumeration_slack, lattice_blocks
from .quadform import named_form
from .scalars import PiScalar
from .siegel import SiegelPoint, det_power

DEFAULT_POINT_CAP = 100_000_000
# the golden-section search of _tail_plan: its bracket and number of evaluations
RHO_BRACKET = (0.5, 0.995)
RHO_PROBES = 12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAJORANT_ROUNDING = 1.0 + 2.0**-48

_MINUS_EIGHTH_OVER_PI = PiScalar.from_parts(Fraction(-1, 8), 0, -1)
# build_coeff: a source below this many unit roundoffs of its absolute
# substitution is rounding noise
_NOISE_ROUNDOFFS = 2.0**16


def point_cap_from_env(explicit=None) -> int:
    if explicit is not None:
        return int(explicit)
    return int(os.environ.get("THETA_MAX_POINTS", DEFAULT_POINT_CAP))


# ==== coefficient functions =================================================


class Coefficient:
    """A solution of D_A g = lam I g, with lam = alpha - beta - s.

    f is the heat-flowed MatPoly and source the polynomial the heat flow
    started from.  For a definite form g = f.  For an indefinite one g =
    f exp(2 pi tr(U^T A- U)), and the Gaussian is carried by the form's A-:
    the series put it in the term phase tau, and the validation passes A- to
    vigneras_residual.  plan is the HeatPlan of source under Delta_M, built
    by heat_plan on the first weighted flow, and compiled() is f compiled,
    with its majorant and tables, built on the first plain series; both are
    shared by every spec that shares the coefficient.
    """

    __slots__ = ("f", "source", "alpha", "beta", "s", "lam", "plan", "_compiled")

    def __init__(self, f, source: MatPoly, alpha: int, beta: int = 0, s: int = 0):
        self.f = f
        self.source = source
        self.alpha = alpha
        self.beta = beta
        self.s = s
        self.lam = alpha - beta - s
        self.plan = None
        self._compiled = None

    def compiled(self) -> CompiledPoly:
        """f as a CompiledPoly, built once."""
        if self._compiled is None:
            self._compiled = compile_poly(self.f)
        return self._compiled

    def __repr__(self):
        return "Coefficient(alpha=%d, beta=%d, s=%d)" % (self.alpha, self.beta, self.s)


def _required_degree(p: MatPoly, what: str) -> int:
    alpha = homogeneity_degree(p)
    if alpha is None:
        raise ValueError("%s must transform with a power of det under right multiplication" % what)
    return alpha


def _abs_poly(p: MatPoly) -> MatPoly:
    return MatPoly(p.m, p.n, {e: Fraction(c.abs_norm()) for e, c in p.terms.items()})


def _abs_matrix(rows) -> list:
    return [[abs(x) for x in row] for row in rows]


def build_coeff(dec: QuadFormDecomposition, P_plus: MatPoly, P_minus: MatPoly = None) -> Coefficient:
    """exp(-tr Delta_M / 8 pi) of P+(Pi+ U) P-(Pi- U), the coefficient of the form dec.

    P+ and P- must be homogeneous of degrees alpha and beta (P- = 1 when
    None).  A definite form has Pi+ = I, Pi- = 0 and M = A, so its source is
    P+ itself and P- may only be a constant, which multiplies it.  For an
    indefinite form the projectors and M are exact rationals whenever the
    matrix absolute value of A is rational; otherwise their floating images
    (M symmetrised) are embedded exactly and the construction is only
    approximately a solution.

    Such a source can be rounding noise: det(U)^2 vanishes on the rank-1
    positive eigenspace of [[0, 2], [2, 1]], yet its genus-2 source has norm
    1e-33.  The float projectors (eigh, an inverse and a product, each
    backward stable) are within a few m ulps of the exact ones, and each
    source coefficient is a sum of products of up to deg of their entries,
    so it is exact to about deg m unit roundoffs of the absolute
    substitution: the same sums with every coefficient and entry replaced
    by its absolute value.  A source norm below _NOISE_ROUNDOFFS = 2^16
    unit roundoffs (7.3e-12) of that, room for deg m into the thousands,
    cannot be told from zero: ValueError.
    """
    m, n = P_plus.m, P_plus.n
    if P_minus is None:
        P_minus = MatPoly.one(m, n)
    if m != dec.m:
        raise ValueError("polynomial rows must match the rank of the form")
    if (P_minus.m, P_minus.n) != (m, n):
        raise ValueError("P+ and P- must share a shape")
    alpha = _required_degree(P_plus, "P+")
    beta = _required_degree(P_minus, "P-")
    if dec.s == 0:
        if beta > 0:
            raise ValueError("a definite form takes a single polynomial")
        source = P_plus * P_minus
    else:
        eye = identity_frac(n)
        plus, minus = dec.fraction_matrix("proj_plus"), dec.fraction_matrix("proj_minus")
        source = substitute_linear(P_plus, plus, eye) * substitute_linear(P_minus, minus, eye)
        if not dec.has_exact_split():
            scale = (substitute_linear(_abs_poly(P_plus), _abs_matrix(plus), eye)
                     * substitute_linear(_abs_poly(P_minus), _abs_matrix(minus), eye)).coeff_norm()
            if source.coeff_norm() < _NOISE_ROUNDOFFS * 2.0**-53 * scale:
                raise ValueError("the coefficient is rounding noise: norm %.3e against %.3e for the "
                                 "absolute substitution (P+ or P- vanishes on an eigenspace of A)"
                                 % (source.coeff_norm(), scale))
    M = dec.fraction_matrix("M")
    return Coefficient(exp_trace_laplace(source, M, _MINUS_EIGHTH_OVER_PI), source, alpha, beta, dec.s)


# ==== theta specifications ==================================================


def _frac_mat(data, m, n, what):
    """data as m rows of n Fractions; a ValueError names what and an entry that is no finite rational."""
    rows = [list(row) for row in data]
    if len(rows) != m or any(len(r) != n for r in rows):
        raise ValueError("%s must be %d x %d" % (what, m, n))
    for a, row in enumerate(rows):
        for j, x in enumerate(row):
            try:
                row[j] = Fraction(x)
            except (ArithmeticError, TypeError, ValueError):
                raise ValueError("%s[%d][%d] = %r is not a finite rational" % (what, a, j, x)) from None
    return tuple(tuple(r) for r in rows)


def _float_mat(fracs) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in fracs], dtype=float)


class ThetaSpec:
    """Form decomposition, characteristics and coefficient, PDE-validated.

    vigneras_residual() is the one residual of the coefficient on the form:
    the construction requires it to vanish (within float tolerance when the
    split is not exact), and verify.check_vigneras reports it.  route(dual)
    keeps the exact characteristic algebra of every plan of the spec
    (_route), built on first use, and dual_spec and zero_characteristics
    keep the copies the laws sum, built on first use too, so their routes
    are kept with them; a with_characteristics copy starts with none.
    """

    __slots__ = ("dec", "coeff", "H", "K", "n", "_routes", "_dual", "_zero")

    def __init__(self, dec: QuadFormDecomposition, coeff, H, K):
        self.dec = dec
        self.coeff = coeff
        H = [list(row) for row in H]
        if not H:
            raise ValueError("H must be a %d x n matrix, got no rows" % dec.m)
        ncols = len(H[0])
        self.H = _frac_mat(H, dec.m, ncols, "H")
        self.K = _frac_mat(K, dec.m, ncols, "K")
        self.n = ncols
        self._routes = [None, None]
        self._dual = self._zero = None
        if coeff.f.m != dec.m or coeff.f.n != ncols:
            raise ValueError("coefficient shape does not match the characteristics")
        self._validate_pde()

    def vigneras_residual(self) -> MatPoly:
        """The Vigneras residual of the coefficient on the form, with its A- when indefinite."""
        A = [[int(x) for x in row] for row in self.dec.A.tolist()]
        aminus = self.dec.fraction_matrix("aminus") if self.dec.s > 0 else None
        return vigneras_residual(self.coeff.f, A, self.coeff.lam, aminus)

    def _validate_pde(self):
        res = self.vigneras_residual()
        if self.dec.has_exact_split():
            if not res.is_zero():
                raise ValueError("coefficient does not solve the eigenvalue equation")
        else:
            scale = max(1.0, self.coeff.f.coeff_norm()) * (1.0 + abs(self.coeff.lam))
            if res.norm() > 1e-8 * scale:
                raise ValueError("coefficient residual %.3e beyond float tolerance" % res.norm())

    @property
    def m(self) -> int:
        return self.dec.m

    @property
    def A(self) -> np.ndarray:
        return self.dec.A

    @property
    def lam(self):
        return self.coeff.lam

    def with_characteristics(self, H=None, K=None) -> "ThetaSpec":
        new = ThetaSpec.__new__(ThetaSpec)
        new.dec = self.dec
        new.coeff = self.coeff
        new.H = self.H if H is None else _frac_mat(H, self.m, self.n, "H")
        new.K = self.K if K is None else _frac_mat(K, self.m, self.n, "K")
        new.n = self.n
        new._routes = [None, None]
        new._dual = new._zero = None
        return new

    def zero_characteristics(self) -> "ThetaSpec":
        """The spec with H = K = 0, which the Fourier and Poisson checks sum, built once."""
        if self._zero is None:
            zero = [[0] * self.n for _ in range(self.m)]
            self._zero = self.with_characteristics(H=zero, K=zero)
        return self._zero

    def route(self, dual: bool = False):
        """(c, ell, unit, paired) of the direct lattice, or of the dual one with dual (_route)."""
        if self._routes[dual] is None:
            AX = _times_form(self.A.tolist(), self.H if dual else self.K)
            self._routes[dual] = _route(AX, self.K) if dual else _route(self.H, AX)
        return self._routes[dual]

    def K_floats(self) -> np.ndarray:
        return _float_mat(self.K)

    def __repr__(self):
        return "ThetaSpec(m=%d, n=%d, lam=%s)" % (self.m, self.n, self.coeff.lam)


def theta_spec(A, P_plus=None, P_minus=None, H=None, K=None, n: int = 1) -> ThetaSpec:
    """A spec from a form matrix, a fixture name or a QuadFormDecomposition; P+ = 1, H = K = 0."""
    if isinstance(A, str):
        A = named_form(A)
    dec = A if isinstance(A, QuadFormDecomposition) else decompose(A)
    m = dec.m
    if P_plus is None:
        P_plus = MatPoly.one(m, n)
    if H is None:
        H = [[0] * n for _ in range(m)]
    if K is None:
        K = [[0] * n for _ in range(m)]
    coeff = build_coeff(dec, P_plus, P_minus)
    return ThetaSpec(dec, coeff, H, K)


# ==== certified truncated sums ==============================================


def theta1_majorant(x: float) -> float:
    """Upper bound of theta1(x) = 1 + 2 sum_{k >= 1} exp(-x k^2), in closed form.

    theta1(x) dominates every shifted sum sum_k exp(-x (k + s)^2).  For an
    integer k >= 1, k^2 >= 3k - 2, as (k - 1)(k - 2) >= 0, so for any y > 0

        sum_{k >= 1} exp(-y k^2) <= exp(-y) sum_{k >= 1} exp(-3y (k - 1)) = t / (1 - t^3),

    t = exp(-y).  For x > pi this bounds theta1(x) by 1 + 2 t / (1 - t^3)
    at y = x.  For x <= pi Poisson summation gives theta1(x) = sqrt(pi/x)
    theta1(pi^2/x), and the same bound at y = pi^2/x >= pi applies.  The
    two forms agree at x = pi, and each overshoots theta1 only by its terms
    k >= 3: below 6e-10 relative over the whole range, largest at x = pi.
    The few roundings (math.pi, the products and quotients, exp and sqrt,
    each within an ulp; an error d in y moves exp(-y) by y d, and y t <= pi
    exp(-pi) where the term matters) stay within a few ulps of the result,
    and the factor 1 + 2^-48, 32 half-ulps, covers them, so the majorant is
    never below the true sum.
    """
    if x <= 0:
        raise ValueError("need a positive exponent scale")
    if x > math.pi:
        t = math.exp(-x)
        return (1.0 + 2.0 * t / (1.0 - t * t * t)) * _MAJORANT_ROUNDING
    t = math.exp(-math.pi * math.pi / x)
    return math.sqrt(math.pi / x) * (1.0 + 2.0 * t / (1.0 - t * t * t)) * _MAJORANT_ROUNDING


def _tail_plan(Cp: float, deg: int, sig2: float, pivots, eps: float):
    """(rho, R^2, tail): the certified truncation of a sum of |poly(W)| exp(-pi q(x)).

    The sum runs over x in c + Z^N, q(x) = x^T G x with Cholesky pivots d_i
    of G, and |poly(W)| <= Cp max(1, sig2 q(x))^(deg/2), as |W|_F^2 <=
    sig2 q(x) and Cp is CompiledPoly.majorant: the sum over the homogeneous
    parts f_k of poly of their Bombieri norms B_k = (sum_{|alpha| = k}
    |c_alpha|^2 alpha!/k!)^(1/2).  Cauchy-Schwarz on c_alpha W^alpha =
    (c_alpha (alpha!/k!)^(1/2)) ((k!/alpha!)^(1/2) W^alpha), then the
    multinomial theorem sum_{|alpha| = k} k!/alpha! |W^alpha|^2 =
    |W|_F^(2k), give |f_k(W)| <= B_k |W|_F^k, so |poly(W)| <= (sum_k B_k)
    max(1, |W|_F)^deg, for real and complex W.  B_k is at most the sum of
    the |c_alpha| of f_k, and is |c| for a constant c.  For rho
    in (0, 1) split the leftover Gaussian exp(-pi (1 - rho) q) as
    exp(-b_p q) exp(-b_t q), with b_p + b_t = pi (1 - rho).  Everywhere,

        exp(-pi rho q) <= exp(-pi rho R^2) on q > R^2,
        max(1, sig2 q)^(deg/2) exp(-b_p q) <= K = max(1, (sig2 deg / (2 b_p e))^(deg/2)),

    the second since s^(deg/2) exp(-b_p s / sig2), s = sig2 q, peaks at s =
    sig2 deg / (2 b_p).  The sum of exp(-b_t q(x)) over all of c + Z^N is at most
    prod_i theta1(b_t d_i): with G = R^T R, R upper triangular, q is
    sum_i d_i (x_i + s_i)^2 with s_i a function of the x_j, j > i only, so
    summing over x_1 first, then x_2 and so on, each sum is a shifted
    one-dimensional one, below theta1_majorant(b_t d_i).  Hence

        tail <= Cp K exp(-pi rho R^2) prod_i theta1_majorant(b_t d_i)

    for every rho and every split.  A degree-0 poly has K = 1 for any b_p,
    so b_t takes the whole pi (1 - rho).  Otherwise b_t / b_p = N / deg:
    where theta1(x) ~ sqrt(pi/x) the bound goes as b_t^(-N/2) b_p^(-deg/2),
    and that ratio minimises it for a fixed sum.  R^2(rho) = log(lead / eps)
    / (pi rho), lead the bound at R^2 = 0, is minimised over rho by a
    golden-section search of RHO_PROBES evaluations on RHO_BRACKET (log lead
    is close to convex in rho, so R^2 is close to unimodal; any rho is valid,
    so a probe off the true minimum only costs points).  The best probe wins,
    the first of equals; R^2 then moves up by ulps until the computed tail is
    at most eps, since the logarithm may round it short.  A lead / eps past
    the float range is log lead - log eps.  Where the tail or exp(-pi rho R^2)
    is subnormal, R^2 is decided in logarithms and the tail reported is eps.
    """
    N = len(pivots)

    def lead(rho):
        b = math.pi * (1.0 - rho)
        out = Cp
        if deg > 0:
            b_p = b * deg / (N + deg)
            out *= max(1.0, (sig2 * deg / (2.0 * b_p * math.e)) ** (deg / 2.0))
        b_t = b * N / (N + deg)
        for d in pivots:
            out *= theta1_majorant(b_t * d)
        return out

    def radius2(rho):
        a = lead(rho)
        log_q = (math.log(a / eps) if a / eps < math.inf else math.log(a) - math.log(eps)) if a > eps else 0.0
        return max(0.0, log_q / (math.pi * rho))

    lo, hi = RHO_BRACKET
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = radius2(c), radius2(d)
    probes = [(fc, c), (fd, d)]
    for _ in range(RHO_PROBES - 2):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = radius2(c)
            probes.append((fc, c))
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = radius2(d)
            probes.append((fd, d))
    R2, rho = min(probes, key=lambda p: p[0])
    a = lead(rho)
    decay = math.exp(-math.pi * rho * R2)
    tail = a * decay
    if R2 > 0 and min(decay, tail) < np.finfo(float).tiny:
        # a subnormal keeps too few digits to bound the exact tail: in
        # logarithms, 1e-9 is far above their rounding, and eps bounds it
        return rho, max(R2, (math.log(a) - math.log(eps) + 1e-9) / (math.pi * rho)), eps
    while tail > eps:  # the logarithm rounds R^2 a few ulps short
        R2 = math.nextafter(R2, math.inf)
        tail = a * math.exp(-math.pi * rho * R2)
    return rho, R2, tail


def certified_lattice_sum(plans, eps: float, summand, point_cap: int):
    """Sum summand over the integer offsets of c in the ellipsoid of each of plans.

    The plans (_series_plan) fix G, c, the pairing, their phase forms, R^2,
    rho and tails, and share the first three (else ValueError), so this only
    enumerates, once, and adds.  The enumeration runs at the largest R^2 of
    the plans with a nonzero polynomial and carries each distinct phase
    form of theirs (lattice_blocks with a stack of forms), so a row's q and
    tau are bitwise those of an enumeration for its plan alone.  Each plan
    keeps the rows whose carried q is at most its own R^2 +
    enumeration_slack(R^2), the filter the enumeration applies, so it sums
    exactly the rows of an enumeration at its own R^2.  eps is the tail
    budget the sum certifies: it must be finite and positive and at least
    the sum of the plans' tails (ValueError).  summand(j, rows, eq) maps
    the int64 rows of shape (k, d) that plan j keeps of a lattice_blocks
    block and their phases eq = e(tau) = exp(-2 pi Im tau + 2 pi i frac(Re
    tau)), tau carried for plan j's form, to a pair of float arrays: the
    complex values of plan j's full summand at c + rows and their
    magnitudes.  e(tau) is computed once per block for each distinct form,
    on the whole block, and each plan gets its subset: the two plans of a
    Borcherds pair share their form.
    With the pairing, 2c is integral: the enumeration then emits one x = c
    + row of each pair {x, -x} (lattice_blocks with half), summand must
    return term(x) + term(-x) and |term(x)| + |term(-x)| for each row, and
    the origin, whose paired value is twice its term, is halved here.  A
    plan's terms count the terms of its full series either way, two per
    pair and one for the origin, and point_cap caps that count for the
    enumeration, at its R^2.  Each block
    is summed in floating point and the per-block sums are combined with
    exact float summation.  The result is deterministic for a fixed
    enumeration block size, because the enumerator fixes both the order of
    the rows and where the blocks are cut; a different block size rounds
    the per-block sums differently and may move the result by a few ulps of
    gross, the gross magnitude sum |f| over all terms: the honest scale for
    relative comparisons when cancellation drives the net value to zero.  A
    plan whose R^2 is below the enumeration's keeps part of each block, so
    its sums may differ from those of its own enumeration by the same few
    ulps of gross; a plan at the enumeration's R^2 gets the bits of its own.
    The return is (sums, tail, terms): one (total, terms, gross) per plan,
    the plans' tails summed and their terms summed.  A zero polynomial (Cp
    = 0) sums nothing: its total, terms and gross are 0.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and positive, got %r" % eps)
    G, c, paired = plans[0].G, plans[0].c, plans[0].paired
    if not all(plan.paired == paired and np.array_equal(plan.G, G) and np.array_equal(plan.c, c)
               for plan in plans[1:]):
        raise ValueError("plans summed over one enumeration must share G, centre and pairing")
    tail = math.fsum(plan.tail for plan in plans)
    if not tail <= eps:
        raise ValueError("the plans' tail %r exceeds eps %r" % (tail, eps))
    live = [j for j, plan in enumerate(plans) if plan.Cp != 0.0]
    sums = [(0.0 + 0.0j, 0, 0.0)] * len(plans)
    if not live:
        return sums, tail, 0
    # each distinct phase form (B, ell) is carried once, numbered in order of
    # its first plan; a paired sum keeps ell out of it
    forms, form_of = {}, {}
    for j in live:
        key = plans[j].B.tobytes() + (b"" if paired else plans[j].ell.tobytes())
        form_of[j] = forms.setdefault(key, (len(forms), j))[0]
    firsts = [j for _, j in forms.values()]
    phase = (np.array([plans[j].B for j in firsts]),
             None if paired else np.array([plans[j].ell for j in firsts]))
    R2 = max(plans[j].R2 for j in live)
    # a plan below the walk's R^2 keeps the rows within its own
    bound = {j: plans[j].R2 + enumeration_slack(plans[j].R2) for j in live if plans[j].R2 < R2}
    # with paired and an integral center the origin is the first row emitted
    origin = int(paired and not np.any(c % 1.0))
    parts = {j: ([], [], []) for j in live}  # the block sums of Re, Im and magnitudes
    used = dict.fromkeys(live, 0)
    for block in lattice_blocks(G, c, R2, point_cap=point_cap, half=paired, phase=phase,
                                chol=plans[live[0]].chol):
        tau = block.tau
        eqs = np.exp(-2.0 * math.pi * tau.imag + 2j * math.pi * (tau.real - np.round(tau.real)))
        for j in live:
            rows, eq = block.rows, eqs[form_of[j]]
            if j in bound:
                keep = block.q <= bound[j]
                rows, eq = rows[keep], eq[keep]
            if not len(rows):
                continue
            vals, mags = summand(j, rows, eq)
            if origin and not used[j]:
                vals[0] *= 0.5
                mags[0] *= 0.5
            for part, value in zip(parts[j], (vals.real, vals.imag, mags)):
                part.append(float(np.sum(value)))
            used[j] += len(rows)
    for j, (re, im, mag) in parts.items():
        terms = 2 * used[j] - origin if paired else used[j]
        sums[j] = (complex(math.fsum(re), math.fsum(im)), terms, math.fsum(mag))
    return sums, tail, sum(terms for _, terms, _ in sums)


class ThetaValue:
    """A truncated value with its certified tail radius and bound.

    gross is the sum of the absolute values of the retained terms; relative
    residuals in the transformation checks are measured against it so that a
    series whose terms cancel exactly still compares at the scale of what
    was summed.  terms, radius2 and rho describe the lattice sum actually
    taken: the dual one when theta_eval sums through the inversion law.
    """

    __slots__ = ("value", "tail_bound", "terms", "radius2", "rho", "gross")

    def __init__(self, value: complex, tail_bound: float, terms: int, radius2: float,
                 rho: float, gross: float = 0.0):
        self.value = value
        self.tail_bound = tail_bound
        self.terms = terms
        self.radius2 = radius2
        self.rho = rho
        self.gross = gross

    def __repr__(self):
        return "ThetaValue(%r, tail<=%.2e, terms=%d)" % (self.value, self.tail_bound, self.terms)


def term_phase(spec: ThetaSpec, Z: SiegelPoint):
    """U -> e(tau(U)) for a batch of real U, the phase of every series term:

        tau(U) = tr(U^T A U Z)/2 + tr(K^T A U) - i tr(U^T A- U Y),

    with the A- part only for an indefinite form.  |e(tau(U))| =
    exp(-pi tr(U^T M U Y)), as M = A - 2 A-.  Re tau is reduced mod 1 before
    the exponential.  The series carry the same tau through the enumeration
    (_sum_series); this per-term form serves the quadrature checks and
    is their reference.
    """
    Af = spec.A.astype(float)
    AK = Af @ spec.K_floats()
    aminus = spec.dec.aminus if spec.dec.s > 0 else None
    Zmat, Y = Z.Z, Z.Y

    def phase(U):
        Ut = np.transpose(U, (0, 2, 1))
        tau = 0.5 * np.einsum("xij,ji->x", np.matmul(Ut, np.matmul(Af, U)), Zmat)
        expo = -2.0 * math.pi * tau.imag
        if aminus is not None:
            Qm = np.matmul(Ut, np.matmul(aminus, U))
            expo = expo + 2.0 * math.pi * np.einsum("xij,ji->x", Qm, Y)
        turns = tau.real
        if np.any(AK):
            turns = turns + np.einsum("aj,xaj->x", AK, U)
        return np.exp(expo + 2j * math.pi * (turns - np.round(turns)))

    return phase


def _budget(scale: float, eps: float) -> float:
    """The largest float b with scale * b <= eps: the tail budget of a sum that is scaled by scale."""
    b = eps / scale
    while scale * b > eps:
        b = math.nextafter(b, 0.0)
    return b


def det_y_weight(Y, power: float, what: str) -> float:
    """det(Y)^power, the one det(Y) weight; ValueError naming what unless a positive finite float.

    A det(Y) that underflows to 0 (or rounds below it) is a ValueError
    naming det(Y), Y and what, whatever the power: a weight of power 0
    would read 1 and leave the series to plan a nan tail.
    """
    with np.errstate(all="ignore"):
        det = np.linalg.det(Y)
        weight = float(det ** power)
    if not det > 0:
        raise ValueError("det(Y) = %r at the point's Y = %r is not a positive float (det(Y) "
                         "underflows), so %s cannot be formed"
                         % (float(det), np.asarray(Y).tolist(), what))
    if not (math.isfinite(weight) and weight > 0):
        raise ValueError("%s = %r is not a positive finite float (det(Y) outside the float range)"
                         % (what, weight))
    return weight


# What one certified series sum needs, built once by _series_plan: the route
# choice of theta_eval compares plans and _sum_series sums one as it is.
SeriesPlan = namedtuple("SeriesPlan", "poly Yfac L G chol c B ell unit paired pref eps budget "
                                      "Cp rho R2 tail rows")


def _series_plan(spec: ThetaSpec, Z: SiegelPoint, eps: float, borcherds: bool = False,
                 dual: bool = False) -> SeriesPlan:
    """Everything the certified plain or Borcherds series of spec at Z needs, over U in H + L Z^{m x n}.

    A term is poly(W) e(tau(U)).  The plain series has poly = f, compiled
    once on the coefficient, W = U Yfac and pref = det(Y)^(-lam/2), the
    Borcherds one the Borcherds polynomial, W = U (Yfac None) and pref = 1;
    sig2 bounds |W|_F^2 / q and Cp is poly.majorant() (_tail_plan).

    Yfac is C, the lower-triangular factor of Y = C C^T, read off chol
    below: f(U C) = f(U Y^(1/2)) (module docstring) and |U C|_F^2 = tr(U^T
    U Y), so sig2, the tails and the term counts are those of Y^(1/2), for
    the dual lattice too, as L acts on the left.  Column j of U C reads U's
    columns j, ..., n - 1 only (_summand).  Yfac is None when nothing is
    summed (no chol).

    eps must be finite and positive, and pref a positive finite float
    (det_y_weight; ValueError otherwise, one naming det(Y) and the point
    when det(Y) underflows, for either series).  budget = _budget(pref,
    eps) is the tail budget of the lattice sum.

    The series runs over the integer rows v of U = L(V + c), V the m x n
    matrix of v column by column, with Gram matrix G = kron(Y, L^T M L); L
    is A^-1 for the dual lattice and None (I) otherwise.  c (L^-1 H less
    its integer part), ell, unit and paired are spec.route(dual), built
    once for every plan of the spec.  At x = v + c the phase of term_phase
    is, mod 1, tau = x^T B x / 2 + ell^T x + int(ell)^T c with

        B = kron(X, L^T A L) + i kron(Y, L^T (A - 2 A-) L),  ell + int(ell) = vec(L^T A K),

    and L^T A L = A^-1, L^T A K = K for the dual lattice.  Im B is G, built
    from the integer A and A- rather than the float M (module docstring).

    One Cholesky factorisation of G, kept as chol, serves the one
    _tail_plan (rho, R2 and tail), predicted_rows (rows) and the
    enumeration.  A budget that underflows to 0 plans nothing: tail and
    rows are inf, and _sum_series refuses it.  A zero poly (Cp = 0) gets
    R2, tail and rows 0, rho RHO_BRACKET[1] and no chol.
    """
    if Z.n != spec.n:
        raise ValueError("point genus does not match the characteristics")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and positive, got %r" % eps)
    Y = Z.Y
    if borcherds:
        # a weight of power 0 is 1.0, once det(Y) is a positive float
        poly, pref = borcherds_poly(spec, Y), det_y_weight(Y, 0.0, "Borcherds series prefactor")
        sig2 = 1.0 / (float(np.min(np.linalg.eigvalsh(spec.dec.M))) * float(np.min(np.linalg.eigvalsh(Y))))
    else:
        poly = spec.coeff.compiled()
        pref = det_y_weight(Y, -float(spec.coeff.lam) / 2.0, "series prefactor det(Y)^(-lam/2)")
        sig2 = 1.0 / float(np.min(np.linalg.eigvalsh(spec.dec.M)))
    budget = _budget(pref, eps)
    A = spec.A.astype(float)
    aminus = spec.dec.aminus if spec.dec.s > 0 else np.zeros((spec.m, spec.m))
    M, L, AL = spec.dec.M, None, A
    if dual:
        L = AL = np.linalg.inv(A)
        M = L.T @ M @ L
        aminus = L.T @ aminus @ L
    c, ell, unit, paired = spec.route(dual)
    G = np.kron(Y, M)
    B = np.kron(Z.X, AL) + 1j * np.kron(Y, AL - 2.0 * aminus)
    Cp, deg = poly.majorant(), poly.degree()
    chol, Yfac, rho, R2, tail, rows = None, None, RHO_BRACKET[1], 0.0, 0.0, 0.0
    if not budget > 0:
        tail = rows = math.inf
    elif Cp != 0.0:
        chol = np.linalg.cholesky(G)
        pivots = np.diag(chol)
        rho, R2, tail = _tail_plan(Cp, deg, sig2, (pivots ** 2).tolist(), budget)
        rows = _cholesky_rows(pivots, R2, paired)
        if not borcherds:
            # chol(kron(Y, M)) = kron(chol(Y), chol(M)): every m-th row and
            # column is chol(Y) times sqrt(M_00)
            Yfac = chol[::spec.m, ::spec.m] / math.sqrt(M[0, 0])
    return SeriesPlan(poly, Yfac, L, G, chol, c, B, ell, unit, paired, pref, eps, budget, Cp, rho, R2,
                      tail, rows)


def _times_form(A, X) -> list:
    """A X, exactly, for the integer rows of a form A and a rational m x n X: the one such product."""
    n, nonzero = len(X[0]), [(b, j, x) for b, row in enumerate(X) for j, x in enumerate(row) if x]
    return [[sum(A[a][b] * x for b, k, x in nonzero if k == j and A[a][b]) for j in range(n)]
            for a in range(len(A))] if nonzero else [[0] * n for _ in A]


def _route(center, ell):
    """(c, ell, unit, paired) from the exact (center, ell): (H, A K), or (A H, K) for the dual lattice.

    c = center - int(center), int() truncating toward zero, leaves the set
    of U as it is; ell loses int(ell), which turns every term by one factor
    unit = e(int(ell)^T c), 1.0 if that is e(integer).  paired says whether
    2c is integral.  c and ell are float vectors, column by column.
    """
    center = [[x - int(x) if x else x for x in row] for row in center]
    whole = [[int(x) if x else 0 for x in row] for row in ell]
    turn = sum(w * x for wrow, crow in zip(whole, center) for w, x in zip(wrow, crow) if w)
    ell = [[x - w if w else x for x, w in zip(row, wrow)] for row, wrow in zip(ell, whole)]
    unit = 1.0 if turn.denominator == 1 else e_of_fraction(turn)
    paired = all((2 * x).denominator == 1 for row in center for x in row)
    return _float_mat(center).T.reshape(-1), _float_mat(ell).T.reshape(-1), unit, paired


def _summand(plan: SeriesPlan):
    """The summand of certified_lattice_sum for one plan: a block's terms and their magnitudes.

    A term is eq poly(W), eq = exp(-2 pi Im tau + 2 pi i frac(Re tau)) of
    the carried tau as certified_lattice_sum hands it over, with no W for a
    constant poly and W = U Yfac otherwise (U for the Borcherds series).
    Yfac is lower triangular, so column j of W reads U's columns j, ...,
    n - 1 only, and the last ones, which the enumeration varies slowest,
    stay equal over long runs of rows: eval_batch forms the outer half of
    each polynomial once per run.  A paired sum adds each pair {U, -U} at
    once as e(Q(U)) (p_even(W) 2 cos 2 pi L(U) + p_odd(W) 2i sin 2 pi
    L(U)), with L(U) = ell^T x kept out of the carried form (see the module
    docstring), and magnitudes |e(Q(U))| (|poly(W)| + |poly(-W)|): p_even
    or p_odd is poly and the other 0 by its degree parity, and a
    (hand-made) poly of both parities takes poly(-W) from a second call.
    """
    poly, Yfac, L, c, ell, paired = plan.poly, plan.Yfac, plan.L, plan.c, plan.ell, plan.paired
    m, n = poly.m, poly.n
    parities = set((poly.table.degrees % 2).tolist())  # {0} or {1}, {0, 1} for both
    const = complex(np.sum(poly.coef)) if poly.degree() == 0 else None
    lin = paired and bool(np.any(ell))

    def summand(rows, eq):
        p = const
        if const is None:
            U = (rows + c).reshape(-1, n, m).transpose(0, 2, 1)
            if L is not None:
                U = np.einsum("ab,xbj->xaj", L, U)
            W = U if Yfac is None else np.matmul(U, Yfac)
            p = eval_batch(poly, W)
        if not paired:
            vals = p * eq
            return vals, np.abs(vals)
        if len(parities) == 2:
            p_minus = eval_batch(poly, -W)
            pe, po, mags = 0.5 * (p + p_minus), 0.5 * (p - p_minus), np.abs(p) + np.abs(p_minus)
        else:
            pe, po = (0.0, p) if 1 in parities else (p, 0.0)
            mags = 2.0 * np.abs(p)
        if not lin:  # sin 2 pi L(U) = 0
            both = 2.0 * pe
        else:
            t = np.einsum("ij,j->i", rows + c, ell)
            t = 2.0 * math.pi * (t - np.round(t))
            both = 2.0 * (pe * np.cos(t) + 1j * po * np.sin(t))
        return eq * both, np.abs(eq) * mags

    return summand


def _sum_plans(plans, point_cap) -> list:
    """The series of plans that share G, centre and pairing, certified, from one enumeration.

    Plans that do not share them are a ValueError, and so is a plan whose
    budget underflowed to 0 (eps far below the prefactor), naming both.
    Each value is pref times its lattice sum, tail and gross, with the
    plan's own terms, R^2 and rho (certified_lattice_sum), and the value
    times the plan's unit unless that is 1.
    """
    for plan in plans:
        if not plan.budget > 0:
            raise ValueError("eps %r divided by the series prefactor %r leaves no positive float "
                             "tail budget" % (plan.eps, plan.pref))
    summands = [_summand(plan) for plan in plans]
    sums, _, _ = certified_lattice_sum(plans, math.fsum(plan.budget for plan in plans),
                                       lambda j, rows, eq: summands[j](rows, eq),
                                       point_cap_from_env(point_cap))
    return [ThetaValue(plan.pref * total if plan.unit == 1 else plan.pref * total * plan.unit,
                       plan.pref * plan.tail, terms, plan.R2, plan.rho, plan.pref * gross)
            for plan, (total, terms, gross) in zip(plans, sums)]


def _sum_series(plan: SeriesPlan, point_cap) -> ThetaValue:
    """The series of one plan, certified: the one-plan case of _sum_plans."""
    return _sum_plans([plan], point_cap)[0]


def predicted_rows(G, R2: float, paired: bool = False) -> float:
    """The Gaussian heuristic for the rows of an enumeration of x^T G x <= R2 over c + Z^N.

    vol(B_N) R^N / sqrt(det G): the volume of the ellipsoid in units of the
    covolume of Z^N, for any centre c, halved when the sum is paired (one
    row per pair {x, -x}).  A prediction, not a bound: it is close where
    the ellipsoid is wide in every direction, and an ellipsoid thinner than
    the lattice spacing along some axis holds a number of points that
    depends on where its boundary cuts the shells.  0 for R2 <= 0, inf
    beyond the float range.
    """
    return _cholesky_rows(np.diag(np.linalg.cholesky(np.asarray(G, dtype=float))), R2, paired)


def _cholesky_rows(chol, R2: float, paired: bool) -> float:
    """predicted_rows of the G whose Cholesky factor has the diagonal chol."""
    if R2 <= 0:
        return 0.0
    N = len(chol)
    logdet = 2.0 * float(np.sum(np.log(chol)))
    log_rows = 0.5 * N * math.log(math.pi * R2) - math.lgamma(0.5 * N + 1.0) - 0.5 * logdet
    if paired:
        log_rows -= math.log(2.0)
    return math.inf if log_rows > 709.0 else math.exp(log_rows)


def theta_eval_direct(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10,
                      point_cap=None) -> ThetaValue:
    """The plain series summed at Z itself, with total truncation error at most eps.

    This is the series the transformation-law checks of verify compare, so
    that each law sets two independent sums against each other.
    """
    return _sum_series(_series_plan(spec, Z, eps), point_cap)


def theta_eval_shared(sides, eps: float = 1e-10, point_cap=None) -> list:
    """Several series summed directly from one enumeration, one ThetaValue per side.

    Each side is (spec, Z, borcherds), planned as theta_eval_direct (or,
    with borcherds, theta_eval_borcherds) plans it at eps.  The sides must
    share G = kron(Y, M), the centre and the pairing (ValueError
    otherwise), as the two sides of the translation law and of the
    Borcherds normal form do: they run over the same U in H + Z^{m x n}.
    Each value has the terms, tail, R^2, rho and polynomial rows of the
    side's own sum; a side at the largest R^2 gets its bits, the others
    may move by a few ulps of gross (certified_lattice_sum).
    """
    return _sum_plans([_series_plan(spec, Z, eps, borcherds) for spec, Z, borcherds in sides],
                      point_cap)


# ==== evaluation through the inversion law ===================================


def e_of_fraction(x) -> complex:
    """e(x) for rational x, reduced mod 1 before any float is formed."""
    x = Fraction(x)
    x -= math.floor(x)
    return cmath.exp(2j * math.pi * float(x))


def float_det(dec: QuadFormDecomposition) -> float:
    """det A as a float; ValueError beyond the float range, where the law prefactors cannot be formed."""
    try:
        return float(dec.form.det)
    except OverflowError:
        raise ValueError("a %d-bit det A is beyond the float range"
                         % abs(dec.form.det).bit_length()) from None


def inversion_prefactor(spec: ThetaSpec, Z: SiegelPoint) -> complex:
    """pref with theta(-Z^-1; H, K) = pref dual_theta_eval(Z; K, -H), branch-locked (det_power).

    The one law factor, exp(-i pi n (r - s)/4) |det A|^(-n/2)
    det(Z)^((r - s)/2 + alpha - beta) e(tr(H^T A K)).  At -Z^-1 the positive
    part of the form gives exp(-i pi n r/4) det(Z)^(r/2), the negative part,
    whose phase carries Zbar, exp(i pi n s/4) and a power of det(Zbar); the
    det(Y)^(-lam/2) weights (det Im(-Z^-1) = det(Y)/|det Z|^2) and P+- turn
    these into the power of det(Z), adding no phase.
    """
    n, dec = spec.n, spec.dec
    alpha, beta = spec.coeff.alpha, spec.coeff.beta
    power = (dec.r - dec.s) / 2.0 + alpha - beta
    pref = cmath.exp(-1j * math.pi * (dec.r - dec.s) * n / 4.0)
    pref *= abs(float_det(dec)) ** (-n / 2.0)
    pref *= det_power(Z.Z, power)
    AK = _times_form(spec.A.tolist(), spec.K)
    return pref * e_of_fraction(sum(h * x for hrow, xrow in zip(spec.H, AK) for h, x in zip(hrow, xrow) if h))


def dual_spec(spec: ThetaSpec) -> ThetaSpec:
    """spec with characteristics (K, -H): the right side of the inversion law, kept on spec."""
    if spec._dual is None:
        spec._dual = spec.with_characteristics(H=spec.K, K=[[-x for x in row] for row in spec.H])
    return spec._dual


def _inversion(spec: ThetaSpec, Z: SiegelPoint, eps: float):
    """(plan, pref): the plan theta_eval sums, with pref None for the direct one at Z.

    One rule for every signature.  The screen: Im W = Zbar^-1 Y Z^-1 at W
    = -Z^-1, so the dual Gram matrix kron(Im W, A^-1 M A^-1) has
    determinant det(Y)^m / (|det Z|^(2m) |det A|^n), against det(Y)^m
    |det A|^n for the direct kron(Y, M), as det M = |det A|; at equal R^2
    the dual ellipsoid holds |det A|^n |det Z|^m times the direct one's
    volume (compared in logarithms, with the exact det A).  At 1 or more
    only the direct series is planned.  Otherwise the dual one is too, at
    budget _budget(|pref|, eps), and wins below half the direct rows (a
    plan without a positive budget predicts inf).  A W, prefactor or dual
    plan outside the float range keeps the direct sum.
    """
    direct = _series_plan(spec, Z, eps), None
    _, logdet = np.linalg.slogdet(Z.Z)
    if spec.n * math.log(abs(spec.dec.form.det)) + spec.m * float(logdet) >= 0:
        return direct
    try:
        W = Z.inverse_point()
        pref = inversion_prefactor(spec, W)
        scale = abs(pref)
        if not (math.isfinite(scale) and scale > 0):
            return direct
        plan = _series_plan(dual_spec(spec), W, _budget(scale, eps), dual=True)
    except (ValueError, OverflowError):
        return direct
    return (plan, pref) if plan.rows < direct[0].rows / 2 else direct


def theta_eval(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10,
               point_cap=None) -> ThetaValue:
    """Evaluate the series at Z with total truncation error at most eps.

    The value is summed one of two ways, whichever is predicted to
    enumerate fewer rows (_inversion): directly at Z
    (theta_eval_direct), or through the inversion law at W = -Z^-1 as
    inversion_prefactor(spec, W) times the dual series of characteristics
    (K, -H) at W, summed with the largest budget b that keeps |pref| b <= eps.
    Each side is planned once, into a SeriesPlan, and the winning plan is
    the one summed.  Both are certified: a summed-through-the-law
    value has tail_bound and gross |pref| times the dual sum's, so
    tail_bound <= eps still, while terms, radius2 and rho describe the dual
    sum.  Both routes serve every signature.
    """
    plan, pref = _inversion(spec, Z, eps)
    val = _sum_series(plan, point_cap)
    if pref is None:
        return val
    scale = abs(pref)
    return ThetaValue(pref * val.value, scale * val.tail_bound, val.terms, val.radius2, val.rho,
                      scale * val.gross)


def dual_theta_eval(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10, point_cap=None,
                    borcherds: bool = False) -> ThetaValue:
    """theta_eval (or theta_eval_borcherds) with U over the dual lattice H + A^-1 Z^{m x n}.

    One certified sum, the union of the |det A|^n series over the cosets
    J + H + Z^{m x n}, J in A^-1 Z^{m x n} / Z^{m x n}; the right side of
    the inversion and Poisson laws.
    """
    return _sum_series(_series_plan(spec, Z, eps, borcherds, dual=True), point_cap)


def heat_plan(spec: ThetaSpec) -> HeatPlan:
    """The coefficient's HeatPlan of its source polynomial under Delta_M, built once."""
    coeff = spec.coeff
    if coeff.plan is None:
        coeff.plan = HeatPlan(coeff.source, spec.dec.fraction_matrix("M"))
    return coeff.plan


def borcherds_poly(spec: ThetaSpec, Y: np.ndarray) -> CompiledPoly:
    """exp(-tr(Delta_M Y^-1) / 8 pi) of the source polynomial, compiled.

    The exact words of heat_plan(spec) are combined with float weights from
    Y^-1, so Y enters as a float, as it does everywhere else.
    """
    return heat_plan(spec).flow(np.linalg.inv(Y) * (-1.0 / (8.0 * math.pi)))


def theta_eval_borcherds(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10,
                         point_cap=None) -> ThetaValue:
    """The unslashed normal form: the Borcherds polynomial at U, the same phase.

    Satisfies theta_eval(spec, Z) = det(Y)^(s/2 + beta) * this value.  It
    always sums the series directly at Z: unlike theta_eval it never goes
    through the inversion law, so near a cusp it costs what
    theta_eval_direct costs.
    """
    return _sum_series(_series_plan(spec, Z, eps, borcherds=True), point_cap)
