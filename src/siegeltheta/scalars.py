"""Exact scalars: finite Laurent series in pi with Gaussian rational coefficients.

Every coefficient that the operator calculus produces lives in the ring

    Q(i)[pi, 1/pi]  =  { sum_k (a_k + i b_k) pi^k : a_k, b_k in Q, finitely many k }.

The heat-operator factors 1/(8 pi) and 1/(4 pi) lower the pi-degree, while
differentiating the Gaussian factor exp(2 pi tr(U^T A- U)) of an indefinite
coefficient raises it, so the ring must allow both signs of k.  Equality of ring
elements is exact; conversion to a complex float happens only at evaluation
time by substituting a numeric value for pi (to_complex, abs_norm).

Polynomials do not hold PiScalars: a polyalg.MatPoly keeps integer
numerators over one common denominator, with pi and i as labels of the
parts, and every ring operation and operator runs on those.  PiScalar is
the scalar of inputs (coefficients, weights, heat-flow times such as
-1/(8 pi)), of the JSON form and of the read-only MatPoly.terms view.
at_pi and abs_at_pi substitute pi for both, so a term gives the same float
whichever holds it.

Floats and complex numbers embed exactly: every float is a dyadic rational,
and Fraction(float) preserves it bit for bit.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("cannot interpret %r as an exact rational" % (x,))


class PiScalar:
    """One element of Q(i)[pi, 1/pi], stored as {pi_power: (re, im)}."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, (re, im) in coeffs.items():
                re = _frac(re)
                im = _frac(im)
                if re or im:
                    c[int(k)] = (re, im)
        self._c = c

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_number(cls, x) -> "PiScalar":
        """Embed an int, Fraction, float, complex or PiScalar exactly."""
        if isinstance(x, PiScalar):
            return x
        if isinstance(x, complex):
            return cls({0: (_frac(x.real), _frac(x.imag))})
        return cls({0: (_frac(x), _ZERO)})

    @classmethod
    def from_parts(cls, re, im=0, pi_pow: int = 0) -> "PiScalar":
        return cls({pi_pow: (_frac(re), _frac(im))})

    # ---- ring structure ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other) -> bool:
        if isinstance(other, PiScalar):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self._c == PiScalar.from_number(other)._c
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __neg__(self) -> "PiScalar":
        return PiScalar({k: (-re, -im) for k, (re, im) in self._c.items()})

    def __add__(self, other) -> "PiScalar":
        if not isinstance(other, PiScalar):
            if isinstance(other, (int, float, complex, Fraction)):
                other = PiScalar.from_number(other)
            else:
                return NotImplemented
        c = dict(self._c)
        for k, (re, im) in other._c.items():
            got = c.get(k)
            if got is not None:
                # a zero part adds nothing; most coefficients are real
                re = got[0] + re if re else got[0]
                im = got[1] + im if im else got[1]
                if not (re or im):
                    del c[k]
                    continue
            c[k] = (re, im)
        out = PiScalar()
        out._c = c
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float, complex, Fraction)):
            other = PiScalar.from_number(other)
        if not isinstance(other, PiScalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "PiScalar":
        out = PiScalar()
        if isinstance(other, (int, Fraction)):
            # a rational scales every pair; nonzero times nonzero stays nonzero
            if other:
                out._c = {k: (re * other if re else re, im * other if im else im)
                          for k, (re, im) in self._c.items()}
            return out
        if not isinstance(other, PiScalar):
            if isinstance(other, (float, complex)):
                other = PiScalar.from_number(other)
            else:
                return NotImplemented
        c = {}
        if any(b for _, b in self._c.values()) or any(b for _, b in other._c.values()):
            for k1, (a1, b1) in self._c.items():
                for k2, (a2, b2) in other._c.items():
                    k = k1 + k2
                    re = a1 * a2 - b1 * b2
                    im = a1 * b2 + b1 * a2
                    got = c.get(k)
                    c[k] = (re, im) if got is None else (got[0] + re, got[1] + im)
            out._c = {k: v for k, v in c.items() if v[0] or v[1]}
        else:
            # both real: the imaginary cross terms all vanish
            for k1, (a1, _) in self._c.items():
                for k2, (a2, _) in other._c.items():
                    k = k1 + k2
                    got = c.get(k)
                    c[k] = a1 * a2 if got is None else got + a1 * a2
            out._c = {k: (re, _ZERO) for k, re in c.items() if re}
        return out

    __rmul__ = __mul__

    # ---- inspection ----------------------------------------------------

    def terms(self):
        """Sorted (pi_pow, re, im) triples, lowest pi power first."""
        return [(k, re, im) for k, (re, im) in sorted(self._c.items())]

    def to_complex(self) -> complex:
        """The value at pi = math.pi; ValueError when it is not a finite complex float.

        The powers are summed highest first, so equal scalars give equal floats.
        """
        return at_pi((k, re, im) for k, (re, im) in sorted(self._c.items(), reverse=True))

    def abs_norm(self) -> float:
        """Sum of term magnitudes; an upper bound for abs(to_complex()).

        ValueError when it is not a finite float, as for to_complex.
        """
        return abs_at_pi((k, re, im) for k, (re, im) in self._c.items())

    def __repr__(self):
        if not self._c:
            return "PiScalar(0)"
        parts = []
        for k, re, im in self.terms():
            coeff = "(%s%s)" % (re, "" if not im else "%+si" % im)
            if k == 0:
                parts.append(coeff)
            else:
                parts.append("%s*pi^%d" % (coeff, k))
        return "PiScalar(%s)" % " + ".join(parts)


PI_ZERO = PiScalar()
PI_ONE = PiScalar({0: (_ONE, _ZERO)})
PI_SYMBOL = PiScalar({1: (_ONE, _ZERO)})


def as_pi_scalar(x) -> PiScalar:
    return PiScalar.from_number(x)


def at_pi(parts) -> complex:
    """sum (re + i im) pi^k at pi = math.pi over (k, re, im), in the order given.

    re and im are Fractions or floats; an OverflowError while the parts are
    formed or summed, or a value that is not a finite complex float, is a
    ValueError.
    """
    try:
        z = 0j
        for k, re, im in parts:
            z += complex(re, im) * math.pi**k
    except OverflowError:
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise ValueError("an exact coefficient is outside the float range")
    return z


def abs_at_pi(parts) -> float:
    """sum |re + i im| pi^k over (k, re, im), correctly rounded (fsum); ValueError as for at_pi."""
    try:
        norm = math.fsum(abs(complex(re, im)) * math.pi**k for k, re, im in parts)
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise ValueError("an exact coefficient is outside the float range")
    return norm
