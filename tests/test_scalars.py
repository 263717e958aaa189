"""Exact scalar ring: Gaussian-rational Laurent coefficients in pi."""

import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from siegeltheta.polyalg import MatPoly, compile_poly, matpoly_from_json, matpoly_to_json
from siegeltheta.scalars import PI_ONE, PI_SYMBOL, PI_ZERO, PiScalar


def to_sympy(c: PiScalar):
    """Oracle embedding into sympy's exact arithmetic."""
    pi = sympy.pi
    out = sympy.Integer(0)
    for k, re, im in c.terms():
        coeff = sympy.Rational(re.numerator, re.denominator) \
            + sympy.I * sympy.Rational(im.numerator, im.denominator)
        out += coeff * pi ** k
    return sympy.expand(out)


def test_ring_ops_match_sympy():
    a = PiScalar.from_parts(Fraction(3, 2), Fraction(-1, 3), 1) \
        + PiScalar.from_parts(Fraction(2), 0, -2)
    b = PiScalar.from_parts(Fraction(-5, 7), Fraction(1, 2), 0) \
        + PiScalar.from_parts(Fraction(1), 0, 3)
    assert to_sympy(a + b) == sympy.expand(to_sympy(a) + to_sympy(b))
    assert to_sympy(a - b) == sympy.expand(to_sympy(a) - to_sympy(b))
    assert to_sympy(a * b) == sympy.expand(to_sympy(a) * to_sympy(b))


def test_constants():
    assert PI_ZERO.is_zero()
    assert (PI_ONE * PI_ONE - PI_ONE).is_zero()
    assert complex(to_sympy(PI_SYMBOL)) == pytest.approx(math.pi)


def test_float_embedding_is_exact():
    # every float is a dyadic rational, so the round trip must be lossless
    for x in (0.1, -3.75, 1e-17, 2.0 ** 52 + 1.0):
        c = PiScalar.from_number(x)
        assert c.to_complex() == x
    z = complex(-0.3, 0.7)
    assert PiScalar.from_number(z).to_complex() == z


def test_from_number_rationals():
    c = PiScalar.from_number(Fraction(22, 7))
    assert to_sympy(c) == sympy.Rational(22, 7)
    assert PiScalar.from_number(5).to_complex() == 5.0


def test_to_complex_uses_pi_value():
    c = PiScalar.from_parts(Fraction(1), 0, 2)  # pi^2
    assert c.to_complex() == pytest.approx(math.pi ** 2, rel=1e-15)
    d = PiScalar.from_parts(0, Fraction(-1, 4), -1)  # -i/(4 pi)
    assert d.to_complex() == pytest.approx(-0.25j / math.pi, rel=1e-15)


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


def test_equal_scalars_give_equal_floats_in_any_build_order():
    # three pi powers summed in insertion order differed in the last bit for
    # about a quarter of such pairs; the sum now runs from the highest power
    # down, whatever the order the powers were inserted in
    rng = random.Random(0)
    for _ in range(400):
        parts = [(k, (Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                      Fraction(rng.randint(-99, 99), rng.randint(1, 99)))) for k in (0, -1, -2)]
        up, down = PiScalar(dict(parts)), PiScalar(dict(reversed(parts)))
        summed = sum((PiScalar({k: c}) for k, c in parts), PI_ZERO)
        assert up == down == summed
        assert _bits(up.to_complex()) == _bits(down.to_complex()) == _bits(summed.to_complex())


def test_a_polynomial_read_back_from_json_compiles_to_the_same_floats():
    # the scalars hold the pi powers of a coefficient highest first, and
    # matpoly_from_json reads them back lowest first
    rng = random.Random(1)
    terms = {}
    for e in [(0, 0, 2, 1), (0, 2, 1, 0), (1, 1, 0, 1), (2, 0, 0, 1)]:
        terms[e] = PiScalar({k: (Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                                 Fraction(rng.randint(-99, 99), rng.randint(1, 99))) for k in (0, -1, -2, -3)})
    p = MatPoly(2, 2, terms)
    data = matpoly_to_json(p)
    q = matpoly_from_json(json.loads(json.dumps(data)))
    assert p == q
    assert all(list(c._c) == [0, -1, -2, -3] for c in terms.values())
    assert [t["pi_pow"] for t in data["terms"][:4]] == [-3, -2, -1, 0]
    got, want = compile_poly(q), compile_poly(p)
    assert [_bits(z) for z in got.coef.tolist()] == [_bits(z) for z in want.coef.tolist()]
    U = [[0.3 + 0.1j, -1.2], [0.7, 0.25 - 0.5j]]
    assert _bits(q.eval(U)) == _bits(p.eval(U))


def test_abs_norm_bounds_modulus():
    c = PiScalar.from_parts(Fraction(1, 3), Fraction(-2, 5), 2) \
        + PiScalar.from_parts(Fraction(7), 0, -1)
    assert abs(c.to_complex()) <= c.abs_norm() + 1e-12


@pytest.mark.parametrize("c", [PiScalar.from_parts(1, 0, 100000), PiScalar.from_parts(Fraction(10**400)),
                               PiScalar.from_parts(1e300, 0, 600)], ids=["pi-power", "huge-rational", "product"])
def test_abs_norm_outside_the_float_range_is_a_value_error(c):
    # it used to raise a bare OverflowError (or return inf)
    with pytest.raises(ValueError, match="float range"):
        c.abs_norm()


# ==== the multiplication fast paths against the textbook product ===========

_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
_SCALARS = st.dictionaries(st.integers(-3, 3), st.tuples(_RATIONALS, _RATIONALS), max_size=4).map(PiScalar)
_REAL_SCALARS = st.dictionaries(st.integers(-3, 3), _RATIONALS, max_size=4).map(
    lambda c: PiScalar({k: (x, 0) for k, x in c.items()}))
_ANY = st.one_of(_SCALARS, _REAL_SCALARS)
_FACTORS = st.one_of(st.integers(-7, 7), _RATIONALS, _SCALARS, _REAL_SCALARS)


def textbook_product(x: PiScalar, y):
    """sum_k1,k2 (a1 + i b1)(a2 + i b2) pi^(k1+k2), zero pairs dropped, sorted."""
    if not isinstance(y, PiScalar):
        y = PiScalar({0: (Fraction(y), 0)})
    acc = {}
    for k1, a1, b1 in x.terms():
        for k2, a2, b2 in y.terms():
            re, im = acc.get(k1 + k2, (0, 0))
            acc[k1 + k2] = (re + a1 * a2 - b1 * b2, im + a1 * b2 + b1 * a2)
    return [(k, re, im) for k, (re, im) in sorted(acc.items()) if re or im]


def stored_pairs_are_nonzero_fractions(x: PiScalar):
    return all(isinstance(re, Fraction) and isinstance(im, Fraction) and (re or im)
               for _, re, im in x.terms())


# (1 + pi) (1 - 1/pi) = pi - 1/pi: the pi^0 pair cancels, in the real and
# in the complex product; random draws almost never cancel a whole power
@settings(derandomize=True, max_examples=200)
@given(x=_ANY, y=_FACTORS)
@example(x=PiScalar({0: (1, 0), 1: (1, 0)}), y=PiScalar({0: (1, 0), -1: (-1, 0)}))
@example(x=PiScalar({0: (1, 1), 1: (1, 1)}), y=PiScalar({0: (1, 0), -1: (-1, 0)}))
def test_products_match_the_textbook_formula(x, y):
    for got in (x * y, y * x):
        assert got.terms() == textbook_product(x, y)
        # is_zero reads the stored pairs: no zero pair may be kept
        assert stored_pairs_are_nonzero_fractions(got)
        assert got.is_zero() == (not textbook_product(x, y))


@settings(derandomize=True, max_examples=100)
@given(x=_ANY, y=_ANY)
def test_zero_products_and_differences_are_zero(x, y):
    for zero in (x * 0, 0 * x, x * Fraction(0), x * PiScalar(), x - x, (x + y) - y - x):
        assert zero.is_zero() and zero == PiScalar()
    assert stored_pairs_are_nonzero_fractions(x + y)


@settings(derandomize=True, max_examples=150)
@given(x=_ANY, y=_FACTORS, z=_FACTORS)
def test_multiplication_is_associative_and_distributive(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + x * y) * z == x * z + (x * y) * z
