"""Form decomposition, coset representatives, and lattice enumeration."""

import hashlib
import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from siegeltheta.exactlinalg import frac_matrix, mat_inverse, mat_mul
from siegeltheta.polyalg import MatPoly, vigneras_residual
import siegeltheta.exactlinalg as exactlinalg
import siegeltheta.quadform as quadform
import siegeltheta.theta as theta
from siegeltheta.quadform import (
    FIXTURES,
    QuadForm,
    coset_reps,
    decompose,
    lattice_blocks,
    lattice_points,
    as_form_array,
    named_form,
)
from siegeltheta.errors import ResourceCapError
from siegeltheta.siegel import SiegelPoint


# ==== oracles ===============================================================

def brute_force_points(G, center, R2):
    """Box enumeration oracle: exact rational filter over a provably
    sufficient cube.  G integer symmetric positive definite, center and R2
    rational."""
    G = np.asarray(G, dtype=np.int64)
    d = G.shape[0]
    lam_min = min(np.linalg.eigvalsh(G.astype(float)))
    bound = math.sqrt(float(R2) / lam_min) * 1.001 + 1.0
    Gf = [[Fraction(int(G[i][j])) for j in range(d)] for i in range(d)]
    cf = [Fraction(x) for x in center]
    out = set()
    ranges = [range(int(-bound - abs(cf[i])) - 1, int(bound - cf[i]) + 2) for i in range(d)]
    for v in itertools.product(*ranges):
        x = [cf[i] + v[i] for i in range(d)]
        q = sum(Gf[i][j] * x[i] * x[j] for i in range(d) for j in range(d))
        if q <= Fraction(R2):
            out.add(v)
    return out


def random_posdef_int(d, rng):
    B = rng.integers(-2, 3, size=(d, d))
    G = B.T @ B + np.eye(d, dtype=np.int64) * int(rng.integers(1, 4))
    return G.astype(np.int64)


# ==== named fixtures ========================================================

def test_named_form_registry():
    e8 = named_form("e8")
    assert e8.shape == (8, 8)
    assert np.array_equal(e8, e8.T)
    assert all(x % 2 == 0 for x in np.diag(e8))
    assert QuadForm(e8).det == 1
    assert min(np.linalg.eigvalsh(e8.astype(float))) > 0

    h2 = named_form("h2")
    assert np.array_equal(h2, np.array([[0, 1], [1, 0]]))

    big = named_form("h2+e8")
    assert big.shape == (10, 10)
    assert np.array_equal(big[:2, :2], h2)
    assert np.array_equal(big[2:, 2:], e8)

    assert np.array_equal(named_form("diag:2,-2"), np.diag([2, -2]))
    with pytest.raises(ValueError):
        named_form("nope")
    for name in FIXTURES:
        named_form(name)


def test_quadform_rejects_bad_input():
    with pytest.raises(ValueError):
        QuadForm([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        QuadForm([[0, 0], [0, 0]])  # degenerate
    with pytest.raises(ValueError):
        QuadForm([[1.5, 0], [0, 1]])  # not integral


@pytest.mark.parametrize("entry", [2**53 + 1, 2**70, -2**63 - 1, 10**22, 10**400, float("inf"),
                                   float("nan"), "2"],
                         ids=["2^53+1", "2^70", "-2^63-1", "1e22", "1e400", "inf", "nan", "str"])
def test_form_entries_a_float_or_int64_cannot_hold_are_refused(entry):
    # refused with the entry named, neither rounded nor cast with a warning
    with pytest.raises(ValueError, match="integer entries.*got %s" % re.escape(repr(entry))):
        QuadForm([[entry]])


@pytest.mark.parametrize("name", ["diag:9007199254740993", "diag:10000000000000000000000"])
def test_diagonal_fixtures_a_float_or_int64_cannot_hold_are_refused(name):
    with pytest.raises(ValueError, match="got %s" % name[5:]):
        named_form(name)


@pytest.mark.parametrize("empty", [np.zeros((0, 0)), [], [[]]], ids=["0x0", "no rows", "no entries"])
def test_an_empty_form_is_refused(empty):
    # decompose(np.zeros((0, 0))) raised an IndexError in mat_mul
    for build in (QuadForm, decompose):
        with pytest.raises(ValueError, match="nonempty square matrix"):
            build(empty)


@pytest.mark.parametrize("entry", [2**53, -2**53 - 2, 10**16, 2**62, -2**63])
def test_form_entries_both_hold_exactly_are_kept(entry):
    assert as_form_array([[entry, 1], [1, entry]]).tolist() == [[entry, 1], [1, entry]]
    assert named_form("diag:%d" % entry).tolist() == [[entry]]


# ==== decomposition =========================================================

@pytest.mark.parametrize("name", FIXTURES)
def test_decompose_invariants(name):
    dec = decompose(named_form(name))
    A = dec.form.A.astype(float)
    assert np.allclose(dec.aplus + dec.aminus, A, atol=1e-12)
    assert np.allclose(dec.M, dec.aplus - dec.aminus, atol=1e-12)
    assert min(np.linalg.eigvalsh(dec.M)) > 0
    P = np.asarray(dec.proj_plus_matrix(), dtype=float)
    Q = np.asarray(dec.proj_minus_matrix(), dtype=float)
    assert np.allclose(P @ P, P, atol=1e-10)
    assert np.allclose(Q @ Q, Q, atol=1e-10)
    assert np.allclose(P + Q, np.eye(dec.m), atol=1e-10)
    assert dec.r + dec.s == dec.m
    assert dec.has_exact_split()


def test_decompose_signature():
    assert decompose(named_form("e8")).s == 0
    assert decompose(named_form("h2")).s == 1
    assert decompose(named_form("diag:2,-2")).s == 1
    assert decompose(named_form("h2+e8")).s == 1
    d = decompose(np.diag([2, 2, -2]).astype(np.int64))
    assert (d.r, d.s) == (2, 1)


@pytest.mark.parametrize("form", ["h2", "diag:2,2,-2", [[2, 1], [1, -3]]],
                         ids=["h2", "diag:2,2,-2", "irrational"])
def test_decompose_computes_one_eigendecomposition(monkeypatch, form):
    # the signature and the split share one eigendecomposition, and the exact
    # split is rationalised from its majorant and still verified exactly, so
    # a rational |A| splits and an irrational one does not
    calls = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, fn=fn: calls.append(a) or fn(a))
    dec = decompose(named_form(form) if isinstance(form, str) else np.array(form))
    assert len(calls) == 1
    assert dec.has_exact_split() == isinstance(form, str)


_A3 = [[2, 1, 0], [1, 2, 1], [0, 1, 4]]


@st.composite
def _rational_abs_forms(draw):
    """Signed permutations of orthogonal sums of diagonal entries, scaled h2
    blocks and definite blocks +-A3 and +-[[2, 1], [1, 2]], with |A| from the
    blocks: |d| for d, |c| I for c h2, and the positive block for either
    sign of a definite one."""
    def definite(b, sign):
        return np.array(b) * sign, np.array(b)

    blocks = draw(st.lists(st.one_of(
        st.builds(lambda d: (np.array([[d]]), np.array([[abs(d)]])), st.integers(-4, 4).filter(bool)),
        st.builds(lambda c: (np.array([[0, c], [c, 0]]), abs(c) * np.eye(2, dtype=np.int64)),
                  st.integers(-3, 3).filter(bool)),
        st.builds(definite, st.sampled_from([_A3, [[2, 1], [1, 2]]]), st.sampled_from([-1, 1]))),
        min_size=1, max_size=4))
    m = sum(len(b) for b, _ in blocks)
    A = np.zeros((m, m), dtype=np.int64)
    M = np.zeros((m, m), dtype=np.int64)
    o = 0
    for b, mb in blocks:
        k = len(b)
        A[o:o + k, o:o + k] = b
        M[o:o + k, o:o + k] = mb
        o += k
    perm = draw(st.permutations(range(m)))
    P = np.eye(m, dtype=np.int64)[list(perm)] * np.array(draw(st.lists(
        st.sampled_from([-1, 1]), min_size=m, max_size=m)))
    return P @ A @ P.T, P @ M @ P.T


@settings(derandomize=True, deadline=None, max_examples=80)
@given(forms=_rational_abs_forms())
@example(forms=(np.array([[2, 1], [1, -3]]), None))
@example(forms=(np.array([[0, 2], [2, 1]]), None))
def test_exact_split_matches_the_inverse_reference(forms):
    # the reference keeps the formulas of an exact inverse: P+ = M^-1 A+ and
    # P- = -M^-1 A-, with A+- = (A +- M) / 2; an irrational |A| has no split
    A, M = forms
    dec = decompose(A)
    if M is None:
        assert dec.exact is None
        return
    a, M = frac_matrix(A.tolist()), frac_matrix(M.tolist())
    m = len(a)
    aplus = [[(a[i][j] + M[i][j]) / 2 for j in range(m)] for i in range(m)]
    aminus = [[(a[i][j] - M[i][j]) / 2 for j in range(m)] for i in range(m)]
    minv = mat_inverse(M)
    assert dec.exact == {
        "M": M,
        "aplus": aplus,
        "aminus": aminus,
        "proj_plus": mat_mul(minv, aplus),
        "proj_minus": [[-x for x in row] for row in mat_mul(minv, aminus)],
    }


def test_exact_split_past_the_int64_square():
    # A^2 holds 3037000500^2 > 2^63: the check squares in Python ints, so the
    # split is exact instead of lost to a wrapped int64 product
    c = 3037000500
    dec = decompose(np.array([[c, 0], [0, -c]]))
    assert dec.exact["M"] == [[c, 0], [0, c]]
    assert dec.exact["proj_minus"] == [[0, 0], [0, 1]]


def test_a_definite_form_splits_with_no_rationalised_majorant():
    # the float M of [[10^15, 1], [1, 10^15]] rationalises to no |A|, but a
    # definite form is its own majorant, proven so by Sylvester's test; the
    # Vigneras residual of u_11^2, whose heat flow divides by det A, is
    # exactly zero.  One irrational block still refuses the whole split
    A = [[10**15, 1], [1, 10**15]]
    dec = decompose(A)
    assert dec.form.det == 10**30 - 1
    assert dec.exact["M"] == dec.exact["aplus"] == A
    assert dec.exact["proj_plus"] == [[1, 0], [0, 1]]
    for P in (None, MatPoly.variable(2, 1, 0, 0) ** 2):
        spec = theta.theta_spec(A, P_plus=P)
        assert spec.dec.has_exact_split()
    assert vigneras_residual(spec.coeff.f, A, spec.coeff.lam).is_zero()
    B = np.zeros((10, 10), dtype=np.int64)
    B[:8, :8], B[8:, 8:] = named_form("e8"), [[2, 1], [1, -3]]
    assert decompose(B).exact is None


@pytest.mark.parametrize("name, blocks", [("e8", [8]), ("h2+e8", [2, 8])])
def test_a_definite_block_is_neither_rationalised_nor_solved(monkeypatch, name, blocks):
    # QuadForm eliminates each orthogonal block once; the e8 block takes M =
    # A from Sylvester's test, and only the indefinite h2 block rationalises
    # its four entries of the float M and solves [M | A]
    eliminated, rationalised, solved = [], [], []
    gj, limit, solve = exactlinalg.gauss_jordan, Fraction.limit_denominator, quadform.posdef_solve
    monkeypatch.setattr(exactlinalg, "gauss_jordan", lambda rows, n: eliminated.append(n) or gj(rows, n))
    monkeypatch.setattr(Fraction, "limit_denominator",
                        lambda self, cap=10**6: rationalised.append(self) or limit(self, cap))
    monkeypatch.setattr(quadform, "posdef_solve", lambda m, b: solved.append(len(m)) or solve(m, b))
    h2 = len(blocks) - 1  # 1 with the h2 block, 0 without
    form = QuadForm(named_form(name))
    assert eliminated == blocks
    assert [len(b) for b in form.blocks] == blocks and form.definite == [0] * h2 + [1]
    dec = decompose(form)
    assert dec.exact["M"][-8:] == [[0, 0] * h2 + row for row in named_form("e8").tolist()]
    assert len(rationalised) == 4 * h2
    assert solved == [2] * h2
    assert eliminated == blocks + [2] * h2


@pytest.mark.parametrize("A", [named_form("e8").tolist(),
                               [[8186378314083, 14557362532478], [14557362532478, 25886514863042]]],
                         ids=["e8", "skewed Z^2"])
def test_a_float_signature_the_pivots_contradict_is_refused(A):
    # the pivots prove both forms positive definite.  eigh reads the second,
    # the Gram matrix of Z^2 in a unimodular basis of large entries, with a
    # negative eigenvalue of rounding size (-9.8e-4 with numpy 2.4 and its
    # OpenBLAS); where it does not, the smallest eigenvalue is negated here,
    # as it is for e8
    form = QuadForm(A)
    assert form.definite == [1]
    if form.s == 0:
        form.eigvals[0] *= -1
        form.r, form.s = form.r - 1, 1
    with pytest.raises(ValueError, match=r"numerically singular: eigh gives the signature \(\d, 1\)"):
        decompose(form)


def test_eigenvalues_that_contradict_the_exact_det_are_refused():
    # the Gram matrix of Z^4 in a skewed unimodular basis: det 1 and a
    # smallest eigenvalue near 1.9e-16, which eigh reads about 1e13 times
    # too large (the float eigenvalues multiply to about 6.6e12).  Summed
    # with that float M, theta_eval at z = i returned 1.0864 under a 1e-10
    # certificate, against theta_3(e^-pi)^4 = 1.3932
    G = [[40579882, -1220412467, -37512, 22494963626],
         [-1220412467, 36703086606, 1125035, -676520943574],
         [-37512, 1125035, 1242, -20738315],
         [22494963626, -676520943574, -20738315, 12469811927983]]
    form = QuadForm(G)
    assert form.det == 1 and form.definite == [1]
    assert abs(math.fsum(np.log(np.abs(form.eigvals)).tolist())) > 1.0
    with pytest.raises(ValueError, match="numerically singular"):
        decompose(G)
    with pytest.raises(ValueError, match="numerically singular"):
        theta.theta_spec(G)
    # a well-conditioned form with a large det passes: twenty entries of 1e16
    # would overflow the product of the eigenvalues, not the sum of their logs
    assert decompose(np.diag([10**16] * 19 + [-(10**16)]).tolist()).s == 1


def test_decompose_random_floats_still_valid():
    rng = np.random.default_rng(0)
    B = rng.integers(-2, 3, size=(3, 3))
    A = B + B.T + np.diag([5, -7, 3])
    A = A.astype(np.int64)
    if abs(np.linalg.det(A.astype(float))) < 0.5:
        A = A + 2 * np.eye(3, dtype=np.int64)
    dec = decompose(A)
    assert np.allclose(dec.aplus + dec.aminus, A.astype(float), atol=1e-9)
    assert min(np.linalg.eigvalsh(dec.M)) > 0


# ==== cosets ================================================================

@st.composite
def _forms(draw):
    """Nondegenerate symmetric integer forms of size 1-3 with |det| <= 12."""
    m = draw(st.integers(1, 3))
    upper = draw(st.lists(st.integers(-3, 3), min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2))
    it = iter(upper)
    A = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            A[i][j] = A[j][i] = next(it)
    assume(0 < abs(sympy.Matrix(A).det()) <= 12)
    return A


def brute_force_columns(A):
    """{A^-1 v mod 1 : v in {0..|det A|-1}^m}, the whole dual quotient, since
    det(A) Z^m lies in A Z^m; A^-1 is the adjugate over det, from sympy."""
    det = int(sympy.Matrix(A).det())
    adj = [[int(x) for x in row] for row in sympy.Matrix(A).adjugate().tolist()]
    m = len(A)
    return {tuple(Fraction(sum(adj[i][j] * v[j] for j in range(m)), det) % 1 for i in range(m))
            for v in itertools.product(range(abs(det)), repeat=m)}


@settings(derandomize=True, deadline=None, max_examples=120)
@given(A=_forms(), n=st.integers(1, 2))
def test_cosets_are_the_dual_quotient(A, n):
    reps = coset_reps(np.array(A), n)
    m, det = len(A), abs(int(sympy.Matrix(A).det()))
    assert len(reps) == len(set(reps)) == det ** n
    for rep in reps:
        assert all(0 <= x < 1 for row in rep for x in row)
        assert all(sum(A[a][b] * rep[b][j] for b in range(m)).denominator == 1
                   for a in range(m) for j in range(n))
    columns = brute_force_columns(A)
    assert {tuple(tuple(rep[i][j] for i in range(m)) for j in range(n)) for rep in reps} \
        == set(itertools.product(columns, repeat=n))


def test_cosets_of_a_degenerate_form_are_refused():
    with pytest.raises(ValueError, match="form is degenerate"):
        coset_reps(np.array([[1, 2], [2, 4]]), 1)


@pytest.mark.parametrize("name,count", [("diag:2,-2", 4), ("h2", 1), ("e8", 1)])
def test_coset_counts(name, count):
    A = named_form(name)
    reps = coset_reps(A, 1)
    assert len(reps) == count


def test_coset_count_genus_two():
    assert len(coset_reps(np.diag([2, 2]).astype(np.int64), 2)) == 16


def test_cosets_are_distinct_and_in_dual():
    A = named_form("diag:2,-2")
    reps = coset_reps(A, 1)
    Af = [[Fraction(int(x)) for x in row] for row in A.tolist()]
    seen = set()
    for rep in reps:
        # A J must be integral, entries reduced to [0,1)
        for a in range(2):
            prod = sum(Af[a][b] * rep[b][0] for b in range(2))
            assert prod.denominator == 1
            assert 0 <= rep[a][0] < 1
        seen.add(tuple(x for row in rep for x in row))
    assert len(seen) == len(reps)


def test_coset_cap():
    with pytest.raises(ResourceCapError):
        coset_reps(named_form("diag:2,-2"), 2, cap=3)


# ==== lattice enumeration ===================================================

def test_lattice_points_against_brute_force():
    rng = np.random.default_rng(2)
    for trial in range(10):
        d = int(rng.integers(1, 5))
        G = random_posdef_int(d, rng)
        center = [Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4))) for _ in range(d)]
        R2 = Fraction(int(rng.integers(2, 30)), int(rng.integers(1, 3)))
        got = lattice_points(G, center, R2)
        want = brute_force_points(G, center, R2)
        got_set = {tuple(int(x) for x in row) for row in got}
        assert got_set == want, (trial, d)


def test_lattice_points_cap():
    with pytest.raises(ResourceCapError):
        list(lattice_points(np.eye(2, dtype=np.int64), [0, 0], 10_000, point_cap=5))


def test_lattice_points_deterministic_order():
    G = np.array([[2, 1], [1, 3]], dtype=np.int64)
    a = [tuple(map(int, row)) for row in lattice_points(G, [Fraction(1, 2), Fraction(0)], 9)]
    b = [tuple(map(int, row)) for row in lattice_points(G, [Fraction(1, 2), Fraction(0)], 9)]
    assert a == b
    assert len(set(a)) == len(a)


# ==== lattice_blocks against a box oracle ===================================

DEN = 8  # centres are multiples of 1/DEN and R^2 of 1/DEN^2: exact as floats


def box_points(G, center, R2):
    """Exact point list of q(v + center) <= R2, in lattice_blocks order.

    Scans the box |v_i + c_i| <= sqrt(R2 (G^-1)_ii) (plus one), which holds
    the whole ellipsoid, and filters in integer arithmetic on DEN-scaled
    coordinates.  Sorted ascending with the last coordinate outermost.
    """
    N = G.shape[0]
    c = np.asarray(center, dtype=float)
    radius = np.sqrt(R2 * np.diag(np.linalg.inv(G.astype(float))))
    axes = [np.arange(math.floor(-c[i] - radius[i]) - 1, math.ceil(-c[i] + radius[i]) + 2)
            for i in range(N)]
    grid = np.stack(np.meshgrid(*axes[::-1], indexing="ij"), axis=-1).reshape(-1, N)[:, ::-1]
    x = grid * DEN + np.rint(c * DEN).astype(np.int64)
    q = np.einsum("ij,jk,ik->i", x, G, x)
    return [tuple(int(t) for t in row) for row in grid[q <= round(R2 * DEN * DEN)]]


def exact_q(G, center, row):
    x = [Fraction(float(ci)) + int(v) for ci, v in zip(center, row)]
    N = len(x)
    return sum(int(G[i][j]) * x[i] * x[j] for i in range(N) for j in range(N))


def random_ellipsoids(seed=11):
    """(G, center, R2, kind) for N = 1..6: R2 = 0 at an integral centre,
    an empty ellipsoid, and a typical radius."""
    rng = np.random.default_rng(seed)
    out = []
    for N in range(1, 7):
        G = random_posdef_int(N, rng)
        lam_min = float(min(np.linalg.eigvalsh(G.astype(float))))
        out.append((G, rng.integers(-2, 3, size=N).astype(float), 0.0, "zero"))
        # q(v + 1/2) >= lam_min N / 4 for every integer v
        empty = math.floor(0.99 * lam_min * N / 4 * DEN * DEN) / DEN ** 2
        out.append((G, np.full(N, 0.5), empty, "empty"))
        # about `target` points: vol(B_N) R^N / sqrt(det G) = target
        target = int(rng.integers(30, 300))
        ball = math.pi ** (N / 2) / math.gamma(N / 2 + 1)
        R2 = (target * math.sqrt(np.linalg.det(G.astype(float))) / ball) ** (2 / N)
        center = rng.integers(-DEN, DEN + 1, size=N) / DEN
        out.append((G, center, round(R2 * DEN * DEN) / DEN ** 2, "typical"))
    return out


def test_lattice_blocks_against_box_oracle(monkeypatch):
    for G, center, R2, kind in random_ellipsoids():
        want = box_points(G, center, R2)
        if kind == "zero":
            assert want == [tuple(int(-t) for t in center)]
        if kind == "empty":
            assert want == []
        # small blocks and frontier chunks put every cut between rows
        for block_size, frontier_rows in itertools.product(
                (1, 3, 8192), (1, 3, quadform._FRONTIER_ROWS)):
            monkeypatch.setattr(quadform, "_FRONTIER_ROWS", frontier_rows)
            blocks = list(lattice_blocks(G, center, R2, block_size=block_size))
            assert all(b.rows.dtype == np.int64 and len(b) > 0 for b in blocks)
            rows = [tuple(int(t) for t in row) for b in blocks for row in b.rows]
            # only the documented just-outside points may be added
            slack = Fraction(2e-9) * (1 + Fraction(R2))
            assert all(exact_q(G, center, r) <= Fraction(R2) + slack for r in rows)
            inside = [r for r in rows if exact_q(G, center, r) <= Fraction(R2)]
            assert inside == want, (G.shape[0], kind, block_size, frontier_rows)
            # ascending in each coordinate, last coordinate outermost
            keys = [r[::-1] for r in rows]
            assert keys == sorted(set(keys))


def test_lattice_blocks_half_space_against_box_oracle(monkeypatch):
    # centres rounded to half-integers: the rows emitted with half and their
    # mirrors -x - c are disjoint (the origin aside) and make up the full set
    for G, center, R2, kind in random_ellipsoids():
        center = np.round(2 * center) / 2
        want = set(box_points(G, center, R2))
        shift = np.rint(2 * center).astype(np.int64)
        for block_size, frontier_rows in itertools.product(
                (1, 3, 8192), (1, 3, quadform._FRONTIER_ROWS)):
            monkeypatch.setattr(quadform, "_FRONTIER_ROWS", frontier_rows)
            blocks = list(lattice_blocks(G, center, R2, block_size=block_size, half=True))
            rows = [tuple(int(t) for t in row) for b in blocks for row in b.rows]
            inside = [r for r in rows if exact_q(G, center, r) <= Fraction(R2)]
            mirror = {tuple(int(t) for t in -np.array(r) - shift) for r in inside}
            origin = {r for r in inside if r in mirror}
            assert origin == ({tuple(int(-t) for t in center)} if not np.any(center % 1) else set())
            assert set(inside) | mirror == want and len(set(inside)) == len(inside)
            if origin:
                assert rows[0] in origin  # the origin comes first
            keys = [r[::-1] for r in rows]
            assert keys == sorted(set(keys))
            # the kept row of each pair has its last nonzero coordinate of x positive
            for r in inside:
                x = [Fraction(float(c)) + v for c, v in zip(center, r)]
                last = next((t for t in reversed(x) if t), 0)
                assert last > 0 or r in origin


@pytest.mark.parametrize("half", [False, True])
def test_a_phase_less_walk_is_the_empty_form_stack(half):
    # one enumeration path: no phase walks an empty (0, N, N) stack, with the
    # rows and carried q of a walk that carries one form
    G = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.2], [0.0, 0.2, 1.5]])
    center = [0.5, 0.0, -1.5] if half else [0.25, -0.4, 0.1]
    rng = np.random.default_rng(5)
    B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    phase = ((B + B.T)[None], rng.normal(size=(1, 3)) + 0j)
    for block_size in (7, 8192):
        bare = list(lattice_blocks(G, center, 30.0, block_size=block_size, half=half))
        carried = list(lattice_blocks(G, center, 30.0, block_size=block_size, half=half, phase=phase))
        assert len(bare) == len(carried) > 0
        for a, b in zip(bare, carried):
            assert a.rows.tobytes() == b.rows.tobytes() and a.q.tobytes() == b.q.tobytes()
            assert a.tau.shape == (0, len(a)) and b.tau.shape == (1, len(b))


def test_a_coset_is_its_matrix():
    reps = coset_reps(named_form("diag:3,-2"), 2)
    assert len(reps) == 36
    assert all(len(rep) == 2 and all(len(row) == 2 and all(type(x) is Fraction for x in row) for row in rep)
               for rep in reps)
    assert reps[1] == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 2)))


def test_lattice_blocks_half_space_needs_a_symmetric_center():
    G = np.array([[2, 1], [1, 3]], dtype=np.int64)
    with pytest.raises(ValueError, match="2 center"):
        list(lattice_blocks(G, [0.5, 1 / 3], 4.0, half=True))
    with pytest.raises(ValueError, match="2 center"):
        list(lattice_blocks(G, [0.25, 0.0], 4.0, half=True))


@pytest.mark.parametrize("center", [[0.0, 0.0], [0.5, 0.0], [0.5, -1.5]])
def test_lattice_blocks_half_space_cap_counts_the_full_ellipsoid(center):
    # the cap counts points of the full set, two per row emitted but the origin
    G = np.array([[2, 1], [1, 3]], dtype=np.int64)
    full = sum(len(b) for b in lattice_blocks(G, center, 40.0))
    half = sum(len(b) for b in lattice_blocks(G, center, 40.0, half=True))
    assert full == 2 * half - (not np.any(np.array(center) % 1))
    assert sum(len(b) for b in lattice_blocks(G, center, 40.0, point_cap=full, half=True)) == half
    with pytest.raises(ResourceCapError):
        list(lattice_blocks(G, center, 40.0, point_cap=full - 1, half=True))


def test_lattice_blocks_point_cap():
    G = np.array([[2, 1], [1, 3]], dtype=np.int64)
    assert len(box_points(G, [0.0, 0.0], 40.0)) > 5
    for block_size in (1, 8192):
        with pytest.raises(ResourceCapError):
            list(lattice_blocks(G, [0.0, 0.0], 40.0, point_cap=5, block_size=block_size))


def test_lattice_points_refuse_a_far_centre_before_any_cast():
    # a centre of 1e30 used to reach the int64 cast of the on-axis bounds
    # first: RuntimeWarning (invalid value encountered in cast), then the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceCapError, match="beyond 2\\^52"):
            list(lattice_points(np.eye(2), [1e30, 0.0], 4.0))


# The certified ellipsoids the direct series enumerated on the benchmark grid, with
# the point count and SHA-256 of the emitted rows (int64, in order) recorded
# from the recursive depth-first enumerator that lattice_blocks replaced.
# Their R^2 are those of the five-value rho grid that the golden-section tail
# plan replaced, kept as literals so the digests go on pinning the order.
# label, form, genus, H = 1/2 in the first row, Y, eps, R^2, points, digest
GRID_ELLIPSOIDS = (
    ("e8/g1", "e8", 1, False, [[1.3]], 1e-10, 12.109804879043654, 26641,
     "58c53f936fdb61da95ea637e12d05a2b29081d76794af72fa7cb8dfa5af5da05"),
    ("e8/g1/cusp", "e8", 1, False, [[0.6]], 1e-10, 13.267988188131653, 1113841,
     "434c414859346bf297892664d28c8ce47954c537b7f6045faa82c71494489c85"),
    ("e8/g2/Hhalf", "e8", 2, True, [[3.0, 0.06], [0.06, 3.0]], 1e-9, 12.232792289363127, 35348,
     "8c49e12d9e6bb5b958204b987578b23f722bda801f339f21323a6647ab3d41a9"),
    ("h2+e8/g2", "h2+e8", 2, False, [[3.0, 0.0], [0.0, 3.0]], 1e-6, 10.542018713670869, 4385,
     "45d662912cba6a61dcdbbc2a3163f4556822483ac2b29aa96411b93abb667d9c"),
    ("h2+e8/g2/Hhalf", "h2+e8", 2, True, [[3.0, 0.0], [0.0, 3.0]], 1e-6, 10.542018713670869, 9676,
     "b2d82bbfed9f5d5c36d6c2e8fd6d913863875591548026f5554b38c2b009992c"),
    ("diag:2,-2/g2", "diag:2,-2", 2, False, [[1.0, 0.02], [0.02, 1.0]], 1e-12, 11.26571922034775, 137,
     "ffe871d63d78d6d9109e37545e74c07d0ecc56c23df4a8f9314a8b1bafbee4ea"),
    ("diag:2,-2/g2/Hhalf", "diag:2,-2", 2, True, [[1.0, 0.02], [0.02, 1.0]], 1e-12, 11.26571922034775,
     176, "f42c0d4a0da8fe3e81e2ef72e4d8ff9f569e80634b74c6bdb2506ca59244b9d6"),
)


def grid_ellipsoid(monkeypatch, form, genus, half, Y, eps):
    """The (G, center, R2) that the direct series (theta_eval_direct) hands to lattice_blocks.

    It pairs U with -U on these cosets (half=True); the digests below pin
    the full enumeration of the same ellipsoid.
    """
    seen = []

    def record(G, center, R2, point_cap=None, block_size=8192, half=False, phase=None, chol=None):
        seen.append((np.array(G), np.array(center), R2))
        return iter(())

    m = named_form(form).shape[0]
    H = [[Fraction(1, 2) if a == 0 and half else Fraction(0)] * genus for a in range(m)]
    spec = theta.theta_spec(form, H=H, n=genus)
    with monkeypatch.context() as patch:
        patch.setattr(theta, "lattice_blocks", record)
        theta.theta_eval_direct(spec, SiegelPoint(1j * np.array(Y)), eps)
    (out,) = seen
    return out


@pytest.mark.parametrize("label,form,genus,half,Y,eps,R2,points,digest", GRID_ELLIPSOIDS,
                         ids=[row[0] for row in GRID_ELLIPSOIDS])
def test_lattice_blocks_frozen_grid_order(monkeypatch, label, form, genus, half, Y, eps, R2,
                                          points, digest):
    # the direct series still hands over the recorded G = kron(Y, M) and centre;
    # the enumeration runs at the recorded R^2
    G, center, _ = grid_ellipsoid(monkeypatch, form, genus, half, Y, eps)
    assert np.array_equal(G, np.kron(np.array(Y), decompose(named_form(form)).M))
    m = named_form(form).shape[0]
    assert center.tolist() == [0.5 if a == 0 and half else 0.0 for _ in range(genus) for a in range(m)]
    h = hashlib.sha256()
    count = 0
    for block in lattice_blocks(G, center, R2):
        h.update(np.ascontiguousarray(block.rows, dtype="<i8").tobytes())
        count += len(block)
    assert (count, h.hexdigest()) == (points, digest)
