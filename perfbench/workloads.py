"""The three benchmark workloads and why each exists.

Every workload is a closed loop: one caller in one process runs one
operation at a time through the public API of ``siegeltheta``.  The seed
draws the points, the translation matrices S and the polynomial
combinations.  Imaginary parts come from narrow bands (+-0.5%), because the
lattice work grows like det(Y)^(-m/2); in ``grid`` they are fixed, because
there the work is the point count of one ellipsoid, which jumps from shell
to shell of the lattice.  Real parts, which cost nothing there, range
freely.  Every operation passes an explicit point cap.

grid -- the certified value
    ``theta_eval`` with P = 1 on the fixture grid e8, h2+e8 and diag:2,-2,
    genus 1 and 2, H = 0 and H = 1/2 (in the first row, as ``run_suite``
    sets it).  Genus-1 Im z lies in [0.9, 1.7], plus one e8 point at the
    cusp, Im z = 0.6 (about 1.1M lattice points).  Genus-2 points have
    Y ~ 3 I for m >= 8 (diagonal Z where an E4 product is the reference) and
    Y ~ I for diag:2,-2.  eps ranges from 1e-12 to 1e-6 (h2+e8 in genus 2,
    20 dimensions) so that no single point but the cusp dominates a pass.
    Ellipsoid enumeration (``quadform.lattice_blocks``) is nearly all of the
    time; ``eval_batch`` evaluates the constant 1.  References: the E4 q-series (e8 and the e8
    factor of h2+e8), numpy box sums (diag:2,-2 and the h2 factor), and
    elsewhere the same series at eps/1000, all computed after timing.
coeff -- the exact algebra and the polynomial evaluator
    High-degree coefficients on small forms (m n <= 6): seeded integer
    combinations of ``basis_homopol(3,2,3)`` and ``(3,2,4)`` on
    [[2,1,0],[1,2,1],[0,1,4]], and of ``basis_homopol(3,2,2)`` on
    diag:2,2,-2, all in genus 2.  Set-up builds the bases, runs the heat
    flow and validates the Vigneras equation.  Each operation is a
    ``check_borcherds_form`` at Y eigenvalues 0.5-0.9, which evaluates both
    normalisations and so runs the exact ``borcherds_poly`` heat flow at
    every point.  The only workload where ``polyalg`` does most of the work.
laws -- many small certified sums
    ``check_translation``, ``check_inversion``, ``check_borcherds_form`` and
    ``check_poisson`` on diag:2,2,-2, diag:3,-2, diag:2,2, diag:2,-2 and h2
    in genus 2 (H = 1/2, K = 1/3 as in ``run_suite``, |X| <= 0.15, Y ~ I),
    one check of each law on e8 in genus 1, and ``run_suite("all")`` in
    genus 1 and 2 at the end of every pass.  One Gram matrix is summed over
    many shifted centres (64 cosets for diag:2,2,-2), so fixed per-call cost
    and exact bookkeeping matter here.

Layer -> end-to-end map (what each per-layer metric should move):

    quadform.lattice_blocks.{calls,s,points}  wall_s on grid; calls also
                                              wall_s and op_p50_ms on laws
    quadform.{decompose,coset_reps}.s         setup_s, and laws
    polyalg.eval_batch.{s,rows,monomial_evals} wall_s on coeff (grid: no change)
    polyalg.{basis_homopol,heat_flow,vigneras_residual}.s
                                              setup_s on coeff; heat_flow
                                              also wall_s on coeff
    theta.lattice_sum.{calls,s}, theta.summand.s, theta.terms,
    theta.tail_over_eps                       wall_s on all three, most on
                                              grid (terms and tail_over_eps
                                              track certificate slack)
    theta.plan_reduce.s                       op_p50_ms on laws
    verify.{translation,inversion,borcherds_form,poisson,suite,exact}.s,
    verify.cosets                             wall_s and op_p50_ms on laws
    trace.overhead_frac                       traced / untraced wall_s - 1
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import siegeltheta as st

from oracles import box_theta, e4_product

BAND = 0.005  # relative half-width of the Im z / Y bands


class Op:
    """One operation: ``run()`` is timed; ``check(out, perturb)`` is not.

    ``check`` returns None when the output is correct and a reason when it
    is not.  ``perturb`` scales the reference by (1 + perturb); the smoke
    mode uses it to show that a wrong reference is caught.
    """

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _half(m, n):
    return [[Fraction(1, 2) if a == 0 else Fraction(0)] * n for a in range(m)]


def _third(m, n):
    return [[Fraction(1, 3) if a == m - 1 else Fraction(0)] * n for a in range(m)]


def _jitter(rng, y0):
    return y0 * (1.0 + rng.uniform(-BAND, BAND))


def _point(rng, genus, y0, shape="full", xmax=0.5):
    """A Siegel point with Y in the band around y0 I and X in [-xmax, xmax]."""
    if shape == "diag":
        X = np.diag(rng.uniform(-xmax, xmax, size=genus))
        Y = np.diag([_jitter(rng, y0) for _ in range(genus)])
    else:
        Xh = rng.uniform(-xmax, xmax, size=(genus, genus))
        X = np.triu(Xh) + np.triu(Xh, 1).T
        Y = np.diag([_jitter(rng, y0) for _ in range(genus)])
        off = y0 * rng.uniform(-0.03, 0.03, size=(genus, genus))
        Y = Y + np.triu(off, 1) + np.triu(off, 1).T
    return st.SiegelPoint.from_xy(X, Y)


def _grid_point(rng, genus, y0, shape):
    """X drawn in [-0.5, 0.5]; Y fixed at y0 I, with off-diagonal 0.02 y0 in
    the full shape.

    The certified ellipsoid depends on Y alone, and its point count jumps
    where its radius crosses a shell of the lattice: a Y drawn from a band of
    +-0.5% changed the work of an h2+e8 genus-2 point by 1.7x between seeds.
    """
    if shape == "diag":
        X = np.diag(rng.uniform(-0.5, 0.5, size=genus))
        Y = y0 * np.eye(genus)
    else:
        Xh = rng.uniform(-0.5, 0.5, size=(genus, genus))
        X = np.triu(Xh) + np.triu(Xh, 1).T
        Y = y0 * (np.eye(genus) + 0.02 * (1 - np.eye(genus)))
    return st.SiegelPoint.from_xy(X, Y)


def _rotated_point(rng, eig0, xmax=0.5):
    """A genus-2 point whose Y has eigenvalues in the bands around eig0."""
    t = rng.uniform(0.0, math.pi)
    R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    Y = R @ np.diag([_jitter(rng, e) for e in eig0]) @ R.T
    Xh = rng.uniform(-xmax, xmax, size=(2, 2))
    return st.SiegelPoint.from_xy(np.triu(Xh) + np.triu(Xh, 1).T, (Y + Y.T) / 2)


def _report_check(rep, perturb=0.0):
    if rep.passed:
        return None
    return "%s residual %.3e > tolerance %.1e" % (rep.name, rep.residual, rep.tolerance)


def _suite_check(reports, perturb=0.0):
    bad = [r.name for r in reports if not r.passed]
    return None if not bad else "suite checks failed: " + ", ".join(bad)


# ==== grid ===================================================================

# label, form, genus, H = 1/2?, y0, point shape, eps, reference
GRID = (
    ("e8/g1/H0", "e8", 1, False, 1.3, "full", 1e-10, "e4"),
    ("e8/g1/H0/cusp", "e8", 1, False, 0.6, "full", 1e-10, "e4"),
    ("e8/g1/Hhalf", "e8", 1, True, 1.4, "full", 1e-12, "series"),
    ("h2+e8/g1/H0", "h2+e8", 1, False, 1.7, "full", 1e-10, "h2*e4"),
    ("h2+e8/g1/Hhalf", "h2+e8", 1, True, 1.7, "full", 1e-10, "h2*e4"),
    ("diag:2,-2/g1/H0", "diag:2,-2", 1, False, 0.9, "full", 1e-12, "box"),
    ("diag:2,-2/g1/Hhalf", "diag:2,-2", 1, True, 1.7, "full", 1e-12, "box"),
    ("e8/g2/H0", "e8", 2, False, 3.0, "diag", 1e-9, "e4"),
    ("e8/g2/Hhalf", "e8", 2, True, 3.0, "full", 1e-9, "series"),
    ("h2+e8/g2/H0", "h2+e8", 2, False, 3.0, "diag", 1e-6, "h2*e4"),
    ("h2+e8/g2/Hhalf", "h2+e8", 2, True, 3.0, "diag", 1e-6, "h2*e4"),
    ("diag:2,-2/g2/H0", "diag:2,-2", 2, False, 1.0, "full", 1e-12, "box"),
    ("diag:2,-2/g2/Hhalf", "diag:2,-2", 2, True, 1.0, "full", 1e-12, "box"),
)

GRID_SMOKE = (
    ("e8/g1/H0", "e8", 1, False, 2.5, "full", 1e-6, "e4"),
    ("e8/g1/Hhalf", "e8", 1, True, 2.5, "full", 1e-6, "series"),
    ("h2+e8/g1/Hhalf", "h2+e8", 1, True, 2.5, "full", 1e-6, "h2*e4"),
    ("diag:2,-2/g2/Hhalf", "diag:2,-2", 2, True, 1.0, "full", 1e-8, "box"),
)


def _reference(kind, spec, Z, eps, cap):
    """(value, bound) for the series of spec at Z; see oracles.py."""
    if kind == "series":
        ref = st.theta_eval(spec, Z, eps / 1000.0, point_cap=cap)
        return ref.value, ref.tail_bound
    if kind == "e4":
        return e4_product(Z.Z)
    A = np.asarray(spec.A)
    H = np.array([[float(x) for x in row] for row in spec.H])
    K = np.array([[float(x) for x in row] for row in spec.K])
    if kind == "box":
        return box_theta(A, H, K, Z.Z)
    # h2*e4: h2+e8 is block diagonal with the characteristics in the h2 block
    if np.any(H[2:]) or np.any(K[2:]):
        raise ValueError("h2*e4 needs zero characteristics on the e8 block")
    h2, h2_bound = box_theta(A[:2, :2], H[:2], K[:2], Z.Z)
    e8, e8_bound = e4_product(Z.Z)
    return h2 * e8, abs(h2) * e8_bound + abs(e8) * h2_bound + h2_bound * e8_bound


def _grid_check(spec, Z, eps, kind, cap):
    ref = []

    def check(val, perturb=0.0):
        if not ref:
            ref.append(_reference(kind, spec, Z, eps, cap))
        value, bound = ref[0]
        value *= 1.0 + perturb
        err = abs(val.value - value)
        tol = val.tail_bound + bound + 1e-12 * (val.gross + abs(value))
        if val.tail_bound > eps * (1.0 + 1e-9) or err > tol:
            return "|value - ref| = %.3e > %.3e (tail %.1e, ref bound %.1e)" % (
                err, tol, val.tail_bound, bound)
        return None
    return check


class Grid:
    name = "grid"
    cap = 4_000_000

    def __init__(self, seed, smoke=False):
        rng = np.random.default_rng([seed, 1])
        self.table = GRID_SMOKE if smoke else GRID
        self.points = [_grid_point(rng, g, y0, shape) for _, _, g, _, y0, shape, _, _ in self.table]

    def setup(self):
        specs = {}
        for _, form, genus, half, *_ in self.table:
            key = (form, genus, half)
            if key not in specs:
                m = st.named_form(form).shape[0]
                H = _half(m, genus) if half else None
                specs[key] = st.theta_spec(form, H=H, n=genus)
        return specs

    def ops(self, specs):
        out = []
        for (label, form, genus, half, _, _, eps, kind), Z in zip(self.table, self.points):
            spec = specs[(form, genus, half)]
            run = (lambda spec=spec, Z=Z, eps=eps: st.theta_eval(spec, Z, eps, point_cap=self.cap))
            out.append(Op(label, run, _grid_check(spec, Z, eps, kind, self.cap)))
        return out


# ==== coeff ==================================================================

A3 = [[2, 1, 0], [1, 2, 1], [0, 1, 4]]
# label, form, basis degree alpha
COEFF = (("a3/alpha3", A3, 3), ("a3/alpha4", A3, 4), ("diag:2,2,-2/alpha2", "diag:2,2,-2", 2))
COEFF_SMOKE = (("a3/alpha2", A3, 2), ("diag:2,2,-2/alpha2", "diag:2,2,-2", 2))
COEFF_EIGS = ((0.5, 0.9), (0.6, 0.8), (0.7, 0.7), (0.85, 0.55))


class Coeff:
    name = "coeff"
    cap = 2_000_000

    def __init__(self, seed, smoke=False):
        rng = np.random.default_rng([seed, 2])
        self.table = COEFF_SMOKE if smoke else COEFF
        eigs = ((0.9, 0.9),) if smoke else COEFF_EIGS
        # nonzero integer weights; a basis never has more than 64 elements here
        self.weights = [[int(w) * (1 if rng.random() < 0.5 else -1)
                         for w in rng.integers(1, 4, size=64)] for _ in self.table]
        self.points = [[_rotated_point(rng, e) for e in eigs] for _ in self.table]

    def setup(self):
        specs = []
        for (_, form, alpha), weights in zip(self.table, self.weights):
            basis = st.basis_homopol(3, 2, alpha)
            P = st.MatPoly.zero(3, 2)
            for w, b in zip(weights, basis):
                P = P + b * w
            specs.append(st.theta_spec(form, P_plus=P, n=2))
        return specs

    def ops(self, specs):
        out = []
        for (label, _, _), spec, points in zip(self.table, specs, self.points):
            for k, Z in enumerate(points):
                run = (lambda spec=spec, Z=Z: st.check_borcherds_form(spec, Z, point_cap=self.cap))
                out.append(Op("%s/p%d" % (label, k), run, _report_check))
        return out


# ==== laws ===================================================================

LAW_FORMS = ("diag:2,2,-2", "diag:3,-2", "diag:2,2", "diag:2,-2", "h2")
LAW_FORMS_SMOKE = ("diag:2,-2", "h2")
E8_EPS = 1e-6  # keeps the four e8 checks to about half of a pass
LAWS = ("translation", "inversion", "borcherds_form", "poisson")


def _law_ops(form, spec, S, zs, cap):
    """The four law checks on one form, one drawn point each."""
    zt, zi, zb, zp = zs
    kw = {"point_cap": cap}
    tol = {}
    if form == "e8":
        # translation and Borcherds default to tolerances sized for eps of
        # 1e-12 and 1e-13; here each side may be off by up to eps
        kw["eps"] = E8_EPS
        tol["tol"] = 4 * E8_EPS
    runs = (
        lambda: st.check_translation(spec, zt, S, **kw, **tol),
        lambda: st.check_inversion(spec, zi, **kw),
        lambda: st.check_borcherds_form(spec, zb, **kw, **tol),
        lambda: st.check_poisson(spec, zp, **kw),
    )
    return [Op("%s/%s" % (form, law), run, _report_check) for law, run in zip(LAWS, runs)]


class Laws:
    name = "laws"
    cap = 2_000_000

    def __init__(self, seed, smoke=False):
        rng = np.random.default_rng([seed, 3])
        self.smoke = smoke
        self.forms = LAW_FORMS_SMOKE if smoke else LAW_FORMS
        self.draws = {}
        for form in self.forms + (() if smoke else ("e8",)):
            genus = 1 if form == "e8" else 2
            S = rng.integers(-2, 3, size=(genus, genus))
            S = np.triu(S) + np.triu(S, 1).T
            if not S.any():
                S[0, 0] = 1
            zs = [_point(rng, genus, 1.0, xmax=0.15) for _ in LAWS]
            self.draws[form] = (S, zs)

    def setup(self):
        specs = {}
        for form in self.draws:
            genus = 1 if form == "e8" else 2
            m = st.named_form(form).shape[0]
            specs[form] = st.theta_spec(form, H=_half(m, genus), K=_third(m, genus), n=genus)
        return specs

    def ops(self, specs):
        cap = self.cap
        out = []
        for form, (S, zs) in self.draws.items():
            out += _law_ops(form, specs[form], S, zs, cap)
        suites = (("translation", 1),) if self.smoke else (("all", 1), ("all", 2))
        for suite, genus in suites:
            # the suite draws its own points from its seed; 0 keeps its work fixed
            run = (lambda suite=suite, genus=genus:
                   st.run_suite(suite, genus=genus, seed=0, point_cap=cap))
            out.append(Op("run_suite/%s/g%d" % (suite, genus), run, _suite_check))
        return out


WORKLOADS = {cls.name: cls for cls in (Grid, Coeff, Laws)}
