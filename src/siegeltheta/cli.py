"""Batch front door: JSON in, JSON out.

Subcommands:
  basis      dump a basis of the polynomial solution space P_alpha^{m,n}
  decompose  split a form into its definite parts A+, A- and majorant M
  cosets     representatives of A^-1 Z^{m x n} / Z^{m x n}
  eval       evaluate a theta series described by a JSON spec file
  verify     run an identity-check suite, one JSON report per check
  fixtures   list the named form registry

All output is JSON on standard output with sorted keys; rational numbers are
encoded as strings like "-3/2" so characteristics survive the round trip
exactly.  Exit codes: 0 success, 1 invalid input, 2 a check failed,
3 enumeration cap exceeded (see THETA_MAX_POINTS).  A standard output that
the reader has closed (as in `siegeltheta verify ... | head -1`) is not an
error: the rest of the output is dropped, nothing is written to standard
error, and the exit code is the command's own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .errors import ResourceCapError
from .polyalg import basis_homopol, json_fraction, matpoly_from_json, matpoly_to_json
from .quadform import FIXTURES, as_form_array, coset_reps, decompose, named_form
from .siegel import SiegelPoint
from .theta import theta_eval, theta_spec
from .verify import SUITES, run_suite


def _emit(obj) -> None:
    try:
        json.dump(obj, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; send what is left, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _fail(message: str, code: int) -> int:
    _emit({"error": message})
    return code


def _load_form(form) -> np.ndarray:
    """A fixture name, a path to a JSON file holding a matrix, or the matrix itself.

    The raw data goes to as_form_array, which refuses an entry that is not
    an integer both int64 and float64 hold exactly.
    """
    if isinstance(form, str):
        if not os.path.exists(form):
            return named_form(form)
        with open(form) as fh:
            form = json.load(fh)
    return as_form_array(form)


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def _frac_mat_out(rows) -> list:
    return [[_frac_str(x) for x in row] for row in rows]


def _frac_mat_in(data) -> list:
    return [[json_fraction(x) for x in row] for row in data]


def _cmd_basis(args) -> int:
    basis = basis_homopol(args.m, args.n, args.alpha, monomial_cap=args.cap)
    _emit({
        "m": args.m,
        "n": args.n,
        "alpha": args.alpha,
        "dimension": len(basis),
        "basis": [matpoly_to_json(p) for p in basis],
    })
    return 0


def _cmd_decompose(args) -> int:
    dec = decompose(_load_form(args.form))
    out = {
        "form": [[int(x) for x in row] for row in dec.form.A.tolist()],
        "m": dec.m,
        "r": dec.r,
        "s": dec.s,
        "det": str(dec.form.det),
        "exact_split": dec.has_exact_split(),
    }
    if dec.has_exact_split():
        ex = dec.exact
        out["aplus"] = _frac_mat_out(ex["aplus"])
        out["aminus"] = _frac_mat_out(ex["aminus"])
        out["majorant"] = _frac_mat_out(ex["M"])
        out["proj_plus"] = _frac_mat_out(ex["proj_plus"])
        out["proj_minus"] = _frac_mat_out(ex["proj_minus"])
    else:
        out["aplus"] = dec.aplus.tolist()
        out["aminus"] = dec.aminus.tolist()
        out["majorant"] = dec.M.tolist()
        out["proj_plus"] = dec.proj_plus_matrix()
        out["proj_minus"] = dec.proj_minus_matrix()
    _emit(out)
    return 0


def _cmd_cosets(args) -> int:
    A = _load_form(args.form)
    reps = coset_reps(A, args.genus, cap=args.cap)
    _emit({
        "form": [[int(x) for x in row] for row in np.asarray(A).tolist()],
        "genus": args.genus,
        "count": len(reps),
        "reps": [_frac_mat_out(rep) for rep in reps],
    })
    return 0


def _parse_spec(data: dict, eps_flag) -> tuple:
    dec = decompose(_load_form(data["A"]))
    Zd = data["Z"]
    X = np.asarray(Zd["X"], dtype=float)
    Y = np.asarray(Zd["Y"], dtype=float)
    Z = SiegelPoint.from_xy(X, Y)
    n = Z.n
    coeff_d = data.get("coeff", {"type": "posdef" if dec.s == 0 else "indef"})
    if not isinstance(coeff_d, dict):
        raise ValueError("coeff must be a JSON object")
    kind = coeff_d.get("type")
    if kind not in ("posdef", "indef"):
        raise ValueError("coeff.type must be 'posdef' or 'indef'")
    if kind == "posdef" and dec.s != 0:
        raise ValueError("posdef coefficients need a positive definite form")
    if kind == "indef" and dec.s == 0:
        raise ValueError("indef coefficients need an indefinite form")
    polys = {}
    for key in ("P_alpha", "P_beta"):
        if coeff_d.get(key):
            polys[key] = matpoly_from_json(coeff_d[key])
            if (polys[key].m, polys[key].n) != (dec.m, n):
                raise ValueError("%s shape must match the form size and the point genus" % key)
    H = _frac_mat_in(data["H"]) if "H" in data else None
    K = _frac_mat_in(data["K"]) if "K" in data else None
    spec = theta_spec(dec, polys.get("P_alpha"), polys.get("P_beta"), H, K, n=n)
    eps = float(eps_flag if eps_flag is not None else data.get("eps", 1e-10))
    return spec, Z, eps


def _cmd_eval(args) -> int:
    with open(args.spec) as fh:
        data = json.load(fh)
    spec, Z, eps = _parse_spec(data, args.eps)
    val = theta_eval(spec, Z, eps)
    _emit({
        "value": [val.value.real, val.value.imag],
        "tail_bound": val.tail_bound,
        "terms_used": val.terms,
        "radius": float(np.sqrt(val.radius2)),
    })
    return 0


def _cmd_verify(args) -> int:
    forms = tuple(args.form) if args.form else None
    reports = run_suite(args.suite, forms=forms, genus=args.genus,
                        seed=args.seed, eps=args.eps)
    _emit({
        "suite": args.suite,
        "checks": [rep.as_dict() for rep in reports],
        "passed": all(rep.passed for rep in reports),
    })
    return 0 if all(rep.passed for rep in reports) else 2


def _cmd_fixtures(args) -> int:
    _emit({
        "fixtures": {
            name: [[int(x) for x in row] for row in named_form(name).tolist()]
            for name in FIXTURES
        }
    })
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument error is invalid input: a ValueError, which main reports with exit 1."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="siegeltheta",
        description="Siegel theta series of integral quadratic forms: "
                    "construction, evaluation, and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="basis of the solution-space polynomials")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--cap", type=int, default=2_000_000)
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("decompose", help="split a form into definite parts")
    p.add_argument("--form", required=True, help="fixture name or JSON matrix file")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("cosets", help="dual-quotient coset representatives")
    p.add_argument("--form", required=True)
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--cap", type=int, default=100_000)
    p.set_defaults(fn=_cmd_cosets)

    p = sub.add_parser("eval", help="evaluate a theta series from a spec file")
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("--eps", type=float, default=None,
                   help="override the spec's truncation tolerance")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("verify", help="run an identity-check suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--form", action="append",
                   help="fixture name; may be given more than once")
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("fixtures", help="list the named form registry")
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ResourceCapError as exc:
        return _fail(str(exc), 3)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc), 1)
    except ArithmeticError as exc:  # a zero denominator, a number beyond the float range
        return _fail("invalid number: %s" % exc, 1)


if __name__ == "__main__":
    sys.exit(main())
