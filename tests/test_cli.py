"""Front-door round trips: JSON schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

from fractions import Fraction

import numpy as np
import pytest

from siegeltheta import cli, verify
from siegeltheta.polyalg import MatPoly, basis_homopol, matpoly_from_json, matpoly_to_json
from siegeltheta.quadform import named_form
from siegeltheta.scalars import PiScalar


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    # a timeout turns a hang into a failure instead of a stuck run
    proc = subprocess.run(
        [sys.executable, "-m", "siegeltheta.cli", *args],
        capture_output=True, text=True, env=env, timeout=120)
    return proc


def test_basis_round_trip():
    proc = run_cli("basis", "--m", "2", "--n", "2", "--alpha", "1")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["dimension"] == 1
    # the emitted polynomial re-parses to a scalar multiple of det U
    got = matpoly_from_json(data["basis"][0])
    det = basis_homopol(2, 2, 1)[0]
    assert (got - det).is_zero() or (got + det).is_zero()


def test_decompose_named_fixture():
    proc = run_cli("decompose", "--form", "h2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["r"] == 1 and data["s"] == 1
    assert data["det"] == "-1"
    assert data["exact_split"] is True
    assert data["aplus"] == [["1/2", "1/2"], ["1/2", "1/2"]]
    assert data["majorant"] == [["1", "0"], ["0", "1"]]


def test_decompose_from_file(tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps([[2, 0], [0, -2]]))
    proc = run_cli("decompose", "--form", str(path))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert (data["r"], data["s"]) == (1, 1)


def test_decompose_irrational_majorant_from_file(tmp_path):
    # |A| is irrational here, so the split is reported in floats
    path = tmp_path / "form.json"
    path.write_text(json.dumps([[2, 1], [1, -3]]))
    proc = run_cli("decompose", "--form", str(path))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["exact_split"] is False
    assert (data["r"], data["s"], data["det"]) == (1, 1, "-7")
    P = np.array(data["proj_plus"])
    Q = np.array(data["proj_minus"])
    assert np.allclose(P + Q, np.eye(2), atol=1e-12)
    assert np.allclose(np.array(data["aplus"]) + np.array(data["aminus"]), [[2, 1], [1, -3]], atol=1e-12)


def test_cosets_counts():
    proc = run_cli("cosets", "--form", "diag:2,-2", "--genus", "1")
    data = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert data["count"] == 4
    assert ["1/2"] in data["reps"][3]


def test_eval_schema_and_value(tmp_path):
    spec = {
        "A": [[2]],
        "H": [["0"]],
        "K": [["0"]],
        "coeff": {"type": "posdef"},
        "Z": {"X": [[0.0]], "Y": [[1.0]]},
        "eps": 1e-12,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("eval", "--spec", str(path))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert set(data) == {"value", "tail_bound", "terms_used", "radius"}
    direct = sum(math.exp(-2 * math.pi * k * k) for k in range(-40, 41))
    assert data["value"][0] == pytest.approx(direct, abs=1e-11)
    assert data["value"][1] == 0.0
    assert data["terms_used"] > 0 and data["radius"] > 0


def test_eval_indefinite_with_poly(tmp_path):
    spec = {
        "A": "h2",
        "H": [["1/2"], ["0"]],
        "K": [["0"], ["1/3"]],
        "coeff": {
            "type": "indef",
            "P_alpha": {"m": 2, "n": 1,
                        "terms": [{"exp": [[1], [0]], "re": "1", "im": "0", "pi_pow": 0}]},
        },
        "Z": {"X": [[0.0]], "Y": [[1.0]]},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("eval", "--spec", str(path), "--eps", "1e-11")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["tail_bound"] <= 1.1e-11
    assert abs(data["value"][1]) > 0.1  # known purely imaginary nonzero value


def test_eval_characteristic_with_a_large_integer_part_is_the_reduced_one(tmp_path):
    # H = 10^20 + 1/2 used to raise ResourceCapError, with a numpy cast
    # warning on stderr; the integer part leaves the set of U as it is
    outs = []
    for h in ("1/2", "200000000000000000001/2"):
        spec = {"A": "h2", "H": [[h], ["0"]], "K": [["0"], ["1/3"]], "Z": {"X": [[0.1]], "Y": [[1.0]]}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("eval", "--spec", str(path))
        assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_eval_non_homogeneous_coefficient_exits_one_naming_it(tmp_path):
    # a minor plus u_11 u_22: every column has degree 1, so only the
    # off-diagonal Euler entries tell that P+ is no power of det
    P = basis_homopol(3, 2, 1)[0] + MatPoly.variable(3, 2, 0, 0) * MatPoly.variable(3, 2, 1, 1)
    spec = {"A": [[2, 1, 0], [1, 2, 1], [0, 1, 4]],
            "coeff": {"type": "posdef", "P_alpha": matpoly_to_json(P)},
            "Z": {"X": [[0.1, 0.05], [0.05, -0.2]], "Y": [[0.8, 0.1], [0.1, 0.7]]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("eval", "--spec", str(path))
    assert proc.returncode == 1 and proc.stderr == ""
    assert "P+" in json.loads(proc.stdout)["error"]


def test_eval_invalid_spec_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"A": [[2]], "Z": {"X": [[0.0]]}}))
    proc = run_cli("eval", "--spec", str(path))
    assert proc.returncode == 1
    assert "error" in json.loads(proc.stdout)


def test_eval_type_mismatch_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "A": "h2", "coeff": {"type": "posdef"},
        "Z": {"X": [[0.0]], "Y": [[1.0]]}}))
    proc = run_cli("eval", "--spec", str(path))
    assert proc.returncode == 1


def test_eval_cap_exits_three(tmp_path):
    spec = {"A": [[2]], "Z": {"X": [[0.0]], "Y": [[1.0]]}, "eps": 1e-12}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("eval", "--spec", str(path), env_extra={"THETA_MAX_POINTS": "2"})
    assert proc.returncode == 3
    assert "error" in json.loads(proc.stdout)


_PLAIN = {"A": [[2]], "Z": {"X": [[0.0]], "Y": [[1.0]]}}


def _poly_spec(exp, **term):
    return dict(_PLAIN, coeff={"type": "posdef", "P_alpha": {
        "m": 1, "n": 1, "terms": [dict({"exp": exp, "re": "1"}, **term)]}})


@pytest.mark.parametrize("spec", [
    dict(_PLAIN, A=[[2.5]]),            # was truncated to [[2]]
    _poly_spec([[-1]]),                 # the heat flow never terminated
    _poly_spec([[1, 1]]),               # was truncated to [[1]]
    _poly_spec([[]]),                   # ended in an IndexError
    _poly_spec([[1.5]]),
    dict(_PLAIN, eps=1e-400),           # parses as 0.0
    dict(_PLAIN, H=[]),
    dict(_PLAIN, coeff="x"),
    dict(_PLAIN, Z={"X": [[math.nan]], "Y": [[1.0]]}),   # summed to a NaN value, exit 0
    dict(_PLAIN, Z={"X": [[0.0]], "Y": [[math.inf]]}),   # exceeded the point cap, exit 3
    _poly_spec([[0]], re="1/0"),                         # the rest ended in a traceback
    dict(_PLAIN, H=[["1/0"]]),
    _poly_spec([[0]], pi_pow=100000),
], ids=["non-integer-form", "negative-exponent", "wide-exponent", "short-exponent",
        "fractional-exponent", "zero-eps", "empty-H", "coeff-not-object", "nan-point",
        "infinite-point", "zero-denominator-coefficient", "zero-denominator-H",
        "pi-power-overflow"])
def test_eval_malformed_spec_exits_one_with_json_error(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("eval", "--spec", str(path))
    assert proc.returncode == 1, proc.stderr
    assert "error" in json.loads(proc.stdout)


def test_json_floats_read_as_their_decimal_rationals(tmp_path):
    # H, K and polynomial coefficients read a JSON float one way: 0.1 is 1/10
    assert cli._frac_mat_in([[0.1, "1/3", 2]]) == [[Fraction(1, 10), Fraction(1, 3), Fraction(2)]]
    p = matpoly_from_json({"m": 1, "n": 1, "terms": [{"exp": [[0]], "re": 0.1, "im": 0.25}]})
    assert p.terms[(0,)] == PiScalar.from_parts(Fraction(1, 10), Fraction(1, 4))
    outs = []
    for h, re in ((0.1, 0.1), ("1/10", "1/10")):
        spec = dict(_PLAIN, H=[[h]], coeff={"type": "posdef", "P_alpha": {
            "m": 1, "n": 1, "terms": [{"exp": [[0]], "re": re}]}})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("eval", "--spec", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_eval_prefactor_outside_the_float_range_exits_one(tmp_path):
    det = matpoly_to_json(basis_homopol(2, 2, 1)[0])
    spec = {"A": "diag:2,2", "coeff": {"type": "posdef", "P_alpha": det},
            "Z": {"X": [[0.0, 0.0], [0.0, 0.0]], "Y": [[1e200, 0.0], [0.0, 1e200]]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("eval", "--spec", str(path))
    assert proc.returncode == 1, proc.stderr
    assert "prefactor" in json.loads(proc.stdout)["error"]
    assert proc.stderr == ""


def test_eval_underflowing_det_y_exits_one_naming_it(tmp_path):
    spec = {"A": "diag:2,2", "Z": {"X": [[0.0, 0.0], [0.0, 0.0]], "Y": [[1e-200, 0.0], [0.0, 1e-200]]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("eval", "--spec", str(path))
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"].startswith("det(Y) = 0.0 ")
    assert proc.stderr == ""


def test_eval_underflowing_tail_budget_exits_one_naming_eps(tmp_path):
    P = matpoly_to_json(basis_homopol(8, 1, 2)[0])
    spec = {"A": "e8", "coeff": {"type": "posdef", "P_alpha": P},
            "Z": {"X": [[0.0]], "Y": [[1e-24]]}, "eps": 1e-300}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("eval", "--spec", str(path))
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error.startswith("eps 1e-300 ") and "prefactor" in error
    assert proc.stderr == ""


@pytest.mark.parametrize("args, name", [
    (("basis", "--m", "-1", "--n", "1", "--alpha", "1"), "m"),
    (("basis", "--m", "0", "--n", "1", "--alpha", "1"), "m"),
    (("basis", "--m", "1", "--n", "0", "--alpha", "1"), "n"),
    (("cosets", "--form", "diag:2", "--genus", "0"), "genus"),
    (("cosets", "--form", "diag:2", "--genus", "-1"), "genus"),
    (("verify", "--suite", "all", "--genus", "0"), "genus"),
    (("verify", "--suite", "all", "--genus", "-1"), "genus"),
], ids=["basis-m-1", "basis-m0", "basis-n0", "cosets-genus0", "cosets-genus-1",
        "verify-genus0", "verify-genus-1"])
def test_non_positive_sizes_exit_one_naming_the_argument(args, name):
    proc = run_cli(*args)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error.startswith(name + " ") and "must be positive" in error
    assert proc.stderr == ""


@pytest.mark.parametrize("args", [
    ("verify", "--suite", "nosuch"),
    ("eval",),
    ("verify", "--suite", "all", "--genus", "x"),
], ids=["unknown-suite", "eval-without-spec", "genus-not-an-int"])
def test_argument_errors_exit_one_with_a_json_error(args):
    proc = run_cli(*args)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]
    assert proc.stderr == ""


def test_help_exits_zero():
    proc = run_cli("verify", "--help")
    assert proc.returncode == 0 and "--suite" in proc.stdout


def test_verify_suite_choices_are_the_suite_list():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == verify.SUITES


def test_eval_form_from_path(tmp_path):
    form = tmp_path / "form.json"
    form.write_text(json.dumps([[2]]))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(_PLAIN, A=str(form), eps=1e-12)))
    proc = run_cli("eval", "--spec", str(path))
    assert proc.returncode == 0, proc.stdout
    direct = sum(math.exp(-2 * math.pi * k * k) for k in range(-40, 41))
    assert json.loads(proc.stdout)["value"][0] == pytest.approx(direct, abs=1e-11)


@pytest.mark.parametrize("command", ["decompose", "cosets"])
def test_non_integer_form_file_exits_one(tmp_path, command):
    path = tmp_path / "form.json"
    path.write_text(json.dumps([[2.5]]))
    proc = run_cli(command, "--form", str(path))
    assert proc.returncode == 1
    assert "integer" in json.loads(proc.stdout)["error"]


@pytest.mark.parametrize("A, entry", [
    ([[9007199254740993]], "9007199254740993"),
    ("diag:9007199254740993", "9007199254740993"),
    ([[2**70]], str(2**70)),
    ("diag:10000000000000000000000", "10000000000000000000000"),
], ids=["json-2^53+1", "diag-2^53+1", "json-2^70", "diag-1e22"])
def test_eval_form_entry_a_float_cannot_hold_exits_one_naming_it(tmp_path, A, entry):
    # such an entry used to be rounded to 2^53 and summed on the wrong form
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(_PLAIN, A=A)))
    proc = run_cli("eval", "--spec", str(path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert entry in json.loads(proc.stdout)["error"]
    assert proc.stderr == ""


def test_missing_file_exits_one():
    proc = run_cli("decompose", "--form", "no_such_file_or_fixture")
    assert proc.returncode == 1


def test_verify_suite_green_and_byte_identical():
    for genus in ("1", "2"):
        a = run_cli("verify", "--suite", "all", "--genus", genus, "--seed", "7")
        b = run_cli("verify", "--suite", "all", "--genus", genus, "--seed", "7")
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        data = json.loads(a.stdout)
        assert data["passed"] is True
        assert all(c["passed"] for c in data["checks"])


@pytest.mark.parametrize("args, code", [
    (("verify", "--suite", "operators", "--genus", "2"), 0),
    (("decompose", "--form", "no_such_file_or_fixture"), 1),
], ids=["verify", "invalid-input"])
def test_closed_stdout_exits_quietly_with_the_commands_code(args, code):
    # the reader closes the pipe before the command writes, as `| head -1`
    # does when it has its line
    proc = subprocess.Popen([sys.executable, "-m", "siegeltheta.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert b"Traceback" not in err and err == b""
    assert proc.returncode == code


def test_fixtures_listing():
    proc = run_cli("fixtures", "--list")
    data = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert set(data["fixtures"]) == {"e8", "h2", "h2+e8", "diag:2,-2"}
    assert data["fixtures"]["e8"] == [[int(x) for x in row] for row in named_form("e8").tolist()]
