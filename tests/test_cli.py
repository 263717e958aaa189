"""Front-door round trips: JSON schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from siegeltheta.polyalg import basis_homopol, matpoly_from_json
from siegeltheta.quadform import named_form


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "siegeltheta.cli", *args],
        capture_output=True, text=True, env=env)
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


def test_missing_file_exits_one():
    proc = run_cli("decompose", "--form", "no_such_file_or_fixture")
    assert proc.returncode == 1


def test_verify_suite_green_and_byte_identical():
    a = run_cli("verify", "--suite", "operators", "--seed", "7")
    b = run_cli("verify", "--suite", "operators", "--seed", "7")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    data = json.loads(a.stdout)
    assert data["passed"] is True
    assert all(c["passed"] for c in data["checks"])


def test_fixtures_listing():
    proc = run_cli("fixtures", "--list")
    data = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert set(data["fixtures"]) == {"e8", "h2", "h2+e8", "diag:2,-2"}
    assert data["fixtures"]["e8"] == [[int(x) for x in row] for row in named_form("e8").tolist()]
