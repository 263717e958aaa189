"""The README library quick start, run as written, with every comment it makes checked."""

from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from siegeltheta import check_inversion, theta_eval

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block after the README heading."""
    text = README.read_text()
    start = text.index("```python\n", text.index(heading)) + len("```python\n")
    return text[start:text.index("```", start)]


def _claims(block: str) -> dict:
    """{code: comment} for each line of the block that ends in a comment."""
    out = {}
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if sep and code.strip():
            out[code.strip()] = comment.strip()
    return out


def test_the_quick_start_runs_and_its_comments_hold():
    block = _python_block("## Library quick start")
    ns = {}
    # runs its own assert: every check of run_suite("all") passes
    exec(compile(block, str(README), "exec"), ns)
    assert _claims(block) == {
        "val.value": "1.4557628922687...  = E4(i)",
        "val.tail_bound": "<= 1e-12, certified",
        "val.terms": "lattice points actually summed",
        "check_inversion(spec, Z).passed": "True, residual 3.05e-16",
        "iv.value, iv.terms": "(0j, 16) exactly: the odd P cancels U against -U",
        "kv.value": "0.1807...j, within kv.tail_bound of the sum at eps 1e-13",
    }
    val = ns["val"]
    # E4(i) = 3 Gamma(1/4)^8 / (2 pi)^6
    with mpmath.workdps(30):
        e4 = complex(3 * mpmath.gamma(0.25) ** 8 / (2 * mpmath.pi) ** 6)
    assert repr(val.value.real).startswith("1.4557628922687") and val.value.imag == 0
    assert abs(val.value - e4) <= val.tail_bound
    assert 0 < val.tail_bound <= 1e-12
    assert val.terms > 0
    rep = check_inversion(ns["spec"], ns["Z"])
    assert rep.passed and rep.residual == pytest.approx(3.05e-16, abs=0.005e-16)
    iv = ns["iv"]
    assert (iv.value, iv.terms) == (0j, 16)
    kv = ns["kv"]
    assert repr(kv.value.imag).startswith("0.1807") and abs(kv.value.real) <= kv.tail_bound
    # the same series at eps / 1000
    finer = theta_eval(ns["ispec"].with_characteristics(K=[[Fraction(1, 3)], [0]]), ns["Z"], eps=1e-13)
    assert abs(kv.value - finer.value) <= kv.tail_bound + finer.tail_bound
