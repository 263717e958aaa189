"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_mode():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_trace_target_fails_before_patching(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import siegeltheta.theta
    import tracing

    monkeypatch.setitem(tracing.TARGETS, "theta.gone",
                        ("call", [("siegeltheta.theta", "no_such_function")]))
    before = siegeltheta.theta.lattice_blocks
    with pytest.raises(tracing.TraceTargetMissing):
        tracing.Tracer().install()
    assert siegeltheta.theta.lattice_blocks is before


def test_speed_probe_samples_inside_work_and_takes_its_time_out(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import run

    probe = run.SpeedProbe()

    def spin():
        end = time.process_time() + 4 * run.CAL_EVERY_S
        while time.process_time() < end:
            pass

    try:
        t0 = time.perf_counter()
        dt, _ = probe.timed(spin)
        elapsed = time.perf_counter() - t0
    finally:
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
    assert len(probe.window) >= 3  # the kernel before the work and twice inside it
    assert probe.spent > 0
    assert dt <= elapsed - probe.spent
    assert probe.scale() > 0
    assert len(probe.window) == 1
