"""Benchmark of siegeltheta: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source tree: the package is imported from ./src.
Workloads and the layer -> end-to-end map are described in workloads.py.

A run makes full passes over the workload's fixed list of operations, each
untraced pass but the first preceded by a timed set-up (building the
workload's specs until SETUP_MIN_S has passed, at most SETUP_MAX_RUNS times),
while the next pass ends at most half a pass past ``--seconds`` (and at least
MIN_PASSES times).  A shared machine runs a process 20-60% slower for stretches
of milliseconds to tens of seconds, and a run can fall wholly inside one.  So a
fixed kernel of Python and numpy work is timed between operations and set-ups
and every CAL_EVERY_S inside them (``SpeedProbe``), and each latency is
multiplied by CAL_REF_S over the median kernel time around and during it: the
latency at one reference speed of the machine.  An operation's latency is then
the mean of the faster half of its scaled samples, dropping the passes it was
disturbed in: ``wall_s`` is the sum of these latencies (one pass),
``op_p50_ms`` their median over the operations, and ``setup_s`` the median
scaled set-up.  Outputs are checked after the timed region.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``); ``failed / attempted`` is the failure fraction.

With ``--trace 1`` the run installs the wrappers of tracing.py for one set-up
and for every other pass, and reports per-layer totals for that set-up plus
the traced pass of median duration, together with the tracing overhead.
Results and spans are written under ``.perfbench_out/`` in the tree.
``--smoke`` runs a tiny version of every workload and asserts the metric
names and units, that per-layer self times fit in ``wall_s``, and that a
perturbed reference counts as a failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OP_TIMEOUT_S = 90.0
MIN_PASSES = 3  # grid gets 2 on a busy host, and the faster half of 2 is 1
SETUP_MIN_S = 0.5  # a timed set-up repeats until it has taken this long,
SETUP_MAX_RUNS = 10  # or has run this often
CAL_N = 20000  # loop iterations of the speed kernel
CAL_ROWS = 30000  # rows of its array part
CAL_REF_S = 0.0025  # the kernel's time at reference speed (Xeon, 2 vCPUs)
CAL_EVERY_S = 0.1  # CPU time between kernel samples inside timed work
PERTURB = 1e-4  # relative error put into one reference by --smoke

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# name -> (unit, how it is read from a layer window)
PER_LAYER = {
    "quadform.lattice_blocks.calls": ("count", ("counts", "quadform.lattice_blocks.calls")),
    "quadform.lattice_blocks.s": ("s", ("inclusive", "quadform.lattice_blocks")),
    "quadform.lattice_blocks.points": ("count", ("counts", "quadform.lattice_blocks.points")),
    "quadform.decompose.s": ("s", ("inclusive", "quadform.decompose")),
    "quadform.coset_reps.s": ("s", ("inclusive", "quadform.coset_reps")),
    "polyalg.eval_batch.s": ("s", ("inclusive", "polyalg.eval_batch")),
    "polyalg.eval_batch.rows": ("count", ("counts", "polyalg.eval_batch.rows")),
    "polyalg.eval_batch.monomial_evals": ("count", ("counts", "polyalg.eval_batch.monomial_evals")),
    "polyalg.basis_homopol.s": ("s", ("inclusive", "polyalg.basis_homopol")),
    "polyalg.heat_flow.s": ("s", ("inclusive", "polyalg.heat_flow")),
    "polyalg.vigneras_residual.s": ("s", ("inclusive", "polyalg.vigneras_residual")),
    "theta.lattice_sum.calls": ("count", ("counts", "theta.lattice_sum.calls")),
    "theta.lattice_sum.s": ("s", ("inclusive", "theta.lattice_sum")),
    "theta.summand.s": ("s", ("inclusive", "theta.summand")),
    "theta.plan_reduce.s": ("s", ("self", "theta.lattice_sum")),
    "theta.terms": ("count", ("counts", "theta.terms")),
    "theta.tail_over_eps": ("ratio", ("median", "theta.tail_over_eps")),
    "verify.translation.s": ("s", ("inclusive", "verify.translation")),
    "verify.inversion.s": ("s", ("inclusive", "verify.inversion")),
    "verify.borcherds_form.s": ("s", ("inclusive", "verify.borcherds_form")),
    "verify.poisson.s": ("s", ("inclusive", "verify.poisson")),
    "verify.suite.s": ("s", ("inclusive", "verify.suite")),
    "verify.exact.s": ("s", ("inclusive", "verify.exact")),
    "verify.cosets": ("count", ("counts", "verify.cosets")),
    "trace.overhead_frac": ("ratio", None),
}


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("operation exceeded %.0f s" % OP_TIMEOUT_S)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc in this process's environment (before numpy loads)."""
    cap = nproc()
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= cap:
            os.environ[var] = str(cap)
    return min(int(os.environ[var]) for var in BLAS_VARS)


def load_package():
    """Import siegeltheta from ./src of this tree, never from elsewhere."""
    init = SRC / "siegeltheta" / "__init__.py"
    if not init.is_file():
        raise SystemExit("perfbench: no package source at %s" % init.parent)
    sys.path.insert(0, str(SRC))
    import siegeltheta

    if Path(siegeltheta.__file__).resolve() != init.resolve():
        raise SystemExit("perfbench: imported siegeltheta from %s, not %s" % (siegeltheta.__file__, init))
    return siegeltheta


def environment(seed, blas_threads) -> dict:
    import numpy as np

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"seed": seed, "commit": commit, "nproc": nproc(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": blas_threads}


_CAL = {}


def _kernel():
    """A fixed mix of interpreted Python and numpy array work, like the package's.

    The array part is elementwise: a BLAS call may start threads, and on a
    shared host one of them waiting for a busy core slowed the kernel 6x
    while the workload ran at its usual speed.
    """
    if not _CAL:
        import numpy as np

        _CAL["M"] = np.random.default_rng(0).standard_normal((CAL_ROWS, 8))
        _CAL["np"] = np
    np, M = _CAL["np"], _CAL["M"]
    acc = 0
    for i in range(CAL_N):
        acc = (acc * 31 + i) % 1000003
    q = (M * M[:, ::-1]).sum(axis=1)
    return acc, np.sort(np.exp(-0.01 * q))


def kernel_time() -> float:
    """Best of three runs of a fixed kernel: the machine's speed now."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedProbe:
    """The machine's speed while timed work runs.

    The kernel is timed (best of three) before and after each piece of timed
    work and, once per CAL_EVERY_S of CPU time, inside it, from a SIGVTALRM
    handler whose own time is taken out of the work's latency.  ``scale()``
    is CAL_REF_S over the median kernel time around and during the last
    piece: latency * scale is its latency at reference speed.
    """

    def __init__(self):
        self.times = [kernel_time()]  # every kernel time of the run
        self.window = self.times[:]
        self.spent = 0.0  # time spent in the handler
        signal.signal(signal.SIGVTALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.window.append(dt)
        self.spent += dt

    def timed(self, fn, inside=True):
        """Calls fn(); returns (latency_s, result), the kernel's time taken out.

        ``inside=False`` keeps the kernel out of fn, for traced work, whose
        spans would otherwise count the kernel's time.
        """
        spent0 = self.spent
        if inside:
            signal.setitimer(signal.ITIMER_VIRTUAL, CAL_EVERY_S, CAL_EVERY_S)
        t0 = time.perf_counter()
        try:
            res = fn()
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        return dt - (self.spent - spent0), res

    def scale(self) -> float:
        self.window.append(kernel_time())
        self.times += self.window[1:]
        scale = CAL_REF_S / statistics.median(self.window)
        self.window = self.window[-1:]
        return scale


def run_pass(ops, probe, tracer=None, tag=""):
    """Run every operation once; returns [(latency_s, output, error, scale)]."""
    out = []
    for op in ops:
        if tracer is not None:
            tracer.op = tag + op.name
        dt, res, err = 0.0, None, None
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            dt, res = probe.timed(op.run, inside=tracer is None)
        except Exception as exc:  # any failure of the program counts in failed
            err = "%s: %s" % (type(exc).__name__, exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        out.append((dt, res, err, probe.scale()))
    return out


def fast_half_mean(samples):
    fast = sorted(samples)[:max(1, len(samples) // 2)]
    return sum(fast) / len(fast)


def op_latencies(passes):
    """Per operation, the mean of the faster half of its scaled latencies."""
    return [fast_half_mean(samples)
            for samples in zip(*([dt * scale for dt, _, _, scale in p] for p in passes))]


def layer_metrics(window) -> dict:
    out = {}
    for name, (unit, src) in PER_LAYER.items():
        if src is None:
            continue
        kind, key = src
        if kind == "median":
            vals = window["samples"].get(key, [])
            out[name] = statistics.median(vals) if vals else 0.0
        else:
            out[name] = window[kind].get(key, 0)
    return out


def _merge(a, b):
    """Add two layer windows (set-up + pass); samples concatenate."""
    out = {}
    for kind in ("inclusive", "self", "counts", "samples"):
        keys = set(a[kind]) | set(b[kind])
        out[kind] = {k: a[kind].get(k, 0 if kind != "samples" else []) +
                     b[kind].get(k, 0 if kind != "samples" else []) for k in keys}
    return out


def run_workload(name, seed, seconds, trace, smoke=False, perturb_op=None):
    """One benchmark run; returns (result line, details, tracer or None)."""
    import workloads
    from tracing import Tracer

    signal.signal(signal.SIGALRM, _on_alarm)
    wl = workloads.WORKLOADS[name](seed, smoke)

    setup_times = []
    probe = SpeedProbe()

    def timed_setup():
        end = time.perf_counter() + SETUP_MIN_S
        batch = []
        for _ in range(SETUP_MAX_RUNS):
            dt, state = probe.timed(wl.setup)
            batch.append(dt)
            if time.perf_counter() >= end:
                break
        scale = probe.scale()
        setup_times.extend(dt * scale for dt in batch)
        return state

    start = time.perf_counter()
    state = timed_setup()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
        m0 = tracer.mark()
        state = wl.setup()
        setup_window = tracer.window(m0, tracer.mark())
        tracer.uninstall()
    ops = wl.ops(state)

    plain, traced, windows = [], [], []
    last = 0.0
    # full passes (untraced and traced in turn when tracing) while the next
    # one, judged by the latest, ends at most half a pass past the deadline,
    # and at least MIN_PASSES untraced ones when the run reports end-to-end
    # metrics; every untraced pass after the first is preceded by a timed
    # set-up whose result is dropped, so that set-up samples spread over the
    # whole run
    min_plain = 1 if trace else MIN_PASSES
    while (len(plain) < min_plain or (trace and not traced)
           or time.perf_counter() - start + last / 2 <= seconds):
        t0 = time.perf_counter()
        if trace and len(traced) < len(plain):
            tracer.install()
            m0 = tracer.mark()
            p = run_pass(ops, probe, tracer, "pass%d:" % (len(plain) + len(traced)))
            windows.append(tracer.window(m0, tracer.mark()))
            tracer.uninstall()
            traced.append(p)
        else:
            if plain:
                timed_setup()
            plain.append(run_pass(ops, probe))
        last = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness, outside the timed region
    failures = []
    attempted = 0
    for passes in (plain, traced):
        for p in passes:
            for op, (_, res, err, _) in zip(ops, p):
                attempted += 1
                if err is None:
                    err = op.check(res, PERTURB if op.name == perturb_op else 0.0)
                if err is not None:
                    failures.append((op.name, err))

    lat = op_latencies(plain)
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(plain), "traced_passes": len(traced), "setup_runs": len(setup_times),
        "ops": [op.name for op in ops],
        "op_latency_s": dict(zip((op.name for op in ops), lat)),
        "latencies_s": {op.name: [p[i][0] for p in plain] for i, op in enumerate(ops)},
        "scales": {op.name: [p[i][3] for p in plain] for i, op in enumerate(ops)},
        "setup_s": setup_times,
        "kernel_s": probe.times,
        "fail_frac": len(failures) / attempted, "failures": failures[:20],
        "failed_ops": dict(Counter(op for op, _ in failures)),
    }
    if trace:
        details["traced_wall_s"] = [sum(dt for dt, _, _, _ in p) for p in traced]
        order = sorted(range(len(traced)), key=details["traced_wall_s"].__getitem__)
        metrics = layer_metrics(_merge(setup_window, windows[order[len(order) // 2]]))
        metrics["trace.overhead_frac"] = sum(op_latencies(traced)) / sum(lat) - 1.0
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        details["self_s"] = [sum(w["self"].values()) for w in windows]
    else:
        metrics = {"setup_s": statistics.median(setup_times), "wall_s": sum(lat),
                   "op_p50_ms": 1000.0 * statistics.median(lat), "peak_rss_mb": rss_mb}
        units = END_TO_END
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, details, tracer


def write_outputs(result, details, env, tracer):
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (details["workload"], details["seed"], details["trace"])
    with open(OUT / (stem + ".json"), "w") as fh:
        json.dump({"env": env, "result": result, "details": details}, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT / (stem + ".spans.jsonl"), {"env": env, "fields": ["name", "start", "end", "parent", "op"]})


def report(result, details, env):
    print("env " + json.dumps(env))
    print("%s: %d ops x %d passes (+%d traced), %d set-ups" % (
        details["workload"], len(details["ops"]), details["passes"],
        details["traced_passes"], details["setup_runs"]))
    for name, m in result["metrics"].items():
        extra = " (n=%d ops x %d passes)" % (len(details["ops"]), details["passes"]) if name == "op_p50_ms" else ""
        print("  %-36s %14.6g %s%s" % (name, m["value"], m["unit"], extra))
    print("  %-36s %14.6g (%d of %d)" % ("fail_frac", details["fail_frac"],
                                        result["failed"], result["attempted"]))
    for op, why in details["failures"]:
        print("  FAIL %s: %s" % (op, why))


def smoke(seed) -> int:
    """Tiny runs of every workload; asserts names/units, self time, perturbation."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for wl in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            result, details, _ = run_workload(wl, seed, 1, trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append("%s trace=%d emits %s, want %s" % (wl, trace, got, want[trace]))
            if result["failed"]:
                problems.append("%s trace=%d: %s" % (wl, trace, details["failures"]))
            if trace:
                for self_s, wall in zip(details["self_s"], details["traced_wall_s"]):
                    if self_s > wall:
                        problems.append("%s: self times %.6f s > wall %.6f s" % (wl, self_s, wall))
    import workloads

    victim = workloads.GRID_SMOKE[0][0]
    result, details, _ = run_workload("grid", seed, 1, 0, smoke=True, perturb_op=victim)
    flagged = set(details["failed_ops"])
    if flagged != {victim}:
        problems.append("perturbed reference of %s: failures %s" % (victim, sorted(flagged)))
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("grid", "coeff", "laws"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    blas_threads = cap_blas_threads()
    load_package()
    if args.smoke:
        return smoke(args.seed)
    env = environment(args.seed, blas_threads)
    result, details, tracer = run_workload(args.workload, args.seed, args.seconds, args.trace)
    write_outputs(result, details, env, tracer)
    report(result, details, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
