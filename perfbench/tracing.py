"""In-memory spans around the package's layer boundaries, installed from outside.

The traced run replaces module attributes of ``siegeltheta`` with timing
wrappers, at the names their callers look up (``siegeltheta.theta.lattice_blocks``
is the name ``certified_lattice_sum`` calls, ``siegeltheta.verify.coset_reps``
the one ``check_inversion`` calls, and so on).  Nothing inside the package
changes.  Every target must exist: a renamed or removed target fails the
traced run with ``TraceTargetMissing`` instead of reporting zero for its
layer.

A span is ``[name, start, end, parent, op]``: times from ``perf_counter``,
``parent`` the index of the enclosing span (-1 at top level) and ``op`` the
operation id the runner set.  Spans stay in memory; ``Tracer.dump`` writes
them out once, at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict


class TraceTargetMissing(RuntimeError):
    """A wrapped target (module attribute or parameter) no longer exists."""


# span name -> (kind, [(module, attribute), ...]).  Every listed location is
# patched; locations holding the same function share one wrapper.
TARGETS = {
    "quadform.lattice_blocks": ("blocks", [("siegeltheta.theta", "lattice_blocks")]),
    "quadform.decompose": ("call", [("siegeltheta.theta", "decompose"),
                                    ("siegeltheta.verify", "decompose")]),
    "quadform.coset_reps": ("cosets", [("siegeltheta.verify", "coset_reps")]),
    "polyalg.eval_batch": ("eval_batch", [("siegeltheta.theta", "eval_batch"),
                                          ("siegeltheta.verify", "eval_batch")]),
    "polyalg.basis_homopol": ("call", [("siegeltheta", "basis_homopol")]),
    "polyalg.heat_flow": ("call", [("siegeltheta.theta", "exp_trace_laplace"),
                                   ("siegeltheta.theta", "exp_trace_laplace_weighted"),
                                   ("siegeltheta.verify", "exp_trace_laplace"),
                                   ("siegeltheta.verify", "exp_trace_laplace_weighted")]),
    "polyalg.vigneras_residual": ("call", [("siegeltheta.theta", "vigneras_residual"),
                                           ("siegeltheta.verify", "vigneras_residual")]),
    "theta.lattice_sum": ("lattice_sum", [("siegeltheta.theta", "certified_lattice_sum"),
                                          ("siegeltheta.verify", "certified_lattice_sum")]),
    "verify.translation": ("call", [("siegeltheta", "check_translation"),
                                    ("siegeltheta.verify", "check_translation")]),
    "verify.inversion": ("call", [("siegeltheta", "check_inversion"),
                                  ("siegeltheta.verify", "check_inversion")]),
    "verify.borcherds_form": ("call", [("siegeltheta", "check_borcherds_form"),
                                       ("siegeltheta.verify", "check_borcherds_form")]),
    "verify.poisson": ("call", [("siegeltheta", "check_poisson"),
                                ("siegeltheta.verify", "check_poisson")]),
    "verify.suite": ("call", [("siegeltheta", "run_suite"),
                              ("siegeltheta.verify", "run_suite")]),
    "verify.exact": ("call", [("siegeltheta.verify", "translation_data"),
                              ("siegeltheta.verify", "inversion_prefactor")]),
}

# Parameters the counting wrappers read by name.
_NEEDS = {"eval_batch": ("p", "W"), "lattice_sum": ("eps", "summand")}


class Tracer:
    """Spans, counters and ratio samples for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.op = None
        self._stack = []
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    # -- wrappers by kind ---------------------------------------------------

    def _wrap(self, name, kind, fn):
        if kind == "call":
            return self.timed(name, fn)
        if kind == "cosets":
            inner = self.timed(name, fn)

            @functools.wraps(fn)
            def cosets(*args, **kwargs):
                reps = inner(*args, **kwargs)
                self.counts["verify.cosets"] += len(reps)
                return reps
            return cosets
        if kind == "blocks":
            @functools.wraps(fn)
            def blocks(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    self._open(name)
                    try:
                        rows = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close()
                    self.counts[name + ".points"] += len(rows)
                    yield rows
            return blocks
        sig = inspect.signature(fn)
        missing = [p for p in _NEEDS[kind] if p not in sig.parameters]
        if missing:
            raise TraceTargetMissing("%s lost parameter(s) %s" % (name, ", ".join(missing)))
        inner = self.timed(name, fn)
        if kind == "eval_batch":
            @functools.wraps(fn)
            def eval_batch(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                p, W = bound.arguments["p"], bound.arguments["W"]
                terms = getattr(p, "poly", p).terms
                self.counts[name + ".rows"] += W.shape[0]
                self.counts[name + ".monomial_evals"] += W.shape[0] * len(terms)
                return inner(*args, **kwargs)
            return eval_batch

        @functools.wraps(fn)
        def lattice_sum(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["summand"] = self.timed("theta.summand", bound.arguments["summand"])
            self.counts[name + ".calls"] += 1
            out = inner(*bound.args, **bound.kwargs)
            tail, terms = out[1], out[2]
            self.counts["theta.terms"] += terms
            if terms:
                self.samples["theta.tail_over_eps"].append(tail / bound.arguments["eps"])
            return out
        return lattice_sum

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch every target; raises TraceTargetMissing before patching any."""
        plan = []
        for name, (kind, locations) in TARGETS.items():
            for modname, attr in locations:
                try:
                    module = importlib.import_module(modname)
                except ImportError as exc:
                    raise TraceTargetMissing("module %s: %s" % (modname, exc)) from exc
                if not hasattr(module, attr):
                    raise TraceTargetMissing("%s.%s (span %s)" % (modname, attr, name))
                plan.append((name, kind, module, attr, getattr(module, attr)))
        wrappers = {}
        for name, kind, module, attr, fn in plan:
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, kind, fn)
        for name, kind, module, attr, fn in plan:
            self._undo.append((module, attr, fn))
            setattr(module, attr, wrappers[id(fn)])

    def uninstall(self):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    # -- reduction ----------------------------------------------------------

    def mark(self):
        """Positions to cut spans, counts and samples at, for window()."""
        return (len(self.spans), Counter(self.counts),
                {k: len(v) for k, v in self.samples.items()})

    def window(self, start, stop):
        """Per-layer totals of everything recorded between two marks."""
        s0, c0, r0 = start
        s1, c1, r1 = stop
        spans = self.spans[s0:s1]
        counts = Counter(c1)
        counts.subtract(c0)
        inclusive = defaultdict(float)
        selft = defaultdict(float)
        child = defaultdict(float)
        for i, (name, t0, t1, parent, _) in enumerate(spans, s0):
            if parent >= s0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, _) in enumerate(spans, s0):
            selft[name] += (t1 - t0) - child[i]
            outer = parent
            while outer >= s0 and self.spans[outer][0] != name:
                outer = self.spans[outer][3]
            if outer < s0:
                inclusive[name] += t1 - t0
        ratios = {k: self.samples[k][r0.get(k, 0):r1.get(k, 0)] for k in self.samples}
        return {"inclusive": dict(inclusive), "self": dict(selft),
                "counts": dict(counts), "samples": ratios}

    def dump(self, path, meta):
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
