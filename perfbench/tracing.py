"""Span tracer for the benchmark's traced executions.

The tracer wraps the package's public functions at the sites the workloads
reach them through: the names ``timeobs.cli`` and ``timeobs.claims`` import,
and ``eval_f`` and ``find_zeros``, which ``sublevel_measure`` and
``paley_wiener_integral`` look up as module globals of ``timeobs.zeroset``.
Each wrapped call records one span ``(name, start, end, parent, run)``.  The
package itself is not edited: the wrappers are installed only around traced
executions and removed after, so untraced executions run the unmodified
functions.

``eval_f`` is called about half a million times in one sublevel execution, so
its calls are folded into one aggregate record per parent span (calls, scalar
calls, points, seconds, largest phase block) instead of one span each.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("spectral", "rng", "operators", "canonical", "zeroset", "serialize", "claims", "cli")

# (module, attribute, layer.function): every site a workload reaches a layer through.
WRAP_SITES = (
    ("timeobs.cli", "main", "cli.main"),
    ("timeobs.cli", "random_state", "rng.random_state"),
    ("timeobs.cli", "build_time_operator", "operators.build_time_operator"),
    ("timeobs.cli", "build_hamiltonian", "operators.build_hamiltonian"),
    ("timeobs.cli", "commutator", "operators.commutator"),
    ("timeobs.cli", "weak_commutator", "operators.weak_commutator"),
    ("timeobs.cli", "hermiticity_defect", "operators.hermiticity_defect"),
    ("timeobs.cli", "spectral_norm", "operators.spectral_norm"),
    ("timeobs.claims", "run_claims", "claims.run_claims"),
    ("timeobs.claims", "in_zero_sum_subspace", "spectral.in_zero_sum_subspace"),
    ("timeobs.claims", "project_to_zero_sum", "operators.project_to_zero_sum"),
    ("timeobs.claims", "build_time_operator", "operators.build_time_operator"),
    ("timeobs.claims", "spectral_norm", "operators.spectral_norm"),
    ("timeobs.claims", "covariance_deviation", "operators.covariance_deviation"),
    ("timeobs.claims", "membership_decay", "operators.membership_decay"),
    ("timeobs.claims", "verify_covariance", "canonical.verify_covariance"),
    ("timeobs.claims", "sublevel_measure", "zeroset.sublevel_measure"),
    ("timeobs.claims", "paley_wiener_integral", "zeroset.paley_wiener_integral"),
    ("timeobs.rng", "random_state", "rng.random_state"),
    ("timeobs.serialize", "load_problem", "serialize.load_problem"),
    ("timeobs.serialize", "dump_problem", "serialize.dump_problem"),
    ("timeobs.serialize", "dump_matrix", "serialize.dump_matrix"),
    ("timeobs.spectral", "build_spectrum", "spectral.build_spectrum"),
    ("timeobs.zeroset", "sublevel_measure", "zeroset.sublevel_measure"),
    ("timeobs.zeroset", "find_zeros", "zeroset.find_zeros"),
)
WRITER_SITE = ("timeobs.serialize", "write_json", "serialize.write_json")
EVAL_F_SITE = ("timeobs.zeroset", "eval_f", "zeroset.eval_f")

_COMPLEX_BYTES = 16


class Tracer:
    """In-memory spans and eval_f aggregates, keyed by run id (0 is set-up)."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, run]
        self.eval_f: dict = {}  # (run, parent) -> [calls, scalar_calls, points, seconds, max_block_bytes]
        self.bytes_written: dict = defaultdict(int)  # run -> bytes
        self.run = 0
        self._stack: list[int] = []

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [name, 0.0, 0.0, parent, self.run]
            self.spans.append(record)
            self._stack.append(sid)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def _writer(self, name, fn):
        span = self._span(name, fn)

        def traced(path, obj):
            span(path, obj)
            self.bytes_written[self.run] += os.path.getsize(path)

        return traced

    def _eval_f(self, name, fn):
        def traced(sig, t):
            start = time.perf_counter()
            out = fn(sig, t)
            seconds = time.perf_counter() - start
            scalar = isinstance(t, float) or np.ndim(t) == 0
            points = 1 if scalar else np.size(t)
            key = (self.run, self._stack[-1] if self._stack else None)
            agg = self.eval_f.get(key)
            if agg is None:
                agg = self.eval_f[key] = [0, 0, 0, 0.0, 0]
            agg[0] += 1
            agg[1] += scalar
            agg[2] += points
            agg[3] += seconds
            agg[4] = max(agg[4], points * sig.count * _COMPLEX_BYTES)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, run: int):
        """Wrap every site for the duration of one traced run, then restore it."""
        self.run = run
        saved = []
        sites = [(site, self._span) for site in WRAP_SITES]
        sites.append((WRITER_SITE, self._writer))
        sites.append((EVAL_F_SITE, self._eval_f))
        try:
            for (module_name, attr, name), make in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self, run: int) -> dict:
        """Per-function totals, self times and eval_f counters of one run."""
        child = defaultdict(float)
        spans = [(sid, s) for sid, s in enumerate(self.spans) if s[4] == run]
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                child[parent] += end - start
        calls = scalar = points = max_block = 0
        seconds = 0.0
        for (agg_run, parent), (c, sc, p, s, mb) in self.eval_f.items():
            if agg_run != run:
                continue
            if parent is not None:
                child[parent] += s
            calls, scalar, points, seconds = calls + c, scalar + sc, points + p, seconds + s
            max_block = max(max_block, mb)
        total = defaultdict(float)
        own = defaultdict(float)
        for sid, (name, start, end, _, _) in spans:
            total[name] += end - start
            own[name] += end - start - child[sid]
        total["zeroset.eval_f"] = own["zeroset.eval_f"] = seconds
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in own.items():
            layer_self[name.split(".")[0]] += value
        return {
            "total": dict(total),
            "self": dict(own),
            "layer_self": layer_self,
            "counters": {
                "zeroset.eval_f.calls": calls,
                "zeroset.eval_f.scalar_calls": scalar,
                "zeroset.eval_f.points": points,
                "zeroset.eval_f.max_block_bytes": max_block,
                "serialize.bytes_written": self.bytes_written[run],
            },
        }

    def records(self) -> dict:
        """Every span and eval_f aggregate, in a JSON-ready form."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "run": r}
                for n, s, e, p, r in self.spans
            ],
            "eval_f": [
                {
                    "run": run,
                    "parent": parent,
                    "calls": c,
                    "scalar_calls": sc,
                    "points": p,
                    "seconds": s,
                    "max_block_bytes": mb,
                }
                for (run, parent), (c, sc, p, s, mb) in self.eval_f.items()
            ],
        }
