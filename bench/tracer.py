"""Span tracing of qiglab's layers from outside the package.

``Tracer.patched`` replaces every binding of the traced functions in the
loaded ``qiglab`` modules (the defining module and every module that imported
the name), plus ``ParametrizedFamily.point``, ``numpy.linalg.eigh`` /
``eigvalsh`` and ``scipy.optimize.minimize``, with a wrapper that records a
span. Nothing under ``src/`` changes; leaving ``patched`` puts the originals
back.

A span is (name, start, end, parent span, op id). Spans stay in memory, in
flat arrays, until ``dump`` writes them out at the end of the run. Self time
is a span's duration minus the time its direct child spans cover; calls are
synchronous and single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, function) -> span name. Names follow <module>.<function>.
TRACED = {
    ("linalg", "spectral_decompose"): "linalg.spectral_decompose",
    ("linalg", "check_hermitian"): "linalg.check_hermitian",
    ("linalg", "divided_difference_matrix"): "linalg.divided_difference_matrix",
    ("linalg", "frechet_derivative"): "linalg.frechet_derivative",
    ("linalg", "frechet_second_derivative"): "linalg.frechet_second_derivative",
    ("linalg", "apply_scalar_function"): "linalg.apply_scalar_function",
    ("manifold", "representation_convert"): "manifold.representation_convert",
    ("manifold", "sphere_project"): "manifold.sphere_project",
    ("manifold", "alpha_representation"): "manifold.alpha_representation",
    ("manifold", "check_state"): "manifold.check_state",
    ("manifold", "basis_combination"): "manifold.basis_combination",
    ("metrics", "petz_kernel"): "metrics.petz_kernel",
    ("metrics", "kernel_metric"): "metrics.kernel_metric",
    ("metrics", "metric_eval"): "metrics.metric_eval",
    ("metrics", "apply_channel"): "metrics.apply_channel",
    ("metrics", "monotonicity_check"): "metrics.monotonicity_check",
    ("metrics", "relative_entropy"): "metrics.relative_entropy",
    ("connections", "covariant_derivative_on_M"): "connections.covariant_derivative_on_M",
    ("connections", "ext_covariant_derivative"): "connections.ext_covariant_derivative",
    ("connections", "parallel_transport_on_M"): "connections.parallel_transport_on_M",
    ("duality", "duality_defect"): "duality.duality_defect",
    ("duality", "entropy_projection"): "duality.entropy_projection",
    ("duality", "dual_coordinate_check"): "duality.dual_coordinate_check",
    ("duality", "potential_check"): "duality.potential_check",
    ("cli", "main"): "cli.main",
}

# Span names reported as <name>.calls and <name>.self_s.
SPAN_NAMES = (
    [name for name in TRACED.values() if name.startswith("linalg.")]
    + ["linalg.eig", "sampling", "manifold.chart"]
    + [name for name in TRACED.values() if not name.startswith("linalg.")]
    + ["scipy.minimize"]
)

# Counters read from results, reported per op as they are.
COUNTER_NAMES = (
    "duality.newton_iters",
    "duality.newton_stalls",
    "scipy.minimize.nit",
    "cli.bytes_out",
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(float)  # (op, counter name) -> value
        self.op_id = -1
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name, value):
        self.counters[self.op_id, name] += value

    def wrap(self, name, fn, after=None):
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching ------------------------------------------------------------

    def _after_projection(self, report):
        self.count("duality.newton_iters", report.iterations)
        self.count("duality.newton_stalls", 0 if report.converged else 1)

    def _after_minimize(self, result):
        self.count("scipy.minimize.nit", int(getattr(result, "nit", 0)))

    @contextlib.contextmanager
    def patched(self):
        """Trace qiglab while the block runs; the originals are back after it."""
        if not self._patches:
            self._collect()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, orig, _ in self._patches:
                setattr(owner, attr, orig)

    def _collect(self):
        """Pair every binding of a traced function with its wrapper."""
        import numpy.linalg
        import scipy.optimize

        qiglab_modules = [
            m for name, m in sys.modules.items() if name == "qiglab" or name.startswith("qiglab.")
        ]
        targets = {}
        for (module, fn_name), span in TRACED.items():
            orig = getattr(importlib.import_module(f"qiglab.{module}"), fn_name)
            after = {"duality.entropy_projection": self._after_projection}.get(span)
            targets[id(orig)] = self.wrap(span, orig, after)
        sampling = importlib.import_module("qiglab.sampling")
        for fn_name in sampling.__all__:
            orig = getattr(sampling, fn_name)
            targets[id(orig)] = self.wrap("sampling", orig)
        for m in qiglab_modules:
            for attr, value in list(vars(m).items()):
                if id(value) in targets:
                    self._patches.append((m, attr, value, targets[id(value)]))
        family = importlib.import_module("qiglab.manifold").ParametrizedFamily
        self._patches.append(
            (family, "point", family.point, self.wrap("manifold.chart", family.point))
        )
        for fn_name in ("eigh", "eigvalsh"):
            orig = getattr(numpy.linalg, fn_name)
            self._patches.append((numpy.linalg, fn_name, orig, self.wrap("linalg.eig", orig)))
        self._patches.append(
            (
                scipy.optimize,
                "minimize",
                scipy.optimize.minimize,
                self.wrap("scipy.minimize", scipy.optimize.minimize, self._after_minimize),
            )
        )

    # -- results -------------------------------------------------------------

    def extend(self, other: dict, op_id: int):
        """Append spans and counters dumped by a traced child process."""
        offset = len(self.start)
        remap = [self._id(name) for name in other["names"]]
        for nid, parent, start, end in other["spans"]:
            self.name_id.append(remap[nid])
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.op.append(op_id)
            self.start.append(start)
            self.end.append(end)
        for name, value in other["counters"].items():
            self.counters[op_id, name] += value

    def child_dump(self) -> dict:
        spans = [
            [self.name_id[i], self.parent[i], self.start[i], self.end[i]]
            for i in range(len(self.start))
        ]
        counters = {name: v for (_, name), v in self.counters.items()}
        return {"names": self.names, "spans": spans, "counters": counters}

    def per_op(self, scale=None):
        """{op: {metric: value}} with <span>.calls, <span>.self_s and counters.

        ``scale`` maps an op id to the factor that turns its raw seconds into
        normalized seconds; ops missing from it keep raw seconds.
        """
        scale = scale or {}
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            op = self.op[i]
            name = self.names[self.name_id[i]]
            out[op][name + ".calls"] += 1
            out[op][name + ".self_s"] += (self.end[i] - self.start[i] - covered[i]) * scale.get(op, 1.0)
        for (op, name), value in self.counters.items():
            out[op][name] += value
        return out

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name_id[i]],
                            self.start[i],
                            self.end[i],
                            self.parent[i],
                            self.op[i],
                        ]
                    )
                    + "\n"
                )
