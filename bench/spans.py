"""In-memory span tracing of eblab's public functions, installed from outside.

The package is left untouched: each traced function is replaced by a
wrapper on every module attribute (and class attribute) bound to the same
function object. Replacing it in its home module alone would miss callers
such as channels, cli and measures, which use
``from .hilbert import min_eigenvalue``.
"""

from __future__ import annotations

import functools
import sys
import time


def _matrix_dim(tracer, args, result):
    tracer.counters["hilbert.min_eigenvalue.max_dim"] = max(
        tracer.counters["hilbert.min_eigenvalue.max_dim"], len(args[0]))


def _ba_iterations(tracer, args, result):
    tracer.counters["capacity.ba_optimize.iterations"] += result.iterations


def _bytes_written(tracer, args, result):
    text = args[1]
    tracer.counters["jsonio.bytes_written"] += len(text.encode("utf-8")) + (not text.endswith("\n"))


# (module, function or Class.method, observer of (tracer, args, result) or None)
TRACED = (
    ("cli", "main", None),
    ("channels", "choi", None),
    ("channels", "separable_choi_from_holevo", None),
    ("channels", "eb_extract", None),
    ("channels", "cp_check", None),
    ("channels", "eb_necessary_test", None),
    ("channels", "ChannelBlocks.from_map", None),
    ("rotation", "channel_blocks", None),
    ("rotation", "holevo_form", None),
    ("rotation", "rho12", None),
    ("rotation", "rho12_n", None),
    ("rotation", "apply_closed_form", None),
    ("rotation", "apply_quadrature", None),
    ("hilbert", "min_eigenvalue", _matrix_dim),
    ("hilbert", "StateOperator.__init__", None),
    ("hilbert", "trace_norm_distance", None),
    ("hilbert", "eig_hermitian", None),
    ("hilbert", "partial_transpose", None),
    ("measures", "product_bound_probe", None),
    ("capacity", "ba_optimize", _ba_iterations),
    ("jsonio", "dumps", None),
    ("jsonio", "write_text", _bytes_written),
    ("jsonio", "read_json", None),
    ("jsonio", "state_from_json", None),
    ("jsonio", "pure_vector_from_json", None),
)

COUNTERS = {
    "hilbert.min_eigenvalue.max_dim": "count",
    "measures.eigensolves_per_probe": "solves/probe",
    "capacity.ba_optimize.iterations": "count",
    "jsonio.bytes_written": "bytes",
}
SUMMED_COUNTERS = ("capacity.ba_optimize.iterations", "jsonio.bytes_written")


def layer_names():
    return [f"{module}.{path}" for module, path, _ in TRACED]


class Tracer:
    """Records spans (name, start, end, parent index, run id) while installed."""

    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.run_id = None
        self.passes = 0  # installs so far; each traced pass installs once
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.run_id)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self, package):
        """Wrap every TRACED function of the imported package."""
        self.passes += 1
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        for module_name, path, observe in TRACED:
            owner = sys.modules[f"{prefix}.{module_name}"]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            raw = owner.__dict__[attr]
            name = f"{module_name}.{path}"
            if isinstance(raw, classmethod):
                self._replace(owner, attr, classmethod(self._wrap(name, raw.__func__, observe)))
            elif cls:
                self._replace(owner, attr, self._wrap(name, raw, observe))
            else:
                wrapper = self._wrap(name, raw, observe)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._replace(module, key, wrapper)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self):
        """calls and self seconds per traced function, plus the counters, per pass.

        Self time is a span's duration minus the time its child spans cover;
        spans nest strictly because the calls run on one thread. Sums (calls,
        seconds, iterations, bytes) are divided by the number of installs.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = dict.fromkeys(layer_names(), 0)
        self_s = dict.fromkeys(layer_names(), 0.0)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += (end - start) - child
        probes = calls["measures.product_bound_probe"]
        counters = dict(self.counters)
        counters["measures.eigensolves_per_probe"] = (
            self._count_under("hilbert.min_eigenvalue", "measures.product_bound_probe") / probes
            if probes else 0.0)
        for name in SUMMED_COUNTERS:
            counters[name] /= self.passes
        metrics = {}
        for name in layer_names():
            metrics[f"{name}.calls"] = (calls[name] / self.passes, "count")
            metrics[f"{name}.self_s"] = (self_s[name] / self.passes, "s")
        for name, unit in COUNTERS.items():
            metrics[name] = (counters[name], unit)
        return metrics

    def inclusive_s(self):
        """Seconds per pass inside each traced function, children included, largest first."""
        total = {}
        for name, start, end, parent, _ in self.spans:
            if not self._under(parent, name):
                total[name] = total.get(name, 0.0) + (end - start) / self.passes
        return dict(sorted(total.items(), key=lambda item: -item[1]))

    def _under(self, parent, ancestor):
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def _count_under(self, name, ancestor):
        return sum(1 for span_name, _, _, parent, _ in self.spans
                   if span_name == name and self._under(parent, ancestor))

    def dump(self):
        """Spans as JSON-ready rows with times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start": start - origin, "end": end - origin,
                 "parent": parent, "run": run}
                for name, start, end, parent, run in self.spans]
