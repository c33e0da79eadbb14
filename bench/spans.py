"""Outside-in tracing of the torusrep layers.

Nothing in the package is edited. `Tracer.install` rebinds functions at the
attribute each caller looks them up through: `cli` imports `fm_mul` by name,
so `cli.fm_mul` is rebound; `RatFunc` finds `poly_gcd` in `field`'s globals,
so `field.poly_gcd` is rebound; `cli` calls `repbuild.build_repset`, so the
attribute on `repbuild` is rebound. Every public function defined in a
torusrep module is wrapped wherever a torusrep module binds it, plus the
private helpers in `EXTRA_SPANS` that another layer calls.

A span is (name, start, end, parent); spans are kept in flat arrays and
written out when the run ends. Self time is a span's duration minus the
durations of its direct children. Operators of `RatFunc` are too frequent for
spans and are only counted; their time is part of the enclosing span.
"""

from __future__ import annotations

import array
import json
import time
import types

import numpy as np

EXTRA_SPANS = ("_braid_holds",)  # private, but cli calls repbuild._braid_holds
RATFUNC_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "reciprocal",
)
SIZED = ("field.fm_mul", "field.fm_inv")  # spans whose result matrix is measured

# (name, unit, span-name prefixes it sums, the end-to-end metric and workload
# it should move). Metrics without prefixes are counters kept by the Tracer.
LAYER_METRICS = (
    ("field.fm_mul.calls", "count", ("field.fm_mul",), "wall_s on exact_checks (main) and long_words; flat on level_scan"),
    ("field.fm_mul.self_s", "s", ("field.fm_mul",), "wall_s on exact_checks (main) and long_words; flat on level_scan"),
    ("field.fm_inv.calls", "count", ("field.fm_inv",), "wall_s on long_words and level_scan; absent on exact_checks"),
    ("field.fm_inv.self_s", "s", ("field.fm_inv",), "wall_s on long_words and level_scan; absent on exact_checks"),
    ("field.fm_eq.self_s", "s", ("field.fm_eq",), "wall_s on exact_checks"),
    ("field.poly_gcd.calls", "count", ("field.poly_gcd",), "wall_s on exact_checks (main) and long_words; flat on level_scan"),
    ("field.poly_gcd.self_s", "s", ("field.poly_gcd",), "wall_s on exact_checks (main) and long_words; flat on level_scan"),
    ("field.ratfunc_ops.calls", "count", (), "wall_s on exact_checks (main) and long_words; flat on level_scan"),
    ("field.self_s", "s", ("field.",), "wall_s on every workload: the Q(X) layer's own time"),
    ("field.max_degree", "deg", (), "wall_s and peak_rss_mb on long_words and exact_checks; accuracy_digits on long_words"),
    ("field.max_coeff_bits", "bits", (), "wall_s and peak_rss_mb on long_words and exact_checks; accuracy_digits on long_words"),
    ("qsymbols.calls", "count", ("qsymbols.",), "job_s.p50 on level_scan (cold build) and setup_s"),
    ("qsymbols.self_s", "s", ("qsymbols.",), "job_s.p50 on level_scan (cold build) and setup_s"),
    ("repbuild.build_repset.calls", "count", ("repbuild.build_repset",), "job_s.p50 on level_scan (cold build) and setup_s"),
    ("repbuild.build_repset.self_s", "s", ("repbuild.build_repset",), "job_s.p50 on level_scan (cold build) and setup_s"),
    ("repbuild.braid.self_s", "s", ("repbuild._braid_holds", "repbuild.verify_braid"), "wall_s on exact_checks"),
    ("repbuild.classical_limit.self_s", "s", ("repbuild.classical_limit",), "wall_s on exact_checks"),
    ("repbuild.rep_of_word.self_s", "s", ("repbuild.rep_of_word",), "wall_s on long_words"),
    ("repbuild.self_s", "s", ("repbuild.",), "wall_s on every workload: the symbolic build's own time"),
    ("classical.self_s", "s", ("classical.",), "wall_s on exact_checks"),
    ("numeric.eval_matrix.calls", "count", ("numeric.eval_matrix",), "wall_s on level_scan; accuracy_digits and passed_frac on long_words"),
    ("numeric.eval_matrix.self_s", "s", ("numeric.eval_matrix",), "wall_s on level_scan; accuracy_digits and passed_frac on long_words"),
    ("numeric.spectral_radius.calls", "count", ("numeric.spectral_radius",), "wall_s on level_scan"),
    ("numeric.spectral_radius.self_s", "s", ("numeric.spectral_radius",), "wall_s on level_scan"),
    ("numeric.oracle_matrices.calls", "count", ("numeric.oracle_matrices",), "wall_s on level_scan"),
    ("numeric.oracle_matrices.self_s", "s", ("numeric.oracle_matrices",), "wall_s on level_scan"),
    ("numeric.levels", "count", (), "wall_s on level_scan"),
    ("numeric.self_s", "s", ("numeric.",), "wall_s on level_scan: the per-level layer's own time"),
    ("mcg.self_s", "s", ("mcg.",), "job_s.p50 on the shortest jobs"),
    ("cli.self_s", "s", ("cli.",), "job_s.p50 on the shortest jobs (parsing and formatting)"),
    ("trace.overhead_frac", "frac", (), "none: traced wall_s over untraced wall_s, minus 1"),
)


def _matrix_size(m):
    deg = bits = 0
    for row in m.rows:
        for e in row:
            for poly in (e.num, e.den):
                deg = max(deg, poly.degree)
                for c in poly.coeffs:
                    c = c if isinstance(c, int) else max(abs(c.numerator), c.denominator)
                    bits = max(bits, abs(c).bit_length())
    return deg, bits


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array.array("I")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counts = {"ratfunc_ops": 0, "levels": 0}
        self.max_degree = 0
        self.max_coeff_bits = 0
        self._bindings = []  # (owner, attribute, original, wrapper)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name):
        nid = self._id(name)
        sized = name in SIZED
        sizes = self._id("trace.sizes")
        clock = time.perf_counter
        names, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        def open_span(n):
            idx = len(start)
            names.append(n)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            return idx

        def traced(*args, **kwargs):
            idx = open_span(nid)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if sized:  # measured in a span of its own so it counts as overhead only
                idx = open_span(sizes)
                start[idx] = clock()
                deg, bits = _matrix_size(result)
                self.max_degree = max(self.max_degree, deg)
                self.max_coeff_bits = max(self.max_coeff_bits, bits)
                end[idx] = clock()
                stack.pop()
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, counter):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def bind(self, modules):
        """Plan the wrappers for the given torusrep modules (name -> module),
        replacing any earlier plan."""
        self._bindings = []
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None) or ""
                if not home.startswith("torusrep.") or isinstance(obj, type):
                    continue
                if not callable(obj) or not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                    continue
                if attr.startswith("_") and attr not in EXTRA_SPANS:
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                self._bindings.append((mod, attr, obj, self._span(obj, name)))
        field, numeric = modules.get("field"), modules.get("numeric")
        ratfunc = getattr(field, "RatFunc", None)
        for op in RATFUNC_OPS:
            if ratfunc is not None and op in vars(ratfunc):
                fn = vars(ratfunc)[op]
                self._bindings.append((ratfunc, op, fn, self._counted(fn, "ratfunc_ops")))
        if numeric is not None and hasattr(numeric, "PSetting"):
            cls = numeric.PSetting
            self._bindings.append((numeric, "PSetting", cls, self._counted(cls, "levels")))

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def mark(self):
        """Position of the next span and the current counters, to delimit a pass."""
        return len(self.start), dict(self.counts)

    def self_times(self):
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def layer_metrics(self, begin, end):
        """Per-layer metrics of the spans and counters between two marks."""
        self_s = self.self_times()[begin[0]:end[0]]
        ids = np.frombuffer(self.name_id, dtype=np.uint32)[begin[0]:end[0]]
        calls = np.bincount(ids, minlength=len(self.names))
        secs = np.bincount(ids, weights=self_s, minlength=len(self.names))
        out = {}
        for metric, _, prefixes, _ in LAYER_METRICS:
            if not prefixes:
                continue
            picked = [i for i, n in enumerate(self.names) if n.startswith(prefixes)]
            if metric.endswith(".calls"):
                out[metric] = int(sum(calls[i] for i in picked))
            else:
                out[metric] = float(sum(secs[i] for i in picked))
        out["field.ratfunc_ops.calls"] = end[1]["ratfunc_ops"] - begin[1]["ratfunc_ops"]
        out["numeric.levels"] = end[1]["levels"] - begin[1]["levels"]
        out["field.max_degree"] = self.max_degree
        out["field.max_coeff_bits"] = self.max_coeff_bits
        return out

    def dump(self, path):
        """Write every span as [name, start, end, parent] rows."""
        rows = [
            [self.names[n], s, e, p]
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": rows}, fh)
