"""Per-layer tracing for the benchmark's traced run.

kscert has no instrumentation of its own yet, so the traced run replaces
each layer's public functions, in every kscert module that imported them,
with wrappers that record a span (name, start, end, parent) in memory.
Self time is a span's duration minus the part its child spans cover.
`eval_assignment` runs far more often than anything else and costs
microseconds, so it is only counted, never timed.  Span times are raw
(not scaled to reference speed) and include the reference passes that
run.Speed times during a command, 2-3% of it.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import kscert.catalog
import kscert.cli  # loads cli and prooffile, whose functions are wrapped too

LAYERS = ("cli", "catalog", "prooffile", "model", "compat", "derive", "assign", "poly", "exact")


def _classical_max_span(args, kwargs):
    # certify_only mode is the UNSAT search again (its general_unsat span
    # records it); only exact mode enumerates the score
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return "assign.classical_max" if mode == "exact" else None


# (module, function, span name); a callable span name picks it per call
# from the arguments and may return None to leave the call untraced.
SPANNED = [
    ("cli", "main", "cli.main"),
    ("prooffile", "parse", "prooffile.parse"),
    ("prooffile", "render_record", "prooffile.render_record"),
    ("model", "make_observable", "model.make_observable"),
    ("model", "make_ray", "model.make_ray"),
    ("model", "ray_observable", "model.ray_observable"),
    ("model", "dichotomize", "model.dichotomize"),
    ("compat", "build_orthogonality_graph", "compat.build_orthogonality_graph"),
    ("compat", "enumerate_bases", "compat.enumerate_bases"),
    ("compat", "validate_context", "compat.validate_context"),
    ("compat", "context_product", "compat.context_product"),
    ("derive", "build_complete_set_rays", "derive.build_complete_set"),
    ("derive", "build_complete_set_bases_only", "derive.build_complete_set"),
    ("derive", "build_complete_set_parity", "derive.build_complete_set"),
    ("derive", "assemble_F", "derive.assemble_F"),
    ("derive", "present", "derive.present"),
    ("assign", "classical_max", _classical_max_span),
    ("assign", "general_unsat", "assign.general_unsat"),
    ("assign", "ks_colorability", "assign.ks_colorability"),
    ("assign", "parity_certify", "assign.parity_certify"),
    ("poly", "eval_operator", "poly.eval_operator"),
    ("poly", "normalization_constant", "poly.normalization_constant"),
    ("poly", "normalized_square", "poly.normalized_square"),
    ("poly", "reduce", "poly.reduce"),
    ("poly", "make_context_polynomial", "poly.make_context_polynomial"),
    ("exact", "mat_mul", "exact.mat_mul"),
]
COUNTED = [("poly", "eval_assignment", "poly.eval_assignment.calls")]

# search statistics read from the returned certificate, per span name
STATS = {
    "assign.classical_max": ("nodes",),
    "assign.general_unsat": ("nodes", "propagations"),
    "assign.ks_colorability": ("nodes",),
}


class Tracer:
    """Spans and counts recorded while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, fn, span_name):
        spans, stack, counts = self.spans, self._stack, self.counts
        pick = span_name if callable(span_name) else None

        def wrapper(*args, **kwargs):
            name = pick(args, kwargs) if pick else span_name
            if name is None:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            for stat in STATS.get(name, ()):
                counts[f"{name}.{stat}"] += getattr(result.stats, stat)
            return result

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper_for):
        original = getattr(owner, attr)
        wrapper = wrapper_for(original)
        holders = [owner] + [
            m for n, m in sys.modules.items()
            if (n == "kscert" or n.startswith("kscert.")) and m is not owner
            and getattr(m, attr, None) is original
        ]
        for holder in holders:
            setattr(holder, attr, wrapper)
            self._patches.append((holder, attr, original))

    def install(self):
        for mod, fn, span_name in SPANNED:
            owner = sys.modules[f"kscert.{mod}"]
            self._patch(owner, fn, lambda f, s=span_name: self._spanned(f, s))
        for mod, fn, name in COUNTED:
            owner = sys.modules[f"kscert.{mod}"]
            self._patch(owner, fn, lambda f, s=name: self._counted(f, s))
        self._patch(
            kscert.catalog.CatalogEntry, "load",
            lambda f: self._spanned(f, "catalog.load"),
        )

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans only, so
        recursion is not counted twice) and self seconds; per layer: self
        seconds; and the seconds covered by root spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        layer_self = {layer: 0.0 for layer in LAYERS}
        root_s = 0.0
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            agg = by_name[name]
            agg["calls"] += 1
            agg["self_s"] += dur - child[idx]
            layer_self[name.split(".", 1)[0]] += dur - child[idx]
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                agg["s"] += dur
            if parent < 0:
                root_s += dur
        return {"spans": dict(by_name), "layer_self_s": layer_self, "root_s": root_s}


# -- per-layer metrics --------------------------------------------------------

TIMED = sorted({name for _, _, name in SPANNED if isinstance(name, str)}
               | {"assign.classical_max", "catalog.load"})
CALLS = ["cli.main", "assign.classical_max", "assign.general_unsat",
         "assign.ks_colorability", "poly.eval_operator", "poly.reduce", "exact.mat_mul"]
COUNTS = ["assign.classical_max.nodes", "assign.general_unsat.nodes",
          "assign.general_unsat.propagations", "assign.ks_colorability.nodes",
          "poly.eval_assignment.calls"]
MICRO = [
    ("exact.scalar_mul_ns", "ns"),
    ("exact.scalar_add_ns", "ns"),
    ("exact.mat_mul_d4_us", "us"),
    ("exact.mat_mul_d8_us", "us"),
    ("poly.reduce_us", "us"),
    ("poly.eval_assignment_us", "us"),
]

PER_LAYER = (
    [(f"{name}.s", "s") for name in TIMED]
    + [(f"{name}.calls", "count") for name in CALLS]
    + [(name, "count") for name in COUNTS]
    + [("assign.classical_max.ms_per_node", "ms")]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + MICRO
    + [("trace.overhead_frac", "ratio")]
)


def per_layer(tracer, cycle_s, inputs) -> tuple:
    """Per-layer metrics per traced cycle, the overhead of tracing, and the
    microbenchmarks; plus lines that say what share of the traced wall
    time the heaviest layers take."""
    n = len(cycle_s[True])
    summary = tracer.summary()
    spans = summary["spans"]
    zero = {"calls": 0, "s": 0.0}
    m = {}
    for name in TIMED:
        m[f"{name}.s"] = spans.get(name, zero)["s"] / n
    for name in CALLS:
        m[f"{name}.calls"] = spans.get(name, zero)["calls"] / n
    for name in COUNTS:
        m[name] = tracer.counts[name] / n
    nodes = m["assign.classical_max.nodes"]
    m["assign.classical_max.ms_per_node"] = 1000 * m["assign.classical_max.s"] / nodes if nodes else 0.0
    for layer, seconds in summary["layer_self_s"].items():
        m[f"layer.{layer}.self_s"] = seconds / n
    m.update(microbenchmarks(inputs))
    m["trace.overhead_frac"] = statistics.fmean(cycle_s[True]) / statistics.fmean(cycle_s[False]) - 1

    wall = m["cli.main.s"]
    notes = [f"traced wall per cycle: {wall} s over {n} traced cycles"]
    for name in ("poly.eval_operator", "exact.mat_mul", "assign.classical_max",
                 "assign.general_unsat", "assign.ks_colorability"):
        notes.append(f"share of traced wall: {name} {m[f'{name}.s'] / wall:.3f}")
    self_total = sum(summary["layer_self_s"].values())
    notes.append(f"self-time check: layers {self_total} s = root spans {summary['root_s']} s")
    return m, notes


def _per_call(fn, n, reps=5) -> float:
    """Median over `reps` timings of `n` back-to-back calls, per call."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - start) / n)
    return statistics.median(times)


def microbenchmarks(inputs) -> dict:
    """Fixed-size timings of the arithmetic the layers are built on: the
    Gaussian-rational scalars and d = 8 projectors of KP-40, the cabello-18
    projectors in d = 4, and the square of a d = 8 basis polynomial."""
    from kscert.exact import Scalar, mat_mul, projector_from_vector
    from kscert.poly import Poly, eval_assignment, reduce

    x = Scalar(Fraction(1, 8), 0, Fraction(-1, 8), 0)
    y = Scalar(Fraction(1, 4), 0, Fraction(1, 2), 0)
    cab = inputs.catalog_rays["cabello-18"].vectors
    d4 = [projector_from_vector(v) for v in (cab[7], cab[10])]
    kp = inputs.kp40.vectors
    d8 = [projector_from_vector(v) for v in (kp[8], kp[9])]
    basis = Poly.const(-1)
    for i in range(8):
        basis = basis + Poly.var(i)
    square = basis * basis
    spectra = {i: (Fraction(0), Fraction(1)) for i in range(8)}
    reduced = reduce(square, spectra)
    point = {i: Fraction(int(i == 3)) for i in range(8)}
    return {
        "exact.scalar_mul_ns": 1e9 * _per_call(lambda: x * y, 500),
        "exact.scalar_add_ns": 1e9 * _per_call(lambda: x + y, 2000),
        "exact.mat_mul_d4_us": 1e6 * _per_call(lambda: mat_mul(*d4), 30),
        "exact.mat_mul_d8_us": 1e6 * _per_call(lambda: mat_mul(*d8), 1),
        "poly.reduce_us": 1e6 * _per_call(lambda: reduce(square, spectra), 30),
        "poly.eval_assignment_us": 1e6 * _per_call(lambda: eval_assignment(reduced, point), 40),
    }
