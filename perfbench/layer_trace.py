"""Outside-in tracing of the sensorreg layers.

Each public entry point of a layer is wrapped at the module attribute
its caller resolves at call time.  ``calibration`` binds ``solve_wahba``
and ``triangulate_batch`` with ``from ... import``, so they are wrapped
on ``sensorreg.calibration``; wrapping them on their home modules would
record nothing.  ``geometry`` is called at too fine a grain to wrap, so
its cost lands in the self time of its callers.

Spans are kept in memory as (op, span id, parent id, name, start, end)
and written out once the run ends.  Wrappers are installed only inside
``Tracer.active()``, so untraced operations run the original functions.
"""

import contextlib
import gzip
import time
from collections import defaultdict

import numpy as np

# wrapper name -> (module, attribute the caller resolves, layer)
TARGETS = {
    "calibration.solve_wahba": ("calibration", "solve_wahba", "wahba"),
    "calibration.triangulate_batch": ("calibration", "triangulate_batch",
                                      "triangulation"),
    "calibration.absolute_2d": ("calibration", "absolute_2d", "calibration"),
    "calibration.absolute_3d": ("calibration", "absolute_3d", "calibration"),
    "experiments.build_batch": ("experiments", "build_batch", "scenario"),
    "experiments.run_experiment": ("experiments", "run_experiment",
                                   "experiments"),
    "cli.read_batch": ("cli", "read_batch", "experiments.read_batch"),
    "cli.main": ("cli", "main", "cli"),
}
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS.values()))


def _observe_wahba(counts, args, result):
    counts["wahba.vector_pairs"] += len(args[0])


def _observe_triangulation(counts, args, result):
    counts["triangulation.targets"] += result.status.size
    # status 0 is triangulation.STATUS_OK
    counts["triangulation.ok"] += int(np.count_nonzero(result.status == 0))
    counts["triangulation.gn_iters"] += int(result.iterations.sum())


def _observe_calibration(counts, args, result):
    counts["calibration.sweeps"] += result.iterations
    counts["calibration.converged"] += int(result.converged)
    counts["calibration.dropped"] += result.dropped_indices


OBSERVERS = {
    "calibration.solve_wahba": _observe_wahba,
    "calibration.triangulate_batch": _observe_triangulation,
    "calibration.absolute_2d": _observe_calibration,
    "calibration.absolute_3d": _observe_calibration,
}


class Tracer:
    """Span recorder for the wrapped sensorreg entry points."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[span_id] = (self.op, span_id, parent, name, start, end)
            self.counts[name] += 1
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self, modules, op):
        """Trace operation ``op``: wrap every target on ``modules`` (a
        mapping from short module name to module) for the duration."""
        originals = []
        self.op = op
        try:
            for name, (mod, attr, _) in TARGETS.items():
                module = modules[mod]
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def require_calls(self, names):
        """Fail loudly if a wrapper that must have run recorded nothing,
        which is what a wrapper on the wrong module attribute looks like."""
        silent = [name for name in names if self.counts[name] == 0]
        if silent:
            raise RuntimeError(f"no calls recorded through {silent}: the "
                               "wrapper is not on the attribute the caller "
                               "resolves")

    def forbid_calls(self, names):
        """Fail if a layer that this workload must bypass was called."""
        called = [name for name in names if self.counts[name] != 0]
        if called:
            raise RuntimeError(f"calls recorded through {called}, which "
                               "this workload must not reach")

    def self_seconds(self, scales):
        """Per-layer self time: span duration minus what its children
        cover, each op's share multiplied by ``scales[op]``."""
        child_ns = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_layer = dict.fromkeys(LAYERS, 0)
        for op, span_id, _, name, start, end in self.spans:
            per_layer[TARGETS[name][2]] += (
                (end - start - child_ns[span_id]) * scales[op])
        return {layer: ns / 1e9 for layer, ns in per_layer.items()}

    def layer_metrics(self, scales):
        """The per-layer metrics of BENCHMARK.json, without the tracing
        overhead, which the runner measures.  ``scales`` maps each op to
        the machine-speed factor of its time (see machine_speed.py)."""
        c = self.counts
        self_s = self.self_seconds(scales)
        wahba_calls = c["calibration.solve_wahba"]
        tri_calls = c["calibration.triangulate_batch"]
        targets = c["triangulation.targets"]
        cal_calls = c["calibration.absolute_2d"] + c["calibration.absolute_3d"]
        return {
            "triangulation.calls": (tri_calls, "count"),
            "triangulation.self_s": (self_s["triangulation"], "s"),
            "triangulation.targets": (targets, "count"),
            "triangulation.ok_frac": (_ratio(c["triangulation.ok"], targets),
                                      "frac"),
            "triangulation.gn_iters_per_target": (
                _ratio(c["triangulation.gn_iters"], targets), "count"),
            "wahba.calls": (wahba_calls, "count"),
            "wahba.self_s": (self_s["wahba"], "s"),
            "wahba.us_per_call": (_ratio(1e6 * self_s["wahba"], wahba_calls),
                                  "us"),
            "wahba.vector_pairs": (c["wahba.vector_pairs"], "count"),
            "calibration.calls": (cal_calls, "count"),
            "calibration.self_s": (self_s["calibration"], "s"),
            "calibration.sweeps_per_call": (
                _ratio(c["calibration.sweeps"], cal_calls), "count"),
            "calibration.converged_frac": (
                _ratio(c["calibration.converged"], cal_calls), "frac"),
            "calibration.dropped_per_call": (
                _ratio(c["calibration.dropped"], cal_calls), "count"),
            "scenario.calls": (c["experiments.build_batch"], "count"),
            "scenario.self_s": (self_s["scenario"], "s"),
            "experiments.self_s": (self_s["experiments"], "s"),
            "experiments.read_batch.self_s": (
                self_s["experiments.read_batch"], "s"),
            "cli.self_s": (self_s["cli"], "s"),
        }

    def write(self, path):
        """Write every recorded span as gzip-compressed CSV."""
        with gzip.open(path, "wt") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def _ratio(num, den):
    # a layer the workload never reaches reports 0 rather than NaN
    return num / den if den else 0.0
