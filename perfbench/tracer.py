"""In-memory spans around gpmor's public functions, installed from outside.

The tracer wraps each function listed in TARGETS and rebinds every module
attribute of the `gpmor` package that holds the original, so callers that did
`from .grassmann import log_map` see the wrapper too. A span records its name,
start, end, parent span and the id of the subcommand call it belongs to; a
layer's self time is its span's duration minus the time its direct children
cover. Spans stay in memory until the run writes them out.
"""

import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median


def _path_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _read_extras(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "key": str(args[0])}


def _pod_extras(args, kwargs, result):
    snap = args[0]
    m, k = max(snap.n, snap.n_t), min(snap.n, snap.n_t)
    # Golub & Van Loan operation count of a thin R-SVD with both factors.
    return {"key": repr((snap.param, snap.n, snap.n_t)), "flops_computed": 4 * m * k * k + 22 * k**3}


def _kernel_extras(args, kwargs, result):
    lifts, _, grid = args[:3]
    samples = len(grid)
    # the Lagrange-combined lifts the numpy path materialises: M x n x p doubles
    return {"samples": samples, "bytes_computed": samples * lifts.shape[1] * lifts.shape[2] * 8}


# (module, attribute, layer name, extras from (args, kwargs, result)).
# "Class.method" patches the method on the class itself.
TARGETS = (
    ("gpmor.cli", "main", "cli.main", None),
    ("gpmor.fileio", "read_snapshot", "fileio.read_snapshot", _read_extras),
    ("gpmor.fileio", "write_snapshot_bin", "fileio.write", _path_bytes),
    ("gpmor.fileio", "write_snapshot_csv", "fileio.write", _path_bytes),
    ("gpmor.fileio", "write_frame_bin", "fileio.write", _path_bytes),
    ("gpmor.fileio", "write_json", "fileio.write", _path_bytes),
    ("gpmor.snapshots", "compute_pod", "snapshots.compute_pod", _pod_extras),
    ("gpmor.kernels", "theta_curve", "kernels.theta_curve", _kernel_extras),
    ("gpmor.interpolation", "c2_sweep", "interpolation.c2_sweep", None),
    ("gpmor.interpolation", "interpolate", "interpolation.interpolate", None),
    ("gpmor.interpolation", "lagrange_weights", "interpolation.lagrange_weights", None),
    ("gpmor.synth", "generate", "synth.generate", "alloc"),
    ("gpmor.grassmann", "log_map", "grassmann.log_map", None),
    ("gpmor.grassmann", "geodesic", "grassmann.geodesic", None),
    ("gpmor.grassmann", "principal_angles", "grassmann.principal_angles", None),
    ("gpmor.grassmann", "GrassmannPoint.__post_init__", "grassmann.GrassmannPoint", None),
    ("gpmor.stability", "check_c1", "stability.check_c1", None),
    ("gpmor.stability", "check_c2", "stability.check_c2", None),
    ("gpmor.stability", "c3_distance_table", "stability.c3_distance_table", None),
    ("gpmor.stability", "check_c3", "stability.check_c3", None),
    ("gpmor.metrics", "frobenius_error", "metrics.frobenius_error", None),
)

# Per-layer figures beyond calls and self time, with their units.
LAYER_EXTRAS = {
    "fileio.read_snapshot": (("bytes", "B"), ("distinct_ratio", "ratio")),
    "fileio.write": (("bytes", "B"),),
    "snapshots.compute_pod": (("distinct_ratio", "ratio"), ("flops_computed", "flop")),
    "kernels.theta_curve": (("samples", "count"), ("bytes_computed", "B"), ("samples_per_s", "1/s")),
    "synth.generate": (("bytes", "B"),),
}


def layer_names():
    return list(dict.fromkeys(name for _, _, name, _ in TARGETS))


def per_layer_spec():
    """(metric name, unit) of every per-layer metric, in report order."""
    spec = [("cli.import_s", "s")]
    for name in layer_names():
        spec += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
        spec += [(f"{name}.{extra}", unit) for extra, unit in LAYER_EXTRAS.get(name, ())]
    spec += [
        ("trace.pass_s", "s"),
        ("trace.untraced_pass_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
        ("check.holdout_err", "ratio"),
        ("check.crossing_err", "lambda"),
    ]
    return spec


@dataclass
class Span:
    span_id: int
    parent: object
    call: str
    name: str
    start: float
    end: float
    extras: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; `call` is the id stamped on spans opened from now on."""

    def __init__(self):
        self.spans = []
        self.call = None
        self._stack = []
        self._next_id = 0

    def take(self):
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, extras):
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            if extras == "alloc":
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = Span(span_id, parent, tracer.call, name, start, time.perf_counter())
                if extras == "alloc":
                    span.extras["bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._stack.pop()
                tracer.spans.append(span)
            # sizes are taken outside the span, so they do not count as its time
            if callable(extras):
                span.extras.update(extras(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of every target for the duration of the block."""
        patched = []
        try:
            for module_name, attr, name, extras in TARGETS:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    patched.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(name, original, extras))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, extras)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "gpmor" or mod_name.startswith("gpmor.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(patched):
                setattr(owner, key, original)


def self_times(spans):
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    return {s.span_id: (s.end - s.start) - child_time.get(s.span_id, 0.0) for s in spans}


def aggregate(spans):
    """Per-layer calls, self time and extras over one set of spans."""
    selfs = self_times(spans)
    out = {}
    keys = {}
    for s in spans:
        layer = out.setdefault(s.name, {"calls": 0, "s": 0.0})
        layer["calls"] += 1
        layer["s"] += selfs[s.span_id]
        for k, v in s.extras.items():
            if k == "key":
                keys.setdefault(s.name, set()).add((s.call, v))
            else:
                layer[k] = layer.get(k, 0) + v
    # share of calls that were the first with their input inside one subcommand call
    for name, distinct in keys.items():
        out[name]["distinct_ratio"] = len(distinct) / out[name]["calls"]
    kernel = out.get("kernels.theta_curve")
    if kernel and kernel["s"] > 0:
        kernel["samples_per_s"] = kernel["samples"] / kernel["s"]
    return out


def layer_metrics(span_sets):
    """Median over span sets (one per traced pass) of every per-layer figure."""
    aggs = [aggregate(spans) for spans in span_sets]
    metrics = {}
    for name in layer_names():
        fields = ["calls", "s"] + [extra for extra, _ in LAYER_EXTRAS.get(name, ())]
        for f in fields:
            metrics[f"{name}.{f}"] = median(a.get(name, {}).get(f, 0) for a in aggs)
    return metrics


def write_spans(path, span_sets, t0):
    with open(path, "w") as fh:
        for spans in span_sets:
            for s in spans:
                row = {
                    "id": s.span_id, "parent": s.parent, "call": s.call, "name": s.name,
                    "start": s.start - t0, "end": s.end - t0,
                }
                row.update({k: v for k, v in s.extras.items()})
                fh.write(json.dumps(row) + "\n")
