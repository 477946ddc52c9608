"""In-memory span tracing of radarvitals' public functions.

A :class:`Tracer` swaps a timing wrapper in for each public function listed
in ``TRACED``, at the attribute the pipeline looks the function up under
(``synthesize_cube`` and ``range_fft`` are imported by name into
``radarvitals.pipeline``; the other stages are reached as module
attributes).  Nothing under ``src/`` changes: the wrappers are installed
only around traced ops and removed afterwards.

Each span records its name, wall and process-CPU start and end, its parent
span and the op it belongs to, plus a few work counts read off the wrapped
function's result.  :func:`layer_metrics` folds the spans into the per-op
``<module>.<function>.<quantity>`` metrics the benchmark reports.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager


def _count_cube(tracer, rec, args, kwargs, out):
    rec["counts"]["out_mb"] = out.data.nbytes / 1e6
    if kwargs.get("tx_weights", args[2] if len(args) > 2 else None) is not None:
        rec["counts"]["steered"] = 1
        tracer.steered_cubes.append(weakref.ref(out))


def _count_fft(tracer, rec, args, kwargs, out):
    rec["counts"]["out_mb"] = out.data.nbytes / 1e6
    cube = args[0] if args else kwargs["cube"]
    if any(ref() is cube for ref in tracer.steered_cubes):
        rec["counts"]["steered"] = 1


def _count_heatmap(tracer, rec, args, kwargs, out):
    rec["counts"]["range_bins"] = out.power.shape[0]


def _count_kept(tracer, rec, args, kwargs, out):
    rec["counts"]["kept"] = len(out)


def _count_vmd(tracer, rec, args, kwargs, out):
    k, n_bins = out.mode_spectra.shape
    rec["counts"]["iterations"] = out.iterations
    rec["counts"]["bin_mode_iters"] = n_bins * k * out.iterations
    rec["counts"]["converged"] = int(out.converged)


# (module, attribute, span name, counter) for every traced public function.
TRACED = (
    ("radarvitals.pipeline", "run_scenario", "pipeline.run_scenario", None),
    ("radarvitals.pipeline", "synthesize_cube", "simulate.synthesize_cube",
     _count_cube),
    ("radarvitals.pipeline", "synthesize_detections",
     "simulate.synthesize_detections", None),
    ("radarvitals.pipeline", "range_fft", "rangefft.range_fft", _count_fft),
    ("radarvitals.aoa", "range_angle_heatmap", "aoa.range_angle_heatmap",
     _count_heatmap),
    ("radarvitals.fusion", "build_tracks", "fusion.build_tracks", None),
    ("radarvitals.fusion", "filter_stationary", "fusion.filter_stationary",
     _count_kept),
    ("radarvitals.fusion", "localize", "fusion.localize", None),
    ("radarvitals.beamform", "tx_weights", "beamform.tx_weights", None),
    ("radarvitals.vitals", "extract_phase", "vitals.extract_phase", None),
    ("radarvitals.vitals", "adaptive_weights", "vitals.adaptive_weights", None),
    ("radarvitals.vitals", "select_mode_count", "vitals.select_mode_count",
     None),
    ("radarvitals.vitals", "analytic_spectrum", "vitals.analytic_spectrum",
     None),
    ("radarvitals.vitals", "truncate_spectrum", "vitals.truncate_spectrum",
     None),
    ("radarvitals.vitals", "multichannel_vmd", "vitals.multichannel_vmd",
     _count_vmd),
    ("radarvitals.vitals", "estimate_rates", "vitals.estimate_rates", None),
)

# Every per-layer metric, in print order, with its unit.  All values are
# per-op means over the traced ops, except ``converged_frac`` (per call) and
# ``trace_overhead_ms`` (traced minus untraced op_ms_p50).
PER_LAYER = (
    ("simulate.synthesize_cube.calls", "count"),
    ("simulate.synthesize_cube.ms", "ms"),
    ("simulate.synthesize_cube.cpu_ms", "ms"),
    ("simulate.synthesize_cube.out_mb", "MB"),
    ("simulate.synthesize_detections.ms", "ms"),
    ("rangefft.range_fft.calls", "count"),
    ("rangefft.range_fft.ms", "ms"),
    ("rangefft.range_fft.out_mb", "MB"),
    ("aoa.range_angle_heatmap.ms", "ms"),
    ("aoa.range_angle_heatmap.cpu_ms", "ms"),
    ("aoa.range_angle_heatmap.range_bins", "count"),
    ("fusion.build_tracks.ms", "ms"),
    ("fusion.filter_stationary.ms", "ms"),
    ("fusion.filter_stationary.kept", "count"),
    ("fusion.localize.ms", "ms"),
    ("beamform.steered_render.ms", "ms"),
    ("beamform.tx_weights.calls", "count"),
    ("beamform.tx_weights.ms", "ms"),
    ("vitals.extract_phase.ms", "ms"),
    ("vitals.extract_phase.cpu_ms", "ms"),
    ("vitals.adaptive_weights.ms", "ms"),
    ("vitals.select_mode_count.ms", "ms"),
    ("vitals.select_mode_count.cpu_ms", "ms"),
    ("vitals.analytic_spectrum.ms", "ms"),
    ("vitals.truncate_spectrum.ms", "ms"),
    ("vitals.multichannel_vmd.ms", "ms"),
    ("vitals.multichannel_vmd.iterations", "count"),
    ("vitals.multichannel_vmd.bin_mode_iters", "count"),
    ("vitals.multichannel_vmd.converged_frac", "frac"),
    ("vitals.estimate_rates.ms", "ms"),
    ("pipeline.run_scenario.self_ms", "ms"),
    ("pipeline.trace_overhead_ms", "ms"),
    ("bench.op.ms", "ms"),
    ("bench.op.self_ms", "ms"),
)


@contextmanager
def swapped(replacements):
    """Set ``{(module, attr): value}`` for the duration of the block."""
    saved = []
    try:
        for (mod_name, attr), value in replacements.items():
            mod = importlib.import_module(mod_name)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


class Tracer:
    """Collects nested spans in memory; one op at a time, one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self.steered_cubes: list = []
        self._stack: list[dict] = []
        self._op = None
        self._wrappers = {
            (mod_name, attr): self._wrap(
                getattr(importlib.import_module(mod_name), attr), name, counter)
            for mod_name, attr, name, counter in TRACED}

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "op": self._op, "counts": {},
               "start": time.perf_counter(), "cpu_start": time.process_time()}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["cpu_end"] = time.process_time()
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Install every wrapper and open the op's root span."""
        self._op = op_id
        self.steered_cubes = []
        try:
            with swapped(self._wrappers), self.span("bench.op"):
                yield
        finally:
            self._op = None
            self.steered_cubes = []

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(self, rec, args, kwargs, out)
            return out
        return traced

    def write_jsonl(self, path, t0: float) -> None:
        """Write every span, times in ms relative to ``t0``."""
        child_ms = _child_ms(self.spans)
        with open(path, "w") as fh:
            for s in self.spans:
                dur = (s["end"] - s["start"]) * 1e3
                fh.write(json.dumps({
                    "id": s["id"], "name": s["name"], "parent": s["parent"],
                    "op": s["op"],
                    "start_ms": (s["start"] - t0) * 1e3,
                    "end_ms": (s["end"] - t0) * 1e3,
                    "self_ms": dur - child_ms[s["id"]],
                    "cpu_ms": (s["cpu_end"] - s["cpu_start"]) * 1e3,
                    "counts": s["counts"]}) + "\n")


def _child_ms(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += (s["end"] - s["start"]) * 1e3
    return child


def layer_metrics(spans, n_ops: int, overhead_ms: float) -> dict:
    """Per-op means of every ``PER_LAYER`` metric over ``n_ops`` traced ops."""
    total = defaultdict(lambda: defaultdict(float))
    child_ms = _child_ms(spans)
    for s in spans:
        dur = (s["end"] - s["start"]) * 1e3
        t = total[s["name"]]
        t["calls"] += 1
        t["ms"] += dur
        t["cpu_ms"] += (s["cpu_end"] - s["cpu_start"]) * 1e3
        t["self_ms"] += dur - child_ms[s["id"]]
        for key, value in s["counts"].items():
            t[key] += value
        if s["counts"].get("steered"):
            total["beamform.steered_render"]["ms"] += dur
    out = {}
    for metric, unit in PER_LAYER:
        if metric == "pipeline.trace_overhead_ms":
            value = overhead_ms
        else:
            name, quantity = metric.rsplit(".", 1)
            t = total[name]
            if quantity == "converged_frac":
                value = t["converged"] / t["calls"] if t["calls"] else 0.0
            else:
                value = t[quantity] / n_ops
        out[metric] = {"value": value, "unit": unit}
    return out
