"""The traced child: one rep with wrappers around the layer boundaries.

    python benchmarks/e2e/trace.py --workload NAME --seed N [--scale S] \
        --trace-out trace.json

Wrappers are installed at run time on module and class attributes; no
file under ``src/`` changes.  Coarse calls (``run``, the elastic loop,
``to_schedule_result``, the span and monitor builders) become spans --
name, start, end, parent -- kept in memory and written at exit as
Chrome-trace JSON.  Hot per-call boundaries (controller, pool, overdue
tracker, fault injector, ECC judge) become counts plus total time;
only the outermost call into a layer is timed, so helpers calling each
other inside one layer are not double counted.  A span's self time is
its duration minus its child spans and the hot calls made directly
under it.  Pauses of the cyclic garbage collector while a span is open
are timed through ``gc.callbacks``; they count toward that span too.

Prints one JSON object (layer metrics plus the report digest) as its
last line of standard output.
"""

import functools
import gc
import importlib
import inspect
import json
import sys
import time

import child
import workloads

#: (module, attribute path, span name).  Private ``_simulate`` and
#: ``_run_elastic`` are the report-building and elastic-loop
#: boundaries; a missing attribute is reported and skipped.
SPANS = (
    ("repro.scale.simulator", "ScaleSimulator.__init__", "scale.simulator.init"),
    ("repro.scale.simulator", "ScaleSimulator.run", "scale.simulator.run"),
    ("repro.scale.simulator", "ScaleSimulator.run_with_telemetry",
     "scale.simulator.run_with_telemetry"),
    ("repro.scale.simulator", "ScaleSimulator.run_with_monitor",
     "scale.simulator.run_with_monitor"),
    ("repro.scale.simulator", "ScaleSimulator._run_elastic", "scale.simulator.loop"),
    ("repro.serve.simulator", "ServingSimulator.run", "serve.simulator.run"),
    ("repro.serve.simulator", "ServingSimulator.run_with_telemetry",
     "serve.simulator.run_with_telemetry"),
    ("repro.serve.simulator", "ServingSimulator.run_with_monitor",
     "serve.simulator.run_with_monitor"),
    ("repro.serve.simulator", "ServingSimulator._simulate", "serve.simulator.simulate"),
    ("repro.simcore.vectorized", "VectorizedScheduler.run", "simcore.vectorized.run"),
    ("repro.simcore.arrays", "ArraySchedule.to_schedule_result",
     "simcore.arrays.materialize"),
    ("repro.telemetry.build", "build_run_telemetry", "telemetry.build"),
    ("repro.scale.telemetry", "build_scale_telemetry", "scale.telemetry"),
    # Simulators import the builder from the package at call time.
    ("repro.monitor", "build_run_monitor", "monitor.build"),
)

#: (module, class, layer): every public method becomes a hot counter.
COUNTERS = (
    ("repro.scale.controller", "BurnRateController", "scale.controller"),
    ("repro.scale.pool", "ElasticAPUDevicePool", "scale.pool"),
    ("repro.simcore.elastic", "OverdueTracker", "simcore.elastic"),
    ("repro.faults.injector", "FaultInjector", "faults.injector"),
    ("repro.ecc.model", "ECCModel", "ecc.model"),
)


class _Counter:
    __slots__ = ("calls", "seconds", "active")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.active = False


class Tracer:
    """In-memory spans and hot-call counters for one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans = []
        self.counters = {}
        #: Time in outermost hot calls so far (subtracted from self time).
        self.hot_s = 0.0
        #: Cyclic-collector time and full (generation 2) collections.
        self.gc_s = 0.0
        self.gc_full = 0
        self._gc_start = 0.0
        self._stack = []
        self._hot_depth = 0

    def on_gc(self, phase, info):
        """``gc.callbacks`` hook timing collector pauses inside spans, so
        the rep's own clean-up collection after the action is left out."""
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = self.clock()
            return
        self.gc_s += self.clock() - self._gc_start
        self.gc_full += info["generation"] == 2

    def span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            record = {"name": name, "id": len(tracer.spans),
                      "parent": parent["id"] if parent else None,
                      "child_s": 0.0, "child_hot_s": 0.0}
            tracer.spans.append(record)
            tracer._stack.append(record)
            hot_at_start = tracer.hot_s
            record["start"] = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = tracer.clock()
                tracer._stack.pop()
                record["hot_s"] = tracer.hot_s - hot_at_start
                if parent is not None:
                    parent["child_s"] += record["end"] - record["start"]
                    parent["child_hot_s"] += record["hot_s"]

        return traced

    def counter(self, layer, fn):
        tracer = self
        cell = self.counters.setdefault(layer, _Counter())

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if cell.active:
                return fn(*args, **kwargs)
            cell.active = True
            tracer._hot_depth += 1
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - start
                cell.active = False
                tracer._hot_depth -= 1
                cell.calls += 1
                cell.seconds += elapsed
                if tracer._hot_depth == 0:
                    tracer.hot_s += elapsed

        return counted

    def install(self):
        """Patch every listed boundary; returns the names not found."""
        missing = []
        for module_name, path, name in SPANS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.span(name, original))
        for module_name, class_name, layer in COUNTERS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self.counters.setdefault(layer, _Counter())
            for attr, value in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(value):
                    setattr(cls, attr, self.counter(layer, value))
        gc.callbacks.append(self.on_gc)
        return missing

    @staticmethod
    def duration(span):
        return span["end"] - span["start"]

    def self_s(self, span):
        return (self.duration(span) - span["child_s"]
                - (span["hot_s"] - span["child_hot_s"]))

    def total(self, name, self_time=False):
        measure = self.self_s if self_time else self.duration
        return sum(measure(s) for s in self.spans if s["name"] == name)

    def layer_metrics(self):
        metrics = {
            "scale.simulator.init_s": self.total("scale.simulator.init"),
            "simcore.vectorized.run_s": self.total("simcore.vectorized.run"),
            "simcore.arrays.materialize_s":
                self.total("simcore.arrays.materialize"),
            "simcore.vectorized.scan_s":
                self.total("simcore.vectorized.run", self_time=True),
            "serve.simulator.report_s":
                self.total("serve.simulator.simulate", self_time=True),
            "scale.simulator.loop_self_s":
                self.total("scale.simulator.loop", self_time=True),
            "telemetry.build.s": self.total("telemetry.build"),
            "scale.telemetry.s": self.total("scale.telemetry"),
            "monitor.build.s": self.total("monitor.build"),
            "gc.s": self.gc_s,
            "gc.full_collections": self.gc_full,
        }
        for layer, cell in self.counters.items():
            metrics[f"{layer}.calls"] = cell.calls
            metrics[f"{layer}.s"] = cell.seconds
        return metrics

    def chrome_trace(self, metadata):
        """Chrome ``trace_event`` JSON: one ``X`` event per span."""
        events = [{
            "name": span["name"], "ph": "X", "pid": 1, "tid": 1,
            "ts": (span["start"] - self.origin) * 1e6,
            "dur": self.duration(span) * 1e6,
            "args": {"id": span["id"], "parent": span["parent"],
                     "self_s": self.self_s(span)},
        } for span in self.spans]
        counters = {layer: {"calls": cell.calls, "s": cell.seconds}
                    for layer, cell in self.counters.items()}
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": dict(metadata, counters=counters)}


def main(argv=None):
    parser = child.workload_parser("One traced end-to-end benchmark rep.")
    parser.add_argument("--trace-out", required=True,
                        help="where to write the Chrome-trace JSON")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    workloads.import_repro()
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    missing = tracer.install()
    for name in missing:
        print(f"trace: boundary {name} not found; skipped", file=sys.stderr)
    result = child.rep(args.workload, args.seed, args.scale)

    layer = tracer.layer_metrics()
    layer["import_s"] = import_s
    with open(args.trace_out, "w") as fh:
        json.dump(tracer.chrome_trace({"workload": args.workload,
                                       "seed": args.seed,
                                       "scale": args.scale}), fh)
    print(json.dumps({"layer": layer, "host": result["host"],
                      "ref_s": result["ref_s"], "digest": result["digest"],
                      "checks": result["checks"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
