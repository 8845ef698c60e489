"""Structured event-trace observability for the simulator and framework.

``repro.obs`` turns the cycle-charging funnels into a typed event
stream: every charged operation becomes a
:class:`~repro.obs.events.TraceEvent` (op name, engine lane, start/end
cycle, folded count, section path, bytes moved) delivered to a bounded
:class:`~repro.obs.collector.TraceCollector`.  On top of the stream:

* exact aggregate counters -- cycles by lane/section, DMA bytes, the
  VR-occupancy high-water mark;
* Chrome ``trace_event`` JSON export (:mod:`repro.obs.export`),
  viewable in Perfetto;
* a plain-text timeline renderer (:mod:`repro.obs.timeline`);
* golden-trace serialization and diffing (:mod:`repro.obs.golden`) for
  the regression harness under ``tests/goldens/``.

Collection is off by default; activate it around any workload::

    from repro.obs import collecting, render_timeline

    with collecting() as trace:
        app.measured_latency_ms()
    print(render_timeline(trace))
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "events": (
        "LANE_DMA", "LANE_FAULT", "LANE_HBM", "LANE_INTEGRITY", "LANE_PIO",
        "LANE_SCALE", "LANE_VCU", "LANES", "TraceEvent", "lane_for_op"),
    "collector": (
        "TraceCollector", "active_collector", "collecting", "set_collector"),
    "export": ("chrome_trace", "chrome_trace_json", "write_chrome_trace"),
    "golden": ("golden_diff", "render_cost_golden", "render_trace_golden"),
    "timeline": ("render_lane_summary", "render_timeline"),
})
