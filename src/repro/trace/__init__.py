"""``repro.trace``: sim-time tracing, critical-path analysis, trace export.

The observability layer for the simulator.  A :class:`Tracer` installs
on a machine or cluster as a probe on the bus (:mod:`repro.sim.probe`)
-- observe-only, so traced runs produce bit-identical simulated
results -- and records sim-time spans, per-op
device events with byte/class/amplification/interference attribution,
fault/scheduler instants and bandwidth/DRAM/queue-depth counters.

Quick start::

    from repro import api

    result = api.sort(api.RunOptions(records=50_000, trace="out.trace.json"))
    # open out.trace.json in https://ui.perfetto.dev

Programmatic::

    from repro.trace import Tracer, dumps_chrome_trace

    tracer = Tracer()
    tracer.install(machine)      # or a whole cluster
    ... run the workload ...
    json_text = dumps_chrome_trace(tracer)

``Tracer(analyze=True)`` additionally records blocked-wait and
process-lifetime records for the critical-path analyzer
(:func:`analyze_tracer`, ``python -m repro analyze``), still
observe-only: simulated results stay bit-identical.

Counters are not here: a run's counters are the flat dict of
:func:`repro.perf.collect_counters` /
:func:`~repro.perf.collect_cluster_counters`.  :class:`Histogram` is the
percentile estimator of the service report.
"""

from repro.trace.analyze import (
    AnalysisReport,
    PhaseBreakdown,
    analyze_tracer,
    diff_reports,
    parse_what_if,
    render_diff,
)
from repro.trace.critical_path import CATEGORIES, CriticalPath, blame_table
from repro.trace.export import (
    chrome_trace_events,
    dumps_chrome_trace,
    load_chrome_trace,
    load_report_json,
    render_phase_rollup,
    render_trace_report,
    spans_jsonl,
    write_chrome_trace,
    write_report_json,
    write_spans_jsonl,
)
from repro.trace.metrics import Histogram
from repro.trace.tracer import Span, Tracer

__all__ = [
    "AnalysisReport",
    "CATEGORIES",
    "CriticalPath",
    "PhaseBreakdown",
    "analyze_tracer",
    "blame_table",
    "diff_reports",
    "parse_what_if",
    "render_diff",
    "Histogram",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "dumps_chrome_trace",
    "load_chrome_trace",
    "load_report_json",
    "render_phase_rollup",
    "render_trace_report",
    "spans_jsonl",
    "write_chrome_trace",
    "write_report_json",
    "write_spans_jsonl",
]
