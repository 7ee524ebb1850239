"""repro.obs — observability: tracing, metrics, and run provenance.

Cooperating pieces (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.trace` — a hierarchical span tracer with a
  zero-overhead disabled mode; instrumentation sites call
  :func:`repro.obs.span` and pay a global load + None check until a
  tracer is installed.
* :mod:`repro.obs.metrics` — an always-on process-wide registry of
  counters, gauges, log2 histograms and quantile summaries
  (``repro.obs.counter(...)`` etc.).
* :mod:`repro.obs.manifest` — run manifests (seed, config, package
  versions, platform, build provenance) with schema validation,
  written as the first line of every exported trace.
* :mod:`repro.obs.telemetry` — request-scoped traces for the serving
  stack: ``X-Repro-Trace`` propagation, cross-thread stage timing and
  span-tree reconstruction from the event log.
* :mod:`repro.obs.events` — the bounded, size-rotated JSONL event log
  those traces are shipped to.
* :mod:`repro.obs.slo` — latency/availability SLO tracking with error
  budgets and burn-rate gauges.
* :mod:`repro.obs.prof` — a span-attributed sampling CPU profiler
  (daemon-thread ``sys._current_frames()`` walker, folded-stack
  aggregation, flame-graph renderers) with zero overhead when not
  started.
* :mod:`repro.obs.ledger` — the append-only benchmark performance
  ledger (``benchmarks/LEDGER.jsonl``) and its noise-aware
  regression checker.

Typical CLI-driven use is ``repro E7 --trace trace.jsonl`` followed by
``repro trace-summary trace.jsonl``; programmatic use::

    from repro import obs

    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        with obs.span("my.stage", items=3):
            ...
    tracer.write_jsonl("trace.jsonl",
                       manifest=obs.build_manifest(config),
                       metrics=obs.get_registry().as_records())
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "EventLog": "repro.obs.events",
    "read_events": "repro.obs.events",
    "CheckConfig": "repro.obs.ledger",
    "Finding": "repro.obs.ledger",
    "PerfLedger": "repro.obs.ledger",
    "check_ledger": "repro.obs.ledger",
    "headline_metrics": "repro.obs.ledger",
    "MANIFEST_SCHEMA": "repro.obs.manifest",
    "build_info": "repro.obs.manifest",
    "build_manifest": "repro.obs.manifest",
    "manifest_errors": "repro.obs.manifest",
    "validate_manifest": "repro.obs.manifest",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "Summary": "repro.obs.metrics",
    "counter": "repro.obs.metrics",
    "counter_delta": "repro.obs.metrics",
    "gauge": "repro.obs.metrics",
    "get_registry": "repro.obs.metrics",
    "histogram": "repro.obs.metrics",
    # The submodule repro.obs.summary shadows metrics' summary(): the
    # import system binds a submodule on its package, so the eager
    # imports this table replaces exported the submodule too.
    "summary": "repro.obs.summary",
    "Profile": "repro.obs.prof",
    "SamplingProfiler": "repro.obs.prof",
    "load_profile": "repro.obs.prof",
    "render_flamegraph_html": "repro.obs.prof",
    "render_profile_table": "repro.obs.prof",
    "SloConfig": "repro.obs.slo",
    "SloTracker": "repro.obs.slo",
    "escape_label_value": "repro.obs.summary",
    "format_metrics_table": "repro.obs.summary",
    "read_trace": "repro.obs.summary",
    "render_prometheus": "repro.obs.summary",
    "render_trace_summary": "repro.obs.summary",
    "TRACE_HEADER": "repro.obs.telemetry",
    "RequestTrace": "repro.obs.telemetry",
    "TraceView": "repro.obs.telemetry",
    "load_trace": "repro.obs.telemetry",
    "new_trace_id": "repro.obs.telemetry",
    "normalize_trace_id": "repro.obs.telemetry",
    "reconstruct_traces": "repro.obs.telemetry",
    "Span": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "current_tracer": "repro.obs.trace",
    "set_tracer": "repro.obs.trace",
    "span": "repro.obs.trace",
    "tracing_enabled": "repro.obs.trace",
    "use_tracer": "repro.obs.trace",
}

__all__ = [
    "MANIFEST_SCHEMA",
    "build_info",
    "build_manifest",
    "manifest_errors",
    "validate_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
    "MetricsRegistry",
    "counter",
    "counter_delta",
    "gauge",
    "get_registry",
    "histogram",
    "summary",
    "EventLog",
    "read_events",
    "CheckConfig",
    "Finding",
    "PerfLedger",
    "check_ledger",
    "headline_metrics",
    "Profile",
    "SamplingProfiler",
    "load_profile",
    "render_flamegraph_html",
    "render_profile_table",
    "SloConfig",
    "SloTracker",
    "escape_label_value",
    "format_metrics_table",
    "read_trace",
    "render_prometheus",
    "render_trace_summary",
    "TRACE_HEADER",
    "RequestTrace",
    "TraceView",
    "load_trace",
    "new_trace_id",
    "normalize_trace_id",
    "reconstruct_traces",
    "Span",
    "Tracer",
    "current_tracer",
    "set_tracer",
    "span",
    "tracing_enabled",
    "use_tracer",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
