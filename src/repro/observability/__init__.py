"""Observability layer: metrics registry, span tracing, kernel profiles.

The measurement substrate every performance claim in this repo is
checked against.  Three pieces:

* :class:`MetricsRegistry` / :data:`NULL_REGISTRY` — counters, gauges,
  fixed-bucket histograms and nested timed spans.  Instrumented
  functions (``bc.engine``, ``gpusim.Device``, ``parallel.pool``,
  ``cluster.SimComm``, ``resilience.driver``) take ``metrics=`` and
  default to the shared no-op registry, so observation is opt-in and
  zero-cost when off.
* :class:`SpanClock` — one timeline for wall and charged simulated
  seconds; budget checks and reports read the same ``elapsed()``.
* Exporters — canonical JSON/CSV (``repro.observability/v1``), device
  kernel profiles (``repro.profile/v1``, via ``repro profile``) and
  decision traces (``repro.trace/v1``, via ``repro profile
  --trace-out`` / ``repro trace explain``): every strategy decision
  with the exact α/β/γ comparison that caused it, recorded through
  :meth:`MetricsRegistry.record` and replayable as a per-root audit.

Quickstart::

    from repro.observability import MetricsRegistry
    from repro.gpusim import Device

    metrics = MetricsRegistry()
    run = Device().run_bc(g, strategy="sampling", metrics=metrics)
    metrics.export()          # stable-schema dict
"""

from .clock import SpanClock
from .export import (
    SCHEMA,
    dumps,
    load_json,
    registry_to_dict,
    span_to_dict,
    write_csv,
    write_json,
)
from .profiles import (
    PROFILE_SCHEMA,
    level_rows,
    root_profile,
    run_profile,
    spec_profile,
    trace_profile,
)
from .registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Span,
)
from .trace import (
    TRACE_SCHEMA,
    explain_lines,
    frontier_evolution,
    load_trace,
    trace_document,
    verify_decisions,
    write_trace,
)

__all__ = [
    "SpanClock",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "DEFAULT_BUCKETS",
    "SCHEMA",
    "PROFILE_SCHEMA",
    "TRACE_SCHEMA",
    "registry_to_dict",
    "span_to_dict",
    "dumps",
    "write_json",
    "load_json",
    "write_csv",
    "trace_document",
    "write_trace",
    "load_trace",
    "explain_lines",
    "frontier_evolution",
    "verify_decisions",
    "level_rows",
    "root_profile",
    "trace_profile",
    "spec_profile",
    "run_profile",
]
