"""Observability: structured tracing, metrics, profiling hooks, reports.

Three instrumentation primitives (see :mod:`repro.obs.tracer`):

* ``@span("name", self_tags={...})`` — decorator, one flag test when off;
* ``profiled("name", **tags)`` — context manager that always measures wall
  time (``.seconds``) and records a span when tracing is on — the home for
  the engine's unconditional accounting;
* ``event("name", **tags)`` — zero-duration record, one flag test when off.

Tracing is off by default and trajectory-neutral; enable with
``REPRO_TRACE=1`` (ring only), ``REPRO_TRACE=trace.jsonl`` (JSONL sink), or
the :func:`tracing` context manager.  Render traces with
``python -m repro.obs report trace.jsonl``.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
)
from repro.obs.report import TraceRollup, format_report, load_trace
from repro.obs.tracer import (
    DEFAULT_RING_SIZE,
    Tracer,
    event,
    get_tracer,
    profiled,
    set_tracing,
    span,
    tracing,
    tracing_enabled,
)


def get_metrics() -> MetricsRegistry:
    """The active tracer's metrics registry."""
    return get_tracer().metrics


__all__ = [
    "Counter",
    "DEFAULT_RING_SIZE",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceRollup",
    "Tracer",
    "diff_snapshots",
    "event",
    "format_report",
    "get_metrics",
    "get_tracer",
    "load_trace",
    "profiled",
    "set_tracing",
    "span",
    "tracing",
    "tracing_enabled",
]
