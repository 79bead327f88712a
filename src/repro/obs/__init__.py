"""repro.obs — tracing, metrics, and profiling for the solve pipeline.

Stdlib-only observability substrate: hierarchical spans from the HTTP
front end down to individual HiGHS calls (:mod:`repro.obs.trace`), a
registry of counters/gauges/latency histograms with Prometheus export
(:mod:`repro.obs.metrics`), shared stats-dataclass helpers
(:mod:`repro.obs.statsutil`), and offline trace summaries and diffs
(:mod:`repro.obs.summary`).
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_prometheus,
)
from .statsutil import merge_stats, stats_as_dict
from .summary import (
    DIFF_COLUMNS,
    diff_summaries,
    format_table,
    load_trace_events,
    summarize_events,
)
from .trace import (
    Span,
    Tracer,
    activate,
    capture_context,
    get_tracer,
    set_global_tracer,
    span,
    stage_summary,
    tracing,
)

__all__ = [
    "Counter",
    "DIFF_COLUMNS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "activate",
    "capture_context",
    "diff_summaries",
    "format_table",
    "get_registry",
    "get_tracer",
    "load_trace_events",
    "merge_stats",
    "render_prometheus",
    "set_global_tracer",
    "span",
    "stage_summary",
    "stats_as_dict",
    "summarize_events",
    "tracing",
]
