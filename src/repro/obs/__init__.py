"""`repro.obs` — stdlib-only observability: spans, traces and metrics.

Two halves, both disabled-by-default and dependency-free:

* **Tracing** (:mod:`repro.obs.trace`) — hierarchical wall-clock spans
  (``obs.span("session.solve", lam=0.0)``) recorded into a bounded in-memory
  ring and, optionally, a JSONL file.  Span context propagates across the
  serving worker pool and the array engine's shard threads (the context
  rides the existing task payloads; shard spans carry their node ranges).
  A recorded JSONL trace renders to Chrome trace-event format
  (``repro trace export --chrome``) so a solve opens in Perfetto, and
  aggregates to a per-span-name latency table (``repro trace summarize``).  When tracing is disabled — the default —
  ``span()`` returns a shared no-op object; the hot paths pay one module
  attribute read per span site (the ``obs_overhead`` bench scenario pins the
  end-to-end cost).

* **Metrics** (:mod:`repro.obs.metrics`) — a :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket histograms (notably per-problem solve
  latency and per-round kernel time, observed into the process-wide default
  registry), rendered in Prometheus text exposition at
  ``GET /metrics?format=prometheus``.  The server's ``SessionStats`` /
  ``ServeStats`` / store counters are read once, into the JSON ``/metrics``
  document, and the text form renders families mapped from that same
  document, so the two never disagree.

Tracing never changes results: spans observe wall time and attributes only,
and the equivalence tests pin bit-identity with tracing enabled.
"""

from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanContext,
    Tracer,
    active,
    chrome_trace,
    current_context,
    disable,
    enable,
    enabled,
    read_jsonl,
    span,
    summarize,
    timed,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_families,
    exposition,
    family,
    gauge_family,
    get_registry,
)

__all__ = [
    "NOOP_SPAN",
    "Span",
    "SpanContext",
    "Tracer",
    "active",
    "chrome_trace",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "read_jsonl",
    "span",
    "summarize",
    "timed",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter_families",
    "exposition",
    "family",
    "gauge_family",
    "get_registry",
]
