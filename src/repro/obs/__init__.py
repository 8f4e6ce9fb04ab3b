"""Observability: deterministic tracing, metrics, and runtime health.

Only the dependency-free pillars are exported here. The canonical traced
scenarios live in :mod:`repro.obs.capture` and must be imported from
there explicitly — pulling them in at package level would close an import
cycle (``netsim.simulator`` → ``repro.obs`` → ``core.system`` →
``netsim``). The same rule keeps :mod:`repro.obs.report` (which the
experiments import directly) out of the package namespace.
"""

from repro.obs.health import (
    DEFAULT_OBJECTIVES,
    Alarm,
    Detector,
    FlightRecorder,
    HealthConfig,
    HealthDump,
    HealthMonitor,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    HOP_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.slo import (
    CLASS_PUBLISH,
    CLASS_QUERY,
    CLASS_RENEW,
    SLOObjective,
    SLOTracker,
)
from repro.obs.tracing import (
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    Span,
    TraceCapture,
    TraceEvent,
    TraceRecorder,
)

__all__ = [
    "Alarm",
    "CLASS_PUBLISH",
    "CLASS_QUERY",
    "CLASS_RENEW",
    "COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_OBJECTIVES",
    "Detector",
    "HOP_BUCKETS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "HealthConfig",
    "HealthDump",
    "HealthMonitor",
    "Histogram",
    "MetricsRegistry",
    "SLOObjective",
    "SLOTracker",
    "SPAN_ID_HEADER",
    "TRACE_ID_HEADER",
    "Span",
    "TraceCapture",
    "TraceEvent",
    "TraceRecorder",
]
