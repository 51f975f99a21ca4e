"""Unified observability: metrics, tracing, time series, SLOs, structured logs.

Every runtime signal publishes into one :class:`Telemetry` surface per
registry; DESIGN.md "`obs/`" has the architecture.
"""

from repro.obs.logging import StructuredLog
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
)
from repro.obs.slo import SLO, SloEngine, default_slos, replication_lag_slo
from repro.obs.telemetry import Telemetry
from repro.obs.timeseries import TimeSeries, TimeSeriesStore
from repro.obs.trace import (
    Span,
    Tracer,
    format_traceparent,
    parse_traceparent,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Exemplar",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLO",
    "SloEngine",
    "Span",
    "StructuredLog",
    "Telemetry",
    "TimeSeries",
    "TimeSeriesStore",
    "Tracer",
    "default_slos",
    "replication_lag_slo",
    "format_traceparent",
    "parse_exposition",
    "parse_traceparent",
]
