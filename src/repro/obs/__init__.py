"""Unified observability layer: span tracing, metrics, trace export.

Three pieces (see the module docstrings for detail):

* :mod:`repro.obs.trace` — virtual-clock span tracer.  Disabled by
  default; instrumented sites check the module global
  ``repro.obs.trace.ACTIVE`` and do nothing when it is ``None``, so the
  hot path stays clean and pricing is bit-identical in both states.
* :mod:`repro.obs.metrics` — cross-layer metrics registry (counters,
  gauges as thin views over existing attributes, histograms with
  nearest-rank percentiles) under stable dotted names.
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON export.

Capture a trace from the CLI::

    PYTHONPATH=src python -m repro.eval trace --trace-out trace.json

and open ``trace.json`` at https://ui.perfetto.dev.
"""

from repro.obs.export import (
    chrome_trace,
    trace_device_totals,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from repro.obs.trace import (
    Instant,
    Span,
    Tracer,
    register_store_devices,
    tracing,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "chrome_trace",
    "metric_key",
    "register_store_devices",
    "trace_device_totals",
    "tracing",
    "validate_chrome_trace",
    "write_chrome_trace",
]
