"""Cross-layer metrics registry: counters, gauges, histograms.

Every layer of the pipeline publishes into one
:class:`MetricsRegistry` under stable dotted names with optional
``{key=value}`` labels::

    pool.hits{pool=workload}      gauge    (view over BufferPool.hits)
    prefetch.useful{pool=workload} counter
    sched.queueing_ms{client=alpha} counter
    tier.promotions               counter
    op.latency_ms{client=alpha}   histogram (p50/p95 via nearest rank)

Three metric kinds:

* :class:`Counter` — monotonically increasing value owned by the
  registry; layers call :meth:`Counter.inc`.
* :class:`Gauge` — a zero-argument callable sampled at read time.  Used
  as a *thin view* over existing canonical attributes
  (``BufferPool.hits`` stays a plain int on the hot path; the gauge just
  reads it), so registering a gauge never adds per-access cost.
* :class:`Histogram` — stores observations and reports count/sum and
  nearest-rank percentiles (:func:`percentile`), the same ones the
  workload engine's report rows compute.

``reset_stats()`` zeroes counters and histograms; gauges are live views
and follow whatever their underlying attribute does.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metric_key",
    "percentile",
    "percentile_sorted",
]


def percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample; 0.0 when
    empty.  The shared kernel behind :func:`percentile` and the cached
    sorted copies the reporting paths keep (one sort per report, not
    one per percentile query)."""
    if not ordered:
        return 0.0
    rank = int(-(-q * len(ordered) // 1))  # ceil
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sequence.

    Deterministic and interpolation-free: a reported p95 is an actual
    observed latency, not a synthetic midpoint.
    """
    if not values:
        return 0.0
    return percentile_sorted(sorted(values), q)


def metric_key(name: str, labels: dict[str, str]) -> str:
    """Canonical registry key: ``name{k1=v1,k2=v2}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (resettable)."""

    __slots__ = ("name", "labels", "key", "value")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.key = metric_key(name, labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A live view: samples a zero-argument callable at read time."""

    __slots__ = ("name", "labels", "key", "fn")

    def __init__(self, name: str, labels: dict[str, str], fn: Callable[[], float]) -> None:
        self.name = name
        self.labels = labels
        self.key = metric_key(name, labels)
        self.fn = fn

    @property
    def value(self) -> float:
        return self.fn()

    def reset(self) -> None:  # gauges track their source; nothing to zero
        return None


class Histogram:
    """Observation store with nearest-rank percentile summaries.

    Percentile queries sort a cached copy of the observations once and
    reuse it until new observations arrive (the cache is keyed on the
    sample size), so reporting several percentiles — or re-reading the
    same snapshot — does not re-sort a large sample each time.
    """

    __slots__ = ("name", "labels", "key", "values", "_sorted")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.key = metric_key(name, labels)
        self.values: list[float] = []
        self._sorted: list[float] | None = None

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return float(sum(self.values))

    def sorted_values(self) -> list[float]:
        """The observations in ascending order (cached between
        observations)."""
        cache = self._sorted
        if cache is None or len(cache) != len(self.values):
            cache = self._sorted = sorted(self.values)
        return cache

    def percentile(self, q: float) -> float:
        return percentile_sorted(self.sorted_values(), q)

    def snapshot_items(self) -> list[tuple[str, float]]:
        """Flattened ``(key, value)`` rows for :meth:`MetricsRegistry.snapshot`."""
        rows = []
        for suffix, value in (
            ("count", float(self.count)),
            ("sum", round(self.sum, 6)),
            ("p50", self.percentile(0.50)),
            ("p95", self.percentile(0.95)),
        ):
            rows.append((metric_key(f"{self.name}.{suffix}", self.labels), value))
        return rows

    def reset(self) -> None:
        self.values.clear()
        self._sorted = None


class MetricsRegistry:
    """Get-or-create home for every layer's metrics."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls: type, name: str, labels: dict[str, str]) -> Any:
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels)
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise ConfigurationError(
                f"metric {key!r} already registered as {type(metric).__name__}, "
                f"requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    def gauge(self, name: str, fn: Callable[[], float], **labels: str) -> Gauge:
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Gauge(name, labels, fn)
            self._metrics[key] = metric
        elif type(metric) is Gauge:
            metric.fn = fn  # re-registration rebinds the view (e.g. attach())
        else:
            raise ConfigurationError(
                f"metric {key!r} already registered as {type(metric).__name__}, "
                "requested Gauge"
            )
        return metric

    def get(self, key: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(key)

    def value(self, key: str, default: float = 0.0) -> float:
        metric = self._metrics.get(key)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return float(metric.count)
        return metric.value

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        return iter(self._metrics.values())

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, float]:
        """Flattened ``{key: value}`` view, histograms expanded to
        ``name.count/.sum/.p50/.p95`` rows, sorted by key."""
        out: dict[str, float] = {}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if isinstance(metric, Histogram):
                for row_key, value in metric.snapshot_items():
                    out[row_key] = value
            else:
                out[key] = metric.value
        return out

    def reset_stats(self) -> None:
        """Zero counters and histograms; gauges are live views."""
        for metric in self._metrics.values():
            metric.reset()

    def format(self, title: str = "metrics") -> str:
        snap = self.snapshot()
        width = max((len(key) for key in snap), default=len(title))
        lines = [f"== {title} =="]
        for key, value in snap.items():
            if isinstance(value, float) and not value.is_integer():
                rendered = f"{value:.3f}"
            else:
                rendered = f"{int(value)}"
            lines.append(f"{key.ljust(width)}  {rendered}")
        return "\n".join(lines)

    def write(self, path: str, extra: dict[str, Any] | None = None) -> None:
        payload: dict[str, Any] = {"metrics": self.snapshot()}
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
