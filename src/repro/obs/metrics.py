"""Counters, gauges, fixed-bucket histograms and Prometheus exposition.

A :class:`MetricsRegistry` holds named **instruments** —
:class:`Counter` / :class:`Gauge` / :class:`Histogram` objects created
through :meth:`MetricsRegistry.counter` (etc.) and updated by the code that
owns them.  Creation is idempotent by name so module-level instruments
survive re-imports and multiple servers in one process.

A *family* is ``(name, type, help, samples)`` with ``samples`` a list of
``(suffix, labels_dict, value)`` — the exact shape :func:`exposition` turns
into Prometheus text (``# HELP`` / ``# TYPE`` lines, label escaping,
cumulative ``_bucket{le=}`` series with ``_sum`` / ``_count``).  Snapshots
that are not instruments — the HTTP server's ``/metrics`` document of
serving, session and store counters — are mapped to families by their
owner (:func:`repro.serve.http.metric_families`) and rendered by the same
function, so the JSON and text forms are one snapshot.

A process-wide default registry (:func:`get_registry`) carries the always-on
instruments — per-round kernel time and per-problem solve latency — which
the HTTP server's ``/metrics?format=prometheus`` renders alongside its own
per-server registry.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
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

#: Solve latencies span ~100µs (tiny cached corpora) to minutes (100k-node
#: cold solves); round kernels reuse the low half.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

Family = Tuple[str, str, str, List[Tuple[str, Dict[str, str], float]]]


def family(name: str, type_: str, help_: str,
           samples: Iterable[Tuple[str, Dict[str, str], float]]) -> Family:
    """Build a metric family tuple (the shape :func:`exposition` renders)."""
    return (str(name), str(type_), str(help_), list(samples))


def gauge_family(name: str, help_: str, value: float,
                 labels: Optional[Dict[str, str]] = None) -> Family:
    return family(name, "gauge", help_, [("", dict(labels or {}), float(value))])


def counter_families(prefix: str, totals: Dict[str, Any],
                     help_prefix: str) -> List[Family]:
    """One ``<prefix>_<key>_total`` counter family per numeric dict entry.

    The adapter that maps a snapshot dict of plain counters (aggregated
    ``SessionStats``, serving counters) to families.
    """
    families = []
    for key in sorted(totals):
        value = totals[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        families.append(family(
            f"{prefix}_{key}_total", "counter", f"{help_prefix}: {key}",
            [("", {}, float(value))]))
    return families


def _check_name(name: str) -> str:
    name = str(name)
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name: {name!r}")
    if name[0].isdigit():
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _label_key(labelnames: Sequence[str],
               labels: Dict[str, Any]) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {tuple(labelnames)}, got {tuple(labels)}")
    return tuple(str(labels[name]) for name in labelnames)


class _Scalar:
    """One value per label set (the shared body of counters and gauges)."""

    type_ = ""

    def __init__(self, name: str, help_: str,
                 labelnames: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = str(help_)
        self.labelnames = tuple(str(n) for n in labelnames)
        self._lock = threading.Lock()
        self._values: Dict[Tuple[str, ...], float] = {}

    def _add(self, amount: float, labels: Dict[str, Any]) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def total(self, **labels) -> float:
        """Sum of the samples whose labels include ``labels`` (all if none)."""
        match = [(self.labelnames.index(name), str(value))
                 for name, value in labels.items()]
        with self._lock:
            return sum(value for key, value in self._values.items()
                       if all(key[i] == want for i, want in match))

    def families(self) -> List[Family]:
        with self._lock:
            values = dict(self._values)
        if not self.labelnames and not values:
            values = {(): 0.0}
        samples = [("", dict(zip(self.labelnames, key)), value)
                   for key, value in sorted(values.items())]
        return [family(self.name, self.type_, self.help, samples)]


class Counter(_Scalar):
    """Monotonically increasing value, optionally per label set."""

    type_ = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._add(amount, labels)


class Gauge(_Scalar):
    """A value that can go up and down, optionally per label set."""

    type_ = "gauge"

    def set(self, value: float, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        self._add(amount, labels)

    def dec(self, amount: float = 1.0, **labels) -> None:
        self._add(-float(amount), labels)


class Histogram:
    """Fixed-bucket histogram: cumulative bucket counts plus sum/count."""

    def __init__(self, name: str, help_: str,
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        self.name = _check_name(name)
        self.help = str(help_)
        self.labelnames = tuple(str(n) for n in labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds or any(not math.isfinite(b) for b in bounds):
            raise ValueError("histogram buckets must be finite and non-empty")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be distinct")
        self.buckets = tuple(bounds)
        self._lock = threading.Lock()
        # per label set: [per-bucket counts..., +Inf count], sum
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}

    def observe(self, value: float, **labels) -> None:
        value = float(value)
        key = _label_key(self.labelnames, labels)
        # Index of the first bucket with value <= bound; len(buckets) = +Inf.
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
                self._sums[key] = 0.0
            counts[index] += 1
            self._sums[key] += value

    def families(self) -> List[Family]:
        with self._lock:
            counts = {key: list(value) for key, value in self._counts.items()}
            sums = dict(self._sums)
        samples: List[Tuple[str, Dict[str, str], float]] = []
        for key in sorted(counts):
            labels = dict(zip(self.labelnames, key))
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts[key]):
                cumulative += bucket_count
                samples.append(("_bucket", {**labels, "le": _format_value(bound)},
                                float(cumulative)))
            cumulative += counts[key][-1]
            samples.append(("_bucket", {**labels, "le": "+Inf"},
                            float(cumulative)))
            samples.append(("_sum", labels, sums[key]))
            samples.append(("_count", labels, float(cumulative)))
        if not samples and not self.labelnames:
            cumulative = 0.0
            for bound in self.buckets:
                samples.append(("_bucket", {"le": _format_value(bound)}, 0.0))
            samples.append(("_bucket", {"le": "+Inf"}, 0.0))
            samples.append(("_sum", {}, 0.0))
            samples.append(("_count", {}, 0.0))
        return [family(self.name, "histogram", self.help, samples)]


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _escape_help(value: str) -> str:
    return str(value).replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    value = float(value)
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def exposition(families: Iterable[Family]) -> str:
    """Prometheus text exposition of ``families``.

    When two sources export the same family name the first one wins
    (``# HELP`` / ``# TYPE`` may appear only once per exposition).
    """
    seen = set()
    lines: List[str] = []
    for name, type_, help_, samples in families:
        if name in seen:
            continue
        seen.add(name)
        lines.append(f"# HELP {name} {_escape_help(help_)}")
        lines.append(f"# TYPE {name} {type_}")
        for suffix, labels, value in samples:
            if labels:
                rendered = ",".join(
                    f'{key}="{_escape_label(labels[key])}"' for key in labels)
                lines.append(
                    f"{name}{suffix}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{name}{suffix} {_format_value(value)}")
    return "\n".join(lines) + "\n"


class MetricsRegistry:
    """Named instruments, rendered as Prometheus text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _instrument(self, cls, name: str, help_: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}")
                return existing
            instrument = cls(name, help_, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_: str,
                labelnames: Sequence[str] = ()) -> Counter:
        return self._instrument(Counter, name, help_, labelnames=labelnames)

    def gauge(self, name: str, help_: str,
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._instrument(Gauge, name, help_, labelnames=labelnames)

    def histogram(self, name: str, help_: str,
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._instrument(Histogram, name, help_,
                                labelnames=labelnames, buckets=buckets)

    def collect(self) -> List[Family]:
        with self._lock:
            instruments = list(self._instruments.values())
        families: List[Family] = []
        for instrument in instruments:
            families.extend(instrument.families())
        return families

    def render(self) -> str:
        """Prometheus text exposition of this registry's instruments."""
        return exposition(self.collect())


_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (always-on instruments live here)."""
    return _DEFAULT
