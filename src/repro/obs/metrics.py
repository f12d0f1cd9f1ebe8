"""Process-global metrics registry with Prometheus text exposition.

Three instrument kinds — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — registered by name in a :class:`MetricsRegistry`.
Registration is idempotent (``registry.counter(name, ...)`` returns the
existing instrument), so call sites fetch instruments at use time instead
of caching handles; that keeps :meth:`MetricsRegistry.reset` safe in
forked worker children.

Existing ``stats()`` surfaces (cache tiers, search tables, interners, job
engine) are adapted through *collectors*: callables invoked before each
scrape that copy the source values into instruments.  A collector that
returns ``False`` is pruned — service collectors hold only a weakref to
their service so dead services unregister themselves.

Histogram bucket boundaries are fixed (:data:`DEFAULT_BUCKETS`) so
counter/histogram snapshots from worker processes merge deterministically
into the parent registry (:meth:`MetricsRegistry.merge_snapshot`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_LABEL_SEP = "\x1f"


def _label_key(labelnames: Tuple[str, ...], labels: Mapping[str, object]) -> str:
    if set(labels) != set(labelnames):
        raise ValueError(f"expected labels {labelnames}, got {tuple(sorted(labels))}")
    return _LABEL_SEP.join(str(labels[name]) for name in labelnames)


def _split_key(key: str, labelnames: Tuple[str, ...]) -> Dict[str, str]:
    if not labelnames:
        return {}
    return dict(zip(labelnames, key.split(_LABEL_SEP)))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Mapping[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(name, str(value)) for name, value in labels.items()]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class _ScalarMetric:
    """Shared machinery for counters and gauges: labelled float cells."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: Dict[str, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: object) -> None:
        """Set the cell to an absolute value (adapter for cumulative sources)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels: object) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        with self._lock:
            items = list(self._values.items())
        return [(_split_key(key, self.labelnames), value) for key, value in items]

    def _add_serialized(self, key: str, value: float) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(value)

    def _snapshot_values(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._values)


class Counter(_ScalarMetric):
    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)


class Gauge(_ScalarMetric):
    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)


class Histogram:
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket boundary")
        self._cells: Dict[str, List[float]] = {}
        self._lock = threading.Lock()

    def _cell(self, key: str) -> List[float]:
        cell = self._cells.get(key)
        if cell is None:
            # bucket counts..., sum, count
            cell = [0.0] * (len(self.buckets) + 2)
            self._cells[key] = cell
        return cell

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(self.labelnames, labels)
        value = float(value)
        with self._lock:
            cell = self._cell(key)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    cell[index] += 1.0
            cell[-2] += value
            cell[-1] += 1.0

    def samples(self) -> List[Tuple[Dict[str, str], List[float], float, float]]:
        with self._lock:
            items = [(key, list(cell)) for key, cell in self._cells.items()]
        return [
            (_split_key(key, self.labelnames), cell[:-2], cell[-2], cell[-1])
            for key, cell in items
        ]

    def _add_serialized(self, key: str, cell: Sequence[float]) -> None:
        if len(cell) != len(self.buckets) + 2:
            return
        with self._lock:
            mine = self._cell(key)
            for index, value in enumerate(cell):
                mine[index] += float(value)

    def _snapshot_cells(self) -> Dict[str, List[float]]:
        with self._lock:
            return {key: list(cell) for key, cell in self._cells.items()}


class MetricsRegistry:
    """Named instruments plus scrape-time collectors."""

    def __init__(self) -> None:
        self._metrics: "OrderedDict[str, object]" = OrderedDict()
        self._collectors: List[Callable[[], object]] = []
        self._lock = threading.Lock()
        self.started_at = time.time()
        # Monotonic twin of ``started_at``: uptime arithmetic must survive
        # wall-clock steps (NTP, VM resume), so durations never use time.time.
        self.started_monotonic = time.monotonic()

    # --------------------------------------------------------- registration
    def _get_or_create(self, cls, name: str, help: str, labelnames: Sequence[str], **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, labelnames, **kwargs)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls):
            raise ValueError(f"metric {name!r} already registered as {metric.kind}")
        if metric.labelnames != tuple(labelnames):
            raise ValueError(f"metric {name!r} already registered with labels {metric.labelnames}")
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def register_collector(self, collector: Callable[[], object]) -> None:
        with self._lock:
            self._collectors.append(collector)

    def run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        dead = [collector for collector in collectors if collector() is False]
        if dead:
            with self._lock:
                self._collectors = [c for c in self._collectors if c not in dead]

    # ----------------------------------------------------------- exposition
    def _metric_list(self) -> List[object]:
        with self._lock:
            return list(self._metrics.values())

    def counter_total(self, name: str) -> float:
        with self._lock:
            metric = self._metrics.get(name)
        if isinstance(metric, (Counter, Gauge)):
            return metric.total()
        return 0.0

    def render_prometheus(self) -> str:
        self.run_collectors()
        lines: List[str] = []
        for metric in self._metric_list():
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for labels, counts, total, count in metric.samples():
                    cumulative = 0.0
                    for bound, bucket_count in zip(metric.buckets, counts):
                        cumulative = bucket_count
                        le = _render_labels(labels, ("le", _format_value(bound)))
                        lines.append(f"{metric.name}_bucket{le} {_format_value(cumulative)}")
                    inf = _render_labels(labels, ("le", "+Inf"))
                    lines.append(f"{metric.name}_bucket{inf} {_format_value(count)}")
                    lines.append(f"{metric.name}_sum{_render_labels(labels)} {repr(float(total))}")
                    lines.append(f"{metric.name}_count{_render_labels(labels)} {_format_value(count)}")
            else:
                for labels, value in sorted(metric.samples(), key=lambda item: sorted(item[0].items())):
                    lines.append(f"{metric.name}{_render_labels(labels)} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def collect(self) -> Dict[str, object]:
        """A JSON-able snapshot of every instrument (``?format=json``)."""
        self.run_collectors()
        metrics: List[Dict[str, object]] = []
        for metric in self._metric_list():
            entry: Dict[str, object] = {
                "name": metric.name,
                "type": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["samples"] = [
                    {
                        "labels": labels,
                        "bucket_counts": counts,
                        "sum": total,
                        "count": count,
                    }
                    for labels, counts, total, count in metric.samples()
                ]
            else:
                entry["samples"] = [
                    {"labels": labels, "value": value}
                    for labels, value in sorted(metric.samples(), key=lambda item: sorted(item[0].items()))
                ]
            metrics.append(entry)
        return {"metrics": metrics}

    # ------------------------------------------------- cross-process merges
    def snapshot(self) -> Dict[str, object]:
        """Counters + histograms in a picklable form for merge_snapshot."""
        counters: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for metric in self._metric_list():
            if isinstance(metric, Counter):
                values = metric._snapshot_values()
                if values:
                    counters[metric.name] = {
                        "help": metric.help,
                        "labelnames": list(metric.labelnames),
                        "values": values,
                    }
            elif isinstance(metric, Histogram):
                cells = metric._snapshot_cells()
                if cells:
                    histograms[metric.name] = {
                        "help": metric.help,
                        "labelnames": list(metric.labelnames),
                        "buckets": list(metric.buckets),
                        "cells": cells,
                    }
        if not counters and not histograms:
            return {}
        return {"counters": counters, "histograms": histograms}

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Add a worker child's counter/histogram snapshot into this registry."""
        counters = snapshot.get("counters")
        if isinstance(counters, Mapping):
            for name, data in counters.items():
                if not isinstance(data, Mapping):
                    continue
                metric = self.counter(
                    str(name), str(data.get("help", "")), tuple(data.get("labelnames", ()))
                )
                values = data.get("values")
                if isinstance(values, Mapping):
                    for key, value in values.items():
                        metric._add_serialized(str(key), float(value))
        histograms = snapshot.get("histograms")
        if isinstance(histograms, Mapping):
            for name, data in histograms.items():
                if not isinstance(data, Mapping):
                    continue
                metric = self.histogram(
                    str(name),
                    str(data.get("help", "")),
                    tuple(data.get("labelnames", ())),
                    buckets=tuple(data.get("buckets", DEFAULT_BUCKETS)),
                )
                cells = data.get("cells")
                if isinstance(cells, Mapping):
                    for key, cell in cells.items():
                        metric._add_serialized(str(key), list(cell))

    def reset(self) -> None:
        """Drop every instrument and collector (forked-child entry hook)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()
            self.started_at = time.time()
            self.started_monotonic = time.monotonic()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def reset_registry() -> None:
    _REGISTRY.reset()


def process_uptime_seconds() -> float:
    """Seconds since registry start, immune to wall-clock steps."""
    return time.monotonic() - _REGISTRY.started_monotonic
