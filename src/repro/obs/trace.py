"""Hierarchical trace spans with cross-process and cross-HTTP propagation.

A span records ``trace_id``/``span_id``/``parent_id``, a wall-clock start,
a ``perf_counter`` duration, and a small attribute dict.  The current span
context lives in a :mod:`contextvars` variable, so nesting works naturally
inside one thread or asyncio task; crossing an executor thread, a forked
worker process, or an HTTP hop requires carrying a :class:`TraceContext`
explicitly (``run_request_in_process(trace_context=...)``, the
``options["obs"]`` dict shipped to sweep children, and the
``X-Repro-Trace`` request header respectively).

The disabled path is near-zero-cost: ``tracer.span(...)`` returns the
module-singleton :data:`NOOP_SPAN` without allocating anything, and no
buffer entries are created.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

TRACE_HEADER = "X-Repro-Trace"

_HEX = set("0123456789abcdef")


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """A (trace_id, span_id) pair — everything a child span needs to attach."""

    trace_id: str
    span_id: str

    def to_header(self) -> str:
        return f"{self.trace_id}:{self.span_id}"

    @classmethod
    def from_header(cls, value: Optional[str]) -> Optional["TraceContext"]:
        """Parse an ``X-Repro-Trace`` header; malformed values yield ``None``."""
        if not value:
            return None
        trace_id, sep, span_id = value.strip().partition(":")
        if not sep or not trace_id or not span_id:
            return None
        if len(trace_id) > 64 or len(span_id) > 64:
            return None
        if not (set(trace_id) <= _HEX and set(span_id) <= _HEX):
            return None
        return cls(trace_id, span_id)


_current_context: contextvars.ContextVar[Optional[TraceContext]] = contextvars.ContextVar(
    "repro_trace_context", default=None
)
_current_span: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_trace_span", default=None
)


class Span:
    """A live span; use as a context manager so it always finishes."""

    __slots__ = (
        "tracer",
        "context",
        "parent_id",
        "name",
        "start",
        "seconds",
        "attributes",
        "_start_perf",
        "_ctx_token",
        "_span_token",
        "_finished",
    )

    def __init__(
        self,
        tracer: "Tracer",
        context: TraceContext,
        parent_id: Optional[str],
        name: str,
        attributes: Dict[str, object],
    ) -> None:
        self.tracer = tracer
        self.context = context
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self.start = time.time()
        self.seconds = 0.0
        self._start_perf = time.perf_counter()
        self._ctx_token = _current_context.set(context)
        self._span_token = _current_span.set(self)
        self._finished = False

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def set_attributes(self, mapping: Mapping[str, object]) -> None:
        self.attributes.update(mapping)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "attributes": dict(self.attributes),
        }
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        return payload

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.seconds = time.perf_counter() - self._start_perf
        try:
            _current_span.reset(self._span_token)
            _current_context.reset(self._ctx_token)
        except ValueError:
            # Finished from a different context than it was opened in (should
            # not happen with `with`-block usage); leave the vars as they are.
            pass
        self.tracer._record(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and "error" not in self.attributes:
            self.attributes["error"] = f"{exc_type.__name__}: {exc}"
        self.finish()
        return False


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    context = None
    parent_id = None
    name = ""
    start = 0.0
    seconds = 0.0

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def set_attributes(self, mapping: Mapping[str, object]) -> None:
        pass

    def to_dict(self) -> Dict[str, object]:
        return {}

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()

_SPAN_KEYS = {"trace_id", "span_id", "name", "start", "seconds"}


class Tracer:
    """Produces spans and buffers finished ones per trace, bounded."""

    MAX_TRACES = 256
    MAX_SPANS_PER_TRACE = 2000

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._traces: "OrderedDict[str, List[Dict[str, object]]]" = OrderedDict()
        self._seen: Dict[str, set] = {}
        self._lock = threading.Lock()
        self._exporters: List[Callable[[Dict[str, object]], None]] = []
        self.dropped_spans = 0

    # -------------------------------------------------------------- creation
    def span(self, name: str, parent: Optional[TraceContext] = None, **attributes: object):
        """Open a span (use ``with``).  Disabled tracers return :data:`NOOP_SPAN`.

        ``parent`` overrides the contextvar-derived parent; pass it when the
        span is opened in a thread that did not inherit the caller's context
        (e.g. a sweep's worker threads).
        """
        if not self.enabled:
            return NOOP_SPAN
        parent_ctx = parent if parent is not None else _current_context.get()
        trace_id = parent_ctx.trace_id if parent_ctx is not None else _new_id(16)
        context = TraceContext(trace_id, _new_id(8))
        parent_id = parent_ctx.span_id if parent_ctx is not None else None
        return Span(self, context, parent_id, name, dict(attributes))

    # ------------------------------------------------------------ contextvar
    def current(self) -> Optional[TraceContext]:
        return _current_context.get()

    def current_span(self) -> Optional[Span]:
        return _current_span.get()

    def activate(self, context: Optional[TraceContext]) -> None:
        """Install ``context`` as the current parent (child-process entry)."""
        _current_context.set(context)
        _current_span.set(None)

    # --------------------------------------------------------------- buffers
    def _record(self, span: Span) -> None:
        payload = span.to_dict()
        self._store(payload)
        for exporter in self._exporters:
            try:
                exporter(payload)
            except Exception:
                pass

    def _store(self, payload: Dict[str, object]) -> None:
        trace_id = payload.get("trace_id")
        if not isinstance(trace_id, str):
            return
        span_id = payload.get("span_id")
        with self._lock:
            bucket = self._traces.get(trace_id)
            if bucket is None:
                while len(self._traces) >= self.MAX_TRACES:
                    evicted, _ = self._traces.popitem(last=False)
                    self._seen.pop(evicted, None)
                bucket = []
                self._traces[trace_id] = bucket
                self._seen[trace_id] = set()
            seen = self._seen[trace_id]
            if span_id in seen:
                # Same span arriving twice (a process adopting spans it
                # already recorded) is a no-op.
                return
            if len(bucket) >= self.MAX_SPANS_PER_TRACE:
                self.dropped_spans += 1
                return
            seen.add(span_id)
            bucket.append(payload)

    def adopt(self, spans: List[Mapping[str, object]]) -> int:
        """Merge spans exported by another process/node into this buffer."""
        adopted = 0
        for span in spans:
            if not isinstance(span, Mapping) or not _SPAN_KEYS <= set(span.keys()):
                continue
            self._store(dict(span))
            adopted += 1
        return adopted

    def spans_for(self, trace_id: str) -> List[Dict[str, object]]:
        """Finished spans of one trace, ordered by wall-clock start."""
        with self._lock:
            bucket = list(self._traces.get(trace_id, ()))
        bucket.sort(key=lambda span: (span.get("start", 0.0), span.get("span_id", "")))
        return bucket

    def export_all(self) -> List[Dict[str, object]]:
        """Every buffered span (worker children ship these over the pipe)."""
        with self._lock:
            buckets = [list(bucket) for bucket in self._traces.values()]
        spans = [span for bucket in buckets for span in bucket]
        spans.sort(key=lambda span: (span.get("start", 0.0), span.get("span_id", "")))
        return spans

    def trace_count(self) -> int:
        with self._lock:
            return len(self._traces)

    def add_exporter(self, exporter: Callable[[Dict[str, object]], None]) -> None:
        self._exporters.append(exporter)

    def reset(self) -> None:
        with self._lock:
            self._traces.clear()
            self._seen.clear()
            self.dropped_spans = 0


def _stderr_json_exporter(span: Dict[str, object]) -> None:
    sys.stderr.write(json.dumps({"event": "span", **span}, default=str, sort_keys=True) + "\n")


_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def enable_tracing(enabled: bool = True) -> Tracer:
    _TRACER.enabled = enabled
    return _TRACER


def configure_from_env(environ: Optional[Mapping[str, str]] = None) -> None:
    """Honour ``REPRO_TRACE``: truthy enables, ``json`` adds stderr export."""
    env = os.environ if environ is None else environ
    value = str(env.get("REPRO_TRACE", "")).strip().lower()
    if not value or value in {"0", "off", "false", "no"}:
        return
    _TRACER.enabled = True
    if value == "json":
        _TRACER.add_exporter(_stderr_json_exporter)


# -------------------------------------------------- child-process propagation
def export_obs_state(context: Optional[TraceContext] = None) -> Dict[str, object]:
    """Package tracer state for a worker child (picklable, tiny)."""
    ctx = context if context is not None else _TRACER.current()
    return {
        "enabled": _TRACER.enabled,
        "trace": ctx.to_header() if ctx is not None else None,
    }


def install_child_obs(state: Optional[Mapping[str, object]]) -> None:
    """Worker hook, run before each request: reset telemetry, adopt context.

    A forked worker inherits the parent's span buffer and metric values, and
    a long-lived one still holds those of its last request; both must be
    cleared or the parent would double-count them when the worker's
    snapshot merges back.
    """
    from repro.obs.metrics import get_registry

    _TRACER.reset()
    get_registry().reset()
    if not state:
        _TRACER.enabled = False
        _TRACER.activate(None)
        return
    _TRACER.enabled = bool(state.get("enabled"))
    header = state.get("trace")
    _TRACER.activate(TraceContext.from_header(header if isinstance(header, str) else None))


configure_from_env()
