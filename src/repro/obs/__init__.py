"""Dependency-free telemetry: trace spans, a metrics registry, exposition.

Two pillars live here, deliberately isolated from the rest of ``repro`` so
every layer (logic core, proof search, service) can import them
without cycles:

- :mod:`repro.obs.trace` — hierarchical spans with explicit
  :class:`~repro.obs.trace.TraceContext` propagation across process forks
  and HTTP hops (``X-Repro-Trace``).
- :mod:`repro.obs.metrics` — process-global ``Counter``/``Gauge``/
  ``Histogram`` registry with Prometheus text exposition and deterministic
  cross-process counter merges.

Tracing is **off** by default and the disabled path allocates nothing
(``tracer.span(...)`` returns a module singleton no-op span).  Enable it
with ``REPRO_TRACE=1`` (``REPRO_TRACE=json`` additionally emits each
finished span as a JSON line on stderr) or programmatically via
:func:`~repro.obs.trace.enable_tracing`; ``repro serve`` enables it for
every server process.
"""

from repro.obs.metrics import MetricsRegistry, get_registry, reset_registry
from repro.obs.trace import (
    TRACE_HEADER,
    TraceContext,
    Tracer,
    enable_tracing,
    export_obs_state,
    get_tracer,
    install_child_obs,
)

__all__ = [
    "TRACE_HEADER",
    "TraceContext",
    "Tracer",
    "MetricsRegistry",
    "enable_tracing",
    "export_obs_state",
    "get_registry",
    "get_tracer",
    "install_child_obs",
    "reset_registry",
]
