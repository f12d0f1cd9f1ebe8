"""The synthesis service layer: orchestration on top of the library calls.

* :mod:`repro.service.api`      — the versioned, typed wire contract:
  request/response dataclasses with deterministic JSON round-trips and the
  structured :class:`~repro.service.api.ApiError` taxonomy.
* :mod:`repro.service.cache`    — content-addressed result cache (LRU +
  optional persistent disk tier with cost-aware eviction, bounded-memory
  hooks).
* :mod:`repro.service.pipeline` — the staged pipeline with per-stage timings
  and provenance (:class:`PipelineReport`).
* :mod:`repro.service.registry` — named, discoverable problems: the paper's
  examples plus parametric scenario families.
* :mod:`repro.service.workers`  — the one job runner: typed synthesize
  requests inline or in an isolated, deadlined worker process, and sweeps
  as batches of those requests.
* :mod:`repro.service.server`   — :class:`SynthesisService` (cache +
  registry + bounded async job engine), the stdlib asyncio HTTP front-end
  (``python -m repro serve``, its operations declared once in ``ROUTES``)
  and :class:`~repro.service.server.RemoteService`, the client of a
  running server with the same methods.
* :mod:`repro.service.cli`      — ``python -m repro`` subcommands, each
  declared once and run against either service.
"""

from repro.service.api import (
    API_VERSION,
    ApiError,
    JobStatus,
    ProblemInfo,
    SweepRequest,
    SynthesizeRequest,
    VerifyRequest,
)
from repro.service.cache import CacheStats, SynthesisCache, spec_digest, spec_key
from repro.service.pipeline import PipelineReport, StageTiming, SynthesisPipeline
from repro.service.registry import (
    ProblemRegistry,
    RegistryEntry,
    build_default_registry,
    default_registry,
)
from repro.service.server import BackgroundServer, SynthesisService, serve
from repro.service.workers import SweepSummary, run_sweep

__all__ = [
    "API_VERSION",
    "ApiError",
    "JobStatus",
    "ProblemInfo",
    "SweepRequest",
    "SynthesizeRequest",
    "VerifyRequest",
    "CacheStats",
    "SynthesisCache",
    "spec_digest",
    "spec_key",
    "PipelineReport",
    "StageTiming",
    "SynthesisPipeline",
    "ProblemRegistry",
    "RegistryEntry",
    "build_default_registry",
    "default_registry",
    "BackgroundServer",
    "SynthesisService",
    "serve",
    "SweepSummary",
    "run_sweep",
]
