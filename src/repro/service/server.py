"""The synthesis service core and its asyncio HTTP front-end.

:class:`SynthesisService` is the transport-agnostic heart of the service
layer: it owns the problem registry, the content-addressed result cache and a
**bounded async job engine** (submit → poll/await → result), and exposes the
typed contracts of :mod:`repro.service.api` to every front-end.  The CLI
calls its synchronous methods in-process; the HTTP server speaks the same
objects over the wire, so ``repro synthesize`` and ``POST /v1/synthesize``
cannot drift apart.

Job engine invariants
=====================

* **One job table.**  Synthesize jobs and sweep jobs share one ``_Job``
  record, one table and one run/finish/wait path; the request type tells
  them apart.  Their ids stay in separate namespaces (``/v1/jobs/<sweep-id>``
  is ``unknown_job``), finished-job retention is per kind, and one
  ``queue_limit`` bounds both.
* **The event loop never blocks on proof search.**  Each job runs on a
  long-lived pool worker process
  (:func:`repro.service.workers.run_request_in_process` — the runner sweeps
  use too), awaited through an executor thread.  The loop stays free to
  answer ``/healthz``, job polls and further submissions while searches
  run.  The pool forks its first worker at the first cold job and grows
  only to the peak number of concurrent jobs; all its workers, busy ones
  too, end when the server stops.
* **Warm-cache submissions never enter the queue.**  ``submit`` peeks the
  cache first (:meth:`SynthesisCache.peek` — no stats mutation); a hit is
  served inline as an already-``done`` job, concurrent hits cost a dict
  lookup each, and the worker slots stay reserved for cold traffic.
* **The queue is bounded.**  At most ``queue_limit`` jobs may be queued or
  running; submissions past the bound fail fast with the structured
  ``queue_full`` error instead of growing an unbounded backlog.
* **Jobs are cancellable and deadlined.**  ``cancel`` terminates a running
  job's worker process and drops it from the pool; a per-job timeout
  (request field or service default) does the same and surfaces the
  structured ``timeout`` error.  A worker that dies fails only its job,
  with ``internal``; the next job forks a fresh one.
* **Results flow back into the cache.**  A cold job's result rides home
  over the result pipe, without its proof (the witness tier keeps proofs),
  and is adopted into the parent's memory tier, so the next identical
  submission is a warm hit even without a disk tier.

The HTTP layer is a deliberately small stdlib-only HTTP/1.1 implementation
over ``asyncio.start_server`` (one JSON document per request/response,
``Connection: close``) — enough surface for the v1 API without pulling in a
framework the environment does not ship.  :data:`ROUTES` declares every
operation once, as ``(method, path template, handler)``; the server
dispatches through it and :class:`RemoteService`, the synchronous client of
a running server, takes its paths from it.

Sweeps are jobs in the same table: ``submit_sweep`` resolves the problem
list and runs :func:`repro.service.workers.run_sweep` on an executor thread,
which turns each problem into one synthesize request on the same worker
pool.  The sweep inherits this service's cache directory when the request
names none, so its workers warm the same disk tier as synthesize jobs.
"""

from __future__ import annotations

import asyncio
import base64
import contextvars
import itertools
import json
import logging
import os
import threading
import time
import weakref
from bisect import bisect_right
from collections import OrderedDict
from http import HTTPStatus
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple, Union
from urllib.parse import parse_qs, quote, urlencode, urlsplit

from repro.core.node import canonical_nodes
from repro.obs.metrics import get_registry, process_uptime_seconds
from repro.obs.trace import TRACE_HEADER, TraceContext, get_tracer
from repro.proofs.search import last_tables_stats
from repro.service import api
from repro.service.cache import SynthesisCache, disk_entries
from repro.service.registry import ProblemRegistry, RegistryEntry, default_registry
from repro.service.workers import (
    execute_synthesize_request,
    resolve_request_entry,
    resolve_sweep_names,
    run_request_in_process,
    run_sweep,
    stop_workers,
)

logger = logging.getLogger(__name__)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8075
#: Bound on jobs queued + running; past it ``submit`` fails with queue_full.
DEFAULT_QUEUE_LIMIT = 64
#: Finished jobs of each kind (synthesize, sweep) retained for polling
#: before the oldest are forgotten.
FINISHED_JOB_RETENTION = 256


@dataclass
class _Job:
    """Mutable engine-side record of one async job (snapshots go out typed).

    The request type tells the two kinds apart: a
    :class:`~repro.service.api.SynthesizeRequest` job answers
    :class:`~repro.service.api.JobStatus` snapshots, a
    :class:`~repro.service.api.SweepRequest` job answers
    :class:`~repro.service.api.SweepJobStatus` snapshots.
    """

    id: str
    request: Union[api.SynthesizeRequest, api.SweepRequest]
    state: str
    #: Wall-clock timestamps — *display only* (they go out on the wire).
    #: All ordering/duration arithmetic uses the ``*_mono`` fields so a
    #: wall-clock jump (NTP step, VM resume) cannot reorder or misage jobs.
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    submitted_mono: float = 0.0
    finished_mono: Optional[float] = None
    #: The resolved registry entry of a synthesize job (a synthetic one for
    #: ``spec_text`` jobs, whose requests carry no registry name).
    entry: Optional[RegistryEntry] = None
    result: Union[api.SynthesisResult, api.SweepResponse, None] = None
    error: Optional[api.ErrorInfo] = None
    task: Optional[asyncio.Task] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    done_event: Optional[asyncio.Event] = None
    trace_id: Optional[str] = None

    @property
    def is_sweep(self) -> bool:
        return isinstance(self.request, api.SweepRequest)

    @property
    def problem_name(self) -> str:
        return self.entry.name if self.entry is not None else self.request.problem

    @property
    def active(self) -> bool:
        return self.state in (api.JOB_QUEUED, api.JOB_RUNNING)


class SynthesisService:
    """The service core: registry + cache + bounded async job engine.

    Synchronous methods (``list_problems``/``synthesize``/``verify``/
    ``sweep``/``cache_stats``) run inline and are what the CLI uses; the
    ``async`` job methods (``submit``/``job_status``/``wait``/``cancel``)
    power the HTTP front-end.  Both speak :mod:`repro.service.api` types and
    raise :class:`~repro.service.api.ApiError` exclusively.
    """

    def __init__(
        self,
        registry: Optional[ProblemRegistry] = None,
        cache: Optional[SynthesisCache] = None,
        cache_dir: Optional[str] = None,
        max_workers: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        default_job_timeout: Optional[float] = None,
    ) -> None:
        self.registry = registry or default_registry()
        self.cache_dir = str(cache_dir) if cache_dir else None
        if cache is not None:
            self.cache = cache
        else:
            try:
                self.cache = SynthesisCache(disk_dir=self.cache_dir)
            except OSError as exc:
                raise api.invalid_request(
                    f"cannot use cache dir {self.cache_dir!r}: {type(exc).__name__}: {exc}"
                ) from exc
        self.max_workers = max_workers or (os.cpu_count() or 2)
        self.queue_limit = queue_limit
        self.default_job_timeout = default_job_timeout
        self.jobs_enqueued = 0
        self.warm_submissions = 0
        self.sweeps_enqueued = 0
        #: Synthesize and sweep jobs, keyed by id (``job-…`` / ``sweep-…``).
        self._jobs: Dict[str, _Job] = {}
        #: Per kind (keyed by ``is_sweep``), the ids of finished jobs in the
        #: order ``_finish`` saw them, which is ``finished_mono`` order:
        #: retention evicts from the front without scanning ``_jobs``.
        self._finished: Dict[bool, "OrderedDict[str, None]"] = {False: OrderedDict(), True: OrderedDict()}
        #: Ids of the queued or running jobs in ``_jobs``.
        self._active: Set[str] = set()
        self._ids = itertools.count(1)
        self._worker_slots: Optional[asyncio.Semaphore] = None
        _register_service_collectors(self)

    # ------------------------------------------------------------ sync methods
    def _entry(self, name: str) -> RegistryEntry:
        try:
            return self.registry.get(name)
        except KeyError as exc:
            raise api.unknown_problem(exc.args[0]) from exc

    def list_problems(self, tag: Optional[str] = None) -> List[api.ProblemInfo]:
        return [entry.describe() for entry in self.registry.entries(tag=tag)]

    def list_problems_page(
        self,
        tag: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> api.ProblemPage:
        """One page of the (optionally tag-filtered) registry listing.

        Ordering is registration order — stable across requests — so pages
        tile the listing.  The cursor is opaque and only valid for the same
        ``tag`` filter it was issued under; anything else is
        ``invalid_request``.
        """
        infos = self.list_problems(tag=tag)
        start = 0
        if cursor is not None:
            last_name = _decode_cursor(cursor)
            names = [info.name for info in infos]
            if last_name not in names:
                raise api.invalid_request(
                    f"unknown cursor {cursor!r} for this listing", cursor=cursor
                )
            start = names.index(last_name) + 1
        page = infos[start:] if limit is None else infos[start : start + limit]
        next_cursor = None
        if page and start + len(page) < len(infos):
            next_cursor = _encode_cursor(page[-1].name)
        return api.ProblemPage(problems=tuple(page), next_cursor=next_cursor)

    def synthesize(self, request: api.SynthesizeRequest) -> api.SynthesisResult:
        """Run one request inline (the CLI path; blocks until finished)."""
        response, _, _ = execute_synthesize_request(
            request, registry=self.registry, cache=self.cache
        )
        return response

    def verify(self, request: api.VerifyRequest) -> api.SynthesisResult:
        entry = self._entry(request.problem)
        if entry.instances is None:
            raise api.invalid_request(
                f"problem {request.problem!r} has no instance generator; cannot verify"
            )
        return self.synthesize(request.to_synthesize())

    def sweep(self, request: api.SweepRequest) -> api.SweepResponse:
        summary = run_sweep(
            names=resolve_sweep_names(request, self.registry),
            registry=self.registry,
            processes=request.processes,
            timeout=request.timeout,
            cache_dir=request.cache_dir,
            max_depth=request.max_depth,
            verify_scale=request.verify_scale,
        )
        return summary.to_api()

    def cache_stats(
        self,
        cache_dir: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Union[api.DiskCacheStats, api.ProcessCacheStats]:
        """Disk inventory for ``cache_dir``, else this process's telemetry.

        ``limit``/``cursor`` paginate the entry listing: paginated pages are
        ordered digest-ascending (stable under concurrent stores, and a
        cursor pointing at a since-evicted entry degrades to "resume after
        where it would sort" instead of an error).  ``total_payload_bytes``
        always covers the whole directory, not just the page.
        """
        if not cache_dir:
            if limit is not None or cursor is not None:
                raise api.invalid_request(
                    "limit/cursor apply to the disk entry listing; pass cache_dir"
                )
            return api.ProcessCacheStats(
                intern_table={"nodes": canonical_nodes()},
                search_tables=last_tables_stats(),
                result_cache=self.cache.stats.as_dict(),
                witness_store=(
                    self.cache.witnesses.stats.as_dict()
                    if self.cache.witnesses is not None
                    else {}
                ),
            )
        entries = disk_entries(cache_dir)
        total_payload_bytes = sum(entry.payload_bytes for entry in entries)
        next_cursor = None
        if limit is not None or cursor is not None:
            entries = sorted(entries, key=lambda entry: entry.digest)
            start = 0
            if cursor is not None:
                digests = [entry.digest for entry in entries]
                start = bisect_right(digests, _decode_cursor(cursor))
            page = entries[start:] if limit is None else entries[start : start + limit]
            if page and start + len(page) < len(entries):
                next_cursor = _encode_cursor(page[-1].digest)
            entries = page
        return api.DiskCacheStats(
            cache_dir=str(cache_dir),
            entries=tuple(entry.to_api() for entry in entries),
            total_payload_bytes=total_payload_bytes,
            next_cursor=next_cursor,
        )

    # --------------------------------------------------------- witness store
    def _witness_store(self):
        store = self.cache.witnesses
        if store is None:
            raise api.invalid_request(
                "witness store unavailable: the server cache has no disk directory"
            )
        return store

    def list_witnesses(self, limit: Optional[int] = None) -> api.WitnessPage:
        """The witness-store inventory (``GET /v1/witnesses``), newest first."""
        if limit is not None and limit < 1:
            raise api.invalid_request("limit must be at least 1")
        summaries = self._witness_store().list()
        if limit is not None:
            summaries = summaries[:limit]
        return api.WitnessPage(
            witnesses=tuple(_witness_info(summary, summary.payload_bytes) for summary in summaries)
        )

    def get_witness(self, digest: str) -> api.WitnessPayload:
        """One witness's portable payload (``GET /v1/witnesses/<digest>``)."""
        store = self._witness_store()
        blob = store.export_payload(digest)
        if blob is None:
            raise api.ApiError("not_found", f"no witness {digest!r} in this store")
        summary = store.summary(digest)
        info = None if summary is None else _witness_info(summary, summary.payload_bytes)
        return api.WitnessPayload(payload=base64.b64encode(blob).decode("ascii"), info=info)

    def import_witness(self, payload: api.WitnessPayload) -> api.WitnessInfo:
        """Adopt a serialized witness payload (``PUT /v1/witnesses``).

        The payload re-validates end to end (fingerprint, digest, the proof
        tree's shape, full proof re-check) before anything touches disk; a
        bad payload is the caller's error, not a silent miss.
        """
        from repro.errors import ProofError

        try:
            blob = base64.b64decode(payload.payload, validate=True)
        except Exception as exc:
            raise api.invalid_request(f"witness payload is not valid base64: {exc}") from exc
        store = self._witness_store()
        try:
            record = store.import_payload(blob)
        except ProofError as exc:
            raise api.invalid_request(f"witness payload rejected: {exc}") from exc
        return _witness_info(record, len(blob))

    def queue_depth(self) -> int:
        """Jobs currently queued or running (synthesize jobs + sweep jobs)."""
        return len(self._active)

    def health(self) -> Dict[str, object]:
        counts = {state: 0 for state in api.JOB_STATES}
        sweep_counts = {state: 0 for state in api.JOB_STATES}
        for job in self._jobs.values():
            (sweep_counts if job.is_sweep else counts)[job.state] += 1
        registry = get_registry()
        return {
            "status": "ok",
            "version": api.API_VERSION,
            "uptime_seconds": process_uptime_seconds(),
            "requests_total": registry.counter_total("repro_http_requests_total"),
            "errors_total": registry.counter_total("repro_http_errors_total"),
            "problems": len(self.registry),
            "jobs": counts,
            "jobs_enqueued": self.jobs_enqueued,
            "warm_submissions": self.warm_submissions,
            "sweeps": sweep_counts,
            "sweeps_enqueued": self.sweeps_enqueued,
            "cache": self.cache.stats.as_dict(),
            "queue_depth": self.queue_depth(),
        }

    # ------------------------------------------------------------- job engine
    def _snapshot(self, job: _Job) -> Union[api.JobStatus, api.SweepJobStatus]:
        common = dict(
            id=job.id,
            state=job.state,
            submitted_at=job.submitted_at,
            started_at=job.started_at,
            finished_at=job.finished_at,
            result=job.result,
            error=job.error,
        )
        if job.is_sweep:
            return api.SweepJobStatus(**common)
        return api.JobStatus(problem=job.problem_name, **common)

    def _get_job(self, job_id: str, sweep: bool = False) -> _Job:
        """The job ``job_id`` of the given kind; the kinds' ids never cross."""
        job = self._jobs.get(job_id)
        if job is None or job.is_sweep != sweep:
            raise api.unknown_job(job_id)
        return job

    def _new_job(self, job_id: str, request, **values) -> _Job:
        context = get_tracer().current()
        return _Job(
            id=job_id,
            request=request,
            state=api.JOB_QUEUED,
            submitted_at=time.time(),
            submitted_mono=time.monotonic(),
            trace_id=context.trace_id if context is not None else None,
            **values,
        )

    def _add(self, job: _Job) -> None:
        """Enter ``job`` in the table, then forget the oldest finished jobs of
        its kind past the retention bound.

        Retention is per kind, so a burst of one kind never evicts the other.
        The victims come from the front of the kind's finish-order index, so
        a backwards wall-clock step cannot make a fresh result the victim
        while stale ones linger, and the cost does not grow with the table.
        """
        self._jobs[job.id] = job
        if job.active:
            self._active.add(job.id)
        finished = self._finished[job.is_sweep]
        while len(finished) > FINISHED_JOB_RETENTION:
            victim, _ = finished.popitem(last=False)
            self._jobs.pop(victim, None)

    def _enqueue(self, job: _Job, work, span_name: str, **span_attributes) -> None:
        """Queue ``job``; ``work()`` runs it on an executor thread.

        The thread runs ``work`` in a copy of the job span's context, so spans
        ``work`` opens, and the context it hands to worker processes, chain to
        the job span.
        """
        if self._worker_slots is None:
            self._worker_slots = asyncio.Semaphore(self.max_workers)
        job.done_event = asyncio.Event()
        job.task = asyncio.create_task(self._run_job(job, work, span_name, span_attributes))
        self._add(job)

    def _warm_response(
        self, request: api.SynthesizeRequest, entry: RegistryEntry
    ) -> Optional[api.SynthesisResult]:
        """Serve ``request`` from the cache if that is cheap and sufficient.

        Only cache-tier traffic qualifies: a verification family or a custom
        cache directory means real work that belongs on a worker.  The peek
        is mutation-free; on a hit the inline pipeline run is just validate +
        lookup (microseconds), which is safe on the event loop.
        """
        if request.verify_scale or request.cache_dir:
            return None
        problem = entry.problem()
        if self.cache.peek(problem) is None:
            return None
        # Confirm the hit before running anything inline: a peeked disk entry
        # can be corrupt or concurrently evicted, and falling through to a
        # cold proof search here would block the event loop for seconds.
        # ``lookup`` promotes the entry to the memory tier, so the inline
        # pipeline run below is guaranteed a memory hit (nothing can evict
        # it between these two statements — no awaits, same thread).
        result, _tier = self.cache.lookup(problem)
        if result is None:
            return None
        response, _, _ = execute_synthesize_request(
            request, registry=self.registry, cache=self.cache
        )
        return response

    async def submit(self, request: api.SynthesizeRequest) -> api.JobStatus:
        """Enqueue a job — or answer it inline when the cache is warm.

        ``spec_text`` submissions resolve to a synthetic registry entry here
        (parse errors surface as the structured ``parse_error`` before
        anything is enqueued); registry submissions resolve by name.
        """
        entry = resolve_request_entry(request, self.registry)
        job_id = f"job-{next(self._ids):06d}"
        job = self._new_job(job_id, request, entry=entry)
        warm = self._warm_response(request, entry)
        if warm is not None:
            self.warm_submissions += 1
            job.started_at = job.submitted_at
            self._finish(job, api.JOB_DONE, result=warm)
            self._add(job)
            return self._snapshot(job)
        if self.queue_depth() >= self.queue_limit:
            raise api.queue_full(self.queue_limit)
        self.jobs_enqueued += 1

        def work():
            return run_request_in_process(
                request,
                cache_dir=request.cache_dir or self.cache_dir,
                timeout=request.timeout or self.default_job_timeout,
                cancel=job.cancel_event,
                trace_context=get_tracer().current(),
            )

        self._enqueue(job, work, "job", problem=job.problem_name)
        return self._snapshot(job)

    async def submit_sweep(self, request: api.SweepRequest) -> api.SweepJobStatus:
        """Enqueue a sweep as one pollable job (``POST /v1/sweeps``).

        The sweep's workers share this service's cache directory when the
        request names none.
        """
        if self.queue_depth() >= self.queue_limit:
            raise api.queue_full(self.queue_limit)
        if request.cache_dir is None and self.cache_dir is not None:
            request = replace(request, cache_dir=self.cache_dir)
        job = self._new_job(f"sweep-{next(self._ids):06d}", request)
        names = resolve_sweep_names(request, self.registry)
        self.sweeps_enqueued += 1
        self._enqueue(job, partial(self.sweep, request), "sweep.job", problems=len(names))
        return self._snapshot(job)

    async def _run_job(self, job: _Job, work, span_name: str, span_attributes) -> None:
        try:
            async with self._worker_slots:
                if job.cancel_event.is_set():
                    self._finish(job, api.JOB_CANCELLED, error=api.job_cancelled(job.id).info)
                    return
                job.state = api.JOB_RUNNING
                job.started_at = time.time()
                loop = asyncio.get_running_loop()
                tracer = get_tracer()
                # The span closes (and is recorded) before this coroutine
                # yields after ``_finish``, so ``wait``-ers that resume on the
                # done event always see the complete job span.
                with tracer.span(span_name, job_id=job.id, **span_attributes) as job_span:
                    if job_span.context is not None:
                        job.trace_id = job_span.context.trace_id
                    try:
                        result = await loop.run_in_executor(None, contextvars.copy_context().run, work)
                    except api.ApiError as exc:
                        job_span.set_attribute("error", exc.code)
                        state = api.JOB_CANCELLED if exc.code == "cancelled" else api.JOB_FAILED
                        self._finish(job, state, error=exc.info)
                        return
                    except Exception as exc:  # noqa: BLE001 - jobs never crash the engine
                        job_span.set_attribute("error", type(exc).__name__)
                        self._finish(
                            job,
                            api.JOB_FAILED,
                            error=api.ApiError("internal", f"{type(exc).__name__}: {exc}").info,
                        )
                        return
                    if not job.is_sweep:
                        result, synthesized = result
                        self._adopt_result(job, synthesized)
                    self._finish(job, api.JOB_DONE, result=result)
        except asyncio.CancelledError:
            if not job.finished_at:
                self._finish(job, api.JOB_CANCELLED, error=api.job_cancelled(job.id).info)

    def _adopt_result(self, job: _Job, result) -> None:
        """Warm the parent's memory tier with the worker's result (sent without its proof)."""
        if result is None:
            return
        try:
            entry = job.entry if job.entry is not None else self.registry.get(job.request.problem)
            self.cache.store_memory(entry.problem(), result)
        except Exception as exc:  # noqa: BLE001 - cache warming is best-effort
            # Best-effort, but not silent: the next identical submission pays
            # a cold search, so leave a trail for whoever wonders why.
            logger.debug(
                "cache warm failed for job %s (%s): %s", job.id, job.problem_name, exc
            )
            get_registry().counter(
                "repro_cache_warm_failures_total",
                "Worker results that failed to warm the parent memory tier",
            ).inc()

    def _finish(self, job: _Job, state: str, result=None, error=None) -> None:
        job.state = state
        job.result = result
        job.error = error
        job.finished_at = time.time()
        job.finished_mono = time.monotonic()
        self._active.discard(job.id)
        finished = self._finished[job.is_sweep]
        finished[job.id] = None
        finished.move_to_end(job.id)
        if job.done_event is not None:
            job.done_event.set()

    async def job_status(self, job_id: str) -> api.JobStatus:
        return self._snapshot(self._get_job(job_id))

    async def sweep_status(self, job_id: str) -> api.SweepJobStatus:
        return self._snapshot(self._get_job(job_id, sweep=True))

    async def wait(
        self, job_id: str, timeout: Optional[float] = None, sweep: bool = False
    ) -> Union[api.JobStatus, api.SweepJobStatus]:
        """Block until the job finishes (or ``timeout`` elapses), then snapshot."""
        job = self._get_job(job_id, sweep)
        if job.active and job.done_event is not None:
            try:
                await asyncio.wait_for(job.done_event.wait(), timeout)
            except asyncio.TimeoutError:
                pass  # return the still-running snapshot
        return self._snapshot(job)

    async def wait_sweep(
        self, job_id: str, timeout: Optional[float] = None
    ) -> api.SweepJobStatus:
        """:meth:`wait` for a sweep job."""
        return await self.wait(job_id, timeout, sweep=True)

    async def cancel(self, job_id: str) -> api.JobStatus:
        job = self._get_job(job_id)
        if job.state == api.JOB_QUEUED:
            job.cancel_event.set()
            if job.task is not None:
                job.task.cancel()
            self._finish(job, api.JOB_CANCELLED, error=api.job_cancelled(job.id).info)
        elif job.state == api.JOB_RUNNING:
            # The executor thread sees the event, terminates the worker
            # process and resolves the job as cancelled.
            job.cancel_event.set()
        return self._snapshot(job)

    # -------------------------------------------------------------- telemetry
    def job_trace(self, job_id: str) -> api.TraceInfo:
        """Spans recorded so far for a (sweep) job — ``GET /v1/jobs/<id>/trace``.

        Finished jobs answer their full stitched trace; running jobs answer
        whatever spans have closed so far.  Jobs submitted while tracing was
        disabled have no trace and answer the structured ``no_trace`` error.
        """
        job = self._jobs.get(job_id)
        if job is None:
            raise api.unknown_job(job_id)
        if job.trace_id is None:
            raise api.ApiError(
                "no_trace",
                f"job {job_id!r} has no recorded trace (tracing disabled at submit)",
                {"job_id": job_id},
            )
        spans = tuple(
            api.SpanInfo.from_json_dict(span)
            for span in get_tracer().spans_for(job.trace_id)
        )
        return api.TraceInfo(trace_id=job.trace_id, job_id=job_id, spans=spans)


def _register_service_collectors(service: SynthesisService) -> None:
    """Mirror this service's live telemetry into the metrics registry.

    Registered as a pull collector (run on every scrape) holding only a weak
    reference — when the service is garbage collected the callback reports
    itself dead and the registry prunes it, so tests that build many
    short-lived services do not leak collectors.  All values are ``set`` as
    absolute snapshots of the service's own cumulative counters; nothing here
    shares a metric name with the ``inc``/merge-based pipeline metrics.
    """
    ref = weakref.ref(service)

    def _collect() -> bool:
        svc = ref()
        if svc is None:
            return False
        registry = get_registry()
        for key, value in svc.cache.stats.as_dict().items():
            registry.counter(
                f"repro_cache_{key}_total", f"Result cache cumulative {key} (service-local)"
            ).set(float(value))
        registry.gauge(
            "repro_cache_memory_entries", "Entries currently in the memory (LRU) tier"
        ).set(float(len(svc.cache)))
        registry.gauge(
            "repro_jobs_queue_depth", "Jobs currently queued or running (jobs + sweeps)"
        ).set(float(svc.queue_depth()))
        registry.counter(
            "repro_jobs_enqueued_total", "Cold synthesize jobs accepted into the queue"
        ).set(float(svc.jobs_enqueued))
        registry.counter(
            "repro_jobs_warm_submissions_total", "Submissions answered inline from cache"
        ).set(float(svc.warm_submissions))
        registry.counter(
            "repro_sweeps_enqueued_total", "Sweep jobs accepted into the queue"
        ).set(float(svc.sweeps_enqueued))
        registry.gauge(
            "repro_interner_table", "Live canonical AST nodes", labelnames=("key",)
        ).set(float(canonical_nodes()), key="nodes")
        for key, value in last_tables_stats().items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            registry.gauge(
                "repro_proof_tables",
                "Most recent proof-search table telemetry",
                labelnames=("key",),
            ).set(float(value), key=str(key))
        return True

    get_registry().register_collector(_collect)


def _witness_info(witness, payload_bytes: int) -> api.WitnessInfo:
    """The wire metadata of a stored witness summary or an imported record."""
    return api.WitnessInfo(
        digest=witness.digest,
        name=witness.name,
        proof_size=witness.proof_size,
        created=witness.created,
        payload_bytes=payload_bytes,
        sequent=str(witness.sequent),
    )


# --------------------------------------------------------------- HTTP plumbing
#: Request bodies past this size are rejected (no streaming uploads in v1).
MAX_BODY_BYTES = 1 << 20
#: Requests with more header lines than this are rejected.
MAX_HEADER_LINES = 100


@dataclass
class _HttpRequest:
    method: str
    path: str
    query: Dict[str, str]
    body: bytes
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class _PlainText:
    """A non-JSON route payload: raw text plus its Content-Type."""

    text: str
    content_type: str = "text/plain; version=0.0.4; charset=utf-8"


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError as exc:  # a line past the stream's buffer limit
        raise api.invalid_request(f"HTTP request line or header too long: {exc}") from exc


async def _read_http_request(reader: asyncio.StreamReader) -> Optional[_HttpRequest]:
    request_line = await _read_line(reader)
    if not request_line or not request_line.strip():
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise api.invalid_request(f"malformed HTTP request line {request_line!r}")
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES + 1):
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise api.invalid_request(f"HTTP request has more than {MAX_HEADER_LINES} header lines")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise api.invalid_request("Content-Length is not an integer")
    if length < 0:
        raise api.invalid_request("Content-Length must be non-negative")
    if length > MAX_BODY_BYTES:
        raise api.invalid_request(f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = {key: values[-1] for key, values in parse_qs(split.query).items()}
    return _HttpRequest(
        method=method.upper(), path=split.path, query=query, body=body, headers=headers
    )


def _truthy(value: Optional[str]) -> bool:
    return (value or "").lower() in ("1", "true", "yes", "on")


def _encode_cursor(token: str) -> str:
    """Opaque page cursor over ``token`` (URL-safe, padding stripped)."""
    return base64.urlsafe_b64encode(token.encode("utf-8")).decode("ascii").rstrip("=")


def _decode_cursor(cursor: str) -> str:
    try:
        padded = cursor + "=" * (-len(cursor) % 4)
        return base64.urlsafe_b64decode(padded.encode("ascii")).decode("utf-8")
    except (ValueError, UnicodeError) as exc:
        raise api.invalid_request(f"malformed cursor {cursor!r}", cursor=cursor) from exc


def _limit_query(request: "_HttpRequest") -> Optional[int]:
    value = request.query.get("limit")
    if value is None:
        return None
    try:
        limit = int(value)
    except ValueError:
        raise api.invalid_request(f"limit must be an integer, got {value!r}")
    if limit < 1:
        raise api.invalid_request("limit must be at least 1")
    return limit


# Route handlers: ``handler(service, request, *path parameters)`` answers
# ``(HTTP status, JSON document or _PlainText)``.
async def _health(service: SynthesisService, request: _HttpRequest):
    return 200, service.health()


async def _list_problems(service: SynthesisService, request: _HttpRequest):
    limit = _limit_query(request)
    cursor = request.query.get("cursor")
    if limit is None and cursor is None:
        # Legacy unpaginated shape: a bare JSON array.
        infos = service.list_problems(tag=request.query.get("tag"))
        return 200, [info.to_json_dict() for info in infos]
    page = service.list_problems_page(tag=request.query.get("tag"), limit=limit, cursor=cursor)
    return 200, page.to_json_dict()


async def _synthesize(service: SynthesisService, request: _HttpRequest):
    synth_request = api.SynthesizeRequest.from_json(request.body.decode("utf-8") or "{}")
    status = await service.submit(synth_request)
    if _truthy(request.query.get("wait")) and not status.finished:
        status = await service.wait(status.id)
    return _job_http_status(status), status.to_json_dict()


async def _metrics(service: SynthesisService, request: _HttpRequest):
    registry = get_registry()
    if request.query.get("format") == "json":
        return 200, registry.collect()
    return 200, _PlainText(registry.render_prometheus())


async def _job_trace(service: SynthesisService, request: _HttpRequest, job_id: str):
    return 200, service.job_trace(job_id).to_json_dict()


async def _job_status(service: SynthesisService, request: _HttpRequest, job_id: str):
    status = await service.job_status(job_id)
    return _job_http_status(status, poll=True), status.to_json_dict()


async def _cancel(service: SynthesisService, request: _HttpRequest, job_id: str):
    return 200, (await service.cancel(job_id)).to_json_dict()


async def _submit_sweep(service: SynthesisService, request: _HttpRequest):
    sweep_request = api.SweepRequest.from_json(request.body.decode("utf-8") or "{}")
    status = await service.submit_sweep(sweep_request)
    if _truthy(request.query.get("wait")):
        # Block, then answer with the bare SweepResponse document (what
        # `repro sweep --json` prints) — or the structured error.
        status = await service.wait_sweep(status.id)
        if status.error is not None:
            raise api.ApiError.from_info(status.error)
        if status.result is None:
            raise api.ApiError("internal", f"sweep {status.id} finished without result")
        return 200, status.result.to_json_dict()
    return _job_http_status(status), status.to_json_dict()


async def _sweep_status(service: SynthesisService, request: _HttpRequest, sweep_id: str):
    return 200, (await service.sweep_status(sweep_id)).to_json_dict()


async def _list_witnesses(service: SynthesisService, request: _HttpRequest):
    return 200, service.list_witnesses(limit=_limit_query(request)).to_json_dict()


async def _import_witness(service: SynthesisService, request: _HttpRequest):
    payload = api.WitnessPayload.from_json(request.body.decode("utf-8") or "{}")
    return 200, service.import_witness(payload).to_json_dict()


async def _get_witness(service: SynthesisService, request: _HttpRequest, digest: str):
    return 200, service.get_witness(digest).to_json_dict()


async def _cache_stats(service: SynthesisService, request: _HttpRequest):
    stats = service.cache_stats(
        cache_dir=request.query.get("cache_dir"),
        limit=_limit_query(request),
        cursor=request.query.get("cursor"),
    )
    return 200, stats.to_json_dict()


#: Every HTTP operation, declared once: ``(method, path template, handler)``.
#: A ``<…>`` segment matches one non-empty path segment, which is passed to
#: the handler; the template is the request's metric ``endpoint`` label.
ROUTES = (
    ("GET", "/healthz", _health),
    ("GET", "/v1/problems", _list_problems),
    ("POST", "/v1/synthesize", _synthesize),
    ("GET", "/v1/metrics", _metrics),
    ("GET", "/v1/jobs/<id>/trace", _job_trace),
    ("GET", "/v1/jobs/<id>", _job_status),
    ("DELETE", "/v1/jobs/<id>", _cancel),
    ("POST", "/v1/sweeps", _submit_sweep),
    ("GET", "/v1/sweeps/<id>", _sweep_status),
    ("GET", "/v1/witnesses", _list_witnesses),
    ("PUT", "/v1/witnesses", _import_witness),
    ("GET", "/v1/witnesses/<digest>", _get_witness),
    ("GET", "/v1/cache/stats", _cache_stats),
)
#: The ``method`` label of a request whose method no route uses is ``<other>``.
_ROUTE_METHODS = frozenset(method for method, _, _ in ROUTES)


def _path_parameters(template: str, path: str) -> Optional[Tuple[str, ...]]:
    """The ``<…>`` segments of ``path`` if it matches ``template``, else None."""
    expected, actual = template.split("/"), path.split("/")
    if len(expected) != len(actual):
        return None
    parameters = []
    for want, got in zip(expected, actual):
        if want.startswith("<"):
            if not got:
                return None
            parameters.append(got)
        elif want != got:
            return None
    return tuple(parameters)


def _resolve(method: str, path: str) -> Tuple[str, Optional[Callable], Tuple[str, ...]]:
    """``(endpoint label, handler or None, path parameters)`` of one request.

    The label is the template ``path`` matches under any method, so a known
    path with a wrong method is booked to its endpoint and answered
    ``not_found``.
    """
    endpoint = "<other>"
    for route_method, template, handler in ROUTES:
        parameters = _path_parameters(template, path)
        if parameters is None:
            continue
        endpoint = template
        if route_method == method:
            return endpoint, handler, parameters
    return endpoint, None, ()


def _job_http_status(status: Union[api.JobStatus, api.SweepJobStatus], poll: bool = False) -> int:
    """HTTP status for a (sweep) job snapshot: 202 while in flight, the
    structured error's status once failed (polls always 200 — the *resource*
    exists)."""
    if not status.finished:
        return 200 if poll else 202
    if poll or status.error is None:
        return 200
    return status.error.http_status


async def _handle_connection(
    service: SynthesisService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    status, payload = 500, api.ApiError("internal", "unhandled server error").to_json_dict()
    endpoint, http_method = "<other>", "?"
    started = time.perf_counter()
    span = None
    record = False
    tracer = get_tracer()
    try:
        try:
            request = await _read_http_request(reader)
            if request is None:
                return
            endpoint, handler, parameters = _resolve(request.method, request.path)
            http_method = request.method if request.method in _ROUTE_METHODS else "<other>"
            parent = TraceContext.from_header(request.headers.get(TRACE_HEADER.lower()))
            span = tracer.span(
                "http.request", parent=parent, method=request.method, endpoint=endpoint
            )
            record = True
            if handler is None:
                raise api.ApiError("not_found", f"no route for {request.method} {request.path}")
            status, payload = await handler(service, request, *parameters)
        except api.ApiError as exc:
            record = True
            status, payload = exc.http_status, exc.to_json_dict()
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        except Exception as exc:  # noqa: BLE001 - a request must never kill the server
            error = api.ApiError("internal", f"{type(exc).__name__}: {exc}")
            status, payload = error.http_status, error.to_json_dict()
        if isinstance(payload, _PlainText):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
    except ConnectionError:
        pass
    finally:
        if span is not None:
            span.set_attribute("status", status)
            span.finish()
        if record:
            registry = get_registry()
            registry.counter(
                "repro_http_requests_total",
                "HTTP requests served, by method/endpoint/status",
                labelnames=("method", "endpoint", "status"),
            ).inc(method=http_method, endpoint=endpoint, status=str(status))
            if status >= 500:
                registry.counter(
                    "repro_http_errors_total",
                    "HTTP requests answered with a 5xx status",
                    labelnames=("endpoint",),
                ).inc(endpoint=endpoint)
            registry.histogram(
                "repro_http_request_seconds",
                "Wall-clock seconds spent answering HTTP requests",
                labelnames=("endpoint",),
            ).observe(time.perf_counter() - started, endpoint=endpoint)
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def serve(
    service: SynthesisService,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    ready=None,
) -> None:
    """Serve the v1 HTTP API forever (``python -m repro serve``).

    ``ready`` — optional callable invoked with the bound port once the socket
    is listening (port 0 binds an ephemeral port; tests use this).
    """
    server = await asyncio.start_server(partial(_handle_connection, service), host, port)
    bound_port = server.sockets[0].getsockname()[1]
    if ready is not None:
        ready(bound_port)
    try:
        async with server:
            await server.serve_forever()
    finally:
        stop_workers()


class BackgroundServer:
    """The HTTP front-end on a daemon thread — tests and embedded callers.

    ``with BackgroundServer(service) as handle: urlopen(handle.url + ...)``.
    Binds an ephemeral port by default; ``url`` is available after start.
    """

    def __init__(
        self,
        service: Optional[SynthesisService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service or SynthesisService()
        self.host = host
        self.port = port
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._listening = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._thread_main, daemon=True)
        self._thread.start()
        if not self._listening.wait(timeout=30):
            raise RuntimeError("background server did not start within 30s")
        if self._startup_error is not None:
            raise RuntimeError(f"background server failed to start: {self._startup_error}")
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._listening.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            partial(_handle_connection, self.service), self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._listening.set()
        async with server:
            await self._stop.wait()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
        stop_workers()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


#: Seconds between sweep-status polls of a :class:`RemoteService`.
DEFAULT_POLL_INTERVAL = 0.2
_ROUTE_OF = {handler: (method, template) for method, template, handler in ROUTES}


class RemoteService:
    """A running ``repro serve``, called like an in-process :class:`SynthesisService`.

    The methods the CLI calls on the service answer the same typed results
    here, over HTTP; ``health``, ``submit``, ``job_status``, ``cancel``,
    ``metrics`` and ``job_trace`` reach the server's job table and telemetry
    synchronously.  Every path comes from :data:`ROUTES`.  Failures raise
    :class:`~repro.service.api.ApiError`: the server's structured error, or
    ``internal`` when the server cannot be reached or answers no error
    document.
    """

    def __init__(
        self, url: str, timeout: Optional[float] = None, poll_interval: float = DEFAULT_POLL_INTERVAL
    ) -> None:
        self.url = url.rstrip("/")
        #: Socket timeout of each request in seconds (None: wait forever).
        self.timeout = timeout
        self.poll_interval = poll_interval

    def _call(self, handler, *parameters: str, query=None, body: Optional[api.Contract] = None):
        """Send one request to ``handler``'s route; the JSON document or text answered."""
        # Imported here: urllib.request pulls in http.client, email and ssl,
        # which every importer of the service package would otherwise load.
        from urllib import error as urllib_error
        from urllib import request as urllib_request

        method, template = _ROUTE_OF[handler]
        values = iter(parameters)
        path = "/".join(
            quote(next(values), safe="") if part.startswith("<") else part for part in template.split("/")
        )
        query = {key: value for key, value in (query or {}).items() if value is not None}
        url = self.url + path + (f"?{urlencode(query)}" if query else "")
        data = None if body is None else json.dumps(body.to_json_dict()).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        http_request = urllib_request.Request(url, data=data, headers=headers, method=method)
        try:
            with urllib_request.urlopen(http_request, timeout=self.timeout) as http_response:
                text = http_response.read().decode("utf-8")
                is_json = http_response.headers.get_content_type() == "application/json"
        except urllib_error.HTTPError as exc:
            text = exc.read().decode("utf-8", "replace")
            try:
                error = api.ApiError.from_json_dict(json.loads(text))
            except (ValueError, KeyError, AttributeError):  # not an error document
                raise api.ApiError("internal", f"HTTP {exc.code} from {url}: {text.strip()}") from exc
            raise error from exc
        except OSError as exc:
            raise api.ApiError(
                "internal",
                f"cannot reach the repro server at {url}: {getattr(exc, 'reason', exc)} "
                f"(is `repro serve` running?)",
            ) from exc
        return json.loads(text) if is_json else text

    def health(self) -> Dict[str, object]:
        return self._call(_health)

    def list_problems(self, tag: Optional[str] = None) -> List[api.ProblemInfo]:
        return [api.ProblemInfo.from_json_dict(item) for item in self._call(_list_problems, query={"tag": tag})]

    def submit(self, request: api.SynthesizeRequest) -> api.JobStatus:
        """Queue a job without waiting for it."""
        return api.JobStatus.from_json_dict(self._call(_synthesize, body=request))

    def synthesize(self, request: api.SynthesizeRequest) -> api.SynthesisResult:
        status = api.JobStatus.from_json_dict(self._call(_synthesize, query={"wait": "1"}, body=request))
        if status.result is None:
            raise api.ApiError("internal", f"job {status.id} finished {status.state} without a result")
        return status.result

    def job_status(self, job_id: str) -> api.JobStatus:
        return api.JobStatus.from_json_dict(self._call(_job_status, job_id))

    def cancel(self, job_id: str) -> api.JobStatus:
        return api.JobStatus.from_json_dict(self._call(_cancel, job_id))

    def job_trace(self, job_id: str) -> api.TraceInfo:
        return api.TraceInfo.from_json_dict(self._call(_job_trace, job_id))

    def sweep(self, request: api.SweepRequest) -> api.SweepResponse:
        """Submit the sweep as a job, then poll it every ``poll_interval`` seconds."""
        status = api.SweepJobStatus.from_json_dict(self._call(_submit_sweep, body=request))
        while not status.finished:
            time.sleep(max(self.poll_interval, 0.01))
            status = api.SweepJobStatus.from_json_dict(self._call(_sweep_status, status.id))
        if status.error is not None:
            raise api.ApiError.from_info(status.error)
        if status.result is None:
            raise api.ApiError("internal", f"sweep {status.id} finished without a result")
        return status.result

    def cache_stats(self, cache_dir: Optional[str] = None) -> Union[api.DiskCacheStats, api.ProcessCacheStats]:
        payload = self._call(_cache_stats, query={"cache_dir": cache_dir})
        stats_type = api.ProcessCacheStats if "process" in payload else api.DiskCacheStats
        return stats_type.from_json_dict(payload)

    def metrics(self, as_json: bool = False) -> Union[str, Dict[str, object]]:
        """Prometheus exposition text, or the JSON snapshot with ``as_json``."""
        return self._call(_metrics, query={"format": "json" if as_json else None})

    def list_witnesses(self, limit: Optional[int] = None) -> api.WitnessPage:
        return api.WitnessPage.from_json_dict(self._call(_list_witnesses, query={"limit": limit}))

    def get_witness(self, digest: str) -> api.WitnessPayload:
        return api.WitnessPayload.from_json_dict(self._call(_get_witness, digest))

    def import_witness(self, payload: api.WitnessPayload) -> api.WitnessInfo:
        return api.WitnessInfo.from_json_dict(self._call(_import_witness, body=payload))
