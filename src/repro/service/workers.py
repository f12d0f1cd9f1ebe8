"""One job runner: typed synthesize requests, inline or in a pooled worker.

:func:`execute_synthesize_request` is the single execution body: the CLI's
in-process service calls it directly, and :func:`run_request_in_process` runs
it in a **long-lived forked worker process**, which buys two properties a
thread cannot give:

* *failure isolation* — a crashing or memory-exploding job takes down only
  its worker; the caller records the failure as ``internal`` and the next
  job forks a fresh worker;
* *per-job timeouts* — a stuck proof search (the ``"hard"`` registry entries
  would search for hours) is ``terminate()``-d at its deadline, and its
  worker is dropped from the pool.

The pool holds only idle workers.  A job takes one (or forks one, lazily —
the first cold job pays the fork, server start does not), sends its request
over the worker's duplex pipe and puts the worker back when the answer
arrives, so the pool grows only to the peak number of concurrent jobs.  A
worker runs one request at a time; per request it resets its telemetry
(:func:`~repro.obs.trace.install_child_obs`) and opens a fresh
:class:`~repro.service.cache.SynthesisCache`, so spans, metrics and
``cache_tier`` answers are per job, while its process-wide caches (canonical
nodes and their memos) carry over to the next job.
:func:`stop_workers` ends every worker, busy ones too, when a server stops,
and a worker whose parent dies ends itself, mid-job as well.

Requests cross the process boundary as their JSON dicts and come back as the
wire response plus the synthesized result without its proof, which the
worker stored in the witness tier — the HTTP job engine and sweeps use the
same runner.  :func:`run_sweep` turns each problem name into one
:class:`~repro.service.api.SynthesizeRequest` and runs it through that runner,
at most ``processes`` at a time, recording one flat
:class:`~repro.service.api.SweepOutcome` per name.  Workers share results
through the cache's persistent disk tier when ``cache_dir`` is set: the first
worker to synthesize a specification stores it; every later worker (and the
parent process) gets a disk hit.

A timeout-less sweep with ``processes=1`` (or a single job) runs inline in the
calling process — same execution body, no multiprocessing — which is also the
mode the test-suite uses for determinism.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.obs.metrics import get_registry
from repro.obs.trace import TraceContext, export_obs_state, get_tracer, install_child_obs
from repro.proofs.search import ProofSearch
from repro.service import api
from repro.service.cache import SynthesisCache
from repro.service.pipeline import PipelineReport, SynthesisPipeline
from repro.service.registry import EXPECTED_OK, ProblemRegistry, RegistryEntry, default_registry
from repro.synthesis.implicit_to_explicit import SynthesisResult

#: Default verification family size when a sweep verifies (``scale`` rows).
DEFAULT_VERIFY_SCALE = api.DEFAULT_VERIFY_SCALE


@dataclass
class SweepSummary:
    """All job outcomes plus aggregate counters."""

    outcomes: List[api.SweepOutcome]
    wall_seconds: float
    processes: int

    @property
    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_tier in ("memory", "disk"))

    @property
    def unexpected_failures(self) -> List[api.SweepOutcome]:
        return [o for o in self.outcomes if o.unexpected_failure]

    @property
    def ok(self) -> bool:
        return not self.unexpected_failures

    def to_api(self) -> api.SweepResponse:
        """The typed wire rendering of this sweep (:mod:`repro.service.api`)."""
        return api.SweepResponse(
            wall_seconds=round(self.wall_seconds, 6),
            processes=self.processes,
            counts=self.counts,
            cache_hits=self.cache_hits,
            ok=self.ok,
            jobs=tuple(self.outcomes),
        )


# ----------------------------------------------------- typed request execution
def resolve_request_entry(
    request: api.SynthesizeRequest, registry: Optional[ProblemRegistry] = None
) -> RegistryEntry:
    """The registry entry a request addresses.

    A ``spec_text`` request parses the textual problem into an ad-hoc entry
    (named after the problem header, tagged ``spec_text``); a parse failure
    surfaces as the ``parse_error`` taxonomy code with position detail.
    Registry-name requests resolve as before (``unknown_problem`` on a miss).
    """
    if request.spec_text is not None:
        from repro.specs.lang import SpecParseError, parse_problem

        try:
            problem = parse_problem(request.spec_text)
        except SpecParseError as exc:
            raise api.parse_error(str(exc), **exc.position()) from exc
        return RegistryEntry(
            name=problem.name,
            factory=lambda: problem,
            description="textual spec submission",
            tags=("spec_text",),
        )
    registry = registry or default_registry()
    try:
        return registry.get(request.problem)
    except KeyError as exc:
        raise api.unknown_problem(exc.args[0]) from exc


def execute_synthesize_request(
    request: api.SynthesizeRequest,
    registry: Optional[ProblemRegistry] = None,
    cache: Optional[SynthesisCache] = None,
) -> Tuple[api.SynthesisResult, SynthesisResult, PipelineReport]:
    """Run one typed :class:`~repro.service.api.SynthesizeRequest` inline.

    The single execution body behind every transport: the CLI's
    :class:`~repro.service.server.SynthesisService` calls it in-process,
    worker processes (HTTP jobs, sweeps with a timeout or several processes)
    call it via :func:`run_request_in_process`.  Failures
    surface as the structured :class:`~repro.service.api.ApiError` taxonomy —
    never raw registry ``KeyError`` or :class:`~repro.errors.ReproError`.

    Returns ``(wire_response, result_object, report)`` so callers can both
    serialize the outcome and adopt the synthesized AST into their own cache.
    """
    registry = registry or default_registry()
    entry = resolve_request_entry(request, registry)
    if request.cache_dir:
        try:
            cache = SynthesisCache(disk_dir=request.cache_dir)
        except OSError as exc:
            raise api.invalid_request(
                f"cannot use cache dir {request.cache_dir!r}: {type(exc).__name__}: {exc}"
            ) from exc
    depth = entry.max_depth if request.max_depth is None else request.max_depth
    pipeline = SynthesisPipeline(cache=cache, search_factory=lambda: ProofSearch(max_depth=depth))
    assignments = None
    if request.verify_scale and entry.instances is not None:
        assignments = entry.instances(request.verify_scale)
    try:
        report = pipeline.run(entry.problem(), assignments)
    except api.ApiError:
        raise
    except ReproError as exc:
        raise api.synthesis_failure(exc, entry.expected) from exc
    response = report.to_response(include_raw=request.include_raw)
    return response, report.result, report


def _run_request(payload: Dict[str, object], options: Dict[str, object]) -> tuple:
    """Run one request in a worker; the tagged reply for the parent.

    The reply's last two elements are always this request's finished trace
    spans and metric snapshot: ``("ok", response_json, result, spans,
    metrics)`` on success (the result, without its proof, rides along so the
    parent can warm its memory tier), ``("api_error", error_json, spans, metrics)`` for
    structured failures, and ``("internal_error", message, spans, metrics)``
    for anything unexpected.
    """
    install_child_obs(options.get("obs"))
    try:
        request = api.SynthesizeRequest.from_json_dict(payload)
        # Same cache policy as the CLI's in-process service: the disk tier
        # when a directory is configured, a request-local memory tier
        # otherwise — so a worker-run report shows the same stage sequence
        # ("cache-lookup: miss" included) as an inline run.
        cache_dir = options.get("cache_dir")
        cache = SynthesisCache(disk_dir=cache_dir) if cache_dir else SynthesisCache()
        with get_tracer().span(
            "worker.request", problem=request.problem or "<spec_text>", pid=os.getpid()
        ):
            response, result, _ = execute_synthesize_request(request, cache=cache)
        message: tuple = ("ok", response.to_json_dict(), result.without_proof())
    except api.ApiError as exc:
        message = ("api_error", exc.to_json_dict())
    except Exception as exc:  # noqa: BLE001 - the parent re-raises as ApiError
        message = ("internal_error", f"{type(exc).__name__}: {exc}")
    return message + (get_tracer().export_all(), get_registry().snapshot())


#: Seconds between a worker's checks that its parent process still lives.
_PARENT_CHECK_SECONDS = 1.0


def _exit_with_parent(parent: int) -> None:
    """End this worker once ``parent`` is gone, busy or idle.

    Runs on a daemon thread: an orphaned worker would otherwise finish its
    search (minutes for the hard registry entries) before noticing.
    """
    while os.getppid() == parent:
        time.sleep(_PARENT_CHECK_SECONDS)
    os._exit(0)


def _worker_main(conn) -> None:
    """A pool worker: answer requests from ``conn`` one at a time.

    The parent ends its workers (``terminate()``, or the pipe closing), so
    an interrupt meant for the server's terminal is ignored here; a worker
    whose parent is gone exits on its own.  The fork inherits the server's
    SIGTERM handler and signal wakeup fd (``repro serve`` cancels itself on
    SIGTERM), so both are reset here: ``terminate()`` must end the worker.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        conn.send(_run_request(*job))


class _Worker:
    """One forked pool worker and the parent's end of its duplex pipe."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context()
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()
        with _LOCK:
            _LIVE_WORKERS.add(self)

    def discard(self) -> None:
        """End the worker and release its pipe."""
        with _LOCK:
            _LIVE_WORKERS.discard(self)
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        self.conn.close()


#: Every worker not yet discarded, idle or busy, so shutdown can end them all.
_LIVE_WORKERS: Set[_Worker] = set()
#: Workers waiting for a job; busy workers are held by their job's thread.
_IDLE_WORKERS: List[_Worker] = []
_LOCK = threading.RLock()


def _take_worker() -> _Worker:
    """An idle live worker, or a freshly forked one."""
    with _LOCK:
        while _IDLE_WORKERS:
            worker = _IDLE_WORKERS.pop()
            if worker.process.is_alive():
                return worker
            worker.discard()
    return _Worker()


def stop_workers() -> None:
    """End every pool worker of this process (called when a server stops).

    Idle workers are discarded here.  A busy worker is terminated, so its
    job fails cleanly with ``internal`` and the job's thread discards it.
    """
    with _LOCK:
        idle = list(_IDLE_WORKERS)
        _IDLE_WORKERS.clear()
        busy = [worker for worker in _LIVE_WORKERS if worker not in idle]
    for worker in busy:
        worker.process.terminate()
    for worker in idle:
        worker.discard()


def run_request_in_process(
    request: api.SynthesizeRequest,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    cancel=None,
    poll_interval: float = 0.05,
    trace_context: Optional[TraceContext] = None,
) -> Tuple[api.SynthesisResult, Optional[SynthesisResult]]:
    """Run ``request`` on a pool worker process; block until it resolves.

    Called from an executor thread by the async job engine and from the sweep
    pool: proof search happens in a killable worker, while this thread polls
    the worker's pipe, the optional ``cancel`` event (any object with
    ``is_set()``) and the deadline.  On timeout/cancellation the worker is
    ``terminate()``-d and dropped from the pool, and the matching structured
    :class:`~repro.service.api.ApiError` is raised; a worker that dies fails
    only this job, with ``internal``.

    ``trace_context`` parents the worker's spans explicitly — a worker
    process does not inherit the caller's contextvars, so callers pass their
    current context by hand.
    """
    options = {"cache_dir": cache_dir, "obs": export_obs_state(trace_context)}
    worker = _take_worker()
    conn, process = worker.conn, worker.process
    deadline = None if timeout is None else time.monotonic() + timeout
    message = None
    try:
        conn.send((request.to_json_dict(), options))
        while True:
            if conn.poll(poll_interval):
                message = conn.recv()
                break
            if not process.is_alive():
                # The worker may have sent its reply and died between the
                # poll above and this liveness check; drain before declaring
                # it dead.
                if conn.poll(0.5):
                    message = conn.recv()
                break
            if cancel is not None and cancel.is_set():
                raise api.ApiError("cancelled", "job was cancelled while running")
            if deadline is not None and time.monotonic() > deadline:
                raise api.job_timeout(timeout)
    except (EOFError, OSError):
        message = None
    finally:
        # Only a worker that answered cleanly goes back to the pool; one
        # past its deadline, cancelled, dead or failing unexpectedly is ended.
        if message is not None and message[0] != "internal_error":
            with _LOCK:
                _IDLE_WORKERS.append(worker)
        else:
            worker.discard()
    if message is None:
        raise api.ApiError("internal", f"worker died with exit code {process.exitcode}")
    # Merge the worker's exported telemetry into this process.
    spans, metrics = message[-2:]
    if isinstance(spans, list) and spans:
        get_tracer().adopt(spans)
    if isinstance(metrics, dict) and metrics:
        get_registry().merge_snapshot(metrics)
    kind = message[0]
    if kind == "ok":
        return api.SynthesisResult.from_json_dict(message[1]), message[2]
    if kind == "api_error":
        raise api.ApiError.from_json_dict(message[1])
    raise api.ApiError("internal", str(message[1]))


def resolve_sweep_names(
    request: api.SweepRequest, registry: Optional[ProblemRegistry] = None
) -> List[str]:
    """The concrete problem list a sweep request selects.

    Centralized so the inline sweep and the async sweep engine run
    *exactly* the same population — explicit names
    verbatim (duplicates preserved), ``include_all`` the full registry,
    neither the default sweepable population.
    """
    registry = registry or default_registry()
    if request.problems:
        return list(request.problems)
    if request.include_all:
        return registry.names()
    return [entry.name for entry in registry.sweepable()]


# ------------------------------------------------------------------ the pool
def run_sweep(
    names: Optional[Sequence[str]] = None,
    registry: Optional[ProblemRegistry] = None,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    cache_dir: Optional[str] = None,
    max_depth: Optional[int] = None,
    verify_scale: int = 0,
) -> SweepSummary:
    """Sweep ``names`` (default: every entry expected to synthesize) in parallel.

    Each name runs as one :class:`~repro.service.api.SynthesizeRequest`.
    ``timeout`` is per job, in seconds; a job past its deadline is terminated
    and recorded as ``"timeout"``.  Enforcing a deadline requires a killable
    process, so any sweep with a timeout runs every job through
    :func:`run_request_in_process` (at most ``processes`` at a time) even for
    a single job; only timeout-less one-process sweeps run inline.
    ``verify_scale`` > 0 additionally runs the verification stage on
    that many generated instances per problem (entries without an instance
    builder skip verification).
    """
    registry = registry or default_registry()
    if names is None:
        names = [entry.name for entry in registry.sweepable()]
    names = list(names)
    if processes is None:
        processes = min(len(names), os.cpu_count() or 1) or 1
    processes = max(1, min(processes, len(names) or 1))
    start = time.perf_counter()

    if timeout is None and processes == 1:

        def run(request: api.SynthesizeRequest) -> api.SynthesisResult:
            return execute_synthesize_request(request, registry=registry)[0]

    else:
        # Worker threads do not inherit this thread's current span, so the
        # children's trace parent (e.g. a sweep job span) is passed by hand.
        context = get_tracer().current()

        def run(request: api.SynthesizeRequest) -> api.SynthesisResult:
            return run_request_in_process(request, timeout=timeout, trace_context=context)[0]

    def outcome(name: str) -> api.SweepOutcome:
        return _sweep_outcome(name, run, registry, cache_dir, max_depth, verify_scale)

    if processes == 1:
        outcomes = [outcome(name) for name in names]
    else:
        with ThreadPoolExecutor(max_workers=processes) as pool:
            outcomes = list(pool.map(outcome, names))
    return SweepSummary(outcomes, time.perf_counter() - start, processes)


def _sweep_outcome(
    name: str,
    run: Callable[[api.SynthesizeRequest], api.SynthesisResult],
    registry: ProblemRegistry,
    cache_dir: Optional[str],
    max_depth: Optional[int],
    verify_scale: int,
) -> api.SweepOutcome:
    """Run one sweep job through ``run``; every failure becomes its outcome."""
    start = time.perf_counter()
    try:
        expected = registry.get(name).expected
    except KeyError:
        expected = EXPECTED_OK
    try:
        request = api.SynthesizeRequest(
            problem=name, max_depth=max_depth, verify_scale=verify_scale, cache_dir=cache_dir
        )
        response = run(request)
    except Exception as exc:  # noqa: BLE001 - isolation is the whole point
        structured = isinstance(exc, api.ApiError)
        return api.SweepOutcome(
            name,
            "timeout" if structured and exc.code == "timeout" else "error",
            time.perf_counter() - start,
            expected=expected,
            error=exc.message if structured else f"{type(exc).__name__}: {exc}",
        )
    verified = None if response.verification is None else response.verification.ok
    return api.SweepOutcome(
        name=name,
        status="error" if verified is False else "ok",
        seconds=time.perf_counter() - start,
        expected=expected,
        # Without a cache dir the sweep runs no shared cache tier at all.
        cache_tier=response.cache_tier if cache_dir else "off",
        expression=response.expression,
        expression_size=response.expression_size,
        proof_size=response.proof_size,
        verified=verified,
        error="verification mismatches" if verified is False else None,
        stage_seconds={stage.name: stage.seconds for stage in response.stages},
    )
