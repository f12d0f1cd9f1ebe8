"""``python -m repro`` — the synthesis service command line.

``python -m repro --help`` lists the subcommands, ``python -m repro client
--help`` the operations a running ``repro serve`` answers over HTTP.

Each service operation is declared once in :data:`COMMANDS`: its name, its
arguments (some apply only in-process, some only against a server) and one
function ``run(service, args)``.  :func:`build_parser` builds both argument
trees from that table, the local ``repro NAME`` subcommands and the ``repro
client NAME`` operations, and :func:`main` hands ``run`` the in-process
:class:`~repro.service.server.SynthesisService` or, for ``client``, ``sweep
--url`` and ``witness … --url``, a
:class:`~repro.service.server.RemoteService` with the same methods.  Local
and remote output therefore come from the same rendering code.

Everything prints human-readable text by default; ``--json`` switches a
subcommand to a machine-readable JSON document on stdout (one object).
"""

from __future__ import annotations

import argparse
import base64
import json
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.service import api
from repro.service.server import (
    DEFAULT_HOST,
    DEFAULT_POLL_INTERVAL,
    DEFAULT_PORT,
    DEFAULT_QUEUE_LIMIT,
    RemoteService,
    SynthesisService,
    serve,
)

#: ApiError code → process exit code.  Usage-shaped failures (bad arguments,
#: unknown names) exit 2 like argparse; runtime failures exit 1.
_EXIT_CODES = {
    "invalid_request": 2,
    "unknown_problem": 2,
    "not_found": 2,
    "unknown_job": 2,
    "parse_error": 2,
}


class CliError(Exception):
    """A user-facing CLI failure: message + process exit code."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------- rendering
def _render_problem_list(infos: List[api.ProblemInfo], as_json: bool) -> int:
    if as_json:
        print(json.dumps([info.to_json_dict() for info in infos], indent=2))
        return 0
    if not infos:
        print("no registered problems match")
        return 1
    width = max(len(info.name) for info in infos)
    for info in infos:
        marker = {"ok": " ", "xfail": "x", "hard": "!"}[info.expected]
        tags = f" [{', '.join(info.tags)}]" if info.tags else ""
        print(f"{marker} {info.name:<{width}}  {info.description}{tags}")
    print(f"\n{len(infos)} problems ('x' = known-xfail, '!' = needs a hand-written proof)")
    return 0


def _render_synthesis(response: api.SynthesisResult, as_json: bool, show_raw: bool) -> int:
    if as_json:
        print(response.to_json())
    else:
        print(f"problem {response.problem}  (digest {response.digest[:12]}…)")
        for stage in response.stages:
            extra = ""
            if stage.detail:
                extra = "  " + ", ".join(f"{k}={v}" for k, v in stage.detail.items())
            print(f"  {stage.name:<15} {stage.seconds * 1000:9.2f} ms{extra}")
        cache_note = f"cache: {response.cache_tier}"
        if response.source:
            cache_note += f", source: {response.source}"
        print(f"  total           {response.total_seconds * 1000:9.2f} ms  ({cache_note})")
        print("\nsynthesized definition:")
        print(response.display.get("pretty") or response.expression)
        if show_raw and (response.display.get("raw_pretty") or response.raw_expression):
            print("\nraw (pre-simplification) definition:")
            print(response.display.get("raw_pretty") or response.raw_expression)
        if response.verification is not None:
            verification = response.verification
            print(
                f"\nverification: {verification.satisfying}/{verification.checked} satisfying "
                f"instances, {'ok' if verification.ok else 'MISMATCH'}"
            )
    if response.verification is not None and not response.verification.ok:
        return 1
    return 0


def _render_sweep(response: api.SweepResponse, as_json: bool) -> int:
    if as_json:
        print(response.to_json())
        return 0 if response.ok else 1
    width = max(len(job.name) for job in response.jobs)
    for job in response.jobs:
        line = f"{job.status:>7}  {job.name:<{width}}  {job.seconds * 1000:9.1f} ms"
        if job.cache_tier in ("memory", "disk"):
            line += f"  (cache {job.cache_tier})"
        if job.verified is not None:
            line += f"  verified={job.verified}"
        if job.error and job.status != "ok":
            note = " (expected)" if job.expected != "ok" else ""
            line += f"  {job.error}{note}"
        print(line)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(response.counts.items()))
    print(
        f"\n{len(response.jobs)} jobs in {response.wall_seconds:.2f}s "
        f"on {response.processes} processes: {counts}, cache hits {response.cache_hits}"
    )
    if not response.ok:
        failed = ", ".join(
            job.name for job in response.jobs if job.status != "ok" and job.expected == "ok"
        )
        print(f"unexpected failures: {failed}", file=sys.stderr)
        return 1
    return 0


def _render_cache_stats(stats, as_json: bool) -> int:
    if as_json:
        print(stats.to_json())
        return 0
    if isinstance(stats, api.ProcessCacheStats):
        print("no --cache-dir given; showing this process's in-memory telemetry:")
        process = stats.to_json_dict()["process"]
        for name, counters in process.items():
            rendered = ", ".join(f"{key}={value}" for key, value in counters.items())
            print(f"  {name}: {rendered}")
        return 0
    if not stats.entries:
        print(f"{stats.cache_dir}: empty cache")
        return 0
    for entry in stats.entries:
        print(
            f"{entry.digest[:12]}…  {entry.name:<28} expr size {entry.expression_size:>4}  "
            f"proof size {entry.proof_size:>4}  {entry.payload_bytes:>8} bytes  "
            f"cost {entry.synthesis_seconds * 1000:8.1f} ms"
        )
    print(f"\n{len(stats.entries)} entries, {stats.total_payload_bytes} payload bytes")
    return 0


def _render_trace(trace: api.TraceInfo, as_json: bool) -> int:
    """A parent-indented tree of the trace's spans (or the JSON document)."""
    if as_json:
        print(trace.to_json())
        return 0
    if not trace.spans:
        print(f"trace {trace.trace_id}: no spans recorded yet")
        return 0
    by_parent: dict = {}
    span_ids = {span.span_id for span in trace.spans}
    for span in trace.spans:
        parent = span.parent_id if span.parent_id in span_ids else None
        by_parent.setdefault(parent, []).append(span)

    def _walk(parent: Optional[str], depth: int) -> None:
        for span in sorted(by_parent.get(parent, []), key=lambda s: (s.start, s.span_id)):
            attrs = ", ".join(f"{k}={v}" for k, v in span.attributes.items())
            suffix = f"  [{attrs}]" if attrs else ""
            print(f"{'  ' * depth}{span.name:<{30 - 2 * min(depth, 10)}} {span.seconds * 1000:9.2f} ms{suffix}")
            _walk(span.span_id, depth + 1)

    print(f"trace {trace.trace_id} ({len(trace.spans)} spans)")
    _walk(None, 0)
    return 0


# ------------------------------------------------------------------ commands
def _cmd_health(service, args) -> int:
    print(json.dumps(service.health(), indent=2))
    return 0


def _cmd_list(service, args) -> int:
    return _render_problem_list(service.list_problems(tag=args.tag), args.as_json)


def _read_spec_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read spec file {path!r}: {exc}") from exc


def _cmd_synthesize(service, args) -> int:
    if (args.name is None) == (args.spec is None):
        raise CliError("pass exactly one of NAME or --spec FILE")
    request = api.SynthesizeRequest(
        problem=args.name or "",
        spec_text=_read_spec_file(args.spec) if args.spec else None,
        max_depth=args.max_depth,
        verify_scale=args.verify_scale,
        cache_dir=args.cache_dir,
        timeout=args.timeout,
        # --raw only affects the text rendering; the JSON document is the
        # stable v1 schema with or without it.
        include_raw=args.raw and not args.as_json,
    )
    if args.no_wait:
        status = service.submit(request)
        print(status.to_json())
        return 1 if status.state == api.JOB_FAILED else 0
    return _render_synthesis(service.synthesize(request), args.as_json, show_raw=args.raw)


def _cmd_verify(service, args) -> int:
    request = api.VerifyRequest(problem=args.name, scale=args.scale, max_depth=args.max_depth)
    return _render_synthesis(service.verify(request), args.as_json, show_raw=False)


def _cmd_fuzz(args) -> int:
    from repro.specs.fuzz import run_fuzz

    if args.replay:
        return _fuzz_replay(args)

    def on_event(kind: str, payload) -> None:
        if kind == "progress":
            print(f"  …{payload}/{args.count} checked", file=sys.stderr)
        else:
            print(
                f"FAIL [{payload.kind}] {payload.name}: {payload.detail}", file=sys.stderr
            )

    report = run_fuzz(
        seed=args.seed,
        count=args.count,
        max_depth=args.max_depth,
        url=args.url,
        shrink=not args.no_shrink,
        on_event=on_event,
    )
    document = {
        "seed": report.seed,
        "count": report.count,
        "checked": report.checked,
        "synthesized": report.synthesized,
        "elapsed_seconds": round(report.elapsed_seconds, 3),
        "failures": [
            {
                "kind": failure.kind,
                "index": failure.index,
                "name": failure.name,
                "detail": failure.detail,
                "minimized": failure.minimized,
                "spec_text": failure.spec_text,
            }
            for failure in report.failures
        ],
    }
    if args.artifacts:
        _write_fuzz_artifacts(args.artifacts, document, report)
    if args.as_json:
        print(json.dumps(document, indent=2))
    else:
        print(
            f"fuzz seed={report.seed}: {report.synthesized}/{report.checked} "
            f"synthesized clean, {len(report.failures)} failure(s) "
            f"in {report.elapsed_seconds:.2f}s"
        )
        for failure in report.failures:
            print(f"  [{failure.kind}] {failure.name}: {failure.detail}")
            print("  minimized spec:" if failure.minimized else "  spec:")
            for line in failure.spec_text.splitlines():
                print(f"    {line}")
    return 0 if report.ok else 1


def _fuzz_replay(args) -> int:
    import pathlib

    from repro.specs.fuzz import replay_spec_text

    paths: List[pathlib.Path] = []
    for target in args.replay:
        path = pathlib.Path(target)
        if path.is_dir():
            paths.extend(sorted(path.glob("*.spec")))
        else:
            paths.append(path)
    if not paths:
        raise CliError("no spec files to replay")
    failures = []
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot read spec file {path}: {exc}") from exc
        failure = replay_spec_text(text, max_depth=args.max_depth)
        if failure is None:
            print(f"ok    {path}")
        else:
            print(f"FAIL  {path}  [{failure.kind}] {failure.detail}")
            failures.append({"path": str(path), "kind": failure.kind, "detail": failure.detail})
    if args.as_json:
        print(json.dumps({"replayed": len(paths), "failures": failures}, indent=2))
    print(f"\n{len(paths) - len(failures)}/{len(paths)} corpus specs replay clean")
    return 0 if not failures else 1


def _write_fuzz_artifacts(directory: str, document: dict, report) -> None:
    import os

    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "report.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    for failure in report.failures:
        spec_path = os.path.join(directory, f"{failure.name}_{failure.kind}.spec")
        with open(spec_path, "w", encoding="utf-8") as handle:
            handle.write(failure.spec_text)
            if not failure.spec_text.endswith("\n"):
                handle.write("\n")


def _cmd_sweep(service, args) -> int:
    request = api.SweepRequest(
        problems=tuple(args.names),
        include_all=bool(args.all and not args.names),
        processes=args.processes,
        timeout=args.timeout,
        verify_scale=args.verify_scale,
        cache_dir=args.cache_dir,
        max_depth=args.max_depth,
    )
    return _render_sweep(service.sweep(request), args.as_json)


def _cmd_job(service, args) -> int:
    print(service.job_status(args.job_id).to_json())
    return 0


def _cmd_cancel(service, args) -> int:
    print(service.cancel(args.job_id).to_json())
    return 0


def _cmd_cache_stats(service, args) -> int:
    return _render_cache_stats(service.cache_stats(cache_dir=args.cache_dir), args.as_json)


def _cmd_metrics(service, args) -> int:
    if args.as_json:
        print(json.dumps(service.metrics(as_json=True), indent=2))
    else:
        print(service.metrics(), end="")
    return 0


def _cmd_trace(service, args) -> int:
    return _render_trace(service.job_trace(args.job_id), args.as_json)


def _cmd_serve(args) -> int:
    import asyncio

    from repro.obs.trace import enable_tracing

    # Servers always trace: spans are how a server explains its jobs, and
    # the in-process CLI paths (which goldens byte-compare) stay untraced.
    enable_tracing(True)
    service = SynthesisService(
        cache_dir=args.cache_dir,
        max_workers=args.max_workers,
        queue_limit=args.queue_limit if args.queue_limit is not None else DEFAULT_QUEUE_LIMIT,
        default_job_timeout=args.job_timeout,
    )

    def announce(port: int) -> None:
        print(
            f"repro service listening on http://{args.host}:{port} "
            f"({len(service.registry)} problems, {service.max_workers} workers)",
            flush=True,
        )

    try:
        asyncio.run(serve(service, host=args.host, port=args.port, ready=announce))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


# ----------------------------------------------------------------- witnesses
def _cmd_witness_list(service, args) -> int:
    page = service.list_witnesses(limit=args.limit)
    if args.as_json:
        print(page.to_json())
        return 0
    if not page.witnesses:
        print("no stored witnesses")
        return 0
    for info in page.witnesses:
        print(
            f"{info.digest[:16]}…  {info.name or '<unnamed>':<28} "
            f"proof size {info.proof_size:>4}  {info.payload_bytes:>8} bytes"
        )
    print(f"\n{len(page.witnesses)} witnesses")
    return 0


def _cmd_witness_show(service, args) -> int:
    info = service.get_witness(args.digest).info
    if info is None:
        raise CliError(f"no witness {args.digest!r} in this store")
    if args.as_json:
        print(info.to_json())
        return 0
    print(f"digest:        {info.digest}")
    print(f"name:          {info.name or '<unnamed>'}")
    print(f"proof size:    {info.proof_size}")
    print(f"payload bytes: {info.payload_bytes}")
    if info.sequent:
        print(f"sequent:       {info.sequent}")
    return 0


def _cmd_witness_export(service, args) -> int:
    blob = base64.b64decode(service.get_witness(args.digest).payload)
    output = args.output or f"{args.digest}.witness"
    try:
        with open(output, "wb") as handle:
            handle.write(blob)
    except OSError as exc:
        raise CliError(f"cannot write {output!r}: {exc}", code=1) from exc
    print(f"exported {args.digest} to {output} ({len(blob)} bytes)")
    return 0


def _cmd_witness_import(service, args) -> int:
    imported: List[api.WitnessInfo] = []
    for path in args.paths:
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise CliError(f"cannot read {path!r}: {exc}") from exc
        try:
            info = service.import_witness(api.WitnessPayload(payload=base64.b64encode(blob).decode("ascii")))
        except api.ApiError as exc:
            raise CliError(f"{path}: {exc.message}", code=_EXIT_CODES.get(exc.code, 1)) from exc
        imported.append(info)
        print(f"imported {info.digest}  ({info.name or '<unnamed>'}, proof size {info.proof_size})")
    if args.as_json:
        print(api.WitnessPage(witnesses=tuple(imported)).to_json())
    return 0


def _cmd_witness_handwritten(service, args) -> int:
    if not isinstance(service, SynthesisService):
        raise CliError("witness handwritten needs --cache-dir (proofs are built locally)")
    from repro.witness.handwritten import install_handwritten, replay_handwritten

    store = service.cache.witnesses
    records = install_handwritten(store)
    reports = []
    for name in sorted(records):
        report = replay_handwritten(store, name, scale=args.scale)
        reports.append(report)
        print(
            f"installed {records[name].digest}  ({name}: proof size "
            f"{report.proof_nodes}, replay verified "
            f"{report.conditions_checked} interpolant conditions)"
        )
    if args.as_json:
        print(
            json.dumps(
                {
                    report.name: {
                        "digest": records[report.name].digest,
                        "proof_nodes": report.proof_nodes,
                        "conditions_checked": report.conditions_checked,
                    }
                    for report in reports
                },
                indent=2,
            )
        )
    return 0


# ------------------------------------------------------------- the table
def _service(args):
    """The server at ``--url`` (``client``, ``sweep --url``), else this process."""
    url = getattr(args, "url", None)
    if url:
        return RemoteService(url, poll_interval=getattr(args, "poll_interval", DEFAULT_POLL_INTERVAL))
    return SynthesisService()


def _witness_service(args):
    """The server at ``--url`` or this process over ``--cache-dir``: exactly one."""
    if bool(args.cache_dir) == bool(args.url):
        raise CliError("pass exactly one of --cache-dir or --url")
    return RemoteService(args.url) if args.url else SynthesisService(cache_dir=args.cache_dir)


def _arg(*flags: str, where: str = "both", **options):
    """One ``add_argument`` call, for the ``local`` form, the ``remote`` form or ``both``."""
    return flags, options, where


@dataclass(frozen=True)
class _Command:
    """One subcommand: its arguments and ``run(service, args)``.

    ``local``/``remote`` say whether it is a ``repro NAME`` subcommand, a
    ``repro client NAME`` operation, or both.  ``service(args)`` finds the
    service ``run`` gets; with ``service=None``, ``run`` takes ``args``
    alone.  A group (``witness``) has ``subcommands`` instead of ``run``.
    """

    name: str
    help: str
    run: Optional[Callable[..., int]] = None
    args: Tuple[tuple, ...] = ()
    local: bool = True
    remote: bool = False
    service: Optional[Callable] = _service
    subcommands: Tuple["_Command", ...] = ()


_JSON = _arg("--json", action="store_true", dest="as_json")
_WITNESS_LOCATION = (
    _arg("--cache-dir", help="cache directory holding the witnesses/ tier"),
    _arg("--url", help="talk to a running `repro serve` instead of a directory"),
    _JSON,
)


def _witness_command(name: str, summary: str, run: Callable[..., int], *args) -> _Command:
    """A ``repro witness`` subcommand: its own arguments, then where the store is."""
    return _Command(name, summary, run, (*args, *_WITNESS_LOCATION), service=_witness_service)


_WITNESS_COMMANDS = (
    _witness_command(
        "list",
        "inventory of stored witnesses (newest first)",
        _cmd_witness_list,
        _arg("--limit", type=int, help="show at most this many"),
    ),
    _witness_command("show", "one stored witness's metadata", _cmd_witness_show, _arg("digest")),
    _witness_command(
        "export",
        "write a witness payload to a file",
        _cmd_witness_export,
        _arg("digest"),
        _arg("--output", "-o", metavar="FILE", help="default: <digest>.witness"),
    ),
    _witness_command(
        "import",
        "validate and adopt exported witness payload files",
        _cmd_witness_import,
        _arg("paths", nargs="+", metavar="FILE"),
    ),
    _witness_command(
        "handwritten",
        "install the hand-written hard-entry witnesses (Examples 1.1/4.1) "
        "and replay them through checker → interpolation → verification",
        _cmd_witness_handwritten,
        _arg("--scale", type=int, default=2, help="instance-family scale for replay verification"),
    ),
)

#: Every subcommand, in ``--help`` order (local and ``client`` interleaved).
COMMANDS = (
    _Command("health", "liveness, job and cache counters, queue depth", _cmd_health, local=False, remote=True),
    _Command(
        "list",
        "list the registered problems",
        _cmd_list,
        (_arg("--tag", help="only entries carrying this tag"), _JSON),
        remote=True,
    ),
    _Command(
        "synthesize",
        "run one problem through the staged pipeline",
        _cmd_synthesize,
        (
            _arg("name", nargs="?", help="registry name (see `repro list`)"),
            _arg(
                "--spec",
                metavar="FILE",
                help="synthesize a textual spec file instead of a registry name ('-' = stdin)",
            ),
            _arg("--max-depth", type=int, help="proof-search depth"),
            _arg("--verify-scale", type=int, default=0, help="also verify on this many generated instances (0 = skip)"),
            _arg("--cache-dir", where="local", help="persistent cache directory"),
            _arg("--raw", where="local", action="store_true", help="print the unsimplified definition too"),
            _arg("--timeout", where="remote", type=float, help="per-job seconds"),
            _arg(
                "--no-wait",
                where="remote",
                action="store_true",
                help="submit asynchronously and print the job status instead of waiting",
            ),
            _JSON,
        ),
        remote=True,
    ),
    _Command(
        "verify",
        "synthesize + check the definition on generated instances",
        _cmd_verify,
        (
            _arg("name"),
            _arg("--scale", type=int, default=api.DEFAULT_VERIFY_SCALE, help="instance family size"),
            _arg("--max-depth", type=int),
            _JSON,
        ),
    ),
    _Command(
        "fuzz",
        "generate seeded Δ0 specs and differential-check every layer",
        _cmd_fuzz,
        (
            _arg("--seed", type=int, default=0, help="stream seed (deterministic)"),
            _arg("--count", type=int, default=100, help="specs to generate"),
            _arg("--max-depth", type=int, default=12, help="proof-search depth"),
            _arg("--url", help="also submit each spec to this running `repro serve` and compare results"),
            _arg("--artifacts", metavar="DIR", help="write report.json plus one minimized .spec per failure here"),
            _arg("--no-shrink", action="store_true", help="report failures unminimized (faster)"),
            _arg(
                "--replay",
                nargs="+",
                metavar="PATH",
                help="replay corpus spec files (or directories of .spec files) instead of generating",
            ),
            _JSON,
        ),
        service=None,
    ),
    _Command(
        "sweep",
        "run many problems through the parallel pipeline",
        _cmd_sweep,
        (
            _arg("names", nargs="*", help="registry names (default: every synthesizable entry)"),
            _arg(
                "--all",
                action="store_true",
                help="sweep every entry, including known-xfail and hard ones (set --timeout!)",
            ),
            _arg("--processes", type=int),
            _arg("--timeout", type=float, help="per-job seconds"),
            _arg("--verify-scale", type=int, default=0),
            _arg("--cache-dir"),
            _arg("--max-depth", type=int),
            _arg("--url", help="submit to a running `repro serve` instead of in-process"),
            _arg(
                "--poll-interval",
                type=float,
                default=DEFAULT_POLL_INTERVAL,
                help="seconds between remote job polls (with --url)",
            ),
            _JSON,
        ),
    ),
    _Command("job", "one job's status", _cmd_job, (_arg("job_id"),), local=False, remote=True),
    _Command("cancel", "cancel a queued or running job", _cmd_cancel, (_arg("job_id"),), local=False, remote=True),
    _Command(
        "cache-stats",
        "inspect a persistent cache directory",
        _cmd_cache_stats,
        (_arg("--cache-dir", help="persistent cache directory"), _JSON),
        remote=True,
    ),
    _Command("witness", "inspect and exchange stored proof witnesses", subcommands=_WITNESS_COMMANDS),
    _Command(
        "serve",
        "run the asyncio HTTP front-end over the synthesis service",
        _cmd_serve,
        (
            _arg("--host", default=DEFAULT_HOST),
            _arg("--port", type=int, default=DEFAULT_PORT),
            _arg("--cache-dir", help="persistent cache directory"),
            _arg("--max-workers", type=int, help="concurrent synthesis worker processes"),
            _arg("--queue-limit", type=int, help="bound on queued + running jobs"),
            _arg("--job-timeout", type=float, help="default per-job seconds"),
        ),
        service=None,
    ),
    _Command(
        "metrics",
        "the server's metrics",
        _cmd_metrics,
        (_arg("--json", action="store_true", dest="as_json", help="JSON snapshot instead of Prometheus text"),),
        local=False,
        remote=True,
    ),
    _Command("trace", "one job's recorded trace spans", _cmd_trace, (_arg("job_id"), _JSON), local=False, remote=True),
)


def _add_commands(subparsers, commands, form: str) -> None:
    """Add the ``form`` (``"local"`` or ``"remote"``) of each command."""
    for command in commands:
        if not (command.remote if form == "remote" else command.local):
            continue
        parser = subparsers.add_parser(command.name, help=command.help)
        if command.subcommands:
            group = parser.add_subparsers(dest=f"{command.name}_command", required=True)
            _add_commands(group, command.subcommands, form)
            continue
        for flags, options, where in command.args:
            if where in ("both", form):
                parser.add_argument(*flags, **options)
            else:
                # The other form's argument still sets its dest, at its default.
                action = argparse.ArgumentParser().add_argument(*flags, **options)
                parser.set_defaults(**{action.dest: action.default})
        parser.set_defaults(operation=command)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synthesize nested relational queries from implicit specifications "
        "(Benedikt–Pradic–Wernhard, PODS 2023) — service front end.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_commands(subparsers, COMMANDS, "local")
    client = subparsers.add_parser("client", help="talk to a running `repro serve` over HTTP")
    client.add_argument(
        "--url",
        default=f"http://{DEFAULT_HOST}:{DEFAULT_PORT}",
        help="base URL of the server (default: %(default)s)",
    )
    _add_commands(client.add_subparsers(dest="client_command", required=True), COMMANDS, "remote")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.operation
    try:
        return command.run(command.service(args), args) if command.service else command.run(args)
    except api.ApiError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return _EXIT_CODES.get(exc.code, 1)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
