"""``python -m repro`` — the synthesis service command line.

Subcommands::

    python -m repro list        [--tag T] [--json]
    python -m repro synthesize  [NAME] [--spec FILE] [--max-depth N]
                                [--verify-scale N] [--cache-dir D]
                                [--ancestor DIGEST] [--raw] [--json]
    python -m repro verify      NAME [--scale N] [--max-depth N] [--json]
    python -m repro fuzz        [--seed N] [--count N] [--max-depth N]
                                [--mutate] [--url U] [--artifacts D]
                                [--no-shrink] [--replay PATH ...] [--json]
    python -m repro sweep       [NAME ...] [--all] [--processes N]
                                [--timeout S] [--verify-scale N]
                                [--cache-dir D] [--max-depth N]
                                [--url U] [--json]
    python -m repro cache-stats [--cache-dir D] [--json]
    python -m repro witness     list|show|import|export|handwritten ...
                                [--cache-dir D | --url U] [--json]
    python -m repro serve       [--host H] [--port P] [--cache-dir D]
                                [--max-workers N] [--queue-limit N]
                                [--job-timeout S]
    python -m repro client      [--url U] health|list|synthesize|job|cancel|
                                cache-stats|metrics|trace ...

Every subcommand is a thin client of the typed service API
(:mod:`repro.service.api`): ``list``/``synthesize``/``verify``/``sweep``/
``cache-stats`` build a request object, call the in-process
:class:`~repro.service.server.SynthesisService`, and render the typed
response; ``client`` sends the same requests to a running ``repro serve``
over HTTP and renders the same responses, so local and remote output match.

``sweep`` is a **submit-then-poll client** of the async sweep engine: it
submits a :class:`~repro.service.api.SweepRequest` (to the in-process
service, or with ``--url`` to a running ``repro serve`` over ``POST
/v1/sweeps``), polls until the job is terminal, and renders its
:class:`~repro.service.api.SweepResponse` — the same text and the same
``--json`` document either way.

Everything prints human-readable text by default; ``--json`` switches every
subcommand to a machine-readable JSON document on stdout (one object).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional
from urllib import error as urllib_error
from urllib import request as urllib_request
from urllib.parse import quote, urlencode

from repro.service import api
from repro.service.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    DEFAULT_QUEUE_LIMIT,
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


def _cli_error(exc: api.ApiError) -> CliError:
    return CliError(exc.message, code=_EXIT_CODES.get(exc.code, 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synthesize nested relational queries from implicit specifications "
        "(Benedikt–Pradic–Wernhard, PODS 2023) — service front end.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list the registered problems")
    list_parser.add_argument("--tag", help="only entries carrying this tag")
    list_parser.add_argument("--json", action="store_true", dest="as_json")

    synth_parser = subparsers.add_parser(
        "synthesize", help="run one problem through the staged pipeline"
    )
    synth_parser.add_argument(
        "name", nargs="?", default=None, help="registry name (see `repro list`)"
    )
    synth_parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="synthesize a textual spec file instead of a registry name ('-' = stdin)",
    )
    synth_parser.add_argument("--max-depth", type=int, default=None, help="proof-search depth")
    synth_parser.add_argument(
        "--verify-scale",
        type=int,
        default=0,
        help="also verify on this many generated instances (0 = skip)",
    )
    synth_parser.add_argument("--cache-dir", default=None, help="persistent cache directory")
    synth_parser.add_argument(
        "--ancestor",
        default=None,
        metavar="DIGEST",
        help="witness digest of the spec this one was edited from "
        "(incremental resynthesis; needs --cache-dir)",
    )
    synth_parser.add_argument(
        "--raw", action="store_true", help="print the unsimplified definition too"
    )
    synth_parser.add_argument("--json", action="store_true", dest="as_json")

    verify_parser = subparsers.add_parser(
        "verify", help="synthesize + check the definition on generated instances"
    )
    verify_parser.add_argument("name")
    verify_parser.add_argument(
        "--scale", type=int, default=api.DEFAULT_VERIFY_SCALE, help="instance family size"
    )
    verify_parser.add_argument("--max-depth", type=int, default=None)
    verify_parser.add_argument("--json", action="store_true", dest="as_json")

    fuzz_parser = subparsers.add_parser(
        "fuzz", help="generate seeded Δ0 specs and differential-check every layer"
    )
    fuzz_parser.add_argument("--seed", type=int, default=0, help="stream seed (deterministic)")
    fuzz_parser.add_argument("--count", type=int, default=100, help="specs to generate")
    fuzz_parser.add_argument("--max-depth", type=int, default=12, help="proof-search depth")
    fuzz_parser.add_argument(
        "--url",
        default=None,
        help="also submit each spec to this running `repro serve` and compare results",
    )
    fuzz_parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="write report.json plus one minimized .spec per failure here",
    )
    fuzz_parser.add_argument(
        "--no-shrink", action="store_true", help="report failures unminimized (faster)"
    )
    fuzz_parser.add_argument(
        "--mutate",
        action="store_true",
        help="edit-mode: mutate each spec in one subtree and differentially "
        "check incremental resynthesis against a cold run",
    )
    fuzz_parser.add_argument(
        "--replay",
        nargs="+",
        default=None,
        metavar="PATH",
        help="replay corpus spec files (or directories of .spec files) instead of generating",
    )
    fuzz_parser.add_argument("--json", action="store_true", dest="as_json")

    sweep_parser = subparsers.add_parser(
        "sweep", help="run many problems through the parallel pipeline"
    )
    sweep_parser.add_argument(
        "names", nargs="*", help="registry names (default: every synthesizable entry)"
    )
    sweep_parser.add_argument(
        "--all",
        action="store_true",
        help="sweep every entry, including known-xfail and hard ones (set --timeout!)",
    )
    sweep_parser.add_argument("--processes", type=int, default=None)
    sweep_parser.add_argument("--timeout", type=float, default=None, help="per-job seconds")
    sweep_parser.add_argument("--verify-scale", type=int, default=0)
    sweep_parser.add_argument("--cache-dir", default=None)
    sweep_parser.add_argument("--max-depth", type=int, default=None)
    sweep_parser.add_argument(
        "--url",
        default=None,
        help="submit to a running `repro serve` instead of in-process",
    )
    sweep_parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="seconds between remote job polls (with --url)",
    )
    sweep_parser.add_argument("--json", action="store_true", dest="as_json")

    stats_parser = subparsers.add_parser(
        "cache-stats", help="inspect a persistent cache directory"
    )
    stats_parser.add_argument("--cache-dir", default=None, help="persistent cache directory")
    stats_parser.add_argument("--json", action="store_true", dest="as_json")

    witness_parser = subparsers.add_parser(
        "witness", help="inspect and exchange stored proof witnesses"
    )
    witness_sub = witness_parser.add_subparsers(dest="witness_command", required=True)

    def _witness_common(sub_parser) -> None:
        sub_parser.add_argument(
            "--cache-dir", default=None, help="cache directory holding the witnesses/ tier"
        )
        sub_parser.add_argument(
            "--url", default=None, help="talk to a running `repro serve` instead of a directory"
        )
        sub_parser.add_argument("--json", action="store_true", dest="as_json")

    w_list = witness_sub.add_parser("list", help="inventory of stored witnesses (newest first)")
    w_list.add_argument("--limit", type=int, default=None, help="show at most this many")
    _witness_common(w_list)

    w_show = witness_sub.add_parser("show", help="one stored witness's metadata")
    w_show.add_argument("digest")
    _witness_common(w_show)

    w_export = witness_sub.add_parser("export", help="write a witness payload to a file")
    w_export.add_argument("digest")
    w_export.add_argument(
        "--output", "-o", default=None, metavar="FILE", help="default: <digest>.witness"
    )
    _witness_common(w_export)

    w_import = witness_sub.add_parser(
        "import", help="validate and adopt exported witness payload files"
    )
    w_import.add_argument("paths", nargs="+", metavar="FILE")
    _witness_common(w_import)

    w_hand = witness_sub.add_parser(
        "handwritten",
        help="install the hand-written hard-entry witnesses (Examples 1.1/4.1) "
        "and replay them through checker → interpolation → verification",
    )
    w_hand.add_argument(
        "--scale", type=int, default=2, help="instance-family scale for replay verification"
    )
    _witness_common(w_hand)

    serve_parser = subparsers.add_parser(
        "serve", help="run the asyncio HTTP front-end over the synthesis service"
    )
    serve_parser.add_argument("--host", default=DEFAULT_HOST)
    serve_parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve_parser.add_argument("--cache-dir", default=None, help="persistent cache directory")
    serve_parser.add_argument(
        "--max-workers", type=int, default=None, help="concurrent synthesis worker processes"
    )
    serve_parser.add_argument(
        "--queue-limit", type=int, default=None, help="bound on queued + running jobs"
    )
    serve_parser.add_argument(
        "--job-timeout", type=float, default=None, help="default per-job seconds"
    )

    client_parser = subparsers.add_parser(
        "client", help="talk to a running `repro serve` over HTTP"
    )
    client_parser.add_argument(
        "--url",
        default=f"http://{DEFAULT_HOST}:{DEFAULT_PORT}",
        help="base URL of the server (default: %(default)s)",
    )
    client_sub = client_parser.add_subparsers(dest="client_command", required=True)

    client_sub.add_parser("health", help="GET /healthz")

    client_list = client_sub.add_parser("list", help="GET /v1/problems")
    client_list.add_argument("--tag")
    client_list.add_argument("--json", action="store_true", dest="as_json")

    client_synth = client_sub.add_parser("synthesize", help="POST /v1/synthesize")
    client_synth.add_argument("name", nargs="?", default=None)
    client_synth.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="submit a textual spec file instead of a registry name ('-' = stdin)",
    )
    client_synth.add_argument("--max-depth", type=int, default=None)
    client_synth.add_argument("--verify-scale", type=int, default=0)
    client_synth.add_argument("--timeout", type=float, default=None, help="per-job seconds")
    client_synth.add_argument(
        "--no-wait",
        action="store_true",
        help="submit asynchronously and print the job status instead of waiting",
    )
    client_synth.add_argument("--json", action="store_true", dest="as_json")

    client_job = client_sub.add_parser("job", help="GET /v1/jobs/<id>")
    client_job.add_argument("job_id")

    client_cancel = client_sub.add_parser("cancel", help="DELETE /v1/jobs/<id>")
    client_cancel.add_argument("job_id")

    client_stats = client_sub.add_parser("cache-stats", help="GET /v1/cache/stats")
    client_stats.add_argument("--cache-dir", default=None)
    client_stats.add_argument("--json", action="store_true", dest="as_json")

    client_metrics = client_sub.add_parser("metrics", help="GET /v1/metrics")
    client_metrics.add_argument(
        "--json", action="store_true", dest="as_json", help="JSON snapshot instead of Prometheus text"
    )

    client_trace = client_sub.add_parser("trace", help="GET /v1/jobs/<id>/trace")
    client_trace.add_argument("job_id")
    client_trace.add_argument("--json", action="store_true", dest="as_json")

    return parser


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
    if isinstance(stats, api.ProcessCacheStats):
        if as_json:
            print(stats.to_json())
            return 0
        print("no --cache-dir given; showing this process's in-memory telemetry:")
        process = stats.to_json_dict()["process"]
        for name, counters in process.items():
            rendered = ", ".join(f"{key}={value}" for key, value in counters.items())
            print(f"  {name}: {rendered}")
        return 0
    if as_json:
        print(stats.to_json())
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


# ------------------------------------------------------------------ commands
def _cmd_list(args) -> int:
    service = SynthesisService()
    return _render_problem_list(service.list_problems(tag=args.tag), args.as_json)


def _read_spec_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read spec file {path!r}: {exc}") from exc


def _cmd_synthesize(args) -> int:
    if (args.name is None) == (args.spec is None):
        raise CliError("pass exactly one of NAME or --spec FILE")
    if getattr(args, "ancestor", None) and not getattr(args, "cache_dir", None):
        raise CliError("--ancestor needs --cache-dir (the witness store lives there)")
    service = SynthesisService()
    request = api.SynthesizeRequest(
        problem=args.name or "",
        spec_text=_read_spec_file(args.spec) if args.spec else None,
        max_depth=args.max_depth,
        verify_scale=args.verify_scale,
        cache_dir=getattr(args, "cache_dir", None),
        ancestor=getattr(args, "ancestor", None),
        # --raw only affects the text rendering; the JSON document is the
        # stable v1 schema with or without it.
        include_raw=bool(getattr(args, "raw", False)) and not args.as_json,
    )
    response = service.synthesize(request)
    return _render_synthesis(response, args.as_json, show_raw=bool(getattr(args, "raw", False)))


def _cmd_verify(args) -> int:
    service = SynthesisService()
    request = api.VerifyRequest(problem=args.name, scale=args.scale, max_depth=args.max_depth)
    response = service.verify(request)
    return _render_synthesis(response, args.as_json, show_raw=False)


def _cmd_fuzz(args) -> int:
    from repro.specs.fuzz import run_fuzz

    if args.replay:
        return _fuzz_replay(args)
    if args.mutate and args.url:
        raise CliError("--mutate is local-only; drop --url")

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
        mutate=args.mutate,
        on_event=on_event,
    )
    document = {
        "seed": report.seed,
        "count": report.count,
        "checked": report.checked,
        "synthesized": report.synthesized,
        "elapsed_seconds": round(report.elapsed_seconds, 3),
        "mutate": args.mutate,
        "sources": report.sources,
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
        mode = " (edit-mode)" if args.mutate else ""
        print(
            f"fuzz seed={report.seed}{mode}: {report.synthesized}/{report.checked} "
            f"synthesized clean, {len(report.failures)} failure(s) "
            f"in {report.elapsed_seconds:.2f}s"
        )
        if report.sources:
            breakdown = ", ".join(
                f"{key}={value}" for key, value in sorted(report.sources.items())
            )
            print(f"  incremental-run provenance: {breakdown}")
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


def _cmd_sweep(args) -> int:
    request = api.SweepRequest(
        problems=tuple(args.names),
        include_all=bool(args.all and not args.names),
        processes=args.processes,
        timeout=args.timeout,
        verify_scale=args.verify_scale,
        cache_dir=args.cache_dir,
        max_depth=args.max_depth,
    )
    if args.url:
        response = _remote_sweep(args.url, request, args.poll_interval)
    else:
        response = _local_sweep(request)
    return _render_sweep(response, args.as_json)


def _local_sweep(request: api.SweepRequest) -> api.SweepResponse:
    """Submit-then-poll against an in-process service (no server needed)."""
    import asyncio

    service = SynthesisService()

    async def _run() -> api.SweepJobStatus:
        status = await service.submit_sweep(request)
        return await service.wait_sweep(status.id)

    status = asyncio.run(_run())
    if status.error is not None:
        raise api.ApiError.from_info(status.error)
    if status.result is None:
        raise api.ApiError("internal", f"sweep {status.id} finished without a result")
    return status.result


def _remote_sweep(
    url: str, request: api.SweepRequest, poll_interval: float
) -> api.SweepResponse:
    """Submit to ``POST /v1/sweeps`` on a server, poll until terminal."""
    import time

    base = url.rstrip("/")
    payload = _http(
        f"{base}/{api.API_VERSION}/sweeps", method="POST", payload=request.to_json_dict()
    )
    status = api.SweepJobStatus.from_json_dict(payload)
    while not status.finished:
        time.sleep(max(poll_interval, 0.01))
        payload = _http(f"{base}/{api.API_VERSION}/sweeps/{quote(status.id)}")
        status = api.SweepJobStatus.from_json_dict(payload)
    if status.error is not None:
        raise _cli_error(api.ApiError.from_info(status.error))
    if status.result is None:
        raise CliError(f"sweep {status.id} finished without a result", code=1)
    return status.result


def _cmd_cache_stats(args) -> int:
    service = SynthesisService()
    return _render_cache_stats(service.cache_stats(cache_dir=args.cache_dir), args.as_json)


# ----------------------------------------------------------------- witnesses
def _witness_store_for(args):
    if bool(args.cache_dir) == bool(args.url):
        raise CliError("pass exactly one of --cache-dir or --url")
    from pathlib import Path

    from repro.witness.store import WITNESS_SUBDIR, WitnessStore

    return WitnessStore(Path(args.cache_dir) / WITNESS_SUBDIR)


def _render_witness_infos(infos: List[api.WitnessInfo], as_json: bool) -> int:
    if as_json:
        print(api.WitnessPage(witnesses=tuple(infos)).to_json())
        return 0
    if not infos:
        print("no stored witnesses")
        return 0
    for info in infos:
        print(
            f"{info.digest[:16]}…  {info.name or '<unnamed>':<28} "
            f"proof size {info.proof_size:>4}  {info.payload_bytes:>8} bytes"
        )
    print(f"\n{len(infos)} witnesses")
    return 0


def _witness_infos(args) -> List[api.WitnessInfo]:
    """The (newest-first) inventory from the directory or the server."""
    if args.url:
        base = args.url.rstrip("/")
        page = api.WitnessPage.from_json_dict(_http(f"{base}/{api.API_VERSION}/witnesses"))
        return list(page.witnesses)
    store = _witness_store_for(args)
    return [
        api.WitnessInfo(
            digest=summary.digest,
            name=summary.name,
            proof_size=summary.proof_size,
            created=summary.created,
            payload_bytes=summary.payload_bytes,
            sequent=summary.sequent,
        )
        for summary in store.list()
    ]


def _cmd_witness(args) -> int:
    import base64

    from repro.errors import ProofError

    if bool(args.cache_dir) == bool(args.url):
        raise CliError("pass exactly one of --cache-dir or --url")
    command = args.witness_command
    if command == "list":
        infos = _witness_infos(args)
        limit = getattr(args, "limit", None)
        if limit is not None:
            infos = infos[:limit]
        return _render_witness_infos(infos, args.as_json)
    if command == "show":
        matches = [info for info in _witness_infos(args) if info.digest == args.digest]
        if not matches:
            raise CliError(f"no witness {args.digest!r} in this store")
        info = matches[0]
        if args.as_json:
            print(json.dumps(info.to_json_dict(), indent=2))
            return 0
        print(f"digest:        {info.digest}")
        print(f"name:          {info.name or '<unnamed>'}")
        print(f"proof size:    {info.proof_size}")
        print(f"payload bytes: {info.payload_bytes}")
        if info.sequent:
            print(f"sequent:       {info.sequent}")
        return 0
    if command == "export":
        if args.url:
            base = args.url.rstrip("/")
            document = api.WitnessPayload.from_json_dict(
                _http(f"{base}/{api.API_VERSION}/witnesses/{quote(args.digest)}")
            )
            blob = base64.b64decode(document.payload)
        else:
            blob = _witness_store_for(args).export_payload(args.digest)
            if blob is None:
                raise CliError(f"no witness {args.digest!r} in this store")
        output = args.output or f"{args.digest}.witness"
        try:
            with open(output, "wb") as handle:
                handle.write(blob)
        except OSError as exc:
            raise CliError(f"cannot write {output!r}: {exc}", code=1) from exc
        print(f"exported {args.digest} to {output} ({len(blob)} bytes)")
        return 0
    if command == "handwritten":
        if args.url:
            raise CliError("witness handwritten needs --cache-dir (proofs are built locally)")
        from repro.witness.handwritten import install_handwritten, replay_handwritten

        store = _witness_store_for(args)
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
    if command == "import":
        imported: List[api.WitnessInfo] = []
        store = None if args.url else _witness_store_for(args)
        for path in args.paths:
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
            except OSError as exc:
                raise CliError(f"cannot read {path!r}: {exc}") from exc
            if args.url:
                base = args.url.rstrip("/")
                document = api.WitnessPayload(payload=base64.b64encode(blob).decode("ascii"))
                info = api.WitnessInfo.from_json_dict(
                    _http(
                        f"{base}/{api.API_VERSION}/witnesses",
                        method="PUT",
                        payload=document.to_json_dict(),
                    )
                )
            else:
                try:
                    record = store.import_payload(blob)
                except ProofError as exc:
                    raise CliError(f"{path}: witness payload rejected: {exc}") from exc
                info = api.WitnessInfo(
                    digest=record.digest,
                    name=record.name,
                    proof_size=record.proof_size,
                    created=record.created,
                    payload_bytes=len(blob),
                    sequent=str(record.sequent),
                )
            imported.append(info)
            print(f"imported {info.digest}  ({info.name or '<unnamed>'}, proof size {info.proof_size})")
        if args.as_json:
            print(api.WitnessPage(witnesses=tuple(imported)).to_json())
        return 0
    raise CliError(f"unknown witness command {command!r}")


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


# ------------------------------------------------------------------- client
def _http_text(url: str) -> str:
    """GET ``url`` and return the raw response body (non-JSON routes)."""
    http_request = urllib_request.Request(url, headers={"Accept": "text/plain"})
    try:
        with urllib_request.urlopen(http_request) as http_response:
            return http_response.read().decode("utf-8")
    except urllib_error.HTTPError as exc:
        body = exc.read().decode("utf-8", "replace")
        raise CliError(f"HTTP {exc.code} from {url}: {body.strip()}", code=1) from exc
    except urllib_error.URLError as exc:
        raise CliError(
            f"cannot reach the repro server at {url}: {exc.reason} "
            f"(is `repro serve` running?)",
            code=1,
        ) from exc


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


def _http(url: str, method: str = "GET", payload: Optional[dict] = None) -> dict:
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    http_request = urllib_request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib_request.urlopen(http_request) as http_response:
            return json.loads(http_response.read().decode("utf-8"))
    except urllib_error.HTTPError as exc:
        body = exc.read().decode("utf-8", "replace")
        try:
            raise _cli_error(api.ApiError.from_json_dict(json.loads(body))) from exc
        except (ValueError, KeyError):
            raise CliError(f"HTTP {exc.code} from {url}: {body.strip()}", code=1) from exc
    except urllib_error.URLError as exc:
        raise CliError(
            f"cannot reach the repro server at {url}: {exc.reason} "
            f"(is `repro serve` running?)",
            code=1,
        ) from exc


def _cmd_client(args) -> int:
    base = args.url.rstrip("/")
    command = args.client_command
    if command == "health":
        print(json.dumps(_http(f"{base}/healthz"), indent=2))
        return 0
    if command == "list":
        url = f"{base}/{api.API_VERSION}/problems"
        if args.tag:
            url += "?" + urlencode({"tag": args.tag})
        infos = [api.ProblemInfo.from_json_dict(entry) for entry in _http(url)]
        return _render_problem_list(infos, args.as_json)
    if command == "synthesize":
        if (args.name is None) == (args.spec is None):
            raise CliError("pass exactly one of NAME or --spec FILE")
        request = api.SynthesizeRequest(
            problem=args.name or "",
            spec_text=_read_spec_file(args.spec) if args.spec else None,
            max_depth=args.max_depth,
            verify_scale=args.verify_scale,
            timeout=args.timeout,
        )
        wait = "0" if args.no_wait else "1"
        payload = _http(
            f"{base}/{api.API_VERSION}/synthesize?wait={wait}",
            method="POST",
            payload=request.to_json_dict(),
        )
        status = api.JobStatus.from_json_dict(payload)
        if status.state == api.JOB_DONE and status.result is not None and not args.no_wait:
            return _render_synthesis(status.result, args.as_json, show_raw=False)
        print(status.to_json())
        if status.state == api.JOB_FAILED:
            return 1
        return 0
    if command == "job":
        payload = _http(f"{base}/{api.API_VERSION}/jobs/{quote(args.job_id)}")
        print(json.dumps(payload, indent=2))
        return 0
    if command == "cancel":
        payload = _http(f"{base}/{api.API_VERSION}/jobs/{quote(args.job_id)}", method="DELETE")
        print(json.dumps(payload, indent=2))
        return 0
    if command == "cache-stats":
        url = f"{base}/{api.API_VERSION}/cache/stats"
        if args.cache_dir:
            url += "?" + urlencode({"cache_dir": args.cache_dir})
        payload = _http(url)
        if "process" in payload:
            stats = api.ProcessCacheStats.from_json_dict(payload)
        else:
            stats = api.DiskCacheStats.from_json_dict(payload)
        return _render_cache_stats(stats, args.as_json)
    if command == "metrics":
        if args.as_json:
            payload = _http(f"{base}/{api.API_VERSION}/metrics?format=json")
            print(json.dumps(payload, indent=2))
        else:
            print(_http_text(f"{base}/{api.API_VERSION}/metrics"), end="")
        return 0
    if command == "trace":
        payload = _http(f"{base}/{api.API_VERSION}/jobs/{quote(args.job_id)}/trace")
        return _render_trace(api.TraceInfo.from_json_dict(payload), args.as_json)
    raise CliError(f"unknown client command {command!r}")


_COMMANDS = {
    "list": _cmd_list,
    "synthesize": _cmd_synthesize,
    "verify": _cmd_verify,
    "fuzz": _cmd_fuzz,
    "sweep": _cmd_sweep,
    "cache-stats": _cmd_cache_stats,
    "witness": _cmd_witness,
    "serve": _cmd_serve,
    "client": _cmd_client,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except api.ApiError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return _EXIT_CODES.get(exc.code, 1)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
