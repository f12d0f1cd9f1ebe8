"""http_serve: ``repro serve`` under two closed-loop clients.

The server runs as its own process with a fresh cache directory and two
worker slots.  Two client threads (one per core) each send a request, wait
for the answer (``?wait=1``) and send the next, in two kinds of phase that
alternate :data:`CYCLES` times:

* read: registry problems the server already holds, answered inline from
  its memory tier (expected ``cache_tier`` ``memory``); each client follows
  every read with one round trip to a reference server that is not the
  program (:mod:`perf_refserver`), and the read latencies are scaled by
  those round trips (see :data:`PROBE_REFERENCE_MS`);
* write: cold ``spec_text`` submissions from the seeded ``generate_spec``
  stream, each followed, where ``mutate_spec`` finds one, by a one-subtree
  edit sent with ``ancestor`` = the parent's witness digest (expected
  ``cache_tier`` ``miss``).

Reads and writes share the cache, the witness store and the event loop, so
a change that helps one phase and costs the other shows up.  Specs are
deduplicated by ``spec_digest`` (the seeded stream repeats itself often),
so every write is really cold.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import perf_layers
from perf_common import (
    WORK,
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    samples_beyond,
    source_env,
)

CLIENTS = 2
WORKERS = 2
#: Share of the run spent in the read phase.
READ_SHARE = 0.4
#: Read and write phases alternate this many times per server.
CYCLES = 4
#: Distinct cold specs prepared per run (more than a run can send).
SPECS = 300
#: Server starts per part; set-up time is their median over the run.
SERVER_STARTS = 3
#: Fresh interpreters and servers per run, each measuring half the time:
#: their hash seeds and heap layouts differ, and the pooled latencies even
#: that out.
PARTS = 2
#: What the reference round trip takes, by statistic, on the host every
#: warm read is scaled to: the median over six runs on a shared 2-vCPU VM.
#: Warm reads take a few milliseconds, and on such a VM the hypervisor's
#: steal time stretches them: at 6-9% steal their p50 rose by a quarter
#: and their p95 by half, while cold writes (~90 ms of CPU in a worker)
#: moved by 5%.  A round trip to the reference server, timed by the same
#: client right after each read, stretches the same way, so a warm figure
#: is reported as ``warm statistic * PROBE_REFERENCE_MS[statistic] /
#: reference statistic``: the drift of the host cancels, while a change to
#: the program's own cost shows in full, because the reference server is
#: not the program.
PROBE_REFERENCE_MS = {"p50": 4.7, "p95": 8.7, "mean": 5.3}
LAUNCHER = Path(__file__).resolve().parent / "perf_serve.py"
REFERENCE_SERVER = Path(__file__).resolve().parent / "perf_refserver.py"
TRACE_HEADER = "X-Repro-Trace"


# ---------------------------------------------------------------------- servers
def _launch(command: List[str], log_path: Path) -> Tuple[subprocess.Popen, int]:
    """Start a server that prints its URL first; returns it and its port."""
    with open(log_path, "wb") as log:
        process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log, env=source_env())
    ready, _, _ = select.select([process.stdout], [], [], 60)
    line = process.stdout.readline().decode("utf-8", "replace") if ready else ""
    match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
    if match is None:
        _stop(process, 0)
        raise RuntimeError(f"server did not start: {line!r} {log_path.read_text()[-2000:]}")
    return process, int(match.group(1))


def _stop(process: subprocess.Popen, signal: int) -> None:
    """Stop a server (``signal`` 0: kill it) and wait until it has ended."""
    if process.poll() is None:
        if signal:
            process.send_signal(signal)
        else:
            process.kill()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


class ReferenceServer:
    """The reference server of :mod:`perf_refserver` on an ephemeral port."""

    def __init__(self, log_path: Path) -> None:
        self.process, self.port = _launch([sys.executable, str(REFERENCE_SERVER)], log_path)

    def stop(self) -> None:
        _stop(self.process, 0)


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, cache_dir: Path, traced: bool) -> None:
        self.cache_dir = cache_dir
        self.traced = traced
        self.port = 0
        self.process: Optional[subprocess.Popen] = None
        self.log_path = cache_dir.with_suffix(".log")

    def start(self) -> float:
        """Launch and wait for ``/healthz``; returns seconds until healthy."""
        self.cache_dir.mkdir(parents=True)
        program = [str(LAUNCHER)] if self.traced else ["-m", "repro", "serve"]
        command = [sys.executable, *program, "--host", "127.0.0.1", "--port", "0"]
        command += ["--cache-dir", str(self.cache_dir), "--max-workers", str(WORKERS)]
        start = time.perf_counter()
        self.process, self.port = _launch(command, self.log_path)
        while True:
            try:
                status, _ = call(self.port, "GET", "/healthz")
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - start
            if time.perf_counter() - start > 60:
                self.stop()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def stop(self) -> float:
        """Stop the server; returns its peak RSS in MiB (0 if already gone)."""
        rss = 0.0
        if self.process is None:
            return rss
        try:
            rss = peak_rss_mb(self.process.pid)
        except (OSError, RuntimeError):
            pass
        _stop(self.process, 2)  # SIGINT: `repro serve` shuts down cleanly
        self.process = None
        return rss


def call(
    port: int, method: str, path: str, body: Optional[dict] = None, headers: Optional[dict] = None
) -> Tuple[int, object]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        all_headers = {"Content-Type": "application/json"} if data is not None else {}
        all_headers.update(headers or {})
        connection.request(method, path, body=data, headers=all_headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None
    finally:
        connection.close()


# ------------------------------------------------------------------- the mix
@dataclass
class WriteOp:
    kind: str  # "cold" | "edit"
    spec_text: str
    ancestor: Optional[str] = None


def _write_ops(seed: int, skip_digests: set) -> List[List[WriteOp]]:
    """Per client: cold specs, each followed by its edit where one exists."""
    from repro.service.cache import spec_digest
    from repro.specs.fuzz import generate_spec, mutate_spec
    from repro.witness.store import witness_digest

    seen = set(skip_digests)
    rng = random.Random(f"{seed}:edits")
    groups: List[List[WriteOp]] = []
    index = 0
    while len(groups) < SPECS:
        spec = generate_spec(seed, index)
        index += 1
        digest = spec_digest(spec.problem)
        if digest in seen:
            continue
        seen.add(digest)
        group = [WriteOp("cold", spec.spec_text())]
        edited = mutate_spec(spec, rng)
        if edited is not None and spec_digest(edited.problem) not in seen:
            seen.add(spec_digest(edited.problem))
            ancestor = witness_digest(spec.problem.determinacy_goal())
            group.append(WriteOp("edit", edited.spec_text(), ancestor))
        groups.append(group)
    return [[op for group in groups[client::CLIENTS] for op in group] for client in range(CLIENTS)]


def setup(seed: int, part: int) -> dict:
    from repro.service.cache import spec_digest
    from repro.service.registry import default_registry

    entries = [e for e in default_registry().sweepable() if not e.name.startswith("copy_chain")]
    registry_digests = {spec_digest(entry.problem()) for entry in default_registry()}
    work = WORK / f"http-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    return {
        "seed": f"{seed}:{part}",
        "reads": [entry.name for entry in entries],
        "writes": _write_ops(seed * PARTS + part, registry_digests),
        "work": work,
    }


# ---------------------------------------------------------------------- clients
@dataclass
class Samples:
    """Latencies per request class, plus what went wrong."""

    latency: Dict[str, List[float]] = field(
        default_factory=lambda: {"warm": [], "probe": [], "cold": [], "edit": []}
    )
    attempted: int = 0
    failed: int = 0
    incremental_edits: int = 0
    errors: List[str] = field(default_factory=list)
    book: perf_layers.LayerBook = field(default_factory=perf_layers.LayerBook)
    traced_wall: float = 0.0

    _RAW = ("latency", "attempted", "failed", "incremental_edits", "errors", "traced_wall")

    def to_raw(self) -> dict:
        raw = {key: getattr(self, key) for key in self._RAW}
        raw["layers"] = self.book.to_dict()
        return raw

    @classmethod
    def from_raw(cls, raw: dict) -> "Samples":
        samples = cls(**{key: raw[key] for key in cls._RAW})
        samples.book = perf_layers.LayerBook.from_dict(raw["layers"])
        return samples

    def merge(self, other: "Samples") -> None:
        for kind, values in other.latency.items():
            self.latency[kind] += values
        self.attempted += other.attempted
        self.failed += other.failed
        self.incremental_edits += other.incremental_edits
        self.errors += other.errors
        self.book.merge(other.book)
        self.traced_wall += other.traced_wall


class Client:
    """One closed-loop caller; with ``traced`` it keeps each request's job id
    and trace context so :meth:`book_traces` can read the spans back."""

    def __init__(self, port: int, traced: bool) -> None:
        self.port = port
        self.traced = traced
        self.samples = Samples()
        self._sent: List[Tuple[str, str, float]] = []

    def synthesize(self, kind: str, body: dict, expected_tier: str) -> None:
        headers = {}
        span_id = ""
        if self.traced:
            span_id = os.urandom(8).hex()
            headers[TRACE_HEADER] = f"{os.urandom(16).hex()}:{span_id}"
        self.samples.attempted += 1
        start = time.perf_counter()
        try:
            status, payload = call(self.port, "POST", "/v1/synthesize?wait=1", body, headers)
        except OSError as exc:
            status, payload = 0, {"error": str(exc)}
        elapsed = time.perf_counter() - start
        result = payload.get("result") if isinstance(payload, dict) else None
        tier = result.get("cache_tier") if isinstance(result, dict) else None
        if status != 200 or tier != expected_tier:
            self.samples.failed += 1
            self.samples.errors.append(f"{kind}: HTTP {status}, cache_tier {tier}: {str(payload)[:200]}")
            return
        self.samples.latency[kind].append(elapsed)
        if kind == "edit" and result.get("source") == "incremental":
            self.samples.incremental_edits += 1
        if self.traced:
            self._sent.append((payload["id"], span_id, elapsed))

    def probe(self, port: int) -> None:
        """One round trip to the reference server."""
        start = time.perf_counter()
        try:
            status, _ = call(port, "POST", "/", {"probe": True})
        except OSError as exc:
            status = exc
        if status != 200:
            self.samples.errors.append(f"reference server: {status}")
            return
        self.samples.latency["probe"].append(time.perf_counter() - start)

    def book_traces(self) -> None:
        """Book every traced request's spans, read back after the phases so
        that the reads do not change the load the requests saw."""
        book = self.samples.book
        for job_id, span_id, elapsed in self._sent:
            status, payload = call(self.port, "GET", f"/v1/jobs/{job_id}/trace")
            spans = payload.get("spans") if status == 200 and isinstance(payload, dict) else None
            self.samples.traced_wall += elapsed
            if not spans:
                book.add_residual(perf_layers.UNATTRIBUTED, elapsed)
                continue
            server_side = book.add_spans(spans)
            # What the client waited beyond the server's spans: connecting,
            # and the request and response on the wire.
            book.add_residual("service.http", elapsed - server_side)
        self._sent.clear()


def _run_clients(clients: List[Client], loop, deadline: float) -> None:
    threads = [
        threading.Thread(target=loop, args=(client, index, deadline))
        for index, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _stage(
    state: dict, server: Server, reference: ReferenceServer, seconds: float, traced: bool
) -> Tuple[Samples, int]:
    """Warm the read set, then alternate read and write phases; returns
    (samples, nodes).  Alternating spreads both phases over the
    whole stage, so a slow spell of the machine does not land on one."""
    seed, reads = state["seed"], state["reads"]
    nodes = 0
    for name in reads:
        status, payload = call(server.port, "POST", "/v1/synthesize?wait=1", {"problem": name})
        if status != 200:
            raise RuntimeError(f"warm-up of {name} failed: HTTP {status} {payload}")
        nodes += payload["result"]["expression_size"]
    clients = [Client(server.port, traced) for _ in range(CLIENTS)]
    choices = [random.Random(f"{seed}:read:{index}") for index in range(CLIENTS)]
    writes = [iter(stream) for stream in state["writes"]]

    def read_loop(client: Client, index: int, deadline: float) -> None:
        while time.perf_counter() < deadline:
            client.synthesize("warm", {"problem": choices[index].choice(reads)}, "memory")
            client.probe(reference.port)

    def write_loop(client: Client, index: int, deadline: float) -> None:
        for op in writes[index]:
            body = {"spec_text": op.spec_text}
            if op.ancestor is not None:
                body["ancestor"] = op.ancestor
            client.synthesize(op.kind, body, "miss")
            if time.perf_counter() >= deadline:
                break

    for _ in range(CYCLES):
        _run_clients(clients, read_loop, time.perf_counter() + READ_SHARE * seconds / CYCLES)
        write_deadline = time.perf_counter() + (1 - READ_SHARE) * seconds / CYCLES
        _run_clients(clients, write_loop, write_deadline)
    samples = Samples()
    for client in clients:
        client.book_traces()
        samples.merge(client.samples)
    return samples, nodes


def run(state: dict, seconds: float, trace: bool) -> dict:
    work: Path = state["work"]
    work.mkdir(parents=True)
    reference: Optional[ReferenceServer] = None
    try:
        reference = ReferenceServer(work / "reference.log")
        if trace:
            # Same request streams against a plain and a wrapped server: the
            # difference is what the wrappers cost.
            plain = Server(work / "plain", traced=False)
            plain.start()
            try:
                untraced, _ = _stage(state, plain, reference, seconds / 2, traced=False)
            finally:
                plain.stop()
            wrapped = Server(work / "traced", traced=True)
            wrapped.start()
            try:
                samples, _ = _stage(state, wrapped, reference, seconds / 2, traced=True)
            finally:
                wrapped.stop()
            overhead = 0.0
            for kind in ("warm", "cold", "edit"):
                values, plain_values = samples.latency[kind], untraced.latency[kind]
                if values and plain_values:
                    overhead += sum(values) - len(values) * sum(plain_values) / len(plain_values)
            samples.attempted += untraced.attempted
            samples.failed += untraced.failed
            samples.errors += untraced.errors
            return {**samples.to_raw(), "overhead": overhead}

        starts: List[float] = []
        for attempt in range(SERVER_STARTS):
            server = Server(work / f"server{attempt}", traced=False)
            starts.append(server.start())
            if attempt < SERVER_STARTS - 1:
                server.stop()
        try:
            samples, nodes = _stage(state, server, reference, seconds, traced=False)
        finally:
            rss = server.stop()
    finally:
        if reference is not None:
            reference.stop()
        shutil.rmtree(work, ignore_errors=True)
    return {**samples.to_raw(), "nodes": nodes, "rss_mb": rss, "setup_s": starts}


def scaled_warm(warm: List[float], probe: List[float]) -> Dict[str, float]:
    """Warm-read statistics in ms, scaled by the reference round trips."""
    raw = {"p50": median(warm), "p95": percentile(warm, 95), "mean": statistics.fmean(warm)}
    ref = {"p50": median(probe), "p95": percentile(probe, 95), "mean": statistics.fmean(probe)}
    return {key: raw[key] / ref[key] * PROBE_REFERENCE_MS[key] for key in raw}


def summarize(parts: List[dict], trace: bool) -> Outcome:
    samples = Samples()
    for part in parts:
        samples.merge(Samples.from_raw(part))
    warm, probe, cold, edit = (samples.latency[kind] for kind in ("warm", "probe", "cold", "edit"))
    reuse = samples.incremental_edits / len(edit) if edit else 0.0
    if trace:
        notes = [f"http_serve traced: {samples.attempted} requests, {len(edit)} edits"]
        notes += samples.book.coverage_notes(samples.traced_wall) + samples.errors[:5]
        overhead = sum(part["overhead"] for part in parts)
        metrics = samples.book.metrics(len(parts), samples.traced_wall, overhead, reuse)
        return Outcome(samples.attempted, samples.failed, metrics, notes)
    scaled = scaled_warm(warm, probe)
    p99 = percentile(warm, 99)
    cold_p90, cold_p95 = percentile(cold, 90), percentile(cold, 95)
    notes = [
        f"http_serve: {len(warm)} reads, {len(cold)} cold writes, {len(edit)} edits "
        f"({reuse:.0%} answered incrementally) from {len(parts)} servers",
        f"  scaled: warm_p50_ms {scaled['p50']:.3f}  warm_p95_ms {scaled['p95']:.3f}  "
        f"warm_rps {CLIENTS * 1000 / scaled['mean']:.1f}",
        f"  raw: warm_p50_ms {1000 * median(warm):.3f}  warm_p95_ms {1000 * percentile(warm, 95):.3f}  "
        f"warm_p99_ms {1000 * p99:.3f} ({samples_beyond(warm, p99)} samples beyond)  "
        f"reference p50/p95 ms {1000 * median(probe):.3f}/{1000 * percentile(probe, 95):.3f}",
        f"  cold_p50_ms {1000 * median(cold):.3f}  cold_p90_ms {1000 * cold_p90:.3f} "
        f"({samples_beyond(cold, cold_p90)} samples beyond)  cold_p95_ms {1000 * cold_p95:.3f}  "
        f"edit_p50_ms {1000 * median(edit):.3f}",
    ] + samples.errors[:5]
    metrics = {
        "op1_ms": scaled["p50"],
        "op1_tail_ms": scaled["p95"],
        "op2_ms": 1000 * median(cold),
        # The slowest few percent of cold specs differ from seed to seed;
        # p90 keeps over thirty samples beyond it and steadies the figure.
        "op2_tail_ms": 1000 * cold_p90,
        "op3_ms": 1000 * median(edit),
        # Closed-loop clients: throughput is clients over mean latency.
        "rate_per_s": CLIENTS * 1000 / scaled["mean"],
        "output_nodes": parts[0]["nodes"],
        "peak_rss_mb": max(part["rss_mb"] for part in parts),
        "setup_s": median([start for part in parts for start in part["setup_s"]]),
    }
    return Outcome(samples.attempted, samples.failed, metrics, notes)
