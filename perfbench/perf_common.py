"""Helpers shared by the workloads: paths, statistics, memory, forking.

Nothing here imports the program; :func:`use_source_tree` puts the
checkout's ``src`` directory first on ``sys.path`` so every later
``import repro`` builds from the source next to this benchmark.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for cache directories and server logs (listed in .gitignore).
WORK = ROOT / ".perfbench"
RUN_PY = Path(__file__).resolve().parent / "run.py"


def use_source_tree() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports ``repro`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_TRACE", None)
    return env


# ------------------------------------------------------------------ statistics
def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def upper_quartile(values: Sequence[float]) -> float:
    """Third quartile; equals the value itself for a single sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[2]


def percentile(values: Sequence[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def samples_beyond(values: Sequence[float], threshold: float) -> int:
    return sum(1 for value in values if value > threshold)


# ------------------------------------------------------------- machine speed
#: What the reference loop takes on the machine all times are scaled to.
REFERENCE_LOOP_S = 0.004


def reference_body(iterations: int = 20000) -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes right now (median of three).

    The sandbox this benchmark runs in is a shared VM whose speed drifts by
    a quarter or more over tens of seconds, and the loop slows down with the
    synthesizer.  Each timed operation is therefore scaled by
    ``REFERENCE_LOOP_S / reference_loop()``, measured next to it, so the
    figures read as times on a machine of fixed speed.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_body()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_scale(before: float, after: float) -> float:
    """The factor that scales a time measured between two reference loops."""
    return REFERENCE_LOOP_S / ((before + after) / 2)


# ---------------------------------------------------------------------- memory
def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


# --------------------------------------------------------------------- forking
def run_forked(fn: Callable[..., dict], *args) -> dict:
    """Run ``fn(*args)`` in a child forked from this process; return its dict.

    The child inherits everything imported so far but none of the caches a
    run fills afterwards, which is what makes each synthesis cold.  A child
    that raises answers ``{"error": ...}`` instead.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child side
        try:
            os.close(read_fd)
            try:
                payload = fn(*args)
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            with os.fdopen(write_fd, "wb") as out:
                out.write(json.dumps(payload).encode("utf-8"))
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"child exited with status {status} and no result"}
    return json.loads(data)


# ------------------------------------------------------------------- outcomes
@dataclass
class Outcome:
    """What one run of a workload measured."""

    attempted: int
    failed: int
    #: Metric name -> value; units come from BENCHMARK.json.
    metrics: Dict[str, float]
    #: Human-readable lines printed before the result line.
    notes: List[str] = field(default_factory=list)
