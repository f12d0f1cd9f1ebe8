"""What each kind of process loads, checked in a fresh interpreter.

A process that only synthesizes must not pay for the HTTP server, the
worker pool or the hand-written tactic engine; ``repro serve`` must import
the synthesis stack before it forks its pool workers, so they start warm.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules that only serving, or installing hand-written witnesses, needs.
SERVING_ONLY = {
    "asyncio",
    "ssl",
    "multiprocessing",
    "concurrent.futures",
    "repro.service.server",
    "repro.service.workers",
    "repro.witness.handwritten",
}


def _loaded_after(*statements):
    """The names in ``sys.modules`` after ``statements`` run in a fresh interpreter."""
    script = "\n".join([*statements, "import json, sys", "print(json.dumps(sorted(sys.modules)))"])
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return set(json.loads(completed.stdout.splitlines()[-1]))


def test_synthesis_loads_no_server():
    loaded = _loaded_after(
        "import repro.service.pipeline", "from repro.service.registry import default_registry", "default_registry()"
    )
    assert "repro.service.pipeline" in loaded
    assert not loaded & SERVING_ONLY, sorted(loaded & SERVING_ONLY)


def test_serving_loads_the_synthesis_stack():
    loaded = _loaded_after("import repro.service.server")
    assert {
        "repro.service.pipeline",
        "repro.proofs.search",
        "repro.synthesis.implicit_to_explicit",
    } <= loaded
