"""Start ``repro serve`` with the per-layer wrappers installed.

Usage: ``python3 perfbench/perf_serve.py <repro serve arguments>``.

The traced http_serve run starts the server through this launcher instead
of ``python -m repro serve``.  Worker processes are forked from the server,
so they inherit the wrappers; their spans come home over the result pipe
and the benchmark reads every request's spans back from
``GET /v1/jobs/<id>/trace``.
"""

from __future__ import annotations

import sys

import perf_common

if __name__ == "__main__":
    perf_common.use_source_tree()
    import perf_layers
    from repro.service import server
    from repro.service.cli import main

    perf_layers.install()
    perf_layers.enable_tracer()
    # Keep every finished job, so the benchmark can read all traces back
    # after its phases instead of between requests.
    server.FINISHED_JOB_RETENTION = 1_000_000
    raise SystemExit(main(["serve", *sys.argv[1:]]))
