"""Emit ``BENCH_service.json``: warm-cache vs cold-pipeline throughput.

Measures the service layer's content-addressed cache
(:mod:`repro.service.cache`) against cold pipeline runs **in the same process
on the same specifications**, so the ``speedup`` ratios are
machine-independent and gate-able on CI (``benchmarks/compare_bench.py``).

The headline metric is the ISSUE 3 acceptance criterion: a warm-cache
``synthesize`` of an already-seen specification must be at least **10×**
faster than the cold run.  Measured ratios are far larger (a memory hit is a
dict lookup against a multi-millisecond proof search), and enormous ratios
are noisy — the denominator is microseconds — so recorded ratios are
**capped at** :data:`RATIO_CAP` to keep the CI gate stable; the raw measured
values are kept alongside in ``measured_speedup``.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [output.json]
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_core_timing import best_of  # noqa: E402

#: Ratios are recorded as ``min(measured, RATIO_CAP)``.  The gate threshold is
#: 25%, so a capped baseline of 50 fails only if the candidate drops below
#: 37.5x — still comfortably above the 10x acceptance floor.
RATIO_CAP = 50.0

#: Problems timed individually (cold vs memory-hit vs disk-hit).
PROBLEMS = ("union_view", "intersection_of_3_views", "pair_tower_2")


def measure() -> dict:
    from repro.proofs.search import ProofSearch
    from repro.service import api
    from repro.service.cache import SynthesisCache
    from repro.service.pipeline import SynthesisPipeline
    from repro.service.registry import default_registry
    from repro.service.server import SynthesisService
    from repro.service.workers import run_sweep

    registry = default_registry()
    cold: dict = {}
    warm: dict = {}
    warm_disk: dict = {}

    def make_pipeline(cache):
        return SynthesisPipeline(cache=cache, search_factory=lambda: ProofSearch(max_depth=12))

    with tempfile.TemporaryDirectory(prefix="bench_service_cache") as disk_dir:
        for name in PROBLEMS:
            entry = registry.get(name)
            problem = entry.problem()

            # Cold: no cache — every repeat pays proof search + extraction.
            cold_pipeline = make_pipeline(None)
            report = cold_pipeline.run(problem)
            assert not report.cache_hit and report.result is not None
            cold[name] = best_of(lambda: cold_pipeline.run(problem), repeats=3, inner=1)

            # Warm memory tier: one store, then pure LRU hits.
            memory_cache = SynthesisCache()
            memory_pipeline = make_pipeline(memory_cache)
            memory_pipeline.run(problem)
            report = memory_pipeline.run(problem)
            assert report.cache_tier == "memory", report.cache_tier
            warm[name] = best_of(lambda: memory_pipeline.run(problem), repeats=5, inner=10)
            warm[name] /= 10

            # Warm disk tier: populate the persistent store, then look up
            # through a fresh cache instance with an empty memory tier, as a
            # new service process (or sweep worker) would.
            populate = make_pipeline(SynthesisCache(disk_dir=disk_dir))
            populate.run(problem)

            def disk_lookup(problem=problem):
                pipeline = make_pipeline(SynthesisCache(disk_dir=disk_dir))
                report = pipeline.run(problem)
                assert report.cache_tier == "disk", report.cache_tier

            warm_disk[name] = best_of(disk_lookup, repeats=5, inner=1)

    # Sweep job overhead: the same warm sweep run directly through the worker
    # pool vs submitted as a job to the service (``submit_sweep`` +
    # ``wait_sweep``).  Both sides recall every problem from the same disk
    # tier in the same process, so the ratio isolates what the job engine
    # (queueing, the executor hop, the job span and snapshots) costs on top
    # of the sweep itself — it should hover near 1.0, and the gate catches
    # the sweep job path growing a slow hot path.  The JSON keys keep the
    # names the recorded baseline uses.
    sweep_names = list(PROBLEMS)
    with tempfile.TemporaryDirectory(prefix="bench_sweep_cache") as sweep_dir:
        run_sweep(names=sweep_names, processes=1, cache_dir=sweep_dir)  # warm the tier
        direct = best_of(
            lambda: run_sweep(names=sweep_names, processes=1, cache_dir=sweep_dir),
            repeats=3,
            inner=1,
        )
        sweep_request = api.SweepRequest(
            problems=tuple(sweep_names), processes=1, cache_dir=sweep_dir
        )
        service = SynthesisService(registry=registry)

        async def sweep_job():
            status = await service.submit_sweep(sweep_request)
            status = await service.wait_sweep(status.id)
            assert status.state == api.JOB_DONE, status

        loop = asyncio.new_event_loop()
        try:
            coordinated = best_of(
                lambda: loop.run_until_complete(sweep_job()), repeats=3, inner=1
            )
        finally:
            loop.close()

    measured = {
        f"warm_cache_synthesize_{name}": round(cold[name] / warm[name], 2) for name in PROBLEMS
    }
    speedup = {name: min(ratio, RATIO_CAP) for name, ratio in measured.items()}
    # The disk-tier ratios (a fresh process recalling a persisted result) are
    # reported but NOT gated: their denominators are a few hundred
    # microseconds of pickle + validate, too noisy on shared CI runners for a
    # 25% threshold.  The key deliberately does not start with "speedup".
    disk_tier = {
        f"warm_disk_cache_synthesize_{name}": round(cold[name] / warm_disk[name], 2)
        for name in PROBLEMS
    }
    sweep_job_measured = round(direct / coordinated, 2)
    return {
        "harness": "benchmarks/_bench_core_timing.py (best-of wall clock, seconds)",
        "ratio_cap": RATIO_CAP,
        "cold_pipeline": {name: cold[name] for name in PROBLEMS},
        "warm_memory_hit": {name: warm[name] for name in PROBLEMS},
        "warm_disk_hit": {name: warm_disk[name] for name in PROBLEMS},
        "fleet_sweep_direct": direct,
        "fleet_sweep_coordinated": coordinated,
        "measured_speedup": measured,
        "disk_tier_speedup": disk_tier,
        "speedup": speedup,
        "speedup_fleet": {
            "warm_sweep_coordinated_vs_direct": min(sweep_job_measured, RATIO_CAP)
        },
    }


def main() -> None:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("BENCH_service.json")
    report = measure()
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report["speedup"], indent=2, sort_keys=True))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
