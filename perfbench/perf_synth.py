"""synth_cold: every ``ok`` registry problem synthesized cold.

A part runs one pass over the problems.  Each problem of the pass runs in
its own child forked after imports, so the interned nodes, compiled
formula programs (``_fprogs``) and evaluator runners (``_runner``) a
synthesis fills are empty, as for a new spec, and every child of a part
starts from the same heap.  Problems run through
``SynthesisPipeline.run(problem, entry.instances(scale))`` with
``cache=None``, which also keeps ``pair_tower_2`` and ``pair_of_views``
(one spec digest) apart.

The fast set is dominated by extraction and verification; ``copy_chain_2``
and ``copy_chain_3`` are almost pure proof search, so a change to either
layer shows on one metric and not on the other.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

import perf_layers
from perf_common import (
    Outcome,
    median,
    peak_rss_mb,
    reference_loop,
    run_forked,
    speed_scale,
    upper_quartile,
)

SLOW = ("copy_chain_2", "copy_chain_3")
#: How often each slow problem runs per pass: copy_chain_2 is short enough
#: to sample three times (its third quartile is gated), copy_chain_3 takes
#: most of a pass.
SLOW_REPEATS = (3, 1)
#: Instances per problem for the pipeline's verification stage.
SCALE = 24
#: One pass per part; parts repeat until the run's time is used.
PARTS = None


def setup(seed: int, part: int) -> dict:
    # Children are forked after these imports, so none of them pays for one.
    import repro.service.pipeline  # noqa: F401
    from repro.service.registry import default_registry

    registry = default_registry()
    fast = [entry.name for entry in registry.sweepable() if entry.name not in SLOW]
    return {"registry": registry, "fast": fast, "rng": random.Random(f"{seed}:{part}")}


def _synthesize(registry, name: str, traced: bool) -> dict:
    """Child body: one cold pipeline run, timed; spans booked when traced."""
    from repro.nrc.expr import expr_size
    from repro.obs.trace import get_tracer
    from repro.proofs.search import ProofSearch
    from repro.service.pipeline import SynthesisPipeline

    entry = registry.get(name)
    tracer = get_tracer()
    if traced:
        perf_layers.install()
        tracer = perf_layers.enable_tracer()
    pipeline = SynthesisPipeline(
        cache=None, search_factory=lambda: ProofSearch(max_depth=entry.max_depth)
    )
    problem = entry.problem()
    assignments = entry.instances(SCALE)
    before = reference_loop()
    start = time.perf_counter()
    with tracer.span(perf_layers.ROOT_SPAN):
        report = pipeline.run(problem, assignments)
    latency = time.perf_counter() - start
    after = reference_loop()
    verification = report.verification
    result = {
        "latency": latency,
        "scale": speed_scale(before, after),
        "ok": verification is not None and verification.ok and verification.satisfying > 0,
        "nodes": expr_size(report.result.expression),
        "rss_mb": peak_rss_mb(),
    }
    if traced:
        book = perf_layers.LayerBook()
        book.add_spans(tracer.export_all())
        result["layers"] = book.to_dict()
    return result


def run(state: dict, seconds: float, trace: bool) -> dict:
    """One pass; with ``trace`` each traced child is paired with an untraced
    one, in random order, so their difference is the tracing cost."""
    registry, fast, rng = state["registry"], state["fast"], state["rng"]
    order = list(fast) + [name for name, times in zip(SLOW, SLOW_REPEATS) for _ in range(times)]
    rng.shuffle(order)
    raw: dict = {
        "latencies": {name: [] for name in order},
        "fast_sum": 0.0,
        "nodes": 0,
        "attempted": 0,
        "failed": 0,
        "rss_mb": 0.0,
        "errors": [],
        "traced_wall": 0.0,
        "untraced_wall": 0.0,
        "scales": [],
    }
    book = perf_layers.LayerBook()
    reference_loop()  # warm the loop once; every child inherits it warm
    for name in order:
        kinds = [False, True] if trace else [False]
        rng.shuffle(kinds)
        for traced in kinds:
            raw["attempted"] += 1
            outcome = run_forked(_synthesize, registry, name, traced)
            if "error" in outcome or not outcome["ok"]:
                raw["failed"] += 1
                raw["errors"].append(f"{name}: {outcome.get('error', 'verification failed')}")
                continue
            raw["rss_mb"] = max(raw["rss_mb"], outcome["rss_mb"])
            if traced:
                book.merge(perf_layers.LayerBook.from_dict(outcome["layers"]))
                raw["traced_wall"] += outcome["latency"]
                continue
            raw["untraced_wall"] += outcome["latency"]
            raw["scales"].append(outcome["scale"])
            scaled = outcome["latency"] * outcome["scale"]
            raw["latencies"][name].append(scaled)
            if name in fast:
                raw["fast_sum"] += scaled
                raw["nodes"] += outcome["nodes"]
    raw["layers"] = book.to_dict()
    return raw


def summarize(parts: List[dict], trace: bool) -> Outcome:
    latencies: Dict[str, List[float]] = {}
    for part in parts:
        for name, values in part["latencies"].items():
            latencies.setdefault(name, []).extend(values)
    fast_passes = [part["fast_sum"] for part in parts]
    nodes = [part["nodes"] for part in parts]
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    errors = [error for part in parts for error in part["errors"]]
    slow_median = median(latencies[SLOW[0]]) + median(latencies[SLOW[1]])
    notes = [
        f"synth_cold: {len(parts)} passes, one fresh interpreter per pass, "
        "one forked child per problem",
        f"  synth_fast_s (fast set, summed per pass) median {median(fast_passes):.4f}",
        f"  synth_slow_s (copy_chain_2 + copy_chain_3) median {slow_median:.4f}",
        f"  query_nodes {median(nodes)}; machine speed scale median "
        f"{median([scale for part in parts for scale in part['scales']]):.3f}",
    ] + errors[:5]
    if trace:
        book = perf_layers.LayerBook()
        for part in parts:
            book.merge(perf_layers.LayerBook.from_dict(part["layers"]))
        traced = sum(part["traced_wall"] for part in parts)
        untraced = sum(part["untraced_wall"] for part in parts)
        notes += book.coverage_notes(traced)
        return Outcome(attempted, failed, book.metrics(len(parts), traced, traced - untraced), notes)
    measured = sum(len(values) for values in latencies.values())
    metrics = {
        "op1_ms": 1000 * median(fast_passes),
        "op1_tail_ms": 1000 * upper_quartile(fast_passes),
        "op2_ms": 1000 * median(latencies[SLOW[0]]),
        "op2_tail_ms": 1000 * upper_quartile(latencies[SLOW[0]]),
        "op3_ms": 1000 * median(latencies[SLOW[1]]),
        "rate_per_s": measured / sum(sum(values) for values in latencies.values()),
        "output_nodes": median(nodes),
        "peak_rss_mb": max(part["rss_mb"] for part in parts),
    }
    return Outcome(attempted, failed, metrics, notes)
