"""query_eval: running the synthesized queries on inputs of fixed size.

The queries of five flat registry problems are synthesized once in
set-up, then evaluated on a fresh seeded family of random instances in
every pass, through both ``eval_nrc`` (one call per instance) and
``eval_nrc_batch`` (one call per family, on a fresh interner so no memo
carries over).  Proof search, extraction and the service are bypassed, so
no gain from them may show here.

Sizes are fixed per query so that each family takes a few tenths of a
second through ``eval_nrc`` at the seed; every input set has exactly
``n`` distinct atoms out of ``2n``, so the cost varies little with the
seed.  Outputs are checked against plain Python set operations.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Tuple

import perf_layers
from perf_common import (
    Outcome,
    median,
    peak_rss_mb,
    reference_loop,
    speed_scale,
    upper_quartile,
)

#: Query -> elements per input set.
SIZES: Dict[str, int] = {
    "identity_view": 96,
    "union_view": 56,
    "intersection_view": 18,
    "pair_of_views": 56,
    "union_minus_view": 14,
}
FAMILY = 3
#: Fresh interpreters per run, each measuring an equal share of the time:
#: their hash seeds and heap layouts differ, and the pooled median evens
#: that out.
PARTS = 5

#: The meaning of each query, on Python sets of atoms keyed by input name.
ORACLES: Dict[str, Callable[[Dict[str, frozenset]], object]] = {
    "identity_view": lambda s: s["V"],
    "union_view": lambda s: s["V1"] | s["V2"],
    "intersection_view": lambda s: s["V1"] & s["V2"],
    "pair_of_views": lambda s: (s["V1"], s["V2"]),
    "union_minus_view": lambda s: (s["V1"] | s["V2"]) - s["V3"],
}


def _synthesize_queries() -> Dict[str, Tuple[object, tuple]]:
    """Query name -> (synthesized expression, its input NVars), compiled."""
    from repro.nr.columns import ValueInterner
    from repro.nr.values import ur, vset
    from repro.nrc.eval import eval_nrc, eval_nrc_batch
    from repro.nrc.expr import NVar
    from repro.service.pipeline import SynthesisPipeline
    from repro.service.registry import default_registry

    registry = default_registry()
    queries = {}
    for name in perf_layers.QUERY_NAMES:
        problem = registry.problem(name)
        expression = SynthesisPipeline(cache=None).run(problem).result.expression
        nvars = tuple(NVar(var.name, var.typ) for var in problem.inputs)
        # First compile of both evaluators, on a one-atom instance.
        env = {nvar: vset([ur(0)]) for nvar in nvars}
        eval_nrc(expression, env)
        eval_nrc_batch(expression, [env], ValueInterner())
        queries[name] = (expression, nvars)
    return queries


def setup(seed: int, part: int) -> dict:
    return {"queries": _synthesize_queries(), "seed": f"{seed}:{part}"}


def _family(seed: str, pass_index: int, name: str, nvars: tuple) -> List[Dict[str, frozenset]]:
    rng = random.Random(f"{seed}:{pass_index}:{name}")
    n = SIZES[name]
    return [
        {nvar.name: frozenset(rng.sample(range(2 * n), n)) for nvar in nvars}
        for _ in range(FAMILY)
    ]


def _expected(name: str, sets: Dict[str, frozenset]):
    from repro.nr.values import SetValue, tuple_value, ur

    def as_value(atoms: frozenset):
        return SetValue(frozenset(ur(atom) for atom in atoms))

    meaning = ORACLES[name](sets)
    if isinstance(meaning, tuple):
        return tuple_value(*(as_value(part) for part in meaning))
    return as_value(meaning)


def run(state: dict, seconds: float, trace: bool) -> dict:
    """Passes for ``seconds``; with ``trace`` each evaluation also runs once
    under spans, right after its untraced twin, for the tracing cost."""
    from repro.nr.columns import ValueInterner
    from repro.nr.values import SetValue, ur
    from repro.nrc.eval import eval_nrc, eval_nrc_batch
    from repro.nrc.expr import expr_size

    queries, seed = state["queries"], state["seed"]
    tracer = perf_layers.enable_tracer() if trace else None
    rng = random.Random(seed)
    raw: dict = {
        "eval_passes": [],
        "batch_passes": [],
        "intersection": [],
        "evaluations": 0,
        "attempted": 0,
        "failed": 0,
        "errors": [],
        "traced_wall": 0.0,
        "untraced_wall": 0.0,
        "scaled_wall": 0.0,
        "output_nodes": sum(expr_size(expression) for expression, _ in queries.values()),
        "scales": [],
    }
    book = perf_layers.LayerBook()
    reference_loop()  # the first call of a process runs cold
    before = reference_loop()
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        eval_sum = batch_sum = 0.0
        order = list(queries)
        rng.shuffle(order)
        for name in order:
            expression, nvars = queries[name]
            sets = _family(seed, passes, name, nvars)
            envs = [
                {nvar: SetValue(frozenset(ur(a) for a in row[nvar.name])) for nvar in nvars}
                for row in sets
            ]
            expected = [_expected(name, row) for row in sets]
            engines = [
                ("eval", lambda: [eval_nrc(expression, env) for env in envs]),
                ("eval_batch", lambda: eval_nrc_batch(expression, envs, ValueInterner())),
            ]
            rng.shuffle(engines)
            timings = []
            for engine, call in engines:
                for traced in ([False, True] if trace else [False]):
                    raw["attempted"] += 1
                    start = time.perf_counter()
                    if traced:
                        with tracer.span(perf_layers.ROOT_SPAN):
                            with tracer.span(f"nrc.{engine}.{name}"):
                                produced = call()
                    else:
                        produced = call()
                    elapsed = time.perf_counter() - start
                    if produced != expected:
                        raw["failed"] += 1
                        raw["errors"].append(f"{name} via {engine}: output differs from the oracle")
                        continue
                    if traced:
                        book.add_spans(tracer.export_all())
                        tracer.reset()
                        raw["traced_wall"] += elapsed
                        continue
                    raw["untraced_wall"] += elapsed
                    raw["evaluations"] += len(envs)
                    timings.append((engine, elapsed))
            after = reference_loop()
            scale = speed_scale(before, after)
            before = after
            raw["scales"].append(scale)
            for engine, elapsed in timings:
                raw["scaled_wall"] += elapsed * scale
                if engine == "eval":
                    eval_sum += elapsed * scale
                    if name == "intersection_view":
                        raw["intersection"].append(elapsed * scale)
                else:
                    batch_sum += elapsed * scale
        raw["eval_passes"].append(eval_sum)
        raw["batch_passes"].append(batch_sum)
        passes += 1
    raw["rss_mb"] = peak_rss_mb()
    raw["layers"] = book.to_dict()
    return raw


def summarize(parts: List[dict], trace: bool) -> Outcome:
    def pooled(key: str) -> List[float]:
        return [value for part in parts for value in part[key]]

    eval_passes, batch_passes = pooled("eval_passes"), pooled("batch_passes")
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    notes = [
        f"query_eval: {len(eval_passes)} passes of {len(SIZES)} queries x {FAMILY} instances "
        f"in {len(parts)} fresh interpreters",
        f"  eval_s median {median(eval_passes):.4f}, eval_batch_s median {median(batch_passes):.4f}; "
        f"machine speed scale median {median(pooled('scales')):.3f}",
    ] + pooled("errors")[:5]
    if trace:
        book = perf_layers.LayerBook()
        for part in parts:
            book.merge(perf_layers.LayerBook.from_dict(part["layers"]))
        traced = sum(part["traced_wall"] for part in parts)
        untraced = sum(part["untraced_wall"] for part in parts)
        notes += book.coverage_notes(traced)
        metrics = book.metrics(len(eval_passes), traced, traced - untraced)
        return Outcome(attempted, failed, metrics, notes)
    metrics = {
        "op1_ms": 1000 * median(batch_passes),
        "op1_tail_ms": 1000 * upper_quartile(batch_passes),
        "op2_ms": 1000 * median(eval_passes),
        "op2_tail_ms": 1000 * upper_quartile(eval_passes),
        "op3_ms": 1000 * median(pooled("intersection")),
        "rate_per_s": sum(part["evaluations"] for part in parts)
        / sum(part["scaled_wall"] for part in parts),
        "output_nodes": parts[0]["output_nodes"],
        "peak_rss_mb": max(part["rss_mb"] for part in parts),
    }
    return Outcome(attempted, failed, metrics, notes)
