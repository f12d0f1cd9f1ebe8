"""Per-layer self time, measured from outside the program.

:func:`install` wraps the public functions of each layer where the
pipeline, the server and the synthesis modules import them.  Each wrapper
opens a span on the program's own tracer (:mod:`repro.obs.trace`), so the
wrapper spans nest under the spans the program already emits
(``pipeline.<stage>``, ``proof.round``, ``cache.lookup``, ``http.request``,
``job``, ``worker.request``) and travel with them across worker processes
and HTTP.  Wrapping import sites rather than definitions keeps recursive
calls inside a layer (``check_proof`` on each premise, say) out of the
span count.

:class:`LayerBook` turns finished spans into self time: a span's duration
minus the durations of its child spans, booked to the layer its name maps
to.  Spans the map does not know, and the benchmark's own root span around
each operation, are booked to ``unattributed``.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

#: The queries of the query_eval workload; each gets its own eval rows.
QUERY_NAMES = (
    "identity_view",
    "union_view",
    "intersection_view",
    "pair_of_views",
    "union_minus_view",
)

#: (module, attribute, layer): the wrapped functions.  ``Class.method``
#: attributes are patched on the class.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.proofs.search", "ProofSearch.prove", "proofs.search"),
    ("repro.synthesis.implicit_to_explicit", "and_inversion", "proofs.admissible"),
    ("repro.synthesis.implicit_to_explicit", "forall_inversion", "proofs.admissible"),
    ("repro.synthesis.collect_answers", "exists_conjunct_projection", "proofs.admissible"),
    ("repro.proofs.admissible", "substitute_proof", "proofs.admissible"),
    ("repro.synthesis.implicit_to_explicit", "check_proof", "proofs.checker"),
    ("repro.witness.store", "check_proof", "proofs.checker"),
    ("repro.synthesis.implicit_to_explicit", "interpolate", "interpolation.interpolate"),
    ("repro.synthesis.parameter_collection", "interpolate", "interpolation.interpolate"),
    ("repro.synthesis.collect_answers", "collect_answers", "synthesis.collect_answers"),
    (
        "repro.synthesis.parameter_collection",
        "collect_set_answers",
        "synthesis.parameter_collection",
    ),
    ("repro.service.pipeline", "simplify_with_stats", "nrc.simplify"),
    ("repro.synthesis.implicit_to_explicit", "simplify", "nrc.simplify"),
    ("repro.service.pipeline", "compile_formula", "logic.compile"),
    ("repro.logic.semantics", "compile_formula", "logic.compile"),
    ("repro.synthesis.verification", "satisfying_assignments", "logic.satisfying"),
    ("repro.logic.semantics", "satisfying_assignments", "logic.satisfying"),
    ("repro.service.pipeline", "check_explicit_definition", "synthesis.verify"),
    ("repro.service.cache", "SynthesisCache.lookup", "service.cache.lookup"),
    ("repro.service.cache", "SynthesisCache.peek", "service.cache.peek"),
    ("repro.service.cache", "SynthesisCache.store", "service.cache.store"),
    ("repro.service.cache", "SynthesisCache.store_memory", "service.cache.store"),
    ("repro.specs.lang", "parse_problem", "specs.lang"),
    ("repro.witness.store", "WitnessStore.get", "witness.store.get"),
    ("repro.witness.store", "WitnessStore.put", "witness.store.put"),
    ("repro.service.pipeline", "seed_incremental", "witness.incremental"),
    ("repro.service.api", "SynthesizeRequest.from_json", "service.api"),
    ("repro.service.api", "SynthesizeRequest.from_json_dict", "service.api"),
    ("repro.service.api", "JobStatus.to_json_dict", "service.api"),
    ("repro.service.api", "SynthesisResult.to_json_dict", "service.api"),
    ("repro.service.api", "SynthesisResult.from_json_dict", "service.api"),
    ("repro.service.pipeline", "PipelineReport.to_response", "service.api"),
)

#: The job engine's worker call, wrapped specially so the worker child's
#: spans parent under the wrapper span (see :func:`_wrap_worker_call`).
WORKER_CALL = ("repro.service.server", "run_request_in_process", "service.workers")

#: Spans the program emits itself -> the layer their self time belongs to.
PROGRAM_SPANS: Dict[str, str] = {
    "proof.round": "proofs.search",
    "pipeline.proof-search": "proofs.search",
    "pipeline.extraction": "synthesis.extraction",
    "pipeline.simplification": "nrc.simplify",
    "pipeline.formula-compile": "logic.compile",
    "pipeline.verification": "synthesis.verify",
    "pipeline.validate": "pipeline.validate",
    "pipeline.cache-lookup": "service.cache.lookup",
    "cache.lookup": "service.cache.lookup",
    "pipeline.cache-store": "service.cache.store",
    "cache.store": "service.cache.store",
    "pipeline.witness-lookup": "witness.lookup",
    "witness.replay": "witness.lookup",
    "pipeline.witness-store": "witness.store.put",
    "http.request": "service.http",
    "job": "service.workers",
    "worker.request": "service.workers",
}

#: Layers no wrapper covers: their program spans count as their calls.
PROGRAM_CALL_SPANS = {
    "pipeline.extraction",
    "pipeline.validate",
    "pipeline.witness-lookup",
    "http.request",
}

#: The benchmark's own root span around every traced operation.
ROOT_SPAN = "bench.op"
UNATTRIBUTED = "unattributed"

LAYERS: Tuple[str, ...] = (
    "proofs.search",
    "proofs.admissible",
    "proofs.checker",
    "interpolation.interpolate",
    "synthesis.collect_answers",
    "synthesis.parameter_collection",
    "synthesis.extraction",
    "nrc.simplify",
    "logic.compile",
    "logic.satisfying",
    "synthesis.verify",
    "pipeline.validate",
    *(f"nrc.eval.{name}" for name in QUERY_NAMES),
    *(f"nrc.eval_batch.{name}" for name in QUERY_NAMES),
    "service.http",
    "service.api",
    "service.cache.lookup",
    "service.cache.peek",
    "service.cache.store",
    "service.workers",
    "specs.lang",
    "witness.store.get",
    "witness.store.put",
    "witness.incremental",
    "witness.lookup",
)

#: Counts recorded beside self time, where a layer can waste work.
COUNTS = ("proofs.search.attempts", "nrc.simplify.nodes_in", "nrc.simplify.nodes_out")

#: Whole-run figures of the traced run.
RUN_FIGURES = ("witness.reuse_ratio", "traced_wall_s", "unattributed_s", "trace_overhead_s")


def per_layer_names() -> List[str]:
    """Every per-layer metric a traced run prints, in BENCHMARK.json order."""
    names: List[str] = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"]
    return names + list(COUNTS) + list(RUN_FIGURES)


# -------------------------------------------------------------------- wrapping
_installed: List[bool] = []


def _simplify_sizes(args: tuple, result: object) -> Dict[str, int]:
    from repro.nrc.expr import expr_size

    output = result[0] if isinstance(result, tuple) else result
    return {"nodes_in": expr_size(args[0]), "nodes_out": expr_size(output)}


_MEASURES: Dict[str, Callable[[tuple, object], Mapping[str, object]]] = {
    "nrc.simplify": _simplify_sizes,
}


def _wrap(fn: Callable, layer: str) -> Callable:
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    measure = _MEASURES.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(layer) as span:
            result = fn(*args, **kwargs)
            if measure is not None and span.context is not None:
                span.set_attributes(measure(args, result))
        return result

    return wrapper


def _wrap_worker_call(fn: Callable) -> Callable:
    """``run_request_in_process`` runs on an executor thread, which does not
    inherit the job's span context; the job engine passes it explicitly as
    ``trace_context``.  The wrapper parents its span there and hands its own
    context on, so the child's spans nest under it and the wrapper's self
    time is the worker round trip minus the child's work."""
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    layer = WORKER_CALL[2]

    @functools.wraps(fn)
    def wrapper(request, *args, trace_context=None, **kwargs):
        with tracer.span(layer, parent=trace_context) as span:
            context = span.context if span.context is not None else trace_context
            return fn(request, *args, trace_context=context, **kwargs)

    return wrapper


def _patch(module_name: str, attribute: str, make: Callable[[Callable], Callable]) -> None:
    owner = import_module(module_name)
    name = attribute
    if "." in attribute:
        class_name, name = attribute.split(".")
        owner = getattr(owner, class_name)
        raw = owner.__dict__[name]
    else:
        raw = getattr(owner, name)
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(make(raw.__func__)))
    else:
        setattr(owner, name, make(raw))


def install() -> None:
    """Wrap every layer function (idempotent; lasts for the process)."""
    if _installed:
        return
    for module_name, attribute, layer in WRAPPED:
        _patch(module_name, attribute, functools.partial(_wrap, layer=layer))
    _patch(WORKER_CALL[0], WORKER_CALL[1], _wrap_worker_call)
    _installed.append(True)


def enable_tracer():
    """Turn the program's tracer on with buffers large enough for a run."""
    from repro.obs.trace import enable_tracing

    tracer = enable_tracing(True)
    tracer.MAX_SPANS_PER_TRACE = 1_000_000
    tracer.MAX_TRACES = 100_000
    return tracer


# --------------------------------------------------------------------- booking
def layer_of(name: str) -> Tuple[str, bool]:
    """The layer a span name is booked to, and whether it counts as a call."""
    if name in PROGRAM_SPANS:
        return PROGRAM_SPANS[name], name in PROGRAM_CALL_SPANS
    if name in LAYERS:
        return name, True
    return UNATTRIBUTED, False


class LayerBook:
    """Self time, call counts and work counts per layer, summed over spans."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def add_spans(self, spans: Iterable[Mapping[str, object]]) -> float:
        """Book finished spans; returns the summed duration of root spans.

        A root is a span whose parent is not among ``spans`` (the benchmark's
        own span, or the client's context on an HTTP request).
        """
        spans = list(spans)
        ids = {span["span_id"] for span in spans}
        children: Dict[str, float] = defaultdict(float)
        roots = 0.0
        for span in spans:
            parent = span.get("parent_id")
            if parent in ids:
                children[parent] += float(span["seconds"])
            else:
                roots += float(span["seconds"])
        for span in spans:
            name = str(span["name"])
            layer, counted = layer_of(name)
            self.self_s[layer] += float(span["seconds"]) - children.get(span["span_id"], 0.0)
            if counted:
                self.calls[layer] += 1
            attributes = span.get("attributes") or {}
            if name == "proof.round":
                self.counts["proofs.search.attempts"] += int(attributes.get("attempts", 0))
            elif name == "nrc.simplify":
                self.counts["nrc.simplify.nodes_in"] += int(attributes.get("nodes_in", 0))
                self.counts["nrc.simplify.nodes_out"] += int(attributes.get("nodes_out", 0))
        return roots

    def add_residual(self, layer: str, seconds: float) -> None:
        self.self_s[layer] += seconds

    def merge(self, other: "LayerBook") -> None:
        for layer, seconds in other.self_s.items():
            self.self_s[layer] += seconds
        self.calls.update(other.calls)
        self.counts.update(other.counts)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "counts": dict(self.counts)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Mapping[str, float]]) -> "LayerBook":
        book = cls()
        book.self_s.update(payload.get("self_s", {}))
        book.calls.update(payload.get("calls", {}))
        book.counts.update(payload.get("counts", {}))
        return book

    def metrics(
        self,
        passes: int,
        traced_wall_s: float,
        trace_overhead_s: float,
        reuse_ratio: float = 0.0,
    ) -> Dict[str, float]:
        """The per-layer metrics, each per pass of the workload."""
        values: Dict[str, float] = {}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.self_s.get(layer, 0.0) / passes
            values[f"{layer}.calls"] = self.calls.get(layer, 0) / passes
        for count in COUNTS:
            values[count] = self.counts.get(count, 0) / passes
        values["witness.reuse_ratio"] = reuse_ratio
        values["traced_wall_s"] = traced_wall_s / passes
        values["unattributed_s"] = self.self_s.get(UNATTRIBUTED, 0.0) / passes
        values["trace_overhead_s"] = trace_overhead_s / passes
        return values

    def coverage_notes(self, traced_wall_s: float) -> List[str]:
        """How well the layers account for the traced wall time."""
        total = self.total_self_s()
        unattributed = self.self_s.get(UNATTRIBUTED, 0.0)

        def share(seconds: float) -> float:
            return seconds / traced_wall_s if traced_wall_s else 0.0

        top = sorted(
            ((seconds, layer) for layer, seconds in self.self_s.items()), reverse=True
        )[:8]
        lines = [
            f"layers+unattributed = {total:.4f} s of traced wall {traced_wall_s:.4f} s "
            f"({share(total):.1%}); unattributed {share(unattributed):.1%}",
        ]
        lines += [f"  {layer:<34} {seconds:9.4f} s {share(seconds):6.1%}" for seconds, layer in top]
        return lines
