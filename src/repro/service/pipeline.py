"""The staged synthesis pipeline: validation → proof search → extraction →
simplification → verification, with per-stage timings and provenance.

The library entry point (:func:`repro.synthesis.synthesize`) is one opaque
call; a service needs the same computation decomposed into named, individually
timed stages so operators can see *where* a specification spends its budget
and *what* produced each cached artifact.  :class:`SynthesisPipeline` runs

========================  ====================================================
stage                     what it does
========================  ====================================================
``validate``              re-checks the specification, hash-conses ``φ``
                          (once per problem object)
``cache-lookup``          content-addressed lookup (:mod:`repro.service.cache`)
``witness-lookup``        exact stored-proof replay (witness tier), with
                          the Appendix G component proofs of a product
``proof-search``          focused determinacy proof (Theorem 2's witness)
``extraction``            proof → raw NRC definition (Theorems 4/10, App. G)
``simplification``        rewrite-engine cleanup of the raw definition
``verification``          semantic check on an instance family
``witness-store``         persist the checked determinacy proof
``cache-store``           write-through of the finished result
========================  ====================================================

and records everything in a :class:`PipelineReport`.  A cache hit skips the
three expensive middle stages; verification (optional — it needs an instance
family) always runs so a hit is still validated against fresh instances.  On
a miss the report's ``source`` records how the result was produced —
``witness`` (stored proof replayed) or ``cold``.
"""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.node import canonical_nodes
from repro.logic.formulas import formula_size
from repro.logic.free_vars import free_vars
from repro.logic.terms import Var
from repro.logic.typecheck import check_formula
from repro.nr.types import ProdType
from repro.nr.values import Value
from repro.nrc.expr import expr_size
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.nrc.simplify import simplify_with_stats
from repro.proofs.prooftree import ProofNode, proof_size, rules_used
from repro.proofs.search import ProofSearch
from repro.service import api
from repro.service.cache import SynthesisCache, spec_digest
from repro.specs.problems import ImplicitDefinitionProblem
from repro.synthesis.implicit_to_explicit import (
    SynthesisResult,
    find_determinacy_proof,
    product_subproblems,
    synthesize,
)
from repro.synthesis.verification import VerificationReport, check_explicit_definition
from repro.witness.store import WitnessStore, witness_digest

#: Never called.  ``perfbench/perf_layers.py`` wraps these names on every
#: traced benchmark run and fails when one is missing; they go once that
#: layer table stops patching the program (ROADMAP item 5(a)).
seed_incremental = None
compile_formula = None

#: Stage names in execution order (import these instead of retyping strings).
STAGE_VALIDATE = "validate"
STAGE_CACHE_LOOKUP = "cache-lookup"
STAGE_WITNESS_LOOKUP = "witness-lookup"
STAGE_PROOF_SEARCH = "proof-search"
STAGE_EXTRACTION = "extraction"
STAGE_SIMPLIFICATION = "simplification"
STAGE_VERIFICATION = "verification"
STAGE_WITNESS_STORE = "witness-store"
STAGE_CACHE_STORE = "cache-store"

#: ``PipelineReport.source`` values: how a cache-missed result was produced.
SOURCE_WITNESS = "witness"
SOURCE_COLD = "cold"


@dataclass
class StageTiming:
    """One named stage: wall-clock seconds plus stage-specific provenance."""

    name: str
    seconds: float
    detail: Dict[str, object] = field(default_factory=dict)


class _timed_stage:
    """Times one pipeline stage and opens the matching ``pipeline.<name>`` span.

    Entering yields the (mutable) detail dict; whatever the block records
    there becomes both the :class:`StageTiming` detail and the span's
    attributes.  The ``StageTiming`` is appended on exit — including the
    error path, which previously had no timing at all — and when tracing is
    enabled its seconds are re-derived from the span so the two can never
    disagree.
    """

    __slots__ = ("_stages", "_name", "_detail", "_span", "_start")

    def __init__(self, stages: List[StageTiming], name: str) -> None:
        self._stages = stages
        self._name = name
        self._detail: Dict[str, object] = {}

    def __enter__(self) -> Dict[str, object]:
        self._span = get_tracer().span("pipeline." + self._name)
        self._start = time.perf_counter()
        return self._detail

    def __exit__(self, exc_type, exc, tb) -> bool:
        seconds = time.perf_counter() - self._start
        span = self._span
        span.set_attributes(self._detail)
        span.__exit__(exc_type, exc, tb)
        if span.context is not None:
            seconds = span.seconds
        self._stages.append(StageTiming(self._name, seconds, self._detail))
        get_registry().histogram(
            "repro_pipeline_stage_seconds",
            "Wall-clock seconds per synthesis pipeline stage",
            labelnames=("stage",),
        ).observe(seconds, stage=self._name)
        return False


@dataclass
class PipelineReport:
    """Full provenance of one pipeline run."""

    problem_name: str
    digest: str
    cache_tier: str  # "memory" | "disk" | "miss" | "off"
    stages: List[StageTiming] = field(default_factory=list)
    result: Optional[SynthesisResult] = None
    verification: Optional[VerificationReport] = None
    #: How a cache-missed result was produced ("witness" | "cold");
    #: ``None`` on cache hits, where no synthesis ran.
    source: Optional[str] = None

    @property
    def cache_hit(self) -> bool:
        return self.cache_tier in ("memory", "disk")

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def stage(self, name: str) -> Optional[StageTiming]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def stage_seconds(self) -> Dict[str, float]:
        return {stage.name: stage.seconds for stage in self.stages}

    @property
    def synthesis_seconds(self) -> float:
        """Wall-time of the recompute-on-miss stages (the cache-eviction cost)."""
        return sum(
            stage.seconds
            for stage in self.stages
            if stage.name in (STAGE_PROOF_SEARCH, STAGE_EXTRACTION, STAGE_SIMPLIFICATION)
        )

    def to_response(
        self, include_expression: bool = True, include_raw: bool = False
    ) -> api.SynthesisResult:
        """The typed wire rendering of this run (:mod:`repro.service.api`).

        ``display`` carries the pretty-printed definition for terminal
        front-ends; it never enters the JSON document.
        """
        from repro.nrc.printer import pretty

        stages = tuple(
            api.StageReport(stage.name, round(stage.seconds, 6), dict(stage.detail))
            for stage in self.stages
        )
        expression = expression_size = result_proof_size = None
        raw_expression = None
        display: Dict[str, str] = {}
        if include_expression and self.result is not None:
            expression = str(self.result.expression)
            expression_size = expr_size(self.result.expression)
            result_proof_size = self.result.proof_size
            display["pretty"] = pretty(self.result.expression)
            if include_raw and self.result.raw_expression is not None:
                raw_expression = str(self.result.raw_expression)
                display["raw_pretty"] = pretty(self.result.raw_expression)
        verification = None
        if self.verification is not None:
            verification = api.VerificationSummary(
                checked=self.verification.checked,
                satisfying=self.verification.satisfying,
                ok=self.verification.ok,
            )
        return api.SynthesisResult(
            problem=self.problem_name,
            digest=self.digest,
            cache_tier=self.cache_tier,
            total_seconds=round(self.total_seconds, 6),
            stages=stages,
            expression=expression,
            expression_size=expression_size,
            proof_size=result_proof_size,
            raw_expression=raw_expression,
            verification=verification,
            source=self.source,
            display=display,
        )

    def to_dict(self, include_expression: bool = True) -> Dict[str, object]:
        """JSON-ready rendering, via the typed schema (CLI ``--json`` mode)."""
        return self.to_response(include_expression).to_json_dict()


def canonical_problem(problem: ImplicitDefinitionProblem) -> ImplicitDefinitionProblem:
    """``problem``, re-checked (the validate stage).

    The check runs on the first call per problem object and is recorded on
    it, so running a registry entry's long-lived problem again costs a dict
    read.  ``φ`` is canonical already: nodes are hash-consed when built.
    """
    problem.memo("_canonical", _check_problem)
    return problem


def _check_problem(problem: ImplicitDefinitionProblem) -> bool:
    check_formula(problem.phi, allow_membership=False)
    return True


class SynthesisPipeline:
    """Runs specifications through the staged synthesis service.

    ``cache`` — optional :class:`SynthesisCache` (shared across runs);
    ``search_factory`` — builds a fresh :class:`ProofSearch` per run so search
    statistics are per-problem and concurrent pipelines never share mutable
    search state.
    """

    def __init__(
        self,
        cache: Optional[SynthesisCache] = None,
        search_factory: Optional[Callable[[], ProofSearch]] = None,
        simplify_output: bool = True,
    ) -> None:
        self.cache = cache
        self.search_factory = search_factory or (lambda: ProofSearch(max_depth=12))
        self.simplify_output = simplify_output

    def run(
        self,
        problem: ImplicitDefinitionProblem,
        assignments: Optional[Sequence[Mapping[Var, Value]]] = None,
    ) -> PipelineReport:
        """Synthesize (or recall) the explicit definition, fully instrumented.

        ``assignments`` — optional satisfying-instance family for the
        verification stage; omitted, the stage is skipped.
        """
        report = PipelineReport(
            problem_name=problem.name,
            digest=spec_digest(problem),
            cache_tier="off" if self.cache is None else "miss",
        )
        stages = report.stages

        # -------- validate: re-check the specification (once per problem
        # object, see ``canonical_problem``).
        with _timed_stage(stages, STAGE_VALIDATE) as detail:
            problem = canonical_problem(problem)
            detail.update(
                {
                    "formula_size": formula_size(problem.phi),
                    "free_vars": len(free_vars(problem.phi)),
                    "canonical_nodes": canonical_nodes(),
                }
            )

        # -------- cache-lookup.
        result: Optional[SynthesisResult] = None
        if self.cache is not None:
            with _timed_stage(stages, STAGE_CACHE_LOOKUP) as detail:
                result, tier = self.cache.lookup(problem)
                report.cache_tier = tier
                detail["tier"] = tier

        # -------- witness-lookup: replay the stored proof of exactly this
        # goal, and of each Appendix G component goal a product output's
        # extraction proves again.  Only on a miss — a cache hit already has
        # the finished result, so no proof work (and no provenance source)
        # remains.
        replay_proof: Optional[ProofNode] = None
        component_proofs: List[ProofNode] = []
        witnesses = self.cache.witnesses if self.cache is not None else None
        if result is None:
            report.source = SOURCE_COLD
            if witnesses is not None:
                with _timed_stage(stages, STAGE_WITNESS_LOOKUP) as detail:
                    record = witnesses.get_for_sequent(problem.determinacy_goal())
                    if record is not None:
                        # Skip proof search entirely and replay the stored
                        # (re-checked) proof through extraction.
                        replay_proof = record.proof
                        report.source = SOURCE_WITNESS
                        detail["witness"] = record.digest
                        component_proofs = _component_witnesses(problem, witnesses)
                        detail["components"] = len(component_proofs)
                    detail["source"] = report.source

        subresults: List[SynthesisResult] = []
        if result is None:
            try:
                result = self._synthesize_staged(
                    problem, stages, proof=replay_proof, components=component_proofs, collect=subresults
                )
            except Exception:
                if replay_proof is None:
                    raise
                # The witness tier must never fail a run: a stored proof that
                # replays badly is logged, counted, and absorbed by a clean
                # cold rerun.
                logging.getLogger("repro.witness").warning(
                    "witness-assisted synthesis of %r failed (source=%s); "
                    "falling back to cold",
                    problem.name,
                    report.source,
                    exc_info=True,
                )
                get_registry().counter(
                    "repro_witness_replay_failures_total",
                    "Witness-assisted synthesis runs that fell back to cold",
                ).inc()
                report.source = SOURCE_COLD
                subresults.clear()
                result = self._synthesize_staged(problem, stages, collect=subresults)
        report.result = result

        # -------- verification (runs on hits too: instances may be new).
        if assignments is not None:
            with _timed_stage(stages, STAGE_VERIFICATION) as detail:
                verification = check_explicit_definition(
                    problem, result.expression, list(assignments)
                )
                report.verification = verification
                detail.update(
                    {
                        "checked": verification.checked,
                        "satisfying": verification.satisfying,
                        "ok": verification.ok,
                    }
                )

        # -------- witness-store: persist the determinacy proof, so a later
        # run of the same goal replays it, and the component proofs of the
        # Appendix G product recursion, which that replay looks up by goal
        # (``_component_witnesses``).  Runs on cache hits too (the proof
        # travels inside the result), backfilling stores that predate the
        # witness tier; re-storing an existing digest is skipped, so a
        # replayed witness is never rewritten.
        if witnesses is not None and result.proof is not None:
            # The top-level proof first, then any collected component results
            # (``collect`` also re-delivers the top-level result; the seen-set
            # dedupes it).  ``put`` checks every proof: one built or checked in
            # this process carries the checker's mark and costs nothing; one
            # recalled from the result cache that came from another process or
            # from disk (backfill) gets a full check.
            candidates = [(result.proof, problem)]
            candidates += [(sub.proof, sub.problem) for sub in subresults if sub.proof is not None]
            seen = set()
            to_store = []
            for proof_, problem_ in candidates:
                digest_ = witness_digest(proof_.sequent)
                if digest_ in seen or digest_ in witnesses:
                    continue
                seen.add(digest_)
                to_store.append((proof_, problem_))
            if to_store:
                with _timed_stage(stages, STAGE_WITNESS_STORE) as detail:
                    records = [
                        witnesses.put(proof_, name=problem_.name, problem=problem_)
                        for proof_, problem_ in to_store
                    ]
                    detail.update(
                        {
                            "witness": records[0].digest,
                            "proof_size": records[0].proof_size,
                            "stored": len(records),
                        }
                    )

        # -------- cache-store + bounded-memory maintenance.
        if self.cache is not None:
            if not report.cache_hit:
                with _timed_stage(stages, STAGE_CACHE_STORE) as detail:
                    self.cache.store(
                        problem,
                        result,
                        digest=report.digest,
                        cost_seconds=report.synthesis_seconds,
                    )
                    detail["disk"] = self.cache.disk_dir is not None
            self.cache.maintain()
        get_registry().counter(
            "repro_pipeline_runs_total",
            "Synthesis pipeline runs by cache tier",
            labelnames=("tier",),
        ).inc(tier=report.cache_tier)
        return report

    # ------------------------------------------------------- cold / replay
    def _synthesize_staged(
        self,
        problem: ImplicitDefinitionProblem,
        stages: List[StageTiming],
        proof: Optional[ProofNode] = None,
        components: Sequence[ProofNode] = (),
        collect: Optional[List[SynthesisResult]] = None,
    ) -> SynthesisResult:
        """Run the synthesis stages for one cache-missed problem.

        ``proof`` — a replayed witness proof; given, the proof-search stage
        is skipped entirely and the extraction runs under a
        ``witness.replay`` span (``synthesize`` checks the proof against the
        problem's determinacy goal; the witness store validated it already,
        so only the goal comparison costs anything).
        ``components`` — stored proofs of component goals, seeded into this
        run's search tables so extraction's component searches replay them.
        ``collect`` — accumulates the component results of product outputs
        for the witness-store stage.
        """
        search = self.search_factory()
        search.tables.successes.update((component.sequent, component) for component in components)
        replay = proof is not None

        if not replay:
            with _timed_stage(stages, STAGE_PROOF_SEARCH) as detail:
                proof = find_determinacy_proof(problem, search)
                detail.update(
                    {
                        "proof_size": proof_size(proof),
                        "rules": rules_used(proof),
                        "attempts": search.stats.attempts,
                        "exists_moves": search.stats.exists_moves,
                    }
                )
            registry = get_registry()
            registry.counter("repro_proof_searches_total", "Cold determinacy proof searches").inc()
            registry.counter("repro_proof_attempts_total", "Proof-search rule attempts").inc(
                search.stats.attempts
            )
            registry.counter(
                "repro_proof_table_hits_total", "Transposition-table replays during proof search"
            ).inc(search.stats.table_hits)
            registry.counter(
                "repro_proof_failure_hits_total", "Known-dead-end skips during proof search"
            ).inc(search.stats.failure_hits)

        replay_span = (
            get_tracer().span(
                "witness.replay",
                digest=witness_digest(proof.sequent),
                proof_size=proof_size(proof),
            )
            if replay
            else nullcontext()
        )
        with replay_span:
            with _timed_stage(stages, STAGE_EXTRACTION) as detail:
                searches_before = search.stats.searches
                raw_result = synthesize(
                    problem,
                    proof=proof,
                    search=search,
                    simplify_output=False,
                    collect=collect,
                )
                raw = raw_result.expression
                detail["raw_size"] = expr_size(raw)
                # Appendix G product outputs search each component's proof
                # again inside extraction (DESIGN.md §5.1).
                detail["component_searches"] = search.stats.searches - searches_before
                if replay:
                    detail["replayed_witness"] = True

            if not self.simplify_output:
                return raw_result

            with _timed_stage(stages, STAGE_SIMPLIFICATION) as detail:
                simplified, rewrite_stats = simplify_with_stats(raw)
                detail.update(
                    {
                        "size_before": expr_size(raw),
                        "size_after": expr_size(simplified),
                        "rewrite_passes": rewrite_stats.passes,
                    }
                )
        return SynthesisResult(
            problem=problem,
            expression=simplified,
            proof=raw_result.proof,
            interpolant=raw_result.interpolant,
            raw_expression=raw,
        )


def _component_witnesses(problem: ImplicitDefinitionProblem, witnesses: WitnessStore) -> List[ProofNode]:
    """The stored proofs of ``problem``'s Appendix G component goals.

    Extraction of a product output proves one determinacy goal per component,
    recursively through nested products (:func:`product_subproblems` is
    deterministic in the problem), and the witness-store stage persisted each
    of them, so every one is an exact lookup by goal digest.
    """
    found: List[ProofNode] = []
    pending = [problem]
    while pending:
        current = pending.pop()
        if not isinstance(current.output.typ, ProdType):
            continue
        for sub in product_subproblems(current):
            record = witnesses.get_for_sequent(sub.determinacy_goal())
            if record is not None:
                found.append(record.proof)
            pending.append(sub)
    return found
