"""Staged pipeline: stage sequence, timings, provenance, cache interplay."""

import pytest

from repro.errors import SynthesisError
from repro.nrc.expr import expr_size
from repro.proofs.search import ProofSearch
from repro.service.cache import SynthesisCache
from repro.service.pipeline import (
    STAGE_CACHE_LOOKUP,
    STAGE_CACHE_STORE,
    STAGE_EXTRACTION,
    STAGE_PROOF_SEARCH,
    STAGE_SIMPLIFICATION,
    STAGE_VALIDATE,
    STAGE_VERIFICATION,
    SynthesisPipeline,
)
from repro.specs import examples
from repro.synthesis import synthesize


def _pipeline(cache=None, **kwargs):
    return SynthesisPipeline(
        cache=cache, search_factory=lambda: ProofSearch(max_depth=12), **kwargs
    )


def test_cold_run_stage_sequence_and_details():
    report = _pipeline().run(examples.union_view())
    names = [stage.name for stage in report.stages]
    assert names == [
        STAGE_VALIDATE,
        STAGE_PROOF_SEARCH,
        STAGE_EXTRACTION,
        STAGE_SIMPLIFICATION,
    ]
    assert report.cache_tier == "off" and not report.cache_hit
    assert all(stage.seconds >= 0 for stage in report.stages)
    assert report.stage(STAGE_PROOF_SEARCH).detail["proof_size"] > 0
    simplification = report.stage(STAGE_SIMPLIFICATION).detail
    assert simplification["size_after"] <= simplification["size_before"]
    assert report.result is not None
    assert report.total_seconds == pytest.approx(sum(report.stage_seconds().values()))


def test_cache_miss_then_hit_skips_expensive_stages():
    cache = SynthesisCache()
    pipeline = _pipeline(cache)
    problem = examples.intersection_view()

    cold = pipeline.run(problem)
    assert cold.cache_tier == "miss"
    cold_names = [stage.name for stage in cold.stages]
    assert STAGE_PROOF_SEARCH in cold_names and STAGE_CACHE_STORE in cold_names

    warm = pipeline.run(problem)
    assert warm.cache_tier == "memory" and warm.cache_hit
    warm_names = [stage.name for stage in warm.stages]
    assert warm_names == [STAGE_VALIDATE, STAGE_CACHE_LOOKUP]
    assert warm.result.expression == cold.result.expression
    assert warm.digest == cold.digest


def test_verification_stage_runs_on_hits_too(tmp_path):
    cache = SynthesisCache(disk_dir=tmp_path)
    pipeline = _pipeline(cache)
    problem = examples.union_view()
    instances = examples.multi_union_view_instances(2, 10)

    cold = pipeline.run(problem, instances)
    assert cold.verification is not None and cold.verification.ok
    warm = pipeline.run(problem, instances)
    assert warm.cache_tier == "memory"
    assert warm.verification is not None and warm.verification.ok
    assert warm.stage(STAGE_VERIFICATION).detail["satisfying"] == 10
    # A result read back from disk (as by a fresh process) is verified too.
    disk = _pipeline(SynthesisCache(disk_dir=tmp_path)).run(problem, instances)
    assert disk.cache_tier == "disk"
    assert disk.verification is not None and disk.verification.ok
    assert disk.stage(STAGE_VERIFICATION).detail["satisfying"] == 10


def test_unsimplified_mode_returns_raw():
    report = _pipeline(simplify_output=False).run(examples.union_view())
    names = [stage.name for stage in report.stages]
    assert STAGE_SIMPLIFICATION not in names
    assert report.result.raw_expression is None or report.result.raw_expression == report.result.expression


def test_failed_search_propagates_synthesis_error():
    pipeline = SynthesisPipeline(
        search_factory=lambda: ProofSearch(max_depth=2, max_attempts=50)
    )
    with pytest.raises(SynthesisError):
        pipeline.run(examples.copy_chain(2))


def test_report_to_dict_is_json_ready():
    import json

    cache = SynthesisCache()
    pipeline = _pipeline(cache)
    problem = examples.pair_of_views()
    report = pipeline.run(problem, examples.pair_tower_instances(2, 6))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["problem"] == "pair_of_views"
    assert payload["cache_tier"] == "miss"
    assert payload["verification"]["ok"] is True
    assert any(stage["name"] == STAGE_PROOF_SEARCH for stage in payload["stages"])


def test_pipeline_reports_same_digest_for_equal_specs():
    pipeline = _pipeline(SynthesisCache())
    first = pipeline.run(examples.pair_of_views())
    second = pipeline.run(examples.pair_tower(2))
    assert first.digest == second.digest
    assert second.cache_hit  # structurally identical specification


@pytest.mark.parametrize(
    "problem",
    [examples.union_view(), examples.pair_of_views(), examples.pair_tower(3)],
    ids=["union_view", "pair_of_views", "pair_tower_3"],
)
def test_extraction_counts_the_component_searches_of_product_outputs(problem, traced):
    """Appendix G derives each product component's proof from the given one,
    so a run searches once, in proof-search, and extraction searches none."""
    searches = []

    def factory():
        searches.append(ProofSearch(max_depth=12))
        return searches[-1]

    report = SynthesisPipeline(search_factory=factory).run(problem)
    assert [search.stats.searches for search in searches] == [1]
    assert "component_searches" not in report.stage(STAGE_EXTRACTION).detail
    spans = {span["span_id"]: span for span in traced.export_all()}
    rounds = [span for span in spans.values() if span["name"] == "proof.round"]
    assert rounds
    for span in rounds:
        assert spans[span["parent_id"]]["name"] == "pipeline." + STAGE_PROOF_SEARCH


@pytest.mark.parametrize(
    "problem",
    [examples.pair_of_views(), examples.pair_tower(2), examples.pair_tower(3)],
    ids=["pair_of_views", "pair_tower_2", "pair_tower_3"],
)
def test_product_outputs_extract_raw_and_simplify_once(problem):
    """Components are extracted unsimplified; the simplification stage
    simplifies the whole pair once, to what the library call returns."""
    report = _pipeline().run(problem)
    result = report.result
    simplification = report.stage(STAGE_SIMPLIFICATION).detail
    assert simplification["size_before"] == expr_size(result.raw_expression)
    assert simplification["size_after"] == expr_size(result.expression)
    assert simplification["size_before"] > 10 * simplification["size_after"]
    assert str(result.expression) == str(synthesize(problem).expression)
