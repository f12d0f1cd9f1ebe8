"""One home for each proof: the witness tier keeps finished proofs, while
cached results, worker replies and result-tier payloads carry only the
proof's node count (``SynthesisResult.proof_size``)."""

import asyncio
import pickle

import pytest

from repro.nrc.simplify import simplifier_fingerprint
from repro.proofs.prooftree import ProofNode, proof_size
from repro.service import api, workers
from repro.service.cache import SynthesisCache
from repro.service.pipeline import SynthesisPipeline
from repro.service.registry import default_registry
from repro.service.server import SynthesisService
from repro.synthesis.implicit_to_explicit import SynthesisResult


def _holds_proof_node(value) -> bool:
    """Whether a ``ProofNode`` is reachable from ``value``."""
    seen, stack = set(), [value]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, ProofNode):
            return True
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return False


def _lose_result_tier(cache_dir):
    for path in cache_dir.iterdir():
        if path.is_file():
            path.unlink()


def test_without_proof_keeps_the_node_count():
    result = SynthesisPipeline().run(default_registry().problem("union_view")).result
    bare = result.without_proof()
    assert _holds_proof_node(("ok", {}, result))
    assert not _holds_proof_node(("ok", {}, bare))
    assert bare.proof_size == result.proof_size == proof_size(result.proof)
    assert pickle.loads(pickle.dumps(bare)).proof_size == result.proof_size


def test_a_worker_reply_holds_no_proof_node():
    request = api.SynthesizeRequest(problem="union_of_3_views")
    worker = workers._take_worker()
    try:
        worker.conn.send((request.to_json_dict(), {"cache_dir": None, "obs": None}))
        message = worker.conn.recv()
    finally:
        worker.discard()
    assert message[0] == "ok", message
    assert isinstance(message[2], SynthesisResult)
    assert message[2].proof_size == message[1]["proof_size"] > 0
    assert not _holds_proof_node(message)


def test_the_server_memory_tier_holds_no_proof_node():
    from repro.specs.fuzz import generate_spec
    from repro.specs.lang import pretty_problem

    texts = {pretty_problem(generate_spec(5, index).problem) for index in range(3)}

    async def scenario():
        service = SynthesisService()
        for text in texts:
            status = await service.submit(api.SynthesizeRequest(spec_text=text))
            done = await service.wait(status.id, timeout=60)
            assert done.state == api.JOB_DONE and done.result.cache_tier == "miss"
        return service

    service = asyncio.run(scenario())
    assert len(service.cache) == len(texts)
    assert not _holds_proof_node(list(service.cache._lru.values()))


def test_cold_and_warm_answers_keep_the_proof_size(tmp_path):
    registry = default_registry()
    for entry in registry.sweepable():
        problem = entry.problem()
        # Two entries may share a specification: one directory per entry.
        cache_dir = tmp_path / entry.name
        cache = SynthesisCache(disk_dir=cache_dir)
        cold = SynthesisPipeline(cache=cache).run(problem)
        warm = SynthesisPipeline(cache=cache).run(problem)
        disk = SynthesisPipeline(cache=SynthesisCache(disk_dir=cache_dir)).run(problem)
        assert (cold.cache_tier, warm.cache_tier, disk.cache_tier) == ("miss", "memory", "disk")
        sizes = {report.to_response().proof_size for report in (cold, warm, disk)}
        assert sizes == {proof_size(cold.result.proof)}, entry.name
        assert cold.result.proof is not None  # a miss still reports its proof
        assert warm.result.proof is None and disk.result.proof is None
    assert len(registry.sweepable()) == 15


def test_an_old_shape_payload_reads_as_a_clean_miss(tmp_path, monkeypatch):
    problem = default_registry().problem("union_view")
    cold = SynthesisPipeline(cache=SynthesisCache(disk_dir=tmp_path)).run(problem)
    # Pickle the result as it pickled before it recorded its proof size:
    # the five older fields, the proof among them.
    old_fields = ("problem", "expression", "proof", "interpolant", "raw_expression")
    with monkeypatch.context() as patch:
        patch.setattr(SynthesisResult, "__getstate__", lambda self: {name: getattr(self, name) for name in old_fields})
        blob = pickle.dumps({"simplifier": simplifier_fingerprint(), "result": cold.result})
    payload = tmp_path / f"{cold.digest}.pkl"
    payload.write_bytes(blob)
    assert "proof_size" not in vars(pickle.loads(blob)["result"])
    cache = SynthesisCache(disk_dir=tmp_path)
    assert cache.lookup(problem) == (None, "miss")
    assert not payload.exists()
    again = SynthesisPipeline(cache=SynthesisCache(disk_dir=tmp_path)).run(problem)
    assert again.source == "witness"
    assert again.to_response().proof_size == cold.result.proof_size
    assert payload.exists()


@pytest.mark.parametrize("tier", ["memory", "disk"])
def test_a_result_hit_whose_witness_was_deleted_still_answers(tmp_path, tier):
    problem = default_registry().problem("union_of_3_views")
    cache = SynthesisCache(disk_dir=tmp_path)
    cold = SynthesisPipeline(cache=cache).run(problem)
    for path in (tmp_path / "witnesses").iterdir():
        path.unlink()
    if tier == "disk":
        cache = SynthesisCache(disk_dir=tmp_path)
    hit = SynthesisPipeline(cache=cache).run(problem)
    assert hit.cache_tier == tier
    response = hit.to_response()
    assert (response.expression, response.proof_size) == (
        str(cold.result.expression),
        cold.result.proof_size,
    )
    # A hit runs no proof work: the lost witness is not stored again.
    assert hit.stage("witness-store") is None
    assert not any((tmp_path / "witnesses").iterdir())


def test_a_server_replays_pair_tower_3_without_search_after_losing_its_results(tmp_path, traced):
    async def run(service):
        status = await service.submit(api.SynthesizeRequest(problem="pair_tower_3"))
        done = await service.wait(status.id, timeout=120)
        assert done.state == api.JOB_DONE, done
        return done

    async def scenario():
        cold = await run(SynthesisService(cache_dir=str(tmp_path)))
        _lose_result_tier(tmp_path)
        service = SynthesisService(cache_dir=str(tmp_path))
        replay = await run(service)
        return cold, replay, service.job_trace(replay.id)

    cold, replay, trace = asyncio.run(scenario())
    assert cold.result.source == "cold"
    assert replay.result.cache_tier == "miss" and replay.result.source == "witness"
    stages = {stage.name: stage for stage in replay.result.stages}
    assert "proof-search" not in stages
    # Appendix G derives the four component proofs from the replayed one.
    assert "components" not in stages["witness-lookup"].detail
    assert not [span for span in trace.spans if span.name == "proof.round"]
    assert (replay.result.expression, replay.result.proof_size) == (
        cold.result.expression,
        cold.result.proof_size,
    )
