"""Service cache: content addressing, LRU tier, disk tier, memory bounds."""

import json
import pickle

import pytest

from repro.nr.values import ur, vset
from repro.nrc.eval import eval_nrc
from repro.proofs.search import ProofSearch
from repro.service.cache import (
    SynthesisCache,
    disk_entries,
    spec_digest,
    spec_key,
)
from repro.service.pipeline import SynthesisPipeline
from repro.specs import examples
from repro.synthesis import synthesize

SEARCH = dict(max_depth=12)


def _result(problem):
    return synthesize(problem, search=ProofSearch(**SEARCH))


def test_spec_key_ignores_problem_name():
    first = examples.union_view()
    renamed = type(first)("another_name", first.phi, first.inputs, first.output, first.auxiliaries)
    assert spec_key(first) == spec_key(renamed)
    assert spec_digest(first) == spec_digest(renamed)


def test_spec_digest_distinguishes_structures():
    digests = {
        spec_digest(examples.union_view()),
        spec_digest(examples.intersection_view()),
        spec_digest(examples.identity_view()),
        spec_digest(examples.multi_union_view(3)),
    }
    assert len(digests) == 4


def test_structurally_equal_problems_share_entries():
    """pair_of_views and pair_tower(2) state the same specification."""
    assert spec_digest(examples.pair_of_views()) == spec_digest(examples.pair_tower(2))


def test_memory_tier_hit_and_stats():
    cache = SynthesisCache(capacity=4)
    problem = examples.union_view()
    assert cache.get(problem) is None
    assert cache.stats.misses == 1
    result = _result(problem)
    cache.store(problem, result)
    found, tier = cache.lookup(problem)
    assert found is result and tier == "memory"
    assert cache.stats.hits == 1 and cache.stats.stores == 1


def test_lru_eviction_order():
    cache = SynthesisCache(capacity=2)
    problems = [examples.identity_view(), examples.union_view(), examples.intersection_view()]
    results = [_result(p) for p in problems]
    cache.store(problems[0], results[0])
    cache.store(problems[1], results[1])
    # Touch the oldest so the middle entry becomes the eviction victim.
    assert cache.get(problems[0]) is results[0]
    cache.store(problems[2], results[2])
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.get(problems[1]) is None
    assert cache.get(problems[0]) is results[0]
    assert cache.get(problems[2]) is results[2]


def test_disk_tier_roundtrip_across_instances(tmp_path):
    problem = examples.union_view()
    result = _result(problem)
    writer = SynthesisCache(disk_dir=tmp_path)
    writer.store(problem, result)

    # A fresh cache (fresh process in production) hits the persistent tier.
    reader = SynthesisCache(disk_dir=tmp_path)
    loaded, tier = reader.lookup(problem)
    assert tier == "disk"
    assert loaded.expression == result.expression
    assert loaded.proof.sequent == result.proof.sequent

    # The recalled definition still evaluates correctly.
    v1, v2 = problem.nrc_input_vars()
    value = eval_nrc(loaded.expression, {v1: vset([ur(1)]), v2: vset([ur(2), ur(3)])})
    assert value == vset([ur(1), ur(2), ur(3)])

    # Second lookup on the same instance is a memory hit (disk promoted).
    _, tier = reader.lookup(problem)
    assert tier == "memory"


def test_disk_entries_metadata(tmp_path):
    problem = examples.union_view()
    cache = SynthesisCache(disk_dir=tmp_path)
    digest = cache.store(problem, _result(problem))
    entries = disk_entries(tmp_path)
    assert len(entries) == 1
    entry = entries[0]
    assert entry.digest == digest
    assert entry.name == "union_view"
    assert entry.proof_size > 0 and entry.payload_bytes > 0
    # The sidecar is valid standalone JSON.
    raw = json.loads((tmp_path / f"{digest}.json").read_text())
    assert raw["name"] == "union_view"


def test_leftover_manifest_file_is_not_a_cache_entry(tmp_path):
    """Older cache directories carry a ``manifest.json`` next to the sidecars;
    it is not an entry's sidecar and must not be listed as one."""
    problem = examples.union_view()
    cache = SynthesisCache(disk_dir=tmp_path)
    cache.store(problem, _result(problem))
    (tmp_path / "manifest.json").write_text(
        json.dumps({"generation": 3, "node_id": "node-a", "updated_at": 1700000000.0})
    )
    assert [entry.name for entry in disk_entries(tmp_path)] == ["union_view"]
    assert [entry.name for entry in SynthesisCache(disk_dir=tmp_path).disk_entries()] == [
        "union_view"
    ]


def test_stale_tmp_files_are_reaped_on_open(tmp_path):
    import os
    import time

    stale = tmp_path / "deadbeef.pkl_x.tmp"
    stale.write_bytes(b"orphaned by a terminated worker")
    old = time.time() - SynthesisCache.STALE_TMP_SECONDS - 60
    os.utime(stale, (old, old))
    fresh = tmp_path / "cafe.pkl_y.tmp"
    fresh.write_bytes(b"a write in flight right now")
    SynthesisCache(disk_dir=tmp_path)
    assert not stale.exists()
    assert fresh.exists()


def test_reopening_within_the_stale_window_does_not_list_the_tiers(tmp_path, monkeypatch):
    """A pool worker opens a cache per request; only the first open of a
    directory per ``STALE_TMP_SECONDS`` lists the tiers for stale files."""
    import os
    from pathlib import Path

    from repro.service import cache as cache_module

    SynthesisCache(disk_dir=tmp_path)
    listed = []
    real_glob = Path.glob

    def recording_glob(self, pattern):
        listed.append(pattern)
        return real_glob(self, pattern)

    monkeypatch.setattr(Path, "glob", recording_glob)
    SynthesisCache(disk_dir=tmp_path)
    SynthesisCache(disk_dir=str(tmp_path))
    assert listed == []

    # Once the window has passed, the next open sweeps again.
    key = os.path.abspath(tmp_path)
    cache_module._LAST_TMP_SWEEP[key] -= SynthesisCache.STALE_TMP_SECONDS + 1
    SynthesisCache(disk_dir=tmp_path)
    assert sorted(listed) == sorted(["*.tmp", f"{cache_module.WITNESS_SUBDIR}/*.tmp"])


def test_corrupt_disk_entry_reads_as_miss(tmp_path):
    problem = examples.union_view()
    cache = SynthesisCache(disk_dir=tmp_path)
    digest = cache.store(problem, _result(problem))
    (tmp_path / f"{digest}.pkl").write_bytes(b"not a pickle")
    fresh = SynthesisCache(disk_dir=tmp_path)
    loaded, tier = fresh.lookup(problem)
    assert loaded is None and tier == "miss"
    # The corrupt entry was evicted from disk.
    assert not (tmp_path / f"{digest}.pkl").exists()


def test_entries_from_another_simplifier_read_as_stale_misses(tmp_path, monkeypatch):
    from repro.service import cache as cache_module

    problem = examples.union_view()
    result = _result(problem)
    digest = SynthesisCache(disk_dir=tmp_path).store(problem, result)
    payload = tmp_path / f"{digest}.pkl"
    assert pickle.loads(payload.read_bytes())["result"].expression == result.expression

    # A rule-set change makes the stored definition stale: a miss, evicted.
    monkeypatch.setattr(cache_module, "simplifier_fingerprint", lambda: "another-rule-set")
    loaded, tier = SynthesisCache(disk_dir=tmp_path).lookup(problem)
    assert loaded is None and tier == "miss"
    assert not payload.exists() and not (tmp_path / f"{digest}.json").exists()
    monkeypatch.undo()

    # So is an entry written before entries were stamped (a bare result).
    payload.write_bytes(pickle.dumps(result))
    loaded, tier = SynthesisCache(disk_dir=tmp_path).lookup(problem)
    assert loaded is None and tier == "miss"
    assert not payload.exists()


def test_pickled_results_carry_no_process_local_caches():
    problem = examples.union_view()
    result = _result(problem)
    v1, v2 = problem.nrc_input_vars()
    eval_nrc(result.expression, {v1: vset([ur(1)]), v2: vset([ur(2)])})  # attach _runner
    str(result.problem.phi)  # attach _cstr
    assert "_runner" in vars(result.expression) and "_cstr" in vars(result.problem.phi)
    blob = pickle.dumps(result)
    for attr in ("_runner", "_chash", "_fv", "_typ", "_cstr"):
        assert attr.encode() not in blob
    # In-process, unpickling builds the live canonical nodes again.
    assert pickle.loads(blob).expression is result.expression


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        SynthesisCache(capacity=0)


def test_sidecar_records_synthesis_cost(tmp_path):
    problem = examples.union_view()
    cache = SynthesisCache(disk_dir=tmp_path)
    digest = cache.store(problem, _result(problem), cost_seconds=1.25)
    raw = json.loads((tmp_path / f"{digest}.json").read_text())
    assert raw["synthesis_seconds"] == 1.25
    assert disk_entries(tmp_path)[0].synthesis_seconds == 1.25


def test_sidecars_without_cost_field_read_as_zero(tmp_path):
    # Entries written before the cost field existed must stay readable (and
    # be treated as maximally cheap to recompute).
    problem = examples.union_view()
    cache = SynthesisCache(disk_dir=tmp_path)
    digest = cache.store(problem, _result(problem), cost_seconds=3.0)
    sidecar = tmp_path / f"{digest}.json"
    raw = json.loads(sidecar.read_text())
    del raw["synthesis_seconds"]
    sidecar.write_text(json.dumps(raw))
    entries = disk_entries(tmp_path)
    assert entries[0].synthesis_seconds == 0.0


def test_maintain_evicts_cheapest_disk_entries_first(tmp_path):
    problems = [examples.identity_view(), examples.union_view(), examples.intersection_view()]
    costs = [5.0, 0.01, 3.0]  # union_view is by far the cheapest to recompute
    cache = SynthesisCache(disk_dir=tmp_path, disk_entry_bound=2)
    for problem, cost in zip(problems, costs):
        cache.store(problem, _result(problem), cost_seconds=cost)
    assert len(disk_entries(tmp_path)) == 3
    cache.maintain()
    survivors = {entry.name for entry in disk_entries(tmp_path)}
    assert survivors == {"identity_view", "intersection_view"}
    assert cache.stats.disk_evictions == 1
    # A second maintain with nothing new stored does not rescan or evict.
    cache.maintain()
    assert cache.stats.disk_evictions == 1


def test_cold_stores_under_the_bounds_read_no_sidecars(tmp_path, monkeypatch):
    from repro.service import cache as cache_module
    from repro.witness.store import WitnessStore

    def refuse(*_args, **_kwargs):
        raise AssertionError("a store under both bounds read every sidecar")

    monkeypatch.setattr(cache_module, "disk_entries", refuse)
    monkeypatch.setattr(WitnessStore, "list", refuse)
    cache = SynthesisCache(disk_dir=tmp_path)
    pipeline = SynthesisPipeline(cache=cache, search_factory=lambda: ProofSearch(**SEARCH))
    for problem in (examples.union_view(), examples.intersection_view()):
        assert pipeline.run(problem).cache_tier == "miss"
    assert cache.stats.disk_stores == 2
    assert len(cache.witnesses) >= 2


def test_maintain_respects_the_payload_byte_bound(tmp_path):
    problems = [examples.identity_view(), examples.union_view()]
    cache = SynthesisCache(disk_dir=tmp_path, disk_entry_bound=None, disk_payload_bound=1)
    cache.store(problems[0], _result(problems[0]), cost_seconds=0.5)
    cache.store(problems[1], _result(problems[1]), cost_seconds=2.0)
    cache.maintain()
    # Both entries exceed one byte together; the cheaper one is evicted
    # first, and eviction stops when a single entry remains over-budget
    # only if the bound still demands it — here everything cheap must go.
    survivors = [entry.name for entry in disk_entries(tmp_path)]
    assert survivors == [] or survivors == ["union_view"]
    assert cache.stats.disk_evictions >= 1


def test_peek_is_mutation_free(tmp_path):
    problem = examples.union_view()
    cache = SynthesisCache(disk_dir=tmp_path)
    assert cache.peek(problem) is None
    before = cache.stats.as_dict()
    cache.store(problem, _result(problem))
    assert cache.peek(problem) == "memory"
    fresh = SynthesisCache(disk_dir=tmp_path)
    assert fresh.peek(problem) == "disk"
    # Peeking never counts as a hit or a miss.
    assert fresh.stats.hits == 0 and fresh.stats.misses == 0
    assert cache.stats.misses == before["misses"] + 0


def test_store_memory_populates_only_the_lru(tmp_path):
    problem = examples.union_view()
    cache = SynthesisCache(disk_dir=tmp_path)
    cache.store_memory(problem, _result(problem))
    assert cache.peek(problem) == "memory"
    assert disk_entries(tmp_path) == []
