"""Witness store: crash consistency, exact-witness replay, component lookup, hand-written proofs."""

import copyreg
import io
import logging
import pickle
import random

import pytest

from repro.core.node import Node, dataclass_field_names
from repro.errors import ProofError
from repro.logic.formulas import EqUr, NeqUr
from repro.logic.terms import PairTerm, Proj, Var
from repro.nr.types import UNIT, UR, ProdType, SetType
from repro.nrc.expr import NDiff, NUnion, NVar
from repro.nrc.simplify import simplifier_fingerprint
from repro.obs.metrics import get_registry
from repro.proofs import focused
from repro.proofs.checker import check_proof
from repro.proofs.prooftree import ProofNode
from repro.proofs.search import ProofSearch
from repro.proofs.sequents import Sequent
from repro.service import api
from repro.service.cache import SynthesisCache, spec_digest, spec_key
from repro.service.pipeline import SynthesisPipeline
from repro.service.registry import default_registry
from repro.service.workers import execute_synthesize_request
from repro.specs.fuzz import build_spec, mutate_spec
from repro.specs.problems import ImplicitDefinitionProblem
from repro.synthesis import synthesize
from repro.synthesis.implicit_to_explicit import product_subproblems
from repro.witness.handwritten import (
    HANDWRITTEN,
    HANDWRITTEN_PROBLEMS,
    Prover,
    TacticError,
    handwritten_proof,
    install_handwritten,
    replay_handwritten,
)
from repro.witness.store import (
    WitnessStore,
    _WitnessUnpickler,
    witness_digest,
    witness_fingerprint,
)

SET_UR = SetType(UR)
I1, I2, I3 = NVar("I1", SET_UR), NVar("I2", SET_UR), NVar("I3", SET_UR)


def _spec(expr, name="wit_spec", seed=0, instance_count=2):
    return build_spec(expr, name, random.Random(seed), instance_count=instance_count)


def _proof(problem):
    return ProofSearch(max_depth=12).prove(problem.determinacy_goal())


def _miss_value(reason):
    counter = get_registry().counter(
        "repro_witness_misses_total",
        "Witness-store lookups that fell back to cold synthesis",
        labelnames=("reason",),
    )
    return counter.value(reason=reason)


@pytest.fixture(scope="module")
def union_spec():
    return _spec(NUnion(NDiff(I1, I2), I3), name="wit_union")


@pytest.fixture(scope="module")
def union_proof(union_spec):
    return _proof(union_spec.problem)


# ------------------------------------------------------------------ the store
def test_put_get_roundtrip_across_processes(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="wit_union", problem=union_spec.problem)
    assert record.digest == witness_digest(union_proof.sequent)
    assert record.digest in store and len(store) == 1
    # A fresh store instance simulates another process: the read path must
    # unpickle, validate the address, and fully re-check the proof.
    fresh = WitnessStore(tmp_path)
    got = fresh.get_for_sequent(union_spec.problem.determinacy_goal())
    assert got is not None and got.digest == record.digest
    assert got.name == "wit_union"
    assert got.problem is not None and got.problem.name == union_spec.problem.name
    check_proof(got.proof)
    assert fresh.stats.hits == 1 and fresh.stats.invalid_payloads == 0
    summaries = fresh.list()
    assert [summary.digest for summary in summaries] == [record.digest]
    assert summaries[0].proof_size == record.proof_size
    assert summaries[0].payload_bytes > 0


def test_export_import_payload(tmp_path, union_spec, union_proof):
    source = WitnessStore(tmp_path / "src")
    record = source.put(union_proof, name="exported", problem=union_spec.problem)
    blob = source.export_payload(record.digest)
    assert blob is not None
    assert source.export_payload("0" * 64) is None
    target = WitnessStore(tmp_path / "dst")
    adopted = target.import_payload(blob)
    assert adopted is not None and adopted.digest == record.digest
    assert WitnessStore(tmp_path / "dst").get(record.digest) is not None


def test_import_drops_memos_planted_in_a_problem_state(tmp_path, union_spec, union_proof, monkeypatch):
    """A payload's problem state carrying the per-problem memo keys (the
    determinacy sequent, the content key and digest, the canonical form) is
    read back with its five fields only; each memo is rebuilt on first use."""
    source = WitnessStore(tmp_path / "src")
    record = source.put(union_proof, name="exported", problem=union_spec.problem)
    payload = pickle.loads(source.export_payload(record.digest))
    problem = payload["problem"]
    decoy = Sequent.of([], [EqUr(Var("forged", UR), Var("forged", UR))])
    forged = {
        "_determinacy_memo": ((problem.phi, problem.output, ()), problem.phi, decoy),
        "_spec_key": ("forged",),
        "_spec_digest": "0" * 64,
        "_canonical": "forged",
    }
    for key, value in forged.items():
        object.__setattr__(problem, key, value)
    with monkeypatch.context() as patch:
        patch.setattr(ImplicitDefinitionProblem, "__getstate__", lambda self: dict(self.__dict__))
        blob = pickle.dumps(payload)
    for key in forged:
        assert key.encode() in blob

    adopted = WitnessStore(tmp_path / "dst").import_payload(blob)
    assert adopted.problem == union_spec.problem
    assert not set(forged) & set(vars(adopted.problem))
    assert adopted.problem.determinacy_goal() == union_spec.problem.determinacy_goal()
    assert spec_digest(adopted.problem) == spec_digest(union_spec.problem)
    assert spec_key(adopted.problem) == spec_key(union_spec.problem)


def _fields(node):
    return {name: getattr(node, name) for name in dataclass_field_names(type(node))}


def _newobj_build(node):
    # How nodes pickled before they were canonical: NEWOBJ, then BUILD with
    # the declared fields.
    return copyreg.__newobj__, (type(node),), _fields(node)


def _reduce_build(node):
    # A constructor call, then BUILD with a forged rendering memo.
    return type(node), tuple(_fields(node).values()), {"_cstr": "forged-rendering"}


def test_unpickling_refuses_node_state_and_drops_sequent_memos(
    tmp_path, union_spec, union_proof, monkeypatch
):
    """Nodes pickle as constructor calls and take no state: a hand-built
    payload that gives a node state fails to import, and a parent-format
    witness or result on disk reads as a miss.  A sequent's forged
    free-variable set (``_fv``) is dropped, so it renders as what it is."""
    x, y = Var("x", UR), Var("y", UR)
    sequent = Sequent.of([], [EqUr(x, y), NeqUr(y, x)])
    truth = str(sequent)
    object.__setattr__(sequent, "_fv", frozenset({Var("forged", UR)}))
    with monkeypatch.context() as patch:
        patch.setattr(Sequent, "__getstate__", lambda self: dict(self.__dict__))
        blob = pickle.dumps(sequent)
    assert b"_fv" in blob
    restored = _WitnessUnpickler(io.BytesIO(blob)).load()
    assert restored == sequent and "_fv" not in vars(restored)
    assert str(restored) == truth

    result = synthesize(union_spec.problem, proof=union_proof)
    for builder in (_newobj_build, _reduce_build):
        root = tmp_path / builder.__name__
        source = WitnessStore(root / "src")
        record = source.put(union_proof, name="stateful", problem=union_spec.problem)
        payload = pickle.loads(source.export_payload(record.digest))
        digest = SynthesisCache(disk_dir=root / "cache").store(union_spec.problem, result)
        with monkeypatch.context() as patch:
            patch.setattr(Node, "__reduce__", builder)
            witness_blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            result_blob = pickle.dumps(
                {"simplifier": simplifier_fingerprint(), "result": result},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        with pytest.raises(ProofError, match="does not unpickle"):
            WitnessStore(root / "dst").import_payload(witness_blob)

        source.path(record.digest).write_bytes(witness_blob)
        assert WitnessStore(root / "src").get(record.digest) is None
        (root / "cache" / f"{digest}.pkl").write_bytes(result_blob)
        assert SynthesisCache(disk_dir=root / "cache").lookup(union_spec.problem) == (None, "miss")
    assert str(EqUr(x, y)) == "x = y"


def test_field_only_setstate_accepts_a_dict_only():
    from repro.nr.values import ur

    value = ur(1)
    with pytest.raises(TypeError, match="not a dict"):
        value.__setstate__(("atom", 1))
    with pytest.raises(TypeError, match="no pickled state"):
        Var("x", UR).__setstate__({})


def test_import_rejects_garbage(tmp_path):
    store = WitnessStore(tmp_path)
    with pytest.raises(ProofError):
        store.import_payload(b"not a pickle at all")
    with pytest.raises(ProofError):
        store.import_payload(pickle.dumps({"fingerprint": "stale"}))
    assert len(store) == 0


def test_import_admits_unit_types_and_pair_terms(tmp_path):
    """The import allow-list covers the globals no registry witness names: the
    unit type of a unit-typed spec and the pair terms of a ×η proof."""
    unit_pairs = SetType(ProdType(UR, UNIT))
    unit_spec = _spec(NUnion(NVar("U1", unit_pairs), NVar("U2", unit_pairs)), name="wit_unit")
    p, a, b = Var("p", ProdType(UR, UR)), Var("a", UR), Var("b", UR)
    conclusion = Sequent.of([], [EqUr(Proj(1, p), Proj(1, p))])
    (premise,) = focused.prod_eta_premises(conclusion, p, a, b)
    reflexive = EqUr(Proj(1, PairTerm(a, b)), Proj(1, PairTerm(a, b)))
    eta_proof = focused.make_prod_eta(conclusion, p, a, b, focused.make_eq_axiom(premise, reflexive))
    source = WitnessStore(tmp_path / "src")
    target = WitnessStore(tmp_path / "dst")
    for record in (source.put(_proof(unit_spec.problem), problem=unit_spec.problem), source.put(eta_proof)):
        assert target.import_payload(source.export_payload(record.digest)).digest == record.digest
    assert len(target) == 2


def test_memory_tier_fronts_the_disk(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="warm", problem=union_spec.problem)
    # Delete the on-disk payload behind the store's back: the in-process LRU
    # still serves the record (it validated at write time) ...
    store.path(record.digest).unlink()
    assert store.get(record.digest) is not None
    # ... while a fresh instance sees a clean absent-file miss.
    assert WitnessStore(tmp_path).get(record.digest) is None


def test_identical_payload_bytes_are_decoded_once_per_process(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="decoded", problem=union_spec.problem)
    first = WitnessStore(tmp_path).get(record.digest)
    assert first is not None and first.proof is not record.proof
    # Another store instance reading the same bytes gets the same checked
    # record, not a new tree to check in full.
    assert WitnessStore(tmp_path).get(record.digest) is first
    # The same payload pickled differently is other bytes: decoded anew.
    payload = pickle.loads(store.path(record.digest).read_bytes())
    store.path(record.digest).write_bytes(pickle.dumps(payload, protocol=2))
    again = WitnessStore(tmp_path).get(record.digest)
    assert again is not first and again.proof is not first.proof
    assert again.sequent == first.sequent


# ----------------------------------------------------------- crash consistency
def test_truncated_payload_is_a_clean_miss(tmp_path, union_spec, union_proof, caplog):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="torn", problem=union_spec.problem)
    blob = store.path(record.digest).read_bytes()
    store.path(record.digest).write_bytes(blob[: len(blob) // 3])
    before = _miss_value("truncated")
    fresh = WitnessStore(tmp_path)
    with caplog.at_level(logging.WARNING, logger="repro.witness"):
        assert fresh.get(record.digest) is None
    assert _miss_value("truncated") == before + 1
    assert fresh.stats.invalid_payloads == 1
    assert any("rejected" in message for message in caplog.messages)
    # The corrupt slot was evicted so the next store rebuilds it cleanly.
    assert record.digest not in fresh


def test_stale_fingerprint_is_a_clean_miss(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="stale", problem=union_spec.problem)
    payload = pickle.loads(store.path(record.digest).read_bytes())
    assert payload["fingerprint"] == witness_fingerprint()
    payload["fingerprint"] = "0" * 64
    store.path(record.digest).write_bytes(pickle.dumps(payload))
    before = _miss_value("fingerprint")
    assert WitnessStore(tmp_path).get(record.digest) is None
    assert _miss_value("fingerprint") == before + 1


def test_digest_mismatch_is_a_clean_miss(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="moved", problem=union_spec.problem)
    # A payload parked under the wrong content address must not be served.
    wrong = "f" * 64
    store.path(wrong).write_bytes(store.path(record.digest).read_bytes())
    before = _miss_value("digest")
    fresh = WitnessStore(tmp_path)
    assert fresh.get(wrong) is None
    assert _miss_value("digest") == before + 1
    # The genuine address still reads fine.
    assert fresh.get(record.digest) is not None


def test_non_checking_proof_is_a_clean_miss(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="broken", problem=union_spec.problem)
    payload = pickle.loads(store.path(record.digest).read_bytes())
    proof = payload["proof"]
    assert proof.premises  # the determinacy proof is not a bare axiom
    # Same conclusion sequent (address validates), but the inference below it
    # is gone — exactly what a bit-rotted or hand-tampered payload looks like.
    payload["proof"] = ProofNode(proof.rule, proof.sequent, (), proof.meta)
    store.path(record.digest).write_bytes(pickle.dumps(payload))
    before = _miss_value("invalid-proof")
    fresh = WitnessStore(tmp_path)
    assert fresh.get(record.digest) is None
    assert _miss_value("invalid-proof") == before + 1
    assert record.digest not in fresh


def test_maintain_bounds_the_tier(tmp_path):
    store = WitnessStore(tmp_path, entry_bound=2)
    for index, expr in enumerate((I1, NUnion(I1, I2), NDiff(I1, I2), NUnion(I1, I3))):
        spec = _spec(expr, name=f"bound_{index}", seed=index)
        store.put(_proof(spec.problem), name=spec.problem.name, problem=spec.problem)
    assert store.maintain() == 2
    assert len(store) == 2
    assert store.stats.evictions == 2
    assert store.maintain() == 0  # not dirty: no rescan, nothing more to evict


# ------------------------------------------------- component witness lookup
def _lose_result_tier(cache_dir):
    """Delete the top-level result files; ``witnesses/`` stays."""
    for path in cache_dir.iterdir():
        if path.is_file():
            path.unlink()


def _recording_factory(searches):
    def factory():
        search = ProofSearch(max_depth=12)
        searches.append(search)
        return search

    return factory


def test_product_outputs_store_and_replay_their_component_witnesses(tmp_path):
    """A cold product run stores one witness per Appendix G component as well
    as the top-level one; after the result tier is lost, the replay answers
    every component goal by exact lookup and searches nothing."""
    problem = default_registry().get("pair_tower_3").problem()
    cache = SynthesisCache(disk_dir=tmp_path)
    cold = SynthesisPipeline(cache=cache).run(problem)
    assert cold.source == "cold"
    assert cold.stage("witness-store").detail["stored"] == 1 + 4
    components = list(product_subproblems(problem))
    components += product_subproblems(components[1])  # <V2, V3> is a product
    for sub in (problem, *components):
        assert witness_digest(sub.determinacy_goal()) in cache.witnesses, sub.name

    _lose_result_tier(tmp_path)
    searches = []
    replay = SynthesisPipeline(
        cache=SynthesisCache(disk_dir=tmp_path), search_factory=_recording_factory(searches)
    ).run(problem)
    assert replay.cache_tier == "miss"
    assert replay.source == "witness"
    assert replay.stage("witness-lookup").detail["components"] == 4
    assert replay.stage("proof-search") is None
    assert replay.stage("extraction").detail["component_searches"] == 4
    assert sum(search.stats.attempts for search in searches) == 0
    assert str(replay.result.expression) == str(cold.result.expression)


def test_component_lookup_does_not_depend_on_earlier_jobs(tmp_path, union_spec):
    """The first job on an empty store leaves nothing behind that a later
    replay in the same process depends on."""
    cache_dir = tmp_path / "shared"

    def request(**fields):
        return api.SynthesizeRequest(cache_dir=str(cache_dir), **fields)

    _, _, first = execute_synthesize_request(request(spec_text=union_spec.spec_text()))
    assert first.source == "cold"
    _, _, cold = execute_synthesize_request(request(problem="pair_of_views"))
    assert cold.source == "cold"
    _lose_result_tier(cache_dir)
    response, _, replay = execute_synthesize_request(request(problem="pair_of_views"))
    assert replay.source == response.source == "witness"
    assert replay.stage("witness-lookup").detail["components"] == 2
    assert replay.stage("proof-search") is None
    assert str(replay.result.expression) == str(cold.result.expression)


def test_missing_component_witness_is_searched_again(tmp_path):
    problem = default_registry().get("pair_of_views").problem()
    cache = SynthesisCache(disk_dir=tmp_path)
    cold = SynthesisPipeline(cache=cache).run(problem)
    first, _ = product_subproblems(problem)
    lost = witness_digest(first.determinacy_goal())
    cache.witnesses.path(lost).unlink()
    _lose_result_tier(tmp_path)
    searches = []
    replay = SynthesisPipeline(
        cache=SynthesisCache(disk_dir=tmp_path), search_factory=_recording_factory(searches)
    ).run(problem)
    assert replay.source == "witness"
    assert replay.stage("witness-lookup").detail["components"] == 1
    assert sum(search.stats.attempts for search in searches) > 0
    assert str(replay.result.expression) == str(cold.result.expression)
    # The re-searched component proof is stored again.
    assert replay.stage("witness-store").detail["stored"] == 1
    assert lost in cache.witnesses


def test_replay_of_a_set_output_looks_up_no_components(tmp_path, union_spec):
    cache = SynthesisCache(disk_dir=tmp_path)
    SynthesisPipeline(cache=cache).run(union_spec.problem)
    _lose_result_tier(tmp_path)
    replay = SynthesisPipeline(cache=SynthesisCache(disk_dir=tmp_path)).run(union_spec.problem)
    assert replay.source == "witness"
    assert replay.stage("witness-lookup").detail["components"] == 0
    assert replay.stage("extraction").detail["component_searches"] == 0


# --------------------------------------------------------- exact-witness replay
def _request(spec, **fields):
    return api.SynthesizeRequest(spec_text=spec.spec_text(), **fields)


def test_edit_naming_its_ancestor_is_answered_cold_and_byte_identical(tmp_path, union_spec):
    edited = _spec(NUnion(NDiff(I1, I3), I3), name="wit_edited", seed=1)
    cache = SynthesisCache(disk_dir=tmp_path)
    _, _, ancestor_report = execute_synthesize_request(_request(union_spec), cache=cache)
    assert ancestor_report.source == "cold"
    digest = witness_digest(union_spec.problem.determinacy_goal())
    assert digest in cache.witnesses
    response, _, edit = execute_synthesize_request(_request(edited, ancestor=digest), cache=cache)
    assert edit.source == response.source == "cold"
    assert edit.stage("witness-lookup").detail["source"] == "cold"
    cold = SynthesisPipeline().run(edited.problem, edited.instances)
    assert response.expression == str(cold.result.expression)


def test_exact_witness_replay_after_result_tier_loss(tmp_path, union_spec):
    factory = lambda: ProofSearch(max_depth=12)  # noqa: E731
    cache = SynthesisCache(disk_dir=tmp_path)
    first = SynthesisPipeline(cache=cache, search_factory=factory).run(
        union_spec.problem, union_spec.instances
    )
    # Lose the result tier (top-level payloads) but keep witnesses/ — the
    # stored proof replays instead of a cold search.
    for path in tmp_path.iterdir():
        if path.is_file():
            path.unlink()
    replay_cache = SynthesisCache(disk_dir=tmp_path)
    replay = SynthesisPipeline(cache=replay_cache, search_factory=factory).run(
        union_spec.problem, union_spec.instances
    )
    assert replay.source == "witness"
    assert str(replay.result.expression) == str(first.result.expression)


def test_unresolvable_ancestor_degrades_to_cold(tmp_path, union_spec):
    cache = SynthesisCache(disk_dir=tmp_path)
    _, _, report = execute_synthesize_request(_request(union_spec, ancestor="0" * 64), cache=cache)
    assert report.source == "cold"
    assert report.result is not None


# ------------------------------------------------------------- tactic engine
def _ur(name):
    return Var(name, UR)


def test_prover_closes_reflexive_equality():
    x = _ur("x")
    prover = Prover(Sequent.of((), [EqUr(x, x)]))
    prover.close_eq(EqUr(x, x))
    proof = prover.qed()
    check_proof(proof)
    assert proof.sequent == Sequent.of((), [EqUr(x, x)])


def test_prover_equality_chain_closure():
    a, b, c = _ur("a"), _ur("b"), _ur("c")
    # Refutation reading: hypotheses a=b, b=c ride in Δ negated; the goal
    # a=c closes by chaining ≠-rule rewrites into a reflexive equality.
    goal = Sequent.of((), [NeqUr(a, b), NeqUr(b, c), EqUr(a, c)])
    prover = Prover(goal)
    prover.equality()
    proof = prover.qed()
    check_proof(proof)
    assert proof.sequent == goal


def test_prover_equality_raises_when_underivable():
    a, b, c, d = _ur("a"), _ur("b"), _ur("c"), _ur("d")
    prover = Prover(Sequent.of((), [NeqUr(a, b), EqUr(c, d)]))
    with pytest.raises(TacticError):
        prover.equality()


def test_prover_rejects_wrong_principal():
    x = _ur("x")
    prover = Prover(Sequent.of((), [EqUr(x, x)]))
    with pytest.raises(TacticError):
        prover.split(EqUr(x, x))
    with pytest.raises(ProofError):
        prover.qed()  # the goal is still open


# ------------------------------------------------------- hand-written proofs
@pytest.mark.parametrize("name", sorted(HANDWRITTEN))
def test_handwritten_proof_checks_against_its_goal(name):
    proof = handwritten_proof(name)
    check_proof(proof)
    assert proof.sequent == HANDWRITTEN_PROBLEMS[name]().determinacy_goal()


def test_install_and_replay_handwritten_end_to_end(tmp_path):
    store = WitnessStore(tmp_path)
    records = install_handwritten(store)
    assert set(records) == set(HANDWRITTEN)
    # A fresh store instance forces the real disk round trip (unpickle,
    # address validation, full proof re-check) before interpolation.
    fresh = WitnessStore(tmp_path)
    for name in sorted(HANDWRITTEN):
        report = replay_handwritten(fresh, name, scale=2)
        assert report.name == name
        assert report.proof_nodes > 100  # these are genuinely hard proofs
        assert report.interpolant is not None
        assert report.conditions_checked >= 8


def test_handwritten_survives_export_import(tmp_path):
    source = WitnessStore(tmp_path / "src")
    records = install_handwritten(source)
    target = WitnessStore(tmp_path / "dst")
    for name, record in records.items():
        blob = source.export_payload(record.digest)
        assert blob is not None
        target.import_payload(blob)
    for name in sorted(HANDWRITTEN):
        report = replay_handwritten(WitnessStore(tmp_path / "dst"), name, scale=2)
        assert report.conditions_checked >= 8


# ------------------------------------------------------------- spec edits
def test_mutate_spec_is_deterministic(union_spec):
    first = mutate_spec(union_spec, random.Random("m"), instance_count=2)
    second = mutate_spec(union_spec, random.Random("m"), instance_count=2)
    assert first is not None and second is not None
    assert first.expr == second.expr and first.expr != union_spec.expr
    assert first.name == "wit_union_edited"



def test_witness_address_distinguishes_input_types(tmp_path):
    """Specs whose goals differ only in a free variable's type get two witnesses.

    ``generate_spec(7, 60)`` has ``I1 : Set(Ur)`` and ``generate_spec(7, 83)``
    has ``I1 : Set((Ur x Ur))``; their sequents render identically, so an
    address over the rendering alone would replay the first spec's proof for
    the second.
    """
    from repro.specs.fuzz import generate_spec

    first, second = generate_spec(7, 60), generate_spec(7, 83)
    assert str(first.problem.determinacy_goal()) == str(second.problem.determinacy_goal())
    replay_failures = get_registry().counter(
        "repro_witness_replay_failures_total",
        "Witness-assisted synthesis runs that fell back to cold",
    )
    before = replay_failures.value()
    cache = SynthesisCache(disk_dir=tmp_path)
    for spec in (first, second):
        report = SynthesisPipeline(cache=cache).run(spec.problem, spec.instances)
        assert report.source == "cold", spec.problem.name
    assert replay_failures.value() == before
    assert len(cache.witnesses.list()) == 2
    assert witness_digest(first.problem.determinacy_goal()) != witness_digest(
        second.problem.determinacy_goal()
    )


def test_fuzz_goals_sharing_a_witness_address_are_structurally_equal():
    """One witness address, one goal: over four fuzz streams, every group of
    determinacy goals with the same ``witness_digest`` holds equal sequents
    (types included), so a stored proof is only ever replayed for its own
    goal."""
    from repro.specs.fuzz import generate_spec

    groups = {}
    for seed in range(4):
        for index in range(300):
            goal = generate_spec(seed, index).problem.determinacy_goal()
            groups.setdefault(witness_digest(goal), []).append((seed, index, goal))
    assert len(groups) > 1
    for members in groups.values():
        _, _, first = members[0]
        for seed, index, goal in members[1:]:
            assert goal == first, (seed, index)


def test_fuzz_streams_never_replay_a_wrong_witness(tmp_path):
    """Two fuzz streams through one pipeline on one disk cache: every witness
    the store hands back replays, so no run falls back to cold."""
    from repro.specs.fuzz import generate_spec

    replay_failures = get_registry().counter(
        "repro_witness_replay_failures_total",
        "Witness-assisted synthesis runs that fell back to cold",
    )
    before = replay_failures.value()
    pipeline = SynthesisPipeline(cache=SynthesisCache(disk_dir=tmp_path))
    for seed in (0, 7):
        for index in range(150):
            spec = generate_spec(seed, index)
            report = pipeline.run(spec.problem, spec.instances)
            assert report.verification is not None and report.verification.ok, (seed, index)
    assert replay_failures.value() == before
