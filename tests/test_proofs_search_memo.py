"""Transposition-table proof search: reuse, validity, determinism.

The tables are pure caches: every answer they short-circuit must be one the
uncached search would have produced, so the core of this suite is
differential — the memoized :class:`ProofSearch` against the frozen
:class:`ReferenceProofSearch` on the registry examples and a fuzz corpus,
with the independent proof checker validating both sides.  The goal-distance
cut is held to the same standard: it may only remove subtrees that fail, so
the differential checks cover it too.  The rest covers the sharing contract
(success/failure reuse across the ``prove`` calls of one search, whose
:class:`SearchTables` it keeps), the size bound and the attempt counts the
cut buys.
"""

import pytest

from repro.logic.formulas import Bottom, EqUr, Exists, Forall, Member, NeqUr
from repro.logic.terms import Var
from repro.nr.types import UR, SetType
from repro.proofs.checker import check_proof
from repro.proofs.prooftree import ProofNode
from reference_search import ReferenceProofSearch
from repro.proofs.search import ProofSearch, SearchTables
from repro.proofs.sequents import Sequent
from repro.specs import examples
from repro.specs.fuzz import generate_spec

EXAMPLES = {
    "identity_view": examples.identity_view,
    "union_view": examples.union_view,
    "intersection_view": examples.intersection_view,
    "pair_of_views": examples.pair_of_views,
    "unique_element": examples.unique_element,
    "pair_tower_3": lambda: examples.pair_tower(3),
    "copy_chain_1": lambda: examples.copy_chain(1),
    "copy_chain_2": lambda: examples.copy_chain(2),
}


def _same_tree(left: ProofNode, right: ProofNode) -> bool:
    """Structural equality modulo equality-closure chains.

    The worklist saturation (ISSUE 6 satellite S1) may derive a different —
    equally valid, independently checked — ≠-rewrite chain than the
    reference's nested rescan, so ``neq`` chains are compared only by their
    conclusion; everywhere else the trees must match node for node.
    """
    if left.rule != right.rule or left.sequent != right.sequent:
        return False
    if left.rule == "neq":
        return True
    return (
        left.meta == right.meta
        and len(left.premises) == len(right.premises)
        and all(_same_tree(a, b) for a, b in zip(left.premises, right.premises))
    )


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_memoized_search_finds_the_reference_proof(name):
    """Differential: the tables only short-circuit, they never steer.

    Success entries replay the identical subproof; failure entries are
    stamped with the remaining budget and only suppress re-exploration that
    would fail again — so the found proof must be *the same tree* the
    pre-memoization search finds, not merely some valid proof.
    """
    goal = EXAMPLES[name]().determinacy_goal()
    memoized = ProofSearch(max_depth=12).prove(goal)
    reference = ReferenceProofSearch(max_depth=12).prove(goal)
    check_proof(memoized)
    assert _same_tree(memoized, reference)


@pytest.mark.parametrize("seed", [0, 1])
def test_memoized_search_finds_the_reference_proof_on_the_fuzz_corpus(seed):
    """The same differential over generated specs, whose quantifier shapes
    (∃-prefixes, products, mixed collections) the registry lacks."""
    for index in range(60):
        spec = generate_spec(seed, index)
        goal = spec.problem.determinacy_goal()
        memoized = ProofSearch(max_depth=12).prove(goal)
        reference = ReferenceProofSearch(max_depth=12).prove(goal)
        check_proof(memoized)
        assert _same_tree(memoized, reference), f"seed {seed} / {spec.name}"


def test_goal_distance_charges_one_move_for_an_available_exists_prefix():
    """Seed 0 / fuzz_0018: ``ex x1_1 in I2. ex zg in I1. …`` is specialized
    by one ∃-move, so the goal distance must charge one level for the whole
    prefix.  Charging one per ∃ overestimates the distance and cuts the branch
    that carries the reference proof."""
    spec = generate_spec(0, 18)
    goal = spec.problem.determinacy_goal()
    assert "(ex x1_1 in I2. (ex zg in I1. " in str(goal)
    memoized = ProofSearch(max_depth=12).prove(goal)
    check_proof(memoized)
    assert _same_tree(memoized, ReferenceProofSearch(max_depth=12).prove(goal))


def test_goal_distance_sees_collections_that_a_witness_opens():
    """``∀y ∈ x`` under ``∃x ∈ I`` puts an element into whichever collection
    the witness for ``x`` names, here ``a``; ``∃z ∈ a. z = z`` becomes
    movable only then.  The bound must count ``a`` as reachable (distance 2),
    not as never available, or it cuts the only proof."""
    a, x, y, z = Var("a", SetType(UR)), Var("x", SetType(UR)), Var("y", UR), Var("z", UR)
    source = Var("I", SetType(SetType(UR)))
    goal = Sequent.of(
        theta=[Member(a, source)],
        delta=[Exists(x, source, Forall(y, x, Bottom())), Exists(z, a, EqUr(z, z))],
    )
    search = ProofSearch(max_depth=2)
    proof = search.prove(goal)
    check_proof(proof)
    assert _same_tree(proof, ReferenceProofSearch(max_depth=2).prove(goal))
    assert search.stats.budget_used == 2


@pytest.mark.parametrize("length", [3, 4, 5])
def test_goal_distance_cut_keeps_copy_chains_small(length):
    """Without the cut, ``copy_chain(3)`` took 151,470 attempts; with it the
    chains of length 3–5 take 76 / 137 / 153."""
    goal = examples.copy_chain(length).determinacy_goal()
    search = ProofSearch()
    proof = search.prove(goal)
    check_proof(proof)
    assert search.stats.attempts <= 500
    assert search.stats.distance_cuts > 0


def test_repeat_proof_is_deterministic():
    goal = examples.pair_tower(3).determinacy_goal()
    first = ProofSearch(max_depth=12).prove(goal)
    second = ProofSearch(max_depth=12).prove(goal)
    assert _same_tree(first, second)


def test_shared_tables_serve_the_root_from_the_success_table():
    goal = examples.multi_union_view(3).determinacy_goal()
    search = ProofSearch(max_depth=12)
    proof = search.prove(goal)
    attempts, hits = search.stats.attempts, search.stats.table_hits
    assert attempts > 0
    assert search.tables.stats()["successes"] > 0

    replay = search.prove(goal)
    assert search.stats.table_hits == hits + 1
    assert search.stats.attempts == attempts, "the root must come straight from the table"
    assert _same_tree(proof, replay)
    check_proof(replay)


def test_shared_table_proofs_still_check():
    """Subproof reuse across *different* goals of one family must splice
    sequent-correct trees (successes are keyed on the full sequent)."""
    search = ProofSearch(max_depth=12)
    for width in (2, 3):
        goal = examples.multi_union_view(width).determinacy_goal()
        proof = search.prove(goal)
        check_proof(proof)
        assert proof.sequent == goal


def test_failure_entries_survive_across_budgets_and_instances():
    x = Var("x", UR)
    y = Var("y", UR)
    # Stable, closure-free, move-free: ⊢ x = y has no proof at any depth.
    goal = Sequent.of(delta=[EqUr(x, y)])
    search = ProofSearch(max_depth=8)
    assert search.prove_or_none(goal) is None
    assert search.tables.stats()["failures"] > 0
    cold_attempts, cold_hits = search.stats.attempts, search.stats.failure_hits

    assert search.prove_or_none(goal) is None
    assert search.stats.failure_hits > cold_hits
    assert search.stats.attempts - cold_attempts <= cold_attempts


def test_closure_entries_are_keyed_on_the_equality_atoms():
    """The ≠-chain saturation depends only on the =/≠ atoms, so one entry
    must serve every sequent sharing that atom set."""
    goal = examples.copy_chain(1).determinacy_goal()
    search = ProofSearch(max_depth=6)
    proof = search.prove(goal)
    check_proof(proof)
    assert search.stats.equality_closures > 0
    closures = search.tables.stats()["closures"]
    assert closures > 0
    # Every key is the frozen atom subset, not a whole sequent.
    for key in search.tables.closures:
        assert isinstance(key, frozenset)
        assert all(isinstance(atom, (EqUr, NeqUr)) for atom in key)


def test_tables_maintain_bounds_total_size(monkeypatch):
    search = ProofSearch(max_depth=12)
    tables = search.tables
    goal = examples.pair_tower(2).determinacy_goal()
    search.prove(goal)
    assert len(tables) > 0
    monkeypatch.setattr(SearchTables, "MAX_ENTRIES", 1)
    tables.maintain()
    assert len(tables) == 0
    assert tables.clears == 1
    assert tables.stats()["clears"] == 1
    # A cleared table only resets sharing; the next proof still checks.
    check_proof(search.prove(goal))


def test_fresh_searches_do_not_share_state_by_default():
    goal = examples.union_view().determinacy_goal()
    first = ProofSearch(max_depth=12)
    first.prove(goal)
    second = ProofSearch(max_depth=12)
    second.prove(goal)
    assert second.stats.table_hits == 0
    assert second.stats.attempts > 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))


def test_exhausted_search_explains_its_budgets_and_attempts(traced):
    """A starved search names the budgets it tried, the attempts it spent,
    the branches its goal distance cut and its limits; the service's job
    error and the ``proof.round`` span carry the same figures."""
    from repro.errors import ProofSearchError
    from repro.service.api import synthesis_failure

    goal = examples.union_view().determinacy_goal()
    search = ProofSearch(max_depth=2, max_attempts=50)
    with pytest.raises(ProofSearchError) as excinfo:
        search.prove(goal)
    detail = excinfo.value.detail
    assert detail["budgets"] == [2]
    assert 0 < detail["attempts_last_round"] <= 50
    assert detail["attempts_total"] == detail["attempts_last_round"]
    assert (detail["max_depth"], detail["max_attempts"]) == (2, 50)
    assert detail["cuts_last_round"] == search.stats.distance_cuts > 0
    message = str(excinfo.value)
    assert "depth budgets 2 " in message and "at most 50 per round" in message
    assert f"made {detail['cuts_last_round']} goal-distance cuts" in message
    assert synthesis_failure(excinfo.value).detail["search"] == detail
    (round_span,) = [span for span in traced.export_all() if span["name"] == "proof.round"]
    assert round_span["attributes"]["cuts"] == detail["cuts_last_round"]
    assert round_span["attributes"]["attempts"] == detail["attempts_last_round"]


@pytest.mark.parametrize("max_depth, budgets", [(4, [4]), (6, [4, 6]), (8, [4, 8]), (12, [4, 8, 12])])
def test_an_exhausted_search_runs_each_depth_budget_once(max_depth, budgets):
    """Every round of an exhausted search is named and counted, and a budget
    equal to ``max_depth`` is not run twice: a repeated round would spend the
    attempt budget again on the same tree."""
    from repro.errors import ProofSearchError

    x, y = Var("x", UR), Var("y", UR)
    with pytest.raises(ProofSearchError) as excinfo:
        ProofSearch(max_depth=max_depth).prove(Sequent.of(delta=[EqUr(x, y)]))
    detail = excinfo.value.detail
    assert detail["budgets"] == budgets
    assert detail["attempts_total"] >= detail["attempts_last_round"] > 0
    rendered = ", ".join(map(str, budgets))
    assert f"depth budgets {rendered} (max_depth {max_depth})" in str(excinfo.value)
