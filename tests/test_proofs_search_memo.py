"""Transposition-table proof search: reuse, validity, determinism.

The tables are pure caches: every answer they short-circuit must be one the
uncached search would have produced, so the core of this suite is
differential — the memoized :class:`ProofSearch` against the frozen
:class:`ReferenceProofSearch` on the registry examples, with the independent
proof checker validating both sides.  The rest covers the sharing contract
(success/failure reuse across instances on one :class:`SearchTables`) and
the size bound.
"""

import pytest

from repro.logic.formulas import EqUr, NeqUr
from repro.logic.terms import Var
from repro.nr.types import UR
from repro.proofs.checker import check_proof
from repro.proofs.prooftree import ProofNode
from reference_search import ReferenceProofSearch
from repro.proofs.search import ProofSearch, SearchTables
from repro.proofs.sequents import Sequent
from repro.specs import examples

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


def test_repeat_proof_is_deterministic():
    goal = examples.pair_tower(3).determinacy_goal()
    first = ProofSearch(max_depth=12).prove(goal)
    second = ProofSearch(max_depth=12).prove(goal)
    assert _same_tree(first, second)


def test_shared_tables_serve_the_root_from_the_success_table():
    goal = examples.multi_union_view(3).determinacy_goal()
    tables = SearchTables()
    cold = ProofSearch(max_depth=12, tables=tables)
    proof = cold.prove(goal)
    assert cold.stats.attempts > 0
    assert tables.stats()["successes"] > 0

    warm = ProofSearch(max_depth=12, tables=tables)
    replay = warm.prove(goal)
    assert warm.stats.table_hits >= 1
    assert warm.stats.attempts == 0, "the root must come straight from the table"
    assert _same_tree(proof, replay)
    check_proof(replay)


def test_shared_table_proofs_still_check():
    """Subproof reuse across *different* goals of one family must splice
    sequent-correct trees (successes are keyed on the full sequent)."""
    tables = SearchTables()
    for width in (2, 3):
        goal = examples.multi_union_view(width).determinacy_goal()
        proof = ProofSearch(max_depth=12, tables=tables).prove(goal)
        check_proof(proof)
        assert proof.sequent == goal


def test_failure_entries_survive_across_budgets_and_instances():
    x = Var("x", UR)
    y = Var("y", UR)
    # Stable, closure-free, move-free: ⊢ x = y has no proof at any depth.
    goal = Sequent.of(delta=[EqUr(x, y)])
    tables = SearchTables()
    cold = ProofSearch(max_depth=8, tables=tables)
    assert cold.prove_or_none(goal) is None
    assert tables.stats()["failures"] > 0

    warm = ProofSearch(max_depth=8, tables=tables)
    assert warm.prove_or_none(goal) is None
    assert warm.stats.failure_hits >= 1
    assert warm.stats.attempts <= cold.stats.attempts


def test_closure_entries_are_keyed_on_the_equality_atoms():
    """The ≠-chain saturation depends only on the =/≠ atoms, so one entry
    must serve every sequent sharing that atom set."""
    goal = examples.copy_chain(1).determinacy_goal()
    tables = SearchTables()
    search = ProofSearch(max_depth=6, tables=tables)
    proof = search.prove(goal)
    check_proof(proof)
    assert search.stats.equality_closures > 0
    closures = tables.stats()["closures"]
    assert closures > 0
    # Every key is the frozen atom subset, not a whole sequent.
    for key in tables.closures:
        assert isinstance(key, frozenset)
        assert all(isinstance(atom, (EqUr, NeqUr)) for atom in key)


def test_tables_maintain_bounds_total_size(monkeypatch):
    tables = SearchTables()
    goal = examples.pair_tower(2).determinacy_goal()
    ProofSearch(max_depth=12, tables=tables).prove(goal)
    assert len(tables) > 0
    monkeypatch.setattr(SearchTables, "MAX_ENTRIES", 1)
    tables.maintain()
    assert len(tables) == 0
    assert tables.clears == 1
    assert tables.stats()["clears"] == 1
    # A cleared table only resets sharing; the next search still proves.
    check_proof(ProofSearch(max_depth=12, tables=tables).prove(goal))


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


def test_exhausted_search_explains_its_budgets_and_attempts():
    """A starved search names the budgets it tried, the attempts it spent and
    its limits, and the service's job error carries the same figures."""
    from repro.errors import ProofSearchError
    from repro.service.api import synthesis_failure

    goal = examples.union_view().determinacy_goal()
    with pytest.raises(ProofSearchError) as excinfo:
        ProofSearch(max_depth=2, max_attempts=50).prove(goal)
    detail = excinfo.value.detail
    assert detail["budgets"] == [2]
    assert 0 < detail["attempts_last_round"] <= 50
    assert detail["attempts_total"] == detail["attempts_last_round"]
    assert (detail["max_depth"], detail["max_attempts"]) == (2, 50)
    message = str(excinfo.value)
    assert "depth budgets 2 " in message and "at most 50 per round" in message
    assert synthesis_failure(excinfo.value).detail["search"] == detail

    # Under a depth schedule every scheduled round is named and counted.
    with pytest.raises(ProofSearchError) as excinfo:
        ProofSearch(max_depth=6, max_attempts=50, depth_schedule=(1, 2)).prove(goal)
    detail = excinfo.value.detail
    assert detail["budgets"] == [1, 2]
    assert detail["attempts_total"] >= detail["attempts_last_round"] > 0
    assert "depth budgets 1, 2 (max_depth 6)" in str(excinfo.value)
