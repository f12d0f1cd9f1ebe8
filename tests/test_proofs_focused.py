"""Unit tests for the focused calculus: rule application, checking, search."""

import pytest

from repro.errors import ProofError, ProofSearchError, RuleApplicationError
from repro.logic.formulas import (
    And,
    Bottom,
    EqUr,
    Exists,
    Forall,
    Member,
    NeqUr,
    Or,
    Top,
)
from repro.logic.macros import equivalent, member_hat, negate, subset_of
from repro.logic.terms import PairTerm, Proj, Var, proj1, proj2
from repro.nr.types import UR, prod, set_of
from repro.proofs import focused
from repro.proofs.checker import check_proof, is_valid_proof
from repro.proofs.prooftree import ProofNode, proof_depth, proof_size, rules_used, iter_nodes
from repro.proofs.search import ProofSearch, prove_entailment, prove_sequent
from repro.proofs.sequents import Sequent, sequent_free_vars, two_sided


x = Var("x", UR)
y = Var("y", UR)
s = Var("s", set_of(UR))
t = Var("t", set_of(UR))


def test_sequent_construction_and_validation():
    seq = Sequent.of([Member(x, s)], [EqUr(x, y)])
    assert Member(x, s) in seq.theta
    assert sequent_free_vars(seq) == frozenset({x, y, s})
    with pytest.raises(Exception):
        Sequent.of([EqUr(x, y)], [])  # theta must hold membership atoms
    with pytest.raises(Exception):
        Sequent.of([], [Member(x, s)])  # delta must be core Δ0


def test_two_sided_macro():
    seq = two_sided([], [EqUr(x, y)], [EqUr(y, x)])
    assert NeqUr(x, y) in seq.delta and EqUr(y, x) in seq.delta


def test_eq_and_top_axioms():
    seq = Sequent.of([], [EqUr(x, x), Bottom()])
    node = focused.make_eq_axiom(seq, EqUr(x, x))
    check_proof(node)
    with pytest.raises(RuleApplicationError):
        focused.make_eq_axiom(seq, EqUr(x, y))
    seq_top = Sequent.of([], [Top()])
    check_proof(focused.make_top_axiom(seq_top))
    with pytest.raises(RuleApplicationError):
        focused.make_top_axiom(seq)


def test_or_and_forall_and_rules_roundtrip():
    phi = Or(EqUr(x, x), EqUr(y, y))
    seq = Sequent.of([], [phi])
    (premise_seq,) = focused.or_premises(seq, phi)
    inner = focused.make_eq_axiom(premise_seq, EqUr(x, x))
    node = focused.make_or(seq, phi, inner)
    check_proof(node)

    conj = And(EqUr(x, x), EqUr(y, y))
    seq_and = Sequent.of([], [conj])
    left_seq, right_seq = focused.and_premises(seq_and, conj)
    node_and = focused.make_and(
        seq_and,
        conj,
        focused.make_eq_axiom(left_seq, EqUr(x, x)),
        focused.make_eq_axiom(right_seq, EqUr(y, y)),
    )
    check_proof(node_and)

    z = Var("z", UR)
    fa = Forall(z, s, EqUr(z, z))
    seq_fa = Sequent.of([], [fa])
    fresh = Var("z_0", UR)
    (premise,) = focused.forall_premises(seq_fa, fa, fresh)
    node_fa = focused.make_forall(seq_fa, fa, fresh, focused.make_eq_axiom(premise, EqUr(fresh, fresh)))
    check_proof(node_fa)
    # freshness violation
    with pytest.raises(RuleApplicationError):
        focused.forall_premises(Sequent.of([], [fa, EqUr(Var("z_1", UR), y)]), fa, Var("z_1", UR))


def test_exists_rule_and_maximality():
    z = Var("z", UR)
    phi = Exists(z, s, EqUr(z, x))
    seq = Sequent.of([Member(x, s)], [phi])
    (premise_seq,) = focused.exists_premises(seq, phi, (x,))
    assert EqUr(x, x) in premise_seq.delta
    node = focused.make_exists(seq, phi, (x,), focused.make_eq_axiom(premise_seq, EqUr(x, x)))
    check_proof(node)
    # witness whose membership is not in Θ
    with pytest.raises(RuleApplicationError):
        focused.exists_premises(seq, phi, (y,))
    # non-maximal specialization: nested quantifier with an applicable atom left
    inner = Exists(Var("w", UR), s, EqUr(Var("w", UR), z))
    nested = Exists(z, s, inner)
    seq2 = Sequent.of([Member(x, s)], [nested])
    with pytest.raises(RuleApplicationError):
        focused.exists_premises(seq2, nested, (x,))
    # the ∃ rule refuses non-EL contexts
    seq3 = Sequent.of([Member(x, s)], [phi, Forall(z, s, Top())])
    with pytest.raises(RuleApplicationError):
        focused.exists_premises(seq3, phi, (x,))


def test_enumerate_max_specializations():
    z = Var("z", UR)
    w = Var("w", UR)
    nested = Exists(z, s, Exists(w, t, EqUr(z, w)))
    theta = [Member(x, s), Member(y, s), Member(x, t)]
    specs = list(focused.enumerate_max_specializations(nested, theta))
    # two choices for z (x, y), one for w (x)
    assert len(specs) == 2
    assert all(len(witnesses) == 2 for witnesses, _ in specs)
    got = {spec for _, spec in specs}
    assert EqUr(x, x) in got and EqUr(y, x) in got


def test_neq_rule():
    goal = EqUr(x, y)
    hyp = NeqUr(x, y)
    seq = Sequent.of([], [hyp, goal])
    target = EqUr(y, y)
    (premise_seq,) = focused.neq_premises(seq, hyp, goal, target)
    node = focused.make_neq(seq, hyp, goal, target, focused.make_eq_axiom(premise_seq, target))
    check_proof(node)
    with pytest.raises(RuleApplicationError):
        focused.neq_premises(seq, hyp, goal, EqUr(y, x))  # replaced the wrong side? no: x->y on left is fine
    # replacing with an unrelated term is rejected
    with pytest.raises(RuleApplicationError):
        focused.neq_premises(seq, hyp, goal, EqUr(Var("zz", UR), y))


def test_prod_eta_and_beta_rules():
    p = Var("p", prod(UR, UR))
    phi = EqUr(proj1(p), proj2(p))
    seq = Sequent.of([], [phi])
    a = Var("a", UR)
    b = Var("b", UR)
    (premise_seq,) = focused.prod_eta_premises(seq, p, a, b)
    assert EqUr(Proj(1, PairTerm(a, b)), Proj(2, PairTerm(a, b))) in premise_seq.delta
    (beta_seq,) = focused.prod_beta_premises(premise_seq, PairTerm(a, b), 1)
    assert EqUr(a, Proj(2, PairTerm(a, b))) in beta_seq.delta
    (beta_seq2,) = focused.prod_beta_premises(beta_seq, PairTerm(a, b), 2)
    assert EqUr(a, b) in beta_seq2.delta
    with pytest.raises(RuleApplicationError):
        focused.prod_eta_premises(seq, p, a, a)


def test_weaken_rule_and_checker_rejection():
    small = Sequent.of([], [EqUr(x, x)])
    big = Sequent.of([Member(x, s)], [EqUr(x, x), EqUr(x, y)])
    inner = focused.make_eq_axiom(small, EqUr(x, x))
    node = focused.make_weaken(big, inner)
    check_proof(node)
    with pytest.raises(RuleApplicationError):
        focused.make_weaken(small, focused.make_eq_axiom(big, EqUr(x, x)))
    # a tampered proof is rejected by the checker
    bogus = ProofNode("eq", Sequent.of([], [EqUr(x, y)]), (), {"principal": EqUr(x, y)})
    assert not is_valid_proof(bogus)
    bogus2 = ProofNode("unknown_rule", small, (), {})
    assert not is_valid_proof(bogus2)


FORALL_XS = Forall(x, s, EqUr(x, x))
AND_XY = And(EqUr(x, x), EqUr(x, y))


@pytest.mark.parametrize(
    "rule, principal, extra_meta",
    [
        ("and", FORALL_XS, {}),
        ("or", FORALL_XS, {}),
        ("forall", AND_XY, {"fresh": Var("x9", UR)}),
        # An unhashable principal fails the Δ lookup itself.
        ("exists", [FORALL_XS], {"witnesses": (x,)}),
    ],
    ids=["and", "or", "forall", "exists"],
)
def test_checker_rejects_a_principal_of_another_connective(rule, principal, extra_meta):
    """A node whose principal is of another class (an imported proof tree can
    name anything) is a ProofError, not a crash inside the rule."""
    leaf = focused.make_top_axiom(Sequent.of([], [Top()]))
    premises = (leaf, leaf) if rule == "and" else (leaf,)
    conclusion = Sequent.of([], [Top(), FORALL_XS, AND_XY])
    node = ProofNode(rule, conclusion, premises, {"principal": principal, **extra_meta})
    with pytest.raises(ProofError, match="principal"):
        check_proof(node)


def test_proof_metrics():
    small = Sequent.of([], [EqUr(x, x)])
    inner = focused.make_eq_axiom(small, EqUr(x, x))
    big = Sequent.of([], [EqUr(x, x), EqUr(x, y)])
    node = focused.make_weaken(big, inner)
    assert proof_size(node) == 2
    assert proof_depth(node) == 2
    assert rules_used(node) == {"weaken": 1, "eq": 1}
    assert len(list(iter_nodes(node))) == 2
    assert "weaken" in str(node)


# ----------------------------------------------------------------- search
def test_search_trivial_goals():
    assert is_valid_proof(prove_sequent([], [EqUr(x, x)]))
    assert is_valid_proof(prove_sequent([], [Top()]))
    assert is_valid_proof(prove_sequent([], [Or(EqUr(x, y), NeqUr(x, y))]))


def test_search_excluded_middle_bounded():
    z = Var("z", UR)
    phi = Exists(z, s, EqUr(z, x))
    goal = Or(phi, negate(phi))
    proof = prove_sequent([], [goal])
    check_proof(proof)


def test_search_uses_hypotheses_and_equality():
    # x = y, y = z ⊢ x = z
    zz = Var("zv", UR)
    proof = prove_entailment([EqUr(x, y), EqUr(y, zz)], EqUr(x, zz))
    check_proof(proof)
    # and the symmetric orientation
    proof2 = prove_entailment([EqUr(y, x), EqUr(zz, y)], EqUr(x, zz))
    check_proof(proof2)


def test_search_subset_transitivity():
    a = Var("A", set_of(UR))
    b = Var("B", set_of(UR))
    c = Var("C", set_of(UR))
    hyps = [subset_of(a, b), subset_of(b, c)]
    goal = subset_of(a, c)
    proof = prove_entailment(hyps, goal)
    check_proof(proof)


def test_search_equivalence_symmetry_and_transitivity():
    a = Var("A", set_of(UR))
    b = Var("B", set_of(UR))
    c = Var("C", set_of(UR))
    proof = prove_entailment([equivalent(a, b)], equivalent(b, a))
    check_proof(proof)
    proof2 = prove_entailment([equivalent(a, b), equivalent(b, c)], equivalent(a, c))
    check_proof(proof2)


def test_search_membership_congruence():
    a = Var("A", set_of(UR))
    proof = prove_entailment([EqUr(x, y), member_hat(x, a)], member_hat(y, a))
    check_proof(proof)


def test_search_fails_on_invalid_goal():
    search = ProofSearch(max_depth=4, max_attempts=3000)
    assert search.prove_or_none(Sequent.of([], [EqUr(x, y)])) is None
    with pytest.raises(ProofSearchError):
        search.prove(Sequent.of([], [EqUr(x, y)]))


def test_search_pair_projection_reasoning():
    p = Var("p", prod(UR, UR))
    q = Var("q", prod(UR, UR))
    hyps = [equivalent(p, q)]
    goal = EqUr(proj1(p), proj1(q))
    proof = prove_entailment(hyps, goal)
    check_proof(proof)
