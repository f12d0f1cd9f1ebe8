"""Differential + conformance suite for the Δ0 evaluator.

The production :func:`repro.logic.semantics.eval_formula` short-circuits
connectives and quantifiers; the oracle is the frozen
``reference_eval_formula`` of ``tests/reference_core.py``, which evaluates
every quantifier instance.  (The module keeps the name it had when it tested
the formula compiler that the evaluator replaced.)  Three layers:

* **Hypothesis differential tests** — random well-typed Δ0 formulas × random
  assignment families, asserting ``eval_formula`` and
  ``satisfying_assignments`` agree with the oracle.

* **Conformance matrix** — one parametrized enumeration: the evaluator on a
  hand-built formula and on every sweepable registry specification, and
  every family-level consumer against the same consumer built on the oracle.

* **Edge coverage** — empty families and empty sets, per-row lazy unbound
  variables, ``And``/``Or`` laziness, non-set quantifier bounds, quantifier
  nesting over wide sets, and deep binder and connective chains (mirroring
  ``tests/test_deep_expressions.py``).
"""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from reference_core import reference_eval_formula
from test_core_property import _values_of
from test_verification import FORMULA_VARS, S, U, families, well_typed_formulas

from repro.errors import EvaluationError
from repro.logic.formulas import (
    And,
    Bottom,
    EqUr,
    Exists,
    Forall,
    Member,
    NotMember,
    Or,
    Top,
)
from repro.logic.semantics import eval_formula, satisfying_assignments
from repro.logic.terms import Proj, Var
from repro.nr.types import UR
from repro.nr.values import ur, vset
from repro.service.registry import default_registry

Z = Var("z", UR)
W = Var("w", UR)


def _random_family(size, rnd):
    assignments = [{var: _values_of(var.typ, rnd) for var in FORMULA_VARS} for _ in range(size)]
    if len(assignments) >= 2:
        assignments[-1] = assignments[0]  # duplicate-row edge case
    return assignments


def _reference_mask(formula, assignments):
    return [reference_eval_formula(formula, assignment) for assignment in assignments]


# ------------------------------------------------------------- differential
@given(formula=well_typed_formulas, size=families, data=st.randoms(use_true_random=False))
def test_program_agrees_with_per_assignment_oracle(formula, size, data):
    assignments = _random_family(size, data)
    expected = _reference_mask(formula, assignments)
    assert [eval_formula(formula, assignment) for assignment in assignments] == expected


@given(formula=well_typed_formulas, size=families, data=st.randoms(use_true_random=False))
def test_satisfying_assignments_match_mask(formula, size, data):
    assignments = _random_family(size, data)
    mask = _reference_mask(formula, assignments)
    satisfying = satisfying_assignments(formula, assignments)
    assert satisfying == [a for a, ok in zip(assignments, mask) if ok]
    assert all(any(a is b for b in assignments) for a in satisfying)  # no copies


def test_empty_family():
    assert satisfying_assignments(Top(), []) == []
    assert satisfying_assignments(Exists(Z, S, EqUr(Z, U)), []) == []


def test_empty_sets_in_every_position(monkeypatch):
    """Quantifiers over empty bounds and memberships in empty sets."""
    phi = And(
        Forall(Z, S, Member(Z, S)),
        Or(Exists(Z, S, Top()), NotMember(U, S)),
    )
    assignments = [
        {U: ur(1), S: vset([])},
        {U: ur(1), S: vset([ur(1)])},
        {U: ur(2), S: vset([ur(1), ur(3)])},
    ]
    assert eval_formula(Forall(Z, S, Bottom()), assignments[0])  # vacuous ∀
    assert not eval_formula(Exists(Z, S, Top()), assignments[0])  # vacuous ∃
    assert not eval_formula(Member(U, S), assignments[0])
    expected = _reference_mask(phi, assignments)

    def forbid_member(*_args, **_kwargs):
        raise AssertionError("Member node built at evaluation time")

    # The oracle rewrites NotMember to ¬Member; the evaluator builds no node.
    monkeypatch.setattr(Member, "__init__", forbid_member)
    assert [eval_formula(phi, assignment) for assignment in assignments] == expected


def test_lazy_unbound_is_per_row():
    """A var missing only in rows whose quantifier bound is empty must not raise."""
    phi = Exists(Z, S, EqUr(Z, U))
    assignments = [{S: vset([ur(1)]), U: ur(1)}, {S: vset([])}]
    expected = _reference_mask(phi, assignments)
    assert [eval_formula(phi, assignment) for assignment in assignments] == expected
    assert satisfying_assignments(phi, assignments) == assignments[:1]
    with pytest.raises(EvaluationError, match="unbound variable u"):
        eval_formula(phi, {S: vset([ur(1)])})


def test_short_circuit_matches_per_row_connective_laziness():
    """The evaluator skips the right operand exactly like the oracle.

    ``missing`` is unbound in every row, but ``And``'s left operand is false
    and ``Or``'s left operand is true everywhere, so neither evaluator ever
    demands it.
    """
    missing = Var("missing", UR)
    assignments = [{U: ur(1), S: vset([ur(1)])}]
    for phi in (And(Bottom(), Member(missing, S)), Or(Top(), Member(missing, S))):
        expected = _reference_mask(phi, assignments)
        assert [eval_formula(phi, assignment) for assignment in assignments] == expected


def test_quantifiers_stop_at_the_first_deciding_element(monkeypatch):
    """∃ stops at its first witness and ∀ at its first counterexample: with
    every element deciding, the body runs once (two term evaluations) after
    the bound's one, however wide the bound."""
    from repro.logic import semantics

    calls = []
    real_eval_term = semantics.eval_term

    def counting_eval_term(term, env):
        calls.append(term)
        return real_eval_term(term, env)

    monkeypatch.setattr(semantics, "eval_term", counting_eval_term)
    wide = {U: ur("absent"), S: vset([ur(k) for k in range(100)])}
    for phi, expected in ((Exists(Z, S, EqUr(Z, Z)), True), (Forall(Z, S, EqUr(Z, U)), False)):
        calls.clear()
        assert eval_formula(phi, wide) is expected
        assert len(calls) == 3


def _union_view_case():
    from test_verification import _union_view_family

    from repro.nrc.expr import NUnion, NVar

    problem, assignments = _union_view_family(10)
    v1, v2 = problem.inputs
    expression = NUnion(NVar(v1.name, v1.typ), NVar(v2.name, v2.typ))
    return problem, expression, assignments


def _explicit_definition_report(problem, expression, assignments, reference):
    """``check_explicit_definition``, or the same check filtered by the oracle."""
    from test_verification import reference_check_explicit_definition

    from repro.synthesis import check_explicit_definition

    check = reference_check_explicit_definition if reference else check_explicit_definition
    report = check(problem, expression, assignments)
    return (report.checked, report.satisfying, report.ok, list(map(dict, report.mismatches)))


def _consumer_explicit_definition(reference):
    problem, expression, assignments = _union_view_case()
    return _explicit_definition_report(problem, expression, assignments, reference)


def _consumer_explicit_definition_mismatches(reference):
    from repro.nrc.expr import NVar

    problem, _expression, assignments = _union_view_case()
    wrong = NVar(problem.inputs[0].name, problem.inputs[0].typ)
    return _explicit_definition_report(problem, wrong, assignments, reference)


def _implicitly_defines(problem, assignments, reference):
    from test_verification import reference_check_implicitly_defines

    if reference:
        return reference_check_implicitly_defines(problem, assignments)
    return problem.check_implicitly_defines(assignments)


def _consumer_implicitly_defines(reference):
    problem, _expression, assignments = _union_view_case()
    return _implicitly_defines(problem, assignments, reference)


def _consumer_parsed_spec_text(reference):
    # The spec-language path: the problem is printed to text and re-parsed
    # before checking, so a printer/parser divergence shows up as a
    # conformance failure here, not just in the fuzzer.
    from repro.specs.lang import parse_problem, pretty_problem

    problem, _expression, assignments = _union_view_case()
    reparsed = parse_problem(pretty_problem(problem))
    assert reparsed == problem
    return _implicitly_defines(reparsed, assignments, reference)


#: Every family-level consumer: name -> callable(reference).
BATCH_CONSUMERS = {
    "check_explicit_definition": _consumer_explicit_definition,
    "check_explicit_definition_mismatches": _consumer_explicit_definition_mismatches,
    "check_implicitly_defines": _consumer_implicitly_defines,
    "parsed_spec_text_implicitly_defines": _consumer_parsed_spec_text,
}


def _registry_family(name):
    """A registry entry's φ over its 24 instances plus 23 perturbed rows.

    The instances satisfy φ; pairing each one's inputs with the next one's
    output gives rows that mostly do not, so the mask is not all ``True``.
    """
    entry = default_registry().get(name)
    problem = entry.problem()
    instances = entry.instances(24)
    swapped = [{**first, problem.output: second[problem.output]} for first, second in zip(instances, instances[1:])]
    return problem.phi, instances + swapped


#: The full conformance matrix, enumerated in one place: the evaluator on a
#: hand-built formula and on every sweepable registry specification must
#: agree with the oracle, and every family-level consumer must agree with
#: the same consumer built on the oracle.
CONFORMANCE_PAIRS = (
    [("formula", "nested_quantifiers")]
    + [("registry", entry.name) for entry in default_registry().sweepable() if entry.instances]
    + [("consumer", name) for name in sorted(BATCH_CONSUMERS)]
)


@pytest.mark.parametrize(("kind", "name"), CONFORMANCE_PAIRS)
def test_conformance_pair(kind, name):
    if kind == "formula":
        phi = Forall(Z, S, Or(EqUr(Z, U), Exists(W, S, EqUr(Z, W))))
        assignments = [
            {U: ur(i % 3), S: vset([ur(k) for k in range(i % 4)])} for i in range(12)
        ]
    elif kind == "registry":
        phi, assignments = _registry_family(name)
    else:
        assert BATCH_CONSUMERS[name](False) == BATCH_CONSUMERS[name](True)
        return
    expected = _reference_mask(phi, assignments)
    assert [eval_formula(phi, assignment) for assignment in assignments] == expected
    assert satisfying_assignments(phi, assignments) == [a for a, ok in zip(assignments, expected) if ok]


# ------------------------------------------------- row explosion / depth
def test_quantifier_over_non_set_bound_raises():
    phi = Forall(Z, Var("not_a_set", UR), Top())
    assignments = [{Var("not_a_set", UR): ur(5)}]
    with pytest.raises(EvaluationError, match="quantifier bound evaluated to non-set"):
        reference_eval_formula(phi, assignments[0])
    with pytest.raises(EvaluationError, match="quantifier bound evaluated to non-set"):
        satisfying_assignments(phi, assignments)


@pytest.mark.parametrize(
    ("formula", "env", "message"),
    [
        (EqUr(Proj(1, U), U), {U: ur(1)}, "projection of non-pair value"),
        (Member(U, W), {U: ur(1), W: ur(2)}, "membership in non-set value"),
        (NotMember(U, W), {U: ur(1), W: ur(2)}, "membership in non-set value"),
        (EqUr(U, W), {U: ur(1)}, "unbound variable w : Ur"),
        ("not a formula", {}, "unknown formula"),
        (EqUr("not a term", U), {U: ur(1)}, "unknown term"),
    ],
    ids=["proj", "member", "notmember", "unbound", "formula", "term"],
)
def test_errors_match_the_oracle(formula, env, message):
    for evaluate in (eval_formula, reference_eval_formula):
        with pytest.raises(EvaluationError, match=message):
            evaluate(formula, env)


def test_nested_quantifier_row_explosion():
    """Two nested quantifiers over wide sets: up to |S| × |S| body
    evaluations per row; results must still match the oracle."""
    phi = Forall(Z, S, Exists(W, S, And(EqUr(Z, W), Member(W, S))))
    assignments = [{S: vset([ur(k) for k in range(width)])} for width in range(9)]
    expected = _reference_mask(phi, assignments)
    assert [eval_formula(phi, assignment) for assignment in assignments] == expected


def _deep_quantifier_chain(depth, kinds=(Forall, Exists)):
    """``∀z0∈S ∃z1∈S ... EqUr(z_last, u)`` with singleton bounds (no blowup)."""
    z_vars = [Var(f"z{i}", UR) for i in range(depth)]
    body = EqUr(z_vars[-1], U)
    for i in reversed(range(depth)):
        body = kinds[i % len(kinds)](z_vars[i], S, body)
    return body


def test_deep_binder_nesting_agrees_with_oracle():
    deep = _deep_quantifier_chain(320)
    assignments = [{S: vset([ur(7)]), U: ur(7)}, {S: vset([ur(1)]), U: ur(7)}]
    expected = _reference_mask(deep, assignments)
    assert [eval_formula(deep, assignment) for assignment in assignments] == expected


def _chain(connective, depth, leaf, last):
    formula = last
    for _ in range(depth - 1):
        formula = connective(leaf, formula)
    return formula


@pytest.mark.parametrize(
    "formula",
    [
        # In the last two rows no operand of the connective chains but the
        # last decides, so the evaluation walks the whole chain.
        _chain(Or, 500, Member(U, S), EqUr(U, Z)),
        _chain(And, 500, NotMember(U, S), EqUr(U, Z)),
        _deep_quantifier_chain(500, kinds=(Exists,)),
    ],
    ids=["or", "and", "exists"],
)
def test_500_level_chains_through_satisfying_assignments(formula):
    assignments = [
        {U: ur(1), Z: ur(1), S: vset([ur(1)])},
        {U: ur(1), Z: ur(2), S: vset([ur(2)])},
        {U: ur(2), Z: ur(2), S: vset([ur(1)])},
    ]
    expected = _reference_mask(formula, assignments)
    assert True in expected and False in expected
    assert satisfying_assignments(formula, assignments) == [a for a, ok in zip(assignments, expected) if ok]


@settings(deadline=None, max_examples=25)
@given(size=families, data=st.randoms(use_true_random=False))
def test_view_equals_legacy_list_filter(size, data):
    phi = Exists(Z, S, EqUr(Z, U))
    assignments = _random_family(size, data)
    view = satisfying_assignments(phi, assignments)
    legacy = [a for a in assignments if reference_eval_formula(phi, a)]
    assert view == legacy
