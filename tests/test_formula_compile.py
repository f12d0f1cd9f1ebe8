"""Differential + conformance suite for the Δ0 formula compiler.

Three layers:

* **Hypothesis differential tests** — random well-typed Δ0 formulas × random
  assignment families, asserting the compiled column program agrees with the
  per-assignment ``eval_formula`` oracle (including unbound-variable lazy
  semantics and empty-family/empty-set edge cases).

* **Conformance matrix** — one parametrized enumeration: the program on a
  hand-built formula and on every sweepable registry specification, and
  every batched consumer against its per-environment oracle.

* **Regression/edge coverage** — ``NotMember`` compile-once memoization (no
  formula node is built at evaluation time), quantifier row-explosion on
  non-set bounds, and deeply nested ``Forall``/``Exists`` chains (mirroring
  ``tests/test_deep_expressions.py``).
"""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from test_core_property import _values_of
from test_verification import FORMULA_VARS, S, U, families, well_typed_formulas

from repro.logic.compile import compile_formula
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
from repro.logic.semantics import eval_formula, eval_formula_batch, satisfying_assignments
from repro.logic.terms import Var
from repro.nr.columns import ValueInterner
from repro.nr.types import UR, set_of
from repro.nr.values import ur, vset
from repro.service.registry import default_registry

Z = Var("z", UR)
W = Var("w", UR)


def _random_family(size, rnd):
    assignments = [{var: _values_of(var.typ, rnd) for var in FORMULA_VARS} for _ in range(size)]
    if len(assignments) >= 2:
        assignments[-1] = assignments[0]  # duplicate-row edge case
    return assignments


# ------------------------------------------------------------- differential
@given(formula=well_typed_formulas, size=families, data=st.randoms(use_true_random=False))
def test_program_agrees_with_per_assignment_oracle(formula, size, data):
    assignments = _random_family(size, data)
    expected = [eval_formula(formula, assignment) for assignment in assignments]
    assert eval_formula_batch(formula, assignments) == expected


@given(formula=well_typed_formulas, size=families, data=st.randoms(use_true_random=False))
def test_program_agrees_on_private_interner(formula, size, data):
    assignments = _random_family(size, data)
    expected = [eval_formula(formula, assignment) for assignment in assignments]
    assert eval_formula_batch(formula, assignments, ValueInterner()) == expected


@given(formula=well_typed_formulas, size=families, data=st.randoms(use_true_random=False))
def test_satisfying_assignments_match_mask(formula, size, data):
    assignments = _random_family(size, data)
    mask = eval_formula_batch(formula, assignments)
    satisfying = satisfying_assignments(formula, assignments)
    assert satisfying == [a for a, ok in zip(assignments, mask) if ok]
    assert all(any(a is b for b in assignments) for a in satisfying)  # no copies


def test_empty_family():
    assert eval_formula_batch(Top(), []) == []
    assert eval_formula_batch(Exists(Z, S, EqUr(Z, U)), []) == []


def test_empty_sets_in_every_position():
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
    expected = [eval_formula(phi, assignment) for assignment in assignments]
    assert eval_formula_batch(phi, assignments) == expected


def test_lazy_unbound_is_per_row():
    """A var missing only in rows whose quantifier bound is empty must not raise."""
    phi = Exists(Z, S, EqUr(Z, U))
    assignments = [{S: vset([ur(1)]), U: ur(1)}, {S: vset([])}]
    expected = [eval_formula(phi, assignment) for assignment in assignments]
    assert eval_formula_batch(phi, assignments) == expected


def test_short_circuit_matches_per_row_connective_laziness():
    """The program skips the right operand exactly like eval_formula.

    ``missing`` is unbound in every row, but ``And``'s left operand is false
    and ``Or``'s left operand is true everywhere, so neither per-row
    evaluation nor the mask-selected right operand ever demands it.
    """
    missing = Var("missing", UR)
    assignments = [{U: ur(1), S: vset([ur(1)])}]
    for phi in (And(Bottom(), Member(missing, S)), Or(Top(), Member(missing, S))):
        expected = [eval_formula(phi, assignment) for assignment in assignments]
        assert eval_formula_batch(phi, assignments) == expected


def _union_view_case():
    from test_verification import _union_view_family

    from repro.nrc.expr import NUnion, NVar

    problem, assignments = _union_view_family(10)
    v1, v2 = problem.inputs
    expression = NUnion(NVar(v1.name, v1.typ), NVar(v2.name, v2.typ))
    return problem, expression, assignments


def _consumer_explicit_definition(batched):
    from repro.synthesis import check_explicit_definition

    problem, expression, assignments = _union_view_case()
    report = check_explicit_definition(problem, expression, assignments, batched=batched)
    return (report.checked, report.satisfying, report.ok, list(map(dict, report.mismatches)))


def _consumer_explicit_definition_mismatches(batched):
    from repro.nrc.expr import NVar
    from repro.synthesis import check_explicit_definition

    problem, _expression, assignments = _union_view_case()
    wrong = NVar(problem.inputs[0].name, problem.inputs[0].typ)
    report = check_explicit_definition(problem, wrong, assignments, batched=batched)
    return (report.checked, report.satisfying, report.ok, list(map(dict, report.mismatches)))


def _consumer_implicitly_defines(batched):
    problem, _expression, assignments = _union_view_case()
    return problem.check_implicitly_defines(assignments, batched=batched)


def _consumer_parsed_spec_text(batched):
    # The spec-language path: the problem is printed to text and re-parsed
    # before checking, so a printer/parser divergence shows up as a
    # conformance failure here, not just in the fuzzer.
    from repro.specs.lang import parse_problem, pretty_problem

    problem, _expression, assignments = _union_view_case()
    reparsed = parse_problem(pretty_problem(problem))
    assert reparsed == problem
    return reparsed.check_implicitly_defines(assignments, batched=batched)


#: Every consumer with a per-environment oracle: name -> callable(batched).
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


#: The full conformance matrix, enumerated in one place: the program on a
#: hand-built formula and on every sweepable registry specification must
#: agree with the per-assignment oracle, and every batched consumer must
#: agree with its per-environment oracle.
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
        assert BATCH_CONSUMERS[name](True) == BATCH_CONSUMERS[name](False)
        return
    expected = [eval_formula(phi, assignment) for assignment in assignments]
    assert eval_formula_batch(phi, assignments) == expected


# ----------------------------------------------- compile-once / memoization
def test_programs_are_cached_per_interned_formula():
    phi = Forall(Z, S, NotMember(Z, Var("s2", set_of(UR))))
    structurally_equal = Forall(Z, S, NotMember(Z, Var("s2", set_of(UR))))
    assert phi is not structurally_equal
    program = compile_formula(phi)
    assert compile_formula(phi) is program
    assert compile_formula(structurally_equal) is program


def test_notmember_is_compiled_once_not_rebuilt_per_eval(monkeypatch):
    """Regression: the program must never construct formula nodes at
    evaluation time (``NotMember`` compiles to ``MEMBER; NOT``)."""
    phi = Forall(Z, S, NotMember(Z, Var("s2", set_of(UR))))
    assignments = [
        {S: vset([ur(1), ur(2)]), Var("s2", set_of(UR)): vset([ur(3)])},
        {S: vset([ur(1)]), Var("s2", set_of(UR)): vset([ur(1)])},
    ]
    expected = [eval_formula(phi, assignment) for assignment in assignments]
    program = compile_formula(phi)

    def forbid_member(*_args, **_kwargs):
        raise AssertionError("Member node rebuilt at evaluation time")

    monkeypatch.setattr(Member, "__init__", forbid_member)
    assert program.eval_mask(assignments, ValueInterner()) == expected


def test_duplicate_rows_run_once():
    phi = Exists(Z, S, EqUr(Z, U))
    program = compile_formula(phi)
    family = [{U: ur(i % 3), S: vset([ur(k) for k in range(i % 3)])} for i in range(9)]
    expected = [eval_formula(phi, assignment) for assignment in family]
    before = program.rows_run
    assert program.eval_mask(family, ValueInterner()) == expected
    assert program.rows_run - before == 3


# ------------------------------------------------- row explosion / depth
def test_quantifier_over_non_set_bound_raises():
    from repro.errors import EvaluationError

    phi = Forall(Z, Var("not_a_set", UR), Top())
    assignments = [{Var("not_a_set", UR): ur(5)}]
    with pytest.raises(EvaluationError):
        eval_formula(phi, assignments[0])
    with pytest.raises(EvaluationError):
        eval_formula_batch(phi, assignments, ValueInterner())


def test_nested_quantifier_row_explosion():
    """Two nested quantifiers over wide sets: the expanded family is
    |family| × |S| × |S| rows; results must still match the oracle."""
    phi = Forall(Z, S, Exists(W, S, And(EqUr(Z, W), Member(W, S))))
    assignments = [{S: vset([ur(k) for k in range(width)])} for width in range(9)]
    expected = [eval_formula(phi, assignment) for assignment in assignments]
    assert eval_formula_batch(phi, assignments, ValueInterner()) == expected


def _deep_quantifier_chain(depth):
    """``∀z0∈S ∃z1∈S ... EqUr(z_last, u)`` with singleton bounds (no blowup)."""
    z_vars = [Var(f"z{i}", UR) for i in range(depth)]
    body = EqUr(z_vars[-1], U)
    for i in reversed(range(depth)):
        cls = Forall if i % 2 == 0 else Exists
        body = cls(z_vars[i], S, body)
    return body


def test_deep_binder_nesting_agrees_with_oracle():
    deep = _deep_quantifier_chain(320)
    assignments = [{S: vset([ur(7)]), U: ur(7)}, {S: vset([ur(1)]), U: ur(7)}]
    expected = [eval_formula(deep, assignment) for assignment in assignments]
    assert compile_formula(deep).eval_mask(assignments, ValueInterner()) == expected


@settings(deadline=None, max_examples=25)
@given(size=families, data=st.randoms(use_true_random=False))
def test_view_equals_legacy_list_filter(size, data):
    phi = Exists(Z, S, EqUr(Z, U))
    assignments = _random_family(size, data)
    view = satisfying_assignments(phi, assignments)
    legacy = [a for a in assignments if eval_formula(phi, a)]
    assert view == legacy
