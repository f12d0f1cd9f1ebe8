"""Differential + conformance suite for the Δ0 formula compiler.

Three layers:

* **Hypothesis differential tests** — random well-typed Δ0 formulas × random
  assignment families, asserting the generated-source backend, the
  structured-program interpreter and the legacy per-node batcher all agree
  with the per-assignment ``eval_formula`` oracle (including unbound-variable
  lazy semantics and empty-family/empty-set edge cases).

* **Conformance registry** — one parametrized enumeration of every
  (evaluator, consumer) pair.  The evaluator axis is
  ``semantics.BATCH_EVALUATORS``; an introspection test asserts every
  ``eval_formula_batch*`` function in the module is registered, so a new
  backend that is not wired into the differential tests fails loudly here.

* **Regression/edge coverage** — ``NotMember`` compile-once memoization (the
  per-node batcher rebuilt a ``Member`` node per call), quantifier
  row-explosion on non-set bounds, and deeply nested ``Forall``/``Exists``
  chains exercising the recursion-limit interpreter fallback (mirroring
  ``tests/test_deep_expressions.py``).
"""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from test_core_property import _values_of
from test_verification import FORMULA_VARS, S, U, families, well_typed_formulas

from repro.logic import semantics as semantics_module
from repro.logic.compile import (
    BACKENDS,
    MAX_CODEGEN_DEPTH,
    compile_formula,
    eval_formula_columns,
)
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
from repro.logic.semantics import (
    BATCH_EVALUATORS,
    SatisfyingView,
    eval_formula,
    eval_formula_batch,
    satisfying_assignments,
)
from repro.logic.terms import Var
from repro.nr.columns import ValueInterner
from repro.nr.types import UR, set_of
from repro.nr.values import ur, vset

EVALUATOR_NAMES = sorted(BATCH_EVALUATORS)

Z = Var("z", UR)
W = Var("w", UR)


def _random_family(size, rnd):
    assignments = [{var: _values_of(var.typ, rnd) for var in FORMULA_VARS} for _ in range(size)]
    if len(assignments) >= 2:
        assignments[-1] = assignments[0]  # duplicate-row edge case
    return assignments


# ------------------------------------------------------------- differential
@pytest.mark.parametrize("backend", EVALUATOR_NAMES)
@given(formula=well_typed_formulas, size=families, data=st.randoms(use_true_random=False))
def test_every_backend_agrees_with_per_assignment_oracle(backend, formula, size, data):
    assignments = _random_family(size, data)
    expected = [eval_formula(formula, assignment) for assignment in assignments]
    assert BATCH_EVALUATORS[backend](formula, assignments) == expected


@given(formula=well_typed_formulas, size=families, data=st.randoms(use_true_random=False))
def test_codegen_and_interp_agree_on_private_interner(formula, size, data):
    assignments = _random_family(size, data)
    expected = [eval_formula(formula, assignment) for assignment in assignments]
    interner = ValueInterner()
    assert eval_formula_batch(formula, assignments, interner, backend="codegen") == expected
    assert eval_formula_batch(formula, assignments, interner, backend="interp") == expected


@given(formula=well_typed_formulas, size=families, data=st.randoms(use_true_random=False))
def test_satisfying_view_matches_mask(formula, size, data):
    assignments = _random_family(size, data)
    mask = eval_formula_batch(formula, assignments)
    view = satisfying_assignments(formula, assignments)
    assert view.mask == mask
    assert view == [a for a, ok in zip(assignments, mask) if ok]
    assert len(view) == sum(mask)
    assert view.total == len(assignments)


@pytest.mark.parametrize("backend", EVALUATOR_NAMES)
def test_empty_family(backend):
    assert BATCH_EVALUATORS[backend](Top(), []) == []
    assert BATCH_EVALUATORS[backend](Exists(Z, S, EqUr(Z, U)), []) == []


@pytest.mark.parametrize("backend", EVALUATOR_NAMES)
def test_empty_sets_in_every_position(backend):
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
    assert BATCH_EVALUATORS[backend](phi, assignments) == expected


@pytest.mark.parametrize("backend", EVALUATOR_NAMES)
def test_lazy_unbound_is_per_row(backend):
    """A var missing only in rows whose quantifier bound is empty must not raise."""
    phi = Exists(Z, S, EqUr(Z, U))
    assignments = [{S: vset([ur(1)]), U: ur(1)}, {S: vset([])}]
    expected = [eval_formula(phi, assignment) for assignment in assignments]
    assert BATCH_EVALUATORS[backend](phi, assignments) == expected


@pytest.mark.parametrize("backend", ["codegen", "interp"])
def test_short_circuit_matches_per_row_connective_laziness(backend):
    """The compiled backends skip the right operand exactly like eval_formula.

    ``missing`` is unbound in every row, but ``And``'s left operand is false
    and ``Or``'s left operand is true everywhere, so neither per-row
    evaluation nor the mask-selected right operand ever demands it.  (The
    legacy per-node batcher evaluates both sides and raises here — its
    documented difference.)
    """
    missing = Var("missing", UR)
    assignments = [{U: ur(1), S: vset([ur(1)])}]
    for phi in (And(Bottom(), Member(missing, S)), Or(Top(), Member(missing, S))):
        expected = [eval_formula(phi, assignment) for assignment in assignments]
        assert BATCH_EVALUATORS[backend](phi, assignments) == expected


# ------------------------------------------------- conformance registry
def test_registry_covers_every_batch_evaluator_in_module():
    """Adding an ``eval_formula_batch*`` backend without registering it fails."""
    module_backends = {
        name
        for name, value in vars(semantics_module).items()
        if callable(value) and name.startswith("eval_formula_batch")
    }
    registered = {fn.__name__ for fn in BATCH_EVALUATORS.values()} | {
        f"eval_formula_batch_{name}" for name in BATCH_EVALUATORS
    } | {"eval_formula_batch"}
    unregistered = module_backends - registered
    assert not unregistered, (
        f"batch evaluators {sorted(unregistered)} are not wired into "
        "semantics.BATCH_EVALUATORS (and therefore not differentially tested)"
    )
    # The compiler's backend names must all be reachable through the registry.
    assert set(BACKENDS) <= set(BATCH_EVALUATORS)


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

#: The full (evaluator, consumer) conformance matrix: every batch evaluator
#: must agree with the per-assignment oracle (tested above), and every
#: batched consumer must agree with its per-environment oracle — enumerated
#: in one place so a new backend or consumer must show up here.
CONFORMANCE_PAIRS = [
    ("evaluator", name) for name in EVALUATOR_NAMES
] + [("consumer", name) for name in sorted(BATCH_CONSUMERS)]


@pytest.mark.parametrize(("kind", "name"), CONFORMANCE_PAIRS)
def test_conformance_pair(kind, name):
    if kind == "evaluator":
        phi = Forall(Z, S, Or(EqUr(Z, U), Exists(W, S, EqUr(Z, W))))
        assignments = [
            {U: ur(i % 3), S: vset([ur(k) for k in range(i % 4)])} for i in range(12)
        ]
        expected = [eval_formula(phi, assignment) for assignment in assignments]
        assert BATCH_EVALUATORS[name](phi, assignments) == expected
    else:
        assert BATCH_CONSUMERS[name](True) == BATCH_CONSUMERS[name](False)


# ----------------------------------------------- compile-once / memoization
def test_programs_are_cached_per_interned_formula():
    phi = Forall(Z, S, NotMember(Z, Var("s2", set_of(UR))))
    structurally_equal = Forall(Z, S, NotMember(Z, Var("s2", set_of(UR))))
    assert phi is not structurally_equal
    program = compile_formula(phi)
    assert compile_formula(phi) is program
    assert compile_formula(structurally_equal) is program


def test_notmember_is_compiled_once_not_rebuilt_per_eval(monkeypatch):
    """Regression: the per-node batcher rebuilt ``Member`` under ``NotMember``
    on every call; the compiled backends must never construct formula nodes
    at evaluation time."""
    phi = Forall(Z, S, NotMember(Z, Var("s2", set_of(UR))))
    assignments = [
        {S: vset([ur(1), ur(2)]), Var("s2", set_of(UR)): vset([ur(3)])},
        {S: vset([ur(1)]), Var("s2", set_of(UR)): vset([ur(1)])},
    ]
    expected = [eval_formula(phi, assignment) for assignment in assignments]
    codegen = compile_formula(phi, backend="codegen")
    interp = compile_formula(phi, backend="interp")

    def forbid_member(*_args, **_kwargs):
        raise AssertionError("Member node rebuilt at evaluation time")

    monkeypatch.setattr(Member, "__init__", forbid_member)
    interner = ValueInterner()
    assert codegen.eval_mask(assignments, interner) == expected
    assert interp.eval_mask(assignments, interner) == expected
    # The legacy per-node batcher still exhibits the rebuild (documented).
    with pytest.raises(AssertionError):
        BATCH_EVALUATORS["nodes"](phi, assignments, ValueInterner())


def test_row_memo_skips_previously_evaluated_rows():
    phi = Exists(Z, S, EqUr(Z, U))
    program = compile_formula(phi)
    interner = ValueInterner()
    family = [{U: ur(i % 3), S: vset([ur(k) for k in range(i % 3)])} for i in range(9)]
    first = program.eval_mask(family, interner)
    hits_before = program.stats["row_hits"]
    runs_before = program.stats["runs"]
    second = program.eval_mask(family, interner)
    assert second == first
    assert program.stats["row_hits"] - hits_before == len(family)
    assert program.stats["runs"] == runs_before  # nothing re-evaluated
    # A fresh interner invalidates the memo (ids are per-interner).
    assert program.eval_mask(family, ValueInterner()) == first


# ------------------------------------------------- row explosion / depth
@pytest.mark.parametrize("backend", EVALUATOR_NAMES)
def test_quantifier_over_non_set_bound_raises_in_every_backend(backend):
    from repro.errors import EvaluationError

    phi = Forall(Z, Var("not_a_set", UR), Top())
    assignments = [{Var("not_a_set", UR): ur(5)}]
    with pytest.raises(EvaluationError):
        eval_formula(phi, assignments[0])
    with pytest.raises(EvaluationError):
        BATCH_EVALUATORS[backend](phi, assignments, ValueInterner())


@pytest.mark.parametrize("backend", EVALUATOR_NAMES)
def test_nested_quantifier_row_explosion(backend):
    """Two nested quantifiers over wide sets: the expanded family is
    |family| × |S| × |S| rows; results must still match the oracle."""
    phi = Forall(Z, S, Exists(W, S, And(EqUr(Z, W), Member(W, S))))
    assignments = [{S: vset([ur(k) for k in range(width)])} for width in range(9)]
    expected = [eval_formula(phi, assignment) for assignment in assignments]
    assert BATCH_EVALUATORS[backend](phi, assignments, ValueInterner()) == expected


def _deep_quantifier_chain(depth):
    """``∀z0∈S ∃z1∈S ... EqUr(z_last, u)`` with singleton bounds (no blowup)."""
    z_vars = [Var(f"z{i}", UR) for i in range(depth)]
    body = EqUr(z_vars[-1], U)
    for i in reversed(range(depth)):
        cls = Forall if i % 2 == 0 else Exists
        body = cls(z_vars[i], S, body)
    return body


def test_deep_binder_nesting_falls_back_to_interpreter():
    deep = _deep_quantifier_chain(MAX_CODEGEN_DEPTH * 8)
    program = compile_formula(deep)
    assert program.backend == "interp"
    assignments = [{S: vset([ur(7)]), U: ur(7)}, {S: vset([ur(1)]), U: ur(7)}]
    expected = [eval_formula(deep, assignment) for assignment in assignments]
    assert program.eval_mask(assignments, ValueInterner()) == expected


def test_moderate_nesting_stays_on_codegen_and_agrees():
    moderate = _deep_quantifier_chain(MAX_CODEGEN_DEPTH // 2)
    program = compile_formula(moderate)
    assert program.backend == "codegen"
    assignments = [{S: vset([ur(7)]), U: ur(7)}, {S: vset([ur(1)]), U: ur(7)}]
    expected = [eval_formula(moderate, assignment) for assignment in assignments]
    assert program.eval_mask(assignments, ValueInterner()) == expected


# ------------------------------------------------------- id-level entry
def test_eval_formula_columns_over_interned_ids():
    interner = ValueInterner()
    phi = And(Member(U, S), EqUr(U, U))
    values_u = [ur(0), ur(1), ur(2)]
    values_s = [vset([ur(0)]), vset([]), vset([ur(2), ur(3)])]
    columns = {
        U: [interner.intern(v) for v in values_u],
        S: [interner.intern(v) for v in values_s],
    }
    expected = [
        eval_formula(phi, {U: u, S: s}) for u, s in zip(values_u, values_s)
    ]
    assert eval_formula_columns(phi, columns, 3, interner) == expected


# ------------------------------------------------------- view ergonomics
def test_satisfying_view_sequence_protocol():
    phi = Member(U, S)
    family = [
        {U: ur(0), S: vset([ur(0)])},
        {U: ur(1), S: vset([])},
        {U: ur(2), S: vset([ur(2)])},
    ]
    view = satisfying_assignments(phi, family, ValueInterner())
    assert isinstance(view, SatisfyingView)
    assert view.mask == [True, False, True]
    assert view.indices == [0, 2]
    assert len(view) == 2 and view.total == 3
    assert view[0] is family[0] and view[1] is family[2]  # zero-copy
    assert view[0:2] == [family[0], family[2]]
    assert list(view) == [family[0], family[2]]
    assert view == [family[0], family[2]]
    assert "2/3" in repr(view)


@settings(deadline=None, max_examples=25)
@given(size=families, data=st.randoms(use_true_random=False))
def test_view_equals_legacy_list_filter(size, data):
    phi = Exists(Z, S, EqUr(Z, U))
    assignments = _random_family(size, data)
    view = satisfying_assignments(phi, assignments)
    legacy = [a for a in assignments if eval_formula(phi, a)]
    assert view == legacy
