"""Semantics of Δ0 formulas over nested relational values.

An :class:`Assignment` maps variables to values; ``eval_formula`` evaluates an
(extended) Δ0 formula under an assignment.  Because values are extensional,
this is the "nested relation" semantics (|=nested) of the paper.  The
non-extensional ("every model") semantics lives in
:mod:`repro.logic.general_models`.

Whole families go through the batched path: :func:`eval_formula_batch` runs
the formula *compiler* (:mod:`repro.logic.compile`) over a **column** of
assignments at once on the interned-id substrate of :mod:`repro.nr.columns`
(equality and membership become integer comparisons and binary searches; a
quantifier expands each row into one row per member of its bound;
``And``/``Or`` short-circuit through selection masks, matching
:func:`eval_formula`'s row-by-row laziness), and
:func:`satisfying_assignments` filters a family with it.  The batched path
requires **well-typed** formulas (as enforced by
:func:`repro.logic.typecheck.check_formula`); :func:`eval_formula` is its
differential oracle (``tests/test_formula_compile.py``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import EvaluationError
from repro.logic.compile import compile_formula
from repro.logic.formulas import (
    And,
    Bottom,
    EqUr,
    Exists,
    Forall,
    Formula,
    Member,
    NeqUr,
    NotMember,
    Or,
    Top,
)
from repro.logic.terms import PairTerm, Proj, Term, UnitTerm, Var
from repro.nr.columns import ValueInterner, shared_interner
from repro.nr.values import PairValue, SetValue, UnitValue, Value

#: A variable assignment.
Assignment = Mapping[Var, Value]


def eval_term(term: Term, env: Assignment) -> Value:
    """Evaluate a Δ0 term under an assignment."""
    if isinstance(term, Var):
        try:
            return env[term]
        except KeyError as exc:
            raise EvaluationError(f"unbound variable {term} : {term.typ}") from exc
    if isinstance(term, UnitTerm):
        return UnitValue()
    if isinstance(term, PairTerm):
        return PairValue(eval_term(term.left, env), eval_term(term.right, env))
    if isinstance(term, Proj):
        value = eval_term(term.arg, env)
        if not isinstance(value, PairValue):
            raise EvaluationError(f"projection of non-pair value {value}")
        return value.first if term.index == 1 else value.second
    raise EvaluationError(f"unknown term {term!r}")


def eval_formula(formula: Formula, env: Assignment) -> bool:
    """Evaluate an (extended) Δ0 formula under an assignment."""
    if isinstance(formula, EqUr):
        return eval_term(formula.left, env) == eval_term(formula.right, env)
    if isinstance(formula, NeqUr):
        return eval_term(formula.left, env) != eval_term(formula.right, env)
    if isinstance(formula, Member):
        collection = eval_term(formula.collection, env)
        if not isinstance(collection, SetValue):
            raise EvaluationError(f"membership in non-set value {collection}")
        return eval_term(formula.elem, env) in collection.elements
    if isinstance(formula, NotMember):
        return not eval_formula(Member(formula.elem, formula.collection), env)
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, And):
        return eval_formula(formula.left, env) and eval_formula(formula.right, env)
    if isinstance(formula, Or):
        return eval_formula(formula.left, env) or eval_formula(formula.right, env)
    if isinstance(formula, (Forall, Exists)):
        bound = eval_term(formula.bound, env)
        if not isinstance(bound, SetValue):
            raise EvaluationError(f"quantifier bound evaluated to non-set {bound}")
        extended: Dict[Var, Value] = dict(env)
        results = []
        for element in bound.elements:
            extended[formula.var] = element
            results.append(eval_formula(formula.body, extended))
        if isinstance(formula, Forall):
            return all(results)
        return any(results)
    raise EvaluationError(f"unknown formula {formula!r}")


def models(env: Assignment, *formulas: Formula) -> bool:
    """True iff the assignment satisfies every formula."""
    return all(eval_formula(formula, env) for formula in formulas)


# =====================================================================
# Batched (columnar) evaluation over assignment families
# =====================================================================


def eval_formula_batch(
    formula: Formula,
    assignments: Sequence[Assignment],
    interner: Optional[ValueInterner] = None,
) -> List[bool]:
    """Evaluate a **well-typed** Δ0 formula over a family of assignments.

    Returns one Boolean per assignment, in order; agrees with mapping
    :func:`eval_formula` over the family (the per-assignment evaluator is the
    differential oracle).  The formula is compiled once to a column program
    (cached on the hash-consed node — see :mod:`repro.logic.compile`);
    quantifiers expand the family by one row per (assignment, bound element)
    and reduce back per quantifier, and duplicate assignment rows are
    evaluated once.
    """
    assignments = list(assignments)
    if interner is None:
        interner = shared_interner()
    return compile_formula(formula).eval_mask(assignments, interner)


def satisfying_assignments(
    formula: Formula,
    assignments: Sequence[Assignment],
    interner: Optional[ValueInterner] = None,
) -> List[Assignment]:
    """The assignments of the family that satisfy ``formula``, in order."""
    assignments = list(assignments)
    mask = eval_formula_batch(formula, assignments, interner)
    return [assignment for assignment, ok in zip(assignments, mask) if ok]
