"""Semantics of Δ0 formulas over nested relational values.

An :class:`Assignment` maps variables to values; ``eval_formula`` evaluates an
(extended) Δ0 formula under an assignment.  Because values are extensional,
this is the "nested relation" semantics (|=nested) of the paper.  The
non-extensional ("every model") semantics is a test oracle, in
``tests/general_models.py``.

``eval_formula`` is the only Δ0 evaluator.  It is lazy: ``And``/``Or`` stop
at the first deciding operand and ``∀``/``∃`` at the first deciding element
of the bound, so a variable is demanded only where the evaluation reaches it
(an unbound variable under a quantifier over an empty set never raises).
:func:`satisfying_assignments` filters an assignment family through it.

Evaluation recurses once per connective and quantifier.  Parsed
specifications nest at most :data:`repro.specs.lang.MAX_NESTING` brackets
deep, far inside Python's recursion limit.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.errors import EvaluationError
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
from repro.nr.values import PairValue, SetValue, UnitValue, Value

#: A variable assignment.
Assignment = Mapping[Var, Value]

#: Never called.  ``perfbench/perf_layers.py`` wraps this name on every traced
#: benchmark run and fails when it is missing; it goes once that layer table
#: stops patching the program (ROADMAP item 5(a)).
compile_formula = None


def eval_term(term: Term, env: Assignment) -> Value:
    """Evaluate a Δ0 term under an assignment."""
    cls = term.__class__
    if cls is Var:
        try:
            return env[term]
        except KeyError as exc:
            raise EvaluationError(f"unbound variable {term} : {term.typ}") from exc
    if cls is Proj:
        value = eval_term(term.arg, env)
        if value.__class__ is not PairValue:
            raise EvaluationError(f"projection of non-pair value {value}")
        return value.first if term.index == 1 else value.second
    if cls is PairTerm:
        return PairValue(eval_term(term.left, env), eval_term(term.right, env))
    if cls is UnitTerm:
        return UnitValue()
    raise EvaluationError(f"unknown term {term!r}")


def eval_formula(formula: Formula, env: Assignment) -> bool:
    """Evaluate an (extended) Δ0 formula under an assignment, lazily."""
    cls = formula.__class__
    if cls is And:
        return eval_formula(formula.left, env) and eval_formula(formula.right, env)
    if cls is Or:
        return eval_formula(formula.left, env) or eval_formula(formula.right, env)
    if cls is EqUr:
        return eval_term(formula.left, env) == eval_term(formula.right, env)
    if cls is NeqUr:
        return eval_term(formula.left, env) != eval_term(formula.right, env)
    if cls is Member or cls is NotMember:
        collection = eval_term(formula.collection, env)
        if collection.__class__ is not SetValue:
            raise EvaluationError(f"membership in non-set value {collection}")
        return (eval_term(formula.elem, env) in collection.elements) is (cls is Member)
    if cls is Forall or cls is Exists:
        bound = eval_term(formula.bound, env)
        if bound.__class__ is not SetValue:
            raise EvaluationError(f"quantifier bound evaluated to non-set {bound}")
        # ∃ is decided by the first true body, ∀ by the first false one.
        decided = cls is Exists
        if bound.elements:
            extended = dict(env)
            var = formula.var
            body = formula.body
            for element in bound.elements:
                extended[var] = element
                if eval_formula(body, extended) is decided:
                    return decided
        return not decided
    if cls is Top:
        return True
    if cls is Bottom:
        return False
    raise EvaluationError(f"unknown formula {formula!r}")


def satisfying_assignments(formula: Formula, assignments: Sequence[Assignment]) -> List[Assignment]:
    """The assignments of the family that satisfy ``formula``, in order."""
    return [assignment for assignment in assignments if eval_formula(formula, assignment)]
