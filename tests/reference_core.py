"""Frozen seed-semantics reference implementations.

These are byte-for-byte ports of the *seed* recursive NRC evaluator and
simplifier (commit 684c224), kept as the test oracle: the executable
specification the optimized core is differentially tested against
(``tests/test_core_property.py``).  The Δ0 evaluator below is the
``eval_formula``/``eval_term`` pair as it stood before the production one
learned to short-circuit quantifiers; it evaluates every quantifier instance
and is the oracle of ``tests/test_formula_compile.py`` and
``tests/test_verification.py``.

Do **not** optimize this module: its only job is to stay obviously equal to
the paper's semantics.  Recursive on purpose — the production paths in
:mod:`repro.nrc.eval` / :mod:`repro.nrc.simplify` are the iterative ones.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.errors import EvaluationError, TypeMismatchError
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
from repro.nr.types import SetType
from repro.nr.values import PairValue, SetValue, UnitValue, Value, default_value
from repro.nrc.compose import nrc_free_vars, nrc_substitute
from repro.nrc.expr import (
    NBigUnion,
    NDiff,
    NEmpty,
    NGet,
    NPair,
    NProj,
    NRCExpr,
    NSingleton,
    NUnion,
    NUnit,
    NVar,
)
from repro.nrc.typing import infer_type


def reference_eval_nrc(expr: NRCExpr, env: Mapping[NVar, Value]) -> Value:
    """The seed's recursive evaluator (dict-copy environments)."""
    if isinstance(expr, NVar):
        try:
            return env[expr]
        except KeyError as exc:
            raise EvaluationError(f"unbound NRC variable {expr} : {expr.typ}") from exc
    if isinstance(expr, NUnit):
        return UnitValue()
    if isinstance(expr, NPair):
        return PairValue(reference_eval_nrc(expr.left, env), reference_eval_nrc(expr.right, env))
    if isinstance(expr, NProj):
        value = reference_eval_nrc(expr.arg, env)
        if not isinstance(value, PairValue):
            raise EvaluationError(f"projection of non-pair value {value}")
        return value.first if expr.index == 1 else value.second
    if isinstance(expr, NSingleton):
        return SetValue(frozenset({reference_eval_nrc(expr.arg, env)}))
    if isinstance(expr, NGet):
        value = reference_eval_nrc(expr.arg, env)
        if not isinstance(value, SetValue):
            raise EvaluationError(f"get of non-set value {value}")
        if len(value.elements) == 1:
            return next(iter(value.elements))
        arg_type = infer_type(expr.arg)
        if not isinstance(arg_type, SetType):
            raise EvaluationError(f"get of non-set-typed expression {expr.arg}")
        return default_value(arg_type.elem)
    if isinstance(expr, NBigUnion):
        source = reference_eval_nrc(expr.source, env)
        if not isinstance(source, SetValue):
            raise EvaluationError(f"union-bind over non-set value {source}")
        accumulated = set()
        extended: Dict[NVar, Value] = dict(env)
        for element in source.elements:
            extended[expr.var] = element
            body_value = reference_eval_nrc(expr.body, extended)
            if not isinstance(body_value, SetValue):
                raise EvaluationError(f"union-bind body evaluated to non-set {body_value}")
            accumulated.update(body_value.elements)
        return SetValue(frozenset(accumulated))
    if isinstance(expr, NEmpty):
        return SetValue(frozenset())
    if isinstance(expr, NUnion):
        left = reference_eval_nrc(expr.left, env)
        right = reference_eval_nrc(expr.right, env)
        if not isinstance(left, SetValue) or not isinstance(right, SetValue):
            raise EvaluationError("union of non-set values")
        return SetValue(left.elements | right.elements)
    if isinstance(expr, NDiff):
        left = reference_eval_nrc(expr.left, env)
        right = reference_eval_nrc(expr.right, env)
        if not isinstance(left, SetValue) or not isinstance(right, SetValue):
            raise EvaluationError("difference of non-set values")
        return SetValue(left.elements - right.elements)
    raise EvaluationError(f"unknown NRC expression {expr!r}")


def reference_simplify(expr: NRCExpr, max_rounds: int = 50) -> NRCExpr:
    """The seed's fixpoint simplifier (deep-equality fixpoint checks)."""
    current = expr
    for _ in range(max_rounds):
        simplified = _simplify_once(current)
        if simplified == current:
            return current
        current = simplified
    return current


def _simplify_once(expr: NRCExpr) -> NRCExpr:
    expr = _map_children(expr, _simplify_once)
    return _rewrite(expr)


def _map_children(expr: NRCExpr, fn) -> NRCExpr:
    if isinstance(expr, (NVar, NUnit, NEmpty)):
        return expr
    if isinstance(expr, NPair):
        return NPair(fn(expr.left), fn(expr.right))
    if isinstance(expr, NUnion):
        return NUnion(fn(expr.left), fn(expr.right))
    if isinstance(expr, NDiff):
        return NDiff(fn(expr.left), fn(expr.right))
    if isinstance(expr, NProj):
        return NProj(expr.index, fn(expr.arg))
    if isinstance(expr, NSingleton):
        return NSingleton(fn(expr.arg))
    if isinstance(expr, NGet):
        return NGet(fn(expr.arg))
    if isinstance(expr, NBigUnion):
        return NBigUnion(fn(expr.body), expr.var, fn(expr.source))
    raise TypeMismatchError(f"unknown NRC expression {expr!r}")


def _empty_of(expr: NRCExpr) -> NEmpty:
    typ = infer_type(expr)
    if not isinstance(typ, SetType):
        raise TypeMismatchError(f"expected a set-typed expression, got {typ}")
    return NEmpty(typ.elem)


def _rewrite(expr: NRCExpr) -> NRCExpr:
    if isinstance(expr, NProj) and isinstance(expr.arg, NPair):
        return expr.arg.left if expr.index == 1 else expr.arg.right
    if isinstance(expr, NGet) and isinstance(expr.arg, NSingleton):
        return expr.arg.arg
    if isinstance(expr, NUnion):
        if isinstance(expr.left, NEmpty):
            return expr.right
        if isinstance(expr.right, NEmpty):
            return expr.left
        if expr.left == expr.right:
            return expr.left
    if isinstance(expr, NDiff):
        if isinstance(expr.left, NEmpty):
            return expr.left
        if isinstance(expr.right, NEmpty):
            return expr.left
        if expr.left == expr.right:
            return _empty_of(expr.left)
    if isinstance(expr, NBigUnion):
        if isinstance(expr.source, NEmpty):
            return _empty_of(expr)
        if isinstance(expr.body, NEmpty):
            return NEmpty(expr.body.elem_type)
        if isinstance(expr.source, NSingleton):
            return nrc_substitute(expr.body, {expr.var: expr.source.arg})
        if isinstance(expr.body, NSingleton) and expr.body.arg == expr.var:
            return expr.source
        if expr.var not in nrc_free_vars(expr.body) and isinstance(expr.source, NSingleton):
            return expr.body
    return expr


# ------------------------------------------------------------------ Δ0 formulas
def reference_eval_term(term: Term, env: Mapping[Var, Value]) -> Value:
    """Evaluate a Δ0 term under an assignment."""
    if isinstance(term, Var):
        try:
            return env[term]
        except KeyError as exc:
            raise EvaluationError(f"unbound variable {term} : {term.typ}") from exc
    if isinstance(term, UnitTerm):
        return UnitValue()
    if isinstance(term, PairTerm):
        return PairValue(reference_eval_term(term.left, env), reference_eval_term(term.right, env))
    if isinstance(term, Proj):
        value = reference_eval_term(term.arg, env)
        if not isinstance(value, PairValue):
            raise EvaluationError(f"projection of non-pair value {value}")
        return value.first if term.index == 1 else value.second
    raise EvaluationError(f"unknown term {term!r}")


def reference_eval_formula(formula: Formula, env: Mapping[Var, Value]) -> bool:
    """Evaluate an (extended) Δ0 formula under an assignment."""
    if isinstance(formula, EqUr):
        return reference_eval_term(formula.left, env) == reference_eval_term(formula.right, env)
    if isinstance(formula, NeqUr):
        return reference_eval_term(formula.left, env) != reference_eval_term(formula.right, env)
    if isinstance(formula, Member):
        collection = reference_eval_term(formula.collection, env)
        if not isinstance(collection, SetValue):
            raise EvaluationError(f"membership in non-set value {collection}")
        return reference_eval_term(formula.elem, env) in collection.elements
    if isinstance(formula, NotMember):
        return not reference_eval_formula(Member(formula.elem, formula.collection), env)
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, And):
        return reference_eval_formula(formula.left, env) and reference_eval_formula(formula.right, env)
    if isinstance(formula, Or):
        return reference_eval_formula(formula.left, env) or reference_eval_formula(formula.right, env)
    if isinstance(formula, (Forall, Exists)):
        bound = reference_eval_term(formula.bound, env)
        if not isinstance(bound, SetValue):
            raise EvaluationError(f"quantifier bound evaluated to non-set {bound}")
        extended: Dict[Var, Value] = dict(env)
        results = []
        for element in bound.elements:
            extended[formula.var] = element
            results.append(reference_eval_formula(formula.body, extended))
        if isinstance(formula, Forall):
            return all(results)
        return any(results)
    raise EvaluationError(f"unknown formula {formula!r}")
