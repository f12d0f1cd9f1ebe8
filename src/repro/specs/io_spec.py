"""Input–output Δ0 specifications of NRC expressions (Appendix B).

For an NRC expression ``E(ī)`` the paper uses a Δ0 formula ``Σ_E(ī, o)`` that
holds exactly when ``o = E(ī)``; conjoining such specifications for views and
a query produces the determinacy specification of Corollary 3.  The paper
notes the translation is polynomial for the *composition-free* fragment
(binding unions range over variables); we implement it for that fragment,
slightly generalized to allow term-like sources (projections of in-scope
variables), which is the form produced by :mod:`repro.nrc.flat` and by the
examples.

The translation produces two Δ0 conjuncts for a set-typed expression ``E``:

* *soundness*:   ``∀z ∈ o . μ_E(z)`` — every member of ``o`` is generated by
  ``E`` (``μ_E`` is the membership predicate of ``E``);
* *completeness*: every element generated by ``E`` is a member of ``o``,
  expressed by quantifying over the generators of ``E`` (as in conjunct
  ``C2`` of Example 4.1).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.errors import SpecificationError
from repro.logic.formulas import And, Bottom, Exists, Forall, Formula, Top
from repro.logic.free_vars import FreshNames, substitute
from repro.logic.macros import equivalent, implies, member_hat, negate
from repro.logic.terms import PairTerm, Proj, Term, UnitTerm, Var
from repro.nr.types import SetType
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


def is_composition_free(expr: NRCExpr) -> bool:
    """True iff every binding union in ``expr`` ranges over a variable or a
    projection of a variable (the composition-free fragment of the paper,
    mildly generalized)."""
    if isinstance(expr, (NVar, NUnit, NEmpty)):
        return True
    if isinstance(expr, (NPair, NUnion, NDiff)):
        return is_composition_free(expr.left) and is_composition_free(expr.right)
    if isinstance(expr, (NProj, NSingleton, NGet)):
        return is_composition_free(expr.arg)
    if isinstance(expr, NBigUnion):
        return _term_like(expr.source) is not None and is_composition_free(expr.body)
    raise SpecificationError(f"unknown NRC expression {expr!r}")


def _term_like(expr: NRCExpr, env: Optional[Mapping[NVar, Term]] = None) -> Optional[Term]:
    """Translate a term-like NRC expression (vars, pairs, projections) to a Δ0 term."""
    env = env or {}
    if isinstance(expr, NVar):
        return env.get(expr, Var(expr.name, expr.typ))
    if isinstance(expr, NUnit):
        return UnitTerm()
    if isinstance(expr, NPair):
        left = _term_like(expr.left, env)
        right = _term_like(expr.right, env)
        if left is None or right is None:
            return None
        return PairTerm(left, right)
    if isinstance(expr, NProj):
        inner = _term_like(expr.arg, env)
        return None if inner is None else Proj(expr.index, inner)
    return None


def io_specification(expr: NRCExpr, output: Var, fresh: Optional[FreshNames] = None) -> Formula:
    """The Δ0 input–output specification ``Σ_expr(ī, output)``.

    Free NRC variables of ``expr`` become the input variables of the formula.
    Raises :class:`SpecificationError` when ``expr`` falls outside the
    supported composition-free fragment.
    """
    expr_type = infer_type(expr)
    if output.typ != expr_type:
        raise SpecificationError(
            f"output variable {output} : {output.typ} does not match expression type {expr_type}"
        )
    if fresh is None:
        from repro.nrc.compose import nrc_free_vars

        names = {v.name for v in nrc_free_vars(expr)} | {output.name}
        fresh = FreshNames(names)

    if isinstance(expr_type, SetType):
        member_var = fresh.fresh_var("zio", expr_type.elem)
        soundness = Forall(member_var, output, _membership(expr, member_var, {}, fresh))
        completeness = _completeness(expr, lambda t: member_hat(t, output), {}, fresh)
        return And(soundness, completeness)
    term = _term_like(expr)
    if term is None:
        raise SpecificationError(
            f"non-set expression {expr} is not term-like; cannot produce a Δ0 specification"
        )
    return equivalent(output, term)


def _membership(expr: NRCExpr, member: Var, env: Dict[NVar, Term], fresh: FreshNames) -> Formula:
    """The Δ0 predicate ``μ_expr(member)`` — membership of ``member`` in the value of ``expr``."""
    expr_type = infer_type(expr)
    if not isinstance(expr_type, SetType):
        raise SpecificationError(f"membership predicate of non-set expression {expr}")
    term = _term_like(expr, env)
    if term is not None:
        return member_hat(member, term)
    if isinstance(expr, NEmpty):
        return Bottom()
    if isinstance(expr, NSingleton):
        inner = _term_like(expr.arg, env)
        if inner is None:
            raise SpecificationError(f"singleton argument {expr.arg} is not term-like")
        return equivalent(member, inner)
    if isinstance(expr, NUnion):
        return _or(
            _membership(expr.left, member, env, fresh), _membership(expr.right, member, env, fresh)
        )
    if isinstance(expr, NDiff):
        return And(
            _membership(expr.left, member, env, fresh),
            negate(_membership(expr.right, member, env, fresh)),
        )
    if isinstance(expr, NBigUnion):
        source = _term_like(expr.source, env)
        if source is None:
            raise SpecificationError(f"binding union source {expr.source} is not composition-free")
        bound_var = fresh.fresh_var(expr.var.name, expr.var.typ)
        inner_env = dict(env)
        inner_env[expr.var] = bound_var
        return Exists(bound_var, source, _membership(expr.body, member, inner_env, fresh))
    raise SpecificationError(f"unsupported expression {expr} in the composition-free translation")


def _or(left: Formula, right: Formula) -> Formula:
    from repro.logic.formulas import Or

    return Or(left, right)


def _completeness(
    expr: NRCExpr,
    consumer: Callable[[Term], Formula],
    env: Dict[NVar, Term],
    fresh: FreshNames,
) -> Formula:
    """``∀ elements z generated by expr . consumer(z)`` expressed over the generators."""
    term = _term_like(expr, env)
    if term is not None:
        typ = infer_type(expr)
        element = fresh.fresh_var("zg", typ.elem)  # type: ignore[union-attr]
        return Forall(element, term, consumer(element))
    if isinstance(expr, NEmpty):
        return Top()
    if isinstance(expr, NSingleton):
        inner = _term_like(expr.arg, env)
        if inner is None:
            raise SpecificationError(f"singleton argument {expr.arg} is not term-like")
        return consumer(inner)
    if isinstance(expr, NUnion):
        return And(
            _completeness(expr.left, consumer, env, fresh),
            _completeness(expr.right, consumer, env, fresh),
        )
    if isinstance(expr, NDiff):
        def guarded(element: Term) -> Formula:
            not_in_right = negate(_membership_term(expr.right, element, env, fresh))
            return implies(not_in_right, consumer(element))

        return _completeness(expr.left, guarded, env, fresh)
    if isinstance(expr, NBigUnion):
        source = _term_like(expr.source, env)
        if source is None:
            raise SpecificationError(f"binding union source {expr.source} is not composition-free")
        bound_var = fresh.fresh_var(expr.var.name, expr.var.typ)
        inner_env = dict(env)
        inner_env[expr.var] = bound_var
        return Forall(bound_var, source, _completeness(expr.body, consumer, inner_env, fresh))
    raise SpecificationError(f"unsupported expression {expr} in the composition-free translation")


def _membership_term(expr: NRCExpr, element: Term, env: Dict[NVar, Term], fresh: FreshNames) -> Formula:
    """``μ_expr(element)`` for an arbitrary term ``element`` (not only variables)."""
    expr_type = infer_type(expr)
    if not isinstance(expr_type, SetType):
        raise SpecificationError(f"membership predicate of non-set expression {expr}")
    placeholder = fresh.fresh_var("zm", expr_type.elem)
    formula = _membership(expr, placeholder, env, fresh)
    return substitute(formula, placeholder, element)
