"""Free variables, substitution and fresh-name generation for Δ0 syntax.

Substitution is capture-avoiding: bound variables are renamed (with fresh
names) whenever a substituted term would otherwise be captured.

All walkers here delegate to the shared core engine
(:mod:`repro.core`): free variables are cached per node, and substitution
short-circuits subtrees whose free variables are disjoint from the mapping's
domain (returning the identical object).
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Mapping, Set

from repro.core import node as core
from repro.core import subst as core_subst
from repro.logic.formulas import And, Exists, Forall, Formula, Or
from repro.logic.terms import Term, Var, beta_step
from repro.nr.types import Type


def free_vars_term(term: Term) -> FrozenSet[Var]:
    """Free variables of a term (all of its variables)."""
    return core.free_vars(term)


def free_vars(formula: Formula) -> FrozenSet[Var]:
    """Free variables of an (extended) Δ0 formula (cached per node)."""
    return core.free_vars(formula)


class FreshNames:
    """Deterministic fresh-name generator avoiding a growing set of names."""

    def __init__(self, avoid: Iterable[str] = ()) -> None:
        self._avoid: Set[str] = set(avoid)

    def reserve(self, names: Iterable[str]) -> None:
        self._avoid.update(names)

    def fresh(self, base: str) -> str:
        """A name based on ``base`` not seen before; the result is reserved."""
        if base not in self._avoid:
            self._avoid.add(base)
            return base
        for i in itertools.count(1):
            candidate = f"{base}_{i}"
            if candidate not in self._avoid:
                self._avoid.add(candidate)
                return candidate
        raise RuntimeError("unreachable")

    def fresh_var(self, base: str, typ: Type) -> Var:
        return Var(self.fresh(base), typ)


def fresh_var(base: str, typ: Type, avoid: Iterable[Var]) -> Var:
    """A variable named after ``base`` whose name differs from all in ``avoid``."""
    return Var(core_subst.fresh_name(base, {v.name for v in avoid}), typ)


def substitute_term(term: Term, mapping: Mapping[Var, Term]) -> Term:
    """Apply a simultaneous variable → term substitution inside a term."""
    return core_subst.substitute(term, mapping)


def substitute_many(formula: Formula, mapping: Mapping[Var, Term]) -> Formula:
    """Capture-avoiding simultaneous substitution in an (extended) Δ0 formula."""
    return core_subst.substitute(formula, mapping)


def substitute(formula: Formula, var: Var, term: Term) -> Formula:
    """Capture-avoiding substitution of ``term`` for ``var`` in ``formula``."""
    return core_subst.substitute(formula, {var: term})


def rename_bound(formula: Formula, names: FreshNames) -> Formula:
    """Alpha-rename every bound variable of ``formula`` to a globally fresh name."""
    if isinstance(formula, (Forall, Exists)):
        constructor = Forall if isinstance(formula, Forall) else Exists
        fresh = names.fresh_var(formula.var.name, formula.var.typ)
        body = substitute(formula.body, formula.var, fresh)
        return constructor(fresh, formula.bound, rename_bound(body, names))
    if isinstance(formula, And):
        return And(rename_bound(formula.left, names), rename_bound(formula.right, names))
    if isinstance(formula, Or):
        return Or(rename_bound(formula.left, names), rename_bound(formula.right, names))
    return formula


def replace_term_in_term(term: Term, old: Term, new: Term) -> Term:
    """Replace every occurrence of the subterm ``old`` in ``term`` by ``new``."""
    return core_subst.replace_subtree(term, old, new)


def replace_term(formula: Formula, old: Term, new: Term) -> Formula:
    """Replace every occurrence of the term ``old`` in ``formula`` by ``new``.

    This is the syntactic replacement used by the congruence rules
    (Repl / ≠ / ×β / ×η); it does not rename binders, so callers must ensure
    ``new`` is not captured (the calculus only replaces by fresh variables or
    equal-sorted terms over the same free variables).
    """
    return core_subst.replace_subtree(formula, old, new)


def beta_normalize_formula(formula: Formula) -> Formula:
    """Normalize every ``πi(<t1,t2>)`` redex in the terms of ``formula``."""
    return core.transform_bottom_up(formula, beta_step)
