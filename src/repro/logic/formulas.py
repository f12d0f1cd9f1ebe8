"""Δ0 and extended Δ0 formulas (Section 3 of the paper).

Core Δ0 grammar::

    φ, ψ ::= t =𝔘 t' | t ≠𝔘 t' | ⊤ | ⊥ | φ ∨ ψ | φ ∧ ψ
           | ∀x ∈ t φ(x) | ∃x ∈ t φ(x)

There is **no primitive negation** and **no equality/membership at higher
types**; those are macros (see :mod:`repro.logic.macros`).  *Extended* Δ0
formulas additionally allow membership literals ``t ∈ u`` / ``t ∉ u`` at every
type — these appear in ∈-contexts of sequents.

The focused calculus classifies formulas as *existential-leading* (EL) or
*alternative-leading* (AL); only atoms are both (Section 4).

Formulas implement the :class:`repro.core.Node` protocol.  A formula's
children include the terms it mentions (one walk reaches every node of both
sorts); binder variables are part of the node's shape, not children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core import node as core
from repro.logic.terms import Term, Var


@dataclass(frozen=True, eq=False)
class Formula(core.Node):
    """Base class of (extended) Δ0 formulas."""


@dataclass(frozen=True, eq=False)
class EqUr(Formula):
    """Equality of Ur-elements ``left =𝔘 right``."""

    left: Term
    right: Term

    def children(self) -> Tuple[core.Node, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Tuple[core.Node, ...]) -> "EqUr":
        return EqUr(children[0], children[1])

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True, eq=False)
class NeqUr(Formula):
    """Disequality of Ur-elements ``left ≠𝔘 right``."""

    left: Term
    right: Term

    def children(self) -> Tuple[core.Node, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Tuple[core.Node, ...]) -> "NeqUr":
        return NeqUr(children[0], children[1])

    def __str__(self) -> str:
        return f"{self.left} != {self.right}"


@dataclass(frozen=True, eq=False)
class Top(Formula):
    """The true formula ⊤."""

    children = core.leaf_children

    def __str__(self) -> str:
        return "T"


@dataclass(frozen=True, eq=False)
class Bottom(Formula):
    """The false formula ⊥."""

    children = core.leaf_children

    def __str__(self) -> str:
        return "F"


@dataclass(frozen=True, eq=False)
class And(Formula):
    """Conjunction."""

    left: Formula
    right: Formula

    def children(self) -> Tuple[core.Node, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Tuple[core.Node, ...]) -> "And":
        return And(children[0], children[1])

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True, eq=False)
class Or(Formula):
    """Disjunction."""

    left: Formula
    right: Formula

    def children(self) -> Tuple[core.Node, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Tuple[core.Node, ...]) -> "Or":
        return Or(children[0], children[1])

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True, eq=False)
class Forall(Formula):
    """Bounded universal quantification ``∀ var ∈ bound . body``."""

    var: Var
    bound: Term
    body: Formula

    body_index = 1

    @property
    def binder(self) -> Var:
        return self.var

    def children(self) -> Tuple[core.Node, ...]:
        return (self.bound, self.body)

    def rebuild(self, children: Tuple[core.Node, ...]) -> "Forall":
        return Forall(self.var, children[0], children[1])

    def rebuild_binder(self, var: Var, children: Tuple[core.Node, ...]) -> "Forall":
        return Forall(var, children[0], children[1])

    def __str__(self) -> str:
        return f"(all {self.var} in {self.bound}. {self.body})"


@dataclass(frozen=True, eq=False)
class Exists(Formula):
    """Bounded existential quantification ``∃ var ∈ bound . body``."""

    var: Var
    bound: Term
    body: Formula

    body_index = 1

    @property
    def binder(self) -> Var:
        return self.var

    def children(self) -> Tuple[core.Node, ...]:
        return (self.bound, self.body)

    def rebuild(self, children: Tuple[core.Node, ...]) -> "Exists":
        return Exists(self.var, children[0], children[1])

    def rebuild_binder(self, var: Var, children: Tuple[core.Node, ...]) -> "Exists":
        return Exists(var, children[0], children[1])

    def __str__(self) -> str:
        return f"(ex {self.var} in {self.bound}. {self.body})"


@dataclass(frozen=True, eq=False)
class Member(Formula):
    """A primitive membership literal ``elem ∈ collection`` (extended Δ0 only)."""

    elem: Term
    collection: Term

    def children(self) -> Tuple[core.Node, ...]:
        return (self.elem, self.collection)

    def rebuild(self, children: Tuple[core.Node, ...]) -> "Member":
        return Member(children[0], children[1])

    def __str__(self) -> str:
        return f"{self.elem} in {self.collection}"


@dataclass(frozen=True, eq=False)
class NotMember(Formula):
    """A primitive non-membership literal ``elem ∉ collection`` (extended Δ0)."""

    elem: Term
    collection: Term

    def children(self) -> Tuple[core.Node, ...]:
        return (self.elem, self.collection)

    def rebuild(self, children: Tuple[core.Node, ...]) -> "NotMember":
        return NotMember(children[0], children[1])

    def __str__(self) -> str:
        return f"{self.elem} notin {self.collection}"


core.install_str_cache(EqUr, NeqUr, And, Or, Forall, Exists, Member, NotMember)


def conj(formulas: Sequence[Formula]) -> Formula:
    """Right-nested conjunction of a sequence (⊤ when empty)."""
    formulas = list(formulas)
    if not formulas:
        return Top()
    result = formulas[-1]
    for formula in reversed(formulas[:-1]):
        result = And(formula, result)
    return result


def disj(formulas: Sequence[Formula]) -> Formula:
    """Right-nested disjunction of a sequence (⊥ when empty)."""
    formulas = list(formulas)
    if not formulas:
        return Bottom()
    result = formulas[-1]
    for formula in reversed(formulas[:-1]):
        result = Or(formula, result)
    return result


def is_delta0(formula: Formula) -> bool:
    """True iff ``formula`` is core Δ0 (contains no membership literals)."""
    return core.cached_fold(formula, "_delta0", _delta0_combine)


def _delta0_combine(node: core.Node, child_values: Tuple[bool, ...]) -> bool:
    if isinstance(node, (Member, NotMember)):
        return False
    return all(child_values)


def is_atomic(formula: Formula) -> bool:
    """True for Ur-equalities and disequalities (the atoms of the Δ0 grammar)."""
    return isinstance(formula, (EqUr, NeqUr))


def is_existential_leading(formula: Formula) -> bool:
    """EL formulas: atoms and ∃-formulas (Section 4)."""
    return isinstance(formula, (EqUr, NeqUr, Exists))


def is_alternative_leading(formula: Formula) -> bool:
    """AL formulas: atoms, ∧, ∨, ⊤, ⊥ and ∀-formulas (Section 4)."""
    return isinstance(formula, (EqUr, NeqUr, And, Or, Top, Bottom, Forall))


def formula_size(formula: Formula) -> int:
    """Number of connectives/atoms in ``formula`` (terms count as 1).

    Cached per node and computed iteratively on the core engine.
    """
    return core.cached_fold(formula, "_fsize", _fsize_combine)


def _fsize_combine(node: core.Node, child_sizes: Tuple[int, ...]) -> int:
    own = 1 if isinstance(node, Formula) else 0
    return own + sum(child_sizes)


def subformulas(formula: Formula) -> Iterable[Formula]:
    """Yield all subformulas of ``formula`` (including itself), pre-order.

    Iterative via the core walk: safe on arbitrarily deep formulas.
    """
    for node in core.walk(formula):
        if isinstance(node, Formula):
            yield node


def strip_exists_prefix(formula: Formula) -> tuple:
    """Split ``∃x1∈b1 ... ∃xn∈bn. ψ`` into ``([(x1,b1),...,(xn,bn)], ψ)``.

    Returns an empty prefix when the formula is not existential-leading.
    """
    prefix: List = []
    current = formula
    while isinstance(current, Exists):
        prefix.append((current.var, current.bound))
        current = current.body
    return prefix, current
