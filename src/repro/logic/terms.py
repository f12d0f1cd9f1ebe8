"""Terms of the Δ0 logic.

Terms are built from typed variables using tupling and projections
(Section 3)::

    t, u ::= x | () | <t, u> | π1(t) | π2(t)

Each variable carries its type, so terms are intrinsically typed and
``term_type`` never needs an environment.

Terms implement the :class:`repro.core.Node` protocol; all traversals
(variables, sizes, typing, normalization) run on the shared core engine and
are cached per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.core import node as core
from repro.errors import TypeMismatchError
from repro.nr.types import ProdType, Type, UNIT


@dataclass(frozen=True, eq=False)
class Term(core.Node):
    """Base class of Δ0 terms."""


@dataclass(frozen=True, eq=False)
class Var(Term):
    """A typed variable."""

    name: str
    typ: Type

    is_variable = True
    children = core.leaf_children

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class UnitTerm(Term):
    """The unit term ``()``."""

    children = core.leaf_children

    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True, eq=False)
class PairTerm(Term):
    """A pair term ``<left, right>``."""

    left: Term
    right: Term

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Tuple[Term, ...]) -> "PairTerm":
        return PairTerm(children[0], children[1])

    def __str__(self) -> str:
        return f"<{self.left}, {self.right}>"


@dataclass(frozen=True, eq=False)
class Proj(Term):
    """A projection ``π_index(arg)`` with ``index`` in {1, 2}."""

    index: int
    arg: Term

    def __post_init__(self) -> None:
        if self.index not in (1, 2):
            raise TypeMismatchError(f"projection index must be 1 or 2, got {self.index}")

    def children(self) -> Tuple[Term, ...]:
        return (self.arg,)

    def rebuild(self, children: Tuple[Term, ...]) -> "Proj":
        return Proj(self.index, children[0])

    def __str__(self) -> str:
        return f"pi{self.index}({self.arg})"


core.install_str_cache(PairTerm, Proj)


def proj1(term: Term) -> Proj:
    """Shorthand for ``π1(term)``."""
    return Proj(1, term)


def proj2(term: Term) -> Proj:
    """Shorthand for ``π2(term)``."""
    return Proj(2, term)


def _type_combine(term: Term, child_types: Tuple[Type, ...]) -> Type:
    if isinstance(term, Var):
        return term.typ
    if isinstance(term, UnitTerm):
        return UNIT
    if isinstance(term, PairTerm):
        return ProdType(child_types[0], child_types[1])
    if isinstance(term, Proj):
        inner = child_types[0]
        if not isinstance(inner, ProdType):
            raise TypeMismatchError(f"projection of non-product term {term.arg} : {inner}")
        return inner.left if term.index == 1 else inner.right
    raise TypeMismatchError(f"unknown term {term!r}")


def term_type(term: Term) -> Type:
    """The type of a term (raises ``TypeMismatchError`` if ill-typed).

    Memoized per node on the shared core caches.
    """
    return core.cached_fold(term, "_typ", _type_combine)


def term_vars(term: Term) -> FrozenSet[Var]:
    """The set of variables occurring in ``term`` (cached per node)."""
    return core.free_vars(term)


def term_size(term: Term) -> int:
    """Number of constructors in ``term`` (cached per node)."""
    return core.node_size(term)


def _beta_step(term: Term) -> Term:
    if isinstance(term, Proj) and isinstance(term.arg, PairTerm):
        return term.arg.left if term.index == 1 else term.arg.right
    return term


def beta_normalize_term(term: Term) -> Term:
    """Simplify projections applied to explicit pairs: ``πi(<t1,t2>) → ti``."""
    return core.transform_bottom_up(term, _beta_step)
