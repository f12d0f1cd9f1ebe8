"""NRC expression syntax (Figure 1 of the paper).

::

    E, E' ::= x | () | <E, E'> | π1(E) | π2(E)          (variables, tupling)
            | {E} | get_T(E) | ⋃{E | x ∈ E'}            (nesting, get, union-bind)
            | ∅_T | E ∪ E' | E \\ E'                     (empty, union, difference)

Expressions are immutable dataclasses; variables carry their types, so type
inference (:mod:`repro.nrc.typing`) needs no environment.

Expressions implement the :class:`repro.core.Node` protocol; sizes and
subexpression walks run iteratively on the shared core engine (deep chains do
not overflow the Python stack) and are cached per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.core import node as core
from repro.errors import TypeMismatchError
from repro.nr.types import Type


@dataclass(frozen=True, eq=False)
class NRCExpr(core.Node):
    """Base class of NRC expressions."""


@dataclass(frozen=True, eq=False)
class NVar(NRCExpr):
    """A typed input (free) variable."""

    name: str
    typ: Type

    is_variable = True
    children = core.leaf_children

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class NUnit(NRCExpr):
    """The unit expression ``()``."""

    children = core.leaf_children

    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True, eq=False)
class NPair(NRCExpr):
    """Pairing ``<left, right>``."""

    left: NRCExpr
    right: NRCExpr

    def children(self) -> Tuple[NRCExpr, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Tuple[NRCExpr, ...]) -> "NPair":
        return NPair(children[0], children[1])

    def __str__(self) -> str:
        return f"<{self.left}, {self.right}>"


@dataclass(frozen=True, eq=False)
class NProj(NRCExpr):
    """Projection ``π_index(arg)`` with index in {1, 2}."""

    index: int
    arg: NRCExpr

    def __post_init__(self) -> None:
        if self.index not in (1, 2):
            raise TypeMismatchError(f"projection index must be 1 or 2, got {self.index}")

    def children(self) -> Tuple[NRCExpr, ...]:
        return (self.arg,)

    def rebuild(self, children: Tuple[NRCExpr, ...]) -> "NProj":
        return NProj(self.index, children[0])

    def __str__(self) -> str:
        return f"pi{self.index}({self.arg})"


@dataclass(frozen=True, eq=False)
class NSingleton(NRCExpr):
    """Singleton set ``{arg}``."""

    arg: NRCExpr

    def children(self) -> Tuple[NRCExpr, ...]:
        return (self.arg,)

    def rebuild(self, children: Tuple[NRCExpr, ...]) -> "NSingleton":
        return NSingleton(children[0])

    def __str__(self) -> str:
        return f"{{{self.arg}}}"


@dataclass(frozen=True, eq=False)
class NGet(NRCExpr):
    """``get_T``: extract the unique element of a singleton set (default otherwise)."""

    arg: NRCExpr

    def children(self) -> Tuple[NRCExpr, ...]:
        return (self.arg,)

    def rebuild(self, children: Tuple[NRCExpr, ...]) -> "NGet":
        return NGet(children[0])

    def __str__(self) -> str:
        return f"get({self.arg})"


@dataclass(frozen=True, eq=False)
class NBigUnion(NRCExpr):
    """Binding union ``⋃{ body | var ∈ source }``; ``var`` is bound in ``body``."""

    body: NRCExpr
    var: "NVar"
    source: NRCExpr

    body_index = 0

    @property
    def binder(self) -> "NVar":
        return self.var

    def children(self) -> Tuple[NRCExpr, ...]:
        return (self.body, self.source)

    def rebuild(self, children: Tuple[NRCExpr, ...]) -> "NBigUnion":
        return NBigUnion(children[0], self.var, children[1])

    def rebuild_binder(self, var: "NVar", children: Tuple[NRCExpr, ...]) -> "NBigUnion":
        return NBigUnion(children[0], var, children[1])

    def __str__(self) -> str:
        return f"U{{{self.body} | {self.var} in {self.source}}}"


@dataclass(frozen=True, eq=False)
class NEmpty(NRCExpr):
    """The empty set ``∅`` of element type ``elem_type``."""

    elem_type: Type

    children = core.leaf_children

    def __str__(self) -> str:
        return "{}"


@dataclass(frozen=True, eq=False)
class NUnion(NRCExpr):
    """Binary set union."""

    left: NRCExpr
    right: NRCExpr

    def children(self) -> Tuple[NRCExpr, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Tuple[NRCExpr, ...]) -> "NUnion":
        return NUnion(children[0], children[1])

    def __str__(self) -> str:
        return f"({self.left} u {self.right})"


@dataclass(frozen=True, eq=False)
class NDiff(NRCExpr):
    """Set difference ``left \\ right``."""

    left: NRCExpr
    right: NRCExpr

    def children(self) -> Tuple[NRCExpr, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Tuple[NRCExpr, ...]) -> "NDiff":
        return NDiff(children[0], children[1])

    def __str__(self) -> str:
        return f"({self.left} \\ {self.right})"


def expr_size(expr: NRCExpr) -> int:
    """Number of constructors in ``expr`` (cached per node, iterative)."""
    return core.node_size(expr)


def subexpressions(expr: NRCExpr) -> Iterator[NRCExpr]:
    """Yield every subexpression of ``expr`` (including itself), pre-order.

    Iterative via the core walk: safe on arbitrarily deep expressions.
    """
    return core.walk(expr)
