"""Subtype occurrences and path-bounded quantification (Section 5).

A *subtype occurrence* of a type ``T`` is a word over ``{1, 2, m}``:

* the empty word ε is a subtype occurrence of every type;
* ``m·p`` is an occurrence of ``Set(T)`` when ``p`` is one of ``T``;
* ``i·p`` (``i ∈ {1,2}``) is an occurrence of ``T1 × T2`` when ``p`` is one
  of ``Ti``.

The leftmost letter is the outermost navigation step.  For a path ``p`` the
"quantification over subobjects" notation ``Q x ∈_p t . φ`` of the paper is
produced by :func:`path_quantifier`; such paths must end in ``m`` (the
innermost step is always a membership).  The empty path is supported as the
degenerate case in which no quantifier is introduced and ``t`` is substituted
for the bound variable (used for the "empty path" variant of Lemma 6 in the
proof of Theorem 2).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.errors import FormulaError, TypeMismatchError
from repro.logic.formulas import Exists, Forall, Formula
from repro.logic.free_vars import FreshNames, free_vars, substitute
from repro.logic.terms import Proj, Term, Var, term_type, term_vars
from repro.nr.types import ProdType, SetType, Type

#: A subtype occurrence: a string over the alphabet {"1", "2", "m"}.
SubtypePath = str

_ALPHABET = {"1", "2", "m"}


def subtype_at(typ: Type, path: SubtypePath) -> Type:
    """The subtype of ``typ`` reached by following ``path``."""
    current = typ
    for index, letter in enumerate(path):
        if letter not in _ALPHABET:
            raise FormulaError(f"invalid path letter {letter!r} in {path!r}")
        if letter == "m":
            if not isinstance(current, SetType):
                raise TypeMismatchError(f"path {path!r} invalid at position {index}: {current} is not a set type")
            current = current.elem
        else:
            if not isinstance(current, ProdType):
                raise TypeMismatchError(
                    f"path {path!r} invalid at position {index}: {current} is not a product type"
                )
            current = current.left if letter == "1" else current.right
    return current


def all_subtype_paths(typ: Type) -> Iterator[SubtypePath]:
    """Enumerate every subtype occurrence of ``typ`` (including ε), pre-order."""
    yield ""
    if isinstance(typ, SetType):
        for path in all_subtype_paths(typ.elem):
            yield "m" + path
    elif isinstance(typ, ProdType):
        for path in all_subtype_paths(typ.left):
            yield "1" + path
        for path in all_subtype_paths(typ.right):
            yield "2" + path


def quantifiable_paths(typ: Type) -> Iterator[SubtypePath]:
    """Subtype occurrences usable as quantification paths (non-empty, end in ``m``)."""
    for path in all_subtype_paths(typ):
        if path and path.endswith("m"):
            yield path


def path_quantifier(
    quantifier: str,
    var: Var,
    path: SubtypePath,
    term: Term,
    body: Formula,
    fresh: FreshNames = None,
) -> Formula:
    """Build ``Q var ∈_path term . body`` where ``Q`` is ``"exists"`` or ``"forall"``.

    Follows the inductive definition of Section 5.  For the empty path the
    result is ``body[term/var]`` (no quantifier).
    """
    if quantifier not in ("exists", "forall"):
        raise FormulaError(f"unknown quantifier {quantifier!r}")
    if fresh is None:
        names = {v.name for v in free_vars(body) | term_vars(term)} | {var.name}
        fresh = FreshNames(names)
    term_typ = term_type(term)
    expected = subtype_at(term_typ, path)
    if expected != var.typ:
        raise TypeMismatchError(
            f"path {path!r} of {term_typ} leads to {expected}, but variable has type {var.typ}"
        )
    return _build(quantifier, var, path, term, body, fresh)


def _build(quantifier: str, var: Var, path: SubtypePath, term: Term, body: Formula, fresh: FreshNames) -> Formula:
    constructor = Exists if quantifier == "exists" else Forall
    if path == "":
        return substitute(body, var, term)
    head, rest = path[0], path[1:]
    if head == "m":
        if rest == "":
            return constructor(var, term, body)
        term_typ = term_type(term)
        if not isinstance(term_typ, SetType):
            raise TypeMismatchError(f"path step 'm' on non-set term {term} : {term_typ}")
        intermediate = fresh.fresh_var("p", term_typ.elem)
        inner = _build(quantifier, var, rest, intermediate, body, fresh)
        return constructor(intermediate, term, inner)
    index = 1 if head == "1" else 2
    return _build(quantifier, var, rest, Proj(index, term), body, fresh)


def path_exists(var: Var, path: SubtypePath, term: Term, body: Formula, fresh: FreshNames = None) -> Formula:
    """``∃ var ∈_path term . body``."""
    return path_quantifier("exists", var, path, term, body, fresh)


def path_forall(var: Var, path: SubtypePath, term: Term, body: Formula, fresh: FreshNames = None) -> Formula:
    """``∀ var ∈_path term . body``."""
    return path_quantifier("forall", var, path, term, body, fresh)


def exists_prefix_for_path(path: SubtypePath, term: Term, fresh: FreshNames) -> Tuple[List[Tuple[Var, Term]], Term]:
    """The chain of (variable, bound) pairs introduced by ``∃ x ∈_path term``.

    Returns the list of quantifier steps (outermost first) together with the
    term denoting the innermost position (the term the final variable ranges
    over is the last bound in the list).  Useful for synthesis code that needs
    to inspect the block of existentials introduced by a path quantifier.
    """
    steps: List[Tuple[Var, Term]] = []
    current = term
    remaining = path
    while remaining:
        head, remaining_rest = remaining[0], remaining[1:]
        if head == "m":
            typ = term_type(current)
            if not isinstance(typ, SetType):
                raise TypeMismatchError(f"path step 'm' on non-set term {current} : {typ}")
            var = fresh.fresh_var("p", typ.elem)
            steps.append((var, current))
            current = var
        else:
            current = Proj(1 if head == "1" else 2, current)
        remaining = remaining_rest
    return steps, current
