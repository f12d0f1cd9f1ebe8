"""General (possibly non-extensional) models of the Δ0 language.

The paper's proof systems are sound and complete for entailment over *all*
models, not just extensional ones (nested relations).  A general model
interprets each type by a finite carrier of abstract element identifiers,
interprets membership by an arbitrary relation between carriers of ``T`` and
``Set(T)``, and interprets pairing/projection by explicit component maps.

Two uses:

* testing the soundness of the proof systems against arbitrary models,
  including the paper's example that ``x ∈ y, x ∈ y' ⊨ ∃z∈y. z ∈ y'`` holds
  while the ``∈̂`` variant does not;
* demonstrating the Mostowski-collapse argument: every *extensional*
  well-typed model is isomorphic to a nested relation
  (:func:`collapse_to_instance`).

A test oracle, not library code: only ``tests/test_logic_semantics_paths.py``
imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

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
from repro.nr.types import ProdType, SetType, Type, UnitType, UrType
from repro.nr.values import PairValue, SetValue, UnitValue, UrValue, Value

#: An abstract element of a general model.
Element = Tuple[str, int]


@dataclass
class GeneralModel:
    """A finite multi-sorted structure for the Δ0 language.

    ``carriers``   maps a type to its (finite) list of elements.
    ``membership`` maps a set type to the set of (member, container) pairs.
    ``pairing``    maps a product type to per-element (first, second) components.
    """

    carriers: Dict[Type, List[Element]] = field(default_factory=dict)
    membership: Dict[Type, Set[Tuple[Element, Element]]] = field(default_factory=dict)
    pairing: Dict[Type, Dict[Element, Tuple[Element, Element]]] = field(default_factory=dict)
    #: Optional original atoms for Ur-sort elements (set by ``model_from_values``),
    #: used by the Mostowski collapse to reconstruct the original nested values.
    ur_atoms: Dict[Element, object] = field(default_factory=dict)
    _counter: int = 0

    def add_element(self, typ: Type, label: Optional[str] = None) -> Element:
        """Create a fresh element of sort ``typ`` and return it."""
        self._counter += 1
        element = (label or f"e{self._counter}", self._counter)
        self.carriers.setdefault(typ, []).append(element)
        if isinstance(typ, UnitType) and len(self.carriers[typ]) > 1:
            raise TypeMismatchError("the Unit carrier must have exactly one element")
        return element

    def add_pair(self, typ: ProdType, first: Element, second: Element, label: Optional[str] = None) -> Element:
        """Create an element of product sort with the given components."""
        element = self.add_element(typ, label)
        self.pairing.setdefault(typ, {})[element] = (first, second)
        return element

    def set_members(self, typ: SetType, container: Element, members: Iterable[Element]) -> None:
        """Declare the members of ``container`` (an element of sort ``typ``)."""
        rel = self.membership.setdefault(typ, set())
        for member in members:
            rel.add((member, container))

    def members_of(self, typ: SetType, container: Element) -> List[Element]:
        rel = self.membership.get(typ, set())
        return [member for (member, cont) in rel if cont == container]

    def components_of(self, typ: ProdType, element: Element) -> Tuple[Element, Element]:
        try:
            return self.pairing[typ][element]
        except KeyError as exc:
            raise EvaluationError(f"element {element} of {typ} has no components") from exc

    # ------------------------------------------------------------------ eval
    def eval_term(self, term: Term, env: Mapping[Var, Element]) -> Element:
        if isinstance(term, Var):
            try:
                return env[term]
            except KeyError as exc:
                raise EvaluationError(f"unbound variable {term}") from exc
        if isinstance(term, UnitTerm):
            carrier = self.carriers.get(UnitType())
            if not carrier:
                raise EvaluationError("model has no Unit element")
            return carrier[0]
        if isinstance(term, PairTerm):
            raise EvaluationError(
                "explicit pair terms cannot be evaluated in a general model without a pairing witness"
            )
        if isinstance(term, Proj):
            from repro.logic.terms import term_type

            arg_type = term_type(term.arg)
            if not isinstance(arg_type, ProdType):
                raise EvaluationError(f"projection of non-product term {term.arg}")
            element = self.eval_term(term.arg, env)
            first, second = self.components_of(arg_type, element)
            return first if term.index == 1 else second
        raise EvaluationError(f"unknown term {term!r}")

    def eval_formula(self, formula: Formula, env: Mapping[Var, Element]) -> bool:
        if isinstance(formula, EqUr):
            return self.eval_term(formula.left, env) == self.eval_term(formula.right, env)
        if isinstance(formula, NeqUr):
            return self.eval_term(formula.left, env) != self.eval_term(formula.right, env)
        if isinstance(formula, (Member, NotMember)):
            from repro.logic.terms import term_type

            coll_type = term_type(formula.collection)
            if not isinstance(coll_type, SetType):
                raise EvaluationError("membership literal with non-set collection")
            member = self.eval_term(formula.elem, env)
            container = self.eval_term(formula.collection, env)
            holds = (member, container) in self.membership.get(coll_type, set())
            return holds if isinstance(formula, Member) else not holds
        if isinstance(formula, Top):
            return True
        if isinstance(formula, Bottom):
            return False
        if isinstance(formula, And):
            return self.eval_formula(formula.left, env) and self.eval_formula(formula.right, env)
        if isinstance(formula, Or):
            return self.eval_formula(formula.left, env) or self.eval_formula(formula.right, env)
        if isinstance(formula, (Forall, Exists)):
            from repro.logic.terms import term_type

            bound_type = term_type(formula.bound)
            if not isinstance(bound_type, SetType):
                raise EvaluationError("quantifier bound with non-set type")
            container = self.eval_term(formula.bound, env)
            members = self.members_of(bound_type, container)
            extended = dict(env)
            results = []
            for member in members:
                extended[formula.var] = member
                results.append(self.eval_formula(formula.body, extended))
            return all(results) if isinstance(formula, Forall) else any(results)
        raise EvaluationError(f"unknown formula {formula!r}")

    # ------------------------------------------------------- extensionality
    def is_extensional(self) -> bool:
        """True iff distinct elements of every set sort have distinct member sets."""
        for typ, carrier in self.carriers.items():
            if not isinstance(typ, SetType):
                continue
            seen: Dict[FrozenSet[Element], Element] = {}
            for element in carrier:
                members = frozenset(self.members_of(typ, element))
                if members in seen and seen[members] != element:
                    return False
                seen[members] = element
        return True


def model_from_values(bindings: Mapping[Var, Value]) -> Tuple[GeneralModel, Dict[Var, Element]]:
    """Build an extensional general model from nested values (inverse collapse).

    Returns the model together with the environment mapping each variable to
    the element representing its value.
    """
    model = GeneralModel()
    cache: Dict[Tuple[Type, Value], Element] = {}

    def encode(value: Value, typ: Type) -> Element:
        key = (typ, value)
        if key in cache:
            return cache[key]
        if isinstance(typ, UnitType):
            carrier = model.carriers.get(typ)
            element = carrier[0] if carrier else model.add_element(typ, "unit")
        elif isinstance(typ, UrType):
            if not isinstance(value, UrValue):
                raise TypeMismatchError(f"{value} is not an Ur value")
            element = model.add_element(typ, f"ur:{value.atom!r}")
            model.ur_atoms[element] = value.atom
        elif isinstance(typ, ProdType):
            if not isinstance(value, PairValue):
                raise TypeMismatchError(f"{value} is not a pair")
            first = encode(value.first, typ.left)
            second = encode(value.second, typ.right)
            element = model.add_pair(typ, first, second)
        elif isinstance(typ, SetType):
            if not isinstance(value, SetValue):
                raise TypeMismatchError(f"{value} is not a set")
            members = [encode(member, typ.elem) for member in value.elements]
            element = model.add_element(typ)
            model.set_members(typ, element, members)
        else:
            raise TypeMismatchError(f"unknown type {typ!r}")
        cache[key] = element
        return element

    env = {var: encode(value, var.typ) for var, value in bindings.items()}
    return model, env


def collapse_element(model: GeneralModel, typ: Type, element: Element) -> Value:
    """Mostowski collapse: the nested value represented by ``element``.

    Only meaningful on extensional models; on non-extensional models the
    collapse identifies elements with the same members.
    """
    if isinstance(typ, UnitType):
        return UnitValue()
    if isinstance(typ, UrType):
        return UrValue(model.ur_atoms.get(element, element))
    if isinstance(typ, ProdType):
        first, second = model.components_of(typ, element)
        return PairValue(collapse_element(model, typ.left, first), collapse_element(model, typ.right, second))
    if isinstance(typ, SetType):
        members = model.members_of(typ, element)
        return SetValue(frozenset(collapse_element(model, typ.elem, member) for member in members))
    raise TypeMismatchError(f"unknown type {typ!r}")


def collapse_to_instance(model: GeneralModel, env: Mapping[Var, Element]) -> Dict[Var, Value]:
    """Collapse every bound element of ``env`` to a nested value."""
    return {var: collapse_element(model, var.typ, element) for var, element in env.items()}
