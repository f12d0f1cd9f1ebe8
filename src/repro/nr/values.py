"""Values of nested relational types.

Values are immutable and hashable; two values are Python-``==`` exactly when
they are *extensionally* equal, which is the notion of equality the paper uses
for nested relations (sets are compared by their members).

Constructors:

* ``unit()``                       — the unique value of ``Unit``
* ``ur(atom)``                     — an Ur-element wrapping a hashable atom
* ``pair(a, b)`` / ``tuple_value`` — products
* ``vset(values)``                 — finite sets
* ``bool_value(b)``                — the ``Set(Unit)`` encoding of a Boolean
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, Iterable, Iterator, List

from repro.core.node import dataclass_setstate, dataclass_state
from repro.errors import TypeMismatchError
from repro.nr.types import ProdType, SetType, Type, UnitType, UrType


@dataclass(frozen=True)
class Value:
    """Base class of nested relational values."""

    # Pickle only the declared fields, both ways: a payload cannot plant
    # attributes on a value.
    __getstate__ = dataclass_state
    __setstate__ = dataclass_setstate


@dataclass(frozen=True)
class UnitValue(Value):
    """The unique inhabitant of ``Unit``."""

    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True)
class UrValue(Value):
    """An Ur-element carrying an arbitrary hashable ``atom``."""

    atom: Hashable

    def __str__(self) -> str:
        return repr(self.atom)


@dataclass(frozen=True)
class PairValue(Value):
    """A pair of values."""

    first: Value
    second: Value

    def __str__(self) -> str:
        return f"<{self.first}, {self.second}>"


@dataclass(frozen=True)
class SetValue(Value):
    """A finite set of values (extensional: order/multiplicity irrelevant)."""

    elements: FrozenSet[Value] = field(default_factory=frozenset)

    def __str__(self) -> str:
        inner = ", ".join(sorted(str(e) for e in self.elements))
        return "{" + inner + "}"

    def __iter__(self) -> Iterator[Value]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, item: Value) -> bool:
        return item in self.elements


def unit() -> UnitValue:
    """The unique value of type ``Unit``."""
    return UnitValue()


def ur(atom: Hashable) -> UrValue:
    """Wrap ``atom`` as an Ur-element."""
    if isinstance(atom, Value):
        raise TypeMismatchError("Ur atoms must be plain hashables, not Values")
    return UrValue(atom)


def pair(first: Value, second: Value) -> PairValue:
    """Build a pair value."""
    return PairValue(first, second)


def vset(values: Iterable[Value] = ()) -> SetValue:
    """Build a set value from an iterable of values."""
    elems = frozenset(values)
    for value in elems:
        if not isinstance(value, Value):
            raise TypeMismatchError(f"set element {value!r} is not a Value")
    return SetValue(elems)


def tuple_value(*components: Value) -> Value:
    """Build an n-ary tuple, right-nested, mirroring ``tuple_type``."""
    if not components:
        return UnitValue()
    if len(components) == 1:
        return components[0]
    return PairValue(components[0], tuple_value(*components[1:]))


def bool_value(flag: bool) -> SetValue:
    """Encode a Boolean as a value of type ``Set(Unit)``: true = {()}, false = {}."""
    return SetValue(frozenset({UnitValue()})) if flag else SetValue(frozenset())


def value_to_bool(value: Value) -> bool:
    """Decode a ``Set(Unit)`` value to a Python bool."""
    if not isinstance(value, SetValue):
        raise TypeMismatchError(f"{value} is not a Boolean (Set(Unit)) value")
    return len(value.elements) > 0


def value_type_check(value: Value, typ: Type) -> bool:
    """Return True iff ``value`` inhabits ``typ``."""
    if isinstance(typ, UnitType):
        return isinstance(value, UnitValue)
    if isinstance(typ, UrType):
        return isinstance(value, UrValue)
    if isinstance(typ, ProdType):
        return (
            isinstance(value, PairValue)
            and value_type_check(value.first, typ.left)
            and value_type_check(value.second, typ.right)
        )
    if isinstance(typ, SetType):
        return isinstance(value, SetValue) and all(
            value_type_check(elem, typ.elem) for elem in value.elements
        )
    raise TypeMismatchError(f"unknown type {typ!r}")


def require_type(value: Value, typ: Type) -> Value:
    """Return ``value`` if it has type ``typ``, else raise ``TypeMismatchError``."""
    if not value_type_check(value, typ):
        raise TypeMismatchError(f"value {value} does not have type {typ}")
    return value


#: Atom used for the default Ur-element returned by ``get`` on non-singletons.
DEFAULT_UR_ATOM = "__default__"


def default_value(typ: Type) -> Value:
    """The default value of ``typ`` (returned by NRC ``get`` on non-singletons)."""
    if isinstance(typ, UnitType):
        return UnitValue()
    if isinstance(typ, UrType):
        return UrValue(DEFAULT_UR_ATOM)
    if isinstance(typ, ProdType):
        return PairValue(default_value(typ.left), default_value(typ.right))
    if isinstance(typ, SetType):
        return SetValue(frozenset())
    raise TypeMismatchError(f"unknown type {typ!r}")


def ur_atoms(value: Value) -> FrozenSet[Hashable]:
    """All Ur-element atoms occurring (hereditarily) inside ``value``."""
    if isinstance(value, UrValue):
        return frozenset({value.atom})
    if isinstance(value, UnitValue):
        return frozenset()
    if isinstance(value, PairValue):
        return ur_atoms(value.first) | ur_atoms(value.second)
    if isinstance(value, SetValue):
        result: FrozenSet[Hashable] = frozenset()
        for elem in value.elements:
            result |= ur_atoms(elem)
        return result
    raise TypeMismatchError(f"unknown value {value!r}")


def ur_values(value: Value) -> FrozenSet[UrValue]:
    """All Ur-element *values* occurring hereditarily inside ``value``."""
    return frozenset(UrValue(a) for a in ur_atoms(value))


def value_sort_key(value: Value):
    """A total-order key on values, for deterministic printing/enumeration."""
    if isinstance(value, UnitValue):
        return (0,)
    if isinstance(value, UrValue):
        return (1, str(type(value.atom)), str(value.atom))
    if isinstance(value, PairValue):
        return (2, value_sort_key(value.first), value_sort_key(value.second))
    if isinstance(value, SetValue):
        return (3, tuple(sorted(value_sort_key(e) for e in value.elements)))
    raise TypeMismatchError(f"unknown value {value!r}")


def sorted_elements(value: SetValue) -> List[Value]:
    """Elements of a set value in deterministic order."""
    return sorted(value.elements, key=value_sort_key)


def values_of_type(typ: Type, atoms: Iterable[Hashable], max_set_size: int = 2) -> Iterator[Value]:
    """Enumerate values of ``typ`` built from the given Ur ``atoms``.

    Set values are restricted to at most ``max_set_size`` elements to keep the
    enumeration finite and small; intended for exhaustive small-scope testing.
    """
    atoms = list(atoms)
    if isinstance(typ, UnitType):
        yield UnitValue()
        return
    if isinstance(typ, UrType):
        for atom in atoms:
            yield UrValue(atom)
        return
    if isinstance(typ, ProdType):
        lefts = list(values_of_type(typ.left, atoms, max_set_size))
        rights = list(values_of_type(typ.right, atoms, max_set_size))
        for left in lefts:
            for right in rights:
                yield PairValue(left, right)
        return
    if isinstance(typ, SetType):
        elems = list(values_of_type(typ.elem, atoms, max_set_size))
        for size in range(0, max_set_size + 1):
            for combo in itertools.combinations(elems, size):
                yield SetValue(frozenset(combo))
        return
    raise TypeMismatchError(f"unknown type {typ!r}")
