"""The shared IR substrate: the :class:`Node` protocol and generic traversals.

Every immutable AST in the system — Δ0 terms, (extended) Δ0 formulas and NRC
expressions — derives from :class:`Node` and exposes two structural methods:

* ``children()`` — the tuple of sub-``Node``s, in a fixed left-to-right order.
  For formulas this includes the terms they mention (so one walk reaches every
  node of every sort); binder *variables* are **not** children — they are part
  of the node's shape, like a projection index.
* ``rebuild(children)`` — a copy of the node with the given children.  Callers
  must pass the same number of children that ``children()`` returned.

Binder nodes (``Forall``/``Exists``/``NBigUnion``) additionally expose
``binder`` (the bound variable), ``body_index`` (which child the binder scopes
over) and ``rebuild_binder(var, children)``.

Nodes are canonical by construction (hash-consing): the :class:`Node`
metaclass returns the live node with the same class and fields when there is
one, so structurally equal trees are one object and ``==``/``hash`` are
identity.

On top of the protocol this module provides the generic traversal engine used
everywhere in place of the seed's five hand-rolled walkers:

* :func:`walk` — iterative pre-order iteration (safe on 10k-deep chains);
* :func:`fold` — iterative post-order reduction;
* :func:`cached_fold` — the same, caching the result on each node so repeated
  analyses (sizes, free variables, types) are amortized O(1);
* :func:`map_children` / :func:`transform_bottom_up` — identity-preserving
  rewriting: when nothing changes the *same object* is returned, so fixpoint
  detection is a pointer comparison instead of a deep equality.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import fields as _dataclass_fields
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

N = TypeVar("N", bound="Node")
A = TypeVar("A")

_EMPTY_FROZENSET: frozenset = frozenset()

_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def dataclass_field_names(cls: type) -> Tuple[str, ...]:
    """Declared dataclass field names of ``cls``, memoized per class.

    Shared by pickling (below) and node construction, which both need the
    field tuple.
    """
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in _dataclass_fields(cls))
        _FIELD_NAMES[cls] = names
    return names


def dataclass_state(self) -> dict:
    """``__getstate__`` for frozen dataclasses that memoize in ``__dict__``.

    Sequents, proof nodes, problems and results keep memoized analyses
    (``_chash``, ``_fv``, ``_valid_height``, ...) in the instance
    ``__dict__`` next to their dataclass fields, so default pickling would
    drag them across process boundaries.  That is both wasteful and wrong:
    a hash is salted per process (``PYTHONHASHSEED``) and a validation mark
    only holds where it was earned.  Restricting the pickled state to the
    declared fields makes every such object round-trip cleanly; the memos
    are recomputed on first use in the receiving process.
    """
    state = self.__dict__
    return {name: state[name] for name in dataclass_field_names(self.__class__)}


def dataclass_setstate(self, state: object) -> None:
    """``__setstate__`` paired with :func:`dataclass_state`: restore declared fields only.

    A pickle from outside the program (an imported witness) may carry more
    than the fields.  Default unpickling would install every key, so a
    payload could plant a memo (a sequent's ``_fv``, a proof's validation
    mark) that this process then trusts.  Only a dict is accepted and only
    the declared fields are copied; a missing field stays missing, for the
    reader's own shape checks to reject.
    """
    if not isinstance(state, dict):
        raise TypeError(f"{type(self).__name__} state is a {type(state).__name__}, not a dict")
    target = self.__dict__
    for name in dataclass_field_names(self.__class__):
        if name in state:
            target[name] = state[name]


# ------------------------------------------------------------ hash-consing
#: ``(class, *fields)`` → the one live node with those fields.  Values are
#: weak, so a node leaves the table with its last outside reference.
_CANONICAL: "weakref.WeakValueDictionary[tuple, Node]" = weakref.WeakValueDictionary()
_canonical_ref = _CANONICAL.data.get
_CANONICAL_LOCK = threading.RLock()


def _reset_canonical_lock() -> None:
    # A fork taken while another thread held the lock would leave it held
    # for good in the child.
    global _CANONICAL_LOCK
    _CANONICAL_LOCK = threading.RLock()


os.register_at_fork(after_in_child=_reset_canonical_lock)


class _Canonical(type):
    """Metaclass of :class:`Node`: construction returns the canonical node.

    A call with all fields positional looks its argument tuple up directly;
    any other call builds the node first and looks up its declared fields.
    Only a miss takes the lock, so two threads building the same node get
    one object.
    """

    def __call__(cls, *args, **kwargs):
        if not kwargs:
            ref = _canonical_ref((cls, *args))
            if ref is not None:
                node = ref()
                if node is not None:
                    return node
        node = object.__new__(cls)
        node.__init__(*args, **kwargs)
        state = node.__dict__
        key = (cls, *[state[name] for name in dataclass_field_names(cls)])
        with _CANONICAL_LOCK:
            live = _CANONICAL.get(key)
            if live is not None:
                return live
            _CANONICAL[key] = node
        return node


def canonical_nodes() -> int:
    """Number of live canonical nodes (service telemetry)."""
    return len(_CANONICAL)


class Node(metaclass=_Canonical):
    """Base class of every AST node (terms, formulas, NRC expressions).

    Nodes are hash-consed: building a node whose class and fields equal a
    live node's returns that node (:class:`_Canonical`).  Subclasses are
    ``@dataclass(frozen=True, eq=False)``, so ``==`` and ``hash`` are object
    identity, which on canonical nodes is structural equality.  A node
    pickles as its constructor call, so unpickling is construction too;
    ``__new__`` and ``__setstate__`` refuse, so a payload can neither make a
    second copy of a node nor plant a memo on the canonical one.

    Every concrete subclass must implement ``children()`` — leaves via the
    :func:`leaf` helper, composites explicitly.  The default *raises* so that
    a future node class that forgets the protocol fails loudly on its first
    traversal instead of being silently treated as a leaf (the seed walkers
    raised ``FormulaError``/``TypeMismatchError`` on unknown nodes; this
    preserves that invariant).
    """

    is_variable = False  # True on Var / NVar leaves
    binder = None  # the bound variable on binder nodes, None elsewhere
    body_index = -1  # index in children() the binder scopes over

    def __new__(cls, *args, **kwargs):
        raise TypeError(f"{cls.__name__} nodes are built by calling the class")

    def __reduce__(self):
        state = self.__dict__
        return self.__class__, tuple(state[name] for name in dataclass_field_names(self.__class__))

    def __setstate__(self, state: object) -> None:
        raise TypeError(f"{type(self).__name__} nodes take no pickled state")

    def children(self) -> Tuple["Node", ...]:
        raise TypeError(
            f"{type(self).__name__} does not implement the Node protocol; "
            "define children()/rebuild() (assign children = leaf_children for leaves)"
        )

    def rebuild(self, children: Tuple["Node", ...]) -> "Node":
        return self

    def rebuild_binder(self, var: "Node", children: Tuple["Node", ...]) -> "Node":
        raise TypeError(f"{type(self).__name__} is not a binder node")

    def _combine_free_vars(self, child_sets: Tuple[frozenset, ...]) -> frozenset:
        """Per-class free-variable combine used by :func:`free_vars`."""
        if self.is_variable:
            return frozenset((self,))
        if not child_sets:
            return _EMPTY_FROZENSET
        binder = self.binder
        if binder is None:
            if len(child_sets) == 1:
                return child_sets[0]
            return child_sets[0].union(*child_sets[1:])
        parts = list(child_sets)
        parts[self.body_index] = parts[self.body_index] - {binder}
        if len(parts) == 1:
            return parts[0]
        return parts[0].union(*parts[1:])


def leaf_children(self) -> Tuple[Node, ...]:
    """Assign ``children = leaf_children`` in a class body to declare a leaf."""
    return ()


def install_str_cache(*classes: type) -> None:
    """Replace each class's ``__str__`` with a caching wrapper.

    The proof search orders candidate formulas by their (deterministic)
    string rendering; rendering is O(size) per call on frozen trees, so the
    result is cached in the node's ``_cstr``.
    """
    for cls in classes:
        original = cls.__dict__.get("__str__") or cls.__str__

        def cached_str(self, _original=original):
            d = self.__dict__
            s = d.get("_cstr")
            if s is None:
                s = _original(self)
                object.__setattr__(self, "_cstr", s)
            return s

        cls.__str__ = cached_str  # type: ignore[assignment]


def walk(root: Node) -> Iterator[Node]:
    """Yield ``root`` and every descendant, pre-order, left to right.

    Iterative: safe on arbitrarily deep expressions (no ``RecursionError``).
    """
    stack: List[Node] = [root]
    pop = stack.pop
    while stack:
        node = pop()
        yield node
        children = node.children()
        if children:
            stack.extend(reversed(children))


def fold(root: Node, combine: Callable[[Node, Tuple[A, ...]], A]) -> A:
    """Reduce the tree bottom-up: ``combine(node, child_results)`` per node.

    Iterative post-order; shared sub-DAGs are folded once per object.
    """
    results: dict = {}
    stack: List[Node] = [root]
    while stack:
        node = stack[-1]
        nid = id(node)
        if nid in results:
            stack.pop()
            continue
        children = node.children()
        pending = [child for child in children if id(child) not in results]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        results[nid] = combine(node, tuple(results[id(child)] for child in children))
    return results[id(root)]


def cached_fold(root: Node, attr: str, combine: Callable[[Node, Tuple[A, ...]], A]) -> A:
    """Like :func:`fold`, but cache each node's result in ``node.__dict__[attr]``.

    Nodes are frozen, so any analysis depending only on the subtree is safe to
    memoize this way (see ARCHITECTURE.md for the caching contract).  Cached
    subtrees are never re-entered, which also keeps repeated analyses of
    growing expressions incremental.
    """
    cached = root.__dict__.get(attr, _MISSING)
    if cached is not _MISSING:
        return cached
    setattr_ = object.__setattr__
    stack: List[Node] = [root]
    while stack:
        node = stack[-1]
        if attr in node.__dict__:
            stack.pop()
            continue
        children = node.children()
        pending = [child for child in children if attr not in child.__dict__]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        setattr_(node, attr, combine(node, tuple(child.__dict__[attr] for child in children)))
    return root.__dict__[attr]


_MISSING = object()


def map_children(node: N, fn: Callable[[Node], Node]) -> N:
    """Apply ``fn`` to each child; return ``node`` itself if nothing changed."""
    children = node.children()
    if not children:
        return node
    changed = False
    new_children = []
    for child in children:
        new_child = fn(child)
        new_children.append(new_child)
        if new_child is not child:
            changed = True
    if not changed:
        return node
    return node.rebuild(tuple(new_children))  # type: ignore[return-value]


def transform_bottom_up(root: Node, fn: Callable[[Node], Node], results: Optional[Dict[Node, Node]] = None) -> Node:
    """Rewrite the tree bottom-up with ``fn``, preserving identity on no-ops.

    Children are transformed first; each node is rebuilt only when some child
    actually changed, then ``fn`` is applied to the (possibly rebuilt) node.
    Iterative, so deep chains do not overflow the Python stack; shared
    sub-DAGs are transformed once per object.  ``results`` maps nodes to
    their transforms under the same ``fn``; passing one dict to several
    calls transforms the subtrees they share once.
    """
    if results is None:
        results = {}
    stack: List[Node] = [root]
    while stack:
        node = stack[-1]
        if node in results:
            stack.pop()
            continue
        children = node.children()
        pending = [child for child in children if child not in results]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if children:
            new_children = tuple(results[child] for child in children)
            rebuilt = node
            for old, new in zip(children, new_children):
                if old is not new:
                    rebuilt = node.rebuild(new_children)
                    break
        else:
            rebuilt = node
        results[node] = fn(rebuilt)
    return results[root]


# --------------------------------------------------------------- analyses
def node_size(root: Node) -> int:
    """Number of constructors in the subtree (cached per node, iterative)."""
    size = root.__dict__.get("_size")
    if size is not None:
        return size
    return cached_fold(root, "_size", _size_combine)


def _size_combine(node: Node, child_sizes: Tuple[int, ...]) -> int:
    return 1 + sum(child_sizes)


def free_vars(root: Node) -> frozenset:
    """Free variable nodes of the subtree, binder-aware (cached per node)."""
    fv = root.__dict__.get("_fv")
    if fv is not None:
        return fv
    return cached_fold(root, "_fv", _fv_combine)


def _fv_combine(node: Node, child_sets: Tuple[frozenset, ...]) -> frozenset:
    return node._combine_free_vars(child_sets)
