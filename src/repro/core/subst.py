"""Generic capture-avoiding substitution over the :class:`~repro.core.node.Node` protocol.

This replaces the two near-identical hand-rolled substitution walkers of the
seed (``logic.free_vars.substitute_many`` and ``nrc.compose.nrc_substitute``)
with one engine driven by the node protocol:

* variable leaves (``is_variable``) are looked up in the mapping;
* binder nodes filter the mapping for their body child and α-rename the bound
  variable when a substituted tree would capture it;
* every other node maps over its children, identity-preserving.

The cached free-variable analysis gives a crucial fast path: a subtree whose
free variables are disjoint from the mapping's domain is returned unchanged
(the *same* object), so substitution cost is proportional to the affected
spine instead of the whole tree.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Set

from repro.core.node import Node, free_vars


def fresh_name(base: str, taken: Set[str]) -> str:
    """``base`` if unused, else the first unused ``base_1``, ``base_2``, ..."""
    if base not in taken:
        return base
    for i in itertools.count(1):
        candidate = f"{base}_{i}"
        if candidate not in taken:
            return candidate
    raise RuntimeError("unreachable")


# Substitution results are memoized: proof search and synthesis substitute
# the same witness into the same (hash-cached) formula many times — once per
# enumeration, scoring, premise construction and proof-tree rebuild.  Keys
# hash in O(1) thanks to the per-node hash cache.
_SUBST_CACHE: dict = {}
_SUBST_CACHE_LIMIT = 1 << 17


def substitute(node: Node, mapping: Mapping) -> Node:
    """Simultaneous capture-avoiding substitution of variables by subtrees.

    ``mapping`` sends variable nodes to replacement nodes of the same sort
    (terms inside formulas, NRC expressions inside NRC expressions).  Returns
    ``node`` itself when nothing applies.
    """
    mapping = {var: target for var, target in mapping.items() if var != target}
    if not mapping:
        return node
    key = (node, frozenset(mapping.items()))
    cached = _SUBST_CACHE.get(key)
    if cached is not None:
        return cached
    result = _substitute(node, mapping)
    if len(_SUBST_CACHE) >= _SUBST_CACHE_LIMIT:
        _SUBST_CACHE.clear()
    _SUBST_CACHE[key] = result
    return result


def _substitute(node: Node, mapping: Mapping) -> Node:
    if node.is_variable:
        return mapping.get(node, node)
    fv = node.__dict__.get("_fv")
    if fv is None:
        fv = free_vars(node)
    if fv.isdisjoint(mapping):
        return node
    binder = node.binder
    if binder is None:
        children = node.children()
        changed = False
        new_children = []
        for child in children:
            new_child = _substitute(child, mapping)
            new_children.append(new_child)
            if new_child is not child:
                changed = True
        if not changed:
            return node
        return node.rebuild(tuple(new_children))
    # Binder node: the binder shadows the mapping inside its body child.
    inner_mapping = {var: target for var, target in mapping.items() if var != binder}
    children = node.children()
    body_index = node.body_index
    body = children[body_index]
    new_children = [
        child if index == body_index else _substitute(child, mapping)
        for index, child in enumerate(children)
    ]
    if inner_mapping:
        incoming: Set[Node] = set()
        for target in inner_mapping.values():
            incoming |= free_vars(target)
        if binder in incoming:
            taken = {var.name for var in incoming}
            taken |= {var.name for var in free_vars(body)}
            taken |= {var.name for var in inner_mapping}
            renamed = type(binder)(fresh_name(binder.name, taken), binder.typ)
            body = _substitute(body, {binder: renamed})
            binder = renamed
        body = _substitute(body, inner_mapping)
    if body is children[body_index] and binder is node.binder:
        for old, new in zip(children, new_children):
            if old is not new:
                break
        else:
            return node
    new_children[body_index] = body
    return node.rebuild_binder(binder, tuple(new_children))


def replace_subtree(node: Node, old: Node, new: Node) -> Node:
    """Replace every occurrence of the subtree ``old`` by ``new``.

    This is the syntactic (non-renaming) replacement used by the congruence
    rules of the focused calculus.  When ``old`` is a variable that coincides
    with a binder, the binder's body is left untouched (the binder shadows
    it); callers must ensure ``new`` is not captured, as in the seed.
    """
    if node == old:
        return new
    if old.is_variable and old not in free_vars(node):
        return node
    binder = node.binder
    skip_index = -1
    if binder is not None and old.is_variable and binder == old:
        skip_index = node.body_index
    children = node.children()
    changed = False
    new_children = []
    for index, child in enumerate(children):
        new_child = child if index == skip_index else replace_subtree(child, old, new)
        new_children.append(new_child)
        if new_child is not child:
            changed = True
    if not changed:
        return node
    return node.rebuild(tuple(new_children))


def free_var_names(nodes: Iterable[Node]) -> Set[str]:
    """Names of all free variables across ``nodes`` (helper for fresh naming)."""
    names: Set[str] = set()
    for node in nodes:
        names |= {var.name for var in free_vars(node)}
    return names
