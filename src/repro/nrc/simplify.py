"""Algebraic simplification of NRC expressions.

Synthesized definitions (Section 6) contain many vacuous unions with ∅,
comprehensions over singletons and similar redundancies.  ``simplify`` runs a
named, terminating rule set on the shared :class:`repro.core.RewriteEngine`:
bottom-up passes repeat until a fixpoint, detected by pointer identity thanks
to the engine's identity-preserving rebuilding.  Every rule preserves the
evaluation semantics of :mod:`repro.nrc.eval` (tested differentially against
the frozen seed semantics in ``tests/test_core_property.py``).

Set-algebra rules.  The Theorem 4/10 extractions filter a superset of atoms
by an interpolant whose literals the ``nrc/macros.py`` macros spell as
Booleans, which evaluate as nested loops.  Six rules fold those shapes into
set operations on the sources; each is sound at every type:

* ``eq-canon`` — ``U{e | x ∈ ({a} \\ {b})}`` with ``x ∉ FV(e)`` only tests
  ``a ≠ b``, which is symmetric, so the pair is put in a deterministic
  structural order and the two halves of the ``=`` macro coincide;
* ``bigunion-idempotent`` — ``U{e | x ∈ e} = e`` for ``x ∉ FV(e)`` (``e``
  if non-empty, else ``∅ = e``);
* ``and-dedupe`` — guards are Booleans, so ``g ∧ g = g``, ``true ∧ g = g``
  and ``g → g = g`` in a guard chain, which may be re-associated;
* ``member-scan`` — one-point rule ``U{(z = r) ∧ φ(z) → p(z) | z ∈ S} =
  (r ∈ S) ∧ φ(r) → p(r)`` for ``z ∉ FV(r)``: only ``z = r`` contributes;
* ``filter-to-setops`` — ``{r ∈ T | G(r)}`` for ``G`` over ``r ∈ S``,
  ``∪``, ``∧``, ``¬``, ``{()}`` is ``∩``/``∪``/``\\`` on ``T``, since
  ``{r ∈ T | r ∈ S} = T ∩ S`` and the connectives act pointwise;
* ``diff-absorb`` — ``T \\ (T \\ S) = T ∩ S = S`` when ``S ⊆ T``
  syntactically.

``member-scan`` and ``filter-to-setops`` fire only when the result is no
larger.  Known limit: a universal scan such as ``unique_element``'s
``¬∃z ∈ V. nonempty({cand} \\ {z})`` is not a one-point shape and stays
quadratic.  :func:`simplifier_fingerprint` versions the rule set for
persisted definitions.

Per-run statistics (which rule fired how often, how many passes) are exposed
via :func:`simplify_with_stats`.
"""

from __future__ import annotations

import hashlib
from functools import reduce
from typing import List, Optional, Sequence, Tuple

from repro.core.engine import RewriteEngine, RewriteStats
from repro.core.node import cached_fold
from repro.errors import TypeMismatchError
from repro.nr.types import ProdType, SetType, Type, UnitType
from repro.nrc.compose import nrc_free_vars, nrc_substitute
from repro.nrc.macros import and_expr, member_expr, true_expr
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
    expr_size,
)
from repro.nrc.typing import infer_type


def _empty_of(expr: NRCExpr) -> NEmpty:
    typ = infer_type(expr)
    if not isinstance(typ, SetType):
        raise TypeMismatchError(f"expected a set-typed expression, got {typ}")
    return NEmpty(typ.elem)


def default_expr(typ: Type) -> Optional[NRCExpr]:
    """An NRC expression denoting ``default_value(typ)``, when one exists.

    ``Ur`` defaults are an arbitrary atom with no NRC constant, so types
    containing ``Ur`` outside a set constructor are not expressible.
    """
    if isinstance(typ, UnitType):
        return NUnit()
    if isinstance(typ, SetType):
        return NEmpty(typ.elem)
    if isinstance(typ, ProdType):
        left = default_expr(typ.left)
        right = default_expr(typ.right)
        if left is not None and right is not None:
            return NPair(left, right)
    return None


# ------------------------------------------------------------------- rules
# Every rule sees a node whose children are already simplified and returns a
# replacement or None.  Names appear in the per-run RewriteStats.


def _rule_proj_pair(expr: NRCExpr) -> Optional[NRCExpr]:
    """π_i(<l, r>) → l/r."""
    if isinstance(expr, NProj) and isinstance(expr.arg, NPair):
        return expr.arg.left if expr.index == 1 else expr.arg.right
    return None


def _rule_pair_eta(expr: NRCExpr) -> Optional[NRCExpr]:
    """<π1(e), π2(e)> → e for ``NBigUnion``-free ``e`` (surjective pairing).

    Restricted to binder-free ``e``: the rule erases one of two copies of
    ``e``, and contracting under duplicated binding unions could hide a
    rewrite opportunity the per-copy rules would have found first.
    """
    if (
        isinstance(expr, NPair)
        and isinstance(expr.left, NProj)
        and isinstance(expr.right, NProj)
        and expr.left.index == 1
        and expr.right.index == 2
        and expr.left.arg == expr.right.arg
        and not _has_bigunion(expr.left.arg)
    ):
        try:
            if isinstance(infer_type(expr.left.arg), ProdType):
                return expr.left.arg
        except TypeMismatchError:
            return None
    return None


def _rule_get_singleton(expr: NRCExpr) -> Optional[NRCExpr]:
    """get({e}) → e."""
    if isinstance(expr, NGet) and isinstance(expr.arg, NSingleton):
        return expr.arg.arg
    return None


def _rule_get_empty(expr: NRCExpr) -> Optional[NRCExpr]:
    """get(∅_T) → default_T, when the default value has an NRC spelling."""
    if isinstance(expr, NGet) and isinstance(expr.arg, NEmpty):
        return default_expr(expr.arg.elem_type)
    return None


def _rule_union_identity(expr: NRCExpr) -> Optional[NRCExpr]:
    """∅ ∪ e → e, e ∪ ∅ → e, e ∪ e → e."""
    if isinstance(expr, NUnion):
        if isinstance(expr.left, NEmpty):
            return expr.right
        if isinstance(expr.right, NEmpty):
            return expr.left
        if expr.left is expr.right or expr.left == expr.right:
            return expr.left
    return None


def _rule_diff_identity(expr: NRCExpr) -> Optional[NRCExpr]:
    """∅ \\ e → ∅, e \\ ∅ → e, e \\ e → ∅."""
    if isinstance(expr, NDiff):
        if isinstance(expr.left, NEmpty):
            return expr.left
        if isinstance(expr.right, NEmpty):
            return expr.left
        if expr.left is expr.right or expr.left == expr.right:
            return _empty_of(expr.left)
    return None


def _rule_bigunion_empty(expr: NRCExpr) -> Optional[NRCExpr]:
    """U{ body | x ∈ ∅ } → ∅ and U{ ∅ | x ∈ src } → ∅."""
    if isinstance(expr, NBigUnion):
        if isinstance(expr.source, NEmpty):
            return _empty_of(expr)
        if isinstance(expr.body, NEmpty):
            return NEmpty(expr.body.elem_type)
    return None


def _rule_bigunion_unit_source(expr: NRCExpr) -> Optional[NRCExpr]:
    """U{ body | x ∈ {()} } → body when x is not free in body.

    This replaces the seed's dead branch (its guard required an ``NSingleton``
    source *after* the generic singleton-substitution rule had already fired,
    so it could never be reached).  The Boolean-true source ``{()}`` is the
    common case produced by the ``and_expr``/``cond_set`` macros.
    """
    if (
        isinstance(expr, NBigUnion)
        and isinstance(expr.source, NSingleton)
        and isinstance(expr.source.arg, NUnit)
        and expr.var not in nrc_free_vars(expr.body)
    ):
        return expr.body
    return None


def _rule_bigunion_singleton_source(expr: NRCExpr) -> Optional[NRCExpr]:
    """U{ body | x ∈ {e} } → body[e/x]."""
    if isinstance(expr, NBigUnion) and isinstance(expr.source, NSingleton):
        return nrc_substitute(expr.body, {expr.var: expr.source.arg})
    return None


def _rule_bigunion_eta(expr: NRCExpr) -> Optional[NRCExpr]:
    """U{ {x} | x ∈ src } → src."""
    if isinstance(expr, NBigUnion) and isinstance(expr.body, NSingleton) and expr.body.arg == expr.var:
        return expr.source
    return None


def _rule_bigunion_flatten(expr: NRCExpr) -> Optional[NRCExpr]:
    """U{ U{ body | y ∈ inner } | x ∈ src } → U{ body | y ∈ U{ inner | x ∈ src } }.

    Sound whenever ``x`` is not free in ``body`` (monad associativity rotated
    so the outer binder moves onto the source).  If ``x`` occurs in ``body``
    it is bound by the inner binder only when ``x = y``, in which case the
    free-variable guard already rejects the rewrite.
    """
    if not (isinstance(expr, NBigUnion) and isinstance(expr.body, NBigUnion)):
        return None
    inner = expr.body
    if expr.var in nrc_free_vars(inner.body):
        return None
    if isinstance(expr.var.typ, UnitType) and _is_true(inner.body):
        return None  # g ∧ nonempty(X) stays a guard chain for the Boolean rules
    return NBigUnion(inner.body, inner.var, NBigUnion(inner.source, expr.var, expr.source))


# ------------------------------------------------------ Boolean set algebra
# Booleans are ``Set(Unit)`` values; the macros spell ``a = b`` as
# ``¬nonempty({a} \\ {b}) ∧ ¬nonempty({b} \\ {a})``, ``z ∈ S`` for a bound
# ``z`` as the scan ``U{ z' = z | z' ∈ S }`` and ``φ ∧ ψ`` as the guard
# ``U{ ψ | c ∈ φ }`` with a ``Unit`` binder ``c`` (see the module docstring).


def _is_true(expr: NRCExpr) -> bool:
    return isinstance(expr, NSingleton) and isinstance(expr.arg, NUnit)


def _is_guard(expr: NRCExpr) -> bool:
    """``U{ body | c ∈ g }`` with a ``Unit`` binder unused in ``body``: ``g → body``."""
    return (
        isinstance(expr, NBigUnion)
        and isinstance(expr.var.typ, UnitType)
        and expr.var not in nrc_free_vars(expr.body)
    )


#: Longest guard chain the Boolean rules analyse: longer chains are left to
#: the other rules, which keeps every rule's work per node bounded.
_MAX_CHAIN = 32


def _chain(expr: NRCExpr) -> Optional[Tuple[Tuple[NRCExpr, ...], NRCExpr]]:
    """Split ``g1 → (g2 → … → payload)`` into its Boolean guards and payload.

    Guards nested in guard sources are flattened too (``U{ψ | c ∈ φ}`` with
    Boolean ``ψ`` is ``φ ∧ ψ``), so every association of one conjunction
    yields the same list.  ``None`` for chains longer than ``_MAX_CHAIN``.
    """
    parts = _conjuncts(expr)
    return None if parts is None else (parts[:-1], parts[-1])


def _conjuncts(expr: NRCExpr) -> Optional[Tuple[NRCExpr, ...]]:
    """Guards and payload of ``expr``, left to right (cached per node)."""
    return cached_fold(expr, "_conjuncts", _conjuncts_combine) or None


def _conjuncts_combine(node: NRCExpr, child_parts: Tuple[tuple, ...]) -> tuple:
    # ``()`` marks a chain longer than the cap; children are (body, source).
    if not _is_guard(node):
        return (node,)
    body, source = child_parts
    if not body or not source or len(body) + len(source) > _MAX_CHAIN:
        return ()
    return source + body


def _build_chain(guards: Sequence[NRCExpr], payload: NRCExpr) -> NRCExpr:
    """``g1 → … → gk → payload``, left-nested like ``bigunion-flatten`` leaves it."""
    if not guards:
        return payload
    return and_expr(reduce(and_expr, guards), payload)


def _normal_guards(guards: Sequence[NRCExpr], payload: NRCExpr) -> Tuple[List[NRCExpr], NRCExpr]:
    """Drop true and repeated guards, and a true payload behind a guard."""
    kept: List[NRCExpr] = []
    for guard in guards:
        if not (_is_true(guard) or _same(guard, payload) or any(_same(guard, k) for k in kept)):
            kept.append(guard)
    if kept and _is_true(payload):
        payload = kept.pop()
    return kept, payload


def _eq_sides(boolean: NRCExpr) -> Optional[Tuple[NRCExpr, NRCExpr]]:
    """``(a, b)`` when ``boolean`` is ``{()} \\ U{ {()} | x ∈ ({a} \\ {b}) }``."""
    if not (isinstance(boolean, NDiff) and _is_true(boolean.left)):
        return None
    test = boolean.right
    if not (isinstance(test, NBigUnion) and _is_true(test.body)):
        return None
    diff = test.source
    if (
        isinstance(diff, NDiff)
        and isinstance(diff.left, NSingleton)
        and isinstance(diff.right, NSingleton)
    ):
        return diff.left.arg, diff.right.arg
    return None


def _member_source(boolean: NRCExpr, var: NVar) -> Optional[NRCExpr]:
    """``S`` when ``boolean`` is :func:`member_expr` ``(var, S)`` with ``var ∉ FV(S)``."""
    if not (isinstance(boolean, NBigUnion) and _is_true(boolean.body)):
        return None
    diff = boolean.source
    if not (isinstance(diff, NDiff) and isinstance(diff.right, NDiff)):
        return None
    single = diff.left
    if not (
        isinstance(single, NSingleton)
        and single.arg == var
        and diff.right.left == single
    ):
        return None
    collection = diff.right.right
    return None if var in nrc_free_vars(collection) else collection


def _structural_order(left: NRCExpr, right: NRCExpr) -> int:
    """A total order on expressions, stable across processes (-1, 0 or 1).

    Lexicographic on the pre-order sequence of (constructor, leaf fields):
    the constructor fixes the number of children, so the sequence determines
    the tree.  Runs without Python hashes or per-node rendering, iteratively,
    and stops at the first difference.
    """
    stack = [(left, right)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.__class__ is not b.__class__:
            return -1 if a.__class__.__name__ < b.__class__.__name__ else 1
        fields = _LEAF_FIELDS.get(a.__class__)
        if fields is not None:
            key_a, key_b = fields(a), fields(b)
            if key_a != key_b:
                key_a, key_b = (key_a[0], str(key_a[1])), (key_b[0], str(key_b[1]))
                return -1 if key_a < key_b else 1
        stack.extend(reversed(list(zip(a.children(), b.children()))))
    return 0


#: The fields besides the children, as (name or index, type).
_LEAF_FIELDS = {
    NVar: lambda expr: (expr.name, expr.typ),
    NBigUnion: lambda expr: (expr.var.name, expr.var.typ),
    NProj: lambda expr: (expr.index, None),
    NEmpty: lambda expr: (0, expr.elem_type),
}


def _same(left: NRCExpr, right: NRCExpr) -> bool:
    """Structural equality without recursion (trees may be deep)."""
    if left is right:
        return True
    return left.__class__ is right.__class__ and _structural_order(left, right) == 0


def _rule_eq_canon(expr: NRCExpr) -> Optional[NRCExpr]:
    """U{ e | x ∈ ({a} \\ {b}) } → U{ e | x ∈ ({b} \\ {a}) } for x ∉ FV(e), a > b.

    Both sources are non-empty exactly when ``a ≠ b``, and an ``e`` that
    ignores ``x`` only sees whether the source is empty.  Ordering the pair
    makes the two halves of the ``=`` macro one and the same test.
    """
    if not isinstance(expr, NBigUnion):
        return None
    diff = expr.source
    if not (
        isinstance(diff, NDiff)
        and isinstance(diff.left, NSingleton)
        and isinstance(diff.right, NSingleton)
        and _structural_order(diff.left.arg, diff.right.arg) > 0
        and expr.var not in nrc_free_vars(expr.body)
    ):
        return None
    return NBigUnion(expr.body, expr.var, NDiff(diff.right, diff.left))


def _rule_bigunion_idempotent(expr: NRCExpr) -> Optional[NRCExpr]:
    """U{ e | x ∈ e } → e for x ∉ FV(e): ``e`` if ``e`` is non-empty, else ∅ = e."""
    if (
        isinstance(expr, NBigUnion)
        and _same(expr.body, expr.source)
        and expr.var not in nrc_free_vars(expr.body)
    ):
        return expr.body
    return None


def _rule_and_dedupe(expr: NRCExpr) -> Optional[NRCExpr]:
    """g1 → … → gk → p with a repeated, true or payload-equal guard: drop it.

    Guards are Booleans, so ``g ∧ g = g``, ``true ∧ g = g``, ``g → g = g``
    and ``g → true = g``; re-association is free because ``∧`` is.
    """
    chain = _chain(expr) if _is_guard(expr) else None
    if chain is None:
        return None
    guards, payload = chain
    kept, kept_payload = _normal_guards(guards, payload)
    if len(kept) == len(guards) and kept_payload is payload:
        return None
    return _build_chain(kept, kept_payload)


def _rule_member_scan(expr: NRCExpr) -> Optional[NRCExpr]:
    """U{ (z = r) ∧ φ(z) → p(z) | z ∈ S } → (r ∈ S) ∧ φ(r) → p(r) for z ∉ FV(r).

    One-point rule: only ``z = r`` can contribute, and it is in ``S`` iff
    ``r ∈ S``.  The equality may be any guard of the body or, for a Boolean
    body, its payload.  Fires only when the result is no larger.
    """
    if not isinstance(expr, NBigUnion) or isinstance(expr.var.typ, UnitType):
        return None
    var = expr.var
    conjuncts = _conjuncts(expr.body)
    if conjuncts is None:
        return None
    last = len(conjuncts) - 1
    for index, conjunct in enumerate(conjuncts):
        sides = _eq_sides(conjunct)
        if sides is None:
            continue
        if sides[0] == var:
            other = sides[1]
        elif sides[1] == var:
            other = sides[0]
        else:
            continue
        if var in nrc_free_vars(other):
            continue
        rest = conjuncts[:index] + conjuncts[index + 1 :]
        if index == last:  # the equality was the (Boolean) payload
            rest += (true_expr(),)
        rest = [nrc_substitute(part, {var: other}) for part in rest]
        kept, new_payload = _normal_guards([member_expr(other, expr.source)] + rest[:-1], rest[-1])
        candidate = _build_chain(kept, new_payload)
        # Substituting a variable for ``z`` cannot grow the expression.
        if isinstance(other, NVar) or expr_size(candidate) <= expr_size(expr):
            return candidate
        return None
    return None


# A guard over the filtered element ``r`` as a tiny formula tree: tuples
# ("true",), ("false",), ("in", S), ("not", f), ("or", f, g), ("and", [f…]).
_Guard = tuple

#: Node budget of one guard formula: translation recurses, and the budget
#: keeps it far from the interpreter's recursion limit.
_GUARD_BUDGET = 256


def _guard_formula(boolean: NRCExpr, var: NVar, budget: List[int]) -> Optional[_Guard]:
    budget[0] -= 1
    if budget[0] < 0:
        return None
    if _is_true(boolean):
        return ("true",)
    if isinstance(boolean, NEmpty):
        return ("false",)
    if isinstance(boolean, NUnion):
        left = _guard_formula(boolean.left, var, budget)
        right = _guard_formula(boolean.right, var, budget) if left is not None else None
        return None if right is None else ("or", left, right)
    if isinstance(boolean, NDiff):
        right = _guard_formula(boolean.right, var, budget)
        if right is None:
            return None
        if _is_true(boolean.left):
            return ("not", right)
        left = _guard_formula(boolean.left, var, budget)
        return None if left is None else ("and", [left, ("not", right)])
    if _is_guard(boolean):
        conjuncts = _conjuncts(boolean)
        return None if conjuncts is None else _guard_conjunction(conjuncts, var, budget)
    collection = _member_source(boolean, var)
    return None if collection is None else ("in", collection)


def _guard_conjunction(booleans: Sequence[NRCExpr], var: NVar, budget: List[int]) -> Optional[_Guard]:
    parts = []
    for boolean in booleans:
        part = _guard_formula(boolean, var, budget)
        if part is None:
            return None
        parts.append(part)
    return ("and", parts)


def _union_spine(expr: NRCExpr) -> List[NRCExpr]:
    """The operands of a (nested) union, left to right."""
    operands: List[NRCExpr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, NUnion):
            stack.append(node.right)
            stack.append(node.left)
        else:
            operands.append(node)
    return operands


def _spine_subset(part: NRCExpr, whole: NRCExpr) -> bool:
    """Whether every union operand of ``part`` is one of ``whole`` (so part ⊆ whole)."""
    operands = _union_spine(whole)
    return all(
        any(_same(operand, candidate) for candidate in operands) for operand in _union_spine(part)
    )


def _select(source: NRCExpr, guard: _Guard, keep: bool, elem_type: Type) -> NRCExpr:
    """``{ r ∈ source | guard }`` (``keep``) or ``{ r ∈ source | ¬guard }``."""
    kind = guard[0]
    if kind == "true" or kind == "false":
        return source if (kind == "true") == keep else NEmpty(elem_type)
    if kind == "not":
        return _select(source, guard[1], not keep, elem_type)
    if kind == "in":
        if not keep:
            return NDiff(source, guard[1])
        if _spine_subset(guard[1], source):
            return guard[1]
        return NDiff(source, NDiff(source, guard[1]))
    if kind == "or":
        either = NUnion(
            _select(source, guard[1], True, elem_type), _select(source, guard[2], True, elem_type)
        )
        return either if keep else NDiff(source, either)
    parts = list(guard[1])
    if len(parts) == 1:
        return _select(source, parts[0], keep, elem_type)
    # {r ∈ T | r ∈ S ∧ ψ} = {r ∈ S | ψ} when S ⊆ T: narrow the source first.
    for index, part in enumerate(parts):
        if part[0] == "in" and _spine_subset(part[1], source):
            rest = parts[:index] + parts[index + 1 :]
            narrowed = _select(part[1], ("and", rest), True, elem_type)
            return narrowed if keep else NDiff(source, narrowed)
    # De Morgan: T \ ((T \ S1) ∪ … ∪ (T \ Sk)) stays linear in k.
    rejected = reduce(NUnion, [_select(source, part, False, elem_type) for part in parts])
    return NDiff(source, rejected) if keep else rejected


def _rule_filter_to_setops(expr: NRCExpr) -> Optional[NRCExpr]:
    """U{ G(r) → {r} | r ∈ T } → ∩/∪/\\ on T, for G over r ∈ S, ∪, ∧, ¬, {()}.

    ``{r ∈ T | r ∈ S} = T ∩ S`` (or ``S`` when ``S`` is a union operand of
    ``T``), and the connectives map to the set operations pointwise.  Fires
    only when the result is no larger.
    """
    if not isinstance(expr, NBigUnion):
        return None
    chain = _chain(expr.body)
    if chain is None:
        return None
    guards, payload = chain
    if not guards or not (isinstance(payload, NSingleton) and payload.arg == expr.var):
        return None
    guard = _guard_conjunction(guards, expr.var, [_GUARD_BUDGET])
    if guard is None:
        return None
    candidate = _select(expr.source, guard, True, expr.var.typ)
    if expr_size(candidate) <= expr_size(expr):
        return candidate
    return None


def _rule_diff_absorb(expr: NRCExpr) -> Optional[NRCExpr]:
    """T \\ (T \\ S) → S when S ⊆ T.

    ``S ⊆ T`` holds when S's union operands are all operands of T, and for
    every Boolean S when T is ``{()}`` (so ``¬¬b → b``).
    """
    if (
        isinstance(expr, NDiff)
        and isinstance(expr.right, NDiff)
        and _same(expr.right.left, expr.left)
        and (_is_true(expr.left) or _spine_subset(expr.right.right, expr.left))
    ):
        return expr.right.right
    return None


def _has_bigunion(expr: NRCExpr) -> bool:
    """Whether the subtree contains an ``NBigUnion`` (cached per node)."""
    return cached_fold(expr, "_has_bigu", _has_bigunion_combine)


def _has_bigunion_combine(node, child_values) -> bool:
    return isinstance(node, NBigUnion) or any(child_values)


_RULES: Tuple[Tuple[str, object, object], ...] = (
    ("proj-pair", NProj, _rule_proj_pair),
    ("pair-eta", NPair, _rule_pair_eta),
    ("get-singleton", NGet, _rule_get_singleton),
    ("get-empty", NGet, _rule_get_empty),
    ("union-identity", NUnion, _rule_union_identity),
    ("diff-identity", NDiff, _rule_diff_identity),
    ("diff-absorb", NDiff, _rule_diff_absorb),
    ("bigunion-empty", NBigUnion, _rule_bigunion_empty),
    ("bigunion-unit-source", NBigUnion, _rule_bigunion_unit_source),
    ("bigunion-singleton-source", NBigUnion, _rule_bigunion_singleton_source),
    ("bigunion-eta", NBigUnion, _rule_bigunion_eta),
    ("eq-canon", NBigUnion, _rule_eq_canon),
    ("bigunion-idempotent", NBigUnion, _rule_bigunion_idempotent),
    ("and-dedupe", NBigUnion, _rule_and_dedupe),
    ("member-scan", NBigUnion, _rule_member_scan),
    ("filter-to-setops", NBigUnion, _rule_filter_to_setops),
    ("bigunion-flatten", NBigUnion, _rule_bigunion_flatten),
)


def simplifier_fingerprint() -> str:
    """A digest of the rule names, in order, that :func:`simplify` runs.

    Persisted definitions carry it: one simplified by another rule set is
    stale (it may be a comprehension today's rules fold into set algebra).
    """
    return hashlib.sha256("|".join(name for name, _, _ in _RULES).encode("utf-8")).hexdigest()


def make_engine(max_passes: int = 50) -> RewriteEngine:
    """A fresh rewrite engine with the standard NRC simplification rules."""
    return RewriteEngine(_RULES, max_passes=max_passes, name="nrc-simplify")


_ENGINE = make_engine()


def simplify(expr: NRCExpr, max_rounds: int = 50) -> NRCExpr:
    """Simplify ``expr`` by repeated bottom-up rewriting (semantics-preserving)."""
    if max_rounds == _ENGINE.max_passes:
        return _ENGINE.run(expr)
    return make_engine(max_passes=max_rounds).run(expr)


def simplify_with_stats(expr: NRCExpr, max_rounds: int = 50) -> Tuple[NRCExpr, RewriteStats]:
    """Like :func:`simplify`, returning the per-run rewrite statistics."""
    engine = make_engine(max_passes=max_rounds)
    return engine.run_with_stats(expr)
