"""The paper's worked examples and additional example specifications.

Every function returns an :class:`ImplicitDefinitionProblem` (or a
:class:`ViewRewritingProblem`) ready to be handed to proof search and the
synthesis pipeline:

* :func:`example_4_1`     — the lossless flatten view of Example 4.1: the
  flattening view of a key/non-empty nested relation determines the relation
  itself (the identity query).
* :func:`example_1_1`     — Example 1.1: the flattening view of a keyed
  nested relation determines the selection query
  ``{b ∈ B | π1(b) ∈̂ π2(b)}``.
* :func:`identity_view`, :func:`union_view`, :func:`intersection_view`,
  :func:`selection_view`  — flat / simple nested determinacy problems used as
  smoke tests and benchmark baselines.
* :func:`pair_of_views`, :func:`unique_element` — non-set output types
  (product / Ur), exercising the Appendix G cases of Theorem 2.
* :func:`copy_chain`      — a scaling family: a chain of ``n`` equivalences.

Parametric scenario families (consumed by the service-layer problem registry,
:mod:`repro.service.registry`) scale the flat determinacy patterns to wider
specifications and come with instance-family builders for semantic
verification sweeps:

* :func:`multi_union_view` / :func:`multi_intersection_view` — ``O ≡ V1 ∪ … ∪
  Vk`` and ``O ≡ V1 ∩ … ∩ Vk`` over ``k`` views;
* :func:`pair_tower`      — a right-nested product output ``O ≡ <V1, <V2, …>>``
  (recursive Appendix G products);
* :func:`union_minus_view` — ``O ≡ (V1 ∪ V2) \\ V3``, mixing positive and
  negative membership in the soundness conjunct.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.logic.formulas import And, Exists, Forall, Formula, Top, conj, disj
from repro.logic.macros import equivalent, implies, member_hat, not_member_hat
from repro.logic.terms import Term, Var, proj1, proj2
from repro.nr.types import UR, Type, prod, set_of
from repro.nr.values import PairValue, SetValue, Value, pair, tuple_value, ur, vset
from repro.specs.problems import ImplicitDefinitionProblem

#: Types used by Examples 1.1 / 4.1.
NESTED_PAIR = prod(UR, set_of(UR))
NESTED_REL = set_of(NESTED_PAIR)
FLAT_PAIR_REL = set_of(prod(UR, UR))


# --------------------------------------------------------------------- 4.1
def flatten_view_conjuncts(base: Var, view: Var) -> Tuple[Formula, Formula]:
    """The conjuncts ``C1(B, V)`` and ``C2(B, V)`` of Example 4.1.

    ``C1``: every pair of the view comes from the base;
    ``C2``: every (key, element) pair of the base appears in the view.
    """
    v = Var("v", prod(UR, UR))
    b = Var("b", NESTED_PAIR)
    e = Var("e", UR)
    c1 = Forall(
        v,
        view,
        Exists(b, base, And(_eq(proj1(v), proj1(b)), member_hat(proj2(v), proj2(b)))),
    )
    c2 = Forall(
        b,
        base,
        Forall(e, proj2(b), Exists(v, view, And(_eq(proj1(v), proj1(b)), _eq(proj2(v), e)))),
    )
    return c1, c2


def lossless_constraints(base: Var) -> Tuple[Formula, Formula]:
    """``Σ_lossless(B)``: the first component is a key and the second is non-empty."""
    b = Var("b", NESTED_PAIR)
    b2 = Var("b2", NESTED_PAIR)
    e = Var("e", UR)
    key = Forall(b, base, Forall(b2, base, implies(_eq(proj1(b), proj1(b2)), equivalent(b, b2))))
    non_empty = Forall(b, base, Exists(e, proj2(b), Top()))
    return key, non_empty


def example_4_1() -> ImplicitDefinitionProblem:
    """Example 4.1: ``Σ(B,V) ∧ Σ_lossless(B)`` implicitly defines ``B`` in terms of ``V``."""
    base = Var("B", NESTED_REL)
    view = Var("V", FLAT_PAIR_REL)
    c1, c2 = flatten_view_conjuncts(base, view)
    key, non_empty = lossless_constraints(base)
    phi = conj([c1, c2, key, non_empty])
    return ImplicitDefinitionProblem(
        name="example_4_1_lossless_flatten",
        phi=phi,
        inputs=(view,),
        output=base,
        auxiliaries=(),
    )


def example_1_1() -> ImplicitDefinitionProblem:
    """Example 1.1: the flatten view of a keyed nested relation determines
    the query ``Q = {b ∈ B | π1(b) ∈̂ π2(b)}``."""
    base = Var("B", NESTED_REL)
    view = Var("V", FLAT_PAIR_REL)
    query = Var("Q", NESTED_REL)
    c1, c2 = flatten_view_conjuncts(base, view)
    key, _ = lossless_constraints(base)
    q = Var("q", NESTED_PAIR)
    b = Var("b", NESTED_PAIR)
    query_sound = Forall(q, query, And(member_hat(q, base), member_hat(proj1(q), proj2(q))))
    query_complete = Forall(b, base, implies(member_hat(proj1(b), proj2(b)), member_hat(b, query)))
    phi = conj([c1, c2, key, query_sound, query_complete])
    return ImplicitDefinitionProblem(
        name="example_1_1_selection_over_flatten",
        phi=phi,
        inputs=(view,),
        output=query,
        auxiliaries=(base,),
    )


# ----------------------------------------------------------- simple examples
def identity_view(elem_type=UR) -> ImplicitDefinitionProblem:
    """The view is (extensionally) the base itself; it determines the base."""
    base = Var("B", set_of(elem_type))
    view = Var("V", set_of(elem_type))
    phi = equivalent(view, base)
    return ImplicitDefinitionProblem("identity_view", phi, (view,), base)


def union_view() -> ImplicitDefinitionProblem:
    """``o ≡ V1 ∪ V2`` — the output is determined by the two views."""
    v1 = Var("V1", set_of(UR))
    v2 = Var("V2", set_of(UR))
    out = Var("O", set_of(UR))
    z = Var("z", UR)
    sound = Forall(z, out, _or(member_hat(z, v1), member_hat(z, v2)))
    complete1 = Forall(z, v1, member_hat(z, out))
    complete2 = Forall(z, v2, member_hat(z, out))
    phi = conj([sound, complete1, complete2])
    return ImplicitDefinitionProblem("union_view", phi, (v1, v2), out)


def intersection_view() -> ImplicitDefinitionProblem:
    """``o ≡ V1 ∩ V2``."""
    v1 = Var("V1", set_of(UR))
    v2 = Var("V2", set_of(UR))
    out = Var("O", set_of(UR))
    z = Var("z", UR)
    sound = Forall(z, out, And(member_hat(z, v1), member_hat(z, v2)))
    complete = Forall(z, v1, implies(member_hat(z, v2), member_hat(z, out)))
    phi = conj([sound, complete])
    return ImplicitDefinitionProblem("intersection_view", phi, (v1, v2), out)


def selection_view() -> ImplicitDefinitionProblem:
    """Segoufin–Vianu flavoured flat example: an identity view ``V ≡ R``
    determines the selection ``Q = {r ∈ R | π1(r) = π2(r)}``."""
    base = Var("R", FLAT_PAIR_REL)
    view = Var("V", FLAT_PAIR_REL)
    query = Var("Q", FLAT_PAIR_REL)
    r = Var("r", prod(UR, UR))
    q = Var("q", prod(UR, UR))
    view_def = equivalent(view, base)
    sound = Forall(q, query, And(member_hat(q, base), _eq(proj1(q), proj2(q))))
    complete = Forall(r, base, implies(_eq(proj1(r), proj2(r)), member_hat(r, query)))
    phi = conj([view_def, sound, complete])
    return ImplicitDefinitionProblem("selection_view", phi, (view,), query, auxiliaries=(base,))


def pair_of_views() -> ImplicitDefinitionProblem:
    """A product-typed output ``o ≡ <V1, V2>`` (Appendix G, product case)."""
    v1 = Var("V1", set_of(UR))
    v2 = Var("V2", set_of(UR))
    out = Var("O", prod(set_of(UR), set_of(UR)))
    phi = And(equivalent(proj1(out), v1), equivalent(proj2(out), v2))
    return ImplicitDefinitionProblem("pair_of_views", phi, (v1, v2), out)


def unique_element() -> ImplicitDefinitionProblem:
    """An Ur-typed output: ``o`` is the unique element of the singleton view
    (Appendix G, Ur case — the synthesized definition uses ``get``)."""
    view = Var("V", set_of(UR))
    out = Var("o", UR)
    z = Var("z", UR)
    phi = And(member_hat(out, view), Forall(z, view, _eq(z, out)))
    return ImplicitDefinitionProblem("unique_element", phi, (view,), out)


# ------------------------------------------------------ parametric families
def _view_vars(width: int) -> List[Var]:
    if width < 2:
        raise ValueError("scenario families need at least two views")
    return [Var(f"V{i}", set_of(UR)) for i in range(1, width + 1)]


def multi_union_view(width: int) -> ImplicitDefinitionProblem:
    """``O ≡ V1 ∪ … ∪ V_width`` — the union family scaled to ``width`` views."""
    views = _view_vars(width)
    out = Var("O", set_of(UR))
    z = Var("z", UR)
    sound = Forall(z, out, disj([member_hat(z, view) for view in views]))
    completes = [Forall(z, view, member_hat(z, out)) for view in views]
    return ImplicitDefinitionProblem(
        f"union_of_{width}_views", conj([sound] + completes), tuple(views), out
    )


def multi_intersection_view(width: int) -> ImplicitDefinitionProblem:
    """``O ≡ V1 ∩ … ∩ V_width`` — the intersection family scaled to ``width``."""
    views = _view_vars(width)
    out = Var("O", set_of(UR))
    z = Var("z", UR)
    sound = Forall(z, out, conj([member_hat(z, view) for view in views]))
    rest = conj([member_hat(z, view) for view in views[1:]])
    complete = Forall(z, views[0], implies(rest, member_hat(z, out)))
    return ImplicitDefinitionProblem(
        f"intersection_of_{width}_views", And(sound, complete), tuple(views), out
    )


def pair_tower(width: int) -> ImplicitDefinitionProblem:
    """``O ≡ <V1, <V2, …>>`` — a right-nested product of ``width`` views.

    Exercises the recursive Appendix G product synthesis: each component is
    re-synthesized against the specification with the sibling component as an
    auxiliary, ``width - 1`` levels deep.
    """
    views = _view_vars(width)
    out_typ: Type = set_of(UR)
    for _ in range(width - 1):
        out_typ = prod(set_of(UR), out_typ)
    out = Var("O", out_typ)
    conjuncts: List[Formula] = []
    term: Term = out
    for view in views[:-1]:
        conjuncts.append(equivalent(proj1(term), view))
        term = proj2(term)
    conjuncts.append(equivalent(term, views[-1]))
    return ImplicitDefinitionProblem(f"pair_tower_{width}", conj(conjuncts), tuple(views), out)


def union_minus_view() -> ImplicitDefinitionProblem:
    """``O ≡ (V1 ∪ V2) \\ V3`` — union and difference in one specification."""
    v1, v2, v3 = _view_vars(3)
    out = Var("O", set_of(UR))
    z = Var("z", UR)
    sound = Forall(
        z,
        out,
        And(_or(member_hat(z, v1), member_hat(z, v2)), not_member_hat(z, v3)),
    )
    complete1 = Forall(z, v1, implies(not_member_hat(z, v3), member_hat(z, out)))
    complete2 = Forall(z, v2, implies(not_member_hat(z, v3), member_hat(z, out)))
    return ImplicitDefinitionProblem(
        "union_minus_view", conj([sound, complete1, complete2]), (v1, v2, v3), out
    )


# ------------------------------------------- instance families for scenarios
def _scenario_view_values(width: int, scale: int) -> List[List[SetValue]]:
    """Per-row view values drawn from a small atom universe (heavy sharing).

    Rows deliberately reuse atoms, so inputs repeat across a family and the
    verification filters see equal values in different rows.
    """
    rows = []
    for index in range(scale):
        row = []
        for view_index in range(width):
            size = (index + view_index) % 4
            row.append(vset([ur((index * (view_index + 2) + j) % 7) for j in range(size)]))
        rows.append(row)
    return rows


def multi_union_view_instances(width: int, scale: int) -> List[Dict[Var, Value]]:
    """``scale`` satisfying assignments of :func:`multi_union_view`."""
    problem = multi_union_view(width)
    assignments = []
    for row in _scenario_view_values(width, scale):
        union: frozenset = frozenset()
        for value in row:
            union |= value.elements
        assignment = dict(zip(problem.inputs, row))
        assignment[problem.output] = SetValue(union)
        assignments.append(assignment)
    return assignments


def multi_intersection_view_instances(width: int, scale: int) -> List[Dict[Var, Value]]:
    """``scale`` satisfying assignments of :func:`multi_intersection_view`.

    A shared core is unioned into every view so the intersections are
    non-trivial on most rows.
    """
    problem = multi_intersection_view(width)
    assignments = []
    for index, row in enumerate(_scenario_view_values(width, scale)):
        core = frozenset(ur(j) for j in range(index % 3))
        row = [SetValue(value.elements | core) for value in row]
        intersection = row[0].elements
        for value in row[1:]:
            intersection &= value.elements
        assignment = dict(zip(problem.inputs, row))
        assignment[problem.output] = SetValue(intersection)
        assignments.append(assignment)
    return assignments


def pair_tower_instances(width: int, scale: int) -> List[Dict[Var, Value]]:
    """``scale`` satisfying assignments of :func:`pair_tower`."""
    problem = pair_tower(width)
    assignments = []
    for row in _scenario_view_values(width, scale):
        assignment = dict(zip(problem.inputs, row))
        assignment[problem.output] = tuple_value(*row)
        assignments.append(assignment)
    return assignments


def union_minus_view_instances(scale: int) -> List[Dict[Var, Value]]:
    """``scale`` satisfying assignments of :func:`union_minus_view`."""
    problem = union_minus_view()
    assignments = []
    for row in _scenario_view_values(3, scale):
        v1, v2, v3 = row
        assignment = dict(zip(problem.inputs, row))
        assignment[problem.output] = SetValue((v1.elements | v2.elements) - v3.elements)
        assignments.append(assignment)
    return assignments


def identity_view_instances(scale: int) -> List[Dict[Var, Value]]:
    """``scale`` satisfying assignments of :func:`identity_view`."""
    problem = identity_view()
    assignments = []
    for index in range(scale):
        value = vset([ur(j % 6) for j in range(index % 5)])
        assignments.append({problem.inputs[0]: value, problem.output: value})
    return assignments


def unique_element_instances(scale: int) -> List[Dict[Var, Value]]:
    """``scale`` satisfying assignments of :func:`unique_element`."""
    problem = unique_element()
    assignments = []
    for index in range(scale):
        atom = ur(index % 9)
        assignments.append({problem.inputs[0]: vset([atom]), problem.output: atom})
    return assignments


def copy_chain_instances(length: int, scale: int) -> List[Dict[Var, Value]]:
    """``scale`` satisfying assignments of :func:`copy_chain`: all copies equal."""
    problem = copy_chain(length)
    assignments = []
    for index in range(scale):
        value = vset([ur(j % 7) for j in range(index % 4)])
        assignment: Dict[Var, Value] = {problem.inputs[0]: value, problem.output: value}
        for aux in problem.auxiliaries:
            assignment[aux] = value
        assignments.append(assignment)
    return assignments


def example_4_1_instances(scale: int) -> List[Dict[Var, Value]]:
    """``scale`` satisfying assignments of :func:`example_4_1` (growing rows)."""
    return [
        example_4_1_instance(
            {f"k{k}": tuple(range(k, k + 1 + (index + k) % 2)) for k in range(1 + index % 3)}
        )
        for index in range(scale)
    ]


def example_1_1_instances(scale: int) -> List[Dict[Var, Value]]:
    """``scale`` satisfying assignments of :func:`example_1_1`."""
    return [
        example_1_1_instance(
            {f"k{k}": ((k, f"k{k}") if (index + k) % 2 else (k,)) for k in range(index % 4)}
        )
        for index in range(scale)
    ]


def copy_chain(length: int) -> ImplicitDefinitionProblem:
    """A scaling family: ``A1 ≡ I, A2 ≡ A1, ..., A_n ≡ A_{n-1}``; the last copy
    is implicitly defined by ``I``.  Proof size grows linearly with ``length``."""
    if length < 1:
        raise ValueError("length must be at least 1")
    source = Var("I", set_of(UR))
    copies = [Var(f"A{i}", set_of(UR)) for i in range(1, length + 1)]
    conjuncts: List[Formula] = [equivalent(copies[0], source)]
    for previous, current in zip(copies, copies[1:]):
        conjuncts.append(equivalent(current, previous))
    phi = conj(conjuncts)
    return ImplicitDefinitionProblem(
        name=f"copy_chain_{length}",
        phi=phi,
        inputs=(source,),
        output=copies[-1],
        auxiliaries=tuple(copies[:-1]),
    )


# --------------------------------------------------------------- instances
def flatten_value(base: SetValue) -> SetValue:
    """The ground-truth flattening of a nested relation (Example 1.1's view)."""
    pairs = []
    for element in base.elements:
        key = element.first
        for member in element.second.elements:
            pairs.append(PairValue(key, member))
    return SetValue(frozenset(pairs))


def selection_value(base: SetValue) -> SetValue:
    """Ground truth for Example 1.1's query: pairs whose key occurs in their set."""
    return SetValue(frozenset(e for e in base.elements if e.first in e.second.elements))


def example_4_1_instance(rows: Mapping[object, Tuple[object, ...]]) -> Dict[Var, Value]:
    """Build a satisfying assignment for Example 4.1 from ``key -> elements`` data.

    Every value set must be non-empty (the lossless constraint).
    """
    base_elements = []
    for key, elements in rows.items():
        if not elements:
            raise ValueError("example_4_1 instances require non-empty element sets")
        base_elements.append(pair(ur(key), vset([ur(e) for e in elements])))
    base_value = vset(base_elements)
    view_value = flatten_value(base_value)
    return {Var("B", NESTED_REL): base_value, Var("V", FLAT_PAIR_REL): view_value}


def example_1_1_instance(rows: Mapping[object, Tuple[object, ...]]) -> Dict[Var, Value]:
    """A satisfying assignment for Example 1.1 (empty element sets allowed)."""
    base_elements = [pair(ur(key), vset([ur(e) for e in elements])) for key, elements in rows.items()]
    base_value = vset(base_elements)
    return {
        Var("B", NESTED_REL): base_value,
        Var("V", FLAT_PAIR_REL): flatten_value(base_value),
        Var("Q", NESTED_REL): selection_value(base_value),
    }


# ------------------------------------------------------------------ helpers
def _eq(left, right) -> Formula:
    from repro.logic.formulas import EqUr

    return EqUr(left, right)


def _or(left: Formula, right: Formula) -> Formula:
    from repro.logic.formulas import Or

    return Or(left, right)


ALL_SET_OUTPUT_EXAMPLES = (
    identity_view,
    union_view,
    intersection_view,
    selection_view,
    example_4_1,
    example_1_1,
)
