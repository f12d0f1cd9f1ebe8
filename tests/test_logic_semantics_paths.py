"""Unit tests for Δ0 semantics, typechecking, paths and general models."""

import pytest
from general_models import (
    GeneralModel,
    collapse_to_instance,
    model_from_values,
)

from repro.errors import EvaluationError, FormulaError, TypeMismatchError
from repro.logic.formulas import And, EqUr, Exists, Forall, Member, Top
from repro.logic.free_vars import FreshNames
from repro.logic.macros import equivalent, member_hat
from repro.logic.paths import (
    all_subtype_paths,
    exists_prefix_for_path,
    path_exists,
    path_forall,
    quantifiable_paths,
    subtype_at,
)
from repro.logic.semantics import eval_formula, eval_term
from repro.logic.terms import PairTerm, Proj, UnitTerm, Var, proj1, proj2
from repro.logic.typecheck import check_formula
from repro.nr.types import UR, prod, set_of
from repro.nr.values import pair, ur, unit, vset


def test_eval_term_basic():
    x = Var("x", prod(UR, UR))
    env = {x: pair(ur(1), ur(2))}
    assert eval_term(proj1(x), env) == ur(1)
    assert eval_term(proj2(x), env) == ur(2)
    assert eval_term(UnitTerm(), env) == unit()
    assert eval_term(PairTerm(proj2(x), proj1(x)), env) == pair(ur(2), ur(1))


def test_eval_term_errors():
    with pytest.raises(EvaluationError):
        eval_term(Var("missing", UR), {})
    x = Var("x", prod(UR, UR))
    with pytest.raises(EvaluationError):
        eval_term(proj1(x), {x: ur(1)})


def test_eval_formula_quantifiers():
    s = Var("S", set_of(UR))
    x = Var("x", UR)
    y = Var("y", UR)
    env = {s: vset([ur(1), ur(2)]), y: ur(2)}
    assert eval_formula(Exists(x, s, EqUr(x, y)), env)
    assert not eval_formula(Forall(x, s, EqUr(x, y)), env)
    assert eval_formula(Forall(x, s, Exists(Var("z", UR), s, EqUr(x, Var("z", UR)))), env)


def test_eval_membership_literal():
    s = Var("S", set_of(UR))
    x = Var("x", UR)
    env = {s: vset([ur(1)]), x: ur(1)}
    assert eval_formula(Member(x, s), env)
    assert eval_formula(And(Member(x, s), Top()), env)


def test_check_formula_rejects_bad_shapes():
    x = Var("x", UR)
    s = Var("s", set_of(UR))
    with pytest.raises(TypeMismatchError):
        check_formula(EqUr(x, s))
    with pytest.raises(TypeMismatchError):
        check_formula(Exists(Var("y", set_of(UR)), s, Top()))
    with pytest.raises(TypeMismatchError):
        check_formula(Exists(x, x, Top()))
    with pytest.raises(FormulaError):
        check_formula(Member(x, s), allow_membership=False)
    check_formula(Member(x, s))
    check_formula(Forall(x, s, EqUr(x, x)), allow_membership=False)


def test_subtype_at_and_enumeration():
    typ = set_of(prod(UR, set_of(UR)))
    assert subtype_at(typ, "") == typ
    assert subtype_at(typ, "m") == prod(UR, set_of(UR))
    assert subtype_at(typ, "m1") == UR
    assert subtype_at(typ, "m2m") == UR
    with pytest.raises(TypeMismatchError):
        subtype_at(typ, "1")
    with pytest.raises(FormulaError):
        subtype_at(typ, "x")
    paths = set(all_subtype_paths(typ))
    assert {"", "m", "m1", "m2", "m2m"} == paths
    assert set(quantifiable_paths(typ)) == {"m", "m2m"}


def test_path_exists_simple_and_nested():
    B = Var("B", set_of(prod(UR, set_of(UR))))
    z = Var("z", UR)
    # exists z in_{m2m} B . z = z  ==  exists p in B . exists z in pi2(p). z = z
    phi = path_exists(z, "m2m", B, EqUr(z, z))
    check_formula(phi, allow_membership=False)
    env = {B: vset([pair(ur("k"), vset([ur(1)]))])}
    assert eval_formula(phi, env)
    env_empty = {B: vset([pair(ur("k"), vset([]))])}
    assert not eval_formula(phi, env_empty)

    # forall variant: fails on a non-empty inner set, holds vacuously on empty
    from repro.logic.formulas import NeqUr

    psi = path_forall(z, "m2m", B, NeqUr(z, z))
    assert not eval_formula(psi, env)
    assert eval_formula(psi, env_empty)


def test_path_exists_empty_path_substitutes():
    o = Var("o", set_of(UR))
    r = Var("rprime", set_of(UR))
    body = equivalent(Var("r", set_of(UR)), r)
    phi = path_exists(r, "", o, body)
    assert phi == equivalent(Var("r", set_of(UR)), o)


def test_path_quantifier_type_mismatch():
    B = Var("B", set_of(UR))
    z = Var("z", set_of(UR))
    with pytest.raises(TypeMismatchError):
        path_exists(z, "m", B, Top())


def test_exists_prefix_for_path():
    B = Var("B", set_of(prod(UR, set_of(UR))))
    fresh = FreshNames(["B"])
    steps, innermost = exists_prefix_for_path("m2m", B, fresh)
    assert len(steps) == 2
    first_var, first_bound = steps[0]
    second_var, second_bound = steps[1]
    assert first_bound == B
    assert second_bound == Proj(2, first_var)
    assert innermost == second_var


def test_general_model_in_vs_hat_in_distinction():
    """x ∈ y, x ∈ y' ⊨ ∃z∈y. z∈y'   but the ∈̂ variant fails (Section 3)."""
    set_ur = set_of(UR)
    model = GeneralModel()
    ur1 = model.add_element(UR, "a")
    ur2 = model.add_element(UR, "b")
    y1 = model.add_element(set_ur, "y")
    y2 = model.add_element(set_ur, "y2")
    # y1 = {ur1}, y2 = {ur2}: extensionally different elements, but we make
    # ur1 and ur2 "equal up to extensionality"?  They are Ur elements so they
    # are simply distinct.  Instead the ∈̂ premise is satisfied by two
    # *distinct* set elements with equivalent members.
    model.set_members(set_ur, y1, [ur1])
    model.set_members(set_ur, y2, [ur2])
    x = Var("x", UR)
    yv = Var("y", set_ur)
    yv2 = Var("y2", set_ur)
    z = Var("z", UR)
    conclusion = Exists(z, yv, Member(z, yv2))
    # Primitive membership premises force a shared member, conclusion holds.
    env = {x: ur1, yv: y1, yv2: y1}
    assert model.eval_formula(Member(x, yv), env)
    assert model.eval_formula(conclusion, env)
    # With ∈̂ premises over *different* containers the conclusion can fail:
    env2 = {x: ur1, yv: y1, yv2: y2}
    hat_premise_left = member_hat(x, yv)
    assert model.eval_formula(hat_premise_left, env2)
    assert not model.eval_formula(conclusion, env2)


def test_model_from_values_round_trip_and_extensionality():
    B = Var("B", set_of(prod(UR, set_of(UR))))
    value = vset([pair(ur("k"), vset([ur(1), ur(2)]))])
    model, env = model_from_values({B: value})
    assert model.is_extensional()
    b = Var("b", prod(UR, set_of(UR)))
    phi = Exists(b, B, EqUr(proj1(b), proj1(b)))
    assert model.eval_formula(phi, env)
    collapsed = collapse_to_instance(model, env)
    assert collapsed[B] == value


def test_non_extensional_model_detection():
    set_ur = set_of(UR)
    model = GeneralModel()
    a = model.add_element(UR, "a")
    s1 = model.add_element(set_ur)
    s2 = model.add_element(set_ur)
    model.set_members(set_ur, s1, [a])
    model.set_members(set_ur, s2, [a])
    assert not model.is_extensional()
