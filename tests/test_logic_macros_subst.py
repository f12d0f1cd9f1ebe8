"""Unit tests for macros, free variables and substitution."""

import pytest

from repro.core.node import walk
from repro.errors import TypeMismatchError
from repro.logic.formulas import And, EqUr, Exists, Forall, NeqUr, Or, Top
from repro.logic.free_vars import (
    FreshNames,
    free_vars,
    fresh_var,
    rename_bound,
    replace_term,
    substitute,
    substitute_many,
    substitute_term,
)
from repro.logic.macros import (
    equivalent,
    iff,
    implies,
    member_hat,
    member_literal,
    negate,
    not_equivalent,
    not_member_hat,
    subset_of,
)
from repro.logic.semantics import eval_formula
from repro.logic.terms import PairTerm, Term, Var, proj1
from repro.logic.typecheck import check_formula
from repro.nr.types import UNIT, UR, prod, set_of
from repro.nr.values import ur, vset
from repro.service.registry import default_registry


def test_negate_is_involutive_and_dualizes():
    x = Var("x", UR)
    s = Var("s", set_of(UR))
    phi = Forall(x, s, Or(EqUr(x, x), Top()))
    neg = negate(phi)
    assert isinstance(neg, Exists)
    assert isinstance(neg.body, And)
    assert negate(neg) == phi


def test_implies_and_iff_shapes():
    a = EqUr(Var("x", UR), Var("y", UR))
    b = Top()
    assert implies(a, b) == Or(NeqUr(Var("x", UR), Var("y", UR)), b)
    both = iff(a, b)
    assert isinstance(both, And)


def test_equivalent_at_each_type():
    x_u = Var("x", UR)
    y_u = Var("y", UR)
    assert equivalent(x_u, y_u) == EqUr(x_u, y_u)
    x_unit = Var("u1", UNIT)
    y_unit = Var("u2", UNIT)
    assert equivalent(x_unit, y_unit) == Top()
    p = prod(UR, UR)
    x_p, y_p = Var("p1", p), Var("p2", p)
    eq_p = equivalent(x_p, y_p)
    assert isinstance(eq_p, And)
    s = set_of(UR)
    x_s, y_s = Var("s1", s), Var("s2", s)
    eq_s = equivalent(x_s, y_s)
    check_formula(eq_s, allow_membership=False)
    assert isinstance(eq_s, And)


def test_equivalent_type_mismatch():
    with pytest.raises(TypeMismatchError):
        equivalent(Var("x", UR), Var("s", set_of(UR)))


def test_equivalence_macro_semantics_sets():
    s = set_of(UR)
    x_s, y_s = Var("s1", s), Var("s2", s)
    phi = equivalent(x_s, y_s)
    env_eq = {x_s: vset([ur(1), ur(2)]), y_s: vset([ur(2), ur(1)])}
    env_neq = {x_s: vset([ur(1)]), y_s: vset([ur(2), ur(1)])}
    assert eval_formula(phi, env_eq)
    assert not eval_formula(phi, env_neq)
    assert eval_formula(negate(phi), env_neq)


def test_member_hat_and_subset_semantics():
    s = set_of(set_of(UR))
    big = Var("B", s)
    small = Var("x", set_of(UR))
    phi = member_hat(small, big)
    env = {big: vset([vset([ur(1), ur(2)])]), small: vset([ur(2), ur(1)])}
    assert eval_formula(phi, env)
    env2 = {big: vset([vset([ur(1)])]), small: vset([ur(2)])}
    assert not eval_formula(phi, env2)
    assert eval_formula(not_member_hat(small, big), env2)

    a, b = Var("a", set_of(UR)), Var("b", set_of(UR))
    sub = subset_of(a, b)
    assert eval_formula(sub, {a: vset([ur(1)]), b: vset([ur(1), ur(2)])})
    assert not eval_formula(sub, {a: vset([ur(3)]), b: vset([ur(1), ur(2)])})


def test_member_hat_type_errors():
    with pytest.raises(TypeMismatchError):
        member_hat(Var("x", UR), Var("y", UR))
    with pytest.raises(TypeMismatchError):
        member_hat(Var("x", set_of(UR)), Var("y", set_of(UR)))
    with pytest.raises(TypeMismatchError):
        subset_of(Var("x", UR), Var("y", UR))
    with pytest.raises(TypeMismatchError):
        member_literal(Var("x", UR), Var("y", set_of(set_of(UR))))


def test_not_equivalent_macro():
    x, y = Var("x", UR), Var("y", UR)
    assert not_equivalent(x, y) == NeqUr(x, y)


def test_free_vars_with_binders():
    x = Var("x", UR)
    s = Var("s", set_of(UR))
    t = Var("t", set_of(UR))
    phi = Exists(x, s, EqUr(x, Var("y", UR)))
    assert free_vars(phi) == frozenset({s, Var("y", UR)})
    psi = Forall(x, t, Exists(x, s, EqUr(x, x)))
    assert free_vars(psi) == frozenset({t, s})


def test_substitution_basic_and_shadowing():
    x = Var("x", UR)
    y = Var("y", UR)
    s = Var("s", set_of(UR))
    phi = And(EqUr(x, y), Exists(x, s, EqUr(x, y)))
    result = substitute(phi, x, y)
    assert result == And(EqUr(y, y), Exists(x, s, EqUr(x, y)))


def test_substitution_capture_avoidance():
    x = Var("x", UR)
    y = Var("y", UR)
    s = Var("s", set_of(UR))
    phi = Exists(y, s, EqUr(x, y))
    result = substitute(phi, x, y)
    assert isinstance(result, Exists)
    assert result.var != y
    env = {s: vset([ur(1)]), y: ur(1)}
    assert eval_formula(result, env)
    env2 = {s: vset([ur(2)]), y: ur(1)}
    assert not eval_formula(result, env2)


def test_substitute_term_and_many():
    x = Var("x", UR)
    y = Var("y", UR)
    t = PairTerm(x, y)
    assert substitute_term(t, {x: y}) == PairTerm(y, y)
    phi = EqUr(x, y)
    swapped = substitute_many(phi, {x: y, y: x})
    assert swapped == EqUr(y, x)


def test_fresh_names_and_fresh_var():
    names = FreshNames(["x", "x_1"])
    assert names.fresh("x") == "x_2"
    assert names.fresh("x") == "x_3"
    assert names.fresh("y") == "y"
    v = fresh_var("x", UR, [Var("x", UR), Var("x_1", UR)])
    assert v.name == "x_2"


def test_rename_bound_preserves_semantics():
    x = Var("x", UR)
    s = Var("s", set_of(UR))
    phi = Exists(x, s, EqUr(x, x))
    renamed = rename_bound(phi, FreshNames(["x", "s"]))
    assert isinstance(renamed, Exists)
    assert renamed.var.name != "x"
    env = {s: vset([ur(1)])}
    assert eval_formula(phi, env) == eval_formula(renamed, env)


def test_replace_term_congruence_style():
    x = Var("x", UR)
    y = Var("y", UR)
    b = Var("b", prod(UR, UR))
    phi = EqUr(proj1(b), x)
    replaced = replace_term(phi, proj1(b), y)
    assert replaced == EqUr(y, x)
    # replacement under a binder that shadows the variable only touches bounds
    s = Var("s", set_of(UR))
    psi = Exists(x, s, EqUr(x, x))
    assert replace_term(psi, x, y) == psi


@pytest.mark.parametrize("name", default_registry().names())
def test_negation_is_cached_on_the_node_and_involutive(name):
    phi = default_registry().problem(name).phi
    negated = negate(phi)
    assert negate(phi) is negated
    assert negate(negated) == phi
    # Terms are their own negation and cache nothing (no self-reference).
    assert not any("_neg" in node.__dict__ for node in walk(phi) if isinstance(node, Term))
