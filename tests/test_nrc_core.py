"""Unit tests for the NRC AST, typing and evaluation."""

import pytest

from repro.errors import EvaluationError, TypeMismatchError
from repro.nr.types import BOOL, UNIT, UR, prod, set_of
from repro.nr.values import DEFAULT_UR_ATOM, pair, unit, ur, vset
from repro.nrc.expr import (
    NBigUnion,
    NDiff,
    NEmpty,
    NGet,
    NPair,
    NProj,
    NSingleton,
    NUnion,
    NUnit,
    NVar,
    expr_size,
    subexpressions,
)
from repro.nrc.eval import eval_nrc
from repro.nrc.typing import check_expr, infer_type


def test_infer_type_basics():
    x = NVar("x", prod(UR, set_of(UR)))
    assert infer_type(x) == prod(UR, set_of(UR))
    assert infer_type(NProj(1, x)) == UR
    assert infer_type(NProj(2, x)) == set_of(UR)
    assert infer_type(NUnit()) == UNIT
    assert infer_type(NSingleton(NUnit())) == BOOL
    assert infer_type(NGet(NSingleton(x))) == prod(UR, set_of(UR))
    assert infer_type(NEmpty(UR)) == set_of(UR)


def test_infer_type_big_union():
    B = NVar("B", set_of(prod(UR, set_of(UR))))
    b = NVar("b", prod(UR, set_of(UR)))
    flatten_body = NBigUnion(NSingleton(NPair(NProj(1, b), NVar("c", UR))), NVar("c", UR), NProj(2, b))
    flatten = NBigUnion(flatten_body, b, B)
    assert infer_type(flatten) == set_of(prod(UR, UR))


def test_infer_type_errors():
    x = NVar("x", UR)
    with pytest.raises(TypeMismatchError):
        infer_type(NProj(1, x))
    with pytest.raises(TypeMismatchError):
        infer_type(NGet(x))
    with pytest.raises(TypeMismatchError):
        infer_type(NUnion(NEmpty(UR), NEmpty(UNIT)))
    with pytest.raises(TypeMismatchError):
        infer_type(NBigUnion(NSingleton(x), NVar("y", UNIT), NEmpty(UR)))
    with pytest.raises(TypeMismatchError):
        infer_type(NBigUnion(x, NVar("y", UR), NEmpty(UR)))
    with pytest.raises(TypeMismatchError):
        infer_type(NBigUnion(NSingleton(x), NVar("y", UR), x))
    with pytest.raises(TypeMismatchError):
        check_expr(NUnit(), UR)
    with pytest.raises(TypeMismatchError):
        NProj(0, x)


def test_eval_basic_constructs():
    x = NVar("x", prod(UR, UR))
    env = {x: pair(ur(1), ur(2))}
    assert eval_nrc(NProj(1, x), env) == ur(1)
    assert eval_nrc(NPair(NProj(2, x), NProj(1, x)), env) == pair(ur(2), ur(1))
    assert eval_nrc(NSingleton(x), env) == vset([pair(ur(1), ur(2))])
    assert eval_nrc(NEmpty(UR), env) == vset()
    assert eval_nrc(NUnit(), env) == unit()


def test_eval_union_diff():
    a = NVar("a", set_of(UR))
    b = NVar("b", set_of(UR))
    env = {a: vset([ur(1), ur(2)]), b: vset([ur(2), ur(3)])}
    assert eval_nrc(NUnion(a, b), env) == vset([ur(1), ur(2), ur(3)])
    assert eval_nrc(NDiff(a, b), env) == vset([ur(1)])


def test_eval_get_singleton_and_default():
    a = NVar("a", set_of(UR))
    assert eval_nrc(NGet(a), {a: vset([ur(7)])}) == ur(7)
    assert eval_nrc(NGet(a), {a: vset([ur(7), ur(8)])}) == ur(DEFAULT_UR_ATOM)
    assert eval_nrc(NGet(a), {a: vset()}) == ur(DEFAULT_UR_ATOM)


def test_eval_flatten_example():
    """The flattening query of Example 1.1: {<pi1(b), c> | c in pi2(b), b in B}."""
    elem = prod(UR, set_of(UR))
    B = NVar("B", set_of(elem))
    b = NVar("b", elem)
    c = NVar("c", UR)
    flatten = NBigUnion(NBigUnion(NSingleton(NPair(NProj(1, b), c)), c, NProj(2, b)), b, B)
    env = {B: vset([pair(ur("k1"), vset([ur(1), ur(2)])), pair(ur("k2"), vset([ur(3)]))])}
    expected = vset([pair(ur("k1"), ur(1)), pair(ur("k1"), ur(2)), pair(ur("k2"), ur(3))])
    assert eval_nrc(flatten, env) == expected


def test_eval_errors():
    x = NVar("x", set_of(UR))
    with pytest.raises(EvaluationError):
        eval_nrc(x, {})
    with pytest.raises(EvaluationError):
        eval_nrc(NProj(1, NVar("y", prod(UR, UR))), {NVar("y", prod(UR, UR)): ur(1)})
    with pytest.raises(EvaluationError):
        eval_nrc(NUnion(x, x), {x: ur(1)})


def test_eval_nrc_lazy_unbound_is_per_row():
    """A free var missing only in envs whose binder source is empty must not raise."""
    x = NVar("x", set_of(UR))
    y = NVar("y", UR)
    b = NVar("b", UR)
    expr = NBigUnion(NSingleton(y), b, x)
    assert eval_nrc(expr, {x: vset([ur(1)]), y: ur(7)}) == vset([ur(7)])
    assert eval_nrc(expr, {x: vset([])}) == vset([])
    with pytest.raises(EvaluationError):
        eval_nrc(expr, {x: vset([ur(1)])})


def test_expr_size_and_subexpressions():
    x = NVar("x", set_of(UR))
    e = NUnion(x, NDiff(x, NEmpty(UR)))
    assert expr_size(e) == 5
    subs = list(subexpressions(e))
    assert e in subs and x in subs and NEmpty(UR) in subs


def test_str_smoke():
    x = NVar("x", set_of(UR))
    assert "u" in str(NUnion(x, x))
    assert "\\" in str(NDiff(x, x))
    assert "get" in str(NGet(x))
