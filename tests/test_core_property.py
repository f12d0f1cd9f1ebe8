"""Hypothesis property tests: the optimized core agrees with seed semantics.

Random well-typed NRC expressions are generated together with environments
for their free variables; the compiled evaluator and the pass-pipeline
simplifier must agree with the frozen seed reference implementations
(``tests/reference_core.py``) on every one of them.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import map_children, transform_bottom_up
from reference_core import reference_eval_nrc, reference_simplify
from repro.nr.types import ProdType, SetType, Type, UnitType, UR, UrType
from repro.nr.values import PairValue, SetValue, UnitValue, ur
from repro.nrc.eval import eval_nrc
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
)
from repro.nrc.simplify import simplify
from repro.nrc.typing import infer_type

UNIT_T = UnitType()


# ------------------------------------------------------------- type strategy
def types(max_depth=2):
    base = st.sampled_from([UR, UNIT_T])
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(SetType, inner),
            st.builds(ProdType, inner, inner),
        ),
        max_leaves=4,
    )


# -------------------------------------------------- well-typed expr strategy
def _exprs_of(typ: Type, depth: int, env_vars):
    """Strategy for expressions of exactly type ``typ``."""
    leaves = []
    for var in env_vars:
        if var.typ == typ:
            leaves.append(st.just(var))
    if isinstance(typ, UnitType):
        leaves.append(st.just(NUnit()))
    if isinstance(typ, SetType):
        leaves.append(st.just(NEmpty(typ.elem)))
    if not leaves:
        # Always constructible: build the type structurally below.
        leaves.append(st.just(_default_closed(typ)))
    if depth <= 0:
        return st.one_of(leaves)

    def sub(t):
        return _exprs_of(t, depth - 1, env_vars)

    options = list(leaves)
    if isinstance(typ, ProdType):
        options.append(st.builds(NPair, sub(typ.left), sub(typ.right)))
    if isinstance(typ, SetType):
        options.append(st.builds(NSingleton, sub(typ.elem)))
        options.append(st.builds(NUnion, sub(typ), sub(typ)))
        options.append(st.builds(NDiff, sub(typ), sub(typ)))
        # ⋃{ body | x ∈ source } with a fresh binder over a random elem type.
        elem = UR
        binder = NVar(f"b{depth}", elem)
        options.append(
            st.builds(
                lambda body, source, b=binder: NBigUnion(body, b, source),
                _exprs_of(typ, depth - 1, env_vars + [binder]),
                sub(SetType(elem)),
            )
        )
    # get of a singleton-typed set expression produces typ.
    options.append(st.builds(NGet, sub(SetType(typ))))
    # projections out of products on either side.
    options.append(st.builds(lambda e: NProj(1, e), sub(ProdType(typ, UNIT_T))))
    options.append(st.builds(lambda e: NProj(2, e), sub(ProdType(UNIT_T, typ))))
    return st.one_of(options)


def _default_closed(typ: Type):
    """A closed expression of type ``typ`` (no Ur constants exist: wrap sets)."""
    if isinstance(typ, UnitType):
        return NUnit()
    if isinstance(typ, SetType):
        return NEmpty(typ.elem)
    if isinstance(typ, ProdType):
        return NPair(_default_closed(typ.left), _default_closed(typ.right))
    # Ur: get(∅_Ur) — evaluates to the default atom.
    return NGet(NEmpty(typ))


ENV_VARS = [
    NVar("u", UR),
    NVar("s", SetType(UR)),
    NVar("p", ProdType(UR, SetType(UR))),
]


def _values_of(typ: Type, rnd):
    if isinstance(typ, UnitType):
        return UnitValue()
    if isinstance(typ, UrType):
        return ur(rnd.randint(0, 3))
    if isinstance(typ, ProdType):
        return PairValue(_values_of(typ.left, rnd), _values_of(typ.right, rnd))
    return SetValue(frozenset(_values_of(typ.elem, rnd) for _ in range(rnd.randint(0, 3))))


well_typed_exprs = st.one_of(
    types().flatmap(lambda t: _exprs_of(t, 3, list(ENV_VARS))),
)


@settings(max_examples=40, deadline=None)
@given(expr=well_typed_exprs, data=st.randoms(use_true_random=False))
def test_compiled_eval_agrees_with_seed_eval(expr, data):
    infer_type(expr)  # sanity: the strategy only builds well-typed expressions
    env = {var: _values_of(var.typ, data) for var in ENV_VARS}
    assert eval_nrc(expr, env) == reference_eval_nrc(expr, env)


@settings(max_examples=40, deadline=None)
@given(expr=well_typed_exprs, data=st.randoms(use_true_random=False))
def test_simplify_preserves_semantics(expr, data):
    env = {var: _values_of(var.typ, data) for var in ENV_VARS}
    simplified = simplify(expr)
    assert infer_type(simplified) == infer_type(expr)
    assert eval_nrc(simplified, env) == reference_eval_nrc(expr, env)


@settings(max_examples=40, deadline=None)
@given(expr=well_typed_exprs)
def test_simplify_agrees_with_seed_simplify_semantically(expr):
    """New rules may simplify further than the seed, but never differently."""
    import random

    rnd = random.Random(7)
    env = {var: _values_of(var.typ, rnd) for var in ENV_VARS}
    ours = simplify(expr)
    seeds = reference_simplify(expr)
    assert eval_nrc(ours, env) == reference_eval_nrc(seeds, env)


@settings(max_examples=40, deadline=None)
@given(expr=well_typed_exprs)
def test_map_children_preserves_identity_on_noop(expr):
    assert map_children(expr, lambda child: child) is expr
    assert transform_bottom_up(expr, lambda node: node) is expr
