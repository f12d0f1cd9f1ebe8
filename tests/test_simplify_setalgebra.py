"""Property tests for the simplifier's set-algebra rules.

The generic ``well_typed_exprs`` strategy (``tests/test_core_property.py``)
almost never builds the Boolean shapes the ``nrc/macros.py`` macros emit, so
this module builds them on purpose: comprehensions over random Δ0 formulas
(``comprehension`` / ``delta0_to_bool``) and filters whose guards combine
``member_expr``, ``eq_expr`` and existential equality scans.  Element types
cover ``Ur``, pairs and sets, so equality at non-``Ur`` types is exercised.

Each generated expression must simplify to something that evaluates like the
frozen seed evaluator on the original, is no larger, and prints the same
under different ``PYTHONHASHSEED`` values.  The registry's synthesized
queries must come out as plain set algebra.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from reference_core import reference_eval_nrc
from repro.logic.formulas import And, Bottom, EqUr, Exists, Forall, Member, NeqUr, NotMember, Or, Top
from repro.logic.terms import Proj, Var
from repro.nr.types import UR, ProdType, SetType, UnitType, UrType
from repro.nr.values import PairValue, SetValue, ur
from repro.nrc.eval import eval_nrc
from repro.nrc.expr import NBigUnion, NDiff, NEmpty, NSingleton, NVar, expr_size, subexpressions
from repro.nrc.macros import (
    and_expr,
    comprehension,
    cond_set,
    delta0_to_bool,
    eq_expr,
    false_expr,
    member_expr,
    not_expr,
    or_expr,
    true_expr,
)
from repro.nrc.simplify import simplify
from repro.nrc.typing import infer_type
from repro.service.registry import default_registry
from repro.service.api import SynthesizeRequest
from repro.service.workers import execute_synthesize_request

ELEMENT_TYPES = (UR, ProdType(UR, UR), SetType(UR))


def _ur_terms(var: Var):
    """The Ur-typed terms reachable from ``var`` without quantifying."""
    if isinstance(var.typ, UrType):
        return [var]
    if isinstance(var.typ, ProdType):
        return [Proj(1, var), Proj(2, var)]
    return []


def _formula(choose, elem, scope, depth, counter):
    """A random Δ0 formula over the element variables in ``scope``."""
    collections = [Var("S1", SetType(elem)), Var("S2", SetType(elem))]
    ur_terms = [term for var in scope for term in _ur_terms(var)]
    kinds = ["member", "notmember", "top", "bottom"]
    if len(ur_terms) >= 1:
        kinds += ["eq", "neq"]
    if depth > 0:
        kinds += ["and", "or", "exists", "forall", "exists", "and"]
    kind = choose(kinds)
    if kind in ("member", "notmember"):
        literal = Member if kind == "member" else NotMember
        return literal(choose(scope), choose(collections))
    if kind in ("eq", "neq"):
        literal = EqUr if kind == "eq" else NeqUr
        return literal(choose(ur_terms), choose(ur_terms))
    if kind == "top":
        return Top()
    if kind == "bottom":
        return Bottom()
    if kind in ("and", "or"):
        connective = And if kind == "and" else Or
        return connective(
            _formula(choose, elem, scope, depth - 1, counter),
            _formula(choose, elem, scope, depth - 1, counter),
        )
    counter[0] += 1
    bound = Var(f"w{counter[0]}", elem)
    body = _formula(choose, elem, scope + [bound], depth - 1, counter)
    quantifier = Exists if kind == "exists" else Forall
    return quantifier(bound, choose(collections), body)


def _boolean(choose, elem, scope, depth, counter):
    """A random Boolean NRC expression built from the equality/membership macros."""
    collections = [NVar("S1", SetType(elem)), NVar("S2", SetType(elem))]
    kinds = ["member", "eq", "delta0", "true", "false"]
    if depth > 0:
        kinds += ["scan", "scan", "not", "and", "or", "andnot", "exists-other"]
    kind = choose(kinds)
    if kind == "member":
        return member_expr(choose(scope), choose(collections))
    if kind == "eq":
        return eq_expr(choose(scope), choose(scope))
    if kind == "delta0":
        logic_scope = [Var(var.name, var.typ) for var in scope]
        return delta0_to_bool(_formula(choose, elem, logic_scope, 1, counter))
    if kind == "true":
        return true_expr()
    if kind == "false":
        return false_expr()
    if kind == "scan":
        # ∃w ∈ S. w = x ∧ ψ(w): the membership scan the extraction emits.
        counter[0] += 1
        bound = NVar(f"w{counter[0]}", elem)
        body = and_expr(
            eq_expr(bound, choose(scope)), _boolean(choose, elem, scope + [bound], depth - 1, counter)
        )
        if choose([True, False]):
            body = and_expr(_boolean(choose, elem, scope + [bound], depth - 1, counter), body)
        return NBigUnion(body, bound, choose(collections))
    if kind == "exists-other":
        # ∃w ∈ {x} \ {y}. ψ(w): the equality shape with its binder in use.
        counter[0] += 1
        bound = NVar(f"w{counter[0]}", elem)
        source = NDiff(NSingleton(choose(scope)), NSingleton(choose(scope)))
        return NBigUnion(_boolean(choose, elem, scope + [bound], depth - 1, counter), bound, source)
    if kind == "not":
        return not_expr(_boolean(choose, elem, scope, depth - 1, counter))
    if kind == "andnot":
        return NDiff(
            _boolean(choose, elem, scope, depth - 1, counter),
            _boolean(choose, elem, scope, depth - 1, counter),
        )
    combine = and_expr if kind == "and" else or_expr
    return combine(
        _boolean(choose, elem, scope, depth - 1, counter),
        _boolean(choose, elem, scope, depth - 1, counter),
    )


def build_expression(choose):
    """One macro-shaped expression; ``choose`` picks an element of a list."""
    elem = choose(list(ELEMENT_TYPES))
    z, t = NVar("z", elem), NVar("t", elem)
    source = NVar(choose(["S1", "S2"]), SetType(elem))
    counter = [0]
    shape = choose(["comprehension", "filter", "boolean"])
    if shape == "comprehension":
        formula = _formula(choose, elem, [Var("z", elem), Var("t", elem)], 3, counter)
        return comprehension(source, z, formula)
    guard = _boolean(choose, elem, [z, t], 3, counter)
    if shape == "boolean":
        return guard
    return NBigUnion(cond_set(guard, NSingleton(z), NEmpty(elem)), z, source)


def _value(typ, rnd):
    if isinstance(typ, UrType):
        return ur(rnd.randint(0, 2))
    if isinstance(typ, ProdType):
        return PairValue(_value(typ.left, rnd), _value(typ.right, rnd))
    if isinstance(typ, UnitType):
        raise AssertionError("no Unit-typed inputs are generated")
    return SetValue(frozenset(_value(typ.elem, rnd) for _ in range(rnd.randint(0, 4))))


def _environments(expr, seed, count=4):
    from repro.nrc.compose import nrc_free_vars

    rnd = random.Random(seed)
    free = sorted(nrc_free_vars(expr), key=lambda var: var.name)
    return [{var: _value(var.typ, rnd) for var in free} for _ in range(count)]


@st.composite
def macro_exprs(draw):
    return build_expression(lambda options: draw(st.sampled_from(options)))


@settings(max_examples=150, deadline=None)
@given(expr=macro_exprs(), seed=st.integers(0, 2**16))
def test_set_algebra_rules_preserve_semantics_and_never_grow(expr, seed):
    simplified = simplify(expr)
    assert infer_type(simplified) == infer_type(expr)
    assert expr_size(simplified) <= expr_size(expr)
    for env in _environments(expr, seed):
        expected = reference_eval_nrc(expr, env)
        assert reference_eval_nrc(simplified, env) == expected
        assert eval_nrc(simplified, env) == expected


def test_fixed_corpus_preserves_semantics():
    """A larger deterministic sample than Hypothesis affords per run."""
    rnd = random.Random(2023)
    for index in range(800):
        expr = build_expression(rnd.choice)
        simplified = simplify(expr)
        assert expr_size(simplified) <= expr_size(expr)
        for env in _environments(expr, index, count=3):
            assert eval_nrc(simplified, env) == reference_eval_nrc(expr, env), (expr, simplified)


def test_rules_fire_on_the_generated_shapes():
    """Guard against a vacuous generator: the new rules must actually fire."""
    from repro.nrc.simplify import simplify_with_stats

    fired = set()
    rnd = random.Random(0)
    for _ in range(200):
        _, stats = simplify_with_stats(build_expression(rnd.choice))
        fired.update(stats.fired)
    assert {
        "eq-canon",
        "bigunion-idempotent",
        "and-dedupe",
        "member-scan",
        "filter-to-setops",
        "diff-absorb",
    } <= fired


FLAT_QUERIES = {
    "identity_view": "V",
    "union_view": "(V1 u V2)",
    "intersection_view": "(V1 \\ (V1 \\ V2))",
    "union_minus_view": "((V1 \\ V3) u (V2 \\ V3))",
}


@pytest.mark.parametrize("name", sorted(FLAT_QUERIES))
def test_flat_registry_queries_simplify_to_set_algebra(name):
    _, result, _ = execute_synthesize_request(SynthesizeRequest(problem=name))
    assert str(result.expression) == FLAT_QUERIES[name]


def test_registry_queries_keep_no_scans():
    """Every ok registry query but unique_element's ∀-scan is scan-free."""
    for entry in default_registry().sweepable():
        if entry.name == "unique_element":
            continue
        _, result, _ = execute_synthesize_request(SynthesizeRequest(problem=entry.name))
        assert not any(
            isinstance(node, NBigUnion) for node in subexpressions(result.expression)
        ), entry.name


def _dump(count=120):
    """Simplified renderings of a fixed pseudo-random corpus, one per line."""
    rnd = random.Random(20231)
    return "\n".join(str(simplify(build_expression(rnd.choice))) for _ in range(count))


def test_simplified_output_is_identical_across_hash_seeds():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "4242"):
        proc = subprocess.run(
            [sys.executable, __file__],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed, "PATH": os.environ.get("PATH", "")},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


if __name__ == "__main__":
    print(_dump())
