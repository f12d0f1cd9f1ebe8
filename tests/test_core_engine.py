"""Tests for the core IR layer: node protocol, traversals, hash-consing, engine."""

import gc
import pickle
import sys
import threading
import weakref

from repro.core import (
    RewriteEngine,
    canonical_nodes,
    fold,
    free_vars,
    map_children,
    node_size,
    transform_bottom_up,
    walk,
)
from repro.core import node as node_module
from repro.logic.formulas import And, EqUr, Exists, Or, Top, formula_size, subformulas
from repro.logic.free_vars import free_vars as formula_free_vars, substitute
from repro.logic.terms import PairTerm, Proj, Var, term_size, term_vars
from repro.nr.types import UR, set_of
from repro.nrc.expr import (
    NBigUnion,
    NEmpty,
    NPair,
    NSingleton,
    NUnion,
    NVar,
    expr_size,
    subexpressions,
)
from repro.nrc.simplify import simplify, simplify_with_stats


X = Var("x", UR)
Y = Var("y", UR)


def sample_formula():
    return And(EqUr(X, Y), Exists(X, Y, Or(EqUr(X, X), Top())))


def sample_expr():
    s = NVar("S", set_of(UR))
    z = NVar("z", UR)
    return NBigUnion(NSingleton(NPair(z, z)), z, NUnion(s, NEmpty(UR)))


# ------------------------------------------------------------- node protocol
def test_children_rebuild_roundtrip_formula():
    phi = sample_formula()
    assert phi.rebuild(phi.children()) == phi


def test_children_rebuild_roundtrip_expr():
    expr = sample_expr()
    assert expr.rebuild(expr.children()) == expr


def test_walk_reaches_terms_inside_formulas():
    phi = sample_formula()
    nodes = list(walk(phi))
    assert X in nodes and Y in nodes
    assert phi in nodes


def test_subformulas_matches_seed_preorder():
    phi = sample_formula()
    subs = list(subformulas(phi))
    assert subs[0] is phi
    assert all(not isinstance(s, (Var, PairTerm, Proj)) for s in subs)
    assert formula_size(phi) == len(subs)


def test_sizes_agree_with_structure():
    assert term_size(PairTerm(X, Proj(1, PairTerm(X, Y)))) == 6
    expr = sample_expr()
    assert expr_size(expr) == len(list(subexpressions(expr)))
    assert node_size(expr) == expr_size(expr)


def test_free_vars_binder_aware():
    z = NVar("z", UR)
    s = NVar("S", set_of(UR))
    expr = NBigUnion(NSingleton(z), z, s)
    assert free_vars(expr) == frozenset({s})
    phi = Exists(X, Y, EqUr(X, Y))
    assert formula_free_vars(phi) == frozenset({Y})
    assert term_vars(PairTerm(X, Y)) == frozenset({X, Y})


# -------------------------------------------------------- identity-preserving
def test_map_children_identity_on_noop():
    phi = sample_formula()
    assert map_children(phi, lambda c: c) is phi
    expr = sample_expr()
    assert map_children(expr, lambda c: c) is expr


def test_transform_bottom_up_identity_on_noop():
    phi = sample_formula()
    assert transform_bottom_up(phi, lambda n: n) is phi
    expr = sample_expr()
    assert transform_bottom_up(expr, lambda n: n) is expr


def test_substitute_identity_when_domain_not_free():
    phi = sample_formula()
    z = Var("zz", UR)
    assert substitute(phi, z, X) is phi


def test_fold_counts_nodes():
    expr = sample_expr()
    count = fold(expr, lambda node, kids: 1 + sum(kids))
    assert count == expr_size(expr)


# ------------------------------------------------------------- hash-consing
def test_equal_constructions_are_one_node():
    a = NPair(NVar("x", UR), NVar("x", UR))
    b = NPair(NVar(name="x", typ=UR), right=NVar("x", UR))
    assert a is b
    assert a.left is a.right
    assert sample_formula() is sample_formula()
    assert a != NPair(NVar("x", UR), NVar("y", UR))


def test_pickle_round_trip_returns_the_live_node():
    expr, phi = sample_expr(), sample_formula()
    assert pickle.loads(pickle.dumps(expr)) is expr
    assert pickle.loads(pickle.dumps((phi, phi))) == (phi, phi)


def test_threads_building_one_deep_term_get_one_node():
    depth, results = 400, []
    barrier = threading.Barrier(4, timeout=60)

    def build():
        barrier.wait()
        term = Var("deep_leaf", UR)
        for index in range(depth):
            term = PairTerm(term, Proj(1 + index % 2, term))
        results.append(term)

    threads = [threading.Thread(target=build) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-construction
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4 and all(term is results[0] for term in results)


def test_unreachable_node_leaves_the_table():
    def names():
        return {key[1] for key in list(node_module._CANONICAL.keys()) if key[0] is Var}

    term = PairTerm(Var("gone_a", UR), Var("gone_b", UR))
    alive = weakref.ref(term)
    assert {"gone_a", "gone_b"} <= names() and canonical_nodes() >= 3
    del term
    gc.collect()
    assert alive() is None
    assert not {"gone_a", "gone_b"} & names()


# ------------------------------------------------------------ rewrite engine
def test_engine_runs_rules_to_fixpoint_with_stats():
    s = NVar("S", set_of(UR))
    expr = NUnion(NUnion(NEmpty(UR), s), NEmpty(UR))
    simplified, stats = simplify_with_stats(expr)
    assert simplified == s
    assert stats.fired.get("union-identity", 0) == 2
    assert stats.passes >= 1
    assert stats.total_rewrites == 2


def test_engine_identity_when_nothing_fires():
    s = NVar("S", set_of(UR))
    assert simplify(s) is s
    expr = NUnion(NVar("A", set_of(UR)), NVar("B", set_of(UR)))
    assert simplify(expr) is expr


def test_engine_rejects_unknown_rule_shapes_gracefully():
    engine = RewriteEngine([("noop", None, lambda node: None)])
    expr = sample_expr()
    result, stats = engine.run_with_stats(expr)
    assert result is expr
    assert stats.total_rewrites == 0
