"""Tests for interpolation (Theorem 4), admissible inversions, io-specs and Corollary 3."""

import pytest

from repro.errors import SynthesisError
from repro.interpolation.delta0 import interpolate
from repro.interpolation.partition import Partition
from repro.logic.formulas import EqUr, Exists, Member
from repro.logic.free_vars import free_vars
from repro.logic.macros import equivalent, negate
from repro.logic.semantics import eval_formula
from repro.logic.terms import Var
from repro.nr.types import UR, prod, set_of
from repro.nr.values import pair, ur, vset
from repro.nrc.expr import NBigUnion, NProj, NSingleton, NUnion, NVar
from repro.proofs.admissible import and_inversion, forall_inversion, weaken_proof
from repro.proofs.checker import check_proof
from repro.proofs.search import ProofSearch, prove_entailment
from repro.specs import examples
from repro.specs.io_spec import io_specification, is_composition_free
from repro.specs.problems import ViewRewritingProblem
from repro.synthesis import check_view_rewriting, rewrite_query_over_views
from repro.synthesis.collect_answers import collect_answers


def _interpolant_for(problem):
    goal = problem.determinacy_goal()
    proof = ProofSearch(max_depth=12).prove(goal)
    phi, primed_phi, conclusion = problem.determinacy_hypotheses()
    partition = Partition.of(goal, left_delta=[negate(phi)], right_delta=[negate(primed_phi), conclusion])
    return proof, partition, interpolate(proof, partition), phi, primed_phi, conclusion


def copy_chain_1():
    return examples.copy_chain(1)


def copy_chain_2():
    return examples.copy_chain(2)


@pytest.mark.parametrize(
    "factory",
    [examples.identity_view, examples.union_view, examples.intersection_view, copy_chain_1, copy_chain_2],
)
def test_interpolant_variable_condition_and_semantics(factory):
    problem = factory()
    proof, partition, theta, phi, primed_phi, conclusion = _interpolant_for(problem)
    common = partition.common_vars()
    assert free_vars(theta) <= common
    # Semantic conditions of Theorem 4 on small instances:
    #   phi |= theta            and      theta ∧ phi' |= o ≡ o'
    universe = [ur(1), ur(2)]
    import itertools

    primed_output = Var(problem.output.name + "_p", problem.output.typ)
    sets = [vset(c) for r in range(3) for c in itertools.combinations(universe, r)]
    for v_val in sets:
        for o_val in sets:
            assignment = {problem.inputs[0]: v_val, problem.output: o_val, primed_output: o_val}
            for extra in problem.inputs[1:] + problem.auxiliaries:
                assignment[extra] = v_val
            if eval_formula(phi, assignment):
                assert eval_formula(theta, assignment)


def test_and_forall_inversion_produce_checkable_proofs():
    a = Var("A", set_of(UR))
    b = Var("B", set_of(UR))
    goal = equivalent(a, b)
    proof = prove_entailment([equivalent(a, b)], goal)
    check_proof(proof)
    # invert the top-level conjunction of the goal (A ⊆ B direction)
    inverted = and_inversion(proof, goal, 1)
    check_proof(inverted)
    assert goal.left in inverted.sequent.delta
    # invert the ∀ of the inclusion
    fresh = Var("w_new", UR)
    member_form = forall_inversion(inverted, goal.left, fresh)
    check_proof(member_form)
    assert Member(fresh, a) in member_form.sequent.theta


def test_weaken_proof_helper():
    x = Var("x", UR)
    s = Var("s", set_of(UR))
    proof = prove_entailment([], EqUr(x, x))
    bigger = weaken_proof(proof, extra_theta=(Member(x, s),), extra_delta=(EqUr(x, x),))
    check_proof(bigger)
    assert Member(x, s) in bigger.sequent.theta


def test_collect_answers_requires_target_in_conclusion():
    problem = examples.identity_view()
    proof = ProofSearch(max_depth=12).prove(problem.determinacy_goal())
    z = Var("z", UR)
    bogus_target = Exists(z, Var("V", set_of(UR)), EqUr(z, z))
    with pytest.raises(SynthesisError):
        collect_answers(proof, bogus_target, z, problem.inputs)


def test_io_specification_flatten_and_composition_free():
    elem = prod(UR, set_of(UR))
    B = NVar("B", set_of(elem))
    b = NVar("b", elem)
    c = NVar("c", UR)
    NPair = __import__("repro.nrc.expr", fromlist=["NPair"]).NPair
    flatten = NBigUnion(NBigUnion(NSingleton(NPair(NProj(1, b), c)), c, NProj(2, b)), b, B)
    assert is_composition_free(flatten)
    out = Var("V", set_of(prod(UR, UR)))
    spec = io_specification(flatten, out)
    # the specification holds exactly on (B, V=flatten(B)) pairs
    base_val = vset([pair(ur("k"), vset([ur(1), ur(2)]))])
    good = {Var("B", set_of(elem)): base_val, out: examples.flatten_value(base_val)}
    bad = {Var("B", set_of(elem)): base_val, out: vset([])}
    assert eval_formula(spec, good)
    assert not eval_formula(spec, bad)


def test_io_specification_type_mismatch():
    x = NVar("x", set_of(UR))
    with pytest.raises(Exception):
        io_specification(x, Var("o", UR))


def test_corollary3_view_rewriting_end_to_end():
    r1 = Var("R1", set_of(UR))
    r2 = Var("R2", set_of(UR))
    nr1, nr2 = NVar("R1", r1.typ), NVar("R2", r2.typ)
    problem = ViewRewritingProblem(
        name="union_of_identity_views",
        base=(r1, r2),
        views=(("V1", nr1), ("V2", nr2)),
        query=NUnion(nr1, nr2),
    )
    result, implicit = rewrite_query_over_views(problem, search=ProofSearch(max_depth=12))
    check_proof(result.proof)
    assert set(v.name for v in implicit.inputs) == {"V1", "V2"}
    instances = [
        {r1: vset([ur(1), ur(2)]), r2: vset([ur(3)])},
        {r1: vset([]), r2: vset([])},
        {r1: vset([ur(5)]), r2: vset([ur(5)])},
    ]
    report = check_view_rewriting((r1, r2), problem.views, problem.query, result.expression, instances)
    assert report.ok
