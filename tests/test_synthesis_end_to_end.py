"""End-to-end tests: proof search → interpolation → Theorem 2 synthesis → semantics."""

import itertools

import pytest

from repro.logic.formulas import Exists, Forall, conj
from repro.logic.macros import equivalent, iff, member_hat
from repro.logic.semantics import eval_formula
from repro.logic.terms import Var
from repro.nr.types import UR, set_of
from repro.nr.values import pair, ur, vset
from repro.nrc.eval import eval_nrc
from repro.nrc.expr import NVar
from repro.proofs.checker import check_proof
from repro.proofs.search import ProofSearch
from repro.specs import examples
from repro.synthesis import check_explicit_definition, synthesize
from repro.synthesis.parameter_collection import CollectionGoal, parameter_collection
from repro.interpolation.partition import Partition


SEARCH_OPTS = dict(max_depth=12)


def _subsets(atoms, max_size=None):
    atoms = list(atoms)
    max_size = len(atoms) if max_size is None else max_size
    for size in range(max_size + 1):
        for combo in itertools.combinations(atoms, size):
            yield vset(list(combo))


def _flat_assignments(problem, view_vals, extra=None):
    """Build assignments for single-input problems by enumerating outputs."""
    assignments = []
    for view in view_vals:
        base_values = {problem.inputs[0]: view}
        assignments.append(base_values)
    return assignments


def test_synthesize_identity_view():
    problem = examples.identity_view()
    result = synthesize(problem, search=ProofSearch(**SEARCH_OPTS))
    check_proof(result.proof)
    # assignments: V arbitrary, B = V (the only satisfying outputs)
    assignments = []
    for view in _subsets([ur(1), ur(2), ur(3)]):
        assignments.append({problem.inputs[0]: view, problem.output: view})
        assignments.append({problem.inputs[0]: view, problem.output: vset([ur(9)])})
    report = check_explicit_definition(problem, result.expression, assignments)
    assert report.satisfying > 0
    assert report.ok, f"mismatches: {report.mismatches[:1]}"


def test_synthesize_union_and_intersection_views():
    cases = ((examples.union_view, frozenset.union), (examples.intersection_view, frozenset.intersection))
    for factory, combine in cases:
        problem = factory()
        result = synthesize(problem, search=ProofSearch(**SEARCH_OPTS))
        v1, v2 = problem.inputs
        assignments = []
        universe = [ur(1), ur(2), ur(3)]
        for a in _subsets(universe, 2):
            for b in _subsets(universe, 2):
                out = vset(combine(a.elements, b.elements))
                assignments.append({v1: a, v2: b, problem.output: out})
        report = check_explicit_definition(problem, result.expression, assignments)
        assert report.satisfying == len(assignments)
        assert report.ok


@pytest.mark.xfail(
    reason="known limitation: interpolant witness-elimination bookkeeping does not yet cover the "
    "cross-side equality chains of this determinacy proof (DESIGN.md §7)",
    strict=False,
)
def test_synthesize_selection_view():
    problem = examples.selection_view()
    result = synthesize(problem, search=ProofSearch(**SEARCH_OPTS))
    view = problem.inputs[0]
    base = Var("R", examples.FLAT_PAIR_REL)
    assignments = []
    rows_options = [
        [],
        [(1, 1)],
        [(1, 2)],
        [(1, 1), (2, 3)],
        [(4, 4), (5, 5), (5, 6)],
    ]
    for rows in rows_options:
        rel = vset([pair(ur(a), ur(b)) for a, b in rows])
        sel = vset([pair(ur(a), ur(b)) for a, b in rows if a == b])
        assignments.append({view: rel, base: rel, problem.output: sel})
    report = check_explicit_definition(problem, result.expression, assignments)
    assert report.satisfying == len(assignments)
    assert report.ok


def test_synthesize_copy_chain():
    problem = examples.copy_chain(2)
    result = synthesize(problem, search=ProofSearch(**SEARCH_OPTS))
    source = problem.inputs[0]
    a1 = problem.auxiliaries[0]
    assignments = []
    for view in _subsets([ur("x"), ur("y")]):
        assignments.append({source: view, a1: view, problem.output: view})
    report = check_explicit_definition(problem, result.expression, assignments)
    assert report.satisfying == len(assignments)
    assert report.ok


def test_synthesize_product_output():
    problem = examples.pair_of_views()
    result = synthesize(problem, search=ProofSearch(**SEARCH_OPTS))
    v1, v2 = problem.inputs
    assignments = []
    for a in _subsets([ur(1), ur(2)]):
        for b in _subsets([ur(3)]):
            assignments.append({v1: a, v2: b, problem.output: pair(a, b)})
    report = check_explicit_definition(problem, result.expression, assignments)
    assert report.satisfying == len(assignments)
    assert report.ok


def test_synthesize_ur_output_uses_get():
    problem = examples.unique_element()
    result = synthesize(problem, search=ProofSearch(**SEARCH_OPTS))
    view = problem.inputs[0]
    assignments = [
        {view: vset([ur(7)]), problem.output: ur(7)},
        {view: vset([ur(3)]), problem.output: ur(3)},
        # non-satisfying assignment (two distinct elements): ignored by the check
        {view: vset([ur(1), ur(2)]), problem.output: ur(1)},
    ]
    report = check_explicit_definition(problem, result.expression, assignments)
    assert report.satisfying == 2
    assert report.ok
    assert result.interpolant is not None


def test_synthesis_result_metadata_and_validation():
    problem = examples.identity_view()
    result = synthesize(problem, search=ProofSearch(**SEARCH_OPTS))
    assert result.proof_size > 0
    assert result.raw_expression is not None
    # a proof of the wrong sequent is rejected
    other = examples.union_view()
    with pytest.raises(Exception):
        synthesize(other, proof=result.proof)


def test_examples_semantic_implicit_definability():
    """Examples 1.1 and 4.1: the specification holds on ground-truth instances
    and implicitly defines the output on a small instance family."""
    prob41 = examples.example_4_1()
    inst = examples.example_4_1_instance({"k1": (1, 2), "k2": (3,)})
    assert eval_formula(prob41.phi, inst)
    # perturbing the output violates the specification
    bad = dict(inst)
    bad[prob41.output] = vset([])
    assert not eval_formula(prob41.phi, bad)

    prob11 = examples.example_1_1()
    inst11 = examples.example_1_1_instance({"k1": (1, "k1"), "k2": (2,)})
    assert eval_formula(prob11.phi, inst11)
    assert prob11.check_implicitly_defines([inst11, examples.example_1_1_instance({"a": ("a",)})])


@pytest.mark.parametrize("distractors", [0, 2, 4])
def test_parameter_collection_standalone(distractors):
    """Theorem 8 on a hand-built goal: λ is a left formula equivalent (modulo the
    specification) to a parameterized right formula; the collected E contains Λ.
    ``distractors`` common sets C_i add conjuncts ∀z∈C_i. z ∈̂ C_i that the proof
    does not need; they grow the proof but must not leak into E."""
    c = Var("c", set_of(UR))
    A = Var("A", set_of(UR))      # left-only
    B = Var("Bc", set_of(UR))     # common
    D = Var("D", set_of(set_of(UR)))  # right-only
    z = Var("z", UR)
    y = Var("y", set_of(UR))
    commons = [Var(f"C{i}", set_of(UR)) for i in range(distractors)]
    lam = member_hat(z, A)
    rho = member_hat(z, y)
    phi_left = conj(
        [Forall(z, c, iff(member_hat(z, A), member_hat(z, B)))]
        + [Forall(z, common, member_hat(z, common)) for common in commons]
    )
    phi_right = member_hat(B, D)
    goal_formula = Exists(y, D, Forall(z, c, iff(lam, rho)))

    from repro.logic.macros import negate
    from repro.proofs.sequents import Sequent

    sequent = Sequent.of((), [negate(phi_left), negate(phi_right), goal_formula])
    proof = ProofSearch(max_depth=12).prove(sequent)
    check_proof(proof)

    partition = Partition.of(sequent, left_delta=[negate(phi_left)], right_delta=[negate(phi_right)])
    goal = CollectionGoal(goal_formula, c, z, lam)
    expr, theta = parameter_collection(proof, partition, goal)

    # E and θ only mention common variables (c, Bc).
    names = {v.name for v in __import__("repro.nrc.compose", fromlist=["nrc_free_vars"]).nrc_free_vars(expr)}
    assert names <= {"c", "Bc"}

    # Semantics: on models of both specifications, Λ = {z ∈ c | z ∈ A} is an element of E.
    nc, nA, nB, nD = NVar("c", c.typ), NVar("A", A.typ), NVar("Bc", B.typ), NVar("D", D.typ)
    instances = [
        {c: vset([ur(1), ur(2)]), A: vset([ur(1)]), B: vset([ur(1), ur(3)]), D: vset([vset([ur(1), ur(3)])])},
        {
            c: vset([ur(1), ur(2)]),
            A: vset([ur(1), ur(2), ur(5)]),
            B: vset([ur(1), ur(2)]),
            D: vset([vset([ur(1), ur(2)])]),
        },
        {c: vset([]), A: vset([ur(9)]), B: vset([ur(9)]), D: vset([vset([ur(9)])])},
    ]
    for inst in instances:
        inst.update({common: vset([ur(4)]) for common in commons})
        assert eval_formula(phi_left, inst) and eval_formula(phi_right, inst)
        lam_set = vset([e for e in inst[c].elements if e in inst[A].elements])
        env_common = {nc: inst[c], nB: inst[B]}
        value_common = eval_nrc(expr, env_common)
        assert lam_set in value_common.elements, f"Λ={lam_set} not found in E={value_common}"


def test_parameter_collection_prod_eta_leaves_shadowed_occurrences_alone(monkeypatch):
    """×η maps its fresh components back to projections of the pair variable.
    An occurrence under a binder of the same name is a different variable:
    replacing x by π1(p) in {x} ∪ ⋃{ {x} | x ∈ S } keeps the bound x."""
    from repro.nr.types import prod
    from repro.nrc.expr import NBigUnion, NProj, NSingleton, NUnion
    from repro.proofs.prooftree import ProofNode
    from repro.proofs.sequents import Sequent
    from repro.synthesis import parameter_collection as collection

    c = Var("c", set_of(UR))
    A = Var("A", set_of(UR))
    D = Var("D", set_of(set_of(UR)))
    z = Var("z", UR)
    y = Var("y", set_of(UR))
    p = Var("p", prod(UR, UR))
    x, w = Var("x", UR), Var("w", UR)
    goal_formula = Exists(y, D, Forall(z, c, iff(member_hat(z, A), member_hat(z, y))))
    goal = CollectionGoal(goal_formula, c, z, member_hat(z, A))
    sequent = Sequent.of((), [goal_formula])
    premise = ProofNode("top", sequent)
    node = ProofNode("prod_eta", sequent, (premise,), {"var": p, "fresh": (x, w)})

    nx, S = NVar("x", UR), NVar("S", set_of(UR))
    collected = NUnion(NSingleton(nx), NBigUnion(NSingleton(nx), nx, S))
    collect = collection._collect

    def collect_premise(proof, partition, goal_):
        if proof is premise:
            return collected, goal_formula
        return collect(proof, partition, goal_)

    monkeypatch.setattr(collection, "_collect", collect_premise)
    expr, _ = parameter_collection(node, Partition(), goal)
    projected = NProj(1, NVar("p", p.typ))
    assert expr == NUnion(NSingleton(projected), NBigUnion(NSingleton(nx), nx, S))
