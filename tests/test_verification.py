"""Semantic verification and the formula oracle it rests on.

* ``eval_formula``/``satisfying_assignments`` vs the frozen
  ``reference_eval_formula`` (``tests/reference_core.py``) on random
  well-typed Δ0 formulas × random assignment families;
* ``check_explicit_definition`` and ``check_implicitly_defines`` vs the same
  checks built on the oracle (:func:`reference_check_explicit_definition`,
  :func:`reference_check_implicitly_defines`) on synthesized definitions over
  enumerated assignment families;
* ``check_view_rewriting`` on a small family;
* ``check_collection`` on the standalone parameter-collection goal.
"""

import hypothesis.strategies as st
from hypothesis import given, settings
from reference_core import reference_eval_formula
from test_core_property import _values_of

from repro.logic.formulas import (
    And,
    Bottom,
    EqUr,
    Exists,
    Forall,
    Member,
    NeqUr,
    NotMember,
    Or,
    Top,
)
from repro.logic.semantics import eval_formula, satisfying_assignments
from repro.logic.terms import Proj, Var
from repro.nr.types import UR, prod, set_of
from repro.nr.values import ur, vset
from repro.nrc.expr import NVar

# ------------------------------------------------------- formula families
families = st.integers(min_value=0, max_value=7)
U = Var("u", UR)
S = Var("s", set_of(UR))
P = Var("p", prod(UR, set_of(UR)))
FORMULA_VARS = [U, S, P]


def _formulas(quant_depth=2):
    z_vars = [Var(f"z{i}", UR) for i in range(quant_depth)]

    def atoms(scope):
        terms = [st.just(term) for term in [U, Proj(1, P)] + list(scope)]
        term = st.one_of(terms)
        sets = st.one_of(st.just(S), st.just(Proj(2, P)))
        return st.one_of(
            st.just(Top()),
            st.just(Bottom()),
            st.builds(EqUr, term, term),
            st.builds(NeqUr, term, term),
            st.builds(Member, term, sets),
            st.builds(NotMember, term, sets),
        )

    def extend(children, scope):
        options = [
            st.builds(And, children, children),
            st.builds(Or, children, children),
        ]
        if len(scope) < quant_depth:
            z = z_vars[len(scope)]
            inner = _build(scope + [z])
            bound = st.one_of(st.just(S), st.just(Proj(2, P)))
            options.append(st.builds(lambda b, body, z=z: Exists(z, b, body), bound, inner))
            options.append(st.builds(lambda b, body, z=z: Forall(z, b, body), bound, inner))
        return st.one_of(options)

    def _build(scope):
        return st.recursive(atoms(scope), lambda ch: extend(ch, scope), max_leaves=6)

    return _build([])


well_typed_formulas = _formulas()


@given(formula=well_typed_formulas, size=families, data=st.randoms(use_true_random=False))
def test_eval_formula_agrees_with_reference(formula, size, data):
    assignments = [{var: _values_of(var.typ, data) for var in FORMULA_VARS} for _ in range(size)]
    if len(assignments) >= 2:
        assignments[-1] = assignments[0]  # duplicate-assignment edge case
    mask = [reference_eval_formula(formula, assignment) for assignment in assignments]
    assert [eval_formula(formula, assignment) for assignment in assignments] == mask
    expected = [a for a, ok in zip(assignments, mask) if ok]
    assert satisfying_assignments(formula, assignments) == expected


# ----------------------------------------------- end-to-end consumer checks
def reference_check_explicit_definition(problem, expression, assignments):
    """``check_explicit_definition`` with the family filtered by the oracle."""
    from repro.nrc.eval import eval_nrc
    from repro.synthesis.verification import VerificationReport

    assignments = list(assignments)
    satisfying = [a for a in assignments if reference_eval_formula(problem.phi, a)]
    mismatches = []
    for assignment in satisfying:
        env = {NVar(v.name, v.typ): assignment[v] for v in problem.inputs}
        if eval_nrc(expression, env) != assignment[problem.output]:
            mismatches.append(assignment)
    return VerificationReport(len(assignments), len(satisfying), mismatches)


def reference_check_implicitly_defines(problem, assignments):
    """``check_implicitly_defines`` by the oracle and a pairwise comparison."""
    satisfying = [a for a in assignments if reference_eval_formula(problem.phi, a)]
    for first in satisfying:
        for second in satisfying:
            if all(first[i] == second[i] for i in problem.inputs):
                if first[problem.output] != second[problem.output]:
                    return False
    return True


def _union_view_family(count):
    """Assignment families for the union_view problem, with heavy value sharing."""
    from repro.specs import examples

    problem = examples.union_view()
    v1, v2 = problem.inputs
    assignments = []
    index = 0
    while len(assignments) < count:
        a = vset([ur(i % 7) for i in range(index % 5)])
        b = vset([ur((i + index) % 6) for i in range(index % 4)])
        assignments.append({v1: a, v2: b, problem.output: vset(a.elements | b.elements)})
        index += 1
    return problem, assignments


@settings(max_examples=10, deadline=None)
@given(count=st.integers(min_value=0, max_value=24))
def test_check_explicit_definition_batched_agrees_with_oracle(count):
    from repro.proofs.search import ProofSearch
    from repro.synthesis import check_explicit_definition, synthesize

    problem, assignments = _union_view_family(count)
    result = synthesize(problem, search=ProofSearch(max_depth=12))
    batched = check_explicit_definition(problem, result.expression, assignments)
    oracle = reference_check_explicit_definition(problem, result.expression, assignments)
    assert batched.ok and oracle.ok
    assert (batched.checked, batched.satisfying) == (oracle.checked, oracle.satisfying)


def test_check_explicit_definition_batched_reports_mismatches():
    from repro.synthesis import check_explicit_definition

    problem, assignments = _union_view_family(8)
    # A deliberately wrong definition (just the first input): both paths must
    # flag exactly the satisfying assignments where v1 ≠ v1 ∪ v2.
    wrong = NVar(problem.inputs[0].name, problem.inputs[0].typ)
    batched = check_explicit_definition(problem, wrong, assignments)
    oracle = reference_check_explicit_definition(problem, wrong, assignments)
    assert not batched.ok and not oracle.ok
    assert batched.mismatches == oracle.mismatches
    assert (batched.checked, batched.satisfying) == (oracle.checked, oracle.satisfying)


def test_check_view_rewriting_accepts_the_rewriting_and_flags_a_wrong_one():
    from repro.nrc.expr import NUnion
    from repro.proofs.search import ProofSearch
    from repro.specs.problems import ViewRewritingProblem
    from repro.synthesis import check_view_rewriting, rewrite_query_over_views

    r1 = Var("R1", set_of(UR))
    r2 = Var("R2", set_of(UR))
    nr1, nr2 = NVar("R1", r1.typ), NVar("R2", r2.typ)
    problem = ViewRewritingProblem(
        name="union_of_identity_views",
        base=(r1, r2),
        views=(("V1", nr1), ("V2", nr2)),
        query=NUnion(nr1, nr2),
    )
    result, _implicit = rewrite_query_over_views(problem, search=ProofSearch(max_depth=12))
    instances = [
        {r1: vset([ur(i) for i in range(n)]), r2: vset([ur(n), ur(0)])} for n in range(6)
    ]
    report = check_view_rewriting(problem.base, problem.views, problem.query, result.expression, instances)
    assert report.ok
    assert report.checked == len(instances)
    # Just the first view misses R2's extra atom on every instance.
    wrong = check_view_rewriting(problem.base, problem.views, problem.query, NVar("V1", r1.typ), instances)
    assert wrong.mismatches == instances


def test_check_implicitly_defines_batched_agrees_with_oracle():
    problem, assignments = _union_view_family(12)
    assert problem.check_implicitly_defines(assignments)
    assert reference_check_implicitly_defines(problem, assignments)
    # Same inputs, different output: both paths must report the counterexample.
    broken = dict(assignments[0])
    broken[problem.output] = vset([ur("conflict")])
    conflicting = assignments + [broken]
    # The broken row no longer satisfies phi, so definability still holds...
    assert problem.check_implicitly_defines(conflicting)
    assert reference_check_implicitly_defines(problem, conflicting)
    # ...while a specification that leaves the output free is refuted by two
    # satisfying rows with equal inputs and different outputs.
    from repro.specs.problems import ImplicitDefinitionProblem

    loose = ImplicitDefinitionProblem("loose", Top(), problem.inputs, problem.output)
    assert not loose.check_implicitly_defines(conflicting)
    assert not reference_check_implicitly_defines(loose, conflicting)


def test_check_collection_batched_on_standalone_goal():
    """Theorem 8 semantics, validated over a family (hypothesis filter)."""
    from repro.interpolation.partition import Partition
    from repro.logic.macros import iff, member_hat, negate
    from repro.proofs.search import ProofSearch
    from repro.proofs.sequents import Sequent
    from repro.synthesis.parameter_collection import (
        CollectionGoal,
        check_collection,
        parameter_collection,
    )

    c = Var("c", set_of(UR))
    A = Var("A", set_of(UR))
    B = Var("Bc", set_of(UR))
    D = Var("D", set_of(set_of(UR)))
    z = Var("z", UR)
    y = Var("y", set_of(UR))
    lam = member_hat(z, A)
    rho = member_hat(z, y)
    phi_left = Forall(z, c, iff(member_hat(z, A), member_hat(z, B)))
    phi_right = member_hat(B, D)
    goal_formula = Exists(y, D, Forall(z, c, iff(lam, rho)))
    sequent = Sequent.of((), [negate(phi_left), negate(phi_right), goal_formula])
    proof = ProofSearch(max_depth=12).prove(sequent)
    partition = Partition.of(sequent, left_delta=[negate(phi_left)], right_delta=[negate(phi_right)])
    goal = CollectionGoal(goal_formula, c, z, lam)
    expr, _theta = parameter_collection(proof, partition, goal)

    satisfying = [
        {c: vset([ur(1), ur(2)]), A: vset([ur(1)]), B: vset([ur(1), ur(3)]), D: vset([vset([ur(1), ur(3)])])},
        {
            c: vset([ur(1), ur(2)]),
            A: vset([ur(1), ur(2), ur(5)]),
            B: vset([ur(1), ur(2)]),
            D: vset([vset([ur(1), ur(2)])]),
        },
        {c: vset([]), A: vset([ur(9)]), B: vset([ur(9)]), D: vset([vset([ur(9)])])},
    ]
    violating = {c: vset([ur(1)]), A: vset([ur(1)]), B: vset([]), D: vset([])}
    family = satisfying + [violating]
    report = check_collection(goal, expr, (phi_left, phi_right), family)
    assert report.ok
    assert report.checked == 4
    assert report.satisfying == 3
