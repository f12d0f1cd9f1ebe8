"""NRC Parameter Collection — Theorem 8 / Lemma 9 (Section 5, Appendix E).

Given a focused proof of

    Θ_L, Θ_R ⊢ Δ_L, Δ_R, ∃y ∈_p r . ∀z ∈ c . (λ(z) ↔ ρ(z, y))

with λ a *left* formula, ρ a *right* formula and ``c`` a common variable,
:func:`parameter_collection` computes an NRC expression ``E`` over the common
variables and a Δ0 formula ``θ`` over the common variables such that

    Θ_L ⊨ Δ_L ∨ θ ∨ ({z ∈ c | λ(z)} ∈ E)      and      Θ_R ⊨ Δ_R ∨ ¬θ.

In particular (Theorem 8) when the proof's conclusion is
``φ_L ∧ φ_R → ∃y∈_p r ∀z∈c (λ(z) ↔ ρ(z,y))`` the set ``{z ∈ c | λ(z)}`` is an
element of ``E``.

The construction is an induction over the proof with one case per rule,
mirroring (and extending) the interpolation algorithm of Theorem 4; the most
interesting case is the ∃ rule applied to the goal formula itself, where the
two biconditional branches are mined for a candidate definition of λ.

:func:`check_collection` semantically validates a collected ``(E, θ)`` pair
against a family of assignments: the hypotheses filter the family, and the
λ-comprehension and ``E`` are evaluated on each satisfying assignment.

This module also hosts ``collect_set_answers``, the set case of Theorem 10.
This release wires the Unit/Ur/product cases of Theorem 10 end to end; the
nested set case additionally requires the Lemma 6/Lemma 7 proof transformers,
which are left as documented future work (see DESIGN.md §7) — parameter
collection itself is fully implemented and tested standalone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

from repro.core.subst import replace_subtree
from repro.errors import EvaluationError, SynthesisError
from repro.interpolation.delta0 import interpolate
from repro.interpolation.partition import LEFT, RIGHT, Partition, Side
from repro.logic.formulas import (
    And,
    Bottom,
    EqUr,
    Exists,
    Forall,
    Formula,
    Member,
    NeqUr,
    Or,
    Top,
)
from repro.logic.free_vars import free_vars, replace_term, replace_term_in_term, substitute, substitute_term
from repro.logic.macros import negate
from repro.logic.terms import PairTerm, Proj, Term, Var, term_vars
from repro.nr.types import SetType
from repro.nr.values import SetValue
from repro.nrc.compose import nrc_free_vars
from repro.nrc.expr import (
    NBigUnion,
    NEmpty,
    NProj,
    NRCExpr,
    NSingleton,
    NUnion,
    NVar,
)
from repro.nrc.macros import comprehension, term_to_nrc
from repro.proofs.prooftree import ProofNode


@dataclass(frozen=True)
class CollectionGoal:
    """The goal formula ``∃y∈_p r ∀z∈c (λ(z) ↔ ρ(z,y))`` and its decomposition."""

    formula: Exists
    c: Var
    z: Var
    lam: Formula

    def lam_at(self, element: Var) -> Formula:
        return substitute(self.lam, self.z, element)

    def candidate_type(self) -> SetType:
        """The type of the collected candidate sets: ``Set(type of c)``."""
        return SetType(self.c.typ)

    def replaced(self, old: Term, new: Term) -> "CollectionGoal":
        return CollectionGoal(
            replace_term(self.formula, old, new),
            self.c,
            self.z,
            replace_term(self.lam, old, new),
        )


def parameter_collection(
    proof: ProofNode, partition: Partition, goal: CollectionGoal
) -> Tuple[NRCExpr, Formula]:
    """Lemma 9: compute ``(E, θ)`` from a partitioned focused proof of the goal."""
    if goal.formula not in proof.sequent.delta:
        raise SynthesisError("the collection goal does not occur in the proof conclusion")
    return _collect(proof, partition, goal)


# --------------------------------------------------------------------------
def _fallback(node: ProofNode, partition: Partition, goal: CollectionGoal) -> Tuple[NRCExpr, Formula]:
    """When the goal disappeared (weakening) plain interpolation suffices with E := ∅."""
    return NEmpty(goal.c.typ), interpolate(node, partition)


def _collect(node: ProofNode, partition: Partition, goal: CollectionGoal) -> Tuple[NRCExpr, Formula]:
    rule = node.rule
    meta = node.meta
    if goal.formula not in node.sequent.delta:
        return _fallback(node, partition, goal)
    if rule == "top":
        return _axiom(partition.side_of(Top()), goal)
    if rule == "eq":
        return _axiom(partition.side_of(meta["principal"]), goal)
    if rule == "weaken":
        premise = node.premises[0]
        inner = partition.for_premise(premise.sequent)
        if goal.formula in premise.sequent.delta:
            return _collect(premise, inner, goal)
        return _fallback(premise, inner, goal)
    if rule == "or":
        principal = meta["principal"]
        side = partition.side_of(principal)
        premise = node.premises[0]
        inner = partition.for_premise(premise.sequent, {principal.left: side, principal.right: side})
        return _collect(premise, inner, goal)
    if rule == "forall":
        principal = meta["principal"]
        fresh: Var = meta["fresh"]
        side = partition.side_of(principal)
        premise = node.premises[0]
        body = substitute(principal.body, principal.var, fresh)
        inner = partition.for_premise(premise.sequent, {body: side}, {Member(fresh, principal.bound): side})
        return _collect(premise, inner, goal)
    if rule == "and":
        principal = meta["principal"]
        side = partition.side_of(principal)
        left_premise, right_premise = node.premises
        e1, t1 = _collect(left_premise, partition.for_premise(left_premise.sequent, {principal.left: side}), goal)
        e2, t2 = _collect(right_premise, partition.for_premise(right_premise.sequent, {principal.right: side}), goal)
        expr = NUnion(e1, e2)
        return (expr, Or(t1, t2)) if side == LEFT else (expr, And(t1, t2))
    if rule == "exists":
        if meta["principal"] == goal.formula:
            return _collect_goal_exists(node, partition, goal)
        return _collect_other_exists(node, partition, goal)
    if rule == "neq":
        return _collect_neq(node, partition, goal)
    if rule == "prod_eta":
        var: Var = meta["var"]
        fresh1, fresh2 = meta["fresh"]
        premise = node.premises[0]
        pair = PairTerm(fresh1, fresh2)
        remapped = partition.remap(
            lambda f: substitute(f, var, pair),
            lambda a: Member(substitute_term(a.elem, {var: pair}), substitute_term(a.collection, {var: pair})),
        )
        inner = remapped.for_premise(premise.sequent)
        expr, theta = _collect(premise, inner, goal.replaced(var, pair))
        theta = replace_term(replace_term(theta, fresh1, Proj(1, var)), fresh2, Proj(2, var))
        expr = replace_subtree(expr, NVar(fresh1.name, fresh1.typ), NProj(1, NVar(var.name, var.typ)))
        expr = replace_subtree(expr, NVar(fresh2.name, fresh2.typ), NProj(2, NVar(var.name, var.typ)))
        return expr, theta
    if rule == "prod_beta":
        pair: PairTerm = meta["pair"]
        index: int = meta["index"]
        premise = node.premises[0]
        redex = Proj(index, pair)
        component = pair.left if index == 1 else pair.right
        remapped = partition.remap(
            lambda f: replace_term(f, redex, component),
            lambda a: Member(
                replace_term_in_term(a.elem, redex, component),
                replace_term_in_term(a.collection, redex, component),
            ),
        )
        inner = remapped.for_premise(premise.sequent)
        return _collect(premise, inner, goal.replaced(redex, component))
    raise SynthesisError(f"unknown rule {rule!r} in parameter collection")


def _axiom(side: Side, goal: CollectionGoal) -> Tuple[NRCExpr, Formula]:
    return NEmpty(goal.c.typ), (Bottom() if side == LEFT else Top())


# ----------------------------------------------------------- ∃ on the goal
def _collect_goal_exists(node: ProofNode, partition: Partition, goal: CollectionGoal) -> Tuple[NRCExpr, Formula]:
    specialized = node.meta["specialized"]
    if not isinstance(specialized, Forall):
        raise SynthesisError(
            "the ∃ rule on the collection goal must instantiate the full existential block"
        )
    premise = node.premises[0]
    # Forced spine (Section 5): ∀ on the biconditional instance, then ∧, then ∨/∨.
    forall_node = _skip_weaken(premise, goal)
    if forall_node.rule != "forall" or forall_node.meta.get("principal") != specialized:
        raise SynthesisError("expected the ∀ rule on the specialized biconditional")
    fresh: Var = forall_node.meta["fresh"]
    iff_instance = substitute(specialized.body, specialized.var, fresh)
    and_node = _skip_weaken(forall_node.premises[0], goal)
    if and_node.rule != "and" or and_node.meta.get("principal") != iff_instance:
        raise SynthesisError("expected the ∧ rule on the biconditional instance")
    lam_x = goal.lam_at(fresh)
    branch1, branch2 = and_node.premises
    or1 = _skip_weaken(branch1, goal)
    or2 = _skip_weaken(branch2, goal)
    if or1.rule != "or" or or2.rule != "or":
        raise SynthesisError("expected the two ∨ rules under the biconditional")
    # or1 decomposes ¬λ(x) ∨ ρ(x,w); or2 decomposes ¬ρ(x,w) ∨ λ(x).
    not_lam, rho = or1.meta["principal"].left, or1.meta["principal"].right
    not_rho, lam_copy = or2.meta["principal"].left, or2.meta["principal"].right
    if not_lam != negate(lam_x) or lam_copy != lam_x:
        raise SynthesisError("the biconditional does not match the collection goal's λ template")

    atom = Member(fresh, goal.c)
    sub1 = or1.premises[0]
    inner1 = partition.for_premise(sub1.sequent, {not_lam: LEFT, rho: RIGHT}, {atom: LEFT})
    e1, t1 = _collect(sub1, inner1, goal)
    sub2 = or2.premises[0]
    inner2 = partition.for_premise(sub2.sequent, {not_rho: RIGHT, lam_copy: LEFT}, {atom: LEFT})
    e2, t2 = _collect(sub2, inner2, goal)

    c_nrc = NVar(goal.c.name, goal.c.typ)
    x_nrc = NVar(fresh.name, fresh.typ)
    theta = Exists(fresh, goal.c, And(t1, t2))
    # Appendix E: the candidate definition {x ∈ c | θ} uses the side formula of
    # the branch carrying ¬λ(x) on the left / ρ(x,w) on the right (here: t1).
    candidate = NSingleton(comprehension(c_nrc, x_nrc, t1))
    pooled = NBigUnion(NUnion(e1, e2), x_nrc, c_nrc)
    return NUnion(candidate, pooled), theta


def _skip_weaken(node: ProofNode, goal: CollectionGoal) -> ProofNode:
    while node.rule == "weaken" and len(node.premises) == 1:
        node = node.premises[0]
    return node


# ------------------------------------------------------ ∃ on other formulas
def _collect_other_exists(node: ProofNode, partition: Partition, goal: CollectionGoal) -> Tuple[NRCExpr, Formula]:
    from repro.proofs.focused import specialization_bounds

    principal: Exists = node.meta["principal"]
    witnesses: Tuple[Term, ...] = node.meta["witnesses"]
    side = partition.side_of(principal)
    premise = node.premises[0]
    specialized = node.meta["specialized"]
    inner = partition.for_premise(premise.sequent, {specialized: side})
    expr, theta = _collect(premise, inner, goal)

    bounds = specialization_bounds(principal, witnesses)
    common = partition.common_vars(extra_left=(goal.c,), extra_right=(goal.c,))
    for witness, bound in zip(reversed(witnesses), reversed(bounds)):
        offending_theta = (term_vars(witness) - common) & free_vars(theta)
        offending_expr = {
            v for v in term_vars(witness) - common if any(n.name == v.name for n in nrc_free_vars(expr))
        }
        if not offending_theta and not offending_expr:
            continue
        if not isinstance(witness, Var):
            raise SynthesisError(
                f"cannot eliminate non-variable witness {witness}; ×η/×β-normalize the proof first"
            )
        if not term_vars(bound) <= common:
            raise SynthesisError(f"quantifier bound {bound} is not over common variables")
        # Lemma 11 (and its dual): bound-quantify the witness away.
        theta_body = theta
        if side == LEFT:
            theta = Forall(witness, bound, theta_body)
        else:
            theta = Exists(witness, bound, theta_body)
        expr = NBigUnion(expr, NVar(witness.name, witness.typ), term_to_nrc(bound))
    return expr, theta


# ------------------------------------------------------------------- ≠ rule
def _collect_neq(node: ProofNode, partition: Partition, goal: CollectionGoal) -> Tuple[NRCExpr, Formula]:
    neq: NeqUr = node.meta["neq"]
    source: Formula = node.meta["source"]
    target: Formula = node.meta["target"]
    premise = node.premises[0]
    neq_side = partition.side_of(neq)
    source_side = partition.side_of(source)
    inner = partition.for_premise(premise.sequent, {target: source_side})
    expr, theta = _collect(premise, inner, goal)
    if neq_side == source_side:
        return expr, theta
    common = partition.common_vars(extra_left=(goal.c,), extra_right=(goal.c,))
    if term_vars(neq.right) <= common:
        if neq_side == LEFT:
            return expr, And(theta, EqUr(neq.left, neq.right))
        return expr, Or(theta, NeqUr(neq.left, neq.right))
    theta = replace_term(theta, neq.right, neq.left)
    expr = replace_subtree(expr, term_to_nrc(neq.right), term_to_nrc(neq.left))
    return expr, theta


# --------------------------------------------------------- semantic validation
def check_collection(
    goal: CollectionGoal,
    expr: NRCExpr,
    hypotheses: Sequence[Formula],
    assignments: Sequence[Mapping],
):
    """Validate Theorem 8's guarantee on a family of assignments.

    For every assignment satisfying all ``hypotheses``, the collected set
    ``{z ∈ c | λ(z)}`` must be a member of the candidate expression ``E``
    (= ``expr``).  The family is filtered through the conjunction of the
    hypotheses (:func:`~repro.logic.semantics.satisfying_assignments`);
    the λ-comprehension and ``E`` are then evaluated per
    satisfying assignment with :func:`~repro.nrc.eval.eval_nrc`.  Returns a
    :class:`~repro.synthesis.verification.VerificationReport`.
    """
    from repro.logic.formulas import conj
    from repro.logic.semantics import satisfying_assignments
    from repro.nrc.eval import eval_nrc
    from repro.synthesis.verification import VerificationReport

    assignments = list(assignments)
    satisfying = satisfying_assignments(conj(list(hypotheses)), assignments)
    c_nrc = NVar(goal.c.name, goal.c.typ)
    z_nrc = NVar(goal.z.name, goal.z.typ)
    lam_expr = comprehension(c_nrc, z_nrc, goal.lam)
    mismatches = []
    for assignment in satisfying:
        env = {NVar(v.name, v.typ): value for v, value in assignment.items()}
        candidates = eval_nrc(expr, env)
        if not isinstance(candidates, SetValue):
            raise EvaluationError(f"membership in non-set value {candidates}")
        if eval_nrc(lam_expr, env) not in candidates.elements:
            mismatches.append(assignment)
    return VerificationReport(len(assignments), len(satisfying), mismatches)


# ----------------------------------------------------------------- Theorem 10
def collect_set_answers(proof, target, lhs, inputs, left_formulas, right_formulas) -> NRCExpr:
    """The set case of Theorem 10 (requires the Lemma 6/7 transformers).

    Not wired end-to-end in this release: synthesizing outputs whose *element*
    type itself contains sets (e.g. Example 4.1's ``Set(Ur × Set(Ur))``) needs
    the Lemma 6 and Lemma 7 proof transformations feeding
    :func:`parameter_collection`.  See DESIGN.md §7 ("Limitations and future
    work").  Parameter collection itself is implemented above and covered by
    the test-suite on stand-alone goals.
    """
    raise SynthesisError(
        "the nested set case of Theorem 10 (Lemma 6/7 plumbing) is not wired end-to-end in this "
        "release; outputs with set-of-set element types are not yet synthesized automatically"
    )
