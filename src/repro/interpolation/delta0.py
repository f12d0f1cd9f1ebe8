"""Craig interpolation from focused Δ0 proofs (Theorem 4, Appendix D).

Given a focused proof of ``Θ ⊢ Δ`` and a partition of ``Θ`` and ``Δ`` into a
left part and a right part, :func:`interpolate` computes a Δ0 formula ``θ``
such that (semantically, hence also over nested relations):

* ``Θ_L ⊨ Δ_L ∨ θ``          (left condition)
* ``Θ_R ⊨ Δ_R ∨ ¬θ``         (right condition)
* ``FV(θ) ⊆ FV(Θ_L, Δ_L) ∩ FV(Θ_R, Δ_R)``.

In two-sided terms (with Γ the negations of part of Δ) this is exactly the
statement of Theorem 4.  The construction follows Maehara's method, one case
per rule of Figure 3; the run time is linear in the size of the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import InterpolationError
from repro.logic.formulas import (
    And,
    Bottom,
    EqUr,
    Exists,
    Forall,
    Formula,
    Member,
    NeqUr,
    NotMember,
    Or,
    Top,
)
from repro.logic.free_vars import free_vars, replace_term, replace_term_in_term, substitute, substitute_term
from repro.logic.terms import PairTerm, Proj, Term, Var, term_vars
from repro.interpolation.partition import LEFT, Partition, Side
from repro.proofs.prooftree import ProofNode


@dataclass(frozen=True)
class InterpolationResult:
    """The interpolant together with the partition it was computed against."""

    interpolant: Formula
    partition: Partition


def interpolate(proof: ProofNode, partition: Partition) -> Formula:
    """Compute a Craig interpolant for the partitioned conclusion of ``proof``."""
    theta = _interpolate(proof, partition)
    extra = set(free_vars(theta)) - set(partition.common_vars())
    if extra:
        # Cross-side ∈/≠ literals defer variable elimination to the ∀ node
        # that introduced the variable; when that node's bound is itself not
        # common (e.g. a primed auxiliary) no common-language closure exists
        # for this proof shape.  Refuse rather than emit a non-interpolant.
        names = ", ".join(sorted(v.name for v in extra))
        raise InterpolationError(
            f"interpolant mentions non-common variables {names}; "
            "this proof's cross-side structure is outside the supported fragment"
        )
    return theta


# --------------------------------------------------------------------------
def _interpolate(node: ProofNode, partition: Partition) -> Formula:
    rule = node.rule
    if rule == "top":
        return _axiom_interpolant(partition.side_of(Top()))
    if rule == "eq":
        principal: EqUr = node.meta["principal"]
        return _axiom_interpolant(partition.side_of(principal))
    if rule == "weaken":
        premise = node.premises[0]
        inner = partition.for_premise(premise.sequent)
        return _interpolate(premise, inner)
    if rule == "or":
        principal = node.meta["principal"]
        side = partition.side_of(principal)
        premise = node.premises[0]
        inner = partition.for_premise(premise.sequent, {principal.left: side, principal.right: side})
        return _interpolate(premise, inner)
    if rule == "and":
        principal = node.meta["principal"]
        side = partition.side_of(principal)
        left_premise, right_premise = node.premises
        theta1 = _interpolate(
            left_premise, partition.for_premise(left_premise.sequent, {principal.left: side})
        )
        theta2 = _interpolate(
            right_premise, partition.for_premise(right_premise.sequent, {principal.right: side})
        )
        return Or(theta1, theta2) if side == LEFT else And(theta1, theta2)
    if rule == "forall":
        principal = node.meta["principal"]
        fresh: Var = node.meta["fresh"]
        side = partition.side_of(principal)
        premise = node.premises[0]
        body = substitute(principal.body, principal.var, fresh)
        inner = partition.for_premise(
            premise.sequent, {body: side}, {Member(fresh, principal.bound): side}
        )
        theta = _interpolate(premise, inner)
        if fresh in free_vars(theta):
            # Rules above may record facts about the eigenvariable in the
            # interpolant (cross-side ∈/≠ literals).  Close over it at its
            # introduction point: it ranges over ``bound``, so a left
            # principal yields an ∃-closure (the left side exhibits a bound
            # element falsifying the body) and a right principal an ∀.
            from repro.logic.free_vars import fresh_var

            replacement = fresh_var(fresh.name, fresh.typ, free_vars(theta))
            closed = substitute(theta, fresh, replacement)
            if side == LEFT:
                theta = Exists(replacement, principal.bound, closed)
            else:
                theta = Forall(replacement, principal.bound, closed)
        return theta
    if rule == "exists":
        return _interpolate_exists(node, partition)
    if rule == "neq":
        return _interpolate_neq(node, partition)
    if rule == "prod_eta":
        var: Var = node.meta["var"]
        fresh1, fresh2 = node.meta["fresh"]
        premise = node.premises[0]
        pair = PairTerm(fresh1, fresh2)
        remapped = partition.remap(
            lambda f: substitute(f, var, pair),
            lambda a: Member(substitute_term(a.elem, {var: pair}), substitute_term(a.collection, {var: pair})),
        )
        inner = remapped.for_premise(premise.sequent)
        theta = _interpolate(premise, inner)
        theta = replace_term(theta, fresh1, Proj(1, var))
        theta = replace_term(theta, fresh2, Proj(2, var))
        return theta
    if rule == "prod_beta":
        pair: PairTerm = node.meta["pair"]
        index: int = node.meta["index"]
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
        return _interpolate(premise, inner)
    raise InterpolationError(f"unknown rule {rule!r} in interpolation")


def _axiom_interpolant(side: Side) -> Formula:
    """Axioms: a left principal gives ⊥, a right principal gives ⊤."""
    return Bottom() if side == LEFT else Top()


# ------------------------------------------------------------------- ∃ rule
def _interpolate_exists(node: ProofNode, partition: Partition) -> Formula:
    principal: Exists = node.meta["principal"]
    witnesses: Tuple[Term, ...] = node.meta["witnesses"]
    side = partition.side_of(principal)
    premise = node.premises[0]
    specialized = node.meta["specialized"]
    inner = partition.for_premise(premise.sequent, {specialized: side})
    theta = _interpolate(premise, inner)

    # Each witness was justified by an ∈-atom ``witness ∈ bound`` of Θ (the
    # rule checks this).  When that atom sits on the *same* side as the
    # principal, the premise conditions absorb the specialized formula back
    # into the principal and the interpolant needs no change.  When it sits
    # on the *opposite* side, the instantiation smuggles bound information
    # across the partition and the interpolant must record it (Lemma 11 /
    # Appendix D) — crucially even when the witness does not occur in the
    # interpolant, since the bounded quantifier still asserts the bound is
    # inhabited (dropping the vacuous guard is unsound: the other side may
    # hold in a model where the bound is empty).
    from repro.logic.free_vars import fresh_var
    from repro.proofs.focused import specialization_bounds

    bounds = specialization_bounds(principal, witnesses)
    common = partition.common_vars()
    avoid = set(free_vars(theta)) | set(common) | {w for w in witnesses if isinstance(w, Var)}
    # Innermost-first so that nested quantifiers end up correctly ordered
    # (an inner bound may mention an outer witness variable, which the
    # outer quantifier must capture).
    for witness, bound in zip(reversed(witnesses), reversed(bounds)):
        atom_side = partition.side_of_atom(Member(witness, bound))
        if atom_side == side:
            continue
        if isinstance(witness, Var) and witness not in common:
            # Replace the cross-side witness by a bound-quantified variable.
            replacement = fresh_var(witness.name, witness.typ, avoid | free_vars(theta))
            body = substitute(theta, witness, replacement)
            if side == LEFT:
                theta = Forall(replacement, bound, body)
            else:
                theta = Exists(replacement, bound, body)
        elif side == LEFT:
            # A left principal instantiated from a right-side atom weakens
            # the interpolant; the mirror case strengthens it.  Non-common
            # variables of the literal are eigenvariables, closed over at
            # their introducing ∀ node.
            theta = Or(theta, NotMember(witness, bound))
        else:
            theta = And(theta, Member(witness, bound))
    return theta


# ------------------------------------------------------------------- ≠ rule
def _interpolate_neq(node: ProofNode, partition: Partition) -> Formula:
    neq: NeqUr = node.meta["neq"]
    source: Formula = node.meta["source"]
    target: Formula = node.meta["target"]
    premise = node.premises[0]
    neq_side = partition.side_of(neq)
    source_side = partition.side_of(source)

    inner = partition.for_premise(premise.sequent, {target: source_side})
    theta = _interpolate(premise, inner)

    if neq_side == source_side:
        return theta

    # Cross-side replacement (Appendix E, ≠ cases): the equality hypothesis
    # ``t = u`` lives on one side while the rewritten atom lives on the other.
    common = partition.common_vars()
    if not term_vars(neq.right) <= common:
        # Try to eliminate u from the interpolant by substituting t for it —
        # but only if that removes every occurrence of u's non-common
        # variables.  Stray occurrences (e.g. a different projection of the
        # same eigenvariable recorded by a deeper cross-side literal) would
        # survive the term-level replacement with the wrong meaning.
        candidate = replace_term(theta, neq.right, neq.left)
        if not (term_vars(neq.right) - common) & free_vars(candidate):
            return candidate
    # Record the equality hypothesis as a literal; non-common variables in
    # it are eigenvariables, closed over at their introducing ∀ node.
    if neq_side == LEFT:
        # hypothesis t = u on the left, rewritten atom on the right
        return And(theta, EqUr(neq.left, neq.right))
    return Or(theta, NeqUr(neq.left, neq.right))
