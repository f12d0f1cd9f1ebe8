"""Admissible-rule proof transformations (Appendix F.1, Lemmas 12–16).

These operate on focused proof trees and return focused proof trees; every
output is checkable by :mod:`repro.proofs.checker`.  The transformations
implemented here are the ones the synthesis pipeline needs:

* :func:`weaken_proof`            — Lemma 12 (structural weakening, via the
  explicit ``weaken`` rule).
* :func:`and_inversion`           — Lemma 13 (invertibility of ∧): from a
  proof of ``Θ ⊢ φ1 ∧ φ2, Δ`` obtain a proof of ``Θ ⊢ φi, Δ``.
* :func:`forall_inversion`        — Lemma 14 (invertibility of ∀): from a
  proof of ``Θ ⊢ ∀x∈t.φ, Δ`` obtain a proof of ``Θ, z∈t ⊢ φ[z/x], Δ``;
  :func:`forall_eigenvariable` names the ``z`` at which this is a linear
  walk (the proof's own eigenvariable, so no subproof is renamed).
* :func:`substitute_proof`        — Lemma 16 (substitution of terms for free
  variables throughout a proof, read up to ×β).
* :func:`product_inversion`       — Appendix G's product case: Lemma 16, ×β
  and Lemma 13 split a proof of ``o ≡ o′`` into its components' proofs.
* :func:`exists_conjunct_projection`  — the "project a conjunct under an
  existential block" transformation used by the product case of Theorem 10
  (an instance of the routine admissible rules referred to in Appendix F).

Proof-search note: rules whose side condition requires an all-EL context can
never fire while the (AL, non-atomic) target formula of an inversion is still
present, so the inversions only ever traverse invertible rules and ``weaken``
— which is what makes these transformations linear-time walks.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.core.node import Node, transform_bottom_up
from repro.errors import ProofError
from repro.logic.formulas import And, Exists, Forall, Formula, Member
from repro.logic.free_vars import beta_normalize_formula, substitute, substitute_many
from repro.logic.terms import PairTerm, Term, Var, beta_step
from repro.proofs import focused
from repro.proofs.prooftree import ProofNode
from repro.proofs.sequents import Sequent, sequent_free_vars


# --------------------------------------------------------------------- weaken
def weaken_proof(proof: ProofNode, extra_theta=(), extra_delta=()) -> ProofNode:
    """Weaken the conclusion of ``proof`` with extra ∈-atoms / formulas (Lemma 12)."""
    target = proof.sequent.with_theta(*extra_theta).with_delta(*extra_delta)
    if target == proof.sequent:
        return proof
    return focused.make_weaken(target, proof)


# ------------------------------------------------------------- ∧ invertibility
def and_inversion(proof: ProofNode, target: And, which: int) -> ProofNode:
    """From a proof of ``Θ ⊢ target, Δ`` build a proof of ``Θ ⊢ target_i, Δ`` (Lemma 13)."""
    if which not in (1, 2):
        raise ProofError("which must be 1 or 2")
    replacement = target.left if which == 1 else target.right
    return _replace_formula_walk(proof, target, replacement, _AndInversionHandlers(which))


class _AndInversionHandlers:
    def __init__(self, which: int) -> None:
        self.which = which

    def handles(self, node: ProofNode, target: Formula) -> bool:
        return node.rule == "and" and node.meta.get("principal") == target

    def transform(self, node: ProofNode, target: Formula, replacement: Formula) -> ProofNode:
        return node.premises[self.which - 1]


# ------------------------------------------------------------- ∀ invertibility
def forall_inversion(proof: ProofNode, target: Forall, fresh: Var) -> ProofNode:
    """From a proof of ``Θ ⊢ ∀x∈t.φ, Δ`` build ``Θ, fresh∈t ⊢ φ[fresh/x], Δ`` (Lemma 14)."""
    replacement = substitute(target.body, target.var, fresh)
    new_atom = Member(fresh, target.bound)
    return _replace_formula_walk(
        proof, target, replacement, _ForallInversionHandlers(fresh), extra_theta=(new_atom,)
    )


def forall_eigenvariable(proof: ProofNode, target: Forall) -> Optional[Var]:
    """The eigenvariable at which :func:`forall_inversion` needs no renaming.

    That is the ``fresh`` variable of the first ``forall`` node decomposing
    ``target``, in the order :func:`forall_inversion` reaches it, provided no
    sequent the inversion rebuilds mentions it and no rule there introduces
    it.  Inverting at it returns that node's premise as it stands instead of
    renaming the eigenvariable throughout the subproof.  ``None`` when no
    such node exists or its variable is taken above it.
    """
    found: Optional[Var] = None
    taken = set()
    stack = [proof]
    while stack:
        node = stack.pop()
        sequent = node.sequent
        if target not in sequent.delta:
            continue
        taken |= sequent_free_vars(sequent)
        if node.rule == "forall" and node.meta.get("principal") == target:
            if found is None:
                found = node.meta["fresh"]
            continue
        fresh = node.meta.get("fresh")
        if isinstance(fresh, Var):
            taken.add(fresh)
        elif isinstance(fresh, tuple):
            taken.update(fresh)
        stack.extend(reversed(node.premises))
    if found is None or found in taken:
        return None
    return found


class _ForallInversionHandlers:
    def __init__(self, fresh: Var) -> None:
        self.fresh = fresh

    def handles(self, node: ProofNode, target: Formula) -> bool:
        return node.rule == "forall" and node.meta.get("principal") == target

    def transform(self, node: ProofNode, target: Forall, replacement: Formula) -> ProofNode:
        original_fresh: Var = node.meta["fresh"]
        if original_fresh == self.fresh:
            return node.premises[0]
        return substitute_proof(node.premises[0], {original_fresh: self.fresh})


# -------------------------------------------- projecting a conjunct under an ∃
def exists_conjunct_projection(proof: ProofNode, target: Exists, which: int) -> ProofNode:
    """From a proof of ``Θ ⊢ ∃x̄∈t̄.(A ∧ B), Δ`` build ``Θ ⊢ ∃x̄∈t̄.A, Δ`` (or B).

    Used by the product case of Theorem 10 to split an equivalence of pairs
    into its component equivalences.
    """
    if which not in (1, 2):
        raise ProofError("which must be 1 or 2")
    projection = _project_exists(target, which)
    targets = {target: projection}
    return _project_walk(proof, targets, which)


def _project_exists(formula: Formula, which: int) -> Formula:
    if isinstance(formula, Exists):
        return Exists(formula.var, formula.bound, _project_exists(formula.body, which))
    if isinstance(formula, And):
        return formula.left if which == 1 else formula.right
    raise ProofError(f"formula {formula} is not an existential block over a conjunction")


def _project_walk(node: ProofNode, targets: Dict[Formula, Formula], which: int) -> ProofNode:
    sequent = node.sequent
    present = [t for t in targets if t in sequent.delta]
    if not present:
        return node
    new_sequent = Sequent(
        sequent.theta, frozenset(targets.get(f, f) for f in sequent.delta)
    )
    rule = node.rule
    meta = node.meta
    if rule == "and" and meta.get("principal") in targets and isinstance(meta.get("principal"), And):
        # The conjunction being projected: keep only the chosen branch.
        principal: And = meta["principal"]
        chosen = node.premises[which - 1]
        transformed = _project_walk(chosen, targets, which)
        # The chosen premise proves Θ ⊢ (Δ \ {A∧B}) ∪ {A}, which is the
        # projected sequent (possibly after projecting remaining targets).
        return transformed
    if rule == "exists" and meta.get("principal") in targets:
        principal = meta["principal"]
        witnesses = meta["witnesses"]
        specialized = meta["specialized"]
        new_principal = targets[principal]
        new_specialized = focused.specialize(new_principal, witnesses)
        inner_targets = dict(targets)
        if isinstance(specialized, (Exists, And)):
            inner_targets[specialized] = (
                _project_exists(specialized, which) if isinstance(specialized, Exists) else new_specialized
            )
        premise = _project_walk(node.premises[0], inner_targets, which)
        return focused.make_exists(new_sequent, new_principal, witnesses, premise, require_maximal=False)
    # generic reconstruction
    return _rebuild(node, new_sequent, lambda child: _project_walk(child, targets, which), targets)


# -------------------------------------------------------------- substitution
def substitute_proof(proof: ProofNode, mapping: Mapping[Var, Term]) -> ProofNode:
    """Apply a variable substitution to every sequent of a proof (Lemma 16).

    Every formula and term of the result is β-normalized (``πi(<t1,t2>)``
    becomes ``ti``), so a pair substituted for a product variable leaves no
    projection redex behind; a ``prod_beta`` node whose redex that removed
    concludes what its premise does and is dropped.  Substituting for a
    variable that a ∀ or ×η node introduces, or that ×η splits, by anything
    but a variable raises :class:`ProofError`.  Otherwise freshness is the
    caller's business: the checker rejects a result that captures.
    """
    mapping = dict(mapping)
    # Nodes are hash-consed, so one entry serves every occurrence of a
    # formula or term, and the normal forms share one memo; proof nodes
    # shared by the search are walked once.
    normal: Dict[Node, Node] = {}
    beta: Dict[Node, Node] = {}
    walked: Dict[int, ProofNode] = {}

    def sub(node: Node) -> Node:
        done = normal.get(node)
        if done is None:
            done = normal[node] = transform_bottom_up(substitute_many(node, mapping), beta_step, beta)
        return done

    def sub_var(var: Var) -> Var:
        image = mapping.get(var, var)
        if not isinstance(image, Var):
            raise ProofError(f"cannot substitute {image} for {var}, which a rule of the proof binds or splits")
        return image

    def walk(node: ProofNode) -> ProofNode:
        done = walked.get(id(node))
        if done is not None:
            return done
        sequent = Sequent(
            frozenset(sub(a) for a in node.sequent.theta),
            frozenset(sub(f) for f in node.sequent.delta),
        )
        premises = tuple(walk(p) for p in node.premises)
        if node.rule == "prod_beta" and premises[0].sequent == sequent:
            walked[id(node)] = premises[0]
            return premises[0]
        meta = dict(node.meta)
        for key in ("principal", "source", "target", "neq", "specialized"):
            if key in meta and isinstance(meta[key], Formula):
                meta[key] = sub(meta[key])
        if "witnesses" in meta:
            meta["witnesses"] = tuple(sub(w) for w in meta["witnesses"])
        if "fresh" in meta:
            fresh = meta["fresh"]
            if isinstance(fresh, Var):
                meta["fresh"] = sub_var(fresh)
            elif isinstance(fresh, tuple):
                meta["fresh"] = tuple(sub_var(v) for v in fresh)
        if "var" in meta and isinstance(meta["var"], Var):
            meta["var"] = sub_var(meta["var"])
        if "pair" in meta:
            meta["pair"] = sub(meta["pair"])
        done = walked[id(node)] = ProofNode(node.rule, sequent, premises, meta)
        return done

    return walk(proof)


# ------------------------------------------------------------- × inversion
def product_inversion(proof: ProofNode, target: Formula, pairs: Mapping[Var, PairTerm]) -> Tuple[ProofNode, ProofNode]:
    """Split a proof of ``Θ ⊢ o ≡ o′, Δ`` at product-typed ``o`` (Appendix G).

    ``target`` is ``o ≡ o′`` and ``pairs`` maps ``o ↦ <o1,o2>`` and
    ``o′ ↦ <o1′,o2′>`` for fresh component variables.  Substituting them and
    β-normalizing (Lemma 16, ×β) turns ``target`` into ``o1 ≡ o1′ ∧ o2 ≡ o2′``;
    ∧-inversion (Lemma 13) at that conjunction gives the proofs of
    ``Θ ⊢ oi ≡ oi′, Δ[pairs]``, first component first.  Raises
    :class:`ProofError` when the proof does not split this way (a ×η on
    ``o``, say).
    """
    split = substitute_proof(proof, pairs)
    conjunction = beta_normalize_formula(substitute_many(target, pairs))
    if not isinstance(conjunction, And) or conjunction not in split.sequent.delta:
        raise ProofError(f"{target} does not split into a conjunction of components")
    return and_inversion(split, conjunction, 1), and_inversion(split, conjunction, 2)


# ------------------------------------------------------------------ internals
def _replace_formula_walk(
    node: ProofNode,
    target: Formula,
    replacement: Formula,
    handlers,
    extra_theta: Tuple[Member, ...] = (),
) -> ProofNode:
    """Replace ``target`` by ``replacement`` (adding ``extra_theta``) throughout
    the proof, anchoring at the rule node that ``handlers`` recognizes."""
    sequent = node.sequent
    if target not in sequent.delta:
        # The target was already removed (e.g. by weakening); just weaken the
        # existing subproof into the enlarged context if needed.
        if extra_theta:
            return weaken_proof(node, extra_theta=extra_theta)
        return node
    if handlers.handles(node, target):
        inner = handlers.transform(node, target, replacement)
        if extra_theta and not set(extra_theta) <= inner.sequent.theta:
            inner = weaken_proof(inner, extra_theta=extra_theta)
        return inner
    new_delta = frozenset(replacement if f == target else f for f in sequent.delta)
    new_sequent = Sequent(sequent.theta | frozenset(extra_theta), new_delta)
    return _rebuild(
        node,
        new_sequent,
        lambda child: _replace_formula_walk(child, target, replacement, handlers, extra_theta),
        {target: replacement},
    )


def _rebuild(node: ProofNode, new_sequent: Sequent, transform_child, targets: Dict[Formula, Formula]) -> ProofNode:
    """Re-apply the rule of ``node`` with transformed premises and conclusion."""
    rule = node.rule
    meta = dict(node.meta)
    premises = tuple(transform_child(p) for p in node.premises)
    if rule == "eq":
        return focused.make_eq_axiom(new_sequent, meta["principal"])
    if rule == "top":
        return focused.make_top_axiom(new_sequent)
    if rule == "weaken":
        return focused.make_weaken(new_sequent, premises[0])
    if rule == "or":
        return focused.make_or(new_sequent, meta["principal"], premises[0])
    if rule == "and":
        return focused.make_and(new_sequent, meta["principal"], premises[0], premises[1])
    if rule == "forall":
        return focused.make_forall(new_sequent, meta["principal"], meta["fresh"], premises[0])
    if rule == "exists":
        return focused.make_exists(
            new_sequent, meta["principal"], meta["witnesses"], premises[0],
            require_maximal=not meta.get("partial", False),
        )
    if rule == "neq":
        return focused.make_neq(new_sequent, meta["neq"], meta["source"], meta["target"], premises[0])
    if rule == "prod_eta":
        fresh1, fresh2 = meta["fresh"]
        return focused.make_prod_eta(new_sequent, meta["var"], fresh1, fresh2, premises[0])
    if rule == "prod_beta":
        return focused.make_prod_beta(new_sequent, meta["pair"], meta["index"], premises[0])
    raise ProofError(f"cannot rebuild unknown rule {rule!r}")
