"""The focused Δ0 calculus of Figure 3: rule application and validation.

Every rule has

* a ``*_premises`` function computing the premise sequents from the conclusion
  and the rule parameters (used by proof search, working root-first), and
* a constructor ``make_*`` that assembles a :class:`ProofNode` from premise
  proofs and re-validates the application (raising
  :class:`~repro.errors.RuleApplicationError` otherwise).  A node built over
  premises that carry the validation mark gets the mark too
  (:func:`repro.proofs.prooftree.mark_validated`), so the checker does not
  validate the same application a second time.

Implementation notes (documented deviations, see DESIGN.md §5/§6):

* In the ∃ rule the paper instantiates blocks of existentials with *variable*
  membership atoms, relying on ×η/×β to first flatten pair-typed bounds.  We
  accept membership atoms ``t ∈ u`` whose collection ``u`` syntactically equals
  the (substituted) quantifier bound, with arbitrary terms ``t`` and ``u``.
  This is the conservative generalization obtained by composing the official
  rule with ×η/×β and is exactly the form used by the admissibility lemmas of
  Appendix F (e.g. Lemma 11 instantiates with ``w ∈ t`` for a term ``t``).
* ``weaken`` (admissible Lemma 12) is reified as an explicit structural rule so
  that proof search can discard exhausted formulas (e.g. the ⊥ produced by
  decomposing ``∃e ∈ s . ⊤`` hypotheses) while keeping every node checkable.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import RuleApplicationError
from repro.logic.formulas import (
    And,
    EqUr,
    Exists,
    Forall,
    Formula,
    Member,
    NeqUr,
    Or,
    Top,
    is_atomic,
)
from repro.logic.free_vars import replace_term, replace_term_in_term, substitute, substitute_term
from repro.logic.terms import PairTerm, Proj, Term, Var
from repro.nr.types import ProdType
from repro.proofs.prooftree import ProofNode, mark_validated
from repro.proofs.sequents import Sequent, all_el, sequent_free_vars


# --------------------------------------------------------------------- axioms
def make_eq_axiom(sequent: Sequent, principal: EqUr) -> ProofNode:
    """The ``=`` axiom: the conclusion contains a reflexive Ur-equality."""
    if principal not in sequent.delta:
        raise RuleApplicationError(f"= axiom: {principal} not in the sequent")
    if not isinstance(principal, EqUr) or principal.left != principal.right:
        raise RuleApplicationError(f"= axiom requires a reflexive equality, got {principal}")
    return mark_validated(ProofNode("eq", sequent, (), {"principal": principal}))


def make_top_axiom(sequent: Sequent) -> ProofNode:
    """The ``⊤`` axiom: the conclusion contains ⊤."""
    if Top() not in sequent.delta:
        raise RuleApplicationError("⊤ axiom: the sequent does not contain ⊤")
    return mark_validated(ProofNode("top", sequent, (), {"principal": Top()}))


# --------------------------------------------------------------------- ≠ rule
def is_atomic_replacement(source: Formula, target: Formula, old: Term, new: Term) -> bool:
    """True iff ``target`` is ``source`` with *some* occurrences of ``old`` replaced by ``new``."""
    if not is_atomic(source) or not is_atomic(target):
        return False
    if type(source) is not type(target):
        return False
    return _term_replacement(source.left, target.left, old, new) and _term_replacement(
        source.right, target.right, old, new
    )


def _term_replacement(source: Term, target: Term, old: Term, new: Term) -> bool:
    if source == target:
        return True
    if source == old and target == new:
        return True
    if isinstance(source, Proj) and isinstance(target, Proj) and source.index == target.index:
        return _term_replacement(source.arg, target.arg, old, new)
    if isinstance(source, PairTerm) and isinstance(target, PairTerm):
        return _term_replacement(source.left, target.left, old, new) and _term_replacement(
            source.right, target.right, old, new
        )
    return False


def neq_premises(sequent: Sequent, neq: NeqUr, source: Formula, target: Formula) -> Tuple[Sequent, ...]:
    if neq not in sequent.delta or source not in sequent.delta:
        raise RuleApplicationError("≠ rule: principal formulas are not in the sequent")
    if not all_el(sequent.delta):
        raise RuleApplicationError("≠ rule requires every right-hand formula to be EL")
    if not is_atomic_replacement(source, target, neq.left, neq.right):
        raise RuleApplicationError(
            f"≠ rule: {target} is not obtained from {source} by replacing {neq.left} with {neq.right}"
        )
    return (sequent.with_delta(target),)


def make_neq(sequent: Sequent, neq: NeqUr, source: Formula, target: Formula, premise: ProofNode) -> ProofNode:
    (expected,) = neq_premises(sequent, neq, source, target)
    _require_premise(expected, premise, "≠")
    return mark_validated(ProofNode("neq", sequent, (premise,), {"neq": neq, "source": source, "target": target}))


# ------------------------------------------------------------------- ∧ and ∨
def and_premises(sequent: Sequent, principal: And) -> Tuple[Sequent, ...]:
    _require_principal(principal, And, "∧")
    if principal not in sequent.delta:
        raise RuleApplicationError(f"∧ rule: {principal} not in the sequent")
    rest = sequent.without_delta(principal)
    return (rest.with_delta(principal.left), rest.with_delta(principal.right))


def make_and(sequent: Sequent, principal: And, left: ProofNode, right: ProofNode) -> ProofNode:
    expected_left, expected_right = and_premises(sequent, principal)
    _require_premise(expected_left, left, "∧ (left)")
    _require_premise(expected_right, right, "∧ (right)")
    return mark_validated(ProofNode("and", sequent, (left, right), {"principal": principal}))


def or_premises(sequent: Sequent, principal: Or) -> Tuple[Sequent, ...]:
    _require_principal(principal, Or, "∨")
    if principal not in sequent.delta:
        raise RuleApplicationError(f"∨ rule: {principal} not in the sequent")
    rest = sequent.without_delta(principal)
    return (rest.with_delta(principal.left, principal.right),)


def make_or(sequent: Sequent, principal: Or, premise: ProofNode) -> ProofNode:
    (expected,) = or_premises(sequent, principal)
    _require_premise(expected, premise, "∨")
    return mark_validated(ProofNode("or", sequent, (premise,), {"principal": principal}))


# ------------------------------------------------------------------------- ∀
def forall_premises(sequent: Sequent, principal: Forall, fresh: Var) -> Tuple[Sequent, ...]:
    _require_principal(principal, Forall, "∀")
    if principal not in sequent.delta:
        raise RuleApplicationError(f"∀ rule: {principal} not in the sequent")
    if fresh.typ != principal.var.typ:
        raise RuleApplicationError("∀ rule: the fresh variable has the wrong type")
    if fresh in sequent_free_vars(sequent):
        raise RuleApplicationError(f"∀ rule: {fresh} is not fresh for the conclusion")
    rest = sequent.without_delta(principal)
    body = substitute(principal.body, principal.var, fresh)
    return (rest.with_delta(body).with_theta(Member(fresh, principal.bound)),)


def make_forall(sequent: Sequent, principal: Forall, fresh: Var, premise: ProofNode) -> ProofNode:
    (expected,) = forall_premises(sequent, principal, fresh)
    _require_premise(expected, premise, "∀")
    return mark_validated(ProofNode("forall", sequent, (premise,), {"principal": principal, "fresh": fresh}))


# ------------------------------------------------------------------------- ∃
def specialize(formula: Formula, witnesses: Sequence[Term]) -> Formula:
    """Instantiate the leading existential block of ``formula`` with ``witnesses``."""
    return _specialize_block(formula, witnesses)[1]


def specialization_bounds(formula: Formula, witnesses: Sequence[Term]) -> List[Term]:
    """The successive (already substituted) bounds matched by each witness."""
    return _specialize_block(formula, witnesses)[0]


def _specialize_block(formula: Formula, witnesses: Sequence[Term]) -> Tuple[List[Term], Formula]:
    """One walk down the ∃-block: the bound each witness matches, and the specialized formula."""
    bounds: List[Term] = []
    current = formula
    for witness in witnesses:
        if not isinstance(current, Exists):
            raise RuleApplicationError(f"cannot specialize non-existential {current}")
        bounds.append(current.bound)
        current = substitute(current.body, current.var, witness)
    return bounds, current


def enumerate_max_specializations(
    formula: Formula, theta: Iterable[Member], limit: Optional[int] = None
) -> Iterator[Tuple[Tuple[Term, ...], Formula]]:
    """Enumerate the maximal specializations of ``formula`` with respect to ``theta``.

    Yields pairs ``(witnesses, specialized_formula)`` with at least one witness.
    """
    for witnesses, specialized, _bounds in enumerate_max_specializations_with_bounds(
        formula, theta, limit
    ):
        yield witnesses, specialized


def enumerate_max_specializations_with_bounds(
    formula: Formula, theta: Iterable[Member], limit: Optional[int] = None
) -> Iterator[Tuple[Tuple[Term, ...], Formula, Tuple[Term, ...]]]:
    """Like :func:`enumerate_max_specializations`, also yielding the bounds.

    The third component is the successive (already substituted) bounds each
    witness matched — exactly what :func:`specialization_bounds` recomputes
    from scratch, but produced here for free during the enumeration itself so
    proof search never substitutes the same block twice per candidate.
    """
    theta = list(theta)
    count = 0

    def recurse(
        current: Formula, chosen: Tuple[Term, ...], bounds: Tuple[Term, ...]
    ) -> Iterator[Tuple[Tuple[Term, ...], Formula, Tuple[Term, ...]]]:
        nonlocal count
        if limit is not None and count >= limit:
            return
        if isinstance(current, Exists):
            candidates = [atom.elem for atom in theta if atom.collection == current.bound]
            if candidates:
                for witness in candidates:
                    next_formula = substitute(current.body, current.var, witness)
                    yield from recurse(next_formula, chosen + (witness,), bounds + (current.bound,))
                return
        if chosen:
            count += 1
            yield chosen, current, bounds

    yield from recurse(formula, (), ())


def exists_premises(
    sequent: Sequent, principal: Exists, witnesses: Sequence[Term], require_maximal: bool = True
) -> Tuple[Sequent, ...]:
    return (sequent.with_delta(_exists_specialization(sequent, principal, witnesses, require_maximal)),)


def _exists_specialization(
    sequent: Sequent, principal: Exists, witnesses: Sequence[Term], require_maximal: bool
) -> Formula:
    """Validate an ∃ application; return the specialized principal.

    One walk down the ∃-block yields the bounds each witness must match and
    the specialized formula, from which the maximality test follows: the
    specialization is maximal unless what remains is an ∃ whose bound some
    ∈-atom of Θ still matches.
    """
    _require_principal(principal, Exists, "∃")
    if principal not in sequent.delta:
        raise RuleApplicationError(f"∃ rule: {principal} not in the sequent")
    if not all_el(sequent.delta):
        raise RuleApplicationError("∃ rule requires every right-hand formula to be EL")
    if not witnesses:
        raise RuleApplicationError("∃ rule requires at least one witness")
    bounds, specialized = _specialize_block(principal, witnesses)
    theta = sequent.theta
    for witness, bound in zip(witnesses, bounds):
        if Member(witness, bound) not in theta:
            raise RuleApplicationError(
                f"∃ rule: membership {witness} ∈ {bound} is not in the ∈-context"
            )
    if (
        require_maximal
        and isinstance(specialized, Exists)
        and any(atom.collection == specialized.bound for atom in theta)
    ):
        raise RuleApplicationError("∃ rule: the specialization is not maximal w.r.t. Θ")
    return specialized


def make_exists(
    sequent: Sequent,
    principal: Exists,
    witnesses: Sequence[Term],
    premise: ProofNode,
    require_maximal: bool = True,
) -> ProofNode:
    """Apply the ∃ rule.

    ``require_maximal=False`` admits a non-maximal block specialization; this
    corresponds to the admissible generalized ∃ rule of Lemma 15 and is used
    by the proof transformations of Appendix F (the node is tagged
    ``partial`` so the checker re-validates it under the same relaxation).
    """
    specialized = _exists_specialization(sequent, principal, witnesses, require_maximal)
    _require_premise(sequent.with_delta(specialized), premise, "∃")
    meta = {
        "principal": principal,
        "witnesses": tuple(witnesses),
        "specialized": specialized,
    }
    if not require_maximal:
        meta["partial"] = True
    return mark_validated(ProofNode("exists", sequent, (premise,), meta))


# --------------------------------------------------------------------- ×η, ×β
def _substitute_sequent(sequent: Sequent, var: Var, term: Term) -> Sequent:
    theta = frozenset(
        Member(
            substitute_term(atom.elem, {var: term}),
            substitute_term(atom.collection, {var: term}),
        )
        for atom in sequent.theta
    )
    delta = frozenset(substitute(formula, var, term) for formula in sequent.delta)
    return Sequent(theta, delta)


def prod_eta_premises(sequent: Sequent, var: Var, fresh1: Var, fresh2: Var) -> Tuple[Sequent, ...]:
    if not isinstance(var.typ, ProdType):
        raise RuleApplicationError(f"×η: {var} does not have product type")
    if fresh1.typ != var.typ.left or fresh2.typ != var.typ.right:
        raise RuleApplicationError("×η: fresh variables have the wrong component types")
    if not all_el(sequent.delta):
        raise RuleApplicationError("×η requires every right-hand formula to be EL")
    existing = sequent_free_vars(sequent)
    if fresh1 in existing or fresh2 in existing or fresh1 == fresh2:
        raise RuleApplicationError("×η: replacement variables are not fresh")
    return (_substitute_sequent(sequent, var, PairTerm(fresh1, fresh2)),)


def make_prod_eta(sequent: Sequent, var: Var, fresh1: Var, fresh2: Var, premise: ProofNode) -> ProofNode:
    (expected,) = prod_eta_premises(sequent, var, fresh1, fresh2)
    _require_premise(expected, premise, "×η")
    return mark_validated(ProofNode("prod_eta", sequent, (premise,), {"var": var, "fresh": (fresh1, fresh2)}))


def prod_beta_premises(sequent: Sequent, pair: PairTerm, index: int) -> Tuple[Sequent, ...]:
    if index not in (1, 2):
        raise RuleApplicationError("×β: index must be 1 or 2")
    if not all_el(sequent.delta):
        raise RuleApplicationError("×β requires every right-hand formula to be EL")
    redex = Proj(index, pair)
    component = pair.left if index == 1 else pair.right
    theta = frozenset(
        Member(
            replace_term_in_term(atom.elem, redex, component),
            replace_term_in_term(atom.collection, redex, component),
        )
        for atom in sequent.theta
    )
    delta = frozenset(replace_term(formula, redex, component) for formula in sequent.delta)
    return (Sequent(theta, delta),)


def make_prod_beta(sequent: Sequent, pair: PairTerm, index: int, premise: ProofNode) -> ProofNode:
    (expected,) = prod_beta_premises(sequent, pair, index)
    _require_premise(expected, premise, "×β")
    return mark_validated(ProofNode("prod_beta", sequent, (premise,), {"pair": pair, "index": index}))


# ------------------------------------------------------------------- weaken
def make_weaken(sequent: Sequent, premise: ProofNode) -> ProofNode:
    """Structural weakening: the premise proves a sub-sequent of the conclusion."""
    if not premise.sequent.theta <= sequent.theta or not premise.sequent.delta <= sequent.delta:
        raise RuleApplicationError("weaken: the premise is not a sub-sequent of the conclusion")
    return mark_validated(ProofNode("weaken", sequent, (premise,), {}))


# ------------------------------------------------------------------- helpers
def _require_principal(principal: object, connective: type, rule: str) -> None:
    # Checked before the Δ lookup: a principal read from an untrusted proof
    # tree may be of any class (or unhashable), not only the rule's own.
    if not isinstance(principal, connective):
        raise RuleApplicationError(
            f"{rule} rule: the principal {principal} is of class {type(principal).__name__}, "
            f"not {connective.__name__}"
        )


def _require_premise(expected: Sequent, premise: ProofNode, rule: str) -> None:
    if premise.sequent != expected:
        raise RuleApplicationError(
            f"{rule} rule: premise mismatch.\n  expected: {expected}\n  got:      {premise.sequent}"
        )
