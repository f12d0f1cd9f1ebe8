"""Frozen pre-transposition proof search (test oracle only).

A verbatim copy of :mod:`repro.proofs.search` as it stood before the
transposition table, cached move enumeration and worklist equality closure
landed.  ``tests/test_proofs_search_memo.py`` checks that the memoized
search finds the same proof tree as this one — the same pattern as
``tests/reference_core.py`` for the evaluator.  Never import this from
library code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ProofSearchError
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
    formula_size,
)
from repro.logic.free_vars import fresh_var, replace_term_in_term
from repro.logic.terms import Term
from repro.proofs import focused
from repro.proofs.prooftree import ProofNode
from repro.proofs.sequents import Sequent, sequent_free_vars


@dataclass
class SearchStats:
    """Statistics of a proof search run."""

    attempts: int = 0
    exists_moves: int = 0
    equality_closures: int = 0
    budget_used: int = 0


class ReferenceProofSearch:
    """Iterative-deepening, recency-guided search for focused proofs."""

    def __init__(
        self,
        max_depth: int = 16,
        max_attempts: int = 400_000,
        max_branching: int = 24,
        max_equality_atoms: int = 4_000,
        depth_schedule: Optional[Sequence[int]] = None,
    ) -> None:
        self.max_depth = max_depth
        self.max_attempts = max_attempts
        self.max_branching = max_branching
        self.max_equality_atoms = max_equality_atoms
        self.depth_schedule = tuple(depth_schedule) if depth_schedule is not None else None
        self.stats = SearchStats()

    # ------------------------------------------------------------------ API
    def prove(self, sequent: Sequent) -> ProofNode:
        """Find a focused proof of ``sequent`` or raise :class:`ProofSearchError`."""
        proof = self.prove_or_none(sequent)
        if proof is None:
            raise ProofSearchError(
                f"no proof found within depth {self.max_depth} / {self.max_attempts} attempts for: {sequent}"
            )
        return proof

    def prove_or_none(self, sequent: Sequent) -> Optional[ProofNode]:
        if self.depth_schedule is not None:
            budgets = [b for b in self.depth_schedule if b <= self.max_depth] or [self.max_depth]
        else:
            budgets = [b for b in (4, 8, self.max_depth) if b <= self.max_depth]
            if not budgets or budgets[-1] != self.max_depth:
                budgets.append(self.max_depth)
        for budget in budgets:
            self._attempts = 0
            self._failures: Dict[Sequent, int] = {}
            try:
                proof = self._attempt(sequent, (), budget)
            except _SearchBudgetExceeded:
                proof = None
            if proof is not None:
                self.stats.budget_used = budget
                return proof
        return None

    # ------------------------------------------------------------ internals
    def _attempt(self, sequent: Sequent, recency: Tuple[Member, ...], budget: int) -> Optional[ProofNode]:
        self._attempts += 1
        self.stats.attempts += 1
        if self._attempts > self.max_attempts:
            raise _SearchBudgetExceeded()

        delta = sequent.delta
        # -- closure by axioms
        if Top() in delta:
            return focused.make_top_axiom(sequent)
        reflexive = [f for f in delta if isinstance(f, EqUr) and f.left == f.right]
        if reflexive:
            # min-by-rendering, not "whichever the set yields first": the
            # chosen axiom formula lands in the proof tree, and downstream
            # interpolation must see the same proof on every PYTHONHASHSEED.
            return focused.make_eq_axiom(sequent, min(reflexive, key=str))

        # -- weaken ⊥ away (it would otherwise block the EL-only rules forever)
        if Bottom() in delta:
            premise = self._attempt(sequent.without_delta(Bottom()), recency, budget)
            if premise is None:
                return None
            return focused.make_weaken(sequent, premise)

        # -- invertible decomposition of AL formulas
        decomposable = self._pick_decomposable(delta)
        if decomposable is not None:
            return self._decompose(sequent, decomposable, recency, budget)

        # -- stable state: every formula is EL
        closure = self._equality_closure(sequent)
        if closure is not None:
            self.stats.equality_closures += 1
            return closure

        if budget <= 0:
            return None
        if self._failures.get(sequent, -1) >= budget:
            return None

        moves = self._candidate_moves(sequent, recency)
        for principal, witnesses, _specialized in moves:
            (premise_sequent,) = focused.exists_premises(sequent, principal, witnesses)
            self.stats.exists_moves += 1
            premise = self._attempt(premise_sequent, recency, budget - 1)
            if premise is not None:
                return focused.make_exists(sequent, principal, witnesses, premise)
        self._failures[sequent] = budget
        return None

    # ------------------------------------------------- invertible decomposition
    def _pick_decomposable(self, delta: Iterable[Formula]) -> Optional[Formula]:
        ors = sorted((f for f in delta if isinstance(f, Or)), key=str)
        if ors:
            return ors[0]
        foralls = sorted((f for f in delta if isinstance(f, Forall)), key=str)
        if foralls:
            return foralls[0]
        ands = sorted((f for f in delta if isinstance(f, And)), key=str)
        if ands:
            return ands[0]
        return None

    def _decompose(
        self, sequent: Sequent, principal: Formula, recency: Tuple[Member, ...], budget: int
    ) -> Optional[ProofNode]:
        if isinstance(principal, Or):
            (premise_sequent,) = focused.or_premises(sequent, principal)
            premise = self._attempt(premise_sequent, recency, budget)
            if premise is None:
                return None
            return focused.make_or(sequent, principal, premise)
        if isinstance(principal, Forall):
            fresh = fresh_var(principal.var.name, principal.var.typ, sequent_free_vars(sequent))
            (premise_sequent,) = focused.forall_premises(sequent, principal, fresh)
            new_atom = Member(fresh, principal.bound)
            premise = self._attempt(premise_sequent, recency + (new_atom,), budget)
            if premise is None:
                return None
            return focused.make_forall(sequent, principal, fresh, premise)
        if isinstance(principal, And):
            left_sequent, right_sequent = focused.and_premises(sequent, principal)
            left = self._attempt(left_sequent, recency, budget)
            if left is None:
                return None
            right = self._attempt(right_sequent, recency, budget)
            if right is None:
                return None
            return focused.make_and(sequent, principal, left, right)
        raise ProofSearchError(f"unexpected decomposable formula {principal}")

    # ------------------------------------------------------------- ∃ moves
    def _candidate_moves(
        self, sequent: Sequent, recency: Tuple[Member, ...]
    ) -> List[Tuple[Exists, Tuple[Term, ...], Formula]]:
        recency_index = {atom: i for i, atom in enumerate(recency)}
        moves: List[Tuple[float, Exists, Tuple[Term, ...], Formula]] = []
        seen: Set[Tuple[Formula, Formula]] = set()
        # Θ is a frozenset; iterate it in cached-rendering order so witness
        # enumeration (and hence the whole search) is PYTHONHASHSEED-stable.
        theta = sorted(sequent.theta, key=str)
        for principal in sorted((f for f in sequent.delta if isinstance(f, Exists)), key=str):
            for witnesses, specialized in focused.enumerate_max_specializations(principal, theta):
                if specialized in sequent.delta or specialized == principal:
                    continue
                key = (principal, specialized)
                if key in seen:
                    continue
                seen.add(key)
                score = self._score_move(sequent, principal, witnesses, specialized, recency_index)
                moves.append((score, principal, witnesses, specialized))
        moves.sort(key=lambda item: (-item[0], str(item[3])))
        return [(p, w, s) for _, p, w, s in moves[: self.max_branching]]

    def _score_move(
        self,
        sequent: Sequent,
        principal: Exists,
        witnesses: Tuple[Term, ...],
        specialized: Formula,
        recency_index: Dict[Member, int],
    ) -> float:
        """Higher is better.  Prefer instantiations using recently introduced
        ∈-atoms and producing small formulas (atoms close branches fastest)."""
        bounds = focused.specialization_bounds(principal, witnesses)
        newest = -1
        for witness, bound in zip(witnesses, bounds):
            atom = Member(witness, bound)
            newest = max(newest, recency_index.get(atom, -1))
        size_penalty = formula_size(specialized) / 50.0
        atom_bonus = 2.0 if isinstance(specialized, (EqUr, NeqUr)) else 0.0
        return 10.0 * newest + atom_bonus - size_penalty

    # --------------------------------------------------------- equality closure
    def _equality_closure(self, sequent: Sequent) -> Optional[ProofNode]:
        """Close the branch with a chain of ≠-rule rewrites ending in ``=``.

        Saturation iterates ``ordered`` (a deterministic insertion-order list
        shadowing the ``known`` membership set), never a raw set: which chain
        the saturation finds decides the proof tree that interpolation later
        consumes, so enumeration order must not depend on ``PYTHONHASHSEED``.
        """
        goals = sorted((f for f in sequent.delta if isinstance(f, EqUr)), key=str)
        hyps = sorted(
            (f for f in sequent.delta if isinstance(f, NeqUr) and f.left != f.right), key=str
        )
        if not goals or not hyps:
            return None
        atoms = goals + hyps
        known: Set[Formula] = set(atoms)
        ordered: List[Formula] = list(atoms)
        derivation: Dict[Formula, Tuple[NeqUr, Formula]] = {}
        order: List[Formula] = []
        goal: Optional[EqUr] = None

        progressing = True
        while progressing and goal is None and len(known) < self.max_equality_atoms:
            progressing = False
            hypotheses = [a for a in ordered if isinstance(a, NeqUr) and a.left != a.right]
            for hyp in hypotheses:
                for atom in list(ordered):
                    rewritten = _rewrite_atom(atom, hyp.left, hyp.right)
                    if rewritten == atom or rewritten in known:
                        continue
                    known.add(rewritten)
                    ordered.append(rewritten)
                    derivation[rewritten] = (hyp, atom)
                    order.append(rewritten)
                    progressing = True
                    if isinstance(rewritten, EqUr) and rewritten.left == rewritten.right:
                        goal = rewritten
                        break
                if goal is not None:
                    break

        if goal is None:
            return None

        # Collect the ancestors of the goal among derived atoms, in derivation order.
        needed: Set[Formula] = set()

        def collect(atom: Formula) -> None:
            if atom in derivation and atom not in needed:
                needed.add(atom)
                hyp, source = derivation[atom]
                collect(hyp)
                collect(source)

        collect(goal)
        chain = [atom for atom in order if atom in needed]

        # Build the proof: innermost sequent contains every derived atom of the
        # chain; close it with the = axiom, then peel ≠-rule applications.
        innermost = sequent.with_delta(*chain)
        proof = focused.make_eq_axiom(innermost, goal)
        for index in range(len(chain) - 1, -1, -1):
            conclusion = sequent.with_delta(*chain[:index])
            hyp, source = derivation[chain[index]]
            proof = focused.make_neq(conclusion, hyp, source, chain[index], proof)
        return proof


class _SearchBudgetExceeded(Exception):
    """Internal signal: the per-budget attempt cap was exhausted."""


def _rewrite_atom(atom: Formula, old: Term, new: Term) -> Formula:
    if isinstance(atom, EqUr):
        return EqUr(replace_term_in_term(atom.left, old, new), replace_term_in_term(atom.right, old, new))
    if isinstance(atom, NeqUr):
        return NeqUr(replace_term_in_term(atom.left, old, new), replace_term_in_term(atom.right, old, new))
    return atom
