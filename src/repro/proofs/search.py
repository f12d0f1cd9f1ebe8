"""Bounded proof search in the focused Δ0 calculus.

The paper leaves automated discovery of determinacy proofs open (Section 7);
this module supplies the enabling substrate so that the synthesis pipeline can
be exercised end to end without hand-written proof trees.  The strategy is a
goal-directed tableau tuned to the focused discipline of Figure 3:

1. *Invertible phase* — ⊥ is weakened away, ∨ and ∀ are decomposed eagerly,
   ∧ branches the proof.
2. *Stable phase* (every right-hand formula is EL) — first try to close the
   branch by equality reasoning (a chain of ≠-rule rewrites ending in the
   ``=`` axiom, reconstructed from a saturation of the atomic formulas), then
   cut the branch if its *goal distance* — a lower bound on the ∃-moves
   needed before Δ can hold an ``=`` atom or ⊤, without which neither an
   axiom nor the closure applies — exceeds the remaining ∃-budget (an
   admissible bound, as in IDA*: only subtrees that would fail are removed,
   so the first proof found is unchanged), then
   perform depth-first search over single ∃-rule applications (maximal
   specializations w.r.t. the ∈-context), ordering candidate instantiations by
   the recency of the ∈-atoms they use — determinacy proofs chain "use the
   witness you just introduced", so this heuristic finds them quickly.
3. The number of ∃ applications per branch is iteratively deepened.

Search state is memoized in a :class:`SearchTables` transposition table keyed
on the (hash-consed) sequent:

* **successes** — a proof of a sequent is valid wherever that sequent
  reappears: conjunctive siblings and later deepening rounds reuse the
  finished subproof instead of re-deriving it;
* **failures** — recorded with the *remaining* ∃-budget at which exploration
  was exhausted; a sequent that failed with ``b`` budget remaining cannot
  succeed with less, so deepening rounds skip the entire shallower tree
  (previously ``_failures`` was reset per round).  Like the pre-existing
  per-round table, this inherits the recency heuristic's move ordering —
  failures are relative to the ``max_branching`` truncation;
* **moves** — ∃-move enumeration is a pure function of the sequent, so
  revisits (every deepening round re-walks the proven prefix) skip the
  substitution work;
* **closures** — equality-closure saturation depends only on the sequent's
  ``=``/``≠`` atoms, so it is keyed on that subset: sibling branches that
  differ in their non-equality formulas share one saturation even cold;
* **distances** — the goal distance depends only on Δ's ∃-formulas and Θ's
  collections, so it is keyed on that pair.

All produced proofs are genuine Figure 3 proof trees; tests re-validate them
with the independent checker.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ProofSearchError
from repro.obs.trace import get_tracer
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
from repro.logic.free_vars import fresh_var, replace_term_in_term, substitute
from repro.logic.macros import negate
from repro.logic.terms import PairTerm, Proj, Term, Var, term_vars
from repro.proofs import focused
from repro.proofs.prooftree import ProofNode
from repro.proofs.sequents import Sequent, sequent_free_vars


def _render_key(formula: Formula) -> str:
    """The deterministic ordering key: the node's cached rendering.

    Formulas cache ``__str__`` in ``_cstr`` (``core.node``); reading the
    slot directly skips the bound-method dispatch that ``key=str`` pays per
    element per sort per visit.
    """
    key = formula.__dict__.get("_cstr")
    return key if key is not None else str(formula)


#: Distinct sentinel: a *cached* "no equality closure exists for this sequent"
#: (``None`` in the cache slot would be indistinguishable from a miss).
def _seed_free_vars(premise: Sequent, sequent: Sequent) -> None:
    """Propagate the cached free-variable set to a premise that preserves it.

    Valid only for rule premises whose free variables provably equal the
    conclusion's: Or-decomposition (the disjuncts' variables union to the
    principal's), ⊥-weakening (⊥ is closed) and ∃-moves (witnesses come from
    Θ).  And-premises can have strictly fewer variables, so they are never
    seeded — an over-approximated avoid-set would silently change which fresh
    names later ∀-decompositions pick.
    """
    fv = sequent.__dict__.get("_fv")
    if fv is not None and "_fv" not in premise.__dict__:
        object.__setattr__(premise, "_fv", fv)


_NO_CLOSURE = object()

#: Hoisted nullary formulas: membership tests against a module-level instance
#: reuse its cached structural hash, where ``Top() in delta`` would rehash a
#: fresh node on every attempt.
_TOP = Top()
_BOTTOM = Bottom()

#: One enumerated ∃-move, recency-independent (everything derivable from the
#: sequent alone): principal, witnesses, specialized body, the ∈-atoms the
#: witnesses consumed (for recency scoring), the static score component, and
#: the specialized formula's render key (the deterministic tiebreak).
_Move = Tuple[Exists, Tuple[Term, ...], Formula, Tuple[Member, ...], float, str]

#: One maximal specialization of a principal against a Θ — the Δ-independent
#: tail of a :data:`_Move` (witnesses, specialized, consumed, static score,
#: tiebreak), cached per ``(principal, Θ)`` pair.
_Expansion = Tuple[Tuple[Term, ...], Formula, Tuple[Member, ...], float, str]


class SearchTables:
    """Transposition state shared across the budgets of one :class:`ProofSearch`.

    Each search owns one instance, kept across its ``prove`` calls.  Failure
    entries are relative to the search's ``max_branching``/``max_attempts``
    and closure entries to its ``max_equality_atoms``.
    """

    #: Size bound applied by :meth:`maintain`: the tables are pure caches, so
    #: clearing them never changes results, only resets sharing.
    MAX_ENTRIES = 200_000

    __slots__ = (
        "successes",
        "failures",
        "moves",
        "closures",
        "distances",
        "expansions",
        "theta_indexes",
        "clears",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.successes: Dict[Sequent, ProofNode] = {}
        self.failures: Dict[Sequent, int] = {}
        self.moves: Dict[Sequent, List[_Move]] = {}
        self.closures: Dict[object, object] = {}
        self.distances: Dict[Tuple[FrozenSet[Formula], FrozenSet[Term]], int] = {}
        self.expansions: Dict[Tuple[Formula, FrozenSet[Member]], List[_Expansion]] = {}
        self.theta_indexes: Dict[FrozenSet[Member], Dict[Term, List[Term]]] = {}
        self.clears = 0
        global _last_tables_ref
        _last_tables_ref = weakref.ref(self)

    def __len__(self) -> int:
        return (
            len(self.successes)
            + len(self.failures)
            + len(self.moves)
            + len(self.closures)
            + len(self.distances)
            + len(self.expansions)
            + len(self.theta_indexes)
        )

    def clear(self) -> None:
        self.successes.clear()
        self.failures.clear()
        self.moves.clear()
        self.closures.clear()
        self.distances.clear()
        self.expansions.clear()
        self.theta_indexes.clear()

    def maintain(self) -> None:
        """Bound total size (called once per :meth:`ProofSearch.prove_or_none`)."""
        if len(self) > self.MAX_ENTRIES:
            self.clear()
            self.clears += 1

    def stats(self) -> Dict[str, int]:
        return {
            "successes": len(self.successes),
            "failures": len(self.failures),
            "moves": len(self.moves),
            "closures": len(self.closures),
            "distances": len(self.distances),
            "expansions": len(self.expansions),
            "theta_indexes": len(self.theta_indexes),
            "clears": self.clears,
        }


#: Weakref to the most recently constructed :class:`SearchTables`, so the
#: service telemetry layer can expose live table sizes without keeping a
#: finished search alive (see :func:`last_tables_stats`).
_last_tables_ref: Optional["weakref.ref[SearchTables]"] = None


def last_tables_stats() -> Dict[str, int]:
    """``stats()`` of the most recently built tables (empty if collected)."""
    tables = _last_tables_ref() if _last_tables_ref is not None else None
    return tables.stats() if tables is not None else {}


@dataclass
class SearchStats:
    """Statistics of a proof search run (used by the benchmark harness)."""

    attempts: int = 0
    exists_moves: int = 0
    equality_closures: int = 0
    budget_used: int = 0
    #: Sequents answered by a cached subproof from the transposition table.
    table_hits: int = 0
    #: Stable states skipped because an equal-or-deeper exploration failed.
    failure_hits: int = 0
    #: Stable states cut because their goal distance exceeded the budget.
    distance_cuts: int = 0
    #: Goals searched (calls of ``prove``/``prove_or_none``).
    searches: int = 0


class ProofSearch:
    """Iterative-deepening, recency-guided search for focused proofs."""

    def __init__(
        self,
        max_depth: int = 16,
        max_attempts: int = 400_000,
        max_branching: int = 24,
        max_equality_atoms: int = 4_000,
    ) -> None:
        self.max_depth = max_depth
        self.max_attempts = max_attempts
        self.max_branching = max_branching
        self.max_equality_atoms = max_equality_atoms
        self.tables = SearchTables()
        self.stats = SearchStats()
        #: ``(depth budget, attempts spent, distance cuts)`` per round of the
        #: last search.
        self.rounds: List[Tuple[int, int, int]] = []

    # ------------------------------------------------------------------ API
    def prove(self, sequent: Sequent) -> ProofNode:
        """Find a focused proof of ``sequent`` or raise :class:`ProofSearchError`."""
        proof = self.prove_or_none(sequent)
        if proof is None:
            budgets = [budget for budget, _, _ in self.rounds]
            attempts = [spent for _, spent, _ in self.rounds]
            cuts = self.rounds[-1][2]
            detail = {
                "budgets": budgets,
                "attempts_last_round": attempts[-1],
                "attempts_total": sum(attempts),
                "cuts_last_round": cuts,
                "max_depth": self.max_depth,
                "max_attempts": self.max_attempts,
            }
            raise ProofSearchError(
                f"no proof found: tried depth budgets {', '.join(map(str, budgets))} "
                f"(max_depth {self.max_depth}); the last round spent {attempts[-1]} "
                f"attempts and made {cuts} goal-distance cuts, {sum(attempts)} attempts "
                f"in total (at most {self.max_attempts} per round) for: {sequent}",
                detail,
            )
        return proof

    def prove_or_none(self, sequent: Sequent) -> Optional[ProofNode]:
        self.stats.searches += 1
        # Iterative deepening over distinct budgets: a budget repeated would
        # spend the attempt budget twice on the same exhausted tree.
        budgets = sorted({min(budget, self.max_depth) for budget in (4, 8, self.max_depth)})
        self.tables.maintain()
        tracer = get_tracer()
        self.rounds = []
        for budget in budgets:
            self._attempts = 0
            cuts_before = self.stats.distance_cuts
            with tracer.span("proof.round", budget=budget) as round_span:
                try:
                    proof = self._attempt(sequent, (), budget)
                except _SearchBudgetExceeded:
                    proof = None
                cuts = self.stats.distance_cuts - cuts_before
                round_span.set_attributes(
                    {"attempts": self._attempts, "cuts": cuts, "found": proof is not None}
                )
            # The attempt that tripped the budget was counted but never run.
            self.rounds.append((budget, min(self._attempts, self.max_attempts), cuts))
            if proof is not None:
                self.stats.budget_used = budget
                return proof
        return None

    # ------------------------------------------------------------ internals
    def _attempt(self, sequent: Sequent, recency: Tuple[Member, ...], budget: int) -> Optional[ProofNode]:
        successes = self.tables.successes
        cached = successes.get(sequent)
        if cached is not None:
            self.stats.table_hits += 1
            return cached
        proof = self._attempt_uncached(sequent, recency, budget)
        if proof is not None:
            successes[sequent] = proof
        return proof

    def _attempt_uncached(
        self, sequent: Sequent, recency: Tuple[Member, ...], budget: int
    ) -> Optional[ProofNode]:
        self._attempts += 1
        self.stats.attempts += 1
        if self._attempts > self.max_attempts:
            raise _SearchBudgetExceeded()

        delta = sequent.delta
        # -- closure by axioms
        if _TOP in delta:
            return focused.make_top_axiom(sequent)
        # One pass over Δ finds both the reflexive =-axiom candidate and the
        # invertible principal.  Both picks are min-by-rendering (priority
        # Or < Forall < And for the principal, matching the old triple sort):
        # the chosen formulas land in the proof tree, and downstream
        # interpolation must see the same proof on every PYTHONHASHSEED.
        reflexive: Optional[EqUr] = None
        reflexive_key = ""
        principal: Optional[Formula] = None
        principal_rank = 3
        principal_key = ""
        for f in delta:
            cls = f.__class__
            if cls is EqUr:
                if f.left == f.right:
                    key = _render_key(f)
                    if reflexive is None or key < reflexive_key:
                        reflexive, reflexive_key = f, key
            elif cls is Or or cls is Forall or cls is And:
                rank = 0 if cls is Or else 1 if cls is Forall else 2
                if rank > principal_rank:
                    continue
                key = _render_key(f)
                if rank < principal_rank or key < principal_key:
                    principal, principal_rank, principal_key = f, rank, key
        if reflexive is not None:
            return focused.make_eq_axiom(sequent, reflexive)

        # -- weaken ⊥ away (it would otherwise block the EL-only rules forever)
        if _BOTTOM in delta:
            premise_sequent = sequent.without_delta(_BOTTOM)
            _seed_free_vars(premise_sequent, sequent)
            premise = self._attempt(premise_sequent, recency, budget)
            if premise is None:
                return None
            return focused.make_weaken(sequent, premise)

        # -- invertible decomposition of AL formulas
        if principal is not None:
            return self._decompose(sequent, principal, recency, budget)

        # -- stable state: every formula is EL
        closure = self._equality_closure(sequent)
        if closure is not None:
            self.stats.equality_closures += 1
            return closure

        if budget <= 0:
            return None
        failures = self.tables.failures
        if failures.get(sequent, -1) >= budget:
            self.stats.failure_hits += 1
            return None
        if self._goal_distance(sequent) > budget:
            self.stats.distance_cuts += 1
            failures[sequent] = budget
            return None

        moves = self._candidate_moves(sequent, recency)
        for principal, witnesses, specialized in moves:
            # The enumeration already guarantees the rule's side conditions
            # (witness memberships in Θ, maximality), so the premise is built
            # directly; `make_exists` re-validates once on the success path.
            premise_sequent = sequent.with_delta(specialized)
            _seed_free_vars(premise_sequent, sequent)
            self.stats.exists_moves += 1
            premise = self._attempt(premise_sequent, recency, budget - 1)
            if premise is not None:
                return focused.make_exists(sequent, principal, witnesses, premise)
        failures[sequent] = budget
        return None

    # ------------------------------------------------- invertible decomposition
    def _decompose(
        self, sequent: Sequent, principal: Formula, recency: Tuple[Member, ...], budget: int
    ) -> Optional[ProofNode]:
        if isinstance(principal, Or):
            (premise_sequent,) = focused.or_premises(sequent, principal)
            _seed_free_vars(premise_sequent, sequent)
            premise = self._attempt(premise_sequent, recency, budget)
            if premise is None:
                return None
            return focused.make_or(sequent, principal, premise)
        if isinstance(principal, Forall):
            avoid = sequent_free_vars(sequent)
            fresh = fresh_var(principal.var.name, principal.var.typ, avoid)
            (premise_sequent,) = focused.forall_premises(sequent, principal, fresh)
            if "_fv" not in premise_sequent.__dict__:
                object.__setattr__(premise_sequent, "_fv", avoid | {fresh})
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

    # ------------------------------------------------------------- goal distance
    def _goal_distance(self, sequent: Sequent) -> int:
        """Least number of ∃-moves before Δ can hold an ``=`` atom or ⊤.

        Cached on Δ's ∃-formulas and Θ's collections, the only parts of a
        stable sequent the bound reads (see :func:`_goal_distance_fixpoint`).
        """
        exists: List[Formula] = []
        for f in sequent.delta:
            cls = f.__class__
            if cls is Exists:
                exists.append(f)
            elif cls is EqUr:
                return 0
        key = (frozenset(exists), frozenset(self._theta_index(sequent.theta)))
        distances = self.tables.distances
        distance = distances.get(key)
        if distance is None:
            distance = _goal_distance_fixpoint(key[0], key[1])
            distances[key] = distance
        return distance

    # ------------------------------------------------------------- ∃ moves
    def _theta_index(self, theta: FrozenSet[Member]) -> Dict[Term, List[Term]]:
        """Θ indexed by collection, cached on the Θ frozenset itself.

        Θ only changes at ∀-decompositions, so every sequent of an ∃-move
        chain shares one index.  Elements are in cached-rendering order so
        witness enumeration (and hence the whole search) stays
        PYTHONHASHSEED-stable; the per-collection index replaces the O(|Θ|)
        filter the enumeration used to run at every quantifier level of every
        candidate.
        """
        indexes = self.tables.theta_indexes
        index = indexes.get(theta)
        if index is None:
            index = {}
            for atom in sorted(theta, key=_render_key):
                index.setdefault(atom.collection, []).append(atom.elem)
            indexes[theta] = index
        return index

    def _expand_principal(self, principal: Exists, theta: FrozenSet[Member]) -> List[_Expansion]:
        """Maximal specializations of ``principal`` against ``theta``.

        Cached per ``(principal, Θ)``: along a chain of ∃-moves Δ grows but Θ
        is fixed, so each level of the chain reuses every earlier level's
        substitution work and enumerates only its *new* principal fresh.
        """
        expansions = self.tables.expansions
        key = (principal, theta)
        cached = expansions.get(key)
        if cached is not None:
            return cached
        by_collection = self._theta_index(theta)
        candidates: List[Tuple[Tuple[Term, ...], Formula, Tuple[Term, ...]]] = []

        def expand(current: Formula, chosen: Tuple[Term, ...], bounds: Tuple[Term, ...]) -> None:
            if isinstance(current, Exists):
                elems = by_collection.get(current.bound)
                if elems:
                    for witness in elems:
                        expand(
                            substitute(current.body, current.var, witness),
                            chosen + (witness,),
                            bounds + (current.bound,),
                        )
                    return
            if chosen:
                candidates.append((chosen, current, bounds))

        expand(principal, (), ())
        result: List[_Expansion] = []
        for witnesses, specialized, bounds in candidates:
            if specialized == principal:
                continue
            consumed = tuple(Member(witness, bound) for witness, bound in zip(witnesses, bounds))
            static_score = (
                2.0 if isinstance(specialized, (EqUr, NeqUr)) else 0.0
            ) - formula_size(specialized) / 50.0
            result.append((witnesses, specialized, consumed, static_score, str(specialized)))
        expansions[key] = result
        return result

    def _enumerate_moves(self, sequent: Sequent) -> List[_Move]:
        """All maximal ∃-moves of ``sequent``, cached on the sequent.

        Everything recency-*independent* happens here exactly once per
        distinct sequent — and the expensive part (witness enumeration with
        its substitutions) at most once per ``(principal, Θ)`` via
        :meth:`_expand_principal`.  Per-sequent work reduces to filtering
        specializations already present in Δ; per-visit work reduces to
        recency scoring + one sort.
        """
        moves_cache = self.tables.moves
        cached = moves_cache.get(sequent)
        if cached is not None:
            return cached
        moves: List[_Move] = []
        seen: Set[Tuple[Formula, Formula]] = set()
        delta = sequent.delta
        theta = sequent.theta
        for principal in sorted((f for f in delta if isinstance(f, Exists)), key=_render_key):
            for witnesses, specialized, consumed, static_score, tiebreak in self._expand_principal(
                principal, theta
            ):
                if specialized in delta:
                    continue
                key = (principal, specialized)
                if key in seen:
                    continue
                seen.add(key)
                moves.append((principal, witnesses, specialized, consumed, static_score, tiebreak))
        moves_cache[sequent] = moves
        return moves

    def _candidate_moves(
        self, sequent: Sequent, recency: Tuple[Member, ...]
    ) -> List[Tuple[Exists, Tuple[Term, ...], Formula]]:
        enumerated = self._enumerate_moves(sequent)
        if not enumerated:
            return []
        recency_index = {atom: i for i, atom in enumerate(recency)}
        lookup = recency_index.get
        scored = []
        for principal, witnesses, specialized, consumed, static_score, tiebreak in enumerated:
            newest = -1
            for atom in consumed:
                rank = lookup(atom, -1)
                if rank > newest:
                    newest = rank
            # Higher is better: prefer instantiations using recently
            # introduced ∈-atoms and producing small formulas (atoms close
            # branches fastest).
            score = 10.0 * newest + static_score
            scored.append((-score, tiebreak, principal, witnesses, specialized))
        scored.sort(key=lambda item: (item[0], item[1]))
        return [(p, w, s) for _, _, p, w, s in scored[: self.max_branching]]

    # --------------------------------------------------------- equality closure
    def _equality_closure(self, sequent: Sequent) -> Optional[ProofNode]:
        """Close the branch with a chain of ≠-rule rewrites ending in ``=``.

        The saturation depends only on the ``=``/``≠`` atoms of the sequent —
        not on its other EL formulas — so its outcome is cached keyed on that
        atom subset.  Sibling branches (and successive ∃-moves, which extend Δ
        with non-equality formulas) share one saturation even on a cold run;
        only the final proof assembly is per-sequent, and only on success.
        """
        atoms: List[Formula] = []
        has_goal = False
        has_hyp = False
        for f in sequent.delta:
            cls = f.__class__
            if cls is EqUr:
                atoms.append(f)
                has_goal = True
            elif cls is NeqUr:
                atoms.append(f)
                if f.left != f.right:
                    has_hyp = True
        # Cheap early-out without touching the cache: a closure needs at least
        # one = goal and one usable ≠ hypothesis (the common stable-phase case
        # has neither, and building the frozenset key would dominate).
        if not has_goal or not has_hyp:
            return None
        closures = self.tables.closures
        key = frozenset(atoms)
        cached = closures.get(key)
        if cached is None:
            cached = self._saturate_chain(atoms)
            closures[key] = cached
        if cached is _NO_CLOSURE:
            return None
        goal, chain, derivation = cached  # type: ignore[misc]

        # Build the proof: innermost sequent contains every derived atom of the
        # chain; close it with the = axiom, then peel ≠-rule applications.
        innermost = sequent.with_delta(*chain)
        proof = focused.make_eq_axiom(innermost, goal)
        for index in range(len(chain) - 1, -1, -1):
            conclusion = sequent.with_delta(*chain[:index])
            hyp, source = derivation[chain[index]]
            proof = focused.make_neq(conclusion, hyp, source, chain[index], proof)
        return proof

    def _saturate_chain(self, atoms: Sequence[Formula]) -> object:
        """Worklist saturation of the ≠-rewrite relation over ``atoms``.

        Returns :data:`_NO_CLOSURE` or ``(goal, chain, derivation)`` — the
        reflexive equality reached, the derived atoms in discovery order
        restricted to the goal's ancestors, and the ``atom → (hyp, source)``
        derivation map the proof assembly peels.

        Each new atom is paired once against the existing hypotheses (and,
        when it is itself a usable ≠-hypothesis, once against the existing
        atoms) — the old implementation re-walked the full ``ordered`` list
        from scratch after every derived atom, which was quadratic in the
        saturation size.  Enumeration stays deterministic: seeds are sorted by
        their cached rendering and the worklist is processed in insertion
        order, so which chain is found never depends on ``PYTHONHASHSEED``.
        """
        goals = sorted((f for f in atoms if isinstance(f, EqUr)), key=_render_key)
        hyps = sorted(
            (f for f in atoms if isinstance(f, NeqUr) and f.left != f.right), key=_render_key
        )
        if not goals or not hyps:
            return _NO_CLOSURE
        seeds = goals + hyps
        known: Set[Formula] = set(seeds)
        derivation: Dict[Formula, Tuple[NeqUr, Formula]] = {}
        order: List[Formula] = []
        goal: Optional[EqUr] = None

        processed_atoms: List[Formula] = []
        hypotheses: List[NeqUr] = []
        queue: List[Formula] = list(seeds)
        max_atoms = self.max_equality_atoms
        index = 0
        while index < len(queue) and goal is None and len(known) < max_atoms:
            new = queue[index]
            index += 1
            derived: List[Tuple[Formula, NeqUr, Formula]] = []
            # ``new`` as the rewritten atom, against every known hypothesis…
            for hyp in hypotheses:
                derived.append((_rewrite_atom(new, hyp.left, hyp.right), hyp, new))
            # …and, when usable as a hypothesis, against every known atom
            # (including itself: x≠y rewrites its own left side too).
            new_is_hyp = isinstance(new, NeqUr) and new.left != new.right
            if new_is_hyp:
                for atom in processed_atoms:
                    derived.append((_rewrite_atom(atom, new.left, new.right), new, atom))
                derived.append((_rewrite_atom(new, new.left, new.right), new, new))
            processed_atoms.append(new)
            if new_is_hyp:
                hypotheses.append(new)
            for rewritten, hyp, source in derived:
                if rewritten == source or rewritten in known:
                    continue
                known.add(rewritten)
                derivation[rewritten] = (hyp, source)
                order.append(rewritten)
                queue.append(rewritten)
                if isinstance(rewritten, EqUr) and rewritten.left == rewritten.right:
                    goal = rewritten
                    break

        if goal is None:
            return _NO_CLOSURE

        # Restrict to the ancestors of the goal among derived atoms, keeping
        # discovery order.
        needed: Set[Formula] = set()

        def collect(atom: Formula) -> None:
            if atom in derivation and atom not in needed:
                needed.add(atom)
                hyp, source = derivation[atom]
                collect(hyp)
                collect(source)

        collect(goal)
        chain = tuple(atom for atom in order if atom in needed)
        return (goal, chain, derivation)


class _SearchBudgetExceeded(Exception):
    """Internal signal: the per-budget attempt cap was exhausted."""


def _rewrite_atom(atom: Formula, old: Term, new: Term) -> Formula:
    if isinstance(atom, EqUr):
        return EqUr(replace_term_in_term(atom.left, old, new), replace_term_in_term(atom.right, old, new))
    if isinstance(atom, NeqUr):
        return NeqUr(replace_term_in_term(atom.left, old, new), replace_term_in_term(atom.right, old, new))
    return atom


#: Goal distance of a sequent whose Δ can never come to hold ``=`` or ⊤.
_UNREACHABLE = 1 << 30

#: One pooled ∃-formula of the goal-distance fixpoint, with the variables
#: bound around it inside the formula: the ∃-bound ones, and all of them.
_PoolEntry = Tuple[Formula, FrozenSet[Var], FrozenSet[Var]]


def _goal_distance_fixpoint(exists: FrozenSet[Formula], collections: FrozenSet[Term]) -> int:
    """Admissible lower bound on the ∃-moves before Δ can hold ``=`` or ⊤.

    Neither the axioms nor the equality closure close a branch without such
    a formula, so a stable sequent whose bound exceeds its ∃-budget fails.
    The bound is a level-by-level fixpoint over an abstraction of the search:
    level ``k + 1`` fires every pooled ∃-formula whose bound is available at
    level ``k`` (Θ's collections, plus the bounds of the ∀s fired so far).  A
    fired body is walked through ∨, ∧ and ∀: each ∀ makes its bound available
    from the next level, each nested ∃ joins the pool, and an ``=`` or ⊤ ends
    the fixpoint.  A leading ∃-prefix whose bounds are available is
    specialized by the same move, as :meth:`ProofSearch._expand_principal`
    does, so it costs one level, not one per ∃.

    The abstraction only ever over-approximates, which keeps the bound
    admissible: both conjuncts of an ∧ count (a branch sees one); a pooled
    ∃ fires once (refiring with other witnesses yields the same abstract
    body); a bound that mentions a variable bound inside the formula counts
    as available (its instance is unknown); and a ∀ bound that mentions an
    ∃-bound variable is kept as a pattern whose ∃-variables match any term.
    A ∀ bound that mentions a ∀-bound variable is dropped: its instance names
    a fresh eigenvariable, which no bound outside that ∀'s scope can name.
    """
    available: Set[Term] = set(collections)
    patterns: List[Tuple[Term, FrozenSet[Var]]] = []
    empty: FrozenSet[Var] = frozenset()

    def is_available(bound: Term, local: FrozenSet[Var]) -> bool:
        if bound in available:
            return True
        if local and not term_vars(bound).isdisjoint(local):
            return True
        return any(_matches(pattern, bound, wild) for pattern, wild in patterns)

    pending: List[_PoolEntry] = [(f, empty, empty) for f in exists]
    level = 0
    while pending:
        fire: List[_PoolEntry] = []
        waiting: List[_PoolEntry] = []
        for entry in pending:
            (fire if is_available(entry[0].bound, entry[2]) else waiting).append(entry)
        pending = waiting
        if not fire:
            return _UNREACHABLE
        level += 1
        grown: List[Tuple[Term, FrozenSet[Var]]] = []
        for formula, wild, local in fire:
            while formula.__class__ is Exists and is_available(formula.bound, local):
                wild = wild | {formula.var}
                local = local | {formula.var}
                formula = formula.body
            stack = [(formula, wild, local)]
            while stack:
                f, wild, local = stack.pop()
                cls = f.__class__
                if cls is EqUr or cls is Top:
                    return level
                if cls is Exists:
                    pending.append((f, wild, local))
                elif cls is Or or cls is And:
                    stack.append((f.left, wild, local))
                    stack.append((f.right, wild, local))
                elif cls is Forall:
                    bound_vars = term_vars(f.bound) & local
                    if bound_vars <= wild:
                        grown.append((f.bound, bound_vars))
                    stack.append((f.body, wild, local | {f.var}))
        for bound, wild in grown:
            if wild:
                patterns.append((bound, wild))
            else:
                available.add(bound)
    return _UNREACHABLE


def _matches(pattern: Term, term: Term, wild: FrozenSet[Var]) -> bool:
    """Whether ``term`` is an instance of ``pattern`` with ``wild`` as holes."""
    if pattern.__class__ is Var and pattern in wild:
        return True
    if pattern.__class__ is not term.__class__:
        return False
    if pattern.__class__ is PairTerm:
        return _matches(pattern.left, term.left, wild) and _matches(pattern.right, term.right, wild)
    if pattern.__class__ is Proj:
        return pattern.index == term.index and _matches(pattern.arg, term.arg, wild)
    return pattern == term


# ------------------------------------------------------------------ wrappers
def prove_sequent(
    theta: Iterable[Member] = (),
    delta: Iterable[Formula] = (),
    **search_options,
) -> ProofNode:
    """Prove ``Θ ⊢ Δ`` in the focused calculus."""
    return ProofSearch(**search_options).prove(Sequent.of(theta, delta))


def prove_entailment(
    hypotheses: Sequence[Formula],
    conclusion: Formula,
    theta: Iterable[Member] = (),
    **search_options,
) -> ProofNode:
    """Prove the two-sided sequent ``Θ; hypotheses ⊢ conclusion``.

    The hypotheses are moved to the right-hand side negated, following the
    paper's convention that ``Θ; Γ ⊢ Δ`` abbreviates ``Θ ⊢ ¬Γ, Δ``.
    """
    delta = [negate(h) for h in hypotheses] + [conclusion]
    return prove_sequent(theta, delta, **search_options)
