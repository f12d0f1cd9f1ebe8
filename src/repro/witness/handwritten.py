"""Hand-written determinacy proofs for the hard registry entries.

Examples 1.1 and 4.1 of the paper lie beyond the bounded proof search (their
determinacy arguments need nested key/extensionality reasoning that blows the
branching budget), so the witness store ships *hand-written* proof trees for
them.  This module provides both the proofs and the small LCF-style tactic
engine they are written in.

The engine (:class:`Prover`) drives the rule constructors of
:mod:`repro.proofs.focused` over an explicit stack of open goals, depth-first
and left-to-right.  Every tactic application is validated eagerly by the
``make_*`` constructors, so a completed script is correct by construction;
the constructors leave the checker's validation mark on every node, so the
store's :func:`repro.proofs.checker.check_proof` before it persists a tree
costs one test at the root, and a tree read back from disk in another
process is checked in full.

Two tactics carry the creative content of the scripts:

* :meth:`Prover.use` — instantiate a negated hypothesis (an ∃-block in the
  one-sided Δ) at chosen witnesses: the refutation reading of "apply the
  ∀-hypothesis at these elements".
* :meth:`Prover.equality` — close a goal whose remaining content is a chain
  of ur-equalities with the proof search's ≠-rule saturation.

The proofs follow the semantic argument of the paper: an element ``b`` of one
side is flattened through the view (``C2``), pulled back on the other side
(``C1'``), and the key constraint pins the result down to a unique partner;
per-element extensionality of the second components repeats the same
flatten/pull-back/key round trip one level down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProofError
from repro.logic.formulas import (
    And,
    Exists,
    Forall,
    Formula,
    Or,
    is_atomic,
)
from repro.logic.free_vars import substitute, substitute_many
from repro.logic.macros import negate
from repro.logic.terms import Term, Var
from repro.proofs import focused
from repro.proofs.prooftree import ProofNode
from repro.proofs.search import ProofSearch
from repro.proofs.sequents import Sequent, sequent_free_vars
from repro.specs.examples import (
    example_1_1,
    example_4_1,
    flatten_view_conjuncts,
    lossless_constraints,
)
from repro.specs.problems import ImplicitDefinitionProblem


class TacticError(ProofError):
    """A tactic could not be applied to the current goal."""


# --------------------------------------------------------------------------
# The engine.
# --------------------------------------------------------------------------
@dataclass
class _Frame:
    """A rule application waiting for its premise subproofs."""

    build: Callable[[List[ProofNode]], ProofNode]
    pending: List[Sequent]
    done: List[ProofNode] = field(default_factory=list)


class Prover:
    """Imperative LCF-style proof builder over the focused calculus."""

    def __init__(self, goal: Sequent) -> None:
        self._frames: List[_Frame] = [_Frame(lambda ps: ps[0], [goal])]
        self._current: Optional[Sequent] = None
        self._fresh = 0
        self.result: Optional[ProofNode] = None
        self._advance()

    # ------------------------------------------------------------- plumbing
    @property
    def goal(self) -> Sequent:
        """The current open goal (the next premise in depth-first order)."""
        if self._current is None:
            raise TacticError("no open goal")
        return self._current

    @property
    def open_goals(self) -> int:
        count = 1 if self._current is not None else 0
        return count + sum(len(frame.pending) for frame in self._frames)

    def qed(self) -> ProofNode:
        """The finished proof; raises while goals remain open."""
        if self.result is None:
            raise TacticError(f"{self.open_goals} goal(s) remain open")
        return self.result

    def _advance(self) -> None:
        while self._frames:
            frame = self._frames[-1]
            if frame.pending:
                self._current = frame.pending.pop(0)
                return
            self._frames.pop()
            node = frame.build(frame.done)
            if self._frames:
                self._frames[-1].done.append(node)
            else:
                self.result = node
        self._current = None

    def _apply(
        self,
        premises: Sequence[Sequent],
        build: Callable[[List[ProofNode]], ProofNode],
    ) -> None:
        self._frames.append(_Frame(build, list(premises)))
        self._current = None
        self._advance()

    def _fresh_var(self, hint: str, typ) -> Var:
        taken = {var.name for var in sequent_free_vars(self.goal)}
        while True:
            self._fresh += 1
            name = f"{hint}{self._fresh}"
            if name not in taken:
                return Var(name, typ)

    def _in_delta(self, formula: Formula, rule: str) -> None:
        if formula not in self.goal.delta:
            raise TacticError(f"{rule}: {formula} is not in the current goal\n  {self.goal}")

    # -------------------------------------------------------------- tactics
    def split(self, principal: Formula) -> Tuple[Formula, Formula]:
        """∧-rule: fork into the two conjunct goals (left first)."""
        if not isinstance(principal, And):
            raise TacticError(f"split: {principal} is not a conjunction")
        self._in_delta(principal, "split")
        goal = self.goal
        premises = focused.and_premises(goal, principal)
        self._apply(
            premises,
            lambda ps, g=goal, p=principal: focused.make_and(g, p, ps[0], ps[1]),
        )
        return principal.left, principal.right

    def or_elim(self, principal: Formula) -> Tuple[Formula, Formula]:
        """∨-rule: replace the disjunction by both disjuncts."""
        if not isinstance(principal, Or):
            raise TacticError(f"or_elim: {principal} is not a disjunction")
        self._in_delta(principal, "or_elim")
        goal = self.goal
        premises = focused.or_premises(goal, principal)
        self._apply(
            premises, lambda ps, g=goal, p=principal: focused.make_or(g, p, ps[0])
        )
        return principal.left, principal.right

    def flatten(self, principal: Formula) -> Tuple[Formula, ...]:
        """∨-rule, iterated: flatten a nested disjunction into its leaves."""
        if not isinstance(principal, Or):
            return (principal,)
        self.or_elim(principal)
        return tuple(
            leaf
            for part in (principal.left, principal.right)
            for leaf in self.flatten(part)
        )

    def fix(self, principal: Formula, hint: str = "h") -> Tuple[Var, Formula]:
        """∀-rule: introduce a fresh element of the bound.

        Returns the eigenvariable and the instantiated body (now in Δ); the
        membership ``fresh ∈ bound`` lands in Θ, ready to justify later
        ∃-instantiations.
        """
        if not isinstance(principal, Forall):
            raise TacticError(f"fix: {principal} is not universal")
        self._in_delta(principal, "fix")
        goal = self.goal
        fresh = self._fresh_var(hint, principal.var.typ)
        premises = focused.forall_premises(goal, principal, fresh)
        self._apply(
            premises,
            lambda ps, g=goal, p=principal, f=fresh: focused.make_forall(g, p, f, ps[0]),
        )
        return fresh, substitute(principal.body, principal.var, fresh)

    def use(self, principal: Formula, *witnesses: Term) -> Formula:
        """∃-rule: instantiate an existential block at chosen witnesses.

        This is the refutation reading of "apply the hypothesis at these
        elements" — the negated hypotheses of a determinacy sequent are
        ∃-blocks.  The generalized (non-maximal, Lemma 15) form is used so
        scripts can instantiate exactly the block they mean; the node is
        tagged ``partial`` and re-checked under the same relaxation.
        """
        if not isinstance(principal, Exists):
            raise TacticError(f"use: {principal} is not existential")
        self._in_delta(principal, "use")
        goal = self.goal
        premises = focused.exists_premises(
            goal, principal, list(witnesses), require_maximal=False
        )
        self._apply(
            premises,
            lambda ps, g=goal, p=principal, w=tuple(witnesses): focused.make_exists(
                g, p, w, ps[0], require_maximal=False
            ),
        )
        return focused.specialize(principal, list(witnesses))

    def drop(self, *formulas: Formula) -> None:
        """Weaken: remove right-hand formulas (e.g. ⊥ leftovers blocking ∃)."""
        goal = self.goal
        for formula in formulas:
            self._in_delta(formula, "drop")
        premise = goal.without_delta(*formulas)
        self._apply((premise,), lambda ps, g=goal: focused.make_weaken(g, ps[0]))

    def keep(self, *formulas: Formula) -> None:
        """Weaken Δ down to exactly ``formulas`` (Θ is kept in full)."""
        goal = self.goal
        premise = Sequent(goal.theta, frozenset(formulas))
        if not premise.delta <= goal.delta:
            raise TacticError("keep: some formulas are not in the current goal")
        self._apply((premise,), lambda ps, g=goal: focused.make_weaken(g, ps[0]))

    def close_eq(self, principal: Formula) -> None:
        """The ``=`` axiom: a reflexive equality is in the goal."""
        goal = self.goal
        self._apply((), lambda ps, g=goal, p=principal: focused.make_eq_axiom(g, p))

    def close_top(self) -> None:
        goal = self.goal
        self._apply((), lambda ps, g=goal: focused.make_top_axiom(g))

    def auto(self, max_depth: int = 8, **kwargs) -> None:
        """Close the current goal with the bounded proof search."""
        goal = self.goal
        node = ProofSearch(max_depth=max_depth, **kwargs).prove(goal)
        self._apply((), lambda ps, n=node: n)

    # ------------------------------------------------------- equality close
    def equality(self, max_atoms: int = 4000) -> None:
        """Close the goal by equational (≠-rule) reasoning over its atoms.

        Weakens Δ to its ``=``/``≠`` atoms, then closes it with the proof
        search's equality closure: every ≠ atom is read as an equality
        hypothesis (its dual) and used to rewrite every atom, until some
        ``=`` atom becomes reflexive, and only that derivation is replayed.
        """
        atoms = [f for f in self.goal.delta if is_atomic(f)]
        if len(atoms) != len(self.goal.delta):
            self.keep(*atoms)
        goal = self.goal
        node = ProofSearch(max_depth=1, max_equality_atoms=max_atoms).prove_or_none(goal)
        if node is None:
            raise TacticError(f"equality: no reflexive equality derivable from\n  {goal}")
        self._apply((), lambda ps, n=node: n)


# --------------------------------------------------------------------------
# The scripted proofs.
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class _Side:
    """One side's negated hypotheses (original or primed copy)."""

    c1: Formula
    c2: Formula
    key: Formula
    non_empty: Optional[Formula] = None
    sound: Optional[Formula] = None
    complete: Optional[Formula] = None


def _transfer(
    p: Prover,
    inner: Formula,
    elem: Term,
    pre: Sequence[Formula],
    b_from: Var,
    c2_from: Formula,
    c1_to: Formula,
    key_to: Formula,
    b_to: Var,
    post: Sequence[Formula],
) -> None:
    """Close ``inner`` (``∃z ∈ π2(b_to)-side bound. elem = z``) by the round trip.

    Walks ``elem`` through the negated-subset hypotheses ``pre`` into
    ``π2(b_from)``, flattens it through the view (``C2``), pulls the flat pair
    back on the other side (``C1'``), pins the landing base element to
    ``b_to`` with the key constraint, and walks the matched element through
    ``post`` into the goal bound.
    """
    cursor = elem
    for nsub in pre:
        step, _ = p.fix(p.use(nsub, cursor), "t")
        cursor = step
    v, body = p.fix(p.use(c2_from, b_from, cursor), "v")
    p.flatten(body)
    b_hit, body = p.fix(p.use(c1_to, v), "c")
    _, nmem = p.flatten(body)
    z, _ = p.fix(nmem, "z")
    _, negated = p.split(p.use(key_to, b_hit, b_to))
    p.equality()  # π1(b_hit) = π1(b_to): both equal π1(v) over the chain.
    _, nsub_hit, _ = p.flatten(negated)
    cursor = z
    for nsub in (nsub_hit, *post):
        step, _ = p.fix(p.use(nsub, cursor), "u")
        cursor = step
    p.use(inner, cursor)
    p.equality()


def _component_subset(
    p: Prover,
    sub_goal: Formula,
    b_from: Var,
    c2_from: Formula,
    c1_to: Formula,
    key_to: Formula,
    b_to: Var,
) -> None:
    """Prove ``π2(b_from) ⊆ π2(b_to)`` element-wise via :func:`_transfer`."""
    elem, inner = p.fix(sub_goal, "x")
    _transfer(p, inner, elem, (), b_from, c2_from, c1_to, key_to, b_to, ())


def _prove_side_4_1(p: Prover, sub_goal: Formula, src: _Side, dst: _Side) -> None:
    """One inclusion of Example 4.1's goal ``B ≡ B'``."""
    b0, inner = p.fix(sub_goal, "b")
    # non-emptiness hands us an element of π2(b0) to flatten through the view.
    e0, bottom = p.fix(p.use(src.non_empty, b0), "e")
    p.drop(bottom)
    v0, body = p.fix(p.use(src.c2, b0, e0), "v")
    p.flatten(body)
    # pull the flat pair back on the other side: the partner base element.
    b1, body = p.fix(p.use(dst.c1, v0), "c")
    _, nmem = p.flatten(body)
    p.fix(nmem, "z")
    # b1 is the witness; the equivalence splits into key and π2-extensionality.
    head, rest = p.split(p.use(inner, b1))
    p.equality()  # π1(b0) = π1(v0) = π1(b1).
    sub_ab, sub_ba = p.split(rest)
    _component_subset(p, sub_ab, b0, src.c2, dst.c1, dst.key, b1)
    _component_subset(p, sub_ba, b1, dst.c2, src.c1, src.key, b0)


def proof_example_4_1() -> ProofNode:
    """A hand-written focused proof of Example 4.1's determinacy sequent."""
    problem = example_4_1()
    base = problem.output
    (view,) = problem.inputs
    primed_phi, primed_base, _ = problem.primed()
    mapping = {base: primed_base}

    c1, c2 = flatten_view_conjuncts(base, view)
    key, non_empty = lossless_constraints(base)

    def side(conjs: Sequence[Formula], sub=None) -> _Side:
        c1_, c2_, key_, ne_ = (
            negate(f if sub is None else substitute_many(f, sub)) for f in conjs
        )
        return _Side(c1=c1_, c2=c2_, key=key_, non_empty=ne_)

    plain = side((c1, c2, key, non_empty))
    primed = side((c1, c2, key, non_empty), mapping)

    goal = problem.determinacy_goal()
    p = Prover(goal)
    p.flatten(negate(problem.phi))
    p.flatten(negate(primed_phi))
    sub_ab, sub_ba = p.split(_goal_formula(goal, problem))
    _prove_side_4_1(p, sub_ab, plain, primed)
    _prove_side_4_1(p, sub_ba, primed, plain)
    return p.qed()


def _prove_side_1_1(
    p: Prover, sub_goal: Formula, src: _Side, dst: _Side
) -> None:
    """One inclusion of Example 1.1's goal ``Q ≡ Q'``."""
    q0, inner = p.fix(sub_goal, "q")
    # soundness: q0 comes from the base and its key selects itself.
    nmem_base, nmem_self = p.flatten(p.use(src.sound, q0))
    b0, body = p.fix(nmem_base, "b")
    _, nsub_qb, nsub_bq = p.flatten(body)  # q0 ≡ b0, componentwise.
    k0, _ = p.fix(nmem_self, "k")  # π1(q0) = k0 ∈ π2(q0).
    k1, _ = p.fix(p.use(nsub_qb, k0), "m")  # the same key inside π2(b0).
    # flatten (b0, k1) through the view and pull back on the primed side.
    v0, body = p.fix(p.use(src.c2, b0, k1), "v")
    p.flatten(body)
    b1, body = p.fix(p.use(dst.c1, v0), "c")
    _, nmem = p.flatten(body)
    z0, _ = p.fix(nmem, "z")
    # completeness on the primed side: b1 selects itself, so it is in Q'.
    self_mem, not_in_query = p.split(p.use(dst.complete, b1))
    p.use(self_mem, z0)
    p.equality()  # π1(b1) = … = k1 = π2(v0) = z0 ∈ π2(b1).
    q1, body = p.fix(not_in_query, "p")
    _, nsub_bq1, nsub_q1b = p.flatten(body)  # b1 ≡ q1, componentwise.
    # q1 is the witness; equivalence = key chain + π2-extensionality with an
    # extra subset hop on each side (q0 ≡ b0 entering, b1 ≡ q1 leaving).
    head, rest = p.split(p.use(inner, q1))
    p.equality()  # π1(q0) = π1(b0) = π1(v0) = π1(b1) = π1(q1).
    sub_ab, sub_ba = p.split(rest)
    elem, inner_ab = p.fix(sub_ab, "x")
    _transfer(
        p, inner_ab, elem, (nsub_qb,), b0, src.c2, dst.c1, dst.key, b1, (nsub_bq1,)
    )
    elem, inner_ba = p.fix(sub_ba, "y")
    _transfer(
        p, inner_ba, elem, (nsub_q1b,), b1, dst.c2, src.c1, src.key, b0, (nsub_bq,)
    )


def proof_example_1_1() -> ProofNode:
    """A hand-written focused proof of Example 1.1's determinacy sequent."""
    problem = example_1_1()
    query = problem.output
    (view,) = problem.inputs
    (base,) = problem.auxiliaries
    primed_phi, primed_query, (primed_base,) = problem.primed()
    mapping = {query: primed_query, base: primed_base}

    from repro.logic.macros import implies, member_hat
    from repro.logic.terms import proj1, proj2

    c1, c2 = flatten_view_conjuncts(base, view)
    key, _ = lossless_constraints(base)
    q = Var("q", base.typ.elem)
    b = Var("b", base.typ.elem)
    sound = Forall(q, query, And(member_hat(q, base), member_hat(proj1(q), proj2(q))))
    complete = Forall(
        b, base, implies(member_hat(proj1(b), proj2(b)), member_hat(b, query))
    )

    def side(sub=None) -> _Side:
        def neg(f: Formula) -> Formula:
            return negate(f if sub is None else substitute_many(f, sub))

        return _Side(
            c1=neg(c1), c2=neg(c2), key=neg(key), sound=neg(sound), complete=neg(complete)
        )

    plain = side()
    primed = side(mapping)

    goal = problem.determinacy_goal()
    p = Prover(goal)
    p.flatten(negate(problem.phi))
    p.flatten(negate(primed_phi))
    sub_ab, sub_ba = p.split(_goal_formula(goal, problem))
    _prove_side_1_1(p, sub_ab, plain, primed)
    _prove_side_1_1(p, sub_ba, primed, plain)
    return p.qed()


def _goal_formula(goal: Sequent, problem: ImplicitDefinitionProblem) -> Formula:
    """The positive ``output ≡ output'`` conjunction of a determinacy sequent."""
    for formula in goal.delta:
        if isinstance(formula, And):
            return formula
    raise TacticError(f"no equivalence goal in {goal}")


#: Hand-written proofs by registry entry name (the ``hard`` tier).
HANDWRITTEN: Dict[str, Callable[[], ProofNode]] = {
    "example_4_1": proof_example_4_1,
    "example_1_1": proof_example_1_1,
}

#: The problems the hand-written proofs are for, by the same names.
HANDWRITTEN_PROBLEMS: Dict[str, Callable[[], ImplicitDefinitionProblem]] = {
    "example_4_1": example_4_1,
    "example_1_1": example_1_1,
}


def handwritten_proof(name: str) -> ProofNode:
    """Build (and return) the hand-written proof for a hard registry entry."""
    try:
        builder = HANDWRITTEN[name]
    except KeyError:
        raise TacticError(f"no hand-written proof for {name!r}") from None
    return builder()


def install_handwritten(store) -> Dict[str, "object"]:
    """Build, check and persist every hand-written witness into ``store``.

    Returns the stored records by registry entry name.  The store's ``put``
    passes each tree through the independent checker before it touches disk;
    every node was validated by a rule constructor as the script ran, so a
    bug in a tactic script cannot poison the witness tier.
    """
    records = {}
    for name, builder in HANDWRITTEN.items():
        problem = HANDWRITTEN_PROBLEMS[name]()
        records[name] = store.put(builder(), name=problem.name, problem=problem)
    return records


# --------------------------------------------------------------------------
# Replay: checker → interpolation → semantic verification.
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying a witness through interpolation and verification."""

    name: str
    proof_nodes: int
    interpolant: Formula
    conditions_checked: int


def determinacy_interpolant(
    problem: ImplicitDefinitionProblem, proof: ProofNode
) -> Formula:
    """The Craig interpolant θ splitting ``¬φ | ¬φ', o ≡ o'``.

    θ mentions only the shared vocabulary (the inputs and the output) and
    certifies the implicit definition: ``φ → θ`` and ``θ ∧ φ' → o ≡ o'``.
    For the ``hard`` nested-set entries this is as far as the release's
    synthesis pipeline goes (the set-of-set extraction of Theorem 10 is not
    wired end-to-end), which is exactly why their witnesses are stored
    rather than recomputed.
    """
    from repro.interpolation.delta0 import interpolate
    from repro.interpolation.partition import Partition

    goal = problem.determinacy_goal()
    partition = Partition.of(goal, left_delta=[negate(problem.phi)])
    return interpolate(proof, partition)


def replay_witness(
    problem: ImplicitDefinitionProblem,
    proof: ProofNode,
    assignments: Sequence[Dict[Var, object]],
    name: str = "",
) -> ReplayReport:
    """Replay a stored witness end-to-end: check, interpolate, verify.

    The proof is re-checked through the independent checker, interpolated
    against the hypothesis partition, and both interpolation conditions are
    evaluated semantically over every pair drawn from ``assignments`` (the
    primed copy ranges over the pool independently, so the uniqueness
    direction is exercised across instances, not just on the diagonal).
    """
    from repro.logic.macros import equivalent, implies
    from repro.logic.semantics import eval_formula
    from repro.obs.trace import get_tracer
    from repro.proofs.checker import check_proof
    from repro.proofs.prooftree import proof_size

    check_proof(proof)
    if proof.sequent != problem.determinacy_goal():
        raise ProofError(
            f"witness for {name or problem.name} does not prove the determinacy sequent"
        )
    with get_tracer().span(
        "witness.replay", problem=problem.name, proof_size=proof_size(proof)
    ):
        theta = determinacy_interpolant(problem, proof)

    primed_phi, primed_output, primed_aux = problem.primed()
    goal = equivalent(problem.output, primed_output)
    left_condition = implies(problem.phi, theta)
    right_condition = implies(And(theta, primed_phi), goal)

    checked = 0
    pool = [dict(assignment) for assignment in assignments]
    for plain in pool:
        for primed in pool:
            env = dict(plain)
            env[primed_output] = primed[problem.output]
            for aux, primed_var in zip(problem.auxiliaries, primed_aux):
                env[primed_var] = primed[aux]
            for condition in (left_condition, right_condition):
                if not eval_formula(condition, env):
                    raise ProofError(
                        f"interpolant condition failed for {name or problem.name}: "
                        f"{condition}"
                    )
                checked += 1
    return ReplayReport(
        name=name or problem.name,
        proof_nodes=proof_size(proof),
        interpolant=theta,
        conditions_checked=checked,
    )


def replay_handwritten(store, name: str, scale: int = 2) -> ReplayReport:
    """Import-and-replay one hard entry's witness from ``store``.

    Looks the witness up by its determinacy sequent (the content address),
    re-checks it, and runs :func:`replay_witness` over the entry's bundled
    instance family.
    """
    from repro.specs.examples import example_1_1_instances, example_4_1_instances

    instance_families = {
        "example_4_1": example_4_1_instances,
        "example_1_1": example_1_1_instances,
    }
    problem = HANDWRITTEN_PROBLEMS[name]()
    record = store.get_for_sequent(problem.determinacy_goal())
    if record is None:
        raise ProofError(f"no stored witness for {name!r} (run install_handwritten)")
    return replay_witness(
        problem, record.proof, instance_families[name](scale), name=name
    )
